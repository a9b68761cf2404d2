// The mach_msg system call: combined send/receive with the continuation-
// based fast RPC path of §2.4 (Figure 2).
#ifndef MACHCONT_SRC_IPC_MACH_MSG_H_
#define MACHCONT_SRC_IPC_MACH_MSG_H_

#include <cstdint>

#include "src/base/kern_return.h"
#include "src/base/types.h"
#include "src/ipc/message.h"
#include "src/kern/thread.h"

namespace mkc {

struct Port;

// User-side argument block for the mach_msg trap.
struct MachMsgArgs {
  UserMessage* msg = nullptr;   // Send source and/or receive destination.
  std::uint32_t options = 0;    // MsgOption bits.
  std::uint32_t send_size = 0;  // Body bytes to send.
  std::uint32_t rcv_limit = kMaxInlineBytes;  // Largest acceptable body.
  PortId rcv_port = kInvalidPort;  // May name a port set.
  Ticks timeout = 0;            // Receive timeout in virtual ticks; 0 = forever.
};

// Per-thread receive-wait state. This is exactly the resumption context the
// paper stashes in the thread's scratch area — and it is exactly 28 bytes,
// the scratch size the paper chose.
// (packed: every member is naturally aligned already; the attribute only
// drops the trailing pad that 8-byte struct alignment would add, so the
// state is exactly 28 bytes.)
struct __attribute__((packed)) MsgWaitState {
  UserMessage* user_buffer;  // Where the message lands in user space.
  PortId port;
  std::uint32_t rcv_limit;
  std::uint32_t options;
  KernReturn result;
  std::uint32_t flags;
};
static_assert(sizeof(MsgWaitState) == kScratchBytes,
              "MsgWaitState is designed to exactly fill the paper's 28-byte scratch area");

// MsgWaitState::flags bits.
inline constexpr std::uint32_t kMsgWaitDirectComplete = 1u << 0;  // Copied by sender.
inline constexpr std::uint32_t kMsgWaitKernelEndpoint = 1u << 1;  // Kernel is the receiver.

// Kernel handler for the mach_msg trap. Never returns (exits through
// ThreadSyscallReturn or by blocking with a continuation).
[[noreturn]] void HandleMachMsg(Thread* thread, MachMsgArgs* args);

// The continuation most blocked threads in the system hold (§2.4): finish a
// message receive. Recognized by name on the fast RPC path.
void MachMsgContinue();

// Receive finish for strict/constrained receives — the "different
// continuation that does further work" of §2.4, which defeats recognition.
void MachMsgSlowContinue();

// Chooses between the two receive continuations based on the options.
Continuation ChooseReceiveContinuation(std::uint32_t options, std::uint32_t rcv_limit);

// Enters receive-wait state on the live `port` (which every caller has just
// looked up): fills the scratch area and queues the thread on the port's
// receiver queue. Shared by mach_msg, the exception path and netipc.
// A non-zero `timeout` arms a virtual-time timer that fails the receive with
// kRcvTimedOut if nothing arrives in time.
void EnterReceiveWait(Thread* thread, UserMessage* buffer, Port* port,
                      std::uint32_t rcv_limit, std::uint32_t options, Ticks timeout = 0);

// Pops the first waiting receiver able to accept a `size`-byte message.
// Receivers with too-small limits are completed with kRcvTooLarge and made
// runnable. Kernel-endpoint waiters are returned like any other.
Thread* PopEligibleReceiver(Port* port, std::uint32_t size);

// Like PopEligibleReceiver, but for message DELIVERY to `port`: also
// considers receivers blocked on the port's containing set.
Thread* PopReceiverForDelivery(Port* port, std::uint32_t size);

// First deliverable queued message visible from a receive on `rcv_port`
// (which may be a port set; members are scanned round-robin for fairness).
// `from` receives the member port actually holding the message.
KMessage* PeekQueuedFor(Port* rcv_port, Port** from);

// True if a receive on `port` could be satisfied from some queue right now.
bool PortHasQueuedMessages(Port* port);

// Process-model receive completion loop (MK32/Mach 2.5): consume a direct
// delivery or dequeue a message, re-blocking on spurious wakeups. Exits via
// ThreadSyscallReturn.
[[noreturn]] void ProcessModelReceiveFinish(Thread* thread);

// Delivers `header`+`body` straight into a blocked receiver's user buffer
// and marks its wait complete (the "direct copy" that replaces
// copyin/enqueue/dequeue/copyout on fast paths). The caller is responsible
// for making the receiver run.
void DeliverDirect(Thread* receiver, const MessageHeader& header, const void* body);

}  // namespace mkc

#endif  // MACHCONT_SRC_IPC_MACH_MSG_H_
