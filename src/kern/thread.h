// Machine-independent thread state (the kernel's `struct thread`).
//
// The paper's key MI additions are the continuation function pointer and a
// 28-byte scratch area that blocking code uses to stash its resumption
// context explicitly (§2.1). Both appear here verbatim; Scratch<T>() gives
// type-checked access and statically rejects oversized state, which forces
// blocking paths to allocate side structures for anything larger — exactly
// the discipline the paper describes.
#ifndef MACHCONT_SRC_KERN_THREAD_H_
#define MACHCONT_SRC_KERN_THREAD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/base/kern_return.h"
#include "src/base/queue.h"
#include "src/base/types.h"
#include "src/machine/md_state.h"
#include "src/machine/stack.h"

namespace mkc {

struct Task;
class Kernel;

// A continuation: the function a blocked thread should execute when it next
// runs. Continuations take no arguments and never return (§2.1: "a function
// specified as a continuation cannot return as normal functions do") —
// resumption state travels through the thread's scratch area instead.
using Continuation = void (*)();

enum class ThreadState : std::uint8_t {
  kEmbryo,    // Created, not yet started.
  kRunning,   // Currently executing on the processor.
  kRunnable,  // On a run queue (or being preempted back onto one).
  kWaiting,   // Blocked on an event, port or page.
  kHalted,    // Exited; awaiting the reaper.
};

// Why a thread blocked — the rows of Table 1. Idle-thread blocks are
// scheduling artifacts and are excluded from the table (tracked separately).
enum class BlockReason : std::uint8_t {
  kMessageReceive = 0,  // Waiting in mach_msg for a message.
  kException,           // Faulting thread waiting for its exception server.
  kPageFault,           // User-level page fault waiting for a page.
  kThreadSwitch,        // Voluntary reschedule from user level.
  kPreempt,             // Quantum expiry.
  kInternal,            // Internal kernel threads waiting for work.
  kMsgSend,             // Sender waiting for space in a full message queue.
  kKernelFault,         // Page fault while executing in the kernel.
  kMemoryAlloc,         // Kernel memory allocation under shortage.
  kLockWait,            // Kernel lock acquisition.
  kThreadExit,          // Final block of a halted thread.
  kIdle,                // The idle thread giving up the processor.
  kCount,
};

const char* BlockReasonName(BlockReason reason);

// Kebab-case form of BlockReasonName, used to build metric names
// ("lat.block_to_resume.message-receive" and friends).
const char* BlockReasonSlug(BlockReason reason);

// How a thread last became runnable — selects which scheduler-latency
// histogram its next resume records into.
enum class RunnableFrom : std::uint8_t {
  kNone = 0,
  kWakeup,   // ThreadSetrun/ThreadSetrunOn (wakeup → run delay).
  kRequeue,  // Preemption-style requeue while still runnable (run-queue wait).
};

// Scratch area size, straight from the paper: "The kernel's thread data
// structure contains a scratch area large enough for 28 bytes of state."
inline constexpr std::size_t kScratchBytes = 28;

struct Thread {
  // --- Linkage ---------------------------------------------------------
  QueueEntry run_link;    // Run queue, wait-event bucket, or reaper queue.
  QueueEntry ipc_link;    // Port receiver/sender queues.
  QueueEntry task_link;   // Task's thread list.

  // --- Identity --------------------------------------------------------
  ThreadId id = 0;
  Task* task = nullptr;
  // Display name for observability (profiler folded stacks, watchdog
  // reports): kernel threads keep their creation name, user threads their
  // task's. Never read on a hot path.
  std::string name;

  // --- Scheduling ------------------------------------------------------
  ThreadState state = ThreadState::kEmbryo;
  int priority = 16;            // 0..kNumPriorities-1; higher runs first.
  bool is_idle = false;         // Per-processor idle thread.
  bool is_internal = false;     // Internal kernel thread (Table 1 row).
  bool counts_for_liveness = true;  // Daemons/servers don't hold the kernel up.
  Ticks quantum_start = 0;      // Virtual time the current quantum began.
  int last_cpu = 0;             // CPU this thread last ran on (wakeup target).
  int runq_cpu = -1;            // CPU whose run queue holds it, or -1.

  // --- Observability stamps (virtual time; 0 = not pending) -------------
  // Written on the corresponding entry path, consumed (and zeroed) when the
  // matching latency histogram is recorded. Plain fields: no allocation and
  // no cost when metrics are not inspected.
  Ticks block_start = 0;  // Set in BlockCommon; read at resume.
  Ticks fault_start = 0;  // Set at page-fault entry; read at completion.
  Ticks exc_start = 0;    // Set at exception entry; read at reply-finish.
  // Scheduler-latency stamp: when (and how) the thread was last made
  // runnable; consumed when it next gets a processor (RecordResumeLatency).
  Ticks runnable_start = 0;
  RunnableFrom runnable_from = RunnableFrom::kNone;

  // --- Causal span (src/obs/span.h) -------------------------------------
  // The logical request this thread is currently servicing, re-stamped on
  // message delivery so it follows the request across handoffs and steals.
  // Lives here rather than in the scratch area: MsgWaitState fills the
  // paper's 28 bytes exactly. Both always 0 when tracing is disabled.
  std::uint32_t span_id = 0;
  std::uint32_t span_parent = 0;  // Enclosing span, restored at SpanEnd.
  // Last time the carried span made progress (begin or adoption); the stall
  // watchdog flags spans whose stamp goes stale. 0 when no span is active.
  Ticks span_start = 0;

  // --- Continuation machinery (the paper's MI additions) ---------------
  Continuation continuation = nullptr;
  alignas(std::uint64_t) std::byte scratch[kScratchBytes] = {};
  BlockReason block_reason = BlockReason::kInternal;

  // --- Kernel stack ----------------------------------------------------
  // Null while the thread is blocked with a continuation (discarded) or has
  // not yet run — the space saving of §3.4.
  KernelStack* kernel_stack = nullptr;

  // --- Wait bookkeeping -------------------------------------------------
  const void* wait_event = nullptr;       // Event for AssertWait/ThreadWakeup.
  KernReturn wait_result = KernReturn::kSuccess;
  // Names one logical receive wait: EnterReceiveWait increments it, and a
  // spurious wakeup that re-waits keeps it. It is the generation word of the
  // wait's timeout event, so the next wait cancels a superseded timer.
  std::uint32_t wait_seq = 0;

  // --- IPC / exception plumbing ------------------------------------------
  // Reply port the kernel waits on (as an endpoint) for this thread's
  // exception RPCs; allocated lazily on first exception.
  PortId exc_reply_port = kInvalidPort;

  // Body of an internal kernel thread: one work iteration ending in a block.
  // Under MK40 the body blocks with itself as the continuation — the
  // tail-recursive infinite loop of §2.2; under the process-model kernels
  // the runner loops around the returning block instead.
  Continuation kthread_body = nullptr;

  // --- Machine-dependent state ------------------------------------------
  MdThreadState md;

  // Type-checked access to the scratch area. T must be trivially copyable
  // and fit in 28 bytes; blocking code needing more must allocate a side
  // structure (paper §2.1).
  template <typename T>
  T& Scratch() {
    static_assert(std::is_trivially_copyable_v<T>, "scratch state must be POD");
    static_assert(sizeof(T) <= kScratchBytes, "scratch state exceeds the 28-byte scratch area");
    return *reinterpret_cast<T*>(scratch);
  }

  template <typename T>
  const T& Scratch() const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= kScratchBytes);
    return *reinterpret_cast<const T*>(scratch);
  }
};

}  // namespace mkc

#endif  // MACHCONT_SRC_KERN_THREAD_H_
