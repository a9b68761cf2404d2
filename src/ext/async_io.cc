#include "src/ext/async_io.h"

#include <cstring>

#include "src/base/panic.h"
#include "src/ext/ext_state.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/machine/machdep.h"
#include "src/task/syscalls.h"

namespace mkc {
namespace {

// The kernel-side completion continuation: runs from the event queue in
// virtual time, delivers the notification, and must not block. `ctx` is the
// kernel; `port_and_id` packs the notify port (high word) and request id.
void AsyncIoComplete(void* ctx, std::uint64_t port_and_id) {
  Kernel& k = *static_cast<Kernel*>(ctx);
  const auto notify_port = static_cast<PortId>(port_and_id >> 32);
  const auto request_id = static_cast<std::uint32_t>(port_and_id);
  auto& stats = GetAsyncIoStats(k);
  ++stats.completed;

  Port* port = k.ipc().Lookup(notify_port);
  if (port == nullptr) {
    ++stats.notify_dropped;
    return;
  }

  AsyncIoDoneBody body;
  body.request_id = request_id;
  MessageHeader hdr;
  hdr.dest = notify_port;
  hdr.msg_id = kAsyncIoDoneMsgId;
  hdr.size = sizeof(body);

  if (Thread* receiver = PopReceiverForDelivery(port, sizeof(body))) {
    DeliverDirect(receiver, hdr, &body);
    k.ThreadSetrun(receiver);
    ++stats.notify_direct;
    return;
  }
  KMessage* kmsg = k.ipc().TryAllocKmsg(sizeof(body));
  if (kmsg == nullptr) {
    ++stats.notify_dropped;
    return;
  }
  kmsg->header = hdr;
  std::memcpy(kmsg->body, &body, sizeof(body));
  port->messages.EnqueueTail(kmsg);
  ++stats.notify_queued;
}

}  // namespace

AsyncIoStats& GetAsyncIoStats(Kernel& kernel) { return kernel.ext().async_io; }

[[noreturn]] void HandleAsyncIoStart(Thread* /*thread*/, AsyncIoArgs* args) {
  Kernel& k = ActiveKernel();
  if (args == nullptr || args->notify_port == kInvalidPort) {
    ThreadSyscallReturn(KernReturn::kInvalidArgument);
  }
  ++GetAsyncIoStats(k).started;
  const std::uint64_t port_and_id =
      (std::uint64_t{args->notify_port} << 32) | args->request_id;
  k.events().Post(k.clock().Now() + args->latency, &AsyncIoComplete, &k,
                  port_and_id);
  // The requesting thread keeps the processor: that is the point of
  // asynchronous I/O.
  ThreadSyscallReturn(KernReturn::kSuccess);
}

}  // namespace mkc
