#include "src/dev/device.h"

#include <algorithm>

#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/kern/kernel.h"

namespace mkc {
namespace {

// Static continuation trampolines: one per registry slot, since kernel
// thread bodies are bare function pointers (continuations take no
// arguments). The device is recovered through the active kernel's registry —
// a service thread only ever runs while its own kernel is active, so the
// slot index stays meaningful with multiple kernels in one process.
template <int Slot>
void DeviceServiceBody() {
  ActiveKernel().devices().slot(Slot).ServiceStep();
  // ServiceStep ends with ThreadBlock; under the process-model kernels it
  // returns here and the kernel-thread runner loops.
}

using ServiceBody = void (*)();
constexpr ServiceBody kServiceBodies[DeviceRegistry::kMaxDevices] = {
    &DeviceServiceBody<0>,
    &DeviceServiceBody<1>,
    &DeviceServiceBody<2>,
    &DeviceServiceBody<3>,
};

}  // namespace

Device::Device(Kernel& kernel, std::string name, Ticks latency)
    : kernel_(kernel), name_(std::move(name)), latency_(latency) {}

Device::~Device() {
  while (Request* r = in_flight_.DequeueHead()) {
    delete r;
  }
  while (Request* r = completed_.DequeueHead()) {
    delete r;
  }
}

void Device::Submit(Completion done) {
  ++stats_.requests;
  auto* request = new Request;
  request->done = std::move(done);

  // FIFO device: the new request finishes `latency_` after the later of now
  // and the previous head's completion.
  Ticks now = kernel_.clock().Now();
  Ticks start = in_flight_.Empty() ? now : std::max(now, head_done_time_);
  Ticks done_at = start + latency_;
  if (in_flight_.Empty()) {
    head_done_time_ = done_at;
  }
  in_flight_.EnqueueTail(request);
  stats_.max_queue_depth =
      std::max<std::uint64_t>(stats_.max_queue_depth, in_flight_.Size());
  if (!interrupt_armed_) {
    RaiseInterruptAt(head_done_time_);
  }
}

void Device::RaiseInterruptAt(Ticks when) {
  interrupt_armed_ = true;
  kernel_.events().Post(when, &Device::InterruptFire, this);
}

void Device::InterruptFire(void* ctx, std::uint64_t /*arg*/) {
  // "Interrupt context": move the head request to the completed queue and
  // wake the service thread; defer the real work to thread level.
  auto* self = static_cast<Device*>(ctx);
  self->interrupt_armed_ = false;
  ++self->stats_.interrupts;
  if (Request* head = self->in_flight_.DequeueHead()) {
    self->completed_.EnqueueTail(head);
    if (!self->in_flight_.Empty()) {
      self->head_done_time_ = self->kernel_.clock().Now() + self->latency_;
      self->RaiseInterruptAt(self->head_done_time_);
    }
  }
  self->kernel_.ThreadWakeupAll(&self->service_event_);
}

void Device::ServiceStep() {
  Kernel& k = kernel_;
  while (Request* request = completed_.DequeueHead()) {
    ++stats_.completions_run;
    request->done();
    delete request;
  }
  k.AssertWait(&service_event_);
  // The archetypal internal kernel thread (§2.2): under MK40 it blocks with
  // its own body as the continuation.
  ThreadBlock(k.UsesContinuations() ? CurrentThread()->kthread_body : nullptr,
              BlockReason::kInternal);
}

DeviceRegistry::DeviceRegistry(Kernel& kernel) : kernel_(kernel) {
  Add("disk", kernel.config().disk_latency);
  Add("nic", kernel.config().disk_latency / 4 + 1);
}

Device& DeviceRegistry::Add(std::string name, Ticks latency) {
  int slot = static_cast<int>(devices_.size());
  MKC_ASSERT_MSG(slot < kMaxDevices, "device registry full");
  devices_.push_back(std::make_unique<Device>(kernel_, std::move(name), latency));
  Device* dev = devices_.back().get();
  // Every slot trampoline shares one profile label: the folded stack already
  // distinguishes devices by the service thread's name.
  kernel_.continuations().Register(kServiceBodies[slot], "device_service");
  kernel_.CreateKernelThread(dev->name() + "-intr", kServiceBodies[slot],
                             kNumPriorities - 3);
  return *dev;
}

}  // namespace mkc
