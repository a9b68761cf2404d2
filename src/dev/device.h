// Simulated devices: a disk and a network interface.
//
// Each device owns a request queue and a fixed per-operation latency. A
// request completes in two stages, like real hardware: the device "raises an
// interrupt" at completion time (a virtual-clock event), and the interrupt
// wakes the device's service thread — an internal kernel thread that runs
// completion callbacks at thread level (the split real drivers call top
// half / bottom half). Under MK40 the service thread blocks between
// interrupts with a tail-recursive continuation, feeding Table 1's
// "internal threads" row with genuine device activity.
#ifndef MACHCONT_SRC_DEV_DEVICE_H_
#define MACHCONT_SRC_DEV_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/queue.h"
#include "src/base/types.h"

namespace mkc {

class Kernel;

struct DeviceStats {
  std::uint64_t requests = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t completions_run = 0;
  std::uint64_t max_queue_depth = 0;
};

// One simulated device. Completion callbacks run on the device's service
// thread (kernel context); they may wake threads but must not block.
class Device {
 public:
  using Completion = std::function<void()>;

  Device(Kernel& kernel, std::string name, Ticks latency);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // Queues a request; `done` runs on the service thread after the device's
  // latency (requests to one device complete in FIFO order, one at a time —
  // a busy device stretches later completions, like a real disk).
  void Submit(Completion done);

  const DeviceStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  Ticks latency() const { return latency_; }

  // Service-thread body for this device (bound via the kernel's device
  // registry; public for the kernel-thread trampoline).
  void ServiceStep();

 private:
  struct Request {
    QueueEntry link;
    Completion done;
  };

  void RaiseInterruptAt(Ticks when);
  static void InterruptFire(void* ctx, std::uint64_t arg);  // Event callback.

  Kernel& kernel_;
  std::string name_;
  Ticks latency_;

  // Requests waiting for their "DMA" to finish; the head completes at
  // head_done_time_.
  IntrusiveQueue<Request, &Request::link> in_flight_;
  Ticks head_done_time_ = 0;
  bool interrupt_armed_ = false;

  // Completions whose interrupt has fired, awaiting the service thread.
  IntrusiveQueue<Request, &Request::link> completed_;
  char service_event_ = 0;

  DeviceStats stats_;
};

// The kernel's devices. Slot 0 is the paging disk; slot 1 the network
// interface. More can be added by subsystems or tests.
class DeviceRegistry {
 public:
  explicit DeviceRegistry(Kernel& kernel);

  Device& disk() { return *devices_[0]; }
  Device& nic() { return *devices_[1]; }
  Device& slot(int i) { return *devices_[static_cast<std::size_t>(i)]; }

  Device& Add(std::string name, Ticks latency);

  // Per-device service-thread bodies need static continuations; the
  // registry binds up to kMaxDevices of them.
  static constexpr int kMaxDevices = 4;

 private:
  Kernel& kernel_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_DEV_DEVICE_H_
