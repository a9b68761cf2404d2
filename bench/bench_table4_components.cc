// Reproduces Table 4: "Component Costs" — the per-primitive cost of kernel
// entry/exit, stack handoff and context switch.
//
// Two honest signals replace the paper's MIPS instruction counts (DESIGN.md):
//   * measured host ns per operation, and
//   * the machine layer's modeled word loads/stores (real memory traffic it
//     performs for each primitive).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/machine/context.h"
#include "src/machine/cost_model.h"
#include "src/machine/cycle_model.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

struct Probe {
  double ns_per_op = 0.0;
  double cycles_per_op = 0.0;  // Simulated machine cycles (cycle model).
  CostCounters entry;
  CostCounters exit;
  CostCounters handoff;
  CostCounters context_switch;
};

struct LoopState {
  int iterations = 0;
};

void NullSyscallLoop(void* arg) {
  auto* st = static_cast<LoopState*>(arg);
  for (int i = 0; i < st->iterations; ++i) {
    UserNullSyscall();
  }
}

void YieldLoop(void* arg) {
  auto* st = static_cast<LoopState*>(arg);
  for (int i = 0; i < st->iterations; ++i) {
    UserYield();
  }
}

// ns per null system call (entry + exit pair).
Probe MeasureNullSyscall(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  LoopState st{iterations};
  kernel.CreateUserThread(task, &NullSyscallLoop, &st);
  kernel.ResetStats();
  WallTimer timer;
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Probe probe;
  probe.ns_per_op = timer.Seconds() * 1e9 / iterations;
  probe.cycles_per_op =
      static_cast<double>(kernel.clock().Now() - t0) / static_cast<double>(iterations);
  probe.entry = kernel.cost_model().Get(CostOp::kSyscallEntry);
  probe.exit = kernel.cost_model().Get(CostOp::kSyscallExit);
  return probe;
}

// ns per thread-to-thread transfer: two yielding threads ping-pong the
// processor. Under MK40 each transfer is a stack handoff; under MK32 it is a
// full context switch — isolating exactly the pair Table 4 compares.
Probe MeasureTransfer(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  LoopState st{iterations};
  kernel.CreateUserThread(task, &YieldLoop, &st);
  kernel.CreateUserThread(task, &YieldLoop, &st);
  kernel.ResetStats();
  WallTimer timer;
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Probe probe;
  // Two threads x iterations transfers (approximately).
  probe.ns_per_op = timer.Seconds() * 1e9 / (2.0 * iterations);
  probe.cycles_per_op =
      static_cast<double>(kernel.clock().Now() - t0) / (2.0 * iterations);
  probe.handoff = kernel.cost_model().Get(CostOp::kStackHandoff);
  probe.context_switch = kernel.cost_model().Get(CostOp::kContextSwitch);
  return probe;
}

void PrintModeled(const char* label, const CostCounters& c) {
  if (c.calls == 0) {
    std::printf("  %-20s (not used)\n", label);
    return;
  }
  std::printf("  %-20s %10llu calls, %5.1f word-loads, %5.1f word-stores per call\n", label,
              static_cast<unsigned long long>(c.calls),
              static_cast<double>(c.word_loads) / static_cast<double>(c.calls),
              static_cast<double>(c.word_stores) / static_cast<double>(c.calls));
}

int Main(int argc, char** argv) {
  int iterations = 200000 * ScaleFromArgs(argc, argv, 1);

  // Every cell is warmed and repeated (bench_util.h WarmedMedian), so no
  // row carries first-run inflation.
  auto cell = [](Probe (*measure)(ControlTransferModel, int), ControlTransferModel model,
                 int n) {
    return WarmedMedian([&](int i) { return measure(model, i); }, n, &Probe::ns_per_op);
  };
  Probe mk40_syscall = cell(&MeasureNullSyscall, ControlTransferModel::kMK40, iterations);
  Probe mk32_syscall = cell(&MeasureNullSyscall, ControlTransferModel::kMK32, iterations);
  Probe mk40_transfer = cell(&MeasureTransfer, ControlTransferModel::kMK40, iterations / 2);
  Probe mk32_transfer = cell(&MeasureTransfer, ControlTransferModel::kMK32, iterations / 2);

  std::printf("Table 4: Component Costs\n");
  std::printf("Paper (DS3100): instrs/loads/stores. Measured: host ns + modeled words.\n\n");

  std::printf("Simulated machine cycles per end-to-end operation (cycle model):\n");
  std::printf("%-28s %10s %10s   paper MK40      paper MK32\n", "", "MK40", "MK32");
  std::printf("%-28s %7.0f cyc %7.0f cyc   entry 64i/7l/25s  67i/8l/20s\n",
              "null syscall (entry+exit)", mk40_syscall.cycles_per_op,
              mk32_syscall.cycles_per_op);
  std::printf("%-28s %7.0f cyc %7.0f cyc   83i/22l/18s       250i/52l/27s\n",
              "yield transfer (handoff/switch)", mk40_transfer.cycles_per_op,
              mk32_transfer.cycles_per_op);
  std::printf("\nHost wall clock per operation (median of %d runs after a warm-up):\n",
              kHostReps);
  std::printf("%-28s %12s %12s\n", "", "MK40", "MK32");
  std::printf("%-28s %9.1f ns %9.1f ns\n", "null syscall (entry+exit)",
              mk40_syscall.ns_per_op, mk32_syscall.ns_per_op);
  std::printf("%-28s %9.1f ns %9.1f ns\n", "transfer (handoff/switch)",
              mk40_transfer.ns_per_op, mk32_transfer.ns_per_op);

  std::printf("\nModeled machine-layer traffic (MK40 run):\n");
  PrintModeled("system call entry", mk40_syscall.entry);
  PrintModeled("system call exit", mk40_syscall.exit);
  PrintModeled("stack handoff", mk40_transfer.handoff);
  PrintModeled("context switch", mk40_transfer.context_switch);
  std::printf("Modeled machine-layer traffic (MK32 run):\n");
  PrintModeled("system call entry", mk32_syscall.entry);
  PrintModeled("system call exit", mk32_syscall.exit);
  PrintModeled("context switch", mk32_transfer.context_switch);

  std::printf("\nShape checks (paper in brackets):\n");
  std::printf("  switch-path / handoff-path cycles per transfer: %.2fx "
              "[250/83 = 3.0x on the bare primitive]\n",
              mk32_transfer.cycles_per_op / mk40_transfer.cycles_per_op);
  std::printf("  bare primitive cycle model: handoff %llu, context switch %llu\n",
              static_cast<unsigned long long>(kCycStackHandoff),
              static_cast<unsigned long long>(kCycContextSwitch));
  std::printf("  MK40 entry stores > MK32 entry stores: %s [paper: 25 vs 20]\n",
              mk40_syscall.entry.word_stores * mk32_syscall.entry.calls >
                      mk32_syscall.entry.word_stores * mk40_syscall.entry.calls
                  ? "yes"
                  : "no");
  std::printf("  context backend: %s (%d callee-saved words per raw switch)\n",
              kContextBackendName, kContextSwitchSavedWords);

  BenchJsonBuilder("table4_components")
      .Config("iterations", iterations)
      .Metric("mk40_syscall_cycles", mk40_syscall.cycles_per_op)
      .Metric("mk32_syscall_cycles", mk32_syscall.cycles_per_op)
      .Metric("mk40_transfer_cycles", mk40_transfer.cycles_per_op)
      .Metric("mk32_transfer_cycles", mk32_transfer.cycles_per_op)
      .Metric("switch_over_handoff",
              mk32_transfer.cycles_per_op / mk40_transfer.cycles_per_op)
      .Metric("handoff_cycles", static_cast<unsigned long long>(kCycStackHandoff))
      .Metric("context_switch_cycles",
              static_cast<unsigned long long>(kCycContextSwitch))
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
