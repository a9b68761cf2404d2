// The benchmark's four workloads. Each round builds a fresh kernel (or
// cluster), runs one fixed batch of operations on it, checks the results
// and tears it down; the caller times and repeats rounds.
#ifndef MACHCONT_BENCHMARK_WORKLOADS_H_
#define MACHCONT_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/types.h"
#include "src/kern/kernel.h"

namespace mkcbench {

enum class WorkloadId { kRpcLocal, kTransferMix, kOpenloopFabric, kClusterRpcLossy };

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  std::uint64_t default_seed;
  std::uint64_t ops_per_round;
  int warmup_rounds;   // Per arm, untimed, before the measured rounds.
  int default_rounds;  // Measured rounds per arm when neither --rounds nor
                       // --seconds is given.
  int max_spans_per_op;  // Sizes the traced run's span buffer.
};

inline constexpr int kNumWorkloads = 4;
extern const WorkloadSpec kWorkloads[kNumWorkloads];

const WorkloadSpec* FindWorkload(std::string_view name);

// What one round measured. Host times are steady-clock nanoseconds; the
// virtual fields are deterministic for a fixed (workload, model, seed).
struct RoundResult {
  double ctor_ns = 0.0;       // Kernel or Cluster constructor alone.
  double svc_setup_ns = 0.0;  // OpenLoopEngine constructor (openloop only).
  double setup_ns = 0.0;      // Everything built before the run starts.
  double run_ns = 0.0;        // Kernel::Run or Cluster::Run.
  double drain_ns = 0.0;      // Cluster::Drain (cluster only).
  double teardown_ns = 0.0;   // Destroying what setup built.
  double ref_ns = 0.0;  // Host-speed reference timed just before the round
                        // (set by main.cc).

  std::uint64_t ops_requested = 0;
  std::uint64_t ops_done = 0;  // Completed and checked correct.
  std::uint64_t failed = 0;    // Non-success returns, wrong replies, dead names.

  mkc::Ticks vticks = 0;         // Virtual frontier advance over the run.
  mkc::Ticks vlat_p50 = 0;       // Exact per-call virtual latency percentiles.
  mkc::Ticks vlat_p99 = 0;
  std::uint64_t good = 0;        // Ops that met their goal (deadline, if any).
  // Bytes the kernel copied for messages: mach_msg copies, netipc
  // (de)serialization and wire transmits (the cost model's message-copy
  // words times 8).
  std::uint64_t msg_copy_bytes = 0;

  // FNV-1a over the virtual results and every registered counter: rounds of
  // one arm must agree on it exactly.
  std::uint64_t fingerprint = 0;

  // JSON object with the counters behind the per-layer metrics; filled only
  // when the round is asked for detail.
  std::string detail;
};

RoundResult RunRound(const WorkloadSpec& spec, mkc::ControlTransferModel model,
                     std::uint64_t seed, bool want_detail);

}  // namespace mkcbench

#endif  // MACHCONT_BENCHMARK_WORKLOADS_H_
