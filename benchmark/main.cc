// machcont_benchmark: runs the benchmark's workloads and prints one JSON
// record per workload on stdout (progress goes to stderr).
//
//   machcont_benchmark --workload=NAME|all [--seed=N] [--rounds=N]
//                      [--seconds=S] [--trace-out=FILE]
//
// Each arm (kernel model) runs its warm-up rounds, then measured rounds
// interleaved arm by arm (mk40, mk32, mach25, mk40, ...) so a slow phase of
// the host hits every arm alike. --rounds fixes the measured rounds per arm;
// --seconds instead keeps going until that much time has passed (at least
// kMinRounds per arm). With --trace-out every measured round is followed by a
// traced twin that records host-time spans, written as JSONL to FILE at exit;
// by default a traced run measures kMinRounds round pairs of the mk40 and
// mk32 arms. benchmark/run.py turns the records into metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "benchmark/spans.h"
#include "benchmark/workloads.h"
#include "src/machine/context.h"

namespace mkcbench {
namespace {

using Clock = std::chrono::steady_clock;
using mkc::ControlTransferModel;

constexpr int kMinRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  int rounds = 0;         // 0 = decided by --seconds or the workload default.
  double seconds = 0.0;   // 0 = not time-bounded.
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "machcont_benchmark: %s\n"
               "usage: machcont_benchmark --workload=NAME|all [--seed=N] [--rounds=N]\n"
               "         [--seconds=S] [--trace-out=FILE]\n"
               "workloads: rpc_local transfer_mix openloop_fabric cluster_rpc_lossy\n",
               msg);
  std::exit(2);
}

const char* ModelSlug(ControlTransferModel m) {
  switch (m) {
    case ControlTransferModel::kMK40: return "mk40";
    case ControlTransferModel::kMK32: return "mk32";
    case ControlTransferModel::kMach25: return "mach25";
  }
  return "?";
}

std::uint64_t ParseUint(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (*value == '\0' || *end != '\0' || value[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      Usage(("unrecognized argument " + std::string(arg)).c_str());
    }
    const std::string flag(arg.substr(0, eq));
    const std::string value(arg.substr(eq + 1));
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = ParseUint("--seed", value.c_str());
      o.seed_set = true;
    } else if (flag == "--rounds") {
      const std::uint64_t r = ParseUint("--rounds", value.c_str());
      if (r < 1 || r > 100000) {
        Usage("--rounds must be 1..100000");
      }
      o.rounds = static_cast<int>(r);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) {
        Usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace-out") {
      if (value.empty()) {
        Usage("--trace-out needs a file name");
      }
      o.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (o.workload != "all" && FindWorkload(o.workload) == nullptr) {
    Usage(("unknown workload " + o.workload).c_str());
  }
  if (!o.trace_out.empty() && o.workload == "all") {
    Usage("--trace-out takes a single workload");
  }
  return o;
}

// --- Machine-layer floor: the raw context primitives, timed directly ------

constexpr std::size_t kProbeStackBytes = 64 * 1024;

struct PingPong {
  mkc::Context main_ctx;
  mkc::Context other_ctx;
};

void PingPongPartner(void* /*pass*/, void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) {
    mkc::ContextSwitch(&pp->other_ctx, pp->main_ctx, nullptr);
  }
}

// ns per ContextSwitch round trip (save+restore each way).
double SwitchRoundTripNs(std::uint64_t iterations) {
  std::vector<std::uint8_t> stack(kProbeStackBytes);
  PingPong pp;
  const mkc::Context fresh =
      mkc::MakeContext(stack.data(), stack.size(), &PingPongPartner, &pp);
  mkc::ContextSwitch(&pp.main_ctx, fresh, nullptr);  // Partner now parked.
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    mkc::ContextSwitch(&pp.main_ctx, pp.other_ctx, nullptr);
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(iterations);
}

struct JumpChain {
  mkc::Context main_ctx;
  std::uint8_t* stacks[2] = {nullptr, nullptr};
  std::uint64_t left = 0;
};

// Each link frames a fresh context on the other stack and jumps to it
// without saving anything: the continuation-call pattern.
void JumpChainLink(void* pass, void* arg) {
  auto* jc = static_cast<JumpChain*>(pass);
  if (--jc->left == 0) {
    mkc::ContextJump(jc->main_ctx, nullptr);
  }
  const std::uintptr_t next = 1 - reinterpret_cast<std::uintptr_t>(arg);
  const mkc::Context c = mkc::MakeContext(jc->stacks[next], kProbeStackBytes, &JumpChainLink,
                                          reinterpret_cast<void*>(next));
  mkc::ContextJump(c, jc);
}

// ns per MakeContext + ContextJump.
double MakeJumpNs(std::uint64_t iterations) {
  std::vector<std::uint8_t> a(kProbeStackBytes);
  std::vector<std::uint8_t> b(kProbeStackBytes);
  JumpChain jc;
  jc.stacks[0] = a.data();
  jc.stacks[1] = b.data();
  jc.left = iterations;
  const Clock::time_point t0 = Clock::now();
  const mkc::Context first =
      mkc::MakeContext(jc.stacks[0], kProbeStackBytes, &JumpChainLink, nullptr);
  mkc::ContextSwitch(&jc.main_ctx, first, &jc);
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(iterations);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string MachineJson() {
  constexpr int kReps = 7;
  constexpr std::uint64_t kIterations = 100000;
  std::vector<double> sw;
  std::vector<double> mj;
  for (int i = 0; i < kReps; ++i) {
    sw.push_back(SwitchRoundTripNs(kIterations));
    mj.push_back(MakeJumpNs(kIterations));
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"switch_rt_ns\":%.3f,\"make_jump_ns\":%.3f}", Median(sw),
                Median(mj));
  return buf;
}

// --- Host-speed reference --------------------------------------------------
// The host drifts: on a shared VM the same round can take 5-40% longer for
// minutes at a time. A fixed reference that shares no code with machcont is
// timed just before every round, and run.py scales the round's host time by
// (1 ms / reference time): ns at the host speed where the reference takes
// 1 ms. It mixes the two access patterns of the simulator's hot paths: a
// dependent pointer chase over a random 128 KiB cycle, and a recursion
// through a table of function pointers with a small stack frame per call.

using RefFn = std::uint64_t (*)(std::uint64_t, int);
std::uint64_t RefCallA(std::uint64_t x, int depth);
std::uint64_t RefCallB(std::uint64_t x, int depth);
RefFn g_ref_calls[2] = {&RefCallA, &RefCallB};  // Not const: calls stay indirect.
volatile std::uint64_t g_ref_sink = 0;

[[gnu::noinline]] std::uint64_t RefCallA(std::uint64_t x, int depth) {
  if (depth == 0) {
    return x;
  }
  volatile std::uint64_t frame[8] = {};
  frame[x & 7] = x;
  return g_ref_calls[(x >> 3) & 1](x * 31 + frame[(x >> 2) & 7], depth - 1) + 1;
}

[[gnu::noinline]] std::uint64_t RefCallB(std::uint64_t x, int depth) {
  if (depth == 0) {
    return x ^ 7;
  }
  volatile std::uint64_t frame[12] = {};
  frame[x % 12] = x;
  return g_ref_calls[(x >> 5) & 1](x * 17 + frame[(x >> 1) % 12], depth - 1) ^ 3;
}

class HostSpeedReference {
 public:
  HostSpeedReference() : next_(kEntries) {
    // Sattolo's shuffle: one cycle through every entry.
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      next_[i] = i;
    }
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  // One timed pass, in ns (about 1 ms on the machine in results/seed.json).
  double TimeNs() {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t p = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < kChaseSteps; ++i) {
      p = next_[p];
      acc = acc * 6364136223846793005ULL + p;
    }
    for (int i = 0; i < kCalls; ++i) {
      acc += g_ref_calls[i & 1](acc + static_cast<std::uint64_t>(i), kCallDepth);
    }
    g_ref_sink = acc;
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::uint32_t kEntries = 1u << 15;
  static constexpr int kChaseSteps = 100000;
  static constexpr int kCalls = 6500;
  static constexpr int kCallDepth = 12;
  std::vector<std::uint32_t> next_;
};

// --- Rounds -----------------------------------------------------------------

struct ArmRecord {
  ControlTransferModel model;
  std::vector<RoundResult> rounds;
  std::vector<RoundResult> traced;  // Paired with `rounds` in a traced run.
  std::string detail;
  std::uint64_t peak_rss_kib = 0;
};

void AppendArray(std::string* out, const char* key, const std::vector<RoundResult>& rounds,
                 double RoundResult::*field) {
  *out += ",\"";
  *out += key;
  *out += "\":[";
  char buf[48];
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ",", rounds[i].*field);
    *out += buf;
  }
  *out += "]";
}

void AppendArray(std::string* out, const char* key, const std::vector<RoundResult>& rounds,
                 std::uint64_t RoundResult::*field, bool hex = false) {
  *out += ",\"";
  *out += key;
  *out += "\":[";
  char buf[48];
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::snprintf(buf, sizeof(buf), hex ? "%s\"%016" PRIx64 "\"" : "%s%" PRIu64,
                  i == 0 ? "" : ",", rounds[i].*field);
    *out += buf;
  }
  *out += "]";
}

std::string ArmJson(const ArmRecord& arm) {
  std::string out = "{\"model\":\"";
  out += ModelSlug(arm.model);
  out += "\",\"rounds\":" + std::to_string(arm.rounds.size());
  AppendArray(&out, "ref_ns", arm.rounds, &RoundResult::ref_ns);
  AppendArray(&out, "setup_ns", arm.rounds, &RoundResult::setup_ns);
  AppendArray(&out, "ctor_ns", arm.rounds, &RoundResult::ctor_ns);
  AppendArray(&out, "svc_setup_ns", arm.rounds, &RoundResult::svc_setup_ns);
  AppendArray(&out, "run_ns", arm.rounds, &RoundResult::run_ns);
  AppendArray(&out, "drain_ns", arm.rounds, &RoundResult::drain_ns);
  AppendArray(&out, "teardown_ns", arm.rounds, &RoundResult::teardown_ns);
  AppendArray(&out, "ops_done", arm.rounds, &RoundResult::ops_done);
  AppendArray(&out, "failed", arm.rounds, &RoundResult::failed);
  AppendArray(&out, "fingerprint", arm.rounds, &RoundResult::fingerprint, /*hex=*/true);
  if (!arm.traced.empty()) {
    AppendArray(&out, "traced_run_ns", arm.traced, &RoundResult::run_ns);
    AppendArray(&out, "traced_drain_ns", arm.traced, &RoundResult::drain_ns);
    AppendArray(&out, "traced_fingerprint", arm.traced, &RoundResult::fingerprint, true);
  }
  const RoundResult& first = arm.rounds.front();
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                ",\"virtual\":{\"ops\":%" PRIu64 ",\"vticks\":%" PRIu64 ",\"vlat_p50\":%" PRIu64
                ",\"vlat_p99\":%" PRIu64 ",\"good\":%" PRIu64
                ",\"msg_copy_bytes\":%" PRIu64 "}",
                first.ops_requested, first.vticks, first.vlat_p50, first.vlat_p99, first.good,
                first.msg_copy_bytes);
  out += buf;
  out += ",\"peak_rss_kib\":" + std::to_string(arm.peak_rss_kib);
  out += ",\"detail\":" + (arm.detail.empty() ? std::string("{}") : arm.detail);
  out += "}";
  return out;
}

// Peak RSS of this process image in KiB (VmHWM), or 0 if unknown.
// getrusage's ru_maxrss will not do: it survives execve, so a benchmark
// started by a large parent would report the parent's peak.
std::uint64_t PeakRssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// Returns freed heap to the kernel and restarts VmHWM from the resulting
// RSS, so the next PeakRssKib() is the peak of what runs next rather than of
// the process's history. Where either step is unavailable the peak is
// cumulative instead.
void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::string RunWorkload(const WorkloadSpec& spec, const Options& opt, std::FILE* trace_file) {
  const std::uint64_t seed = opt.seed_set ? opt.seed : spec.default_seed;
  const bool traced = trace_file != nullptr;
  int fixed_rounds = opt.rounds;
  if (fixed_rounds == 0 && opt.seconds == 0.0) {
    fixed_rounds = traced ? kMinRounds : spec.default_rounds;
  }
  // Per-layer metrics need only the mk40 and mk32 arms.
  std::vector<ControlTransferModel> models = {ControlTransferModel::kMK40,
                                              ControlTransferModel::kMK32};
  if (!traced) {
    models.push_back(ControlTransferModel::kMach25);
  }

  const std::string machine = MachineJson();
  HostSpeedReference reference;

  std::unique_ptr<SpanRecorder> recorder;
  if (traced) {
    // A time-bounded traced run cannot know its round count up front; the
    // buffer then holds as many rounds as fit and counts the rest dropped.
    const int traced_rounds = fixed_rounds > 0 ? fixed_rounds : kMinRounds;
    const std::size_t per_round = static_cast<std::size_t>(spec.ops_per_round) *
                                      static_cast<std::size_t>(spec.max_spans_per_op) +
                                  64;
    recorder = std::make_unique<SpanRecorder>(per_round * models.size() *
                                              static_cast<std::size_t>(traced_rounds));
  }

  std::vector<ArmRecord> arms;
  for (ControlTransferModel m : models) {
    arms.push_back(ArmRecord{m, {}, {}, {}, 0});
  }

  for (int w = 0; w < spec.warmup_rounds; ++w) {
    for (ArmRecord& arm : arms) {
      RoundResult r = RunRound(spec, arm.model, seed, /*want_detail=*/false);
      if (r.failed != 0) {
        std::fprintf(stderr, "%s/%s: warm-up round failed %" PRIu64 " ops\n", spec.name,
                     ModelSlug(arm.model), r.failed);
      }
    }
  }

  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opt.seconds));
  for (int round = 0;; ++round) {
    if (fixed_rounds > 0 ? round >= fixed_rounds
                         : (round >= kMinRounds && Clock::now() >= deadline)) {
      break;
    }
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const bool want_detail = round == 0;
      const double ref_ns = reference.TimeNs();
      RoundResult r = RunRound(spec, arms[a].model, seed, want_detail);
      r.ref_ns = ref_ns;
      if (want_detail) {
        arms[a].detail = std::move(r.detail);
      }
      arms[a].rounds.push_back(std::move(r));
      if (recorder != nullptr) {
        // The traced twin of the round just run: the pair gives the tracing
        // overhead without a host phase change between the two.
        recorder->SetArm(static_cast<std::uint8_t>(a));
        g_spans = recorder.get();
        arms[a].traced.push_back(RunRound(spec, arms[a].model, seed, false));
        g_spans = nullptr;
      }
    }
  }
  const double measured_s = std::chrono::duration<double>(Clock::now() - start).count();

  // Peak RSS comes from one more round per arm, run on a trimmed heap, so it
  // is a round's footprint and not the heap history of the timed rounds.
  for (ArmRecord& arm : arms) {
    ResetPeakRss();
    RunRound(spec, arm.model, seed, /*want_detail=*/false);
    arm.peak_rss_kib = PeakRssKib();
  }

  std::string out = "{\"workload\":\"";
  out += spec.name;
  out += "\",\"seed\":" + std::to_string(seed);
  out += ",\"traced\":";
  out += traced ? "true" : "false";
  out += ",\"ops_per_round\":" + std::to_string(spec.ops_per_round);
  out += ",\"warmup_rounds\":" + std::to_string(spec.warmup_rounds);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"measured_s\":%.3f", measured_s);
  out += buf;
  out += ",\"machine\":" + machine;
  if (recorder != nullptr) {
    out += ",\"spans\":" + std::to_string(recorder->size());
    out += ",\"spans_dropped\":" + std::to_string(recorder->dropped());
    std::vector<const char*> names;
    for (const ArmRecord& arm : arms) {
      names.push_back(ModelSlug(arm.model));
    }
    recorder->WriteJsonl(trace_file, names);
  }
  out += ",\"arms\":[";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    if (a > 0) {
      out += ',';
    }
    out += ArmJson(arms[a]);
  }
  out += "]}";
  return out;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::FILE* trace_file = nullptr;
  if (!opt.trace_out.empty()) {
    trace_file = std::fopen(opt.trace_out.c_str(), "w");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "machcont_benchmark: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (opt.workload != "all" && opt.workload != spec.name) {
      continue;
    }
    std::fprintf(stderr, "machcont_benchmark: running %s\n", spec.name);
    const std::string record = RunWorkload(spec, opt, trace_file);
    std::fprintf(stdout, "%s\n", record.c_str());
    std::fflush(stdout);
  }
  if (trace_file != nullptr && std::fclose(trace_file) != 0) {
    std::fprintf(stderr, "machcont_benchmark: error writing %s\n", opt.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mkcbench

int main(int argc, char** argv) { return mkcbench::Main(argc, argv); }
