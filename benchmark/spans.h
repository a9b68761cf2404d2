// Host-time spans for the traced benchmark run.
//
// The benchmark's own code (its workload threads and round loop) opens a
// span around each call into a machcont layer's public functions. Spans are
// appended to a buffer reserved before the run, so recording allocates
// nothing, and are written as JSONL when the benchmark exits. Untraced runs
// have no recorder at all: every call site tests one null pointer.
//
// On x86-64 a span stamp reads the TSC, which costs about half a
// steady_clock read on a virtualized host; stamps are converted to
// nanoseconds at write-out by calibrating the TSC against steady_clock over
// the whole recording. Elsewhere the stamps are steady_clock nanoseconds.
#ifndef MACHCONT_BENCHMARK_SPANS_H_
#define MACHCONT_BENCHMARK_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace mkcbench {

// The src/ module a span's callee belongs to. Names match the per-layer
// metric prefixes in BENCHMARK.json.
enum class Layer : std::uint8_t { kKern, kTask, kIpc, kExc, kVm, kNet, kSvc, kWorkload };

enum class SpanName : std::uint8_t {
  kUserRpc,
  kUserServeOnce,
  kUserNullSyscall,
  kUserRaiseException,
  kUserYield,
  kUserTouch,
  kUserVmAllocate,
  kUserVmDeallocate,
  kKernelCtor,
  kKernelRun,
  kKernelDtor,
  kClusterCtor,
  kClusterRun,
  kClusterDrain,
  kClusterDtor,
  kEngineCtor,
  kEngineFinish,
  kEngineDtor,
};

struct Span {
  std::int64_t start = 0;     // Raw stamps (see Stamp()).
  std::int64_t end = 0;
  std::uint32_t id = 0;       // 1-based; 0 means "no span".
  std::uint32_t parent = 0;
  std::uint32_t request = 0;  // Op index within the round (1-based); 0 = none.
  SpanName name = SpanName::kUserRpc;
  Layer layer = Layer::kKern;
  std::uint8_t arm = 0;       // Index into the arm names given to WriteJsonl.
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Tags subsequent spans with the arm being run.
  void SetArm(std::uint8_t arm) { arm_ = arm; }

  // Spans opened while a root is set (a Kernel::Run or Cluster::Run span)
  // take it as their parent: benchmark threads only execute inside a run.
  void SetRoot(std::uint32_t id) { root_ = id; }

  // Opens a span and returns its id, or 0 when the buffer is full (the
  // overflow is counted and reported; End(0) is a no-op).
  std::uint32_t Begin(SpanName name, Layer layer, std::uint32_t request) {
    const std::int64_t start = Stamp();
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = root_;
    s.request = request;
    s.name = name;
    s.layer = layer;
    s.arm = arm_;
    s.start = start;
    spans_.push_back(s);
    return s.id;
  }

  void End(std::uint32_t id) {
    if (id != 0) {
      spans_[id - 1].end = Stamp();
    }
  }

  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return spans_.size(); }

  // One JSON object per line: name, layer, start_ns, end_ns (since the
  // recorder began), id, parent, req, arm. Spans that never ended are left
  // out.
  void WriteJsonl(std::FILE* out, const std::vector<const char*>& arm_names) const;

 private:
  static std::int64_t Stamp() {
#if defined(__x86_64__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }

  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_stamp_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint32_t root_ = 0;
  std::uint8_t arm_ = 0;
};

// The active recorder, or null in untraced runs.
extern SpanRecorder* g_spans;

// RAII span around one call; free when g_spans is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, Layer layer, std::uint32_t request = 0)
      : id_(g_spans != nullptr ? g_spans->Begin(name, layer, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      g_spans->End(id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

// A run-level span (Kernel::Run, Cluster::Run, Cluster::Drain): spans opened
// while it is live become its children.
class RootSpan {
 public:
  RootSpan(SpanName name, Layer layer) : span_(name, layer) {
    if (g_spans != nullptr) {
      g_spans->SetRoot(span_.id());
    }
  }
  ~RootSpan() {
    if (g_spans != nullptr) {
      g_spans->SetRoot(0);
    }
  }

  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

 private:
  ScopedSpan span_;
};

}  // namespace mkcbench

#endif  // MACHCONT_BENCHMARK_SPANS_H_
