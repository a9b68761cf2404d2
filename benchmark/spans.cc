#include "benchmark/spans.h"

#include <cinttypes>

namespace mkcbench {

SpanRecorder* g_spans = nullptr;

namespace {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kKern: return "kern";
    case Layer::kTask: return "task";
    case Layer::kIpc: return "ipc";
    case Layer::kExc: return "exc";
    case Layer::kVm: return "vm";
    case Layer::kNet: return "net";
    case Layer::kSvc: return "svc";
    case Layer::kWorkload: return "workload";
  }
  return "?";
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kUserRpc: return "UserRpc";
    case SpanName::kUserServeOnce: return "UserServeOnce";
    case SpanName::kUserNullSyscall: return "UserNullSyscall";
    case SpanName::kUserRaiseException: return "UserRaiseException";
    case SpanName::kUserYield: return "UserYield";
    case SpanName::kUserTouch: return "UserTouch";
    case SpanName::kUserVmAllocate: return "UserVmAllocate";
    case SpanName::kUserVmDeallocate: return "UserVmDeallocate";
    case SpanName::kKernelCtor: return "Kernel::Kernel";
    case SpanName::kKernelRun: return "Kernel::Run";
    case SpanName::kKernelDtor: return "Kernel::~Kernel";
    case SpanName::kClusterCtor: return "Cluster::Cluster";
    case SpanName::kClusterRun: return "Cluster::Run";
    case SpanName::kClusterDrain: return "Cluster::Drain";
    case SpanName::kClusterDtor: return "Cluster::~Cluster";
    case SpanName::kEngineCtor: return "OpenLoopEngine::OpenLoopEngine";
    case SpanName::kEngineFinish: return "OpenLoopEngine::Finish";
    case SpanName::kEngineDtor: return "OpenLoopEngine::~OpenLoopEngine";
  }
  return "?";
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), epoch_stamp_(Stamp()) {
  spans_.reserve(capacity);
}

void SpanRecorder::WriteJsonl(std::FILE* out, const std::vector<const char*>& arm_names) const {
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - epoch_).count();
  const std::int64_t elapsed_stamps = Stamp() - epoch_stamp_;
  const double ns_per_stamp =
      elapsed_stamps > 0 ? elapsed_ns / static_cast<double>(elapsed_stamps) : 1.0;
  auto ns = [&](std::int64_t stamp) {
    return static_cast<std::int64_t>(static_cast<double>(stamp - epoch_stamp_) * ns_per_stamp);
  };
  for (const Span& s : spans_) {
    if (s.end == 0) {
      continue;  // Still open: a daemon thread parked in a call when its run ended.
    }
    const char* arm = s.arm < arm_names.size() ? arm_names[s.arm] : "?";
    std::fprintf(out,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"id\":%" PRIu32 ",\"parent\":%" PRIu32
                 ",\"req\":%" PRIu32 ",\"arm\":\"%s\"}\n",
                 SpanNameString(s.name), LayerName(s.layer), ns(s.start), ns(s.end), s.id,
                 s.parent, s.request, arm);
  }
}

}  // namespace mkcbench
