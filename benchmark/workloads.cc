#include "benchmark/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "benchmark/spans.h"
#include "src/exc/exception.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/ool.h"
#include "src/net/cluster.h"
#include "src/svc/service.h"
#include "src/task/task.h"
#include "src/task/usermode.h"
#include "src/workload/openloop.h"

namespace mkcbench {

using mkc::ActiveKernel;
using mkc::Cluster;
using mkc::ControlTransferModel;
using mkc::Kernel;
using mkc::KernelConfig;
using mkc::KernReturn;
using mkc::PortId;
using mkc::Task;
using mkc::Ticks;
using mkc::UserMessage;

// Workload shapes. Why each exists is recorded in benchmark/README.md.
const WorkloadSpec kWorkloads[kNumWorkloads] = {
    {WorkloadId::kRpcLocal, "rpc_local", 42, 100000, 3, 100, 2},
    {WorkloadId::kTransferMix, "transfer_mix", 42, 50000, 3, 100, 3},
    {WorkloadId::kOpenloopFabric, "openloop_fabric", 1234, 200000, 1, 30, 0},
    {WorkloadId::kClusterRpcLossy, "cluster_rpc_lossy", 7, 40000, 1, 30, 4},
};

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Nearest-rank percentile; reorders `v`.
Ticks Percentile(std::vector<Ticks>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

class Fnv {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<std::uint8_t>(v >> (i * 8)));
    }
  }
  void Mix(const std::string& s) {
    for (char c : s) {
      Byte(static_cast<std::uint8_t>(c));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 1469598103934665603ULL;
};

void AppendMap(std::string* out, const std::map<std::string, std::uint64_t>& values) {
  char sep = '{';
  for (const auto& [name, v] : values) {
    *out += sep;
    *out += '"';
    *out += name;
    *out += "\":";
    *out += std::to_string(v);
    sep = ',';
  }
  *out += sep == '{' ? "{}" : "}";
}

// Every counter and the gauges the per-layer metrics read, summed (gauges:
// maximum) over the kernels of one round.
struct KernelTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::uint64_t context_switches = 0;
  std::uint64_t stack_handoffs = 0;
  std::uint64_t call_continuations = 0;
  std::uint64_t msg_copy_words = 0;  // Words the kernel copied for messages.

  void Add(Kernel& k) {
    k.metrics().ForEachCounter(
        [this](const std::string& name, std::uint64_t v) { counters[name] += v; });
    for (const char* name : {"stack.max_in_use", "net.rx_ooo_hw"}) {
      const std::uint64_t* g = k.metrics().FindGauge(name);
      std::uint64_t& slot = gauges[name];
      if (g != nullptr && *g > slot) {
        slot = *g;
      }
    }
    context_switches += k.cost_model().Get(mkc::CostOp::kContextSwitch).calls;
    stack_handoffs += k.cost_model().Get(mkc::CostOp::kStackHandoff).calls;
    call_continuations += k.cost_model().Get(mkc::CostOp::kCallContinuation).calls;
    msg_copy_words += k.cost_model().Get(mkc::CostOp::kMsgCopy).word_stores;
  }

  void MixInto(Fnv* fp) const {
    for (const auto& [name, v] : counters) {
      fp->Mix(name);
      fp->Mix(v);
    }
    for (const auto& [name, v] : gauges) {
      fp->Mix(name);
      fp->Mix(v);
    }
    fp->Mix(context_switches);
    fp->Mix(stack_handoffs);
    fp->Mix(call_continuations);
    fp->Mix(msg_copy_words);
  }

  std::string Json() const {
    std::string out = "\"counters\":";
    AppendMap(&out, counters);
    out += ",\"gauges\":";
    AppendMap(&out, gauges);
    out += ",\"cost_calls\":{\"context_switch\":" + std::to_string(context_switches) +
           ",\"stack_handoff\":" + std::to_string(stack_handoffs) +
           ",\"call_continuation\":" + std::to_string(call_continuations) + "}";
    return out;
  }
};

// Fills the copy volume, the fingerprint and (optionally) the detail JSON
// from the virtual results and `totals`. `extra` is appended to the detail
// object verbatim.
void Finalize(RoundResult* r, const KernelTotals& totals, bool want_detail,
              const std::string& extra = "") {
  r->msg_copy_bytes = totals.msg_copy_words * 8;
  Fnv fp;
  for (std::uint64_t v : {r->ops_requested, r->ops_done, r->failed, r->vticks, r->vlat_p50,
                          r->vlat_p99, r->good}) {
    fp.Mix(v);
  }
  totals.MixInto(&fp);
  fp.Mix(extra);
  r->fingerprint = fp.value();
  if (want_detail) {
    r->detail = '{';
    r->detail += totals.Json();
    r->detail += extra;
    r->detail += '}';
  }
}

KernelConfig BaseConfig(ControlTransferModel model, std::uint64_t seed) {
  KernelConfig config;
  config.model = model;
  config.seed = seed;
  return config;
}

// Builds a single-node kernel, timing the constructor as its own span.
std::unique_ptr<Kernel> MakeKernel(const KernelConfig& config, RoundResult* r) {
  const Clock::time_point t0 = Clock::now();
  ScopedSpan span(SpanName::kKernelCtor, Layer::kKern);
  auto kernel = std::make_unique<Kernel>(config);
  r->ctor_ns = NsSince(t0);
  return kernel;
}

void RunKernel(Kernel& kernel, RoundResult* r, Layer layer = Layer::kKern) {
  const Ticks v0 = kernel.VirtualTime();
  const Clock::time_point t0 = Clock::now();
  {
    RootSpan span(SpanName::kKernelRun, layer);
    kernel.Run();
  }
  r->run_ns = NsSince(t0);
  r->vticks = kernel.VirtualTime() - v0;
}

void DestroyKernel(std::unique_ptr<Kernel> kernel, RoundResult* r) {
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(SpanName::kKernelDtor, Layer::kKern);
    kernel.reset();
  }
  r->teardown_ns = NsSince(t0);
}

// --- rpc_local -----------------------------------------------------------
// One client and one echo server in separate tasks on one CPU: the paper's
// null cross-address-space RPC (Table 3), 8-byte seeded bodies the client
// checks on every reply.

struct RpcLocalState {
  PortId service = mkc::kInvalidPort;
  PortId reply = mkc::kInvalidPort;
  std::uint64_t ops = 0;
  std::uint64_t seed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<Ticks> vlat;
};

void RpcLocalServer(void* arg) {
  auto* st = static_cast<RpcLocalState*>(arg);
  UserMessage msg;
  std::uint32_t reply_size = 0;
  std::uint32_t request = 0;
  for (;;) {
    KernReturn kr;
    {
      ScopedSpan span(SpanName::kUserServeOnce, Layer::kIpc, request);
      kr = mkc::UserServeOnce(&msg, reply_size, st->service);
    }
    if (kr != KernReturn::kSuccess) {
      return;
    }
    request = msg.header.msg_id;
    reply_size = msg.header.size;  // Echo the body back unchanged.
    msg.header.dest = msg.header.reply;
  }
}

void RpcLocalClient(void* arg) {
  auto* st = static_cast<RpcLocalState*>(arg);
  Kernel& k = ActiveKernel();
  UserMessage msg;
  for (std::uint64_t i = 0; i < st->ops; ++i) {
    const std::uint64_t payload = Mix64(st->seed + i);
    msg.header = mkc::MessageHeader{};
    msg.header.dest = st->service;
    msg.header.msg_id = static_cast<std::uint32_t>(i + 1);
    std::memcpy(msg.body, &payload, sizeof(payload));
    const Ticks t0 = k.LatencyNow();
    KernReturn kr;
    {
      ScopedSpan span(SpanName::kUserRpc, Layer::kIpc, static_cast<std::uint32_t>(i + 1));
      kr = mkc::UserRpc(&msg, sizeof(payload), st->reply);
    }
    st->vlat[i] = k.LatencyNow() - t0;
    std::uint64_t echoed = 0;
    std::memcpy(&echoed, msg.body, sizeof(echoed));
    if (kr == KernReturn::kSuccess && msg.header.size == sizeof(payload) && echoed == payload) {
      ++st->ok;
    } else {
      ++st->failed;
    }
  }
}

RoundResult RunRpcLocal(const WorkloadSpec& spec, ControlTransferModel model,
                        std::uint64_t seed, bool want_detail) {
  RoundResult r;
  RpcLocalState st;
  st.ops = spec.ops_per_round;
  st.seed = seed;
  st.vlat.assign(st.ops, 0);
  r.ops_requested = st.ops;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Kernel> kernel = MakeKernel(BaseConfig(model, seed), &r);
  Task* client = kernel->CreateTask("client");
  Task* server = kernel->CreateTask("server");
  st.service = kernel->ipc().AllocatePort(server);
  st.reply = kernel->ipc().AllocatePort(client);
  mkc::ThreadOptions daemon;
  daemon.daemon = true;
  kernel->CreateUserThread(server, &RpcLocalServer, &st, daemon);
  kernel->CreateUserThread(client, &RpcLocalClient, &st);
  r.setup_ns = NsSince(t0);

  RunKernel(*kernel, &r);

  r.ops_done = st.ok;
  r.failed = st.failed;
  r.good = st.ok;
  r.vlat_p50 = Percentile(st.vlat, 50.0);
  r.vlat_p99 = Percentile(st.vlat, 99.0);
  KernelTotals totals;
  totals.Add(*kernel);
  Finalize(&r, totals, want_detail);
  DestroyKernel(std::move(kernel), &r);
  return r;
}

// --- transfer_mix ----------------------------------------------------------
// The non-RPC continuation sites on one CPU. One op is a null syscall, an
// exception raised to a server thread in the same task and handled, and a
// yield to a sibling thread that yields straight back.

struct MixState {
  PortId exc_port = mkc::kInvalidPort;
  std::uint64_t ops = 0;
  std::uint64_t seed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t exc_served = 0;
  std::uint64_t exc_wrong = 0;  // Requests whose code was not the one raised.
  bool faulter_done = false;
  std::vector<Ticks> vlat;
};

std::uint64_t ExcCode(std::uint64_t seed, std::uint64_t i) {
  return 16 + (Mix64(seed ^ (0x657863ULL << 32) ^ i) & 0xffff);
}

void MixExcServer(void* arg) {
  auto* st = static_cast<MixState*>(arg);
  UserMessage msg;
  std::uint32_t reply_size = 0;
  for (;;) {
    const KernReturn kr = mkc::UserServeOnce(&msg, reply_size, st->exc_port);
    if (kr != KernReturn::kSuccess) {
      return;
    }
    mkc::ExcRequestBody req;
    std::memcpy(&req, msg.body, sizeof(req));
    if (msg.header.msg_id != mkc::kExcRequestMsgId ||
        req.code != ExcCode(st->seed, st->exc_served)) {
      ++st->exc_wrong;
    }
    ++st->exc_served;
    mkc::ExcReplyBody reply;
    reply.handled = 1;
    msg.header.dest = req.reply_port;
    msg.header.msg_id = mkc::kExcReplyMsgId;
    std::memcpy(msg.body, &reply, sizeof(reply));
    reply_size = sizeof(reply);
  }
}

void MixSibling(void* arg) {
  auto* st = static_cast<MixState*>(arg);
  while (!st->faulter_done) {
    mkc::UserYield();
  }
}

void MixFaulter(void* arg) {
  auto* st = static_cast<MixState*>(arg);
  Kernel& k = ActiveKernel();
  mkc::UserSetExceptionPort(st->exc_port);
  for (std::uint64_t i = 0; i < st->ops; ++i) {
    const auto request = static_cast<std::uint32_t>(i + 1);
    const Ticks t0 = k.LatencyNow();
    KernReturn syscall_kr;
    {
      ScopedSpan span(SpanName::kUserNullSyscall, Layer::kTask, request);
      syscall_kr = mkc::UserNullSyscall();
    }
    {
      ScopedSpan span(SpanName::kUserRaiseException, Layer::kExc, request);
      mkc::UserRaiseException(ExcCode(st->seed, i));
    }
    KernReturn yield_kr;
    {
      ScopedSpan span(SpanName::kUserYield, Layer::kKern, request);
      yield_kr = mkc::UserYield();
    }
    st->vlat[i] = k.LatencyNow() - t0;
    if (syscall_kr == KernReturn::kSuccess && yield_kr == KernReturn::kSuccess) {
      ++st->ok;
    } else {
      ++st->failed;
    }
  }
  st->faulter_done = true;
}

RoundResult RunTransferMix(const WorkloadSpec& spec, ControlTransferModel model,
                           std::uint64_t seed, bool want_detail) {
  RoundResult r;
  MixState st;
  st.ops = spec.ops_per_round;
  st.seed = seed;
  st.vlat.assign(st.ops, 0);
  r.ops_requested = st.ops;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Kernel> kernel = MakeKernel(BaseConfig(model, seed), &r);
  Task* task = kernel->CreateTask("mix");
  st.exc_port = kernel->ipc().AllocatePort(task);
  mkc::ThreadOptions daemon;
  daemon.daemon = true;
  kernel->CreateUserThread(task, &MixExcServer, &st, daemon);
  kernel->CreateUserThread(task, &MixSibling, &st);
  kernel->CreateUserThread(task, &MixFaulter, &st);
  r.setup_ns = NsSince(t0);

  RunKernel(*kernel, &r);

  // An op counts only if its exception reached the server with its code.
  const std::uint64_t exc_missing = st.ops > st.exc_served ? st.ops - st.exc_served : 0;
  r.failed = st.failed + st.exc_wrong + exc_missing;
  r.ops_done = st.ok >= st.exc_wrong + exc_missing ? st.ok - st.exc_wrong - exc_missing : 0;
  r.good = r.ops_done;
  r.vlat_p50 = Percentile(st.vlat, 50.0);
  r.vlat_p99 = Percentile(st.vlat, 99.0);
  KernelTotals totals;
  totals.Add(*kernel);
  Finalize(&r, totals, want_detail);
  DestroyKernel(std::move(kernel), &r);
  return r;
}

// --- openloop_fabric -------------------------------------------------------
// Pareto-bursty open-loop arrivals at ~1.5x the fabric's knee on one kernel,
// with deadline and queue-depth shedding armed: both the serve and the
// reject paths run.

constexpr std::uint64_t kOpenloopRate = 600;  // Arrivals per Mtick.
constexpr Ticks kOpenloopDeadline = 60000;
constexpr std::uint32_t kOpenloopShedDepth = 8;
constexpr int kOpenloopInjectors = 8;

RoundResult RunOpenloop(const WorkloadSpec& spec, ControlTransferModel model,
                        std::uint64_t seed, bool want_detail) {
  RoundResult r;
  r.ops_requested = spec.ops_per_round;
  mkc::OpenLoopParams op;
  op.rate = kOpenloopRate;
  op.bursty = true;
  op.total_arrivals = spec.ops_per_round;
  op.deadline = kOpenloopDeadline;
  op.shed_depth = kOpenloopShedDepth;
  op.injectors = kOpenloopInjectors;
  op.seed = seed;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Kernel> kernel = MakeKernel(BaseConfig(model, seed), &r);
  std::unique_ptr<mkc::OpenLoopEngine> engine;
  {
    const Clock::time_point ts = Clock::now();
    ScopedSpan span(SpanName::kEngineCtor, Layer::kSvc);
    engine = std::make_unique<mkc::OpenLoopEngine>(*kernel, op);
    r.svc_setup_ns = NsSince(ts);
  }
  r.setup_ns = NsSince(t0);

  RunKernel(*kernel, &r, Layer::kWorkload);

  mkc::OpenLoopReport rep;
  {
    ScopedSpan span(SpanName::kEngineFinish, Layer::kWorkload);
    rep = engine->Finish();
  }
  const mkc::SvcNodeStats svc = engine->TotalSvcStats();

  // Every arrival must end in exactly one outcome.
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_queue = 0;
  std::uint64_t client_shed = 0;
  for (const mkc::OpenLoopKindReport& k : rep.kind) {
    rejected_deadline += k.rejected_deadline;
    rejected_queue += k.rejected_queue;
    client_shed += k.client_shed;
  }
  const std::uint64_t outcomes =
      rep.completed_total + rejected_deadline + client_shed + rep.failed_total;
  r.failed = rep.failed_total;
  r.ops_done = (outcomes == rep.arrivals_total && rep.arrivals_total == r.ops_requested)
                   ? outcomes - rep.failed_total
                   : 0;
  r.good = rep.deadline_met_total;
  // The fabric reports tails only as per-kind log2 SLO snapshots (bucket
  // bound clamped to the kind's maximum); the median kind's quantiles stand
  // in for exact latencies here.
  Ticks p50[mkc::kServiceKindCount];
  Ticks p99[mkc::kServiceKindCount];
  for (int k = 0; k < mkc::kServiceKindCount; ++k) {
    p50[k] = rep.latency[k].p50;
    p99[k] = rep.latency[k].p99;
  }
  std::sort(std::begin(p50), std::end(p50));
  std::sort(std::begin(p99), std::end(p99));
  r.vlat_p50 = p50[mkc::kServiceKindCount / 2];
  r.vlat_p99 = p99[mkc::kServiceKindCount / 2];

  std::string extra = ",\"openloop\":{\"arrivals\":" + std::to_string(rep.arrivals_total) +
                      ",\"completed\":" + std::to_string(rep.completed_total) +
                      ",\"deadline_met\":" + std::to_string(rep.deadline_met_total) +
                      ",\"rejected_deadline\":" + std::to_string(rejected_deadline) +
                      ",\"rejected_queue\":" + std::to_string(rejected_queue) +
                      ",\"client_shed\":" + std::to_string(client_shed) +
                      ",\"retries\":" + std::to_string(rep.retries_total) +
                      ",\"failed\":" + std::to_string(rep.failed_total) +
                      ",\"stream_hash\":" + std::to_string(rep.stream_hash) +
                      "},\"svc\":{\"admitted\":" + std::to_string(svc.admitted_total) +
                      ",\"shed\":" + std::to_string(svc.shed_total) + "},\"latency\":[";
  for (int k = 0; k < mkc::kServiceKindCount; ++k) {
    const mkc::SloKindSnapshot& s = rep.latency[k];
    extra += (k == 0 ? "{\"count\":" : ",{\"count\":") + std::to_string(s.count) +
             ",\"p50\":" + std::to_string(s.p50) + ",\"p99\":" + std::to_string(s.p99) +
             ",\"p999\":" + std::to_string(s.p999) + "}";
  }
  extra += "]";
  KernelTotals totals;
  totals.Add(*kernel);
  Finalize(&r, totals, want_detail, extra);

  const Clock::time_point td = Clock::now();
  {
    ScopedSpan span(SpanName::kEngineDtor, Layer::kSvc);
    engine.reset();
  }
  DestroyKernel(std::move(kernel), &r);
  r.teardown_ns = NsSince(td);
  return r;
}

// --- cluster_rpc_lossy -----------------------------------------------------
// Four nodes over lossy, reordering links: node 0 runs the clients, nodes
// 1..3 one echo server each. Every 4th RPC ships a 4 KiB out-of-line region
// that the server touches, which pulls it across the wire.

constexpr int kClusterNodes = 4;
constexpr int kClusterClients = 4;
constexpr std::uint32_t kClusterBodyBytes = 64;
constexpr std::uint32_t kClusterOolBytes = 4096;
constexpr std::uint32_t kClusterOolEvery = 4;
constexpr Ticks kClusterClientWork = 1000;
constexpr std::uint32_t kClusterDropPerMille = 10;
constexpr std::uint32_t kClusterReorderPerMille = 10;

struct ClusterServerState {
  PortId port = mkc::kInvalidPort;
};

void ClusterServer(void* arg) {
  auto* st = static_cast<ClusterServerState*>(arg);
  UserMessage msg;
  std::uint32_t reply_size = 0;
  std::uint32_t request = 0;
  for (;;) {
    KernReturn kr;
    {
      ScopedSpan span(SpanName::kUserServeOnce, Layer::kNet, request);
      kr = mkc::UserServeOnce(&msg, reply_size, st->port);
    }
    if (kr != KernReturn::kSuccess) {
      return;
    }
    request = msg.header.msg_id;
    if (mkc::MessageCarriesOol(msg.header) && msg.header.size >= sizeof(mkc::OolDescriptor)) {
      mkc::OolDescriptor desc;
      std::memcpy(&desc, msg.body, sizeof(desc));
      if (desc.addr != 0) {
        for (mkc::VmSize off = 0; off < desc.size; off += mkc::kPageSize) {
          ScopedSpan span(SpanName::kUserTouch, Layer::kVm, request);
          mkc::UserTouch(desc.addr + off, /*write=*/false);
        }
        ScopedSpan span(SpanName::kUserVmDeallocate, Layer::kVm, request);
        mkc::UserVmDeallocate(desc.addr);
      }
      msg.header.bits = 0;  // The reply is plain inline data.
    }
    reply_size = kClusterBodyBytes;
    msg.header.dest = msg.header.reply;
  }
}

struct ClusterClientState {
  PortId proxy = mkc::kInvalidPort;
  PortId reply = mkc::kInvalidPort;
  std::uint32_t requests = 0;
  std::uint32_t first_request = 0;  // Global index of this client's first RPC.
  std::uint64_t seed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  Ticks* vlat = nullptr;
};

void ClusterClient(void* arg) {
  auto* st = static_cast<ClusterClientState*>(arg);
  Kernel& k = ActiveKernel();
  UserMessage msg;
  std::uint64_t body[kClusterBodyBytes / sizeof(std::uint64_t)];
  for (std::uint32_t i = 0; i < st->requests; ++i) {
    const std::uint32_t index = st->first_request + i;
    const std::uint32_t request = index + 1;
    msg.header = mkc::MessageHeader{};
    msg.header.dest = st->proxy;
    msg.header.msg_id = request;
    KernReturn kr;
    bool reply_ok;
    if (i % kClusterOolEvery == 0) {
      mkc::OolDescriptor desc;
      desc.size = mkc::PageRound(kClusterOolBytes);
      {
        ScopedSpan span(SpanName::kUserVmAllocate, Layer::kVm, request);
        desc.addr = mkc::UserVmAllocate(desc.size, /*paged=*/false);
      }
      for (mkc::VmSize off = 0; off < desc.size; off += mkc::kPageSize) {
        ScopedSpan span(SpanName::kUserTouch, Layer::kVm, request);
        mkc::UserTouch(desc.addr + off, /*write=*/true);
      }
      std::memcpy(msg.body, &desc, sizeof(desc));
      mkc::MarkMessageOol(msg.header);
      const Ticks t0 = k.LatencyNow();
      {
        ScopedSpan span(SpanName::kUserRpc, Layer::kNet, request);
        kr = mkc::UserRpc(&msg, sizeof(desc), st->reply, mkc::kMaxInlineBytes, mkc::kMsgOolOpt);
      }
      st->vlat[index] = k.LatencyNow() - t0;
      reply_ok = msg.header.size == kClusterBodyBytes;
      ScopedSpan span(SpanName::kUserVmDeallocate, Layer::kVm, request);
      mkc::UserVmDeallocate(desc.addr);
    } else {
      for (std::size_t w = 0; w < std::size(body); ++w) {
        body[w] = Mix64(st->seed ^ (static_cast<std::uint64_t>(index) << 8) ^ w);
      }
      std::memcpy(msg.body, body, sizeof(body));
      const Ticks t0 = k.LatencyNow();
      {
        ScopedSpan span(SpanName::kUserRpc, Layer::kNet, request);
        kr = mkc::UserRpc(&msg, kClusterBodyBytes, st->reply);
      }
      st->vlat[index] = k.LatencyNow() - t0;
      reply_ok = msg.header.size == kClusterBodyBytes &&
                 std::memcmp(msg.body, body, sizeof(body)) == 0;
    }
    if (kr == KernReturn::kSuccess && reply_ok) {
      ++st->ok;
    } else {
      ++st->failed;
    }
    mkc::UserWork(kClusterClientWork);
  }
}

RoundResult RunClusterRpc(const WorkloadSpec& spec, ControlTransferModel model,
                          std::uint64_t seed, bool want_detail) {
  RoundResult r;
  r.ops_requested = spec.ops_per_round;
  const auto per_client = static_cast<std::uint32_t>(spec.ops_per_round / kClusterClients);
  std::vector<Ticks> vlat(spec.ops_per_round, 0);
  std::vector<ClusterServerState> servers(kClusterNodes - 1);
  std::vector<ClusterClientState> clients(kClusterClients);

  mkc::LinkConfig link;
  link.drop_per_mille = kClusterDropPerMille;
  link.reorder_per_mille = kClusterReorderPerMille;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Cluster> cluster;
  {
    ScopedSpan span(SpanName::kClusterCtor, Layer::kNet);
    cluster = std::make_unique<Cluster>(BaseConfig(model, seed), kClusterNodes, link);
  }
  r.ctor_ns = NsSince(t0);
  mkc::ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  for (int s = 0; s < kClusterNodes - 1; ++s) {
    Kernel& node = cluster->node(s + 1);
    Task* task = node.CreateTask("echo");
    servers[static_cast<std::size_t>(s)].port = node.ipc().AllocatePort(task);
    node.CreateUserThread(task, &ClusterServer, &servers[static_cast<std::size_t>(s)], daemon);
  }
  Kernel& front = cluster->node(0);
  Task* client_task = front.CreateTask("clients");
  for (int c = 0; c < kClusterClients; ++c) {
    ClusterClientState& st = clients[static_cast<std::size_t>(c)];
    const int target = c % (kClusterNodes - 1);
    st.proxy = cluster->netipc(0).BindProxy(target + 1,
                                             servers[static_cast<std::size_t>(target)].port);
    st.reply = front.ipc().AllocatePort(client_task);
    st.requests = per_client;
    st.first_request = per_client * static_cast<std::uint32_t>(c);
    st.seed = seed;
    st.vlat = vlat.data();
    front.CreateUserThread(client_task, &ClusterClient, &st);
  }
  r.setup_ns = NsSince(t0);

  const Ticks v0 = cluster->VirtualTime();
  const Clock::time_point tr = Clock::now();
  {
    RootSpan span(SpanName::kClusterRun, Layer::kNet);
    cluster->Run();
  }
  r.run_ns = NsSince(tr);
  r.vticks = cluster->VirtualTime() - v0;
  const Clock::time_point tdr = Clock::now();
  {
    RootSpan span(SpanName::kClusterDrain, Layer::kNet);
    cluster->Drain();  // Settle final acks so the wire counters are complete.
  }
  r.drain_ns = NsSince(tdr);

  for (const ClusterClientState& st : clients) {
    r.ops_done += st.ok;
    r.failed += st.failed;
  }
  r.good = r.ops_done;
  r.vlat_p50 = Percentile(vlat, 50.0);
  r.vlat_p99 = Percentile(vlat, 99.0);
  KernelTotals totals;
  for (int i = 0; i < kClusterNodes; ++i) {
    totals.Add(cluster->node(i));
  }
  Finalize(&r, totals, want_detail);

  const Clock::time_point td = Clock::now();
  {
    ScopedSpan span(SpanName::kClusterDtor, Layer::kNet);
    cluster.reset();
  }
  r.teardown_ns = NsSince(td);
  return r;
}

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec, ControlTransferModel model, std::uint64_t seed,
                     bool want_detail) {
  switch (spec.id) {
    case WorkloadId::kRpcLocal:
      return RunRpcLocal(spec, model, seed, want_detail);
    case WorkloadId::kTransferMix:
      return RunTransferMix(spec, model, seed, want_detail);
    case WorkloadId::kOpenloopFabric:
      return RunOpenloop(spec, model, seed, want_detail);
    case WorkloadId::kClusterRpcLossy:
      return RunClusterRpc(spec, model, seed, want_detail);
  }
  return RoundResult{};
}

}  // namespace mkcbench
