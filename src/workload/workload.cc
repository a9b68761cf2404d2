#include "src/workload/workload.h"

#include <chrono>
#include <cstring>

#include "src/base/panic.h"
#include "src/base/rng.h"
#include "src/core/control.h"
#include "src/exc/exception.h"
#include "src/ext/ext_state.h"
#include "src/ipc/mach_msg.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

// --- Generic RPC server ----------------------------------------------------

struct ServerArgs {
  PortId port = kInvalidPort;
  std::uint32_t reply_size = 64;
};

// Receives requests forever, replying to each sender's reply port. Runs as a
// daemon; between requests it is exactly the paper's archetypal blocked
// thread (waiting in mach_msg with mach_msg_continue under MK40).
void EchoServerThread(void* arg) {
  auto* s = static_cast<ServerArgs*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, s->port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    msg.header.dest = msg.header.reply;
    if (UserServeOnce(&msg, s->reply_size, s->port) != KernReturn::kSuccess) {
      return;
    }
  }
}

// --- Periodic device-interrupt threads --------------------------------------
//
// Internal kernel threads woken by repeating virtual-time events; they model
// the paper's "internal threads" row (network input, timeouts, callouts).

struct TickerState {
  Kernel* kernel = nullptr;
  Ticks period = 0;
  char event = 0;
};

TickerState* g_ticker_slots[2] = {nullptr, nullptr};

template <int Slot>
void TickerBody() {
  Kernel& k = ActiveKernel();
  TickerState* ts = g_ticker_slots[Slot];
  MKC_ASSERT(ts != nullptr);
  // The slot table is process-wide; with several kernels in one process the
  // ticker must belong to the kernel whose thread is running it.
  MKC_ASSERT(ts->kernel == &k);
  k.AssertWait(&ts->event);
  ThreadBlock(k.UsesContinuations() ? &TickerBody<Slot> : nullptr, BlockReason::kInternal);
}

void PostTick(TickerState* ts);

void TickFire(void* ctx, std::uint64_t /*arg*/) {
  auto* ts = static_cast<TickerState*>(ctx);
  ts->kernel->ThreadWakeupAll(&ts->event);
  PostTick(ts);
}

void PostTick(TickerState* ts) {
  ts->kernel->events().Post(ts->kernel->clock().Now() + ts->period, &TickFire, ts);
}

template <int Slot>
void StartTicker(Kernel& kernel, TickerState* ts, Ticks period, const char* name) {
  ts->kernel = &kernel;
  ts->period = period;
  g_ticker_slots[Slot] = ts;
  kernel.continuations().Register(&TickerBody<Slot>, "ticker_body");
  kernel.CreateKernelThread(name, &TickerBody<Slot>, 26);
  PostTick(ts);
}

// --- Background CPU load -----------------------------------------------------

struct SpinnerArgs {
  const int* active_workers = nullptr;
  Ticks chunk = 500;
};

// Low-priority compute daemon that keeps the run queue non-empty so quantum
// expiries actually preempt (single-user machines still had such daemons).
void SpinnerThread(void* arg) {
  auto* s = static_cast<SpinnerArgs*>(arg);
  while (*s->active_workers > 0) {
    UserWork(s->chunk);
  }
}

// --- Report collection -------------------------------------------------------

WorkloadReport Collect(const char* name, Kernel& kernel, double wall_seconds) {
  WorkloadReport report;
  report.name = name;
  report.model = kernel.model();
  report.transfer = kernel.transfer_stats();
  report.stacks = kernel.stack_pool().stats();
  report.ipc = kernel.ipc().stats();
  report.vm = kernel.vm().stats();
  report.exc = kernel.exc_stats();
  // The machine's elapsed time is the frontier of the per-CPU clocks; with
  // one CPU this is exactly that CPU's clock.
  report.virtual_time = kernel.VirtualTime();
  report.wall_seconds = wall_seconds;
  return report;
}

template <typename SetupAndRun>
WorkloadReport TimeRun(const char* name, Kernel& kernel, const WorkloadParams& params,
                       SetupAndRun&& run) {
  kernel.ResetStats();
  auto start = std::chrono::steady_clock::now();
  run();
  std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  // Observability hook: the caller sees the kernel (metrics, trace) before
  // it is torn down, outside the wall-clock measurement.
  if (params.post_run != nullptr) {
    params.post_run(kernel, params.post_run_arg);
  }
  return Collect(name, kernel, elapsed.count());
}

// ============================================================================
// Compile workload
// ============================================================================

struct CompileEnv {
  PortId file_port = kInvalidPort;
  PortId unix_port = kInvalidPort;
  std::uint32_t jobserver = 0;  // make's jobserver token (a semaphore).
  PortId reply_ports[2] = {kInvalidPort, kInvalidPort};
  VmAddress src_region = 0;
  VmSize src_bytes = 0;
  int files_per_worker = 0;
  int next_page = 0;
  int active_workers = 0;
};

struct CompileWorkerArgs {
  CompileEnv* env = nullptr;
  int index = 0;
};

// One compiler pass: stat/open through the Unix server, read source chunks
// from the file server, burn CPU compiling, page in sources, occasionally
// ship a large object file (whose kernel copy can fault).
void CompileWorker(void* arg) {
  auto* wa = static_cast<CompileWorkerArgs*>(arg);
  CompileEnv* env = wa->env;
  PortId reply = env->reply_ports[wa->index];
  Rng rng(0x9e3779b9u + static_cast<std::uint64_t>(wa->index));
  UserMessage msg;
  for (int f = 0; f < env->files_per_worker; ++f) {
    msg.header.dest = env->unix_port;
    UserRpc(&msg, 64, reply);
    for (int c = 0; c < 5; ++c) {
      msg.header.dest = env->file_port;
      UserRpc(&msg, 128, reply);
    }
    // About half the files are "heavy" and optimize under the jobserver
    // token, holding it across a quantum; on this uniprocessor the holder
    // gets preempted mid-hold and the other pass piles up on the semaphore
    // — the paper's occasional process-model lock-acquisition blocks
    // (Table 1's "no stack discards" row). Randomized per worker so the two
    // passes de-phase.
    bool heavy = rng.Chance(500);
    if (heavy) {
      UserSemWait(env->jobserver);
    }
    for (int w = 0; w < 6; ++w) {
      UserWork(2000);
    }
    if (heavy) {
      UserSemSignal(env->jobserver);
    }
    if (f % 12 == 0) {
      VmAddress addr =
          env->src_region +
          (static_cast<VmAddress>(env->next_page++) % (env->src_bytes / kPageSize)) * kPageSize;
      UserTouch(addr, /*write=*/false);
    }
    if (f % 16 == 9) {
      msg.header.dest = env->file_port;
      msg.header.msg_id = static_cast<std::uint32_t>(f * 2 + wa->index);
      UserRpc(&msg, 800, reply);
      msg.header.msg_id = 0;
    }
  }
  --env->active_workers;
}

}  // namespace

WorkloadReport RunCompileWorkload(const KernelConfig& config, const WorkloadParams& params) {
  KernelConfig cfg = config;
  cfg.seed = params.seed;
  Kernel kernel(cfg);

  Task* cc = kernel.CreateTask("cc");
  Task* fileserver = kernel.CreateTask("fileserver");
  Task* unixserver = kernel.CreateTask("unixserver");

  CompileEnv env;
  env.file_port = kernel.ipc().AllocatePort(fileserver);
  env.unix_port = kernel.ipc().AllocatePort(unixserver);
  env.reply_ports[0] = kernel.ipc().AllocatePort(cc);
  env.reply_ports[1] = kernel.ipc().AllocatePort(cc);
  env.src_bytes = 256 * kPageSize;
  env.src_region = cc->map.Allocate(env.src_bytes, VmBacking::kPaged);
  env.files_per_worker = 40 * params.scale;
  env.active_workers = 2;
  env.jobserver = kernel.ext().semaphores.Create(1);

  ServerArgs fs_args{env.file_port, 128};
  ServerArgs us_args{env.unix_port, 64};
  ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  kernel.CreateUserThread(fileserver, &EchoServerThread, &fs_args, daemon);
  kernel.CreateUserThread(unixserver, &EchoServerThread, &us_args, daemon);

  CompileWorkerArgs w0{&env, 0};
  CompileWorkerArgs w1{&env, 1};
  kernel.CreateUserThread(cc, &CompileWorker, &w0);
  kernel.CreateUserThread(cc, &CompileWorker, &w1);

  TickerState ticker;
  StartTicker<0>(kernel, &ticker, /*period=*/4000, "callout");

  return TimeRun("Compile Test", kernel, params, [&] { kernel.Run(); });
}

// ============================================================================
// Kernel build (AFS) workload
// ============================================================================

namespace {

struct BuildEnv {
  PortId afs_port = kInvalidPort;
  PortId unix_port = kInvalidPort;
  std::uint32_t vnode_lock = 0;  // Shared header-directory vnode.
  PortId reply_ports[4] = {};
  VmAddress src_region = 0;
  VmSize src_bytes = 0;
  int files_per_worker = 0;
  int next_page = 0;
  int active_workers = 0;
};

struct BuildWorkerArgs {
  BuildEnv* env = nullptr;
  int index = 0;
};

// One compile job of the parallel build: heavy AFS traffic (the cache
// manager is a user-level server), moderate CPU, steady paging.
void BuildWorker(void* arg) {
  auto* wa = static_cast<BuildWorkerArgs*>(arg);
  BuildEnv* env = wa->env;
  PortId reply = env->reply_ports[wa->index];
  UserMessage msg;
  for (int f = 0; f < env->files_per_worker; ++f) {
    msg.header.dest = env->unix_port;
    UserRpc(&msg, 64, reply);
    for (int c = 0; c < 8; ++c) {
      msg.header.dest = env->afs_port;
      UserRpc(&msg, 256, reply);
    }
    if (f % 3 == 0) {
      // Every job stats the shared header directory under its vnode lock.
      UserSemWait(env->vnode_lock);
      UserWork(400);
      UserSemSignal(env->vnode_lock);
    }
    for (int w = 0; w < 4; ++w) {
      UserWork(3000);
    }
    if (f % 4 == 0) {
      VmAddress addr =
          env->src_region +
          (static_cast<VmAddress>(env->next_page++) % (env->src_bytes / kPageSize)) * kPageSize;
      UserTouch(addr, /*write=*/true);
    }
    if (f % 24 == 11) {
      msg.header.dest = env->afs_port;
      msg.header.msg_id = static_cast<std::uint32_t>(f * 4 + wa->index);
      UserRpc(&msg, 896, reply);
      msg.header.msg_id = 0;
    }
  }
  --env->active_workers;
}

}  // namespace

WorkloadReport RunKernelBuildWorkload(const KernelConfig& config, const WorkloadParams& params) {
  KernelConfig cfg = config;
  cfg.seed = params.seed;
  Kernel kernel(cfg);

  Task* build = kernel.CreateTask("make");
  Task* afs = kernel.CreateTask("afs-cache-manager");
  Task* unixserver = kernel.CreateTask("unixserver");

  BuildEnv env;
  env.afs_port = kernel.ipc().AllocatePort(afs);
  env.unix_port = kernel.ipc().AllocatePort(unixserver);
  for (auto& p : env.reply_ports) {
    p = kernel.ipc().AllocatePort(build);
  }
  env.src_bytes = 1024 * kPageSize;
  env.src_region = build->map.Allocate(env.src_bytes, VmBacking::kPaged);
  env.files_per_worker = 120 * params.scale;
  env.active_workers = 4;
  env.vnode_lock = kernel.ext().semaphores.Create(1);

  // Two AFS cache-manager threads and one Unix server share the load.
  static ServerArgs afs_args;
  afs_args = ServerArgs{env.afs_port, 256};
  static ServerArgs us_args;
  us_args = ServerArgs{env.unix_port, 64};
  ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  kernel.CreateUserThread(afs, &EchoServerThread, &afs_args, daemon);
  kernel.CreateUserThread(afs, &EchoServerThread, &afs_args, daemon);
  kernel.CreateUserThread(unixserver, &EchoServerThread, &us_args, daemon);

  static BuildWorkerArgs workers[4];
  for (int i = 0; i < 4; ++i) {
    workers[i] = BuildWorkerArgs{&env, i};
    kernel.CreateUserThread(build, &BuildWorker, &workers[i]);
  }

  // AFS needs network service: a netisr-style thread plus the callout timer.
  TickerState net_ticker;
  TickerState callout_ticker;
  StartTicker<0>(kernel, &net_ticker, /*period=*/2500, "netisr");
  StartTicker<1>(kernel, &callout_ticker, /*period=*/7000, "callout");

  return TimeRun("Kernel Build", kernel, params, [&] { kernel.Run(); });
}

// ============================================================================
// DOS emulation workload
// ============================================================================

namespace {

struct DosEnv {
  PortId exc_port = kInvalidPort;
  PortId device_port = kInvalidPort;
  PortId reply_port = kInvalidPort;
  VmAddress game_region = 0;
  VmSize game_bytes = 0;
  int frames = 0;
  int active_workers = 0;
};

// The exception server living in the emulated program's own address space
// (the paper's MS-DOS emulator structure, §3.1).
void DosExceptionServer(void* arg) {
  auto* env = static_cast<DosEnv*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, env->exc_port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    ExcRequestBody req;
    std::memcpy(&req, msg.body, sizeof(req));
    ExcReplyBody reply;
    reply.handled = 1;  // Emulate the privileged instruction and restart.
    msg.header.dest = req.reply_port;
    msg.header.msg_id = kExcReplyMsgId;
    std::memcpy(msg.body, &reply, sizeof(reply));
    if (UserServeOnce(&msg, sizeof(reply), env->exc_port) != KernReturn::kSuccess) {
      return;
    }
  }
}

// The emulated game: privileged instructions fault to the exception server;
// device I/O goes through an RPC server; frames burn CPU.
void DosGameThread(void* arg) {
  auto* env = static_cast<DosEnv*>(arg);
  UserSetExceptionPort(env->exc_port);
  UserMessage msg;
  for (int frame = 0; frame < env->frames; ++frame) {
    UserRaiseException(kExcPrivilegedInstruction);
    UserRaiseException(kExcEmulation);
    if (frame % 2 == 0) {
      msg.header.dest = env->device_port;
      UserRpc(&msg, 64, env->reply_port);
    }
    UserWork(1400);
    if (frame % 4 == 3) {
      // A long emulation stretch (rendering between DOS calls): runs past
      // the quantum and gets preempted while the refresh daemon is runnable.
      for (int i = 0; i < 9; ++i) {
        UserWork(1400);
      }
    }
    if (frame % 40 == 7) {
      UserTouch(env->game_region + (static_cast<VmAddress>(frame) % (env->game_bytes / kPageSize)) *
                                       kPageSize,
                false);
    }
    if (frame % 90 == 13) {
      UserYield();
    }
  }
  --env->active_workers;
}

}  // namespace

WorkloadReport RunDosWorkload(const KernelConfig& config, const WorkloadParams& params) {
  KernelConfig cfg = config;
  cfg.seed = params.seed;
  Kernel kernel(cfg);

  Task* dos = kernel.CreateTask("dos-emulator");
  Task* device = kernel.CreateTask("device-server");

  static DosEnv env;
  env = DosEnv{};
  env.exc_port = kernel.ipc().AllocatePort(dos);
  env.device_port = kernel.ipc().AllocatePort(device);
  env.reply_port = kernel.ipc().AllocatePort(dos);
  env.game_bytes = 128 * kPageSize;
  env.game_region = dos->map.Allocate(env.game_bytes, VmBacking::kPaged);
  env.frames = 300 * params.scale;
  env.active_workers = 1;

  static ServerArgs dev_args;
  dev_args = ServerArgs{env.device_port, 64};
  ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  kernel.CreateUserThread(device, &EchoServerThread, &dev_args, daemon);
  kernel.CreateUserThread(dos, &DosExceptionServer, &env, daemon);

  // Background screen-refresh daemon: supplies the runnable competitor that
  // lets quantum expiry actually preempt the game.
  static SpinnerArgs spin;
  spin = SpinnerArgs{&env.active_workers, 700};
  ThreadOptions spinner_opts;
  spinner_opts.daemon = true;
  spinner_opts.priority = 8;
  kernel.CreateUserThread(dos, &SpinnerThread, &spin, spinner_opts);

  kernel.CreateUserThread(dos, &DosGameThread, &env);

  TickerState ticker;
  StartTicker<0>(kernel, &ticker, /*period=*/30000, "callout");

  return TimeRun("DOS Emulation", kernel, params, [&] { kernel.Run(); });
}

// ============================================================================
// Server-farm RPC workload (SMP scaling)
// ============================================================================

namespace {

inline constexpr int kFarmPairs = 8;

struct FarmEnv {
  PortId server_ports[kFarmPairs] = {};
  PortId reply_ports[kFarmPairs] = {};
  int requests_per_client = 0;
  int active_workers = 0;
};

struct FarmClientArgs {
  FarmEnv* env = nullptr;
  int index = 0;
};

// One client of the farm: a tight RPC loop against its own server with a
// compute burst between calls. Each client/server pair ping-pongs through
// the RPC fast path; the pairs themselves are independent, which is what
// lets the workload spread across simulated CPUs.
void FarmClientThread(void* arg) {
  auto* ca = static_cast<FarmClientArgs*>(arg);
  FarmEnv* env = ca->env;
  UserMessage msg;
  for (int r = 0; r < env->requests_per_client; ++r) {
    msg.header.dest = env->server_ports[ca->index];
    UserRpc(&msg, 64, env->reply_ports[ca->index]);
    UserWork(1500);
  }
  --env->active_workers;
}

}  // namespace

WorkloadReport RunServerFarmWorkload(const KernelConfig& config, const WorkloadParams& params) {
  KernelConfig cfg = config;
  cfg.seed = params.seed;
  Kernel kernel(cfg);

  Task* clients = kernel.CreateTask("farm-clients");
  static FarmEnv env;
  env = FarmEnv{};
  env.requests_per_client = 50 * params.scale;
  env.active_workers = kFarmPairs;

  static ServerArgs server_args[kFarmPairs];
  static FarmClientArgs client_args[kFarmPairs];
  ThreadOptions daemon;
  daemon.daemon = true;
  daemon.priority = 20;
  // All servers first, then all clients: kFarmPairs is a multiple of every
  // benchmarked CPU count, so round-robin placement lands client i on the
  // CPU where server i started — each pair runs locally while distinct
  // pairs run in parallel.
  for (int i = 0; i < kFarmPairs; ++i) {
    Task* server = kernel.CreateTask("farm-server");
    env.server_ports[i] = kernel.ipc().AllocatePort(server);
    env.reply_ports[i] = kernel.ipc().AllocatePort(clients);
    server_args[i] = ServerArgs{env.server_ports[i], 64};
    kernel.CreateUserThread(server, &EchoServerThread, &server_args[i], daemon);
  }
  for (int i = 0; i < kFarmPairs; ++i) {
    client_args[i] = FarmClientArgs{&env, i};
    kernel.CreateUserThread(clients, &FarmClientThread, &client_args[i]);
  }

  return TimeRun("Server Farm", kernel, params, [&] { kernel.Run(); });
}

}  // namespace mkc
