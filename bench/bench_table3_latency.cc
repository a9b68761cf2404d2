// Reproduces Table 3: "RPC and Exception Times" — round-trip latency of a
// null cross-address-space RPC and of user-level exception handling, on all
// three kernel models.
//
// Reports two signals per model:
//   * simulated microseconds from the DS3100-calibrated cycle model
//     (machine/cycle_model.h) — the apples-to-apples comparison with the
//     paper's Table 3, since it prices register traffic, queueing and
//     scheduling at 1991 relative costs; and
//   * host wall nanoseconds, for reference (modern hardware flattens the
//     register-save costs, compressing the ratios).
// The reproduced claim is the SHAPE: MK40 beats MK32 by a modest margin on
// RPC (paper: 14%) and beats both by 2-3x on exceptions.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/exc/exception.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

struct Measurement {
  double sim_us = 0.0;  // Simulated microseconds per operation (cycle model).
  double host_ns = 0.0;
};

struct RpcBenchState {
  PortId service_port = kInvalidPort;
  PortId reply_port = kInvalidPort;
  int iterations = 0;
};

void NullRpcServer(void* arg) {
  auto* st = static_cast<RpcBenchState*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, st->service_port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    msg.header.dest = msg.header.reply;
    if (UserServeOnce(&msg, 8, st->service_port) != KernReturn::kSuccess) {
      return;
    }
  }
}

void NullRpcClient(void* arg) {
  auto* st = static_cast<RpcBenchState*>(arg);
  UserMessage msg;
  for (int i = 0; i < st->iterations; ++i) {
    msg.header.dest = st->service_port;
    UserRpc(&msg, 8, st->reply_port);
  }
}

// Measures one null-RPC round trip (client in one task, server in another).
Measurement MeasureRpc(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* client = kernel.CreateTask("client");
  Task* server = kernel.CreateTask("server");
  RpcBenchState st;
  st.service_port = kernel.ipc().AllocatePort(server);
  st.reply_port = kernel.ipc().AllocatePort(client);
  st.iterations = iterations;
  ThreadOptions daemon;
  daemon.daemon = true;
  kernel.CreateUserThread(server, &NullRpcServer, &st, daemon);
  kernel.CreateUserThread(client, &NullRpcClient, &st);
  WallTimer timer;
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Measurement m;
  m.host_ns = timer.Seconds() * 1e9 / iterations;
  m.sim_us = CyclesToMicros(kernel.clock().Now() - t0) / iterations;
  return m;
}

struct ExcBenchState {
  PortId exc_port = kInvalidPort;
  int iterations = 0;
};

void ExcBenchServer(void* arg) {
  auto* st = static_cast<ExcBenchState*>(arg);
  UserMessage msg;
  if (UserServeOnce(&msg, 0, st->exc_port) != KernReturn::kSuccess) {
    return;
  }
  for (;;) {
    // "it does not examine or change the state of the faulting thread"
    ExcRequestBody req;
    std::memcpy(&req, msg.body, sizeof(req));
    ExcReplyBody reply;
    reply.handled = 1;
    msg.header.dest = req.reply_port;
    msg.header.msg_id = kExcReplyMsgId;
    std::memcpy(msg.body, &reply, sizeof(reply));
    if (UserServeOnce(&msg, sizeof(reply), st->exc_port) != KernReturn::kSuccess) {
      return;
    }
  }
}

void ExcBenchFaulter(void* arg) {
  auto* st = static_cast<ExcBenchState*>(arg);
  UserSetExceptionPort(st->exc_port);
  for (int i = 0; i < st->iterations; ++i) {
    UserRaiseException(kExcSoftware);
  }
}

// Measures one exception round trip (server in the faulting thread's own
// address space, as in the paper's test).
Measurement MeasureException(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("task");
  ExcBenchState st;
  st.exc_port = kernel.ipc().AllocatePort(task);
  st.iterations = iterations;
  ThreadOptions daemon;
  daemon.daemon = true;
  kernel.CreateUserThread(task, &ExcBenchServer, &st, daemon);
  kernel.CreateUserThread(task, &ExcBenchFaulter, &st);
  WallTimer timer;
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Measurement m;
  m.host_ns = timer.Seconds() * 1e9 / iterations;
  m.sim_us = CyclesToMicros(kernel.clock().Now() - t0) / iterations;
  return m;
}

int Main(int argc, char** argv) {
  int iterations = 100000 * ScaleFromArgs(argc, argv, 1);

  constexpr ControlTransferModel kModels[] = {
      ControlTransferModel::kMK40,
      ControlTransferModel::kMK32,
      ControlTransferModel::kMach25,
  };

  Measurement rpc[3];
  Measurement exc[3];
  for (int i = 0; i < 3; ++i) {
    ControlTransferModel model = kModels[i];
    rpc[i] = WarmedMedian([model](int n) { return MeasureRpc(model, n); }, iterations,
                          &Measurement::host_ns);
    exc[i] = WarmedMedian([model](int n) { return MeasureException(model, n); }, iterations,
                          &Measurement::host_ns);
  }

  std::printf("Table 3: RPC and Exception Times (simulated us, DS3100 cycle model)\n");
  std::printf("%d iterations per cell. Paper values measured on a real DS3100.\n\n",
              iterations);
  std::printf("%-12s %9s %9s %9s   | paper(us) %5s %5s %5s\n", "", "MK40", "MK32",
              "Mach2.5", "MK40", "MK32", "M2.5");
  std::printf("%-12s %8.1f %9.1f %9.1f   | %14.0f %5.0f %5.0f\n", "null RPC",
              rpc[0].sim_us, rpc[1].sim_us, rpc[2].sim_us, 95.0, 110.0, 185.0);
  std::printf("%-12s %8.1f %9.1f %9.1f   | %14.0f %5.0f %5.0f\n", "exception",
              exc[0].sim_us, exc[1].sim_us, exc[2].sim_us, 135.0, 425.0, 380.0);

  std::printf("\nShape checks, simulated time (paper in brackets):\n");
  std::printf("  RPC: MK32/MK40 = %.2fx [1.16x], Mach2.5/MK40 = %.2fx [1.95x]\n",
              rpc[1].sim_us / rpc[0].sim_us, rpc[2].sim_us / rpc[0].sim_us);
  std::printf("  exception: MK32/MK40 = %.2fx [3.15x], Mach2.5/MK40 = %.2fx [2.81x]\n",
              exc[1].sim_us / exc[0].sim_us, exc[2].sim_us / exc[0].sim_us);

  std::printf("\nHost wall clock, for reference (median of %d runs after a warm-up;\n"
              "modern hardware compresses the register-save costs that dominated\n"
              "the DS3100):\n",
              kHostReps);
  std::printf("  null RPC : %6.0f / %6.0f / %6.0f ns\n", rpc[0].host_ns, rpc[1].host_ns,
              rpc[2].host_ns);
  std::printf("  exception: %6.0f / %6.0f / %6.0f ns\n", exc[0].host_ns, exc[1].host_ns,
              exc[2].host_ns);

  BenchJsonBuilder json("table3_latency");
  json.Config("iterations", iterations);
  const char* model_names[3] = {"mk40", "mk32", "mach25"};
  for (int i = 0; i < 3; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"rpc_sim_us\":%.4f,\"exception_sim_us\":%.4f,"
                  "\"rpc_host_ns\":%.1f,\"exception_host_ns\":%.1f}",
                  rpc[i].sim_us, exc[i].sim_us, rpc[i].host_ns, exc[i].host_ns);
    json.MetricJson(model_names[i], buf);
  }
  json.Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
