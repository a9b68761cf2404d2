#!/usr/bin/env python3
"""Reduces a traced benchmark run to the per-layer metrics.

    python3 benchmark/reduce_trace.py SPANS.jsonl TRACED.json UNTRACED.json

SPANS.jsonl is what `machcont_benchmark --trace-out` wrote; TRACED.json and
UNTRACED.json are the records that binary printed for that traced run and for
an untraced run of the same workload and seed. The traced run pairs each
traced round with an untraced twin; trace_overhead compares the pairs. Prints the per-layer metrics
as one JSON object {name: {"value": v, "unit": u}}.

A span's self time is its duration minus the part of it that its children
cover. Counter-based metrics read the first measured round of the mk40 arm
(every round of an arm is identical). A metric whose layer the workload does
not exercise reads 0.
"""

import json
import statistics
import sys

# name -> unit. The order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "machine.switch_rt_ns": "ns",
    "machine.make_jump_ns": "ns",
    "machine.floor_share": "ratio",
    "task.null_syscall_ns": "ns",
    "task.null_syscall_ns_mk32": "ns",
    "kern.yield_ns": "ns",
    "kern.yield_ns_mk32": "ns",
    "kern.handoffs_per_op": "count/op",
    "kern.blocks_per_op": "count/op",
    "kern.rpc_mk40_over_mk32": "ratio",
    "kern.stacks_max_in_use": "count",
    "kern.ctor_us": "us",
    "kern.teardown_us": "us",
    "ipc.rpc_call_ns_p50": "ns",
    "ipc.rpc_call_ns_p99": "ns",
    "ipc.serve_self_ns_p50": "ns",
    "ipc.recognition_ratio": "ratio",
    "ipc.fast_rpc_handoff_ratio": "ratio",
    "ipc.queued_send_ratio": "ratio",
    "ipc.kmsg_alloc_blocks_per_kop": "count/kop",
    "exc.raise_ns": "ns",
    "exc.raise_ns_mk32": "ns",
    "exc.fast_delivery_ratio": "ratio",
    "vm.touch_fault_ns_p50": "ns",
    "vm.faults_per_op": "count/op",
    "vm.pageins_per_kop": "count/kop",
    "net.rpc_call_ns_p50": "ns",
    "net.rpc_call_ns_p99": "ns",
    "net.packets_per_op": "count/op",
    "net.wire_bytes_per_op": "B",
    "net.retransmits_per_kop": "count/kop",
    "net.fast_retransmit_share": "ratio",
    "net.give_ups": "count",
    "net.goodput_byte_ratio": "ratio",
    "net.ack_piggyback_ratio": "ratio",
    "net.frames_coalesced_per_kop": "count/kop",
    "net.ool_bytes_pulled_per_op": "B",
    "net.rx_ooo_hw": "count",
    "net.run_share": "ratio",
    "net.drain_share": "ratio",
    "svc.shed_ratio": "ratio",
    "svc.served_per_op": "ratio",
    "svc.setup_us": "us",
    "workload.retries_per_kop": "count/kop",
    "workload.client_shed_ratio": "ratio",
    "workload.failed": "count",
    "trace_overhead": "ratio",
}

CTOR_SPANS = {"Kernel::Kernel", "Cluster::Cluster"}
DTOR_SPANS = {"Kernel::~Kernel", "Cluster::~Cluster", "OpenLoopEngine::~OpenLoopEngine"}


def ratio(num, den):
    return num / den if den else 0.0


def percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * p // 100)))
    return float(ordered[int(rank) - 1])


def arm(record, model):
    for a in record["arms"]:
        if a["model"] == model:
            return a
    return None


def host_ns_per_op(record, model="mk40", prefix=""):
    """Median over rounds of (run + drain) ns divided by the round's ops;
    prefix "traced_" reads a traced run's traced rounds."""
    a = arm(record, model)
    if a is None:
        return 0.0
    ops = record["ops_per_round"]
    return statistics.median((run + drain) / ops for run, drain in
                             zip(a[prefix + "run_ns"], a[prefix + "drain_ns"]))


def trace_overhead(traced):
    """Median over the traced run's round pairs of traced / untraced - 1."""
    a = arm(traced, "mk40")
    pairs = [(t + td) / (u + ud) for t, td, u, ud in
             zip(a["traced_run_ns"], a["traced_drain_ns"], a["run_ns"], a["drain_ns"])]
    return statistics.median(pairs) - 1.0


def load_spans(path):
    """Returns (durations, self_ns): (arm, name, layer) -> list of ns.

    Streams the file: only top-level spans (parent 0) are kept, since the
    recorder makes only those parents (see RootSpan in spans.h), and their
    children arrive after them in start order, so the covered part of each
    parent is an online union of intervals."""
    durations = {}
    tops = {}  # id -> [key, start, end, covered, union_start, union_end]
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            start, end = s["start_ns"], s["end_ns"]
            key = (s["arm"], s["name"], s["layer"])
            durations.setdefault(key, []).append(end - start)
            parent = s["parent"]
            if not parent:
                tops[s["id"]] = [key, start, end, 0, None, None]
                continue
            top = tops[parent]
            c_start, c_end = max(start, top[1]), min(end, top[2])
            if c_end <= c_start:
                continue
            if top[5] is None or c_start > top[5]:
                if top[5] is not None:
                    top[3] += top[5] - top[4]
                top[4], top[5] = c_start, c_end
            else:
                top[5] = max(top[5], c_end)
    self_ns = {key: values for key, values in durations.items()}
    parent_keys = {top[0] for top in tops.values() if top[5] is not None}
    for key in parent_keys:
        self_ns[key] = []
    for key, start, end, covered, union_start, union_end in tops.values():
        if key in parent_keys:
            if union_end is not None:
                covered += union_end - union_start
            self_ns[key].append(end - start - covered)
    return durations, self_ns


def spans_named(table, arm_name, name, layer=None):
    out = []
    for (a, n, l), values in table.items():
        if a == arm_name and n == name and (layer is None or l == layer):
            out.extend(values)
    return out


def median_or_zero(values):
    return float(statistics.median(values)) if values else 0.0


def reduce(trace, traced, untraced):
    """`trace` is what load_spans returned for the traced run's spans."""
    durations, self_ns = trace
    ops = untraced["ops_per_round"]
    mk40 = arm(untraced, "mk40")
    detail = mk40["detail"]
    counters = detail.get("counters", {})
    gauges = detail.get("gauges", {})
    calls = detail.get("cost_calls", {})
    openloop = detail.get("openloop", {})
    svc = detail.get("svc", {})

    def c(name):
        return counters.get(name, 0)

    host = host_ns_per_op(untraced)
    machine = untraced["machine"]
    floor_ns = (calls.get("context_switch", 0) * machine["switch_rt_ns"] / 2
                + (calls.get("stack_handoff", 0) + calls.get("call_continuation", 0))
                * machine["make_jump_ns"]) / ops

    mk32 = arm(untraced, "mk32")
    paired = [a / b for a, b in zip(mk40["run_ns"], mk32["run_ns"]) if b] if mk32 else []

    def per_round_sum(names):
        totals = {}
        for (a, n, _), values in durations.items():
            if a == "mk40" and n in names:
                totals[n] = totals.get(n, 0) + sum(values)
        return ratio(sum(totals.values()), len(arm(traced, "mk40")["traced_run_ns"]))

    run_ns = sum(spans_named(durations, "mk40", "Cluster::Run"))
    drain_ns = sum(spans_named(durations, "mk40", "Cluster::Drain"))
    messages = c("ipc.messages_sent")
    acks = c("net.acks_piggybacked") + c("net.acks_tx")
    arrivals = openloop.get("arrivals", 0)
    svc_seen = svc.get("admitted", 0) + svc.get("shed", 0)

    values = {
        "machine.switch_rt_ns": machine["switch_rt_ns"],
        "machine.make_jump_ns": machine["make_jump_ns"],
        "machine.floor_share": ratio(floor_ns, host),
        "task.null_syscall_ns": median_or_zero(
            spans_named(durations, "mk40", "UserNullSyscall")),
        "task.null_syscall_ns_mk32": median_or_zero(
            spans_named(durations, "mk32", "UserNullSyscall")),
        "kern.yield_ns": median_or_zero(spans_named(durations, "mk40", "UserYield")),
        "kern.yield_ns_mk32": median_or_zero(spans_named(durations, "mk32", "UserYield")),
        "kern.handoffs_per_op": ratio(c("xfer.stack_handoffs"), ops),
        "kern.blocks_per_op": ratio(c("xfer.total_blocks"), ops),
        "kern.rpc_mk40_over_mk32": median_or_zero(paired),
        "kern.stacks_max_in_use": gauges.get("stack.max_in_use", 0),
        "kern.ctor_us": per_round_sum(CTOR_SPANS) / 1e3,
        "kern.teardown_us": per_round_sum(DTOR_SPANS) / 1e3,
        "ipc.rpc_call_ns_p50": percentile(
            spans_named(durations, "mk40", "UserRpc", "ipc"), 50),
        "ipc.rpc_call_ns_p99": percentile(
            spans_named(durations, "mk40", "UserRpc", "ipc"), 99),
        "ipc.serve_self_ns_p50": percentile(
            spans_named(self_ns, "mk40", "UserServeOnce", "ipc"), 50),
        "ipc.recognition_ratio": ratio(c("ipc.receive_recognitions"), messages),
        "ipc.fast_rpc_handoff_ratio": ratio(c("ipc.fast_rpc_handoffs"), messages),
        "ipc.queued_send_ratio": ratio(c("ipc.queued_sends"), messages),
        "ipc.kmsg_alloc_blocks_per_kop": ratio(1000 * c("ipc.kmsg_alloc_blocks"), ops),
        "exc.raise_ns": median_or_zero(spans_named(durations, "mk40", "UserRaiseException")),
        "exc.raise_ns_mk32": median_or_zero(
            spans_named(durations, "mk32", "UserRaiseException")),
        "exc.fast_delivery_ratio": ratio(c("exc.fast_deliveries"), c("exc.raised")),
        "vm.touch_fault_ns_p50": percentile(spans_named(durations, "mk40", "UserTouch"), 50),
        "vm.faults_per_op": ratio(c("vm.user_faults"), ops),
        "vm.pageins_per_kop": ratio(1000 * c("vm.pageins"), ops),
        "net.rpc_call_ns_p50": percentile(
            spans_named(durations, "mk40", "UserRpc", "net"), 50),
        "net.rpc_call_ns_p99": percentile(
            spans_named(durations, "mk40", "UserRpc", "net"), 99),
        "net.packets_per_op": ratio(c("net.packets_tx"), ops),
        "net.wire_bytes_per_op": ratio(c("net.bytes_tx"), ops),
        "net.retransmits_per_kop": ratio(1000 * c("net.retransmits"), ops),
        "net.fast_retransmit_share": ratio(c("net.fast_retransmits"), c("net.retransmits")),
        "net.give_ups": c("net.give_ups"),
        "net.goodput_byte_ratio": ratio(c("net.bytes_goodput"), c("net.bytes_tx")),
        "net.ack_piggyback_ratio": ratio(c("net.acks_piggybacked"), acks),
        "net.frames_coalesced_per_kop": ratio(1000 * c("net.frames_coalesced"), ops),
        "net.ool_bytes_pulled_per_op": ratio(c("net.ool_bytes_pulled"), ops),
        "net.rx_ooo_hw": gauges.get("net.rx_ooo_hw", 0),
        "net.run_share": ratio(run_ns, run_ns + drain_ns),
        "net.drain_share": ratio(drain_ns, run_ns + drain_ns),
        "svc.shed_ratio": ratio(svc.get("shed", 0), svc_seen),
        "svc.served_per_op": ratio(svc.get("admitted", 0), arrivals),
        "svc.setup_us": median_or_zero(
            spans_named(durations, "mk40", "OpenLoopEngine::OpenLoopEngine")) / 1e3,
        "workload.retries_per_kop": ratio(1000 * openloop.get("retries", 0), arrivals),
        "workload.client_shed_ratio": ratio(openloop.get("client_shed", 0), arrivals),
        "workload.failed": openloop.get("failed", 0),
        "trace_overhead": trace_overhead(traced),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def rpc_span_coverage(trace, traced):
    """Summed client UserRpc span time over the traced run time (mk40). On
    rpc_local the client's calls are the whole run, so this should be within
    5% of 1."""
    durations, _ = trace
    rpc = spans_named(durations, "mk40", "UserRpc", "ipc")
    return ratio(sum(rpc), sum(arm(traced, "mk40")["traced_run_ns"]))


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        traced = json.load(f)
    with open(argv[3]) as f:
        untraced = json.load(f)
    print(json.dumps(reduce(load_spans(argv[1]), traced, untraced), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
