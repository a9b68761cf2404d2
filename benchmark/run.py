#!/usr/bin/env python3
"""Builds the machcont host-time benchmark, runs it, checks it, prints metrics.

Run from the repository root:

    python3 benchmark/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--rounds N] [--trace 0|1] [--out FILE]

The Release build goes to .bench_build/ (CMake project in benchmark/, which
compiles ../src unmodified). Each workload runs in its own process of
.bench_build/machcont_benchmark, on one host thread, so its peak RSS is its
own.

--seconds bounds the measured rounds by time (at least 3 rounds per arm);
--rounds fixes their number instead (--rounds 3 is the quick smoke mode);
with neither, each workload runs its default round count. --trace 1 spends
half the budget on an untraced run, then runs 3 pairs of an untraced and a
traced round of the mk40 and mk32 arms; the spans go to
.bench_out/<workload>.spans.jsonl. It reports the per-layer metrics instead
of the end-to-end ones.

Host times (setup_s and host_ns_per_op*) are scaled by the host-speed
reference that machcont_benchmark times before every round: they read as
if the reference loop took REF_NOMINAL_NS. The unscaled medians are printed
and kept in --out as host_raw_ns_per_op.

Every metric is printed with its unit, median, p25/p75/p90 and sample count;
--out writes the same as JSON (the format benchmark/compare.py reads). The
last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The run exits 1 if any check fails: an arm completed a different number of
ops than asked, an operation failed, open-loop arrivals were not each counted
exactly once, rounds of one arm disagree on the deterministic fingerprint, a
traced run dropped spans, or (rpc_local) the client's UserRpc spans do not
cover the traced run to within 5%.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "machcont_benchmark"
WORKLOADS = ["rpc_local", "transfer_mix", "openloop_fabric", "cluster_rpc_lossy"]
ARMS = ["mk40", "mk32", "mach25"]
# Host times are reported at the host speed where machcont_benchmark's
# reference loop takes this long (see HostSpeedReference in main.cc).
REF_NOMINAL_NS = 1e6
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
SPAN_COVERAGE_TOLERANCE = 0.05

sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
sys.path.insert(0, str(HERE))
import reduce_trace  # noqa: E402
from reduce_trace import arm  # noqa: E402


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# name -> unit of every end-to-end metric end_to_end() computes.
END_TO_END_UNITS = {
    "setup_s": "s",
    "host_ns_per_op": "ns",
    "host_ns_per_op_mk32": "ns",
    "host_ns_per_op_mach25": "ns",
    "vticks_per_op": "ticks",
    "vticks_per_op_mk32": "ticks",
    "vticks_per_op_mach25": "ticks",
    "vlat_p50_ticks": "ticks",
    "vlat_p99_ticks": "ticks",
    "goodput_ratio": "ratio",
    "success_ratio": "ratio",
    "msg_copy_bytes_per_op": "B",
    "peak_rss_mib": "MiB",
}


def load_spec():
    """BENCHMARK.json, checked against the metrics this runner computes."""
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    for key, units in (("end_to_end", END_TO_END_UNITS),
                       ("per_layer", reduce_trace.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            raise BenchError(f"BENCHMARK.json {key} metrics differ from what run.py computes")
    return spec


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "machcont_benchmark", "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}")
        if proc.returncode != 0:
            raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def run_binary(workload, seed, seconds=None, rounds=None, trace_out=None):
    cmd = [str(BINARY), f"--workload={workload}"]
    if seed is not None:
        cmd.append(f"--seed={seed}")
    if rounds:
        cmd.append(f"--rounds={rounds}")
    elif seconds:
        cmd.append(f"--seconds={seconds}")
    if trace_out is not None:
        cmd.append(f"--trace-out={trace_out}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: machcont_benchmark exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: machcont_benchmark printed no record")
    return json.loads(lines[-1])


def check(record):
    """The runner's own correctness checks; returns a list of failures."""
    errors = []
    w = record["workload"]
    ops = record["ops_per_round"]
    for a in record["arms"]:
        where = f"{w}/{a['model']}"
        for i, (done, failed) in enumerate(zip(a["ops_done"], a["failed"])):
            if failed:
                errors.append(f"{where} round {i}: {failed} ops failed (fail_ratio > 0)")
            if done != ops:
                errors.append(f"{where} round {i}: {done} ops completed correctly, "
                              f"{ops} asked")
        if a["peak_rss_kib"] <= 0:
            errors.append(f"{where}: peak RSS unknown (no VmHWM in /proc/self/status)")
        fingerprints = set(a["fingerprint"] + a.get("traced_fingerprint", []))
        if len(fingerprints) != 1:
            errors.append(f"{where}: rounds disagree on the deterministic fingerprint "
                          f"({len(fingerprints)} distinct)")
        ol = a["detail"].get("openloop")
        if ol is not None:
            late = ol["completed"] - ol["deadline_met"]
            outcomes = (ol["deadline_met"] + late + ol["rejected_deadline"]
                        + ol["client_shed"] + ol["failed"])
            if outcomes != ol["arrivals"] or ol["arrivals"] != ops:
                errors.append(f"{where}: {ol['arrivals']} arrivals ({ops} asked) but "
                              f"{outcomes} outcomes")
    if record.get("spans_dropped"):
        errors.append(f"{w}: traced run dropped {record['spans_dropped']} spans")
    return errors


def stats(samples):
    values = sorted(samples)
    if len(values) == 1:
        q = [values[0]] * 19
    else:
        q = statistics.quantiles(values, n=20, method="inclusive")
    return {"median": statistics.median(values), "p25": q[4], "p75": q[14], "p90": q[17],
            "n": len(values)}


def host_ns(record, model, normalized=True):
    """Per-round host ns per op: (run + drain) / ops, scaled to the nominal
    host speed by the reference loop timed before the round."""
    a = arm(record, model)
    ops = record["ops_per_round"]
    return [(run + drain) / ops * (REF_NOMINAL_NS / ref if normalized else 1.0)
            for run, drain, ref in zip(a["run_ns"], a["drain_ns"], a["ref_ns"])]


def end_to_end(record):
    """Per-round samples of every end-to-end metric (mk40 unless suffixed)."""
    ops = record["ops_per_round"]

    def per_round(model, value):
        return [value] * arm(record, model)["rounds"]

    mk40 = arm(record, "mk40")
    v = mk40["virtual"]
    out = {
        "setup_s": [ns / 1e9 * REF_NOMINAL_NS / ref
                    for ns, ref in zip(mk40["setup_ns"], mk40["ref_ns"])],
        "vlat_p50_ticks": per_round("mk40", v["vlat_p50"]),
        "vlat_p99_ticks": per_round("mk40", v["vlat_p99"]),
        "goodput_ratio": per_round("mk40", v["good"] / ops),
        "success_ratio": [1 - failed / ops for failed in mk40["failed"]],
        "msg_copy_bytes_per_op": per_round("mk40", v["msg_copy_bytes"] / ops),
        "peak_rss_mib": [mk40["peak_rss_kib"] / 1024],
    }
    for model in ARMS:
        suffix = "" if model == "mk40" else "_" + model
        out["host_ns_per_op" + suffix] = host_ns(record, model)
        out["vticks_per_op" + suffix] = per_round(
            model, arm(record, model)["virtual"]["vticks"] / ops)
    return out


def run_workload(workload, args):
    seed = args.seed
    errors = []
    untraced_seconds = args.seconds / 2 if (args.trace and args.seconds) else args.seconds
    untraced = run_binary(workload, seed, seconds=untraced_seconds, rounds=args.rounds)
    errors += check(untraced)
    records = [untraced]
    result = {"workload": workload, "seed": untraced["seed"],
              "rounds": {a["model"]: a["rounds"] for a in untraced["arms"]},
              "measured_s": untraced["measured_s"], "machine": untraced["machine"]}
    result["end_to_end"] = {name: stats(samples)
                            for name, samples in end_to_end(untraced).items()}
    result["host_raw_ns_per_op"] = {
        model: statistics.median(host_ns(untraced, model, normalized=False)) for model in ARMS}
    result["ref_ns"] = statistics.median(arm(untraced, "mk40")["ref_ns"])
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{workload}.spans.jsonl"
        traced = run_binary(workload, seed, trace_out=spans)
        errors += check(traced)
        records.append(traced)
        trace = reduce_trace.load_spans(spans)
        result["per_layer"] = reduce_trace.reduce(trace, traced, untraced)
        result["spans"] = traced["spans"]
        if workload == "rpc_local":
            coverage = reduce_trace.rpc_span_coverage(trace, traced)
            result["rpc_span_coverage"] = coverage
            if abs(coverage - 1) > SPAN_COVERAGE_TOLERANCE:
                errors.append(f"rpc_local: client UserRpc spans cover {coverage:.3f} of "
                              f"the traced run (must be within "
                              f"{SPAN_COVERAGE_TOLERANCE:.0%} of 1)")
    result["attempted"] = sum(r["ops_per_round"] * a["rounds"]
                              for r in records for a in r["arms"])
    result["failed"] = sum(sum(a["failed"]) for r in records for a in r["arms"])
    result["fail_ratio"] = result["failed"] / result["attempted"]
    result["errors"] = errors
    return result


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(BUILD_DIR / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                              text=True, timeout=30,
                                              check=False).stdout.splitlines()[0]
                    break
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version()}


def print_result(result, spec):
    rounds = ", ".join(f"{m} {n}" for m, n in result["rounds"].items())
    print(f"{result['workload']} (seed {result['seed']}; rounds {rounds}; "
          f"{result['measured_s']:.1f} s measured; fail_ratio {result['fail_ratio']:g})")
    for m in spec["end_to_end"]:
        s = result["end_to_end"][m["name"]]
        print(f"  {m['name']:24s} {s['median']:14.6g} {m['unit']:6s} p25 {s['p25']:.6g} "
              f"p75 {s['p75']:.6g} p90 {s['p90']:.6g} n={s['n']}")
    raw = ", ".join(f"{m} {v:.6g}" for m, v in result["host_raw_ns_per_op"].items())
    print(f"  (host ns per op before normalizing: {raw}; reference loop "
          f"{result['ref_ns'] / 1e6:.4f} ms)")
    for name, v in result.get("per_layer", {}).items():
        print(f"  {name:32s} {v['value']:14.6g} {v['unit']}")
    if "rpc_span_coverage" in result:
        print(f"  (client UserRpc spans cover {result['rpc_span_coverage']:.4f} of the "
              f"traced run)")
    for e in result["errors"]:
        print(f"  CHECK FAILED: {e}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: each workload's own)")
    p.add_argument("--seconds", type=float, default=None,
                   help="time budget for the measured rounds of each workload")
    p.add_argument("--rounds", type=int, default=None,
                   help="measured rounds per arm (overrides --seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=None, help="write the results as JSON here")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is not None and not 0 < args.seconds <= 3600:
        p.error("--seconds must be in (0, 3600]")
    if args.rounds is not None and args.rounds < 1:
        p.error("--rounds must be >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        spec = load_spec()
        build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for w in workloads:
            log(f"run.py: {w}")
            results.append(run_workload(w, args))
    except BenchError as e:
        log(f"run.py: {e}")
        return 1

    for result in results:
        print_result(result, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": machine_info(), "args": vars(args), "runs": results},
                      f, indent=1)
            f.write("\n")

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if args.trace:
            for name, v in result["per_layer"].items():
                metrics[prefix + name] = v
        else:
            for m in spec["end_to_end"]:
                metrics[prefix + m["name"]] = {
                    "value": result["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
    correct = not any(r["errors"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
