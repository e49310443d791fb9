"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain_stencil --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` alternates untraced and traced repetitions of the seed's first
input and prints the per-layer metrics of the traced ones, plus the tracing
overhead.  Every line before the last names a metric with its unit; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (seed, every repetition, fingerprints,
span aggregates) is written to ``perfbench/out/``.  See README.md beside this
file for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from spans import LANES, LAYERS, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: samples of the import cost, each in a fresh interpreter
IMPORT_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "launches_per_s": "1/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_s": "s",
    "job_latency_p50_s": "s",
    "job_latency_p95_s": "s",
}

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "core.expr.nodes_fused": "count",
    "core.expr.temporaries_elided_ratio": "ratio",
    "planning.planner.cache_hit_ratio": "ratio",
    "planning.window.flushes": "count",
    "planning.window.fused_ratio": "ratio",
    "planning.window.prefetched_transfers": "count",
    "planning.stamp.tasks": "count",
    "planning.memplan.preevictions": "count",
    "planning.memplan.promotions": "count",
    "planning.memplan.disk_promotions_staged": "count",
    "runtime.system.subscribe_calls": "count",
    "runtime.scheduler.tasks": "count",
    "runtime.memory.evictions_to_host": "count",
    "runtime.memory.evictions_to_disk": "count",
    "runtime.memory.staging_stalls": "count",
    "runtime.memory.stall_avoided_ratio": "ratio",
    "runtime.memory.disk_bytes": "bytes",
    "runtime.memory.disk_stored_ratio": "ratio",
    "runtime.executors.tasks": "count",
    "simulator.engine.events": "count",
    "simulator.engine.cancelled_ratio": "ratio",
})
for _lane in LANES:
    PER_LAYER[f"simulator.resources.{_lane}.requests"] = "count"
    PER_LAYER[f"simulator.resources.{_lane}.events"] = "count"
    PER_LAYER[f"simulator.resources.{_lane}.busy_virtual_s"] = "s"
PER_LAYER.update({
    "simulator.trace.intervals": "count",
    "runtime.serving.quanta": "count",
    "runtime.serving.queue_delay_p50_virtual_s": "s",
    "other.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.coverage_ratio": "ratio",
})


# ---------------------------------------------------------------------- #
# small helpers
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Host seconds to import the package in a fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import repro, repro.apps; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def fingerprint(result: dict, counters: dict) -> str:
    """Digest of everything deterministic a repetition produced."""
    payload = {
        "virtual_s": repr(result["virtual_s"]),
        "latencies": [repr(value) for value in result["latencies"]],
        "counters": {key: repr(value) for key, value in sorted(counters.items())},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# repetitions
# ---------------------------------------------------------------------- #
def run_rep(workload, seed: int, index: int, traced: bool) -> dict:
    """Set up, time and collect one repetition of input ``index``."""
    from workloads import counters, difference

    recorder = SpanRecorder() if traced else None
    gc.collect()
    with recorder or contextlib.nullcontext():
        start = time.perf_counter()
        state = workload.setup(seed, index)
        setup_s = time.perf_counter() - start
        before = counters(state.runtime, state.contexts)
        if recorder is not None:
            recorder.armed = True
        start = time.perf_counter()
        workload.timed(state, recorder)
        wall_s = time.perf_counter() - start
        if recorder is not None:
            recorder.armed = False
    delta = difference(counters(state.runtime, state.contexts), before)
    result = workload.result(state)
    rep = {
        "input": index % workload.variants,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "operations": delta["launches"] if workload.op == "launch" else result["jobs"],
        "fingerprint": fingerprint(result, delta),
        "counters": delta,
        **result,
    }
    if recorder is not None:
        rep["layers"] = layer_metrics(recorder, delta, result, wall_s)
        rep["spans"] = recorder.to_dict()
    return rep


def measure(workload, seed: int, seconds: float, trace: bool):
    """Repeat while another repetition fits in ``seconds``, at least the
    workload's minimum count; returns ``(repetitions, import samples)``.

    Untraced runs cycle through the seed's inputs and take one import sample
    after each of the first repetitions, so the samples see the machine at
    different moments of the run.  Traced runs alternate an untraced and a
    traced repetition of the first input, so the overhead and the
    fingerprint comparison use identical inputs; they report no set-up time
    and take no import samples.
    """
    reps, imports = [], []
    minimum = 2 if trace else workload.min_reps
    start = time.perf_counter()
    longest = 0.0
    while len(reps) < minimum or time.perf_counter() - start + longest < seconds:
        index = len(reps)
        began = time.perf_counter()
        if trace:
            reps.append(run_rep(workload, seed, 0, traced=index % 2 == 1))
        else:
            reps.append(run_rep(workload, seed, index, traced=False))
        print(f"  rep {index}: input {reps[-1]['input']} traced={reps[-1]['traced']} "
              f"setup {reps[-1]['setup_s']:.3f} s, wall {reps[-1]['wall_s']:.3f} s, "
              f"fingerprint {reps[-1]['fingerprint']}", file=sys.stderr)
        if not trace and len(imports) < IMPORT_SAMPLES:
            imports.append(import_seconds())
        # Start no repetition that would end after ``seconds``.
        longest = max(longest, time.perf_counter() - began)
    while not trace and len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    return reps, imports


def failed_operations(reps) -> int:
    """Operations of repetitions whose fingerprint differs from the first
    repetition of the same input (traced and untraced alike)."""
    reference = {}
    failed = 0
    for rep in reps:
        expected = reference.setdefault(rep["input"], rep["fingerprint"])
        if rep["fingerprint"] != expected:
            failed += rep["operations"]
    return failed


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def end_to_end_metrics(reps, import_samples, peak_mb: float) -> dict:
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep["input"], rep)
    latencies = [value for rep in firsts.values() for value in rep["latencies"]]
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "launches_per_s": statistics.median(
            rep["counters"]["launches"] / rep["wall_s"] for rep in reps),
        "jobs_per_s": statistics.median(rep["jobs"] / rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(import_samples)
        + statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": peak_mb,
        "virtual_s": statistics.median(rep["virtual_s"] for rep in firsts.values()),
        "job_latency_p50_s": percentile(latencies, 50.0),
        "job_latency_p95_s": percentile(latencies, 95.0),
    }


def layer_metrics(recorder, c: dict, result: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    m = {}
    for layer, (calls, _inclusive, own) in recorder.layers.items():
        m[f"{layer}.self_s"] = own
        m[f"{layer}.calls"] = calls
    calls = recorder.method_calls
    disk_bytes = c["bytes_to_disk"] + c["bytes_from_disk"]
    m.update({
        "core.expr.nodes_fused": c["expr_nodes_fused"],
        "core.expr.temporaries_elided_ratio": ratio(
            c["temporaries_elided_bytes"],
            c["temporaries_elided_bytes"] + c["expr_bytes_allocated"]),
        "planning.planner.cache_hit_ratio": ratio(
            c["plan_lookups_hit"], c["plan_lookups_hit"] + c["plan_lookups_missed"]),
        "planning.window.flushes": c["window_flushes"],
        "planning.window.fused_ratio": ratio(c["launches_fused"], c["launches"]),
        "planning.window.prefetched_transfers": c["transfers_prefetched"],
        "planning.stamp.tasks": recorder.tasks_stamped,
        "planning.memplan.preevictions": c["chunks_preevicted"],
        "planning.memplan.promotions": c["prefetch_promotions"],
        "planning.memplan.disk_promotions_staged": c["disk_promotions_staged"],
        "runtime.system.subscribe_calls": calls["RuntimeSystem.subscribe"],
        "runtime.scheduler.tasks": recorder.scheduler_tasks,
        "runtime.memory.evictions_to_host": c["evictions_to_host"],
        "runtime.memory.evictions_to_disk": c["evictions_to_disk"],
        "runtime.memory.staging_stalls": c["staging_stalls"],
        "runtime.memory.stall_avoided_ratio": ratio(
            c["staging_stalls_avoided"], c["staging_stalls_avoided"] + c["staging_stalls"]),
        "runtime.memory.disk_bytes": disk_bytes,
        "runtime.memory.disk_stored_ratio": ratio(c["disk_stored_bytes"], disk_bytes),
        "runtime.executors.tasks": calls["TaskExecutor.execute"],
        "simulator.engine.events": c["events"],
        "simulator.engine.cancelled_ratio": ratio(
            c["events_cancelled"], c["events"] + c["events_cancelled"]),
    })
    for lane in LANES:
        m[f"simulator.resources.{lane}.requests"] = recorder.lane_requests[lane]
        m[f"simulator.resources.{lane}.events"] = c[f"{lane}.events"]
        m[f"simulator.resources.{lane}.busy_virtual_s"] = c[f"{lane}.busy"]
    covered = recorder.self_seconds()
    m.update({
        "simulator.trace.intervals": calls["Trace.record"],
        "runtime.serving.quanta": calls["FairShareClock.charge"],
        "runtime.serving.queue_delay_p50_virtual_s": percentile(result["queue_delays"], 50.0),
        "other.self_s": wall_s - covered,
        "tracing.coverage_ratio": covered / wall_s,
    })
    return m


def per_layer_metrics(reps) -> dict:
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name in traced[0]["layers"]}
    metrics["tracing.overhead_s"] = (statistics.median(rep["wall_s"] for rep in traced)
                                     - statistics.median(rep["wall_s"] for rep in untraced))
    return metrics


def check_declared(units: dict, key: str) -> None:
    """Fail loudly when BENCHMARK.json declares other metrics than these."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        declared = {entry["name"]: entry["unit"] for entry in json.load(handle)[key]}
    if declared != units:
        raise SystemExit(f"BENCHMARK.json {key} does not match the metrics "
                         f"perfbench/run.py prints")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain_stencil", "out_of_core", "serving"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    units = PER_LAYER if args.trace else END_TO_END
    check_declared(units, "per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload]()
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}", file=sys.stderr)
    reps, import_samples = measure(workload, args.seed, args.seconds, bool(args.trace))
    peak_mb = peak_rss_mb()
    twin_attempted, twin_failed = workload.twin(args.seed)

    attempted = sum(rep["operations"] for rep in reps) + twin_attempted
    failed = failed_operations(reps) + twin_failed
    if args.trace:
        metrics = per_layer_metrics(reps)
    else:
        metrics = end_to_end_metrics(reps, import_samples, peak_mb)

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "twin": {"attempted": twin_attempted, "failed": twin_failed},
        "import_samples_s": import_samples, "metrics": metrics, "reps": reps,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"fingerprint {reps[0]['fingerprint']}")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':48s} {ratio(failed, attempted):>16.6g} ratio "
          f"({failed} of {attempted} operations failed or unverified)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
