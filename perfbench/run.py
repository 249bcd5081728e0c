#!/usr/bin/env python3
"""Served-query SSSP benchmark: build sssp_bench, run workloads, print metrics.

    python3 perfbench/run.py --workload rmat-hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Run from the root of a checkout.  The first run configures and builds
perfbench/ (and through it the library) in .bench_build/ in Release mode.
Each run prints a table of every metric with its unit and sample count,
then, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
measured with tracing off; with --trace 1 they are the per_layer list,
from a traced run whose spans are written to .bench_build/perfbench-trace/.
A per-layer value that does not exist for the workload's core is printed
as "n/a (reason)" and carried in the JSON line as -1.

Every answer is checked: each distinct source once with validate_sssp,
every other answer for that source bit for bit against it.  A wrong answer
makes the run exit 1.  --results FILE appends each run's JSON line (with
workload and seed) to FILE, the input of compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "sssp_bench"
DEFAULT_SEED = 1  # perfbench/reference.json also names a held-out seed
RUN_TIMEOUT_S = 170
GRB_ALGORITHMS = ("graphblas", "graphblas_select")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "sssp_bench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def run_sssp_bench(workload, seed, seconds, trace):
    work = BUILD / "perfbench-run"
    traces = BUILD / "perfbench-trace"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    out = work / f"{workload}-seed{seed}-trace{trace}.json"
    spans = traces / f"{workload}-seed{seed}.spans.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work), "--out", str(out), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: sssp_bench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: sssp_bench exited with {proc.returncode}")
    raw = json.loads(out.read_text())
    out.unlink()
    return raw, (spans if trace else None)


# ---------------------------------------------------------------------------
# Metrics


def complete_latencies(phase, keep=lambda i: True):
    return [lat for i, (lat, outcome) in
            enumerate(zip(phase["latency_ms"], phase["outcome"]))
            if outcome == 0 and keep(i)]


def accounting(phases):
    """(attempted, failed, detail) over the timed phases: a query fails
    when it threw, ended other than complete, or returned a wrong answer."""
    attempted = sum(len(p["outcome"]) for p in phases)
    threw = sum(p["outcome"].count(2) for p in phases)
    incomplete = sum(p["outcome"].count(1) for p in phases)
    wrong = sum(p["wrong_answers"] for p in phases)
    return attempted, threw + incomplete + wrong, {
        "threw": threw, "not_complete": incomplete, "wrong": wrong}


def merge(phases):
    """Several timed slices as one phase: samples in order, seconds and
    ServerStats deltas summed."""
    out = {key: [x for p in phases for x in p[key]]
           for key in ("latency_ms", "outcome", "repeat")}
    out["seconds"] = sum(p["seconds"] for p in phases)
    out["delta"] = {key: sum(p["stats_after"][key] - p["stats_before"][key]
                             for p in phases)
                    for key in phases[0]["stats_after"]}
    out["slices"] = len(phases)
    return out


def qps(phase):
    return len(complete_latencies(phase)) / phase["seconds"]


def end_to_end(raw):
    phase = merge(raw["phases"])
    lat = complete_latencies(phase)
    values = {
        "qps": qps(phase),
        "latency_p50_ms": harness.percentile(lat, 50),
        "latency_p90_ms": harness.percentile(lat, 90),
        "setup_s": harness.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    counts = {"qps": len(lat), "latency_p50_ms": len(lat),
              "latency_p90_ms": len(lat), "setup_s": len(raw["setup_s"]),
              "peak_rss_mb": 1}
    return values, counts, {}


def mean(values):
    return sum(values) / len(values) if values else harness.NA("no samples")


def delta(phase, key):
    return phase["delta"][key]


def per_layer(raw, spans):
    untraced = merge([p for p in raw["phases"] if not p["traced"]])
    traced = merge([p for p in raw["phases"] if p["traced"]])
    selfs = harness.self_times(spans)
    sv = raw["solves"]
    n_solves = len(sv["relax_requests"])
    algorithm = raw["algorithm"]
    v, counts, notes = {}, {}, {}

    def put(name, value, n, note=None):
        v[name] = value
        counts[name] = n
        if note:
            notes[name] = note

    for metric, span in [("graph.to_matrix_ms", "to_matrix"),
                         ("sssp.plan.build_ms", "plan_build"),
                         ("sssp.plan.warm_ms", "warm_plan"),
                         ("serving.plan_io.save_ms", "save"),
                         ("serving.plan_io.load_ms", "load"),
                         ("serving.server.start_ms", "server_start")]:
        put(metric, harness.median(selfs[span]), len(selfs[span]),
            "median self time over set-ups")
    put("serving.plan_io.file_mb", raw["plan_bytes"] / 1e6, 1)

    submit = selfs.get("submit", [])
    put("serving.server.submit_ms.p50", harness.percentile(submit, 50),
        len(submit))
    put("serving.server.submit_ms.p90", harness.percentile(submit, 90),
        len(submit))

    solve = selfs.get("solve", [])
    solve_p50 = harness.percentile(solve, 50)
    put("sssp.core.solve_ms.p50", solve_p50, len(solve),
        f"direct warm SsspSolver::solve, {algorithm}")
    put("sssp.core.solve_ms.p90", harness.percentile(solve, 90), len(solve))

    repeat = traced["repeat"]
    misses = complete_latencies(traced, lambda i: not repeat[i])
    repeats = complete_latencies(traced, lambda i: repeat[i])
    miss_p50 = harness.percentile(misses, 50)
    if isinstance(miss_p50, harness.NA) or isinstance(solve_p50, harness.NA):
        queue = harness.NA("needs latency p50 on first-time sources and "
                           "solve p50")
    else:
        queue = miss_p50 - solve_p50
    put("serving.server.queue_ms", queue, len(misses),
        "derived: p50 latency of first-time sources minus solve p50")
    put("serving.result_cache.repeat_ms", harness.percentile(repeats, 50)
        if repeats else harness.NA("no source repeated"), len(repeats),
        "p50 latency of queries whose source had completed before")

    for key in ("submitted", "completed", "failed", "deadline_expired",
                "cancelled", "cache_insert_failures"):
        put(f"serving.server.{key}", delta(traced, key), 1)
    hr = harness.hit_ratio(delta(traced, "cache_hits"),
                           delta(traced, "cache_misses"))
    put("serving.result_cache.hit_ratio", hr.value, hr.base, f"{hr}")
    put("serving.result_cache.hits", hr.num, 1)
    put("serving.result_cache.lookups", hr.base, 1)
    put("serving.result_cache.evictions", delta(traced, "cache_evictions"), 1)

    bucket_core = any(sv["light_phases"])
    no_buckets = harness.NA(f"the {algorithm} core has no buckets")
    per_bucket = [r / o for r, o in zip(sv["reached"], sv["outer_iterations"])
                  if o]
    put("sssp.core.buckets",
        mean(sv["outer_iterations"]) if bucket_core else no_buckets, n_solves)
    put("sssp.core.light_phases",
        mean(sv["light_phases"]) if bucket_core else no_buckets, n_solves)
    put("sssp.core.relax_requests", mean(sv["relax_requests"]), n_solves)
    put("sssp.core.reached_per_bucket",
        mean(per_bucket) if bucket_core else no_buckets, n_solves)
    timed = any(a + b + c for a, b, c in
                zip(sv["light_s"], sv["heavy_s"], sv["vector_s"]))
    no_timers = harness.NA(f"the {algorithm} core fills no profile timers")
    for name, key in [("light", "light_s"), ("heavy", "heavy_s"),
                      ("vector", "vector_s")]:
        put(f"sssp.core.{name}_ms",
            mean([s * 1e3 for s in sv[key]]) if timed else no_timers, n_solves)
    if algorithm in GRB_ALGORITHMS:
        put("graphblas.vxm_ms", mean([(a + b) * 1e3 for a, b in
                                      zip(sv["light_s"], sv["heavy_s"])]),
            n_solves)
        put("graphblas.pointwise_ms",
            mean([s * 1e3 for s in sv["vector_s"]]), n_solves)
    else:
        for name in ("graphblas.vxm_ms", "graphblas.pointwise_ms"):
            put(name, 0.0, n_solves,
                f"zero by construction: the {algorithm} core calls no grb "
                "kernels")

    slice_qps = [qps(p) for p in raw["phases"] if not p["traced"]]
    put("trace.overhead_frac", 1.0 - qps(traced) / qps(untraced),
        len(traced["outcome"]),
        f"traced {qps(traced):.2f} q/s vs untraced {qps(untraced):.2f} q/s "
        f"over {traced['slices']}+{untraced['slices']} alternating slices; "
        f"untraced slices ran {min(slice_qps):.2f}-{max(slice_qps):.2f} q/s")
    return v, counts, notes, {name: harness.median(t)
                              for name, t in sorted(selfs.items())}


# ---------------------------------------------------------------------------
# Reporting


def show(value):
    if isinstance(value, harness.NA):
        return repr(value)
    return f"{value:.6g}"


def run_one(spec, workload, seed, seconds, trace, results):
    raw, spans_path = run_sssp_bench(workload, seed, seconds, trace)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    phases = raw["phases"]
    if trace:
        spans = json.loads(spans_path.read_text())
        values, counts, notes, self_ms = per_layer(raw, spans)
    else:
        values, counts, notes = end_to_end(raw)
    mismatch = {m["name"] for m in listed} ^ set(values)
    if mismatch:
        fail(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")

    attempted, failed, detail = accounting(phases)
    verify = raw["verify"]
    correct = verify["invalid_sources"] == 0 and verify["wrong_answers"] == 0

    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"algorithm {raw['algorithm']}  delta {raw['delta']:.6g}")
    print(f"   |V| {raw['num_vertices']}  |E| {raw['num_edges']} stored  "
          f"plan {raw['plan_bytes']} bytes  clients {raw['clients']}  "
          f"workers {raw['workers']}  closed loop")
    for m in listed:
        name = m["name"]
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"   {name:34s} {show(values[name]):>14s} {m['unit']:6s} "
              f"n={counts[name]}{note}")
    error_rate = harness.Ratio(failed, attempted)
    print(f"   error_rate {error_rate} queries  threw {detail['threw']}  "
          f"not_complete {detail['not_complete']}  wrong {detail['wrong']}")
    print(f"   checked {verify['distinct_sources']} distinct sources with "
          f"validate_sssp: {verify['invalid_sources']} invalid")
    if not correct:
        print(f"   WRONG ANSWERS: {verify['first_error'] or 'bit mismatch'}")
    if trace:
        summary = spans_path.with_name(f"{workload}-seed{seed}.summary.json")
        summary.write_text(json.dumps({
            "workload": workload, "seed": seed,
            "per_layer": {k: (repr(x) if isinstance(x, harness.NA) else x)
                          for k, x in values.items()},
            "samples": counts, "notes": notes,
            "self_time_ms_median": self_ms}, indent=1) + "\n")
        print(f"   spans: {spans_path.relative_to(ROOT)}  "
              f"summary: {summary.relative_to(ROOT)}")

    metrics = {}
    for m in listed:
        value = values[m["name"]]
        if isinstance(value, harness.NA):
            if not trace:
                fail(f"{workload}: {m['name']} is {value!r}", 1)
            value = harness.NA_VALUE
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    if results:
        with open(results, "a") as f:
            f.write(json.dumps(dict(workload=workload, seed=seed, trace=trace,
                                    **line)) + "\n")
    print(json.dumps(line))
    return correct


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="must equal BENCHMARK.json's run_seconds, so "
                        "every run is comparable with every other")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append each result line here")
    args = parser.parse_args()

    if args.seconds != spec["run_seconds"]:
        fail(f"--seconds {args.seconds} differs from BENCHMARK.json's "
             f"run_seconds {spec['run_seconds']}")
    build()
    workloads = names if args.workload == "all" else [args.workload]
    correct = [run_one(spec, w, args.seed, args.seconds, args.trace,
                       args.results)
               for w in workloads]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
