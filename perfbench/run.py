#!/usr/bin/env python3
"""Benchmark runner for the three workloads in perfbench/README.md.

    python3 perfbench/run.py --workload table3|pinn|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench_workload into
.bench_build/ from the sources in this checkout. Each run starts the binary
in a fresh process with a pinned OpenMP team, checks every final J against
reference.json and prints one JSON object as the last line of stdout. With
--trace 1 the workload runs twice, untraced then traced, and the result holds
the per-layer metrics plus the tracing overhead.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")
REFERENCE = os.path.join(HERE, "reference.json")

# Timed-phase length of one round of each workload on a 4-vCPU Xeon, used to
# turn --seconds into a whole number of rounds (fixed work per round).
ROUND_SECONDS = {"table3": 25.0, "pinn": 25.0, "serve": 22.0}
SETUP_REPS = 9
RUN_TIMEOUT_S = 170

# Per-layer metrics and their units, as BENCHMARK.json lists them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}

# Per-layer counters that repeat exactly from run to run. A traced run lists
# any that differ from reference.json; that is a finding about the program,
# not a failed check, because an optimisation may change them on purpose.
# Steals and shard imbalance depend on timing and are not listed.
DETERMINISTIC = {
    "table3": ["la.lu_factor.calls", "la.gmres.iterations",
               "la.sparse_first.fallbacks", "la.sparse_first.dense_instances",
               "autodiff.tape.peak_bytes", "autodiff.tape.nodes_swept"],
    "pinn": ["la.lu_factor.calls", "autodiff.tape.peak_bytes",
             "autodiff.tape.nodes_swept"],
    "serve": ["la.lu_factor.calls", "rbf.rbffd.rows_recomputed",
              "rbf.rbffd.rows_reused", "serve.cache_misses"] + [
        name for name in LAYER_UNITS if name.startswith("serve.cache.")],
}

# Every J matches its reference bitwise on the recording machine; the check
# allows this relative difference so that a kernel that reorders a sum still
# passes while a wrong gradient or solve does not.
J_RTOL = 1e-9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def thread_budget():
    """OpenMP team and shard workers: at most two, and below nproc."""
    nproc = len(os.sched_getaffinity(0))
    budget = max(1, min(2, nproc - 1))
    return nproc, budget, budget


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources not found at", ROOT)
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD_DIR, "--target",
              "perfbench_workload", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("perfbench: build failed; see", out.name)
                sys.exit(2)


def run_binary(args, team, workers, trace, rounds):
    # A clean environment: no UPDEC_* knob (cache dir, ROM, shards, faults)
    # and no inherited OpenMP setting may change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("UPDEC_", "OMP_", "GOMP_"))}
    env.update(OMP_NUM_THREADS=str(team), OMP_DYNAMIC="false")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(rounds), "--setup-reps", str(SETUP_REPS),
           "--trace", str(trace), "--workers", str(workers)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log(f"perfbench: workload exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples, p):
    """Nearest-rank percentile and whether >= 10 samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank >= 10


def check(raw, reference):
    """Failure messages of the runs that fail an in-run check or whose J is
    not within J_RTOL of the reference."""
    failures = []
    for run in raw["runs"]:
        want = reference["runs"].get(run["key"])
        if not run["ok"]:
            failures.append(f"{run['key']}: {run.get('detail', 'failed')}")
        elif want is None or not math.isclose(run["j"], want, rel_tol=J_RTOL):
            failures.append(f"{run['key']}: J = {run['j']!r}, "
                            f"reference {want!r}")
    return failures


def end_to_end(raw, reference, failures):
    n = len(raw["runs"])
    p50, p50_ok = percentile(raw["latency_s"], 50)
    p90, p90_ok = percentile(raw["latency_s"], 90)
    setup = sorted(raw["setup_s"])
    metrics = {
        "setup_s": (setup[len(setup) // 2], "s"),
        "throughput": (raw["units"] / raw["timed_s"], "units/s"),
        "cpu_s": (raw["cpu_s"], "s"),
        "peak_rss_mib": (raw["peak_rss_bytes"] / 2**20, "MiB"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "final_j": (math.fsum(r["j"] for r in raw["runs"]), "cost"),
        "ok_frac": ((n - len(failures)) / n, "ratio"),
    }
    info = {"latency_samples": len(raw["latency_s"]),
            "latency_p50_rule_met": p50_ok,
            "latency_p90_rule_met": p90_ok,
            "j_bitwise": all(run["j"] == reference["runs"].get(run["key"])
                             for run in raw["runs"])}
    return metrics, info


def layer_metrics(raw, traced, untraced_throughput):
    layers = dict(raw["layers"])
    layers["budget.omp_team"] = raw["omp_team"]
    layers["budget.workers"] = raw["workers"]
    layers["trace.overhead_frac"] = 1.0 - traced / untraced_throughput
    return {name: (layers.get(name, 0.0), unit)
            for name, unit in LAYER_UNITS.items()}


def report(traced, metrics):
    """Human-readable trace report on stderr: the per-layer metrics, then
    every registry span by self time, then the registry counters."""
    for name, (value, unit) in metrics.items():
        log(f"  {name:<38} {value:>14.6g} {unit}")
    registry = traced["registry"]
    log(f"  {'registry span':<38} {'count':>8} {'total_s':>10} {'self_s':>10}")
    spans = sorted(registry.get("spans", {}).items(),
                   key=lambda kv: -kv[1]["self_seconds"])
    for name, span in spans:
        log(f"  {name:<38} {span['count']:>8} {span['total_seconds']:>10.4f} "
            f"{span['self_seconds']:>10.4f}")
    for name, value in sorted(registry.get("counters", {}).items()):
        log(f"  {name:<38} {value:>8}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's J values and deterministic "
                             "counters as the workload's reference")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    nproc, team, workers = thread_budget()
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    log(f"perfbench: {args.workload} seed {args.seed} rounds {rounds} "
        f"nproc {nproc} omp_team {team} workers {workers}")

    raw = run_binary(args, team, workers, 0, rounds)
    traced = run_binary(args, team, workers, 1, rounds) if args.trace else None

    with open(REFERENCE) as f:
        references = json.load(f)
    references.setdefault(args.workload, {"runs": {}, "counters": {}})
    if args.record_reference:
        layers = (traced or {}).get("layers", {})
        references[args.workload] = {
            "runs": {r["key"]: r["j"] for r in raw["runs"]},
            "counters": {k: layers[k] for k in DETERMINISTIC[args.workload]
                         if k in layers},
        }
        with open(REFERENCE, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
    reference = references[args.workload]

    failures = check(raw, reference)
    failed_runs = len(failures)
    metrics, info = end_to_end(raw, reference, failures)
    if traced is not None:
        traced_failures = check(traced, reference)
        traced_metrics, _ = end_to_end(traced, reference, traced_failures)
        for name in ("final_j", "ok_frac"):
            if traced_metrics[name] != metrics[name]:
                failures.append(f"traced {name} {traced_metrics[name][0]!r} "
                                f"differs from untraced {metrics[name][0]!r}")
        info["counters_changed"] = {
            name: [want, traced["layers"].get(name)]
            for name, want in reference["counters"].items()
            if traced["layers"].get(name) != want}
        metrics = layer_metrics(traced,
                                traced_metrics["throughput"][0],
                                metrics["throughput"][0])
        report(traced, metrics)

    info.update(workload=args.workload, seed=args.seed, rounds=rounds,
                nproc=nproc, omp_team=raw["omp_team"],
                workers=raw["workers"], failures=failures)
    print(json.dumps({"info": info}))
    for failure in failures:
        log("perfbench: check failed:", failure)
    attempted = len(raw["runs"])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
