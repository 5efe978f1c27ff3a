#!/usr/bin/env python3
"""Benchmark of dqipe: four pinned workloads, end-to-end metrics with tracing
off, and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the root of a checkout. For each workload this process starts one
fresh worker process (perfbench/worker.py) that repeats the workload's fixed
work until --seconds have passed since the start (at least MIN_REPS
repetitions), and, half before it and half after, SETUP_SAMPLES fresh
processes that only import dqipe and run the warm-up (set-up time).
Repetition r uses dqipe seed 1000 * seed + r. Every metric is the median
over the repetitions or set-ups.
With --trace 1, odd repetitions run traced and even ones untraced; the traced
ones give the per-layer metrics, and the difference of the two medians is
the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full report, with the
environment block, every repetition and the span summary, is written to
.perfbench_out/.

Per-layer metrics come from the workload's own traced repetitions. A
per-layer time whose entry point this workload never calls (the wire on
batch-variance, say) is taken from a smoke-size traced run of the first
other workload that calls it, and the report says so under "probed".

--smoke runs every workload at a small size, traced and untraced, with all
checks, in seconds; its last line reports the end-to-end metrics as
"<workload>/<metric>".
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import reference

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
SETUP_SAMPLES = 10  # set-up-only processes, besides the worker's own set-up
# every process of one invocation must end within --seconds plus this
SLACK_S = 120
# One BLAS thread, never more than nproc: dense timings stay steadier on a
# shared machine, and on 2 cores the TCP collector thread keeps one to itself.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every workload process runs on this one CPU, the highest this process may
# use. On smp-singlecopy-tcp the client and the collector thread then hand
# each frame over on one core; across two cores every frame waited for the
# other virtual CPU to wake, which made wall_s swing with the host's load.
CPU = max(os.sched_getaffinity(0))
# printed beside the end-to-end metrics of BENCHMARK.json, not gated
UNGATED_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "slowdown": "x", "time_to_se_0.01_s": "s"}
# estimator variance in each run's summary, for time_to_se_0.01_s
VARIANCE_KEYS = ("var_w", "empirical_var")


def spawn(workload: str, seed: int, deadline: float, *, setup_only: bool = False, smoke: bool = False,
          trace: bool = False, until: float = 0.0, min_reps: int = MIN_REPS,
          spans: pathlib.Path | None = None) -> dict:
    """Run perfbench/worker.py in a fresh process, killed at `deadline`
    (time.monotonic()), and return its JSON report."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--until", repr(until), "--min-reps", str(min_reps), "--cpu", str(CPU)]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * smoke + ["--trace"] * trace
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} seed {seed}: worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"{workload} seed {seed}: worker exited {proc.returncode}: {tail}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float, *,
            smoke: bool = False, setup_samples: int = SETUP_SAMPLES, min_reps: int = MIN_REPS) -> dict:
    """One worker that repeats the workload, between set-up-only processes
    (half before it, half after, so they sample the machine at both ends of
    the run); with `trace`, one more repetition so that some are traced and
    some not."""
    start = time.monotonic()
    setups = [spawn(workload, seed, deadline, setup_only=True, smoke=smoke) for _ in range(setup_samples // 2)]
    spans = OUT / f"{workload}.spans.jsonl" if trace and not smoke else None
    if spans is not None:
        OUT.mkdir(exist_ok=True)
    worker = spawn(workload, seed, deadline, smoke=smoke, trace=trace, until=start + seconds,
                   min_reps=min_reps + trace, spans=spans)
    setups += [spawn(workload, seed, deadline, setup_only=True, smoke=smoke)
               for _ in range(setup_samples - setup_samples // 2)]
    return {"setups": setups, "worker": worker}


def count_failures(m: dict, runs_per_rep: int) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, failure messages); a failed set-up counts as a failed run."""
    attempted = failed = 0
    failures: list[str] = []
    for proc in m["setups"]:
        if "error" in proc:
            attempted, failed = attempted + 1, failed + 1
            failures.append(proc["error"])
    worker = m["worker"]
    if "error" in worker:
        return attempted + runs_per_rep, failed + runs_per_rep, failures + [worker["error"]]
    for rep in worker["reps"]:
        for run in rep["runs"]:
            attempted += 1
            failed += bool(run["failures"])
            failures += run["failures"]
    # the determinism pair of each experiment counts as one more run
    attempted += runs_per_rep
    failed += len(worker["determinism_failures"])
    return attempted, failed, failures + worker["determinism_failures"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_to_se(rep: dict) -> float | None:
    """Seconds to estimate f with standard error 0.01: var_w * 1e4 / (trials/s),
    summed over the repetition's runs that estimate f."""
    total = None
    for run in rep["runs"]:
        var = next((run["summary"][k] for k in VARIANCE_KEYS if run["summary"] and k in run["summary"]), None)
        if var is not None and run["trials"]:
            total = (total or 0.0) + var * 1e4 * run["wall_s"] / run["trials"]
    return total


def end_to_end(m: dict) -> dict:
    """Median, quartiles and count of each end-to-end metric, tracing off.
    The norm_ metrics divide each repetition's wall time by its slowdown
    against the reference machine (perfbench/reference.py)."""
    worker = m["worker"]
    reps = [r for r in worker.get("reps", []) if not r["traced"]]
    slow = [reference.slowdown(r["reference_s"]) for r in reps]
    series = {
        "setup_s": [p["setup_s"] for p in m["setups"] + [worker] if "setup_s" in p],
        "norm_wall_s": [r["wall_s"] / s for r, s in zip(reps, slow)],
        "norm_trials_per_s": [r["trials"] / r["wall_s"] * s for r, s in zip(reps, slow)],
        "wall_s": [r["wall_s"] for r in reps],
        "trials_per_s": [r["trials"] / r["wall_s"] for r in reps],
        "slowdown": slow,
        "peak_rss_mb": [worker["peak_rss_mb"]] if "peak_rss_mb" in worker else [],
        "time_to_se_0.01_s": [t for t in map(time_to_se, reps) if t is not None],
    }
    return {name: spread(values) for name, values in series.items() if values}


def per_layer(m: dict) -> tuple[dict, dict]:
    """(metric medians over traced repetitions, layer self-time medians)."""
    traced = [r for r in m["worker"].get("reps", []) if r["traced"]]
    names = {name for r in traced for name in r["layer"]}
    metrics = {n: statistics.median([r["layer"][n] for r in traced if n in r["layer"]]) for n in names}
    layers: dict[str, list[float]] = {}
    for r in traced:
        for layer, value in r["layer_self_s"].items():
            layers.setdefault(layer, []).append(value)
    overhead = tracing_overhead(m["worker"].get("reps", []))
    if overhead is not None:
        metrics["trace.overhead_s"] = overhead
    return metrics, {layer: statistics.median(v) for layer, v in layers.items()}


def tracing_overhead(reps: list[dict]) -> float | None:
    """Median traced wall_s minus median untraced wall_s."""
    walls = {flag: [r["wall_s"] for r in reps if r["traced"] == flag] for flag in (True, False)}
    if not walls[True] or not walls[False]:
        return None
    return statistics.median(walls[True]) - statistics.median(walls[False])


def fill_from(metrics: dict, probed: dict, wanted: list[str], source: str, layer: dict) -> None:
    """Take per-layer metrics this workload's trace lacks from another workload's trace."""
    for name in wanted:
        if name not in metrics and name in layer:
            metrics[name] = layer[name]
            probed[name] = source


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def print_table(title: str, values: dict, units: dict, notes: dict | None = None) -> None:
    if title:
        print(title)
    for name, value in values.items():
        note = f"   ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:40s} {value:>16.6g} {units.get(name, '')}{note}")


def load_bench() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports dqipe from src/

    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} do not match perfbench/workloads.py")
    bench["configs"] = {name: workloads.WORKLOADS[name] for name in names}
    return bench


def main_run(args, bench) -> int:
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    config = bench["configs"][args.workload]
    deadline = time.monotonic() + args.seconds + SLACK_S
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    attempted, failed, failures = count_failures(m, len(config.runs))
    stats = end_to_end(m)
    e2e = {name: s["median"] for name, s in stats.items()}
    worker = m["worker"]
    reps = worker.get("reps", [])

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
              "runs": config.runs, "blas_threads_set": BLAS_THREADS, "cpu": CPU,
              "environment": worker.get("environment"), "end_to_end": stats,
              "failures": failures, "setups": m["setups"], "reps": reps}
    untraced = sum(1 for r in reps if not r["traced"])
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)} ({untraced} untraced)")
    notes = {name: f"median of {s['n']}, quartiles {s['q1']:.6g}..{s['q3']:.6g}" for name, s in stats.items()}
    print_table("end to end (tracing off):", e2e, dict(e2e_units, **UNGATED_UNITS), notes)
    print(f"  {'ops_failed_ratio':40s} {failed / max(attempted, 1):>16.6g}    ({failed} of {attempted} runs)")
    if "time_to_se_0.01_s" not in e2e:
        print(f"  {'time_to_se_0.01_s':40s} {'n/a':>16s}    (no run of this workload estimates f)")

    values, units = e2e, e2e_units
    if args.trace:
        layer, self_s = per_layer(m)
        probed: dict[str, str] = {}
        for other in bench["configs"]:
            missing = [n for n in layer_units if n not in layer]
            if not missing or other == args.workload:
                continue
            probe = measure(other, args.seed, 0.0, True, deadline, smoke=True, setup_samples=0, min_reps=1)
            n_att, n_fail, probe_failures = count_failures(probe, len(bench["configs"][other].runs))
            attempted, failed, failures = attempted + n_att, failed + n_fail, failures + probe_failures
            fill_from(layer, probed, missing, other, per_layer(probe)[0])
        report.update(per_layer=layer, layer_self_s=self_s, probed=probed)
        print_table("per layer (traced run):", {n: layer[n] for n in layer_units if n in layer}, layer_units,
                    {n: f"from a smoke-size traced run of {w}" for n, w in probed.items()})
        print_table("self time per layer (s per repetition):", self_s, {})
        values, units = layer, layer_units

    print("environment " + json.dumps(report["environment"]))
    for line in failures:
        print(f"FAILED {line}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report {path.relative_to(ROOT)}")
    correct = failed == 0 and all(name in values for name in units)
    print(result_line(correct, attempted, failed, values, units))
    return 0


def main_smoke(args, bench) -> int:
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    attempted = failed = 0
    all_values: dict[str, float] = {}
    all_units: dict[str, str] = {}
    results = {}
    for name in bench["configs"]:
        deadline = time.monotonic() + SLACK_S
        m = measure(name, args.seed, 0.0, True, deadline, smoke=True, setup_samples=1, min_reps=1)
        n_att, n_fail, failures = count_failures(m, len(bench["configs"][name].runs))
        attempted, failed = attempted + n_att, failed + n_fail
        for line in failures:
            print(f"FAILED {line}")
        results[name] = ({n: s["median"] for n, s in end_to_end(m).items()}, per_layer(m)[0])
    complete = True
    for name, (e2e, own_layer) in results.items():
        layer = dict(own_layer)
        probed: dict[str, str] = {}
        for other in bench["configs"]:
            fill_from(layer, probed, list(layer_units), other, results[other][1])
        print_table(f"{name} (smoke size):", e2e, dict(e2e_units, **UNGATED_UNITS))
        print_table("", {n: layer[n] for n in layer_units if n in layer}, layer_units,
                    {n: f"from {w}" for n, w in probed.items()})
        complete = complete and all(n in e2e for n in e2e_units) and all(n in layer for n in layer_units)
        for metric, unit in e2e_units.items():
            all_units[f"{name}/{metric}"] = unit
            if metric in e2e:
                all_values[f"{name}/{metric}"] = e2e[metric]
    check_known_defects()
    correct = failed == 0 and complete
    print(result_line(correct, attempted, failed, all_values, all_units))
    return 0 if correct else 1


def check_known_defects() -> None:
    """Say whether each cheap entry of the known-defect ledger still reproduces."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    for entry in json.loads((ROOT / "perfbench" / "known_defects.json").read_text()):
        if entry["command"] is None:
            print(f"known defect {entry['id']}: not re-run ({entry['note']})")
            continue
        proc = subprocess.run([sys.executable, "-m", "dqipe.cli", *entry["command"]], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SLACK_S)
        state = "still open" if proc.returncode == entry["exit_while_open"] else \
            f"exit {proc.returncode}, update perfbench/known_defects.json"
        print(f"known defect {entry['id']}: {state}")


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of dqipe; see perfbench/README.md.")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads at small size, traced and untraced")
    args = ap.parse_args()
    if not (ROOT / "src" / "dqipe" / "__init__.py").is_file():
        print(f"perfbench: no dqipe sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    bench = load_bench()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return main_smoke(args, bench) if args.smoke else main_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
