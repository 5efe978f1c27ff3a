"""One workload in one fresh process, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--setup-only] [--smoke] [--trace] [--until T] [--min-reps N] [--spans FILE] [--cpu N]

Imports dqipe from the checkout's src/ and runs the workload's warm-up: that
is set-up, timed from `--spawned-at`, the parent's time.monotonic() just
before it started this process. With --setup-only it stops there. Otherwise
it repeats the workload's fixed work until time.monotonic() passes --until
(at least --min-reps times), times the workload's reference kernels just
before and after each repetition, checks the outputs, and prints one JSON object
on stdout. Repetition r uses dqipe seed 1000 * seed + r. Each repetition
starts with dqipe's memo caches empty, as a new CLI process would. With
--trace, odd repetitions run traced.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np

    from dqipe.experiments import load_defaults

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "defaults_version": load_defaults().get("version"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dqipe").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def clear_dqipe_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "dqipe" or name.startswith("dqipe."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_once(wl, runs, seed: int, transport: str | None) -> tuple[float, list]:
    """The timed work of one repetition: each run through `dqipe.cli.main`."""
    outputs = []
    start = time.perf_counter()
    for experiment, flags in runs:
        run_start = time.perf_counter()
        try:
            code, text = wl.call_cli(wl.argv(experiment, flags, seed, transport))
        except Exception:  # a run that raises is a failed run; keep measuring the rest
            code, text = None, traceback.format_exc()
        outputs.append((experiment, flags, code, text, time.perf_counter() - run_start))
    return time.perf_counter() - start, outputs


def check_outputs(wl, outputs, seed: int, collector) -> tuple[int, list]:
    """Parse and check each run of one repetition, outside the timed phase."""
    from dqipe.experiments import parse_result

    trials = 0
    report = []
    for experiment, flags, code, text, wall_s in outputs:
        failures = []
        summary = None
        run_trials = 0
        if code is None:
            failures.append(f"{experiment} seed {seed} raised: {text.strip().splitlines()[-1]}")
        else:
            result = parse_result(text)
            summary = result.summary
            run_trials = wl.trials_of(result)
            if code != 0 or not result.passed:
                failures.append(f"{experiment} seed {seed}: gate FAIL (exit {code})")
            if result.rows:
                failures += wl.check_direct(result)
            if collector is not None:
                failures += wl.check_tcp_frames(experiment, flags, seed, collector.address)
        trials += run_trials
        report.append({"experiment": experiment, "wall_s": wall_s, "trials": run_trials,
                       "failures": failures, "summary": summary})
    return trials, report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--until", type=float, default=0.0, help="time.monotonic() to stop repeating at")
    ap.add_argument("--min-reps", type=int, default=3)
    ap.add_argument("--spans", help="write the first traced repetition's spans here (JSON lines)")
    ap.add_argument("--cpu", type=int, help="run this process and its threads on this CPU only")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dqipe.cli  # noqa: F401  (timed: cli.import_s)
    import_s = time.perf_counter() - start
    import dqipe

    if pathlib.Path(dqipe.__file__).resolve().parent != SRC / "dqipe":
        print(f"imported dqipe from {dqipe.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import reference  # this script's directory is on sys.path
    import tracer as tracing
    import workloads as wl
    from dqipe.wire import FrameCollectorServer

    workload = wl.WORKLOADS[args.workload]
    runs = wl.sized_runs(workload, args.smoke)
    collector = FrameCollectorServer().start() if workload.tcp else None
    transport = f"tcp:{collector.address}" if collector is not None else None
    try:
        for experiment, flags in workload.warmup:
            wl.call_cli(wl.argv(experiment, flags, args.seed, transport))
        setup_s = time.monotonic() - args.spawned_at
        out = {"workload": workload.name, "setup_s": setup_s, "import_s": import_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        kernels = reference.Reference(workload.reference)
        reps = []
        while len(reps) < args.min_reps or time.monotonic() < args.until:
            seed = 1000 * args.seed + len(reps)
            traced = args.trace and len(reps) % 2 == 1
            if collector is not None:
                collector.frames.clear()  # the collector logs every frame; keep memory per repetition
            clear_dqipe_caches()
            before = kernels.sample()
            tracer = tracing.Tracer().install() if traced else None
            try:
                wall_s, outputs = run_once(wl, runs, seed, transport)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            reference_s = {name: times + kernels.sample()[name] for name, times in before.items()}
            trials, report = check_outputs(wl, outputs, seed, collector)
            rep = {"seed": seed, "traced": traced, "wall_s": wall_s, "trials": trials, "runs": report,
                   "reference_s": reference_s}
            if tracer is not None:
                rep["layer"] = dict(tracing.layer_metrics(tracer, max(trials, 1)), **{"cli.import_s": import_s})
                rep["layer_self_s"] = tracing.layer_self_s(tracer.spans)
                if args.spans and not any(r["traced"] for r in reps):
                    rep["spans"] = tracing.span_summary(tracer.spans)
                    tracer.write_spans(args.spans)
            reps.append(rep)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # two runs at one seed are content_equal (smoke size, once per process)
        determinism = []
        for experiment, flags in wl.sized_runs(workload, smoke=True):
            determinism += wl.check_deterministic(experiment, flags, args.seed, transport)
    finally:
        if collector is not None:
            collector.stop()

    out.update(reps=reps, determinism_failures=determinism, environment=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
