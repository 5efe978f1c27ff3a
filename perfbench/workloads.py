"""The benchmark's workloads, their pinned configs, and the output checks.

Each workload is a list of CLI invocations of dqipe (`dqipe.cli.main`), run
back to back in one process: a closed loop, each trial waits for the one
before it. The benchmark's seed only picks `--seed`; the configs are fixed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import dqipe.cli
import dqipe.wire
from dqipe.estimators import make_state_pair, multicopy_estimate, singlecopy_estimate
from dqipe.experiments import parse_result
from dqipe.rng import RngStream


@dataclass(frozen=True)
class Workload:
    """A workload's pinned configs; its reason is recorded in BENCHMARK.json."""

    name: str
    # (experiment, flags) at full size; smoke mode overrides some --trials
    runs: tuple[tuple[str, dict], ...]
    smoke_trials: dict
    # tiny invocations run once before the timed phase (part of setup_s)
    warmup: tuple[tuple[str, dict], ...]
    # kernels of perfbench/reference.py that do work like this workload's:
    # both, except on dense-sym, whose time is almost all BLAS and memory
    reference: tuple[str, ...]
    tcp: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smp-multicopy",
            runs=(("estimate-multicopy", {"d": 8, "k": 16, "f": 0.5, "trials": 2000}),),
            smoke_trials={"estimate-multicopy": 40},
            warmup=(("estimate-multicopy", {"d": 2, "k": 1, "f": 0.5, "trials": 2}),),
            reference=("python", "numpy"),
        ),
        Workload(
            name="smp-singlecopy-tcp",
            runs=(("estimate-singlecopy", {"d": 32, "m": 256, "n-bases": 1, "f": 0.5, "trials": 500}),),
            smoke_trials={"estimate-singlecopy": 20},
            warmup=(("estimate-singlecopy", {"d": 2, "m": 2, "n-bases": 1, "f": 0.5, "trials": 2}),),
            reference=("python", "numpy"),
            tcp=True,
        ),
        Workload(
            name="batch-variance",
            runs=(
                ("variance-check-multicopy", {"d": 8, "k": 16, "f": 0.5, "trials": 100_000}),
                ("variance-check-singlecopy", {"d": 8, "m": 32, "f": 0.5, "trials": 30_000}),
            ),
            # the variance gates' fixed ratio band needs large samples, so smoke keeps full size
            smoke_trials={},
            warmup=(
                ("variance-check-multicopy", {"d": 2, "k": 1, "f": 0.5, "trials": 10}),
                ("variance-check-singlecopy", {"d": 2, "m": 2, "f": 0.5, "trials": 10}),
            ),
            reference=("python", "numpy"),
        ),
        Workload(
            name="dense-sym",
            runs=(
                ("mp-bound-check", {"d": 4, "k": 3, "trials": 6}),
                ("tracedist-check", {"d": 10, "k": 3}),
            ),
            smoke_trials={"mp-bound-check": 2},
            warmup=(
                ("mp-bound-check", {"d": 2, "k": 1, "trials": 1}),
                ("tracedist-check", {"d": 2, "k": 1}),
            ),
            reference=("numpy",),
        ),
    )
}


def argv(experiment: str, flags: dict, seed: int, transport: str | None = None) -> list[str]:
    out = [experiment]
    for key, value in flags.items():
        out += [f"--{key}", str(value)]
    out += ["--seed", str(seed)]
    if transport is not None:
        out += ["--transport", transport]
    return out


def sized_runs(workload: Workload, smoke: bool) -> list[tuple[str, dict]]:
    runs = []
    for experiment, flags in workload.runs:
        if smoke and experiment in workload.smoke_trials:
            flags = dict(flags, trials=workload.smoke_trials[experiment])
        runs.append((experiment, flags))
    return runs


def call_cli(args: list[str]) -> tuple[int, str]:
    """Run `dqipe <args>` in this process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dqipe.cli.main(args)
    return code, out.getvalue()


def trials_of(result) -> int:
    """Trials one run completed; a tracedist-check run counts as one."""
    if result.rows:
        return len(result.rows)
    if result.config.experiment == "tracedist-check":
        return 1
    return result.config.trials


# --- output checks, run outside the timed phase ---


def check_direct(result) -> list[str]:
    """Protocol rows equal the direct estimator at the same (seed, path), bit for bit.

    A row's seed_path is the trial's run stream (trial t, child 1); the state
    pair comes from child 0 of the same trial stream."""
    cfg = result.config
    rows = result.rows
    failures = []
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        row = rows[i]
        path = tuple(int(p) for p in row["seed_path"].split("/"))
        phi, psi = make_state_pair(cfg.d, cfg.f, RngStream(cfg.seed, path[:-1] + (0,)))
        run = RngStream(cfg.seed, path)
        if cfg.experiment == "estimate-multicopy":
            direct = multicopy_estimate(phi, psi, cfg.k, run).value
        else:
            direct = singlecopy_estimate(phi, psi, cfg.n_bases, cfg.m, run).value
        if direct != row["w"]:
            failures.append(f"{cfg.experiment} trial {row['trial']}: protocol w {row['w']!r} != direct {direct!r}")
    return failures


@contextlib.contextmanager
def recorded_frames():
    """Record every (sent line, returned line) of both transports."""
    lines: list[tuple[str, str]] = []
    originals = {cls: cls.exchange for cls in (dqipe.wire.InprocTransport, dqipe.wire.TcpTransport)}

    def recording(exchange):
        def wrapped(self, line):
            back = exchange(self, line)
            lines.append((line, back))
            return back
        return wrapped

    for cls, exchange in originals.items():
        cls.exchange = recording(exchange)
    try:
        yield lines
    finally:
        for cls, exchange in originals.items():
            cls.exchange = exchange


def check_tcp_frames(experiment: str, flags: dict, seed: int, tcp_addr: str, trials: int = 2) -> list[str]:
    """The TCP frames of a short run equal the in-process frames, byte for byte."""
    flags = dict(flags, trials=trials)
    recorded = {}
    for transport in (f"tcp:{tcp_addr}", "inproc"):
        with recorded_frames() as lines:
            call_cli(argv(experiment, flags, seed, transport))
        recorded[transport] = lines
    tcp, inproc = recorded[f"tcp:{tcp_addr}"], recorded["inproc"]
    if not tcp or tcp != inproc:
        return [f"{experiment}: {len(tcp)} TCP frames differ from {len(inproc)} in-process frames"]
    return []


def check_deterministic(experiment: str, flags: dict, seed: int, transport: str | None) -> list[str]:
    """Two runs at one seed give content_equal results."""
    first, second = (parse_result(call_cli(argv(experiment, flags, seed, transport))[1]) for _ in range(2))
    if not first.content_equal(second):
        return [f"{experiment}: two runs at seed {seed} differ"]
    return []
