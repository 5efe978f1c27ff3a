"""Command-line entry point.

    dqipe <experiment> [--d ...] [--k ...] [--seed ...] [--out path] ...

Exit codes: 0 when the experiment's pass criterion holds, 1 when it
fails, 2 on usage errors and on errors while running (a bad parameter, a
dense-algebra budget exceeded, a transport that cannot connect, memory run
out), reported as one "dqipe: ..." line on stderr. DQIPE_SEED provides a
default seed; a JSON config file given with --config supplies defaults
that explicit flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_result,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqipe",
        description="distributed inner-product estimation experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--d", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--n-bases", type=int, dest="n_bases")
    parser.add_argument("--eps", type=float)
    parser.add_argument("--f", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--transport", help="inproc or tcp:<host>:<port>")
    parser.add_argument("--out", help="result file path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], dest="fmt")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            values.update(json.load(fh))
    for field in dataclasses.fields(ExperimentConfig):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    if "seed" not in values:
        env = os.environ.get("DQIPE_SEED")
        if env is not None:
            values["seed"] = int(env)
    return ExperimentConfig.from_dict(values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"dqipe: {exc}", file=sys.stderr)
        return 2
    try:
        # ValueError covers DenseBudgetError and WireError; OSError a refused
        # connection or an unwritable --out; MemoryError a run too large for RAM
        result = run_experiment(config)
        text = emit_result(result)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError says what it could not allocate; a bare one is empty
        print(f"dqipe: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print(
        f"{config.experiment}: {'PASS' if result.passed else 'FAIL'}"
        f" ({result.wall_clock:.2f}s)",
        file=sys.stderr,
    )
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
