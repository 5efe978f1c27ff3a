#!/usr/bin/env python3
"""Calibrate the copy-count constant for the threshold decider.

Sweeps c over a grid, runs the decider with k = c * ceil(sqrt(d)) at
several dimensions, and keeps the smallest c whose worst-case Wilson-95
lower bound stays at or above the target success rate. Then, at that c,
walks d down from the smallest calibrated dimension and keeps the
smallest d from which every dimension passes: below it two independent
Haar states overlap by more than 1/2 too often (probability 2^(1-d)) for
any k to decide the promise. --write stores both in
src/dqipe/defaults.json and bumps its "version".

    PYTHONPATH=src python3 scripts/calibrate_dipe.py --write
"""

import argparse
import json
import math
import pathlib

from dqipe.experiments import dipe_threshold_hits, wilson_interval
from dqipe.rng import RngStream

DEFAULTS_PATH = pathlib.Path(__file__).resolve().parents[1] / "src" / "dqipe" / "defaults.json"


def hit_counts(d: int, c: int, trials: int, seed: int) -> dict[int, int]:
    """Correct decisions per case at k = c * ceil(sqrt(d)), drawn exactly as
    `dqipe dipe-threshold --d d --k k --trials trials --seed seed` draws them."""
    k = c * math.ceil(math.sqrt(d))
    root = RngStream(seed)
    return {case: dipe_threshold_hits(d, k, case, trials, root) for case in (1, 2)}


def success_lower_bound(d: int, c: int, trials: int, seed: int) -> float:
    return min(
        wilson_interval(hits, trials)[0]
        for hits in hit_counts(d, c, trials, seed).values()
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", type=int, nargs="+", default=[8, 16, 64, 256])
    ap.add_argument("--cs", type=int, nargs="+", default=[2, 4, 6, 8, 10, 12])
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--target", type=float, default=0.9)
    ap.add_argument("--seed", type=int, default=20240501)
    ap.add_argument("--write", action="store_true", help="update defaults.json")
    args = ap.parse_args()

    chosen = None
    for c in sorted(args.cs):
        worst = min(
            success_lower_bound(d, c, args.trials, args.seed + d) for d in args.dims
        )
        print(f"c={c:3d}  worst Wilson-95 lower bound {worst:.3f}")
        if worst >= args.target and chosen is None:
            chosen = c
    if chosen is None:
        raise SystemExit("no c in the grid reaches the target; widen the grid")
    print(f"smallest passing c: {chosen}")

    min_d = min(args.dims)
    while min_d > 2:
        worst = success_lower_bound(min_d - 1, chosen, args.trials, args.seed + min_d - 1)
        print(f"d={min_d - 1:3d}  Wilson-95 lower bound {worst:.3f} at c={chosen}")
        if worst < args.target:
            break
        min_d -= 1
    print(f"smallest passing d: {min_d}")

    if args.write:
        defaults = json.loads(DEFAULTS_PATH.read_text())
        defaults["dipe_threshold_c"] = chosen
        defaults["dipe_threshold_min_d"] = min_d
        defaults["version"] = defaults.get("version", 0) + 1
        DEFAULTS_PATH.write_text(json.dumps(defaults, indent=2) + "\n")
        print(f"wrote {DEFAULTS_PATH}")


if __name__ == "__main__":
    main()
