"""Path-splittable random number streams.

Every stochastic routine in this package takes an explicit RngStream. A
stream is identified by a 64-bit seed plus an integer path (trial index,
party index, round index, ...). Identical (seed, path) pairs reproduce
bit-identical draw sequences; distinct paths give statistically
independent streams, so parallel trials and parties never share state.

A stream builds its Generator on the first draw: deriving a child only to
fork it further, or handing one to a party that never draws, costs no
SeedSequence hashing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]


class RngStream:
    """A seeded, forkable random stream backed by numpy's SeedSequence."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(map(int, path))
        # SeedSequence would reject these only on the first draw; fail here
        if self.seed < 0 or min(self.path, default=0) < 0:
            raise ValueError(
                f"seed and path must be non-negative, got {self.seed} and {self.path}"
            )
        self._gen = None

    def child(self, *path: int) -> "RngStream":
        """Derive an independent stream at a sub-path."""
        return RngStream(self.seed, self.path + path)

    @property
    def rng(self) -> np.random.Generator:
        gen = self._gen
        if gen is None:
            # the same bits as default_rng(SeedSequence(seed, spawn_key=path))
            gen = self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
            )
        return gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
