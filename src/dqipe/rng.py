"""Path-splittable random number streams.

Every stochastic routine in this package takes an explicit RngStream. A
stream is identified by a 64-bit seed plus an integer path (trial index,
party index, round index, ...). Identical (seed, path) pairs reproduce
bit-identical draw sequences; distinct paths give statistically
independent streams, so parallel trials and parties never share state.

A stream builds its Generator on the first draw: deriving a child only to
fork it further, or handing one to a party that never draws, costs no
SeedSequence hashing.

Building a Generator from a SeedSequence costs about 12 us, against about
2 us from seed words already derived, so trial loops iterate
`stream.trials(n)`, which hands out trials in blocks of TRIAL_BLOCK and
shares the current block with every stream of the tree. The first stream
of the block to draw at base + (t,) + sub derives the PCG64 seed words of
that sub for every trial of the block in one numpy pass (`seed_words`): it
takes numpy's own SeedSequence(seed, spawn_key=base) pool and ports only
the mixing of each trial's (t,) + sub into it. Those words are the bits
SeedSequence(seed, spawn_key=path) would give; any other stream, and any
path with an entry of 2**32 or more, builds SeedSequence itself. So the
block can only make a stream cheaper to build, never different.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["RngStream", "TRIAL_BLOCK", "seed_words"]

# Trials per block of RngStream.trials: it amortises seed_words' fixed cost
# of about 40 us per call. The result does not depend on it.
TRIAL_BLOCK = 768

# numpy.random.SeedSequence's constants (O'Neill's seed_seq_fe, 4-word pool)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i in 0..count: the hash constant before
    each of count hashes, and after the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix as m consecutive calls, one per element along
    value's last axis: call j xors with consts[j] and multiplies by
    consts[j + 1], the chain's constant before and after it."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(seed: int, head: tuple[int, ...], tails: list[tuple[int, ...]]) -> np.ndarray:
    """Row i: SeedSequence(seed, spawn_key=head + tails[i]).generate_state(4, np.uint64).

    SeedSequence hashes its entropy words (the seed's, then the spawn key's)
    into a 4-word pool, then reads the state off the pool. Every row shares
    the seed and head, so it starts from SeedSequence(seed, spawn_key=head)'s
    pool and mixes in only the tail words, each step one uint32 array
    operation over all rows. The tails are one or more of a single length;
    every head and tail entry must be below 2**32 (one entropy word each),
    OverflowError otherwise."""
    np.array(head, dtype=np.uint32)  # OverflowError past 32 bits
    tail = np.array(tails, dtype=np.uint32).reshape(len(tails), -1)
    pool = np.broadcast_to(np.random.SeedSequence(seed, spawn_key=head).pool, (len(tails), _POOL_SIZE))
    # the head's pool took 4 hashes to fill, 12 to mix, and 4 per entropy
    # word past the pool: the seed's beyond its fourth, then the head's
    words = max(1, -(-seed.bit_length() // 32))
    at = _POOL_SIZE**2 + _POOL_SIZE * (max(words - _POOL_SIZE, 0) + len(head))
    hashes = _consts(_INIT_A, _MULT_A, at + _POOL_SIZE * tail.shape[1])[at:]
    # each tail word is mixed into every pool word
    for j in range(tail.shape[1]):
        pool = _mix(pool, _hash(tail[:, j : j + 1], hashes[_POOL_SIZE * j : _POOL_SIZE * (j + 1) + 1]))
    # generate_state(4, uint64): 8 words cycled from the pool, read as
    # little-endian pairs
    state = _hash(np.tile(pool, 2), _consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """Hands PCG64 the seed words that seed_words computed for its path.

    PCG64 takes it only as a numpy ISeedSequence; RngStream.trials registers
    it as one, so that importing this module still does not import
    numpy.random."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this; anything else would need the pool
        if n_words != _POOL_SIZE or dtype is not np.uint64:
            raise ValueError("a block's seed words serve PCG64 only: 4 uint64 words")
        return self.words


# The block of a tree that no trials loop has run on: (base path, first
# trial, end, rows). Its range of trials is empty.
_NO_BLOCK = ((), 0, 0, {})


class RngStream:
    """A seeded, forkable random stream backed by numpy's SeedSequence."""

    __slots__ = ("seed", "path", "_gen", "_block", "__weakref__")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(map(int, path))
        # SeedSequence would reject these only on the first draw; fail here
        if self.seed < 0 or min(self.path, default=0) < 0:
            raise ValueError(
                f"seed and path must be non-negative, got {self.seed} and {self.path}"
            )
        self._gen = None
        # [the current block]; child() hands this list on, so a root and all
        # its descendants share one
        self._block = [_NO_BLOCK]

    def child(self, *path: int) -> "RngStream":
        """Derive an independent stream at a sub-path."""
        stream = RngStream(self.seed, self.path + path)
        stream._block = self._block
        return stream

    def trials(self, n: int) -> Iterator[int]:
        """Trial indices 0..n-1 for a loop whose trial t draws from
        child(t, ...) streams.

        Trials come in blocks of TRIAL_BLOCK. At its first trial a block
        becomes the tree's, in place of any other; then the first stream at
        child(t, *sub) to draw derives the seed words of child(u, *sub) for
        every trial u of the block."""
        np.random.bit_generator.ISeedSequence.register(_SeedWords)
        for lo in range(0, n, TRIAL_BLOCK):
            hi = min(lo + TRIAL_BLOCK, n)
            self._block[0] = (self.path, lo, hi, {})
            yield from range(lo, hi)

    @property
    def rng(self) -> np.random.Generator:
        gen = self._gen
        if gen is None:
            # the same bits as default_rng(SeedSequence(seed, spawn_key=path)),
            # from the block's rows when the path is base + (t,) + sub for a
            # trial t of the tree's block
            path = self.path
            base, lo, hi, rows = self._block[0]
            n = len(base)
            if len(path) > n and lo <= path[n] < hi and path[:n] == base and max(path) <= _MASK32:
                sub = path[n + 1 :]
                if sub not in rows:
                    rows[sub] = seed_words(self.seed, base, [(t,) + sub for t in range(lo, hi)])
                seq = _SeedWords(rows[sub][path[n] - lo])
            else:
                seq = np.random.SeedSequence(self.seed, spawn_key=path)
            gen = self._gen = np.random.Generator(np.random.PCG64(seq))
        return gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
