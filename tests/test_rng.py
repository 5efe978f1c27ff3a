import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import rng as rng_module
from dqipe.rng import RngStream, seed_words


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_same_seed_same_draws(seed):
    a = RngStream(seed).rng.standard_normal(8)
    b = RngStream(seed).rng.standard_normal(8)
    assert np.array_equal(a, b)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    path=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_child_path_is_associative(seed, path):
    root = RngStream(seed)
    flat = root.child(*path)
    nested = root
    for p in path:
        nested = nested.child(p)
    assert flat.path == nested.path
    assert np.array_equal(flat.rng.standard_normal(4), nested.rng.standard_normal(4))


def test_sibling_streams_differ():
    root = RngStream(7)
    a = root.child(0).rng.standard_normal(16)
    b = root.child(1).rng.standard_normal(16)
    assert not np.allclose(a, b)


def test_child_does_not_disturb_parent():
    r1 = RngStream(3)
    r2 = RngStream(3)
    r1.child(5)  # forking must not advance the parent generator
    assert np.array_equal(r1.rng.standard_normal(4), r2.rng.standard_normal(4))


def test_draws_do_not_depend_on_what_else_was_drawn():
    # a stream's Generator is built on its first draw; nothing drawn from the
    # parent or a sibling before (or never) may shift it
    untouched = RngStream(11).child(2, 1).rng.standard_normal(6)
    root = RngStream(11)
    parent = root.child(2)
    sibling = parent.child(0)
    root.rng.standard_normal(3)
    sibling.rng.standard_normal(5)
    parent.rng.standard_normal(7)
    assert np.array_equal(parent.child(1).rng.standard_normal(6), untouched)


def test_stream_bits_match_default_rng():
    stream = RngStream(2**64 + 5, (7, 2**40))
    expected = np.random.default_rng(np.random.SeedSequence(2**64 + 5, spawn_key=(7, 2**40)))
    assert np.array_equal(stream.rng.random(8), expected.random(8))


def test_negative_seed_or_path_rejected_at_construction():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(3, (0, -2))
    with pytest.raises(ValueError):
        RngStream(3).child(-1)


_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1]


def _from_block(stream):
    return not isinstance(stream.rng.bit_generator.seed_seq, np.random.SeedSequence)


def _seed_sequence_draws(seed, path, n):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path)).random(n)


_WORD = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(min_value=0, max_value=2**200 - 1)),
    head=st.lists(_WORD, max_size=3).map(tuple),
    tails=st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(st.lists(_WORD, min_size=n, max_size=n).map(tuple), min_size=1, max_size=6)
    ),
)
@settings(max_examples=200, deadline=None)
def test_seed_words_match_seed_sequence(seed, head, tails):
    # numpy's pool for the head plus a port of its mixing for the tails; if
    # numpy changes its algorithm this fails, and trial blocks would stop
    # giving numpy's bits
    for tail, words in zip(tails, seed_words(seed, head, tails)):
        expected = np.random.SeedSequence(seed, spawn_key=head + tail).generate_state(4, np.uint64)
        assert np.array_equal(words, expected)
    # the head as a loop's base, each tail as the sub-path of its trials' streams
    root = RngStream(seed, head)
    for t in root.trials(3):
        for tail in tails:
            stream = root.child(t, *tail)
            assert _from_block(stream)
            assert np.array_equal(stream.rng.random(4), _seed_sequence_draws(seed, stream.path, 4))


def test_path_entries_past_32_bits_fall_back_to_seed_sequence():
    with pytest.raises(OverflowError):
        seed_words(2**64 + 5, (7, 2**40), [(1,)])
    with pytest.raises(OverflowError):
        seed_words(2**64 + 5, (7,), [(1,), (2**40,)])
    root = RngStream(2**64 + 5)
    for t in root.trials(8):
        for path, from_block in (((t, 2**40), False), ((t, 1), True)):
            stream = root.child(*path)
            assert _from_block(stream) == from_block
            assert np.array_equal(stream.rng.random(8), _seed_sequence_draws(2**64 + 5, path, 8))
    # a loop whose own path is past 32 bits
    wide = RngStream(2**64 + 5, (2**40,))
    for t in wide.trials(2):
        stream = wide.child(t, 1)
        assert not _from_block(stream)
        assert np.array_equal(stream.rng.random(8), _seed_sequence_draws(2**64 + 5, (2**40, t, 1), 8))


def test_trials_block_is_shared_by_all_descendants(monkeypatch):
    monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 2)
    root = RngStream(3)
    trial = root.child(0)  # derived before the block, it still sees it
    loop = root.trials(4)
    assert next(loop) == 0
    assert _from_block(trial.child(1))
    assert [next(loop), next(loop)] == [1, 2]
    # the block of trials 0 and 1 is gone, so (0, 1) builds its own
    # SeedSequence; trial 3 is in the current block before the loop gets there
    stale = root.child(0, 1)
    assert not _from_block(stale) and _from_block(root.child(3, 1))
    assert np.array_equal(stale.rng.random(4), RngStream(3, (0, 1)).rng.random(4))
    # the loop's own stream, and other trees, never read the block
    assert not _from_block(root) and not _from_block(RngStream(3).child(2, 1))
    assert list(loop) == [3]


def _loop_draws(stream, t):
    return [stream.child(t, *sub).rng.random(3) for sub in ((0,), (1, 5), (1, 6, 2))]


def test_interleaved_trial_loops_draw_as_one_loop_at_a_time(monkeypatch):
    # each loop's block replaces the other's, so some streams build their
    # SeedSequence; the bits are the same either way
    monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 3)
    alone = []
    for case in (1, 2):
        stream = RngStream(9).child(case)
        alone.append([_loop_draws(stream, t) for t in stream.trials(8)])
    root = RngStream(9)
    first, second = root.child(1), root.child(2)
    together = ([], [])
    for s, t in zip(first.trials(8), second.trials(8)):
        together[0].append(_loop_draws(first, s))
        together[1].append(_loop_draws(second, t))
    for case in (1, 2):
        for t in range(8):
            assert np.array_equal(alone[case - 1][t][0], _seed_sequence_draws(9, (case, t, 0), 3))
            for a, b in zip(alone[case - 1][t], together[case - 1][t]):
                assert np.array_equal(a, b)


def test_partial_last_block_matches_seed_sequence(monkeypatch):
    # 20 trials in blocks of 7: the last block holds 6
    monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 7)
    root = RngStream(2**64 + 1, (4,))
    seen = []
    for t in root.trials(20):
        stream = root.child(t, 1, 2)
        assert _from_block(stream)
        assert np.array_equal(stream.rng.random(3), _seed_sequence_draws(2**64 + 1, (4, t, 1, 2), 3))
        seen.append(t)
    assert seen == list(range(20))
