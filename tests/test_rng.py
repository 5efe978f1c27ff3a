import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@given(
    seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(min_value=0, max_value=2**200 - 1)),
    paths=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=5).map(tuple),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_seed_words_match_seed_sequence(seed, paths):
    # a port of numpy's SeedSequence mixing; if numpy changes its algorithm
    # this fails, and the prefetch table would stop giving numpy's bits
    for path, words in zip(paths, seed_words(seed, paths)):
        expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
        assert np.array_equal(words, expected)
    root = RngStream(seed)
    root.prefetch(paths)
    for path in paths:
        gen = root.child(*path).rng
        assert not isinstance(gen.bit_generator.seed_seq, np.random.SeedSequence)
        expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))
        assert np.array_equal(gen.random(4), expected.random(4))


def test_path_entries_past_32_bits_fall_back_to_seed_sequence():
    with pytest.raises(OverflowError):
        seed_words(2**64 + 5, [(7, 2**40)])
    root = RngStream(2**64 + 5)
    root.prefetch([(7, 2**40), (7, 1)])
    for path, prefetched in (((7, 2**40), False), ((7, 1), True)):
        gen = root.child(*path).rng
        assert isinstance(gen.bit_generator.seed_seq, np.random.SeedSequence) != prefetched
        expected = np.random.default_rng(np.random.SeedSequence(2**64 + 5, spawn_key=path))
        assert np.array_equal(gen.random(8), expected.random(8))


def test_prefetch_keeps_one_block_shared_by_all_descendants():
    root = RngStream(3)
    trial = root.child(0)  # derived before the block, it still sees it
    root.prefetch([(0, 1)])
    assert not isinstance(trial.child(1).rng.bit_generator.seed_seq, np.random.SeedSequence)
    root.prefetch([(1, 1)])
    # the earlier block is gone, so (0, 1) builds its own SeedSequence
    assert isinstance(root.child(0, 1).rng.bit_generator.seed_seq, np.random.SeedSequence)
    assert np.array_equal(
        root.child(0, 1).rng.random(4), RngStream(3, (0, 1)).rng.random(4)
    )
