import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe.rng import RngStream


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
