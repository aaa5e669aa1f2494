"""Counter-based random stream behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidsn.rng import RngStream


def test_same_seed_same_stream_reproduces():
    a = RngStream(7, 3).normal(0.0, 1.0, (4, 5))
    b = RngStream(7, 3).normal(0.0, 1.0, (4, 5))
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngStream(7, 0).normal(0.0, 1.0, 100)
    b = RngStream(7, 1).normal(0.0, 1.0, 100)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(0, 0).uniform(0.0, 1.0, 100)
    b = RngStream(1, 0).uniform(0.0, 1.0, 100)
    assert not np.array_equal(a, b)


def test_seeds_above_2_63_keep_their_own_stream():
    # a key list of Python ints went through float64 above 2**63: neighbours
    # collided, and seeds within 1024 of 2**64 fell back to seed 0's key
    def draw(seed):
        return RngStream(seed, 0).uniform(0.0, 1.0, 8)

    assert not np.array_equal(draw(2**64 - 1), draw(0))
    assert not np.array_equal(draw(2**63), draw(2**63 + 1))


@pytest.mark.parametrize("seed, stream", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_seed_or_stream_outside_u64_raises_value_error(seed, stream):
    # 2**64 used to reach numpy's raw OverflowError from the uint64 key
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        RngStream(seed, stream)


def test_known_values_stable_across_platforms():
    # Philox is counter-based; these values must never change
    got = RngStream(0, 0).uniform(0.0, 1.0, 3)
    again = RngStream(0, 0).uniform(0.0, 1.0, 3)
    assert np.array_equal(got, again)
    assert got.dtype == np.float64
    assert np.all((got >= 0.0) & (got < 1.0))


def test_draw_order_matters():
    s = RngStream(3, 0)
    first = s.normal(0.0, 1.0, 10)
    second = s.normal(0.0, 1.0, 10)
    assert not np.array_equal(first, second)


def test_bernoulli_values_and_rate():
    mask = RngStream(5, 2).bernoulli(0.75, (10000,))
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert abs(mask.mean() - 0.75) < 0.02


@given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_permutation_is_valid(n, seed):
    perm = RngStream(seed, 1).permutation(n)
    assert sorted(perm.tolist()) == list(range(n))


@given(lo=st.floats(-5, 5), width=st.floats(0.1, 10), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_uniform_respects_bounds(lo, width, seed):
    draws = RngStream(seed, 0).uniform(lo, lo + width, 50)
    assert np.all(draws >= lo) and np.all(draws < lo + width)


def test_integers_range():
    draws = RngStream(2, 0).integers(3, 9, 1000)
    assert draws.min() >= 3 and draws.max() < 9
