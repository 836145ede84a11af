"""Seeded streams and the distance / information helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from retrolab.stats import RandomStream, mutual_information_bits, tv_distance


def test_stream_is_reproducible():
    a = RandomStream(7).generator().random(5)
    b = RandomStream(7).generator().random(5)
    assert (a == b).all()


def test_streams_are_separated():
    a = RandomStream(7, 0).generator().random(5)
    b = RandomStream(7, 1).generator().random(5)
    assert not (a == b).all()


def test_child_streams_independent_of_call_order():
    s = RandomStream(3)
    first = s.child(2).generator().random(4)
    s.child(0)  # interleaved derivation must not disturb anything
    s.generator().random(100)
    again = RandomStream(3).child(2).generator().random(4)
    assert (first == again).all()


def test_child_streams_differ_by_index():
    s = RandomStream(3)
    assert not (s.child(0).generator().random(4) == s.child(1).generator().random(4)).all()


@pytest.mark.parametrize("seed, stream_id", [
    (-1, 0), (2**64, 0), (-(2**64), 0), (0, -1), (0, 2**64),
])
def test_stream_key_words_must_fit_64_bits(seed, stream_id):
    # reduced mod 2**64 they would alias RandomStream(0) or RandomStream(2**64 - 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomStream(seed, stream_id)


@pytest.mark.parametrize("key", [(1.5,), (0, 1.5), ("1",)])
def test_stream_key_words_must_be_integers(key):
    with pytest.raises(ValueError, match="must be integers"):
        RandomStream(*key)


def test_stream_replace_runs_the_checks():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomStream(1)._replace(seed=-1)
    with pytest.raises(ValueError, match="must be integers"):
        RandomStream(1)._replace(stream_id=1.5)
    assert RandomStream(1)._replace(stream_id=5) == RandomStream(1, 5)


def test_largest_stream_key_is_accepted():
    top = 2**64 - 1
    a = RandomStream(top, top).generator().random(3)
    assert (a == RandomStream(top, top).generator().random(3)).all()
    assert not (a == RandomStream(top, top - 1).generator().random(3)).all()


def test_tv_distance_pins():
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({0: 0.75, 1: 0.25}, {0: 0.25, 1: 0.75}) == pytest.approx(0.5, abs=1e-12)


def test_tv_distance_vectors():
    # distributions are mappings; a vector names no outcomes and is refused
    with pytest.raises(ValueError, match="map outcomes"):
        tv_distance([0.5, 0.5], [0.25, 0.75])
    with pytest.raises(ValueError, match="map outcomes"):
        tv_distance({0: 0.5, 1: 0.5}, [0.5, 0.5])
    with pytest.raises(ValueError):
        tv_distance({"a": 0.4}, {"a": 1.0})  # not normalized


@pytest.mark.parametrize("p, q", [
    ({"a": math.nan}, {"a": 1.0}),
    ({"a": 1.0}, {"a": math.nan}),
    ({"a": math.inf, "b": -math.inf}, {"a": 1.0}),
    ({"a": 2.0, "b": -1.0}, {"a": 1.0}),
    ({"a": 1.0}, {"a": 1.5, "b": -0.5}),
])
def test_tv_distance_rejects_nan_negative_and_infinite_entries(p, q):
    with pytest.raises(ValueError, match="negative or non-finite"):
        tv_distance(p, q)


@pytest.mark.parametrize("joint", [
    {(0, 0): math.nan},
    {(0, 0): 0.5, (1, 1): math.nan},
    {(0, 0): math.inf},
])
def test_mutual_information_rejects_a_non_finite_total(joint):
    with pytest.raises(ValueError, match="sums to"):
        mutual_information_bits(joint)


@given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6))
def test_tv_distance_bounds(weights):
    total = sum(weights)
    p = {i: w / total for i, w in enumerate(weights)}
    q = {i: 1.0 / len(weights) for i in range(len(weights))}
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0
    assert tv_distance(p, p) == 0.0
    assert d == pytest.approx(tv_distance(q, p), abs=1e-12)


def test_mutual_information_exact_zero_for_product():
    # dyadic marginals so the re-summed marginals are bit-exact
    px = {0: 0.5, 1: 0.5}
    py = {0: 0.25, 1: 0.75}
    joint = {(x, y): px[x] * py[y] for x in px for y in py}
    assert mutual_information_bits(joint) == 0.0


def test_mutual_information_perfect_correlation():
    joint = {(0, 0): 0.5, (1, 1): 0.5}
    assert mutual_information_bits(joint) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_partial():
    joint = {(0, 0): 0.5, (1, 1): 0.25, (1, 0): 0.25}
    # frozen from a direct plogp evaluation
    assert mutual_information_bits(joint) == pytest.approx(0.31127812445913283, abs=1e-12)
