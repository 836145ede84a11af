"""Seeded streams and the distance / information helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from retrolab.audit import CHUNK_ROWS
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


# the first draws, either side of a sampling block, the golden multiblock
# run count (3 mod 4, so an outcome pass starts mid-way through a Philox
# block) and past 2^20
_POSITIONS = [*range(10), CHUNK_ROWS - 1, CHUNK_ROWS + 1, 200_003, 2**20 + 3]


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**64 - 1, 0), (0, 2**64 - 2)])
@pytest.mark.parametrize("position", _POSITIONS)
def test_a_placed_generator_continues_one_draw(seed, stream_id, position):
    stream = RandomStream(seed, stream_id)
    want = stream.generator().random(position + 9)[position:]
    assert stream.generator(position).random(9).tobytes() == want.tobytes()
    assert stream.generator(np.int64(position)).random(9).tobytes() == want.tobytes()
    # the placed bit generator's words are the generator's draws, times 2^53
    for placed in (position, np.int64(position)):
        words = stream.bits(placed).random_raw(9) >> np.uint64(11)
        assert (words * 2.0**-53).tobytes() == want.tobytes()


_MASK64 = 2**64 - 1


def _philox4x64_10(counter: int, key: int) -> list[int]:
    """Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
    2, 3", SC 2011) of a 256-bit counter under a 128-bit key, in Python
    integers: the four 64-bit output words, lowest counter word first."""
    x = [(counter >> 64 * i) & _MASK64 for i in range(4)]
    k0, k1 = key & _MASK64, key >> 64
    for r in range(10):
        if r:  # the Weyl key schedule
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
        p0, p1 = 0xD2E7470EE14C6C93 * x[0], 0xCA5A826395121157 * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ x[3] ^ k1, p0 & _MASK64]
    return x


def _philox_words(stream: RandomStream, position: int, count: int) -> list[int]:
    """Words ``position`` to ``position + count - 1`` of ``stream``: the key
    is ``seed << 64 | stream_id``, and the counter is incremented before each
    block of four words is made, so word w comes from counter w // 4 + 1."""
    key = stream.seed << 64 | stream.stream_id
    blocks = range(position // 4, (position + count + 3) // 4)
    words = [word for block in blocks for word in _philox4x64_10(block + 1, key)]
    return words[position % 4:][:count]


# the seeds and stream ids of the golden and benchmark runs, an audit's two
# sides among them, and the largest key words
_KEYS = [RandomStream(0), RandomStream(7), RandomStream(11), RandomStream(11).child(0),
         RandomStream(11).child(1), RandomStream(2**64 - 1, 2**64 - 1)]


@pytest.mark.parametrize("stream", _KEYS, ids=lambda s: f"{s.seed:x}-{s.stream_id:x}")
def test_stream_words_are_philox4x64_10(stream):
    # the only part numpy plays in the payload bytes: a pass k of an
    # ensemble of 10^6 runs starts at word k * 10^6, and 3 mod 4 starts
    # mid-way through a block
    for position in (0, 3, 10**6, 2 * 10**6, 3 * 10**6, 200_003):
        want = _philox_words(stream, position, 40)
        assert stream.bits(position).random_raw(40).tolist() == want


@pytest.mark.parametrize("position", [-1, -(2**70), 2.5, 2.0, "2", None, np.float64(1.0)])
def test_a_generator_position_is_an_integer_of_at_least_0(position):
    with pytest.raises(ValueError, match="position"):
        RandomStream(1).generator(position)
    with pytest.raises(ValueError, match="position"):
        RandomStream(1).bits(position)


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
