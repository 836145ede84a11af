"""Deterministic random streams and the distribution statistics (total
variation, mutual information) that every audit in this package leans on.

Streams are counter-based (Philox) and keyed by (seed, stream_id), so any
sub-experiment can be replayed bit-identically on its own, in any order, on
any platform.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, Hashable, NamedTuple

from .core import UsageError, checked_make

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1

# how far an input distribution may drift from sum == 1 before it is rejected
_NORM_TOL = 1e-6


def _mix64(a: int, b: int) -> int:
    # splitmix64-style avalanche of two 64-bit words; used to derive child
    # stream ids so nested splits stay reproducible and order-independent
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class RandomStream(NamedTuple("RandomStream", [("seed", int), ("stream_id", int)])):
    """Value-typed handle on one reproducible random stream.

    Equal (seed, stream_id) regenerate exactly the same draws.  Children
    derived with :meth:`child` are statistically independent of the parent
    and of each other, and do not depend on consumption order.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, seed: int, stream_id: int = 0):
        if not isinstance(seed, int) or not isinstance(stream_id, int):
            raise UsageError("seed and stream_id must be integers")
        # both are 64-bit words of the Philox key; reducing a value outside
        # the range would give two seeds one stream
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not 0 <= value <= _MASK64:
                raise UsageError(f"{name} must lie in [0, 2**64), got {value}")
        return super().__new__(cls, seed, stream_id)

    def bits(self, position: int = 0) -> np.random.Philox:
        """Fresh Philox bit generator at word ``position`` of this stream,
        placed in O(1): the counter skips ``position // 4`` blocks of four
        64-bit words and the rest are drawn and dropped.  ValueError unless
        ``position`` is an integer of at least 0.  ``Philox`` comes from its
        own module, so the bare ``numpy.random`` of ``retrolab.__main__.run``
        serves as the full package does, and loads only ``_philox``,
        ``_common`` and ``bit_generator``."""
        from numpy.random._philox import Philox

        if not hasattr(position, "__index__") or position < 0:  # numpy integers pass
            raise ValueError(f"position must be an integer of at least 0, got {position!r}")
        bits = Philox(key=(self.seed << 64) | self.stream_id)
        bits.advance(int(position) // 4)
        bits.random_raw(int(position) % 4)
        return bits

    def generator(self, position: int = 0) -> np.random.Generator:
        """Fresh generator over :meth:`bits` at ``position``: its ``random()``
        draw number j is word ``position + j`` shifted right by 11, times
        2^-53.  ValueError for a position :meth:`bits` refuses."""
        from numpy.random._generator import Generator

        return Generator(self.bits(position))

    def child(self, index: int) -> "RandomStream":
        """Derived stream number ``index``; same seed, hashed stream id."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        return RandomStream(self.seed, _mix64(self.stream_id, index))


def _check_normalized(total: float, label: str) -> None:
    if not abs(total - 1.0) <= _NORM_TOL:  # a NaN total fails too
        raise ValueError(f"{label} distribution sums to {total!r}, not 1")


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Half the L1 distance between two mappings outcome -> probability.

    Outcomes of probability zero may be omitted.  Anything but a mapping of
    finite, nonnegative probabilities that sum to 1 is a ValueError.
    """
    for label, dist in (("first", p), ("second", q)):
        if not isinstance(dist, Mapping):
            raise ValueError(f"{label} distribution must map outcomes to probabilities")
        if not all(0.0 <= pr < math.inf for pr in dist.values()):  # NaN fails too
            raise ValueError(f"{label} distribution has a negative or non-finite probability")
        _check_normalized(math.fsum(dist.values()), label)
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def mutual_information_bits(joint: Mapping[tuple[Hashable, Hashable], float]) -> float:
    """Mutual information, in bits, of a joint distribution over pairs.

    Terms of probability zero are skipped, and a ratio that is exactly 1
    contributes exactly 0.0, so independent joints built from exact products
    come out at exactly zero.
    """
    _check_normalized(math.fsum(joint.values()), "joint")
    px: dict = {}
    py: dict = {}
    for (x, y), pr in joint.items():
        if pr < 0.0:
            raise ValueError("probabilities must be nonnegative")
        px[x] = px.get(x, 0.0) + pr
        py[y] = py.get(y, 0.0) + pr
    mi = 0.0
    for (x, y), pr in joint.items():
        if pr <= 0.0:
            continue
        mi += pr * math.log2(pr / (px[x] * py[y]))
    return mi
