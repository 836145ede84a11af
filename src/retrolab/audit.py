"""Record sampling and the time-reversal audit of experiment records.

Every sampled model's records are drawn here, block by block from the closed
forms of :mod:`photon` and :mod:`hvmodels`: one uint8 code ``2*in + out`` per
run over a table of at most four rows (:func:`channel_table`).  Each sampler
states a plan, one pass over the stream per draw of a run, and one step runs
every pass (:func:`_step`): for each code so far, integer cuts on the 53-bit
word and a label per interval.  An ensemble replays its stream at each pass
instead of storing codes, so no path holds memory that grows with n.  Only
the draw loads numpy (:func:`_sampled`); tables and decision are plain Python.

Reversal swaps the two ends of a record: settings, channels, and leg
polarizations trade places.  A model family is time-symmetric when the
reversed ensemble generated at settings (a, b) is statistically
indistinguishable from a forward ensemble generated at (b, a).

The audit compares two discrete reductions of each record:

* the slot signature (entry channel, exit channel, alignment class of each
  leg polarization against the record's own settings), and
* the slot-free signature, which keeps the alignment classes of whichever
  leg beables exist but forgets which leg they sat on.

Two tests decide.  Alignment-level asymmetry (the slot-free TV) is
convention-free and decides "asymmetric".  When only the slot bookkeeping
differs, the audit refuses to call it and the verdict is "inconclusive".  At
degenerate settings (equal or orthogonal) a beable aligned with one setting
is aligned with both, so neither test is grounded in anything observable: a
degenerate pair is at most "inconclusive".  The structural distinguisher is
only reported.  Every float sum runs in numpy's order (:func:`_pairwise_sum`).

Branch-weight records need one extra convention to be reversible at all:
the definite channel end and the branch end swap roles, mirroring the even
input prior into the branch bookkeeping.  Any verdict that leaned on this is
flagged ``convention_dependent``.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import add
from typing import NamedTuple

from .core import HALF_PI, UsageError, normalize_angle, on_axes
from .hvmodels import ModelSpec, sampled_spec
from .records import Ensemble
from .stats import RandomStream

# minimum ensemble size; below this the thresholds are meaningless
MIN_AUDIT_N = 10_000

# rows per sampling block: a block's draws take 128 KiB, so drawing and
# counting an ensemble of any size holds 165-218 KiB under tracemalloc
# (2^16 rows took 1 MiB; 2^13 rows sample about 5% slower)
CHUNK_ROWS = 1 << 14

# profile classes for the structural distinguisher
PROFILE_CLASSES = ("no_beables", "left_only", "right_only", "both", "neither")


def symmetry_threshold(n: int) -> float:
    """Empirical TV above this flags a real difference at ensemble size n."""
    return 5.0 * math.sqrt(2.0 / n)


def score_band(n: int) -> float:
    """Half the threshold: a symmetric verdict keeps the score within it of 1/2."""
    return 2.5 * math.sqrt(2.0 / n)


# the fields that trade places under reversal; the branch weight keeps its own
_MIRRORED = dict(in_channel="out_channel", out_channel="in_channel", tau_l="tau_r", tau_r="tau_l")


def reverse_ensemble(ensemble: Ensemble) -> Ensemble:
    """Field-exact time reversal of every run; an involution.

    Left and right settings swap, the entry channel trades places with the
    exit channel, and the two leg polarizations trade slots: the table's
    fields are renamed and the draw is shared.  Absent fields swap into
    the mirrored slots unchanged, so a collapse run reversed has its one
    beable on the return leg and nothing on the preparation leg.
    """
    table = {_MIRRORED.get(field, field): values for field, values in ensemble.table.items()}
    return Ensemble(ensemble.model, ensemble.sigma_r, ensemble.sigma_l, table, ensemble.n, ensemble.draw)


def _side_a(forward: Ensemble) -> tuple[Ensemble, bool]:
    """Side A of an audit from its forward ensemble, and whether the
    branch-weight convention decided it: branch-weight records are compared
    as drawn, every other ensemble reversed."""
    if {"weight_1", "in_channel"} <= forward.table.keys() and "out_channel" not in forward.table:
        return forward, True
    return reverse_ensemble(forward), False


# class of a leg beable by 2*left_aligned + right_aligned: 0 left-aligned
# only, 1 right only, 2 both, 3 neither; 4 stands for an absent leg
_CLASS_OF = (3, 1, 0, 2)

# alignment bits of each class, 1 on the left setting's axes and 2 on the
# right's; a record's profile class (an index into PROFILE_CLASSES) by the
# classes l, r of its two legs, at 5*l + r, is named by the OR of their bits,
# or is no_beables when both legs are absent
_BITS_OF = (1, 2, 3, 0, 0)
_PROFILE_OF = tuple(0 if l == r == 4 else (4, 1, 2, 3)[_BITS_OF[l] | _BITS_OF[r]]
                    for l in range(5) for r in range(5))

# slot-free index of the leg classes l, r, at 5*l + r: the unordered pair's
# place among the 15 pairs a <= b in row-major order
_PAIR_OF = tuple(5 * a + b - a * (a + 1) // 2 for l in range(5) for r in range(5)
                 for a, b in [sorted((l, r))])


def _leg_classes(ensemble: Ensemble, field: str, rows: int) -> list[int]:
    """The class of each table row's beable in ``field``; 4 when absent."""
    if field not in ensemble.table:
        return [4] * rows
    sl, sr = ensemble.sigma_l, ensemble.sigma_r
    return [_CLASS_OF[2 * on_axes(angle, sl) + on_axes(angle, sr)]
            for angle in ensemble.table[field].tolist()]


def _signature_counts(ensemble: Ensemble) -> tuple[list[int], list[int], list[int]]:
    """Counts of the slot signature, the slot-free signature and the profile.

    Each table row is reduced once to its slot code below 225: its channel
    cell ``in*3 + out`` (2 for an absent channel) and the classes of its two
    leg beables; to its slot-free code below 135: its cell and the unordered
    pair of its leg classes, pairs in row-major order; and to its index in
    :data:`PROFILE_CLASSES`.  The runs of each row, counted in one pass, add
    into all three, in Python integers.
    A channel column of anything but 0 and 1 is a ValueError, before the
    rows are counted (:meth:`Ensemble.channel_column`).
    """
    entry = ensemble.channel_column("in_channel", absent=2)
    outcome = ensemble.channel_column("out_channel", absent=2)
    row_counts = ensemble.row_counts().tolist()
    rows = len(row_counts)
    slot_counts = [0] * 225
    free_counts = [0] * 135
    profile_counts = [0] * len(PROFILE_CLASSES)
    for count, c_in, c_out, left, right in zip(
            row_counts, entry, outcome,
            _leg_classes(ensemble, "tau_l", rows), _leg_classes(ensemble, "tau_r", rows)):
        cell, legs = c_in * 3 + c_out, left * 5 + right
        slot_counts[cell * 25 + legs] += count
        free_counts[cell * 15 + _PAIR_OF[legs]] += count
        profile_counts[_PROFILE_OF[legs]] += count
    return slot_counts, free_counts, profile_counts


def _pairwise_sum(xs: list[float]) -> float:
    """The sum of the non-negative floats ``xs`` in numpy's ``add.reduce`` order
    for a contiguous float64 array, not the built-in ``sum``'s (compensated from
    Python 3.12 on): one at a time below 8 values; up to 128, 8 interleaved sums
    combined pairwise, then the rest; above that, halves split at a multiple of 8."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    m = n - n % 8  # 0 below 8 values
    r = [reduce(add, xs[j:m:8], 0.0) for j in range(8)]
    return reduce(add, xs[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def channel_table(**columns) -> dict[str, tuple]:
    """Table over the four codes ``2*in + out`` that the samplers write: both
    channel columns, plus ``columns``, each a tuple of one value per code."""
    return dict(in_channel=(0, 0, 1, 1), out_channel=(0, 1, 0, 1)) | columns


def _run_count(n) -> int:
    """``n`` as an int; ValueError unless it is an integer of at least 1."""
    if not hasattr(n, "__index__") or n < 1:  # numpy integers pass
        raise UsageError(f"n must be an integer count of at least one run, got {n!r}")
    return int(n)


def _threshold(p: float) -> int:
    """The K with ``k < K`` exactly when ``k * 2.0**-53 < p``, for every 53-bit
    word k: ``p * 2^53`` is exact for any p in [0, 1], subnormals included,
    and an integer is below it exactly when it is below its ceiling."""
    return min(max(math.ceil(p * 2.0**53), 0), 1 << 53)


def _layout(pass_) -> tuple[list[int], int, bytes]:
    """A pass as :func:`_step` runs it.  ``pass_[c]`` is code c's integer cuts
    in ascending order and one label per interval; the layout is the union
    of the cuts, sorted, the stride ``len(union) + 1``, or 0 for a pass of
    one code, which reads no codes, and a ``bytes.translate`` table that
    holds the label of code c with its word in the union's interval j at
    ``c * stride + j``."""
    union = sorted({k for cuts, _ in pass_ for k in cuts})
    labels = [row[bisect.bisect_right(cuts, k)] for cuts, row in pass_ for k in (-1, *union)]
    return union, (len(union) + 1) * (len(pass_) > 1), bytes(labels).ljust(256, b"\xff")


def _step(codes, words, layout: tuple) -> None:
    """Replace each uint8 code c by the label of the interval of its 53-bit
    word among its cuts, in place, for a pass laid out by :func:`_layout`:
    each code becomes ``c * stride`` plus the number of cuts at or below its
    word, and the table translates that to its label."""
    union, stride, table = layout
    codes *= stride
    for k in union:
        codes += words >= k
    memoryview(codes)[:] = codes.tobytes().translate(table)


def _sampled(model: str, sigma_l: float, sigma_r: float, table: dict, n, stream, plan) -> Ensemble:
    """Ensemble of ``n`` runs over ``table``, drawn :data:`CHUNK_ROWS` runs at a
    time: pass k of ``plan`` gives each code so far its cuts, probabilities in
    ascending order made :func:`_threshold` once, and a label per interval,
    and steps one uint8 block (:func:`_step`) by words k*n to (k+1)*n - 1 of ``stream``.
    Here alone this module loads numpy, and ``table``'s tuples become arrays:
    channel columns int8, the others float64."""
    n = _run_count(n)
    import numpy as np

    table = {field: np.array(values, dtype=np.int8 if field.endswith("_channel") else np.float64)
             for field, values in table.items()}
    passes = [_layout([(list(map(_threshold, cuts)), labels) for cuts, labels in pass_]) for pass_ in plan]

    def draw():
        streams = [stream.bits(k * n) for k in range(len(passes))]
        codes = np.empty(min(n, CHUNK_ROWS), dtype=np.uint8)
        for start in range(0, n, len(codes)):
            size = min(len(codes), n - start)
            for bits, layout in zip(streams, passes):
                words = bits.random_raw(size)
                words >>= 11  # the word k that Generator.random() gives as k * 2^-53
                _step(codes[:size], words, layout)
                del words  # released before the next pass draws its own
            yield codes[:size]

    return Ensemble(model, normalize_angle(sigma_l), normalize_angle(sigma_r), table, n, draw)


# the first pass of a two-pass plan: even input channels, 1 below one half
_ENTRY = (((0.5,), (1, 0)),)


def simulate_ensemble(spec: ModelSpec, sigma_l: float, sigma_r: float, n: int,
                      stream: RandomStream) -> Ensemble:
    """n independent source-to-detector runs of ``spec.model``, dictionary-encoded.

    Input channels are even: each run enters on channel 1 with probability
    1/2, the prior under which :func:`photon.retrodict_channel` reads cos^2
    back as the channel posterior; exits follow ``spec.joint``.  What the
    ensemble keeps depends on ``spec.ontology``: discrete-symmetric runs
    keep channels and both leg polarizations, collapse runs keep no
    return-leg beable, and no-collapse runs keep the channel-1 branch weight
    in place of an outcome, and draw only the entry pass.
    """
    sl, sr = normalize_angle(sigma_l), normalize_angle(sigma_r)
    t1, t0 = sl, normalize_angle(sl + HALF_PI)
    r1, r0 = sr, normalize_angle(sr + HALF_PI)
    joint = spec.joint(sl, sr)  # even entries: P(exit 1 | entry c) is twice cell (c, 1)
    p1 = (2.0 * joint.p01, 2.0 * joint.p11)
    if not spec.ontology.discrete_outputs:
        table = dict(in_channel=(0, 1), tau_l=(t0, t1), weight_1=p1)
        return _sampled(spec.model, sl, sr, table, n, stream, (_ENTRY,))
    table = channel_table(tau_l=(t0, t0, t1, t1), tau_r=(r0, r1, r0, r1))
    if not spec.ontology.time_symmetric:
        del table["tau_r"]  # a collapse run keeps no return-leg beable
    exits = tuple(((p,), (2 * c + 1, 2 * c)) for c, p in enumerate(p1))  # code 2*in + out
    return _sampled(spec.model, sl, sr, table, n, stream, (_ENTRY, exits))


def simulate_twobit_ensemble(spec: ModelSpec, sigma_l: float, sigma_r: float, n: int,
                             stream: RandomStream) -> Ensemble:
    """n independent draws of ``spec.joint``'s bit pair as records of
    ``spec.model``: one pass, the pair ``2*past + future`` whose cumulative
    interval holds the word."""
    p00, p01, p10, _ = spec.joint(sigma_l, sigma_r)
    plan = ((((p00, p00 + p01, p00 + p01 + p10), (0, 1, 2, 3)),),)
    return _sampled(spec.model, sigma_l, sigma_r, channel_table(), n, stream, plan)


def simulate_onebit_ensemble(spec: ModelSpec, sigma_l: float, sigma_r: float, n: int,
                             stream: RandomStream) -> Ensemble:
    """Even input channel c plus an independent parity draw per run of
    ``spec.model``: the exit repeats c, code ``3*c``, as often as
    ``spec.joint`` matches, and flips it, ``3*c ^ 1``, otherwise."""
    p_match = spec.joint(sigma_l, sigma_r).p_match
    plan = _ENTRY, tuple(((p_match,), (3 * c, 3 * c ^ 1)) for c in (0, 1))
    return _sampled(spec.model, sigma_l, sigma_r, channel_table(), n, stream, plan)


def generate_ensemble(model: str, sigma_l: float, sigma_r: float, n: int,
                      stream: RandomStream) -> Ensemble:
    """Its sampler's forward ensemble for ``model``'s registry entry, not yet
    drawn; ValueError when ``n`` is no integer of at least 1.  The sampler is
    looked up on this module at each call, so a patched one is what runs."""
    spec = sampled_spec(model)
    return globals()[spec.sampler](spec, sigma_l, sigma_r, n, stream)


class SymmetryReport(NamedTuple):
    """Outcome of one reversal audit.

    ``tv_distance`` is over the slot signature, ``tv_alignment`` over the
    slot-free one; these two decide ``verdict``: symmetric / asymmetric /
    inconclusive.  ``distinguisher_score``, reported only, is the accuracy
    of the best structural rule that guesses "forward or reversed?" from the
    alignment profile; 1/2 means the rule is blind, 1 means it never misses.
    """

    model: str
    sigma_a: float
    sigma_b: float
    n: int
    tv_distance: float
    tv_alignment: float
    threshold: float
    verdict: str
    distinguisher_score: float
    score_band: float
    alignment_separation: float
    forward_alignment: dict
    reversed_alignment: dict
    degenerate_settings: bool
    convention_dependent: bool

    @property
    def symmetric(self) -> bool:
        return self.verdict == "symmetric"


def audit_symmetry(
    model: str, sigma_a: float, sigma_b: float, n: int, stream: RandomStream
) -> SymmetryReport:
    """Generate, reverse, and compare record ensembles at swapped settings.

    Ensemble A is generated forward at (sigma_a, sigma_b) and reversed, or
    compared as drawn under the branch-weight convention (:func:`_side_a`);
    ensemble B forward at (sigma_b, sigma_a).  Their slot and slot-free
    signatures are compared by total variation against a 5 sigma sampling
    threshold, and the alignment profiles feed the structural distinguisher.
    Each side is counted by table row in one streamed pass over its draw,
    and only the counts are kept, so an audit holds the same few hundred
    KiB at any n and is limited only by time.

    Verdict logic: slot-free asymmetry is conclusive; asymmetry visible only
    in slot bookkeeping is not, and reports "inconclusive".  The score is
    reported: its profile coarsens the slot-free signature, so 2·|score -
    1/2| <= ``tv_alignment`` (up to 2.2e-16).  Settings are degenerate when a
    beable pinned to one setting's axes is on the other's
    (:func:`core.on_axes`), so a leg beable is aligned with both, and a
    degenerate pair is at most "inconclusive": the collapse audit at (0, d)
    or (0, pi/2 + d) is "asymmetric" for d = 1e-8 and "inconclusive", with
    ``degenerate_settings`` true, for d = 1e-10.  Within ulps of
    ``ANGLE_TOL`` rounding decides the flag: (0, 1.5707963257948967) is
    degenerate and its mirror about pi/2, (0, 1.5707963277948966), is not.

    False positives: a non-symmetric verdict needs ``tv_distance`` > t =
    5·sqrt(2/n).  A side fills at most 4 slots, so under a symmetric model
    the L1 deviation bound (Weissman et al., 2003) caps the rate at
    2·14·exp(-25) ≈ 3.9e-10 for any n >= MIN_AUDIT_N.  The rate of a false
    "asymmetric" holds at every pair, degenerate ones included, since a
    degenerate pair never reads "asymmetric".
    """
    n = _run_count(n)
    if n < MIN_AUDIT_N:
        raise UsageError(f"audit needs n of at least {MIN_AUDIT_N} records per ensemble, got {n}")
    side_a, by_convention = _side_a(generate_ensemble(model, sigma_a, sigma_b, n, stream.child(0)))
    slot_a, free_a, profile_a = _signature_counts(side_a)
    slot_b, free_b, profile_b = _signature_counts(
        generate_ensemble(model, sigma_b, sigma_a, n, stream.child(1)))
    settings = (normalize_angle(sigma_a), normalize_angle(sigma_b))
    tv_slot = 0.5 * _pairwise_sum([abs(a / n - b / n) for a, b in zip(slot_a, slot_b)])
    tv_free = 0.5 * _pairwise_sum([abs(a / n - b / n) for a, b in zip(free_a, free_b)])
    profile_rev, profile_fwd = ({name: count / n for name, count in zip(PROFILE_CLASSES, profile)}
                                for profile in (profile_a, profile_b))
    gaps = [abs(profile_fwd[k] - profile_rev[k]) for k in PROFILE_CLASSES]
    separation, score = max(gaps), 0.5 * (1.0 + 0.5 * _pairwise_sum(gaps))
    # a beable the samplers pin to one setting's axes lies on the other's too
    degenerate = any(on_axes(pinned, other) for setting, other in (settings, settings[::-1])
                     for pinned in (setting, normalize_angle(setting + HALF_PI)))

    threshold = symmetry_threshold(n)
    if tv_free > threshold and not degenerate:
        verdict = "asymmetric"
    elif tv_slot > threshold or tv_free > threshold:
        # all the difference lives in which leg carries the beable, or the
        # settings align a beable with both: nothing observable grounds it
        verdict = "inconclusive"
    else:
        verdict = "symmetric"

    return SymmetryReport(
        model=model,
        sigma_a=settings[0],
        sigma_b=settings[1],
        n=n,
        tv_distance=tv_slot,
        tv_alignment=tv_free,
        threshold=threshold,
        verdict=verdict,
        distinguisher_score=score,
        score_band=score_band(n),
        alignment_separation=separation,
        forward_alignment=profile_fwd,
        reversed_alignment=profile_rev,
        degenerate_settings=degenerate,
        convention_dependent=by_convention,
    )
