"""Record sampling and the time-reversal audit of experiment records.

Every sampled model's records are drawn here, block by block from the
closed forms of :mod:`photon` and :mod:`hvmodels`: one uint8 code
``2*in + out`` per run over a table of at most four rows
(:func:`channel_table`).

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
only reported.

Branch-weight records need one extra convention to be reversible at all:
the definite channel end and the branch end swap roles, mirroring the even
input prior into the branch bookkeeping.  Any verdict that leaned on this is
flagged ``convention_dependent``.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .core import HALF_PI, normalize_angle, on_axes
from .hvmodels import MODEL_ONEBIT, MODEL_TWOBIT, qm_reference_joint, sampled_spec, twobit_dist
from .photon import OntologyMode
from .records import Ensemble
from .stats import RandomStream, random_blocks

# minimum ensemble size; below this the thresholds are meaningless
MIN_AUDIT_N = 10_000

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
    fields are renamed and the codes are shared.  Absent fields swap into
    the mirrored slots unchanged, so a collapse run reversed has its one
    beable on the return leg and nothing on the preparation leg.
    """
    table = {_MIRRORED.get(field, field): values for field, values in ensemble.table.items()}
    return Ensemble(ensemble.model, ensemble.sigma_r, ensemble.sigma_l, ensemble.codes, table)


def _orient_forward(ensemble: Ensemble) -> tuple[Ensemble, bool]:
    # Branch-weight families are closed under reversal only by convention:
    # the definite-channel end swaps roles with the branch end, the even
    # input prior mirroring into the branch bookkeeping.  Operationally:
    # a reversed branch record is re-oriented so its definite channel sits
    # on the entry leg again.
    if {"weight_1", "out_channel"} <= ensemble.table.keys() and "in_channel" not in ensemble.table:
        return reverse_ensemble(ensemble), True
    return ensemble, False


# class of a leg beable by 2*left_aligned + right_aligned: 0 left-aligned
# only, 1 right only, 2 both, 3 neither; 4 stands for an absent leg
_CLASS_OF = np.array([3, 1, 0, 2], dtype=np.uint8)

# alignment bits of each class, 1 on the left setting's axes and 2 on the
# right's; a record's profile class (an index into PROFILE_CLASSES) by the
# classes of its two legs is named by the OR of their bits, or is
# no_beables when both legs are absent
_BITS_OF = np.array([1, 2, 3, 0, 0])
_PROFILE_OF = np.array([4, 1, 2, 3])[_BITS_OF[:, None] | _BITS_OF[None, :]]
_PROFILE_OF[4, 4] = 0


def _classify(ensemble: Ensemble, angles: np.ndarray) -> np.ndarray:
    return _CLASS_OF[2 * on_axes(angles, ensemble.sigma_l) + on_axes(angles, ensemble.sigma_r)]


def _signature_counts(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Count vectors of the slot signature and the slot-free signature.

    Each table row is reduced once to its slot code below 225: its channel
    cell ``in*3 + out`` (2 for an absent channel) and the classes of its two
    leg beables.  The runs of each row, counted block by block, add into the
    225 slot counts.  The slot-free counts fold the slot counts onto (cell,
    unordered pair of leg classes), pairs in row-major order.
    """
    table = ensemble.table
    row_counts = ensemble.row_counts()

    def channel(field):
        return table[field].astype(np.intp) if field in table else np.intp(2)

    def leg(field):
        return _classify(ensemble, table[field]) if field in table else 4

    slot = (channel("in_channel") * 3 + channel("out_channel")) * 25 + leg("tau_l") * 5 + leg("tau_r")
    slot_counts = np.zeros(225, dtype=np.intp)
    np.add.at(slot_counts, np.broadcast_to(slot, row_counts.shape), row_counts)
    slots = slot_counts.reshape(9, 5, 5)
    folded = np.triu(slots) + np.tril(slots, -1).transpose(0, 2, 1)
    upper_rows, upper_cols = np.triu_indices(5)
    return slot_counts, folded[:, upper_rows, upper_cols].ravel()


def _alignment_profile(slot_counts: np.ndarray, n: int) -> dict[str, float]:
    """Fractions of records by where their leg beables point.

    A record is left-aligned when any of its leg beables lies on the left
    setting's axis pair, right-aligned likewise; records with no leg beables
    get their own class.  Read off the slot counts of n records.
    """
    profile = np.zeros(len(PROFILE_CLASSES), dtype=np.intp)
    np.add.at(profile, _PROFILE_OF, slot_counts.reshape(9, 5, 5).sum(axis=0))
    return {name: int(count) / n for name, count in zip(PROFILE_CLASSES, profile)}


def channel_table(**columns) -> dict[str, np.ndarray]:
    """Table over the four codes ``2*in + out`` that the samplers write: both
    channel columns, plus ``columns`` given as one value per code."""
    table = {
        "in_channel": np.array([0, 0, 1, 1], dtype=np.int8),
        "out_channel": np.array([0, 1, 0, 1], dtype=np.int8),
    }
    return table | {field: np.array(values) for field, values in columns.items()}


def _run_count(n) -> int:
    """``n`` as an int; ValueError unless it is an integer of at least 1."""
    if not hasattr(n, "__index__") or n < 1:  # numpy integers pass
        raise ValueError(f"need an integer count of at least one run, got {n!r}")
    return int(n)


def simulate_ensemble(
    mode: OntologyMode, sigma_l: float, sigma_r: float, n: int, stream: RandomStream
) -> Ensemble:
    """n independent source-to-detector runs under ``mode``, dictionary-encoded.

    Input channels are even: each run enters on channel 1 with probability
    1/2, the prior under which :func:`photon.retrodict_channel` reads cos^2
    back as the channel posterior.  What the ensemble keeps depends on the
    mode: discrete-symmetric runs keep channels and both leg polarizations,
    collapse runs keep no return-leg beable, and no-collapse runs keep the
    channel-1 branch weight in place of an outcome.
    The first n draws of the stream pick the input channels, the next n the
    outcomes; both are drawn and compared block by block into one uint8 code
    per run, ``2*in + out`` (``in`` for no-collapse runs), over a table of
    the angles and weights each channel pins.
    """
    if not isinstance(mode, OntologyMode):
        raise ValueError(f"unknown ontology mode: {mode!r}")
    n = _run_count(n)
    rng = stream.generator()
    sl = normalize_angle(sigma_l)
    sr = normalize_angle(sigma_r)
    t1, t0 = sl, normalize_angle(sl + HALF_PI)
    r1, r0 = sr, normalize_angle(sr + HALF_PI)
    codes = np.empty(n, dtype=np.uint8)
    for rows, u in random_blocks(rng, n):
        np.less(u, 0.5, out=codes[rows])
    del u  # frees the first pass's draw buffer before the second pass takes one
    joint = qm_reference_joint(sl, sr)  # even entries: P(exit 1 | entry c) is twice cell (c, 1)
    p1 = np.array([2.0 * joint.p01, 2.0 * joint.p11])
    if not mode.discrete_outputs:
        table = {"in_channel": np.array([0, 1], dtype=np.int8), "tau_l": np.array([t0, t1])}
        return Ensemble(mode.model_id, sl, sr, codes, table | {"weight_1": p1})
    for rows, u in random_blocks(rng, n):
        block = codes[rows]
        entry_1 = block.view(np.bool_)  # the codes still hold the entry channel
        # u < p1[entry] without gathering a threshold per row
        out = u < p1[1]
        out &= entry_1
        out |= (u < p1[0]) & ~entry_1
        block *= 2
        block += out
    if not mode.time_symmetric:
        return Ensemble(mode.model_id, sl, sr, codes, channel_table(tau_l=[t0, t0, t1, t1]))
    table = channel_table(tau_l=[t0, t0, t1, t1], tau_r=[r0, r1, r0, r1])
    return Ensemble(mode.model_id, sl, sr, codes, table)


def simulate_twobit_ensemble(
    sigma_l: float, sigma_r: float, n: int, stream: RandomStream
) -> Ensemble:
    """n independent two-bit draws as channel records.

    Draw u picks the pair whose cumulative interval holds it.  The pair's
    code ``2*past + future`` counts the cumulative bounds c0 <= c1 <= c2 at
    or below u; it is written to one uint8 code per run, block by block.
    """
    n = _run_count(n)
    rng = stream.generator()
    c0, c1, c2 = np.cumsum(twobit_dist(sigma_l, sigma_r))[:3]
    codes = np.empty(n, dtype=np.uint8)
    for rows, u in random_blocks(rng, n):
        block = codes[rows]
        np.greater_equal(u, c0, out=block)
        block += u >= c1
        block += u >= c2
    sl, sr = normalize_angle(sigma_l), normalize_angle(sigma_r)
    return Ensemble(MODEL_TWOBIT, sl, sr, codes, channel_table())


def simulate_onebit_ensemble(
    sigma_l: float, sigma_r: float, n: int, stream: RandomStream
) -> Ensemble:
    """Even input channel plus an independent parity draw per run.

    The first n draws pick the input channels, the next n whether the exit
    channel repeats it; the exit channel flips the input where it does not.
    """
    n = _run_count(n)
    rng = stream.generator()
    codes = np.empty(n, dtype=np.uint8)
    for rows, u in random_blocks(rng, n):
        np.less(u, 0.5, out=codes[rows])
    del u  # frees the first pass's draw buffer before the second pass takes one
    p_repeat = twobit_dist(sigma_l, sigma_r).p_match
    for rows, u in random_blocks(rng, n):
        block = codes[rows]
        block *= 3  # 2*in + in: the exit repeats the entry...
        block ^= u >= p_repeat  # ...unless this draw flips the low bit
    sl, sr = normalize_angle(sigma_l), normalize_angle(sigma_r)
    return Ensemble(MODEL_ONEBIT, sl, sr, codes, channel_table())


def check_memory(model: str, rows: int) -> None:
    """Reject ``rows`` records of ``model`` whose codes alone exceed physical memory.

    Every sampler above stores one uint8 code per row and works in blocks of
    ``stats.CHUNK_ROWS`` rows, so generation holds the codes plus a block
    allowance that does not grow with ``rows``: 138-194 KiB under
    tracemalloc, and at most 256 KiB (``tests/test_blocks.py``).
    """
    sampled_spec(model)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if rows > have:
        raise ValueError(f"{rows} {model} records need {rows / 1e9:.1f} GB of ensemble "
                         f"codes, more than the {have / 1e9:.1f} GB of physical memory")


def generate_ensemble(
    model: str, sigma_l: float, sigma_r: float, n: int, stream: RandomStream
) -> Ensemble:
    """Forward record ensemble for any auditable model, labelled with its
    registry id; ValueError, before sampling, when ``n`` is no integer of at
    least 1 or its codes alone would exceed physical memory.  The sampler is
    looked up on this module at each call, so a patched one is what runs."""
    n = _run_count(n)
    check_memory(model, n)
    spec = sampled_spec(model)
    ensemble = globals()[spec.sampler](*spec.sampler_args, sigma_l, sigma_r, n, stream)
    return Ensemble(model, ensemble.sigma_l, ensemble.sigma_r, ensemble.codes, ensemble.table)


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


def _side_counts(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray, bool]:
    """Slot and slot-free counts of one audit side, oriented forward, and
    whether orientation flipped it."""
    oriented, flipped = _orient_forward(ensemble)
    return (*_signature_counts(oriented), flipped)


def audit_symmetry(
    model: str, sigma_a: float, sigma_b: float, n: int, stream: RandomStream
) -> SymmetryReport:
    """Generate, reverse, and compare record ensembles at swapped settings.

    Ensemble A is generated forward at (sigma_a, sigma_b) and reversed;
    ensemble B forward at (sigma_b, sigma_a).  Their slot and slot-free
    signatures are compared by total variation against a 5 sigma sampling
    threshold, and the alignment profiles feed the structural distinguisher.
    Each side is generated, oriented and counted before the other is
    generated, so only one ensemble is alive at a time.

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
    ValueError, before sampling, when the codes of two ensembles would
    exceed physical memory: the bound stays at both sides' codes although
    one side is held at a time.

    False positives: a non-symmetric verdict needs ``tv_distance`` > t =
    5·sqrt(2/n).  A side fills at most 4 slots, so under a symmetric model
    the L1 deviation bound (Weissman et al., 2003) caps the rate at
    2·14·exp(-25) ≈ 3.9e-10 for any n >= MIN_AUDIT_N.  The rate of a false
    "asymmetric" holds at every pair, degenerate ones included, since a
    degenerate pair never reads "asymmetric".
    """
    n = _run_count(n)
    if n < MIN_AUDIT_N:
        raise ValueError(f"audit needs at least {MIN_AUDIT_N} records per ensemble")
    check_memory(model, 2 * n)
    slot_a, free_a, flipped_a = _side_counts(
        reverse_ensemble(generate_ensemble(model, sigma_a, sigma_b, n, stream.child(0)))
    )
    slot_b, free_b, flipped_b = _side_counts(
        generate_ensemble(model, sigma_b, sigma_a, n, stream.child(1))
    )
    settings = (normalize_angle(sigma_a), normalize_angle(sigma_b))
    tv_slot = 0.5 * float(np.abs(slot_a / n - slot_b / n).sum())
    tv_free = 0.5 * float(np.abs(free_a / n - free_b / n).sum())
    profile_rev = _alignment_profile(slot_a, n)
    profile_fwd = _alignment_profile(slot_b, n)
    separation = max(abs(profile_fwd[k] - profile_rev[k]) for k in PROFILE_CLASSES)
    score = 0.5 * (1.0 + 0.5 * sum(abs(profile_fwd[k] - profile_rev[k]) for k in PROFILE_CLASSES))
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
        convention_dependent=flipped_a or flipped_b,
    )
