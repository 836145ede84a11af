"""Time-reversal audit of experiment records.

Reversal swaps the two ends of a record: settings, channels, and leg
polarizations trade places.  A model family is time-symmetric when the
reversed ensemble generated at settings (a, b) is statistically
indistinguishable from a forward ensemble generated at (b, a).

The audit compares two discrete reductions of each record:

* the slot signature (entry channel, exit channel, alignment class of each
  leg polarization against the record's own settings), and
* the slot-free signature, which keeps the alignment classes of whichever
  leg beables exist but forgets which leg they sat on.

Alignment-level asymmetry (the slot-free TV) is convention-free and decides
"asymmetric".  When only the slot bookkeeping differs, the audit refuses to
call it: at degenerate settings (equal or orthogonal) a beable aligned with
one setting is aligned with both, so which leg it is recorded on cannot be
grounded in anything observable, and the verdict is "inconclusive".

Branch-weight records need one extra convention to be reversible at all:
the definite channel end and the branch end swap roles, mirroring the even
input prior into the branch bookkeeping.  Any verdict that leaned on this is
flagged ``convention_dependent``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import ANGLE_TOL, HALF_PI, angle_diff
# the samplers are imported for generate_ensemble, which looks up the one a
# ModelSpec names on this module at each call
from .hvmodels import (
    REGISTRY,
    ModelSpec,
    UnknownModelError,
    model_ids,
    simulate_onebit_ensemble,
    simulate_twobit_ensemble,
)
from .photon import simulate_ensemble
from .records import Ensemble, ExperimentRecord
from .stats import RandomStream

# minimum ensemble size; below this the thresholds are meaningless
MIN_AUDIT_N = 10_000

# profile classes for the structural distinguisher
PROFILE_CLASSES = ("no_beables", "left_only", "right_only", "both", "neither")


def symmetry_threshold(n: int) -> float:
    """Empirical TV above this flags a real difference at ensemble size n."""
    return 5.0 * math.sqrt(2.0 / n)


def score_band(n: int) -> float:
    """Distinguisher accuracy must sit within this band of 1/2 to pass."""
    return 2.5 * math.sqrt(2.0 / n)


# the fields that trade places under reversal; the branch weight keeps its own
_MIRRORED = dict(in_channel="out_channel", out_channel="in_channel", tau_l="tau_r", tau_r="tau_l")


def reverse_record(record: ExperimentRecord) -> ExperimentRecord:
    """Field-exact time reversal of one record; an involution.

    Left and right settings swap, the entry channel trades places with the
    exit channel, and the two leg polarizations trade slots.  Absent fields
    swap into the mirrored slots unchanged, so a collapse record reversed has
    its one beable on the return leg and nothing on the preparation leg.
    """
    swapped = {field: getattr(record, mirror) for field, mirror in _MIRRORED.items()}
    return dataclasses.replace(record, sigma_l=record.sigma_r, sigma_r=record.sigma_l, **swapped)


def reverse_ensemble(ensemble: Ensemble) -> Ensemble:
    """:func:`reverse_record` of every run: the settings swap, the table's
    fields are renamed and the codes are shared."""
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


def _aligned(angles: np.ndarray, setting: float, tol: float = ANGLE_TOL) -> np.ndarray:
    # aligned mod pi/2: the angle lies on the setting's axis or its orthogonal
    offset = np.mod(angles - setting + 0.25 * math.pi, HALF_PI) - 0.25 * math.pi
    return np.abs(offset) <= tol


# class of a leg beable by 2*left_aligned + right_aligned: 0 left-aligned
# only, 1 right only, 2 both, 3 neither; 4 stands for an absent leg
_CLASS_OF = np.array([3, 1, 0, 2], dtype=np.uint8)

# alignment bits of each class, 1 on the left setting's axes and 2 on the
# right's, and of a record by the classes of its two legs
_BITS_OF = np.array([1, 2, 3, 0, 0])
_RECORD_BITS = _BITS_OF[:, None] | _BITS_OF[None, :]


def _classify(ensemble: Ensemble, angles: np.ndarray) -> np.ndarray:
    return _CLASS_OF[2 * _aligned(angles, ensemble.sigma_l) + _aligned(angles, ensemble.sigma_r)]


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


def _alignment_profile(ensemble: Ensemble, slot_counts: np.ndarray) -> dict[str, float]:
    """Fractions of records by where their leg beables point.

    A record is left-aligned when any of its leg beables lies on the left
    setting's axis pair, right-aligned likewise; records with no leg beables
    get their own class.  Read off the ensemble's slot counts.
    """
    if not {"tau_l", "tau_r"} & ensemble.table.keys():
        return {"no_beables": 1.0, "left_only": 0.0, "right_only": 0.0, "both": 0.0, "neither": 0.0}
    legs = slot_counts.reshape(9, 5, 5).sum(axis=0)
    names = ("neither", "left_only", "right_only", "both")
    return {"no_beables": 0.0} | {
        name: int(legs[_RECORD_BITS == bits].sum()) / ensemble.n for bits, name in enumerate(names)
    }


def _profile_tv(p: dict[str, float], q: dict[str, float]) -> float:
    return 0.5 * sum(abs(p[k] - q[k]) for k in PROFILE_CLASSES)


def _sampled_spec(model: str) -> ModelSpec:
    """The registry entry of ``model`` if it has a sampler; UnknownModelError if not."""
    spec = REGISTRY.get(model)
    if spec is not None and spec.sampler is not None:
        return spec
    auditable = model_ids(stochastic=True)
    if spec is not None:
        raise UnknownModelError(
            f"model {model!r} has no stochastic record family; auditable models: {auditable}"
        )
    raise UnknownModelError(f"unknown model {model!r}; expected one of {auditable}")


def _check_memory(model: str, rows: int) -> None:
    """Reject ``rows`` records of ``model`` whose codes alone exceed physical memory.

    Every sampler stores one uint8 code per row and works in blocks of
    ``stats.CHUNK_ROWS`` rows, so generation holds the codes plus a block
    allowance that does not grow with ``rows``.
    """
    _sampled_spec(model)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if rows > have:
        raise ValueError(f"{rows} {model} records need {rows / 1e9:.1f} GB of ensemble "
                         f"codes, more than the {have / 1e9:.1f} GB of physical memory")


def generate_ensemble(
    model: str, sigma_l: float, sigma_r: float, n: int, stream: RandomStream
) -> Ensemble:
    """Forward record ensemble for any auditable model, labelled with its
    registry id; ValueError, before sampling, when its codes alone would
    exceed physical memory."""
    _check_memory(model, n)
    spec = REGISTRY[model]
    ensemble = globals()[spec.sampler](*spec.sampler_args, sigma_l, sigma_r, n, stream)
    return dataclasses.replace(ensemble, model=model)


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of one reversal audit.

    ``tv_distance`` is over the slot signature, ``tv_alignment`` over the
    slot-free one; ``verdict`` is symmetric / asymmetric / inconclusive.
    ``distinguisher_score`` is the accuracy of the best structural rule that
    guesses "forward or reversed?" from the alignment profile; 1/2 means the
    rule is blind, 1 means it never misses.
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


def _audit_side(
    model: str, sigma_l: float, sigma_r: float, n: int, stream: RandomStream, reverse: bool
) -> tuple[np.ndarray, np.ndarray, dict[str, float], tuple[float, float], bool]:
    """One side of an audit: generate, reverse if asked, orient, count.

    Returns the slot and slot-free counts, the alignment profile, the
    settings the ensemble was generated at and whether orientation flipped
    it.  The ensemble itself dies with the call.
    """
    ensemble = generate_ensemble(model, sigma_l, sigma_r, n, stream)
    settings = (ensemble.sigma_l, ensemble.sigma_r)
    oriented, flipped = _orient_forward(reverse_ensemble(ensemble) if reverse else ensemble)
    slot, free = _signature_counts(oriented)
    return slot, free, _alignment_profile(oriented, slot), settings, flipped


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
    in slot bookkeeping is not, and reports "inconclusive" (the degenerate
    collapse case lands here by construction).  Settings are degenerate
    within ``ANGLE_TOL`` of equal or orthogonal (mod pi), the tolerance that
    also aligns a leg beable with a setting: the collapse audit at (0, d) or
    (0, pi/2 + d) is "asymmetric" for d = 1e-8 and "inconclusive", with
    ``degenerate_settings`` true, for d = 1e-10.  ValueError, before sampling,
    when the codes of two ensembles would exceed physical memory: the bound
    stays at both sides' codes although one side is held at a time.
    """
    n = int(n)
    if n < MIN_AUDIT_N:
        raise ValueError(f"audit needs at least {MIN_AUDIT_N} records per ensemble")
    _check_memory(model, 2 * n)
    slot_a, free_a, profile_rev, settings_a, flipped_a = _audit_side(
        model, sigma_a, sigma_b, n, stream.child(0), reverse=True
    )
    slot_b, free_b, profile_fwd, _, flipped_b = _audit_side(
        model, sigma_b, sigma_a, n, stream.child(1), reverse=False
    )
    tv_slot = 0.5 * float(np.abs(slot_a / n - slot_b / n).sum())
    tv_free = 0.5 * float(np.abs(free_a / n - free_b / n).sum())
    separation = max(abs(profile_fwd[k] - profile_rev[k]) for k in PROFILE_CLASSES)
    score = 0.5 * (1.0 + _profile_tv(profile_fwd, profile_rev))

    d = abs(angle_diff(sigma_a, sigma_b))
    degenerate = d <= ANGLE_TOL or d >= HALF_PI - ANGLE_TOL

    threshold = symmetry_threshold(n)
    band = score_band(n)
    if tv_free > threshold:
        verdict = "asymmetric"
    elif tv_slot > threshold:
        # all the difference lives in which leg carries the beable; with the
        # alignment layer blind there is nothing observable to ground it
        verdict = "inconclusive"
    elif abs(score - 0.5) > band:
        verdict = "inconclusive"
    else:
        verdict = "symmetric"

    return SymmetryReport(
        model=model,
        sigma_a=settings_a[0],
        sigma_b=settings_a[1],
        n=n,
        tv_distance=tv_slot,
        tv_alignment=tv_free,
        threshold=threshold,
        verdict=verdict,
        distinguisher_score=score,
        score_band=band,
        alignment_separation=separation,
        forward_alignment=profile_fwd,
        reversed_alignment=profile_rev,
        degenerate_settings=degenerate,
        convention_dependent=flipped_a or flipped_b,
    )
