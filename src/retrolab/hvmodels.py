"""Discrete hidden-variable toy models and the settings-dependence probe.

Two models trade the continuous polarization beable for bookkeeping bits:

* two-bit: the hidden variable is the (past channel, future channel) pair,
  with matched pairs carrying cos^2 of the settings difference split evenly
  and mismatched pairs the complementary sin^2;
* one-bit: the hidden variable only records whether the future channel
  repeats the past one, with the two-bit joint's match probability cos^2.

Both reproduce the quantum channel statistics exactly.  Every sampler in
:mod:`retrolab.audit` and every beable table reads those statistics from
the joints registered here, and nowhere else.  The detector here,
:func:`settings_dependence`, asks the question those statistics hide: does
the distribution of whatever exists before the right cube depend on the
right-cube setting?  A yes is what "retrocausal" means operationally in
this package.

:data:`REGISTRY` holds one :class:`ModelSpec` per model, the photon
ontologies and the classical field included: its structural commitments,
channel joint, beables, sampler name and output-side analysis.  Every other
module reads a model's facts from there.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .core import HALF_PI, angles_equal, checked_make, malus, normalize_angle
from .photon import OntologyMode, born_probability, emit_from_channel
from .stats import tv_distance

MODEL_TWOBIT = "twobit"
MODEL_ONEBIT = "onebit"
MODEL_QM_DISCRETE = "qm-discrete"
MODEL_QM_COLLAPSE = "qm-collapse"
MODEL_QM_NOCOLLAPSE = "qm-nocollapse"
MODEL_CLASSICAL = "classical"

# analytic distributions are exact; any distance above this is real
ANALYTIC_TV_TOL = 1e-9


class UnknownModelError(ValueError):
    """Model identifier missing from the registry, or unsupported here."""


class HVJoint(NamedTuple("HVJoint", [("p00", float), ("p01", float), ("p10", float), ("p11", float)])):
    """Probability four-vector over (past channel, future channel)."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, p00: float, p01: float, p10: float, p11: float):
        joint = super().__new__(cls, p00, p01, p10, p11)
        for p in joint:
            if not (-1e-12 <= p <= 1.0 + 1e-12):
                raise ValueError(f"cell probability out of range: {p!r}")
        if abs(math.fsum(joint) - 1.0) > 1e-12:
            raise ValueError("joint must sum to 1")
        return joint

    def as_dict(self) -> dict[str, float]:
        return {"00": self.p00, "01": self.p01, "10": self.p10, "11": self.p11}

    def prob(self, past: int, future: int) -> float:
        return self[2 * past + future]

    @property
    def p_match(self) -> float:
        return self.p00 + self.p11


def twobit_dist(sigma_l: float, sigma_r: float) -> HVJoint:
    """Two-bit hidden-variable distribution at the given settings.

    Matched pairs (00, 11) share cos^2(sigma_l - sigma_r) evenly, mismatched
    pairs share sin^2; the even split keeps the past-bit marginal at 1/2 for
    every pair of settings, as the even input prior demands.
    """
    match = malus(normalize_angle(sigma_l) - normalize_angle(sigma_r))
    miss = 1.0 - match
    return HVJoint(0.5 * match, 0.5 * miss, 0.5 * miss, 0.5 * match)


def qm_reference_joint(sigma_l: float, sigma_r: float) -> HVJoint:
    """Channel joint implied by the photon rules with an even input prior.

    Computed by enumeration, not by formula: emit on each input channel, take
    the Born probability at the right cube, weight the channels evenly.  That
    it lands exactly on :func:`twobit_dist` is the content of the claim that
    the two-bit model reproduces the quantum predictions.
    """
    cells = {}
    for c in (0, 1):
        state = emit_from_channel(c, sigma_l)
        p1 = born_probability(state, sigma_r)
        cells[(c, 1)] = 0.5 * p1
        cells[(c, 0)] = 0.5 * (1.0 - p1)
    return HVJoint(cells[(0, 0)], cells[(0, 1)], cells[(1, 0)], cells[(1, 1)])


def _twobit_beables(sigma_l: float, sigma_r: float) -> dict:
    j = twobit_dist(sigma_l, sigma_r)
    return {(p, f): j.prob(p, f) for p in (0, 1) for f in (0, 1)}


def _onebit_beables(sigma_l: float, sigma_r: float) -> dict:
    # bit 1 stands for "the exit repeats the entry"; its complement changes no statistic
    p_same = twobit_dist(sigma_l, sigma_r).p_match
    return {1: p_same, 0: 1.0 - p_same}


def _qm_discrete_beables(sigma_l: float, sigma_r: float) -> dict:
    # the return-leg polarization already exists before the right cube,
    # pinned to whichever value the exit channel will select
    sigma_r = normalize_angle(sigma_r)
    joint = qm_reference_joint(sigma_l, sigma_r)
    return {(c, emit_from_channel(c, sigma_l).angle, r): joint.prob(c, f)
            for c in (0, 1) for f, r in ((1, sigma_r), (0, normalize_angle(sigma_r + HALF_PI)))}


def _prepared_beables(sigma_l: float, sigma_r: float) -> dict:
    # collapse: the prepared polarization, a function of the input channel
    # and the left setting only, read the conventional way; no-collapse: the
    # branch structure has not formed before the right cube, so the beable
    # is the uncollapsed state itself
    return {(c, emit_from_channel(c, sigma_l).angle): 0.5 for c in (0, 1)}


def _classical_beables(sigma_l: float, sigma_r: float) -> dict:
    # deterministic field fixed by the left-side preparation alone
    return {("field", normalize_angle(sigma_l)): 1.0}


class _ModelFields(NamedTuple):
    model: str
    beable_distribution: Callable[[float, float], dict]
    beable: str
    ontology: OntologyMode
    joint: Callable[[float, float], HVJoint] | None = None
    sampler: str | None = None
    sampler_args: tuple = ()


class ModelSpec(_ModelFields):
    """Everything the package knows about one model.

    ``ontology`` is the photon ontology mode whose output-side control
    analysis the model inherits.  It fixes two of the model's structural
    commitments, a time-symmetric record family and discrete outputs, and
    ``premise`` is their conjunction.  The third, realist beables, every
    model keeps; with one value in use and no observable counterpart in the
    bench, it is stated here and stored nowhere.  ``beable_distribution``
    maps (sigma_l, sigma_r) to the distribution of everything the model
    locates before the right cube, as ``beable`` describes it: keys are
    hashable outcome labels, angles in them normalised, and values exact
    probabilities.  ``joint`` maps (sigma_l, sigma_r) to the analytic
    (entry, exit) channel joint; the sampler, and a beable table that holds
    channel statistics, take them from it.  ``sampler`` names the function defined in
    :mod:`retrolab.audit` that generates the model's record ensembles,
    called with ``sampler_args`` before (sigma_l, sigma_r, n, stream); it is
    looked up by name at each call, so a wrapped or patched sampler is the
    one that runs; the ensemble it returns is labelled with ``model``.  A
    model with channel statistics has both a joint and a sampler, one
    without has neither; either of the two alone is a ValueError.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *fields, **named):
        spec = super().__new__(cls, *fields, **named)
        if (spec.joint is None) != (spec.sampler is None):
            raise ValueError(f"model {spec.model!r} needs both a joint and a sampler, or neither")
        return spec

    @property
    def premise(self) -> bool:
        return self.ontology.time_symmetric and self.ontology.discrete_outputs


# Ontologies: the bit models' records are closed under reversal and keep
# discrete exits, so under a realist reading the exit channel plus the
# setting fix the absorbed polarization exactly as in the discrete-symmetric
# photon ontology; the classical field is fixed by the left side alone, so it
# keeps time symmetry, but its exits are continuous intensities, like the
# no-collapse branch weights, so its setting pins nothing.

#: every model, keyed by id, in a fixed order
REGISTRY: dict[str, ModelSpec] = {
    spec.model: spec
    for spec in (
        ModelSpec(
            MODEL_TWOBIT, _twobit_beables, "(past channel, future channel) bit pair",
            OntologyMode.DISCRETE_SYMMETRIC, joint=twobit_dist, sampler="simulate_twobit_ensemble",
        ),
        ModelSpec(
            MODEL_ONEBIT, _onebit_beables, "channel parity bit",
            OntologyMode.DISCRETE_SYMMETRIC, joint=twobit_dist, sampler="simulate_onebit_ensemble",
        ),
        ModelSpec(
            MODEL_QM_DISCRETE, _qm_discrete_beables,
            "input channel, emitted polarization, return-leg polarization",
            OntologyMode.DISCRETE_SYMMETRIC, joint=qm_reference_joint,
            sampler="simulate_ensemble", sampler_args=(OntologyMode.DISCRETE_SYMMETRIC,),
        ),
        ModelSpec(
            MODEL_QM_COLLAPSE, _prepared_beables, "input channel and prepared polarization",
            OntologyMode.COLLAPSE, joint=qm_reference_joint,
            sampler="simulate_ensemble", sampler_args=(OntologyMode.COLLAPSE,),
        ),
        ModelSpec(
            MODEL_QM_NOCOLLAPSE, _prepared_beables,
            "input channel and uncollapsed polarization state",
            OntologyMode.NO_COLLAPSE, joint=qm_reference_joint,
            sampler="simulate_ensemble", sampler_args=(OntologyMode.NO_COLLAPSE,),
        ),
        ModelSpec(
            MODEL_CLASSICAL, _classical_beables,
            "intermediate field fixed by the left-side preparation", OntologyMode.NO_COLLAPSE,
        ),
    )
}


def model_ids(stochastic: bool = False) -> tuple[str, ...]:
    """Registry ids in order; only the models with a sampler if ``stochastic``.

    Read at each call, so a model registered after import is included.
    """
    return tuple(m for m, spec in REGISTRY.items() if spec.sampler or not stochastic)


def model_spec(model: str) -> ModelSpec:
    """The registry entry of ``model``; UnknownModelError when it has none."""
    if model not in REGISTRY:
        raise UnknownModelError(f"unknown model {model!r}; expected one of {model_ids()}")
    return REGISTRY[model]


def sampled_spec(model: str) -> ModelSpec:
    """The registry entry of ``model`` if it has channel statistics; the one
    UnknownModelError of every sampled entry point if not."""
    spec = REGISTRY.get(model)
    if spec is None or spec.sampler is None:
        raise UnknownModelError(
            f"no channel statistics for model {model!r}; expected one of {model_ids(stochastic=True)}"
        )
    return spec


def channel_joint(model: str, sigma_l: float, sigma_r: float) -> HVJoint:
    """Analytic (entry, exit) channel joint for any stochastic model."""
    return sampled_spec(model).joint(sigma_l, sigma_r)


class RetroReport(NamedTuple):
    """Settings-dependence verdict for the pre-measurement beables."""

    model: str
    sigma_l: float
    sigma_r: float
    sigma_r_alt: float
    tv_distance: float
    threshold: float
    retro: bool
    beable: str


def settings_dependence(
    model: str, sigma_l: float, sigma_r: float, sigma_r_alt: float
) -> RetroReport:
    """Compare the pre-right-cube beable distribution under two right settings.

    Total-variation distance over the model's declared beables, a label of
    the alternative distribution counting as the first label of the base
    distribution that matches it entry by entry, angles by
    :func:`core.angles_equal`; any distance above the analytic tolerance
    flags the model as settings-dependent.  The two right settings must
    name different directions (mod pi); note that a 90 degree shift can
    still leave the distribution unchanged, the one shift size a pair-valued
    beable cannot register.
    """
    spec = model_spec(model)
    sr, sr_alt = normalize_angle(sigma_r), normalize_angle(sigma_r_alt)
    if angles_equal(sr, sr_alt):
        raise ValueError("alternative right setting must differ from sigma_r (mod pi)")
    p = spec.beable_distribution(sigma_l, sigma_r)

    def same(base, alt):  # entry by entry, angles by angles_equal
        if not (isinstance(base, tuple) and isinstance(alt, tuple) and len(base) == len(alt)):
            return base == alt
        return all(angles_equal(x, y) if isinstance(x, float) else x == y for x, y in zip(base, alt))

    q: dict = {}
    for label, prob in spec.beable_distribution(sigma_l, sigma_r_alt).items():
        label = next((base for base in p if same(base, label)), label)
        q[label] = q.get(label, 0.0) + prob
    tv = tv_distance(p, q)
    return RetroReport(
        model=model,
        sigma_l=normalize_angle(sigma_l),
        sigma_r=sr,
        sigma_r_alt=sr_alt,
        tv_distance=tv,
        threshold=ANALYTIC_TV_TOL,
        retro=tv > ANALYTIC_TV_TOL,
        beable=spec.beable,
    )


def twobit_beable_input_joint(sigma_l: float, sigma_r: float) -> dict:
    """Joint of (hidden bit pair, input channel); the pair fixes the input."""
    return {(pair, pair[0]): p for pair, p in _twobit_beables(sigma_l, sigma_r).items()}


def onebit_beable_input_joint(sigma_l: float, sigma_r: float) -> dict:
    """Joint of (parity bit, input channel); exact product of its marginals."""
    return {(s, c): 0.5 * p for s, p in _onebit_beables(sigma_l, sigma_r).items() for c in (0, 1)}
