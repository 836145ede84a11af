"""Control games over the intermediate polarization, played at both ends.

On the input side a player sets the combining cube and an adversarial
:class:`Demon` chooses what to feed it.  The Demon plays one of three kinds:
with classical fields or a photon's amplitudes superposed over both channels
it can realize any intermediate polarization, so the player controls nothing.
Restricted to a single discrete channel per run, the Demon's hand is forced:
whatever it does (including refusing to send a photon), any photon that does
emerge is polarized at the player's setting or 90 degrees from it.

Either end's verdict is a :class:`ControlReport`, and the setting controls the
polarization exactly when the report's achievable set is an orthogonal pair.
On the output side the mirror question, whether the absorbing cube's setting
pins down the return-leg polarization the same way, depends on the ontology.
That dependence is what the implication check at the bottom of this module
sweeps: realist beables + a time-symmetric record family + discrete outcomes
force the pre-measurement beables to depend on the future setting, while
dropping any one conjunct lifts the force.

Demons here are perfect obstructors; partially constrained or noisy Demons
are out of scope.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

from .core import (HALF_PI, ZERO_INTENSITY, angles_equal, checked_make, normalize_angle, on_axes,
                   pol_angle)
from .hvmodels import ModelSpec, settings_dependence
from .optics import ModePair, demon_inputs_classical, pbs_combine
from .photon import OntologyMode, demon_inputs_superposition, emit_from_channel

#: strategy kinds for the input-side game
KIND_DISCRETE = "discrete"
KIND_CLASSICAL = "classical"
KIND_SUPERPOSITION = "superposition"
STRATEGY_KINDS = (KIND_DISCRETE, KIND_CLASSICAL, KIND_SUPERPOSITION)


def _check_kind(kind: str) -> None:
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}")


class Demon(NamedTuple("Demon", [("kind", str),
                                 ("inputs", Callable[[float], int | ModePair | None])])):
    """The input-side opposition: one of :data:`STRATEGY_KINDS` and its play.

    ``inputs(setting)`` is what the Demon feeds a cube at ``setting``: a
    channel (0 or 1), or None to refuse, for discrete play; a ModePair of
    classical fields, or of one photon's amplitudes (total intensity 1) for
    superposition play.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, kind: str, inputs: Callable[[float], int | ModePair | None]):
        _check_kind(kind)
        return super().__new__(cls, kind, inputs)


def play_lena_round(sigma_l: float, demon: Demon) -> float | None:
    """One round of the input-side game: setting out, emerging polarization back.

    Returns the polarization of the beam or photon leaving the combining
    cube, or None when nothing emerges (a refused round is an outcome, not an
    error, and is excluded from control statistics by the caller).
    """
    if not isinstance(demon, Demon):
        raise TypeError(f"not a Demon: {demon!r}")
    played = demon.inputs(sigma_l)
    if demon.kind == KIND_DISCRETE:
        return None if played is None else emit_from_channel(played, sigma_l).angle
    if not angles_equal(played.basis, sigma_l):
        raise ValueError("demon inputs are built for a different cube setting")
    if demon.kind == KIND_SUPERPOSITION and abs(played.total_intensity - 1.0) > 1e-9:
        raise ValueError("single-photon inputs must have total intensity 1")
    beam = pbs_combine(played)
    if beam.intensity <= ZERO_INTENSITY:
        return None
    return pol_angle(beam)


def constant_channel_demon(channel: int | None) -> Demon:
    return Demon(KIND_DISCRETE, lambda _setting: channel)


def classical_target_demon(target_pol: float) -> Demon:
    return Demon(KIND_CLASSICAL, lambda setting: demon_inputs_classical(setting, target_pol))


def superposition_target_demon(target_pol: float) -> Demon:
    return Demon(KIND_SUPERPOSITION, lambda setting: demon_inputs_superposition(setting, target_pol))


class DiscretePair(NamedTuple("DiscretePair", [("first", float), ("second", float)])):
    """Achievable set of exactly two orthogonal directions."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, first: float, second: float):
        first, second = normalize_angle(first), normalize_angle(second)
        if not angles_equal(second, first + HALF_PI):
            raise ValueError("the two achievable directions must be orthogonal")
        return super().__new__(cls, first, second)

    def contains(self, angle: float) -> bool:
        return on_axes(angle, self.first)

    def disjoint_from(self, other: "DiscretePair") -> bool:
        return not on_axes(other.first, self.first)


class AllAngles:
    """Achievable set covering every direction; :data:`ALL_ANGLES` is its one instance."""

    def contains(self, angle: float) -> bool:
        return math.isfinite(angle)


ALL_ANGLES = AllAngles()

AchievableSet = Union[DiscretePair, AllAngles]


def _channel_pair(setting: float) -> DiscretePair:
    """The two directions a cube at ``setting`` pins a single photon to."""
    return DiscretePair(emit_from_channel(1, setting).angle, emit_from_channel(0, setting).angle)


class ControlReport(NamedTuple):
    """Verdict on who controls the polarization at one end of the bench.

    The setting controls the value exactly when ``achievable`` is an
    orthogonal pair, and :attr:`control_mod` reads that off.  For
    output-side reports the counterfactually shifted setting and its
    achievable set are included, since the shift is how the control is
    demonstrated.
    """

    side: str
    setting: float
    achievable: AchievableSet
    rho: float | None = None
    shifted_achievable: AchievableSet | None = None
    shift_detectable: bool | None = None

    @property
    def control_mod(self) -> float | None:
        """pi/2 when the setting pins the value to a pair, None when any value is reachable."""
        return HALF_PI if isinstance(self.achievable, DiscretePair) else None


def verify_lena_control(sigma_l: float, strategy_kind: str) -> ControlReport:
    """Input-side control report for a given kind of Demon play.

    The achievable set holds the polarizations the Demon can hand the
    player.  Single-channel play is enumerated (both channels, refusals
    excluded); field and superposition play reach the full circle because a
    constructive recipe exists for every target.
    """
    _check_kind(strategy_kind)
    achievable = _channel_pair(sigma_l) if strategy_kind == KIND_DISCRETE else ALL_ANGLES
    return ControlReport("left", normalize_angle(sigma_l), achievable)


def verify_rena_control(sigma_r: float, rho: float, mode: OntologyMode) -> ControlReport:
    """Output-side control report: does the setting pin the return-leg value?

    Computed from each ontology's record semantics.  Discrete-symmetric runs
    put a polarization beable on the return leg, pinned by the exit channel
    to the setting or 90 degrees off; shifting the setting by rho shifts the
    achievable pair, detectably unless rho is a multiple of 90 degrees.
    Collapse runs carry no return-leg beable at all, and no-collapse runs
    absorb any shift into branch weights, so in both cases the pre-cube value
    is free of the setting and the player controls nothing.
    """
    if not math.isfinite(rho):
        raise ValueError(f"shift must be finite, got {rho!r}")
    sr = normalize_angle(sigma_r)
    if mode is OntologyMode.DISCRETE_SYMMETRIC:
        base, shifted = _channel_pair(sr), _channel_pair(sr + normalize_angle(rho))
    elif isinstance(mode, OntologyMode):
        base = shifted = ALL_ANGLES
    else:
        raise ValueError(f"unknown ontology mode: {mode!r}")
    detectable = base is not ALL_ANGLES and base.disjoint_from(shifted)
    return ControlReport("right", sr, base, rho, shifted, detectable)


def retro_implication_holds(
    onto: ModelSpec,
    sigma_l: float,
    sigma_r: float,
    sigma_r_alt: float,
    rho: float,
) -> bool:
    """Check one configuration against the structural implication.

    A configuration committed to realist beables, a time-symmetric record
    family and discrete outputs must show output-side control mod 90 degrees
    and a settings-dependent pre-measurement distribution.  A configuration
    missing a conjunct escapes by being settings-independent or by failing
    time symmetry outright.
    """
    control = verify_rena_control(sigma_r, rho, onto.ontology)
    dep = settings_dependence(onto.model, sigma_l, sigma_r, sigma_r_alt)
    if onto.premise:
        return control.control_mod == HALF_PI and dep.retro
    return (not dep.retro) or (not onto.ontology.time_symmetric)
