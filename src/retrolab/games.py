"""Control games over the intermediate polarization, played at both ends.

On the input side a player sets the combining cube and an adversarial Demon
chooses what to feed it.  With continuous fields or superposed channel
amplitudes the Demon can realize any intermediate polarization, so the player
controls nothing.  Restricted to a single discrete channel per run, the
Demon's hand is forced: whatever he does (including refusing to send a
photon), any photon that does emerge is polarized at the player's setting or
90 degrees from it.

On the output side the mirror question: does the absorbing cube's setting
pin down the return-leg polarization the same way?  That depends on the
ontology, and the dependence is exactly what the implication check at the
bottom of this module exercises: realist beables + a time-symmetric record
family + discrete outcomes force the pre-measurement beables to depend on
the future setting, while dropping any one conjunct lifts the force.

Demons here are perfect obstructors; partially constrained or noisy Demons
are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .core import HALF_PI, ZERO_INTENSITY, angles_equal, normalize_angle, on_axes, pol_angle
from .hvmodels import ModelSpec, model_spec, settings_dependence
from .optics import ModePair, demon_inputs_classical, pbs_combine
from .photon import OntologyMode, demon_inputs_superposition, emit_from_channel

#: strategy kinds for the input-side game
KIND_DISCRETE = "discrete"
KIND_CLASSICAL = "classical"
KIND_SUPERPOSITION = "superposition"
STRATEGY_KINDS = (KIND_DISCRETE, KIND_CLASSICAL, KIND_SUPERPOSITION)


@dataclass(frozen=True)
class DiscreteChannelStrategy:
    """Demon restricted to one input channel per run; None means refuse."""

    choose: Callable[[float], int | None]


@dataclass(frozen=True)
class ClassicalFieldStrategy:
    """Demon free to feed arbitrary classical fields into both ports."""

    inputs: Callable[[float], ModePair]


@dataclass(frozen=True)
class SuperpositionStrategy:
    """Demon emitting one photon with amplitudes on both ports (intensity 1)."""

    inputs: Callable[[float], ModePair]


DemonStrategy = Union[DiscreteChannelStrategy, ClassicalFieldStrategy, SuperpositionStrategy]


def play_lena_round(sigma_l: float, demon: DemonStrategy) -> float | None:
    """One round of the input-side game: setting out, emerging polarization back.

    Returns the polarization of the beam or photon leaving the combining
    cube, or None when nothing emerges (a refused round is an outcome, not an
    error, and is excluded from control statistics by the caller).
    """
    if isinstance(demon, DiscreteChannelStrategy):
        channel = demon.choose(sigma_l)
        if channel is None:
            return None
        return emit_from_channel(channel, sigma_l).angle
    if isinstance(demon, (ClassicalFieldStrategy, SuperpositionStrategy)):
        modes = demon.inputs(sigma_l)
        if not angles_equal(modes.basis, sigma_l):
            raise ValueError(
                "demon inputs are built for a different cube setting"
            )
        if isinstance(demon, SuperpositionStrategy):
            if abs(modes.total_intensity - 1.0) > 1e-9:
                raise ValueError("single-photon inputs must have total intensity 1")
        beam = pbs_combine(modes)
        if beam.intensity <= ZERO_INTENSITY:
            return None
        return pol_angle(beam)
    raise TypeError(f"not a demon strategy: {demon!r}")


def constant_channel_demon(channel: int | None) -> DiscreteChannelStrategy:
    return DiscreteChannelStrategy(lambda _setting: channel)


def classical_target_demon(target_pol: float) -> ClassicalFieldStrategy:
    return ClassicalFieldStrategy(lambda setting: demon_inputs_classical(setting, target_pol))


def superposition_target_demon(target_pol: float) -> SuperpositionStrategy:
    return SuperpositionStrategy(lambda setting: demon_inputs_superposition(setting, target_pol))


@dataclass(frozen=True)
class DiscretePair:
    """Achievable set of exactly two orthogonal directions."""

    first: float
    second: float

    def __post_init__(self):
        object.__setattr__(self, "first", normalize_angle(self.first))
        object.__setattr__(self, "second", normalize_angle(self.second))
        if not angles_equal(self.second, self.first + HALF_PI):
            raise ValueError("the two achievable directions must be orthogonal")

    def contains(self, angle: float) -> bool:
        return on_axes(angle, self.first)

    def as_tuple(self) -> tuple[float, float]:
        return (self.first, self.second)

    def disjoint_from(self, other: "DiscretePair") -> bool:
        return not on_axes(other.first, self.first)


class AllAngles:
    """Achievable set covering every direction; :data:`ALL_ANGLES` is its one instance."""

    def contains(self, angle: float) -> bool:
        return math.isfinite(angle)

    def __repr__(self):
        return "AllAngles()"


ALL_ANGLES = AllAngles()

AchievableSet = Union[DiscretePair, AllAngles]


def _channel_pair(setting: float) -> DiscretePair:
    """The two directions a cube at ``setting`` pins a single photon to."""
    return DiscretePair(emit_from_channel(1, setting).angle, emit_from_channel(0, setting).angle)


@dataclass(frozen=True)
class ControlReport:
    """Verdict on who controls the polarization at one end of the bench.

    ``control_mod`` is pi/2 when the local setting pins the value to an
    orthogonal pair, None when the opposition can realize any value.  For
    output-side reports the counterfactually shifted setting and its
    achievable set are included, since the shift is how the control is
    demonstrated.
    """

    side: str
    setting: float
    achievable: AchievableSet
    control_mod: float | None
    rho: float | None = None
    shifted_achievable: AchievableSet | None = None
    shift_detectable: bool | None = None


def verify_lena_control(sigma_l: float, strategy_kind: str) -> ControlReport:
    """Input-side control report for a given class of Demon play.

    The achievable set holds the polarizations the Demon can hand the
    player.  Single-channel play is enumerated (both channels, refusals
    excluded); field and superposition play reach the full circle because a
    constructive recipe exists for every target.
    """
    if strategy_kind == KIND_DISCRETE:
        achievable, control = _channel_pair(sigma_l), HALF_PI
    elif strategy_kind in (KIND_CLASSICAL, KIND_SUPERPOSITION):
        achievable, control = ALL_ANGLES, None
    else:
        raise ValueError(f"unknown strategy kind {strategy_kind!r}; expected one of {STRATEGY_KINDS}")
    return ControlReport(
        side="left",
        setting=normalize_angle(sigma_l),
        achievable=achievable,
        control_mod=control,
    )


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
        base, shifted = _channel_pair(sr), _channel_pair(sr + rho)
        return ControlReport(
            side="right",
            setting=sr,
            achievable=base,
            control_mod=HALF_PI,
            rho=rho,
            shifted_achievable=shifted,
            shift_detectable=base.disjoint_from(shifted),
        )
    if mode in (OntologyMode.COLLAPSE, OntologyMode.NO_COLLAPSE):
        return ControlReport(
            side="right",
            setting=sr,
            achievable=ALL_ANGLES,
            control_mod=None,
            rho=rho,
            shifted_achievable=ALL_ANGLES,
            shift_detectable=False,
        )
    raise ValueError(f"unknown ontology mode: {mode!r}")


def rena_control_for_model(model: str, sigma_r: float, rho: float) -> ControlReport:
    """Output-side control report for any registered model identifier."""
    return verify_rena_control(sigma_r, rho, model_spec(model).output_side)


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
    control = rena_control_for_model(onto.model, sigma_r, rho)
    dep = settings_dependence(onto.model, sigma_l, sigma_r, sigma_r_alt)
    if onto.premise:
        return control.control_mod == HALF_PI and dep.retro
    return (not dep.retro) or (not onto.time_symmetric)
