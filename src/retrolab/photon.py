"""Single-photon versions of the polarizing-cube experiments.

Intensities become probabilities: a photon polarized at t meets a cube set to
s and takes the transmitted channel with probability cos^2(t - s).  This
module keeps the closed forms; :func:`retrolab.audit.simulate_ensemble`
samples the full source-to-detector run under three ontologies:

* ``DISCRETE_SYMMETRIC``: the photon carries a definite polarization on both
  legs, pinned to the local setting by the channel taken at each end.
* ``COLLAPSE``: textbook state evolution; the prepared polarization persists
  up to the right cube and nothing definite exists for the return leg.
* ``NO_COLLAPSE``: no outcome is ever selected; the right cube turns the run
  into two weighted branches that are both kept.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .core import (HALF_PI, JonesVector, angle_diff, checked_make, jones_from_angle, malus,
                   normalize_angle, pol_angle)

if TYPE_CHECKING:
    from .optics import ModePair


class UndefinedPosteriorError(ValueError):
    """Prior and likelihoods leave zero total probability to condition on."""


class OntologyMode(enum.Enum):
    """What is taken to exist during a run, and when.

    A mode fixes two commitments: the record family is time-symmetric unless
    it collapses, and each run ends in one exit channel unless no outcome is
    ever selected.
    """

    DISCRETE_SYMMETRIC = "discrete"
    COLLAPSE = "collapse"
    NO_COLLAPSE = "nocollapse"

    @property
    def model_id(self) -> str:
        return "qm-" + self.value

    @property
    def time_symmetric(self) -> bool:
        return self is not OntologyMode.COLLAPSE

    @property
    def discrete_outputs(self) -> bool:
        return self is not OntologyMode.NO_COLLAPSE


class PhotonState(NamedTuple("PhotonState", [("jones", JonesVector)])):
    """Unit-intensity Jones vector: the polarization state of one photon."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, jones: JonesVector):
        if abs(jones.intensity - 1.0) > 1e-12:
            raise ValueError("photon states must have unit intensity")
        return super().__new__(cls, jones)

    @classmethod
    def linear(cls, pol: float) -> "PhotonState":
        return cls(jones_from_angle(pol))

    @property
    def angle(self) -> float:
        return pol_angle(self.jones)


def born_probability(state: PhotonState, setting: float) -> float:
    """Chance the photon takes the transmitted channel of a cube at ``setting``."""
    setting = normalize_angle(setting)  # reduced first; the samplers draw from this form
    c, s = math.cos(setting), math.sin(setting)
    amp = state.jones.ex * c + state.jones.ey * s
    p = amp.real * amp.real + amp.imag * amp.imag
    # squared projection of a unit vector; clip rounding spill
    return min(max(p, 0.0), 1.0)


def emit_from_channel(channel: int, setting_l: float) -> PhotonState:
    """State leaving the combining cube for a photon that entered on ``channel``.

    Channel 1 emerges polarized at the cube setting, channel 0 at 90 degrees
    from it: with single photons the input side pins the emitted polarization
    to the setting, mirroring what the analyzing side does on exit.
    """
    if channel not in (0, 1):
        raise ValueError(f"channel must be 0 or 1, got {channel!r}")
    setting_l = normalize_angle(setting_l)  # before the quarter turn; the samplers draw from this
    return PhotonState.linear(setting_l if channel == 1 else setting_l + HALF_PI)


def retrodict_channel(tau_l: float, sigma_l: float, prior_1: float = 0.5) -> float:
    """Posterior probability that the photon entered on channel 1.

    Bayes over the two input channels with likelihoods cos^2 / sin^2 of
    (tau_l - sigma_l).  With the even prior this reduces to plain cos^2; a
    lopsided source prior swamps the geometric factor, which is exactly why
    the even-prior stipulation matters when reading the cos^2 backwards.
    """
    if not (math.isfinite(prior_1) and 0.0 <= prior_1 <= 1.0):
        raise ValueError(f"prior must lie in [0, 1], got {prior_1!r}")
    like1 = malus(angle_diff(tau_l, sigma_l))
    like0 = 1.0 - like1
    num = prior_1 * like1
    den = num + (1.0 - prior_1) * like0
    if den == 0.0:
        raise UndefinedPosteriorError(
            "prior assigns zero probability to every channel the polarization allows"
        )
    return num / den


def demon_inputs_superposition(setting_l: float, target_pol: float) -> ModePair:
    """Unit-intensity channel amplitudes that emerge polarized at ``target_pol``.

    Amplitudes cos(target - setting) on the transmitted port and
    sin(target - setting) on the reflected port, up to a global sign and with
    zero relative phase, recombine into a photon linear at the target: the
    classical recipe at unit intensity, read as one photon's amplitudes.
    Every target is reachable, so superposed inputs restore on the input side
    the continuity that single-channel inputs lack.
    """
    from .optics import demon_inputs_classical

    return demon_inputs_classical(setting_l, target_pol, 1.0)
