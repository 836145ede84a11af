"""Ideal polarizing cube: forward split, reverse combine, and the classical
recipe for preparing any intermediate polarization from the two input ports.

The cube is lossless, modeled as the two-mode map between one free-space beam
and the (transmitted, reflected) pair at the cube axis.  The transmitted mode
is polarized along the axis, the reflected one 90 degrees from it, and
reflection adds no phase.  That last point is one fixed convention out of the
many that reproduce the same intensities; split and combine share it, which
is all that matters.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    HALF_PI,
    ZERO_INTENSITY,
    JonesVector,
    NotLinearError,
    angles_equal,
    checked_make,
    jones_from_angle,
    normalize_angle,
    pol_angle,
)

# Looser than the same-direction tolerance of core: absorbs projection
# rounding when checking that an occupied mode sits on its cube axis.
MODE_AXIS_TOL = 1e-6


class ModePair(NamedTuple("ModePair", [("trans", JonesVector), ("refl", JonesVector),
                                       ("basis", float)])):
    """Transmitted and reflected field modes of a cube set at ``basis``."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, trans: JonesVector, refl: JonesVector, basis: float):
        return super().__new__(cls, trans, refl, normalize_angle(basis))

    @property
    def total_intensity(self) -> float:
        return self.trans.intensity + self.refl.intensity


def pbs_split(beam: JonesVector, setting: float) -> ModePair:
    """Split a beam at a cube whose axis sits at ``setting``.

    The transmitted mode keeps the component along the axis, the reflected
    mode the orthogonal component, so intensities follow cos^2 / sin^2 of
    (beam polarization - setting) for linear input.
    """
    s = normalize_angle(setting)
    c, sn = math.cos(s), math.sin(s)
    along = beam.ex * c + beam.ey * sn
    across = -beam.ex * sn + beam.ey * c
    trans = JonesVector(along * c, along * sn)
    refl = JonesVector(-across * sn, across * c)
    return ModePair(trans, refl, s)


def validate_mode_pair(modes: ModePair) -> None:
    """Check the mode-pair invariants: trans on the axis, refl 90 degrees off.

    Dark modes pass.  An occupied mode that is elliptical or off-axis raises
    ValueError.
    """
    checks = (
        ("transmitted", modes.trans, modes.basis),
        ("reflected", modes.refl, normalize_angle(modes.basis + HALF_PI)),
    )
    for label, mode, axis in checks:
        if mode.intensity <= ZERO_INTENSITY:
            continue
        try:
            direction = pol_angle(mode)
        except NotLinearError as err:
            raise ValueError(f"{label} mode must be linearly polarized") from err
        if not angles_equal(direction, axis, MODE_AXIS_TOL):
            raise ValueError(
                f"{label} mode is polarized at {direction:.9f}, expected {axis:.9f}"
            )


def pbs_combine(modes: ModePair) -> JonesVector:
    """Merge a valid mode pair back into one beam.

    Exact inverse of :func:`pbs_split`: energy is conserved and the relative
    phase of the two ports decides whether the output is linear.
    """
    validate_mode_pair(modes)
    return modes.trans + modes.refl


def demon_inputs_classical(
    setting_l: float, target_pol: float, intensity: float = 1.0
) -> ModePair:
    """Input fields that make a combining cube at ``setting_l`` emit ``target_pol``.

    Construction: run the split backwards.  The pair that a beam at
    target_pol would split into under this setting, fed in reverse,
    recombines into exactly that beam.  Works for every target, which is the
    whole content of the claim that continuous fields admit full control of
    the intermediate polarization.
    """
    if not math.isfinite(intensity) or intensity < 0.0:
        raise ValueError(f"intensity must be finite and nonnegative, got {intensity!r}")
    return pbs_split(jones_from_angle(target_pol, intensity), setting_l)
