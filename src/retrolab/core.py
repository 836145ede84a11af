"""Angle arithmetic and Jones-vector algebra shared by every model here.

Polarization angles label directions, not orientations: adding pi gives the
same physical state, so every angle-valued quantity is reduced to a canonical
representative in [0, pi).  Fields are Jones vectors, complex amplitude pairs
(ex, ey) in a fixed lab basis; one immutable value carries intensity,
polarization direction and phase together.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

PI = math.pi
HALF_PI = 0.5 * math.pi

# Directions closer than this (mod pi) count as the same direction.
ANGLE_TOL = 1e-9

# |Im(ex conj(ey))| <= LINEAR_TOL * intensity counts as linearly polarized.
LINEAR_TOL = 1e-9

# Below this intensity a field is treated as darkness.
ZERO_INTENSITY = 1e-30


def checked_make(cls, fields):
    """``_make`` for a NamedTuple whose ``__new__`` checks its fields: the
    stock one calls ``tuple.__new__``, so ``_replace`` would skip the checks."""
    return cls(*fields)


class UsageError(ValueError):
    """Input a caller can correct; the command line reports it and exits 2."""


class ZeroBeamError(ValueError):
    """Raised when an operation needs light and the field carries none."""


class NotLinearError(ValueError):
    """Raised when linear polarization is required but the field is elliptical."""


def normalize_angle(x: float) -> float:
    """Reduce an angle in radians to its direction representative in [0, pi)."""
    if not math.isfinite(x):
        raise UsageError(f"angle must be finite, got {x!r}")
    a = math.fmod(x, PI)
    if a < 0.0:
        a += PI
    if a >= PI:
        # fmod of a tiny negative lands exactly on pi after the shift
        a -= PI
    return a


def angle_diff(a: float, b: float) -> float:
    """Signed difference between two directions, reduced to [-pi/2, pi/2)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("angles must be finite")
    # within two turns a - b + pi/2 rounds by an ulp of 14 at most; a larger
    # angle could round the direction away, so it is reduced first
    a, b = (normalize_angle(x) if abs(x) > 2.0 * PI else x for x in (a, b))
    return normalize_angle(a - b + HALF_PI) - HALF_PI


def angles_equal(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """True when the two directions coincide within tol (mod pi)."""
    return abs(angle_diff(a, b)) <= tol


def on_axes(angle, setting: float):
    """True where ``angle``, a float or a numpy array, lies within ANGLE_TOL
    of ``setting``'s axis or its orthogonal; a NaN angle never does."""
    return abs((angle - setting + 0.25 * PI) % HALF_PI - 0.25 * PI) <= ANGLE_TOL


def malus(delta: float) -> float:
    """Transmitted fraction cos^2(delta) for an analyzer offset by delta."""
    if not math.isfinite(delta):
        raise ValueError(f"offset must be finite, got {delta!r}")
    c = math.cos(delta)
    return c * c


class JonesVector(NamedTuple("JonesVector", [("ex", complex), ("ey", complex)])):
    """Complex amplitudes (ex, ey) of one field mode in the lab basis."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, ex: complex, ey: complex):
        ex, ey = complex(ex), complex(ey)
        if not (cmath.isfinite(ex) and cmath.isfinite(ey)):
            raise ValueError("field amplitudes must be finite")
        return super().__new__(cls, ex, ey)

    @property
    def intensity(self) -> float:
        return (
            self.ex.real * self.ex.real
            + self.ex.imag * self.ex.imag
            + self.ey.real * self.ey.real
            + self.ey.imag * self.ey.imag
        )

    def __add__(self, other: "JonesVector") -> "JonesVector":
        return JonesVector(self.ex + other.ex, self.ey + other.ey)


def jones_from_angle(pol: float, intensity: float = 1.0, phase: float = 0.0) -> JonesVector:
    """Linearly polarized field at direction ``pol`` with the given intensity.

    The amplitude pair is exp(i phase) sqrt(intensity) (cos pol, sin pol).
    """
    if not math.isfinite(intensity) or intensity < 0.0:
        raise ValueError(f"intensity must be finite and nonnegative, got {intensity!r}")
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    t = normalize_angle(pol)
    amp = cmath.exp(1j * phase) * math.sqrt(intensity)
    return JonesVector(amp * math.cos(t), amp * math.sin(t))


def pol_angle(v: JonesVector) -> float:
    """Polarization direction of a linearly polarized field, in [0, pi).

    Inverse of :func:`jones_from_angle` up to global phase.  Raises
    ZeroBeamError on dark fields and NotLinearError when the field has a
    circular component.
    """
    i = v.intensity
    if i <= ZERO_INTENSITY:
        raise ZeroBeamError("polarization direction of a dark field is undefined")
    cross = v.ex * v.ey.conjugate()
    if abs(cross.imag) > LINEAR_TOL * i:
        raise NotLinearError("field is elliptically polarized, direction undefined")
    # the doubled angle is insensitive to the global phase and to pol -> pol+pi
    s1 = (v.ex.real * v.ex.real + v.ex.imag * v.ex.imag) - (
        v.ey.real * v.ey.real + v.ey.imag * v.ey.imag
    )
    s2 = 2.0 * cross.real
    return normalize_angle(0.5 * math.atan2(s2, s1))
