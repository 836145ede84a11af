"""Angle conventions and Jones-vector basics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from retrolab.core import (
    ANGLE_TOL,
    JonesVector,
    NotLinearError,
    ZeroBeamError,
    angle_diff,
    angles_equal,
    jones_from_angle,
    malus,
    normalize_angle,
    on_axes,
    pol_angle,
)

PI = math.pi

angles = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def test_normalize_angle_pins():
    assert normalize_angle(PI + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(-PI / 4) == pytest.approx(3 * PI / 4, abs=1e-12)


@given(angles)
def test_normalize_angle_range_and_period(t):
    n = normalize_angle(t)
    assert 0.0 <= n < PI
    assert abs(angle_diff(n, t)) < 1e-9
    assert normalize_angle(n) == n


@given(angles, angles)
def test_angle_diff_range(a, b):
    d = angle_diff(a, b)
    assert -PI / 2 <= d < PI / 2
    # the two directions really are d apart, mod pi
    assert angles_equal(normalize_angle(b + d), normalize_angle(a))


def test_angle_diff_wrap():
    # frozen: fold of 0.1 - 3.1 into the half-open window
    assert angle_diff(0.1, 3.1) == pytest.approx(0.14159265358979312, abs=1e-12)
    # signed zeros, subnormals, and one ulp either side of pi/2 and pi fold
    # to these exact values, +0.0 and never -0.0 for equal directions
    half_below, half_above = math.nextafter(PI / 2, 0.0), math.nextafter(PI / 2, 4.0)
    pi_below, pi_above = math.nextafter(PI, 0.0), math.nextafter(PI, 4.0)
    for a, b, expected in (
        (0.0, -0.0, 0.0), (-0.0, 0.0, 0.0), (5e-324, 0.0, 0.0), (0.0, 5e-324, 0.0),
        (1e-300, -1e-300, 0.0), (PI / 2, 0.0, -PI / 2), (0.0, PI / 2, -PI / 2),
        (-PI / 2, 0.0, -PI / 2), (half_below, 0.0, -PI / 2), (half_above, 0.0, -PI / 2),
        (PI, 0.0, 0.0), (0.0, PI, 0.0), (-PI, 0.0, 0.0), (pi_below, 0.0, 0.0),
        (pi_above, 0.0, 0.0),
    ):
        d = angle_diff(a, b)
        assert (d, math.copysign(1.0, d)) == (expected, math.copysign(1.0, expected)), (a, b)


@pytest.mark.parametrize("big", (1e17, -1e17, 2.0**60, 1e9))
def test_angle_diff_reduces_large_angles_first(big):
    # big - normalize_angle(big) + pi/2 would round the direction away
    small = normalize_angle(big)
    assert angle_diff(big, small) == 0.0 and angle_diff(small, big) == 0.0
    assert angles_equal(big, small)


def test_angles_equal_mod_pi():
    assert angles_equal(0.0, PI)
    assert angles_equal(0.2, 0.2 + 7 * PI)
    assert not angles_equal(0.0, 0.1)


def _aligned_reference(angles, setting, tol=ANGLE_TOL):
    # the audit's array rule from before core owned it, kept verbatim
    offset = np.mod(angles - setting + 0.25 * math.pi, PI / 2) - 0.25 * math.pi
    return np.abs(offset) <= tol


_SETTINGS = st.sampled_from([0.0, -0.0, 0.3, 1.2, 2.9, PI / 2, PI, math.nextafter(PI, 0.0)]) | angles


@st.composite
def _angles_near(draw, setting):
    # on the setting's axes and orthogonals, within and beyond ANGLE_TOL of
    # them, plus NaN, signed zeros, angles near pi and arbitrary values
    axis = setting + draw(st.sampled_from([0.0, PI / 2, -PI / 2, PI, -PI]))
    step = draw(st.sampled_from([0.0, ANGLE_TOL / 2, -ANGLE_TOL / 2, 2 * ANGLE_TOL, -2 * ANGLE_TOL]))
    edge = st.sampled_from([math.nan, 0.0, -0.0, PI, -PI, math.nextafter(PI, 0.0),
                            math.nextafter(PI, 4.0), PI / 2, 1e-300])
    return draw(st.just(axis + step) | edge | angles)


@given(st.data())
def test_on_axes_matches_the_array_rule_bit_for_bit(data):
    setting = data.draw(_SETTINGS)
    values = np.array(data.draw(st.lists(_angles_near(setting), min_size=1, max_size=40)))
    got = on_axes(values, setting)
    assert got.dtype == bool
    assert np.array_equal(got, _aligned_reference(values, setting))
    # the float path decides each angle as the array path does
    assert [on_axes(float(x), setting) for x in values] == got.tolist()


def _ulps(x, k):
    """``x`` moved ``k`` ulps up, or down for a negative ``k``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("setting", [0.0, 0.3, 1.2, PI / 2, math.nextafter(PI, 0.0)])
def test_on_axes_decides_a_float_as_its_array_entry(setting):
    # within 3 ulps of each ANGLE_TOL edge around the axis and its orthogonal,
    # where rounding decides, plus NaN, signed zeros, pi - 1 ulp and 1e17
    edges = [_ulps(axis + side * ANGLE_TOL, k) for axis in (setting, setting + PI / 2)
             for side in (-1, 1) for k in range(-3, 4)]
    decided = set()
    for x in edges + [math.nan, 0.0, -0.0, math.nextafter(PI, 0.0), 1e17]:
        got = on_axes(x, setting)
        assert got is bool(on_axes(np.array([x]), setting)[0])
        decided.add(got)
    assert decided == {True, False}


def test_on_axes_pins():
    assert on_axes(0.3, 0.3) and on_axes(0.3 + PI / 2, 0.3) and on_axes(0.3 - PI, 0.3)
    assert on_axes(0.3 + ANGLE_TOL / 2, 0.3) and not on_axes(0.3 + 2 * ANGLE_TOL, 0.3)
    assert not on_axes(0.3 + PI / 4, 0.3)
    assert not on_axes(math.nan, 0.3) and not on_axes(math.inf, 0.3)


def test_normalize_angle_rejects_nonfinite():
    with pytest.raises(ValueError):
        normalize_angle(math.nan)
    with pytest.raises(ValueError):
        normalize_angle(math.inf)


def test_malus_table():
    assert malus(0.0) == 1.0
    assert malus(PI / 4) == pytest.approx(0.5, abs=1e-12)
    assert malus(PI / 6) == pytest.approx(0.75, abs=1e-12)
    assert malus(PI / 12) == pytest.approx(0.9330127018922194, abs=1e-12)
    assert malus(5 * PI / 12) == pytest.approx(0.06698729810778066, abs=1e-12)
    assert malus(PI / 2) == pytest.approx(0.0, abs=1e-12)


@given(angles)
def test_malus_complement(d):
    assert malus(d) + malus(d + PI / 2) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= malus(d) <= 1.0


def test_jones_from_angle_pins():
    v = jones_from_angle(PI / 4, 1.0)
    assert v.ex == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert v.ey == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    v = jones_from_angle(0.0, 2.0)
    assert v.ex == pytest.approx(math.sqrt(2), abs=1e-12)
    assert v.ey == 0.0
    v = jones_from_angle(PI / 3, 1.0)
    assert v.ex.real == pytest.approx(0.5, abs=1e-5)
    assert v.ey.real == pytest.approx(0.86603, abs=1e-5)


def test_jones_from_angle_rejects_negative_intensity():
    with pytest.raises(ValueError):
        jones_from_angle(0.0, -1.0)


def test_pol_angle_pins():
    assert pol_angle(JonesVector(0.5, 0.86603)) == pytest.approx(PI / 3, abs=1e-5)
    assert pol_angle(JonesVector(1.0, 0.0)) == 0.0
    # global phase must not matter
    assert pol_angle(JonesVector(0.0, 1j)) == pytest.approx(PI / 2, abs=1e-12)


@given(angles, st.floats(1e-6, 1e6), angles)
def test_roundtrip_angle_intensity_phase(t, intensity, phase):
    v = jones_from_angle(t, intensity, phase)
    assert v.intensity == pytest.approx(intensity, rel=1e-12)
    assert abs(angle_diff(pol_angle(v), t)) < 1e-9  # pol_angle raises on elliptical light


def test_pol_angle_dark_beam():
    with pytest.raises(ZeroBeamError):
        pol_angle(JonesVector(0.0, 0.0))


def test_pol_angle_circular():
    c = 1.0 / math.sqrt(2)
    for ey in (c * 1j, -c * 1j):  # either handedness
        with pytest.raises(NotLinearError):
            pol_angle(JonesVector(c, ey))


def test_vector_algebra():
    a = jones_from_angle(0.2, 1.0)
    b = jones_from_angle(0.2, 1.0)
    s = a + b
    assert s.intensity == pytest.approx(4.0, abs=1e-12)  # coherent, in phase
    half_amp = JonesVector(0.5 * a.ex, 0.5 * a.ey)
    assert half_amp.intensity == pytest.approx(0.25, abs=1e-12)  # amplitude scale
    flipped = JonesVector(-a.ex, -a.ey)
    assert flipped.intensity == pytest.approx(1.0, abs=1e-12)
    assert (flipped + a).intensity == 0.0  # coherent, out of phase


def test_jones_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        JonesVector(complex("nan"), 0.0)
    # finite amplitudes of any number type are stored as complex
    v = JonesVector(1, 0.0)
    assert type(v.ex) is complex and type(v.ey) is complex and v == (1 + 0j, 0j)


def test_jones_vector_replace_runs_the_checks():
    with pytest.raises(ValueError):
        JonesVector(1, 0)._replace(ex="x")
    with pytest.raises(ValueError):
        JonesVector(1, 0)._replace(ey=complex("inf"))
    v = JonesVector(1, 0)._replace(ey=2)
    assert type(v) is JonesVector and type(v.ey) is complex and v == (1 + 0j, 2 + 0j)


@given(angles, angles)
def test_global_phase_invariance(t, phase):
    base = jones_from_angle(t, 1.0)
    shifted = jones_from_angle(t, 1.0, phase)
    assert abs(angle_diff(pol_angle(base), pol_angle(shifted))) < 1e-9
    assert cmath.isclose(
        shifted.ex, base.ex * cmath.exp(1j * phase), abs_tol=1e-12
    )
