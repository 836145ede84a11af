"""Beam-splitter split/combine identities and the classical demon map."""

import math

import pytest
from hypothesis import given, strategies as st

from retrolab.core import JonesVector, angle_diff, jones_from_angle, pol_angle
from retrolab.optics import (
    ModePair,
    demon_inputs_classical,
    pbs_combine,
    pbs_split,
    validate_mode_pair,
)

PI = math.pi

angles = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
intensities = st.floats(1e-6, 1e4)


def test_split_intensities_malus():
    # tau - sigma = pi/6 splits 3:1
    pair = pbs_split(jones_from_angle(PI / 6, 1.0), 0.0)
    assert pair.trans.intensity == pytest.approx(0.75, abs=1e-12)
    assert pair.refl.intensity == pytest.approx(0.25, abs=1e-12)


def test_split_intensities_frozen():
    pair = pbs_split(jones_from_angle(1.1, 1.7, phase=0.4), 0.2)
    assert pair.trans.intensity == pytest.approx(0.6568782195108759, abs=1e-12)
    assert pair.refl.intensity == pytest.approx(1.0431217804891244, abs=1e-12)
    assert pair.total_intensity == pytest.approx(1.7, abs=1e-12)


def test_split_mode_axes():
    pair = pbs_split(jones_from_angle(0.9, 1.0), 0.3)
    assert abs(angle_diff(pol_angle(pair.trans), 0.3)) < 1e-9
    assert abs(angle_diff(pol_angle(pair.refl), 0.3 + PI / 2)) < 1e-9


def test_trans_only_recombines_to_basis():
    pair = ModePair(jones_from_angle(0.7, 2.0), JonesVector(0.0, 0.0), 0.7)
    beam = pbs_combine(pair)
    assert beam.intensity == pytest.approx(2.0, abs=1e-12)
    assert abs(angle_diff(pol_angle(beam), 0.7)) < 1e-9


@given(angles, intensities, angles, angles)
def test_split_combine_roundtrip(t, intensity, phase, setting):
    beam = jones_from_angle(t, intensity, phase)
    back = pbs_combine(pbs_split(beam, setting))
    assert abs(back.ex - beam.ex) < 1e-9 * max(1.0, math.sqrt(intensity))
    assert abs(back.ey - beam.ey) < 1e-9 * max(1.0, math.sqrt(intensity))


@given(angles, intensities, angles)
def test_split_conserves_energy(t, intensity, setting):
    pair = pbs_split(jones_from_angle(t, intensity), setting)
    assert pair.total_intensity == pytest.approx(intensity, rel=1e-12)


def test_validate_rejects_off_axis_mode():
    bad = ModePair(jones_from_angle(0.5, 1.0), JonesVector(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        validate_mode_pair(bad)
    with pytest.raises(ValueError):
        pbs_combine(bad)


def test_validate_accepts_dark_modes():
    dark = ModePair(JonesVector(0.0, 0.0), JonesVector(0.0, 0.0), 1.2)
    validate_mode_pair(dark)  # both ports empty is a fine (if dull) configuration


def test_validate_rejects_elliptical_mode():
    c = 1.0 / math.sqrt(2)
    bad = ModePair(JonesVector(c, c * 1j), JonesVector(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        validate_mode_pair(bad)


def test_classical_demon_pins():
    # sigma_L = 0, target pi/3: a 1:3 split with zero relative phase
    pair = demon_inputs_classical(0.0, PI / 3, 1.0)
    assert pair.trans.intensity == pytest.approx(0.25, abs=1e-12)
    assert pair.refl.intensity == pytest.approx(0.75, abs=1e-12)
    assert abs(angle_diff(pol_angle(pair.trans), 0.0)) < 1e-9
    assert abs(angle_diff(pol_angle(pair.refl), PI / 2)) < 1e-9
    beam = pbs_combine(pair)
    assert abs(angle_diff(pol_angle(beam), PI / 3)) < 1e-9


def test_classical_demon_degenerate_targets():
    on_axis = demon_inputs_classical(0.4, 0.4, 1.0)
    assert on_axis.trans.intensity == pytest.approx(1.0, abs=1e-12)
    assert on_axis.refl.intensity == pytest.approx(0.0, abs=1e-12)
    crossed = demon_inputs_classical(0.4, 0.4 + PI / 2, 1.0)
    assert crossed.trans.intensity == pytest.approx(0.0, abs=1e-12)
    assert crossed.refl.intensity == pytest.approx(1.0, abs=1e-12)


@given(angles, angles)
def test_classical_demon_complete(setting, target):
    beam = pbs_combine(demon_inputs_classical(setting, target, 1.0))
    assert beam.intensity == pytest.approx(1.0, abs=1e-9)
    assert abs(angle_diff(pol_angle(beam), target)) < 1e-9


def test_mode_pair_basis_normalized():
    pair = ModePair(JonesVector(0.0, 0.0), JonesVector(0.0, 0.0), PI + 0.25)
    assert pair.basis == pytest.approx(0.25, abs=1e-12)
    pair = ModePair(JonesVector(0.0, 0.0), JonesVector(0.0, 0.0), -0.25)
    assert pair.basis == pytest.approx(PI - 0.25, abs=1e-12)


def test_mode_pair_replace_runs_the_checks():
    pair = ModePair(JonesVector(0.0, 0.0), JonesVector(0.0, 0.0), 0.25)
    with pytest.raises(ValueError):
        pair._replace(basis=math.inf)
    assert pair._replace(basis=-0.25).basis == pytest.approx(PI - 0.25, abs=1e-12)
