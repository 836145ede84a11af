"""The two obstruction games and the assumption-to-conclusion sweep."""

import math

import pytest
from hypothesis import given, strategies as st

from retrolab.core import angle_diff, angles_equal, normalize_angle
from retrolab.games import (
    ALL_ANGLES,
    KIND_CLASSICAL,
    KIND_DISCRETE,
    KIND_SUPERPOSITION,
    ControlReport,
    Demon,
    DiscretePair,
    classical_target_demon,
    constant_channel_demon,
    play_lena_round,
    retro_implication_holds,
    superposition_target_demon,
    verify_lena_control,
    verify_rena_control,
)
from retrolab.hvmodels import REGISTRY
from retrolab.core import JonesVector
from retrolab.optics import ModePair, demon_inputs_classical
from retrolab.photon import OntologyMode

PI = math.pi
HALF_PI = PI / 2

angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_discrete_demon_is_stuck_on_the_setting_axes():
    for channel, offset in ((1, 0.0), (0, HALF_PI)):
        tau = play_lena_round(0.4, constant_channel_demon(channel))
        assert angles_equal(tau, 0.4 + offset)


def test_discrete_demon_can_refuse():
    assert play_lena_round(0.4, constant_channel_demon(None)) is None


def test_classical_demon_hits_any_target():
    tau = play_lena_round(1.3, classical_target_demon(0.2))
    assert abs(angle_diff(tau, 0.2)) < 1e-9


def test_superposition_demon_hits_any_target():
    tau = play_lena_round(1.3, superposition_target_demon(1.0))
    assert abs(angle_diff(tau, 1.0)) < 1e-9


@given(angles, angles)
def test_field_demons_complete(setting, target):
    for demon in (classical_target_demon(target), superposition_target_demon(target)):
        tau = play_lena_round(setting, demon)
        assert tau is not None
        assert abs(angle_diff(tau, target)) < 1e-9


def test_round_rejects_wrong_basis_inputs():
    stale = Demon(KIND_CLASSICAL, lambda setting: demon_inputs_classical(0.3, 1.0))
    play_lena_round(0.3, stale)  # matching setting is fine
    with pytest.raises(ValueError):
        play_lena_round(0.9, stale)


def test_round_rejects_multi_photon_superposition():
    from retrolab.photon import demon_inputs_superposition

    def doubled(setting):
        pair = demon_inputs_superposition(setting, 0.7)
        trans, refl = (JonesVector(2.0 * m.ex, 2.0 * m.ey) for m in (pair.trans, pair.refl))
        return ModePair(trans, refl, pair.basis)

    with pytest.raises(ValueError):
        play_lena_round(0.2, Demon(KIND_SUPERPOSITION, doubled))


def test_dark_classical_inputs_yield_no_beam():
    demon = Demon(KIND_CLASSICAL, lambda s: demon_inputs_classical(s, 0.0, 0.0))
    assert play_lena_round(0.5, demon) is None


def test_achievable_sets():
    pair = verify_lena_control(0.4, KIND_DISCRETE).achievable
    assert isinstance(pair, DiscretePair)
    assert pair.contains(0.4) and pair.contains(0.4 + HALF_PI)
    assert not pair.contains(0.4 + 0.3)
    assert verify_lena_control(0.4, KIND_CLASSICAL).achievable is ALL_ANGLES
    assert verify_lena_control(0.4, KIND_SUPERPOSITION).achievable is ALL_ANGLES
    with pytest.raises(ValueError):
        verify_lena_control(0.4, "psychic")


def test_demon_and_lena_control_reject_one_kind_alike():
    with pytest.raises(ValueError) as demon_error:
        Demon("psychic", lambda setting: 1)
    with pytest.raises(ValueError) as report_error:
        verify_lena_control(0.4, "psychic")
    assert str(demon_error.value) == str(report_error.value)
    assert "'psychic'" in str(demon_error.value)
    with pytest.raises(TypeError):
        play_lena_round(0.4, object())


def test_demon_replace_runs_the_checks():
    demon = constant_channel_demon(1)
    with pytest.raises(ValueError, match="'psychic'"):
        demon._replace(kind="psychic")
    assert demon._replace(kind=KIND_DISCRETE) == demon


def test_control_mod_is_read_off_the_achievable_set():
    assert ControlReport("left", 0.4, DiscretePair(0.4, 0.4 + HALF_PI)).control_mod == HALF_PI
    assert ControlReport("left", 0.4, ALL_ANGLES).control_mod is None
    with pytest.raises(TypeError):
        ControlReport("left", 0.4, ALL_ANGLES, control_mod=None)


def test_rena_control_rejects_bad_shift_and_mode():
    with pytest.raises(ValueError, match="shift must be finite"):
        verify_rena_control(0.7, math.inf, OntologyMode.COLLAPSE)
    for mode in ("discrete", "collapse", None):
        with pytest.raises(ValueError, match="unknown ontology mode"):
            verify_rena_control(0.7, PI / 6, mode)


@given(angles)
def test_lena_control_discrete(setting):
    report = verify_lena_control(setting, KIND_DISCRETE)
    assert report.control_mod == pytest.approx(HALF_PI)
    assert report.achievable.contains(setting)
    # exhaustive: nothing off the two axes is reachable by any channel choice
    for channel in (0, 1):
        tau = play_lena_round(setting, constant_channel_demon(channel))
        assert report.achievable.contains(tau)


def test_lena_control_field_demons():
    for kind in (KIND_CLASSICAL, KIND_SUPERPOSITION):
        report = verify_lena_control(0.8, kind)
        assert report.achievable is ALL_ANGLES
        assert report.control_mod is None


def test_rena_control_discrete():
    report = verify_rena_control(0.7, PI / 6, OntologyMode.DISCRETE_SYMMETRIC)
    assert report.control_mod == pytest.approx(HALF_PI)
    assert report.achievable.contains(0.7)
    assert report.shifted_achievable.contains(0.7 + PI / 6)
    assert report.shift_detectable is True


def test_rena_control_quarter_turn_shift_is_blind():
    # the one shift size the orthogonal pair cannot register
    report = verify_rena_control(0.7, HALF_PI, OntologyMode.DISCRETE_SYMMETRIC)
    assert report.shift_detectable is False


def test_rena_control_reduces_the_shift_first():
    # 0.3 + 1e17 would round the setting away; the shift is a direction
    report = verify_rena_control(0.3, 1e17, OntologyMode.DISCRETE_SYMMETRIC)
    reduced = verify_rena_control(0.3, normalize_angle(1e17), OntologyMode.DISCRETE_SYMMETRIC)
    assert report.shifted_achievable == reduced.shifted_achievable
    assert report.rho == 1e17


def test_rena_control_continuous_modes():
    for mode in (OntologyMode.COLLAPSE, OntologyMode.NO_COLLAPSE):
        report = verify_rena_control(0.7, PI / 6, mode)
        assert report.achievable is ALL_ANGLES
        assert report.control_mod is None
        assert report.shifted_achievable is ALL_ANGLES
        assert report.shift_detectable is False


def test_rena_control_by_registered_model():
    def report(model):
        return verify_rena_control(0.5, PI / 6, REGISTRY[model].ontology)

    assert report("twobit").control_mod == pytest.approx(HALF_PI)
    assert report("onebit").control_mod == pytest.approx(HALF_PI)
    assert report("classical").achievable is ALL_ANGLES
    assert report("qm-collapse").control_mod is None


def test_discrete_pair_validation():
    with pytest.raises(ValueError):
        DiscretePair(0.0, 0.3)
    a = DiscretePair(0.0, HALF_PI)
    b = DiscretePair(0.3, 0.3 + HALF_PI)
    assert a.disjoint_from(b)
    assert not a.disjoint_from(DiscretePair(HALF_PI, PI))


def test_discrete_pair_replace_runs_the_checks():
    with pytest.raises(ValueError, match="orthogonal"):
        DiscretePair(0.0, HALF_PI)._replace(second=0.3)
    assert DiscretePair(0.0, HALF_PI)._replace(first=PI) == DiscretePair(0.0, HALF_PI)


def test_ontology_modes_fix_two_commitments():
    # a model's time symmetry and discrete outputs are read off its mode
    commitments = {mode: (mode.time_symmetric, mode.discrete_outputs) for mode in OntologyMode}
    assert commitments == {
        OntologyMode.DISCRETE_SYMMETRIC: (True, True),
        OntologyMode.COLLAPSE: (False, True),
        OntologyMode.NO_COLLAPSE: (True, False),
    }


def test_ontology_premises():
    assert REGISTRY["twobit"].premise
    assert REGISTRY["onebit"].premise
    assert REGISTRY["qm-discrete"].premise
    assert not REGISTRY["classical"].premise  # continuous outputs
    assert not REGISTRY["qm-collapse"].premise  # time-asymmetric records
    assert not REGISTRY["qm-nocollapse"].premise  # no discrete outcome


@given(angles, angles, angles)
def test_implication_universal(sl, sr, alt):
    # The bit-model shift scales as sin(alt - sr) * sin(2*sl - sr - alt), so
    # triples within ~1e-3 of either vanishing manifold can land under the
    # detector's 1e-9 analytic tolerance (worst case ~5e-7 at both margins).
    # Keep the sweep boundedly generic; the manifolds themselves are pinned
    # as exhibits elsewhere in this file.
    d_equal = abs(math.remainder(sr - alt, PI))
    if d_equal < 1e-3:
        return  # alt must name a (generically) different direction
    if abs(d_equal - HALF_PI) < 1e-9:
        return  # exact quarter turn: the pair-valued beable cannot register it
    if abs(math.remainder(2 * sl - sr - alt, PI)) < 1e-3:
        return  # reflected alt: a blind exhibit for the bit models, see below
    for onto in REGISTRY.values():
        assert retro_implication_holds(onto, sl, sr, alt, PI / 6)


def test_reflected_alt_is_a_blind_exhibit():
    """cos^2 is even, so an alt mirrored about sigma_l leaves the bit-model
    beable distributions unchanged; such a triple demonstrates nothing and
    the implication check must be fed a generic one instead."""
    from retrolab.hvmodels import settings_dependence

    rep = settings_dependence("twobit", 0.0, 0.3, -0.3)
    assert rep.tv_distance == pytest.approx(0.0, abs=1e-12)
    assert rep.retro is False
    # the photon model keys its return-leg beable by direction, not by cos^2,
    # so the same triple still registers there
    rep = settings_dependence("qm-discrete", 0.0, 0.3, -0.3)
    assert rep.retro is True


def test_left_right_mirror_symmetry():
    # same setting: identical achievable pair and granularity on both sides
    left = verify_lena_control(0.6, KIND_DISCRETE)
    right = verify_rena_control(0.6, PI / 6, OntologyMode.DISCRETE_SYMMETRIC)
    assert left.achievable == pytest.approx(right.achievable)
    assert left.control_mod == right.control_mod
