"""Single-photon runs under the three ontology modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab.audit import simulate_ensemble
from retrolab.core import JonesVector, angle_diff, angles_equal, malus, normalize_angle, pol_angle
from retrolab.optics import pbs_combine
from retrolab.photon import (
    OntologyMode,
    PhotonState,
    UndefinedPosteriorError,
    born_probability,
    demon_inputs_superposition,
    emit_from_channel,
    retrodict_channel,
)
from retrolab.stats import RandomStream

PI = math.pi
HALF_PI = PI / 2

angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_photon_state_unit_intensity():
    from retrolab.core import JonesVector

    s = PhotonState.linear(0.3)
    assert s.angle == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        PhotonState(JonesVector(1.0, 1.0))  # intensity 2, not a single photon


def test_photon_state_replace_runs_the_checks():
    with pytest.raises(ValueError, match="unit intensity"):
        PhotonState.linear(0.3)._replace(jones=JonesVector(1.0, 1.0))
    state = PhotonState.linear(0.3)._replace(jones=JonesVector(0.0, 1.0))
    assert type(state) is PhotonState and state.jones == (0j, 1 + 0j)


def test_born_probability_pins():
    assert born_probability(PhotonState.linear(0.5), 0.5) == pytest.approx(1.0, abs=1e-12)
    assert born_probability(PhotonState.linear(0.5), 0.5 + HALF_PI) == pytest.approx(0.0, abs=1e-12)
    assert born_probability(PhotonState.linear(0.3), 1.0) == pytest.approx(
        0.5849835714501206, abs=1e-12
    )


def test_aligned_and_orthogonal_exits_are_deterministic():
    # a photon on the right setting's axis always exits on channel 1, one
    # orthogonal to it on channel 0, and the return leg takes that axis: at
    # aligned and at orthogonal settings, each input channel has one exit
    for sigma_r in (0.7, 0.7 + HALF_PI):
        ens = simulate_ensemble(OntologyMode.DISCRETE_SYMMETRIC, 0.7, sigma_r, 1000, RandomStream(0))
        for channel in (0, 1):
            exit_1 = angles_equal(emit_from_channel(channel, 0.7).angle, sigma_r)
            runs = ens.in_channel == channel
            assert runs.sum() > 400  # even inputs: both channels are well sampled
            assert (ens.out_channel[runs] == exit_1).all()
            tau_r = sigma_r if exit_1 else sigma_r + HALF_PI
            assert all(angles_equal(t, tau_r) for t in ens.tau_r[runs])


def test_ensemble_exit_rate_is_malus():
    # tau - sigma = pi/6 for channel-1 inputs: their channel-1 exit frequency
    # must sit at cos^2 within MC noise, and channel-0 inputs' at sin^2
    for mode in (OntologyMode.DISCRETE_SYMMETRIC, OntologyMode.COLLAPSE):
        ens = simulate_ensemble(mode, PI / 6, 0.0, 40_000, RandomStream(21))
        for channel, rate in ((1, 0.75), (0, 0.25)):
            runs = ens.in_channel == channel
            assert runs.sum() >= 19_000, mode
            assert abs(float(ens.out_channel[runs].mean()) - rate) < 0.01, (mode, channel)


def test_emit_from_channel():
    assert emit_from_channel(1, 0.4).angle == pytest.approx(0.4, abs=1e-12)
    assert emit_from_channel(0, 0.4).angle == pytest.approx(0.4 + HALF_PI, abs=1e-12)
    # wraps back into [0, pi)
    assert emit_from_channel(0, 3 * PI / 4).angle == pytest.approx(PI / 4, abs=1e-12)
    with pytest.raises(ValueError):
        emit_from_channel(2, 0.0)


def test_retrodict_pins():
    assert retrodict_channel(0.4, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert retrodict_channel(0.4 + PI / 6, 0.4) == pytest.approx(0.75, abs=1e-12)
    # a confident source prior swamps the Malus factor
    assert retrodict_channel(0.4 + PI / 6, 0.4, prior_1=0.99) == pytest.approx(
        0.9966442953020135, abs=1e-12
    )


def test_retrodict_reduces_large_settings_first():
    assert retrodict_channel(normalize_angle(1e17), 1e17) == pytest.approx(1.0, abs=1e-12)
    assert retrodict_channel(1e17, normalize_angle(1e17)) == pytest.approx(1.0, abs=1e-12)


def test_retrodict_undefined():
    # prior certain of channel 0, polarization exactly on channel 1's value:
    # every channel gets zero posterior mass
    with pytest.raises(UndefinedPosteriorError):
        retrodict_channel(0.4, 0.4, prior_1=0.0)


@given(angles, st.floats(0.01, 0.99))
def test_retrodict_is_a_probability(offset, prior):
    p = retrodict_channel(0.4 + offset, 0.4, prior_1=prior)
    assert 0.0 <= p <= 1.0


def test_superposition_demon_amplitude_pins():
    pair = demon_inputs_superposition(0.0, PI / 3)
    # amplitudes (cos, sin) of the offset on the two ports
    assert math.sqrt(pair.trans.intensity) == pytest.approx(0.5, abs=1e-5)
    assert math.sqrt(pair.refl.intensity) == pytest.approx(0.86603, abs=1e-5)
    beam = pbs_combine(pair)
    assert abs(angle_diff(pol_angle(beam), PI / 3)) < 1e-9


def test_superposition_demon_target_on_axis():
    pair = demon_inputs_superposition(0.7, 0.7)
    assert pair.trans.intensity == pytest.approx(1.0, abs=1e-12)
    assert pair.refl.intensity == pytest.approx(0.0, abs=1e-12)


@given(angles, angles)
def test_superposition_demon_complete(setting, target):
    beam = pbs_combine(demon_inputs_superposition(setting, target))
    assert beam.intensity == pytest.approx(1.0, abs=1e-9)
    assert abs(angle_diff(pol_angle(beam), target)) < 1e-9


@given(angles, angles)
def test_no_collapse_branch_weights_are_probabilities(sigma_l, sigma_r):
    # both branches of every run are kept, weighted 0..1 and summing to 1
    ens = simulate_ensemble(OntologyMode.NO_COLLAPSE, sigma_l, sigma_r, 2, RandomStream(0))
    for record in ens._table_records():
        w1, w0 = record.weights
        assert 0.0 <= w1 <= 1.0 and 0.0 <= w0 <= 1.0
        assert abs(w1 + w0 - 1.0) <= 1e-12


def test_no_collapse_weights_are_born_probabilities():
    # a photon prepared at 0.9 meets the right cube at 0: branch weight cos^2
    ens = simulate_ensemble(OntologyMode.NO_COLLAPSE, 0.9, 0.0, 2, RandomStream(0))
    weights = {int(c): float(w) for c, w in zip(ens.table["in_channel"], ens.table["weight_1"])}
    assert weights[1] == pytest.approx(malus(0.9), abs=1e-12)
    assert weights[0] == pytest.approx(1.0 - malus(0.9), abs=1e-12)
    record = next(r for r in ens._table_records() if r.in_channel == 1)
    assert record.weights[1] == pytest.approx(1.0 - malus(0.9), abs=1e-12)


def test_trajectory_field_signatures():
    # which columns a mode keeps is its record signature
    signatures = {
        OntologyMode.DISCRETE_SYMMETRIC: ("qm-discrete", {"in_channel", "out_channel", "tau_l", "tau_r"}),
        OntologyMode.COLLAPSE: ("qm-collapse", {"in_channel", "out_channel", "tau_l"}),
        OntologyMode.NO_COLLAPSE: ("qm-nocollapse", {"in_channel", "tau_l", "weight_1"}),
    }
    for mode, (model, columns) in signatures.items():
        ens = simulate_ensemble(mode, 0.1, 0.9, 100, RandomStream(5))
        assert ens.model == model
        for name in ("in_channel", "out_channel", "tau_l", "tau_r", "weight_1"):
            assert (getattr(ens, name) is not None) == (name in columns), (mode, name)
        if ens.weight_1 is not None:
            assert ((ens.weight_1 >= 0.0) & (ens.weight_1 <= 1.0)).all()


@settings(max_examples=30)
@given(angles, angles, st.integers(0, 2**32 - 1))
def test_trajectory_beables_pinned_to_settings(sl, sr, seed):
    ens = simulate_ensemble(OntologyMode.DISCRETE_SYMMETRIC, sl, sr, 32, RandomStream(seed))
    for in_channel, out_channel, tau_l, tau_r in zip(
        ens.in_channel, ens.out_channel, ens.tau_l, ens.tau_r
    ):
        assert angles_equal(tau_l, sl) or angles_equal(tau_l, sl + HALF_PI)
        assert angles_equal(tau_r, sr) or angles_equal(tau_r, sr + HALF_PI)
        # channel labels agree with which axis the beable sits on
        assert angles_equal(tau_l, sl) == (in_channel == 1)
        assert angles_equal(tau_r, sr) == (out_channel == 1)


def test_equal_settings_repeat_channel():
    ens = simulate_ensemble(OntologyMode.DISCRETE_SYMMETRIC, 0.6, 0.6, 10_000, RandomStream(8))
    assert (ens.in_channel == ens.out_channel).all()


def test_ensemble_statistics_match_malus():
    sl, sr = 0.0, PI / 4
    ens = simulate_ensemble(OntologyMode.DISCRETE_SYMMETRIC, sl, sr, 1_000_000, RandomStream(9))
    p_repeat = float((ens.in_channel == ens.out_channel).mean())
    assert abs(p_repeat - 0.5) < 0.002
    assert abs(float(ens.in_channel.mean()) - 0.5) < 0.002


def test_collapse_ensemble_has_no_return_beable():
    ens = simulate_ensemble(OntologyMode.COLLAPSE, 0.0, 1.0, 1000, RandomStream(2))
    assert ens.tau_r is None
    assert ens.out_channel is not None


def test_unknown_mode_rejected_before_sampling(monkeypatch):
    def sampled(self):
        raise AssertionError("sampled before the mode check")

    monkeypatch.setattr(RandomStream, "generator", sampled)
    with pytest.raises(ValueError, match="unknown ontology mode: 'discrete'"):
        simulate_ensemble("discrete", 0.3, 1.2, 10**7, RandomStream(1))


def test_nocollapse_ensemble_weights():
    sl, sr = 0.2, 1.1
    ens = simulate_ensemble(OntologyMode.NO_COLLAPSE, sl, sr, 1000, RandomStream(3))
    assert ens.out_channel is None
    w = np.asarray(ens.weight_1)
    expected_in1 = malus(sl - sr)
    assert np.allclose(w[ens.in_channel == 1], expected_in1, atol=1e-12)
    assert np.allclose(w[ens.in_channel == 0], 1.0 - expected_in1, atol=1e-12)


@pytest.mark.parametrize("prior", [1.7, -0.1, float("nan"), float("inf")])
def test_retrodict_rejects_bad_prior(prior):
    with pytest.raises(ValueError, match="prior"):
        retrodict_channel(0.1, 0.5, prior_1=prior)
