"""Hidden-variable joints, beable distributions, settings-dependence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab.audit import (
    audit_symmetry,
    generate_ensemble,
    simulate_onebit_ensemble,
    simulate_twobit_ensemble,
)
from retrolab.core import malus, normalize_angle
from retrolab.hvmodels import (
    REGISTRY,
    HVJoint,
    ModelSpec,
    UnknownModelError,
    channel_joint,
    model_ids,
    model_spec,
    onebit_beable_input_joint,
    qm_reference_joint,
    settings_dependence,
    twobit_beable_input_joint,
    twobit_dist,
)
from retrolab.stats import RandomStream, mutual_information_bits, tv_distance

PI = math.pi

angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_hvjoint_validation():
    HVJoint(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        HVJoint(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        HVJoint(0.3, 0.3, 0.3, 0.3)


def test_hvjoint_replace_runs_the_checks():
    with pytest.raises(ValueError, match="out of range"):
        HVJoint(0.25, 0.25, 0.25, 0.25)._replace(p00=5.0)
    with pytest.raises(ValueError, match="sum to 1"):
        HVJoint(0.25, 0.25, 0.25, 0.25)._replace(p00=0.5)
    assert HVJoint(0.25, 0.25, 0.25, 0.25)._replace(p00=0.5, p11=0.0) == (0.5, 0.25, 0.25, 0.0)


def test_twobit_dist_pins():
    j = twobit_dist(0.0, PI / 3)
    assert j == pytest.approx((0.125, 0.375, 0.375, 0.125), abs=1e-12)
    j = twobit_dist(0.0, PI / 4)
    assert j == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)
    j = twobit_dist(0.0, 1.0472)
    assert j.prob(0, 0) == pytest.approx(0.12499893963852159, abs=1e-15)
    assert j.prob(0, 1) == pytest.approx(0.3750010603614784, abs=1e-15)
    assert j.p_match == pytest.approx(0.24999787927704317, abs=1e-15)


def test_twobit_degenerate_settings():
    j = twobit_dist(0.7, 0.7)
    assert j.prob(0, 1) == 0.0 and j.prob(1, 0) == 0.0
    j = twobit_dist(0.0, PI / 2)
    assert j.prob(0, 0) == pytest.approx(0.0, abs=1e-12)
    assert j.prob(1, 1) == pytest.approx(0.0, abs=1e-12)


def test_p_match_pins():
    # the onebit model's chance that the exit repeats the entry
    assert twobit_dist(0.3, 0.3).p_match == 1.0
    assert twobit_dist(0.0, PI / 2).p_match == pytest.approx(0.0, abs=1e-12)
    assert twobit_dist(0.0, PI / 6).p_match == pytest.approx(0.75, abs=1e-12)
    assert twobit_dist(0.0, 0.9).p_match == pytest.approx(0.3863989526534564, abs=1e-12)


@given(angles, angles)
def test_twobit_matches_photon_enumeration(sl, sr):
    """The two-bit table and the trajectory enumeration are the same joint."""
    t = twobit_dist(sl, sr)
    q = qm_reference_joint(sl, sr)
    assert max(abs(a - b) for a, b in zip(t, q)) < 1e-12


@pytest.mark.parametrize("big", (1e9, 1e17, -1e17, 2.0**60))
def test_closed_forms_reduce_settings_first(big):
    # the samplers reduce each setting to [0, pi) before a quarter turn or a
    # difference; the closed forms must too, or they part at large angles
    small = normalize_angle(big)
    for model in model_ids(stochastic=True):
        assert channel_joint(model, big, 0.2) == channel_joint(model, small, 0.2)
        assert channel_joint(model, 0.2, big) == channel_joint(model, 0.2, small)
    for model in model_ids():
        beables = model_spec(model).beable_distribution
        assert beables(big, 0.2) == beables(small, 0.2)
        assert beables(0.2, big) == beables(0.2, small)
    for sl, sr in ((big, 0.2), (0.2, big)):
        assert channel_joint("qm-discrete", sl, sr) == pytest.approx(twobit_dist(sl, sr), abs=2e-16)


def test_qm_reference_uniform_at_quarter_turn():
    q = qm_reference_joint(0.0, PI / 4)
    assert q == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def test_channel_joint_dispatch():
    assert channel_joint("twobit", 0.1, 0.9) == twobit_dist(0.1, 0.9)
    assert channel_joint("qm-discrete", 0.1, 0.9) == qm_reference_joint(0.1, 0.9)
    ob = channel_joint("onebit", 0.0, PI / 6)
    assert ob.p_match == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(UnknownModelError):
        channel_joint("classical", 0.0, 0.5)
    with pytest.raises(UnknownModelError):
        channel_joint("nope", 0.0, 0.5)


def test_sample_twobit_statistics():
    ens = simulate_twobit_ensemble(0.0, PI / 6, 20_000, RandomStream(31))
    hits = int((ens.in_channel == ens.out_channel).sum())
    assert abs(hits / 20_000 - 0.75) < 0.01


def test_twobit_ensemble_matches_analytic():
    ens = simulate_twobit_ensemble(0.0, PI / 6, 1_000_000, RandomStream(32))
    counts = np.bincount(ens.in_channel.astype(np.int64) * 2 + ens.out_channel, minlength=4)
    emp = {f"{a}{b}": counts[2 * a + b] / 1_000_000 for a in (0, 1) for b in (0, 1)}
    assert tv_distance(emp, twobit_dist(0.0, PI / 6).as_dict()) <= 0.003


def test_twobit_ensemble_degenerate():
    ens = simulate_twobit_ensemble(0.4, 0.4, 10_000, RandomStream(33))
    assert (ens.in_channel == ens.out_channel).all()
    ens = simulate_twobit_ensemble(0.0, PI / 2, 10_000, RandomStream(34))
    assert (ens.in_channel != ens.out_channel).all()


def test_onebit_parity_statistics():
    ens = simulate_onebit_ensemble(0.0, PI / 6, 20_000, RandomStream(35))
    repeats = int((ens.in_channel == ens.out_channel).sum())
    assert abs(repeats / 20_000 - 0.75) < 0.01


def test_onebit_ensemble_flip_rate():
    sl, sr = 0.0, 0.9
    ens = simulate_onebit_ensemble(sl, sr, 1_000_000, RandomStream(36))
    flip = float((ens.in_channel != ens.out_channel).mean())
    assert abs(flip - math.sin(sl - sr) ** 2) < 0.002


def test_beable_distribution_shapes():
    def beables(model, sigma_l, sigma_r):
        return model_spec(model).beable_distribution(sigma_l, sigma_r)

    assert sum(beables("twobit", 0.0, 0.9).values()) == pytest.approx(1.0, abs=1e-12)
    d = beables("onebit", 0.0, PI / 6)
    assert d[1] == pytest.approx(0.75, abs=1e-12)
    d = beables("classical", 0.7, 0.2)
    assert len(d) == 1 and next(iter(d.values())) == 1.0
    d = beables("qm-discrete", 0.0, 0.9)
    assert len(d) == 4  # 2 input channels x 2 return-leg polarizations
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    d = beables("qm-discrete", 0.0, PI / 4)
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in d.values())
    d = beables("qm-collapse", 0.0, 0.9)
    assert len(d) == 2
    with pytest.raises(UnknownModelError):
        beables("nope", 0.0, 0.9)


# every entry point that needs a model's channel statistics
SAMPLED_ENTRY_POINTS = (
    lambda model: channel_joint(model, 0.0, 0.5),
    lambda model: generate_ensemble(model, 0.0, 0.5, 100, RandomStream(2)),
    lambda model: audit_symmetry(model, 0.0, 0.5, 10_000, RandomStream(2)),
)


@pytest.mark.parametrize("model", ["classical", "nope"])
def test_sampled_entry_points_give_one_unknown_model_message(model):
    messages = set()
    for call in SAMPLED_ENTRY_POINTS:
        with pytest.raises(UnknownModelError) as err:
            call(model)
        messages.add(str(err.value))
    assert messages == {
        f"no channel statistics for model {model!r}; expected one of {model_ids(stochastic=True)}"
    }


def test_model_spec_fields():
    # the ontology mode carries time symmetry and discrete outputs
    assert ModelSpec._fields == ("model", "beable_distribution", "beable", "ontology", "joint",
                                 "sampler", "sampler_args")


@pytest.mark.parametrize("missing", ["joint", "sampler"])
def test_model_spec_needs_joint_and_sampler_together(missing):
    with pytest.raises(ValueError, match="both a joint and a sampler"):
        ModelSpec(**REGISTRY["twobit"]._asdict() | {missing: None})
    # a model without channel statistics has neither
    assert ModelSpec(**REGISTRY["twobit"]._asdict() | {"joint": None, "sampler": None}).sampler is None


@pytest.mark.parametrize("missing", ["joint", "sampler"])
def test_model_spec_replace_runs_the_checks(missing):
    with pytest.raises(ValueError, match="both a joint and a sampler"):
        REGISTRY["twobit"]._replace(**{missing: None})
    spec = REGISTRY["twobit"]._replace(joint=None, sampler=None)
    assert type(spec) is ModelSpec and spec.sampler is None


def test_settings_dependence_twobit_pin():
    rep = settings_dependence("twobit", 0.0, 0.0, PI / 3)
    assert rep.tv_distance == pytest.approx(0.75, abs=1e-12)
    assert rep.retro is True


def test_settings_dependence_qm_discrete():
    rep = settings_dependence("qm-discrete", 0.0, 0.2, 0.9)
    assert rep.tv_distance == pytest.approx(1.0, abs=1e-12)
    assert rep.retro is True
    # a quarter-turn alt setting relabels the same pair of directions
    rep = settings_dependence("qm-discrete", 0.0, 0.2, 0.2 + PI / 2)
    assert rep.retro is False


# 10-decimal right settings whose quarter turn the labels once rounded apart
_QUARTER_TURN_PINS = (1.0955131495, 0.2710417465, 0.5064569705, 2.1278775005)


@pytest.mark.parametrize("sr", _QUARTER_TURN_PINS)
def test_quarter_turn_alt_registers_nothing_at_pinned_settings(sr):
    rep = settings_dependence("qm-discrete", 0.0, sr, sr + PI / 2)
    assert rep.retro is False and rep.tv_distance < 1e-9


@settings(max_examples=200)
@given(angles, st.integers(0, 31_415_926_535))
def test_quarter_turn_alt_registers_nothing(sl, k):
    sr = k / 1e10  # a right setting with 10 decimals
    assert settings_dependence("qm-discrete", sl, sr, sr + PI / 2).retro is False


@settings(max_examples=300)
@given(angles, st.sampled_from([0.0, PI, -PI, 2 * PI]), st.sampled_from([1e-9, -1e-9]),
       st.integers(-4, 4))
def test_alt_accepted_as_different_registers(sr, turns, tol, ulps):
    # an alternative right setting within ulps of the tolerance from sigma_r
    # is either rejected as the same direction or registers as a new one
    alt = sr + turns + tol
    for _ in range(abs(ulps)):
        alt = math.nextafter(alt, math.copysign(math.inf, ulps))
    try:
        rep = settings_dependence("qm-discrete", 0.3, sr, alt)
    except ValueError:
        return
    assert rep.retro is True


@settings(max_examples=40)
@given(angles, angles, angles)
def test_settings_dependence_immune_models(sl, sr, alt):
    if abs(math.remainder(sr - alt, PI)) < 1e-6:
        return  # alt must be a genuinely different setting
    for model in ("qm-collapse", "qm-nocollapse", "classical"):
        rep = settings_dependence(model, sl, sr, alt)
        assert rep.tv_distance == pytest.approx(0.0, abs=1e-12)
        assert rep.retro is False


def test_settings_dependence_rejects_equal_alt():
    with pytest.raises(ValueError):
        settings_dependence("twobit", 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        settings_dependence("twobit", 0.0, 0.5, 0.5 + PI)
    with pytest.raises(UnknownModelError):
        settings_dependence("nope", 0.0, 0.5, 0.9)


def test_model_lists():
    assert model_ids() == ("twobit", "onebit", "qm-discrete", "qm-collapse", "qm-nocollapse", "classical")
    assert set(model_ids(stochastic=True)) < set(model_ids())
    assert "classical" in model_ids() and "classical" not in model_ids(stochastic=True)


def test_beable_input_information_split():
    """Two-bit beable remembers the input exactly; parity bit is blind to it."""
    for sl, sr in [(0.0, PI / 6), (0.3, 1.2), (0.0, PI / 4)]:
        two = mutual_information_bits(twobit_beable_input_joint(sl, sr))
        one = mutual_information_bits(onebit_beable_input_joint(sl, sr))
        assert two == pytest.approx(1.0, abs=1e-12)
        assert one == 0.0
