"""Record reversal and the forward/backward distinguishability audit."""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab import audit, cli, hvmodels
from retrolab.audit import (
    MIN_AUDIT_N,
    PROFILE_CLASSES,
    _pairwise_sum,
    _side_a,
    _signature_counts,
    audit_symmetry,
    generate_ensemble,
    reverse_ensemble,
    score_band,
    symmetry_threshold,
)
from retrolab.core import ANGLE_TOL, on_axes
from retrolab.photon import OntologyMode
from retrolab.hvmodels import HVJoint, UnknownModelError, channel_joint, model_ids, model_spec
from retrolab.records import Ensemble, ExperimentRecord
from retrolab.stats import RandomStream
from test_golden import compensated_sum
from test_records import hand_built

PI = math.pi


def _one_row(model, sigma_l, sigma_r, **fields):
    """Ensemble of a single run whose table holds ``fields``."""
    return hand_built(model, sigma_l, sigma_r, np.zeros(1, dtype=np.uint8),
                       {field: np.array([value]) for field, value in fields.items()})


def test_reverse_record_swaps_slots():
    ens = _one_row("qm-discrete", 0.1, 0.9, in_channel=1, out_channel=0, tau_l=0.1, tau_r=1.4)
    rev = reverse_ensemble(ens).records()[0]
    assert rev.sigma_l == 0.9 and rev.sigma_r == 0.1
    assert rev.in_channel == 0 and rev.out_channel == 1
    assert rev.tau_l == 1.4 and rev.tau_r == 0.1
    assert rev.model == ens.model


def test_reverse_collapse_record_moves_the_gap():
    ens = _one_row("qm-collapse", 0.1, 0.9, in_channel=1, out_channel=0, tau_l=0.1)
    rev = reverse_ensemble(ens).records()[0]
    assert rev.tau_l is None and rev.tau_r == 0.1


@given(
    st.integers(0, 1), st.integers(0, 1),
    st.floats(0.0, 3.0), st.floats(0.0, 3.0),
    st.floats(0.0, 3.0), st.floats(0.0, 3.0),
)
def test_reverse_is_an_involution(in_ch, out_ch, sl, sr, tl, tr):
    ens = _one_row("qm-discrete", sl, sr, in_channel=in_ch, out_channel=out_ch, tau_l=tl, tau_r=tr)
    rec = ExperimentRecord(sigma_l=sl, sigma_r=sr, model="qm-discrete",
                           in_channel=in_ch, out_channel=out_ch, tau_l=tl, tau_r=tr)
    assert reverse_ensemble(reverse_ensemble(ens)).records() == [rec]


def test_reverse_ensemble_involution():
    ens = generate_ensemble("qm-discrete", 0.1, 0.8, 500, RandomStream(1))
    back = reverse_ensemble(reverse_ensemble(ens))
    assert back.sigma_l == ens.sigma_l
    assert (back.in_channel == ens.in_channel).all()
    assert (back.tau_r == ens.tau_r).all()


def test_generate_ensemble_dispatch():
    for model in model_ids(stochastic=True):
        ens = generate_ensemble(model, 0.0, 0.5, 100, RandomStream(2))
        assert ens.n == 100
        assert ens.model == model
    with pytest.raises(UnknownModelError):
        generate_ensemble("classical", 0.0, 0.5, 100, RandomStream(2))
    with pytest.raises(UnknownModelError):
        generate_ensemble("nope", 0.0, 0.5, 100, RandomStream(2))


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_samplers_draw_from_the_registered_joint(model, monkeypatch):
    # a registry copy whose joint always repeats the entry: a sampler that
    # reads its entry's joint, and no joint of its own, never lets the exit
    # differ from the entry
    repeat = HVJoint(0.5, 0.0, 0.0, 0.5)
    copy = hvmodels.REGISTRY[model]._replace(model="copy", joint=lambda sigma_l, sigma_r: repeat)
    monkeypatch.setitem(hvmodels.REGISTRY, "copy", copy)
    ens = generate_ensemble("copy", 0.3, 1.2, 5000, RandomStream(3))
    if ens.out_channel is None:
        assert (ens.weight_1 == ens.in_channel).all()
    else:
        assert (ens.out_channel == ens.in_channel).all()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["run", "--model", "copy", "--sigma-l", "0.3", "--sigma-r", "1.2",
                         "--n", "2000"]) == 0
    result = json.loads(stdout.getvalue())["result"]
    assert result["counts"]["01"] == result["counts"]["10"] == 0.0
    # the only distance left is the sampling noise of the even entry split
    assert result["tv_to_analytic"] == pytest.approx(abs(result["empirical"]["00"] - 0.5), abs=1e-12)


def test_audit_rejects_small_samples():
    with pytest.raises(ValueError):
        audit_symmetry("qm-discrete", 0.0, 0.5, MIN_AUDIT_N - 1, RandomStream(3))


@pytest.mark.parametrize("n", [2.5, 2.0, "2", np.float64(1.0)])
def test_non_integral_run_count_is_rejected(n):
    stream = RandomStream(4)
    for model in model_ids(stochastic=True):
        spec = model_spec(model)
        with pytest.raises(ValueError, match="integer count"):
            getattr(audit, spec.sampler)(spec, 0.0, 0.5, n, stream)
        with pytest.raises(ValueError, match="integer count"):
            generate_ensemble(model, 0.0, 0.5, n, stream)
        with pytest.raises(ValueError, match="integer count"):
            audit_symmetry(model, 0.0, 0.5, MIN_AUDIT_N + 0.5, stream)
        # numpy integers are integers
        assert getattr(audit, spec.sampler)(spec, 0.0, 0.5, np.int64(2), stream).n == 2
        assert generate_ensemble(model, 0.0, 0.5, np.int64(2), stream).n == 2
    assert audit_symmetry("twobit", 0.0, 0.5, np.int64(MIN_AUDIT_N), stream).n == MIN_AUDIT_N


def test_thresholds():
    assert symmetry_threshold(1_000_000) == pytest.approx(0.007071067811865475, abs=1e-15)
    assert score_band(1_000_000) == pytest.approx(0.0035355339059327377, abs=1e-15)
    assert symmetry_threshold(10_000) > symmetry_threshold(1_000_000)


def test_symmetric_models_pass():
    for i, model in enumerate(("qm-discrete", "twobit", "onebit")):
        report = audit_symmetry(model, 0.0, PI / 6, 200_000, RandomStream(50 + i))
        assert report.verdict == "symmetric", (model, report.verdict)
        assert report.tv_alignment <= report.threshold
        assert not report.convention_dependent


def test_symmetric_even_at_degenerate_settings():
    report = audit_symmetry("qm-discrete", 0.3, 0.3, 50_000, RandomStream(60))
    assert report.degenerate_settings
    assert report.verdict == "symmetric"


def test_nocollapse_symmetric_by_convention():
    report = audit_symmetry("qm-nocollapse", 0.2, 1.1, 50_000, RandomStream(61))
    assert report.verdict == "symmetric"
    assert report.convention_dependent  # side A compared as drawn


def test_collapse_fails_generic_settings():
    report = audit_symmetry("qm-collapse", 0.0, PI / 6, 200_000, RandomStream(62))
    assert report.verdict == "asymmetric"
    assert not report.symmetric
    # the missing return-leg beable shows up as a one-sided alignment profile
    assert report.forward_alignment["left_only"] == pytest.approx(1.0, abs=1e-12)
    assert report.reversed_alignment["left_only"] == pytest.approx(0.0, abs=1e-12)
    assert report.alignment_separation >= 0.99
    assert report.distinguisher_score >= 0.99


def test_collapse_degenerate_settings_are_inconclusive():
    # on-axis or orthogonal settings hide the gap; the slot bookkeeping still
    # differs but nothing observable grounds it
    for i, (a, b) in enumerate(((0.4, 0.4), (0.0, PI / 2))):
        report = audit_symmetry("qm-collapse", a, b, 50_000, RandomStream(70 + i))
        assert report.degenerate_settings
        assert report.verdict == "inconclusive", report.verdict
        assert report.tv_distance > report.threshold  # slots do differ
        assert report.tv_alignment <= report.threshold


def test_report_angles_are_normalized():
    report = audit_symmetry("twobit", PI + 0.1, 0.5, 20_000, RandomStream(80))
    assert report.sigma_a == pytest.approx(0.1, abs=1e-12)


# sigma_b written as each offset ± ANGLE_TOL in decimal, and whether
# rounding makes (0, sigma_b) degenerate: the flag is set on one side only
_AT_ANGLE_TOL = {
    0.0: ((1e-9, True), (-1e-9, False)),
    PI / 2: ((1.5707963257948967, True), (1.5707963277948966, False)),
}


@pytest.mark.parametrize("offset", (0.0, PI / 2))
def test_collapse_verdict_switches_at_angle_tol(offset):
    # settings more than ANGLE_TOL from equal or orthogonal are generic, so
    # the collapse audit sees its gap; within ANGLE_TOL they are degenerate
    far = audit_symmetry("qm-collapse", 0.0, offset + 1e-8, 10_000, RandomStream(7))
    assert far.verdict == "asymmetric" and not far.degenerate_settings
    near = audit_symmetry("qm-collapse", 0.0, offset + 1e-10, 10_000, RandomStream(7))
    assert near.verdict == "inconclusive" and near.degenerate_settings
    # at ANGLE_TOL the gap is still seen, but a degenerate pair is at most
    # inconclusive
    for sigma_b, degenerate in _AT_ANGLE_TOL[offset]:
        report = audit_symmetry("qm-collapse", 0.0, sigma_b, 10_000, RandomStream(7))
        assert report.degenerate_settings == degenerate, sigma_b
        assert report.verdict == ("inconclusive" if degenerate else "asymmetric"), sigma_b


_SWEEP_PAIRS = ((0.0, PI / 6), (0.3, 1.2), (0.4, 0.4), (0.0, 1e-10), (0.0, 1e-8), (0.3, 0.3 - 1e-9),
                (0.0, PI / 2), (0.0, PI / 2 + 2e-9), (1.2, 1.2 - PI / 2 - 1e-9), (2.9, 2.9 + PI / 2 + 1e-10))


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_score_and_alignment_tv_are_bounded_by_the_finer_signatures(model):
    # the profile coarsens the slot-free signature, which coarsens the slot
    # signature, so each TV bounds the next at every pair, near ANGLE_TOL too;
    # only the branch-weight records of qm-nocollapse lean on a convention
    for i, pair in enumerate(_SWEEP_PAIRS):
        report = audit_symmetry(model, *pair, MIN_AUDIT_N, RandomStream(90 + i))
        assert 2 * abs(report.distinguisher_score - 0.5) <= report.tv_alignment + 1e-15, pair
        assert report.tv_alignment <= report.tv_distance + 1e-15, pair
        assert report.convention_dependent == (model == "qm-nocollapse"), pair


@pytest.mark.parametrize("model", ("twobit", "onebit", "qm-discrete", "qm-nocollapse"))
@pytest.mark.parametrize("pair", ((0.0, PI / 6), (0.3, 1.2)))
def test_symmetric_models_stay_within_the_stated_false_positive_rate(model, pair):
    # each side's table-row counts are multinomial on the exact row
    # probabilities, as the L1 deviation bound assumes; at the loose
    # threshold t the bound 2 * 14 * exp(-n t^2 / 2) on tv_distance > t is 5%
    n, trials = MIN_AUDIT_N, 500
    t = math.sqrt(2 * math.log(560) / n)
    rng = np.random.default_rng(12)
    sides = []
    for (sigma_l, sigma_r), first in ((pair, True), (pair[::-1], False)):
        small = generate_ensemble(model, sigma_l, sigma_r, 16, RandomStream(0))
        rows = len(small.table["in_channel"])
        p = channel_joint(model, sigma_l, sigma_r) if rows == 4 else (0.5, 0.5)
        sides.append((small, p, first))
    fired = 0
    for _ in range(trials):
        slots = []
        for small, p, first in sides:
            codes = np.repeat(np.arange(len(p), dtype=np.uint8), rng.multinomial(n, p))
            ensemble = hand_built(small.model, small.sigma_l, small.sigma_r, codes, small.table)
            slots.append(np.array(_signature_counts(_side_a(ensemble)[0] if first else ensemble)[0]))
        fired += 0.5 * np.abs(slots[0] / n - slots[1] / n).sum() > t
    assert fired <= 0.05 * trials


@pytest.mark.parametrize("pair", ((0.0, PI / 6), (0.3, 1.2)))
def test_collapse_is_asymmetric_for_every_seed(pair):
    for seed in range(200):
        report = audit_symmetry("qm-collapse", *pair, MIN_AUDIT_N, RandomStream(seed))
        assert report.verdict == "asymmetric", seed


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _leg_aligned_with_both(model, sigma_a, sigma_b):
    # does either side of the audit hold a leg beable of class 2, "both"?
    for sl, sr in ((sigma_a, sigma_b), (sigma_b, sigma_a)):
        slots = _signature_counts(generate_ensemble(model, sl, sr, 1000, RandomStream(3)))[0]
        legs = np.array(slots).reshape(9, 5, 5)  # cell, left leg class, right leg class
        if legs[:, 2, :].any() or legs[:, :, 2].any():
            return True
    return False


@pytest.mark.parametrize("model", ("qm-collapse", "qm-discrete"))
@pytest.mark.parametrize("sigma_a", (0.0, 0.3, 1.2, 2.9))
def test_degenerate_settings_follow_the_leg_classes_within_ulps_of_angle_tol(model, sigma_a):
    # settings ANGLE_TOL from equal or orthogonal, give or take 3 ulps: the
    # flag is set exactly when a pinned beable is aligned with both settings
    for offset in (0.0, PI / 2):
        for tol in (ANGLE_TOL, -ANGLE_TOL):
            for k in range(-3, 4):
                sigma_b = _ulps(sigma_a + offset + tol, k)
                report = audit_symmetry(model, sigma_a, sigma_b, MIN_AUDIT_N, RandomStream(7))
                both = _leg_aligned_with_both(model, sigma_a, sigma_b)
                assert report.degenerate_settings == both, (sigma_a, sigma_b)


def test_no_symmetric_model_reads_asymmetric_within_ulps_of_angle_tol():
    # the sweep above, over every time-symmetric model: a symmetric model may
    # be inconclusive at a degenerate pair, never asymmetric
    symmetric = [m for m in model_ids(stochastic=True) if model_spec(m).ontology.time_symmetric]
    asymmetric = []
    for model in symmetric:
        for sigma_a in (0.0, 0.3, 1.2, 2.9):
            for offset in (0.0, PI / 2):
                for tol in (ANGLE_TOL, -ANGLE_TOL):
                    for k in range(-3, 4):
                        sigma_b = _ulps(sigma_a + offset + tol, k)
                        report = audit_symmetry(model, sigma_a, sigma_b, MIN_AUDIT_N,
                                                RandomStream(7))
                        if report.verdict == "asymmetric":
                            asymmetric.append((model, sigma_a, sigma_b))
    assert asymmetric == []


def _contradicted_commitments(model):
    """The commitments of ``model``'s ontology mode that its records contradict.

    Discrete outputs hold when the sampled table has an exit channel and no
    branch weight; time symmetry when the audit reads symmetric at two
    generic pairs, and its absence when it reads asymmetric at both.
    """
    ontology = model_spec(model).ontology
    table = generate_ensemble(model, 0.3, 1.2, 16, RandomStream(5)).table
    verdicts = {audit_symmetry(model, a, b, MIN_AUDIT_N, RandomStream(7)).verdict
                for a, b in ((0.3, 1.2), (0.0, 0.5236))}
    contradicted = []
    if ("out_channel" in table and "weight_1" not in table) != ontology.discrete_outputs:
        contradicted.append("discrete_outputs")
    if verdicts != {"symmetric" if ontology.time_symmetric else "asymmetric"}:
        contradicted.append("time_symmetric")
    return contradicted


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_records_keep_the_commitments_of_the_ontology(model):
    assert _contradicted_commitments(model) == []


@pytest.mark.parametrize("ontology, contradicted", [
    (OntologyMode.COLLAPSE, ["time_symmetric"]),
    (OntologyMode.NO_COLLAPSE, ["discrete_outputs"]),
])
def test_a_model_whose_ontology_its_records_contradict_is_caught(ontology, contradicted,
                                                                  monkeypatch):
    # the implication sweep takes the mode at its word; the records do not
    copy = hvmodels.ModelSpec(**hvmodels.REGISTRY["twobit"]._asdict()
                              | {"model": "twobit-copy", "ontology": ontology})
    monkeypatch.setitem(hvmodels.REGISTRY, "twobit-copy", copy)
    assert _contradicted_commitments("twobit-copy") == contradicted


# ---------------------------------------------------------------- per-row reference


def _reference_leg_classes(ensemble, angles):
    # 0 left-aligned only, 1 right only, 2 both, 3 neither, 4 absent
    n = ensemble.n
    if angles is None:
        return np.full(n, 4, dtype=np.int32)
    left = on_axes(angles, ensemble.sigma_l)
    right = on_axes(angles, ensemble.sigma_r)
    out = np.full(n, 3, dtype=np.int32)
    out[left & ~right] = 0
    out[~left & right] = 1
    out[left & right] = 2
    return out


def _reference_signature_counts(ensemble):
    n = ensemble.n
    cin = np.full(n, 2) if ensemble.in_channel is None else ensemble.in_channel.astype(np.int32)
    cout = np.full(n, 2) if ensemble.out_channel is None else ensemble.out_channel.astype(np.int32)
    cl = _reference_leg_classes(ensemble, ensemble.tau_l)
    cr = _reference_leg_classes(ensemble, ensemble.tau_r)
    slot = np.bincount(((cin * 3 + cout) * 5 + cl) * 5 + cr, minlength=225)
    pair_table = np.zeros((5, 5), dtype=np.int32)
    for a in range(5):
        for b in range(a, 5):
            pair_table[a, b] = a * 5 + b - a * (a + 1) // 2  # a<=b pairs in order, 0..14
    pair = pair_table[np.minimum(cl, cr), np.maximum(cl, cr)]
    free = np.bincount((cin * 3 + cout) * 15 + pair, minlength=9 * 15)
    return slot, free


def _reference_profile(ensemble):
    n = ensemble.n
    left = np.zeros(n, dtype=bool)
    right = np.zeros(n, dtype=bool)
    legs = [a for a in (ensemble.tau_l, ensemble.tau_r) if a is not None]
    if not legs:
        return {"no_beables": 1.0, "left_only": 0.0, "right_only": 0.0, "both": 0.0, "neither": 0.0}
    for angles in legs:
        left |= on_axes(angles, ensemble.sigma_l)
        right |= on_axes(angles, ensemble.sigma_r)
    return {
        "no_beables": 0.0,
        "left_only": float(np.mean(left & ~right)),
        "right_only": float(np.mean(~left & right)),
        "both": float(np.mean(left & right)),
        "neither": float(np.mean(~left & ~right)),
    }


def _fractions(profile, n):
    """Profile counts of n runs as the report's fractions, by class name."""
    return {name: count / n for name, count in zip(PROFILE_CLASSES, profile)}


def _near(sigma):
    # on a setting's axes and orthogonals, within and beyond ANGLE_TOL of them
    base = [sigma, sigma + PI / 2, sigma - PI / 2, sigma + PI]
    steps = (0.0, ANGLE_TOL / 2, -ANGLE_TOL / 2, 2 * ANGLE_TOL, -2 * ANGLE_TOL)
    return [b + s for b in base for s in steps]


_EDGE_ANGLES = [0.0, -0.0, math.nan, PI, -PI, np.nextafter(PI, 0.0), np.nextafter(PI, 4.0),
                PI / 2, 1e-300, -1e-300, 3.0, 0.1]


@st.composite
def _ensembles(draw):
    n = draw(st.integers(1, 500))
    sigma_l = draw(st.sampled_from([0.0, 0.3, PI / 2, np.nextafter(PI, 0.0), 2.9]))
    sigma_r = draw(st.sampled_from(_near(sigma_l)[:10] + [0.3, 1.2, -0.0, PI - 1e-12]))
    present = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    weights = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(_near(sigma_l) + _near(sigma_r) + _EDGE_ANGLES)
    layout = draw(st.sampled_from(("shared", "by-cell", "by-cell-with-outliers", "free")))

    if layout == "shared":
        # 1-9 table rows, duplicates likely, picked by random codes
        rows = draw(st.integers(1, 9))
        code_dtype = draw(st.sampled_from([np.uint8, np.int32, np.int64, np.uint64]))
        codes = rng.integers(0, rows, n).astype(code_dtype)
    else:
        # one table row per run
        rows, codes = n, np.arange(n)

    cin = rng.integers(0, 2, rows, dtype=np.int8)
    cout = rng.integers(0, 2, rows, dtype=np.int8)
    cell = cin * 3 + cout

    def leg():
        if layout == "shared":
            return rng.choice(pool, rows)
        if layout == "free":
            # not a function of the channels: pool angles and uniform noise
            return np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.uniform(-4.0, 4.0, n))
        angles = rng.choice(pool, 9)[cell]
        if layout == "by-cell-with-outliers":
            hit = rng.random(n) < 0.1
            angles[hit] = rng.choice(pool, int(hit.sum()))
        return angles

    columns = {
        "in_channel": cin if present[0] else None,
        "out_channel": cout if present[1] else None,
        "tau_l": leg() if present[2] else None,
        "tau_r": leg() if present[3] else None,
        "weight_1": rng.random(rows) if weights else None,
    }
    table = {field: values for field, values in columns.items() if values is not None}
    return hand_built("hand-built", sigma_l, sigma_r, codes, table)


def _in_blocks(ensemble, rows):
    """``ensemble`` drawn as blocks of ``rows`` runs."""
    codes = ensemble.codes
    return Ensemble(ensemble.model, ensemble.sigma_l, ensemble.sigma_r, ensemble.table, ensemble.n,
                    lambda: (codes[start:start + rows] for start in range(0, len(codes), rows)))


@settings(max_examples=300, deadline=None)
@given(_ensembles(), st.integers(1, 7))
def test_cell_counts_match_per_row_reference(ensemble, chunk_rows):
    # both orientations, as the audit sees them, counted in blocks of 1-7
    # rows, so cells and outliers straddle block boundaries
    for oriented in (ensemble, _side_a(ensemble)[0]):
        slot, free, profile = _signature_counts(_in_blocks(oriented, chunk_rows))
        ref_slot, ref_free = _reference_signature_counts(oriented)
        assert np.array_equal(slot, ref_slot)
        assert np.array_equal(free, ref_free)
        assert sum(slot) == oriented.n
        assert _fractions(profile, oriented.n) == _reference_profile(oriented)


def _assert_one_byte_codes(ens, n):
    assert ens.codes.dtype == np.uint8 and ens.codes.nbytes == n
    assert all(len(values) <= 4 for values in ens.table.values())


@pytest.mark.parametrize("model", model_ids(stochastic=True))
@pytest.mark.parametrize("pair", ((0.0, PI / 6), (0.0, 0.0), (0.0, PI / 2), (0.3, 1.2)))
def test_cell_counts_match_reference_on_generated_ensembles(model, pair):
    ens = generate_ensemble(model, *pair, 20_000, RandomStream(5))
    _assert_one_byte_codes(ens, 20_000)
    for oriented in (ens, _side_a(ens)[0]):
        slot, free, profile = _signature_counts(oriented)
        ref_slot, ref_free = _reference_signature_counts(oriented)
        assert np.array_equal(slot, ref_slot)
        assert np.array_equal(free, ref_free)
        assert _fractions(profile, oriented.n) == _reference_profile(oriented)


@pytest.mark.parametrize("field, values", [
    ("in_channel", np.array([-1, 1], dtype=np.int8)),
    ("in_channel", np.array([0, 3], dtype=np.int8)),
    ("out_channel", np.array([2, 0], dtype=np.int8)),
    ("out_channel", np.array([0.0, 1.0])),
], ids=["in-channel-minus-1", "in-channel-3", "out-channel-2", "float-out-channel"])
def test_signature_counts_refuse_a_channel_column_of_other_values(field, values):
    # -1 would wrap into the slots of an absent channel, 3 past the last slot
    table = {"in_channel": np.array([0, 1], dtype=np.int8),
             "out_channel": np.array([0, 0], dtype=np.int8)} | {field: values}
    ens = hand_built("twobit", 0.0, 0.5, np.array([0, 0, 1], dtype=np.uint8), table)
    with pytest.raises(ValueError, match=f"an {field} column of 0s and 1s"):
        _signature_counts(ens)


@st.composite
def _sparse(draw):
    """A signature-sized list of floats, at most 8 of them non-zero, as in the
    difference of two sides that fill at most 4 slots each."""
    xs = [0.0] * draw(st.sampled_from((135, 225)) | st.integers(0, 600))
    if xs:
        for i in draw(st.lists(st.integers(0, len(xs) - 1), max_size=8)):
            xs[i] = draw(st.floats(0.0, 1.0))
    return xs


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=600) | _sparse(), st.booleans())
def test_pairwise_sum_adds_in_numpys_order(xs, compensated):
    # a report's bytes rest on this order, not on numpy or the built-in sum,
    # which compensates from Python 3.12 on: patching it changes nothing
    with mock.patch.object(audit, "sum", compensated_sum, create=True) if compensated \
            else contextlib.nullcontext():
        got = _pairwise_sum(xs)
    assert got.hex() == float(np.add.reduce(np.array(xs, dtype=np.float64))).hex()


def test_a_compensated_sum_differs_from_numpys_order():
    # the patch the byte-contract tests run under rounds as Python 3.12's sum
    # does: three tenths add to 0.6 there, and to 0.6000000000000001 one at a
    # time, as numpy adds fewer than 8 values
    assert compensated_sum([0.1, 0.2, 0.3]) == 0.6 != _pairwise_sum([0.1, 0.2, 0.3])
    assert compensated_sum([2, 3], 1) == 6
