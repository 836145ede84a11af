"""Top-level acceptance battery.

Each test covers one numbered criterion and prints exactly one PASS/FAIL
line (visible with ``pytest -s``).  Tolerances are fixed here on purpose;
loosening them is changing the contract, not fixing a test.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from retrolab.audit import (
    audit_symmetry,
    simulate_ensemble,
    simulate_onebit_ensemble,
    simulate_twobit_ensemble,
)
from retrolab.core import angle_diff, jones_from_angle, malus, pol_angle
from retrolab.games import (
    KIND_DISCRETE,
    constant_channel_demon,
    play_lena_round,
    retro_implication_holds,
    verify_lena_control,
)
from retrolab.hvmodels import (
    REGISTRY,
    onebit_beable_input_joint,
    qm_reference_joint,
    twobit_beable_input_joint,
    twobit_dist,
)
from retrolab.optics import (
    demon_inputs_classical,
    pbs_combine,
    pbs_split,
)
from retrolab.photon import (
    OntologyMode,
    PhotonState,
    born_probability,
    demon_inputs_superposition,
)
from retrolab.stats import RandomStream, mutual_information_bits, tv_distance

PI = math.pi
HALF_PI = PI / 2
N = 1_000_000
GRID = [k * PI / 8 for k in range(5)]
STREAM = RandomStream(20260822)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL", flush=True)
        raise
    print(f"criterion {num:02d} [{label}]: PASS", flush=True)


def empirical_joint(ensemble):
    code = ensemble.in_channel.astype(np.int64) * 2 + ensemble.out_channel
    counts = np.bincount(code, minlength=4)
    return {f"{a}{b}": counts[2 * a + b] / ensemble.n for a in (0, 1) for b in (0, 1)}


def test_criterion_01_malus_statistics():
    with criterion(1, "Malus-law channel frequencies"):
        deltas = (0.0, PI / 12, PI / 6, PI / 4, PI / 3, 5 * PI / 12, HALF_PI)
        for k, delta in enumerate(deltas):
            p = born_probability(PhotonState.linear(delta), 0.0)

            def sampler(rng, n, p=p):
                return (rng.random(n) < p).astype(np.int64)

            start = time.perf_counter()
            freq = np.count_nonzero(sampler(STREAM.child(100 + k).generator(), N)) / N
            elapsed = time.perf_counter() - start
            assert abs(freq - malus(delta)) <= 0.002, delta
            assert elapsed <= 5.0, (delta, elapsed)


def test_criterion_02_twobit_reproduces_channel_statistics():
    with criterion(2, "two-bit model = channel statistics"):
        for sl in GRID:
            for sr in GRID:
                t = twobit_dist(sl, sr)
                q = qm_reference_joint(sl, sr)
                assert max(abs(a - b) for a, b in zip(t, q)) <= 1e-12, (sl, sr)
        analytic = twobit_dist(0.0, PI / 6).as_dict()
        ens = simulate_twobit_ensemble(0.0, PI / 6, N, STREAM.child(200))
        assert tv_distance(empirical_joint(ens), analytic) <= 0.003
        ens = simulate_ensemble(
            OntologyMode.DISCRETE_SYMMETRIC, 0.0, PI / 6, N, STREAM.child(201)
        )
        assert tv_distance(empirical_joint(ens), analytic) <= 0.003


def test_criterion_03_onebit_parity_and_information():
    with criterion(3, "one-bit parity rate and information split"):
        sl, sr = 0.0, PI / 6
        ens = simulate_onebit_ensemble(sl, sr, N, STREAM.child(300))
        flip = float((ens.in_channel != ens.out_channel).mean())
        assert abs(flip - math.sin(sl - sr) ** 2) <= 0.002
        for settings in ((0.0, PI / 6), (0.3, 1.2)):
            assert mutual_information_bits(onebit_beable_input_joint(*settings)) == 0.0
            two = mutual_information_bits(twobit_beable_input_joint(*settings))
            assert abs(two - 1.0) <= 1e-12


def test_criterion_04_classical_demon_completeness():
    with criterion(4, "classical demon reaches every target"):
        rng = STREAM.child(400).generator()
        for sigma, tau in zip(rng.uniform(0, PI, 200), rng.uniform(0, PI, 200)):
            beam = pbs_combine(demon_inputs_classical(sigma, tau, 1.0))
            assert abs(beam.intensity - 1.0) <= 1e-9
            assert abs(angle_diff(pol_angle(beam), tau)) <= 1e-9


def test_criterion_05_superposition_demon_completeness():
    with criterion(5, "superposition demon reaches every target"):
        rng = STREAM.child(500).generator()
        for sigma, tau in zip(rng.uniform(0, PI, 200), rng.uniform(0, PI, 200)):
            beam = pbs_combine(demon_inputs_superposition(sigma, tau))
            assert abs(beam.intensity - 1.0) <= 1e-9
            assert abs(angle_diff(pol_angle(beam), tau)) <= 1e-9


def test_criterion_06_single_channel_control():
    with criterion(6, "single-channel play is pinned to the setting axes"):
        for k in range(36):
            sigma = k * PI / 36
            report = verify_lena_control(sigma, KIND_DISCRETE)
            for channel in (0, 1):
                tau = play_lena_round(sigma, constant_channel_demon(channel))
                near = min(
                    abs(angle_diff(tau, sigma)), abs(angle_diff(tau, sigma + HALF_PI))
                )
                assert near <= 1e-9, (sigma, channel)
                assert report.achievable.contains(tau)
            assert play_lena_round(sigma, constant_channel_demon(None)) is None


def test_criterion_07_implication_sweep():
    with criterion(7, "assumption triple forces settings-dependence"):
        counterexamples = []
        for onto in REGISTRY.values():
            for sl in (0.0, PI / 8, PI / 3):
                for sr in (0.2, 0.9):
                    for shift in (PI / 3, PI / 5):
                        ok = retro_implication_holds(onto, sl, sr, sr + shift, PI / 6)
                        if not ok:
                            counterexamples.append((onto.model, sl, sr, shift))
        assert counterexamples == []


def test_criterion_08_reversal_audit_grid():
    with criterion(8, "reversal audit separates the ontologies"):
        child = 800
        for model in ("qm-discrete", "twobit"):
            for sl in GRID:
                for sr in GRID:
                    rep = audit_symmetry(model, sl, sr, N, STREAM.child(child))
                    child += 1
                    assert rep.verdict == "symmetric", (model, sl, sr, rep.verdict)
                    assert rep.tv_distance <= 0.005
                    assert rep.tv_alignment <= 0.005
        for sl in GRID:
            for sr in GRID:
                rep = audit_symmetry("qm-collapse", sl, sr, N, STREAM.child(child))
                child += 1
                if rep.degenerate_settings:
                    assert rep.verdict == "inconclusive", (sl, sr, rep.verdict)
                else:
                    assert rep.verdict == "asymmetric", (sl, sr, rep.verdict)
                    assert rep.alignment_separation >= 0.99
                    assert rep.forward_alignment["left_only"] == 1.0
                    assert rep.reversed_alignment["left_only"] == 0.0


def test_criterion_09_optics_invariants():
    with criterion(9, "energy conservation and round trips"):
        rng = STREAM.child(900).generator()
        for _ in range(1000):
            t = rng.uniform(0, PI)
            intensity = rng.uniform(0.1, 10.0)
            phase = rng.uniform(0, 2 * PI)
            setting = rng.uniform(0, PI)
            beam = jones_from_angle(t, intensity, phase)
            pair = pbs_split(beam, setting)
            scale = max(1.0, intensity)
            assert abs(pair.total_intensity - intensity) <= 1e-12 * scale
            back = pbs_combine(pair)
            assert abs(back.ex - beam.ex) <= 1e-12 * scale
            assert abs(back.ey - beam.ey) <= 1e-12 * scale
            again = pbs_split(back, setting)
            assert abs(again.trans.ex - pair.trans.ex) <= 1e-12 * scale
            assert abs(again.trans.ey - pair.trans.ey) <= 1e-12 * scale
            assert abs(again.refl.ex - pair.refl.ex) <= 1e-12 * scale
            assert abs(again.refl.ey - pair.refl.ey) <= 1e-12 * scale


def test_criterion_10_cli_determinism():
    with criterion(10, "fixed seed means byte-identical output"):
        json_args = [
            sys.executable, "-m", "retrolab", "run", "--model", "twobit",
            "--sigma-l", "0", "--sigma-r", "1.0472", "--n", "1000000",
            "--seed", "42",
        ]
        outs = [
            subprocess.run(json_args, capture_output=True, text=True) for _ in range(2)
        ]
        assert all(p.returncode == 0 for p in outs)
        stripped = [
            [line for line in p.stdout.splitlines() if "created_at" not in line]
            for p in outs
        ]
        assert stripped[0] == stripped[1]
        payload = json.loads(outs[0].stdout)
        assert abs(payload["result"]["p_match_empirical"] - 0.25) <= 0.002

        csv_args = json_args + ["--format", "csv"]
        a = subprocess.run(csv_args, capture_output=True, text=True)
        b = subprocess.run(csv_args, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout  # no timestamp anywhere in csv
