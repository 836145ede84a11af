"""Block-wise sampling and counting.

The samplers draw and compare ``stats.CHUNK_ROWS`` rows at a time, the
audit and the ``run`` tally count ``records.COUNT_ROWS`` rows at a time, and
the records writer writes ``records.WRITE_ROWS`` lines at a time.  None may
change a sample or a count: the references below are the full-vector
samplers the block-wise ones replaced, and a count over many blocks must
equal a count over one.  Nor may the blocks' memory grow with n, or exceed
a fixed allowance above the codes.
"""

import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab import audit, cli, records, stats
from retrolab.audit import (
    _orient_forward,
    _signature_counts,
    audit_symmetry,
    generate_ensemble,
    reverse_ensemble,
)
from retrolab.core import HALF_PI, normalize_angle
from retrolab.hvmodels import REGISTRY, model_ids, twobit_dist
from retrolab.photon import OntologyMode, PhotonState, born_probability
from retrolab.records import write_records_jsonl
from retrolab.stats import RandomStream, random_blocks

PI = math.pi

COLUMNS = ("in_channel", "out_channel", "tau_l", "tau_r", "weight_1")


# ------------------------------------------------- full-vector references


def _reference_photon(mode, sigma_l, sigma_r, n, stream):
    rng = stream.generator()
    sl = normalize_angle(sigma_l)
    sr = normalize_angle(sigma_r)
    t1, t0 = sl, normalize_angle(sl + HALF_PI)
    r1, r0 = sr, normalize_angle(sr + HALF_PI)
    in_channel = (rng.random(n) < 0.5).astype(np.int8)
    tau_l = np.where(in_channel == 1, t1, t0)
    p_if_1 = born_probability(PhotonState.linear(t1), sr)
    p_if_0 = born_probability(PhotonState.linear(t0), sr)
    p1 = np.where(in_channel == 1, p_if_1, p_if_0)
    if mode is OntologyMode.NO_COLLAPSE:
        return {"in_channel": in_channel, "tau_l": tau_l, "weight_1": p1}
    out = (rng.random(n) < p1).astype(np.int8)
    if mode is OntologyMode.COLLAPSE:
        return {"in_channel": in_channel, "out_channel": out, "tau_l": tau_l}
    tau_r = np.where(out == 1, r1, r0)
    return {"in_channel": in_channel, "out_channel": out, "tau_l": tau_l, "tau_r": tau_r}


def _reference_twobit(sigma_l, sigma_r, n, stream):
    rng = stream.generator()
    cum = np.cumsum(twobit_dist(sigma_l, sigma_r))
    idx = np.searchsorted(cum[:3], rng.random(n), side="right")
    return {"in_channel": (idx >> 1).astype(np.int8), "out_channel": (idx & 1).astype(np.int8)}


def _reference_onebit(sigma_l, sigma_r, n, stream):
    rng = stream.generator()
    in_channel = (rng.random(n) < 0.5).astype(np.int8)
    repeat = rng.random(n) < twobit_dist(sigma_l, sigma_r).p_match
    out_channel = np.where(repeat, in_channel, 1 - in_channel).astype(np.int8)
    return {"in_channel": in_channel, "out_channel": out_channel}


# the full-vector reference of each sampler, by the sampler's name
REFERENCES = {
    "simulate_ensemble": _reference_photon,
    "simulate_twobit_ensemble": _reference_twobit,
    "simulate_onebit_ensemble": _reference_onebit,
}


def _sample(model, sigma_l, sigma_r, n, stream):
    """The block-wise ensemble and its full-vector reference columns."""
    spec = REGISTRY[model]
    args = (*spec.sampler_args, sigma_l, sigma_r, n, stream)
    return getattr(audit, spec.sampler)(*args), REFERENCES[spec.sampler](*args)


def _settings(kind, base, offset):
    return base, {"equal": base, "orthogonal": base + PI / 2, "generic": base + offset}[kind]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(model_ids(stochastic=True)),
    st.integers(1, 7),
    st.integers(1, 500),
    st.sampled_from(["equal", "orthogonal", "generic"]),
    st.floats(-4.0, 4.0),
    st.floats(0.01, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_block_samplers_match_full_vector_reference(model, chunk_rows, n, kind, base, offset, seed):
    sigma_l, sigma_r = _settings(kind, base, offset)
    stream = RandomStream(seed)
    with mock.patch.object(stats, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(records, "COUNT_ROWS", chunk_rows):
        ens, ref = _sample(model, sigma_l, sigma_r, n, stream)
        blocked = [_signature_counts(o) for o in (ens, _orient_forward(reverse_ensemble(ens))[0])]
    assert ens.codes.dtype == np.uint8 and ens.codes.nbytes == n
    assert all(len(values) <= 4 for values in ens.table.values())
    for name in COLUMNS:
        got, want = getattr(ens, name), ref.get(name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    # n <= 500 rows fit in one block of the default size
    single = [_signature_counts(o) for o in (ens, _orient_forward(reverse_ensemble(ens))[0])]
    for (slot, free), (slot_1, free_1) in zip(blocked, single):
        assert np.array_equal(slot, slot_1) and np.array_equal(free, free_1)


@pytest.mark.parametrize("n", [1, stats.CHUNK_ROWS - 1, stats.CHUNK_ROWS, stats.CHUNK_ROWS + 1,
                               3 * stats.CHUNK_ROWS + 5])
def test_random_blocks_are_one_draw_through_one_buffer(n):
    want = RandomStream(7).generator().random(n)
    first = None
    covered = 0
    for rows, draws in random_blocks(RandomStream(7).generator(), n):
        # a block is valid until the next step, so it is read here
        assert rows.start == covered and 0 < len(draws) == rows.stop - rows.start <= stats.CHUNK_ROWS
        assert draws.tobytes() == want[rows].tobytes()
        first = draws if first is None else first
        assert np.shares_memory(draws, first)  # every block reuses the first one's buffer
        covered = rows.stop
    assert covered == n


# ------------------------------------------------- memory


SMALL_N, LARGE_N = 1 << 18, 1 << 20

# allowed growth of the peak above the columns from SMALL_N to LARGE_N rows;
# at full-vector sampling the smallest growth, qm-nocollapse generation, is
# about 0.8 MB
SLACK_BYTES = 1 << 18

# the peak above the codes of generation, and of an audit above one side's
# codes, at any n: a block's draws (128 KiB) and its comparisons, 138-198
# KiB under tracemalloc
GENERATION_EXTRA_BYTES = 256 << 10


def _peak_bytes(call):
    """Traced allocation peak of ``call()`` above what was live before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_generation_peak_above_the_columns_does_not_grow_with_n(model, traced):
    generate_ensemble(model, 0.3, 1.2, SMALL_N, RandomStream(3))  # warm-up
    extra = {}
    for n in (SMALL_N, LARGE_N):
        ens, peak = _peak_bytes(lambda: generate_ensemble(model, 0.3, 1.2, n, RandomStream(3)))
        extra[n] = peak - ens.codes.nbytes
        del ens
    assert extra[LARGE_N] <= extra[SMALL_N] + SLACK_BYTES, extra
    assert max(extra.values()) <= GENERATION_EXTRA_BYTES, extra


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_audit_peak_above_one_ensemble_does_not_grow_with_n(model, traced):
    audit_symmetry(model, 0.3, 1.2, SMALL_N, RandomStream(3))  # warm-up
    extra = {}
    for n in (SMALL_N, LARGE_N):
        _, peak = _peak_bytes(lambda: audit_symmetry(model, 0.3, 1.2, n, RandomStream(3)))
        extra[n] = peak - n  # one ensemble's codes
    assert extra[LARGE_N] <= extra[SMALL_N] + SLACK_BYTES, extra
    assert max(extra.values()) <= GENERATION_EXTRA_BYTES, extra


# the records writer's peak above what was live before it: one write block
# of bytes and its line references, 0.18–0.25 MB under tracemalloc, for
# qm-nocollapse's 150-byte lines the most, whatever n is
WRITER_PEAK_BYTES = 320 << 10


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_records_writer_peak_does_not_grow_with_n(model, traced):
    # every sampled model; the writer holds a block of lines
    peak = {}
    for n in (SMALL_N, SMALL_N, LARGE_N):  # the first pass warms up
        ens = generate_ensemble(model, 0.3, 1.2, n, RandomStream(3))
        _, peak[n] = _peak_bytes(lambda: write_records_jsonl(os.devnull, ens))
    assert peak[LARGE_N] <= peak[SMALL_N] + SLACK_BYTES, peak
    assert max(peak.values()) <= WRITER_PEAK_BYTES, peak


def test_run_tally_peak_above_the_codes_does_not_grow_with_n(traced):
    # the branch-weight tally sums each table row's equal weights
    def run(n):
        argv = ["run", "--model", "qm-nocollapse", "--sigma-l", "0.3", "--sigma-r", "1.2",
                "--n", str(n), "--seed", "3", "--out", os.devnull]
        return cli.main(argv)

    run(SMALL_N)  # warm-up
    extra = {}
    for n in (SMALL_N, LARGE_N):
        rc, peak = _peak_bytes(lambda: run(n))
        assert rc == 0
        extra[n] = peak - n  # the codes
    assert extra[LARGE_N] <= extra[SMALL_N] + SLACK_BYTES, extra


# the channel tally's peak above the codes: a bincount's intp copy of one
# count block, 33 KiB under tracemalloc, whatever n is
COUNTS_EXTRA_BYTES = 128 << 10


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_channel_counts_peak_above_the_codes_is_bounded(model, traced):
    generate_ensemble(model, 0.3, 1.2, SMALL_N, RandomStream(3)).channel_counts()  # warm-up
    ens = generate_ensemble(model, 0.3, 1.2, LARGE_N, RandomStream(3))
    _, peak = _peak_bytes(ens.channel_counts)  # the codes were live before
    assert peak <= COUNTS_EXTRA_BYTES, peak
