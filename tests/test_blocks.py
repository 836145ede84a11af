"""Block-wise sampling, counting and writing.

An ensemble is a replayable draw: its samplers draw and compare
``audit.CHUNK_ROWS`` rows at a time into one reused code buffer, the audit and
the ``run`` tally count each block as it is drawn, and the records writer
writes ``records.WRITE_ROWS`` lines at a time.  None may change a sample or
a count: the references below are the full-vector samplers the block-wise
ones replaced, and a count over many blocks must equal a count over one.
Nor may any command's memory grow with n, or exceed a fixed block allowance.
"""

import collections
import gc
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab import audit, cli
from retrolab.audit import (
    _side_a,
    _signature_counts,
    audit_symmetry,
    generate_ensemble,
)
from retrolab.core import HALF_PI, normalize_angle
from retrolab.hvmodels import REGISTRY, model_ids, twobit_dist
from retrolab.photon import OntologyMode, PhotonState, born_probability
from retrolab.records import write_records_jsonl
from retrolab.stats import RandomStream

PI = math.pi

COLUMNS = ("in_channel", "out_channel", "tau_l", "tau_r", "weight_1")


# ------------------------------------------------- full-vector references


def _reference_photon(spec, sigma_l, sigma_r, n, stream):
    mode = spec.ontology
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


def _reference_twobit(spec, sigma_l, sigma_r, n, stream):
    rng = stream.generator()
    cum = np.cumsum(twobit_dist(sigma_l, sigma_r))
    idx = np.searchsorted(cum[:3], rng.random(n), side="right")
    return {"in_channel": (idx >> 1).astype(np.int8), "out_channel": (idx & 1).astype(np.int8)}


def _reference_onebit(spec, sigma_l, sigma_r, n, stream):
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
    args = (spec, sigma_l, sigma_r, n, stream)
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
    # every pass over the ensemble replays its draw, here in blocks of 1-7 rows
    with mock.patch.object(audit, "CHUNK_ROWS", chunk_rows):
        ens, ref = _sample(model, sigma_l, sigma_r, n, stream)
        codes = ens.codes
        blocked = [_signature_counts(o) for o in (ens, _side_a(ens)[0])]
    # n <= 500 rows fit in one block of the default size
    assert codes.dtype == np.uint8 and codes.tobytes() == ens.codes.tobytes()
    assert all(len(values) <= 4 for values in ens.table.values())
    for name in COLUMNS:
        got, want = getattr(ens, name), ref.get(name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    # a fresh ensemble draws again, since a counted one keeps its counts
    ens = _sample(model, sigma_l, sigma_r, n, stream)[0]
    single = [_signature_counts(o) for o in (ens, _side_a(ens)[0])]
    for (slot, free, profile), (slot_1, free_1, profile_1) in zip(blocked, single):
        assert slot == slot_1 and free == free_1 and profile == profile_1


@pytest.mark.parametrize("n", [1, audit.CHUNK_ROWS - 1, audit.CHUNK_ROWS, audit.CHUNK_ROWS + 1,
                               3 * audit.CHUNK_ROWS + 5])
def test_random_blocks_are_one_draw_through_one_buffer(n):
    # whole blocks of CHUNK_ROWS runs, then the rest, all through one buffer
    full, rest = divmod(n, audit.CHUNK_ROWS)
    for model in model_ids(stochastic=True):
        ens, ref = _sample(model, 0.3, 1.2, n, RandomStream(7))
        first, blocks = None, []
        for codes in ens.draw():
            first = codes if first is None else first
            assert codes.dtype == np.uint8 and np.shares_memory(codes, first), model
            blocks.append(codes.copy())  # a block is valid until the next step
        assert [len(block) for block in blocks] == [audit.CHUNK_ROWS] * full + [rest] * (rest > 0)
        codes = np.concatenate(blocks)
        assert sorted(ens.table) == sorted(ref), model
        for name, values in ens.table.items():
            got = values[codes]
            assert got.dtype == ref[name].dtype and got.tobytes() == ref[name].tobytes(), (model, name)


# ------------------------------------------------- draws


_WORDS = 1 << 53

# probabilities where the threshold is decided: the ends and one half, every
# multiple of 2^-53 and its neighbours either side, subnormals, and any p
_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    st.builds(lambda k, toward: math.nextafter(k / _WORDS, toward) if toward is not None else k / _WORDS,
              st.integers(0, _WORDS), st.sampled_from([None, 0.0, 1.0])),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
    st.floats(0.0, 1.0),
)


@settings(max_examples=2000, deadline=None)
@given(_PROBABILITIES, st.sampled_from([-1, 0, 1, None]), st.integers(0, _WORDS - 1))
def test_a_word_threshold_decides_as_the_draw_does(p, offset, word):
    # a word k is below K(p) exactly when the draw k * 2^-53 is below p
    threshold = audit._threshold(p)
    assert type(threshold) is int and 0 <= threshold <= _WORDS
    k = word if offset is None else min(max(threshold + offset, 0), _WORDS - 1)
    assert (k < threshold) == (k * 2.0**-53 < p)
    # as the samplers compare: a uint64 array against the Python int
    assert bool((np.array([k], dtype=np.uint64) < threshold)[0]) == (k * 2.0**-53 < p)


# cuts where a label is decided: the ends, one half, the last word and any
_CUTS = st.one_of(st.sampled_from([0, 1, 1 << 52, _WORDS - 1, _WORDS]), st.integers(0, _WORDS))


@st.composite
def _passes(draw):
    """A pass of 1-3 codes so far, each with 0-3 sorted cuts and a label below 4 per interval."""
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = tuple(sorted(draw(st.lists(_CUTS, max_size=3))))
        entries.append((cuts, tuple(draw(st.lists(st.integers(0, 3), min_size=len(cuts) + 1,
                                                   max_size=len(cuts) + 1)))))
    return tuple(entries)


@settings(max_examples=1000, deadline=None)
@given(_passes(), st.lists(st.integers(0, _WORDS - 1), max_size=8), st.data())
def test_one_step_labels_every_word_as_a_per_run_loop_does(pass_, extra, data):
    # each cut's K - 1, K and K + 1, the last word and random words
    words = [min(max(k + d, 0), _WORDS - 1) for cuts, _ in pass_ for k in cuts for d in (-1, 0, 1)]
    words += [_WORDS - 1, *extra]
    so_far = data.draw(st.lists(st.integers(0, len(pass_) - 1), min_size=len(words), max_size=len(words)))
    codes = np.array(so_far, dtype=np.uint8)
    audit._step(codes, np.array(words, dtype=np.uint64), audit._layout(pass_))
    want = []
    for c, word in zip(so_far, words):
        cuts, labels = pass_[c]
        want.append(labels[sum(word >= k for k in cuts)])
    assert codes.tolist() == want


def _plan_and_table(model, sigma_l, sigma_r):
    """The plan and the table that ``model``'s sampler hands to ``audit._sampled``."""
    spec = REGISTRY[model]
    with mock.patch.object(audit, "_sampled", lambda *args: args):
        args = getattr(audit, spec.sampler)(spec, sigma_l, sigma_r, 10, RandomStream(0))
    return args[6], args[3]


# generic pairs, equal and orthogonal settings, and the two pairs either
# side of the degeneracy edge at ANGLE_TOL from orthogonal
_PLAN_PAIRS = [(0.0, PI / 6), (0.3, 1.2), (0.0, 0.0), (0.0, PI / 2),
               (0.0, 1.5707963257948967), (0.0, 1.5707963277948966)]


@pytest.mark.parametrize("sigma_l, sigma_r", _PLAN_PAIRS)
@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_each_plan_draws_its_joint_exactly(model, sigma_l, sigma_r):
    # a row's probability is the product over passes of its words' interval
    # widths at the thresholds the draw compares, over 2^53
    plan, table = _plan_and_table(model, sigma_l, sigma_r)
    rows = {0: Fraction(1)}
    for pass_ in plan:
        after = collections.defaultdict(Fraction)
        for code, p in rows.items():
            cuts, labels = pass_[code if len(pass_) > 1 else 0]
            bounds = [0, *map(audit._threshold, cuts), _WORDS]
            for label, low, high in zip(labels, bounds, bounds[1:]):
                after[label] += p * Fraction(high - low, _WORDS)
        rows = after
    entry, exit_ = list(table["in_channel"]), table.get("out_channel")
    assert sum(rows.values()) == 1 and set(rows) <= set(range(len(entry)))
    joint = REGISTRY[model].joint(sigma_l, sigma_r)
    for row, p in rows.items():
        # even entries for branch weights, which draw no exit
        want = Fraction(1, 2) if exit_ is None else Fraction(joint[2 * entry[row] + int(exit_[row])])
        assert abs(p - want) <= Fraction(1, 2**52), (row, float(p - want))


# passes over the stream per ensemble: a second pass draws the outcomes
PASSES = {"twobit": 1, "qm-nocollapse": 1, "onebit": 2, "qm-discrete": 2, "qm-collapse": 2}

# a run count past three sampling blocks, not a multiple of one or of four
DRAW_N = 3 * audit.CHUNK_ROWS + 5

# each op, with the ensembles it samples
DRAW_OPS = {
    "run": (["run", "--model", "{}", "--sigma-l", "0.3", "--sigma-r", "1.2"], 1),
    "audit": (["audit", "{}", "0.3", "1.2"], 2),
    "records": (["run", "--model", "{}", "--sigma-l", "0.3", "--sigma-r", "1.2",
                 "--records", os.devnull, "--records-limit", "0"], 1),
}


class _Counting:
    """A bit generator that counts the words drawn through it."""

    def __init__(self, bits, drawn):
        self.bits, self.drawn = bits, drawn

    def random_raw(self, *args, **kwargs):
        words = self.bits.random_raw(*args, **kwargs)
        self.drawn.append(words.size)
        return words


def test_passes_cover_every_sampled_model():
    assert sorted(PASSES) == sorted(model_ids(stochastic=True))


@pytest.mark.parametrize("model", model_ids(stochastic=True))
@pytest.mark.parametrize("op", sorted(DRAW_OPS))
def test_each_op_draws_every_row_once(op, model, monkeypatch):
    # n draws a pass per ensemble, whatever the op does with the rows:
    # writing records and tallying them share one pass
    drawn = []
    real = RandomStream.bits
    monkeypatch.setattr(RandomStream, "bits", lambda self, *args: _Counting(real(self, *args), drawn))
    argv, ensembles = DRAW_OPS[op]
    argv = [arg.format(model) for arg in argv] + ["--n", str(DRAW_N), "--seed", "3", "--out", os.devnull]
    assert cli.main(argv) in (0, 1, 4)
    assert sum(drawn) == ensembles * PASSES[model] * DRAW_N


# ------------------------------------------------- memory


SIZES = SMALL_N, LARGE_N, HUGE_N = 1 << 18, 1 << 20, 1 << 22

# how far one op's peaks at SMALL_N, LARGE_N and HUGE_N rows may differ
SAME_PEAK_BYTES = 8 << 10

# the peak of drawing and counting an ensemble, and of an audit, at any n:
# a block's draws (128 KiB), its codes and its comparisons, 165-218 KiB
# under tracemalloc
GENERATION_EXTRA_BYTES = 256 << 10

# the records writer's peak above drawing and counting: one write block of
# bytes and its line references, 144-230 KiB under tracemalloc, for
# qm-nocollapse's 150-byte lines the most
WRITER_PEAK_BYTES = 320 << 10


def _peak_bytes(call):
    """Traced allocation peak of ``call()`` above what was live before it.

    Cyclic garbage is collected first and kept during the call, so the
    peak does not hang on when the collector happens to run.
    """
    gc.collect()
    gc.disable()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        gc.enable()


def _peaks(call, sizes=SIZES):
    """Peak of ``call(n)`` at each n, after a warm-up at the first."""
    call(sizes[0])
    return {n: _peak_bytes(lambda: call(n))[1] for n in sizes}


def _assert_constant(peaks, bound):
    assert max(peaks.values()) - min(peaks.values()) <= SAME_PEAK_BYTES, peaks
    assert max(peaks.values()) <= bound, peaks


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _run(n, *extra):
    argv = ["run", "--model", "qm-nocollapse", "--sigma-l", "0.3", "--sigma-r", "1.2",
            "--n", str(n), "--seed", "3", "--out", os.devnull, *extra]
    assert cli.main(argv) == 0


def _counted(model, n):
    return generate_ensemble(model, 0.3, 1.2, n, RandomStream(3)).row_counts()


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_generation_peak_above_the_columns_does_not_grow_with_n(model, traced):
    # generating draws nothing; counting draws every row once
    _assert_constant(_peaks(lambda n: _counted(model, n), (SMALL_N, LARGE_N)), GENERATION_EXTRA_BYTES)


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_audit_peak_above_one_ensemble_does_not_grow_with_n(model, traced):
    # HUGE_N for a one-pass and the heaviest two-pass sampler, to spare time
    sizes = SIZES if model in ("twobit", "qm-discrete") else (SMALL_N, LARGE_N)
    _assert_constant(_peaks(lambda n: audit_symmetry(model, 0.3, 1.2, n, RandomStream(3)), sizes),
                     GENERATION_EXTRA_BYTES)


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_records_writer_peak_does_not_grow_with_n(model, traced):
    def write(n):
        write_records_jsonl(os.devnull, generate_ensemble(model, 0.3, 1.2, n, RandomStream(3)))

    counting = _peak_bytes(lambda: _counted(model, SMALL_N))[1]
    _assert_constant(_peaks(write, (SMALL_N, LARGE_N)), counting + WRITER_PEAK_BYTES)


def test_run_tally_peak_above_the_codes_does_not_grow_with_n(traced):
    # the branch-weight tally sums each table row's equal weights; the
    # command itself (its parser, its payload) costs what it costs at n = 1
    _run(1)
    command = _peak_bytes(lambda: _run(1))[1]
    _assert_constant(_peaks(_run), command + GENERATION_EXTRA_BYTES)


def test_run_records_peak_is_the_same_at_any_n(traced):
    # every row drawn, written and tallied in one pass
    def run(n):
        _run(n, "--records", os.devnull, "--records-limit", "0")

    run(1)
    command = _peak_bytes(lambda: run(1))[1]
    _assert_constant(_peaks(run), command + GENERATION_EXTRA_BYTES + WRITER_PEAK_BYTES)


@pytest.mark.parametrize("model", model_ids(stochastic=True))
def test_channel_counts_peak_above_the_codes_is_bounded(model, traced):
    generate_ensemble(model, 0.3, 1.2, 1 << 10, RandomStream(3)).channel_counts()  # warm-up
    ens = generate_ensemble(model, 0.3, 1.2, SMALL_N, RandomStream(3))
    _, peak = _peak_bytes(ens.channel_counts)  # draws and counts every row
    assert peak <= GENERATION_EXTRA_BYTES, peak
