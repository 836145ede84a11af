"""Record schema, JSON-lines round trips, ensemble views."""

import errno
import json
import math
import os
import re
import stat
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retrolab import cli
from retrolab.audit import CHUNK_ROWS, generate_ensemble, reverse_ensemble
from retrolab import records as records_module
from retrolab.records import (
    RECORD_KEYS,
    Ensemble,
    ExperimentRecord,
    read_records_jsonl,
    record_from_dict,
    record_to_dict,
    write_records_jsonl,
)
from retrolab.stats import RandomStream


def full_record():
    return ExperimentRecord(
        sigma_l=0.1,
        sigma_r=0.9,
        model="qm-discrete",
        in_channel=1,
        out_channel=0,
        tau_l=0.1,
        tau_r=2.4707963267948965,
    )


def hand_built(model, sigma_l, sigma_r, codes, table):
    """Ensemble of the runs whose table rows ``codes`` holds, drawn as one block."""
    return Ensemble(model, sigma_l, sigma_r, table, len(codes), lambda: iter((codes,)))


def full_ensemble(k=1):
    """k copies of :func:`full_record` as an ensemble, one table row per
    record (codes = arange(k))."""
    rec = full_record()
    table = {field: np.array([getattr(rec, field)] * k)
             for field in ("in_channel", "out_channel", "tau_l", "tau_r")}
    return hand_built(rec.model, rec.sigma_l, rec.sigma_r, np.arange(k), table)


def test_dict_roundtrip_full():
    rec = full_record()
    assert record_from_dict(record_to_dict(rec)) == rec


def test_dict_omits_absent_fields():
    rec = ExperimentRecord(sigma_l=0.0, sigma_r=0.5, model="qm-collapse",
                           in_channel=1, out_channel=1, tau_l=0.0)
    d = record_to_dict(rec)
    assert "tau_r" not in d
    assert "weights" not in d
    assert record_from_dict(d) == rec


def weighted_record():
    return ExperimentRecord(sigma_l=0.2, sigma_r=1.1, model="qm-nocollapse",
                            in_channel=0, tau_l=0.2 + 1.5707963267948966,
                            weights=(0.3863989526534564, 0.6136010473465436))


def test_weights_record_roundtrip():
    rec = weighted_record()
    d = record_to_dict(rec)
    assert d["weights"] == [0.3863989526534564, 0.6136010473465436]
    assert "out_channel" not in d
    assert record_from_dict(d) == rec


def test_jsonl_file_roundtrip(tmp_path):
    path = tmp_path / "recs.jsonl"
    count = write_records_jsonl(path, full_ensemble(3))
    assert count == 3
    assert read_records_jsonl(path) == [full_record()] * 3


def test_jsonl_key_order_is_fixed(tmp_path):
    path = tmp_path / "one.jsonl"
    write_records_jsonl(path, full_ensemble())
    line = path.read_text().splitlines()[0]
    keys = list(json.loads(line).keys())
    expected = [k for k in RECORD_KEYS if k in keys]
    assert keys == expected  # same relative order as the schema tuple


@given(st.integers(0, 1), st.integers(0, 1), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_dict_roundtrip_property(in_ch, out_ch, sl, sr):
    rec = ExperimentRecord(sigma_l=sl, sigma_r=sr, model="twobit",
                           in_channel=in_ch, out_channel=out_ch)
    assert record_from_dict(record_to_dict(rec)) == rec


def test_ensemble_views():
    ens = hand_built("qm-discrete", 0.0, 0.5, np.arange(3), {
        "in_channel": np.array([1, 0, 1]),
        "out_channel": np.array([1, 1, 0]),
        "tau_l": np.array([0.0, 1.5707963267948966, 0.0]),
        "tau_r": np.array([0.5, 0.5, 2.0707963267948966]),
    })
    assert ens.n == 3
    recs = ens.records()
    assert len(recs) == 3
    assert recs[0].in_channel == 1 and recs[2].out_channel == 0


def test_shared_table_rows_decode_per_run():
    ens = hand_built("qm-collapse", 0.0, 0.5, np.array([1, 1, 0, 1], dtype=np.uint8), {
        "in_channel": np.array([0, 1], dtype=np.int8),
        "tau_l": np.array([1.5707963267948966, 0.0]),
    })
    assert ens.n == 4
    assert ens.in_channel.tolist() == [1, 1, 0, 1]
    assert ens.tau_l.tolist() == [0.0, 0.0, 1.5707963267948966, 0.0]
    assert ens.out_channel is None and ens.weight_1 is None
    assert [r.in_channel for r in ens.records()] == [1, 1, 0, 1]


def test_weighted_ensemble_records():
    ens = hand_built("qm-nocollapse", 0.0, 0.5, np.arange(2), {
        "in_channel": np.array([1, 0]),
        "tau_l": np.array([0.0, 1.5707963267948966]),
        "weight_1": np.array([0.25, 0.75]),
    })
    recs = ens.records()
    assert recs[0].weights == pytest.approx((0.25, 0.75))
    assert recs[1].weights == pytest.approx((0.75, 0.25))
    assert recs[0].out_channel is None


def test_channel_counts_by_table_row():
    # duplicate rows add into one cell
    ens = hand_built("twobit", 0.0, 0.5, np.array([0, 2, 2, 1, 3, 2], dtype=np.uint8), {
        "in_channel": np.array([1, 0, 1, 0], dtype=np.int8),
        "out_channel": np.array([0, 1, 0, 0], dtype=np.int8),
    })
    assert ens.channel_counts() == [1.0, 1.0, 4.0, 0.0]


@pytest.mark.parametrize("table", [
    {"out_channel": np.array([0, 1])},
    {"in_channel": np.array([0, 2]), "out_channel": np.array([0, 1])},
    {"in_channel": np.array([0, -1]), "out_channel": np.array([0, 1])},
    {"in_channel": np.array([0, 1]), "out_channel": np.array([0, 3])},
    {"in_channel": np.array([0.0, 1.0]), "out_channel": np.array([0, 1])},
    {"in_channel": np.array([0, 1])},
], ids=["no-in-channel", "in-channel-2", "in-channel-minus-1", "out-channel-3", "float-channel",
        "no-out-channel-or-weight"])
def test_channel_counts_reject_tables_they_cannot_tally(table):
    ens = hand_built("twobit", 0.0, 0.5, np.array([0, 1, 1], dtype=np.uint8), table)
    with pytest.raises(ValueError, match="channel"):
        ens.channel_counts()


# run counts either side of numpy's 8-way unrolled, 128-element pairwise
# blocks, of its 8192-element buffer, of 2^12, of the sampler blocks and of
# 2^16, and one far from all of them
_TALLY_RUNS = (1, 7, 8, 9, 127, 128, 129, 1023, 4095, 4096, 4097, 8191, 8192, 8193,
               CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
               65535, 65536, 65537, 1_000_003)


@pytest.mark.parametrize("k", _TALLY_RUNS)
def test_weighted_channel_counts_sum_as_numpy_sums_equal_values(k):
    weights = [0.1, 1.0 / 3.0, math.cos(0.7) ** 2, 0.9999999, 5e-324]
    codes = np.zeros(k, dtype=np.uint8)
    for w in weights:
        ens = hand_built("qm-nocollapse", 0.0, 0.5, codes, {
            "in_channel": np.array([1, 0], dtype=np.int8),
            "weight_1": np.array([w, 1.0 - w]),
        })
        w1 = float(np.full(k, w).sum())
        assert ens.channel_counts() == [0.0, 0.0, k - w1, w1], (k, w)


@pytest.mark.parametrize("codes, table, match", [
    # a 1-row tau_l column would broadcast against the 4-row channel column
    (np.arange(4), {"in_channel": np.array([0, 0, 1, 1]), "tau_l": np.array([0.3])}, "length"),
    (np.arange(2), {"tau": np.array([0.0, 0.1])}, "unknown"),
], ids=["unequal-columns", "unknown-field"])
def test_bad_encodings_are_rejected(codes, table, match):
    with pytest.raises(ValueError, match=match):
        hand_built("twobit", 0.0, 0.5, codes, table)


# a block far shorter and one far longer than 1,024 codes per table row
_BLOCK_RUNS = (10, 5_000)


@pytest.mark.parametrize("runs", _BLOCK_RUNS)
@pytest.mark.parametrize("rows", [1, 4, 6, 300])
def test_row_counts_are_one_count_per_table_row(rows, runs):
    # the samplers' tables of up to four rows, and hand-built larger ones
    codes = (np.arange(runs) * 7 % rows).astype(np.uint16)
    ens = hand_built("twobit", 0.0, 0.5, codes, {"tau_l": np.linspace(0.0, 1.0, rows)})
    counts = ens.row_counts()
    assert counts.dtype == np.intp and counts.tolist() == np.bincount(codes, minlength=rows).tolist()


@pytest.mark.parametrize("table", [{}, {"tau_l": np.zeros(0)}], ids=["no-columns", "empty-column"])
def test_a_table_of_no_rows_counts_no_runs(table):
    counts = hand_built("twobit", 0.0, 0.5, np.zeros(0, dtype=np.uint8), table).row_counts()
    assert counts.dtype == np.intp and counts.tolist() == []


@pytest.mark.parametrize("runs", _BLOCK_RUNS)
@pytest.mark.parametrize("rows", [0, 2])
def test_row_counts_that_miss_runs_are_an_error(rows, runs):
    # codes past the end of the table, in a short block and a long one
    ens = hand_built("twobit", 0.0, 0.5, np.full(runs, 3, dtype=np.uint8),
                     {"in_channel": np.arange(rows, dtype=np.int8)})
    with pytest.raises(ValueError, match=f"n = {runs} runs gave 0 in table rows"):
        ens.row_counts()


# ------------------------------------------------- ensemble writer


@pytest.mark.parametrize("block, match", [
    (np.array([0, 3], np.uint8), "a block of 2 codes of the draw of n = 2 runs gave 1 in table rows"),
    (np.array([1], np.uint8), "the draw of n = 2 runs gave 1 in table rows"),
], ids=["code-past-table", "short-draw"])
def test_a_draw_that_misses_the_table_writes_no_file(tmp_path, block, match):
    # a code past the table is caught before its block is written, a draw of
    # the wrong length at the end of the pass; neither leaves a file
    ens = Ensemble("twobit", 0.0, 0.5, {"in_channel": np.array([0, 1], np.int8)}, 2,
                   lambda: iter((block,)))
    with pytest.raises(ValueError, match=match):
        write_records_jsonl(tmp_path / "out.jsonl", ens)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("block", [np.array([0, -1, 1], np.int8), np.array([0, 1.0, 1])],
                         ids=["negative-code", "fractional-dtype"])
def test_a_code_that_is_no_table_row_is_the_named_error(tmp_path, block):
    # numpy's own refusal of a negative or a float code becomes the count's
    # named error, from the count and from the writer, which leaves no file
    ens = hand_built("twobit", 0.0, 0.5, block, {"in_channel": np.array([0, 1], np.int8)})
    match = "a block of 3 codes of the draw of n = 3 runs "
    with pytest.raises(ValueError, match=match):
        ens.row_counts()
    with pytest.raises(ValueError, match=match):
        write_records_jsonl(tmp_path / "out.jsonl", ens)
    assert os.listdir(tmp_path) == []


def test_a_code_far_past_the_table_is_refused_before_it_is_counted():
    # np.bincount allocates one counter for every value up to the largest
    # code: 80 MB for 10^7, were the code not left out before counting
    ens = hand_built("twobit", 0.0, 0.5, np.array([0, 10**7], np.int32),
                     {"in_channel": np.array([0, 1], np.int8)})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="a block of 2 codes of the draw of n = 2 runs gave 1 "
                                             "in table rows"):
            ens.row_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("read", [lambda ens: ens.codes, lambda ens: ens.in_channel,
                                  lambda ens: ens.tau_l, lambda ens: ens.records()],
                         ids=["codes", "in_channel", "tau_l", "records"])
def test_every_reader_of_a_draw_checks_its_blocks(read):
    # a code past the table is the count's named error, not an IndexError
    ens = hand_built("twobit", 0.0, 0.5, np.array([0, 3, 1], np.uint8),
                     {"in_channel": np.array([0, 1], np.int8), "tau_l": np.array([0.0, 0.5])})
    with pytest.raises(ValueError, match="a block of 3 codes of the draw of n = 3 runs gave 2 "
                                         "in table rows"):
        read(ens)


def test_replaying_the_codes_keeps_the_counts():
    draws = []
    codes = np.array([0, 1, 1], np.uint8)
    ens = Ensemble("twobit", 0.0, 0.5, {"in_channel": np.array([0, 1], np.int8)}, 3,
                   lambda: draws.append(1) or iter((codes,)))
    assert ens.codes.tolist() == [0, 1, 1] and len(draws) == 1
    assert ens.row_counts().tolist() == [1, 2] and len(draws) == 1  # no second draw


@pytest.mark.parametrize("column", [(0, 1), [0, 1]], ids=["tuple", "list"])
def test_an_ensemble_refuses_a_column_that_is_no_array(column):
    # a sampler's table of tuples, say, handed on before it became arrays
    with pytest.raises(ValueError, match=f"table column tau_l is a {type(column).__name__}, "
                                         "not a numpy array"):
        hand_built("twobit", 0.0, 0.5, np.array([0, 1], np.uint8),
                   {"in_channel": np.array([0, 1], np.int8), "tau_l": column})


def _written(ensemble, limit=None):
    """Count and bytes that write_records_jsonl returns and leaves on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        count = write_records_jsonl(path, ensemble, limit)
        assert os.listdir(tmp) == ["out.jsonl"]  # no temporary file left behind
        with open(path, "rb") as fh:
            return count, fh.read()


def _reference_write(records) -> tuple[int, bytes]:
    """Count and bytes of the records, each line rendered on its own."""
    return len(records), b"".join(json.dumps(record_to_dict(r)).encode() + b"\n" for r in records)


_FLOAT_POOL = [0.0, -0.0, 0.3, 1.8707963267948966, 1e-300, float("inf"), float("nan")]


@st.composite
def float_columns(draw, n, readable=False):
    """Floats of any kind; finite ones only when ``readable``."""
    if draw(st.booleans()):  # few values, many repeats
        values = st.sampled_from([x for x in _FLOAT_POOL if math.isfinite(x) or not readable])
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    values = st.floats(allow_nan=False, allow_infinity=not readable)  # (almost) all distinct
    return np.array(draw(st.lists(values, min_size=n, max_size=n, unique=True)), dtype=np.float64)


@st.composite
def channel_columns(draw, n, readable=False):
    """Integers of the dtype's range, or 0s and 1s; only 0s and 1s when ``readable``."""
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    info = np.iinfo(dtype)
    binary = st.sampled_from([0, 1])
    wide = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(draw(st.sampled_from([binary] if readable else [binary, wide])),
                           min_size=n, max_size=n))
    return np.array(values, dtype=dtype)


def weight_columns(n, readable=False):
    """Floats of any kind; weights in [0, 1] when ``readable``."""
    if not readable:
        return float_columns(n)
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=np.float64))


# the table columns a hand-built ensemble may hold, and how each is drawn
_COLUMN_KINDS = {
    "in_channel": channel_columns,
    "out_channel": channel_columns,
    "tau_l": float_columns,
    "tau_r": float_columns,
    "weight_1": weight_columns,
}


@st.composite
def ensembles(draw, readable=False):
    """One table row per run (codes = arange(n)), or 1-9 shared rows picked
    by random codes, duplicate rows included.  When ``readable``, every
    table row writes a line that the reader takes back."""
    shared = draw(st.booleans())
    rows = draw(st.integers(1, 9) if shared else st.integers(0, 40))
    table = {field: draw(kind(rows, readable)) for field, kind in _COLUMN_KINDS.items()
             if draw(st.booleans())}
    if readable and "weight_1" in table:
        table.pop("out_channel", None)  # weights stand in for the exit channel
    code_dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64, np.uint64]))
    if shared and table:
        n = draw(st.integers(0, 40))
        codes = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)), dtype=code_dtype)
    else:
        codes = np.arange(rows if table else 0, dtype=code_dtype)
    return hand_built(
        model=draw(st.sampled_from(["qm-discrete", "qm-nocollapse", "twobit"])),
        sigma_l=draw(st.sampled_from([0.3, -0.0, 0.0])),
        sigma_r=1.2,
        codes=codes,
        table=table,
    )


def _readable(ensemble) -> bool:
    """Whether the reader takes back the line of every table row."""
    try:
        for record in ensemble._table_records():
            record_from_dict(json.loads(json.dumps(record_to_dict(record))))
    except ValueError:
        return False
    return True


def _check_writer(ens, limit_kind, chunk_rows):
    """Both orientations of ``ens`` write the reference bytes when every table
    row is readable, and otherwise raise a ValueError and leave no file."""
    limit = {"none": None, "one": 1, "mid": ens.n // 2, "above": ens.n + 3}[limit_kind]
    for oriented in (ens, reverse_ensemble(ens)):
        with mock.patch.object(records_module, "WRITE_ROWS", chunk_rows):
            if not _readable(oriented):
                with tempfile.TemporaryDirectory() as tmp:
                    with pytest.raises(ValueError):
                        write_records_jsonl(os.path.join(tmp, "out.jsonl"), oriented, limit)
                    assert os.listdir(tmp) == []
                continue
            got = _written(oriented, limit)
        assert got == _reference_write(oriented.records()[:limit])
        assert got[0] == (ens.n if limit is None else min(ens.n, limit))


_LIMIT_KINDS = st.sampled_from(["none", "one", "mid", "above"])


@settings(max_examples=300, deadline=None)
@given(ensembles(), _LIMIT_KINDS, st.integers(1, 7))
def test_ensemble_writer_matches_record_writer(ens, limit_kind, chunk_rows):
    _check_writer(ens, limit_kind, chunk_rows)


@settings(max_examples=300, deadline=None)
@given(ensembles(readable=True), _LIMIT_KINDS, st.integers(1, 7))
def test_ensemble_writer_matches_record_writer_on_readable_tables(ens, limit_kind, chunk_rows):
    # a reversed weighted table puts weights beside an exit channel, which
    # the reader refuses; the forward one always writes
    assert _readable(ens)
    _check_writer(ens, limit_kind, chunk_rows)


@pytest.mark.parametrize("table", [
    {"in_channel": np.array([1]), "tau_l": np.array([math.nan])},
    {"in_channel": np.array([1]), "tau_r": np.array([-math.inf])},
    {"in_channel": np.array([7]), "out_channel": np.array([0])},
    {"in_channel": np.array([1]), "out_channel": np.array([0]), "weight_1": np.array([0.25])},
], ids=["nan-angle", "infinite-angle", "channel-7", "weights-beside-exit-channel"])
def test_writer_refuses_a_row_its_reader_refuses(tmp_path, table):
    ens = hand_built("qm-discrete", 0.0, 0.5, np.zeros(3, dtype=np.uint8), table)
    with pytest.raises(ValueError):
        write_records_jsonl(tmp_path / "out.jsonl", ens)
    assert list(tmp_path.iterdir()) == []


def test_ensemble_writer_keeps_signed_zeros_apart():
    ens = hand_built("qm-discrete", 0.0, 0.5, np.array([0, 1, 1, 0], dtype=np.uint8), {
        "in_channel": np.array([1, 1], dtype=np.int8),
        "tau_l": np.array([0.0, -0.0]),
    })
    count, data = _written(ens)
    assert (count, data) == _reference_write(ens.records())
    taus = [json.loads(line)["tau_l"] for line in data.decode().splitlines()]
    assert [math.copysign(1.0, t) for t in taus] == [1.0, -1.0, -1.0, 1.0]


def test_ensemble_writer_on_a_sampled_ensemble():
    # many rows, few distinct lines, more than one write block
    n = 3 * records_module.WRITE_ROWS // 2
    ens = generate_ensemble("qm-discrete", 0.3, 1.2, n, RandomStream(5))
    assert _written(ens) == _reference_write(ens.records())


def test_negative_limit_is_rejected(tmp_path):
    ens = hand_built("twobit", 0.0, 0.5, np.arange(2), {"in_channel": np.array([0, 1])})
    with pytest.raises(ValueError, match="limit"):
        write_records_jsonl(tmp_path / "x.jsonl", ens, -3)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("limit", [2.5, 2.0, "2", np.float64(1.0)])
def test_non_integral_limit_is_rejected(tmp_path, limit):
    ens = hand_built("twobit", 0.0, 0.5, np.arange(3), {"in_channel": np.array([0, 1, 0])})
    with pytest.raises(ValueError, match="limit"):
        write_records_jsonl(tmp_path / "x.jsonl", ens, limit)
    assert list(tmp_path.iterdir()) == []
    # numpy integers are integers
    assert write_records_jsonl(tmp_path / "x.jsonl", ens, np.uint8(2)) == 2


# ------------------------------------------------- reader


def _reference_read(data: bytes) -> list[ExperimentRecord]:
    """One record per non-blank line, each parsed on its own."""
    lines = data.decode("utf-8").splitlines()
    return [record_from_dict(json.loads(line)) for line in lines if line.strip()]


_LINES = [
    json.dumps(record_to_dict(full_record())),
    json.dumps(record_to_dict(ExperimentRecord(0.0, 0.5, "qm-collapse", 1, 1, tau_l=0.0))),
    json.dumps(record_to_dict(ExperimentRecord(0.0, 0.5, "qm-collapse", 1, 1, tau_l=-0.0))),
    json.dumps(record_to_dict(ExperimentRecord(0.2, 1.1, "qm-nocollapse", 0, tau_l=1.7,
                                               weights=(0.25, 0.75)))),
    json.dumps(record_to_dict(ExperimentRecord(-0.0, 1.1, "twobit", 0, 1))),
    json.dumps(record_to_dict(ExperimentRecord(0.0, 1.1, "twobit", 0, 1))),
    "  " + json.dumps(record_to_dict(full_record())) + "\t",
    "",
    "   ",
    "\t",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_LINES), max_size=30), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_reader_matches_per_line_reference(lines, end, final_end):
    # repeated, blank and whitespace-only lines, CRLF ends, and a last line
    # with or without its end
    data = (end.join(lines) + (end if final_end and lines else "")).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        got = read_records_jsonl(path)
    want = _reference_read(data)
    assert got == want
    # signed zeros read as written: -0.0 and 0.0 lines never share a record
    def signs(record):
        return [math.copysign(1.0, x) for x in (record.sigma_l, record.tau_l) if x is not None]

    assert [signs(r) for r in got] == [signs(r) for r in want]


def test_reader_shares_one_record_per_distinct_line(tmp_path):
    path = tmp_path / "recs.jsonl"
    zero, minus_zero = _LINES[1], _LINES[2]
    path.write_text("".join(line + "\n" for line in [zero, minus_zero, zero, "", minus_zero, zero]))
    got = read_records_jsonl(path)
    assert len(got) == 5
    assert got[0] is got[2] and got[2] is got[4]
    assert got[1] is got[3]
    assert got[0] is not got[1]
    assert math.copysign(1.0, got[0].tau_l) == 1.0 and math.copysign(1.0, got[1].tau_l) == -1.0


def test_reader_round_trips_a_sampled_ensemble(tmp_path):
    path = tmp_path / "recs.jsonl"
    for model in ("qm-discrete", "qm-collapse", "qm-nocollapse"):
        ens = generate_ensemble(model, 0.3, 1.2, 1000, RandomStream(5))
        write_records_jsonl(path, ens)
        got = read_records_jsonl(path)
        assert got == ens.records() == _reference_read(path.read_bytes())
        assert len({id(r) for r in got}) == len(ens.table["in_channel"])


_GOOD = record_to_dict(full_record())
_BRANCH = record_to_dict(weighted_record())


@pytest.mark.parametrize("bad", [
    pytest.param(json.dumps({k: v for k, v in _GOOD.items() if k != "sigma_l"}), id="no-sigma_l"),
    pytest.param(json.dumps([0.1, 0.9]), id="array"),
    pytest.param("7", id="number"),
    pytest.param(json.dumps(_GOOD | {"weights": [0.5]}), id="one-weight"),
    pytest.param(json.dumps(_GOOD | {"weights": [0.25, 0.5, 0.25]}), id="three-weights"),
    pytest.param(json.dumps(_GOOD | {"weights": 0.5}), id="scalar-weights"),
    pytest.param(json.dumps(_GOOD | {"in_channel": "x"}), id="text-channel"),
    pytest.param(json.dumps(_GOOD | {"in_channel": 1.7}), id="fractional-channel"),
    pytest.param(json.dumps(_GOOD | {"in_channel": 1.0}), id="float-channel"),
    pytest.param(json.dumps(_GOOD | {"out_channel": True}), id="bool-channel"),
    pytest.param(json.dumps(_GOOD | {"out_channel": 5}), id="channel-5"),
    pytest.param(json.dumps(_GOOD | {"in_channel": -3}), id="channel-minus-3"),
    pytest.param(json.dumps(_GOOD | {"sigma_r": None}), id="null-setting"),
    pytest.param("{not json", id="not-json"),
    pytest.param(json.dumps(_GOOD | {"extra": 1}), id="unknown-key"),
    pytest.param(json.dumps(_GOOD | {"tau_l": math.nan}), id="nan-angle"),
    pytest.param(json.dumps(_GOOD | {"sigma_r": math.inf}), id="infinite-setting"),
    pytest.param(json.dumps(_GOOD | {"tau_r": -math.inf}), id="infinite-angle"),
    pytest.param(json.dumps(_GOOD | {"weights": [0.9, 0.9]}), id="weights-sum-1.8"),
    pytest.param(json.dumps(_GOOD | {"weights": [1.5, -0.5]}), id="negative-weight"),
    pytest.param(json.dumps(_GOOD | {"weights": [math.nan, 1.0]}), id="nan-weight"),
    pytest.param(json.dumps(_GOOD | {"model": [1, 2]}), id="list-model"),
    pytest.param(json.dumps(_GOOD | {"sigma_l": "0.1"}), id="text-setting"),
    pytest.param(json.dumps(_GOOD | {"sigma_l": True}), id="bool-setting"),
    pytest.param(json.dumps(_GOOD | {"sigma_l": 10**400}), id="setting-beyond-floats"),
    pytest.param(json.dumps(_GOOD | {"tau_l": "1"}), id="text-angle"),
    pytest.param(json.dumps(_BRANCH | {"weights": ["0.5", 0.5]}), id="text-weight"),
    pytest.param(json.dumps(_BRANCH | {"weights": [True, 0]}), id="bool-weight"),
    pytest.param(json.dumps(_GOOD | {"weights": [0.5, 0.5]}), id="weights-beside-exit-channel"),
])
def test_reader_names_the_file_and_line_of_a_malformed_record(tmp_path, bad):
    # the good line comes first and again after the bad one: the memo must
    # not hide the bad line's number
    path = tmp_path / "recs.jsonl"
    good = json.dumps(_GOOD)
    path.write_text("\n".join([good, "", bad, good]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: "):
        read_records_jsonl(path)


def test_reader_names_the_file_and_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "recs.jsonl"
    good = json.dumps(_GOOD).encode() + b"\n"
    path.write_bytes(good + b'{"model": "\xff"}\n' + good)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 2: .*UnicodeDecodeError"):
        read_records_jsonl(path)


def test_reader_ends_lines_at_newline_only(tmp_path):
    # a lone carriage return is inside a line, not between two
    path = tmp_path / "recs.jsonl"
    good = json.dumps(_GOOD).encode()
    path.write_bytes(good + b"\r\n" + good + b"\r" + good + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 2: "):
        read_records_jsonl(path)


@pytest.mark.parametrize("key, value", [
    ("in_channel", 1.7), ("in_channel", 1.0), ("out_channel", True), ("out_channel", 5),
    ("in_channel", -3),
])
def test_record_channel_must_be_integer_0_or_1(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be 0, 1 or null, got {re.escape(repr(value))}$"):
        record_from_dict(_GOOD | {key: value})
    assert record_from_dict(_GOOD | {key: None}) == record_from_dict(
        {k: v for k, v in _GOOD.items() if k != key})


# ------------------------------------------------- atomic writes


def _disk_holding(capacity):
    """An ``open`` whose files refuse writes past ``capacity`` bytes,
    after writing what still fits, as a full disk would."""

    def fake_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        real_write = fh.write
        written = [0]

        def write(text):
            room = capacity - written[0]
            if len(text) > room:
                real_write(text[:room])
                fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written[0] += len(text)
            return real_write(text)

        fh.write = write
        return fh

    return fake_open


@pytest.mark.parametrize("existing", [None, "old content\n"])
@pytest.mark.parametrize("flag", ["--records", "--out"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, flag, existing):
    target = tmp_path / "target"
    if existing is not None:
        target.write_text(existing)
    monkeypatch.setattr(records_module, "open", _disk_holding(100), raising=False)
    argv = ["run", "--model", "qm-discrete", "--sigma-l", "0.3", "--sigma-r", "1.2",
            "--n", "100000", "--records-limit", "0", flag, str(target)]
    assert cli.main(argv) == 3
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["target"])
    if existing is not None:
        assert target.read_text() == existing


def test_successful_write_replaces_target(tmp_path):
    path = tmp_path / "recs.jsonl"
    path.write_text("stale\n" * 10)
    assert write_records_jsonl(path, full_ensemble()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["recs.jsonl"]
    assert read_records_jsonl(path) == [full_record()]


def test_write_through_to_a_pipe(tmp_path):
    # a path that is no regular file is written in place, never replaced
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert write_records_jsonl(fifo, full_ensemble()) == 1
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert data == (json.dumps(record_to_dict(full_record())) + "\n").encode()


@pytest.mark.parametrize("mode", [0o600, 0o755], ids=oct)
def test_replaced_target_keeps_its_mode(tmp_path, mode):
    path = tmp_path / "recs.jsonl"
    path.write_text("stale\n")
    path.chmod(mode)
    assert write_records_jsonl(path, full_ensemble()) == 1
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_descriptor_path_is_written_in_place(tmp_path):
    # /dev/fd/N reaches a regular file through /proc: the file behind the
    # descriptor is written, not swapped for a new one
    path = tmp_path / "held.jsonl"
    with open(path, "w") as held:
        inode = os.fstat(held.fileno()).st_ino
        assert write_records_jsonl(f"/dev/fd/{held.fileno()}", full_ensemble()) == 1
        assert os.stat(path).st_ino == inode
    assert read_records_jsonl(path) == [full_record()]
    assert [p.name for p in tmp_path.iterdir()] == ["held.jsonl"]


_LINE = (json.dumps(record_to_dict(full_record())) + "\n").encode()


@pytest.mark.parametrize("via", ["proc-self-fd", "symlink-to-dev-fd"])
def test_a_held_descriptor_is_written_at_its_offset(tmp_path, via):
    # the file behind the descriptor is written after what it already holds,
    # and neither it nor a user's symlink to the descriptor is replaced
    path = tmp_path / "held.jsonl"
    with open(path, "wb") as held:
        held.write(b"head\n")
        held.flush()
        inode = os.fstat(held.fileno()).st_ino
        target = f"/proc/self/fd/{held.fileno()}"
        if via == "symlink-to-dev-fd":
            target = tmp_path / "link"
            target.symlink_to(f"/dev/fd/{held.fileno()}")
        assert write_records_jsonl(target, full_ensemble()) == 1
        assert os.stat(path).st_ino == inode
    assert path.read_bytes() == b"head\n" + _LINE
    names = ["held.jsonl", "link"] if via == "symlink-to-dev-fd" else ["held.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert os.path.islink(target) == (via == "symlink-to-dev-fd")


def test_a_dangling_symlink_makes_its_target_and_stays(tmp_path):
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "made.jsonl")
    assert write_records_jsonl(link, full_ensemble()) == 1
    assert os.path.islink(link) and os.readlink(link) == str(tmp_path / "made.jsonl")
    assert (tmp_path / "made.jsonl").read_bytes() == _LINE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "made.jsonl"]


def test_a_fifo_through_a_symlink_is_written_in_place(tmp_path):
    fifo, link = tmp_path / "fifo", tmp_path / "link"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert write_records_jsonl(link, full_ensemble()) == 1
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data == _LINE
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.path.islink(link)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link"]


@pytest.mark.parametrize("path, error", [
    ("nodir/recs.jsonl", FileNotFoundError),  # the temporary file cannot be made
    ("", IsADirectoryError),  # the working directory cannot be replaced
], ids=["missing-directory", "empty"])
def test_a_failed_write_names_the_path_given(tmp_path, monkeypatch, path, error):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    with pytest.raises(error) as failed:
        write_records_jsonl(path, full_ensemble())
    assert failed.value.filename == path and failed.value.filename2 is None
    assert str(failed.value).endswith(f": {path!r}")
    assert [p.name for p in tmp_path.rglob("*")] == ["cwd"]  # no temporary file left


def test_directory_without_room_for_a_temporary_file(tmp_path, monkeypatch):
    # a writable target in a directory that takes no new file is written in
    # place; an absent target there still fails
    def refuse_new(file, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(records_module, "open", refuse_new, raising=False)
    path = tmp_path / "recs.jsonl"
    with pytest.raises(PermissionError):
        write_records_jsonl(path, full_ensemble())
    path.write_text("stale\n")
    assert write_records_jsonl(path, full_ensemble()) == 1
    assert read_records_jsonl(path) == [full_record()]
