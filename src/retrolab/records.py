"""Run records, their dictionary-encoded batch form, and the JSON-lines disk
format shared by the command-line tools.

A record stores one run's full history.  Which fields are populated is the
model family's signature: discrete-symmetric runs carry channels and both leg
polarizations, collapse runs drop the return-leg polarization, no-collapse
runs drop the outcome and carry the branch weight pair instead.  Absent
fields stay None in memory and are omitted on disk; angles are radians.

Records files are UTF-8, one record per line, and every line ends in a line
feed on every platform: the lines are encoded once and written through a binary
handle.  Files are written atomically: the bytes go to a temporary file in the
target directory, which replaces the target only once it is complete, so a
failed write leaves no partial file.  A pipe, a terminal or a descriptor path
such as ``/dev/stdout`` is written in place.  A negative row limit is rejected.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from typing import TYPE_CHECKING, NamedTuple

from .stats import row_blocks

if TYPE_CHECKING:
    import numpy as np

# rows per block of bytes the ensemble writer joins and writes, about
# 0.15 MB of 150-byte lines; 2^11 rows raise run --records' peak RSS by
# 0.1-0.3 MB, and at this size the writer's time stays level
WRITE_ROWS = 1 << 10

# rows per bincount in Ensemble.row_counts: bincount copies its input to
# intp, 8 B a row, so the copy stays at 32 KiB
COUNT_ROWS = 1 << 12

# fixed key order of the JSON-lines format
RECORD_KEYS = (
    "sigma_l",
    "in_channel",
    "tau_l",
    "tau_r",
    "sigma_r",
    "out_channel",
    "weights",
    "model",
)


class ExperimentRecord(NamedTuple):
    """Everything one run wrote down; beables that never existed stay None."""

    sigma_l: float
    sigma_r: float
    model: str
    in_channel: int | None = None
    out_channel: int | None = None
    tau_l: float | None = None
    tau_r: float | None = None
    weights: tuple[float, float] | None = None


def record_to_dict(record: ExperimentRecord) -> dict:
    """JSON-ready dict in the fixed key order, absent fields omitted."""
    out: dict = {}
    for key in RECORD_KEYS:
        value = getattr(record, key)
        if value is None:
            continue
        if key == "weights":
            value = [float(value[0]), float(value[1])]
        out[key] = value
    return out


def _channel(data: dict, key: str) -> int | None:
    """The raw JSON value at ``key``: the integer 0 or 1, or None when absent."""
    value = data.get(key)
    if value is None or (type(value) is int and value in (0, 1)):
        return value
    raise ValueError(f"{key} must be 0, 1 or null, got {value!r}")


def _number(key: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite JSON number,
    an int or a float but not a bool; OverflowError for an int beyond floats."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def record_from_dict(data: dict) -> ExperimentRecord:
    """Inverse of :func:`record_to_dict`; KeyError, TypeError or ValueError
    when ``data`` is no dict, lacks a key, holds a key outside
    :data:`RECORD_KEYS` or a value of the wrong type (a model that is no
    string, an angle or a weight that is no number), a non-finite angle,
    weights that are not two numbers >= 0 summing to 1 within 1e-12, or
    weights beside an exit channel; OverflowError for an integer angle or
    weight beyond the float range."""
    if not isinstance(data, dict):
        raise TypeError(f"a record is a JSON object, not {type(data).__name__}")
    if data.keys() - set(RECORD_KEYS):
        raise ValueError(f"unknown keys {sorted(data.keys() - set(RECORD_KEYS))}")
    if type(data["model"]) is not str:
        raise ValueError(f"model must be a string, got {data['model']!r}")
    weights = data.get("weights")
    if weights is not None:
        w1, w0 = (_number("weights", w) for w in weights)  # a pair, or ValueError
        if not (w1 >= 0.0 and w0 >= 0.0 and abs(w1 + w0 - 1.0) <= 1e-12):
            raise ValueError(f"weights must be two numbers >= 0 summing to 1, got {weights!r}")
        if data.get("out_channel") is not None:
            raise ValueError("a record with weights has no exit channel")
        weights = (w1, w0)
    return ExperimentRecord(
        sigma_l=_number("sigma_l", data["sigma_l"]),
        sigma_r=_number("sigma_r", data["sigma_r"]),
        model=data["model"],
        in_channel=_channel(data, "in_channel"),
        out_channel=_channel(data, "out_channel"),
        tau_l=None if data.get("tau_l") is None else _number("tau_l", data["tau_l"]),
        tau_r=None if data.get("tau_r") is None else _number("tau_r", data["tau_r"]),
        weights=weights,
    )


def _written_in_place(path) -> bool:
    """Whether ``path`` must be opened in place rather than replaced.

    True when it exists but is no regular file (a pipe, a terminal,
    ``/dev/null``), or when it reaches its file through ``/proc``, as
    ``/dev/stdout`` and ``/dev/fd/N`` do: such a path names a descriptor the
    caller already holds, whose file must not be swapped for another.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return True
    except OSError:
        return False  # absent: created by the replace
    hop = os.path.abspath(path)
    for _ in range(40):  # symlink hops, as the kernel allows
        head = os.path.realpath(os.path.dirname(hop))
        if os.path.commonpath([head, "/proc"]) == "/proc":
            return True
        hop = os.path.join(head, os.path.basename(hop))
        if not os.path.islink(hop):
            return False
        hop = os.path.join(head, os.readlink(hop))
    return False


@contextlib.contextmanager
def atomic_open(path):
    """Binary handle whose content replaces ``path`` only if the block succeeds.

    The handle writes to a temporary file beside ``path``, so the final
    ``os.replace`` is a rename within one file system; on any error the
    temporary file is removed and ``path`` is left as it was.  A replaced
    file keeps its permission bits; as with any rename, hard links to it keep
    the old content.  A symlink is followed, as by ``open(path, "wb")``.
    ``path`` is written in place, as by ``open(path, "wb")``, when it names a
    descriptor (see :func:`_written_in_place`) or when its directory takes
    no new file but the file itself exists.
    """
    if _written_in_place(path):
        with open(path, "wb") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except PermissionError:
        if not os.path.isfile(target):
            raise
        with open(target, "wb") as fh:
            yield fh
        return
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_records_jsonl(path, ensemble: Ensemble, limit=None) -> int:
    """Write the first ``limit`` rows of ``ensemble`` (None = all) one JSON
    object per line, UTF-8 with line-feed ends; returns the number written.

    The rows are never materialised: each table row's line is rendered and
    encoded once, and the codes pick every row's line in blocks of
    :data:`WRITE_ROWS` rows, so the writer's peak, one block of bytes
    (0.18–0.25 MB under tracemalloc), does not grow with n.
    """
    import numpy as np

    count = ensemble._count(limit)
    lines = np.array([json.dumps(record_to_dict(record)).encode() + b"\n"
                      for record in ensemble._table_records()], dtype=object)
    with atomic_open(path) as fh:
        for rows in row_blocks(count, WRITE_ROWS):
            fh.write(b"".join(lines[ensemble.codes[rows]].tolist()))
    return count


def read_records_jsonl(path) -> list[ExperimentRecord]:
    """Records of a UTF-8 JSON-lines file, in file order; blank lines are
    skipped.

    Lines end at a line feed; a carriage return before it is stripped with
    the other whitespace, but a lone carriage return ends no line.  Each distinct line is
    decoded and parsed once, and equal lines share one frozen record, so a
    sampled file of a few distinct lines costs one list slot per row.  The
    memo keeps every distinct line as a key: a file of all-distinct lines
    costs about twice the memory of its records alone.  A line that is no
    UTF-8 or no record is a ValueError naming the file and the line.
    """
    memo: dict[bytes, ExperimentRecord | None] = {}
    out = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            record = memo.get(line)
            if record is None and line not in memo:
                try:
                    text = line.decode().strip()
                    record = memo[line] = record_from_dict(json.loads(text)) if text else None
                except (KeyError, TypeError, ValueError, OverflowError) as err:
                    raise ValueError(f"{os.fspath(path)}, line {number}: not a record: "
                                     f"{type(err).__name__}: {err}") from err
            if record is not None:
                out.append(record)
    return out


#: the fields an ensemble's table may hold, in the order of ExperimentRecord's
#: fields after ``model`` (``weight_1`` standing for ``weights``)
FIELDS = ("in_channel", "out_channel", "tau_l", "tau_r", "weight_1")


def _decoded(field: str) -> property:
    """Read-only column of ``field`` for every run; None when absent."""
    return property(lambda self: self.table[field][self.codes] if field in self.table else None)


class Ensemble:
    """Batch of runs from one model at fixed settings, dictionary-encoded.

    ``table`` maps each field present for the whole family (a subset of
    :data:`FIELDS`) to one value per table row, and ``codes`` holds each
    run's table row.  Rows need not be distinct: a sampler writes one uint8
    code per run over a table of at most four rows, while ``codes =
    arange(n)`` over a set of columns holds any ensemble.  A field absent
    from the table is absent from every record, mirroring the per-record
    convention.  Table columns of unequal length, codes that are no 1-d
    integer array and codes outside the table are a ValueError.
    """

    __slots__ = ("model", "sigma_l", "sigma_r", "codes", "table")

    in_channel = _decoded("in_channel")
    out_channel = _decoded("out_channel")
    tau_l = _decoded("tau_l")
    tau_r = _decoded("tau_r")
    weight_1 = _decoded("weight_1")

    def __init__(self, model: str, sigma_l: float, sigma_r: float, codes: np.ndarray,
                 table: dict[str, np.ndarray]):
        import numpy as np

        self.model, self.sigma_l, self.sigma_r, self.codes, self.table = (
            model, sigma_l, sigma_r, codes, table)
        lengths = {field: len(values) for field, values in table.items()}
        if set(lengths) - set(FIELDS):
            raise ValueError(f"unknown table fields {sorted(set(lengths) - set(FIELDS))}")
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table columns differ in length: {lengths}")
        if not isinstance(codes, np.ndarray) or codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be a 1-d integer array, not {np.asarray(codes).dtype}"
                             f"{list(np.shape(codes))}")
        rows = self._table_rows()
        if codes.size and (codes.min() < 0 or codes.max() >= rows):
            raise ValueError(f"codes must lie in [0, {rows}), got {codes.min()} to {codes.max()}")

    @property
    def n(self) -> int:
        return len(self.codes)

    def _table_rows(self) -> int:
        return len(next(iter(self.table.values()), ()))

    def _count(self, limit: int | None = None) -> int:
        """Rows kept under ``limit`` (None = all); ValueError unless it is an
        integer of at least 0."""
        if limit is None:
            return self.n
        if not hasattr(limit, "__index__") or limit < 0:  # numpy integers pass
            raise ValueError(f"limit must be None or an integer of at least 0, got {limit!r}")
        return min(self.n, int(limit))

    def row_counts(self) -> np.ndarray:
        """Runs per table row, counted block by block."""
        import numpy as np

        counts = np.zeros(self._table_rows(), dtype=np.intp)
        for rows in row_blocks(self.n, COUNT_ROWS):
            counts += np.bincount(self.codes[rows].astype(np.intp, copy=False), minlength=len(counts))
        return counts

    def channel_counts(self) -> list[float]:
        """Runs per channel cell ``2*in + out``, as floats.

        A family that selects no outcome (a ``weight_1`` column) splits each
        run between the two cells of its entry channel by branch weight; a
        table row's weight is summed as numpy sums that many equal values,
        over a zero-stride view that allocates nothing per run.  ValueError
        when a channel column it needs is missing or not all 0 and 1.
        """
        import numpy as np

        table = {field: values.tolist() for field, values in self.table.items()}
        for field in ("in_channel",) + (() if "weight_1" in table else ("out_channel",)):
            column = self.table.get(field)
            if column is None or column.dtype.kind not in "biu" or not set(table[field]) <= {0, 1}:
                raise ValueError(f"channel counts need an {field} column of 0s and 1s")
        counts = [0.0, 0.0, 0.0, 0.0]
        for row, k in enumerate(self.row_counts().tolist()):
            c = table["in_channel"][row]
            if "weight_1" in table:
                w1 = float(np.broadcast_to(table["weight_1"][row], k).sum())
                counts[2 * c + 1] += w1
                counts[2 * c] += k - w1
            else:
                counts[2 * c + table["out_channel"][row]] += k
        return counts

    def _table_records(self) -> list[ExperimentRecord]:
        """One record per table row."""
        columns = [
            [cast(v) for v in self.table[field]] if field in self.table else [None] * self._table_rows()
            for field, cast in zip(FIELDS, (int, int, float, float, float))
        ]
        columns[-1] = [None if w1 is None else (w1, 1.0 - w1) for w1 in columns[-1]]
        return [ExperimentRecord(self.sigma_l, self.sigma_r, self.model, *row) for row in zip(*columns)]

    def records(self, limit: int | None = None) -> list[ExperimentRecord]:
        """Materialize rows as records; ``limit`` caps the count (None = all).

        Each table row is built into a record once, and its runs share it.
        """
        count = self._count(limit)
        table = self._table_records()
        return [table[c] for c in self.codes[:count].tolist()]
