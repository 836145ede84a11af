"""Run records, their dictionary-encoded batch form, and the JSON-lines disk
format shared by the command-line tools.

A record stores one run's full history.  Which fields are populated is the
model family's signature: discrete-symmetric runs carry channels and both leg
polarizations, collapse runs drop the return-leg polarization, no-collapse
runs drop the outcome and carry the branch weight pair instead.  Absent
fields stay None in memory and are omitted on disk; angles are radians.

Records files are UTF-8, one record per line, and every line ends in a line
feed on every platform: the lines are encoded once and written through a binary
handle.  Each target path is resolved once (:func:`resolve_target`): one of
this process's own descriptors (``/dev/stdout``) is written through a
duplicate, at its offset; a pipe, a terminal or another path through ``/proc``
in place; any other file atomically: the bytes go to a temporary file in the
target directory, which replaces the target only once it is complete, so a
failed write leaves no partial file.  A negative row limit is rejected.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# rows per block of bytes the ensemble writer joins and writes, about
# 0.15 MB of 150-byte lines; 2^11 rows raise run --records' peak RSS by
# 0.1-0.3 MB, and at this size the writer's time stays level
WRITE_ROWS = 1 << 10

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


def _proc_hop(path) -> str | None:
    """The first hop of ``path``'s symlink chain whose directory is under
    ``/proc``, as ``/proc/<pid>/fd/N`` is for ``/dev/stdout`` and
    ``/dev/fd/N``, with that directory resolved; None when no hop is."""
    hop = os.path.abspath(path)
    for _ in range(40):  # symlink hops, as the kernel allows
        head = os.path.realpath(os.path.dirname(hop))
        hop = os.path.join(head, os.path.basename(hop))
        if os.path.commonpath([head, "/proc"]) == "/proc":
            return hop
        if not os.path.islink(hop):
            return None
        hop = os.path.join(head, os.readlink(hop))
    return None


def resolve_target(path) -> int | str | None:
    """How ``path`` is written, decided once: the descriptor of this process
    that it reaches through ``/proc`` (``/dev/stdout``, ``/dev/fd/N``,
    ``/proc/self/fd/N``), to write through a duplicate; ``path`` itself, to
    open in place, for any other existing path through ``/proc`` and any
    existing file that is no regular file (a pipe, a terminal, ``/dev/null``),
    whose file must not be swapped for another; or None, to replace it through
    a temporary file beside its real path.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return None  # absent: created by the replace
    hop = _proc_hop(path)
    if hop is None:
        return None if regular else path
    head, name = os.path.split(hop)
    return int(name) if head == os.path.realpath("/proc/self/fd") and name.isdigit() else path


@contextlib.contextmanager
def atomic_open(path):
    """Binary handle whose content replaces ``path`` only if the block succeeds.

    ``path`` is written as :func:`resolve_target` decides: through a duplicate
    of this process's descriptor, at its offset and with its ``O_APPEND``; in
    place, as by ``open(path, "wb")``, as is an existing file whose directory
    takes no new file; or replaced: the handle writes to a temporary file
    beside ``path``'s real path, so the final ``os.replace`` is a rename within
    one file system, and on any error the temporary file is removed and
    ``path`` is left as it was.  A replaced file keeps its permission bits; as
    with any rename, hard links to it keep the old content.  A symlink is
    followed, as by ``open(path, "wb")``.  Any OSError of opening, writing,
    flushing, closing or renaming names ``path``.
    """
    try:
        where = resolve_target(path)
        if where is None:
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            try:
                fh = open(tmp, "xb")
            except PermissionError:
                if not os.path.isfile(target):
                    raise
                where = target  # the directory takes no new file
        if where is not None:
            with os.fdopen(os.dup(where), "wb") if isinstance(where, int) else open(where, "wb") as fh:
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
    except OSError as err:  # a write's error names no file, a temporary file's the wrong one
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err


def write_records_jsonl(path, ensemble: Ensemble, limit=None) -> int:
    """Write the first ``limit`` rows of ``ensemble`` (None = all) one JSON
    object per line, UTF-8 with line-feed ends; returns the number written.

    Each table row's line is rendered and encoded once, and each drawn block
    of codes picks its rows' lines :data:`WRITE_ROWS` at a time, so the peak
    does not grow with n.  Every row is drawn once and counted, so a later
    :meth:`Ensemble.row_counts` draws nothing.  ValueError, before the file
    is opened, for a ``limit`` that is no integer of at least 0 or a table
    row whose line :func:`read_records_jsonl` would refuse; ValueError, and
    no file, for a block that holds a code outside the table.
    """
    import numpy as np

    if limit is not None and (not hasattr(limit, "__index__") or limit < 0):  # numpy integers pass
        raise ValueError(f"limit must be None or an integer of at least 0, got {limit!r}")
    count = ensemble.n if limit is None else min(ensemble.n, int(limit))
    lines = np.array([json.dumps(record_to_dict(record)).encode() + b"\n"
                      for record in ensemble._table_records()], dtype=object)
    for line in lines.tolist():
        record_from_dict(json.loads(line))  # the reader's checks
    written = 0
    with atomic_open(path) as fh:
        for codes in ensemble._counted_draw():
            block = codes[: count - written]
            for start in range(0, len(block), WRITE_ROWS):
                fh.write(b"".join(lines[block[start:start + WRITE_ROWS]].tolist()))
            written += len(block)
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
    """Read-only column of ``field`` for every run, replayed; None when absent."""
    return property(lambda self: self.table[field][self.codes] if field in self.table else None)


class Ensemble:
    """Batch of ``n`` runs from one model at fixed settings, replayable.

    ``table`` maps each field present for the whole family (a subset of
    :data:`FIELDS`) to one value per table row, and ``draw()`` yields each
    run's table row as blocks of integer codes (arrays), in run order, the same at
    every call; a sampler's blocks are views of one reused uint8 buffer.
    :meth:`row_counts` keeps the counts of one checked pass (:meth:`_counted_draw`);
    ``codes``, the columns and :meth:`records` replay one.  Table columns not
    numpy arrays, of unequal length or outside :data:`FIELDS` are a ValueError.
    """

    __slots__ = ("model", "sigma_l", "sigma_r", "table", "n", "draw", "_counts")

    in_channel = _decoded("in_channel")
    out_channel = _decoded("out_channel")
    tau_l = _decoded("tau_l")
    tau_r = _decoded("tau_r")
    weight_1 = _decoded("weight_1")

    def __init__(self, model: str, sigma_l: float, sigma_r: float, table: dict[str, np.ndarray],
                 n: int, draw):
        self.model, self.sigma_l, self.sigma_r, self.table, self.n, self.draw = (
            model, sigma_l, sigma_r, table, n, draw)
        self._counts = None
        lengths = {field: len(values) for field, values in table.items()}
        for field, values in table.items():
            if not hasattr(values, "dtype"):  # a sampler's tuples, say, before _sampled
                raise ValueError(f"table column {field} is a {type(values).__name__}, not a numpy array")
        if set(lengths) - set(FIELDS):
            raise ValueError(f"unknown table fields {sorted(set(lengths) - set(FIELDS))}")
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table columns differ in length: {lengths}")

    @property
    def codes(self) -> np.ndarray:
        """Every run's table row, replayed into one array and counted."""
        import numpy as np

        return np.concatenate([block.copy() for block in self._counted_draw()])

    def _table_rows(self) -> int:
        return len(next(iter(self.table.values()), ()))

    def _counted_draw(self):
        """The draw's blocks, counted by table row as they pass, one
        ``np.bincount`` per block.  A block that holds a negative or a
        fractional code, or whose counts do not add up to its length (a code
        past the table), is a ValueError before it is yielded; a whole pass
        keeps the counts, or is a ValueError when they do not add up to
        ``n`` (a draw of another length)."""
        import numpy as np

        counts = np.zeros(self._table_rows(), dtype=np.intp)
        for codes in self.draw():
            try:  # numpy refuses a fractional code with a TypeError, a negative one with a ValueError
                # bincount allocates a counter for every value up to the largest code
                kept = codes if codes.dtype == np.uint8 else codes[codes < len(counts)]
                block = np.bincount(kept, minlength=len(counts))[:len(counts)]
            except (TypeError, ValueError) as err:
                problem = f"holds a code that is no table row: {err}"
            else:
                problem = None if block.sum() == len(codes) else f"gave {block.sum()} in table rows"
            if problem:
                raise ValueError(f"a block of {len(codes)} codes of the draw of n = {self.n} runs {problem}")
            counts += block
            yield codes
        if counts.sum() != self.n:
            raise ValueError(f"the draw of n = {self.n} runs gave {counts.sum()} in table rows")
        self._counts = counts

    def row_counts(self) -> np.ndarray:
        """Runs per table row, from one streamed pass over the draw."""
        if self._counts is None:
            for _ in self._counted_draw():
                pass
        return self._counts

    def channel_column(self, field: str, absent: int | None = None) -> list[int]:
        """Channel column ``field`` as Python ints, or ``absent`` per table row
        if it is missing; ValueError if it is missing with no ``absent``, or not all 0 and 1."""
        column = self.table.get(field)
        if column is None and absent is not None:
            return [absent] * self._table_rows()
        if column is None or column.dtype.kind not in "biu" or not set(column.tolist()) <= {0, 1}:
            raise ValueError(f"channel counts need an {field} column of 0s and 1s")
        return column.tolist()

    def channel_counts(self) -> list[float]:
        """Runs per channel cell ``2*in + out``, as floats.

        A family that selects no outcome (a ``weight_1`` column) splits each
        run between the two cells of its entry channel by branch weight; a
        table row's weight is summed as numpy sums that many equal values,
        over a zero-stride view that allocates nothing per run.  ValueError
        when a channel column it needs is missing or not all 0 and 1.
        """
        import numpy as np

        weights = self.table["weight_1"].tolist() if "weight_1" in self.table else None
        entry = self.channel_column("in_channel")
        outcome = self.channel_column("out_channel") if weights is None else None
        counts = [0.0, 0.0, 0.0, 0.0]
        for row, (k, c) in enumerate(zip(self.row_counts().tolist(), entry)):
            if weights is not None:
                w1 = float(np.broadcast_to(weights[row], k).sum())
                counts[2 * c + 1] += w1
                counts[2 * c] += k - w1
            else:
                counts[2 * c + outcome[row]] += k
        return counts

    def _table_records(self) -> list[ExperimentRecord]:
        """One record per table row."""
        columns = [
            [cast(v) for v in self.table[field]] if field in self.table else [None] * self._table_rows()
            for field, cast in zip(FIELDS, (int, int, float, float, float))
        ]
        columns[-1] = [None if w1 is None else (w1, 1.0 - w1) for w1 in columns[-1]]
        return [ExperimentRecord(self.sigma_l, self.sigma_r, self.model, *row) for row in zip(*columns)]

    def records(self) -> list[ExperimentRecord]:
        """Every run as a record, in run order, replaying the draw; each table
        row is built into a record once, and its runs share it."""
        table = self._table_records()
        return [table[c] for c in self.codes.tolist()]
