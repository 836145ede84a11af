"""Run records, their column-oriented batch form, and the JSON-lines disk
format shared by the command-line tools.

A record stores one run's full history.  Which fields are populated is the
model family's signature: discrete-symmetric runs carry channels and both leg
polarizations, collapse runs drop the return-leg polarization, no-collapse
runs drop the outcome and carry the branch weight pair instead.  Absent
fields stay None in memory and are omitted on disk; angles are radians.

Records files are written atomically: the lines go to a temporary file in the
target directory, which replaces the target only once it is complete, so a
failed write leaves no partial file.  A pipe, a terminal or a descriptor
path such as ``/dev/stdout`` is written in place.  A negative row limit is
rejected.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .stats import row_blocks

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class ExperimentRecord:
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


def record_from_dict(data: dict) -> ExperimentRecord:
    weights = data.get("weights")
    if weights is not None:
        weights = (float(weights[0]), float(weights[1]))
    return ExperimentRecord(
        sigma_l=float(data["sigma_l"]),
        sigma_r=float(data["sigma_r"]),
        model=str(data["model"]),
        in_channel=None if data.get("in_channel") is None else int(data["in_channel"]),
        out_channel=None if data.get("out_channel") is None else int(data["out_channel"]),
        tau_l=None if data.get("tau_l") is None else float(data["tau_l"]),
        tau_r=None if data.get("tau_r") is None else float(data["tau_r"]),
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
    """Text handle whose content replaces ``path`` only if the block succeeds.

    The handle writes to a temporary file beside ``path``, so the final
    ``os.replace`` is a rename within one file system; on any error the
    temporary file is removed and ``path`` is left as it was.  A replaced
    file keeps its permission bits; as with any rename, hard links to it keep
    the old content.  A symlink is followed, as by ``open(path, "w")``.
    ``path`` is written in place, as by ``open(path, "w")``, when it names a
    descriptor (see :func:`_written_in_place`) or when its directory takes
    no new file but the file itself exists.
    """
    if _written_in_place(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except PermissionError:
        if not os.path.isfile(target):
            raise
        with open(target, "w", encoding="utf-8") as fh:
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


def write_records_jsonl(path, records: Iterable[ExperimentRecord] | Ensemble, limit=None) -> int:
    """Write records one JSON object per line; returns the number written.

    ``records`` is an iterable of records or an :class:`Ensemble`, whose
    first ``limit`` rows are written (None = all).  An ensemble is written
    without materialising its rows: each distinct row is rendered once and
    every row is emitted as a copy of its rendering, in blocks of
    ``stats.CHUNK_ROWS`` rows.
    """
    if isinstance(records, Ensemble):
        return _write_ensemble(path, records, limit)
    count = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)))
            fh.write("\n")
            count += 1
    return count


def _check_limit(limit) -> int | None:
    if limit is None:
        return None
    if int(limit) < 0:
        raise ValueError(f"limit must be None or at least 0, got {limit!r}")
    return int(limit)


def _distinct_rows(columns: list[np.ndarray], count: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the first ``count`` rows by exact value.

    Returns the index of each group's first row and every row's group code.
    Float columns compare by bit pattern, so -0.0 and 0.0, or two NaN
    payloads, stay apart.  Columns are factorised one at a time and the
    combined code is re-factorised after each, so it stays below count**2.
    """
    import numpy as np

    codes = np.zeros(count, dtype=np.int64)
    first = np.zeros(min(count, 1), dtype=np.int64)  # one group until a column splits it
    for column in columns:
        column = np.ascontiguousarray(column[:count])
        if column.dtype.kind == "f":
            column = column.view(f"u{column.itemsize}")
        values, inverse = np.unique(column, return_inverse=True)
        _, first, codes = np.unique(
            codes * len(values) + inverse, return_index=True, return_inverse=True
        )
    return first, codes


def _write_ensemble(path, ensemble: Ensemble, limit) -> int:
    count = ensemble._count(limit)
    first, codes = _distinct_rows(ensemble.columns(), count)
    lines = [json.dumps(record_to_dict(ensemble.record(int(i)))) + "\n" for i in first]
    with atomic_open(path) as fh:
        for rows in row_blocks(count):
            fh.write("".join([lines[c] for c in codes[rows].tolist()]))
    return count


def read_records_jsonl(path) -> list[ExperimentRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(record_from_dict(json.loads(line)))
    return out


@dataclass
class Ensemble:
    """Column-oriented batch of runs from one model at fixed settings.

    Same content as a list of ExperimentRecord, flattened to arrays so that
    million-run audits stay cheap.  A column is None when that field is
    absent for the whole family, mirroring the per-record convention.
    """

    model: str
    sigma_l: float
    sigma_r: float
    in_channel: np.ndarray | None = None
    out_channel: np.ndarray | None = None
    tau_l: np.ndarray | None = None
    tau_r: np.ndarray | None = None
    weight_1: np.ndarray | None = None

    def columns(self) -> list[np.ndarray]:
        """The columns present, in a fixed order."""
        columns = (self.in_channel, self.out_channel, self.tau_l, self.tau_r, self.weight_1)
        return [column for column in columns if column is not None]

    @property
    def n(self) -> int:
        columns = self.columns()
        return len(columns[0]) if columns else 0

    def _count(self, limit: int | None = None) -> int:
        """Rows kept under ``limit`` (None = all); a negative limit is an error."""
        limit = _check_limit(limit)
        return self.n if limit is None else min(self.n, limit)

    def record(self, i: int) -> ExperimentRecord:
        """Row ``i`` as a record."""
        weights = None
        if self.weight_1 is not None:
            w1 = float(self.weight_1[i])
            weights = (w1, 1.0 - w1)
        return ExperimentRecord(
            sigma_l=self.sigma_l,
            sigma_r=self.sigma_r,
            model=self.model,
            in_channel=None if self.in_channel is None else int(self.in_channel[i]),
            out_channel=None if self.out_channel is None else int(self.out_channel[i]),
            tau_l=None if self.tau_l is None else float(self.tau_l[i]),
            tau_r=None if self.tau_r is None else float(self.tau_r[i]),
            weights=weights,
        )

    def records(self, limit: int | None = None) -> list[ExperimentRecord]:
        """Materialize rows as records; ``limit`` caps the count (None = all)."""
        return [self.record(i) for i in range(self._count(limit))]
