"""In-process span recorder for the traced benchmark run.

Each public entry point of a retrolab layer is wrapped at the name its caller
resolves (``audit.generate_ensemble``, ``records.Ensemble.records``, ...), so
the program itself is unchanged.  A span's self time is its duration minus the
time its child spans cover; summing self times over every span gives the time
covered by root spans exactly, which is what lets the per-layer numbers add up
to the traced wall time.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

import numpy as np
from retrolab import audit, cli, games, hvmodels, records, stats


class Tracer:
    """Wraps entry points, keeps per-span self time and counts for one pass."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_ns = 0
        self.audited: list = []  # ensembles generated inside audit_symmetry this op
        self.op_bytes = 0  # ensemble column bytes generated by the current op
        self.max_op_bytes = 0

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_ns += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``after(result, args)``
        runs once the span is closed."""
        orig = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls to ``owner.attr`` without timing them."""
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ hooks

    def _rows(self, layer: str):
        def after(ensemble, args):
            self.counts[layer + ".rows"] += ensemble.n

        return after

    def _generated(self, ensemble, args) -> None:
        nbytes = sum(
            col.nbytes
            for col in (
                ensemble.in_channel,
                ensemble.out_channel,
                ensemble.tau_l,
                ensemble.tau_r,
                ensemble.weight_1,
            )
            if col is not None
        )
        self.counts["ensemble.bytes"] += nbytes
        self.counts["ensemble.rows"] += ensemble.n
        self.op_bytes += nbytes
        if self.inside("audit.symmetry"):
            self.audited.append(ensemble)

    def _written(self, count, args) -> None:
        self.counts["records.rows_written"] += count
        self.counts["records.bytes_written"] += os.path.getsize(args[0])

    def _read(self, rows, args) -> None:
        self.counts["records.rows_read"] += len(rows)

    def install(self) -> None:
        self.wrap(cli, "main", "cli")
        self.wrap(audit, "simulate_ensemble", "photon.simulate", self._rows("photon"))
        self.wrap(audit, "simulate_twobit_ensemble", "hvmodels.simulate", self._rows("hvmodels"))
        self.wrap(audit, "simulate_onebit_ensemble", "hvmodels.simulate", self._rows("hvmodels"))
        self.wrap(audit, "generate_ensemble", "audit.generate", self._generated)
        self.wrap(audit, "reverse_ensemble", "audit.reverse")
        self.wrap(audit, "audit_symmetry", "audit.symmetry")
        self.wrap(hvmodels, "channel_joint", "hvmodels.analytic")
        self.wrap(hvmodels, "settings_dependence", "hvmodels.analytic")
        self.wrap(cli, "tv_distance", "stats.tv")
        self.wrap(hvmodels, "tv_distance", "stats.tv")
        self.wrap(games, "verify_lena_control", "games.verify")
        self.wrap(games, "verify_rena_control", "games.verify")
        self.wrap(records.Ensemble, "records", "records.materialise")
        self.wrap(records, "write_records_jsonl", "records.write", self._written)
        self.wrap(records, "read_records_jsonl", "records.read", self._read)
        self.count(stats.RandomStream, "generator", "stats.generator_calls")

    # ------------------------------------------------------------ per op

    def end_op(self) -> None:
        """Fold the finished op's audited ensembles into the counters.

        Runs outside the op's spans, so its cost lands in the caller's
        ``bench.oracle`` span rather than in any layer.
        """
        for ensemble in self.audited:
            n = ensemble.n
            cin = np.full(n, 2) if ensemble.in_channel is None else ensemble.in_channel
            cout = np.full(n, 2) if ensemble.out_channel is None else ensemble.out_channel
            cells = np.bincount(cin.astype(np.int32) * 3 + cout, minlength=9)
            self.counts["audit.rows_scanned"] += n
            self.counts["audit.signature_cells_nonzero"] += int(np.count_nonzero(cells))
        self.audited = []
        self.max_op_bytes = max(self.max_op_bytes, self.op_bytes)
        self.op_bytes = 0


def span_cost_ns(calls: int = 100_000) -> float:
    """Added cost of one wrapped call, from a spanned against a plain no-op."""

    class Probe:
        @staticmethod
        def noop():
            return None

    plain = Probe.noop
    start = time.perf_counter_ns()
    for _ in range(calls):
        plain()
    base = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    spanned = Probe.noop
    start = time.perf_counter_ns()
    for _ in range(calls):
        spanned()
    return (time.perf_counter_ns() - start - base) / calls


def layer_metrics(tr: Tracer, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    ms = {name: ns / 1e6 for name, ns in tr.self_ns.items()}
    c = tr.counts

    def per_row(ms_value: float, rows: int) -> float:
        return ms_value * 1e6 / rows if rows else 0.0

    audit_self = ms.get("audit.symmetry", 0.0) + ms.get("audit.generate", 0.0)
    return {
        "cli.self_ms": ms.get("cli", 0.0),
        "photon.simulate_ms": ms.get("photon.simulate", 0.0),
        "photon.ns_per_row": per_row(ms.get("photon.simulate", 0.0), c["photon.rows"]),
        "hvmodels.simulate_ms": ms.get("hvmodels.simulate", 0.0),
        "hvmodels.ns_per_row": per_row(ms.get("hvmodels.simulate", 0.0), c["hvmodels.rows"]),
        "audit.self_ms": audit_self,
        "audit.reverse_ms": ms.get("audit.reverse", 0.0),
        "audit.self_ns_per_row": per_row(audit_self, c["audit.rows_scanned"]),
        "audit.rows_scanned": c["audit.rows_scanned"],
        "audit.signature_cells_nonzero": c["audit.signature_cells_nonzero"],
        "audit.rows_per_nonzero_cell": (
            c["audit.rows_scanned"] / c["audit.signature_cells_nonzero"]
            if c["audit.signature_cells_nonzero"]
            else 0.0
        ),
        "records.ensemble_bytes_per_row": (
            c["ensemble.bytes"] / c["ensemble.rows"] if c["ensemble.rows"] else 0.0
        ),
        "records.materialise_ms": ms.get("records.materialise", 0.0),
        "records.write_ms": ms.get("records.write", 0.0),
        "records.rows_written": c["records.rows_written"],
        "records.bytes_written": c["records.bytes_written"],
        "records.distinct_lines": c["records.distinct_lines"],
        "records.read_ms": ms.get("records.read", 0.0),
        "records.rows_read": c["records.rows_read"],
        "hvmodels.analytic_ms": ms.get("hvmodels.analytic", 0.0),
        "hvmodels.analytic_calls": tr.calls["hvmodels.analytic"],
        "games.verify_ms": ms.get("games.verify", 0.0),
        "games.verify_calls": tr.calls["games.verify"],
        "stats.tv_ms": ms.get("stats.tv", 0.0),
        "stats.tv_calls": tr.calls["stats.tv"],
        "stats.generator_calls": c["stats.generator_calls"],
        "bench.oracle_ms": ms.get("bench.oracle", 0.0),
        "trace.wall_ms": wall_ns / 1e6,
        "trace.unaccounted_ms": (wall_ns - tr.root_ns) / 1e6,
    }


#: the per-layer self-time metrics that, with trace.unaccounted_ms, add up
#: to trace.wall_ms
SELF_TIME_METRICS = (
    "cli.self_ms",
    "photon.simulate_ms",
    "hvmodels.simulate_ms",
    "hvmodels.analytic_ms",
    "audit.self_ms",
    "audit.reverse_ms",
    "records.materialise_ms",
    "records.write_ms",
    "records.read_ms",
    "games.verify_ms",
    "stats.tv_ms",
    "bench.oracle_ms",
)

#: unit of every per-layer metric, in BENCHMARK.json order
UNITS = {
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "photon.simulate_ms": "ms",
    "photon.ns_per_row": "ns",
    "hvmodels.simulate_ms": "ms",
    "hvmodels.ns_per_row": "ns",
    "hvmodels.analytic_ms": "ms",
    "hvmodels.analytic_calls": "count",
    "audit.self_ms": "ms",
    "audit.reverse_ms": "ms",
    "audit.self_ns_per_row": "ns",
    "audit.rows_scanned": "count",
    "audit.signature_cells_nonzero": "count",
    "audit.rows_per_nonzero_cell": "ratio",
    "records.ensemble_bytes_per_row": "B",
    "records.materialise_ms": "ms",
    "records.write_ms": "ms",
    "records.rows_written": "count",
    "records.bytes_written": "B",
    "records.distinct_lines": "count",
    "records.read_ms": "ms",
    "records.rows_read": "count",
    "games.verify_ms": "ms",
    "games.verify_calls": "count",
    "stats.tv_ms": "ms",
    "stats.tv_calls": "count",
    "stats.generator_calls": "count",
    "bench.oracle_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
}
