"""Benchmark of the retrolab command line.

    python3 retrobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a retrolab checkout; the package is taken from ``src/``.

With ``--trace 0`` the workload's ops run as a closed loop with one client:
one ``python -m retrolab ...`` child at a time, the next starting only after
the last has been reaped.  Wall time, CPU time and peak RSS of each child come
from ``os.wait4``.  Passes over the op list repeat for about ``--seconds``
(at least two), and every op's output is checked by an oracle and hashed, so
that a pass that differs from the first one counts as failed.

With ``--trace 1`` one untraced subprocess pass is followed by in-process
passes through ``retrolab.cli.main``, alternately untraced and traced with
the span recorder of ``spans.py``; the traced passes give the per-layer
metrics, and their payload hashes must equal the subprocess pass's.

Details (machine, inputs, per-op results) are printed first; the last line of
standard output is the JSON result.  README.md in this directory explains the
workloads and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

AUDIT_N = 1_000_000
RECORDS_N = 400_000
RUN_N = 1_000_000
SETUP_SAMPLES = 9
MIN_PASSES = 2
OP_TIMEOUT_S = 120.0

AUDIT_MODELS = ("twobit", "onebit", "qm-discrete", "qm-collapse", "qm-nocollapse")
STOCHASTIC_MODELS = AUDIT_MODELS
ALL_MODELS = STOCHASTIC_MODELS + ("classical",)
GENERIC_PAIRS = (("0", "0.5236"), ("0.3", "1.2"))
DEGENERATE_PAIRS = (("0", "0"), ("0", repr(math.pi / 2)))
RETRO_MODELS = ("twobit", "onebit", "qm-discrete")  # settings-dependent: exit 1
AUDIT_VERDICT = {0: "symmetric", 1: "asymmetric", 4: "inconclusive"}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_rc: int
    rows: int  # ensemble rows the op generates: 2n for an audit, n for a run
    records: str | None = None  # JSON-lines file the op writes


def audit_grid(seed: str, tmp: str) -> list[Op]:
    ops = []
    for model in AUDIT_MODELS:
        for a, b in GENERIC_PAIRS + DEGENERATE_PAIRS:
            degenerate = (a, b) in DEGENERATE_PAIRS
            rc = (4 if degenerate else 1) if model == "qm-collapse" else 0
            argv = ("audit", model, a, b, "--n", str(AUDIT_N), "--seed", seed)
            ops.append(Op(argv, rc, 2 * AUDIT_N))
    return ops


def records_dump(seed: str, tmp: str) -> list[Op]:
    ops = []
    for model in ("qm-discrete", "qm-nocollapse", "twobit"):
        path = os.path.join(tmp, f"{model}.jsonl")
        argv = (
            "run", "--model", model, "--sigma-l", "0.3", "--sigma-r", "1.2",
            "--n", str(RECORDS_N), "--seed", seed,
            "--records", path, "--records-limit", "0",
        )
        ops.append(Op(argv, 0, RECORDS_N, path))
    return ops


def run_scan(seed: str, tmp: str) -> list[Op]:
    ops = []
    for model in STOCHASTIC_MODELS:
        for a, b in GENERIC_PAIRS:
            argv = ("run", "--model", model, "--sigma-l", a, "--sigma-r", b,
                    "--n", str(RUN_N), "--seed", seed)
            ops.append(Op(argv, 0, RUN_N))
    for model in STOCHASTIC_MODELS:
        ops.append(Op(("table", "--model", model, "--sigma-l", "0.3", "--sigma-r", "1.2"), 0, 0))
    for model in ALL_MODELS:
        ops.append(Op(("retro", model, "0", "0.2", "0.9"), int(model in RETRO_MODELS), 0))
    for strategy in ("discrete", "classical", "superposition"):
        ops.append(Op(("game", "left", "0.4", f"--{strategy}"), 0, 0))
    for mode in ("discrete", "collapse", "nocollapse"):
        ops.append(Op(("game", "right", "0.7", "--mode", mode), 0, 0))
    return ops


WORKLOADS = {"audit-grid": audit_grid, "records-dump": records_dump, "run-scan": run_scan}


# ---------------------------------------------------------------- executors


@dataclass
class OpResult:
    rc: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float | None
    stderr: str = ""


class Subprocesses:
    """Runs each op as ``python -m retrolab`` and reaps it with ``os.wait4``."""

    def __init__(self, tmp: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.err_path = os.path.join(tmp, "stderr.txt")

    def read_back(self, path: str) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", READ_BACK, BENCH_DIR, path],
            capture_output=True, env=self.env, cwd=ROOT, timeout=OP_TIMEOUT_S, check=True,
        )
        return json.loads(done.stdout)

    def __call__(self, argv) -> OpResult:
        with open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "retrolab", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace")[-500:]
        return OpResult(
            proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, message,
        )


class InProcess:
    """Runs each op through ``retrolab.cli.main`` in this process."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv) -> OpResult:
        buf = io.StringIO()
        err = io.StringIO()
        start = time.perf_counter()
        cpu = time.process_time()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))  # module attribute: wrapped when traced
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        return OpResult(rc, buf.getvalue().encode(), wall, time.process_time() - cpu, None,
                        err.getvalue()[-500:])


# ---------------------------------------------------------------- oracle


def tally_records(read_records_jsonl, path: str) -> dict:
    """Row count and channel tallies of a records file, read back through the
    program's own reader; branch-weight rows tally their weights."""
    tally = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}
    rows = read_records_jsonl(path)
    for row in rows:
        if row.weights is not None:
            tally[f"{row.in_channel}1"] += row.weights[0]
            tally[f"{row.in_channel}0"] += row.weights[1]
        else:
            tally[f"{row.in_channel}{row.out_channel}"] += 1
    return {"rows": len(rows), "tally": tally}


# A child does the untraced read-back, so the rows it builds never raise this
# process's peak RSS, which every later child would inherit in its ru_maxrss.
READ_BACK = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
    "from retrolab.records import read_records_jsonl; "
    "print(json.dumps(run.tally_records(read_records_jsonl, sys.argv[2])))"
)


class Oracle:
    """Checks op outputs; a failure is counted, never raised.

    A records file is read back in full the first time its content is seen,
    and in every traced pass; a later file with the same sha256 holds the
    same bytes and passes.  Each records file is deleted once checked.
    """

    def __init__(self, read_back, tracer=None):
        self.read_back = read_back  # None: leave the read-back to another pass
        self.tracer = tracer
        self.verified: set[str] = set()

    def check(self, op: Op, res: OpResult) -> tuple[str | None, str, dict]:
        """(failure reason or None, payload digest, extra facts).

        When traced, the check is a ``bench.oracle`` root span and first folds
        the op's ensembles into the tracer's counters.
        """
        if self.tracer is None:
            return self._checked(op, res)
        with self.tracer.span("bench.oracle"):
            self.tracer.end_op()
            return self._checked(op, res)

    def _checked(self, op: Op, res: OpResult) -> tuple[str | None, str, dict]:
        try:
            return self._check(op, res)
        except (KeyError, TypeError, ValueError, OSError, subprocess.SubprocessError) as err:
            return f"output could not be checked: {err!r}", "", {}
        finally:
            if op.records is not None:
                with contextlib.suppress(OSError):
                    os.remove(op.records)

    def _check(self, op: Op, res: OpResult) -> tuple[str | None, str, dict]:
        extra: dict = {}
        try:
            payload = json.loads(res.stdout)
        except ValueError:
            return f"payload is not JSON (exit {res.rc}): {res.stderr!r}", "", extra
        payload.pop("meta", None)
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        if res.rc != op.expect_rc:
            return f"exit {res.rc}, expected {op.expect_rc}: {res.stderr!r}", digest, extra
        cmd = op.argv[0]
        if payload.get("config", {}).get("command") != cmd:
            return "payload names another command", digest, extra
        result = payload["result"]
        if cmd == "audit" and result["verdict"] != AUDIT_VERDICT[res.rc]:
            return f"verdict {result['verdict']!r} disagrees with exit {res.rc}", digest, extra
        if cmd == "run":
            n = payload["config"]["n"]
            if not result["tv_to_analytic"] <= 5.0 * math.sqrt(2.0 / n):
                return f"tv_to_analytic {result['tv_to_analytic']} above 5*sqrt(2/n)", digest, extra
        if op.records is not None:
            return self._check_records(op.records, payload, extra), digest, extra
        return None, digest, extra

    def _check_records(self, path: str, payload: dict, extra: dict) -> str | None:
        sha = hashlib.sha256()
        lines = 0
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
                lines += chunk.count(b"\n")
        extra["records_bytes"] = os.path.getsize(path)
        extra["records_sha256"] = digest = sha.hexdigest()
        n = payload["config"]["n"]
        if lines != n:
            return f"records file has {lines} lines, expected {n}"
        if self.tracer is not None:
            with open(path, "rb") as fh:
                self.tracer.counts["records.distinct_lines"] += len(set(fh))
        elif self.read_back is None or digest in self.verified:
            return None
        back = self.read_back(path)
        if back["rows"] != n:
            return f"read back {back['rows']} rows, expected {n}"
        counts = payload["result"]["counts"]
        for key, value in back["tally"].items():
            if not math.isclose(value, counts[key], rel_tol=1e-9, abs_tol=1e-6):
                return f"records tally {key}={value} differs from payload count {counts[key]}"
        self.verified.add(digest)
        return None


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    results: list[OpResult]
    failures: dict[int, str]  # op index -> oracle failure
    digests: list[str]  # sha256 of each payload without meta
    files: dict[int, str]  # op index -> sha256 of its records file
    records_bytes: int

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)


def run_pass(ops: list[Op], execute, oracle: Oracle) -> Pass:
    """One closed-loop pass over the ops, each checked as soon as it ends."""
    p = Pass([], {}, [], {}, 0)
    for i, op in enumerate(ops):
        res = execute(op.argv)
        reason, digest, extra = oracle.check(op, res)
        p.results.append(res)
        p.digests.append(digest)
        if reason is not None:
            p.failures[i] = reason
        if "records_sha256" in extra:
            p.files[i] = extra["records_sha256"]
            p.records_bytes += extra["records_bytes"]
    return p


def tail(values_ms: list[float]) -> dict:
    """Highest percentile with at least ten ops beyond it, with its sample count.

    With fewer than eleven ops no such percentile exists; the maximum is
    reported and marked as such.
    """
    ordered = sorted(values_ms)
    n = len(ordered)
    if n >= 11:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
                "samples": n, "beyond": 10}
    return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0,
            "note": "fewer than 11 ops: maximum reported"}


def correctness(passes: list[Pass], details: dict) -> tuple[int, int]:
    """(attempted, failed) over all passes.

    An op fails when the oracle rejects it or when its payload or records
    file differs from the first pass's.
    """
    ref = passes[0]
    oracle = {(k, i) for k, p in enumerate(passes) for i in p.failures}
    drift = {
        (k, i)
        for k, p in enumerate(passes[1:], 1)
        for i in range(len(ref.digests))
        if p.digests[i] != ref.digests[i] or p.files.get(i) != ref.files.get(i)
    }
    attempted = len(passes) * len(ref.digests)
    failed = len(oracle | drift)
    details["error_rate"] = failed / attempted
    details["oracle_failures"] = [(k, i, passes[k].failures[i]) for k, i in sorted(oracle)]
    details["determinism"] = {
        "passes_compared": len(passes),
        "ops_differing_from_first_pass": sorted(drift),
    }
    return attempted, failed


# ---------------------------------------------------------------- context


def machine_info() -> dict:
    info: dict = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(base)):
            def field(name):
                with open(os.path.join(base, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            with contextlib.suppress(OSError):
                if field("type") != "Instruction":
                    info["caches"][f"L{field('level')}"] = field("size")
    info["python"] = platform.python_version()
    try:
        info["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        info["numpy"] = None
    info["git_commit"] = git_commit()
    return info


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(execute) -> tuple[float, str, list[float]]:
    """Median wall time of ``retrolab --version`` after one warm-up call."""
    warm = execute(("--version",))
    if warm.rc != 0:
        raise RuntimeError(f"retrolab --version failed: {warm.stderr}")
    samples = [execute(("--version",)).wall_s for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples), warm.stdout.decode().split()[-1], samples


# ---------------------------------------------------------------- modes


def run_untraced(ops: list[Op], seconds: float, sub: Subprocesses, details: dict):
    setup_s, version, samples = measure_setup(sub)
    details["machine"]["retrolab"] = version
    details["setup_samples_s"] = samples
    oracle = Oracle(sub.read_back)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, sub, oracle))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    attempted, failed = correctness(passes, details)

    op_ms = [r.wall_s * 1000.0 for p in passes for r in p.results]
    op_tail = tail(op_ms)
    rows = sum(op.rows for op in ops)
    details["op_ms_tail"] = {k: v for k, v in op_tail.items() if k != "value"}
    details["passes"] = [
        {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "records_bytes": p.records_bytes}
        for p in passes
    ]
    details["ops"] = [
        {"argv": " ".join(op.argv),
         "ms": [round(p.results[i].wall_s * 1000.0, 3) for p in passes],
         "rss_mb": max(p.results[i].rss_mb for p in passes)}
        for i, op in enumerate(ops)
    ]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "rows_per_s": (statistics.median(rows / p.wall_s for p in passes), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (op_tail["value"], "ms"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.results), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def run_traced(ops: list[Op], seconds: float, sub: Subprocesses, details: dict):
    start = time.perf_counter()
    # Only the traced pass reads records back (timing records.read); the other
    # passes' files must hash the same as its files, or the op counts as failed.
    passes = [run_pass(ops, sub, Oracle(None))]

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    cli = importlib.import_module("retrolab.cli")
    import_ms = (time.perf_counter() - t0) * 1000.0
    details["machine"]["retrolab"] = importlib.import_module("retrolab").__version__
    sys.path.insert(0, BENCH_DIR)
    import spans

    records = importlib.import_module("retrolab.records")
    execute = InProcess(cli)

    def read_back(path):  # resolves the reader at call time: traced when wrapped
        return tally_records(records.read_records_jsonl, path)

    oracle = Oracle(None)
    tracer = spans.Tracer()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    while True:
        p = run_pass(ops, execute, oracle)
        passes.append(p)
        untraced_s.append(p.wall_s)

        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter_ns()
            p = run_pass(ops, execute, Oracle(read_back, tracer))
            wall_ns = time.perf_counter_ns() - t0
        finally:
            tracer.restore()
        passes.append(p)
        traced_s.append(p.wall_s)
        layers.append(spans.layer_metrics(tracer, wall_ns))
        if time.perf_counter() - start > seconds:
            break
    attempted, failed = correctness(passes, details)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    spans_per_pass = sum(tracer.calls.values())
    cost_ns = spans.span_cost_ns()
    details["trace"] = {
        "traced_passes": len(layers),
        "spans_per_pass": spans_per_pass,
        "span_cost_ns": cost_ns,
        "span_cost_pct_of_untraced": 100.0 * spans_per_pass * cost_ns / 1e9 / statistics.median(untraced_s),
        "inprocess_wall_s": {"untraced": untraced_s, "traced": traced_s},
        "self_time_sum_ms": [sum(layer[m] for m in spans.SELF_TIME_METRICS) for layer in layers],
        "unaccounted_ms": [layer["trace.unaccounted_ms"] for layer in layers],
        "wall_ms": [layer["trace.wall_ms"] for layer in layers],
    }
    details["inputs"]["working_set_bytes"] = tracer.max_op_bytes
    details["inputs"]["working_set_note"] = (
        "largest ensemble column bytes one op generates, computed from column nbytes"
    )
    return {name: (value, spans.UNITS[name]) for name, value in metrics.items()}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "retrolab", "__main__.py")):
        print(f"error: no retrolab source under {SRC}; run from a checkout root", file=sys.stderr)
        return 1

    tmp = tempfile.mkdtemp(prefix=".retrobench-", dir=ROOT)
    try:
        ops = WORKLOADS[args.workload](str(args.seed), tmp)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine_info(),
            "inputs": {"ops_per_pass": len(ops), "rows_per_pass": sum(op.rows for op in ops)},
        }
        sub = Subprocesses(tmp)
        mode = run_traced if args.trace else run_untraced
        metrics, attempted, failed = mode(ops, args.seconds, sub, details)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(details, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
