#!/usr/bin/env python3
"""Alternating pairs of Tier-1 suite runs: a base revision against a change.

Example:
    python scripts/tier1_pairs.py --number N --base HEAD~1 --pairs 10

Both trees are extracted as ``bench_pairs.py`` extracts them: the base
revision, and a snapshot of this checkout's working tree as it stands.  Each
pair runs the Tier-1 command, ``python -m pytest -q
--continue-on-collection-errors --durations=0`` with the tree's ``src/``
first on ``PYTHONPATH``, once in each tree, the base first in odd pairs and
the change first in even ones.  Every suite run follows a ``python -c pass``
calibration run, whose wall time is kept beside the suite's, so a slow host
shows in both.

``BENCH_<number>.json`` at the root of this checkout gets a ``tier1`` key,
through ``bench_pairs.py``'s writer: whatever else the file holds is kept.  It
holds each run's wall time, calibration, exit status and pytest's tally
line, and the summary of :func:`summarize`.  The script exits 1, once the
file is written, when any suite run exited nonzero.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, alternate, extract, snapshot, spread, write_bench  # noqa: E402

COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]

# one line of pytest's --durations report: seconds, phase, node id
_DURATION = re.compile(r"(\d+(?:\.\d+)?)s (?:setup|call|teardown) +(\S.*)")


def durations(text: str) -> dict[str, float]:
    """Seconds per test in pytest's ``--durations`` lines of ``text``, its
    setup, call and teardown summed; durations pytest hid are left out."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        match = _DURATION.fullmatch(line)
        if match:
            out[match[2]] = out.get(match[2], 0.0) + float(match[1])
    return out


def run_once(tree: str) -> dict:
    """One calibration run and one Tier-1 run in ``tree``: both wall times,
    the suite's exit status, its last output line and its test durations."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    calibration = time.perf_counter() - start
    path = os.pathsep.join(filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *COMMAND], cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "calibration_s": calibration, "returncode": done.returncode,
            "tally": (done.stdout.splitlines() or [""])[-1], "durations": durations(done.stdout)}


def _medians(runs: list[dict], key_of) -> dict[str, float]:
    """Each key's median over ``runs`` of the summed durations of the tests
    that ``key_of`` maps to it; 0 s in a run that has none of them."""
    sums = [{} for _ in runs]
    for total, run in zip(sums, runs):
        for test, seconds in run["durations"].items():
            total[key_of(test)] = total.get(key_of(test), 0.0) + seconds
    return {key: statistics.median(total.get(key, 0.0) for total in sums) for key in set().union(*sums)}


def summarize(base: list[dict], change: list[dict], slowest: int = 10) -> dict:
    """Per side, the median and quartiles of the suite's wall time and of its
    calibration; the pairs in which the change ran faster (pair k is
    ``base[k]`` against ``change[k]``, and a tie counts for neither side);
    per test file, each side's median over its runs of the file's summed
    test durations; and the ``slowest`` tests by the larger of their two
    medians, with each side's median."""
    sides = {"base": base, "change": change}
    out = {side: {key: spread([run[key] for run in runs]) for key in ("wall_s", "calibration_s")}
           for side, runs in sides.items()}
    out["change_faster_pairs"] = sum(c["wall_s"] < b["wall_s"] for b, c in zip(base, change))
    out["pairs"] = min(len(base), len(change))
    files = {side: _medians(runs, lambda test: test.split("::")[0]) for side, runs in sides.items()}
    tests = {side: _medians(runs, lambda test: test) for side, runs in sides.items()}

    def rows(by_side, keys):
        return [{"name": key, **{f"{side}_median": by_side[side].get(key, 0.0) for side in sides}}
                for key in keys]

    out["files_s"] = rows(files, sorted(set().union(*files.values())))
    ranked = sorted(set().union(*tests.values()), key=lambda test: (
        -max(tests[side].get(test, 0.0) for side in sides), test))
    out["tests_s"] = rows(tests, ranked[:slowest])
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--base", required=True, help="base revision, usually the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")

    with tempfile.TemporaryDirectory(prefix="tier1-pairs-") as tmp:
        trees = {"base": extract(ROOT, args.base, tmp),
                 "change": extract(ROOT, snapshot(ROOT, tmp), tmp)}
        runs = alternate(args.pairs, lambda side: run_once(trees[side]))

    tier1 = {
        "base": os.path.basename(trees["base"]),
        "change": f"working tree, git tree {os.path.basename(trees['change'])}",
        "command": "PYTHONPATH=src python " + " ".join(COMMAND),
        "summary": summarize(runs["base"], runs["change"]),
        "order": runs["order"],
        **{side: [{key: value for key, value in run.items() if key != "durations"}
                  for run in runs[side]] for side in ("base", "change")},
    }
    write_bench(os.path.join(ROOT, f"BENCH_{args.number}.json"),
                {"number": args.number, "tier1": tier1})
    failed = sum(run["returncode"] != 0 for side in ("base", "change") for run in runs[side])
    if failed:
        sys.exit(f"{failed} suite runs exited nonzero")


if __name__ == "__main__":
    main()
