#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a base revision against a change.

Example:
    python scripts/bench_pairs.py --number N --base HEAD~1 --workload audit-grid \\
        --seed 11 --seed 29 --pairs 10 --seconds 20

``git archive`` extracts the base revision and a snapshot of this checkout's
working tree as it stands (unstaged edits and untracked files included,
ignored files left out) into fresh directories, so both sides start alike.
``retrobench/run.py`` then runs unchanged and untraced in each tree, the
base first in odd pairs and the change first in even ones, for every
workload and seed.  ``BENCH_<number>.json`` at the root of this
checkout keeps any key this script does not write (``tier1_pairs.py``'s
``tier1``) and gets every final result line, the order of the runs, each side's
summed ``failed`` and ``attempted`` operations, its number of runs that
printed no result line and, per metric, each side's
median and quartiles, the number of pairs the change wins, whether the
runs spread too widely to tell, whether the change shows a gain and whether
its median is worse than the base's by more than the metric's bound (each
such metric also gets a line on stderr);
``BENCHMARK.json`` says whether lower or higher is better and bounds each
metric, and a tie counts for neither side.
Each result line also keeps every op's peak RSS from the run's details
line (the largest of its fresh children over all passes), and the summary
gives each side's median of it per op.
A workload that ``BENCHMARK.json`` does not name is refused before anything
is extracted; the script exits 1, once the file is written, when any run
printed no result line.
"""

import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def snapshot(root: str, tmp: str) -> str:
    """The id of a git tree of ``root``'s working tree as it stands, with
    unstaged edits and untracked files and without ignored files; it is built
    in a temporary index under ``tmp``, so the checkout's own index and
    ``git status`` stay as they were."""
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
    for args in (["read-tree", "HEAD"], ["add", "-A"], ["write-tree"]):
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True,
                              check=True)
    return done.stdout.strip()


def extract(root: str, rev: str, dest: str) -> str:
    """The files of ``rev`` (a commit or a tree of ``root``'s repository) in a
    new directory under ``dest``, named by the object's id."""
    name = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{}}"], cwd=root,
                          capture_output=True, text=True, check=True).stdout.strip()
    tree = os.path.join(dest, name)
    archive = subprocess.run(["git", "archive", "--format=tar", name], cwd=root,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def alternate(pairs: int, run, label: str = "") -> dict:
    """``run(side)`` for ``pairs`` pairs of sides, the base first in odd pairs
    and the change first in even ones: each side's results in pair order, and
    the order of the runs, each announced on stderr after ``label``."""
    out = {"order": [], "base": [], "change": []}
    for k in range(1, pairs + 1):
        for side in ("base", "change") if k % 2 else ("change", "base"):
            print(f"{label}pair {k}: {side}", file=sys.stderr, flush=True)
            out["order"].append(f"pair {k}: {side}")
            out[side].append(run(side))
    return out


def spread(xs: list[float]) -> dict:
    """Median and quartiles, by the exclusive method of ``statistics.quantiles``;
    the quartiles of one value are that value."""
    q1, q3 = statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else (xs[0], xs[0])
    return {"median": statistics.median(xs), "q1_q3": [q1, q3]}


def write_bench(path: str, entries: dict) -> None:
    """Set ``entries`` in the JSON object of ``path``, keeping every other key
    it holds; a new file starts empty."""
    bench = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench | entries, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The final result line of one untraced benchmark run in ``tree``, with
    each op's ``argv`` and peak RSS (``rss_mb``) from the details line before
    it under ``ops``; or the exit status and error output of a run that
    printed no such lines."""
    argv = [sys.executable, "retrobench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        details, result = map(json.loads, done.stdout.splitlines()[-2:])
        result["ops"] = [{"argv": op["argv"], "rss_mb": op["rss_mb"]} for op in details["ops"]]
        return result
    except (ValueError, KeyError, TypeError):
        return {"error": f"exit {done.returncode}: {done.stderr[-500:]}"}


def summarize(base: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    """Each side's summed ``failed`` and ``attempted`` operations and its
    number of runs that printed no result line (``no_result``); per metric
    of ``metrics`` (``BENCHMARK.json``'s end-to-end entries by name), each
    side's median and quartiles, the pairs the change wins and whether the
    metric is unresolved; and per op, under ``op_rss_mb`` in op order, its
    ``argv`` and each side's median of its peak RSS over that side's runs.
    Ops are matched by position, since every run of a workload runs the same
    ops in the same order but an ``argv`` may name the run's temporary files;
    the first run's ``argv`` names the op.

    Pair k is ``base[k]`` against ``change[k]``; a pair in which either run
    printed no result line is left out of the metrics.  Quartiles are the
    exclusive method of ``statistics.quantiles`` (the median of one run is
    its value).  A metric is unresolved when either side's interquartile
    range exceeds the metric's ``bound`` times that side's median, unless
    every run of the change reads better than every run of the base.  A
    metric shows a ``gain`` when the change wins at least nine tenths of its
    pairs and its median is better than the base's by more than the base's
    interquartile range.  A metric is ``worse_than_bound`` when the change's
    median is worse than the base's by more than ``bound`` times the base's
    median, the rule by which a change is refused.
    """
    out = {key: {side: sum(run[key] for run in runs if key in run)
                 for side, runs in (("base", base), ("change", change))}
           for key in ("failed", "attempted")}
    out["no_result"] = {"base": sum("error" in run for run in base),
                        "change": sum("error" in run for run in change)}
    pairs = [(b, c) for b, c in zip(base, change) if "metrics" in b and "metrics" in c]
    for name, metric in metrics.items():
        direction = metric["better"]
        values = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs
                  if name in b["metrics"] and name in c["metrics"]]
        if not values:
            continue
        sides = {"base": [b for b, _ in values], "change": [c for _, c in values]}
        wins = sum((c < b) if direction == "lower" else (c > b) for b, c in values)
        out[name] = {"better": direction}
        wide = False
        for side, xs in sides.items():
            quartiles = spread(xs)
            median, (q1, q3) = quartiles["median"], quartiles["q1_q3"]
            out[name][f"{side}_median"] = median
            out[name][f"{side}_q1_q3"] = [q1, q3]
            wide |= q3 - q1 > metric["bound"] * abs(median)
        if direction == "lower":
            apart = max(sides["change"]) < min(sides["base"])
        else:
            apart = min(sides["change"]) > max(sides["base"])
        gained = (out[name]["base_median"] - out[name]["change_median"]) * (
            1 if direction == "lower" else -1)
        base_q1, base_q3 = out[name]["base_q1_q3"]
        out[name]["change_better_pairs"] = wins
        out[name]["pairs"] = len(values)
        out[name]["unresolved"] = wide and not apart
        out[name]["gain"] = 10 * wins >= 9 * len(values) and gained > base_q3 - base_q1
        out[name]["worse_than_bound"] = -gained > metric["bound"] * abs(out[name]["base_median"])
    ops = []
    for side, runs in (("base", base), ("change", change)):
        for run in runs:
            for k, op in enumerate(run.get("ops", ())):
                if k == len(ops):
                    ops.append({"argv": op["argv"], "base": [], "change": []})
                ops[k][side].append(op["rss_mb"])
    out["op_rss_mb"] = [{"argv": op["argv"], **{f"{side}_median": statistics.median(op[side])
                                                for side in ("base", "change") if op[side]}}
                        for op in ops]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--base", required=True, help="base revision, usually the parent commit")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 < args.seconds < math.inf:  # run.py's pass loops would never end
        ap.error(f"--seconds must be a finite number above 0, got {args.seconds}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    for workload in args.workload:
        if workload not in workloads:
            ap.error(f"--workload {workload!r} is none of BENCHMARK.json's {workloads}")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": extract(ROOT, args.base, tmp),
                 "change": extract(ROOT, snapshot(ROOT, tmp), tmp)}
        runs = {}
        for workload in args.workload:
            for seed in args.seed:
                key = f"{workload} seed {seed}"
                run = runs[key] = {"pairs": args.pairs, **alternate(
                    args.pairs, lambda side: run_once(trees[side], workload, seed, args.seconds),
                    f"{key}, ")}
                run["summary"] = summarize(run["base"], run["change"], metrics)
                for name, metric in run["summary"].items():
                    if name in metrics and metric["worse_than_bound"]:
                        print(f"{key}: {name} median {metric['base_median']:g} -> "
                              f"{metric['change_median']:g}, worse by more than its bound "
                              f"{metrics[name]['bound']:g}", file=sys.stderr, flush=True)

    bench = {
        "number": args.number,
        "base": os.path.basename(trees["base"]),
        "change": f"working tree, git tree {os.path.basename(trees['change'])}",
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "command": f"python3 retrobench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "runs": runs,
    }
    write_bench(os.path.join(ROOT, f"BENCH_{args.number}.json"), bench)
    silent = sum(sum(run["summary"]["no_result"].values()) for run in runs.values())
    if silent:
        sys.exit(f"{silent} runs printed no result line")


if __name__ == "__main__":
    main()
