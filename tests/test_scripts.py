"""The example scripts, run in process at small sizes."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from retrolab.core import angle_diff
from retrolab.stats import RandomStream
from test_golden import DIGESTS, GOLDEN, render_digests

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    """Run ``scripts/<name>`` as ``__main__`` with ``args`` as its command line."""
    path = str(SCRIPTS / name)
    argv = sys.argv
    sys.argv = [path, *args]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv


@pytest.mark.parametrize("name, args, first_line", [
    ("symmetry_grid.py", ("--points", "2", "--n", "10000"), "audit verdicts over a 2x2 grid, n=10000"),
    ("retro_scan.py", ("--steps", "4"), "beable sensitivity at sigma_l=0.0, sigma_r=0.2"),
    ("demon_game.py", (), "single-channel play (channel -> emerging polarization):"),
])
def test_script_runs(capsys, name, args, first_line):
    run_script(name, *args)
    out = capsys.readouterr().out
    assert out.splitlines()[0] == first_line


def test_demon_game_rows_stay_in_their_pairs_and_field_demons_hit(capsys):
    run_script("demon_game.py")
    lines = capsys.readouterr().out.splitlines()
    row = re.compile(r"  setting \S+: ch0 -> (\S+), ch1 -> (\S+)   achievable pair \((\S+), (\S+)\)")
    rows = [row.fullmatch(line) for line in lines[1:7]]  # the six default settings
    assert all(rows), lines[1:7]
    for match in rows:
        *taus, first, second = map(float, match.groups())
        for tau in taus:
            # printed to 3 decimals, so within half a unit of the last place
            assert min(abs(angle_diff(tau, end)) for end in (first, second)) <= 5e-4, match[0]
    misses = [lines[i + 1] for i, line in enumerate(lines) if line.endswith("worst miss across settings x targets")]
    assert len(misses) == 2
    for line in misses:
        worst, rest = line.split(" rad ")
        assert float(worst) <= 1e-9 and rest == "-> every target reachable", line


@pytest.mark.parametrize("args, message", [
    (("--seed", "-1"), "--seed: seed must lie in [0, 2**64), got -1"),
    (("--points", "1"), "--points must be at least 2, got 1"),
    (("--n", "100"), "--n must be at least 10000, got 100"),
])
def test_symmetry_grid_rejects_bad_input(capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        run_script("symmetry_grid.py", *args)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error" in line] == [f"symmetry_grid.py: error: {message}"]


@pytest.mark.parametrize("args, message", [
    (("--steps", "1"), "--steps must be at least 2, got 1"),
    (("--steps", "-3"), "--steps must be at least 2, got -3"),
    (("--sigma-l", "nan"), "--sigma-l must be finite, got nan"),
    (("--sigma-r=-inf",), "--sigma-r must be finite, got -inf"),
])
def test_retro_scan_rejects_bad_input(capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        run_script("retro_scan.py", *args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"retro_scan.py: error: {message}"]


@pytest.mark.parametrize("args, message", [
    (("--targets", "nan"), "--targets must be finite, got nan"),
    (("--targets=-inf",), "--targets must be finite, got -inf"),
    (("--targets", "0.3", "1e999"), "--targets must be finite, got inf"),
    (("--settings", "inf"), "--settings must be finite, got inf"),
    (("--settings", "0.5", "nan", "--targets", "1"), "--settings must be finite, got nan"),
])
def test_demon_game_rejects_bad_input(capsys, args, message):
    with pytest.raises(SystemExit) as exit_info:
        run_script("demon_game.py", *args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"demon_game.py: error: {message}"]


class _Sampled(Exception):
    """Raised by the first block an audit draws."""


class _FirstDraw:
    """A bit generator whose first draw raises :class:`_Sampled` with the run
    count of the sampler's draw that asked for it."""

    def random_raw(self, size):
        raise _Sampled(sys._getframe(1).f_locals["n"])


def test_symmetry_grid_samples_n_beyond_memory(monkeypatch):
    # an audit holds no row's worth of memory, so the grid refuses no n for
    # it: 10^14 rows a side get as far as drawing their first block
    monkeypatch.setattr(RandomStream, "bits", lambda self, position=0: _FirstDraw())
    with pytest.raises(_Sampled, match=str(10**14)):
        run_script("symmetry_grid.py", "--points", "2", "--n", str(10**14))


def _result(failed=0, **metrics):
    """A final retrobench result line with the given metric values."""
    return {"correct": True, "attempted": 3, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def test_bench_pairs_summary_takes_medians_quartiles_and_wins():
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]
    base = [_result(wall_s=w, rows_per_s=r, cpu_s=c, peak_rss_mb=m, setup_s=s, op_ms_p50=p,
                    op_ms_tail=t, slower_s=u)
            for w, r, c, m, s, p, t, u in zip(
                (1.0, 2.0, 3.0, 4.0, 5.0), (10, 20, 30, 40, 50), (40, 41, 42, 43, 44),
                (10, 20, 30, 40, 50), (10, 11, 12, 13, 14), (10, 11, 12, 13, 14),
                (9, 10, 10, 10, 11), (9, 10, 10, 10, 11))]
    change = [_result(wall_s=w, rows_per_s=r, cpu_s=c, peak_rss_mb=m, setup_s=s, op_ms_p50=p,
                      op_ms_tail=t, slower_s=u)
              for w, r, c, m, s, p, t, u in zip(
                  (0.5, 2.0, 3.5, 3.0, 4.0), (11, 20, 29, 41, 50), (38, 39, 40, 41, 42),
                  (1, 2, 3, 4, 5), (5, 6, 7, 8, 9), (5, 6, 7, 8, 15),
                  (12, 13, 13, 13, 14), (11, 12, 12, 12, 13))]
    # a pair in which one run printed no result line counts for neither side's
    # metrics, but its other run's operations still count
    base.append({"error": "exit 1: boom"})
    change.append(_result(failed=2, wall_s=0.1, rows_per_s=1000, cpu_s=1, peak_rss_mb=1))
    # each op's peak RSS, as run_once keeps it from the details line; an op
    # that writes a file names each run's own temporary directory
    for k, (run, run_mb, table_mb) in enumerate(zip(
            base + change, (35.3, 35.5, 35.1, 35.6, 35.2, None, 32.0, 31.9, 32.2, 31.8, 32.1, 32.4),
            (14.9, 14.8, 14.9, 14.9, 15.0, None) + (14.9,) * 6)):
        if "metrics" in run:
            run["ops"] = [{"argv": f"run --records tmp{k}/m.jsonl", "rss_mb": run_mb},
                          {"argv": "table", "rss_mb": table_mb}]
    bounds = {"wall_s": ("lower", 0.25), "rows_per_s": ("higher", 0.25), "cpu_s": ("lower", 0.25),
              "peak_rss_mb": ("lower", 0.05), "setup_s": ("lower", 0.25),
              "op_ms_p50": ("lower", 0.25), "op_ms_tail": ("lower", 0.25),
              "slower_s": ("lower", 0.25)}
    metrics = {name: {"name": name, "better": better, "bound": bound}
               for name, (better, bound) in bounds.items()}
    summary = summarize(base, change, metrics)
    assert summary == {
        "failed": {"base": 0, "change": 2},
        "attempted": {"base": 15, "change": 18},
        "no_result": {"base": 1, "change": 0},
        # wins: 0.5 < 1 and 3 < 4 and 4 < 5; 2 = 2 is a tie.  Both sides'
        # quartiles lie further apart than a quarter of their medians
        "wall_s": {"better": "lower", "base_median": 3.0, "base_q1_q3": [1.5, 4.5],
                   "change_median": 3.0, "change_q1_q3": [1.25, 3.75],
                   "change_better_pairs": 3, "pairs": 5, "unresolved": True, "gain": False,
                   "worse_than_bound": False},
        "rows_per_s": {"better": "higher", "base_median": 30, "base_q1_q3": [15.0, 45.0],
                       "change_median": 29, "change_q1_q3": [15.5, 45.5],
                       "change_better_pairs": 2, "pairs": 5, "unresolved": True, "gain": False,
                       "worse_than_bound": False},
        # 3 and 3 within a quarter of 42 and 40; every pair won, but the
        # medians lie 2 apart, within the base's quartiles 3 apart: no gain
        "cpu_s": {"better": "lower", "base_median": 42, "base_q1_q3": [40.5, 43.5],
                  "change_median": 40, "change_q1_q3": [38.5, 41.5],
                  "change_better_pairs": 5, "pairs": 5, "unresolved": False, "gain": False,
                  "worse_than_bound": False},
        # as wide as wall_s, but every change run reads better than every
        # base run; 27 apart is within the base's quartiles 30 apart
        "peak_rss_mb": {"better": "lower", "base_median": 30, "base_q1_q3": [15.0, 45.0],
                        "change_median": 3, "change_q1_q3": [1.5, 4.5],
                        "change_better_pairs": 5, "pairs": 5, "unresolved": False,
                        "gain": False, "worse_than_bound": False},
        # every pair won and the medians 5 apart, beyond the base's 3: a gain
        "setup_s": {"better": "lower", "base_median": 12, "base_q1_q3": [10.5, 13.5],
                    "change_median": 7, "change_q1_q3": [5.5, 8.5],
                    "change_better_pairs": 5, "pairs": 5, "unresolved": False, "gain": True,
                    "worse_than_bound": False},
        # as far apart, but 4 of 5 pairs won is below nine tenths: no gain
        "op_ms_p50": {"better": "lower", "base_median": 12, "base_q1_q3": [10.5, 13.5],
                      "change_median": 7, "change_q1_q3": [5.5, 11.5],
                      "change_better_pairs": 4, "pairs": 5, "unresolved": True, "gain": False,
                      "worse_than_bound": False},
        # a median 30% worse on a 0.25 bound is worse than the bound; one
        # 20% worse is not
        "op_ms_tail": {"better": "lower", "base_median": 10, "base_q1_q3": [9.5, 10.5],
                       "change_median": 13, "change_q1_q3": [12.5, 13.5],
                       "change_better_pairs": 0, "pairs": 5, "unresolved": False, "gain": False,
                       "worse_than_bound": True},
        "slower_s": {"better": "lower", "base_median": 10, "base_q1_q3": [9.5, 10.5],
                     "change_median": 12, "change_q1_q3": [11.5, 12.5],
                     "change_better_pairs": 0, "pairs": 5, "unresolved": False, "gain": False,
                     "worse_than_bound": False},
        # per op by position, each side's median over all its runs: the
        # change's sixth run counts here too, as its operations do
        "op_rss_mb": [
            {"argv": "run --records tmp0/m.jsonl", "base_median": 35.3, "change_median": 32.05},
            {"argv": "table", "base_median": 14.9, "change_median": 14.9},
        ],
    }


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root,
                          capture_output=True, text=True, check=True).stdout


def test_bench_pairs_snapshots_the_working_tree_as_it_stands(tmp_path):
    functions = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    root, tmp = tmp_path / "repo", tmp_path / "tmp"
    root.mkdir()
    tmp.mkdir()
    _git(root, "init", "-q")
    (root / ".gitignore").write_text("ignored.txt\n")
    (root / "kept.txt").write_text("committed\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    (root / "kept.txt").write_text("edited, not staged\n")
    (root / "new.txt").write_text("untracked\n")
    (root / "ignored.txt").write_text("ignored\n")
    status = _git(root, "status", "--porcelain")
    tree = functions["extract"](str(root), functions["snapshot"](str(root), str(tmp)), str(tmp))
    assert sorted(os.listdir(tree)) == [".gitignore", "kept.txt", "new.txt"]
    assert (Path(tree) / "kept.txt").read_text() == "edited, not staged\n"
    assert (Path(tree) / "new.txt").read_text() == "untracked\n"
    assert _git(root, "status", "--porcelain") == status
    base = functions["extract"](str(root), "HEAD", str(tmp))
    assert (Path(base) / "kept.txt").read_text() == "committed\n"


@pytest.mark.parametrize("args, message", [
    (("--seconds", "nan"), "--seconds must be a finite number above 0, got nan"),
    (("--seconds", "inf"), "--seconds must be a finite number above 0, got inf"),
    (("--seconds=-inf",), "--seconds must be a finite number above 0, got -inf"),
    (("--seconds", "0"), "--seconds must be a finite number above 0, got 0.0"),
    (("--seconds", "-2"), "--seconds must be a finite number above 0, got -2.0"),
    (("--pairs", "0"), "--pairs must be at least 1, got 0"),
    (("--workload", "bogus"), "--workload 'bogus' is none of BENCHMARK.json's "
                              "['audit-grid', 'records-dump', 'run-scan']"),
])
def test_bench_pairs_rejects_bad_input(capsys, monkeypatch, args, message):
    # a run that got past the checks would extract both trees first
    def no_runs(*args, **kwargs):
        raise AssertionError("the runs started")

    monkeypatch.setattr("tempfile.TemporaryDirectory", no_runs)
    with pytest.raises(SystemExit) as exit_info:
        run_script("bench_pairs.py", "--number", "0", "--base", "HEAD", "--workload", "run-scan",
                   "--seed", "11", *args)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"bench_pairs.py: error: {message}"]


def test_bench_writer_keeps_the_keys_it_does_not_write(tmp_path, capsys):
    # bench_pairs.py after tier1_pairs.py keeps the tier1 key, and the other
    # way round; each run's own keys replace the ones it wrote before
    write_bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["write_bench"]
    path = str(tmp_path / "BENCH_7.json")
    write_bench(path, {"number": 7, "tier1": {"pairs": 2}})
    write_bench(path, {"number": 7, "base": "b", "runs": {"audit-grid seed 11": 1}})
    write_bench(path, {"number": 7, "tier1": {"pairs": 4}})
    write_bench(path, {"number": 7, "base": "c", "runs": {}})
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("}\n")
    assert json.loads(text) == {"number": 7, "tier1": {"pairs": 4}, "base": "c", "runs": {}}
    assert capsys.readouterr().err == f"wrote {path}\n" * 4


def test_both_pairs_scripts_alternate_through_one_loop(capsys):
    # the base first in odd pairs, the change first in even ones
    functions = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    tier1 = runpy.run_path(str(SCRIPTS / "tier1_pairs.py"))
    assert {tier1[name].__module__ for name in ("alternate", "spread", "write_bench")} == {"bench_pairs"}
    runs = functions["alternate"](3, lambda side: side.upper(), "w, ")
    assert runs == {"order": ["pair 1: base", "pair 1: change", "pair 2: change", "pair 2: base",
                              "pair 3: base", "pair 3: change"],
                    "base": ["BASE"] * 3, "change": ["CHANGE"] * 3}
    assert capsys.readouterr().err.splitlines()[:2] == ["w, pair 1: base", "w, pair 1: change"]
    assert functions["spread"]([4.0]) == {"median": 4.0, "q1_q3": [4.0, 4.0]}


_DURATIONS = """\
============================= slowest durations ==============================
11.52s call     tests/test_audit.py::test_cell_counts[a b]
0.50s setup    tests/test_audit.py::test_cell_counts[a b]
2.00s call     tests/test_cli.py::test_exit_codes
0.01s teardown tests/test_cli.py::test_exit_codes

(700 durations < 0.005s hidden.  Use -vv to show these durations.)
738 passed in 35.12s
"""


def test_tier1_pairs_summary_takes_medians_wins_and_sums():
    functions = runpy.run_path(str(SCRIPTS / "tier1_pairs.py"))
    durations = functions["durations"](_DURATIONS)
    assert durations == {"tests/test_audit.py::test_cell_counts[a b]": 12.02,
                         "tests/test_cli.py::test_exit_codes": 2.01}

    def run(wall, calibration, scale):
        return {"wall_s": wall, "calibration_s": calibration,
                "durations": {test: seconds * scale for test, seconds in durations.items()}}

    # the change wins pairs 1 and 3, ties pair 2 and loses pair 4; its
    # audit test got ten times faster, and a new test shows in its runs alone
    base = [run(40, 0.06, 1), run(36, 0.05, 1), run(38, 0.07, 1), run(30, 0.06, 1)]
    change = [run(33, 0.06, 0.1), run(36, 0.06, 0.1), run(34, 0.05, 0.1), run(31, 0.06, 0.1)]
    change[0]["durations"]["tests/test_new.py::test_new"] = 0.4
    summary = functions["summarize"](base, change, slowest=2)
    assert summary["base"]["wall_s"] == {"median": 37.0, "q1_q3": [31.5, 39.5]}
    assert summary["change"]["wall_s"] == {"median": 33.5, "q1_q3": [31.5, 35.5]}
    assert summary["change"]["calibration_s"]["median"] == pytest.approx(0.06)
    assert (summary["change_faster_pairs"], summary["pairs"]) == (2, 4)
    files = {row["name"]: (round(row["base_median"], 9), round(row["change_median"], 9))
             for row in summary["files_s"]}
    assert files == {"tests/test_audit.py": (12.02, 1.202), "tests/test_cli.py": (2.01, 0.201),
                     "tests/test_new.py": (0.0, 0.0)}  # in one run of four
    assert [row["name"] for row in summary["tests_s"]] == [
        "tests/test_audit.py::test_cell_counts[a b]", "tests/test_cli.py::test_exit_codes"]


def test_payload_digests_prints_one_line_per_benchmark_op():
    # every op passes its oracle, and the output is the committed contract
    out = render_digests()
    assert out == (GOLDEN / DIGESTS).read_bytes()
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 50
    assert all(re.fullmatch("[0-9a-f]{64}", line["digest"]) for line in lines)
    hashes = [line["records_sha256"] for line in lines if line["records_sha256"] is not None]
    assert len(hashes) == 3 and all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes)
    assert [line["failure"] for line in lines] == [None] * 50
    assert all("$TMP" in " ".join(line["argv"]) for line in lines if line["workload"] == "records-dump")
