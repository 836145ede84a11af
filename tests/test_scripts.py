"""The example scripts, run in process at small sizes."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from retrolab.core import angle_diff

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


def test_symmetry_grid_rejects_n_beyond_memory(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_script("symmetry_grid.py", "--points", "2", "--n", "100000000000000")
    assert exit_info.value.code == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(err) == 1
    assert err[0].startswith("symmetry_grid.py: error: --n: 200000000000000 twobit records need")
