"""The example scripts, run in process at small sizes."""

import runpy
import sys
from pathlib import Path

import pytest

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
