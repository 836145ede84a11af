"""Golden payloads: a fixed matrix of CLI calls must reproduce committed bytes.

Each case runs ``retrolab.cli.main`` in process, where numpy and the full
``numpy.random`` load as a library caller gets them.  A few cases also run
in a fresh ``python -m retrolab`` child, whose entry imports ``numpy.random``
as a bare package; they must give the same bytes.  A JSON payload is compared
with its ``meta`` block removed (it holds the timestamp); CSV output and
records files are compared whole, and every exit code must match too.  The
files under ``tests/golden/`` change only through
``python scripts/update_golden.py``, so a payload change shows up as a diff
in review.
"""

import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from retrolab import cli

GOLDEN = Path(__file__).with_name("golden")
EXIT_CODES = "exit_codes.json"
# the output of scripts/payload_digests.py: every benchmark op's payload and
# records file by sha256, checked in tests/test_scripts.py
DIGESTS = "payload-digests.jsonl"

STOCHASTIC = ("twobit", "onebit", "qm-discrete", "qm-collapse", "qm-nocollapse")
ALL_MODELS = STOCHASTIC + ("classical",)
SETTINGS = ("--sigma-l", "0.3", "--sigma-r", "1.2")
# audit pairs: generic, then equal and orthogonal settings, where a leg beable
# aligns with both settings and the collapse audit is inconclusive
AUDIT_PAIRS = {"": ("0", "0.5236"), "-equal": ("0", "0"), "-orthogonal": ("0", repr(math.pi / 2))}
AUDIT_N = "10000"  # the audit's floor
RUN_N = "200"  # every row also goes to the records file
# twelve full sampling blocks of 2**14 and 3,395 rows of a thirteenth, so a
# slip at a block boundary shows in the counts; 200,003 is 3 mod 4, so a
# two-pass sampler's outcome pass starts 3 words into a Philox block
MULTIBLOCK_N = "200003"
# settings within a few ulps of ANGLE_TOL of equal and of orthogonal, and a
# quarter-turn alternative setting whose labels round differently at 9 decimals
TOLERANCE_CASES = {
    "audit-qm-collapse-tol": ("audit", "qm-collapse", "0", "1e-9", "--n", AUDIT_N, "--seed", "7"),
    "audit-qm-collapse-orthogonal-tol": (
        "audit", "qm-collapse", "0", "1.5707963277948966", "--n", AUDIT_N, "--seed", "7",
    ),
    "retro-qm-discrete-quarter-turn": ("retro", "qm-discrete", "0", "1.0955131495", "2.6663094762948966"),
}
# right-side game: a quarter-turn shift the pinned pair cannot register, and
# an unpinned mode with a given --rho
RHO_CASES = {
    "game-right-discrete-quarter-turn": (
        "game", "right", "0.7", "--mode", "discrete", "--rho", "1.5707963267948966",
    ),
    "game-right-nocollapse-rho": ("game", "right", "0.7", "--mode", "nocollapse", "--rho", "0.2"),
}
# sha256 of the records file of ``run --n 10000 --seed 11``, one model of each
# record shape: 10,000 lines span nine full write blocks of 2**10 and 784
# lines of a tenth, which the 200-line golden files never reach
RECORDS_SHA256 = {
    "qm-discrete": "3cc5ebf6490b3f93c70f319506a3be4cfa90985e5f9a160d2935922fcb9af34d",
    "qm-nocollapse": "e558acad393f6a1d918a73a53b527a9c5ee16705cbc0ff9ac0afe4febfe94201",
    "twobit": "d27ea0427ba088afd87cf33079c06a871d9264bdb7a967a711e7ebf819a39bc9",
}


def cases() -> dict[str, tuple[str, ...]]:
    """Case name -> argv.  A ``run`` case with ``--records`` also yields
    ``<name>.jsonl``, the records file."""
    out = {}
    for model in STOCHASTIC:
        out[f"run-{model}"] = (
            "run", "--model", model, *SETTINGS, "--n", RUN_N, "--seed", "7",
            "--records-limit", "0",
        )
        out[f"table-{model}"] = ("table", "--model", model, *SETTINGS)
        for suffix, (a, b) in AUDIT_PAIRS.items():
            out[f"audit-{model}{suffix}"] = ("audit", model, a, b, "--n", AUDIT_N, "--seed", "7")
        out[f"run-{model}-multiblock"] = (
            "run", "--model", model, *SETTINGS, "--n", MULTIBLOCK_N, "--seed", "7",
        )
        out[f"audit-{model}-multiblock"] = (
            "audit", model, *AUDIT_PAIRS[""], "--n", MULTIBLOCK_N, "--seed", "7",
        )
    for model in ALL_MODELS:
        out[f"retro-{model}"] = ("retro", model, "0", "0.2", "0.9")
    for strategy in ("discrete", "classical", "superposition"):
        out[f"game-left-{strategy}"] = ("game", "left", "0.4", f"--{strategy}")
    for mode in ("discrete", "collapse", "nocollapse"):
        out[f"game-right-{mode}"] = ("game", "right", "0.7", "--mode", mode)
    out["run-twobit-csv"] = (
        "run", "--model", "twobit", *SETTINGS, "--n", "2000", "--seed", "3", "--format", "csv",
    )
    return out | TOLERANCE_CASES | RHO_CASES


_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The built-in ``sum`` as Python 3.12 runs it: floats with Neumaier's
    compensation, anything else as before."""
    items = list(iterable)
    if not any(type(x) is float for x in items):
        return _BUILTIN_SUM(items, start)
    total, c = float(start), 0.0
    for x in map(float, items):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def strip_meta(text: str) -> str:
    """Drop the top-level ``"meta": {...}`` block of an indented payload."""
    lines = text.splitlines(keepends=True)
    start = lines.index('  "meta": {\n')
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("  }"))
    return "".join(lines[:start] + lines[end + 1 :])


def render(name: str, argv: tuple[str, ...], tmp: Path,
           child: bool = False) -> tuple[int, dict[str, bytes]]:
    """Exit code and output files of one case, keyed by golden file name;
    with ``child``, from a fresh ``python -m retrolab`` process."""
    argv = list(argv)
    records = None
    if argv[0] == "run" and "--records-limit" in argv:
        records = tmp / f"{name}.jsonl"
        argv += ["--records", str(records)]
    if child:
        proc = subprocess.run([sys.executable, "-m", "retrolab", *argv], capture_output=True, text=True)
        rc, text = proc.returncode, proc.stdout
    else:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        text = stdout.getvalue()
    files = {}
    if "--format" in argv:
        files[f"{name}.csv"] = text.encode()
    else:
        files[f"{name}.json"] = strip_meta(text).encode()
    if records is not None:
        files[records.name] = records.read_bytes()
    return rc, files


def render_digests() -> bytes:
    """The output of ``scripts/payload_digests.py`` in a child; AssertionError,
    with its error output, when any op failed its check."""
    proc = subprocess.run([sys.executable, str(GOLDEN.parents[1] / "scripts" / "payload_digests.py")],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def render_all(digests: bool = True) -> dict[str, bytes]:
    """Every golden file, exit codes included, as the current code makes them;
    the payload digests only with ``digests``."""
    out = {}
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases().items():
            codes[name], files = render(name, argv, Path(tmp))
            out.update(files)
    out[EXIT_CODES] = (json.dumps(codes, indent=2, sort_keys=True) + "\n").encode()
    return out | ({DIGESTS: render_digests()} if digests else {})


def test_golden_files_match():
    fresh = render_all(digests=False)  # compared in tests/test_scripts.py
    committed = {p.name: p.read_bytes() for p in GOLDEN.iterdir() if p.name != DIGESTS}
    assert sorted(committed) == sorted(fresh)
    changed = sorted(name for name, data in fresh.items() if committed[name] != data)
    assert not changed, f"output differs from tests/golden/ in {changed}"


def test_audit_cases_match_golden_under_a_compensated_sum(tmp_path):
    # no float of an audit payload goes through the built-in sum, whose
    # rounding changed in Python 3.12, so the golden files hold under either
    float_sums = []

    def counted_sum(iterable, /, start=0):
        items = list(iterable)
        if any(type(x) is float for x in items):
            float_sums.append(items)
        return compensated_sum(items, start)

    codes = json.loads((GOLDEN / EXIT_CODES).read_text())
    with mock.patch.object(builtins, "sum", counted_sum):
        rendered = {name: render(name, argv, tmp_path) for name, argv in cases().items()
                    if name.startswith("audit-")}
    assert len(rendered) == 22 and float_sums == []
    for name, (rc, files) in rendered.items():
        assert rc == codes[name], name
        assert files == {file: (GOLDEN / file).read_bytes() for file in files}, name


def assert_golden_in_a_fresh_interpreter(name, tmp):
    rc, files = render(name, cases()[name], tmp, child=True)
    assert rc == json.loads((GOLDEN / EXIT_CODES).read_text())[name]
    assert files == {file: (GOLDEN / file).read_bytes() for file in files}


@pytest.mark.parametrize(
    "name", ["table-twobit", "retro-qm-discrete", "game-left-discrete", "game-right-collapse"]
)
def test_numpy_free_commands_match_golden_in_a_fresh_interpreter(name, tmp_path):
    # in process numpy is already loaded; a child interpreter runs these
    # commands without it
    assert_golden_in_a_fresh_interpreter(name, tmp_path)


@pytest.mark.parametrize("name", ["run-qm-nocollapse", "run-twobit", "audit-qm-collapse",
                                  "audit-twobit-multiblock", "run-qm-discrete-multiblock"])
def test_sampling_commands_match_golden_in_a_fresh_interpreter(name, tmp_path):
    # a child draws through the bare numpy.random of retrolab.__main__.run,
    # the in-process cases through the full package
    assert_golden_in_a_fresh_interpreter(name, tmp_path)


def records_sha256(model, tmp_path, child=False):
    """sha256 of the records file of ``run --n 10000 --seed 11`` for ``model``."""
    path = tmp_path / "recs.jsonl"
    argv = ["run", "--model", model, *SETTINGS, "--n", "10000", "--seed", "11",
            "--records", str(path), "--records-limit", "0", "--out", os.devnull]
    rc = subprocess.run([sys.executable, "-m", "retrolab", *argv]).returncode if child else cli.main(argv)
    assert rc == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(RECORDS_SHA256))
def test_multiblock_records_files_match_pinned_hashes(model, tmp_path):
    assert records_sha256(model, tmp_path) == RECORDS_SHA256[model]


def test_a_fresh_interpreter_writes_the_pinned_records_file(tmp_path):
    assert records_sha256("qm-discrete", tmp_path, child=True) == RECORDS_SHA256["qm-discrete"]
