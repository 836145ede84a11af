"""End-to-end command-line checks, exit codes included."""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from retrolab import __version__, cli
from retrolab.core import normalize_angle
from retrolab.records import read_records_jsonl
from test_golden import GOLDEN, render


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "retrolab", *args],
        capture_output=True,
        text=True,
    )


def payload_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def strip_meta(payload):
    return {k: v for k, v in payload.items() if k != "meta"}


def test_run_twobit_quarter_wave():
    proc = run_cli("run", "--model", "twobit", "--sigma-l", "0",
                   "--sigma-r", "1.0472", "--n", "1000000", "--seed", "42")
    assert proc.returncode == 0
    result = payload_of(proc)["result"]
    assert abs(result["p_match_empirical"] - 0.25) < 0.002
    assert result["p_match_analytic"] == pytest.approx(0.24999787927704317, abs=1e-12)


def test_run_equal_settings_repeats_channel():
    proc = run_cli("run", "--model", "qm-discrete", "--sigma-l", "0.7",
                   "--sigma-r", "0.7", "--n", "20000", "--seed", "1")
    result = payload_of(proc)["result"]
    assert result["empirical"]["01"] == 0.0
    assert result["empirical"]["10"] == 0.0


def test_run_unknown_model_exits_2():
    proc = run_cli("run", "--model", "unknown", "--sigma-l", "0", "--sigma-r", "1")
    assert proc.returncode == 2


def test_run_missing_model_exits_2():
    proc = run_cli("run", "--sigma-l", "0", "--sigma-r", "1")
    assert proc.returncode == 2
    assert "model" in proc.stderr


def test_run_is_deterministic():
    args = ("run", "--model", "qm-discrete", "--sigma-l", "0.3",
            "--sigma-r", "1.1", "--n", "100000", "--seed", "9")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert strip_meta(payload_of(a)) == strip_meta(payload_of(b))
    # byte-identical apart from the timestamp line
    lines_a = [l for l in a.stdout.splitlines() if "created_at" not in l]
    lines_b = [l for l in b.stdout.splitlines() if "created_at" not in l]
    assert lines_a == lines_b


def test_created_at_is_utc_to_the_second():
    stdout = io.StringIO()
    before = datetime.now(timezone.utc).replace(microsecond=0)
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "1"]) == 0
    after = datetime.now(timezone.utc)
    created_at = json.loads(stdout.getvalue())["meta"]["created_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", created_at)
    assert before <= datetime.fromisoformat(created_at) <= after


def test_run_embeds_resolved_config():
    proc = run_cli("run", "--model", "twobit", "--sigma-l", "0",
                   "--sigma-r", "0.5", "--n", "20000", "--seed", "3")
    cfg = payload_of(proc)["config"]
    assert cfg["model"] == "twobit"
    assert cfg["n"] == 20000 and cfg["seed"] == 3
    assert cfg["tool"] == "retrolab" and "version" in cfg


def test_run_weighted_counts_for_branch_model():
    proc = run_cli("run", "--model", "qm-nocollapse", "--sigma-l", "0.2",
                   "--sigma-r", "0.9", "--n", "50000", "--seed", "5")
    result = payload_of(proc)["result"]
    assert result["weighted_counts"] is True
    assert result["tv_to_analytic"] < 0.01


def test_run_csv_format():
    proc = run_cli("run", "--model", "twobit", "--sigma-l", "0",
                   "--sigma-r", "1.0472", "--n", "20000", "--seed", "2",
                   "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "in_channel,out_channel,count,empirical,analytic"
    assert len(lines) == 6


def test_run_records_jsonl(tmp_path):
    path = tmp_path / "recs.jsonl"
    proc = run_cli("run", "--model", "qm-discrete", "--sigma-l", "0",
                   "--sigma-r", "0.5", "--n", "20000", "--seed", "4",
                   "--records", str(path), "--records-limit", "47")
    assert proc.returncode == 0
    recs = read_records_jsonl(path)
    assert len(recs) == 47
    assert all(r.model == "qm-discrete" for r in recs)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "twobit", "sigma_l": 0.0,
                               "sigma_r": 1.0472, "n": 50000, "seed": 7}))
    proc = run_cli("run", "--config", str(cfg), "--n", "20000")
    out = payload_of(proc)["config"]
    assert out["n"] == 20000  # flag wins
    assert out["seed"] == 7  # config fills the rest


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "twobit", "sigma_l": 0, "sigma_r": 1,
                               "bogus": True}))
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def main_in_process(*argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def with_config(tmp_path, config, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main_in_process(*argv, "--config", str(path))


TABLE_CONFIG = {"model": "twobit", "sigma_l": 0.3, "sigma_r": 1.2}
RUN_CONFIG = {**TABLE_CONFIG, "n": 1000}


REJECTED_CONFIGS = [
    # keys that name no flag of the command, positionals and abbreviations included
    (("table",), {**TABLE_CONFIG, "format": "json"}, "format"),
    (("audit", "twobit", "0", "0.5"), {"sigma_a": 0.1}, "sigma_a"),
    (("audit", "twobit", "0", "0.5"), {"sigma_b": 0.1}, "sigma_b"),
    (("audit", "twobit", "0", "0.5"), {"rho": 0.1}, "rho"),
    (("run",), {**RUN_CONFIG, "record": "x.jsonl"}, "record"),
    (("run",), {**RUN_CONFIG, "help": True}, "help"),
    (("run",), {**RUN_CONFIG, "config": "other.json"}, "config"),
    # values of the wrong kind for their flag
    (("table",), {**TABLE_CONFIG, "degrees": "false"}, "degrees"),
    (("run",), {**RUN_CONFIG, "seed": True}, "seed"),
    (("run",), {**RUN_CONFIG, "n": None}, "null"),
    (("run",), {**RUN_CONFIG, "sigma_l": [0.3]}, "sigma_l"),
]


@pytest.mark.parametrize("argv, config, named", REJECTED_CONFIGS,
                         ids=[f"{argv[0]}-{named}" for argv, _, named in REJECTED_CONFIGS])
def test_config_key_or_value_rejected(tmp_path, argv, config, named):
    rc, out, err = with_config(tmp_path, config, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and named in err


@pytest.mark.parametrize("config, named", [
    ({**RUN_CONFIG, "n": 20000.9}, "'20000.9'"),
    ({**RUN_CONFIG, "format": "xml"}, "'xml'"),
    ({**RUN_CONFIG, "model": "classical"}, "'classical'"),
])
def test_config_values_go_through_the_flag_parser(tmp_path, config, named):
    rc, out, err = with_config(tmp_path, config, "run")
    assert rc == 2 and out == ""
    assert err.splitlines()[-1].startswith("retrolab run: error: argument ") and named in err


def test_explicit_flags_beat_the_config_file(tmp_path):
    rc, out, _ = with_config(tmp_path, {**RUN_CONFIG, "seed": 7}, "run", "--seed", "8")
    assert rc == 0 and json.loads(out)["config"]["seed"] == 8
    config = {"model": "twobit", "sigma_l": 30, "sigma_r": 90, "degrees": False}
    rc, out, _ = with_config(tmp_path, config, "table", "--degrees")
    assert rc == 0
    assert json.loads(out)["config"]["sigma_r"] == pytest.approx(math.pi / 2)


OUT_COMMANDS = {
    "run": ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "100"),
    "game": ("game", "left", "0.4", "--discrete"),
    "audit": ("audit", "twobit", "0", "0.5", "--n", "10000"),
    "retro": ("retro", "twobit", "0", "0.2", "0.9"),
    "table": ("table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5"),
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_config_out_is_honoured(tmp_path, command):
    path = tmp_path / "out.json"
    rc, out, err = with_config(tmp_path, {"out": str(path)}, *OUT_COMMANDS[command])
    assert rc in (0, 1), err
    assert out == ""
    assert json.loads(path.read_text())["config"]["command"] == command


def test_config_flags_of_game_are_honoured(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "discrete"}))
    argv = ("game", "right", "0.7", "--config", str(path))
    rc, files = render("game-right-discrete", argv, tmp_path)
    assert rc == 0
    assert files["game-right-discrete.json"] == (GOLDEN / "game-right-discrete.json").read_bytes()

    rc, out, _ = with_config(tmp_path, {"superposition": True}, "game", "left", "0.4")
    assert rc == 0 and json.loads(out)["config"]["strategy"] == "superposition"


def test_game_rho_defaults_to_pi_over_6_radians_under_degrees():
    rc, out, _ = main_in_process("game", "right", "40", "--mode", "discrete", "--degrees")
    assert rc == 0 and json.loads(out)["config"]["rho"] == math.pi / 6
    rc, out, _ = main_in_process("game", "right", "40", "--mode", "discrete", "--degrees",
                                 "--rho", "45")
    assert rc == 0 and json.loads(out)["config"]["rho"] == math.radians(45)


def test_game_left_rejects_rho():
    rc, out, err = main_in_process("game", "left", "0.4", "--discrete", "--rho", "0.3")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--rho" in err


def test_seed_outside_64_bits_exits_2():
    args = ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "10")
    rc, out, err = main_in_process(*args, "--seed", str(2**64))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and str(2**64) in err
    rc, out, _ = main_in_process(*args, "--seed", str(2**64 - 1))
    assert rc == 0 and json.loads(out)["config"]["seed"] == 2**64 - 1


def test_degrees_flag():
    rad = run_cli("table", "--model", "twobit",
                  "--sigma-l", str(math.pi / 6), "--sigma-r", str(math.pi / 2))
    deg = run_cli("table", "--model", "twobit", "--sigma-l", "30",
                  "--sigma-r", "90", "--degrees")
    assert payload_of(rad)["result"] == payload_of(deg)["result"]


def test_table_pin():
    proc = run_cli("table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "1.0472")
    assert proc.returncode == 0
    result = payload_of(proc)["result"]
    assert result["p_match"] == pytest.approx(0.24999787927704317, abs=1e-12)


def test_retro_exit_codes():
    proc = run_cli("retro", "twobit", "0", "0", "1.0472")
    assert proc.returncode == 1
    result = payload_of(proc)["result"]
    # 1.0472 carries five digits of pi/3, so the 0.75 carries about as many
    assert result["tv_distance"] == pytest.approx(0.75, abs=1e-5)
    assert result["retro"] is True

    proc = run_cli("retro", "qm-collapse", "0", "0.2", "0.9")
    assert proc.returncode == 0
    assert payload_of(proc)["result"]["tv_distance"] == 0.0

    proc = run_cli("retro", "qm-nocollapse", "0", "0.2", "0.9")
    assert proc.returncode == 0


def test_retro_equal_alt_exits_2():
    proc = run_cli("retro", "twobit", "0", "0.5", "0.5")
    assert proc.returncode == 2


def test_audit_exit_codes():
    proc = run_cli("audit", "qm-discrete", "0", "0.5236", "--n", "100000")
    assert proc.returncode == 0
    assert payload_of(proc)["result"]["verdict"] == "symmetric"

    proc = run_cli("audit", "qm-collapse", "0", "0.5236", "--n", "100000")
    assert proc.returncode == 1
    result = payload_of(proc)["result"]
    assert result["verdict"] == "asymmetric"
    assert result["distinguisher_score"] >= 0.99

    proc = run_cli("audit", "qm-collapse", "0", "0", "--n", "100000")
    assert proc.returncode == 4
    assert payload_of(proc)["result"]["degenerate_settings"] is True


def test_audit_rejects_classical():
    proc = run_cli("audit", "classical", "0", "0.5")
    assert proc.returncode == 2


def test_game_left_discrete():
    proc = run_cli("game", "left", "0.4", "--discrete")
    assert proc.returncode == 0
    result = payload_of(proc)["result"]
    assert result["control_mod"] == "pi/2"
    assert result["achievable"][0] == pytest.approx(0.4)


def test_large_settings_are_reduced_before_the_closed_forms():
    # 1e17 + pi/2 rounds back to 1e17, and cos(1e17) is not cos of the
    # reduced setting the samplers use: each setting is reduced first
    rc, out, err = main_in_process("run", "--model", "qm-discrete", "--sigma-l", "1e17",
                                   "--sigma-r", "0.2", "--n", "10000", "--seed", "1")
    assert rc == 0, err
    assert json.loads(out)["result"]["tv_to_analytic"] < 0.01
    rc, out, err = main_in_process("game", "left", "1e17", "--discrete")
    assert rc == 0, err
    assert json.loads(out)["result"]["control_mod"] == "pi/2"
    rc, out, err = main_in_process("retro", "qm-discrete", "0", "1e17", "0.9")
    assert rc == 1, err
    assert json.loads(out)["result"]["retro"] is True


def test_game_right_reduces_the_shift_first():
    results = []
    for rho in ("1e17", repr(normalize_angle(1e17))):
        rc, out, err = main_in_process("game", "right", "0.3", "--mode", "discrete", "--rho", rho)
        assert rc == 0, err
        results.append(json.loads(out)["result"])
    assert results[0]["shifted_achievable"] == results[1]["shifted_achievable"]
    assert results[0]["rho"] == 1e17


def test_game_left_classical_has_no_control():
    proc = run_cli("game", "left", "0.4", "--classical")
    assert payload_of(proc)["result"]["achievable"] == "all"


def test_game_right_modes():
    proc = run_cli("game", "right", "0.7", "--mode", "discrete", "--rho", "0.5236")
    result = payload_of(proc)["result"]
    assert result["control_mod"] == "pi/2"
    assert result["shift_detectable"] is True

    proc = run_cli("game", "right", "0.7", "--mode", "nocollapse")
    result = payload_of(proc)["result"]
    assert result["achievable"] == "all"
    assert result["control_mod"] == "none"


def test_game_flag_validation():
    assert run_cli("game", "left", "0.4").returncode == 2
    assert run_cli("game", "left", "0.4", "--discrete", "--classical").returncode == 2
    assert run_cli("game", "right", "0.4").returncode == 2
    assert run_cli("game", "right", "0.4", "--discrete").returncode == 2


def test_out_file(tmp_path):
    path = tmp_path / "out.json"
    proc = run_cli("table", "--model", "onebit", "--sigma-l", "0",
                   "--sigma-r", "0.5", "--out", str(path))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(path.read_text())["config"]["model"] == "onebit"


def test_unwritable_out_exits_3(tmp_path):
    proc = run_cli("table", "--model", "onebit", "--sigma-l", "0",
                   "--sigma-r", "0.5", "--out", str(tmp_path / "no" / "dir" / "x.json"))
    assert proc.returncode == 3


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_exits_3():
    # without PYTHONUNBUFFERED stdout is block-buffered, so the payload first
    # meets the full device when it is flushed on the way out
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "retrolab", "table", "--model", "twobit",
             "--sigma-l", "0", "--sigma-r", "0"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("write failed: ")


def test_version_and_usage_errors_keep_their_output_and_exit_codes():
    version = run_cli("--version")
    assert (version.returncode, version.stdout, version.stderr) == (0, f"retrolab {__version__}\n", "")
    bogus = run_cli("table", "--model", "bogus")
    assert (bogus.returncode, bogus.stdout) == (2, "")
    assert bogus.stderr.startswith("usage: retrolab table")
    assert bogus.stderr.splitlines()[-1].startswith("retrolab table: error: argument --model: "
                                                    "invalid choice: 'bogus'")


def test_console_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["retrolab"]
    module, name = target.split(":")
    assert module == "retrolab.__main__"  # the module python -m retrolab runs
    entry = importlib.import_module(module)
    assert getattr(entry, name) is entry.run


def test_negative_records_limit_exits_2(tmp_path):
    path = tmp_path / "recs.jsonl"
    proc = run_cli("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5",
                   "--n", "1000", "--records", str(path), "--records-limit", "-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "records-limit" in proc.stderr
    assert not path.exists()


def test_records_and_out_to_piped_stdout(tmp_path):
    # /dev/stdout on a pipe is written in place, as open(path, "w") would
    args = ("run", "--model", "qm-nocollapse", "--sigma-l", "0.3", "--sigma-r", "1.2",
            "--n", "50", "--seed", "3", "--records-limit", "0")
    path = tmp_path / "recs.jsonl"
    to_file = run_cli(*args, "--records", str(path))
    piped = run_cli(*args, "--records", "/dev/stdout")
    assert piped.returncode == 0, piped.stderr
    records_text = path.read_text()
    assert len(records_text.splitlines()) == 50
    assert piped.stdout.startswith(records_text)
    assert strip_meta(json.loads(piped.stdout[len(records_text):])) == \
        strip_meta(payload_of(to_file))

    table = ("table", "--model", "onebit", "--sigma-l", "0", "--sigma-r", "0.5")
    out = run_cli(*table, "--out", "/dev/stdout")
    assert out.returncode == 0, out.stderr
    assert strip_meta(json.loads(out.stdout)) == strip_meta(payload_of(run_cli(*table)))


# commands that compute closed forms only, and commands that sample rows
ANALYTIC_COMMANDS = {
    "table": ("table", "--model", "twobit", "--sigma-l", "0.3", "--sigma-r", "1.2"),
    "retro": ("retro", "qm-discrete", "0", "0.2", "0.9"),
    "game-left": ("game", "left", "0.4", "--discrete"),
    "game-right": ("game", "right", "0.7", "--mode", "discrete"),
    "version": ("--version",),
}
SAMPLING_COMMANDS = {
    "run": ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "1000"),
    "audit": ("audit", "twobit", "0", "0.5", "--n", "10000"),
}


def _importtime_names(stderr: str) -> frozenset[str]:
    """The modules in ``-X importtime``'s listing."""
    return frozenset(line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                     if line.startswith("import time:"))


@functools.lru_cache(maxsize=None)
def imported(*args) -> frozenset[str]:
    """Modules a fresh ``retrolab *args`` imports, from ``-X importtime``'s listing."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "retrolab", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1), proc.stderr
    names = _importtime_names(proc.stderr)
    assert "retrolab.cli" in names
    return names


def imports_numpy(*args) -> bool:
    return any(name == "numpy" or name.startswith("numpy.") for name in imported(*args))


@pytest.mark.parametrize("name", sorted(ANALYTIC_COMMANDS))
def test_analytic_commands_do_not_import_numpy(name):
    assert not imports_numpy(*ANALYTIC_COMMANDS[name])


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_import_numpy(name):
    assert imports_numpy(*SAMPLING_COMMANDS[name])


@pytest.mark.parametrize("name", sorted(ANALYTIC_COMMANDS))
def test_analytic_commands_do_not_import_dataclasses_or_inspect(name):
    assert not {"dataclasses", "inspect", "datetime"} & imported(*ANALYTIC_COMMANDS[name])


@pytest.mark.parametrize("name", ["table", "retro", "version"])
def test_closed_form_commands_do_not_import_records_or_optics(name):
    assert not {"retrolab.records", "retrolab.optics"} & imported(*ANALYTIC_COMMANDS[name])


@functools.lru_cache(maxsize=None)
def imported_by_argparse_and_json() -> frozenset[str]:
    """Modules a fresh ``python -c "import argparse, json"`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import argparse, json"],
                          capture_output=True, text=True, check=True)
    return _importtime_names(proc.stderr)


# what the closed-form commands load beyond argparse, json and retrolab, as
# measured on CPython 3.11: __future__ and cmath (core), locale and _locale
# (argparse's messages, through gettext, at parse time), runpy and
# importlib.machinery (python -m), and textwrap for the --version action
START_UP_EXTRAS = {"__future__", "cmath", "runpy", "importlib.machinery", "locale", "_locale"}


@pytest.mark.parametrize("name", ["table", "retro", "version"])
def test_closed_form_commands_import_exactly_the_start_up_modules(name):
    # any module added to the start-up path, a standard one included, costs
    # every short command its import
    loaded = imported(*ANALYTIC_COMMANDS[name]) - imported_by_argparse_and_json()
    assert loaded == {"retrolab", "retrolab.cli", "retrolab.core", "retrolab.hvmodels",
                      "retrolab.photon", "retrolab.stats"} | START_UP_EXTRAS | (
                          {"textwrap"} if name == "version" else set())


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_do_not_import_dataclasses(name):
    assert "dataclasses" not in imported(*SAMPLING_COMMANDS[name])


@pytest.mark.parametrize("name", sorted(ANALYTIC_COMMANDS | SAMPLING_COMMANDS))
def test_only_game_imports_the_games_module(name):
    args = (ANALYTIC_COMMANDS | SAMPLING_COMMANDS)[name]
    assert ("retrolab.games" in imported(*args)) == (args[0] == "game")


@pytest.mark.parametrize("args", [
    ("run", "--model", "qm-discrete", "--sigma-l", "0", "--sigma-r", "0.5"),
    ("audit", "twobit", "0", "0.5"),
])
def test_ensemble_beyond_physical_memory_exits_2(args):
    proc = run_cli(*args, "--n", "1000000000000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "physical memory" in proc.stderr


# runs a small ``run`` in process, then reports its own thread count and
# the OpenBLAS thread setting it ended with
_THREADS_AFTER_RUN = """
import os
from retrolab import cli
cli.main(["run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "10",
          "--out", os.devnull])
status = open("/proc/self/status").read().splitlines()
print(next(line.split()[1] for line in status if line.startswith("Threads:")),
      os.environ["OPENBLAS_NUM_THREADS"])
"""


def threads_after_run(openblas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_RUN], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    threads, setting = proc.stdout.split()
    return int(threads), setting


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="thread count read from /proc/self/status")


@needs_proc
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: no BLAS pool to avoid")
def test_sampling_commands_start_numpy_with_one_blas_thread():
    assert threads_after_run(None) == (1, "1")


@needs_proc
def test_sampling_commands_keep_a_preset_blas_thread_count():
    threads, setting = threads_after_run("2")
    assert setting == "2"
    assert threads == min(2, os.cpu_count() or 1)
