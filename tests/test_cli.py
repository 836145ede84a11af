"""End-to-end command-line checks, exit codes included."""

import argparse
import contextlib
import errno
import functools
import importlib
import io
import json
import math
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from retrolab import __version__, cli, hvmodels
from retrolab.core import normalize_angle
from retrolab.records import read_records_jsonl
from retrolab.stats import RandomStream
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


# each command with angles in degrees (the floats) and its other arguments
DEGREE_ARGVS = {
    "run": ("run", "--model", "qm-discrete", "--sigma-l", 30.0, "--sigma-r", -75.0, "--n", "1000"),
    "audit": ("audit", "qm-collapse", 10.0, 40.0, "--n", "10000"),
    "retro": ("retro", "qm-discrete", 0.0, 20.0, 95.0),
    "table": ("table", "--model", "twobit", "--sigma-l", 30.0, "--sigma-r", 400.0),
    "game-left": ("game", "left", 40.0, "--discrete"),
    "game-right-rho": ("game", "right", 40.0, "--mode", "discrete", "--rho", 45.0),
    "game-right": ("game", "right", 40.0, "--mode", "collapse"),
}


@pytest.mark.parametrize("name", sorted(DEGREE_ARGVS))
def test_degrees_give_the_payload_of_their_radians(name):
    argv = DEGREE_ARGVS[name]
    rc, out, err = main_in_process(*map(str, argv), "--degrees")
    radians = main_in_process(*(repr(math.radians(a)) if isinstance(a, float) else a for a in argv))
    assert (rc, err) == radians[0::2] and rc in (0, 1)
    assert strip_meta(json.loads(out)) == strip_meta(json.loads(radians[1]))
    if name == "game-right":  # the default shift is π/6 radians, whatever --degrees says
        assert json.loads(out)["config"]["rho"] == math.pi / 6


def test_degrees_convert_the_config_file_angles(tmp_path):
    rc, out, _ = with_config(tmp_path, {"sigma_l": 30, "sigma_r": 400.0, "degrees": True},
                             "table", "--model", "twobit")
    assert rc == 0
    radians = main_in_process("table", "--model", "twobit", "--sigma-l", repr(math.radians(30)),
                              "--sigma-r", repr(math.radians(400)))
    assert strip_meta(json.loads(out)) == strip_meta(json.loads(radians[1]))


# each command with negative angles, as (exponent form, decimal) spellings
EXPONENT_ARGVS = {
    "audit": ("audit", "twobit", ("-1e-3", "-0.001"), "0.5", "--n", "10000"),
    "table": ("table", "--model", "twobit", "--sigma-l", ("-1e-3", "-0.001"), "--sigma-r", "0.5"),
    "retro": ("retro", "qm-discrete", ("-2E-1", "-0.2"), "0.2", ("-9e-1", "-0.9")),
    "game-left": ("game", "left", ("-2e-1", "-0.2"), "--discrete"),
    "game-right-rho": ("game", "right", "0.7", "--mode", "discrete", "--rho", ("-1e-1", "-0.1")),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_ARGVS))
def test_a_negative_angle_in_exponent_form_is_read_as_its_decimal(name):
    exponent, decimal = (
        main_in_process(*(a[form] if isinstance(a, tuple) else a for a in EXPONENT_ARGVS[name]))
        for form in (0, 1))
    assert (exponent[0], exponent[2]) == (decimal[0], "") and decimal[0] in (0, 1)
    assert strip_meta(json.loads(exponent[1])) == strip_meta(json.loads(decimal[1]))


def test_every_float_typed_option_is_an_angle_without_a_default():
    # --degrees converts every float-typed option, so a float that is no
    # angle, or a float default, would be converted too
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for command in commands.choices.values() for a in command._actions]
    assert {a.dest for a in actions if a.type is float} == {
        "sigma_l", "sigma_r", "sigma_a", "sigma_b", "sigma_r_alt", "setting", "rho"}
    assert not [a.dest for a in actions if isinstance(a.default, float)]


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
    # the target checks pass, and the OS refuses the name
    path = str(tmp_path / ("x" * 300))
    proc = run_cli("table", "--model", "onebit", "--sigma-l", "0", "--sigma-r", "0.5", "--out", path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("write failed: ") and proc.stderr.endswith(f": {path!r}\n")
    assert list(tmp_path.iterdir()) == []


# output targets no write could take, each checked before anything is drawn
BAD_TARGETS = {
    "empty": "",
    "working-directory": ".",
    "root": "/",
    "directory": "{tmp}",
    "nul": "{tmp}/a\0b",
    "missing-directory": "{tmp}/nodir/x.json",
    "file-as-directory": "{tmp}/file/x.json",
}

TARGET_COMMANDS = {
    "audit-out": ("audit", "qm-discrete", "0.3", "1.2", "--n", "4000000", "--out"),
    "run-out": ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--out"),
    "run-records": ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--records"),
    "table-out": ("table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--out"),
}


@pytest.mark.parametrize("target", BAD_TARGETS.values(), ids=list(BAD_TARGETS))
@pytest.mark.parametrize("argv", TARGET_COMMANDS.values(), ids=list(TARGET_COMMANDS))
def test_bad_output_targets_exit_2_before_any_draw(tmp_path, monkeypatch, argv, target):
    (tmp_path / "file").write_text("")
    path = target.format(tmp=tmp_path)
    generators = []
    monkeypatch.setattr(RandomStream, "bits", lambda *args: generators.append(args))
    rc, out, err = main_in_process(*argv, path)
    assert (rc, out, generators) == (2, "", [])
    assert err.startswith(f"error: {argv[-1]} {path!r} ") and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


# two targets that are one file, or a target that is the --config file,
# each refused before anything is drawn or written; F holds a usable config
# and L links to it
_RUN_100 = ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "100")
ONE_FILE = {
    "records-is-out": ((*_RUN_100, "--records", "{tmp}/F", "--out", "{tmp}/F"),
                       "--records '{tmp}/F' and --out '{tmp}/F'"),
    "records-is-new-out": ((*_RUN_100, "--records", "{tmp}/new", "--out", "{tmp}/new"),
                           "--records '{tmp}/new' and --out '{tmp}/new'"),
    "out-links-to-records": ((*_RUN_100, "--records", "{tmp}/F", "--out", "{tmp}/L"),
                             "--records '{tmp}/F' and --out '{tmp}/L'"),
    "records-is-config": (("run", "--records", "{tmp}/F", "--config", "{tmp}/F"),
                          "--records '{tmp}/F' and --config '{tmp}/F'"),
    "out-is-config": (("table", "--out", "{tmp}/L", "--config", "{tmp}/F"),
                      "--out '{tmp}/L' and --config '{tmp}/F'"),
}


@pytest.mark.parametrize("argv, named", ONE_FILE.values(), ids=list(ONE_FILE))
def test_targets_that_are_one_file_exit_2_before_any_draw(tmp_path, monkeypatch, argv, named):
    config = json.dumps({"model": "twobit", "sigma_l": 0, "sigma_r": 0.5})
    (tmp_path / "F").write_text(config)
    (tmp_path / "L").symlink_to(tmp_path / "F")
    generators = []
    monkeypatch.setattr(RandomStream, "bits", lambda *args: generators.append(args))
    rc, out, err = main_in_process(*(arg.format(tmp=tmp_path) for arg in argv))
    assert (rc, out, generators) == (2, "", [])
    assert err == f"error: {named.format(tmp=tmp_path)} are one file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "L"]
    assert (tmp_path / "F").read_text() == config


# ------------------------------------------------- the exit-code contract


# values of each kind of argument, usable ones and then odd ones; a path
# holds {tmp} for a fresh directory
_ANGLES = ("0", "0.3", "-1.2", "1.5707963267948966", "100", "-0.0", "1e308", "5e-324"), \
    ("nan", "inf", "-1e999", "x", "")
_SEEDS = ("0", "3", str(2**64 - 1)), (str(2**64), "-1", "1.5")
_COUNTS = ("1", "7", "9999", "10000", "20000"), ("0", "-3", "1e4")
_MODELS = hvmodels.model_ids(), ("bogus", "")
# a path the checks pass and the OS refuses: its name is too long
_REFUSED = "{tmp}/" + "x" * 300
_PATHS = ("{tmp}/out", "{tmp}/file"), (*BAD_TARGETS.values(), _REFUSED)


@st.composite
def cli_argvs(draw):
    """An argv of any command, mostly of usable values, each odd one time in
    sixteen: an odd value, a required option left out or a stray flag.  An
    output path is odd one time in two.  With the argv comes the name of the
    option whose value is odd when that is the one odd draw, else None."""
    oddities = []

    def odd(one_in=16, name=None):
        if draw(st.sampled_from((False,) * (one_in - 1) + (True,))):
            oddities.append(name)
            return True
        return False

    def one(values, name, one_in=16):
        value = draw(st.sampled_from(values[odd(one_in, name)]))
        if value == _REFUSED:  # odd to the OS alone, once every check passed
            oddities[-1] = None
        return value

    def flag(name, values, given=True):
        return [name, one(values, name, 2 if values is _PATHS else 16)] if given != odd() else []

    def switch(name, given=True):
        return [name] if given != odd() else []

    command = one((("run", "audit", "table", "retro", "game"), ("bogus",)), "cmd")
    if command in ("run", "table"):
        argv = [command, *flag("--model", _MODELS), *flag("--sigma-l", _ANGLES),
                *flag("--sigma-r", _ANGLES)]
    elif command == "game":
        side = one((("left", "right"), ("up",)), "side")
        strategy = draw(st.sampled_from(("--discrete", "--classical", "--superposition")))
        argv = [command, side, one(_ANGLES, "setting"), *switch(strategy, side == "left"),
                *flag("--mode", (("discrete", "collapse", "nocollapse"), ("up",)), side == "right"),
                *flag("--rho", _ANGLES, side == "right" and draw(st.booleans()))]
    else:
        names = ("sigma_a", "sigma_b") if command == "audit" else ("sigma_l", "sigma_r", "sigma_r_alt")
        argv = [command, one(_MODELS, "model"), *(one(_ANGLES, name) for name in names)]
    if command in ("run", "audit"):
        argv += [*flag("--n", _COUNTS), *flag("--seed", _SEEDS, draw(st.booleans()))]
        if "--n" not in argv:
            argv = argv[:1]  # not the default 10^6 runs: no model, no draw
    if command == "run":
        argv += [*flag("--format", (("json", "csv"), ("xml",)), draw(st.booleans())),
                 *flag("--records", _PATHS, draw(st.booleans())),
                 *flag("--records-limit", (("0", "5"), ("-1",)), draw(st.booleans()))]
    argv += [*switch("--degrees", draw(st.booleans())), *flag("--out", _PATHS, draw(st.booleans()))]
    targets = [argv[k + 1] for k, arg in enumerate(argv) if arg in ("--records", "--out")]
    if len(targets) == 2 and targets[0] == targets[1]:
        oddities.append(None)  # two usable targets that are one file
    if command != "retro" and set(argv) & (set(_MODELS[0]) - set(hvmodels.model_ids(stochastic=True))):
        oddities.append(None)  # a model that only retro takes
    argv += switch("--config={tmp}/none", False)
    return argv, oddities[0] if len(oddities) == 1 else None


def _files(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


_AUDIT = ["audit", "qm-collapse", "0", "0.5236", "--n", "10000"]
_TABLE = ["table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
# each outcome at least once, whatever the draws reach
@example((_AUDIT[:3] + ["0"] + _AUDIT[4:], None))  # exit 4
@example((_AUDIT, None))  # exit 1
@example((_TABLE + ["--out", _REFUSED], None))
@example((["run", *_TABLE[1:], "--n", "5", "--records", _REFUSED, "--out", "{tmp}/out"], None))
@example((["run", *_TABLE[1:], "--n", "5", "--records", "{tmp}/out", "--out", "{tmp}/nodir/x"], "--out"))
@example((_AUDIT + ["--out", ""], "--out"))
@example((_AUDIT + ["--out", "{tmp}/file/x"], "--out"))
# each refusal of a value that parses, named
@example((["table", "--model", "twobit", "--sigma-l", "nan", "--sigma-r", "0.5"], "--sigma-l"))
@example((["audit", "twobit", "0", "-1e999", "--n", "20000", "--degrees"], "sigma_b"))
@example((["retro", "twobit", "0", "0.5", "inf"], "sigma_r_alt"))
@example((["game", "right", "0.3", "--mode", "discrete", "--rho", "nan"], "--rho"))
@example((["run", *_TABLE[1:], "--n", "0"], "--n"))
@example((["audit", "twobit", "0", "0.5", "--n", "10", "--seed", "-1"], "--seed"))
def test_every_argv_keeps_the_exit_code_contract(case):
    # exit 0, 1 or 4 with one payload; 2 with one error line, naming the odd
    # value when only one was drawn, and nothing written; 3 only for a write
    # the OS refused after the checks passed
    argv, odd = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "file").write_text("kept\n")
        argv = [arg.format(tmp=tmp) for arg in argv]
        before = _files(root)
        rc, out, err = main_in_process(*argv)
        written = {path for path, data in _files(root).items() if before.get(path) != data}
        targets = {argv[k + 1] for k, arg in enumerate(argv[:-1]) if arg in ("--out", "--records")}
        if rc in (0, 1, 4):
            assert err == ""
            payload = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else out
            assert payload and not (out and "--out" in argv)
            if "csv" not in argv:
                json.loads(payload)
            assert {str(path) for path in written} <= targets
        elif rc == 2:
            assert out == "" and not written
            assert [line for line in err.splitlines() if "error: " in line] == err.splitlines()[-1:]
            if err.startswith("error: "):  # a UsageError, not argparse's own
                assert len(err.splitlines()) == 1
            if odd is not None:  # as a flag or a positional, or as the library's parameter
                assert re.search(rf"(?<![\w-])(--)?{re.escape(odd.lstrip('-'))}(?![\w-])",
                                 err.splitlines()[-1]), (odd, err)
        else:
            assert rc == 3, (rc, err)
            refused = _REFUSED.format(tmp=tmp)
            assert refused in targets and len(err.splitlines()) == 1
            assert err.startswith("write failed: ") and err.endswith(f": {refused!r}\n")


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


def in_shell(redirect, *args):
    """``retrolab *args`` run by ``sh`` with ``redirect``: ``>&-`` starts it
    with stdout closed, ``2>&-`` with stderr closed."""
    command = shlex.join([sys.executable, "-m", "retrolab", *args])
    return subprocess.run(["sh", "-c", f"{command} {redirect}"], capture_output=True, text=True)


needs_sh = pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")


@needs_sh
@pytest.mark.parametrize("argv", [_TABLE, ["run", *_TABLE[1:], "--n", "10", "--format", "csv"]],
                         ids=["table", "run-csv"])
def test_a_payload_for_a_closed_stdout_exits_3(argv):
    proc = in_shell(">&-", *argv)
    assert (proc.returncode, proc.stderr) == (3, "write failed: standard output is closed\n")


@needs_sh
def test_a_closed_stdout_that_takes_no_payload_exits_0(tmp_path):
    proc = in_shell(">&-", *_TABLE, "--out", str(tmp_path / "F"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "F").read_text())["result"]["joint"]
    version = in_shell(">&-", "--version")
    assert version.returncode == 0, version.stderr


@needs_sh
@pytest.mark.parametrize("argv, rc", [
    (["run", *_TABLE[1:], "--n", "0"], 2),
    pytest.param(["audit", "twobit", "0", "0.5", "--n", "10000", "--out", "/dev/full"], 3,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    (["table", "--model", "bogus"], 2),  # argparse's usage would fall back to stdout
    ([*_TABLE, "--out", "/dev/stderr"], 3),  # the closed descriptor takes no payload
], ids=["usage-error", "write-failure", "argparse-usage-error", "out-to-closed-stderr"])
def test_a_message_for_a_closed_stderr_keeps_the_exit_code(argv, rc):
    proc = in_shell("2>&-", *argv)
    assert (proc.returncode, proc.stdout) == (rc, "")


# writes that fail after the target opened: a full device takes no byte
FULL_TARGETS = {
    "out": [*_TABLE, "--out", "/dev/full"],
    "records": ["run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "100",
                "--records", "/dev/full"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", FULL_TARGETS.values(), ids=list(FULL_TARGETS))
def test_a_failed_write_names_its_target(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"write failed: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '/dev/full'\n"


def test_a_write_to_stdin_names_it_and_leaves_its_file(tmp_path):
    # /dev/stdin reaches this process's descriptor 0, open for reading only
    path = tmp_path / "F"
    path.write_text("kept\n")
    with open(path, "rb") as stdin:
        proc = subprocess.run([sys.executable, "-m", "retrolab", *_TABLE, "--out", "/dev/stdin"],
                              stdin=stdin, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"write failed: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '/dev/stdin'\n"
    assert path.read_text() == "kept\n"


def test_version_and_usage_errors_keep_their_output_and_exit_codes():
    version = run_cli("--version")
    assert (version.returncode, version.stdout, version.stderr) == (0, f"retrolab {__version__}\n", "")
    bogus = run_cli("table", "--model", "bogus")
    assert (bogus.returncode, bogus.stdout) == (2, "")
    assert bogus.stderr.startswith("usage: retrolab table")
    assert bogus.stderr.splitlines()[-1].startswith("retrolab table: error: argument --model: "
                                                    "invalid choice: 'bogus'")


USAGE_ERRORS = {
    "table-infinite-setting": (("table", "--model", "twobit", "--sigma-l", "inf", "--sigma-r", "1"), None),
    "run-nan-setting": (("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "nan", "--n", "10"),
                        None),
    "retro-nan-setting": (("retro", "twobit", "0", "nan", "0.9"), None),
    "game-left-nan-setting": (("game", "left", "nan", "--discrete"), None),
    "game-right-infinite-shift": (("game", "right", "0.7", "--mode", "discrete", "--rho", "inf"), None),
    "run-no-runs": (("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "0"), None),
    "audit-no-runs": (("audit", "twobit", "0", "0.5", "--n", "0"), None),
    "audit-too-few-runs": (("audit", "twobit", "0", "0.5", "--n", "100"), None),
    "config-not-utf8": (("table",), b'{"model": "\xff"}'),
    "config-nul-in-path": (("table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "1"),
                           b'{"out": "a\\u0000b"}'),
}


@pytest.mark.parametrize("argv, config", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_2_with_one_line(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_bytes(config)
        argv += ("--config", str(path))
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == ([] if config is None else [path])


def _broken_joint(*args):
    raise ValueError("an internal fault")


def test_an_internal_value_error_is_not_a_usage_error(monkeypatch):
    monkeypatch.setattr(hvmodels, "channel_joint", _broken_joint)
    with pytest.raises(ValueError, match="an internal fault"):
        cli.main(["table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "1"])


# python -m retrolab table ..., with channel_joint broken before the entry runs
BROKEN_ENTRY = """
import runpy, sys
from retrolab import hvmodels

def broken(*args):
    raise ValueError("an internal fault")

hvmodels.channel_joint = broken
sys.argv[1:] = ["table", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "1"]
runpy.run_module("retrolab", run_name="__main__", alter_sys=True)
"""


def test_an_internal_value_error_exits_1_with_a_traceback():
    proc = subprocess.run([sys.executable, "-c", BROKEN_ENTRY], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.splitlines()[-1] == "ValueError: an internal fault"


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
    # both targets on the one pipe: the records, then the payload
    both = run_cli(*args, "--records", "/dev/stdout", "--out", "/dev/stdout")
    assert both.returncode == 0, both.stderr
    assert both.stdout.startswith(records_text)
    assert strip_meta(json.loads(both.stdout[len(records_text):])) == \
        strip_meta(payload_of(to_file))

    table = ("table", "--model", "onebit", "--sigma-l", "0", "--sigma-r", "0.5")
    out = run_cli(*table, "--out", "/dev/stdout")
    assert out.returncode == 0, out.stderr
    assert strip_meta(json.loads(out.stdout)) == strip_meta(payload_of(run_cli(*table)))


@pytest.mark.parametrize("mode", ["wb", "ab"], ids=["truncated", "appended"])
@pytest.mark.parametrize("out", [(), ("--out", "/dev/stdout")], ids=["stdout", "out-stdout"])
def test_records_to_stdout_on_a_regular_file(tmp_path, out, mode):
    # /dev/stdout on a file the shell opened (> F, >> F) is written at the
    # shell's offset, so the payload follows the records instead of overwriting them
    args = ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "100",
            "--records-limit", "0")
    path = tmp_path / "recs.jsonl"
    to_file = run_cli(*args, "--records", str(path))
    head = "kept\n" if mode == "ab" else ""
    (tmp_path / "F").write_text(head)
    with open(tmp_path / "F", mode) as stdout:
        proc = subprocess.run([sys.executable, "-m", "retrolab", *args, "--records", "/dev/stdout", *out],
                              stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    records_text, text = path.read_text(), (tmp_path / "F").read_text()
    assert len(records_text.splitlines()) == 100
    assert text.startswith(head + records_text)
    assert strip_meta(json.loads(text[len(head + records_text):])) == strip_meta(payload_of(to_file))


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
    "records": ("run", "--model", "qm-discrete", "--sigma-l", "0", "--sigma-r", "0.5", "--n", "1000",
                "--records", os.devnull, "--records-limit", "0"),
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


def test_importing_the_audit_loads_no_numpy():
    # numpy loads with the first draw; the tables and the decision need none
    code = "import sys, retrolab.audit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


# what a command loads beyond the start-up modules: the control games need
# their module and the optics it checks them against
START_UP_EXTRAS_OF = {"version": {"textwrap"}, "game-left": {"retrolab.games", "retrolab.optics"},
                      "game-right": {"retrolab.games", "retrolab.optics"}}


@pytest.mark.parametrize("name", sorted(ANALYTIC_COMMANDS))
def test_closed_form_commands_import_exactly_the_start_up_modules(name):
    # any module added to the start-up path, a standard one included, costs
    # every short command its import
    loaded = imported(*ANALYTIC_COMMANDS[name]) - imported_by_argparse_and_json()
    assert loaded == {"retrolab", "retrolab.cli", "retrolab.core", "retrolab.hvmodels", "retrolab.photon",
                      "retrolab.stats"} | START_UP_EXTRAS | START_UP_EXTRAS_OF.get(name, set())


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_do_not_import_dataclasses(name):
    assert "dataclasses" not in imported(*SAMPLING_COMMANDS[name])


@pytest.mark.parametrize("name", sorted(ANALYTIC_COMMANDS | SAMPLING_COMMANDS))
def test_only_game_imports_the_games_module(name):
    args = (ANALYTIC_COMMANDS | SAMPLING_COMMANDS)[name]
    assert ("retrolab.games" in imported(*args)) == (args[0] == "game")


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_import_exactly_the_sampling_modules(name):
    # a module added to run or audit costs each of them its import and its memory
    loaded = {m for m in imported(*SAMPLING_COMMANDS[name]) if m.split(".")[0] == "retrolab"}
    assert loaded == {"retrolab", "retrolab.cli", "retrolab.core", "retrolab.hvmodels", "retrolab.photon",
                      "retrolab.stats", "retrolab.records", "retrolab.audit"}


# runs retrolab.__main__.run on the child's arguments and, as it ends the
# process, prints what sys.modules holds for _hashlib, then the numpy.random
# submodules it holds
_AT_EXIT = """
import os, sys
from retrolab import __main__ as entry
end = os._exit
def report(rc):
    print(repr(sys.modules.get("_hashlib")), flush=True)
    print(*sorted(m for m in sys.modules if m.startswith("numpy.random.")), flush=True)
    end(rc)
os._exit = report
entry.run()
"""


def at_exit(args, before=""):
    """What a fresh child that runs ``before`` and then ``retrolab *args``
    (payload to ``os.devnull``) holds for ``_hashlib`` as it exits, and the
    names of the ``numpy.random`` submodules it holds then."""
    proc = subprocess.run([sys.executable, "-c", before + _AT_EXIT, *args,
                           "--out", os.devnull], capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    hashlib, random = proc.stdout.splitlines()[-2:]
    return hashlib, set(random.split())


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_never_load_openssl(name):
    # -X importtime cannot show this: it lists the halted _hashlib import too
    assert at_exit(SAMPLING_COMMANDS[name])[0] == "None"


def test_the_entry_keeps_an_openssl_already_loaded():
    pytest.importorskip("_hashlib")
    loaded = at_exit(SAMPLING_COMMANDS["audit"], before="import hashlib\n")[0]
    assert loaded.startswith("<module '_hashlib' from ")


# what a draw needs of numpy.random 2.4: Philox and the modules it imports;
# Generator would add _generator, _bounded_integers and _pcg64, and
# numpy.random's __init__ the legacy RandomState's mtrand, the MT19937 and
# SFC64 bit generators and _pickle
DRAW_RANDOM_MODULES = {f"numpy.random.{m}" for m in ("_common", "_philox", "bit_generator")}


@pytest.mark.parametrize("name", sorted(SAMPLING_COMMANDS))
def test_sampling_commands_load_only_the_numpy_random_modules_of_the_draw(name):
    # a numpy upgrade that changes this set fails here
    assert at_exit(SAMPLING_COMMANDS[name])[1] == DRAW_RANDOM_MODULES


def test_the_entry_keeps_a_numpy_random_already_imported():
    loaded = at_exit(SAMPLING_COMMANDS["audit"], before="import numpy.random\n")[1]
    assert DRAW_RANDOM_MODULES | {f"numpy.random.{m}" for m in (
        "_generator", "_bounded_integers", "_pcg64", "mtrand", "_mt19937", "_sfc64", "_pickle")} <= loaded


# runs an audit through cli.main in process, then imports hashlib and prints
# the module of its sha256 type and what sys.modules holds for _hashlib
_HASHLIB_AFTER_MAIN = """
import os, sys
from retrolab import cli
cli.main([*sys.argv[1:], "--out", os.devnull])
import hashlib
print(type(hashlib.sha256()).__module__, sys.modules["_hashlib"].__name__)
"""


def test_in_process_main_leaves_openssl_to_later_imports():
    # library callers, tests and the benchmark's traced passes call cli.main
    pytest.importorskip("_hashlib")
    proc = subprocess.run([sys.executable, "-c", _HASHLIB_AFTER_MAIN, *SAMPLING_COMMANDS["audit"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["_hashlib", "_hashlib"]


# runs an audit through cli.main in process, then draws through the full
# numpy.random's default_rng and legacy RandomState
_RANDOM_AFTER_MAIN = """
import os, sys
from retrolab import cli
cli.main([*sys.argv[1:], "--out", os.devnull])
import numpy.random
print(numpy.random.default_rng(1).random(), numpy.random.RandomState(1).random_sample())
"""


def test_in_process_main_leaves_the_full_numpy_random_to_later_callers():
    proc = subprocess.run([sys.executable, "-c", _RANDOM_AFTER_MAIN, *SAMPLING_COMMANDS["audit"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    import numpy as np
    assert proc.stdout.split() == [repr(np.random.default_rng(1).random()),
                                   repr(np.random.RandomState(1).random_sample())]


class _Sampled(Exception):
    """Raised by the first block a command draws."""


class _FirstDraw:
    """A bit generator whose first draw raises :class:`_Sampled` with the run
    count of the sampler's draw that asked for it."""

    def random_raw(self, size):
        raise _Sampled(sys._getframe(1).f_locals["n"])


@pytest.mark.parametrize("args", [
    ("run", "--model", "qm-discrete", "--sigma-l", "0", "--sigma-r", "0.5"),
    ("run", "--model", "twobit", "--sigma-l", "0", "--sigma-r", "0.5", "--records", os.devnull,
     "--records-limit", "0"),
    ("audit", "twobit", "0", "0.5"),
])
def test_ensemble_beyond_physical_memory_is_sampled(args, monkeypatch):
    # no command holds a row's worth of memory, so none refuses an n for it:
    # 10^15 rows get as far as drawing their first block
    monkeypatch.setattr(RandomStream, "bits", lambda self, position=0: _FirstDraw())
    with pytest.raises(_Sampled, match=str(10**15)):
        cli.main([*args, "--n", str(10**15), "--out", os.devnull])


def test_in_process_main_leaves_the_environment_as_it_found_it(monkeypatch):
    # process-wide settings are the process entry's to make, not a library call's
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    rc, _, err = main_in_process(*SAMPLING_COMMANDS["run"], "--out", os.devnull)
    assert rc == 0, err
    assert dict(os.environ) == before


# runs retrolab.__main__.run on a small ``run``, with main wrapped to report,
# once the command is done, its own thread count and the OpenBLAS thread
# setting it ended with
_THREADS_AFTER_RUN = """
import os
from retrolab import __main__ as entry
main = entry.main
def reported():
    rc = main()
    status = open("/proc/self/status").read().splitlines()
    print(next(line.split()[1] for line in status if line.startswith("Threads:")),
          os.environ["OPENBLAS_NUM_THREADS"])
    return rc
entry.main = reported
entry.run()
"""


def threads_after_run(openblas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_RUN, *SAMPLING_COMMANDS["run"],
                           "--out", os.devnull], env=env, capture_output=True, text=True)
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


# a python -S child that starts each command given (argv lists split at
# "::") once a round, its stdout on os.devnull, and prints a line per command
# of its peaks in KiB; os.wait4's ru_maxrss is then the command's own peak,
# since a started child inherits its starter's high-water mark, and this
# starter's lies below every command's
_SPAWNER = """
import os, sys
rounds, commands = int(sys.argv[1]), [[]]
for arg in sys.argv[2:]:
    if arg == "::":
        commands.append([])
    else:
        commands[-1].append(arg)
null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
peaks = [[] for _ in commands]
for _ in range(rounds):
    for argv, kib in zip(commands, peaks):
        _, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=null), 0)
        kib.append(usage.ru_maxrss if os.waitstatus_to_exitcode(status) in (0, 1) else -1)
for kib in peaks:
    print(*kib)
"""

# the references: a bare interpreter for the numpy-free commands, and numpy
# loaded as the process entry loads it for the sampling ones
_RSS_REFERENCES = {
    "pass": ("-c", "pass"),
    "numpy": ("-c", "import os, sys; os.environ.setdefault('OPENBLAS_NUM_THREADS', '1'); "
                    "sys.modules['_hashlib'] = None; import numpy"),
}
# each command's peak RSS over its reference's, in MB: the median of 11 on
# CPython 3.11 and numpy 2.4, with retrolab compiled from source (a cached
# bytecode reads lower), and the reference it is measured against
PEAK_RSS_EXCESS_MB = {"version": (1.77, "pass"), "table": (1.91, "pass"), "game-left": (2.04, "pass"),
                      "run": (2.54, "numpy"), "audit": (2.81, "numpy"), "records": (2.96, "numpy")}
HEAP_LAYOUT_SPREAD_MB = 0.13  # how far one command's peak moves with heap layout alone


@functools.lru_cache(maxsize=None)
def peak_rss_mb() -> dict[str, float]:
    """The median over 3 rounds of each reference's and each command's peak
    RSS, in MB."""
    commands = {**_RSS_REFERENCES, **{name: ("-m", "retrolab", *(ANALYTIC_COMMANDS | SAMPLING_COMMANDS)[name])
                                      for name in PEAK_RSS_EXCESS_MB}}
    argv = [arg for command in commands.values() for arg in ("::", sys.executable, *command)][1:]
    proc = subprocess.run([sys.executable, "-S", "-c", _SPAWNER, "3", *argv],
                          capture_output=True, text=True, check=True)
    peaks = [list(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert all(kib > 0 for line in peaks for kib in line), peaks
    return {name: statistics.median(kib) / 1024 for name, kib in zip(commands, peaks)}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, posix_spawn")
@pytest.mark.parametrize("name", sorted(PEAK_RSS_EXCESS_MB))
def test_each_command_holds_its_measured_peak_rss(name):
    # the bench's 5% bound on peak RSS is about 1.5 MB; this one is a few
    # tenths, so an import or a buffer that creeps in shows here first
    excess, reference = PEAK_RSS_EXCESS_MB[name]
    peaks = peak_rss_mb()
    assert peaks[name] - peaks[reference] < excess + 3 * HEAP_LAYOUT_SPREAD_MB, peaks
