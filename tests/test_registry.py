"""The model registry: one ModelSpec per model is all the rest of the package reads."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from retrolab import audit, cli, hvmodels
from retrolab.audit import generate_ensemble
from retrolab.hvmodels import model_ids
from retrolab.stats import RandomStream

COMMANDS = {
    "run": ("run", "--model", "{}", "--sigma-l", "0.3", "--sigma-r", "1.2", "--n", "2000",
            "--seed", "7"),
    "retro": ("retro", "{}", "0", "0.2", "0.9"),
    "audit": ("audit", "{}", "0", "0.5236", "--n", "10000", "--seed", "7"),
}


def run_main(argv, model):
    """Exit code and payload, ``meta`` removed, of ``cli.main`` on ``argv`` for ``model``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([arg.format(model) for arg in argv])
    payload = json.loads(stdout.getvalue())
    del payload["meta"]
    return rc, payload


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_registry_entry_adds_a_model(command, monkeypatch):
    copy = hvmodels.ModelSpec(**hvmodels.REGISTRY["twobit"]._asdict() | {"model": "twobit-copy"})
    monkeypatch.setitem(hvmodels.REGISTRY, "twobit-copy", copy)
    rc_copy, payload_copy = run_main(COMMANDS[command], "twobit-copy")
    rc, payload = run_main(COMMANDS[command], "twobit")
    assert rc_copy == rc
    assert payload_copy["config"].pop("model") == "twobit-copy"
    assert payload["config"].pop("model") == "twobit"
    assert payload_copy == payload


# which name on ``audit`` samples each model; the benchmark's tracer wraps
# these names, so generate_ensemble must call whatever they hold
SAMPLED_BY = {
    "simulate_ensemble": ("qm-discrete", "qm-collapse", "qm-nocollapse"),
    "simulate_twobit_ensemble": ("twobit",),
    "simulate_onebit_ensemble": ("onebit",),
}


def test_every_stochastic_model_has_a_sampler_name():
    assert sorted(m for models in SAMPLED_BY.values() for m in models) == sorted(model_ids(stochastic=True))


@pytest.mark.parametrize("name", sorted(SAMPLED_BY))
def test_patching_a_sampler_name_intercepts_generate_ensemble(name, monkeypatch):
    calls, sampled = [], []
    real = getattr(audit, name)
    assert real.__module__ == "retrolab.audit"

    def sampler(*args):
        calls.append(args)
        sampled.append(real(*args))
        return sampled[-1]

    monkeypatch.setattr(audit, name, sampler)
    stream = RandomStream(1)
    for model in model_ids(stochastic=True):
        generated = generate_ensemble(model, 0.3, 1.2, 10, stream)
        if model in SAMPLED_BY[name]:
            assert generated.codes is sampled[-1].codes  # relabelled, not copied
            assert calls[-1][-4:] == (0.3, 1.2, 10, stream)
        assert generated.model == model
    assert len(calls) == len(SAMPLED_BY[name])
    if name == "simulate_ensemble":
        assert [args[0].model_id for args in calls] == list(SAMPLED_BY[name])


def test_records_carry_the_registry_id(tmp_path, monkeypatch):
    # a model that reuses another's sampler still labels its records with its own id
    copy = hvmodels.ModelSpec(**hvmodels.REGISTRY["twobit"]._asdict() | {"model": "twobit-copy"})
    monkeypatch.setitem(hvmodels.REGISTRY, "twobit-copy", copy)
    path = tmp_path / "copy.jsonl"
    argv = [arg.format("twobit-copy") for arg in COMMANDS["run"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--records", str(path), "--records-limit", "0"]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 2000
    assert {json.loads(line)["model"] for line in lines} == {"twobit-copy"}


def _load_bench_module(name, monkeypatch):
    """A file of ``retrobench/``, loaded as it stands, under a private module name."""
    path = Path(__file__).resolve().parents[1] / "retrobench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"retrobench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_registry_matches_the_benchmark_models(monkeypatch):
    # the benchmark lists its models itself; it must keep covering every one
    bench = _load_bench_module("run", monkeypatch)
    assert bench.ALL_MODELS == model_ids()
    assert bench.AUDIT_MODELS == model_ids(stochastic=True)


def test_benchmark_tracer_wraps_live_names(tmp_path, monkeypatch):
    # the tracer wraps audit.simulate_*, Ensemble.records and more by name,
    # and reads the ensemble column attributes; all must still exist and count
    tracer = _load_bench_module("spans", monkeypatch).Tracer()
    sampler = audit.simulate_twobit_ensemble
    tracer.install()
    try:
        path = tmp_path / "runs.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["audit", "twobit", "0", "0.5", "--n", "10000"]) == 0
            tracer.end_op()
            assert cli.main(["run", "--model", "qm-nocollapse", "--sigma-l", "0.3",
                             "--sigma-r", "1.2", "--n", "300", "--records", str(path)]) == 0
            tracer.end_op()
    finally:
        tracer.restore()
    assert tracer.counts["audit.rows_scanned"] == 20000
    assert tracer.counts["hvmodels.rows"] == 20000 and tracer.counts["photon.rows"] == 300
    assert tracer.counts["records.rows_written"] == 300
    assert tracer.counts["ensemble.rows"] == 20300
    assert tracer.calls["audit.reverse"] >= 1 and tracer.calls["records.write"] == 1
    assert audit.simulate_twobit_ensemble is sampler  # restored
