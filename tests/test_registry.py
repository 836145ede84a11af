"""The model registry: one ModelSpec per model is all the rest of the package reads."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from retrolab import audit, cli, hvmodels
from retrolab.audit import generate_ensemble
from retrolab.hvmodels import MODELS, STOCHASTIC_MODELS
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
    copy = dataclasses.replace(hvmodels.REGISTRY["twobit"], model="twobit-copy")
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
    assert sorted(m for models in SAMPLED_BY.values() for m in models) == sorted(STOCHASTIC_MODELS)


@pytest.mark.parametrize("name", sorted(SAMPLED_BY))
def test_patching_a_sampler_name_intercepts_generate_ensemble(name, monkeypatch):
    calls = []

    def sampler(*args):
        calls.append(args)
        return args

    monkeypatch.setattr(audit, name, sampler)
    stream = RandomStream(1)
    for model in STOCHASTIC_MODELS:
        generated = generate_ensemble(model, 0.3, 1.2, 10, stream)
        if model in SAMPLED_BY[name]:
            assert generated is calls[-1]
            assert generated[-4:] == (0.3, 1.2, 10, stream)
        else:
            assert generated.model == model
    assert len(calls) == len(SAMPLED_BY[name])
    if name == "simulate_ensemble":
        assert [args[0].model_id for args in calls] == list(SAMPLED_BY[name])


def test_registry_matches_the_benchmark_models(monkeypatch):
    # the benchmark lists its models itself; it must keep covering every one
    path = Path(__file__).resolve().parents[1] / "retrobench" / "run.py"
    spec = importlib.util.spec_from_file_location("retrobench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    assert bench.ALL_MODELS == MODELS
    assert bench.AUDIT_MODELS == STOCHASTIC_MODELS
