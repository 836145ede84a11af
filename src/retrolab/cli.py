"""Command-line front end.

Subcommands: ``run`` (sample channel statistics against the analytic
reference), ``game`` (control reports for either end of the bench),
``audit`` (time-reversal audit), ``retro`` (settings-dependence probe) and
``table`` (analytic channel joint).  Every output embeds the fully resolved
configuration; timestamps live only under the ``meta`` key so that repeated
identical invocations produce byte-identical payloads elsewhere.

Exit codes: 0 clean / symmetric / settings-independent, 1 asymmetric or
settings-dependent, 2 unusable configuration, 3 write failure,
4 inconclusive audit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__, games, hvmodels, records
from .photon import OntologyMode
from .stats import RandomStream, tv_distance


class ConfigError(Exception):
    """Unusable combination of flags or config-file values."""


_CONFIG_KEYS = {
    "model",
    "sigma_l",
    "sigma_r",
    "sigma_r_alt",
    "sigma_a",
    "sigma_b",
    "n",
    "seed",
    "out",
    "format",
    "degrees",
    "rho",
    "records",
    "records_limit",
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args, config: dict, key: str, default=None, required: bool = False):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if value is None and required:
        raise ConfigError(f"missing required option: {key.replace('_', '-')}")
    return value


def _angle(value, degrees: bool) -> float:
    value = float(value)
    return math.radians(value) if degrees else value


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _payload(config: dict, result: dict) -> dict:
    return {"config": config, "result": result, "meta": {"created_at": _now()}}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with records.atomic_open(out) as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _achievable_json(value):
    if isinstance(value, games.DiscretePair):
        return [value.first, value.second]
    return "all"


def _control_mod_json(value):
    return "pi/2" if value is not None else "none"


def _sampler():
    """The ``audit`` module, loading numpy with one OpenBLAS thread.

    Only the commands that sample rows need numpy, and no retrolab path
    calls BLAS, so its thread pool would only add start-up time; a thread
    count the user has set is kept.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import audit

    return audit


# ---------------------------------------------------------------- run


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    degrees = bool(args.degrees or config.get("degrees", False))
    model = _resolve(args, config, "model", required=True)
    sigma_l = _angle(_resolve(args, config, "sigma_l", required=True), degrees)
    sigma_r = _angle(_resolve(args, config, "sigma_r", required=True), degrees)
    n = int(_resolve(args, config, "n", default=1_000_000))
    seed = int(_resolve(args, config, "seed", default=0))
    out = _resolve(args, config, "out")
    fmt = _resolve(args, config, "format", default="json")
    records_path = _resolve(args, config, "records")
    records_limit = int(_resolve(args, config, "records_limit", default=10_000))
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if records_limit < 0:
        raise ConfigError(f"records-limit must be at least 0 (0 = all), got {records_limit}")
    stochastic = hvmodels.model_ids(stochastic=True)
    if model not in stochastic:
        raise ConfigError(
            f"model {model!r} has no channel statistics to sample; "
            f"choose one of {list(stochastic)}"
        )

    ensemble = _sampler().generate_ensemble(model, sigma_l, sigma_r, n, RandomStream(seed))
    import numpy as np  # loaded by the sampler

    table = {field: values.tolist() for field, values in ensemble.table.items()}
    weighted = "weight_1" in table
    counts = [0.0, 0.0, 0.0, 0.0]
    for row, k in enumerate(ensemble.row_counts().tolist()):
        c = table["in_channel"][row]
        if weighted:
            # no outcome is ever selected; tally the branch weights instead,
            # summed as numpy sums the row's k equal weights
            w1 = float(np.full(k, table["weight_1"][row]).sum())
            counts[2 * c + 1] += w1
            counts[2 * c + 0] += k - w1
        else:
            counts[2 * c + table["out_channel"][row]] += k

    labels = ("00", "01", "10", "11")
    empirical = {k: counts[i] / n for i, k in enumerate(labels)}
    analytic = hvmodels.channel_joint(model, sigma_l, sigma_r).as_dict()
    tv = tv_distance(empirical, analytic)

    cfg = {
        "tool": "retrolab",
        "version": __version__,
        "command": "run",
        "model": model,
        "sigma_l": ensemble.sigma_l,
        "sigma_r": ensemble.sigma_r,
        "n": n,
        "seed": seed,
        "format": fmt,
    }
    result = {
        "counts": {k: counts[i] for i, k in enumerate(labels)},
        "weighted_counts": weighted,
        "empirical": empirical,
        "analytic": analytic,
        "tv_to_analytic": tv,
        "p_match_empirical": empirical["00"] + empirical["11"],
        "p_match_analytic": analytic["00"] + analytic["11"],
    }

    if records_path is not None:
        limit = None if records_limit == 0 else records_limit
        records.write_records_jsonl(records_path, ensemble, limit)

    if fmt == "csv":
        lines = ["# config: " + json.dumps(cfg, sort_keys=True)]
        lines.append("in_channel,out_channel,count,empirical,analytic")
        for i, k in enumerate(labels):
            lines.append(
                f"{k[0]},{k[1]},{counts[i]!r},{empirical[k]!r},{analytic[k]!r}"
            )
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(_json_text(_payload(cfg, result)), out)
    return 0


# ---------------------------------------------------------------- game


def _cmd_game(args) -> int:
    config = _load_config(args.config)
    degrees = bool(args.degrees or config.get("degrees", False))
    setting = _angle(args.setting, degrees)
    chosen = [k for k in ("discrete", "classical", "superposition") if getattr(args, k)]
    if args.side == "left":
        if args.mode is not None:
            raise ConfigError("--mode applies to the right side only")
        if len(chosen) != 1:
            raise ConfigError(
                "left side needs exactly one of --discrete / --classical / --superposition"
            )
        report = games.verify_lena_control(setting, chosen[0])
        extra = {"strategy": chosen[0]}
    else:
        if chosen:
            raise ConfigError(
                "strategy flags apply to the left side only; use --mode for the right side"
            )
        if args.mode is None:
            raise ConfigError("right side needs --mode (discrete, collapse or nocollapse)")
        rho = _angle(_resolve(args, config, "rho", default=math.pi / 6.0), degrees)
        mode = OntologyMode(args.mode)
        report = games.verify_rena_control(setting, rho, mode)
        extra = {"mode": args.mode}

    cfg = {
        "tool": "retrolab",
        "version": __version__,
        "command": "game",
        "side": args.side,
        "setting": report.setting,
        **extra,
    }
    result = {
        "side": report.side,
        "setting": report.setting,
        "achievable": _achievable_json(report.achievable),
        "control_mod": _control_mod_json(report.control_mod),
    }
    if report.rho is not None:
        cfg["rho"] = report.rho
        result["rho"] = report.rho
        result["shifted_achievable"] = _achievable_json(report.shifted_achievable)
        result["shift_detectable"] = report.shift_detectable
    _emit(_json_text(_payload(cfg, result)), args.out)
    return 0


# ---------------------------------------------------------------- audit


def _cmd_audit(args) -> int:
    config = _load_config(args.config)
    degrees = bool(args.degrees or config.get("degrees", False))
    sigma_a = _angle(args.sigma_a, degrees)
    sigma_b = _angle(args.sigma_b, degrees)
    n = int(_resolve(args, config, "n", default=1_000_000))
    seed = int(_resolve(args, config, "seed", default=0))
    report = _sampler().audit_symmetry(args.model, sigma_a, sigma_b, n, RandomStream(seed))
    cfg = {
        "tool": "retrolab",
        "version": __version__,
        "command": "audit",
        "model": args.model,
        "sigma_a": report.sigma_a,
        "sigma_b": report.sigma_b,
        "n": n,
        "seed": seed,
    }
    result = {
        "tv_distance": report.tv_distance,
        "tv_alignment": report.tv_alignment,
        "threshold": report.threshold,
        "verdict": report.verdict,
        "symmetric": report.symmetric,
        "distinguisher_score": report.distinguisher_score,
        "score_band": report.score_band,
        "alignment_separation": report.alignment_separation,
        "forward_alignment": report.forward_alignment,
        "reversed_alignment": report.reversed_alignment,
        "degenerate_settings": report.degenerate_settings,
        "convention_dependent": report.convention_dependent,
    }
    _emit(_json_text(_payload(cfg, result)), args.out)
    if report.verdict == "symmetric":
        return 0
    if report.verdict == "asymmetric":
        return 1
    return 4


# ---------------------------------------------------------------- retro


def _cmd_retro(args) -> int:
    config = _load_config(args.config)
    degrees = bool(args.degrees or config.get("degrees", False))
    report = hvmodels.settings_dependence(
        args.model,
        _angle(args.sigma_l, degrees),
        _angle(args.sigma_r, degrees),
        _angle(args.sigma_r_alt, degrees),
    )
    cfg = {
        "tool": "retrolab",
        "version": __version__,
        "command": "retro",
        "model": report.model,
        "sigma_l": report.sigma_l,
        "sigma_r": report.sigma_r,
        "sigma_r_alt": report.sigma_r_alt,
    }
    result = {
        "tv_distance": report.tv_distance,
        "threshold": report.threshold,
        "retro": report.retro,
        "beable": report.beable,
    }
    _emit(_json_text(_payload(cfg, result)), args.out)
    return 1 if report.retro else 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    config = _load_config(args.config)
    degrees = bool(args.degrees or config.get("degrees", False))
    model = _resolve(args, config, "model", required=True)
    sigma_l = _angle(_resolve(args, config, "sigma_l", required=True), degrees)
    sigma_r = _angle(_resolve(args, config, "sigma_r", required=True), degrees)
    joint = hvmodels.channel_joint(model, sigma_l, sigma_r)
    cfg = {
        "tool": "retrolab",
        "version": __version__,
        "command": "table",
        "model": model,
        "sigma_l": sigma_l,
        "sigma_r": sigma_r,
    }
    result = {"joint": joint.as_dict(), "p_match": joint.p_match}
    _emit(_json_text(_payload(cfg, result)), args.out)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrolab",
        description="Polarization lab bench: channel statistics, control games, "
        "settings-dependence probes and time-reversal audits.",
    )
    parser.add_argument("--version", action="version", version=f"retrolab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    models, stochastic = hvmodels.model_ids(), hvmodels.model_ids(stochastic=True)

    def common(p):
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
        p.add_argument("--out", help="write the payload to this file instead of stdout")

    p_run = sub.add_parser("run", help="sample channel statistics against the analytic reference")
    p_run.add_argument("--model", choices=stochastic)
    p_run.add_argument("--sigma-l", dest="sigma_l", type=float)
    p_run.add_argument("--sigma-r", dest="sigma_r", type=float)
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--format", choices=("json", "csv"))
    p_run.add_argument("--records", help="also write sampled records to this JSON-lines file")
    p_run.add_argument(
        "--records-limit",
        dest="records_limit",
        type=int,
        help="cap on records written (0 = all; default 10000)",
    )
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_game = sub.add_parser("game", help="control report for one end of the bench")
    p_game.add_argument("side", choices=("left", "right"))
    p_game.add_argument("setting", type=float)
    p_game.add_argument("--discrete", action="store_true", help="left: single-channel demon")
    p_game.add_argument("--classical", action="store_true", help="left: classical-field demon")
    p_game.add_argument("--superposition", action="store_true", help="left: superposed-amplitude demon")
    p_game.add_argument("--mode", choices=tuple(m.value for m in OntologyMode), help="right: ontology")
    p_game.add_argument("--rho", type=float, help="right: counterfactual setting shift (default pi/6)")
    common(p_game)
    p_game.set_defaults(func=_cmd_game)

    p_audit = sub.add_parser("audit", help="time-reversal audit of record ensembles")
    p_audit.add_argument("model", choices=stochastic)
    p_audit.add_argument("sigma_a", type=float)
    p_audit.add_argument("sigma_b", type=float)
    p_audit.add_argument("--n", type=int)
    p_audit.add_argument("--seed", type=int)
    common(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_retro = sub.add_parser("retro", help="settings-dependence of pre-measurement beables")
    p_retro.add_argument("model", choices=models)
    p_retro.add_argument("sigma_l", type=float)
    p_retro.add_argument("sigma_r", type=float)
    p_retro.add_argument("sigma_r_alt", type=float)
    common(p_retro)
    p_retro.set_defaults(func=_cmd_retro)

    p_table = sub.add_parser("table", help="analytic channel joint for a model")
    p_table.add_argument("--model", choices=stochastic)
    p_table.add_argument("--sigma-l", dest="sigma_l", type=float)
    p_table.add_argument("--sigma-r", dest="sigma_r", type=float)
    common(p_table)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # UnknownModelError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"write failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
