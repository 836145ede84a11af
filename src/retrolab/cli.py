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
import time

from . import __version__, hvmodels
from .photon import OntologyMode
from .stats import RandomStream, tv_distance


class ConfigError(Exception):
    """Unusable combination of flags or config-file values."""


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The ``--config`` file's entries as ``--flag=value`` arguments of ``command``.

    A key is one of the command's ``--`` flags, minus ``--help`` and
    ``--config``, with ``_`` in place of ``-``.  An on/off flag takes a JSON
    bool; any other flag takes a string or a number, which the parser then
    reads as it reads a typed flag.
    """
    actions = {
        flag[2:].replace("-", "_"): action
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--config")
    }
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    argv = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        on_off = actions[key].nargs == 0
        if on_off != isinstance(value, bool) or not isinstance(value, (bool, int, float, str)):
            wanted = "true or false" if on_off else "a string or a number"
            raise ConfigError(f"config key {key!r} ({flag}) takes {wanted}, got {json.dumps(value)}")
        if not on_off:
            argv.append(f"{flag}={value}")
        elif value:
            argv.append(flag)
    return argv


def _require(args, *keys: str) -> None:
    """Options a command needs that the first parse cannot demand, since
    ``--config`` may supply them."""
    for key in keys:
        if getattr(args, key) is None:
            raise ConfigError(f"missing required option: {key.replace('_', '-')}")


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _resolved(args, **fields) -> dict:
    """The resolved configuration a payload embeds."""
    return {"tool": "retrolab", "version": __version__, "command": args.cmd, **fields}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        from .records import atomic_open

        with atomic_open(out) as fh:
            fh.write(text.encode())


def _emit_json(args, config: dict, result: dict) -> None:
    # time.gmtime() alone reads the coarse clock, up to a tick behind time.time()
    created_at = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time()))
    payload = {"config": config, "result": result, "meta": {"created_at": created_at}}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def _achievable_json(value):
    from . import games

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
    # records first: audit imports it after numpy, and compiling it there,
    # with no cached bytecode, raises run --records' peak RSS by about 0.2 MB
    from . import records  # noqa: F401
    from . import audit

    return audit


# ---------------------------------------------------------------- run


def _cmd_run(args) -> int:
    _require(args, "model", "sigma_l", "sigma_r")
    n = args.n
    if n < 1:
        raise ConfigError("n must be at least 1")
    if args.records_limit < 0:
        raise ConfigError(f"records-limit must be at least 0 (0 = all), got {args.records_limit}")
    sigma_l = _angle(args.sigma_l, args.degrees)
    sigma_r = _angle(args.sigma_r, args.degrees)
    stream = RandomStream(args.seed)  # checks the seed before numpy loads

    ensemble = _sampler().generate_ensemble(args.model, sigma_l, sigma_r, n, stream)
    counts = ensemble.channel_counts()
    labels = ("00", "01", "10", "11")
    empirical = {k: counts[i] / n for i, k in enumerate(labels)}
    analytic = hvmodels.channel_joint(args.model, sigma_l, sigma_r).as_dict()
    tv = tv_distance(empirical, analytic)

    cfg = _resolved(
        args,
        model=args.model,
        sigma_l=ensemble.sigma_l,
        sigma_r=ensemble.sigma_r,
        n=n,
        seed=args.seed,
        format=args.format,
    )
    result = {
        "counts": {k: counts[i] for i, k in enumerate(labels)},
        "weighted_counts": "weight_1" in ensemble.table,
        "empirical": empirical,
        "analytic": analytic,
        "tv_to_analytic": tv,
        "p_match_empirical": empirical["00"] + empirical["11"],
        "p_match_analytic": analytic["00"] + analytic["11"],
    }

    if args.records is not None:
        from . import records

        limit = None if args.records_limit == 0 else args.records_limit
        records.write_records_jsonl(args.records, ensemble, limit)

    if args.format == "csv":
        lines = ["# config: " + json.dumps(cfg, sort_keys=True)]
        lines.append("in_channel,out_channel,count,empirical,analytic")
        for i, k in enumerate(labels):
            lines.append(
                f"{k[0]},{k[1]},{counts[i]!r},{empirical[k]!r},{analytic[k]!r}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(args, cfg, result)
    return 0


# ---------------------------------------------------------------- game


def _cmd_game(args) -> int:
    from . import games  # loaded by this command alone

    setting = _angle(args.setting, args.degrees)
    chosen = [k for k in games.STRATEGY_KINDS if getattr(args, k)]
    if args.side == "left":
        for flag in ("mode", "rho"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies to the right side only")
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
        # the default is in radians whatever --degrees says; only a given
        # --rho is read as an angle, and the left side must see it unset
        rho = math.pi / 6.0 if args.rho is None else _angle(args.rho, args.degrees)
        report = games.verify_rena_control(setting, rho, OntologyMode(args.mode))
        extra = {"mode": args.mode}

    cfg = _resolved(args, side=args.side, setting=report.setting, **extra)
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
    _emit_json(args, cfg, result)
    return 0


# ---------------------------------------------------------------- audit


def _cmd_audit(args) -> int:
    sigma_a = _angle(args.sigma_a, args.degrees)
    sigma_b = _angle(args.sigma_b, args.degrees)
    stream = RandomStream(args.seed)  # checks the seed before numpy loads
    report = _sampler().audit_symmetry(args.model, sigma_a, sigma_b, args.n, stream)
    result = report._asdict() | {"symmetric": report.symmetric}
    config = {key: result.pop(key) for key in ("model", "sigma_a", "sigma_b", "n")}
    cfg = _resolved(args, **config, seed=args.seed)
    _emit_json(args, cfg, result)
    return {"symmetric": 0, "asymmetric": 1}.get(report.verdict, 4)


# ---------------------------------------------------------------- retro


def _cmd_retro(args) -> int:
    report = hvmodels.settings_dependence(
        args.model,
        _angle(args.sigma_l, args.degrees),
        _angle(args.sigma_r, args.degrees),
        _angle(args.sigma_r_alt, args.degrees),
    )
    result = report._asdict()
    config = {key: result.pop(key) for key in ("model", "sigma_l", "sigma_r", "sigma_r_alt")}
    cfg = _resolved(args, **config)
    _emit_json(args, cfg, result)
    return 1 if report.retro else 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    _require(args, "model", "sigma_l", "sigma_r")
    sigma_l = _angle(args.sigma_l, args.degrees)
    sigma_r = _angle(args.sigma_r, args.degrees)
    joint = hvmodels.channel_joint(args.model, sigma_l, sigma_r)
    cfg = _resolved(args, model=args.model, sigma_l=sigma_l, sigma_r=sigma_r)
    result = {"joint": joint.as_dict(), "p_match": joint.p_match}
    _emit_json(args, cfg, result)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option: its name, type, choices and default.

    ``--config`` files spell these same flags (see :func:`_config_flags`).
    """
    parser = argparse.ArgumentParser(
        prog="retrolab",
        description="Polarization lab bench: channel statistics, control games, "
        "settings-dependence probes and time-reversal audits.",
    )
    parser.add_argument("--version", action="version", version=f"retrolab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    models, stochastic = hvmodels.model_ids(), hvmodels.model_ids(stochastic=True)

    def settings(p):
        # not required=True here: the values may come from --config
        p.add_argument("--model", choices=stochastic)
        p.add_argument("--sigma-l", dest="sigma_l", type=float)
        p.add_argument("--sigma-r", dest="sigma_r", type=float)

    def sampling(p):
        p.add_argument("--n", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=0)

    def common(p):
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
        p.add_argument("--out", help="write the payload to this file instead of stdout")

    p_run = sub.add_parser("run", help="sample channel statistics against the analytic reference")
    settings(p_run)
    sampling(p_run)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--records", help="also write sampled records to this JSON-lines file")
    p_run.add_argument(
        "--records-limit",
        dest="records_limit",
        type=int,
        default=10_000,
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
    sampling(p_audit)
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
    settings(p_table)
    common(p_table)
    p_table.set_defaults(func=_cmd_table)

    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file's flags go in right after the
    command name, so the flags typed after them win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index(args.cmd) + 1
    argv[at:at] = _config_flags(args.config, commands.choices[args.cmd])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except (ConfigError, ValueError) as err:  # UnknownModelError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"write failed: {err}", file=sys.stderr)
        return 3
