"""Command-line front end.

Subcommands: ``run`` (sample channel statistics against the analytic
reference), ``game`` (control reports for either end of the bench),
``audit`` (time-reversal audit), ``retro`` (settings-dependence probe) and
``table`` (analytic channel joint).  Every output embeds the fully resolved
configuration; timestamps live only under the ``meta`` key so that repeated
identical invocations produce byte-identical payloads elsewhere.

Exit codes: 0 clean / symmetric / settings-independent, 1 asymmetric or
settings-dependent, 2 unusable input (a ``core.UsageError``), 3 write
failure, 4 inconclusive audit; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

from . import __version__, hvmodels
from .core import UsageError
from .photon import OntologyMode
from .stats import RandomStream, tv_distance


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
    except (OSError, ValueError) as err:  # ValueError: no UTF-8 or no JSON
        raise UsageError(f"cannot read config file: {err}") from err
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise UsageError(f"unknown config keys: {unknown}")
    argv = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        on_off = actions[key].nargs == 0
        if on_off != isinstance(value, bool) or not isinstance(value, (bool, int, float, str)):
            wanted = "true or false" if on_off else "a string or a number"
            raise UsageError(f"config key {key!r} ({flag}) takes {wanted}, got {json.dumps(value)}")
        if "\0" in str(value):  # no command-line argument can hold one
            raise UsageError(f"config key {key!r} ({flag}) holds a NUL character")
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
            raise UsageError(f"missing required option: {key.replace('_', '-')}")


def _resolved(args, **fields) -> dict:
    """The resolved configuration a payload embeds."""
    return {"tool": "retrolab", "version": __version__, "command": args.cmd, **fields}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError("standard output is closed")
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


# ---------------------------------------------------------------- run


def _cmd_run(args) -> int:
    _require(args, "model", "sigma_l", "sigma_r")
    if args.records_limit < 0:
        raise UsageError(f"records-limit must be at least 0 (0 = all), got {args.records_limit}")
    stream = RandomStream(args.seed)  # checks the seed before numpy loads
    from . import audit, records  # loaded by the sampling commands alone; the draw loads numpy

    ensemble = audit.generate_ensemble(args.model, args.sigma_l, args.sigma_r, args.n, stream)
    if args.records is not None:
        # the writer counts every row it draws, so the tally below draws nothing
        limit = None if args.records_limit == 0 else args.records_limit
        records.write_records_jsonl(args.records, ensemble, limit)
    counts = ensemble.channel_counts()
    labels = ("00", "01", "10", "11")
    empirical = {k: counts[i] / ensemble.n for i, k in enumerate(labels)}
    analytic = hvmodels.channel_joint(args.model, args.sigma_l, args.sigma_r).as_dict()
    tv = tv_distance(empirical, analytic)

    cfg = _resolved(
        args,
        model=args.model,
        sigma_l=ensemble.sigma_l,
        sigma_r=ensemble.sigma_r,
        n=ensemble.n,
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

    chosen = [k for k in games.STRATEGY_KINDS if getattr(args, k)]
    if args.side == "left":
        for flag in ("mode", "rho"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies to the right side only")
        if len(chosen) != 1:
            raise UsageError(
                "left side needs exactly one of --discrete / --classical / --superposition"
            )
        report = games.verify_lena_control(args.setting, chosen[0])
        extra = {"strategy": chosen[0]}
    else:
        if chosen:
            raise UsageError(
                "strategy flags apply to the left side only; use --mode for the right side"
            )
        if args.mode is None:
            raise UsageError("right side needs --mode (discrete, collapse or nocollapse)")
        # no parser default: the left side must see --rho unset, and π/6 is in radians
        rho = math.pi / 6.0 if args.rho is None else args.rho
        report = games.verify_rena_control(args.setting, rho, OntologyMode(args.mode))
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
    stream = RandomStream(args.seed)  # checks the seed before numpy loads
    from . import audit

    report = audit.audit_symmetry(args.model, args.sigma_a, args.sigma_b, args.n, stream)
    result = report._asdict() | {"symmetric": report.symmetric}
    config = {key: result.pop(key) for key in ("model", "sigma_a", "sigma_b", "n")}
    cfg = _resolved(args, **config, seed=args.seed)
    _emit_json(args, cfg, result)
    return {"symmetric": 0, "asymmetric": 1}.get(report.verdict, 4)


# ---------------------------------------------------------------- retro


def _cmd_retro(args) -> int:
    report = hvmodels.settings_dependence(args.model, args.sigma_l, args.sigma_r, args.sigma_r_alt)
    result = report._asdict()
    config = {key: result.pop(key) for key in ("model", "sigma_l", "sigma_r", "sigma_r_alt")}
    cfg = _resolved(args, **config)
    _emit_json(args, cfg, result)
    return 1 if report.retro else 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    _require(args, "model", "sigma_l", "sigma_r")
    joint = hvmodels.channel_joint(args.model, args.sigma_l, args.sigma_r)
    cfg = _resolved(args, model=args.model, sigma_l=args.sigma_l, sigma_r=args.sigma_r)
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

    for p in (parser, *sub.choices.values()):  # argparse's own reads -1e-3 as a flag
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _parse(argv: list[str] | None) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """Parse ``argv``, and the parser of its command; a ``--config`` file's
    flags go in right after the command name, so the flags typed after them win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.cmd]
    if args.config is None:
        return args, command
    argv = list(sys.argv[1:] if argv is None else argv)
    at = argv.index(args.cmd) + 1
    argv[at:at] = _config_flags(args.config, command)
    return parser.parse_args(argv), command


def _one_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one file, unless neither is replaced."""
    from .records import resolve_target

    try:
        same = os.path.samefile(a, b)
    except OSError:  # one is yet to be made
        same = os.path.realpath(a) == os.path.realpath(b)
    return same and (resolve_target(a) is None or resolve_target(b) is None)


def _check_targets(args) -> None:
    """UsageError, before any command runs, for an ``--out`` or ``--records``
    path that no write could take, or that is the other's file or the
    ``--config`` file, unless neither is replaced (``/dev/stdout``)."""
    taken = {} if args.config is None else {"config": args.config}
    for flag in ("out", "records"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        problem = ("is no file path" if not path or "\0" in path  # os.stat raises ValueError on a NUL
                   else "is a directory" if os.path.isdir(path)
                   else "is in no directory" if not os.path.isdir(os.path.dirname(path) or os.curdir)
                   else None)
        if problem:
            raise UsageError(f"--{flag} {path!r} {problem}")
        for other, other_path in taken.items():
            if _one_file(path, other_path):
                raise UsageError(f"--{flag} {path!r} and --{other} {other_path!r} are one file")
        taken[flag] = path


def main(argv=None) -> int:
    try:
        args, command = _parse(argv)
        for action in command._actions:  # every float-typed option is an angle, with no float default
            value = getattr(args, action.dest, None)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{'/'.join(action.option_strings) or action.dest} must be finite, "
                                 f"got {value!r}")
            if isinstance(value, float) and args.degrees:
                setattr(args, action.dest, math.radians(value))
        _check_targets(args)
        return args.func(args)
    except UsageError as err:  # UnknownModelError included
        return _say(f"error: {err}", 2)
    except OSError as err:
        return _say(f"write failed: {err}", 3)


def _say(line: str, rc: int) -> int:
    """``rc``, once ``line`` is on stderr if stderr takes it: a message that
    cannot be printed leaves the exit code as it is."""
    try:
        if sys.stderr is not None:  # None when started with descriptor 2 closed
            sys.stderr.write(line + "\n")
    except OSError:  # descriptor 2 reused by a file not open for writing
        pass
    return rc
