"""Command-line front end.

Subcommands wrap the library modules with deterministic seeding and
machine-readable output (JSON or CSV, floats at 12 significant digits;
JSON writes a NaN or infinite float as null, CSV as nan or inf).
Exit codes: 0 success, 1 a verification check failed, 2 configuration
or usage error, 3 internal error (any other exception); ``main`` returns
the code rather than exiting.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import traceback

import numpy as np

from . import assouad as assouad_mod
from . import bounds as bounds_mod
from . import cover as cover_mod
from . import game as game_mod
from . import verify as verify_mod
from .core import (BinaryTree, ExpertClass, _check_distinct_horizons,
                   _check_paths, _loglog_slope)

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    return obj


def _json(obj) -> str:
    """`obj` as JSON text.  A float that _round_floats let through as NaN
    or infinite is a defect, not bad input, so it raises RuntimeError."""
    try:
        return json.dumps(_round_floats(obj), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"report is not valid JSON: {exc}") from exc


def _write_output(text: str, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


def _emit(report: dict, rows, header, args):
    """Write either the JSON report or the CSV rows, per --format."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                                  for c in row))
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(_json(report), args.out)


def load_expert_class(path) -> ExpertClass:
    """The class of a JSON object with the keys "contexts" and "experts" and
    no other; ValueError for any other file content."""
    with open(path) as f:
        spec = json.load(f)
    if not isinstance(spec, dict):
        raise ValueError(f"class file must hold a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - {"contexts", "experts"}
    if unknown:
        raise ValueError(f"unknown keys in class file: {sorted(unknown)}")
    missing = {"contexts", "experts"} - set(spec)
    if missing:
        raise ValueError(f"class file lacks the keys {sorted(missing)}")
    return ExpertClass(contexts=spec["contexts"], experts=spec["experts"])


def _parse_n_grid(text: str):
    m = re.fullmatch(r"2\^(\d+)\.\.2\^(\d+)", text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a > b:
            raise ValueError(f"n grid {text!r} is empty")
        top = bounds_mod._MAX_HORIZON.bit_length() - 1  # largest power of two admitted
        if b > top:  # refused before any horizon is built
            first = max(a, top + 1)
            shown = 2**first if first == top + 1 else f"2^{first}"
            raise ValueError(f"horizons must be >= 1 with n^2 a double, got n = {shown}")
        return [2**k for k in range(a, b + 1)]
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse n grid: {text!r}") from None


def _parse_entropy(text: str) -> cover_mod.EntropyCurve:
    kind, _, rest = text.partition(":")
    keys = {"pow": ("C", "p"), "log": ("d",)}.get(kind)
    if keys is None:
        raise ValueError(f"unknown entropy spec: {text!r}")
    params = {}
    if rest:
        for tok in rest.split(","):
            k, _, v = tok.partition("=")
            if k not in keys:
                raise ValueError(
                    f"entropy spec {text!r}: {kind} takes only {', '.join(keys)}"
                )
            if k in params:
                raise ValueError(f"entropy spec {text!r}: {k} given twice")
            params[k] = float(v)
    if kind == "pow":
        return cover_mod.EntropyCurve.power(
            params.get("C", 1.0), params.get("p", 1.0)
        )
    return cover_mod.EntropyCurve.log_form(params.get("d", 1.0))


def _effective_config(args) -> dict:
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "config", "emit_config") and v is not None
    }
    return cfg


def _apply_config_file(parser, argv):
    """Pull defaults from --config JSON before the real parse; return the
    argv to parse and the command line's own tokens after the subcommand.

    The file's flags go right after the subcommand, so a flag also given on
    the command line comes later and wins, by argparse's own rule."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config:
        with open(known.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        sub = loaded.pop("subcommand", None)
        argv = list(rest)
        if sub and (not argv or argv[0].startswith("-")):
            argv.insert(0, sub)
        if not argv or argv[0].startswith("-"):
            raise ValueError("config file gives no subcommand")
        choices = parser._subparsers._group_actions[0].choices
        if argv[0] not in choices:
            raise ValueError(f"unknown subcommand: {argv[0]!r}")
        actions = {a.dest: a for a in choices[argv[0]]._actions
                   if a.option_strings and a.dest != "help"}
        unknown = set(loaded) - set(actions)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        flags = []
        for k, v in loaded.items():
            flag = actions[k].option_strings[-1]
            if actions[k].nargs != 0:
                flags += [flag, str(v)]
            elif v:  # a switch takes no value; a true one turns it on
                flags.append(flag)
        argv[1:1] = flags
        return argv, argv[1 + len(flags):]
    return argv, argv[1:]


# The flags that a subcommand's mode does not read: parsed args -> (the
# mode, the dests of the flags it leaves unread)
_UNREAD = {
    "cover": lambda a: ("without --class", ("n",) if a.class_file is None else ()),
    "assouad": lambda a: (
        ("with --scaling", ("n",)) if a.scaling
        else ("without --scaling", ("n_grid", "n_seeds", "strategy", "seed"))
    ),
}


def _check_flags_read(args, command_line):
    """Raise ValueError naming a flag that `command_line` (the tokens after
    the subcommand) gives and args' mode does not read.  A config file
    holds defaults, and an emitted config lists every flag, so the flags it
    sets are not checked."""
    if args.subcommand not in _UNREAD:
        return
    mode, unread = _UNREAD[args.subcommand](args)
    # a fresh parser with no defaults keeps only the flags the tokens give
    sp = build_parser()._subparsers._group_actions[0].choices[args.subcommand]
    for action in sp._actions:
        action.default, action.required = argparse.SUPPRESS, False
    given = vars(sp.parse_args(command_line))
    for dest in unread:
        if dest in given:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{args.subcommand} {flag} is not read {mode}")


def _add_common(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--config", default=None, help="JSON file of defaults")
    sp.add_argument(
        "--emit-config", default=None, help="write the effective config here"
    )


def _cmd_minimax(args):
    ec = load_expert_class(args.class_file)
    g = game_mod.GameInstance(horizon=args.n, expert_class=ec)
    player = game_mod.MinimaxOptimal(g)  # one solve serves every number
    value = player.value
    root = {str(x): player.predict((), x) for x in ec.contexts}
    report = {
        "subcommand": "minimax",
        "n": args.n,
        "value": value,
        "root_predictions": root,
        "solver": player.solver,
        "states": player.states,
    }
    rows = [("value", float(value))] + [
        (f"p_hat[{x}]", p) for x, p in root.items()
    ]
    _emit(report, rows, ("quantity", "value"), args)
    return 0


def _cmd_dual(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    ec = load_expert_class(args.class_file)
    g = game_mod.GameInstance(horizon=args.n, expert_class=ec)
    primal = game_mod.exact_minimax(g)
    rng = np.random.default_rng(args.seed)
    duals = [
        game_mod.dual_value(g, game_mod.random_dual_strategy(g, rng))
        for _ in range(args.samples)
    ]
    best = max(duals)
    report = {
        "subcommand": "dual",
        "n": args.n,
        "primal": primal,
        "best_dual": best,
        "gap": primal - best,
        "samples": args.samples,
    }
    rows = [(i, d) for i, d in enumerate(duals)]
    _emit(report, rows, ("sample", "dual_value"), args)
    return 0


def _cmd_cover(args):
    gammas = [float(g) for g in args.gammas.split(",")]
    if args.class_file is not None:
        ec = load_expert_class(args.class_file)
        if len(ec.contexts) != 1:
            # the covered tree shows one context at every node
            raise ValueError("cover --class needs a class with one context, "
                             f"got {len(ec.contexts)}")
        _check_paths(args.n)
        ctx = ec.contexts[0]
        x = BinaryTree(args.n, values=np.array([ctx] * ((1 << args.n) - 1),
                                               dtype=object))
        rc = cover_mod.restrict(ec, x)
        rows = []
        for gamma in gammas:
            try:
                size, _ = cover_mod.sequential_cover_exact(rc, gamma)
                exact = True
            except ValueError:
                size = len(cover_mod.sequential_cover_greedy(rc, gamma).elements)
                exact = False
            rows.append((gamma, size, exact))
        report = {
            "subcommand": "cover",
            "n": args.n,
            "demands": rc.n_demands,
            "results": [
                {"gamma": g, "size": s, "exact": e} for g, s, e in rows
            ],
        }
        _emit(report, rows, ("gamma", "size", "exact"), args)
        return 0
    fam = cover_mod.LipschitzGridFamily()
    curve = cover_mod.entropy_curve_estimate(fam, gammas, n=0)
    rows = list(zip(curve.gammas.tolist(), curve.lowers.tolist(),
                    curve.uppers.tolist()))
    report = {
        "subcommand": "cover",
        "family": "lipschitz-grid",
        "slope": curve.slope,
        "curve": [
            {"gamma": g, "lower": lo, "upper": up} for g, lo, up in rows
        ],
        "counts": curve.counts,
    }
    _emit(report, rows, ("gamma", "lower", "upper"), args)
    return 0


def _cmd_bounds(args):
    H = _parse_entropy(args.entropy)
    ns = _parse_n_grid(args.n_grid)
    bounds_mod._check_horizons(ns)  # every horizon before any bound runs
    if args.fit:
        _check_distinct_horizons(ns)
        bounds_mod._check_has_rate(H)
    rows = []
    for n in ns:
        sc, _ = bounds_mod.self_concordance_bound(H, n)
        tr, _ = bounds_mod.truncation_bound(H, n, seed=args.seed)
        rows.append((n, float(sc), float(tr)))
    report = {
        "subcommand": "bounds",
        "entropy": args.entropy,
        "sweep": [
            {"n": n, "self_concordance": sc, "truncation": tr}
            for n, sc, tr in rows
        ],
    }
    if args.fit:
        _, sc, tr = zip(*rows)
        report["fit"] = {
            "self_concordance_slope": _loglog_slope(ns, sc),
            "truncation_slope": _loglog_slope(ns, tr),
        }
    _emit(report, rows, ("n", "self_concordance", "truncation"), args)
    return 0


def _cmd_verify(args):
    if args.all or args.checks is None:
        check_ids = list(verify_mod.CHECK_IDS)
    else:
        check_ids = args.checks.split(",")
    reports = [
        verify_mod.run_check(cid, resolution=args.resolution, seed=args.seed)
        for cid in check_ids
    ]
    for r in reports:
        point = "(" + ", ".join(_fmt(c) for c in r.worst_point) + ")"
        print(
            f"{r.check_id} worst_slack={_fmt(r.worst_slack)} "
            f"worst_point={point} pass={r.passed}"
        )
    report = {
        "subcommand": "verify",
        "checks": [
            {
                "check_id": r.check_id,
                "grid_spec": r.grid_spec,
                "worst_slack": r.worst_slack,
                "worst_point": list(r.worst_point),
                "tolerance": r.tolerance,
                "pass": r.passed,
                "points": r.points,
            }
            for r in reports
        ],
    }
    rows = [
        (r.check_id, float(r.worst_slack), r.passed) for r in reports
    ]
    if args.out is not None or args.format == "csv":
        _emit(report, rows, ("check_id", "worst_slack", "pass"), args)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_assouad(args):
    if args.scaling:
        ns = _parse_n_grid(args.n_grid)
        seeds = list(range(args.n_seeds))
        factory = {"bayes": assouad_mod.SignClassBayes,
                   "empirical": assouad_mod.EmpiricalMeanStrategy}[args.strategy]
        res = assouad_mod.scaling_experiment(
            args.p, ns, factory, seeds, master_seed=args.seed
        )
        rows = []
        for i, n in enumerate(res.ns):
            for j, seed in enumerate(seeds):
                rows.append(
                    (args.p, n, float(res.epsilons[i]), seed,
                     float(res.regrets[i, j]))
                )
        report = {
            "subcommand": "assouad",
            "p": args.p,
            "strategy": args.strategy,
            "slope": res.slope,
            "medians": res.medians.tolist(),
            "ns": res.ns,
            "epsilons": list(res.epsilons),
        }
        _emit(report, rows, ("p", "n", "epsilon", "seed", "regret"), args)
        return 0
    dim = assouad_mod.integer_dimension(args.p)
    lb, eps = assouad_mod.lower_bound_value(args.p, args.n)
    assouad_mod.check_class_horizon(args.n)
    ac = assouad_mod.build_assouad_class(dim, eps)
    report = {
        "subcommand": "assouad",
        "p": args.p,
        "n": args.n,
        "epsilon": eps,
        "n_centers": ac.n_centers,
        "lower_bound": lb,
    }
    rows = [(args.p, args.n, eps, ac.n_centers, lb)]
    _emit(report, rows, ("p", "n", "epsilon", "n_centers", "lower_bound"),
          args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logloss-lab",
        description="numerical laboratory for minimax regret under log loss",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("minimax", help="exact game value for a finite class")
    sp.add_argument("--class", dest="class_file", required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_minimax)

    sp = sub.add_parser("dual", help="random dual strategies vs the primal")
    sp.add_argument("--class", dest="class_file", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("cover", help="covering numbers and entropy curves")
    sp.add_argument("--class", dest="class_file", default=None)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--gammas", default="0.25,0.125,0.0625")
    _add_common(sp)
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("bounds", help="regret bound sweeps and rate fits")
    sp.add_argument("--entropy", required=True, help='e.g. "pow:p=2,C=1"')
    sp.add_argument("--n-grid", required=True, help='e.g. "2^10..2^20"')
    sp.add_argument("--fit", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("verify", help="inequality certification checks")
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    which.add_argument("--checks", default=None, help="comma-separated ids")
    sp.add_argument("--resolution", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("assouad", help="lower-bound construction tools")
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--scaling", action="store_true")
    sp.add_argument("--n-grid", default="2^8..2^14")
    sp.add_argument("--n-seeds", type=int, default=11)
    sp.add_argument("--strategy", choices=("bayes", "empirical"), default="bayes")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_assouad)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        argv, command_line = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        _check_flags_read(args, command_line)
        if args.emit_config is not None:
            with open(args.emit_config, "w") as f:
                f.write(_json(_effective_config(args)))
        return args.func(args)
    except SystemExit as exc:  # from argparse: 2 usage error, 0 --help
        return exc.code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input: keep its traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
