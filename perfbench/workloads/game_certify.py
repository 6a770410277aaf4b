"""game-certify: exact values certified by random dual strategies.

Each task solves a StaticContexts game (k=1 with n 5-9, or k=2 with n 5-6)
and evaluates 4 random dual strategies.  The per-path loop of dual_value
(2^n paths x n rounds) does most of the work and the DP is small, so a DP
change should not move these tasks while a faster dual_value should.

Random duals are nearly always negative (the adversary's outcome
distributions need not favour any expert), so a dual value is checked to be
finite and at most V, not to be nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import Stratum, check
from logloss_lab.core import ExpertClass
from logloss_lab.game import (
    GameInstance,
    StaticContexts,
    dual_value,
    exact_minimax,
    random_dual_strategy,
)

from .common import expert_table, instance_rng, run_cli, write_class_files

VARIANTS = 8
DUALS = 4
CLI_N = 8
CLI_SAMPLES = 20

# stratum name -> (contexts k, horizon n)
STRATA = {
    "k1.n5": (1, 5),
    "k1.n6": (1, 6),
    "k1.n7": (1, 7),
    "k1.n8": (1, 8),
    "k1.n9": (1, 9),
    "k2.n5": (2, 5),
    "k2.n6": (2, 6),
}


@dataclass
class Instance:
    n: int
    k: int
    experts: np.ndarray
    dual_seed: int


def _instance(name, variant):
    k, n = STRATA[name]
    rng = instance_rng(name, variant)
    return Instance(n=n, k=k, experts=expert_table(rng, k), dual_seed=int(rng.integers(2**31)))


def setup(workdir):
    strata = {}
    for name in STRATA:
        instances = [_instance(name, v) for v in range(VARIANTS)]
        strata[name] = Stratum(VARIANTS, lambda tr, v, inst=instances: certify(tr, inst[v]))
    files, sizes = write_class_files(workdir, "cli.dual", VARIANTS)
    strata["cli.dual"] = Stratum(
        VARIANTS, lambda tr, v: _cli(tr, workdir, files[v], sizes[v], seed=v)
    )
    return strata


def certify(tr, inst):
    ec = ExpertClass(contexts=list(range(inst.k)), experts=inst.experts.copy())
    g = GameInstance(horizon=inst.n, expert_class=ec, availability=StaticContexts(ec.contexts))
    with tr.span("game.exact_minimax.static") as sp:
        value = exact_minimax(g)
        sp.count("histories", g.estimated_nodes())
    check(0.0 <= value <= math.log(ec.n_experts) + 1e-9, f"V = {value} outside [0, log|F|]")
    rng = np.random.default_rng(inst.dual_seed)
    duals = []
    for _ in range(DUALS):
        with tr.span("game.random_dual_strategy"):
            strategy = random_dual_strategy(g, rng)
        with tr.span("game.dual_value") as sp:
            d = dual_value(g, strategy)
            sp.count("paths", 1 << inst.n)
        check(math.isfinite(d) and d <= value + 1e-9, f"dual value {d} vs V = {value}")
        duals.append(d)
    return {"value": value, "duals": duals}


def _cli(tr, workdir, class_file, n_experts, seed):
    argv = [
        "dual",
        "--class", class_file,
        "--n", str(CLI_N),
        "--samples", str(CLI_SAMPLES),
        "--seed", str(seed),
    ]
    report = run_cli(tr, workdir, argv)
    primal, best = report["primal"], report["best_dual"]
    check(0.0 <= primal <= math.log(n_experts) + 1e-9, f"CLI primal {primal}")
    check(math.isfinite(best) and best <= primal + 1e-9, f"CLI best dual {best} > {primal}")
    return {"primal": primal, "best_dual": best}
