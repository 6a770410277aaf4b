"""game-solve: exact minimax values and the strategies built on them.

Each task builds a GameInstance and runs exact_minimax, the optimal
prediction at every root context, one MinimaxOptimal protocol run against a
StochasticAdversary and, where (2k)^n <= 4096, the exhaustive worst case of
the Bayes mixture (which takes about three quarters of these tasks' time;
the DP and its re-solves take most of the rest).  A third of the strata are
StaticContexts with k=1, a third k=2, a third PreviousOutcomes (no count
states exist there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import Stratum, check
from logloss_lab.core import BinaryTree, ExpertClass
from logloss_lab.game import (
    BayesMixture,
    GameInstance,
    MaximinSearch,
    MinimaxOptimal,
    PreviousOutcomes,
    StaticContexts,
    StochasticAdversary,
    exact_minimax,
    optimal_prediction,
    run_strategy,
)

from .common import expert_table, instance_rng, run_cli, write_class_files

VARIANTS = 8
CLI_N = 10
MAXIMIN_LEAVES = 4096

# stratum name -> (availability kind, contexts k, horizon n)
STRATA = {
    "static.k1.n9": ("static", 1, 9),
    "static.k1.n10": ("static", 1, 10),
    "static.k1.n11": ("static", 1, 11),
    "static.k1.n12": ("static", 1, 12),
    "static.k2.n5": ("static", 2, 5),
    "static.k2.n6": ("static", 2, 6),
    "static.k2.n7": ("static", 2, 7),
    "prev.n7": ("prev_outcomes", 1, 7),
    "prev.n8": ("prev_outcomes", 1, 8),
    "prev.n9": ("prev_outcomes", 1, 9),
    "prev.n10": ("prev_outcomes", 1, 10),
}


@dataclass
class Instance:
    kind: str
    n: int
    contexts: list
    experts: np.ndarray
    context_tree: np.ndarray  # adversary's context per node
    prob_tree: np.ndarray  # adversary's outcome probability per node
    adversary_seed: int


def _history_contexts(n):
    """PreviousOutcomes context ids: every outcome tuple shorter than n, and
    the tree holding at each node the tuple of outcomes leading to it."""
    contexts = []
    for t in range(1, n + 1):
        contexts += [tuple((q >> i) & 1 for i in range(t - 1)) for q in range(1 << (t - 1))]
    tree = np.empty(len(contexts), dtype=object)
    tree[:] = contexts
    return contexts, tree


def _instance(name, variant, history_contexts):
    kind, k, n = STRATA[name]
    rng = instance_rng(name, variant)
    n_nodes = (1 << n) - 1
    if kind == "static":
        contexts = list(range(k))
        tree = rng.integers(0, k, size=n_nodes).astype(object)
    else:
        contexts, tree = history_contexts[n]
    return Instance(
        kind=kind,
        n=n,
        contexts=contexts,
        experts=expert_table(rng, len(contexts)),
        context_tree=tree,
        prob_tree=rng.uniform(size=n_nodes),
        adversary_seed=int(rng.integers(2**31)),
    )


def setup(workdir):
    history_contexts = {
        n: _history_contexts(n) for kind, _, n in STRATA.values() if kind != "static"
    }
    strata = {}
    for name in STRATA:
        instances = [_instance(name, v, history_contexts) for v in range(VARIANTS)]
        strata[name] = Stratum(VARIANTS, lambda tr, v, inst=instances: solve(tr, inst[v]))
    files, sizes = write_class_files(workdir, "cli.minimax", VARIANTS)
    strata["cli.minimax"] = Stratum(VARIANTS, lambda tr, v: _cli(tr, workdir, files[v], sizes[v]))
    return strata


def solve(tr, inst):
    ec = ExpertClass(contexts=list(inst.contexts), experts=inst.experts.copy())
    if inst.kind == "static":
        rule = StaticContexts(ec.contexts)
    else:
        rule = PreviousOutcomes()
    g = GameInstance(horizon=inst.n, expert_class=ec, availability=rule)
    log_f = math.log(ec.n_experts)

    with tr.span(f"game.exact_minimax.{inst.kind}") as sp:
        value = exact_minimax(g)
        sp.count("histories", g.estimated_nodes())
    check(0.0 <= value <= log_f + 1e-9, f"V = {value} outside [0, log|F|]")

    preds = []
    for x in rule.available(()):
        with tr.span("game.optimal_prediction"):
            preds.append(optimal_prediction(g, (), x))
    check(all(0.0 <= p <= 1.0 for p in preds), f"root predictions {preds}")

    adversary = StochasticAdversary(
        BinaryTree(inst.n, values=inst.context_tree),
        BinaryTree(inst.n, values=inst.prob_tree),
        seed=inst.adversary_seed,
    )
    with tr.span("game.run_strategy.minimax_optimal"):
        played = run_strategy(g, MinimaxOptimal(g), adversary)
    # Regret is undefined when every expert's loss is infinite.
    if math.isfinite(played.best_expert_loss):
        check(played.regret <= value + 1e-9, f"protocol regret {played.regret} > V = {value}")
    out = {"value": value, "root_predictions": preds, "protocol_regret": played.regret}

    leaves = (2 * rule.max_contexts()) ** inst.n
    if leaves <= MAXIMIN_LEAVES:
        with tr.span("game.run_strategy.maximin_bayes") as sp:
            worst = run_strategy(g, BayesMixture(ec), MaximinSearch())
            sp.count("leaves", leaves)
        check(
            value - 1e-9 <= worst.regret <= log_f + 1e-9,
            f"Bayes worst-case regret {worst.regret} outside [V, log|F|]",
        )
        out["bayes_worst_regret"] = worst.regret
    return out


def _cli(tr, workdir, class_file, n_experts):
    report = run_cli(tr, workdir, ["minimax", "--class", class_file, "--n", str(CLI_N)])
    value = report["value"]
    preds = list(report["root_predictions"].values())
    check(0.0 <= value <= math.log(n_experts) + 1e-9, f"CLI V = {value}")
    check(all(0.0 <= p <= 1.0 for p in preds), f"CLI root predictions {preds}")
    return {"value": value, "root_predictions": preds}
