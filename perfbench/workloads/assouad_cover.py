"""assouad-cover: per-round simulation loops and function enumeration.

A round of the group holds the criterion-9 scaling run (p=1, SignClassBayes,
n=2^8..2^14, 11 seeds), a p=2 EmpiricalMeanStrategy scaling run
(n=2^8..2^12, 5 seeds), one task each, 24 online_to_batch + kl_risk tasks
(p in {1,2}, n=2^10..2^13, 3 seeds), one Lipschitz entropy curve at
gamma = 1/4, 1/8, 1/16, and 60 small sequential-cover tasks (depth 1-3,
k 1-2, |F| 2-6, gamma in {0.1, 0.25}).  The scaling runs and the
entropy curve do most of the work; the many short cover calls are the
side a closed-form cover count must not slow.  |F| stops at 6 because the
exact branch-and-bound at depth 3, k=2, |F|=8 takes up to 7 s on about one
instance in sixteen, which a one-minute run cannot average out.

"""

from __future__ import annotations

import math

import numpy as np

from harness import Stratum, check
from logloss_lab.assouad import (
    EmpiricalMeanStrategy,
    SignClassBayes,
    build_assouad_class,
    kl_risk,
    lower_bound_value,
    online_to_batch,
    sample_dataset,
    scaling_experiment,
)
from logloss_lab.core import BinaryTree, ExpertClass
from logloss_lab.cover import (
    LipschitzGridFamily,
    cover_verify,
    empirical_entropy_lower,
    entropy_curve_estimate,
    restrict,
    sequential_cover_exact,
    sequential_cover_greedy,
)

from .common import instance_rng, run_cli

VARIANTS = 4
COVER_VARIANTS = 8
GAMMAS = [0.25, 0.125, 0.0625]

# strategy label -> (p, n grid, seeds, strategy factory)
SCALING = {
    "bayes": (1.0, [2**k for k in range(8, 15)], 11, SignClassBayes),
    "empirical": (2.0, [2**k for k in range(8, 13)], 5, EmpiricalMeanStrategy),
}
O2B = [(p, 2**k, s) for p in (1, 2) for k in range(10, 14) for s in range(3)]
COVERS = [
    (d, k, f, g)
    for d in (1, 2, 3)
    for k in (1, 2)
    for f in (2, 3, 4, 5, 6)
    for g in (0.1, 0.25)
]


def _scaling(label):
    p, ns, seeds, factory = SCALING[label]

    def run(tr, variant):
        master = int(instance_rng(f"scaling.{label}", variant).integers(2**31))
        with tr.span(f"assouad.scaling_experiment.{label}") as sp:
            res = scaling_experiment(p, ns, factory, range(seeds), master_seed=master)
            sp.count("rounds", sum(ns) * seeds)
        regrets = res.regrets
        check(np.all(np.isfinite(regrets)), f"non-finite regret {regrets}")
        if label == "bayes":
            # the uniform-prior mixture over 2^N sign vectors: 0 <= regret <= N log 2
            n_centers = [int(math.floor(1.0 / (4.0 * e))) for e in res.epsilons]
            for row, m in zip(regrets, n_centers):
                check(np.all((-1e-9 <= row) & (row <= m * math.log(2.0) + 1e-9)),
                      f"Bayes regrets {row}, N = {m}")
        return {"regrets": regrets, "slope": res.slope}

    return run


def _online_to_batch(p, n, s):
    def run(tr, variant):
        rng = instance_rng(f"o2b.p{p}.n{n}.s{s}", variant)
        _, eps = lower_bound_value(p, n)
        with tr.span("assouad.build_assouad_class"):
            ac = build_assouad_class(p, eps)
        signs = rng.choice([-1, 1], size=ac.n_centers)
        with tr.span("assouad.sample_dataset"):
            data = sample_dataset(ac, signs, n, int(rng.integers(2**31)))
        with tr.span("assouad.online_to_batch") as sp:
            est = online_to_batch(SignClassBayes(ac), data, ac)
            sp.count("table_cells", n * ac.n_centers)
        with tr.span("assouad.kl_risk"):
            risk = kl_risk(ac, signs, est)
        check(math.isfinite(risk), f"kl_risk {risk}")
        return {"kl_risk": risk}

    return run


def _entropy(tr, variant):
    with tr.span("cover.entropy_curve_estimate"):
        curve = entropy_curve_estimate(LipschitzGridFamily(), GAMMAS, n=0)
    check(np.all(curve.lowers <= curve.uppers), "entropy lower above upper")
    check(math.isfinite(curve.slope), f"entropy slope {curve.slope}")
    return {"lowers": curve.lowers, "uppers": curve.uppers, "slope": curve.slope}


def _cover_name(depth, k, n_experts, gamma):
    return f"cover.d{depth}.k{k}.f{n_experts}.g{gamma}"


def _cover(depth, k, n_experts, gamma):
    name = _cover_name(depth, k, n_experts, gamma)

    def run(tr, variant):
        rng = instance_rng(name, variant)
        ec = ExpertClass(contexts=list(range(k)), experts=rng.uniform(size=(n_experts, k)))
        x = BinaryTree(depth, values=rng.integers(0, k, size=(1 << depth) - 1).astype(object))
        with tr.span("cover.restrict"):
            rc = restrict(ec, x)
        with tr.span("cover.sequential_cover_greedy") as sp:
            greedy = sequential_cover_greedy(rc, gamma)
            sp.count("demands", (1 << depth) * n_experts)
            sp.count("size", len(greedy.elements))
        with tr.span("cover.sequential_cover_exact") as sp:
            size, exact = sequential_cover_exact(rc, gamma)
            sp.count("size", size)
        for cov in (greedy, exact):
            with tr.span("cover.cover_verify"):
                ok = cover_verify(rc, cov)
            check(ok, "cover fails cover_verify")
        check(size == len(exact.elements) <= len(greedy.elements), "exact cover larger than greedy")
        with tr.span("cover.empirical_entropy_lower"):
            lower = empirical_entropy_lower(rc, gamma)
        check(lower <= math.log(size) + 1e-9, f"entropy lower {lower} above log {size}")
        return {"greedy": len(greedy.elements), "exact": size, "entropy_lower": lower}

    return run


def _cli_assouad(tr, workdir, variant):
    argv = [
        "assouad", "--scaling", "--p", "1", "--n-grid", "2^8..2^12",
        "--n-seeds", "5", "--seed", str(variant),
    ]
    report = run_cli(tr, workdir, argv)
    medians = report["medians"]
    check(all(math.isfinite(m) and m > 0 for m in medians), f"CLI medians {medians}")
    check(math.isfinite(report["slope"]), "CLI slope")
    return {"medians": medians, "slope": report["slope"]}


def _cli_cover(tr, workdir, variant):
    argv = ["cover", "--gammas", ",".join(str(g) for g in GAMMAS)]
    report = run_cli(tr, workdir, argv)
    curve = report["curve"]
    check(all(c["lower"] <= c["upper"] for c in curve), "CLI entropy lower above upper")
    return {"curve": curve, "slope": report["slope"]}


def setup(workdir):
    strata = {}
    for label in SCALING:
        strata[f"scaling.{label}"] = Stratum(VARIANTS, _scaling(label))
    for p, n, s in O2B:
        strata[f"o2b.p{p}.n{n}.s{s}"] = Stratum(VARIANTS, _online_to_batch(p, n, s))
    strata["entropy"] = Stratum(1, _entropy)
    for c in COVERS:
        strata[_cover_name(*c)] = Stratum(COVER_VARIANTS, _cover(*c))
    strata["cli.assouad"] = Stratum(VARIANTS, lambda tr, v: _cli_assouad(tr, workdir, v))
    strata["cli.cover"] = Stratum(1, lambda tr, v: _cli_cover(tr, workdir, v))
    return strata
