"""Acceptance gate: one test per headline criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
inline), records the same verdict in build/acceptance.json (a list of
{"criterion", "ok", "detail"} objects for the criteria run in this
session), and then asserts, so a red criterion shows in the output, in
the file and as a failed test.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from logloss_lab.assouad import (
    SignClassBayes,
    lower_bound_value,
    scaling_experiment,
)
from logloss_lab.bounds import fit_rate_exponent, self_concordance_bound, truncation_bound
from logloss_lab.core import (
    ESTIMATION_CONSTANT,
    LAMBDA_STAR,
    BinaryTree,
    ExpertClass,
    path_node_indices,
)
from logloss_lab.cover import (
    EntropyCurve,
    LipschitzGridFamily,
    cover_verify,
    entropy_curve_estimate,
    restrict,
    sequential_cover_exact,
)
from logloss_lab.game import (
    BayesMixture,
    FixedSequence,
    GameInstance,
    dual_value,
    exact_minimax,
    random_dual_strategy,
    run_strategy,
)
from logloss_lab.verify import lambda_threshold_scan, run_check, sup_psi


_VERDICTS_FILE = Path(__file__).resolve().parent.parent / "build" / "acceptance.json"
_verdicts = {}  # criterion -> verdict, for this test session


def _verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    _verdicts[num] = {"criterion": num, "ok": bool(ok), "detail": detail}
    _VERDICTS_FILE.parent.mkdir(exist_ok=True)
    _VERDICTS_FILE.write_text(
        json.dumps([_verdicts[k] for k in sorted(_verdicts)], indent=2) + "\n"
    )
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_constant():
    c = ESTIMATION_CONSTANT
    ok = abs(c - 3.22310) < 1e-4 and c <= 4.0 and abs(LAMBDA_STAR * c - 1.0) < 1e-12
    _verdict(1, ok, f"c = {c:.6f} (target 3.22310 +- 1e-4, <= 4), 1/c = {LAMBDA_STAR:.6f}")


def test_criterion_2_lemma_suite():
    plan = {
        "PHI_LIPSCHITZ": 1e-3,     # 200001^2 ~ 4e10 pairs, by reduction
        "SC_POINTWISE": 1e-3,      # ~2e6 points
        "SC_EDGE": 1e-6,           # ~2e6 points
        "NESTEROV": 1e-3,          # ~2e6 points
        "SELF_CONCORDANT": 1e-6,   # ~2e6 points
        "CLIPPING": 1e-3,          # ~1e6 points
        "KL_EPS": 5e-4,            # ~2e6 points
    }
    worst = []
    for cid, res in plan.items():
        r = run_check(cid, resolution=res)
        worst.append((cid, r.worst_slack, r.passed))
    ok = all(w >= -1e-9 for _, w, _ in worst)
    summary = ", ".join(f"{cid} {w:.2e}" for cid, w, _ in worst)
    _verdict(2, ok, f"worst slacks: {summary}")


def test_criterion_3_psi_lemma():
    sup, (p, v) = sup_psi(LAMBDA_STAR, resolution=1e-3)
    scan = lambda_threshold_scan(1e-3)
    ok = sup <= 1.0 + 1e-9 and abs(scan - LAMBDA_STAR) <= 1e-3
    _verdict(
        3,
        ok,
        f"sup psi(lambda*) = {sup:.12f} at (p={p:.3f}, v={v:.3f}); "
        f"threshold scan = {scan:.6f} vs {LAMBDA_STAR:.6f}",
    )


def test_criterion_4_eta_identity():
    worst = 0.0
    for n in range(1, 13):
        r = run_check("ETA_IDENTITY", seed=n, n=n, n_trees=100)
        worst = max(worst, -r.worst_slack)
    ok = worst <= 1e-9
    _verdict(4, ok, f"max |E sum|eta|| - 2n| over n=1..12, 100 trees each: {worst:.2e}")


def test_criterion_5_estimation_lemma():
    r = run_check("ESTIMATION", seed=0, n_instances=200, max_n=10, max_sets=16)
    ok = r.worst_slack >= -1e-9
    _verdict(5, ok, f"min (c log|V| - E max sum phi) over 200 instances: {r.worst_slack:.4f}")


def _random_instance(rng, max_n=6, max_ctx=3, max_exp=8, oracle_ready=True):
    n = int(rng.integers(1, max_n + 1))
    if oracle_ready and n > 3:
        n_ctx = 1  # context-tree enumeration infeasible past depth 3
    else:
        n_ctx = int(rng.integers(1, max_ctx + 1))
    n_exp = int(rng.integers(1, max_exp + 1))
    ec = ExpertClass(
        contexts=list(range(n_ctx)), experts=rng.uniform(size=(n_exp, n_ctx))
    )
    return GameInstance(horizon=n, expert_class=ec)


def _oracle_minimax(g: GameInstance) -> float:
    """Max over all context trees of the path sum of best-expert likelihoods."""
    n = g.horizon
    ec = g.expert_class
    idx = path_node_indices(n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    with np.errstate(divide="ignore"):
        L1 = np.log(ec.experts)  # (F, X)
        L0 = np.log1p(-ec.experts)
    best = -math.inf
    n_ctx = len(ec.contexts)
    for assign in itertools.product(range(n_ctx), repeat=(1 << n) - 1):
        xs = np.asarray(assign)[idx]  # (paths, n)
        ll = np.where(bits[None, :, :] == 1, L1[:, xs], L0[:, xs]).sum(axis=2)
        path_best = ll.max(axis=0)
        m = path_best.max()
        best = max(best, m + math.log(np.exp(path_best - m).sum()))
    return best


def test_criterion_6_minimax_oracle():
    rng = np.random.default_rng(2024)
    max_err = 0.0
    for _ in range(100):
        g = _random_instance(rng)
        max_err = max(max_err, abs(exact_minimax(g) - _oracle_minimax(g)))
    dual_ok = True
    worst_gap = math.inf
    for _ in range(10):
        g = _random_instance(rng, max_n=4)
        primal = exact_minimax(g)
        for _ in range(100):
            gap = primal - dual_value(g, random_dual_strategy(g, rng))
            worst_gap = min(worst_gap, gap)
            dual_ok = dual_ok and gap >= -1e-9
    bayes_ok = True
    worst_margin = math.inf
    for _ in range(10):
        g = _random_instance(rng, oracle_ready=False)
        strat = BayesMixture(g.expert_class)
        bound = math.log(g.expert_class.n_experts)
        n_ctx = len(g.expert_class.contexts)
        for _ in range(100):
            contexts = rng.integers(0, n_ctx, size=g.horizon).tolist()
            outcomes = rng.integers(0, 2, size=g.horizon).tolist()
            tr = run_strategy(g, strat, FixedSequence(contexts, outcomes))
            worst_margin = min(worst_margin, bound - tr.regret)
            bayes_ok = bayes_ok and tr.regret <= bound + 1e-9
    ok = max_err <= 1e-9 and dual_ok and bayes_ok
    _verdict(
        6,
        ok,
        f"oracle max |err| = {max_err:.2e}; min primal-dual gap = {worst_gap:.2e} "
        f"(1000 duals); min (log|F| - regret) = {worst_margin:.2e} (1000 sequences)",
    )


def test_criterion_7_covering_sandwich():
    ec = ExpertClass.constants([0.0, 1.0])
    x = BinaryTree(3, values=np.zeros(7, dtype=object))
    rc = restrict(ec, x)
    s1, cov1 = sequential_cover_exact(rc, 0.5)
    s2, cov2 = sequential_cover_exact(rc, 0.4)
    curve = entropy_curve_estimate(
        LipschitzGridFamily(), [0.25, 0.125, 0.0625], n=0
    )
    ok = (
        s1 == 1
        and s2 == 2
        and cover_verify(rc, cov1)
        and cover_verify(rc, cov2)
        and abs(curve.slope - 1.0) <= 0.3
    )
    _verdict(
        7,
        ok,
        f"{{0,1}} class sizes: gamma 0.5 -> {s1}, gamma 0.4 -> {s2}; "
        f"lipschitz entropy slope = {curve.slope:.3f} (target 1 +- 0.3)",
    )


def test_criterion_8_rate_exponents():
    ns = [2**k for k in range(10, 21)]
    parts = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        sc = fit_rate_exponent("self_concordance", 1.0, p, ns)
        tr = fit_rate_exponent("truncation", 1.0, p, ns)
        sc_ok = abs(sc - p / (p + 1)) <= 0.02
        tr_ok = abs(tr - (2 * p - 1) / (2 * p)) <= 0.03
        ok = ok and sc_ok and tr_ok
        parts.append(
            f"p={p:g}: sc {sc:.3f}/{p / (p + 1):.3f}"
            f"{'' if sc_ok else '!'} tr {tr:.3f}/{(2 * p - 1) / (2 * p):.3f}"
            f"{'' if tr_ok else '!'}"
        )
    sc_half = fit_rate_exponent("self_concordance", 1.0, 0.5, ns)
    tr_half = fit_rate_exponent("truncation", 1.0, 0.5, ns)
    half_ok = abs(sc_half - tr_half) <= 0.05
    ok = ok and half_ok
    parts.append(f"p=0.5 agree: |{sc_half:.3f}-{tr_half:.3f}|<=0.05 {half_ok}")
    order_ok = True
    for p in (1.5, 2.0, 3.0):
        H = EntropyCurve.power(1.0, p)
        order_ok = order_ok and (
            self_concordance_bound(H, 2**16)[0] < truncation_bound(H, 2**16)[0]
        )
    ok = ok and order_ok
    parts.append(f"ordering at 2^16: {order_ok}")
    _verdict(8, ok, "; ".join(parts))


def test_criterion_9_lower_bound():
    arith_ok = True
    # (p, n) pairs where -1/(p+1) is a dyadic float, so equality is exact
    for p, n in [(1, 2**8), (1, 2**14), (3, 2**12), (3, 2**16)]:
        eps = n ** (-1.0 / (p + 1)) / 8.0
        arith_ok = arith_ok and n * (4 * eps) ** (1 + p) == 2.0 ** -(1 + p)
    lb_ok = True
    for p in (1, 2, 3):
        for n in (1, 100, 2**14):
            val, _ = lower_bound_value(p, n)
            lb_ok = lb_ok and val == n ** (p / (p + 1)) / 128.0
    res = scaling_experiment(
        1.0, [2**k for k in range(8, 15)], SignClassBayes, range(11)
    )
    slope_ok = res.slope >= 0.40
    ok = arith_ok and lb_ok and slope_ok
    _verdict(
        9,
        ok,
        f"n(4e)^(1+p) exact: {arith_ok}; lower bound exact: {lb_ok}; "
        f"scaling slope = {res.slope:.3f} (need >= 0.40, target 0.5)",
    )
