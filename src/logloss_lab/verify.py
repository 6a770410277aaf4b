"""Numerical certification of the inequality lemmas behind the regret bound.

Each check evaluates one inequality over an explicit grid (or, for the
tree identities, by exact path enumeration over random instances) and
reports the worst signed slack, where slack = bound minus quantity, so
negative means a violation.  Nothing here is a proof; the grids are
dense enough to catch any implementation drift in the closed forms.

Every check keeps its slack in the shape of its grid and reads the worst
point off the grid axes at the first minimum; no array of points is built.
PHI_LIPSCHITZ certifies all m^2 pairs of its grid in O(m) by a
running-maximum reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ESTIMATION_CONSTANT,
    eta,
    kl_bernoulli,
    log_loss,
    omega,
    path_node_indices,
    phi,
    psi,
)

__all__ = [
    "CHECK_IDS",
    "CheckReport",
    "run_check",
    "run_all_checks",
    "sup_psi",
    "lambda_threshold_scan",
]

CHECK_IDS = (
    "PHI_LIPSCHITZ",
    "SC_POINTWISE",
    "SC_EDGE",
    "NESTEROV",
    "SELF_CONCORDANT",
    "CLIPPING",
    "KL_EPS",
    "ETA_IDENTITY",
    "ESTIMATION",
)

# Exclusion band around p, f in {0, 1}; the boundary itself is handled by
# the dedicated edge-case check.
_EDGE = 1e-6
_Y = np.array([0.0, 1.0])


@dataclass
class CheckReport:
    check_id: str
    grid_spec: str
    worst_slack: float
    worst_point: tuple
    tolerance: float
    passed: bool


def _report(check_id, grid_spec, slack, coords, tolerance) -> CheckReport:
    """Assemble a report from a slack array and its grid axes.

    `coords` are arrays that broadcast to `slack.shape`; the worst point
    reads each of them at the first minimum of `slack`.  A NaN slack counts
    as the worst (and fails), and +inf never beats a finite slack.
    """
    slack = np.asarray(slack, dtype=float)
    k = np.unravel_index(int(np.argmin(slack)), slack.shape)
    worst = float(slack[k])
    point = tuple(float(np.broadcast_to(c, slack.shape)[k]) for c in coords)
    return CheckReport(
        check_id=check_id,
        grid_spec=grid_spec,
        worst_slack=worst,
        worst_point=point,
        tolerance=tolerance,
        passed=worst >= -tolerance,
    )


def _interior_grid(resolution):
    """Grid on [_EDGE, 1 - _EDGE] with the given step."""
    m = int(math.floor((1.0 - 2 * _EDGE) / resolution)) + 1
    return np.linspace(_EDGE, 1.0 - _EDGE, m)


def _running_argmax(x):
    """Index of the first maximum of x[:i + 1], for every i."""
    new_max = np.ones(x.size, dtype=bool)
    new_max[1:] = x[1:] > np.maximum.accumulate(x)[:-1]
    return np.maximum.accumulate(np.where(new_max, np.arange(x.size), 0))


def _check_phi_lipschitz(resolution):
    """2|s - t| >= phi(s) - phi(t) over all m^2 pairs of grid points.

    For s_i >= s_j the slack is g_i - g_j with g = 2s - phi, so for each i
    the worst j is the first maximum of g over j <= i.  For s_i <= s_j it
    is h_j - h_i with h = 2s + phi, so for each j the worst i is the first
    maximum of h over i <= j.  These 2m pairs contain a worst pair, and
    the pairwise slack is evaluated only there.
    """
    lo, hi = -100.0, 100.0
    m = int(math.floor((hi - lo) / resolution)) + 1
    s = np.linspace(lo, hi, m)
    phis = phi(s)
    every = np.arange(m)
    rows = np.stack([every, _running_argmax(2.0 * s + phis)])
    cols = np.stack([_running_argmax(2.0 * s - phis), every])
    slack = 2.0 * np.abs(s[rows] - s[cols]) - (phis[rows] - phis[cols])
    return _report(
        "PHI_LIPSCHITZ",
        f"s,t in [-100,100] step {resolution:g} ({m}^2 points)",
        slack,
        (s[rows], s[cols]),
        1e-9,
    )


def _check_sc_pointwise(resolution):
    p = _interior_grid(resolution)
    f = _interior_grid(resolution)
    slacks = []
    for y in (0, 1):
        lp = log_loss(p, y)[:, None]
        lf = log_loss(f, y)[None, :]
        z = eta(p, y)[:, None] * (p[:, None] - f[None, :])
        slacks.append(phi(z) - (lp - lf))
    return _report(
        "SC_POINTWISE",
        f"p,f in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}",
        np.stack(slacks),
        (p[None, :, None], f[None, None, :], _Y[:, None, None]),
        1e-9,
    )


def _check_sc_edge(resolution):
    m = int(math.floor(1.0 / resolution)) + 1
    f = np.linspace(0.0, 1.0, m)
    with np.errstate(divide="ignore"):
        # p = 1 branch: log f <= log(2 - f) - 2(1 - f)
        s1 = np.log(2.0 - f) - 2.0 * (1.0 - f) - np.log(f)
        # p = 0 branch: log(1 - f) <= log(1 + f) - 2f
        s0 = np.log1p(f) - 2.0 * f - np.log1p(-f)
    return _report(
        "SC_EDGE",
        f"f in [0,1] step {resolution:g}, both boundary branches",
        np.stack([s1, s0]),
        (f[None, :], np.array([[1.0], [0.0]])),
        1e-9,
    )


def _check_nesterov(resolution):
    """F(t) >= F(s) + F'(s)(t - s) + omega(sqrt(F''(s)) |t - s|) for the
    scalar log loss F(p) = loss(p, y)."""
    s = _interior_grid(resolution)
    t = _interior_grid(resolution)
    d = t[None, :] - s[:, None]
    slacks = []
    for y in (0, 1):
        fs = log_loss(s, y)[:, None]
        ft = log_loss(t, y)[None, :]
        grad = eta(s, y)[:, None]
        hess = np.where(y == 1, 1.0 / s**2, 1.0 / (1.0 - s) ** 2)[:, None]
        slacks.append(ft - fs - grad * d - omega(np.sqrt(hess) * np.abs(d)))
    return _report(
        "NESTEROV",
        f"s,t in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}",
        np.stack(slacks),
        (s[None, :, None], t[None, None, :], _Y[:, None, None]),
        1e-9,
    )


def _check_self_concordant(resolution):
    """|F'''| <= 2 F''^{3/2}, with equality for the log loss; the slack is
    reported relative to 2 F''^{3/2} since the raw values reach 1e18 near
    the boundary."""
    s = _interior_grid(resolution)
    slacks = []
    for y in (0, 1):
        if y == 1:
            hess = 1.0 / s**2
            third = 2.0 / s**3
        else:
            hess = 1.0 / (1.0 - s) ** 2
            third = 2.0 / (1.0 - s) ** 3
        bound = 2.0 * hess * np.sqrt(hess)
        slacks.append((bound - third) / bound)
    return _report(
        "SELF_CONCORDANT",
        f"s in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}; "
        "relative slack",
        np.stack(slacks),
        (s[None, :], _Y[:, None]),
        1e-9,
    )


def _half_axis(check_id, resolution):
    """The delta or eps axis (resolution, 0.5] of CLIPPING and KL_EPS."""
    m = int(math.floor(0.5 / resolution))
    if m == 0:
        raise ValueError(
            f"{check_id}: resolution {resolution:g} leaves its axis "
            "(resolution, 0.5] empty; it needs a resolution <= 0.5"
        )
    return np.linspace(resolution, 0.5, m)


def _check_clipping(resolution):
    m = int(math.floor(1.0 / resolution)) + 1
    p = np.linspace(0.0, 1.0, m)
    d = _half_axis("CLIPPING", resolution)
    clipped = np.clip(p[:, None], d[None, :], 1.0 - d[None, :])
    slack = np.stack([
        log_loss(p, y)[:, None] + 2.0 * d[None, :] - log_loss(clipped, y)
        for y in (0, 1)
    ])
    return _report(
        "CLIPPING",
        f"p in [0,1], delta in ({resolution:g},0.5] step {resolution:g}, "
        "y in {0,1}",
        slack,
        (p[None, :, None], d[None, None, :], _Y[:, None, None]),
        1e-9,
    )


def _check_kl_eps(resolution):
    eps = _half_axis("KL_EPS", resolution)
    mq = int(math.floor(1.0 / resolution)) + 1
    q = np.linspace(0.0, 1.0, mq)
    e = eps[:, None]
    qq = q[None, :]
    rhs = (e / 4.0) * (qq >= 2.0 * e) + (e / 6.0) * (qq <= e / 2.0)
    return _report(
        "KL_EPS",
        f"eps in ({resolution:g},0.5], q in [0,1], step {resolution:g}",
        kl_bernoulli(e, qq) - rhs,
        (e, qq),
        1e-9,
    )


def _random_prob_tree(rng, n):
    vals = rng.uniform(size=(1 << n) - 1)
    return np.clip(vals, 1e-9, 1.0 - 1e-9)


def _path_tables(pvals, n):
    """Per-path weights and node values for exact enumeration.

    Returns (bits, node_probs, weights): bits is the (2^n, n) outcome
    array, node_probs the probability at the visited node of each round,
    and weights the probability of each path under the tree.
    """
    idx = path_node_indices(n)
    paths = np.arange(1 << n)[:, None]
    bits = (paths >> np.arange(n)[None, :]) & 1
    node_p = pvals[idx]
    w = np.where(bits == 1, node_p, 1.0 - node_p).prod(axis=1)
    return bits, node_p, w


def _check_eta_identity(resolution, seed, n=8, n_trees=100):
    """E sum_t |loss'(p_t(y), y_t)| = 2n exactly, any prob tree."""
    del resolution
    rng = np.random.default_rng(seed)
    totals = []
    for _ in range(n_trees):
        pvals = _random_prob_tree(rng, n)
        bits, node_p, w = _path_tables(pvals, n)
        abs_eta = np.where(bits == 1, 1.0 / node_p, 1.0 / (1.0 - node_p))
        totals.append((w * abs_eta.sum(axis=1)).sum())
    totals = np.array(totals)
    return _report(
        "ETA_IDENTITY",
        f"n={n}, {n_trees} random prob trees, exact enumeration",
        -np.abs(totals - 2.0 * n),
        (np.arange(n_trees), totals),
        1e-9,
    )


def _check_estimation(resolution, seed, n_instances=200, max_n=10, max_sets=16):
    """E max over a finite tree set V of sum_t phi(eta_t v_t) is at most
    c log|V|, by exact enumeration over random instances."""
    del resolution
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_instances):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(2, max_sets + 1))
        pvals = _random_prob_tree(rng, n)
        # value trees in [p - 1, p] nodewise
        vtrees = pvals[None, :] - rng.uniform(size=(k, pvals.size))
        bits, node_p, w = _path_tables(pvals, n)
        idx = path_node_indices(n)
        ev = np.where(bits == 1, -1.0 / node_p, 1.0 / (1.0 - node_p))
        scores = phi(ev[None, :, :] * vtrees[:, idx]).sum(axis=2)
        value = (w * scores.max(axis=0)).sum()
        rows.append((n, k, value, ESTIMATION_CONSTANT * math.log(k)))
    ns, ks, values, bounds = np.array(rows).T
    max_ratio = np.max(values / bounds, initial=0.0, where=values > 0)
    return _report(
        "ESTIMATION",
        (
            f"{n_instances} random instances, n<= {max_n}, |V|<= {max_sets}; "
            f"max observed value/bound ratio {max_ratio:.3g}"
        ),
        bounds - values,
        (np.arange(n_instances), ns, ks, values),
        1e-9,
    )


def run_check(check_id: str, resolution: float = 1e-3, seed: int = 0, **kwargs):
    """Run one named inequality check; see CHECK_IDS."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if check_id == "PHI_LIPSCHITZ":
        return _check_phi_lipschitz(resolution)
    if check_id == "SC_POINTWISE":
        return _check_sc_pointwise(resolution)
    if check_id == "SC_EDGE":
        return _check_sc_edge(resolution)
    if check_id == "NESTEROV":
        return _check_nesterov(resolution)
    if check_id == "SELF_CONCORDANT":
        return _check_self_concordant(resolution)
    if check_id == "CLIPPING":
        return _check_clipping(resolution)
    if check_id == "KL_EPS":
        return _check_kl_eps(resolution)
    if check_id == "ETA_IDENTITY":
        return _check_eta_identity(resolution, seed, **kwargs)
    if check_id == "ESTIMATION":
        return _check_estimation(resolution, seed, **kwargs)
    raise ValueError(f"unknown check_id: {check_id!r}")


def run_all_checks(resolution: float = 1e-3, seed: int = 0):
    return [run_check(cid, resolution=resolution, seed=seed) for cid in CHECK_IDS]


def sup_psi(lam: float, resolution: float = 1e-3):
    """Grid maximum of psi(p, lam, v) over p in [0,1], v in [p-1, p],
    followed by one golden-section refinement in v at the best p.
    Returns (sup_value, (p, v))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    m = int(math.floor(1.0 / resolution)) + 1
    p = np.linspace(0.0, 1.0, m)
    u = np.linspace(0.0, 1.0, m)
    v = p[:, None] - 1.0 + u[None, :]  # spans [p-1, p]
    vals = psi(p[:, None], lam, v)
    k = int(np.argmax(vals))
    i, j = divmod(k, m)
    p_best = float(p[i])
    v_best = float(v[i, j])

    from .bounds import golden_section

    lo = max(p_best - 1.0, v_best - 2.0 * resolution)
    hi = min(p_best, v_best + 2.0 * resolution)
    v_ref = golden_section(lambda x: -psi(p_best, lam, x), lo, hi, tol=1e-12)
    best = float(psi(p_best, lam, v_ref))
    if best >= vals.flat[k]:
        return best, (p_best, float(v_ref))
    return float(vals.flat[k]), (p_best, v_best)


def _case1_ratio(p, v):
    """Threshold ratio for v in [p-1, 0)."""
    shared = np.log(p) + np.log(1 - p - v) - np.log(p - v)
    return (shared - np.log(1 - p - 2 * v)) / (
        shared - np.log(1 - p) + 2 * v / (1 - p)
    )


def _case2_ratio(p, v):
    """Threshold ratio for v in (0, p]."""
    shared = np.log(1 - p) + np.log(p + v) - np.log(1 - p + v)
    return (shared - np.log(p + 2 * v)) / (shared - np.log(p) - 2 * v / p)


def lambda_threshold_scan(resolution: float = 1e-3) -> float:
    """Minimum over the (p, v) grid of both threshold-ratio expressions;
    equals the critical exponential-moment parameter up to grid error.

    Points with |v| < resolution are excluded (0/0 as v -> 0).
    """
    if resolution > 1e-3:
        raise ValueError("resolution must be <= 1e-3")
    m = int(math.floor(1.0 / resolution))
    p = np.linspace(resolution, 1.0 - resolution, m)
    u = np.linspace(0.0, 1.0, m)[None, :]
    best = np.inf
    # case 1: v from p-1 up to -resolution, where the interval is nonempty
    span = (-resolution) - (p - 1.0)
    ok = span > 0
    v1 = (p[:, None] - 1.0) + u * np.where(ok, span, 0.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = _case1_ratio(p[:, None], v1)
    r1 = r1[ok, :]
    if r1.size:
        best = min(best, float(np.nanmin(r1)))
    # case 2: v from resolution up to p
    span = p - resolution
    ok = span > 0
    v2 = resolution + u * np.where(ok, span, 0.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = _case2_ratio(p[:, None], v2)
    r2 = r2[ok, :]
    if r2.size:
        best = min(best, float(np.nanmin(r2)))
    return best
