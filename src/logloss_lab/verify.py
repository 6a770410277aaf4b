"""Numerical certification of the inequality lemmas behind the regret bound.

Each check evaluates one inequality over an explicit grid (or, for the
tree identities, exactly over every path of random instances) and
reports the worst signed slack, where slack = bound minus quantity, so
negative means a violation.  Nothing here is a proof; the grids are
dense enough to catch any implementation drift in the closed forms.

The grid checks, `sup_psi` and `lambda_threshold_scan` each state their
slack once, as an expression over broadcast grid axes; terms that depend
on one axis are computed once, as axis-shaped operands.  `core`'s one
block cutter (`_block_values`, blocks of at most `core._BLOCK` elements)
evaluates the slack, and the blocks are reduced in the grid's flat order
with np.argmin's rule (the first NaN, otherwise the first minimum); the
worst point is read off the grid axes, and no grid-sized array is built.
PHI_LIPSCHITZ certifies all m^2 pairs of its grid in O(m) by a
running-maximum reduction.  ETA_IDENTITY and ESTIMATION carry path
weights and score sums down the tree level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ESTIMATION_CONSTANT,
    BinaryTree,
    _block_values,
    clip_prob,
    eta,
    kl_bernoulli,
    log_loss,
    omega,
    phi,
    psi,
)

__all__ = [
    "CHECK_IDS",
    "CheckReport",
    "run_check",
    "sup_psi",
    "lambda_threshold_scan",
]

# Exclusion band around p, f in {0, 1}; the boundary itself is handled by
# the dedicated edge-case check.
_EDGE = 1e-6
_Y = np.array([0.0, 1.0])
# A check passes when its worst slack is at least -_TOLERANCE.
_TOLERANCE = 1e-9
# The most points one grid axis holds (16 MB of floats).  It bounds memory,
# not the run time of a 2-D grid.
_MAX_AXIS_POINTS = 2 * 10**6


@dataclass
class CheckReport:
    """`points` counts the grid cells whose slack was scored, or for the
    tree checks the paths their exact expectations run over."""

    check_id: str
    grid_spec: str
    worst_slack: float
    worst_point: tuple
    tolerance: float
    passed: bool
    points: int = 0


def _first_min(blocks):
    """np.argmin over `blocks` laid end to end in flat order: the first
    NaN wins, otherwise the earliest minimum.

    Returns (flat index, value, elements seen); (0, inf, 0) for no blocks.
    """
    k, best, seen = 0, math.inf, 0
    for b in blocks:
        j = int(np.argmin(b))
        v = float(b.flat[j])
        if v < best or (v != v and best == best):
            k, best = seen + j, v
        seen += b.size
    return k, best, seen


def _report(check_id, grid_spec, blocks, coords, points=None):
    """Assemble a report from the slack blocks of a grid and its axes.

    `coords` are arrays that broadcast to the grid's shape, and `blocks`
    yields the grid's slack in C order; the worst point reads each axis at
    the first minimum.  A NaN slack counts as the worst (and fails), and
    +inf never beats a finite slack.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    k, worst, seen = _first_min(blocks)
    at = np.unravel_index(k, shape)
    point = tuple(float(np.broadcast_to(c, shape)[at]) for c in coords)
    return CheckReport(
        check_id=check_id,
        grid_spec=grid_spec,
        worst_slack=worst,
        worst_point=point,
        tolerance=_TOLERANCE,
        passed=worst >= -_TOLERANCE,
        points=seen if points is None else points,
    )


def _steps(span, resolution):
    """floor(span / resolution), the steps of a grid axis of length `span`.
    Every axis is sized here, so one that would hold more than
    _MAX_AXIS_POINTS points raises ValueError before any array is built."""
    steps = span / resolution
    if not steps < _MAX_AXIS_POINTS:
        raise ValueError(
            f"resolution {resolution:g} is too fine: an axis of length "
            f"{span:g} would hold more than {_MAX_AXIS_POINTS} points"
        )
    return math.floor(steps)


def _interior_grid(resolution):
    """Grid on [_EDGE, 1 - _EDGE] with the given step."""
    m = _steps(1.0 - 2 * _EDGE, resolution) + 1
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
    m = _steps(hi - lo, resolution) + 1
    s = np.linspace(lo, hi, m)
    phis = phi(s)
    every = np.arange(m)
    rows = np.stack([every, _running_argmax(2.0 * s + phis)])
    cols = np.stack([_running_argmax(2.0 * s - phis), every])
    slack = 2.0 * np.abs(s[rows] - s[cols]) - (phis[rows] - phis[cols])
    return _report(
        "PHI_LIPSCHITZ",
        f"s,t in [-100,100] step {resolution:g} ({m}^2 points)",
        [slack],
        (s[rows], s[cols]),
    )


def _check_sc_pointwise(resolution):
    grid = _interior_grid(resolution)
    p, f, y = grid[None, :, None], grid[None, None, :], _Y[:, None, None]
    return _report(
        "SC_POINTWISE",
        f"p,f in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}",
        _block_values(
            lambda p, f, e, lp, lf: phi(e * (p - f)) - (lp - lf),
            p, f, eta(p, y), log_loss(p, y), log_loss(f, y),
        ),
        (p, f, y),
    )


def _check_sc_edge(resolution):
    f = np.linspace(0.0, 1.0, _steps(1.0, resolution) + 1)
    branches = (
        # p = 1 branch: log f <= log(2 - f) - 2(1 - f)
        lambda f: np.log(2.0 - f) - 2.0 * (1.0 - f) - np.log(f),
        # p = 0 branch: log(1 - f) <= log(1 + f) - 2f
        lambda f: np.log1p(f) - 2.0 * f - np.log1p(-f),
    )
    with np.errstate(divide="ignore"):
        return _report(
            "SC_EDGE",
            f"f in [0,1] step {resolution:g}, both boundary branches",
            (v for branch in branches for v in _block_values(branch, f)),
            (f[None, :], np.array([[1.0], [0.0]])),
        )


def _check_nesterov(resolution):
    """F(t) >= F(s) + F'(s)(t - s) + omega(sqrt(F''(s)) |t - s|) for the
    scalar log loss F(p) = loss(p, y)."""
    grid = _interior_grid(resolution)
    s, t, y = grid[None, :, None], grid[None, None, :], _Y[:, None, None]
    root = np.sqrt(np.where(y == 1, 1.0 / s**2, 1.0 / (1.0 - s) ** 2))

    def slack(s, t, fs, ft, grad, root):
        d = t - s
        return ft - fs - grad * d - omega(root * np.abs(d))

    return _report(
        "NESTEROV",
        f"s,t in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}",
        _block_values(slack, s, t, log_loss(s, y), log_loss(t, y), eta(s, y),
                      root),
        (s, t, y),
    )


def _self_concordant_slack(s, y):
    if y == 1:
        hess = 1.0 / s**2
        third = 2.0 / s**3
    else:
        hess = 1.0 / (1.0 - s) ** 2
        third = 2.0 / (1.0 - s) ** 3
    bound = 2.0 * hess * np.sqrt(hess)
    return (bound - third) / bound


def _check_self_concordant(resolution):
    """|F'''| <= 2 F''^{3/2}, with equality for the log loss; the slack is
    reported relative to 2 F''^{3/2} since the raw values reach 1e18 near
    the boundary."""
    s = _interior_grid(resolution)
    return _report(
        "SELF_CONCORDANT",
        f"s in [{_EDGE:g},1-{_EDGE:g}] step {resolution:g}, y in {{0,1}}; "
        "relative slack",
        (v for y in (0, 1)
         for v in _block_values(lambda s, y=y: _self_concordant_slack(s, y), s)),
        (s[None, :], _Y[:, None]),
    )


def _half_axis(check_id, resolution):
    """The delta or eps axis (resolution, 0.5] of CLIPPING and KL_EPS."""
    m = _steps(0.5, resolution)
    if m == 0:
        raise ValueError(
            f"{check_id}: resolution {resolution:g} leaves its axis "
            "(resolution, 0.5] empty; it needs a resolution <= 0.5"
        )
    return np.linspace(resolution, 0.5, m)


def _check_clipping(resolution):
    p = np.linspace(0.0, 1.0, _steps(1.0, resolution) + 1)[None, :, None]
    d = _half_axis("CLIPPING", resolution)[None, None, :]
    y = _Y[:, None, None]
    return _report(
        "CLIPPING",
        f"p in [0,1], delta in ({resolution:g},0.5] step {resolution:g}, "
        "y in {0,1}",
        _block_values(
            lambda p, d, y, lp: lp + 2.0 * d - log_loss(clip_prob(p, d), y),
            p, d, y, log_loss(p, y),
        ),
        (p, d, y),
    )


def _check_kl_eps(resolution):
    # the longer axis first, so a resolution too fine for it builds no axis
    q = np.linspace(0.0, 1.0, _steps(1.0, resolution) + 1)[None, :]
    e = _half_axis("KL_EPS", resolution)[:, None]
    return _report(
        "KL_EPS",
        f"eps in ({resolution:g},0.5], q in [0,1], step {resolution:g}",
        _block_values(
            lambda e, q: kl_bernoulli(e, q)
            - ((e / 4.0) * (q >= 2.0 * e) + (e / 6.0) * (q <= e / 2.0)),
            e, q,
        ),
        (e, q),
    )


def _random_prob_trees(rng, n, count=None):
    """Node probabilities of `count` depth-n trees (one tree when None),
    drawn in one call: the same stream as drawing the trees one by one."""
    size = (1 << n) - 1 if count is None else (count, (1 << n) - 1)
    return np.clip(rng.uniform(size=size), 1e-9, 1.0 - 1e-9)


def _levels(pvals, n):
    """Walk depth-n probability trees (nodes on the last axis) round by round.

    Yields, for round t, the flat node slice of its level, the weight of
    every path prefix through round t, and eta of that prefix's round-t
    outcome.  Prefixes are in the tree's level order: the outcome-0
    children of the level's nodes, then their outcome-1 children, so after
    round n they are the paths in bitmask order.  Each weight is the
    product of the outcome probabilities in round order.
    """
    w = np.ones(pvals.shape[:-1] + (1,))
    for t in range(1, n + 1):
        nodes = BinaryTree.level_slice(t)
        p = pvals[..., nodes]
        w = np.concatenate((w, w), axis=-1) * np.concatenate((1.0 - p, p), axis=-1)
        yield nodes, w, np.concatenate((1.0 / (1.0 - p), -1.0 / p), axis=-1)


def _eta_expectation(pvals, n):
    """E sum_t |eta_t| over the paths of each tree, with each path's sum
    taken in round order."""
    score = np.zeros(pvals.shape[:-1] + (1,))
    for _, w, e in _levels(pvals, n):
        score = np.concatenate((score, score), axis=-1) + np.abs(e)
    return (w * score).sum(axis=-1)


def _estimation_value(pvals, vtrees, n):
    """E max_k sum_t phi(eta_t v_k,t) over the paths of one tree, with
    each sum taken in round order: 2k(2^n - 1) phi terms in all."""
    score = np.zeros((vtrees.shape[0], 1))
    for nodes, w, e in _levels(pvals, n):
        v = vtrees[:, nodes]
        score = (np.concatenate((score, score), axis=1)
                 + phi(e * np.concatenate((v, v), axis=1)))
    return (w * score.max(axis=0)).sum()


def _check_eta_identity(resolution, seed, n=8, n_trees=100):
    """E sum_t |loss'(p_t(y), y_t)| = 2n exactly, any prob tree."""
    del resolution
    rng = np.random.default_rng(seed)
    totals = _eta_expectation(_random_prob_trees(rng, n, n_trees), n)
    return _report(
        "ETA_IDENTITY",
        f"n={n}, {n_trees} random prob trees, exact enumeration",
        [-np.abs(totals - 2.0 * n)],
        (np.arange(n_trees), totals),
        points=n_trees << n,
    )


def _check_estimation(resolution, seed, n_instances=200, max_n=10, max_sets=16):
    """E max over a finite tree set V of sum_t phi(eta_t v_t) is at most
    c log|V|, exactly over every path of random instances."""
    del resolution
    rng = np.random.default_rng(seed)
    rows, paths = [], 0
    for _ in range(n_instances):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(2, max_sets + 1))
        pvals = _random_prob_trees(rng, n)
        # value trees in [p - 1, p] nodewise
        vtrees = pvals[None, :] - rng.uniform(size=(k, pvals.size))
        value = _estimation_value(pvals, vtrees, n)
        paths += 1 << n
        rows.append((n, k, value, ESTIMATION_CONSTANT * math.log(k)))
    ns, ks, values, bounds = np.array(rows).T
    max_ratio = np.max(values / bounds, initial=0.0, where=values > 0)
    return _report(
        "ESTIMATION",
        (
            f"{n_instances} random instances, n<= {max_n}, |V|<= {max_sets}; "
            f"max observed value/bound ratio {max_ratio:.3g}"
        ),
        [bounds - values],
        (np.arange(n_instances), ns, ks, values),
        points=paths,
    )


def _validate_resolution(resolution):
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(
            f"resolution must be finite and positive, got {resolution!r}"
        )


# check id -> (check, whether it takes the seed), in report order
_CHECKS = {
    "PHI_LIPSCHITZ": (_check_phi_lipschitz, False),
    "SC_POINTWISE": (_check_sc_pointwise, False),
    "SC_EDGE": (_check_sc_edge, False),
    "NESTEROV": (_check_nesterov, False),
    "SELF_CONCORDANT": (_check_self_concordant, False),
    "CLIPPING": (_check_clipping, False),
    "KL_EPS": (_check_kl_eps, False),
    "ETA_IDENTITY": (_check_eta_identity, True),
    "ESTIMATION": (_check_estimation, True),
}
CHECK_IDS = tuple(_CHECKS)


def run_check(check_id: str, resolution: float = 1e-3, seed: int = 0, **kwargs):
    """Run one named inequality check; see CHECK_IDS.  Keywords go to the
    check, so one it does not take raises TypeError."""
    _validate_resolution(resolution)
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check_id: {check_id!r}")
    check, seeded = _CHECKS[check_id]
    if seeded:
        return check(resolution, seed, **kwargs)
    return check(resolution, **kwargs)


def sup_psi(lam: float, resolution: float = 1e-3):
    """Grid maximum of psi(p, lam, v) over p in [0,1], v in [p-1, p],
    followed by one golden-section refinement in v at the best p.
    Returns (sup_value, (p, v)); psi checks lam."""
    _validate_resolution(resolution)
    m = _steps(1.0, resolution) + 1
    p = np.linspace(0.0, 1.0, m)
    u = np.linspace(0.0, 1.0, m)
    # v = p - 1 + u spans [p-1, p]; the first maximum is the first minimum
    # of -psi, NaN first as for np.argmax
    k, low, _ = _first_min(_block_values(
        lambda p, u: -psi(p, lam, p - 1.0 + u), p[:, None], u[None, :]
    ))
    top = -low
    i, j = divmod(k, m)
    p_best = float(p[i])
    v_best = float(p[i] - 1.0 + u[j])

    from .bounds import golden_section

    lo = max(p_best - 1.0, v_best - 2.0 * resolution)
    hi = min(p_best, v_best + 2.0 * resolution)
    v_ref = golden_section(lambda x: -psi(p_best, lam, x), lo, hi, tol=1e-12)
    best = float(psi(p_best, lam, v_ref))
    if best >= top:
        return best, (p_best, float(v_ref))
    return top, (p_best, v_best)


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
    equals 1/c up to grid error, a lambda sufficient for sup psi <= 1 but
    not the largest: sup_psi reads exactly 1 up to lambda about 0.429.

    Points with |v| < resolution are excluded (0/0 as v -> 0), and NaN
    ratios are skipped.
    """
    _validate_resolution(resolution)
    if resolution > 1e-3:
        raise ValueError("resolution must be <= 1e-3")
    m = _steps(1.0, resolution)
    p = np.linspace(resolution, 1.0 - resolution, m)
    u = np.linspace(0.0, 1.0, m)[None, :]
    cases = (
        # case 1: v from p-1 up to -resolution, where the interval is nonempty
        (_case1_ratio, p - 1.0, (-resolution) - (p - 1.0)),
        # case 2: v from resolution up to p
        (_case2_ratio, np.full(m, resolution), p - resolution),
    )
    best = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for ratio, start, span in cases:
            ok = span > 0
            blocks = _block_values(lambda p, a, s, u: ratio(p, a + u * s),
                                   p[ok, None], start[ok, None], span[ok, None], u)
            low = _first_min(np.where(np.isnan(r), np.inf, r) for r in blocks)
            best = min(best, low[1])
    return best
