"""Regret upper bounds as functions of an entropy curve.

Two bounds are compared: the single-scale bound 4*n*gamma + c*H(gamma)
with c = (2 - log 2)/(log 3 - log 2), and the earlier truncation-based
bound with free parameters (gamma, delta, alpha) combining a 4*n*alpha/delta
term, entropy integrals, and a 3*n*delta*log(1/delta) truncation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ESTIMATION_CONSTANT, _check_distinct_horizons, _loglog_slope
from .cover import EntropyCurve

__all__ = [
    "BoundParams",
    "RateReport",
    "golden_section",
    "self_concordance_bound",
    "truncation_bound",
    "rate_exponents",
    "fit_rate_exponent",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
_MAX_HORIZON = math.isqrt(int(np.finfo(float).max))  # its square is a double


@dataclass
class BoundParams:
    gamma: float
    delta: float
    alpha: float

    def __post_init__(self):
        if not (self.gamma >= self.alpha > 0):
            raise ValueError("need gamma >= alpha > 0")
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")


@dataclass
class RateReport:
    p: float
    new_exponent: float
    old_exponent: float
    ratio_exponent: float


def golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Argmin of a unimodal f on [lo, hi]."""
    dist = hi - lo
    if dist <= tol:
        return (lo + hi) / 2.0
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc, yd = f(c), f(d)
    n_iter = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    for _ in range(n_iter):
        if yc < yd:
            hi, d, yd = d, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            dist *= _INV_PHI
            d = lo + _INV_PHI * dist
            yd = f(d)
    return (lo + hi) / 2.0


def _check_horizons(ns) -> None:
    """Raise, naming the first, unless every horizon n is >= 1 with n^2 a
    finite double (the single-scale bracket starts at 1/n^2)."""
    for n in ns:
        if not 1 <= n <= _MAX_HORIZON:
            raise ValueError(f"horizons must be >= 1 with n^2 a double, got n = {n}")


def self_concordance_bound(H: EntropyCurve, n: int):
    """Infimum over gamma in (0, 1] of 4*n*gamma + c*H(gamma); returns
    (value, gamma_star).  On a tabulated curve it is exact: the objective
    is linear between knots and flat below the first, so the least value at
    a knot below 1, at 1, or the limit c*H(0+) with gamma_star = 0.  Else a
    golden section's bracket extends below 1/n^2 while the lower endpoint
    keeps winning, so flat curves drive the value to zero.  An H(gamma)
    that overflows counts as +inf."""
    _check_horizons((n,))
    c = ESTIMATION_CONSTANT
    if H.kind == "tabulated":
        knots = [*H.gammas[H.gammas < 1.0].tolist(), 1.0]
        best, gamma = min((4.0 * n * g + c * H.value(g), g) for g in knots)
        limit = c * float(H.uppers[0])
        return (limit, 0.0) if limit < best else (best, gamma)

    def obj_log(lg):
        g = math.exp(lg)
        try:
            return 4.0 * n * g + c * H.value(g)
        except OverflowError:
            return math.inf

    lo, hi = math.log(1.0 / n**2), 0.0
    while True:
        lg_star = golden_section(obj_log, lo, hi, tol=1e-10)
        interior = lg_star > lo + 1e-6
        if interior or lo < math.log(1e-30):
            break
        hi = lo
        lo -= math.log(100.0)
    best, best_lg = obj_log(lg_star), lg_star
    for cand in (lo, hi):
        val = obj_log(cand)
        if val < best:
            best, best_lg = val, cand
    return best, math.exp(best_lg)


def _truncation_objective(H: EntropyCurve, n: int):
    def obj(gamma, delta, alpha):
        if not (gamma >= alpha > 0) or not (0 < delta <= 0.5):
            return math.inf
        try:
            i_sqrt = H.integral_sqrt(alpha, gamma)
            i_full = H.integral(alpha, gamma)
        except (OverflowError, ValueError):
            return math.inf
        if not (math.isfinite(i_sqrt) and math.isfinite(i_full)):
            return math.inf
        return (
            4.0 * n * alpha / delta
            + 30.0 * math.sqrt(2.0 * n / delta) * i_sqrt
            + (8.0 / delta) * i_full
            + H.value(gamma)
            + 3.0 * n * delta * math.log(1.0 / delta)
        )

    return obj


def _warm_starts(H: EntropyCurve, n: int, rng):
    starts = []
    if H.kind == "power" and H.C > 0:
        p = H.p
        alpha = n ** (-1.0 / p)
        if p <= 1:
            starts.append((n ** (-1.0 / (p + 1)), n ** (-1.0 / (p + 1)), alpha))
        elif p <= 2:
            starts.append(
                (
                    n ** (-(2 * p + 1) / (2 * p * (2 + p))),
                    n ** (-1.0 / (2 * p)),
                    alpha,
                )
            )
        else:
            starts.append((1.0, n ** (-1.0 / (2 * p)), alpha))
    starts.append((n ** (-0.5), n ** (-0.5), 1.0 / n))
    for _ in range(3):
        lg, ld, la = rng.uniform(math.log(1.0 / n), 0.0, size=3)
        starts.append(
            (math.exp(lg), 0.5 * math.exp(ld), min(math.exp(la), math.exp(lg)))
        )
    out = []
    for g, d, a in starts:
        out.append((min(g, 1.0), min(max(d, 1e-12), 0.5), min(a, g)))
    return out


def _line_objectives(H: EntropyCurve, n: int):
    """The truncation objective restricted to one coordinate at a time.

    Returns (over_gamma, over_delta, over_alpha).  over_gamma(delta, alpha)
    is x -> obj(exp(x), delta, alpha), and likewise for the other two.
    Whatever does not depend on the moving coordinate (the fixed
    coordinates' terms, the fixed endpoint's edge, H(gamma) when gamma is
    held) is computed once per line.  The terms are added in the order of
    _truncation_objective, so each evaluation returns the same double.
    """
    edge_s, coef_s, div_s = H.antiderivative(sqrt=True)
    edge_f, coef_f, div_f = H.antiderivative()
    value = H.unchecked_value
    four_n, two_n, three_n = 4.0 * n, 2.0 * n, 3.0 * n
    exp, sqrt, log, isfinite = math.exp, math.sqrt, math.log, math.isfinite
    inf = math.inf

    def nowhere(x):
        return inf

    def over_gamma(delta, alpha):
        if not (alpha > 0 and 0 < delta <= 0.5):
            return nowhere
        try:
            low_s, low_f = edge_s(alpha), edge_f(alpha)
        except (OverflowError, ValueError):
            return nowhere
        head = four_n * alpha / delta
        k_sqrt = 30.0 * sqrt(two_n / delta)
        k_full = 8.0 / delta
        tail = three_n * delta * log(1.0 / delta)

        def f(x):
            gamma = exp(x)
            if not gamma >= alpha:
                return inf
            try:
                i_sqrt = coef_s * (edge_s(gamma) - low_s) / div_s
                i_full = coef_f * (edge_f(gamma) - low_f) / div_f
            except (OverflowError, ValueError):
                return inf
            if not (isfinite(i_sqrt) and isfinite(i_full)):
                return inf
            return head + k_sqrt * i_sqrt + k_full * i_full + value(gamma) + tail

        return f

    def over_delta(gamma, alpha):
        if not gamma >= alpha > 0:
            return nowhere
        try:
            i_sqrt = coef_s * (edge_s(gamma) - edge_s(alpha)) / div_s
            i_full = coef_f * (edge_f(gamma) - edge_f(alpha)) / div_f
        except (OverflowError, ValueError):
            return nowhere
        if not (isfinite(i_sqrt) and isfinite(i_full)):
            return nowhere
        four_n_alpha = four_n * alpha
        h_gamma = value(gamma)

        def f(x):
            delta = exp(x)
            if not 0 < delta <= 0.5:
                return inf
            return (
                four_n_alpha / delta
                + 30.0 * sqrt(two_n / delta) * i_sqrt
                + (8.0 / delta) * i_full
                + h_gamma
                + three_n * delta * log(1.0 / delta)
            )

        return f

    def over_alpha(gamma, delta):
        if not 0 < delta <= 0.5:
            return nowhere
        try:
            high_s, high_f = edge_s(gamma), edge_f(gamma)
        except (OverflowError, ValueError):
            return nowhere
        k_sqrt = 30.0 * sqrt(two_n / delta)
        k_full = 8.0 / delta
        h_gamma = value(gamma)
        tail = three_n * delta * log(1.0 / delta)

        def f(x):
            alpha = exp(x)
            if not gamma >= alpha > 0:
                return inf
            try:
                i_sqrt = coef_s * (high_s - edge_s(alpha)) / div_s
                i_full = coef_f * (high_f - edge_f(alpha)) / div_f
            except (OverflowError, ValueError):
                return inf
            if not (isfinite(i_sqrt) and isfinite(i_full)):
                return inf
            return (
                four_n * alpha / delta
                + k_sqrt * i_sqrt
                + k_full * i_full
                + h_gamma
                + tail
            )

        return f

    return over_gamma, over_delta, over_alpha


def truncation_bound(H: EntropyCurve, n: int, seed: int = 0):
    """Numerically minimize the truncation-based bound over (gamma, delta,
    alpha) by log-space coordinate descent from analytic warm starts plus
    random restarts.  Each coordinate moves by a golden section on the
    objective restricted to that coordinate.  Returns (value, BoundParams)."""
    _check_horizons((n,))
    obj = _truncation_objective(H, n)
    over_gamma, over_delta, over_alpha = _line_objectives(H, n)
    rng = np.random.default_rng(seed)
    lo = math.log(1e-12)
    best_val, best_params = math.inf, None
    for g0, d0, a0 in _warm_starts(H, n, rng):
        lg, ld, la = math.log(g0), math.log(d0), math.log(a0)
        val = obj(g0, d0, a0)
        argmin = (lg, ld, la)
        for _ in range(12):
            lg = golden_section(
                over_gamma(math.exp(ld), math.exp(la)), max(la, lo), 0.0, tol=1e-9
            )
            ld = golden_section(
                over_delta(math.exp(lg), math.exp(la)), lo, math.log(0.5), tol=1e-9
            )
            la = golden_section(
                over_alpha(math.exp(lg), math.exp(ld)), lo, lg, tol=1e-9
            )
            new_val = obj(math.exp(lg), math.exp(ld), math.exp(la))
            if new_val >= val - 1e-12 * max(1.0, abs(val)):
                if new_val < val:
                    val, argmin = new_val, (lg, ld, la)
                break
            val, argmin = new_val, (lg, ld, la)
        if val < best_val:
            best_val = val
            best_params = BoundParams(
                gamma=math.exp(argmin[0]),
                delta=math.exp(argmin[1]),
                alpha=math.exp(argmin[2]),
            )
    return best_val, best_params


def rate_exponents(p: float) -> RateReport:
    """Polynomial-in-n exponents of both bounds for entropy gamma^-p (the
    truncation bound's parameter regimes are `_warm_starts`')."""
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p!r}")
    new = p / (p + 1.0)
    if p <= 1.0:
        old, ratio = new, 0.0
    else:
        old = (2.0 * p - 1.0) / (2.0 * p)
        ratio = (p - 1.0) / (2.0 * p * (p + 1.0))
    return RateReport(p=p, new_exponent=new, old_exponent=old, ratio_exponent=ratio)


def _check_has_rate(H: EntropyCurve) -> None:
    """Raise if the power or log curve H is identically zero: its bounds are
    0 at every n, so a sweep reads the optimisers' stopping points, whose
    slopes say nothing about the bounds."""
    if (H.C if H.kind == "power" else H.d) == 0.0:
        raise ValueError("a rate fit needs an entropy curve that is not "
                         "identically zero: its bounds are 0 at every n")


def fit_rate_exponent(bound: str, C: float, p: float, n_grid) -> float:
    """Least-squares slope of log(bound value) against log(n)."""
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 6:
        raise ValueError("need at least 6 grid points")
    _check_distinct_horizons(n_grid)
    _check_horizons(n_grid)
    H = EntropyCurve.power(C, p)
    _check_has_rate(H)
    solve = {"self_concordance": self_concordance_bound,
             "truncation": truncation_bound}.get(bound)
    if solve is None:
        raise ValueError(f"unknown bound: {bound!r}")
    return _loglog_slope(n_grid, [solve(H, n)[0] for n in n_grid])
