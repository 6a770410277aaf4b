import math

import numpy as np
import pytest

from logloss_lab.bounds import (
    BoundParams,
    fit_rate_exponent,
    golden_section,
    rate_exponents,
    self_concordance_bound,
    truncation_bound,
)
from logloss_lab.core import ESTIMATION_CONSTANT
from logloss_lab.cover import EntropyCurve


def test_golden_section_quadratic():
    x = golden_section(lambda t: (t - 1.3) ** 2, -10.0, 10.0, tol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-8)


def test_bound_params_validation():
    BoundParams(gamma=0.5, delta=0.1, alpha=0.2)
    with pytest.raises(ValueError):
        BoundParams(gamma=0.1, delta=0.1, alpha=0.2)
    with pytest.raises(ValueError):
        BoundParams(gamma=0.5, delta=0.7, alpha=0.2)


def test_single_scale_closed_form():
    # H = C / gamma: infimum of 4 n gamma + c C / gamma is 4 sqrt(n c C)
    c = ESTIMATION_CONSTANT
    for C, n in [(1.0, 100), (3.0, 10_000)]:
        H = EntropyCurve.power(C, 1.0)
        val, gstar = self_concordance_bound(H, n)
        assert val == pytest.approx(4.0 * math.sqrt(n * c * C), rel=1e-6)
        assert gstar == pytest.approx(math.sqrt(c * C / (4.0 * n)), rel=1e-4)


def test_single_scale_survives_an_overflowing_curve():
    # C * gamma**-80 overflows a double below gamma ~ 1.4e-4, well inside the
    # bracket [1/n^2, 1]; such points score +inf instead of raising
    val, gstar = self_concordance_bound(EntropyCurve.power(1.0, 80.0), 1024)
    assert math.isfinite(val) and val > 0
    assert 1.0 / 1024**2 < gstar <= 1.0
    c = ESTIMATION_CONSTANT
    assert val == pytest.approx(4.0 * 1024 * gstar + c * gstar**-80.0)


def test_single_scale_general_power():
    # stationarity: 4n = c C p gamma^{-p-1}
    H = EntropyCurve.power(2.0, 2.5)
    n = 5000
    val, gstar = self_concordance_bound(H, n)
    g_analytic = (ESTIMATION_CONSTANT * 2.0 * 2.5 / (4.0 * n)) ** (1 / 3.5)
    v_analytic = 4 * n * g_analytic + ESTIMATION_CONSTANT * 2.0 * g_analytic**-2.5
    assert val == pytest.approx(v_analytic, rel=1e-6)
    assert gstar == pytest.approx(g_analytic, rel=1e-4)


def test_single_scale_zero_entropy():
    val, _ = self_concordance_bound(EntropyCurve.power(0.0, 1.0), 100)
    assert val <= 1e-20


def test_single_scale_log_entropy():
    # stationary point gamma* = c d / (4n) for H = d log(1/gamma)
    n = 100
    H = EntropyCurve.log_form(1.0)
    val, gstar = self_concordance_bound(H, n)
    c = ESTIMATION_CONSTANT
    g_an = c / (4.0 * n)
    v_an = 4 * n * g_an + c * math.log(1.0 / g_an)
    assert val == pytest.approx(v_an, rel=1e-6)
    assert gstar == pytest.approx(g_an, rel=1e-3)


def test_bounds_monotone_in_n():
    H = EntropyCurve.power(1.0, 2.0)
    sc = [self_concordance_bound(H, n)[0] for n in (100, 1000, 10000)]
    tr = [truncation_bound(H, n)[0] for n in (100, 1000, 10000)]
    assert sc == sorted(sc)
    assert tr == sorted(tr)


def test_bounds_monotone_in_entropy():
    n = 4096
    lo = EntropyCurve.power(1.0, 1.5)
    hi = EntropyCurve.power(2.0, 1.5)
    assert self_concordance_bound(lo, n)[0] <= self_concordance_bound(hi, n)[0]
    assert truncation_bound(lo, n)[0] <= truncation_bound(hi, n)[0] + 1e-9


def test_truncation_beats_nothing_fancy():
    # sanity: the optimized value is no worse than the analytic warm start
    from logloss_lab.bounds import _truncation_objective, _warm_starts

    H = EntropyCurve.power(1.0, 2.0)
    n = 2**14
    obj = _truncation_objective(H, n)
    val, params = truncation_bound(H, n)
    assert val == pytest.approx(obj(params.gamma, params.delta, params.alpha))
    rng = np.random.default_rng(0)
    for g0, d0, a0 in _warm_starts(H, n, rng):
        assert val <= obj(g0, d0, a0) + 1e-9


def test_truncation_value_scale():
    # value/n^{3/4} lands in a moderate band for H = gamma^{-2}
    H = EntropyCurve.power(1.0, 2.0)
    n = 2**16
    tr, _ = truncation_bound(H, n)
    sc, _ = self_concordance_bound(H, n)
    assert 0.1 <= tr / n**0.75 <= 100.0
    assert sc < tr


def test_truncation_zero_entropy():
    val, _ = truncation_bound(EntropyCurve.power(0.0, 1.0), 100)
    assert val < 1.0


def test_rate_exponents_table():
    r = rate_exponents(2.0)
    assert r.new_exponent == pytest.approx(2 / 3)
    assert r.old_exponent == pytest.approx(3 / 4)
    assert r.ratio_exponent == pytest.approx(1 / 12)
    r = rate_exponents(0.5)
    assert r.new_exponent == pytest.approx(1 / 3)
    assert r.old_exponent == pytest.approx(1 / 3)
    assert r.ratio_exponent == 0.0
    r = rate_exponents(200.0)
    assert r.new_exponent > 0.99
    assert r.old_exponent > 0.99
    with pytest.raises(ValueError):
        rate_exponents(0.0)


@pytest.mark.parametrize("gammas, uppers, n", [
    ((0.01, 0.1, 0.5, 1.0), (100.0, 99.0, 1.0, 0.0), 100),
    ((0.001, 0.3, 0.6, 0.9), (50.0, 49.5, 2.0, 1.9), 30),
    ((0.5, 2.0), (1.0, 1.0), 10),  # the infimum is the gamma -> 0 limit
])
def test_single_scale_bound_on_tabulated_curve_is_exact(gammas, uppers, n):
    # the objective is piecewise linear, so a dense geometric grid over
    # (0, 1] comes within its spacing of the exact infimum, from above
    H = EntropyCurve.tabulated(gammas, np.zeros(len(gammas)), uppers)
    value, gamma = self_concordance_bound(H, n)
    grid = np.geomspace(1e-12, 1.0, 2 * 10**6)
    objective = 4.0 * n * grid + ESTIMATION_CONSTANT * np.interp(grid, gammas, uppers)
    i = int(np.argmin(objective))
    assert value <= objective[i]
    assert value == pytest.approx(objective[i], rel=1e-4)
    assert gamma == pytest.approx(grid[i], rel=1e-4, abs=1e-11)


def test_fit_single_scale_exponents():
    ns = [2**k for k in range(10, 21)]
    for p in (1.0, 2.0):
        slope = fit_rate_exponent("self_concordance", 1.0, p, ns)
        assert slope == pytest.approx(p / (p + 1), abs=0.02)
    # from 2^63 on the grid no longer fits int64
    slope = fit_rate_exponent("self_concordance", 1.0, 2.0,
                              [2**k for k in range(60, 71)])
    assert slope == pytest.approx(2 / 3, abs=1e-9)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_rate_exponent("self_concordance", 1.0, 2.0, [16, 32])
    with pytest.raises(ValueError):
        fit_rate_exponent("nope", 1.0, 2.0, [2**k for k in range(10, 17)])
    with pytest.raises(ValueError):
        fit_rate_exponent("self_concordance", 1.0, 2.0, [16] * 8)
    with pytest.raises(ValueError, match="degenerate grid: horizon 4096 "):
        fit_rate_exponent("self_concordance", 1.0, 2.0,
                          [2**k for k in range(10, 16)] + [2**12])


def test_horizons_past_a_double_square_are_refused():
    # the single-scale bracket starts at 1/n^2, a double only below 2^512
    H = EntropyCurve.power(1.0, 2.0)
    assert math.isfinite(self_concordance_bound(H, 2**511)[0])
    for n in (2**512, 0, math.nan, math.inf):
        for bound in (self_concordance_bound, truncation_bound):
            with pytest.raises(ValueError, match=f"got n = {n}"):
                bound(H, n)
    grid = [2**k for k in range(10, 15)] + [2**512]
    with pytest.raises(ValueError, match=f"got n = {2**512}"):
        fit_rate_exponent("self_concordance", 1.0, 2.0, grid)


def test_fit_of_zero_curve_has_no_rate():
    # the sweep of a zero curve reads the optimisers' stopping points (slopes
    # 0.519 and 1.000 here), not the bounds, which are 0 at every n
    ns = [2**k for k in range(10, 16)]
    for bound in ("self_concordance", "truncation"):
        with pytest.raises(ValueError, match="identically zero"):
            fit_rate_exponent(bound, 0.0, 2.0, ns)


# ---------------------------------------------------------------------------
# Reference: the per-evaluation objective and coordinate-descent loop that the
# one-coordinate line searches replace, with the power-curve integrals and
# H(gamma) written out inline.
# ---------------------------------------------------------------------------


def _reference_power_integral(C, p, a, b, sqrt):
    if C == 0:
        return 0.0
    if sqrt:
        C, p = math.sqrt(C), p / 2.0
    if abs(p - 1.0) < 1e-12:
        return C * (math.log(b) - math.log(a))
    e = 1.0 - p
    return C * (b**e - a**e) / e


def _reference_objective(C, p, n):
    def obj(gamma, delta, alpha):
        if not (gamma >= alpha > 0) or not (0 < delta <= 0.5):
            return math.inf
        try:
            i_sqrt = _reference_power_integral(C, p, alpha, gamma, True)
            i_full = _reference_power_integral(C, p, alpha, gamma, False)
        except (OverflowError, ValueError):
            return math.inf
        if not (math.isfinite(i_sqrt) and math.isfinite(i_full)):
            return math.inf
        return (
            4.0 * n * alpha / delta
            + 30.0 * math.sqrt(2.0 * n / delta) * i_sqrt
            + (8.0 / delta) * i_full
            + C * gamma ** (-p)
            + 3.0 * n * delta * math.log(1.0 / delta)
        )

    return obj


def _reference_truncation_bound(C, p, n, seed):
    from logloss_lab.bounds import _warm_starts

    obj = _reference_objective(C, p, n)
    rng = np.random.default_rng(seed)
    lo = math.log(1e-12)
    best_val, best_params = math.inf, None
    for g0, d0, a0 in _warm_starts(EntropyCurve.power(C, p), n, rng):
        lg, ld, la = math.log(g0), math.log(d0), math.log(a0)
        val = obj(g0, d0, a0)
        argmin = (lg, ld, la)
        for _ in range(12):
            lg = golden_section(
                lambda x: obj(math.exp(x), math.exp(ld), math.exp(la)),
                max(la, lo),
                0.0,
                tol=1e-9,
            )
            ld = golden_section(
                lambda x: obj(math.exp(lg), math.exp(x), math.exp(la)),
                lo,
                math.log(0.5),
                tol=1e-9,
            )
            la = golden_section(
                lambda x: obj(math.exp(lg), math.exp(ld), math.exp(x)),
                lo,
                lg,
                tol=1e-9,
            )
            new_val = obj(math.exp(lg), math.exp(ld), math.exp(la))
            if new_val >= val - 1e-12 * max(1.0, abs(val)):
                if new_val < val:
                    val, argmin = new_val, (lg, ld, la)
                break
            val, argmin = new_val, (lg, ld, la)
        if val < best_val:
            best_val = val
            best_params = (
                math.exp(argmin[0]),
                math.exp(argmin[1]),
                math.exp(argmin[2]),
            )
    return best_val, best_params


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_truncation_bound_matches_reference_loop(p):
    # bit for bit: the value and all three parameters
    for C in (0.0, 0.5, 2.0):
        for n in (2, 2**5, 2**10, 2**15, 2**20):
            for seed in range(3):
                val, params = truncation_bound(EntropyCurve.power(C, p), n, seed=seed)
                got = (val, params.gamma, params.delta, params.alpha)
                ref_val, ref_params = _reference_truncation_bound(C, p, n, seed)
                assert got == (ref_val, *ref_params), (C, p, n, seed)


def _curves_of_every_kind():
    gammas = 2.0 ** -np.arange(0, 21)
    return [
        EntropyCurve.power(1.0, 0.5),
        EntropyCurve.power(1.0, 2.0),
        EntropyCurve.power(0.0, 1.0),
        EntropyCurve.log_form(2.0),
        EntropyCurve.tabulated(gammas, 0.5 / gammas, 1.0 / gammas),
    ]


@pytest.mark.parametrize("H", _curves_of_every_kind(), ids=lambda H: f"{H.kind}")
def test_line_objectives_equal_full_objective(H):
    from logloss_lab.bounds import _line_objectives, _truncation_objective

    n = 3000  # not a power of two, so 4n * alpha / delta != 4n * (alpha / delta)
    obj = _truncation_objective(H, n)
    over_gamma, over_delta, over_alpha = _line_objectives(H, n)
    rng = np.random.default_rng(5)
    # log-coordinates in and around the optimiser's brackets, so some points
    # leave the domain (alpha > gamma, delta > 1/2)
    for lg, ld, la in rng.uniform(math.log(1e-12), 0.5, size=(1000, 3)):
        g, d, a = math.exp(lg), math.exp(ld), math.exp(la)
        want = obj(g, d, a)
        assert over_gamma(d, a)(lg) == want
        assert over_delta(g, a)(ld) == want
        assert over_alpha(g, d)(la) == want


@pytest.mark.parametrize("kind", ["log", "tabulated"])
def test_truncation_bound_other_curve_kinds(kind):
    H = _curves_of_every_kind()[3 if kind == "log" else 4]
    for n in (2**10, 2**16):
        val, params = truncation_bound(H, n)
        assert math.isfinite(val) and val > 0
        assert params.gamma >= params.alpha > 0
