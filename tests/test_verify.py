import math

import numpy as np
import pytest

from logloss_lab import verify as verify_mod
from logloss_lab.core import (
    LAMBDA_STAR,
    eta,
    kl_bernoulli,
    log_loss,
    omega,
    phi,
)
from logloss_lab.verify import (
    CHECK_IDS,
    CheckReport,
    lambda_threshold_scan,
    run_check,
    sup_psi,
    _case1_ratio,
    _case2_ratio,
)

SEEDED = ("ETA_IDENTITY", "ESTIMATION")


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_every_check_passes(check_id):
    r = run_check(check_id, resolution=1e-3, seed=0)
    assert r.passed, f"{check_id}: worst slack {r.worst_slack} at {r.worst_point}"
    assert r.worst_slack >= -r.tolerance


def test_unknown_check():
    with pytest.raises(ValueError):
        run_check("NOT_A_CHECK")
    with pytest.raises(ValueError):
        run_check("KL_EPS", resolution=0.0)


@pytest.mark.parametrize("check_id", ["CLIPPING", "KL_EPS"])
def test_resolution_that_empties_an_axis(check_id):
    run_check(check_id, resolution=0.5)  # one point on the (res, 0.5] axis
    with pytest.raises(ValueError, match=rf"{check_id}: resolution 0\.6"):
        run_check(check_id, resolution=0.6)


def test_sc_pointwise_diagonal_equality():
    # f = p gives slack exactly zero
    for p in np.linspace(0.05, 0.95, 19):
        lhs = log_loss(p, 1) - log_loss(p, 1)
        rhs = phi(eta(p, 1) * (p - p))
        assert abs(rhs - lhs) < 1e-12


def test_eta_identity_other_horizons():
    for n in (1, 3, 5):
        r = run_check("ETA_IDENTITY", seed=1, n=n, n_trees=20)
        assert r.passed


def test_sup_psi_at_critical_lambda():
    val, (p, v) = sup_psi(LAMBDA_STAR, resolution=1e-2)
    assert val <= 1.0 + 1e-9
    assert abs(v) < 1e-6  # attained at v = 0


def test_sup_psi_below_and_above_threshold():
    assert sup_psi(0.1, resolution=1e-2)[0] <= 1.0 + 1e-9
    assert sup_psi(1.0, resolution=1e-2)[0] > 1.0


def test_sup_psi_monotone_below_threshold():
    sups = [sup_psi(lam, resolution=1e-2)[0] for lam in (0.1, 0.2, 0.31)]
    assert sups[0] <= sups[1] + 1e-9
    assert sups[1] <= sups[2] + 1e-9
    with pytest.raises(ValueError):
        sup_psi(0.0)


def test_lambda_scan_near_critical():
    got = lambda_threshold_scan(1e-3)
    assert abs(got - LAMBDA_STAR) <= 1e-3


def _case1_ratio_reference(p, v):
    """The case-1 ratio with numerator and denominator written out."""
    num = np.log(p) + np.log(1 - p - v) - np.log(p - v) - np.log(1 - p - 2 * v)
    den = (
        np.log(p)
        + np.log(1 - p - v)
        - np.log(p - v)
        - np.log(1 - p)
        + 2 * v / (1 - p)
    )
    return num / den


def _case2_ratio_reference(p, v):
    """The case-2 ratio with numerator and denominator written out."""
    num = np.log(1 - p) + np.log(p + v) - np.log(1 - p + v) - np.log(p + 2 * v)
    den = (
        np.log(1 - p)
        + np.log(p + v)
        - np.log(1 - p + v)
        - np.log(p)
        - 2 * v / p
    )
    return num / den


def test_lambda_scan_ratios_match_written_out_forms():
    # the scan's own grid at resolution 1e-3; the shared prefix is computed
    # once, in the same order, so every value (NaNs too) is the same
    res = 1e-3
    m = int(math.floor(1.0 / res))
    p = np.linspace(res, 1.0 - res, m)
    u = np.linspace(0.0, 1.0, m)[None, :]
    span1, span2 = -res - (p - 1.0), p - res
    v1 = (p[:, None] - 1.0) + u * np.where(span1 > 0, span1, 0.0)[:, None]
    v2 = res + u * np.where(span2 > 0, span2, 0.0)[:, None]
    cases = [
        (_case1_ratio, _case1_ratio_reference, v1, span1 > 0),
        (_case2_ratio, _case2_ratio_reference, v2, span2 > 0),
    ]
    best = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for fast, ref, v, ok in cases:
            want = ref(p[:, None], v)
            assert np.array_equal(fast(p[:, None], v), want, equal_nan=True)
            best = min(best, float(np.nanmin(want[ok, :])))
    assert lambda_threshold_scan(res) == best


def test_lambda_scan_case1_small_p_stays_above():
    # restricted to p <= 1/2, the case-1 ratio stays above the critical value
    p = np.linspace(1e-3, 0.5, 400)[:, None]
    u = np.linspace(0.0, 1.0, 400)[None, :]
    v = (p - 1.0) + u * (1.0 - p - 1e-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _case1_ratio(p, v)
    assert np.nanmin(r) > LAMBDA_STAR


def test_lambda_scan_boundary_closed_form():
    # at v = p - 1 the ratio reduces to (log p + log 2 - log 3)/(log p + log 2 - 2)
    for p in (0.2, 0.5, 0.9, 0.999):
        got = float(_case1_ratio(np.array(p), np.array(p - 1.0)))
        want = (math.log(p) + math.log(2) - math.log(3)) / (
            math.log(p) + math.log(2) - 2.0
        )
        assert got == pytest.approx(want, rel=1e-10)


def test_lambda_scan_resolution_guard():
    with pytest.raises(ValueError):
        lambda_threshold_scan(1e-2)


def test_report_fields():
    r = run_check("SC_EDGE", resolution=1e-4)
    assert r.check_id == "SC_EDGE"
    assert r.passed == (r.worst_slack >= -r.tolerance)
    assert len(r.worst_point) >= 1
    assert "step" in r.grid_spec


# Test references for the reductions: the all-pairs PHI_LIPSCHITZ loop and
# a report that indexes an explicit array of every grid point.


def _pairwise_phi_lipschitz(resolution, fn=phi):
    """PHI_LIPSCHITZ of `fn` over all m^2 pairs, compared in row chunks."""
    m = int(math.floor(200.0 / resolution)) + 1
    s = np.linspace(-100.0, 100.0, m)
    phis = fn(s)
    worst, worst_pt = np.inf, (s[0], s[0])
    chunk = max(1, int(4e6 // m))
    for start in range(0, m, chunk):
        sl = slice(start, start + chunk)
        gap = 2.0 * np.abs(s[sl, None] - s[None, :])
        slack = gap - (phis[sl, None] - phis[None, :])
        k = int(np.argmin(slack))
        if slack.flat[k] < worst:
            worst = float(slack.flat[k])
            i, j = divmod(k, m)
            worst_pt = (float(s[start + i]), float(s[j]))
    return worst, worst_pt


def _report_from_points(check_id, grid_spec, slack, coords, tolerance):
    """`_report` by an (N, len(coords)) array of every grid point."""
    slack = np.asarray(slack, dtype=float)
    points = np.column_stack(
        [np.broadcast_to(c, slack.shape).ravel() for c in coords]
    )
    flat = slack.ravel()
    finite = np.where(np.isfinite(flat), flat, np.inf)
    k = int(np.argmin(finite))
    worst = float(finite[k])
    return CheckReport(
        check_id=check_id,
        grid_spec=grid_spec,
        worst_slack=worst,
        worst_point=tuple(float(c) for c in points[k]),
        tolerance=tolerance,
        passed=worst >= -tolerance,
    )


def _wavy_phi(z):
    """phi plus a wave: its slope reaches 4.5, so the worst pair has s > t."""
    return phi(z) + 2.5 * np.sin(z)


def _mirrored_wavy_phi(z):
    """Slope down to -4.5, so the worst pair has s < t."""
    return _wavy_phi(-z)


@pytest.mark.parametrize(
    "fn,resolution",
    [(phi, 0.1), (phi, 2e-2), (phi, 1e-2),
     (_wavy_phi, 0.1), (_wavy_phi, 2e-2),
     (_mirrored_wavy_phi, 0.1), (_mirrored_wavy_phi, 2e-2)],
)
def test_phi_lipschitz_reduction_matches_all_pairs(fn, resolution, monkeypatch):
    monkeypatch.setattr(verify_mod, "phi", fn)
    r = run_check("PHI_LIPSCHITZ", resolution=resolution)
    worst, worst_pt = _pairwise_phi_lipschitz(resolution, fn)
    assert r.worst_slack == worst
    assert r.worst_point == worst_pt
    assert r.passed == (worst >= -1e-9) == (fn is phi)
    s, t = r.worst_point
    assert 2.0 * abs(s - t) - (fn(s) - fn(t)) == r.worst_slack


@pytest.mark.parametrize(
    "check_id,seed",
    [(c, s) for c in CHECK_IDS for s in ((0, 1, 3) if c in SEEDED else (0,))],
)
def test_reports_match_explicit_points(check_id, seed, monkeypatch):
    got = run_check(check_id, resolution=1e-2, seed=seed)
    monkeypatch.setattr(verify_mod, "_report", _report_from_points)
    assert got == run_check(check_id, resolution=1e-2, seed=seed)


def _edge_slack(f, p):
    if p == 1.0:
        return math.log(2.0 - f) - 2.0 * (1.0 - f) - math.log(f)
    return math.log1p(f) - 2.0 * f - math.log1p(-f)


def _nesterov_slack(s, t, y):
    hess = 1.0 / s**2 if y == 1 else 1.0 / (1.0 - s) ** 2
    d = t - s
    return (log_loss(t, y) - log_loss(s, y) - eta(s, y) * d
            - omega(math.sqrt(hess) * abs(d)))


def _self_concordant_slack(s, y):
    x = s if y == 1 else 1.0 - s
    bound = 2.0 * x**-2 * math.sqrt(x**-2)
    return (bound - 2.0 / x**3) / bound


# each grid check's slack at one point, in the order of its worst_point
SLACK_AT = {
    "SC_POINTWISE": lambda p, f, y: (
        phi(eta(p, y) * (p - f)) - (log_loss(p, y) - log_loss(f, y))
    ),
    "SC_EDGE": _edge_slack,
    "NESTEROV": _nesterov_slack,
    "SELF_CONCORDANT": _self_concordant_slack,
    "CLIPPING": lambda p, d, y: (
        log_loss(p, y) + 2.0 * d - log_loss(min(max(p, d), 1.0 - d), y)
    ),
    "KL_EPS": lambda e, q: (
        kl_bernoulli(e, q)
        - (e / 4.0) * (q >= 2.0 * e) - (e / 6.0) * (q <= e / 2.0)
    ),
}


@pytest.mark.parametrize("check_id", sorted(SLACK_AT))
def test_worst_point_reproduces_worst_slack(check_id):
    r = run_check(check_id, resolution=1e-2)
    at = float(SLACK_AT[check_id](*r.worst_point))
    assert at == pytest.approx(r.worst_slack, abs=1e-12)


def test_nan_or_minus_inf_slack_fails(monkeypatch):
    monkeypatch.setattr(verify_mod, "phi", lambda z: np.full_like(z, np.nan))
    r = run_check("SC_POINTWISE", resolution=1e-2)
    assert math.isnan(r.worst_slack) and not r.passed
    monkeypatch.setattr(
        verify_mod, "phi", lambda z: np.where(z > 0.5, -np.inf, phi(z))
    )
    r = run_check("SC_POINTWISE", resolution=1e-2)
    assert r.worst_slack == -np.inf and not r.passed
