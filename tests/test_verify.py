import math

import numpy as np
import pytest

from logloss_lab import core as core_mod
from logloss_lab import verify as verify_mod
from logloss_lab.bounds import golden_section
from logloss_lab.core import (
    ESTIMATION_CONSTANT,
    LAMBDA_STAR,
    eta,
    kl_bernoulli,
    log_loss,
    omega,
    path_node_indices,
    phi,
    psi,
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


def test_lambda_star_is_sufficient_not_largest():
    # sup psi stays exactly 1 past 1/c = 0.310 and first exceeds it near
    # 0.43, where 2^lam e^{-2 lam} > 1 - lam along v = p with p small
    assert sup_psi(0.42, 1e-3)[0] == 1.0
    assert sup_psi(0.44, 1e-3)[0] > 1.0


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


# Test reference for the PHI_LIPSCHITZ reduction: the all-pairs loop.


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


# Test references for the blocked checks: each grid check's slack over its
# whole grid, as one array, reduced by one np.argmin; sup_psi's full grid;
# and the per-path enumeration of the tree checks.  They evaluate the
# kernels in one call (core._BLOCK raised past any grid).

_INTERIOR = f"[{verify_mod._EDGE:g},1-{verify_mod._EDGE:g}]"


def _argmin_report(check_id, grid_spec, slack, coords, points=None):
    slack = np.asarray(slack, dtype=float)
    k = np.unravel_index(int(np.argmin(slack)), slack.shape)
    worst = float(slack[k])
    return CheckReport(
        check_id=check_id,
        grid_spec=grid_spec,
        worst_slack=worst,
        worst_point=tuple(
            float(np.broadcast_to(c, slack.shape)[k]) for c in coords
        ),
        tolerance=1e-9,
        passed=worst >= -1e-9,
        points=slack.size if points is None else points,
    )


def _ref_phi_lipschitz(res, phi=phi):
    m = int(math.floor(200.0 / res)) + 1
    s = np.linspace(-100.0, 100.0, m)
    phis = phi(s)
    every = np.arange(m)
    rows = np.stack([every, verify_mod._running_argmax(2.0 * s + phis)])
    cols = np.stack([verify_mod._running_argmax(2.0 * s - phis), every])
    slack = 2.0 * np.abs(s[rows] - s[cols]) - (phis[rows] - phis[cols])
    spec = f"s,t in [-100,100] step {res:g} ({m}^2 points)"
    return _argmin_report("PHI_LIPSCHITZ", spec, slack, (s[rows], s[cols]))


def _ref_sc_pointwise(res, phi=phi):
    p = f = verify_mod._interior_grid(res)
    slacks = []
    for y in (0, 1):
        lp = log_loss(p, y)[:, None]
        lf = log_loss(f, y)[None, :]
        z = eta(p, y)[:, None] * (p[:, None] - f[None, :])
        slacks.append(phi(z) - (lp - lf))
    spec = f"p,f in {_INTERIOR} step {res:g}, y in {{0,1}}"
    coords = (p[None, :, None], f[None, None, :], verify_mod._Y[:, None, None])
    return _argmin_report("SC_POINTWISE", spec, np.stack(slacks), coords)


def _ref_sc_edge(res):
    f = np.linspace(0.0, 1.0, int(math.floor(1.0 / res)) + 1)
    with np.errstate(divide="ignore"):
        s1 = np.log(2.0 - f) - 2.0 * (1.0 - f) - np.log(f)
        s0 = np.log1p(f) - 2.0 * f - np.log1p(-f)
    spec = f"f in [0,1] step {res:g}, both boundary branches"
    coords = (f[None, :], np.array([[1.0], [0.0]]))
    return _argmin_report("SC_EDGE", spec, np.stack([s1, s0]), coords)


def _ref_nesterov(res):
    s = t = verify_mod._interior_grid(res)
    d = t[None, :] - s[:, None]
    slacks = []
    for y in (0, 1):
        fs = log_loss(s, y)[:, None]
        ft = log_loss(t, y)[None, :]
        grad = eta(s, y)[:, None]
        hess = np.where(y == 1, 1.0 / s**2, 1.0 / (1.0 - s) ** 2)[:, None]
        slacks.append(ft - fs - grad * d - omega(np.sqrt(hess) * np.abs(d)))
    spec = f"s,t in {_INTERIOR} step {res:g}, y in {{0,1}}"
    coords = (s[None, :, None], t[None, None, :], verify_mod._Y[:, None, None])
    return _argmin_report("NESTEROV", spec, np.stack(slacks), coords)


def _ref_self_concordant(res):
    s = verify_mod._interior_grid(res)
    slacks = []
    for x in (1.0 - s, s):  # y = 0, then y = 1
        hess = 1.0 / x**2
        bound = 2.0 * hess * np.sqrt(hess)
        slacks.append((bound - 2.0 / x**3) / bound)
    spec = (f"s in {_INTERIOR} step {res:g}, y in {{0,1}}; relative slack")
    coords = (s[None, :], verify_mod._Y[:, None])
    return _argmin_report("SELF_CONCORDANT", spec, np.stack(slacks), coords)


def _ref_clipping(res):
    p = np.linspace(0.0, 1.0, int(math.floor(1.0 / res)) + 1)
    d = np.linspace(res, 0.5, int(math.floor(0.5 / res)))
    clipped = np.clip(p[:, None], d[None, :], 1.0 - d[None, :])
    slack = np.stack([
        log_loss(p, y)[:, None] + 2.0 * d[None, :] - log_loss(clipped, y)
        for y in (0, 1)
    ])
    spec = (f"p in [0,1], delta in ({res:g},0.5] step {res:g}, y in {{0,1}}")
    coords = (p[None, :, None], d[None, None, :], verify_mod._Y[:, None, None])
    return _argmin_report("CLIPPING", spec, slack, coords)


def _ref_kl_eps(res):
    e = np.linspace(res, 0.5, int(math.floor(0.5 / res)))[:, None]
    q = np.linspace(0.0, 1.0, int(math.floor(1.0 / res)) + 1)[None, :]
    rhs = (e / 4.0) * (q >= 2.0 * e) + (e / 6.0) * (q <= e / 2.0)
    spec = f"eps in ({res:g},0.5], q in [0,1], step {res:g}"
    return _argmin_report("KL_EPS", spec, kl_bernoulli(e, q) - rhs, (e, q))


def _path_tables(pvals, n):
    """Per path: outcome bits, the probability at each round's node, and
    the path's weight."""
    idx = path_node_indices(n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    node_p = pvals[idx]
    w = np.where(bits == 1, node_p, 1.0 - node_p).prod(axis=1)
    return bits, node_p, w


def _path_eta_expectation(pvals, n):
    bits, node_p, w = _path_tables(pvals, n)
    abs_eta = np.where(bits == 1, 1.0 / node_p, 1.0 / (1.0 - node_p))
    return (w * abs_eta.sum(axis=1)).sum()


def _path_estimation_value(pvals, vtrees, n):
    bits, node_p, w = _path_tables(pvals, n)
    ev = np.where(bits == 1, -1.0 / node_p, 1.0 / (1.0 - node_p))
    scores = phi(ev[None, :, :] * vtrees[:, path_node_indices(n)]).sum(axis=2)
    return (w * scores.max(axis=0)).sum()


def _ref_eta_identity(seed, n=8, n_trees=100):
    rng = np.random.default_rng(seed)
    totals = np.array([
        _path_eta_expectation(verify_mod._random_prob_trees(rng, n), n)
        for _ in range(n_trees)
    ])
    spec = f"n={n}, {n_trees} random prob trees, exact enumeration"
    return _argmin_report(
        "ETA_IDENTITY", spec, -np.abs(totals - 2.0 * n),
        (np.arange(n_trees), totals), points=n_trees << n,
    )


def _ref_estimation(seed, n_instances=200, max_n=10, max_sets=16):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_instances):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(2, max_sets + 1))
        pvals = verify_mod._random_prob_trees(rng, n)
        vtrees = pvals[None, :] - rng.uniform(size=(k, pvals.size))
        value = _path_estimation_value(pvals, vtrees, n)
        rows.append((n, k, value, ESTIMATION_CONSTANT * math.log(k)))
    ns, ks, values, bounds = np.array(rows).T
    ratio = np.max(values / bounds, initial=0.0, where=values > 0)
    spec = (f"{n_instances} random instances, n<= {max_n}, |V|<= {max_sets}; "
            f"max observed value/bound ratio {ratio:.3g}")
    return _argmin_report(
        "ESTIMATION", spec, bounds - values,
        (np.arange(n_instances), ns, ks, values),
        points=int(sum(1 << int(n) for n in ns)),
    )


GRID_REFERENCES = {
    "PHI_LIPSCHITZ": _ref_phi_lipschitz,
    "SC_POINTWISE": _ref_sc_pointwise,
    "SC_EDGE": _ref_sc_edge,
    "NESTEROV": _ref_nesterov,
    "SELF_CONCORDANT": _ref_self_concordant,
    "CLIPPING": _ref_clipping,
    "KL_EPS": _ref_kl_eps,
}


def _one_call(monkeypatch, fn, *args, **kwargs):
    """fn(*args) with every kernel evaluated in one call."""
    with monkeypatch.context() as m:
        m.setattr(core_mod, "_BLOCK", 1 << 62)
        return fn(*args, **kwargs)


def _small_blocks(monkeypatch, block):
    monkeypatch.setattr(core_mod, "_BLOCK", block)


def _assert_tree_report_close(got, want):
    """Equal but for the last bits of the sums over 8 or more terms, which
    numpy adds pairwise; the worst tree may then be another within 1e-12."""
    assert (got.check_id, got.grid_spec, got.tolerance, got.passed,
            got.points) == (want.check_id, want.grid_spec, want.tolerance,
                            want.passed, want.points)
    assert got.worst_slack == pytest.approx(want.worst_slack, rel=1e-12, abs=1e-12)
    assert got.worst_point[1:] == pytest.approx(want.worst_point[1:], rel=1e-12)
    if got.check_id == "ESTIMATION":
        assert got.worst_point[0] == want.worst_point[0]


@pytest.mark.parametrize(
    "check_id,seed",
    [(c, s) for c in CHECK_IDS for s in ((0, 1, 3) if c in SEEDED else (0,))],
)
def test_reports_match_explicit_points(check_id, seed, monkeypatch):
    # every field equals the full-grid reference's, bit for bit (repr), at
    # two resolutions, with the default blocks and with blocks so small
    # that every grid row, and most kernel calls, are cut up
    plans = ((1e-2, None), (1e-2, 7), (1e-3, None), (1e-3, 1000))
    if check_id in SEEDED:  # resolution is unused; blocks cut only phi calls
        plans = ((1e-2, None), (1e-3, 1000))
    for res, block in plans:
        with monkeypatch.context() as m:
            if block is not None:
                _small_blocks(m, block)
            got = run_check(check_id, resolution=res, seed=seed)
        if check_id in SEEDED:
            ref = _ref_eta_identity if check_id == "ETA_IDENTITY" else _ref_estimation
            _assert_tree_report_close(got, _one_call(monkeypatch, ref, seed))
        else:
            want = _one_call(monkeypatch, GRID_REFERENCES[check_id], res)
            assert repr(got) == repr(want), (res, block)


@pytest.mark.parametrize("seed", range(8))
def test_tree_levels_match_path_enumeration(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 11):
        pvals = verify_mod._random_prob_trees(rng, n, 4)
        vtrees = pvals[0][None, :] - rng.uniform(size=(5, pvals.shape[1]))
        got = [verify_mod._eta_expectation(pvals, n),
               verify_mod._estimation_value(pvals[0], vtrees, n)]
        want = [[_path_eta_expectation(pv, n) for pv in pvals],
                _path_estimation_value(pvals[0], vtrees, n)]
        if n < 8:  # fewer than 8 terms a path: numpy adds them in order
            assert list(got[0]) == want[0] and got[1] == want[1], n
        else:
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)


def test_eta_identity_draws_trees_as_one_stream():
    one = verify_mod._random_prob_trees(np.random.default_rng(4), 5, 3)
    rng = np.random.default_rng(4)
    each = [verify_mod._random_prob_trees(rng, 5) for _ in range(3)]
    assert np.array_equal(one, np.stack(each))


def _ref_sup_psi(lam, res):
    """sup_psi with its grid maximum taken over the whole grid at once."""
    m = int(math.floor(1.0 / res)) + 1
    p = np.linspace(0.0, 1.0, m)
    v = p[:, None] - 1.0 + np.linspace(0.0, 1.0, m)[None, :]
    vals = psi(p[:, None], lam, v)
    i, j = divmod(int(np.argmax(vals)), m)
    p_best, v_best = float(p[i]), float(v[i, j])
    lo = max(p_best - 1.0, v_best - 2.0 * res)
    hi = min(p_best, v_best + 2.0 * res)
    v_ref = golden_section(lambda x: -psi(p_best, lam, x), lo, hi, tol=1e-12)
    best = float(psi(p_best, lam, v_ref))
    if best >= vals[i, j]:
        return best, (p_best, float(v_ref))
    return float(vals[i, j]), (p_best, v_best)


@pytest.mark.parametrize("lam", [LAMBDA_STAR, 0.1, 1.0])
@pytest.mark.parametrize("block", [None, 7])
def test_sup_psi_matches_full_grid(lam, block, monkeypatch):
    # at lambda* the grid maximum 1.0 is reached on 82 rows, cut into blocks
    # of 7 elements, so the first must win, as with np.argmax
    want = _one_call(monkeypatch, _ref_sup_psi, lam, 1e-2)
    if block is not None:
        _small_blocks(monkeypatch, block)
    assert sup_psi(lam, resolution=1e-2) == want


def test_lambda_scan_in_small_blocks(monkeypatch):
    # the scan's rows are 1000 wide, so 999-element blocks cut inside each
    want = lambda_threshold_scan(1e-3)
    _small_blocks(monkeypatch, 999)
    assert lambda_threshold_scan(1e-3) == want


def test_first_min_follows_argmin_across_blocks():
    first_min = verify_mod._first_min
    cases = [
        [[3.0, 1.0], [1.0, 2.0]],            # a tie across the boundary
        [[1.0, -np.inf], [2.0, np.nan]],     # NaN beats an earlier -inf
        [[np.nan], [np.nan, -np.inf]],       # the first NaN wins
        [[2.0], [-np.inf], [-np.inf]],
        [[0.0], [-0.0]],                     # -0.0 does not beat 0.0
        [[np.inf, np.inf], [np.inf]],
    ]
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.integers(-3, 3, size=int(rng.integers(1, 30))).astype(float)
        x[rng.uniform(size=x.size) < 0.05] = np.nan
        x[rng.uniform(size=x.size) < 0.05] = -np.inf
        cuts = np.sort(rng.integers(1, x.size + 1, size=3))
        cases.append([b for b in np.split(x, cuts) if b.size])
    for blocks in cases:
        flat = np.concatenate([np.asarray(b, dtype=float) for b in blocks])
        k, value, seen = first_min(np.asarray(b, dtype=float) for b in blocks)
        assert k == int(np.argmin(flat)) and seen == flat.size
        assert repr(value) == repr(float(flat[k]))
    assert first_min([]) == (0, math.inf, 0)


@pytest.mark.parametrize("bad", ["nan", "-inf", "nan after -inf"])
def test_non_finite_slack_in_a_late_block(bad, monkeypatch):
    # z > 1e5 only on the last p row of the y = 0 half (blocks 1485-1499 of
    # 3000 with blocks of 7 elements); z < -0.99 on early rows of that half
    def fake_phi(z):
        late = np.nan if bad.startswith("nan") else -np.inf
        out = np.where(z > 1e5, late, phi(z))
        if bad == "nan after -inf":
            out = np.where(z < -0.99, -np.inf, out)
        return out

    want = _one_call(monkeypatch, _ref_sc_pointwise, 1e-2, phi=fake_phi)
    monkeypatch.setattr(verify_mod, "phi", fake_phi)
    _small_blocks(monkeypatch, 7)
    got = run_check("SC_POINTWISE", resolution=1e-2)
    assert repr(got) == repr(want)
    assert not got.passed
    assert got.worst_point[0] == verify_mod._interior_grid(1e-2)[-1]
    assert got.worst_point[2] == 0.0
    assert repr(got.worst_slack) == ("-inf" if bad == "-inf" else "nan")


def test_points_count_what_was_scored():
    m = verify_mod._interior_grid(1e-2).size
    assert run_check("SC_POINTWISE", resolution=1e-2).points == 2 * m * m
    assert run_check("SC_EDGE", resolution=1e-2).points == 2 * 101
    assert run_check("PHI_LIPSCHITZ", resolution=0.1).points == 2 * 2001
    assert run_check("ETA_IDENTITY", n=5, n_trees=7).points == 7 * 32


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_resolution_is_rejected(bad):
    with pytest.raises(ValueError, match="resolution must be finite"):
        run_check("SC_POINTWISE", resolution=bad)
    with pytest.raises(ValueError, match="resolution must be finite"):
        sup_psi(LAMBDA_STAR, resolution=bad)
    with pytest.raises(ValueError, match="resolution must be finite"):
        lambda_threshold_scan(bad)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_run_check_rejects_unknown_keywords(check_id):
    # a keyword the check does not take raises before any grid is built
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_check(check_id, resolution=1e-2, n_trees_typo=5)


def test_axis_guard_refuses_before_any_axis_is_built(monkeypatch):
    # an axis past 2 * 10^6 points raises ValueError, not OverflowError or
    # MemoryError, and no grid axis is built first
    def refuse(*args, **kwargs):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(np, "linspace", refuse)
    calls = {cid: (lambda r, cid=cid: run_check(cid, resolution=r))
             for cid in CHECK_IDS if cid not in SEEDED}
    calls["sup_psi"] = lambda r: sup_psi(LAMBDA_STAR, resolution=r)
    calls["lambda_threshold_scan"] = lambda_threshold_scan
    # the largest resolution that each longest axis refuses: length 200,
    # 1 - 2e-6 (the interior grid) or 1
    interior = 0.999998 / 2e6
    just_past = {"PHI_LIPSCHITZ": 1e-4, "SC_POINTWISE": interior,
                 "NESTEROV": interior, "SELF_CONCORDANT": interior}
    for name, call in calls.items():
        for res in (5e-324, 1e-9, just_past.get(name, 5e-7)):
            with pytest.raises(ValueError, match="is too fine: an axis of length"):
                call(res)


def test_axis_guard_admits_the_finest_grids():
    # one step coarser than the refused resolutions above gives 2 * 10^6
    # points on a closed axis; the criterion-2 grids are well inside
    for span, res in ((200.0, 1e-4), (1.0, 5e-7), (0.999998, 0.999998 / 2e6)):
        assert verify_mod._steps(span, float(np.nextafter(res, 1.0))) + 1 == 2 * 10**6
    assert verify_mod._steps(1.0, 1e-6) + 1 == 10**6 + 1
    assert verify_mod._interior_grid(1e-6).size == 10**6 - 1
