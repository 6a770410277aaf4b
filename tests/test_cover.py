import itertools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from logloss_lab import core as core_mod
from logloss_lab import cover as cover_mod
from logloss_lab.core import BinaryTree, ExpertClass, path_node_indices
from logloss_lab.cover import (
    CELL_GUARD,
    EntropyCurve,
    LipschitzGridFamily,
    SequentialCover,
    cover_verify,
    empirical_entropy_lower,
    entropy_curve_estimate,
    restrict,
    sequential_cover_exact,
    sequential_cover_greedy,
    _demand_conflicts,
    _greedy_packing_size,
    _walks,
)


def constant_context_class(probs, depth):
    ec = ExpertClass.constants(probs)
    x = BinaryTree(depth, values=np.zeros((1 << depth) - 1, dtype=object))
    return restrict(ec, x)


def test_restrict_values():
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.2, 0.8]])
    x = BinaryTree(2, values=["a", "b", "b"])
    rc = restrict(ec, x)
    assert rc.n_experts == 1
    assert rc.values.tolist() == [[0.2, 0.8, 0.8]]
    assert not rc.values.flags.writeable


def test_restrict_unhashable_node_is_unknown_context():
    ec = ExpertClass(contexts=[0, 1], experts=[[0.3, 0.6]])
    x = BinaryTree(2, values=np.array([0, [1], 1], dtype=object))
    with pytest.raises(KeyError, match=re.escape("unknown context id: [1]")):
        restrict(ec, x)


def test_cover_verify_accepts_class_itself():
    rc = constant_context_class([0.1, 0.5, 0.9], 3)
    V = SequentialCover(
        elements=[BinaryTree(rc.depth, values=row) for row in rc.values],
        scale=0.0,
    )
    assert cover_verify(rc, V)


def test_cover_verify_rejects_bad_cover():
    rc = constant_context_class([0.0, 1.0], 2)
    V = SequentialCover(elements=[BinaryTree(2, fill=0.5)], scale=0.1)
    assert not cover_verify(rc, V)
    V2 = SequentialCover(elements=[BinaryTree(2, fill=0.5)], scale=0.5)
    assert cover_verify(rc, V2)


def test_cover_verify_rejects_nan():
    # a NaN distance never compares above the scale, so it must not pass
    rc = constant_context_class([0.1, 0.9], 2)
    nan_element = SequentialCover([BinaryTree(2, fill=math.nan)], 0.1)
    with pytest.raises(ValueError, match="must not be NaN"):
        cover_verify(rc, nan_element)
    for scale in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            cover_verify(rc, SequentialCover([BinaryTree(2, fill=0.5)], scale))
    assert cover_verify(rc, SequentialCover([BinaryTree(2, fill=0.5)], 0.4))


def test_zero_one_class_cover_sizes():
    rc = constant_context_class([0.0, 1.0], 3)
    size_half, cov = sequential_cover_exact(rc, 0.5)
    assert size_half == 1
    assert cover_verify(rc, cov)
    size_small, cov2 = sequential_cover_exact(rc, 0.4)
    assert size_small == 2
    assert cover_verify(rc, cov2)


def test_exact_never_beaten_by_greedy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        rc = constant_context_class(rng.uniform(size=k), 2)
        gamma = float(rng.uniform(0.05, 0.5))
        exact_size, cov = sequential_cover_exact(rc, gamma)
        greedy = sequential_cover_greedy(rc, gamma)
        assert cover_verify(rc, cov)
        assert cover_verify(rc, greedy)
        assert exact_size <= len(greedy.elements)


def test_empirical_lower_bounds_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rc = constant_context_class(rng.uniform(size=5), 2)
        gamma = float(rng.uniform(0.05, 0.4))
        exact_size, _ = sequential_cover_exact(rc, gamma)
        lower = empirical_entropy_lower(rc, gamma)
        assert lower <= math.log(exact_size) + 1e-12


def test_covers_emit_no_warning():
    # a group that never touches a node used to average inf and -inf there
    rng = np.random.default_rng(0)
    ec = ExpertClass(contexts=[0, 1], experts=rng.uniform(size=(4, 2)))
    x = BinaryTree(3, values=rng.integers(0, 2, size=7).astype(object))
    rc = restrict(ec, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        greedy = sequential_cover_greedy(rc, 0.1)
        _, exact = sequential_cover_exact(rc, 0.1)
    for cov in (greedy, exact):
        assert cover_verify(rc, cov)
        assert all(np.all(np.isfinite(e.values)) for e in cov.elements)


def test_empirical_lower_past_twelve_experts():
    # 13 points: a first-fit cover needs 3 balls, the minimum is 2
    few = [0.1, 0.25, 0.0, 0.35]
    for probs in (few, few + [0.1] * 9):
        rc = constant_context_class(probs, 1)
        assert empirical_entropy_lower(rc, 0.1) == pytest.approx(math.log(2))


# ---------------------------------------------------------------------------
# Reference searches: per-node lo/hi ranges over every row of
# path_node_indices, as the covers were computed before the conflict
# bitmasks.
# ---------------------------------------------------------------------------


class _RefGroupState:
    """Per-node value ranges of the demands assigned to one cover element."""

    def __init__(self, n_nodes):
        self.lo = np.full(n_nodes, np.inf)
        self.hi = np.full(n_nodes, -np.inf)

    def can_add(self, idx, vals, two_gamma):
        lo = np.minimum(self.lo[idx], vals)
        hi = np.maximum(self.hi[idx], vals)
        return bool(np.all(hi - lo <= two_gamma + 1e-12))

    def add(self, idx, vals):
        old = (self.lo[idx].copy(), self.hi[idx].copy())
        self.lo[idx] = np.minimum(self.lo[idx], vals)
        self.hi[idx] = np.maximum(self.hi[idx], vals)
        return old

    def undo(self, idx, old):
        self.lo[idx], self.hi[idx] = old


def _ref_demands(rc):
    gvals = rc.values
    return [(idx, gvals[g, idx]) for idx in path_node_indices(rc.depth)
            for g in range(rc.n_experts)]


def _ref_greedy(rc, gamma):
    """First-fit cover elements, one row of node values each."""
    groups = []
    for idx, vals in _ref_demands(rc):
        for grp in groups:
            if grp.can_add(idx, vals, 2 * gamma):
                grp.add(idx, vals)
                break
        else:
            grp = _RefGroupState((1 << rc.depth) - 1)
            grp.add(idx, vals)
            groups.append(grp)
    rows = []
    for grp in groups:
        touched = np.isfinite(grp.lo)
        mid = np.full(grp.lo.shape, 0.5)
        mid[touched] = (grp.lo[touched] + grp.hi[touched]) / 2.0
        rows.append(mid)
    return rows


def _ref_exact_size(rc, gamma):
    """Branch and bound over demand groupings, seeded by the greedy size."""
    demands = _ref_demands(rc)
    best = [len(_ref_greedy(rc, gamma))]

    def recurse(i, groups):
        if len(groups) >= best[0]:
            return
        if i == len(demands):
            best[0] = len(groups)
            return
        idx, vals = demands[i]
        for grp in groups:
            if grp.can_add(idx, vals, 2 * gamma):
                old = grp.add(idx, vals)
                recurse(i + 1, groups)
                grp.undo(idx, old)
        if len(groups) + 1 < best[0]:
            grp = _RefGroupState((1 << rc.depth) - 1)
            grp.add(idx, vals)
            groups.append(grp)
            recurse(i + 1, groups)
            groups.pop()

    recurse(0, [])
    return best[0]


def _ref_cover_verify(rc, V):
    if not V.elements:
        return False
    gvals = rc.values
    vvals = np.stack([v.values.astype(float) for v in V.elements])
    for idx in path_node_indices(rc.depth):
        g_on_path, v_on_path = gvals[:, idx], vvals[:, idx]
        dist = np.abs(g_on_path[:, None, :] - v_on_path[None, :, :]).max(axis=2)
        if np.any(dist.min(axis=1) > V.scale + 1e-12):
            return False
    return True


def _ref_linf_cover_size(points, gamma):
    """Minimal number of radius-gamma L-inf balls by the subset DP."""
    m = points.shape[0]
    two_gamma = 2 * gamma + 1e-12
    full = 1 << m
    lo = np.full((full, points.shape[1]), np.inf)
    hi = np.full((full, points.shape[1]), -np.inf)
    feasible = np.zeros(full, dtype=bool)
    feasible[0] = True
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        j = low.bit_length() - 1
        lo[mask] = np.minimum(lo[rest], points[j])
        hi[mask] = np.maximum(hi[rest], points[j])
        feasible[mask] = bool(np.all(hi[mask] - lo[mask] <= two_gamma))
    dp = np.full(full, m + 1, dtype=int)
    dp[0] = 0
    for mask in range(1, full):
        low = mask & -mask
        sub = mask
        while sub:
            if (sub & low) and feasible[sub]:
                dp[mask] = min(dp[mask], dp[mask ^ sub] + 1)
            sub = (sub - 1) & mask
    return int(dp[full - 1])


def _ref_empirical_lower(rc, gamma):
    gvals = rc.values
    best = max(_ref_linf_cover_size(gvals[:, idx], gamma)
               for idx in path_node_indices(rc.depth))
    return math.log(best)


def _random_class(rng, depth, n_contexts, n_experts):
    """Uniform values, lattice values of step 0.05 (ties exactly at 2 gamma
    for gamma in {0.05, 0.1, 0.25, 0.5}) or 0/1 entries."""
    kind = rng.integers(3)
    shape = (n_experts, n_contexts)
    if kind == 0:
        experts = rng.uniform(size=shape)
    elif kind == 1:
        experts = rng.integers(0, 21, size=shape) * 0.05
    else:
        experts = rng.integers(0, 2, size=shape).astype(float)
    ec = ExpertClass(contexts=list(range(n_contexts)), experts=experts)
    nodes = rng.integers(0, n_contexts, size=(1 << depth) - 1)
    return restrict(ec, BinaryTree(depth, values=nodes.astype(object)))


def _assert_matches_reference(rc, gamma):
    greedy = sequential_cover_greedy(rc, gamma)
    want = _ref_greedy(rc, gamma)
    assert len(greedy.elements) == len(want)
    assert all(np.array_equal(e.values, w) for e, w in zip(greedy.elements, want))
    size, exact = sequential_cover_exact(rc, gamma)
    assert size == len(exact.elements) == _ref_exact_size(rc, gamma)
    assert empirical_entropy_lower(rc, gamma) == _ref_empirical_lower(rc, gamma)
    for cov in (greedy, exact):
        for shift in (0.0, 1e-3, -1e-3):
            moved = SequentialCover(
                elements=[BinaryTree(rc.depth, values=e.values + shift)
                          for e in cov.elements],
                scale=cov.scale,
            )
            assert cover_verify(rc, moved) == _ref_cover_verify(rc, moved)
        assert cover_verify(rc, cov)


def test_covers_match_reference_search():
    rng = np.random.default_rng(12)
    for _ in range(320):
        depth, k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n_experts = int(rng.integers(1, 9))
        rc = _random_class(rng, depth, k, n_experts)
        _assert_matches_reference(rc, float(rng.choice([0, 0.05, 0.1, 0.25, 0.5])))


def test_verify_in_blocks_and_deep_greedy_match_reference(monkeypatch):
    # one path per block of cover_verify
    monkeypatch.setattr(core_mod, "_BLOCK", 1)
    rng = np.random.default_rng(13)
    for gamma in (0.0, 0.1, 0.25):
        rc = _random_class(rng, 3, 2, 6)
        _assert_matches_reference(rc, gamma)
        rc = _random_class(rng, 5, 2, 4)
        greedy = sequential_cover_greedy(rc, gamma)
        want = _ref_greedy(rc, gamma)
        assert all(np.array_equal(e.values, w) for e, w in zip(greedy.elements, want))
        assert len(greedy.elements) == len(want)
        assert cover_verify(rc, greedy) and _ref_cover_verify(rc, greedy)


def test_depth_three_demands_are_distinct_paths():
    rc = _random_class(np.random.default_rng(1), 3, 2, 5)
    masks = _demand_conflicts(rc.values, rc.depth, 0.1)
    # 2^(3-1) distinct node paths, not the 2^3 rows of path_node_indices
    assert len(masks) == rc.n_demands == 4 * 5
    assert len(np.unique(path_node_indices(3), axis=0)) == 4


# ---------------------------------------------------------------------------
# The conflict tables before the node masks: a (paths, depth, experts,
# experts) bool array over the distinct paths, one Python int per row.
# ---------------------------------------------------------------------------


def _ref_path_conflicts(gvals, depth, gamma):
    """[y, t, g, h]: experts g and h differ by more than 2 gamma at some node
    of distinct path y in rounds 1..t+1."""
    vals = gvals[:, cover_mod._distinct_paths(depth)].transpose(1, 2, 0)
    apart = np.abs(vals[..., :, None] - vals[..., None, :]) > 2 * gamma + 1e-12
    return np.logical_or.accumulate(apart, axis=1)


def _ref_bitmasks(rows):
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _ref_demand_conflicts(gvals, depth, gamma):
    prefix = _ref_path_conflicts(gvals, depth, gamma)
    paths, _, n_experts, _ = prefix.shape
    y = np.arange(paths)
    parted = y[:, None] ^ y[None, :]
    last = np.frexp(parted & -parted)[1] - 1  # -1, the full path, when y1 == y2
    conf = prefix[y[:, None], last]  # [y1, y2, g1, g2]
    return _ref_bitmasks(conf.transpose(0, 2, 1, 3).reshape(-1, paths * n_experts))


def test_node_masks_match_path_conflict_tables():
    # lattice classes put ties at exactly 2 gamma; 0/1 classes differ by 1
    rng = np.random.default_rng(14)
    for _ in range(300):
        depth, n_experts = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        rc = _random_class(rng, depth, int(rng.integers(1, 4)), n_experts)
        gamma = float(rng.choice([0, 0.05, 0.1, 0.25, 0.5]))
        prefix = _ref_path_conflicts(rc.values, depth, gamma)
        masks = cover_mod._node_masks(rc.values, gamma)
        # each round of each distinct path, then the full-path graphs
        assert masks[cover_mod._distinct_paths(depth)].tolist() == [
            [_ref_bitmasks(rows) for rows in path] for path in prefix]
        assert masks[BinaryTree.level_slice(depth)].tolist() == [
            _ref_bitmasks(rows) for rows in prefix[:, -1]]
        if depth <= 3 and n_experts <= 8:
            assert (_demand_conflicts(rc.values, depth, gamma)
                    == _ref_demand_conflicts(rc.values, depth, gamma))


def test_deep_entropy_lower_stays_linear_in_the_nodes():
    # depth 14, |F| = 12: the (paths, depth, |F|, |F|) conflict table took
    # about 260 MB and 0.2-0.3 s; the node masks take O(nodes |F|)
    rng = np.random.default_rng(3)
    ec = ExpertClass(contexts=[0, 1], experts=rng.uniform(size=(12, 2)))
    x = BinaryTree(14, values=rng.integers(0, 2, size=(1 << 14) - 1).astype(object))
    rc = restrict(ec, x)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        value = empirical_entropy_lower(rc, 0.1)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1
    tracemalloc.start()
    try:
        empirical_entropy_lower(rc, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # every distinct path coloured on its own, without the dedup
    best = 0
    for idx in cover_mod._distinct_paths(14):
        vals = rc.values[:, idx]
        apart = (np.abs(vals[:, None] - vals[None]) > 0.2 + 1e-12).any(axis=2)
        best = max(best, cover_mod._fewest_groups(_ref_bitmasks(apart))[1])
    assert value == math.log(best)


@pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf, -math.inf])
def test_covers_reject_bad_scale(gamma):
    rc = constant_context_class([0.3, 0.7], 2)
    for fn in (sequential_cover_greedy, sequential_cover_exact,
               empirical_entropy_lower):
        with pytest.raises(ValueError, match="finite and >= 0"):
            fn(rc, gamma)


def test_covers_accept_zero_scale():
    rc = constant_context_class([0.3, 0.7, 0.7], 2)
    assert len(sequential_cover_greedy(rc, 0.0).elements) == 2
    assert sequential_cover_exact(rc, 0.0)[0] == 2
    assert empirical_entropy_lower(rc, 0.0) == pytest.approx(math.log(2))


def test_exact_cover_stops_at_clique_size():
    # depth 3, two contexts, 8 uniform experts drawn before each tree: the
    # first of these draws ran the branch and bound for tens of seconds.
    # Its degree-order clique (7) equals first fit, so the search ends at
    # its first leaf; an index-order clique (3) would not end it.
    rng = np.random.default_rng(7)
    ec = ExpertClass(contexts=[0, 1], experts=rng.uniform(size=(8, 2)))
    nodes = rng.integers(0, 2, size=7).astype(object)
    rc = restrict(ec, BinaryTree(3, values=nodes))
    masks = _demand_conflicts(rc.values, 3, 0.1)
    assert cover_mod._clique_size(masks) == 7
    start = time.perf_counter()
    size, cov = sequential_cover_exact(rc, 0.1)
    assert time.perf_counter() - start < 1.0
    assert size == len(cov.elements) == 7
    assert cover_verify(rc, cov)


def test_exact_guard():
    rc = constant_context_class(np.linspace(0, 1, 9), 2)
    with pytest.raises(ValueError):
        sequential_cover_exact(rc, 0.1)


def test_entropy_curve_power():
    H = EntropyCurve.power(2.0, 1.5)
    assert H.value(0.5) == pytest.approx(2.0 * 0.5**-1.5)
    # closed-form integrals vs trapezoid
    a, b = 0.01, 0.5
    xs = np.exp(np.linspace(math.log(a), math.log(b), 200_000))
    assert H.integral(a, b) == pytest.approx(
        np.trapezoid(2.0 * xs**-1.5, xs), rel=1e-6
    )
    assert H.integral_sqrt(a, b) == pytest.approx(
        np.trapezoid(np.sqrt(2.0) * xs**-0.75, xs), rel=1e-6
    )


def test_entropy_curve_log_cases():
    # p = 1 full integral and p = 2 sqrt integral are logarithmic
    H1 = EntropyCurve.power(3.0, 1.0)
    assert H1.integral(0.1, 1.0) == pytest.approx(3.0 * math.log(10), rel=1e-12)
    H2 = EntropyCurve.power(4.0, 2.0)
    assert H2.integral_sqrt(0.1, 1.0) == pytest.approx(
        2.0 * math.log(10), rel=1e-12
    )


def test_entropy_curve_misc():
    assert EntropyCurve.power(0.0, 1.0).value(0.3) == 0.0
    Hlog = EntropyCurve.log_form(2.0)
    assert Hlog.value(0.25) == pytest.approx(2.0 * math.log(4))
    with pytest.raises(ValueError):
        Hlog.value(0.0)
    with pytest.raises(ValueError):
        EntropyCurve.power(-1.0, 1.0)
    with pytest.raises(ValueError):
        Hlog.integral(0.5, 0.2)


def _dense_trapezoid(H, a, b, sqrt):
    xs = np.exp(np.linspace(math.log(a), math.log(b), 200_000))
    if H.kind == "log":
        ys = H.d * np.maximum(0.0, -np.log(xs))
    else:
        ys = np.interp(xs, H.gammas, H.uppers)
    return np.trapezoid(np.sqrt(ys) if sqrt else ys, xs)


# intervals below 1, across 1, and above 1 (where H vanishes)
_LOG_INTERVALS = [(1e-8, 1e-3), (1e-6, 0.5), (0.05, 0.7), (0.01, 3.0), (1.5, 4.0)]


@pytest.mark.parametrize("a, b", _LOG_INTERVALS)
@pytest.mark.parametrize("sqrt", [False, True])
def test_log_curve_closed_forms(a, b, sqrt):
    H = EntropyCurve.log_form(2.0)
    got = H.integral_sqrt(a, b) if sqrt else H.integral(a, b)
    ref = _dense_trapezoid(H, a, b, sqrt)
    if b <= 1.0 or a < 1.0:
        assert got == pytest.approx(ref, rel=1e-7)
    else:
        assert got == 0.0 and ref == 0.0


_TABLES = {
    # geometric knots, as the benchmark's tabulated curve
    "geometric": (2.0 ** -np.arange(0, 21), None),
    # unsorted input, a knot with value 0 inside, flat ends beyond 0.1 and 0.6
    "zero_knot": ([0.6, 0.1, 0.3], [2.0, 0.0, 1.5]),
    # a single linear piece
    "one_piece": ([0.2, 0.4], [3.0, 1.0]),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
@pytest.mark.parametrize("sqrt", [False, True])
def test_tabulated_curve_closed_forms(table, sqrt):
    gammas, uppers = _TABLES[table]
    if uppers is None:
        uppers = 1.0 / gammas
    H = EntropyCurve.tabulated(gammas, np.zeros(len(uppers)), uppers)
    for a, b in [(1e-8, 1e-3), (1e-6, 0.5), (0.05, 0.7), (0.01, 3.0),
                 (0.25, 0.35), (0.7, 2.0)]:
        got = H.integral_sqrt(a, b) if sqrt else H.integral(a, b)
        assert got == pytest.approx(_dense_trapezoid(H, a, b, sqrt), rel=1e-7)


@pytest.mark.parametrize(
    "H",
    [
        EntropyCurve.power(2.0, 1.5),
        EntropyCurve.power(1.0, 2.0),
        EntropyCurve.power(0.0, 1.0),
        EntropyCurve.log_form(2.0),
        EntropyCurve.tabulated([0.6, 0.1, 0.3], [0.0] * 3, [2.0, 0.0, 1.5]),
    ],
    ids=lambda H: H.kind,
)
def test_integral_over_empty_interval_is_zero(H):
    for a in (1e-9, 0.1, 0.3, 0.6, 1.0, 2.0):
        assert H.integral(a, a) == 0
        assert H.integral_sqrt(a, a) == 0


def test_tabulated_curve_value_at_knots():
    curve = EntropyCurve.tabulated([0.5, 0.25], [1.0, 2.0], [1.5, 2.5])
    assert curve.value(0.25) == pytest.approx(2.5)
    assert curve.value(0.5) == pytest.approx(1.5)


def test_tabulated_curve_checks_its_table():
    rows = ([0.5, 0.25], [1.0, 2.0], [1.5, 2.5])
    EntropyCurve.tabulated(*rows)
    bad = [
        (([0.5, 0.25], [1.0], [1.5, 2.5]), "three 1-D columns of one length"),
        (([[0.5, 0.25]], [[1.0, 2.0]], [[1.5, 2.5]]), "three 1-D columns"),
        (([], [], []), "has no points"),
        (([0.5, 0.25], [1.0, 2.0], [math.nan, 2.5]), "entries must be finite"),
        (([0.5, math.inf], [1.0, 2.0], [1.5, 2.5]), "entries must be finite"),
        (([0.5, -0.25], [1.0, 2.0], [1.5, 2.5]), "positive and distinct"),
        (([0.5, 0.0], [1.0, 2.0], [1.5, 2.5]), "positive and distinct"),
        (([0.5, 0.5], [1.0, 2.0], [1.5, 2.5]), "positive and distinct"),
    ]
    for table, message in bad:
        with pytest.raises(ValueError, match=message):
            EntropyCurve.tabulated(*table)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "power", "C": -1.0, "p": 2.0}, "finite C >= 0, p > 0"),
    ({"kind": "power", "C": 1.0, "p": 0.0}, "finite C >= 0, p > 0"),
    ({"kind": "log", "d": math.nan}, "finite d >= 0"),
    ({"kind": "powr"}, "unknown entropy curve kind: 'powr'"),
    ({"kind": "tabulated", "gammas": [], "lowers": [], "uppers": []},
     "has no points"),
    ({"kind": "tabulated"}, "three 1-D columns"),
])
def test_direct_construction_checks_the_curve(fields, message):
    # the constructor owns every rule, so no path around the classmethods
    # builds a curve that reads H(0.5) = -4, NaN, or fails inside np.interp
    with pytest.raises(ValueError, match=message):
        EntropyCurve(**fields)


def test_direct_tabulated_construction_sorts_its_rows():
    curve = EntropyCurve(kind="tabulated", gammas=[0.5, 0.25], lowers=[1, 2],
                         uppers=[1.5, 2.5])
    assert curve.gammas.tolist() == [0.25, 0.5]
    assert curve.uppers.tolist() == [2.5, 1.5]
    assert curve.value(0.3) == pytest.approx(2.3)


def enumerate_lipschitz(gamma, max_functions=10**6):
    """Every function of the Lipschitz grid family at scale gamma, as rows
    of values: the enumeration that the walk counts replace."""
    if gamma >= 1.0:
        return np.array([[0.5]])
    spacing = 4.0 * gamma
    step = 2.0 * gamma
    n_points = int(math.floor(1.0 / spacing)) + 1
    levels = int(math.floor(1.0 / step)) + 1
    if levels < 2:
        raise ValueError("resolution too coarse for this gamma")
    max_jump = int(math.floor(spacing / step))  # slope constraint
    funcs = [[v] for v in range(levels)]
    for _ in range(n_points - 1):
        new = []
        for f in funcs:
            last = f[-1]
            for v in range(
                max(0, last - max_jump), min(levels - 1, last + max_jump) + 1
            ):
                new.append(f + [v])
                if len(new) > max_functions:
                    raise ValueError("function enumeration cap exceeded")
        funcs = new
    return np.asarray(funcs, dtype=float) * step


def test_lipschitz_enumeration_small():
    vals = enumerate_lipschitz(0.25)
    # spacing 1.0: two grid points; levels {0, 0.5, 1.0}; slope <= 1
    assert vals.shape[1] == 2
    assert np.all(np.abs(np.diff(vals, axis=1)) <= 1.0 + 1e-12)
    assert np.all((vals >= 0) & (vals <= 1))
    # all enumerated functions distinct
    assert len({tuple(v) for v in vals}) == vals.shape[0]


def test_entropy_estimate_sandwich_and_slope():
    fam = LipschitzGridFamily()
    curve = entropy_curve_estimate(fam, [0.25, 0.125, 0.0625], n=0)
    assert np.all(curve.lowers <= curve.uppers + 1e-12)
    # entropy grows as gamma shrinks
    assert curve.uppers[0] >= curve.uppers[-1]
    assert abs(curve.slope - 1.0) <= 0.3
    assert curve.counts == [
        {"gamma": 0.0625, "functions": 3611, "packing": 259},
        {"gamma": 0.125, "functions": 75, "packing": 17},
        {"gamma": 0.25, "functions": 9, "packing": 4},
    ]
    assert np.allclose(curve.uppers, np.log([3611, 75, 9]), rtol=0, atol=1e-15)
    assert np.allclose(curve.lowers, np.log([259, 17, 4]), rtol=0, atol=1e-15)


_ENUMERABLE_GAMMAS = [1.0, 0.5, 0.3, 0.25, 0.2, 0.125, 0.1, 0.0625]


def _pairwise_packing_size(points, gamma):
    """First-fit packing, one distance per (candidate, member) pair."""
    packing = []
    for pt in points:
        if all(np.max(np.abs(pt - q)) > 2 * gamma + 1e-12 for q in packing):
            packing.append(pt)
    return len(packing)


def test_greedy_packing_matches_pairwise_loop():
    for g in _ENUMERABLE_GAMMAS:
        values = enumerate_lipschitz(g)
        assert _greedy_packing_size(values, g) == _pairwise_packing_size(values, g)
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, d = int(rng.integers(1, 60)), int(rng.integers(1, 5))
        points = rng.uniform(size=(m, d))
        # lattice points put exact ties at separation 2 gamma
        if rng.random() < 0.5:
            points = np.round(points * 8) / 8
        g = float(rng.choice([0.0625, 0.1, 0.25, rng.uniform(0.01, 0.5)]))
        assert _greedy_packing_size(points, g) == _pairwise_packing_size(points, g)


def test_walks_match_brute_force():
    for levels, points, jump in itertools.product(range(1, 6), range(1, 5),
                                                  range(0, 4)):
        walks = [
            w for w in itertools.product(range(levels), repeat=points)
            if all(abs(a - b) <= jump for a, b in zip(w, w[1:]))
        ]
        assert _walks(levels, points, jump) == len(walks)


# every scale from 1 down to where enumeration stops fitting
_COUNTED_GAMMAS = [1.0, 0.5, 0.3, 0.25, 0.2, 0.15, 0.125, 0.11, 0.1, 0.09,
                   0.08, 0.07, 0.0625, 0.06]


@pytest.mark.parametrize("gamma", _COUNTED_GAMMAS)
def test_walk_counts_match_enumeration(gamma):
    values = enumerate_lipschitz(gamma)
    curve = entropy_curve_estimate(LipschitzGridFamily(), [gamma], n=0)
    assert curve.counts == [{
        "gamma": gamma,
        "functions": len(values),
        "packing": _greedy_packing_size(values, gamma),
    }]


def test_coarse_scale_raises_as_enumeration_did():
    for gamma in (0.6, 0.99):
        with pytest.raises(ValueError, match="resolution too coarse"):
            enumerate_lipschitz(gamma)
        with pytest.raises(ValueError, match="resolution too coarse"):
            entropy_curve_estimate(LipschitzGridFamily(), [gamma], n=0)


def test_entropy_curve_reach():
    gammas = [2.0**-k for k in range(4, 12)]
    curve = entropy_curve_estimate(LipschitzGridFamily(), gammas, n=0)
    assert np.all(curve.lowers <= curve.uppers)
    assert abs(curve.slope - 1.0) <= 0.3
    # 513 grid points x 1025 levels: the enumeration stopped near 2^-4
    assert curve.counts[0]["gamma"] == 2.0**-11
    assert curve.counts[0]["functions"] > 10**300


def test_entropy_curve_rejects_bad_scales():
    fam = LipschitzGridFamily()
    for gamma in (0.0, -0.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            entropy_curve_estimate(fam, [0.25, gamma], n=0)
    # 1025 grid points x 2049 levels; subnormal scales overflow 1/gamma
    assert 1025 * 2049 > CELL_GUARD
    for gamma in (2.0**-12, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="CELL_GUARD"):
            entropy_curve_estimate(fam, [gamma], n=0)
    # a repeated scale would fit the slope over one scale
    for gammas in ([0.25, 0.25], [0.125, 0.25, 0.125]):
        with pytest.raises(ValueError, match="each gamma must appear once"):
            entropy_curve_estimate(fam, gammas, n=0)
