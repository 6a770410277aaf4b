import math
import warnings

import numpy as np
import pytest

from logloss_lab.core import BinaryTree, ExpertClass
from logloss_lab.cover import (
    EntropyCurve,
    LipschitzGridFamily,
    SequentialCover,
    cover_verify,
    empirical_entropy_lower,
    entropy_curve_estimate,
    restrict,
    sequential_cover_exact,
    sequential_cover_greedy,
)


def constant_context_class(probs, depth):
    ec = ExpertClass.constants(probs)
    x = BinaryTree(depth, values=np.zeros((1 << depth) - 1, dtype=object))
    return restrict(ec, x)


def test_restrict_values():
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.2, 0.8]])
    x = BinaryTree.from_function(2, lambda t, bits: "a" if t == 1 else "b")
    rc = restrict(ec, x)
    assert rc.n_experts == 1
    assert list(rc.value_trees[0].values) == [0.2, 0.8, 0.8]


def test_cover_verify_accepts_class_itself():
    rc = constant_context_class([0.1, 0.5, 0.9], 3)
    V = SequentialCover(elements=[t.copy() for t in rc.value_trees], scale=0.0)
    assert cover_verify(rc, V)


def test_cover_verify_rejects_bad_cover():
    rc = constant_context_class([0.0, 1.0], 2)
    V = SequentialCover(elements=[BinaryTree.constant(2, 0.5)], scale=0.1)
    assert not cover_verify(rc, V)
    V2 = SequentialCover(elements=[BinaryTree.constant(2, 0.5)], scale=0.5)
    assert cover_verify(rc, V2)


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
    assert EntropyCurve.zero().value(0.3) == 0.0
    Hlog = EntropyCurve.log_form(2.0)
    assert Hlog.value(0.25) == pytest.approx(2.0 * math.log(4))
    with pytest.raises(ValueError):
        Hlog.value(0.0)
    with pytest.raises(ValueError):
        EntropyCurve.power(-1.0, 1.0)
    with pytest.raises(ValueError):
        Hlog.integral(0.5, 0.2)


def test_tabulated_curve_and_csv(tmp_path):
    curve = EntropyCurve.tabulated([0.5, 0.25], [1.0, 2.0], [1.5, 2.5])
    assert curve.value(0.25) == pytest.approx(2.5)
    out = tmp_path / "curve.csv"
    curve.export_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "gamma,lower,upper"
    assert len(lines) == 3


def test_lipschitz_enumeration_small():
    fam = LipschitzGridFamily()
    vals = fam.enumerate_values(0.25)
    # spacing 1.0: two grid points; levels {0, 0.5, 1.0}; slope <= 1
    assert vals.shape[1] == 2
    assert np.all(np.abs(np.diff(vals, axis=1)) <= 1.0 + 1e-12)
    assert np.all((vals >= 0) & (vals <= 1))
    # all enumerated functions distinct
    assert len({tuple(v) for v in vals}) == vals.shape[0]


def test_lipschitz_dim_guard():
    fam = LipschitzGridFamily(dim=2)
    with pytest.raises(NotImplementedError):
        fam.enumerate_values(0.25)


def test_entropy_estimate_sandwich_and_slope():
    fam = LipschitzGridFamily()
    curve = entropy_curve_estimate(fam, [0.25, 0.125, 0.0625], n=0)
    assert np.all(curve.lowers <= curve.uppers + 1e-12)
    # entropy grows as gamma shrinks
    assert curve.uppers[0] >= curve.uppers[-1]
    assert abs(curve.slope - 1.0) <= 0.3
