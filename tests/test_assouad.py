import math
import re

import numpy as np
import pytest

from logloss_lab.assouad import (
    EmpiricalMeanStrategy,
    SignClassBayes,
    build_assouad_class,
    kl_risk,
    lower_bound_value,
    online_to_batch,
    sample_dataset,
    scaling_experiment,
    _sign_class_regret,
    _visits,
)
from logloss_lab.core import kl_bernoulli, log_loss
from logloss_lab.game import ConstantStrategy


def test_build_p1():
    ac = build_assouad_class(1, 1 / 16)
    assert ac.n_centers == 4
    assert np.allclose(ac.centers.ravel(), [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_build_p2():
    ac = build_assouad_class(2, 1 / 16)
    assert ac.n_centers == 16
    assert ac.centers.shape == (16, 2)


def test_build_floor_and_range():
    ac = build_assouad_class(1, 1 / 8 - 1e-9)
    assert ac.n_centers == 2
    with pytest.raises(ValueError):
        build_assouad_class(1, 0.2)
    with pytest.raises(ValueError):
        build_assouad_class(1, 0.0)


def test_values_and_lipschitz_extension():
    ac = build_assouad_class(1, 0.05)
    rng = np.random.default_rng(0)
    v = rng.choice([-1, 1], size=ac.n_centers)
    fv = ac.values(v)
    assert set(np.unique(fv)) <= {0.05, 0.2}
    # value gap 3 eps never exceeds center separation (spacing 4 eps)
    for i in range(ac.n_centers):
        for j in range(ac.n_centers):
            if i != j:
                dist = np.max(np.abs(ac.centers[i] - ac.centers[j]))
                assert abs(fv[i] - fv[j]) <= dist + 1e-12
    with pytest.raises(ValueError):
        ac.values(np.zeros(ac.n_centers))


def test_sample_dataset_deterministic_and_lln():
    ac = build_assouad_class(1, 0.05)
    v = np.ones(ac.n_centers, dtype=int)
    d1 = sample_dataset(ac, v, 50, seed=3)
    d2 = sample_dataset(ac, v, 50, seed=3)
    assert np.array_equal(d1, d2)
    assert sample_dataset(ac, v, 0, seed=3).shape == (0, 2)
    n = 200_000
    data = sample_dataset(ac, v, n, seed=4)
    mean = sum(y for _, y in data) / n
    sigma = math.sqrt(0.2 * 0.8 / n)
    assert abs(mean - 0.2) <= 3 * sigma


def test_online_to_batch_constant():
    ac = build_assouad_class(1, 0.05)
    v = np.ones(ac.n_centers, dtype=int)
    data = sample_dataset(ac, v, 20, seed=0)
    est = online_to_batch(ConstantStrategy(0.5), data, ac)
    assert np.allclose(est.table, 0.5)


def test_online_to_batch_empirical_learns():
    ac = build_assouad_class(1, 0.05)
    data = [(0, 1)] * 200
    est = online_to_batch(EmpiricalMeanStrategy(ac), data, ac)
    assert est.table[0] > 0.9
    assert est.table[1] == 0.5


def test_datasets_need_known_centers_and_binary_outcomes():
    ac = build_assouad_class(1, 1 / 16)

    def regret(data):
        return _sign_class_regret(ac, SignClassBayes(ac), data)

    def batch(data):
        return online_to_batch(EmpiricalMeanStrategy(ac), data, ac)

    cases = [
        (regret, [(10, 1), (0, 1)], 0),  # unchecked, an 11th center
        (batch, [(10, 1), (0, 1)], 0),
        (batch, [(1, 2), (0, 1)], 0),  # unchecked, two ones
        (batch, [(0, 1), (-1, 0)], 1),
        # checked before the cast to ints, which truncates 0.7 and 0.9 to 0
        (batch, [(0.7, 1.0), (1.0, 0.9)], 0),
        (regret, [(1.0, 0.0), (1.0, 0.9)], 1),
        (batch, [(0.0, 1.0), (math.nan, 0.0)], 1),
        (regret, [(0.0, 1.0), (2.0, math.inf)], 1),
    ]
    for call, data, row in cases:
        message = f"dataset row {row} is {data[row]}: a row needs a center in [0, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(data)
    # whole floats are whole numbers
    assert (batch([(0.0, 1.0), (1.0, 0.0)]).table.tolist()
            == batch([(0, 1), (1, 0)]).table.tolist())


def _ref_visits(ac, dataset):
    """_visits by a comparison sort: a stable argsort of the int64 centers
    and each center's first visit by binary search."""
    center, y = np.asarray(dataset, dtype=np.int64).T
    rounds = np.argsort(center, kind="stable")
    centers, ys = center[rounds], y[rounds]
    start = np.searchsorted(centers, centers)
    seen = np.cumsum(ys) - ys
    return rounds, centers, ys, seen - seen[start], np.arange(centers.size) - start


@pytest.mark.parametrize("p, eps", [(1, 1 / 16), (1, 0.001), (2, 1 / 1024), (2, 0.0009)])
def test_visits_match_comparison_sort(p, eps):
    # 4, 250, exactly 2^16 and 76729 centers: both sides of the uint16 keys
    ac = build_assouad_class(p, eps)
    assert ac.n_centers == {1 / 16: 4, 0.001: 250, 1 / 1024: 1 << 16, 0.0009: 76729}[eps]
    rng = np.random.default_rng(ac.n_centers)
    data = sample_dataset(ac, rng.choice([-1, 1], size=ac.n_centers), 3000, 5)
    data[:2, 0] = ac.n_centers - 1, 0  # the largest key and the smallest
    for rows in (data, data[:1], data[:0]):
        got, want = _visits(ac, rows), _ref_visits(ac, rows)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def test_bayes_posterior_moves_right_way():
    ac = build_assouad_class(1, 0.05)
    strat = SignClassBayes(ac)
    assert strat.mean(0, 0) == pytest.approx((0.05 + 0.2) / 2)
    # a center seen 100 times, all ones, beside one not seen yet
    after = strat.mean(np.array([100, 0]), np.array([100, 0]))
    assert after[0] == pytest.approx(0.2, abs=1e-6)
    assert after[1] == pytest.approx(0.125)
    assert strat.mean(0, 100) == pytest.approx(0.05, abs=1e-6)


def test_kl_risk():
    ac = build_assouad_class(1, 0.05)
    v = np.ones(ac.n_centers, dtype=int)
    from logloss_lab.assouad import BatchEstimator

    exact = BatchEstimator(ac.values(v))
    assert kl_risk(ac, v, exact) == 0.0
    half = BatchEstimator(np.full(ac.n_centers, 0.5))
    assert kl_risk(ac, v, half) == pytest.approx(
        kl_bernoulli(0.2, 0.5), abs=1e-12
    )
    assert kl_risk(ac, v, half) == pytest.approx(0.1927, abs=5e-4)
    # wrong-side estimate picks up the eps/6 penalty
    wrong = BatchEstimator(np.full(ac.n_centers, 0.5 * 0.05))
    assert kl_risk(ac, v, wrong) >= 0.05 / 6


def test_kl_four_eps_vs_eps():
    for eps in np.linspace(1e-4, 0.124, 50):
        assert kl_bernoulli(4 * eps, eps) <= 8 * eps


def test_lower_bound_value():
    val, eps = lower_bound_value(1, 2**14)
    assert val == 1.0
    assert eps == pytest.approx(2**-7 / 8, rel=1e-15)
    val2, _ = lower_bound_value(2, 1)
    assert val2 == pytest.approx(1 / 128)
    for p in (1, 2, 3):
        v, _ = lower_bound_value(p, 1000)
        assert v / 1000 ** (p / (p + 1)) == pytest.approx(1 / 128, rel=1e-12)


def test_epsilon_arithmetic():
    # (p, n) pairs whose exponent -1/(p+1) is a dyadic float, so the
    # identity holds with no rounding at all
    for p, n in [(1, 2**8), (1, 2**14), (3, 2**12), (3, 2**16)]:
        eps = n ** (-1.0 / (p + 1)) / 8.0
        assert n * (4 * eps) ** (1 + p) == 2.0 ** -(1 + p)
    # 1/3 is not a dyadic float; p = 2 holds to machine precision
    eps = 4096 ** (-1.0 / 3.0) / 8.0
    assert 4096 * (4 * eps) ** 3 == pytest.approx(2.0**-3, rel=1e-12)


def test_scaling_experiment_small():
    res = scaling_experiment(
        1.0, [64, 128, 256], SignClassBayes, range(5)
    )
    assert res.slope > 0.0
    assert res.regrets.shape == (3, 5)
    assert list(res.medians) == sorted(res.medians)
    with pytest.raises(ValueError):
        scaling_experiment(1.5, [64, 128], SignClassBayes, range(3))
    for grid in ([64], [64, 64]):
        with pytest.raises(ValueError, match="two distinct horizons"):
            scaling_experiment(1.0, grid, SignClassBayes, range(3))
    with pytest.raises(ValueError, match="degenerate grid: horizon 64 "):
        scaling_experiment(1.0, [64, 128, 64], SignClassBayes, range(3))
    with pytest.raises(ValueError, match="horizons must be >= 1"):
        scaling_experiment(1.0, [0, 64], SignClassBayes, range(3))
    with pytest.raises(ValueError, match="horizon must be at least 2"):
        scaling_experiment(1.0, [64, 1], SignClassBayes, range(3))
    with pytest.raises(ValueError, match="at least one seed"):
        scaling_experiment(1.0, [64, 128], SignClassBayes, [])


def test_scaling_experiment_deterministic():
    a = scaling_experiment(1.0, [64, 128], SignClassBayes, range(3))
    b = scaling_experiment(1.0, [64, 128], SignClassBayes, range(3))
    assert np.array_equal(a.regrets, b.regrets)


# Per-round references for the count paths: strategies that keep their
# own running state, and a regret replay and an online-to-batch average
# that step through the data one round at a time.


class _LoopConstant:
    def __init__(self, ac, value=0.5):
        self.n_centers = ac.n_centers
        self.value = float(value)

    def predict(self, cid):
        return self.value

    def update(self, cid, y):
        pass

    def table(self):
        return np.full(self.n_centers, self.value)


class _LoopEmpirical:
    def __init__(self, ac):
        self.ones = np.zeros(ac.n_centers)
        self.total = np.zeros(ac.n_centers)

    def predict(self, cid):
        return (self.ones[cid] + 1.0) / (self.total[cid] + 2.0)

    def update(self, cid, y):
        self.ones[cid] += y
        self.total[cid] += 1

    def table(self):
        return (self.ones + 1.0) / (self.total + 2.0)


class _LoopBayes:
    def __init__(self, ac):
        self.hi = 4.0 * ac.epsilon
        self.lo = ac.epsilon
        self.log_w_hi = np.zeros(ac.n_centers)
        self.log_w_lo = np.zeros(ac.n_centers)

    def _posterior_mean(self, lw_hi, lw_lo):
        m = np.maximum(lw_hi, lw_lo)
        w_hi = np.exp(lw_hi - m)
        w_lo = np.exp(lw_lo - m)
        return (w_hi * self.hi + w_lo * self.lo) / (w_hi + w_lo)

    def predict(self, cid):
        return float(self._posterior_mean(self.log_w_hi[cid], self.log_w_lo[cid]))

    def update(self, cid, y):
        if y == 1:
            self.log_w_hi[cid] += math.log(self.hi)
            self.log_w_lo[cid] += math.log(self.lo)
        else:
            self.log_w_hi[cid] += math.log1p(-self.hi)
            self.log_w_lo[cid] += math.log1p(-self.lo)

    def table(self):
        return self._posterior_mean(self.log_w_hi, self.log_w_lo)


def _loop_regret(ac, strategy, dataset):
    player = 0.0
    ones = np.zeros(ac.n_centers)
    total = np.zeros(ac.n_centers)
    for cid, y in dataset:
        player += log_loss(strategy.predict(cid), y)
        strategy.update(cid, y)
        ones[cid] += y
        total[cid] += 1
    zeros = total - ones
    lo, hi = ac.epsilon, 4.0 * ac.epsilon
    loss_lo = -ones * math.log(lo) - zeros * math.log1p(-lo)
    loss_hi = -ones * math.log(hi) - zeros * math.log1p(-hi)
    return player - float(np.minimum(loss_lo, loss_hi).sum())


def _loop_online_to_batch(strategy, dataset, ac):
    if len(dataset) == 0:
        return np.full(ac.n_centers, 0.5)
    acc = np.zeros(ac.n_centers)
    for cid, y in dataset:
        acc += strategy.table()
        strategy.update(cid, y)
    return acc / len(dataset)


# (label, count-rule strategy, per-round reference)
_PAIRS = [
    pytest.param("half", lambda ac: ConstantStrategy(0.5), _LoopConstant,
                 id="half-ConstantStrategy-_LoopConstant"),
    ("zero", lambda ac: ConstantStrategy(0.0), lambda ac: _LoopConstant(ac, 0.0)),
    ("one", lambda ac: ConstantStrategy(1.0), lambda ac: _LoopConstant(ac, 1.0)),
    ("empirical", EmpiricalMeanStrategy, _LoopEmpirical),
    ("bayes", SignClassBayes, _LoopBayes),
]


def _datasets(ac, rng):
    """A sampled dataset, one that leaves most centers unvisited, one
    with a single round, and the empty one."""
    v = rng.choice([-1, 1], size=ac.n_centers)
    few = [(int(c), int(y)) for c, y in
           zip(rng.integers(0, 3, size=40), rng.integers(0, 2, size=40))]
    return [sample_dataset(ac, v, 300, int(rng.integers(2**31))), few,
            [(ac.n_centers - 1, 1)], []]


def _assert_close(new, ref, rel):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert not np.any(np.isnan(new))
    assert np.array_equal(np.isinf(new), np.isinf(ref))
    assert np.array_equal(new[np.isinf(new)], ref[np.isinf(ref)])
    fin = np.isfinite(ref)
    assert np.all(np.abs(new[fin] - ref[fin]) <= rel * np.abs(ref[fin]) + 1e-300)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("label, make, make_ref", _PAIRS)
def test_count_paths_match_per_round_loops(p, label, make, make_ref):
    rng = np.random.default_rng([p, len(label)])
    ac = build_assouad_class(p, 0.05)
    for data in _datasets(ac, rng):
        _assert_close(_sign_class_regret(ac, make(ac), data),
                      _loop_regret(ac, make_ref(ac), data), 1e-9)
        _assert_close(online_to_batch(make(ac), data, ac).table,
                      _loop_online_to_batch(make_ref(ac), data, ac), 1e-9)


@pytest.mark.parametrize("label, make, make_ref", _PAIRS)
def test_reused_strategy_matches_fresh_ones(label, make, make_ref):
    # a count rule keeps no counts, so a second dataset starts where a
    # fresh rule would, however much data the same object has scored
    rng = np.random.default_rng(len(label))
    ac = build_assouad_class(1, 0.05)
    first, second = _datasets(ac, rng)[:2]
    reused = make(ac)
    for data in (first, second):
        assert (_sign_class_regret(ac, reused, data)
                == _sign_class_regret(ac, make(ac), data))
        assert np.array_equal(online_to_batch(reused, data, ac).table,
                              online_to_batch(make(ac), data, ac).table)


def test_constant_extremes_give_inf_not_nan():
    ac = build_assouad_class(1, 0.05)
    for value in (0.0, 1.0):
        wrong = [(0, 1 - int(value))] * 3
        right = [(0, int(value))] * 3
        assert _sign_class_regret(ac, ConstantStrategy(value), wrong) == math.inf
        assert math.isfinite(_sign_class_regret(ac, ConstantStrategy(value), right))
