"""Hypercube lower-bound construction for Lipschitz Bernoulli regression.

Bins of width 4*eps tile [0,1]^dim; each sign vector v in {-1,+1}^N picks
a mean value in {eps, 4*eps} per bin center, and data are drawn i.i.d.
with x uniform over centers and y | x Bernoulli.  Averaging an online
strategy's predictions gives a batch estimator whose KL risk connects
regret to the n^{p/(p+1)} lower-bound rate.

A strategy here is a count rule: its prediction at a center after `ones`
ones in `total` visits there is the vectorised mean(ones, total), so it
holds no state and the data alone give every prediction.  Besides the two
rules below, `game.ConstantStrategy` is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_horizons, rate_exponents
from .core import _check_distinct_horizons, _loglog_slope, kl_bernoulli, log_loss

__all__ = [
    "AssouadClass",
    "BatchEstimator",
    "build_assouad_class",
    "sample_dataset",
    "EmpiricalMeanStrategy",
    "SignClassBayes",
    "online_to_batch",
    "kl_risk",
    "integer_dimension",
    "lower_bound_value",
    "check_class_horizon",
    "ScalingResult",
    "scaling_experiment",
]

_MAX_CENTERS = 1 << 20


@dataclass
class AssouadClass:
    dim: int
    epsilon: float
    centers: np.ndarray  # (N, dim) coordinates

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    def values(self, v) -> np.ndarray:
        """Per-center means under the sign vector v."""
        v = np.asarray(v)
        if v.shape != (self.n_centers,):
            raise ValueError("sign vector length must match center count")
        if not np.all(np.abs(v) == 1):
            raise ValueError("signs must be +-1")
        return np.where(v == 1, 4.0 * self.epsilon, self.epsilon)


@dataclass
class BatchEstimator:
    table: np.ndarray  # per-center probability

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if not np.all((self.table >= 0) & (self.table <= 1)):
            raise ValueError("estimates must lie in [0, 1]")


def build_assouad_class(dim: int, epsilon: float) -> AssouadClass:
    """Regular grid of bin centers at (4 eps)(i - 1/2) per coordinate."""
    if not 0 < epsilon < 0.125:
        raise ValueError("epsilon must lie in (0, 1/8)")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m = int(math.floor(1.0 / (4.0 * epsilon)))
    if m**dim > _MAX_CENTERS:
        raise ValueError("too many centers")
    axis = 4.0 * epsilon * (np.arange(1, m + 1) - 0.5)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    return AssouadClass(dim=dim, epsilon=epsilon, centers=centers)


def sample_dataset(ac: AssouadClass, v, n: int, seed: int):
    """n i.i.d. (center_id, outcome) pairs as an (n, 2) int64 array, one
    row per round: x uniform over centers, y | x ~ Ber(f_v(x))."""
    means = ac.values(v)
    rng = np.random.default_rng(seed)
    cids = rng.integers(0, ac.n_centers, size=n)
    ys = (rng.random(n) < means[cids]).astype(np.int64)
    return np.stack([cids, ys], axis=1)


class EmpiricalMeanStrategy:
    """Per-center running mean with add-one smoothing: the count rule
    (ones + 1) / (total + 2), the same on every class."""

    def __init__(self, ac: AssouadClass):
        pass

    def mean(self, ones, total):
        return (ones + 1.0) / (total + 2.0)


def _log_lik(ones, zeros, h):
    """Log likelihood of `ones` ones and `zeros` zeros under Ber(h)."""
    return ones * math.log(h) + zeros * math.log1p(-h)


class SignClassBayes:
    """Exact Bayes mixture over the 2^N sign class, uniform prior.

    The prior is a product over centers and the likelihood factorizes by
    center, so the posterior stays a product; per center it is a softmax
    of the two sign log-likelihoods, which depend only on the center's
    counts, so the mixture stays exact at any N.
    """

    def __init__(self, ac: AssouadClass):
        self.hi = 4.0 * ac.epsilon
        self.lo = ac.epsilon

    def mean(self, ones, total):
        zeros = total - ones
        lw_hi = _log_lik(ones, zeros, self.hi)
        lw_lo = _log_lik(ones, zeros, self.lo)
        m = np.maximum(lw_hi, lw_lo)
        w_hi = np.exp(lw_hi - m)
        w_lo = np.exp(lw_lo - m)
        return (w_hi * self.hi + w_lo * self.lo) / (w_hi + w_lo)


def _visits(ac: AssouadClass, dataset):
    """Each visit of the dataset with its center's counts before it.

    Returns (rounds, centers, ys, ones, total), one entry per visit, sorted
    by center and, within a center, by round (a stable argsort, a radix sort
    on uint16 keys up to 2^16 centers): the visit's round index, center and
    outcome, and the center's ones and visits in the rounds before it, as
    ints.  A center's first visit is the count of visits to lower centers,
    from bincount offsets, so the whole pass is linear in the visits up to
    2^16 centers.  ValueError names the first row whose center is not one
    of ac's or whose outcome is not 0 or 1, checked before the cast, so 0.7
    is no center and 0.9 no outcome.
    """
    raw = np.asarray(dataset).reshape(-1, 2)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        data = raw.astype(np.int64, copy=False)
    center, y = data.T
    bad = (center < 0) | (center >= ac.n_centers) | ((y != 0) & (y != 1))
    if data is not raw:  # a cast table holds whole numbers only if they survive it
        bad |= (data != raw).any(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(f"dataset row {r} is {tuple(raw[r].tolist())}: a row needs "
                         f"a center in [0, {ac.n_centers}) and an outcome 0 or 1, "
                         "both whole numbers")
    # a stable sort of uint16 keys is numpy's radix sort, and a stable
    # permutation is unique, so either key gives the same rounds
    key = center.astype(np.uint16) if ac.n_centers <= 1 << 16 else center
    rounds = np.argsort(key, kind="stable")
    centers, ys = center[rounds], y[rounds]
    counts = np.bincount(centers)
    start = (np.cumsum(counts) - counts)[centers]  # each center's first visit
    seen = np.cumsum(ys) - ys
    return rounds, centers, ys, seen - seen[start], np.arange(centers.size) - start


def online_to_batch(strategy, dataset, ac: AssouadClass) -> BatchEstimator:
    """Average of the count rule's per-round prediction tables.

    Every table starts at mean(0, 0) per center.  A visit in round r
    changes its center's entry by the difference of the means after and
    before it, and the next n - 1 - r tables show that change.
    """
    n = len(dataset)
    if n == 0:
        return BatchEstimator(np.full(ac.n_centers, 0.5))
    acc = np.full(ac.n_centers, n * strategy.mean(0, 0))
    rounds, centers, ys, ones, total = _visits(ac, dataset)
    delta = strategy.mean(ones + ys, total + 1) - strategy.mean(ones, total)
    acc += np.bincount(
        centers, weights=delta * (n - 1 - rounds), minlength=ac.n_centers
    )
    return BatchEstimator(acc / n)


def kl_risk(ac: AssouadClass, v, est: BatchEstimator) -> float:
    """(1/N) sum_i KL(f_v(x_i) || est(x_i))."""
    means = ac.values(v)
    if est.table.shape != means.shape:
        raise ValueError("estimator table size must match center count")
    return float(np.mean(kl_bernoulli(means, est.table)))


def integer_dimension(p: float) -> int:
    """p as the cube's dimension: the construction tiles [0,1]^p, so p
    must be a whole number of at least 1."""
    dim = int(round(p)) if math.isfinite(p) else 0
    if not (dim >= 1 and abs(dim - p) <= 1e-12):
        raise ValueError(f"the experiment needs an integer dimension p, got {p!r}")
    return dim


def lower_bound_value(p: float, n: int):
    """The n^{p/(p+1)}/128 lower bound and its epsilon n^{-1/(p+1)}/8."""
    _check_horizons((n,))
    rate = rate_exponents(p).new_exponent
    return n**rate / 128.0, n ** (-1.0 / (p + 1.0)) / 8.0


def check_class_horizon(n: int) -> None:
    """Raise unless horizon n has a sign class: its epsilon
    n^{-1/(p+1)}/8 must lie below 1/8, and at n = 1 it is 1/8 itself."""
    if n < 2:
        raise ValueError(f"horizon {n} gives epsilon >= 1/8 and no Assouad "
                         "class; the horizon must be at least 2")


def _sign_class_regret(ac: AssouadClass, strategy, dataset) -> float:
    """Cumulative log loss of the strategy minus the best sign vector's.

    The best competitor decomposes per center: each center independently
    picks whichever of {eps, 4 eps} has smaller total loss there.
    """
    _, centers, ys, ones_before, total_before = _visits(ac, dataset)
    preds = strategy.mean(ones_before, total_before)
    player = float(np.sum(log_loss(preds, ys)))
    ones = np.bincount(centers, weights=ys, minlength=ac.n_centers)
    total = np.bincount(centers, minlength=ac.n_centers)
    zeros = total - ones
    # -max of the two log likelihoods, which is min of the two losses
    best = -float(np.maximum(_log_lik(ones, zeros, ac.epsilon),
                             _log_lik(ones, zeros, 4.0 * ac.epsilon)).sum())
    return player - best


@dataclass
class ScalingResult:
    p: float
    ns: list
    epsilons: list
    regrets: np.ndarray  # (len(ns), n_seeds)
    medians: np.ndarray
    slope: float


def scaling_experiment(
    p: float, n_grid, strategy_factory, seeds, master_seed: int = 0
) -> ScalingResult:
    """Median online regret against the sign class as n grows, with
    epsilon = n^{-1/(p+1)}/8 per cell; returns the log-log slope fit.

    strategy_factory maps an AssouadClass to a count rule, an object with
    a vectorised `mean(ones, total)`.
    """
    dim = integer_dimension(p)
    ns = [int(n) for n in n_grid]
    _check_distinct_horizons(ns)
    _check_horizons(ns)
    check_class_horizon(min(ns))
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    regrets = np.zeros((len(ns), len(seeds)))
    epsilons = []
    for i, n in enumerate(ns):
        _, eps = lower_bound_value(p, n)
        epsilons.append(eps)
        ac = build_assouad_class(dim, eps)
        strategy = strategy_factory(ac)
        for j, seed in enumerate(seeds):
            rng = np.random.default_rng([master_seed, seed, n])
            v = rng.choice([-1, 1], size=ac.n_centers)
            data_seed = int(rng.integers(0, 2**31))
            dataset = sample_dataset(ac, v, n, data_seed)
            regrets[i, j] = _sign_class_regret(ac, strategy, dataset)
    medians = np.median(regrets, axis=1)
    return ScalingResult(
        p=p,
        ns=ns,
        epsilons=epsilons,
        regrets=regrets,
        medians=medians,
        slope=_loglog_slope(ns, medians),
    )
