"""Exact minimax regret for finite expert classes.

The primal value is computed by backward induction in the log domain:
terminal nodes carry the best-expert log likelihood of the realized
history, interior nodes take a log-sum-exp over the two outcomes and a
max over the contexts the adversary may present.  For a single available
context per round this is the Shtarkov sum.

Under `StaticContexts` the value of a history depends only on how often
each (context, outcome) pair occurred, so the induction runs level by level
over those count states: C(t + 2k - 1, 2k - 1) states at depth t instead of
(2k)^t histories.  One table serves `exact_minimax`, `optimal_prediction`
and `MinimaxOptimal`; the Bayes mixture's worst case is a max over the leaf
count vectors, ties (regret within 1e-12 of the max) going to the
lexicographically first sorted sequence.  Any other availability rule runs
the recursion over histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BinaryTree, ExpertClass, log_loss

__all__ = [
    "AvailabilityRule",
    "StaticContexts",
    "PreviousOutcomes",
    "GameInstance",
    "DualStrategy",
    "RegretTrace",
    "exact_minimax",
    "optimal_prediction",
    "dual_value",
    "run_strategy",
    "worst_case_search",
    "MinimaxOptimal",
    "BayesMixture",
    "ConstantStrategy",
    "FixedSequence",
    "StochasticAdversary",
    "MaximinSearch",
    "random_dual_strategy",
]

NODE_GUARD = 10**8
SEARCH_GUARD = 10**7
STATE_GUARD = 5 * 10**6


class AvailabilityRule:
    """Maps a history (tuple of (context, outcome) pairs) to the contexts
    the adversary may present next round."""

    def available(self, history):
        raise NotImplementedError

    def max_contexts(self) -> int:
        raise NotImplementedError


class StaticContexts(AvailabilityRule):
    """The same context set every round, regardless of history."""

    def __init__(self, contexts):
        contexts = tuple(contexts)
        if not contexts:
            raise ValueError("availability must never be empty")
        self.contexts = contexts

    def available(self, history):
        return self.contexts

    def max_contexts(self):
        return len(self.contexts)


class PreviousOutcomes(AvailabilityRule):
    """The single context identifying the outcomes observed so far.

    Context ids are tuples of past outcomes; the expert class must define
    every such tuple as a context.
    """

    def available(self, history):
        return (tuple(y for _, y in history),)

    def max_contexts(self):
        return 1


@dataclass
class GameInstance:
    horizon: int
    expert_class: ExpertClass
    availability: AvailabilityRule | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.availability is None:
            self.availability = StaticContexts(self.expert_class.contexts)

    def estimated_nodes(self) -> float:
        k = self.availability.max_contexts()
        return sum((2.0 * k) ** t for t in range(1, self.horizon + 1))


@dataclass
class DualStrategy:
    """Adversary commitment in the dual game: a context tree plus an
    outcome-distribution tree of matching depth."""

    context_tree: BinaryTree
    prob_tree: BinaryTree

    def __post_init__(self):
        if self.context_tree.depth != self.prob_tree.depth:
            raise ValueError("context and probability trees must share depth")


@dataclass
class RegretTrace:
    predictions: list
    outcomes: list
    contexts: list
    player_loss: float
    best_expert_loss: float
    regret: float

    def recompute_regret(self, expert_class: ExpertClass) -> float:
        player = sum(
            log_loss(p, y) for p, y in zip(self.predictions, self.outcomes)
        )
        best = _best_expert_loss(expert_class, self.contexts, self.outcomes)
        return player - best


def _best_expert_loss(ec: ExpertClass, contexts, outcomes) -> float:
    # 0 - max, not -max: a perfect expert's loss is +0.0
    return 0.0 - float(np.max(ec.history_log_lik(zip(contexts, outcomes))))


def _check_instance(g: GameInstance):
    if g.estimated_nodes() > NODE_GUARD:
        raise ValueError("game instance too large for exact computation")


def _has_count_states(g: GameInstance) -> bool:
    # exact type: a subclass may make availability depend on the history
    return type(g.availability) is StaticContexts


def _count_levels(k: int, n: int):
    """Every count state of depth 0..n over the 2k cells (context i,
    outcome y), cell 2i + y.

    Returns (children, leaves): children[t][s, i, y] is the index at depth
    t + 1 of state s of depth t with one more (i, y); leaves holds the
    depth-n count vectors.  A depth-t state is ranked by its stars-and-bars
    bar positions b_j = c_0 + ... + c_j + j, j < 2k - 1, whose colex rank
    sum_j C(b_j, j + 1) runs over 0..C(t + 2k - 1, 2k - 1) - 1.
    """
    m = 2 * k
    if math.comb(n + m, m) > STATE_GUARD:
        raise ValueError("game instance too large for exact computation")
    # binom[b, r] = C(b, r), capped above the guard, which no rank reaches
    binom = np.zeros((n + m, m), dtype=np.int64)
    binom[:, 0] = 1
    for r in range(1, m):
        binom[1:, r] = np.minimum(
            np.cumsum(binom[:-1, r - 1]), STATE_GUARD + 1
        )
    offsets = np.arange(m - 1)
    step = np.eye(m, dtype=np.int64)
    states = np.zeros((1, m), dtype=np.int64)
    children = []
    for t in range(1, n + 1):
        grown = states[:, None, :] + step
        bars = np.cumsum(grown[..., :-1], axis=-1) + offsets
        child = binom[bars, offsets + 1].sum(axis=-1)
        states = np.empty((math.comb(t + m - 1, m - 1), m), dtype=np.int64)
        states[child.ravel()] = grown.reshape(-1, m)
        children.append(child.reshape(-1, k, 2))
    return children, states


def _leaf_log_lik(ec: ExpertClass, contexts, counts) -> np.ndarray:
    """(states, experts) log likelihoods of count vectors over the cells of
    `contexts`.  A masked sum: a count of 0 times log 0 = -inf adds 0, which
    `counts @ log_lik` would turn into NaN.  (einsum, not BLAS: the cell
    axis is short, and a first BLAS call allocates its buffers.)"""
    cols = [ec.context_index(x) for x in contexts]
    ll = ec.log_lik[:, :, cols].transpose(1, 2, 0).reshape(ec.n_experts, -1)
    ruled_out = np.isneginf(ll)
    total = np.einsum("sc,fc->sf", counts, np.where(ruled_out, 0.0, ll))
    hits = np.einsum("sc,fc->sf", counts, ruled_out.astype(np.int64))
    total[hits > 0] = -np.inf
    return total


class _CountTable:
    """W over the count states of a StaticContexts game, by depth."""

    def __init__(self, g: GameInstance):
        contexts = g.availability.contexts
        self.cell = {x: i for i, x in enumerate(contexts)}
        self.children, leaves = _count_levels(len(contexts), g.horizon)
        w = np.max(_leaf_log_lik(g.expert_class, contexts, leaves), axis=1)
        self.values = [w]
        for child in reversed(self.children):
            w_child = w[child]
            w = np.max(np.logaddexp(w_child[..., 0], w_child[..., 1]), axis=1)
            self.values.append(w)
        self.values.reverse()
        self.states = sum(w.size for w in self.values)

    def child_values(self, history, x):
        """(W0, W1) of history's two children under context x."""
        s = 0
        try:
            for t, (hx, hy) in enumerate(history):
                s = self.children[t][s, self.cell[hx], hy]
        except (KeyError, IndexError):
            raise ValueError(
                "history not reachable under the availability rule"
            ) from None
        t = len(history)
        w0, w1 = self.values[t + 1][self.children[t][s, self.cell[x]]]
        return float(w0), float(w1)


def _value(g: GameInstance, history: tuple, loglik: np.ndarray) -> float:
    """W(history); loglik holds each expert's cumulative log likelihood."""
    if len(history) == g.horizon:
        return float(np.max(loglik))
    return max(
        np.logaddexp(*_children(g, history, loglik, x))
        for x in g.availability.available(history)
    )


def _children(g: GameInstance, history: tuple, loglik: np.ndarray, x):
    """(W0, W1): the values of history's two children under context x."""
    ec = g.expert_class
    lik = ec.log_lik[:, :, ec.context_index(x)]
    return tuple(
        _value(g, history + ((x, y),), loglik + lik[y]) for y in (0, 1)
    )


def exact_minimax(g: GameInstance) -> float:
    """Value of the alternating sup/inf game, via backward induction."""
    if _has_count_states(g):
        return float(_CountTable(g).values[0][0])
    _check_instance(g)
    return _value(g, (), np.zeros(g.expert_class.n_experts))


def optimal_prediction(g: GameInstance, history, x) -> float:
    """Saddle-point prediction exp(W1) / (exp(W0) + exp(W1)) at this node."""
    table = _CountTable(g) if _has_count_states(g) else None
    return _optimal_prediction(g, table, history, x)


def _optimal_prediction(g: GameInstance, table, history, x) -> float:
    """optimal_prediction, read from a count table when one is given."""
    history = tuple(history)
    if len(history) >= g.horizon:
        raise ValueError("history already has full length")
    if x not in g.availability.available(history):
        raise ValueError(f"context {x!r} not available after this history")
    if table is None:
        _check_instance(g)
        loglik = g.expert_class.history_log_lik(history)
        w0, w1 = _children(g, history, loglik, x)
    else:
        w0, w1 = table.child_values(history, x)
    if w0 == -math.inf and w1 == -math.inf:
        raise ValueError("both continuation values are -inf")
    return float(np.exp(w1 - np.logaddexp(w0, w1)))


def _child_histories(histories, xs):
    """Histories of the next level: every node's outcome-0 child, then its
    outcome-1 child (see BinaryTree.level)."""
    return [h + ((x, y),) for y in (0, 1) for h, x in zip(histories, xs)]


def dual_value(g: GameInstance, s: DualStrategy) -> float:
    """Expected regret when the adversary commits to (x, p) trees and the
    player best-responds with p-hat = p; paths through a branch of
    probability exactly zero are skipped.

    One pass over the tree levels carries, for every prefix, the path
    probability, the player's and each expert's cumulative loss, and
    whether no branch so far was exactly zero.  Availability is checked
    only at nodes such a prefix reaches.
    """
    n = g.horizon
    if s.context_tree.depth != n:
        raise ValueError("tree depth must equal the horizon")
    if (1 << n) > (1 << 20):
        raise ValueError("too many paths for exact dual evaluation")
    ec = g.expert_class
    prob, player = np.ones(1), np.zeros(1)
    experts = np.zeros((ec.n_experts, 1))
    reached = np.ones(1, dtype=bool)
    histories = [()]
    for t in range(1, n + 1):
        xs = s.context_tree.level(t)
        p = s.prob_tree.level(t).astype(float)
        cols = np.zeros(len(xs), dtype=int)
        for q in np.flatnonzero(reached):
            if xs[q] not in g.availability.available(histories[q]):
                raise ValueError(
                    "context tree inconsistent with availability rule"
                )
            cols[q] = ec.context_index(xs[q])
        branch = (1.0 - p, p)
        prob = np.concatenate([prob * b for b in branch])
        player = np.concatenate([player + log_loss(p, y) for y in (0, 1)])
        experts = np.concatenate(
            [experts - lik[:, cols] for lik in ec.log_lik], axis=1
        )
        reached = np.concatenate([reached & (b != 0.0) for b in branch])
        if t < n:
            histories = _child_histories(histories, xs)
    best = experts[:, reached].min(axis=0)
    with np.errstate(invalid="ignore"):
        return float(np.sum(prob[reached] * (player[reached] - best)))


def random_dual_strategy(g: GameInstance, rng) -> DualStrategy:
    """Uniformly random prob tree plus a random consistent context tree."""
    n = g.horizon
    prob = BinaryTree(n, values=rng.uniform(size=(1 << n) - 1))
    ctx = BinaryTree(n, values=np.empty((1 << n) - 1, dtype=object))
    # Context at (t, prefix) must be valid for every history reaching the
    # node; with the built-in rules availability depends on outcomes only,
    # so picking per-prefix (outcomes determine the prefix) is consistent.
    histories = [()]
    for t in range(1, n + 1):
        xs = ctx.level(t)
        for q, history in enumerate(histories):
            options = g.availability.available(history)
            xs[q] = options[rng.integers(len(options))]
        if t < n:
            histories = _child_histories(histories, xs)
    return DualStrategy(context_tree=ctx, prob_tree=prob)


# ---------------------------------------------------------------------------
# Prediction strategies and adversaries for protocol simulation.
# ---------------------------------------------------------------------------


class MinimaxOptimal:
    """Plays the saddle point of the backward-induction node.

    A StaticContexts game is solved once, here, on count states; under any
    other rule each prediction re-solves its subtree over histories.
    `solver` names the path and `states` the nodes one solve visits.
    """

    def __init__(self, game: GameInstance):
        self.game = game
        if _has_count_states(game):
            self._table = _CountTable(game)
            self.solver, self.states = "counts", self._table.states
        else:
            self._table = None
            self.solver = "histories"
            self.states = 1 + int(game.estimated_nodes())

    @property
    def value(self) -> float:
        """The game's minimax value."""
        if self._table is None:
            return exact_minimax(self.game)
        return float(self._table.values[0][0])

    def predict(self, history, x) -> float:
        return _optimal_prediction(self.game, self._table, history, x)


class BayesMixture:
    """Posterior-weighted mean over the expert class; the prior-weighted
    mean once every expert has given a realized outcome probability 0."""

    def __init__(self, expert_class: ExpertClass, prior=None):
        self.expert_class = expert_class
        if prior is None:
            prior = np.full(expert_class.n_experts, 1.0 / expert_class.n_experts)
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (expert_class.n_experts,) or not math.isclose(
            prior.sum(), 1.0, abs_tol=1e-9
        ):
            raise ValueError("prior must be a distribution over experts")
        self.log_prior = np.log(prior)

    def predict(self, history, x) -> float:
        logw = self.expert_class.history_log_lik(history, self.log_prior)
        top = np.max(logw)
        if top == -math.inf:
            logw = self.log_prior
            top = np.max(logw)
        w = np.exp(logw - top)
        return float(np.dot(w, self.expert_class.column(x)) / w.sum())


class ConstantStrategy:
    def __init__(self, p: float):
        if not 0 <= p <= 1:
            raise ValueError("constant prediction must lie in [0, 1]")
        self.p = p

    def predict(self, history, x) -> float:
        return self.p


class FixedSequence:
    """Adversary playing a preset (context, outcome) sequence."""

    def __init__(self, contexts, outcomes):
        if len(contexts) != len(outcomes):
            raise ValueError("contexts and outcomes must have equal length")
        self.contexts = list(contexts)
        self.outcomes = list(outcomes)

    def context(self, history):
        return self.contexts[len(history)]

    def outcome(self, history, p_hat):
        return self.outcomes[len(history)]


class StochasticAdversary:
    """Contexts from a tree, outcomes drawn from a probability tree."""

    def __init__(self, context_tree: BinaryTree, prob_tree: BinaryTree, seed=0):
        self.context_tree = context_tree
        self.prob_tree = prob_tree
        self.rng = np.random.default_rng(seed)
        self._bits = 0

    def context(self, history):
        t = len(history) + 1
        return self.context_tree.get(t, self._bits)

    def outcome(self, history, p_hat):
        t = len(history) + 1
        p = float(self.prob_tree.get(t, self._bits))
        y = int(self.rng.uniform() < p)
        self._bits |= y << (t - 1)
        return y


class MaximinSearch:
    """Marker: run the exhaustive worst-case search for this strategy."""


def run_strategy(g: GameInstance, strategy, adversary) -> RegretTrace:
    """Faithful protocol simulation of one game."""
    if isinstance(adversary, MaximinSearch) or adversary is MaximinSearch:
        (contexts, outcomes), _ = worst_case_search(g, strategy)
        adversary = FixedSequence(contexts, outcomes)
    history = ()
    predictions, outcomes, contexts = [], [], []
    for _ in range(g.horizon):
        x = adversary.context(history)
        if x not in g.availability.available(history):
            raise ValueError("adversary played an unavailable context")
        p_hat = strategy.predict(history, x)
        y = adversary.outcome(history, p_hat)
        predictions.append(p_hat)
        contexts.append(x)
        outcomes.append(y)
        history = history + ((x, y),)
    player = float(sum(log_loss(p, y) for p, y in zip(predictions, outcomes)))
    best = _best_expert_loss(g.expert_class, contexts, outcomes)
    return RegretTrace(
        predictions=predictions,
        outcomes=outcomes,
        contexts=contexts,
        player_loss=player,
        best_expert_loss=best,
        regret=player - best,
    )


def worst_case_search(g: GameInstance, strategy):
    """Exhaustively find the (context, outcome) sequence maximizing the
    strategy's regret; ties broken by the lexicographically smallest
    sequence (context index first, then outcome).  Each expert's loss is
    carried down the recursion, so a leaf costs one min.

    A BayesMixture on a StaticContexts game is searched over count vectors
    instead (see _bayes_worst_case), with its own tie rule.
    """
    if _has_count_states(g) and type(strategy) is BayesMixture:
        return _bayes_worst_case(g, strategy)
    k = g.availability.max_contexts()
    if (2 * k) ** g.horizon > SEARCH_GUARD:
        raise ValueError("instance too large for exhaustive search")

    ec = g.expert_class
    best = {"regret": -math.inf, "seq": None}

    def recurse(history, player_loss, expert_loss):
        if len(history) == g.horizon:
            regret = player_loss - float(np.min(expert_loss))
            # strict improvement keeps the lexicographically first maximizer
            if regret > best["regret"] + 1e-15:
                best["regret"] = regret
                best["seq"] = tuple(list(c) for c in zip(*history))
            return
        for x in g.availability.available(history):
            p_hat = strategy.predict(history, x)
            lik = ec.log_lik[:, :, ec.context_index(x)]
            for y in (0, 1):
                recurse(history + ((x, y),), player_loss + log_loss(p_hat, y),
                        expert_loss - lik[y])

    recurse((), 0.0, np.zeros(ec.n_experts))
    return best["seq"], best["regret"]


def _bayes_worst_case(g: GameInstance, strategy: BayesMixture):
    """worst_case_search for a Bayes mixture on a StaticContexts game.

    The mixture's cumulative loss is -log sum_f pi_f exp(L_f), a function
    of the (context, outcome) counts alone, so its regret
    max_f L_f - logsumexp(log pi + L) is scored once per leaf count vector.
    This is the mixture's exact regret; a replay of its floating-point
    predictions agrees while no posterior weight underflows.  A count
    vector that rules out every expert scores -inf.  Ties: among the count
    vectors whose regret is within 1e-12 of the max, the one whose sorted
    sequence (rounds ordered by context position, then outcome) is
    lexicographically first, i.e. the lexicographically largest count
    vector; that sorted sequence is returned.
    """
    contexts = g.availability.contexts
    _, leaves = _count_levels(len(contexts), g.horizon)
    best = np.max(_leaf_log_lik(g.expert_class, contexts, leaves), axis=1)
    mix = strategy.log_prior + _leaf_log_lik(
        strategy.expert_class, contexts, leaves
    )
    top = np.max(mix, axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mixture = shift + np.log(np.sum(np.exp(mix - shift[:, None]), axis=1))
        regret = best - mixture
    regret[np.isnan(regret)] = -np.inf
    worst = float(np.max(regret))
    ties = leaves[regret >= worst - 1e-12]
    counts = ties[np.lexsort(ties.T[::-1])[-1]]
    cells = np.repeat(np.arange(counts.size), counts)
    seq = ([contexts[c // 2] for c in cells], [int(c % 2) for c in cells])
    return seq, worst
