"""Exact minimax regret for finite expert classes.

The primal value is computed by backward induction in the log domain:
terminal nodes carry the best-expert log likelihood of the realized
history, interior nodes take a log-sum-exp over the two outcomes and a
max over the contexts the adversary may present.  For a single available
context per round this is the Shtarkov sum.

The adversary's contexts follow one of two rules, each a per-node offer on
the outcome tree: `StaticContexts` offers one fixed tuple at every node,
`PreviousOutcomes` offers node (t, q) its own outcome prefix.  Each
`GameInstance` solves the game once, level by level, into one table that
`exact_minimax`, `optimal_prediction`, `MinimaxOptimal` and the Bayes
mixture's `worst_case_search` read: over count states under `StaticContexts`
(how often each (context, outcome) pair occurred: C(t + 2k - 1, 2k - 1) at
depth t, not (2k)^t histories), over the outcome prefixes under
`PreviousOutcomes`.  STATE_GUARD bounds both; `worst_case_search` states
the tie rule.  The count states' layout depends only on (k, n) and is
read-only.  Games of a small shape share theirs from a bounded cache, which
never holds more than STATE_GUARD states; a larger layout belongs to its
game.

`dual_value` checks and scores a committed (context tree, probability
tree) pair in one pass over the tree levels, reading one code per node.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (BinaryTree, ExpertClass, _check_paths, _index_of, _lookup,
                   _outcome, log_loss)

__all__ = [
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

STATE_GUARD = 5 * 10**6
TIE_TOLERANCE = 1e-12


class StaticContexts:
    """The same context set every round, regardless of history."""

    def __init__(self, contexts):
        self.contexts = tuple(contexts)
        if not self.contexts:
            raise ValueError("availability must never be empty")
        _index_of(self.contexts)

    def available(self, history):
        return self.contexts

    def max_contexts(self):
        return len(self.contexts)


class PreviousOutcomes:
    """The single context identifying the outcomes observed so far.

    Context ids are tuples of past outcomes; the expert class must define
    every such tuple as a context.
    """

    def available(self, history):
        return (tuple(y for _, y in history),)

    def max_contexts(self):
        return 1


@dataclass(frozen=True)
class GameInstance:
    """A game of `horizon` rounds; `availability` is StaticContexts (the
    class's contexts by default) or PreviousOutcomes, by exact type."""

    horizon: int
    expert_class: ExpertClass
    availability: StaticContexts | PreviousOutcomes | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.availability is None:
            rule = StaticContexts(self.expert_class.contexts)
            object.__setattr__(self, "availability", rule)
        elif type(self.availability) not in (StaticContexts, PreviousOutcomes):
            raise TypeError("availability must be StaticContexts or PreviousOutcomes, "
                            f"got {type(self.availability).__name__}")

    def estimated_nodes(self) -> float:
        k = self.availability.max_contexts()
        return sum((2.0 * k) ** t for t in range(1, self.horizon + 1))

    @functools.cached_property
    def _table(self):
        """The game's table, built on first use."""
        if isinstance(self.availability, StaticContexts):
            return _CountTable(self)
        return _HistoryTable(self)


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


def _check_states(states) -> None:
    """The size guard of both tables: at most STATE_GUARD nodes."""
    if states > STATE_GUARD:
        raise ValueError("game instance too large for exact computation")


def _count_levels(k: int, n: int):
    """Every count state of depth 0..n over the 2k cells (context i,
    outcome y), cell 2i + y.

    Returns (children, leaves), read-only: children[t][s, i, y] is the
    index at depth t + 1 of state s of depth t with one more (i, y); leaves
    holds the depth-n count vectors.  A depth-t state is ranked by its
    stars-and-bars bar positions b_j = c_0 + ... + c_j + j, j < 2k - 1,
    whose colex rank sum_j C(b_j, j + 1) runs over
    0..C(t + 2k - 1, 2k - 1) - 1.
    """
    m = 2 * k
    _check_states(math.comb(n + m, m))
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
    for a in (*children, states):
        a.flags.writeable = False
    return tuple(children), states


_SHARED = 32  # shapes the layout cache holds
_shared_levels = functools.lru_cache(maxsize=_SHARED)(_count_levels)


def _layout(k: int, n: int):
    """`_count_levels(k, n)`, shared by every game of that shape when it
    holds at most STATE_GUARD // _SHARED states (a layout holds
    C(n + 2k, 2k)), so the cache never holds more than STATE_GUARD."""
    if math.comb(n + 2 * k, 2 * k) <= STATE_GUARD // _SHARED:
        return _shared_levels(k, n)
    return _count_levels(k, n)


class _Table:
    """W by depth (`values[t]`, `states` nodes); a subclass lays them out."""

    def child_values(self, history, x):
        """(W0, W1) of history's two children under context x."""
        s = 0
        try:
            for t, (hx, hy) in enumerate(history):
                s = self._children(t, s, hx)[_outcome(hy)]
            t = len(history)
            c0, c1 = self._children(t, s, x)
        except (KeyError, IndexError, TypeError, ValueError):
            msg = "history not reachable under the availability rule"
            raise ValueError(msg) from None
        w = self.values[t + 1]
        return float(w[c0]), float(w[c1])


class _CountTable(_Table):
    """W over the count states of a StaticContexts game, by depth."""

    solver = "counts"

    def __init__(self, g: GameInstance):
        self.contexts = g.availability.contexts
        self.cell = {x: i for i, x in enumerate(self.contexts)}
        self.children, self.leaves = _layout(len(self.contexts), g.horizon)
        w = np.max(self.leaf_log_lik(g.expert_class), axis=1)
        self.values = [w]
        for child in reversed(self.children):
            w_child = w[child]
            w = np.max(np.logaddexp(w_child[..., 0], w_child[..., 1]), axis=1)
            self.values.append(w)
        self.values.reverse()
        self.states = sum(w.size for w in self.values)

    def _children(self, t, s, x):
        return self.children[t][s, self.cell[x]]

    def leaf_log_lik(self, ec: ExpertClass) -> np.ndarray:
        """(leaves, experts) log likelihoods of the leaf count vectors, a
        masked sum: 0 counts of log 0 = -inf add 0, not NaN.  (einsum, not
        BLAS: the cell axis is short, and a first BLAS call allocates.)"""
        ll = ec.log_lik[:, :, ec.columns(self.contexts)]
        ll = ll.transpose(1, 2, 0).reshape(ec.n_experts, -1)
        ruled_out, counts = np.isneginf(ll), self.leaves
        total = np.einsum("sc,fc->sf", counts, np.where(ruled_out, 0.0, ll))
        hits = np.einsum("sc,fc->sf", counts, ruled_out.astype(np.int64))
        total[hits > 0] = -np.inf
        return total

    def first_tie(self, ties):
        """The lexicographically first sorted sequence (by context position,
        then outcome) of a tied leaf: the largest tied count vector's."""
        tied = self.leaves[ties]
        counts = tied[np.lexsort(tied.T[::-1])[-1]]
        cells = np.repeat(np.arange(counts.size), counts)
        return [self.contexts[c // 2] for c in cells], [int(c % 2) for c in cells]


class _HistoryTable(_Table):
    """W over the histories, by depth.  Every history has the same m =
    max_contexts() edges (history, context): the rule's contexts under
    StaticContexts, the history's outcome prefix under PreviousOutcomes.
    Edge e of a depth leads from history e // m to histories 2e + y of the
    next, so each depth is in lexicographic order and the table keeps only
    each edge's context column.  Given a strategy (`worst_case_search`), the
    table also builds the histories and sums the strategy's loss to every
    leaf (`player_loss`), one `predict` per edge."""

    solver = "histories"

    def __init__(self, g: GameInstance, strategy=None):
        _check_states(1 + g.estimated_nodes())
        self.ec = ec = g.expert_class
        self.m = m = g.availability.max_contexts()
        static, self.cols = isinstance(g.availability, StaticContexts), []
        player, histories = np.zeros(1), [()]
        for t in range(g.horizon):
            edges = (g.availability.contexts * (2 * m) ** t if static
                     else list(itertools.product((0, 1), repeat=t)))
            self.cols.append(ec.columns(edges))
            if strategy is not None:
                p = np.array([strategy.predict(histories[e // m], x)
                              for e, x in enumerate(edges)])
                player = (np.repeat(player, m)[:, None]
                          + log_loss(p[:, None], (0, 1))).ravel()
                if t + 1 < g.horizon:
                    histories = [histories[e // m] + ((x, y),)
                                 for e, x in enumerate(edges) for y in (0, 1)]
        self.player_loss = player
        w = np.max(self.leaf_log_lik(ec), axis=1)
        self.values = [w]
        for _ in self.cols:
            w = np.logaddexp(w[0::2], w[1::2]).reshape(-1, m).max(axis=1)
            self.values.append(w)
        self.values.reverse()
        self.states = sum(w.size for w in self.values)

    def _children(self, t, s, x):
        col, cols, m = self.ec.context_index(x), self.cols[t], self.m
        for e in range(s * m, s * m + m):
            if cols[e] == col:
                return 2 * e, 2 * e + 1
        raise KeyError(x)

    def leaf_log_lik(self, ec: ExpertClass) -> np.ndarray:
        """(leaves, experts) log likelihoods of the full histories."""
        lik = ec.log_lik
        if ec is not self.ec:
            lik = lik[:, :, ec.columns(self.ec.contexts)]
        total = np.zeros((1, ec.n_experts))
        for cols in self.cols:
            # child 2e + y of edge e adds lik[y, :, col] to its node's row
            total = (np.repeat(total, self.m, axis=0)[:, None, :]
                     + lik[:, :, cols].transpose(2, 0, 1))
            total = total.reshape(-1, ec.n_experts)
        return total

    def first_tie(self, ties):
        """The lexicographically first tied history: the first tied leaf."""
        i, seq = int(np.argmax(ties)), []
        for cols in reversed(self.cols):
            e, y = divmod(i, 2)
            seq.append((self.ec.contexts[cols[e]], y))
            i = e // self.m
        return tuple(map(list, zip(*seq[::-1])))


def exact_minimax(g: GameInstance) -> float:
    """Value of the alternating sup/inf game, via backward induction."""
    return float(g._table.values[0][0])


def optimal_prediction(g: GameInstance, history, x) -> float:
    """Saddle-point prediction exp(W1) / (exp(W0) + exp(W1)) at this node.
    The table alone judges reachability (no `available` call): a history
    of full length or one x the rule does not offer raises its ValueError."""
    w0, w1 = g._table.child_values(history, x)
    if w0 == -math.inf and w1 == -math.inf:
        raise ValueError("both continuation values are -inf")
    return float(np.exp(w1 - np.logaddexp(w0, w1)))


def _prefix_tree(n: int) -> BinaryTree:
    """PreviousOutcomes' forced context tree of depth n: node (t, q) holds
    its outcome prefix, tuple((q >> i) & 1 for i in range(t - 1))."""
    nodes, level = [], [()]
    for _ in range(n):
        nodes += level
        level = [h + (y,) for y in (0, 1) for h in level]
    return BinaryTree(n, values=np.fromiter(nodes, dtype=object, count=len(nodes)))


def _node_columns(g: GameInstance, context_tree: BinaryTree) -> np.ndarray:
    """Class column of every node's context, in flat order: -2 where the
    rule does not offer it (under PreviousOutcomes, where it is not == the
    node's prefix), -1 where the class lacks it."""
    index, values = g.expert_class._index, context_tree.values.tolist()
    if isinstance(g.availability, StaticContexts):
        return _lookup({x: index.get(x, -1) for x in g.availability.contexts},
                       values, -2)
    prefixes = _prefix_tree(context_tree.depth).values.tolist()
    columns = _lookup(index, prefixes, -1)
    columns[[x != q for x, q in zip(values, prefixes)]] = -2
    return columns


def dual_value(g: GameInstance, s: DualStrategy) -> float:
    """Expected regret when the adversary commits to (x, p) trees and the
    player best-responds with p-hat = p; every branch probability must lie
    in [0, 1].  A path is reached while the player's loss on it is finite:
    a branch of probability exactly 0 costs +inf, and is skipped.

    One pass over the tree levels.  Round t first checks the nodes that
    reached prefixes lead to by their `_node_columns` code (ValueError for
    -2, KeyError for -1, no per-node Python when every code is a column),
    then extends every prefix's path probability and the player's and each
    expert's loss: row y of the level's (2, nodes) step extends it by
    outcome y, so the next level holds the outcome-0 children, then the
    outcome-1 children (see BinaryTree.level).  Branch probabilities, the
    player's losses and every node's expert log-likelihoods are taken once
    for the whole tree.
    """
    n = g.horizon
    if s.context_tree.depth != n:
        raise ValueError("tree depth must equal the horizon")
    _check_paths(n)
    p = s.prob_tree.values.astype(float)
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("branch probabilities must lie in [0, 1]")
    branch = np.stack((1.0 - p, p))
    columns = _node_columns(g, s.context_tree)
    check = columns.min() < 0
    losses = log_loss(p, np.array([[0], [1]]))
    ec = g.expert_class
    # (outcome, node, expert); an unreached node reads column 0
    lik = ec.log_lik.transpose(0, 2, 1).take(np.maximum(columns, 0), axis=1)
    prob, player = np.ones(1), np.zeros(1)
    experts = np.zeros((1, ec.n_experts))  # (prefix, expert)
    for t in range(1, n + 1):
        level = BinaryTree.level_slice(t)
        if check:
            cols = columns[level]
            for q in np.flatnonzero(np.isfinite(player) & (cols < 0)):
                if cols[q] == -2:
                    raise ValueError("context tree inconsistent with availability rule")
                ec.context_index(s.context_tree.level(t)[q])  # raises KeyError
        prob = (prob * branch[:, level]).ravel()
        player = (player + losses[:, level]).ravel()
        experts = (experts - lik[:, level]).reshape(-1, ec.n_experts)
    reached = np.isfinite(player)
    if not reached.all():
        prob, player, experts = prob[reached], player[reached], experts[reached]
    best = experts.min(axis=1)
    with np.errstate(invalid="ignore"):
        return float(np.sum(prob * (player - best)))


def random_dual_strategy(g: GameInstance, rng) -> DualStrategy:
    """Uniformly random prob tree plus a random consistent context tree:
    under StaticContexts one draw per node, made in one call for the whole
    tree; under PreviousOutcomes the forced prefix tree, which draws
    nothing."""
    n = g.horizon
    _check_paths(n)
    prob = BinaryTree(n, values=rng.uniform(size=(1 << n) - 1))
    if isinstance(g.availability, PreviousOutcomes):
        return DualStrategy(context_tree=_prefix_tree(n), prob_tree=prob)
    contexts = g.availability.contexts
    # an object array of the ids, in which a tuple id stays one element
    options = np.fromiter(contexts, dtype=object, count=len(contexts))
    ctx = BinaryTree(n, values=options[rng.integers(len(contexts), size=(1 << n) - 1)])
    return DualStrategy(context_tree=ctx, prob_tree=prob)


# ---------------------------------------------------------------------------
# Prediction strategies and adversaries for protocol simulation.
# ---------------------------------------------------------------------------


class MinimaxOptimal:
    """Plays the saddle point read from the game's one table; `solver` names
    the table ("counts" or "histories") and `states` counts its nodes."""

    def __init__(self, game: GameInstance):
        self.game, table = game, game._table
        self.solver, self.states = table.solver, table.states

    @property
    def value(self) -> float:
        """The game's minimax value."""
        return exact_minimax(self.game)

    def predict(self, history, x) -> float:
        return optimal_prediction(self.game, history, x)


class BayesMixture:
    """Posterior-weighted mean over the expert class; the prior-weighted
    mean once every expert has given a realized outcome probability 0."""

    def __init__(self, expert_class: ExpertClass, prior=None):
        self.expert_class = expert_class
        if prior is None:
            prior = np.full(expert_class.n_experts, 1.0 / expert_class.n_experts)
        prior = np.asarray(prior, dtype=float)
        if not (
            prior.shape == (expert_class.n_experts,)
            and np.all(prior >= 0)
            and math.isclose(prior.sum(), 1.0, abs_tol=1e-9)
        ):
            raise ValueError("prior must be a distribution over experts")
        with np.errstate(divide="ignore"):  # a zero weight has log -inf
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
    """The prediction p every round: a game strategy, and an Assouad count
    rule whose mean(ones, total) is p at every center."""

    def __init__(self, p: float):
        if not 0 <= p <= 1:
            raise ValueError("constant prediction must lie in [0, 1]")
        self.p = p

    def predict(self, history, x) -> float:
        return self.p

    def mean(self, ones, total):
        return np.full(np.shape(total), self.p, dtype=float)


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


@dataclass
class StochasticAdversary(DualStrategy):
    """A DualStrategy played out: contexts from its context tree, outcomes
    drawn from its probability tree by an RNG seeded with `seed`.

    Each round's node is read from the history: round len(history) + 1, at
    the prefix of the outcomes played so far.  The adversary keeps no state
    of a run, so it may play several; its RNG stream continues from one run
    to the next."""

    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        self.rng = np.random.default_rng(self.seed)

    def context(self, history):
        return self.context_tree.get(*_node(history))

    def outcome(self, history, p_hat):
        p = float(self.prob_tree.get(*_node(history)))
        return int(self.rng.uniform() < p)


def _node(history):
    """(round, prefix) of the tree node that a history reaches."""
    prefix = sum(_outcome(y) << i for i, (_, y) in enumerate(history))
    return len(history) + 1, prefix


class MaximinSearch:
    """Marker: run the exhaustive worst-case search for this strategy."""


def run_strategy(g: GameInstance, strategy, adversary) -> RegretTrace:
    """Faithful protocol simulation of one game."""
    if isinstance(adversary, MaximinSearch) or adversary is MaximinSearch:
        (contexts, outcomes), _ = worst_case_search(g, strategy)
        adversary = FixedSequence(contexts, outcomes)
    if isinstance(adversary, FixedSequence) and len(adversary.outcomes) < g.horizon:
        raise ValueError(f"fixed sequence of {len(adversary.outcomes)} rounds is "
                         f"shorter than the horizon {g.horizon}")
    if (isinstance(adversary, StochasticAdversary)
            and adversary.context_tree.depth < g.horizon):
        raise ValueError(f"adversary trees of depth {adversary.context_tree.depth} "
                         f"are shallower than the horizon {g.horizon}")
    history = ()
    predictions, outcomes, contexts = [], [], []
    for _ in range(g.horizon):
        x = adversary.context(history)
        if x not in g.availability.available(history):
            raise ValueError("adversary played an unavailable context")
        p_hat = strategy.predict(history, x)
        y = _outcome(adversary.outcome(history, p_hat))
        predictions.append(p_hat)
        contexts.append(x)
        outcomes.append(y)
        history = history + ((x, y),)
    player = float(sum(log_loss(p, y) for p, y in zip(predictions, outcomes)))
    # 0 - max, not -max: a perfect expert's loss is +0.0
    best = 0.0 - float(np.max(g.expert_class.history_log_lik(history)))
    return RegretTrace(
        predictions=predictions,
        outcomes=outcomes,
        contexts=contexts,
        player_loss=player,
        best_expert_loss=best,
        regret=player - best,
    )


def worst_case_search(g: GameInstance, strategy):
    """The (context, outcome) sequence maximizing the strategy's regret:
    ((contexts, outcomes), regret).

    A BayesMixture is scored at the leaves of the game's table by its exact
    loss -log sum_f pi_f exp(L_f), L the leaf's log likelihoods (a replay of
    its predictions agrees while no weight underflows); any other strategy
    is walked once over the history levels, one `predict` per edge.  An
    undefined regret (every loss infinite) scores -inf.  Ties (within
    TIE_TOLERANCE of the max) go to the lexicographically first sequence
    (contexts in the rule's order, then outcome).  On count states this is
    the same rule: sorting a sequence keeps its counts and so its regret,
    so the first tied sequence is a sorted one.
    """
    if type(strategy) is BayesMixture:
        table = g._table
        mix = strategy.log_prior + table.leaf_log_lik(strategy.expert_class)
        top = np.max(mix, axis=1)
        shift = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = -(shift + np.log(np.sum(np.exp(mix - shift[:, None]), axis=1)))
    else:
        table = _HistoryTable(g, strategy)
        loss = table.player_loss
    with np.errstate(invalid="ignore"):
        regret = loss + table.values[-1]
    regret[np.isnan(regret)] = -np.inf
    worst = float(np.max(regret))
    return table.first_tie(regret >= worst - TIE_TOLERANCE), worst
