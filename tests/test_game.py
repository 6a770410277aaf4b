import itertools
import math

import numpy as np
import pytest

from logloss_lab import game as game_mod
from logloss_lab.core import (
    BinaryTree,
    ExpertClass,
    log_loss,
    path_node_indices,
)
from logloss_lab.game import (
    BayesMixture,
    ConstantStrategy,
    DualStrategy,
    FixedSequence,
    GameInstance,
    MaximinSearch,
    MinimaxOptimal,
    PreviousOutcomes,
    StaticContexts,
    StochasticAdversary,
    dual_value,
    exact_minimax,
    optimal_prediction,
    random_dual_strategy,
    run_strategy,
    worst_case_search,
)


def shtarkov_oracle(ec, context_assignment, n):
    """log sum over paths of the best expert's likelihood for a fixed
    context tree given as a flat node -> context list."""
    idx = path_node_indices(n)
    total = 0.0
    for y in range(1 << n):
        best = 0.0
        for i in range(ec.n_experts):
            lik = 1.0
            for t in range(1, n + 1):
                x = context_assignment[idx[y, t - 1]]
                f = ec.experts[i, ec.context_index(x)]
                lik *= f if (y >> (t - 1)) & 1 else 1.0 - f
            best = max(best, lik)
        total += best
    return math.log(total)


def reference_dual_value(g, s):
    """dual_value as a per-path loop: walk every outcome path round by
    round and stop at the first branch of probability exactly zero."""
    n = g.horizon
    total = 0.0
    for y_bits in range(1 << n):
        prob, player = 1.0, 0.0
        experts = np.zeros(g.expert_class.n_experts)
        history = ()
        for t in range(1, n + 1):
            prefix = y_bits % (1 << (t - 1))
            x = s.context_tree.get(t, prefix)
            if x not in g.availability.available(history):
                raise ValueError("context tree inconsistent")
            p = float(s.prob_tree.get(t, prefix))
            y = (y_bits >> (t - 1)) & 1
            branch = p if y else 1.0 - p
            if branch == 0.0:
                break
            prob *= branch
            player += log_loss(p, y)
            experts += log_loss(g.expert_class.column(x), y)
            history = history + ((x, y),)
        else:
            total += prob * (player - float(np.min(experts)))
    return total


def reference_value(g, history, loglik):
    """W(history) by the per-node recursion the history table replaced;
    loglik holds each expert's cumulative log likelihood."""
    if len(history) == g.horizon:
        return float(np.max(loglik))
    return max(
        np.logaddexp(*reference_children(g, history, loglik, x))
        for x in g.availability.available(history)
    )


def reference_children(g, history, loglik, x):
    """(W0, W1): the values of history's two children under context x."""
    ec = g.expert_class
    lik = ec.log_lik[:, :, ec.context_index(x)]
    return tuple(
        reference_value(g, history + ((x, y),), loglik + lik[y])
        for y in (0, 1)
    )


class _ReferencePlayer:
    """MinimaxOptimal by the recursion: each prediction re-solves its
    subtree."""

    def __init__(self, g):
        self.g = g

    def predict(self, history, x):
        loglik = self.g.expert_class.history_log_lik(history)
        w0, w1 = reference_children(self.g, tuple(history), loglik, x)
        if w0 == -math.inf and w1 == -math.inf:
            raise ValueError("both continuation values are -inf")
        return float(np.exp(w1 - np.logaddexp(w0, w1)))


def full_histories(g):
    """Every history of full length, in lexicographic order (contexts in
    the rule's order, then outcome)."""
    level = [()]
    for _ in range(g.horizon):
        level = [
            h + ((x, y),)
            for h in level for x in g.availability.available(h) for y in (0, 1)
        ]
    return level


def _with_exact_zeros_and_ones(rng, size):
    v = rng.uniform(size=size)
    r = rng.uniform(size=size)
    v[r < 0.15] = 0.0
    v[r > 0.85] = 1.0
    return v


def brute_force_minimax(ec, n):
    """Max over all context trees of the path-sum value."""
    n_nodes = (1 << n) - 1
    best = -math.inf
    for assign in itertools.product(ec.contexts, repeat=n_nodes):
        best = max(best, shtarkov_oracle(ec, assign, n))
    return best


def test_single_context_shtarkov():
    ec = ExpertClass.constants([0.3, 0.7])
    g = GameInstance(horizon=3, expert_class=ec)
    val = exact_minimax(g)
    oracle = shtarkov_oracle(ec, [0] * 7, 3)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_zero_one_experts():
    # experts {0, 1}: only the two constant paths get likelihood 1
    ec = ExpertClass.constants([0.0, 1.0])
    for n in (1, 2, 4):
        g = GameInstance(horizon=n, expert_class=ec)
        assert exact_minimax(g) == pytest.approx(math.log(2), abs=1e-12)


def test_singleton_class_no_regret():
    ec = ExpertClass.constants([0.42])
    g = GameInstance(horizon=4, expert_class=ec)
    assert exact_minimax(g) == pytest.approx(0.0, abs=1e-12)


def test_minimax_matches_context_tree_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n_ctx = int(rng.integers(1, 4))
        n_exp = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        ec = ExpertClass(
            contexts=list(range(n_ctx)),
            experts=rng.uniform(size=(n_exp, n_ctx)),
        )
        g = GameInstance(horizon=n, expert_class=ec)
        assert exact_minimax(g) == pytest.approx(
            brute_force_minimax(ec, n), abs=1e-9
        )


def _same_or_close(a, b):
    assert not (math.isnan(a) or math.isnan(b))
    if math.isfinite(a) and math.isfinite(b):
        assert a == pytest.approx(b, abs=1e-12)
    else:
        assert a == b


def _or_error(solve, *args):
    """solve(*args), or the message of the ValueError it raises."""
    try:
        return solve(*args)
    except ValueError as e:
        return str(e)


def _protocol(g, tree_values, prob_values, seed, player=None):
    adversary = StochasticAdversary(
        BinaryTree(g.horizon, values=tree_values),
        BinaryTree(g.horizon, values=prob_values),
        seed=seed,
    )
    return _or_error(run_strategy, g, player or MinimaxOptimal(g), adversary)


def test_count_states_match_history_recursion():
    rng = np.random.default_rng(606)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        # at most 256 leaves: every node's prediction re-solves a subtree
        n = min(int(rng.integers(1, 7)), int(math.log(256, 2 * k) + 1e-9))
        table = _with_exact_zeros_and_ones(rng, (int(rng.integers(1, 5)), k))
        ec = ExpertClass(contexts=list(range(k)), experts=table)
        g = GameInstance(horizon=n, expert_class=ec)
        _same_or_close(exact_minimax(g), reference_value(g, (), np.zeros(len(table))))
        pairs = [(x, y) for x in ec.contexts for y in (0, 1)]
        player, reference = MinimaxOptimal(g), _ReferencePlayer(g)
        for t in range(n):
            for history in itertools.product(pairs, repeat=t):
                for x in ec.contexts:
                    got = _or_error(optimal_prediction, g, history, x)
                    want = _or_error(reference.predict, history, x)
                    if isinstance(want, str):
                        assert got == want
                    else:
                        _same_or_close(got, want)
                    assert _or_error(player.predict, history, x) == got
        tree = rng.integers(0, k, size=(1 << n) - 1).astype(object)
        probs = _with_exact_zeros_and_ones(rng, (1 << n) - 1)
        seed = int(rng.integers(2**31))
        got = _protocol(g, tree, probs, seed)
        want = _protocol(g, tree, probs, seed, reference)
        if isinstance(want, str):
            assert got == want
            continue
        assert (got.contexts, got.outcomes) == (want.contexts, want.outcomes)
        for a, b in zip(got.predictions, want.predictions):
            _same_or_close(a, b)
        for a, b in ((got.player_loss, want.player_loss),
                     (got.best_expert_loss, want.best_expert_loss)):
            _same_or_close(a, b)


def _prefix_contexts(n):
    """Every outcome tuple shorter than n: PreviousOutcomes' context ids."""
    return [c for m in range(n) for c in itertools.product((0, 1), repeat=m)]


def _on_history_table(g):
    """g with the history table as its table: a StaticContexts game builds
    that table only for worst_case_search's strategy walk."""
    g.__dict__["_table"] = game_mod._HistoryTable(g)
    return g


def _history_game(rng):
    """A random game solved over its histories, expert tables with exact
    0/1 entries: PreviousOutcomes (n <= 7), or StaticContexts offering 1..k
    of k contexts in a random order (at most 512 leaves)."""
    n_experts = int(rng.integers(1, 5))
    if rng.uniform() < 0.5:
        n = int(rng.integers(1, 8))
        contexts, rule = _prefix_contexts(n), PreviousOutcomes()
    else:
        k = int(rng.integers(1, 4))
        offered = rng.permutation(k)[: rng.integers(1, k + 1)].tolist()
        n = min(int(rng.integers(1, 8)), int(math.log(512, 2 * len(offered)) + 1e-9))
        contexts, rule = list(range(k)), StaticContexts(offered)
    table = _with_exact_zeros_and_ones(rng, (n_experts, len(contexts)))
    ec = ExpertClass(contexts=contexts, experts=table)
    g = GameInstance(horizon=n, expert_class=ec, availability=rule)
    return g if isinstance(rule, PreviousOutcomes) else _on_history_table(g)


def _same_trace(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert (got.contexts, got.outcomes) == (want.contexts, want.outcomes)
    assert got.predictions == want.predictions
    for a, b in ((got.player_loss, want.player_loss),
                 (got.best_expert_loss, want.best_expert_loss),
                 (got.regret, want.regret)):
        assert a == b or (math.isnan(a) and math.isnan(b))


def test_history_table_matches_recursion():
    rng = np.random.default_rng(909)
    for _ in range(200):
        g = _history_game(rng)
        zeros = np.zeros(g.expert_class.n_experts)
        value = exact_minimax(g)
        assert value == reference_value(g, (), zeros)
        player, reference = MinimaxOptimal(g), _ReferencePlayer(g)
        assert player.value == value
        assert player.solver == "histories"
        level = [()]
        for _ in range(g.horizon):
            for history in level:
                for x in g.availability.available(history):
                    got = _or_error(optimal_prediction, g, history, x)
                    assert got == _or_error(reference.predict, history, x)
                    assert _or_error(player.predict, history, x) == got
            level = [h + ((x, y),) for h in level
                     for x in g.availability.available(h) for y in (0, 1)]
        assert player.states == 1 + sum(
            len(full_histories(GameInstance(t, g.expert_class, g.availability)))
            for t in range(1, g.horizon + 1)
        )
        dual = random_dual_strategy(g, rng)
        probs = _with_exact_zeros_and_ones(rng, (1 << g.horizon) - 1)
        seed = int(rng.integers(2**31))
        traces = [
            _or_error(run_strategy, g, strat, StochasticAdversary(
                dual.context_tree, BinaryTree(g.horizon, values=probs), seed
            ))
            for strat in (player, reference)
        ]
        _same_trace(*traces)
        _check_worst_cases(g)


def test_prefix_levels_match_history_walk():
    # each depth of the history table is in lexicographic order, as
    # full_histories walks it: leaf i is history i, and the first tied
    # leaf is the first tied history
    rng = np.random.default_rng(1818)
    for n in range(1, 8):
        for k in (None, 1, 2, 3):
            if k is None:
                contexts, rule = _prefix_contexts(n), PreviousOutcomes()
            elif (2 * k) ** n <= 512:
                contexts, rule = list(range(k)), StaticContexts(rng.permutation(k).tolist())
            else:
                continue
            experts = _with_exact_zeros_and_ones(rng, (int(rng.integers(1, 5)),
                                                       len(contexts)))
            ec = ExpertClass(contexts, experts)
            g = GameInstance(n, ec, rule)
            table = game_mod._HistoryTable(g)
            histories = full_histories(g)
            assert table.values[-1].tolist() == [
                float(np.max(ec.history_log_lik(h))) for h in histories
            ]
            for ties in (rng.uniform(size=len(histories)) < 0.3,
                         np.ones(len(histories), bool)):
                ties[rng.integers(len(histories))] = True
                assert table.first_tie(ties) == _split(histories[int(np.argmax(ties))])


def test_prefix_levels_never_call_available(monkeypatch):
    rng = np.random.default_rng(18)
    ec = ExpertClass(_prefix_contexts(9), rng.uniform(0.05, 0.95, size=(3, 2**9 - 1)))

    def solve():
        g = GameInstance(9, ec, PreviousOutcomes())
        s = random_dual_strategy(g, np.random.default_rng(1))
        bad = s.context_tree.values.copy()
        bad[300] = bad[301]
        with pytest.raises(ValueError, match="inconsistent"):
            dual_value(g, DualStrategy(BinaryTree(9, values=bad), s.prob_tree))
        return (exact_minimax(g), worst_case_search(g, BayesMixture(ec)),
                dual_value(g, s), list(s.context_tree.values))

    want = solve()

    def available(self, history):
        raise AssertionError("available called")

    monkeypatch.setattr(PreviousOutcomes, "available", available)
    assert solve() == want
    # a protocol run asks the rule each round
    g = GameInstance(9, ec, PreviousOutcomes())
    with pytest.raises(AssertionError, match="available called"):
        run_strategy(g, ConstantStrategy(0.5), FixedSequence([()] * 9, [1] * 9))


def test_missing_prefix_same_error_on_both_builds():
    # the table's build and the strategy walk's, and (past n = 1, where the
    # class has no context at all) the dual's node check
    for n, missing in ((1, ()), (3, (1,)), (4, (0, 1, 1))):
        contexts = [c for c in _prefix_contexts(n) if c != missing]
        g = GameInstance(n, ExpertClass(contexts, np.full((2, len(contexts)), 0.5)),
                         PreviousOutcomes())
        solves = [exact_minimax, lambda g: worst_case_search(g, ConstantStrategy(0.5))]
        if n > 1:
            solves.append(lambda g: dual_value(g, random_dual_strategy(g, rng)))
        rng = np.random.default_rng(n)
        for solve in solves:
            with pytest.raises(KeyError) as err:
                solve(g)
            assert str(err.value) == repr(f"unknown context id: {missing!r}")


def test_game_instance_refuses_other_rules():
    ec = ExpertClass(contexts=[0, 1], experts=[[0.3, 0.6]])

    class Offers:
        def available(self, history):
            return (0,)

        def max_contexts(self):
            return 1

    class Prefixes(PreviousOutcomes):
        pass

    class Some(StaticContexts):
        pass

    for rule in (Offers(), Prefixes(), Some([0]), [0, 1]):
        with pytest.raises(TypeError, match="availability must be StaticContexts "
                                            "or PreviousOutcomes, got"):
            GameInstance(2, ec, rule)


def test_unhashable_context_id_is_unknown():
    ec = ExpertClass(contexts=[0, 1], experts=[[0.3, 0.6], [0.7, 0.2]])
    for call in (lambda: BayesMixture(ec).predict(((0, 1),), [1]),
                 lambda: BayesMixture(ec).predict((([1], 1),), 0)):
        with pytest.raises(KeyError) as err:
            call()
        assert str(err.value) == repr("unknown context id: [1]")
    with pytest.raises(ValueError, match="context ids must be hashable"):
        StaticContexts([0, [1]])


def test_static_contexts_rejects_duplicate_ids():
    # a repeated id would widen the count layout (210 states at n = 4
    # against 70 for [0, 1], for the same value) and draw that context
    # twice as often in random duals
    with pytest.raises(ValueError, match="duplicate context ids"):
        StaticContexts([0, 1, 0])
    assert StaticContexts([0, 1]).available(()) == (0, 1)


def exact_mixture_worst_case(g, strategy):
    """worst_case_search for a Bayes mixture as a loop over every full
    history, scored by the mixture's exact regret
    max_f L_f - log sum_f pi_f exp(L_f) rather than by a replay of its
    predictions: the first history within 1e-12 of the max, -inf for a
    history that rules out every expert."""
    scored = []
    for seq in full_histories(g):
        best = float(np.max(g.expert_class.history_log_lik(seq)))
        v = strategy.log_prior + strategy.expert_class.history_log_lik(seq)
        top = float(np.max(v))
        if top == -math.inf:
            scored.append((seq, -math.inf))
            continue
        mixture = top + math.log(sum(math.exp(a - top) for a in v))
        scored.append((seq, best - mixture))
    worst = max(r for _, r in scored)
    return next(_split(seq) for seq, r in scored if r >= worst - 1e-12), worst


def _check_worst_cases(g):
    """worst_case_search on a history game against loops over every full
    history: the Bayes mixture (also through an expert class with its
    columns reversed) by its exact regret, two other strategies by replay."""
    ec = g.expert_class
    flipped = ExpertClass(ec.contexts[::-1], ec.experts[:, ::-1])
    for strat in (BayesMixture(ec), BayesMixture(flipped), MinimaxOptimal(g),
                  ConstantStrategy(0.3)):
        got = _or_error(worst_case_search, g, strat)
        loop = (exact_mixture_worst_case if type(strat) is BayesMixture
                else brute_force_worst_case)
        want = _or_error(loop, g, strat)
        if isinstance(want, str):  # a prediction with both values -inf
            assert got == want
            continue
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_unreachable_histories_same_message_on_both_tables(monkeypatch):
    # the table is the one reachability check: the rule is never asked
    def available(self, history):
        raise AssertionError("available called")

    monkeypatch.setattr(StaticContexts, "available", available)
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.2, 0.6], [0.8, 0.4]])
    count = GameInstance(3, ec, StaticContexts(["a"]))
    hist = _on_history_table(GameInstance(3, ec, StaticContexts(["a"])))
    for history in ((("b", 1),), (("a", 2),), (("a", 0), ("c", 1)),
                    (("a", 1.0),), (("a", "1"),), ((["a"], 0),),
                    (("a", -1),), (("a", None),), (("a", 0),) * 3, (("a", 1),) * 4):
        got = _or_error(optimal_prediction, count, history, "a")
        assert got == "history not reachable under the availability rule"
        assert _or_error(optimal_prediction, hist, history, "a") == got
    # a context not offered next: in the class, unknown, unhashable
    for x in ("b", "z", ["a"]):
        for g in (count, hist):
            assert _or_error(optimal_prediction, g, (("a", 1),), x) == got
    # a bool or numpy integer outcome is that outcome on both tables
    for g in (count, hist):
        one = optimal_prediction(g, (("a", 1),), "a")
        for y in (True, np.int64(1)):
            assert optimal_prediction(g, (("a", y),), "a") == one
    ctx = [(), (0,), (1,)]
    prev = GameInstance(2, ExpertClass(ctx, np.full((2, 3), 0.5)),
                        PreviousOutcomes())
    for y in (2, 1.0, "1"):
        assert _or_error(optimal_prediction, prev, (((), y),), (y,)) == got
    assert 0.0 < optimal_prediction(prev, (((), 1),), (1,)) < 1.0


def test_one_table_per_game():
    ec = ExpertClass(contexts=[(), (0,), (1,)], experts=[[0.2, 0.6, 0.1]])
    for rule in (None, PreviousOutcomes()):
        g = GameInstance(horizon=2, expert_class=ec, availability=rule)
        table = g._table
        x = g.availability.available(())[0]
        exact_minimax(g)
        optimal_prediction(g, (), x)
        MinimaxOptimal(g).predict((), x)
        worst_case_search(g, BayesMixture(ec))
        assert g._table is table


def test_count_layouts_are_shared_read_only_and_exact(monkeypatch):
    rng = np.random.default_rng(41)
    for k in (1, 2, 3):
        for n in range(1, 10):
            ec = ExpertClass(
                contexts=list(range(k)),
                experts=_with_exact_zeros_and_ones(rng, (3, k)),
            )
            first = GameInstance(n, ec)._table
            shared = GameInstance(n, ec)._table
            assert shared.children is first.children
            assert shared.leaves is first.leaves
            for a in (*shared.children, shared.leaves):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 0
            with monkeypatch.context() as m:
                m.setattr(game_mod, "_layout", game_mod._count_levels)
                fresh = GameInstance(n, ec)._table
            assert fresh.children is not shared.children
            assert all(
                np.array_equal(a, b) for a, b in zip(fresh.children, shared.children)
            )
            assert np.array_equal(fresh.leaves, shared.leaves)
            assert fresh.states == shared.states
            for a, b in zip(fresh.values, shared.values):
                assert np.array_equal(a, b, equal_nan=True)


def test_layout_store_holds_at_most_state_guard(monkeypatch):
    # every shape the games benchmark builds is shared at the real guard
    for k, n in [(1, n) for n in range(5, 13)] + [(2, 5), (2, 6), (2, 7)]:
        assert game_mod._layout(k, n) is game_mod._layout(k, n)
    cache, size = game_mod._shared_levels, game_mod._SHARED
    monkeypatch.setattr(game_mod, "STATE_GUARD", 1000 * size)
    cache.cache_clear()
    try:
        # one context: C(n + 2, 2) states, 990 at n = 43 and 1035 at n = 44
        ec = ExpertClass.constants([0.3, 0.7])
        small = GameInstance(43, ec)._table, GameInstance(43, ec)._table
        assert small[0].children is small[1].children
        large = GameInstance(44, ec)._table, GameInstance(44, ec)._table
        assert large[0].children is not large[1].children
        assert large[0].leaves is not large[1].leaves
        for a in (*large[0].children, large[0].leaves):
            assert not a.flags.writeable
        assert cache.cache_info().currsize == 1
        shapes = [(1, n) for n in range(1, 44)]
        for k, n in shapes:
            game_mod._layout(k, n)
            assert cache.cache_info().currsize <= size
        # the cache holds the last `size` shapes: each is a hit, and a hit
        # evicts nothing
        held = shapes[-size:]
        hits = cache.cache_info().hits
        for k, n in reversed(held):
            game_mod._layout(k, n)
        assert cache.cache_info().hits == hits + size
        states = sum(math.comb(n + 2 * k, 2 * k) for k, n in held)
        assert states <= game_mod.STATE_GUARD
        # the least recently used shape went first
        misses = cache.cache_info().misses
        game_mod._layout(*shapes[-size - 1])
        assert cache.cache_info().misses == misses + 1
    finally:
        cache.cache_clear()


def _log_binom(n, j):
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


def test_single_context_closed_form():
    # V = log sum_j C(n, j) max_f p_f^j (1 - p_f)^(n - j), 0 log 0 = 0
    probs = [0.0, 0.05, 0.3, 0.5, 0.81, 1.0]
    ec = ExpertClass.constants(probs)
    for n in (50, 200, 1000):
        terms = []
        for j in range(n + 1):
            best = -math.inf
            for p in probs:
                if (p == 0.0 and j > 0) or (p == 1.0 and j < n):
                    continue
                ll = (j * math.log(p) if j else 0.0) + (
                    (n - j) * math.log1p(-p) if j < n else 0.0
                )
                best = max(best, ll)
            terms.append(_log_binom(n, j) + best)
        top = max(terms)
        closed = top + math.log(sum(math.exp(v - top) for v in terms))
        value = exact_minimax(GameInstance(horizon=n, expert_class=ec))
        assert value == pytest.approx(closed, rel=1e-12, abs=1e-12)
        assert value <= math.log(len(probs))


def test_long_horizon_has_no_recursion_limit():
    ec = ExpertClass.constants([0.2, 0.5, 0.9])
    g = GameInstance(horizon=2000, expert_class=ec)
    value = exact_minimax(g)
    # 2000 levels of log-sum-exp over log likelihoods near -1400
    assert 0.0 < value <= math.log(3) + 1e-9
    p = optimal_prediction(g, ((0, 1),) * 1999, 0)
    assert 0.0 < p < 1.0


def test_optimal_prediction_is_a_probability():
    ec = ExpertClass(
        contexts=["a", "b"], experts=[[0.2, 0.6], [0.8, 0.4], [0.5, 0.5]]
    )
    g = GameInstance(horizon=3, expert_class=ec)
    p = optimal_prediction(g, (), "a")
    assert 0.0 <= p <= 1.0
    p2 = optimal_prediction(g, (("a", 1),), "b")
    assert 0.0 <= p2 <= 1.0
    with pytest.raises(ValueError):
        optimal_prediction(g, (("a", 1),) * 3, "a")
    # a history the rule never allows has no count state
    only_a = GameInstance(
        horizon=3, expert_class=ec, availability=StaticContexts(["a"])
    )
    for history in ((("b", 1),), (("a", 2),)):
        with pytest.raises(ValueError):
            optimal_prediction(only_a, history, "a")


def test_dual_never_exceeds_primal():
    rng = np.random.default_rng(5)
    ec = ExpertClass(
        contexts=[0, 1], experts=rng.uniform(size=(4, 2))
    )
    g = GameInstance(horizon=3, expert_class=ec)
    primal = exact_minimax(g)
    for _ in range(50):
        s = random_dual_strategy(g, rng)
        assert dual_value(g, s) <= primal + 1e-9


def test_dual_depth_mismatch():
    ec = ExpertClass.constants([0.5])
    g = GameInstance(horizon=3, expert_class=ec)
    s = DualStrategy(
        context_tree=BinaryTree(2, values=np.zeros(3, dtype=object)),
        prob_tree=BinaryTree(2, fill=0.5),
    )
    with pytest.raises(ValueError):
        dual_value(g, s)


def test_dual_zero_prob_branches():
    # deterministic adversary: all mass on the all-ones path
    ec = ExpertClass.constants([0.25, 0.75])
    g = GameInstance(horizon=2, expert_class=ec)
    s = DualStrategy(
        context_tree=BinaryTree(2, values=np.zeros(3, dtype=object)),
        prob_tree=BinaryTree(2, fill=1.0),
    )
    # player matches p = 1 and pays 0; best expert pays 2*log(4/3)
    expected = 0.0 - 2 * math.log(1 / 0.75)
    assert dual_value(g, s) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan])
def test_dual_value_rejects_branch_probabilities_outside_0_1(p):
    g = GameInstance(horizon=2, expert_class=ExpertClass.constants([0.3, 0.7]))
    s = DualStrategy(
        context_tree=BinaryTree(2, values=np.zeros(3, dtype=object)),
        prob_tree=BinaryTree(2, values=[0.5, p, 0.5]),
    )
    with pytest.raises(ValueError, match=r"branch probabilities must lie in \[0, 1\]"):
        dual_value(g, s)


def test_minimax_strategy_achieves_value():
    ec = ExpertClass(
        contexts=[0, 1], experts=[[0.3, 0.6], [0.7, 0.2]]
    )
    g = GameInstance(horizon=3, expert_class=ec)
    value = exact_minimax(g)
    strat = MinimaxOptimal(g)
    _, worst_regret = worst_case_search(g, strat)
    assert worst_regret == pytest.approx(value, abs=1e-9)


def test_bayes_mixture_regret_bound():
    rng = np.random.default_rng(7)
    ec = ExpertClass(
        contexts=[0, 1, 2], experts=rng.uniform(0.05, 0.95, size=(5, 3))
    )
    g = GameInstance(horizon=4, expert_class=ec)
    strat = BayesMixture(ec)
    bound = math.log(ec.n_experts)
    for _ in range(50):
        contexts = rng.integers(0, 3, size=4).tolist()
        outcomes = rng.integers(0, 2, size=4).tolist()
        trace = run_strategy(g, strat, FixedSequence(contexts, outcomes))
        assert trace.regret <= bound + 1e-9
        player = sum(log_loss(p, y) for p, y in zip(trace.predictions, outcomes))
        best = -max(ec.history_log_lik(zip(contexts, outcomes)))
        assert player - best == pytest.approx(trace.regret, abs=1e-9)


def test_bayes_worst_case_also_bounded():
    ec = ExpertClass.constants([0.1, 0.5, 0.9])
    g = GameInstance(horizon=5, expert_class=ec)
    _, worst = worst_case_search(g, BayesMixture(ec))
    assert worst <= math.log(3) + 1e-9
    trace = run_strategy(g, BayesMixture(ec), MaximinSearch())
    assert trace.regret == pytest.approx(worst, abs=1e-9)


def test_constant_strategy_and_stochastic_adversary():
    ec = ExpertClass.constants([0.2, 0.8])
    g = GameInstance(horizon=3, expert_class=ec)
    adv = StochasticAdversary(
        context_tree=BinaryTree(3, values=np.zeros(7, dtype=object)),
        prob_tree=BinaryTree(3, fill=0.5),
        seed=1,
    )
    trace = run_strategy(g, ConstantStrategy(0.5), adv)
    assert trace.player_loss == pytest.approx(3 * math.log(2), abs=1e-12)
    assert trace.regret >= 0.0 or trace.best_expert_loss > trace.player_loss


def test_stochastic_adversary_replays_a_run():
    # with 0/1 branch probabilities a run follows one path whatever the
    # RNG draws, so one adversary played twice plays that path twice
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.2, 0.9], [0.6, 0.3]])
    g = GameInstance(horizon=4, expert_class=ec)
    rng = np.random.default_rng(5)
    ctx = BinaryTree(4, values=rng.choice(np.array(["a", "b"], dtype=object), 15))
    prob = BinaryTree(4, values=rng.integers(0, 2, size=15).astype(float))
    contexts, outcomes, q = [], [], 0
    for t in range(1, 5):
        contexts.append(ctx.get(t, q))
        outcomes.append(int(prob.get(t, q)))
        q |= outcomes[-1] << (t - 1)
    adv = StochasticAdversary(ctx, prob, seed=2)
    for _ in range(2):
        trace = run_strategy(g, ConstantStrategy(0.4), adv)
        assert (trace.contexts, trace.outcomes) == (contexts, outcomes)


def test_stochastic_adversary_is_a_dual_strategy():
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.2, 0.9], [0.6, 0.3]])
    rng = np.random.default_rng(4)
    ctx = BinaryTree(3, values=rng.choice(np.array(["a", "b"], dtype=object), 7))
    prob = BinaryTree(3, values=rng.uniform(size=7))
    with pytest.raises(ValueError, match="must share depth"):
        StochasticAdversary(ctx, BinaryTree(2, fill=0.5))
    adv = StochasticAdversary(ctx, prob, seed=1)
    assert isinstance(adv, DualStrategy)
    g = GameInstance(horizon=3, expert_class=ec)
    assert dual_value(g, adv) == dual_value(g, DualStrategy(ctx, prob))
    with pytest.raises(ValueError, match="adversary trees of depth 3 are "
                                         "shallower than the horizon 4"):
        run_strategy(GameInstance(4, ec), ConstantStrategy(0.5), adv)
    # deeper trees play their first rounds
    trace = run_strategy(GameInstance(2, ec), ConstantStrategy(0.5), adv)
    assert len(trace.outcomes) == 2


def test_fixed_sequence_shorter_than_horizon():
    g = GameInstance(3, ExpertClass.constants([0.3, 0.7]))
    with pytest.raises(ValueError, match="fixed sequence of 2 rounds is "
                                         "shorter than the horizon 3"):
        run_strategy(g, ConstantStrategy(0.5), FixedSequence([0, 0], [1, 1]))
    # a longer sequence plays its first rounds
    trace = run_strategy(g, ConstantStrategy(0.5), FixedSequence([0] * 4, [1, 0, 1, 1]))
    assert trace.outcomes == [1, 0, 1]


def test_run_strategy_rejects_outcomes_other_than_0_or_1():
    g = GameInstance(horizon=1, expert_class=ExpertClass.constants([0.9, 0.8]))
    regrets = [run_strategy(g, ConstantStrategy(0.9), FixedSequence([0], [y])).regret
               for y in (0, 1, True)]
    assert regrets == [pytest.approx(math.log(2)), 0.0, 0.0]
    for y in (-1, 2, None, 1.0, "1"):
        with pytest.raises(ValueError, match="outcome must be 0 or 1"):
            run_strategy(g, ConstantStrategy(0.9), FixedSequence([0], [y]))


def test_previous_outcomes_rule():
    # experts keyed by the outcome history; markov-style availability
    contexts = [()]
    for n in (1, 2):
        contexts += [t for t in itertools.product((0, 1), repeat=n)]
    rng = np.random.default_rng(0)
    ec = ExpertClass(
        contexts=contexts, experts=rng.uniform(size=(3, len(contexts)))
    )
    g = GameInstance(
        horizon=3, expert_class=ec, availability=PreviousOutcomes()
    )
    val = exact_minimax(g)
    assert math.isfinite(val)
    assert val <= math.log(3) + 1e-9  # one context per round: Shtarkov <= log|F|
    p = optimal_prediction(g, (), ())
    assert 0.0 <= p <= 1.0
    player = MinimaxOptimal(g)
    assert (player.solver, player.states) == ("histories", 15)
    assert player.value == val
    assert player.predict((), ()) == p


def test_instance_guards():
    ec = ExpertClass.constants(np.linspace(0.1, 0.9, 5))
    with pytest.raises(ValueError):
        GameInstance(horizon=0, expert_class=ec)
    # 496 count states: solved, though it has 2^31 - 2 histories
    value = exact_minimax(GameInstance(horizon=30, expert_class=ec))
    assert 0.0 <= value <= math.log(5)
    # C(66, 6) = 9.1e7 count states
    wide = ExpertClass(contexts=[0, 1, 2], experts=np.full((2, 3), 0.5))
    big = GameInstance(horizon=60, expert_class=wide)
    for solve in (exact_minimax, MinimaxOptimal,
                  lambda g: optimal_prediction(g, (), 0),
                  lambda g: worst_case_search(g, BayesMixture(wide))):
        with pytest.raises(ValueError):
            solve(big)
    # no count states here: the same guard counts histories, 2^31 - 1 of
    # them, and at horizon 22 2^23 - 1 (the guard is 5e6)
    for n in (30, 22):
        prev = GameInstance(
            horizon=n, expert_class=ec, availability=PreviousOutcomes()
        )
        for solve in (exact_minimax, MinimaxOptimal,
                      lambda g: optimal_prediction(g, (), ()),
                      lambda g: worst_case_search(g, BayesMixture(ec)),
                      lambda g: worst_case_search(g, ConstantStrategy(0.5))):
            with pytest.raises(ValueError, match="too large"):
                solve(prev)
    # the walk of every other strategy counts its histories too: 4^12
    with pytest.raises(ValueError, match="too large"):
        worst_case_search(GameInstance(horizon=12, expert_class=wide),
                          ConstantStrategy(0.5))
    with pytest.raises(ValueError, match="availability must never be empty"):
        StaticContexts(())


def test_worst_case_search_tiebreak_deterministic():
    ec = ExpertClass.constants([0.5])
    g = GameInstance(horizon=2, expert_class=ec)
    seq1, r1 = worst_case_search(g, ConstantStrategy(0.5))
    seq2, r2 = worst_case_search(g, ConstantStrategy(0.5))
    assert seq1 == seq2
    assert r1 == r2


def brute_force_regrets(g, strategy):
    """(sequence, regret) for every (context, outcome) sequence in
    lexicographic order, each scored from scratch with core.log_loss."""
    ec = g.expert_class
    for seq in full_histories(g):
        player = 0.0
        experts = np.zeros(ec.n_experts)
        for t, (x, y) in enumerate(seq):
            player += log_loss(strategy.predict(seq[:t], x), y)
            experts += log_loss(ec.column(x), y)
        yield seq, player - float(np.min(experts))


def _split(seq):
    return [x for x, _ in seq], [y for _, y in seq]


def brute_force_worst_case(g, strategy):
    """worst_case_search as a loop: the first sequence in lexicographic
    order whose regret is within 1e-12 of the max, NaN read as -inf."""
    scored = [
        (seq, -math.inf if math.isnan(r) else r)
        for seq, r in brute_force_regrets(g, strategy)
    ]
    top = max(r for _, r in scored)
    return next(_split(seq) for seq, r in scored if r >= top - 1e-12), top


def test_worst_case_search_matches_brute_force():
    # On a StaticContexts game the Bayes mixture is searched over count
    # vectors, on the history table over histories, and both take the
    # lexicographically first sequence within 1e-12 of the max.  Sorting a
    # sequence keeps its counts and so its regret, so that sequence is a
    # sorted one, and the two searches return the same sequence.  At this
    # seed, iterations 11 and 17 are exact ties (regret log 3 and log 2)
    # whose sequences differ in summation noise.
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        table = _with_exact_zeros_and_ones(rng, (int(rng.integers(2, 5)), k))
        # row 0 stays inside (0, 1), so the posterior is defined everywhere
        table[0] = rng.uniform(0.05, 0.95, size=k)
        ec = ExpertClass(contexts=list(range(k)), experts=table)
        g = GameInstance(horizon=n, expert_class=ec)
        seq, regret = worst_case_search(g, BayesMixture(ec))
        ref_seq, ref_regret = brute_force_worst_case(g, BayesMixture(ec))
        assert regret == pytest.approx(ref_regret, abs=1e-12)
        replay = run_strategy(g, BayesMixture(ec), FixedSequence(*seq))
        assert replay.regret == pytest.approx(regret, abs=1e-12)
        scored = list(brute_force_regrets(g, BayesMixture(ec)))
        top = max(r for _, r in scored)
        ties = [sorted(s) for s, r in scored if r >= top - 1e-12]
        assert seq == _split(min(ties))
        g_hist = _on_history_table(GameInstance(horizon=n, expert_class=ec))
        hist_seq, hist_regret = worst_case_search(g_hist, BayesMixture(ec))
        assert hist_seq == ref_seq
        assert seq == hist_seq
        assert hist_regret == pytest.approx(ref_regret, abs=1e-12)
        for strat in (MinimaxOptimal(g), ConstantStrategy(0.3)):
            walked = worst_case_search(g, strat)
            assert walked[0] == brute_force_worst_case(g, strat)[0]


def test_bayes_mixture_zero_prior_weight():
    # an expert of prior weight 0 never counts, and taking its log -inf
    # raises no RuntimeWarning
    ec = ExpertClass.constants([0.3, 0.7])
    strat = BayesMixture(ec, prior=[1.0, 0.0])
    assert strat.predict(((0, 1), (0, 1)), 0) == 0.3
    g = GameInstance(horizon=3, expert_class=ec)
    regret = worst_case_search(g, strat)[1]
    assert regret == pytest.approx(worst_case_search(g, ConstantStrategy(0.3))[1],
                                   abs=1e-12)


def test_bayes_mixture_once_every_expert_is_ruled_out():
    ec = ExpertClass.constants([0.0, 1.0])
    strat = BayesMixture(ec, prior=[0.25, 0.75])
    assert strat.predict(((0, 1), (0, 0)), 0) == pytest.approx(0.75)
    g = GameInstance(horizon=3, expert_class=ec)
    seq, regret = worst_case_search(g, BayesMixture(ec))
    ref_seq, ref_regret = brute_force_worst_case(g, BayesMixture(ec))
    assert seq == ref_seq
    assert regret == pytest.approx(ref_regret, abs=1e-12)


def _random_dual_instance(rng, kind, exact_branches):
    """kind: k contexts under StaticContexts; "previous"; "subset", a rule
    offering 2 of 3 contexts, with one node set to the third; "missing", a
    rule offering a context the class lacks; "corrupt", PreviousOutcomes
    with one bad node: set to another node's prefix or to the unhashable
    [0], or (n > 1) holding a prefix the class lacks.  With exact_branches,
    about 30% of the branch probabilities are exactly 0 or 1; without, the
    tree is random_dual_strategy's uniform one, which has no zero branch."""
    n = int(rng.integers(1, 10))
    if kind in ("previous", "corrupt"):
        contexts = _prefix_contexts(n)
        ec = ExpertClass(
            contexts=contexts,
            experts=_with_exact_zeros_and_ones(rng, (3, len(contexts))),
        )
        g = GameInstance(
            horizon=n, expert_class=ec, availability=PreviousOutcomes()
        )
    else:
        k = {"subset": 3, "missing": 2}.get(kind, kind)
        rule = {
            "subset": StaticContexts((2, 0)),
            "missing": StaticContexts((0, 1, "absent")),
        }.get(kind)
        n_experts = int(rng.integers(1, 5))
        ec = ExpertClass(
            contexts=list(range(k)),
            experts=_with_exact_zeros_and_ones(rng, (n_experts, k)),
        )
        g = GameInstance(horizon=n, expert_class=ec, availability=rule)
    s = random_dual_strategy(g, rng)
    if exact_branches:
        s.prob_tree.values[:] = _with_exact_zeros_and_ones(
            rng, s.prob_tree.values.size
        )
    values = s.context_tree.values
    if kind in ("subset", "corrupt"):
        node = rng.integers(values.size)
    if kind == "subset":
        values[node] = 1
    elif kind == "corrupt":
        how = int(rng.integers(3 if n > 1 else 2))
        if how == 0:
            values[node] = values[node - 1] if node else (0,)
        elif how == 1:
            values[node] = [0]
        else:
            keep = [c != values[node] for c in contexts]
            ec = ExpertClass([c for c in contexts if c != values[node]],
                             ec.experts[:, keep])
            g = GameInstance(horizon=n, expert_class=ec, availability=PreviousOutcomes())
    return g, s


def _value_or_error(dual, g, s):
    """dual(g, s), or the class of the ValueError or KeyError it raises."""
    try:
        return dual(g, s)
    except (ValueError, KeyError) as e:
        return type(e)


@pytest.mark.parametrize("kind", [1, 2, "previous", "subset", "missing", "corrupt"])
def test_dual_value_matches_per_path_loop(kind):
    rng = np.random.default_rng(31)
    seen = set()
    for i in range(60):
        g, s = _random_dual_instance(rng, kind, exact_branches=i % 2 == 0)
        got = _value_or_error(dual_value, g, s)
        ref = _value_or_error(reference_dual_value, g, s)
        seen.add(ref if isinstance(ref, type) else float)
        if isinstance(ref, type):
            assert got is ref
        elif math.isfinite(ref):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)
        else:
            assert (math.isnan(got) and math.isnan(ref)) or got == ref
    # "subset", "corrupt": the bad node is reached, or only through a zero
    # branch (every "corrupt" tree has one, so a float there is that case)
    errors = {"subset": {ValueError}, "missing": {KeyError},
              "corrupt": {ValueError, KeyError}}.get(kind, set())
    assert seen == {float} | errors


def test_dual_path_guard_before_drawing():
    g = GameInstance(horizon=21, expert_class=ExpertClass.constants([0.3, 0.7]))
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="too many paths"):
        random_dual_strategy(g, rng)
    assert rng.bit_generator.state == state
    s = DualStrategy(
        context_tree=BinaryTree(21, values=np.zeros((1 << 21) - 1, dtype=object)),
        prob_tree=BinaryTree(21, fill=0.5),
    )
    with pytest.raises(ValueError, match="too many paths"):
        dual_value(g, s)


def test_dual_unavailable_context():
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.3, 0.6], [0.7, 0.2]])
    g = GameInstance(horizon=2, expert_class=ec)
    # node (2, prefix 1) shows "z", which the rule never offers
    ctx = BinaryTree(2, values=np.array(["a", "b", "z"], dtype=object))
    half = BinaryTree(2, fill=0.5)
    with pytest.raises(ValueError):
        dual_value(g, DualStrategy(context_tree=ctx, prob_tree=half))
    # with p = 0 at the root, outcome 1 and the node below it are never reached
    prob = BinaryTree(2, values=[0.0, 0.5, 0.5])
    known = BinaryTree(2, values=np.array(["a", "b", "a"], dtype=object))
    expected = reference_dual_value(
        g, DualStrategy(context_tree=known, prob_tree=prob)
    )
    got = dual_value(g, DualStrategy(context_tree=ctx, prob_tree=prob))
    assert got == pytest.approx(expected, abs=1e-15)
    # an unhashable value is no context id either, and it too is only
    # checked where it is reached
    ctx.values[2] = ["z"]
    with pytest.raises(ValueError):
        dual_value(g, DualStrategy(context_tree=ctx, prob_tree=half))
    assert dual_value(g, DualStrategy(context_tree=ctx, prob_tree=prob)) == got
    # path 1, 1 has probability 1e-400, which underflows to 0, yet it is
    # reached: its round-3 node must still be checked
    ctx3 = BinaryTree(3, values=np.array(["a"] * 6 + ["z"], dtype=object))
    tiny = BinaryTree(3, values=[1e-200, 0.5, 1e-200, 0.5, 0.5, 0.5, 0.5])
    g3 = GameInstance(horizon=3, expert_class=ec)
    with pytest.raises(ValueError):
        dual_value(g3, DualStrategy(context_tree=ctx3, prob_tree=tiny))


def reference_random_dual_strategy(g, rng):
    """random_dual_strategy with one draw per node."""
    n = g.horizon
    prob = BinaryTree(n, values=rng.uniform(size=(1 << n) - 1))
    ctx = BinaryTree(n, values=np.empty((1 << n) - 1, dtype=object))
    histories = [()]
    for t in range(1, n + 1):
        xs = ctx.level(t)
        for q, history in enumerate(histories):
            options = g.availability.available(history)
            xs[q] = options[rng.integers(len(options))]
        if t < n:
            histories = [
                h + ((x, y),) for y in (0, 1) for h, x in zip(histories, xs)
            ]
    return DualStrategy(context_tree=ctx, prob_tree=prob)


def test_random_dual_strategy_matches_per_node_draws():
    games = []
    for k in (1, 2, 3):
        ec = ExpertClass(contexts=list(range(k)), experts=np.full((2, k), 0.5))
        games += [GameInstance(n, ec) for n in (1, 4, 6)]
        games.append(GameInstance(5, ec, StaticContexts(ec.contexts[::-1])))
    games.append(GameInstance(9, ec))  # k = 3
    # the forced prefix tree: a draw among one context takes no state
    for n in (1, 4, 7):
        prev_ec = ExpertClass(_prefix_contexts(n), np.full((1, (1 << n) - 1), 0.5))
        games.append(GameInstance(n, prev_ec, PreviousOutcomes()))
    for g in games:
        for seed in range(60):
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            got = random_dual_strategy(g, rng)
            want = reference_random_dual_strategy(g, ref_rng)
            assert list(got.context_tree.values) == list(want.context_tree.values)
            assert np.array_equal(got.prob_tree.values, want.prob_tree.values)
            assert rng.uniform() == ref_rng.uniform()


def test_random_dual_strategy_pinned_draw():
    ec = ExpertClass(
        contexts=["a", "b", "c"], experts=[[0.2, 0.5, 0.9], [0.6, 0.1, 0.4]]
    )
    g = GameInstance(horizon=3, expert_class=ec)
    s = random_dual_strategy(g, np.random.default_rng(2024))
    # the prob tree is drawn first, then one context per node in flat order
    assert np.array_equal(
        s.prob_tree.values, np.random.default_rng(2024).uniform(size=7)
    )
    assert list(s.context_tree.values) == ["a", "a", "c", "b", "a", "a", "b"]
