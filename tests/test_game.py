import itertools
import math

import numpy as np
import pytest

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
                f = ec.value(i, x)
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
        assert trace.recompute_regret(ec) == pytest.approx(
            trace.regret, abs=1e-9
        )


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


def test_instance_guards():
    ec = ExpertClass.constants(np.linspace(0.1, 0.9, 5))
    with pytest.raises(ValueError):
        GameInstance(horizon=0, expert_class=ec)
    big = GameInstance(horizon=30, expert_class=ec)
    with pytest.raises(ValueError):
        exact_minimax(big)
    with pytest.raises(ValueError):
        StaticContexts(())


def test_worst_case_search_tiebreak_deterministic():
    ec = ExpertClass.constants([0.5])
    g = GameInstance(horizon=2, expert_class=ec)
    seq1, r1 = worst_case_search(g, ConstantStrategy(0.5))
    seq2, r2 = worst_case_search(g, ConstantStrategy(0.5))
    assert seq1 == seq2
    assert r1 == r2


def brute_force_worst_case(g, strategy):
    """worst_case_search as a loop over every (context, outcome) sequence in
    lexicographic order, each scored from scratch with core.log_loss."""
    ec = g.expert_class
    pairs = [(x, y) for x in g.availability.available(()) for y in (0, 1)]
    best_regret, best_seq = -math.inf, None
    for seq in itertools.product(pairs, repeat=g.horizon):
        player = 0.0
        experts = np.zeros(ec.n_experts)
        for t, (x, y) in enumerate(seq):
            player += log_loss(strategy.predict(seq[:t], x), y)
            experts += log_loss(ec.column(x), y)
        regret = player - float(np.min(experts))
        if regret > best_regret + 1e-15:
            best_regret = regret
            best_seq = ([x for x, _ in seq], [y for _, y in seq])
    return best_seq, best_regret


def test_worst_case_search_matches_brute_force():
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
        assert seq == ref_seq
        assert regret == pytest.approx(ref_regret, abs=1e-12)


def _random_dual_instance(rng, kind):
    n = int(rng.integers(1, 7))
    if kind == "previous":
        contexts = [
            c for m in range(n) for c in itertools.product((0, 1), repeat=m)
        ]
        ec = ExpertClass(
            contexts=contexts,
            experts=_with_exact_zeros_and_ones(rng, (3, len(contexts))),
        )
        g = GameInstance(
            horizon=n, expert_class=ec, availability=PreviousOutcomes()
        )
    else:
        n_experts = int(rng.integers(1, 5))
        ec = ExpertClass(
            contexts=list(range(kind)),
            experts=_with_exact_zeros_and_ones(rng, (n_experts, kind)),
        )
        g = GameInstance(horizon=n, expert_class=ec)
    s = random_dual_strategy(g, rng)
    s.prob_tree.values[:] = _with_exact_zeros_and_ones(
        rng, s.prob_tree.values.size
    )
    return g, s


@pytest.mark.parametrize("kind", [1, 2, "previous"])
def test_dual_value_matches_per_path_loop(kind):
    rng = np.random.default_rng(31)
    for _ in range(60):
        g, s = _random_dual_instance(rng, kind)
        got, ref = dual_value(g, s), reference_dual_value(g, s)
        if math.isfinite(ref):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)
        else:
            assert (math.isnan(got) and math.isnan(ref)) or got == ref


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
    # path 1, 1 has probability 1e-400, which underflows to 0, yet it is
    # reached: its round-3 node must still be checked
    ctx3 = BinaryTree(3, values=np.array(["a"] * 6 + ["z"], dtype=object))
    tiny = BinaryTree(3, values=[1e-200, 0.5, 1e-200, 0.5, 0.5, 0.5, 0.5])
    g3 = GameInstance(horizon=3, expert_class=ec)
    with pytest.raises(ValueError):
        dual_value(g3, DualStrategy(context_tree=ctx3, prob_tree=tiny))


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
