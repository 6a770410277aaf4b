import math
import warnings

import numpy as np
import pytest

from logloss_lab.core import (
    ESTIMATION_CONSTANT,
    LAMBDA_STAR,
    BinaryTree,
    ExpertClass,
    clip_prob,
    eta,
    kl_bernoulli,
    log_loss,
    omega,
    path_node_indices,
    phi,
    psi,
)


def test_constants():
    assert abs(ESTIMATION_CONSTANT - 3.22310) < 1e-4
    assert ESTIMATION_CONSTANT <= 4.0
    assert LAMBDA_STAR == pytest.approx(1.0 / ESTIMATION_CONSTANT, abs=1e-15)


def test_tree_indexing():
    tree = BinaryTree(3)
    assert tree.values.shape == (7,)
    k = 0.0
    for t in range(1, 4):
        for q in range(1 << (t - 1)):
            tree.set(t, q, k)
            k += 1.0
    assert list(tree.values) == list(range(7))
    # path 1,1: sees root, right child of round 2, node (3, prefix=3)
    assert list(tree.values[path_node_indices(3)[0b11]]) == [0.0, 2.0, 6.0]
    # levels are writable views in prefix order
    assert list(tree.level(2)) == [1.0, 2.0]
    tree.level(3)[2] = -1.0
    assert tree.get(3, 2) == -1.0
    with pytest.raises(IndexError):
        tree.get(4, 0)
    with pytest.raises(IndexError):
        tree.get(2, 2)
    with pytest.raises(IndexError):
        tree.level(4)


def test_tree_prefix_dependence():
    # value at round t must depend only on the first t-1 outcomes; encode
    # (t, prefix bits) as a scalar and decode along every path
    def encode(t, bits):
        return t * 100 + sum(b << i for i, b in enumerate(bits))

    tree = BinaryTree.from_function(4, encode)
    idx = path_node_indices(4)
    for y in range(16):
        vals = tree.values[idx[y]]
        for t, v in enumerate(vals, start=1):
            prefix = y & ((1 << (t - 1)) - 1)
            assert v == t * 100 + prefix
    # level t+1 lists the outcome-0 children of level t, then outcome-1
    for t in range(1, 4):
        parent, child = tree.level(t), tree.level(t + 1)
        half = len(parent)
        assert list(child[:half] - 100) == list(parent)
        assert list(child[half:] - 100 - half) == list(parent)


def test_path_node_indices_matches_tree():
    depth = 5
    tree = BinaryTree(depth, values=np.arange((1 << depth) - 1, dtype=float))
    idx = path_node_indices(depth)
    assert idx.shape == (1 << depth, depth)
    for y in range(1 << depth):
        for t in range(1, depth + 1):
            prefix = y % (1 << (t - 1))
            assert tree.values[idx[y, t - 1]] == tree.get(t, prefix)


def test_expert_class_basics():
    ec = ExpertClass(contexts=["a", "b"], experts=[[0.1, 0.9], [0.5, 0.5]])
    assert ec.n_experts == 2
    assert ec.value(0, "b") == 0.9
    assert list(ec.column("a")) == [0.1, 0.5]
    with pytest.raises(KeyError):
        ec.context_index("c")
    assert not ec.has_duplicate_experts
    dup = ExpertClass(contexts=[0], experts=[[0.5], [0.5]])
    assert dup.has_duplicate_experts


def test_expert_class_validation():
    with pytest.raises(ValueError):
        ExpertClass(contexts=[0], experts=[[1.5]])
    with pytest.raises(ValueError):
        ExpertClass(contexts=[0, 1], experts=[[0.5]])
    with pytest.raises(ValueError):
        ExpertClass(contexts=[0, 0], experts=[[0.5, 0.5]])
    with pytest.raises(ValueError):
        ExpertClass(contexts=[0], experts=np.empty((0, 1)))


def test_expert_class_log_lik_table():
    table = np.array([[0.0, 0.3, 1.0], [1.0, 0.0, 0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ec = ExpertClass(contexts=["a", "b", "c"], experts=table)
    assert ec.log_lik.shape == (2, 2, 3)
    for y in (0, 1):
        assert np.array_equal(ec.log_lik[y], -log_loss(table, y))
    assert ec.log_lik[1, 0, 0] == ec.log_lik[0, 1, 0] == -math.inf
    history = [("b", 1), ("a", 0), ("c", 1)]
    expected = sum(-log_loss(ec.column(x), y) for x, y in history)
    assert np.array_equal(ec.history_log_lik(history), expected)
    assert np.array_equal(
        ec.history_log_lik([], start=np.array([1.0, 2.0])), [1.0, 2.0]
    )


def test_expert_class_is_read_only():
    table = np.array([[0.2, 0.4]])
    ec = ExpertClass(contexts=[0, 1], experts=table)
    table[0, 0] = 0.9  # the class holds its own copy
    assert ec.value(0, 0) == 0.2
    for arr in (ec.experts, ec.log_lik, ec.column(0)):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_constants_class():
    ec = ExpertClass.constants([0.2, 0.8])
    assert ec.n_experts == 2
    assert ec.value(1, 0) == 0.8


def test_log_loss_values():
    assert log_loss(0.5, 1) == pytest.approx(math.log(2))
    assert log_loss(0.5, 0) == pytest.approx(math.log(2))
    assert log_loss(0.0, 1) == math.inf
    assert log_loss(1.0, 0) == math.inf
    assert log_loss(1.0, 1) == 0.0
    out = log_loss(np.array([0.25, 0.75]), np.array([1, 0]))
    assert out == pytest.approx([math.log(4), math.log(4)])


def test_eta_is_loss_derivative():
    for y in (0, 1):
        for p in (0.1, 0.37, 0.9):
            h = 1e-7
            num = (log_loss(p + h, y) - log_loss(p - h, y)) / (2 * h)
            assert eta(p, y) == pytest.approx(num, rel=1e-6)


def test_phi_omega():
    assert phi(0.0) == 0.0
    # for z >= 0: phi(z) = log(1 + z)
    assert phi(2.0) == pytest.approx(math.log(3))
    # for z < 0: phi(z) = 2z + log(1 - z)
    assert phi(-1.0) == pytest.approx(-2.0 + math.log(2))
    assert omega(0.0) == 0.0
    assert omega(1.0) == pytest.approx(1 - math.log(2))
    with pytest.raises(ValueError):
        omega(-0.5)


def test_phi_nonpositive_offset():
    z = np.linspace(-50, 50, 1001)
    # phi(z) <= z always (the offset |z| - log(1+|z|) is nonnegative)
    assert np.all(phi(z) <= z + 1e-12)


def test_kl_bernoulli():
    assert kl_bernoulli(0.5, 0.5) == 0.0
    assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))
    assert kl_bernoulli(0.3, 0.0) == math.inf
    assert kl_bernoulli(0.3, 1.0) == math.inf
    assert kl_bernoulli(0.0, 0.0) == 0.0
    assert kl_bernoulli(1.0, 1.0) == 0.0
    p, q = 0.2, 0.5
    direct = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
    assert kl_bernoulli(p, q) == pytest.approx(direct, abs=1e-12)


def test_clip_prob():
    assert clip_prob(0.01, 0.1) == 0.1
    assert clip_prob(0.99, 0.1) == pytest.approx(0.9)
    assert clip_prob(0.5, 0.1) == 0.5
    with pytest.raises(ValueError):
        clip_prob(0.5, 0.0)
    with pytest.raises(ValueError):
        clip_prob(0.5, 0.7)


def test_psi_matches_definition():
    lam = 0.25
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(0.01, 0.99)
        v = rng.uniform(p - 1, p)
        direct = p * math.exp(lam * phi(eta(p, 1) * v)) + (1 - p) * math.exp(
            lam * phi(eta(p, 0) * v)
        )
        assert psi(p, lam, v) == pytest.approx(direct, rel=1e-12)


def test_psi_edges_and_validation():
    lam = 0.3
    # p = 1: psi = (1 + v)^lam exp(-2 lam v) for v in [0, 1]
    for v in (0.0, 0.3, 1.0):
        assert psi(1.0, lam, v) == pytest.approx(
            (1 + v) ** lam * math.exp(-2 * lam * v), rel=1e-12
        )
    # p = 0: psi = (1 - v)^lam exp(2 lam v) for v in [-1, 0]
    for v in (-1.0, -0.4, 0.0):
        assert psi(0.0, lam, v) == pytest.approx(
            (1 - v) ** lam * math.exp(2 * lam * v), rel=1e-12
        )
    assert psi(0.5, lam, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        psi(0.5, lam, 0.6)
    with pytest.raises(ValueError):
        psi(0.5, -1.0, 0.0)
