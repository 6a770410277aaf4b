import math
import tracemalloc
import warnings

import numpy as np
import pytest

from logloss_lab import core as core_mod
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
            tree.level(t)[q] = k
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

    tree = BinaryTree(4, values=[
        encode(t, tuple((q >> i) & 1 for i in range(t - 1)))
        for t in range(1, 5) for q in range(1 << (t - 1))
    ])
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
    assert ec.experts[0, ec.context_index("b")] == 0.9
    assert list(ec.column("a")) == [0.1, 0.5]
    with pytest.raises(KeyError):
        ec.context_index("c")


def test_unhashable_context_id_is_unknown():
    ec = ExpertClass(contexts=[0, 1], experts=[[0.3, 0.6]])
    for lookup in (lambda: ec.context_index([1]), lambda: ec.column([1]),
                   lambda: ec.experts[0, ec.context_index([1])],
                   lambda: ec.history_log_lik([(0, 1), ([1], 0)])):
        with pytest.raises(KeyError) as err:
            lookup()
        assert str(err.value) == repr("unknown context id: [1]")


def test_expert_class_columns():
    ec = ExpertClass(contexts=["a", (0, 1), 3], experts=[[0.1, 0.5, 0.9]])
    ids = ["a", 3, (0, 1), 3, "a"]
    cols = ec.columns(ids)
    assert cols.dtype == np.intp
    assert cols.tolist() == [ec.context_index(x) for x in ids]
    assert ec.columns([]).tolist() == []
    # the first id the class lacks is named, unhashable or not
    for ids, first in ((["a", "z", [1]], "z"), (["a", [1], "z"], [1]),
                       ([3, (0, [1])], (0, [1]))):
        with pytest.raises(KeyError) as err:
            ec.columns(ids)
        assert str(err.value) == repr(f"unknown context id: {first!r}")


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
    # a bool or numpy integer is that outcome; nothing else is an outcome
    for y in (True, np.int64(1), np.True_):
        assert np.array_equal(ec.history_log_lik([("b", y)]), ec.log_lik[1, :, 1])
    for y in (-1, 2, None, 1.0, "1"):
        with pytest.raises(ValueError, match="outcome must be 0 or 1"):
            ec.history_log_lik([("b", y)])


def test_expert_class_is_read_only():
    table = np.array([[0.2, 0.4]])
    ec = ExpertClass(contexts=[0, 1], experts=table)
    table[0, 0] = 0.9  # the class holds its own copy
    assert ec.experts[0, ec.context_index(0)] == 0.2
    for arr in (ec.experts, ec.log_lik, ec.column(0)):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_constants_class():
    ec = ExpertClass.constants([0.2, 0.8])
    assert ec.n_experts == 2
    assert ec.experts[1, ec.context_index(0)] == 0.8


def test_log_loss_values():
    assert log_loss(0.5, 1) == pytest.approx(math.log(2))
    assert log_loss(0.5, 0) == pytest.approx(math.log(2))
    assert log_loss(0.0, 1) == math.inf
    assert log_loss(1.0, 0) == math.inf
    assert log_loss(1.0, 1) == 0.0
    out = log_loss(np.array([0.25, 0.75]), np.array([1, 0]))
    assert out == pytest.approx([math.log(4), math.log(4)])


def test_log_loss_scalar_path_matches_array_path():
    rng = np.random.default_rng(11)
    p = rng.uniform(size=2000)
    p[:40], p[40:80] = 0.0, 1.0  # with y = 1 and y = 0 both: +inf and 0
    rng.shuffle(p)
    y = rng.integers(0, 2, size=p.size)
    want = log_loss(p, y)
    assert np.isinf(want).any()
    for cast in (int, bool, np.int64, float):
        got = [log_loss(pi, cast(yi)) for pi, yi in zip(p.tolist(), y.tolist())]
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, want)
    got = [log_loss(np.float64(pi), np.array(yi)) for pi, yi in zip(p, y)]
    assert np.array_equal(got, want)


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
    # an array delta clips element by element, as np.clip does
    rng = np.random.default_rng(3)
    p = rng.uniform(-0.2, 1.2, size=(50, 1))
    d = np.append(rng.uniform(1e-6, 0.5, size=39), 0.5)
    assert np.array_equal(clip_prob(p, d), np.clip(p, d, 1.0 - d))
    for bad in (0.0, -0.1, 0.6, math.nan):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/2\]"):
            clip_prob(p, np.append(d[1:], bad))


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


def test_psi_of_nan_p_is_nan():
    # neither branch weight is known to be 0, so neither is dropped
    assert math.isnan(psi(float("nan"), 1.0, 0.1))
    got = psi(np.array([np.nan, 0.0, 1.0, np.nan]), 0.3,
              np.array([0.1, -0.4, 0.3, np.nan]))
    assert np.isnan(got[[0, 3]]).all()
    assert got[1] == psi(0.0, 0.3, -0.4)
    assert got[2] == psi(1.0, 0.3, 0.3)


# Blocked kernels: a call over more than core._BLOCK broadcast elements is
# evaluated a block at a time; it must equal the one-call evaluation, which
# the kernels take when _BLOCK is raised past the input size.  An input of a
# real dtype other than float64 is cast a block at a time, so the blocked
# call on it must equal the one call on the same values cast to float64
# first.  One input of each kernel is cast(x) for a float64 x: p for psi,
# the only input of phi and omega, and the second input of the others.

KERNELS = {
    "log_loss": lambda a, b, cast: log_loss(a, cast(b)),
    "eta": lambda a, b, cast: eta(a, cast(b)),
    "phi": lambda a, b, cast: phi(cast(40.0 * a - 20.0 * b)),
    "omega": lambda a, b, cast: omega(cast(50.0 * a * b)),
    "kl_bernoulli": lambda a, b, cast: kl_bernoulli(a, cast(b)),
    "clip_prob": lambda a, b, cast: clip_prob(cast(a * b), 0.1),
    "psi": lambda a, b, cast: _psi_case(cast(a), b),
}


def _psi_case(p, b):
    return psi(p, 0.31, p - b)  # v in [p - 1, p] for b in [0, 1]


DTYPES = (np.float64, np.float32, np.int64, np.bool_)


def _cast_to(dtype):
    """x in `dtype`: a float dtype rounds x and keeps its NaNs; int64 and
    bool take x > 0.5, the outcome a probability x draws."""
    if np.dtype(dtype).kind == "f":
        return lambda x: x.astype(dtype)
    return lambda x: (x > 0.5).astype(dtype)


def _with_dtypes(values):
    """(value, dtype) cases; a float64 case keeps the value's own id."""
    return [
        pytest.param(v, dt, id=str(v) if dt is np.float64 else f"{v}-{np.dtype(dt)}")
        for v in values for dt in DTYPES
    ]


def _kernel_inputs(shape_a, shape_b, seed=0):
    """Uniform inputs with exact 0s and 1s and NaNs mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=shape_a)
    b = rng.uniform(size=shape_b)
    for x in (a, b):
        flat = x.reshape(-1)
        flat[rng.integers(0, flat.size, size=1 + flat.size // 50)] = 0.0
        flat[rng.integers(0, flat.size, size=1 + flat.size // 50)] = 1.0
        flat[rng.integers(0, flat.size, size=1 + flat.size // 97)] = np.nan
    return a, b


def _one_call(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(core_mod, "_BLOCK", 1 << 62)
        return fn(*args)


def _assert_blocked_equals_one_call(monkeypatch, fn, *args, one_call_args=None):
    with np.errstate(all="ignore"):
        got = fn(*args)
        want = _one_call(monkeypatch, fn, *(one_call_args or args))
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def _assert_blocked_equals_float_one_call(monkeypatch, name, dtype, a, b):
    cast = _cast_to(dtype)
    _assert_blocked_equals_one_call(
        monkeypatch, KERNELS[name], a, b, cast,
        one_call_args=(a, b, lambda x: cast(x).astype(np.float64)))


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("offset, dtype",
                         _with_dtypes(["1", "B-1", "B", "B+1", "3B+7"]))
def test_blocked_kernels_match_one_call_by_size(name, offset, dtype, monkeypatch):
    B = core_mod._BLOCK
    size = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "3B+7": 3 * B + 7}[offset]
    a, b = _kernel_inputs(size, size)
    _assert_blocked_equals_float_one_call(monkeypatch, name, dtype, a, b)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("block, dtype", _with_dtypes([None, 7]))
def test_blocked_kernels_match_one_call_broadcast(name, block, dtype, monkeypatch):
    if block is not None:
        monkeypatch.setattr(core_mod, "_BLOCK", block)
    m = 40 if block else 200  # m^2 is past the block either way
    a, b = _kernel_inputs((m, 1), (m, m), seed=1)
    for a, b in ((a, b), (a, b[:1, :]), (a[None, :, :], b[None, :1, :])):
        _assert_blocked_equals_float_one_call(monkeypatch, name, dtype, a, b)


def test_kernels_cast_other_inputs_whole_as_before():
    # a list, or an object, complex or str array, is cast to float up front,
    # so it keeps the float cast's values, warnings and errors
    B = core_mod._BLOCK
    p, _ = _kernel_inputs(2 * B + 3, 1, seed=2)
    y = (p > 0.5).astype(np.int64)
    want = log_loss(p, y)
    assert np.array_equal(log_loss(p, y.tolist()), want, equal_nan=True)
    z = 40.0 * p - 20.0
    held = z.astype(object)
    held[::7] = None  # float(None) is an error, but numpy's cast reads NaN
    got = phi(held)
    assert np.isnan(got[::7]).all()
    keep = np.ones(z.size, dtype=bool)
    keep[::7] = False
    assert np.array_equal(got[keep], phi(z)[keep], equal_nan=True)
    with pytest.warns(np.exceptions.ComplexWarning, match="discards the imaginary"):
        got = phi(z + 1j)
    assert np.array_equal(got, phi(z), equal_nan=True)
    assert np.array_equal(phi(z.astype(str)), phi(z), equal_nan=True)
    text = z.astype(str)
    text[-1] = "x"
    with pytest.raises(ValueError) as cast_error:
        np.asarray(text, dtype=float)
    with pytest.raises(ValueError) as kernel_error:
        phi(text)
    assert str(kernel_error.value) == str(cast_error.value)


def test_kernels_hold_output_plus_blocks():
    # int64 outcomes are cast a block at a time, not copied whole to float64
    rng = np.random.default_rng(0)
    p = rng.uniform(size=1 << 20)
    y = rng.integers(0, 2, size=1 << 20)
    for fn in (log_loss, eta):
        tracemalloc.start()
        try:
            out = fn(p, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (2 << 20), (fn.__name__, peak)


_Y01 = np.array([[0.0, 1.0]])


def test_blocked_kernels_infinite_inputs(monkeypatch):
    monkeypatch.setattr(core_mod, "_BLOCK", 5)
    z = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308])
    z = np.concatenate([z, z[::-1], z])
    with np.errstate(over="ignore", invalid="ignore"):
        zz = z[:, None] * z[None, :]
    _assert_blocked_equals_one_call(monkeypatch, phi, z)
    _assert_blocked_equals_one_call(monkeypatch, phi, zz)
    _assert_blocked_equals_one_call(monkeypatch, omega, np.abs(z))
    _assert_blocked_equals_one_call(monkeypatch, kl_bernoulli, z[:, None], z[None, :])
    p = np.clip(np.abs(z), 0.0, 1.0)
    _assert_blocked_equals_one_call(monkeypatch, log_loss, p[:, None], _Y01)
    _assert_blocked_equals_one_call(monkeypatch, eta, p[:, None], _Y01)


def test_blocked_kernel_errors_raise_from_a_late_block():
    B = core_mod._BLOCK
    z = np.ones(3 * B + 7)
    z[-1] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        omega(z)
    p = np.full(3 * B + 7, 0.5)
    v = np.zeros_like(p)
    v[-1] = 0.6
    with pytest.raises(ValueError, match=r"\[p - 1, p\]"):
        psi(p, 0.3, v)
    with pytest.raises(ValueError, match="lambda"):
        psi(p, 0.0, np.zeros_like(p))


def test_scalar_kernel_calls_return_floats():
    for got in (log_loss(0.3, 1), eta(0.3, 0), phi(-2.0), omega(2.0),
                kl_bernoulli(0.2, 0.4), psi(0.4, 0.3, 0.1), clip_prob(0.3, 0.1),
                phi(np.float64(1.5)), log_loss(np.array(0.25), np.array(1))):
        assert type(got) is float
    assert log_loss(0.0, 1) == math.inf
    assert psi(0.4, 0.3, 0.1) == float(psi(np.array([0.4]), 0.3, np.array([0.1]))[0])


def test_loglog_slope():
    # ints past 2^63 are taken as floats, not as an object array
    ns = [2**k for k in range(60, 71)]
    assert core_mod._loglog_slope(ns, [float(n) ** 0.75 for n in ns]) == (
        pytest.approx(0.75, abs=1e-12))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            core_mod._loglog_slope([1, 2, 4], [1.0, bad, 3.0])
