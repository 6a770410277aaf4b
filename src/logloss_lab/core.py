"""Elementary quantities for sequential probability assignment under log loss.

Everything here is a pure function of its inputs.  Probabilities are plain
doubles; boundary cases (zero mass on the realized outcome) produce IEEE
infinities rather than raising, so downstream log-domain aggregation can
absorb them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ESTIMATION_CONSTANT",
    "LAMBDA_STAR",
    "BinaryTree",
    "ExpertClass",
    "log_loss",
    "eta",
    "phi",
    "omega",
    "kl_bernoulli",
    "clip_prob",
    "psi",
    "path_node_indices",
]

# Constant in front of the entropy term of the single-scale regret bound,
# and its reciprocal, an exponential-moment parameter for which
# sup_{p,v} psi(p, lam, v) <= 1: sufficient, not the largest (about 0.429).
ESTIMATION_CONSTANT = (2.0 - math.log(2.0)) / (math.log(3.0) - math.log(2.0))
LAMBDA_STAR = 1.0 / ESTIMATION_CONSTANT
PATH_GUARD = 1 << 20  # outcome paths of the deepest tree built, depth 20


def _check_paths(depth: int) -> None:
    """Raise before a tree of more than PATH_GUARD outcome paths is built;
    depths are compared, so a huge depth costs nothing."""
    if depth > PATH_GUARD.bit_length() - 1:
        raise ValueError(f"too many paths: a depth-{depth} tree, past PATH_GUARD")


class BinaryTree:
    """Depth-n complete binary tree of values indexed by (round, prefix):
    all ``2**depth - 1`` node values in flat order, or ``fill`` at each.

    The node for round ``t`` (1-based) and outcome-prefix integer ``q``
    (bits of outcomes 1..t-1, least significant first) is ``level(t)[q]``,
    at flat index ``2**(t-1) - 1 + q``; ``get(t, q)`` checks both indices.
    """

    def __init__(self, depth: int, values=None, fill=0.0):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        n_nodes = (1 << depth) - 1
        if values is None:
            self.values = np.full(n_nodes, fill)
        else:
            values = np.asarray(values)
            if values.shape != (n_nodes,):
                raise ValueError(
                    f"expected {n_nodes} node values, got {values.shape}"
                )
            self.values = values.copy()

    @staticmethod
    def level_slice(t: int) -> slice:
        """Flat node indices of round t, in prefix order."""
        return slice((1 << (t - 1)) - 1, (1 << t) - 1)

    def get(self, t: int, prefix: int):
        level = self.level(t)
        if not 0 <= prefix < level.size:
            raise IndexError("prefix out of range for round")
        return level[prefix]

    def level(self, t: int) -> np.ndarray:
        """Writable view of round t's node values, in prefix order.

        Node q of round t has children q (outcome 0) and q + 2**(t-1)
        (outcome 1) at round t+1, so round t+1's level is the outcome-0
        children of round t followed by its outcome-1 children.
        """
        if not 1 <= t <= self.depth:
            raise IndexError("round out of range")
        return self.values[self.level_slice(t)]


def path_node_indices(depth: int) -> np.ndarray:
    """(2**depth, depth) array: flat node index of round t on each path.

    Row y (the path bitmask), column t-1.
    """
    paths = np.arange(1 << depth)[:, None]
    t = np.arange(1, depth + 1)[None, :]
    first = (1 << (t - 1)) - 1  # round t's first index, and its prefix mask
    return first + (paths & first)


@dataclass
class ExpertClass:
    """A finite family of experts, each a table context-id -> probability.

    ``experts[i, context_index(x)]`` is expert i's value at context id x
    (``columns`` looks up many ids).  ``experts`` is read-only;
    ``log_lik[y]`` = log P(y | expert, context)."""

    contexts: list
    experts: np.ndarray  # shape (n_experts, n_contexts)
    log_lik: np.ndarray = field(init=False, repr=False)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.experts = np.array(self.experts, dtype=float)
        if self.experts.ndim != 2:
            raise ValueError("experts must be a 2-D table")
        if self.experts.shape[0] == 0:
            raise ValueError("expert class must be non-empty")
        if self.experts.shape[1] != len(self.contexts):
            raise ValueError("each expert must be defined on every context")
        if not np.all((self.experts >= 0) & (self.experts <= 1)):
            raise ValueError("expert values must lie in [0, 1]")
        self._index = _index_of(self.contexts)
        self.experts.flags.writeable = False
        with np.errstate(divide="ignore"):
            self.log_lik = np.stack(
                [np.log1p(-self.experts), np.log(self.experts)]
            )
        self.log_lik.flags.writeable = False

    @property
    def n_experts(self) -> int:
        return self.experts.shape[0]

    def context_index(self, context) -> int:
        try:
            return self._index[context]
        except (KeyError, TypeError):  # an unhashable value is no context id
            raise KeyError(f"unknown context id: {context!r}") from None

    def columns(self, ids) -> np.ndarray:
        """context_index of every id in a sequence, as an intp array;
        KeyError for the first id the class lacks."""
        cols = _lookup(self._index, ids, -1)
        if cols.size and cols.min() < 0:
            self.context_index(ids[int(np.argmin(cols))])
        return cols

    def column(self, context) -> np.ndarray:
        """All expert values at one context."""
        return self.experts[:, self.context_index(context)]

    def history_log_lik(self, history, start=0.0) -> np.ndarray:
        """start plus each expert's log likelihood of a sequence of
        (context, outcome) pairs, summed round by round."""
        total = np.zeros(self.n_experts) + start
        for x, y in history:
            total += self.log_lik[_outcome(y), :, self.context_index(x)]
        return total

    @classmethod
    def constants(cls, probs) -> "ExpertClass":
        """Context-free experts: a single context, one constant per expert."""
        probs = np.asarray(probs, dtype=float)
        return cls(contexts=[0], experts=probs[:, None])


def _index_of(ids) -> dict:
    """{id: position} of a sequence of context ids; ValueError unless the
    ids are hashable and distinct."""
    try:
        index = {c: i for i, c in enumerate(ids)}
    except TypeError:
        raise ValueError("context ids must be hashable") from None
    if len(index) != len(ids):
        raise ValueError("duplicate context ids")
    return index


def _lookup(index: dict, keys, missing: int) -> np.ndarray:
    """index.get(key, missing) for every key of a sequence, as an intp
    array; an unhashable key is no context id, so it too reads `missing`."""
    try:
        cols = map(index.get, keys, itertools.repeat(missing))
        return np.fromiter(cols, dtype=np.intp, count=len(keys))
    except TypeError:
        return np.array([_get(index, x, missing) for x in keys], dtype=np.intp)


def _get(index: dict, key, missing: int) -> int:
    try:
        return index.get(key, missing)
    except TypeError:
        return missing


def _outcome(y) -> int:
    """y as the int 0 or 1: an int, bool or numpy integer of that value;
    ValueError for anything else (-1, 2, None, 1.0, "1")."""
    if isinstance(y, (int, np.integer, np.bool_)) and y in (0, 1):
        return int(y)
    raise ValueError(f"outcome must be 0 or 1, got {y!r}")


def _is_0d(x) -> bool:
    """np.ndim(x) == 0, answered without numpy for Python and numpy scalars."""
    return isinstance(x, (int, float, np.generic)) or np.ndim(x) == 0


# One block size and one cutter (_block_values) for all grid-sized work: the
# array kernels write the blocks into one output array, verify's grid checks
# reduce them as they come, and cover.cover_verify steps its paths by _BLOCK.
_BLOCK = 1 << 15


def _blocks(shape):
    """Index tuples that cut `shape` into C-order blocks of at most _BLOCK
    elements: single indices on the leading axes, a slice of one axis, and
    every trailing axis whole."""
    axis, inner = len(shape) - 1, 1
    while axis > 0 and inner * shape[axis] <= _BLOCK:
        inner *= shape[axis]
        axis -= 1
    step = _BLOCK // inner
    for lead in np.ndindex(*shape[:axis]):
        for start in range(0, shape[axis], step):
            yield lead + (slice(start, start + step),)


def _part(x, block):
    """The part of x, padded to the output's rank, that broadcasts to the
    output block: a length-1 axis of x is kept whole."""
    return x[tuple(
        b if n != 1 else 0 if isinstance(b, int) else slice(None)
        for b, n in zip(block, x.shape)
    )]


def _block_values(expr, *arrays):
    """expr over each C-order block of at most _BLOCK elements of the arrays'
    broadcast shape, on broadcast views; laid end to end, the blocks of an
    element-by-element expr are expr(*arrays) in flat order."""
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rank = len(shape)
    arrays = [a.reshape((1,) * (rank - a.ndim) + a.shape) for a in arrays]
    for block in _blocks(shape):
        yield expr(*(_part(a, block) for a in arrays))


def _elementwise(expr, *arrays):
    """expr(*arrays) for an element-by-element expr of arrays that
    broadcast together, evaluated one block at a time when the broadcast
    shape holds more than _BLOCK elements.  Every output element is
    computed by the same operations on the same inputs as in one call.
    Beyond its output, a call holds what expr makes of one block, so an
    expr that casts its arguments holds O(_BLOCK) elements per input.

    The product of the input sizes bounds the broadcast size, so a small
    call makes no numpy call before expr.
    """
    size = 1
    for a in arrays:
        size *= a.size
    if size <= _BLOCK:
        return expr(*arrays)
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if math.prod(shape) <= _BLOCK:
        return expr(*arrays)
    out, blocks = np.empty(shape), _blocks(shape)
    for value in _block_values(expr, *arrays):
        out[next(blocks)] = value
        del value  # so that one block's values are alive at a time
    return out


def _kernel(expr, *inputs):
    """An array kernel: expr over the inputs as float arrays, through
    _elementwise; a float when every input is 0-d.

    An ndarray of bool, integer or floating dtype is cast to float one
    block at a time, in the one-call path too, so a kernel holds its output
    plus O(_BLOCK) elements per input whatever the input's real dtype.  Any
    other input (a list, or an object, complex or str array) is cast whole
    up front.  Either way expr sees the same float64 values.
    """
    # np.asarray(x) drops an ndarray subclass (a matrix, a masked array) as
    # the whole cast did, without copying the data
    arrays = [np.asarray(x) if isinstance(x, np.ndarray) and x.dtype.kind in "biuf"
              else np.asarray(x, dtype=float) for x in inputs]
    out = _elementwise(
        lambda *parts: expr(*(np.asarray(a, dtype=float) for a in parts)), *arrays)
    return float(out) if all(_is_0d(x) for x in inputs) else out


def _check_distinct_horizons(ns) -> None:
    """Raise unless a log-log fit's horizon grid holds at least two distinct
    horizons and repeats none, which the fit would weigh twice."""
    ns = list(ns)
    if len(set(ns)) < 2:
        raise ValueError("a log-log fit needs at least two distinct horizons")
    if len(set(ns)) != len(ns):
        dup = next(n for i, n in enumerate(ns) if n in ns[:i])
        raise ValueError(f"degenerate grid: horizon {dup} appears more than once")


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs).  xs are taken as
    floats before the log, since Python ints from 2^63 on would make an
    object array; every y must be finite and positive."""
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys) & (ys > 0)):
        raise ValueError(f"cannot fit a log-log slope to values that are not "
                         f"all finite and positive: {ys.tolist()}")
    xs = np.asarray(xs, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _log_loss(p, y):
    with np.errstate(divide="ignore"):
        return np.where(y == 1, -np.log(p), -np.log1p(-p))


def log_loss(p, y):
    """-y log p - (1-y) log(1-p), with +inf when the realized branch has
    probability zero.

    For a 0-d p and y only the realized branch is evaluated, by numpy's
    scalar log or log1p, which give the same bits as the array path.
    """
    if _is_0d(p) and _is_0d(y):
        p = float(p)
        if y == 1:
            return math.inf if p == 0 else float(-np.log(p))
        return math.inf if p == 1 else float(-np.log1p(-p))
    return _kernel(_log_loss, p, y)


def _eta(p, y):
    with np.errstate(divide="ignore"):
        return np.where(y == 1, -1.0 / p, 1.0 / (1.0 - p))


def eta(p, y):
    """First derivative of the log loss in the prediction: -y/p + (1-y)/(1-p)."""
    return _kernel(_eta, p, y)


def _phi(z):
    return z - np.abs(z) + np.log1p(np.abs(z))


def phi(z):
    """z - |z| + log(1 + |z|); the self-concordance surrogate for regret."""
    return _kernel(_phi, z)


def _omega(z):
    if np.any(z < 0):
        raise ValueError("omega requires nonnegative input")
    return z - np.log1p(z)


def omega(z):
    """z - log(1 + z) for z >= 0."""
    return _kernel(_omega, z)


def _kl_bernoulli(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        t2 = np.where(
            p < 1, (1 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0
        )
        # absolute continuity failures: p>0, q=0 or p<1, q=1
        t1 = np.where((p > 0) & (q == 0), np.inf, t1)
        t2 = np.where((p < 1) & (q == 1), np.inf, t2)
    return t1 + t2


def kl_bernoulli(p, q):
    """KL divergence between Ber(p) and Ber(q), with the 0 log 0 = 0
    convention; +inf when q puts zero mass where p does not."""
    return _kernel(_kl_bernoulli, p, q)


def clip_prob(p, delta):
    """Clip p into [delta, 1 - delta]; costs at most 2*delta in loss.  delta
    may be an array that broadcasts with p, every element in (0, 1/2]."""
    d = np.asarray(delta, dtype=float)
    if not np.all((d > 0) & (d <= 0.5)):
        raise ValueError("delta must lie in (0, 1/2]")
    return _kernel(lambda p, d: np.clip(p, d, 1.0 - d), p, d)


def _psi(p, v, lam):
    tol = 1e-12
    if np.any((v < p - 1 - tol) | (v > p + tol)):
        raise ValueError("v must lie in [p - 1, p]")
    av = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a branch drops only where its weight is 0; a NaN p keeps both
        head = np.where(
            p <= 0,
            0.0,
            p * (1.0 + av / np.where(p > 0, p, 1.0)) ** lam
            * np.exp(-lam * (v + av) / np.where(p > 0, p, 1.0)),
        )
        tail = np.where(
            p >= 1,
            0.0,
            (1 - p) * (1.0 + av / np.where(p < 1, 1 - p, 1.0)) ** lam
            * np.exp(lam * (v - av) / np.where(p < 1, 1 - p, 1.0)),
        )
    return head + tail


def psi(p, lam, v):
    """E_{y~p} exp{lam * phi(eta(p, y) * v)} in closed form.

    For p in {0, 1} the zero-weight branch is dropped, giving the reduced
    one-term formulas (1 - v)^lam e^{2 lam v} and (1 + v)^lam e^{-2 lam v}.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")
    return _kernel(lambda p, v: _psi(p, v, lam), p, v)
