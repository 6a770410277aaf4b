"""Elementary quantities for sequential probability assignment under log loss.

Everything here is a pure function of its inputs.  Probabilities are plain
doubles; boundary cases (zero mass on the realized outcome) produce IEEE
infinities rather than raising, so downstream log-domain aggregation can
absorb them.
"""

from __future__ import annotations

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
# and its reciprocal, the largest exponential-moment parameter for which
# sup_{p,v} psi(p, lam, v) <= 1.
ESTIMATION_CONSTANT = (2.0 - math.log(2.0)) / (math.log(3.0) - math.log(2.0))
LAMBDA_STAR = 1.0 / ESTIMATION_CONSTANT


class BinaryTree:
    """Depth-n complete binary tree of values indexed by (round, prefix).

    The node for round ``t`` (1-based) and outcome-prefix integer ``q``
    (bits of outcomes 1..t-1, least significant first) lives at flat index
    ``2**(t-1) - 1 + q``; there are exactly ``2**depth - 1`` nodes, and the
    value seen on a path at round ``t`` depends only on the first ``t - 1``
    outcomes.
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

    @classmethod
    def constant(cls, depth: int, value) -> "BinaryTree":
        return cls(depth, fill=value)

    @classmethod
    def from_function(cls, depth: int, fn) -> "BinaryTree":
        """Build from fn(t, prefix_bits_tuple) -> value."""
        tree = cls(depth, fill=0.0)
        vals = []
        for t in range(1, depth + 1):
            for q in range(1 << (t - 1)):
                bits = tuple((q >> i) & 1 for i in range(t - 1))
                vals.append(fn(t, bits))
        tree.values = np.asarray(vals)
        return tree

    @staticmethod
    def node_index(t: int, prefix: int) -> int:
        return (1 << (t - 1)) - 1 + prefix

    def get(self, t: int, prefix: int):
        self._check(t, prefix)
        return self.values[self.node_index(t, prefix)]

    def set(self, t: int, prefix: int, value) -> None:
        self._check(t, prefix)
        self.values[self.node_index(t, prefix)] = value

    def _check(self, t: int, prefix: int) -> None:
        if not 1 <= t <= self.depth:
            raise IndexError("round out of range")
        if not 0 <= prefix < (1 << (t - 1)):
            raise IndexError("prefix out of range for round")

    def level(self, t: int) -> np.ndarray:
        """Writable view of round t's node values, in prefix order.

        Node q of round t has children q (outcome 0) and q + 2**(t-1)
        (outcome 1) at round t+1, so round t+1's level is the outcome-0
        children of round t followed by its outcome-1 children.
        """
        if not 1 <= t <= self.depth:
            raise IndexError("round out of range")
        return self.values[(1 << (t - 1)) - 1 : (1 << t) - 1]

    def copy(self) -> "BinaryTree":
        return BinaryTree(self.depth, values=self.values)


def path_node_indices(depth: int) -> np.ndarray:
    """(2**depth, depth) array: flat node index of round t on each path.

    Row y (the path bitmask), column t-1.
    """
    paths = np.arange(1 << depth)[:, None]
    t = np.arange(1, depth + 1)[None, :]
    prefix_mask = (1 << (t - 1)) - 1
    return (1 << (t - 1)) - 1 + (paths & prefix_mask)


@dataclass
class ExpertClass:
    """A finite family of experts, each a table context-id -> probability.

    ``experts`` is read-only; ``log_lik[y]`` = log P(y | expert, context)."""

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
        if np.any((self.experts < 0) | (self.experts > 1)):
            raise ValueError("expert values must lie in [0, 1]")
        self._index = {c: i for i, c in enumerate(self.contexts)}
        if len(self._index) != len(self.contexts):
            raise ValueError("duplicate context ids")
        self.experts.flags.writeable = False
        with np.errstate(divide="ignore"):
            self.log_lik = np.stack(
                [np.log1p(-self.experts), np.log(self.experts)]
            )
        self.log_lik.flags.writeable = False

    @property
    def n_experts(self) -> int:
        return self.experts.shape[0]

    @property
    def has_duplicate_experts(self) -> bool:
        seen = set()
        for row in self.experts:
            key = tuple(row)
            if key in seen:
                return True
            seen.add(key)
        return False

    def context_index(self, context) -> int:
        try:
            return self._index[context]
        except KeyError:
            raise KeyError(f"unknown context id: {context!r}") from None

    def value(self, expert: int, context) -> float:
        return float(self.experts[expert, self.context_index(context)])

    def column(self, context) -> np.ndarray:
        """All expert values at one context."""
        return self.experts[:, self.context_index(context)]

    def history_log_lik(self, history, start=0.0) -> np.ndarray:
        """start plus each expert's log likelihood of a sequence of
        (context, outcome) pairs, summed round by round."""
        total = np.zeros(self.n_experts) + start
        for x, y in history:
            total += self.log_lik[y, :, self.context_index(x)]
        return total

    @classmethod
    def constants(cls, probs) -> "ExpertClass":
        """Context-free experts: a single context, one constant per expert."""
        probs = np.asarray(probs, dtype=float)
        return cls(contexts=[0], experts=probs[:, None])


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _maybe_scalar(out, *inputs):
    if all(np.isscalar(i) or np.ndim(i) == 0 for i in inputs):
        return float(out)
    return out


def log_loss(p, y):
    """-y log p - (1-y) log(1-p), with +inf when the realized branch has
    probability zero."""
    p = _as_float_array(p)
    yv = _as_float_array(y)
    with np.errstate(divide="ignore"):
        out = np.where(yv == 1, -np.log(p), -np.log1p(-p))
    return _maybe_scalar(out, p, y)


def eta(p, y):
    """First derivative of the log loss in the prediction: -y/p + (1-y)/(1-p)."""
    p = _as_float_array(p)
    yv = _as_float_array(y)
    with np.errstate(divide="ignore"):
        out = np.where(yv == 1, -1.0 / p, 1.0 / (1.0 - p))
    return _maybe_scalar(out, p, y)


def phi(z):
    """z - |z| + log(1 + |z|); the self-concordance surrogate for regret."""
    z = _as_float_array(z)
    out = z - np.abs(z) + np.log1p(np.abs(z))
    return _maybe_scalar(out, z)


def omega(z):
    """z - log(1 + z) for z >= 0."""
    z = _as_float_array(z)
    if np.any(z < 0):
        raise ValueError("omega requires nonnegative input")
    out = z - np.log1p(z)
    return _maybe_scalar(out, z)


def kl_bernoulli(p, q):
    """KL divergence between Ber(p) and Ber(q), with the 0 log 0 = 0
    convention; +inf when q puts zero mass where p does not."""
    p = _as_float_array(p)
    q = _as_float_array(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        t2 = np.where(
            p < 1, (1 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0
        )
        # absolute continuity failures: p>0, q=0 or p<1, q=1
        t1 = np.where((p > 0) & (q == 0), np.inf, t1)
        t2 = np.where((p < 1) & (q == 1), np.inf, t2)
    out = t1 + t2
    return _maybe_scalar(out, p, q)


def clip_prob(p, delta):
    """Clip p into [delta, 1 - delta]; costs at most 2*delta in loss."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    p = _as_float_array(p)
    out = np.clip(p, delta, 1.0 - delta)
    return _maybe_scalar(out, p)


def psi(p, lam, v):
    """E_{y~p} exp{lam * phi(eta(p, y) * v)} in closed form.

    For p in {0, 1} the zero-weight branch is dropped, giving the reduced
    one-term formulas (1 - v)^lam e^{2 lam v} and (1 + v)^lam e^{-2 lam v}.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    p = _as_float_array(p)
    v = _as_float_array(v)
    tol = 1e-12
    if np.any((v < p - 1 - tol) | (v > p + tol)):
        raise ValueError("v must lie in [p - 1, p]")
    av = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        head = np.where(
            p > 0,
            p * (1.0 + av / np.where(p > 0, p, 1.0)) ** lam
            * np.exp(-lam * (v + av) / np.where(p > 0, p, 1.0)),
            0.0,
        )
        tail = np.where(
            p < 1,
            (1 - p) * (1.0 + av / np.where(p < 1, 1 - p, 1.0)) ** lam
            * np.exp(lam * (v - av) / np.where(p < 1, 1 - p, 1.0)),
            0.0,
        )
    out = head + tail
    return _maybe_scalar(out, p, v)
