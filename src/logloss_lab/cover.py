"""Sequential covering numbers and entropy curves.

A sequential cover demand is a (path, expert) pair, served when a cover
element's node values along the path stay within gamma of the expert's;
only the 2^(depth-1) distinct node paths carry demands.  A group of
demands fits one element exactly when it is pairwise within 2*gamma at
every node its paths share, so a minimal cover is a minimal colouring of
the demands' conflict graph: by branch and bound over one table of
per-node expert conflict bitmasks OR-ed down the tree (exact, and once per
distinct path graph for the lower bound), or by first fit against each
group's node ranges, linear in the demands (greedy).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import BinaryTree, ExpertClass, path_node_indices

__all__ = [
    "RestrictedClass",
    "SequentialCover",
    "EntropyCurve",
    "restrict",
    "cover_verify",
    "sequential_cover_exact",
    "sequential_cover_greedy",
    "empirical_entropy_lower",
    "entropy_curve_estimate",
    "LipschitzGridFamily",
]

_TOL = 1e-12


@dataclass
class RestrictedClass:
    """An expert class composed with a context tree: `values[g]` holds
    expert g's value at every node, in flat node order."""

    context_tree: BinaryTree
    values: np.ndarray  # (n_experts, n_nodes), read-only

    @property
    def depth(self) -> int:
        return self.context_tree.depth

    @property
    def n_experts(self) -> int:
        return len(self.values)

    @property
    def n_demands(self) -> int:
        """Distinct (path, expert) demands: 2^(depth-1) paths per expert."""
        return (1 << (self.depth - 1)) * self.n_experts


@dataclass
class SequentialCover:
    elements: list  # list of BinaryTree
    scale: float


def restrict(expert_class: ExpertClass, x: BinaryTree) -> RestrictedClass:
    vals = expert_class.experts[:, expert_class.columns(x.values)]  # per node
    vals.flags.writeable = False
    return RestrictedClass(context_tree=x, values=vals)


@functools.lru_cache(maxsize=32)
def _distinct_paths(depth: int) -> np.ndarray:
    """(2^(depth-1), depth) read-only node indices of the distinct paths:
    rows y and y + 2^(depth-1) of path_node_indices reach the same nodes."""
    idx = path_node_indices(depth)[: 1 << (depth - 1)]
    idx.flags.writeable = False
    return idx


def _check_gamma(gamma) -> None:
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")


def cover_verify(rc: RestrictedClass, V: SequentialCover) -> bool:
    """Exhaustive check of the cover condition, a block of paths at a time;
    ValueError for a scale that is not finite and >= 0 or a NaN element
    value, whose distance would never compare above the scale."""
    _check_gamma(V.scale)
    if any(v.depth != rc.depth for v in V.elements):
        raise ValueError("cover elements must match the class depth")
    if not V.elements:
        return False
    idx = _distinct_paths(rc.depth)
    g = rc.values
    v = np.array([e.values for e in V.elements], dtype=float)
    if np.isnan(v).any():
        raise ValueError("cover element values must not be NaN")
    step = max(1, core._BLOCK // (len(g) * len(v) * rc.depth))
    for start in range(0, len(idx), step):
        rows = idx[start:start + step]
        dist = np.abs(g[:, None, rows] - v[None, :, rows]).max(axis=3)
        if (dist.min(axis=1) > V.scale + _TOL).any():  # (experts, paths)
            return False
    return True


def _node_masks(values: np.ndarray, gamma: float) -> np.ndarray:
    """(n_nodes, n_experts) int64, |F| <= 63: bit h of [t, g] is set when
    experts g and h differ by more than 2 gamma at node t or above it.  A
    node's own bits come O(_BLOCK) elements at a time; then node q of round
    r ORs its row into its children q and q + 2^(r-1)."""
    cols, bits = values.T, 1 << np.arange(len(values))
    step = max(1, core._BLOCK // bits.size**2)
    masks = np.empty(cols.shape, dtype=np.int64)
    for start in range(0, len(cols), step):
        c = cols[start:start + step]
        apart = np.abs(c[:, :, None] - c[:, None, :]) > 2 * gamma + _TOL
        np.matmul(apart, bits, out=masks[start:start + step])
    for t in range(2, len(cols).bit_length() + 1):  # 2^depth - 1 nodes
        level = masks[BinaryTree.level_slice(t)].reshape(2, 1 << (t - 2), -1)
        level |= masks[BinaryTree.level_slice(t - 1)]
    return masks


def _demand_conflicts(gvals: np.ndarray, depth: int, gamma: float) -> list:
    """Conflict bitmasks of at most 63 demands: demand y * n_experts + g
    conflicts with those it differs from by more than 2 gamma at a node
    both paths reach, so it reads the node masks at their last shared node."""
    idx = _distinct_paths(depth)
    shared = np.where(idx[:, None] == idx, idx[:, None], 0).max(axis=2)  # [y1, y2]
    weights = 1 << len(gvals) * np.arange(len(idx))  # path y2's first bit
    return (weights @ _node_masks(gvals, gamma)[shared]).ravel().tolist()


def _clique_size(masks: list) -> int:
    """Size of a clique of the conflict graph taken greedily in descending
    degree (ties by index): no colouring uses fewer groups."""
    degree = [m.bit_count() for m in masks]
    clique = 0
    for i in sorted(range(len(masks)), key=degree.__getitem__, reverse=True):
        if masks[i] & clique == clique:
            clique |= 1 << i
    return clique.bit_count()


def _fewest_groups(masks: list):
    """(labels, size) of a minimal colouring of the conflict graph, by
    branch and bound over group bitmasks.  Its first leaf is the first-fit
    colouring, which seeds the bound; the search stops once a colouring
    is as small as a clique.  First fit opens a second group only on a
    conflict, so a clique is taken only when it opens more than two."""
    best, limit, floor = None, len(masks) + 1, None

    def place(i, unions, labels):
        nonlocal best, limit, floor
        if len(unions) >= limit:
            return
        if i == len(masks):
            if floor is None:
                floor = len(unions) if len(unions) <= 2 else _clique_size(masks)
            best = labels, len(unions)
            limit = 0 if len(unions) == floor else len(unions)  # 0 ends the search
            return
        for j, union in enumerate(unions):
            if not union >> i & 1:
                joined = unions[:j] + (union | masks[i],) + unions[j + 1:]
                place(i + 1, joined, labels + [j])
        if len(unions) + 1 < limit:
            place(i + 1, unions + (masks[i],), labels + [len(unions)])

    place(0, (), [])
    return best


def _first_fit(gvals: np.ndarray, depth: int, gamma: float):
    """(lo, hi) node ranges, one row per group, of the first fit of the
    demands in order: each joins the first group whose ranges on its path
    stay within 2 gamma, else opens one.  Linear in the demands."""
    limit = 2 * gamma + _TOL
    cols = gvals.T.tolist()  # node -> expert values
    los, his = [], []
    for nodes in map(np.ndarray.tolist, _distinct_paths(depth)):
        for g in range(len(gvals)):
            demand = [(t, cols[t][g]) for t in nodes]
            for lo, hi in zip(los, his):
                for t, v in demand:
                    if v - lo[t] > limit or hi[t] - v > limit:
                        break
                else:
                    break  # every node stays within 2 gamma: join this group
            else:
                lo, hi = [math.inf] * len(cols), [-math.inf] * len(cols)
                los.append(lo)
                his.append(hi)
            for t, v in demand:
                if v < lo[t]:
                    lo[t] = v
                if v > hi[t]:
                    hi[t] = v
    return los, his


def _midpoint_cover(depth: int, gamma: float, lo, hi) -> SequentialCover:
    """One element per group: its node ranges' midpoints, 0.5 if untouched."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    touched = np.isfinite(lo)
    mid = np.full(lo.shape, 0.5)
    mid[touched] = (lo[touched] + hi[touched]) / 2.0
    return SequentialCover([BinaryTree(depth, values=m) for m in mid], gamma)


def sequential_cover_greedy(rc: RestrictedClass, gamma: float) -> SequentialCover:
    """First-fit grouping of (path, expert) demands; always a valid cover."""
    _check_gamma(gamma)
    lo, hi = _first_fit(rc.values, rc.depth, gamma)
    return _midpoint_cover(rc.depth, gamma, lo, hi)


def sequential_cover_exact(rc: RestrictedClass, gamma: float):
    """(size, SequentialCover) of a minimal cover: the chromatic number of
    the demand conflict graph, by branch and bound.  Feasible only at small
    depth and class size."""
    _check_gamma(gamma)
    if rc.depth > 3 or rc.n_experts > 8:
        raise ValueError("exact cover search limited to depth <= 3, |F| <= 8")
    gvals = rc.values
    labels, size = _fewest_groups(_demand_conflicts(gvals, rc.depth, gamma))
    idx = _distinct_paths(rc.depth)
    at = np.array(labels).reshape(len(idx), -1, 1), idx[:, None]  # [y, g, t]
    vals = gvals[:, idx].transpose(1, 0, 2)  # as the demands
    lo = np.full((size, gvals.shape[1]), np.inf)
    hi = -lo
    np.minimum.at(lo, at, vals)
    np.maximum.at(hi, at, vals)
    return size, _midpoint_cover(rc.depth, gamma, lo, hi)


def _greedy_packing_size(points: np.ndarray, gamma: float) -> int:
    """Size of a first-fit packing: points pairwise more than 2 gamma apart
    in L-inf.  No two of them fit in one radius-gamma ball, so this
    lower-bounds the minimal cover."""
    separation = 2 * gamma + _TOL
    packing = np.empty_like(points, dtype=float)
    size = 0
    for pt in points:
        if np.all(np.max(np.abs(pt - packing[:size]), axis=1) > separation):
            packing[size] = pt
            size += 1
    return size


def empirical_entropy_lower(rc: RestrictedClass, gamma: float) -> float:
    """Max over paths of the log minimal L-inf cover of the expert value
    vectors on that path, the chromatic number of its expert conflict graph
    (a packing lower bound past 12 experts); lower-bounds the entropy."""
    _check_gamma(gamma)
    gvals = rc.values
    if rc.n_experts <= 12:
        leaves = _node_masks(gvals, gamma)[BinaryTree.level_slice(rc.depth)]
        best = max(_fewest_groups(graph)[1] for graph in set(map(tuple, leaves.tolist())))
    else:
        paths = _distinct_paths(rc.depth)
        best = max(_greedy_packing_size(gvals[:, idx], gamma) for idx in paths)
    return math.log(best)


# ---------------------------------------------------------------------------
# Entropy curves.
# ---------------------------------------------------------------------------


_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


def _zero_edge(x: float) -> float:
    return 0.0


def _log_edge(x: float) -> float:
    """Antiderivative of max(0, log(1/x))."""
    if x >= 1.0:
        return 1.0
    return x * (1.0 - math.log(x))


def _log_sqrt_edge(x: float) -> float:
    """Antiderivative of sqrt(max(0, log(1/x)))."""
    if x >= 1.0:
        return _HALF_SQRT_PI
    r = math.sqrt(-math.log(x))
    return x * r + _HALF_SQRT_PI * math.erfc(r)


def _piecewise_linear_edge(xs, hs, sqrt: bool):
    """Antiderivative, from xs[0], of the np.interp interpolant of (xs, hs),
    or of its square root: linear between the knots, flat beyond them.

    On a linear piece from height h0 to h1 over width w the integral is
    w (h0 + h1) / 2, and that of the square root is
    (2/3) w (h0 + r0 r1 + h1) / (r0 + r1) with r = sqrt(h).
    """
    xs = [float(x) for x in xs]
    hs = [float(h) for h in hs]

    def piece(x0, h0, x1, h1):
        if not sqrt:
            return 0.5 * (x1 - x0) * (h0 + h1)
        r0, r1 = math.sqrt(h0), math.sqrt(h1)
        if r0 + r1 == 0.0:
            return 0.0
        return (2.0 / 3.0) * (x1 - x0) * (h0 + r0 * r1 + h1) / (r0 + r1)

    prefix = [0.0]
    for i in range(len(xs) - 1):
        prefix.append(prefix[-1] + piece(xs[i], hs[i], xs[i + 1], hs[i + 1]))
    first = math.sqrt(hs[0]) if sqrt else hs[0]
    last = math.sqrt(hs[-1]) if sqrt else hs[-1]

    def edge(x):
        if x <= xs[0]:
            return first * (x - xs[0])
        if x >= xs[-1]:
            return prefix[-1] + last * (x - xs[-1])
        i = bisect.bisect_right(xs, x) - 1
        x0, h0, x1, h1 = xs[i], hs[i], xs[i + 1], hs[i + 1]
        return prefix[i] + piece(x0, h0, x, h0 + (h1 - h0) * (x - x0) / (x1 - x0))

    return edge


@dataclass
class EntropyCurve:
    """Scale -> entropy, parametric or tabulated.

    kinds: "power" (C * gamma^-p), "log" (d * log(1/gamma)), "tabulated"
    (the `uppers` column, linear in gamma between sample points and flat
    beyond them, as np.interp gives).
    """

    kind: str
    C: float = 1.0
    p: float = 1.0
    d: float = 1.0
    gammas: np.ndarray | None = None
    lowers: np.ndarray | None = None
    uppers: np.ndarray | None = None

    def __post_init__(self):
        """ValueError unless power has finite C >= 0 and p > 0, log finite d >= 0,
        and tabulated three 1-D, equal-length, non-empty, finite columns with
        positive, distinct gammas; a table's rows are sorted by gamma."""
        kind, C, p, d = self.kind, self.C, self.p, self.d
        if kind not in ("power", "log", "tabulated"):
            raise ValueError(f"unknown entropy curve kind: {kind!r}")
        if kind == "power" and not (0 <= C < math.inf and 0 < p < math.inf):
            raise ValueError(
                f"power curve needs finite C >= 0, p > 0, got C={C!r}, p={p!r}")
        if kind == "log" and not 0 <= d < math.inf:
            raise ValueError(f"log curve needs finite d >= 0, got d={d!r}")
        if kind != "tabulated":
            return
        cols = [np.asarray(c, dtype=float)
                for c in (self.gammas, self.lowers, self.uppers)]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ValueError("tabulated curve needs three 1-D columns of one "
                             f"length, got {[c.shape for c in cols]}")
        if not cols[0].size:
            raise ValueError("tabulated curve has no points")
        if not all(np.isfinite(c).all() for c in cols):
            raise ValueError("tabulated curve entries must be finite")
        order = np.argsort(cols[0])
        self.gammas, self.lowers, self.uppers = (c[order] for c in cols)
        if self.gammas[0] <= 0 or np.any(self.gammas[1:] == self.gammas[:-1]):
            raise ValueError("tabulated gammas must be positive and distinct, "
                             f"got {self.gammas.tolist()}")

    @classmethod
    def power(cls, C: float, p: float) -> "EntropyCurve":
        return cls(kind="power", C=C, p=p)

    @classmethod
    def log_form(cls, d: float) -> "EntropyCurve":
        return cls(kind="log", d=d)

    @classmethod
    def tabulated(cls, gammas, lowers, uppers) -> "EntropyCurve":
        """The curve of three table columns, rows in any order."""
        return cls(kind="tabulated", gammas=gammas, lowers=lowers, uppers=uppers)

    def value(self, gamma: float) -> float:
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        return self.unchecked_value(gamma)

    @functools.cached_property
    def unchecked_value(self):
        """H as a plain function of gamma > 0: value() without its argument
        check, built once per curve."""
        if self.kind == "power":
            C, minus_p = self.C, -self.p
            return lambda gamma: C * gamma**minus_p
        if self.kind == "log":
            d = self.d
            return lambda gamma: d * max(0.0, math.log(1.0 / gamma))
        gammas, uppers = self.gammas, self.uppers
        return lambda gamma: float(np.interp(gamma, gammas, uppers))

    def integral(self, alpha: float, gamma: float) -> float:
        """Integral of H over [alpha, gamma]."""
        return self._integrate(alpha, gamma, sqrt=False)

    def integral_sqrt(self, alpha: float, gamma: float) -> float:
        """Integral of sqrt(H) over [alpha, gamma]."""
        return self._integrate(alpha, gamma, sqrt=True)

    def _integrate(self, a: float, b: float, sqrt: bool) -> float:
        if not 0 < a <= b:
            raise ValueError("need 0 < alpha <= gamma")
        edge, coef, div = self.antiderivative(sqrt)
        return coef * (edge(b) - edge(a)) / div

    def antiderivative(self, sqrt: bool = False):
        """(edge, coef, div): the integral of H (of sqrt(H) when sqrt is
        true) over [a, b] is coef * (edge(b) - edge(a)) / div, in closed
        form.

        A caller that holds one endpoint fixed computes its edge once.  The
        scale is a product and a quotient, not one factor, so that a power
        curve rounds exactly as C * (b^e - a^e) / e; dividing by 1.0 is
        exact.
        - power: edge(x) = x^e with e = 1 - p (p/2 under sqrt), coef C and
          div e; log(x), C and 1 when e = 0;
        - log: x(1 + log(1/x)) with coef d; under sqrt
          x sqrt(u) + (sqrt(pi)/2) erfc(sqrt(u)) with u = log(1/x) and coef
          sqrt(d); both constant from x = 1 on, where H vanishes;
        - tabulated: prefix sums of the exact per-piece integrals of the
          np.interp interpolant (or of its square root) plus the partial
          piece, found by bisection; coef 1.
        """
        if self.kind == "power":
            C, p = self.C, self.p
            if C == 0:
                return _zero_edge, 1.0, 1.0
            if sqrt:
                C, p = math.sqrt(C), p / 2.0
            if abs(p - 1.0) < 1e-12:
                return math.log, C, 1.0
            e = 1.0 - p
            return (lambda x: x**e), C, e
        if self.kind == "log":
            if sqrt:
                return _log_sqrt_edge, math.sqrt(self.d), 1.0
            return _log_edge, self.d, 1.0
        return self._table_edges[sqrt], 1.0, 1.0

    @functools.cached_property
    def _table_edges(self):
        """The tabulated curve's (edge of H, edge of sqrt H), built once."""
        return tuple(
            _piecewise_linear_edge(self.gammas, self.uppers, sqrt)
            for sqrt in (False, True)
        )


@dataclass
class LipschitzGridFamily:
    """1-Lipschitz functions on [0,1] on a grid of spacing 4*gamma, valued
    on a lattice of step 2*gamma: walks that move at most two lattice steps
    between grid points (gamma < 1)."""


CELL_GUARD = 10**6  # bounds one curve scale's grid points x lattice levels


def _walks(levels: int, points: int, jump: int) -> int:
    """Number of integer walks of `points` values in [0, levels) whose steps
    move at most `jump`: a banded transfer matrix applied by prefix sums,
    in Python ints, so large counts stay exact."""
    ways = [1] * levels  # walks so far that end at each value
    for _ in range(points - 1):
        prefix = list(itertools.accumulate(ways, initial=0))
        ways = [prefix[min(v + jump + 1, levels)] - prefix[max(v - jump, 0)]
                for v in range(levels)]
    return sum(ways)


def entropy_curve_estimate(
    class_family: LipschitzGridFamily, gammas, n: int
) -> EntropyCurve:
    """Tabulated entropy curve for the Lipschitz grid family; n is unused.

    At each scale the upper bound is the log of the number of functions:
    distinct lattice walks, each its own radius-gamma cover cell.  The
    lower bound is the log of the number of walks on the even sublattice,
    a packing: two differ by 4 gamma > 2 gamma at some grid point.  Both
    are exact counts.  A gamma that is not finite and positive, repeated,
    or past CELL_GUARD (gamma below about 2^-11.5), raises ValueError.

    curve.slope is the fitted log-log slope against 1/gamma; curve.counts
    lists {"gamma", "functions", "packing"} per scale.
    """
    gammas = sorted(float(g) for g in gammas)
    if len(set(gammas)) < len(gammas):
        raise ValueError(f"each gamma must appear once, got {gammas}")
    lowers, uppers, counts = [], [], []
    for g in gammas:
        if not (math.isfinite(g) and g > 0):
            raise ValueError(f"gamma must be finite and positive, got {g!r}")
        if g >= 1.0:
            functions = packing = 1
        else:
            spacing, step = 4.0 * g, 2.0 * g
            # clamped so that floor() stays finite; the guard then fires
            n_points = math.floor(min(1.0 / spacing, CELL_GUARD)) + 1
            levels = math.floor(min(1.0 / step, CELL_GUARD)) + 1
            if levels < 2:
                raise ValueError("resolution too coarse for this gamma")
            if n_points * levels > CELL_GUARD:
                raise ValueError(f"gamma {g!r} is past CELL_GUARD = {CELL_GUARD}")
            # slope 1: spacing / step is exactly 2 lattice steps per grid
            # step (both scale g by a power of two), 1 on the even sublattice
            functions = _walks(levels, n_points, 2)
            packing = _walks((levels + 1) // 2, n_points, 1)
        lowers.append(math.log(packing))
        uppers.append(math.log(functions))
        counts.append({"gamma": g, "functions": functions, "packing": packing})
    curve = EntropyCurve.tabulated(gammas, lowers, uppers)
    mids = 0.5 * (curve.lowers + curve.uppers)
    ok = mids > 0
    curve.slope = float("nan")
    if ok.sum() >= 2:
        curve.slope = core._loglog_slope(1.0 / curve.gammas[ok], mids[ok])
    curve.counts = counts
    return curve
