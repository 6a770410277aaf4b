"""Sequential covering numbers and entropy curves.

A sequential cover demand is a (path, expert) pair; a covering tree
serves the pair when its node values along that path stay within gamma of
the expert's.  Because an expert's value at a node depends only on the
node's prefix, per-node feasibility of a group of demands reduces to an
interval-stabbing condition: the spread of the grouped expert values at
every touched node must not exceed 2*gamma.  Minimizing the number of
groups is therefore an exact search for the minimal cover.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    """An expert class composed with a context tree: one value tree per
    expert."""

    context_tree: BinaryTree
    value_trees: list  # list of BinaryTree, one per expert

    @property
    def depth(self) -> int:
        return self.context_tree.depth

    @property
    def n_experts(self) -> int:
        return len(self.value_trees)

    def value_matrix(self) -> np.ndarray:
        """(n_experts, n_nodes) node values."""
        return np.stack([t.values.astype(float) for t in self.value_trees])


@dataclass
class SequentialCover:
    elements: list  # list of BinaryTree
    scale: float


def restrict(expert_class: ExpertClass, x: BinaryTree) -> RestrictedClass:
    trees = []
    for i in range(expert_class.n_experts):
        vals = np.array(
            [expert_class.value(i, c) for c in x.values], dtype=float
        )
        trees.append(BinaryTree(x.depth, values=vals))
    return RestrictedClass(context_tree=x, value_trees=trees)


def cover_verify(rc: RestrictedClass, V: SequentialCover) -> bool:
    """Exhaustive check of the cover condition over all paths and experts."""
    if any(v.depth != rc.depth for v in V.elements):
        raise ValueError("cover elements must match the class depth")
    if not V.elements:
        return False
    gvals = rc.value_matrix()
    vvals = np.stack([v.values.astype(float) for v in V.elements])
    gamma = V.scale + _TOL
    for idx in path_node_indices(rc.depth):
        g_on_path = gvals[:, idx]  # (experts, depth)
        v_on_path = vvals[:, idx]  # (elements, depth)
        dist = np.abs(g_on_path[:, None, :] - v_on_path[None, :, :]).max(axis=2)
        if np.any(dist.min(axis=1) > gamma):
            return False
    return True


class _GroupState:
    """Per-node value ranges of the demands assigned to one cover element."""

    def __init__(self, n_nodes):
        self.lo = np.full(n_nodes, np.inf)
        self.hi = np.full(n_nodes, -np.inf)

    def can_add(self, idx, vals, two_gamma):
        lo = np.minimum(self.lo[idx], vals)
        hi = np.maximum(self.hi[idx], vals)
        return bool(np.all(hi - lo <= two_gamma + _TOL))

    def add(self, idx, vals):
        old = (self.lo[idx].copy(), self.hi[idx].copy())
        self.lo[idx] = np.minimum(self.lo[idx], vals)
        self.hi[idx] = np.maximum(self.hi[idx], vals)
        return old

    def undo(self, idx, old):
        self.lo[idx], self.hi[idx] = old


def _demands(rc: RestrictedClass):
    gvals = rc.value_matrix()
    out = []
    for idx in path_node_indices(rc.depth):
        for g in range(rc.n_experts):
            out.append((idx, gvals[g, idx]))
    return out


def _groups_to_cover(rc: RestrictedClass, groups, gamma) -> SequentialCover:
    elements = []
    for grp in groups:
        touched = np.isfinite(grp.lo)
        mid = np.full(grp.lo.shape, 0.5)
        mid[touched] = (grp.lo[touched] + grp.hi[touched]) / 2.0
        elements.append(BinaryTree(rc.depth, values=mid))
    return SequentialCover(elements=elements, scale=gamma)


def sequential_cover_greedy(rc: RestrictedClass, gamma: float) -> SequentialCover:
    """First-fit grouping of (path, expert) demands; always a valid cover."""
    n_nodes = (1 << rc.depth) - 1
    groups = []
    for idx, vals in _demands(rc):
        for grp in groups:
            if grp.can_add(idx, vals, 2 * gamma):
                grp.add(idx, vals)
                break
        else:
            grp = _GroupState(n_nodes)
            grp.add(idx, vals)
            groups.append(grp)
    return _groups_to_cover(rc, groups, gamma)


def sequential_cover_exact(rc: RestrictedClass, gamma: float):
    """Minimal cover size by branch-and-bound over demand groupings.

    Returns (size, SequentialCover).  Feasible only at small depth and
    class size; the greedy size seeds the upper bound.
    """
    if rc.depth > 3 or rc.n_experts > 8:
        raise ValueError("exact cover search limited to depth <= 3, |F| <= 8")
    demands = _demands(rc)
    n_nodes = (1 << rc.depth) - 1
    greedy = sequential_cover_greedy(rc, gamma)
    best = {"size": len(greedy.elements), "groups": None}

    def recurse(i, groups):
        if len(groups) >= best["size"]:
            return
        if i == len(demands):
            best["size"] = len(groups)
            best["groups"] = [(g.lo.copy(), g.hi.copy()) for g in groups]
            return
        idx, vals = demands[i]
        for grp in groups:
            if grp.can_add(idx, vals, 2 * gamma):
                old = grp.add(idx, vals)
                recurse(i + 1, groups)
                grp.undo(idx, old)
        if len(groups) + 1 < best["size"]:
            grp = _GroupState(n_nodes)
            grp.add(idx, vals)
            groups.append(grp)
            recurse(i + 1, groups)
            groups.pop()

    recurse(0, [])
    if best["groups"] is None:
        return len(greedy.elements), greedy
    groups = []
    for lo, hi in best["groups"]:
        g = _GroupState(n_nodes)
        g.lo, g.hi = lo, hi
        groups.append(g)
    return best["size"], _groups_to_cover(rc, groups, gamma)


def _linf_cover_size_lower(points: np.ndarray, gamma: float) -> int:
    """Lower bound on the number of L-inf balls of radius gamma covering a
    finite point set: the exact minimum by subset DP for <= 12 points, a
    greedy packing at separation > 2 gamma beyond."""
    m = points.shape[0]
    if m == 0:
        return 0
    two_gamma = 2 * gamma + _TOL
    if m <= 12:
        full = 1 << m
        lo = np.full((full, points.shape[1]), np.inf)
        hi = np.full((full, points.shape[1]), -np.inf)
        feasible = np.zeros(full, dtype=bool)
        feasible[0] = True
        for mask in range(1, full):
            low = mask & -mask
            rest = mask ^ low
            j = low.bit_length() - 1
            lo[mask] = np.minimum(lo[rest], points[j])
            hi[mask] = np.maximum(hi[rest], points[j])
            feasible[mask] = bool(np.all(hi[mask] - lo[mask] <= two_gamma))
        INF = m + 1
        dp = np.full(full, INF, dtype=int)
        dp[0] = 0
        for mask in range(1, full):
            low = mask & -mask
            sub = mask
            while sub:
                if (sub & low) and feasible[sub]:
                    cand = dp[mask ^ sub] + 1
                    if cand < dp[mask]:
                        dp[mask] = cand
                sub = (sub - 1) & mask
        return int(dp[full - 1])
    return _greedy_packing_size(points, gamma)


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
    vectors on that path (a packing lower bound past 12 experts);
    lower-bounds the sequential entropy."""
    gvals = rc.value_matrix()
    best = 0
    for idx in path_node_indices(rc.depth):
        size = _linf_cover_size_lower(gvals[:, idx], gamma)
        best = max(best, size)
    return math.log(best) if best > 0 else 0.0


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
    if not xs:
        raise ValueError("tabulated curve has no points")

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

    @classmethod
    def power(cls, C: float, p: float) -> "EntropyCurve":
        if C < 0 or p <= 0:
            raise ValueError("power curve needs C >= 0, p > 0")
        return cls(kind="power", C=C, p=p)

    @classmethod
    def log_form(cls, d: float) -> "EntropyCurve":
        if d < 0:
            raise ValueError("log curve needs d >= 0")
        return cls(kind="log", d=d)

    @classmethod
    def zero(cls) -> "EntropyCurve":
        return cls(kind="power", C=0.0, p=1.0)

    @classmethod
    def tabulated(cls, gammas, lowers, uppers) -> "EntropyCurve":
        gammas = np.asarray(gammas, dtype=float)
        order = np.argsort(gammas)
        return cls(
            kind="tabulated",
            gammas=gammas[order],
            lowers=np.asarray(lowers, dtype=float)[order],
            uppers=np.asarray(uppers, dtype=float)[order],
        )

    def value(self, gamma: float) -> float:
        if gamma <= 0:
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

    def export_csv(self, path) -> None:
        if self.kind != "tabulated":
            raise ValueError("only tabulated curves export to CSV")
        with open(path, "w", newline="") as f:
            f.write("gamma,lower,upper\n")
            for g, lo, up in zip(self.gammas, self.lowers, self.uppers):
                f.write(f"{g!r},{lo!r},{up!r}\n")


@dataclass
class LipschitzGridFamily:
    """1-Lipschitz functions on [0,1] on a grid of spacing 4*gamma, valued
    on a lattice of step 2*gamma: walks that move at most two lattice steps
    between grid points (gamma < 1).  Only dim == 1 exists."""

    dim: int = 1

    def __post_init__(self):
        if self.dim != 1:
            raise ValueError(f"Lipschitz grid family needs dim=1, got {self.dim}")


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
    are exact counts.  A gamma that is not finite and positive, or past
    CELL_GUARD (gamma below about 2^-11.5), raises ValueError.

    curve.slope is the fitted log-log slope against 1/gamma; curve.counts
    lists {"gamma", "functions", "packing"} per scale.
    """
    gammas = sorted(float(g) for g in gammas)
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
            max_jump = math.floor(spacing / step)  # slope constraint
            functions = _walks(levels, n_points, max_jump)
            packing = _walks((levels + 1) // 2, n_points, max_jump // 2)
        lowers.append(math.log(packing))
        uppers.append(math.log(functions))
        counts.append({"gamma": g, "functions": functions, "packing": packing})
    curve = EntropyCurve.tabulated(gammas, lowers, uppers)
    mids = 0.5 * (curve.lowers + curve.uppers)
    ok = mids > 0
    curve.slope = float("nan")
    if ok.sum() >= 2:
        xs = np.log(1.0 / curve.gammas)
        curve.slope = float(np.polyfit(xs[ok], np.log(mids[ok]), 1)[0])
    curve.counts = counts
    return curve
