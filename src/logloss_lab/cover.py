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


def _greedy_packing_size(points, gamma: float) -> int:
    """Size of a first-fit packing: points pairwise more than 2 gamma apart
    in L-inf.  No two of them fit in one radius-gamma ball, so this
    lower-bounds the minimal cover."""
    packing = []
    for pt in points:
        if all(np.max(np.abs(pt - q)) > 2 * gamma + _TOL for q in packing):
            packing.append(pt)
    return len(packing)


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


@dataclass
class EntropyCurve:
    """Scale -> entropy, parametric or tabulated.

    kinds: "power" (C * gamma^-p), "log" (d * log(1/gamma)), "tabulated"
    (log-log interpolation between sample points, flat extrapolation).
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
        if self.kind == "power":
            return self.C * gamma ** (-self.p)
        if self.kind == "log":
            return self.d * max(0.0, math.log(1.0 / gamma))
        h = np.interp(gamma, self.gammas, self.uppers)
        return float(h)

    def integral(self, alpha: float, gamma: float) -> float:
        """Integral of H over [alpha, gamma]."""
        return self._integrate(alpha, gamma, sqrt=False)

    def integral_sqrt(self, alpha: float, gamma: float) -> float:
        """Integral of sqrt(H) over [alpha, gamma]."""
        return self._integrate(alpha, gamma, sqrt=True)

    def _integrate(self, a: float, b: float, sqrt: bool) -> float:
        if not 0 < a <= b:
            raise ValueError("need 0 < alpha <= gamma")
        if self.kind == "power":
            C, p = self.C, self.p
            if C == 0:
                return 0.0
            if sqrt:
                C, p = math.sqrt(C), p / 2.0
            if abs(p - 1.0) < 1e-12:
                return C * (math.log(b) - math.log(a))
            e = 1.0 - p
            return C * (b**e - a**e) / e
        # log curve and tabulated: trapezoid on a log-spaced grid
        xs = np.exp(np.linspace(math.log(a), math.log(b), 10_000))
        ys = np.array([self.value(x) for x in xs])
        if sqrt:
            ys = np.sqrt(ys)
        trapezoid = getattr(np, "trapezoid", np.trapz)
        return float(trapezoid(ys, xs))

    def export_csv(self, path) -> None:
        if self.kind != "tabulated":
            raise ValueError("only tabulated curves export to CSV")
        with open(path, "w", newline="") as f:
            f.write("gamma,lower,upper\n")
            for g, lo, up in zip(self.gammas, self.lowers, self.uppers):
                f.write(f"{g!r},{lo!r},{up!r}\n")


@dataclass
class LipschitzGridFamily:
    """1-Lipschitz functions on [0,1] discretized to a regular grid.

    For each scale the grid spacing is 4*gamma and values are quantized to
    steps of 2*gamma, so adjacent values may move by up to two quantization
    steps.  Only dim == 1 is enumerated.
    """

    dim: int = 1
    max_functions: int = 10**6

    def enumerate_values(self, gamma: float) -> np.ndarray:
        if self.dim != 1:
            raise NotImplementedError("grid enumeration implemented for dim=1")
        if gamma >= 1.0:
            return np.array([[0.5]])
        spacing = 4.0 * gamma
        step = 2.0 * gamma
        n_points = int(math.floor(1.0 / spacing)) + 1
        levels = int(math.floor(1.0 / step)) + 1
        if levels < 2:
            raise ValueError("resolution too coarse for this gamma")
        max_jump = int(math.floor(spacing / step))  # slope constraint
        funcs = [[v] for v in range(levels)]
        for _ in range(n_points - 1):
            new = []
            for f in funcs:
                last = f[-1]
                for v in range(
                    max(0, last - max_jump), min(levels - 1, last + max_jump) + 1
                ):
                    new.append(f + [v])
                    if len(new) > self.max_functions:
                        raise ValueError("function enumeration cap exceeded")
            funcs = new
        return np.asarray(funcs, dtype=float) * step


def _packing_and_cover(points: np.ndarray, gamma: float):
    """(packing size at separation > 2 gamma, cell-cover size at radius
    gamma) for a finite point set under L-inf."""
    cells = {}
    for pt in points:
        key = tuple(np.floor(pt / (2 * gamma) + 1e-9).astype(int))
        cells.setdefault(key, pt)
    return _greedy_packing_size(cells.values(), gamma), len(cells)


def entropy_curve_estimate(
    class_family: LipschitzGridFamily, gammas, n: int
) -> EntropyCurve:
    """Tabulated entropy curve for the Lipschitz grid family, sandwiched
    between a packing lower bound and a quantized-cell cover upper bound.

    The fitted log-log slope against 1/gamma is stored as curve.slope.
    """
    gammas = sorted(float(g) for g in gammas)
    lowers, uppers = [], []
    for g in gammas:
        values = class_family.enumerate_values(g)
        if values.shape[0] == 1:
            lowers.append(0.0)
            uppers.append(0.0)
            continue
        pack, cover = _packing_and_cover(values, g)
        lowers.append(math.log(max(pack, 1)))
        uppers.append(math.log(max(cover, 1)))
    curve = EntropyCurve.tabulated(gammas, lowers, uppers)
    mids = [
        0.5 * (lo + up) for lo, up in zip(curve.lowers, curve.uppers)
    ]
    xs = np.log(1.0 / curve.gammas)
    ok = np.array([m > 0 for m in mids])
    if ok.sum() >= 2:
        slope = float(np.polyfit(xs[ok], np.log(np.array(mids)[ok]), 1)[0])
    else:
        slope = float("nan")
    curve.slope = slope
    return curve
