"""Closed-form category upper bounds with provenance traces, plus a mod-2
cup-length lower bound to sandwich concrete complexes.

All bounds use the reduced convention (a contractible space has category
0) and floor their half-integer values, category being an integer. The
integer inputs cat_u (category of a classifying map) and cd_pi (the
cohomological dimension of the fundamental group) are supplied by the
caller, never computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .complexes import Complex


class BoundsError(ValueError):
    """Invalid bound inputs."""


class NotApplicable(BoundsError):
    """The rule's preconditions are not met for these inputs."""


INF = "inf"
UNKNOWN = "unknown"


def main_bound(dim: int, cat_u) -> int:
    """Average of the classifying-map category with the dimension."""
    if not isinstance(cat_u, int):
        raise NotApplicable("cat_u is unknown")
    if dim < 0 or cat_u < 0:
        raise BoundsError("inputs must be nonnegative")
    if cat_u > dim:
        raise BoundsError("cat_u cannot exceed the dimension")
    return (cat_u + dim) // 2


def corollary_bound(dim: int, cd_pi) -> int:
    """Average of the fundamental group's cohomological dimension with the
    dimension. The cd = 2 case needs a three-dimensional classifying
    complex with a retraction in the construction, but the arithmetic is
    unchanged."""
    if not isinstance(cd_pi, int):
        raise NotApplicable("cd is infinite or unknown")
    if dim < 0 or cd_pi < 0:
        raise BoundsError("inputs must be nonnegative")
    return (cd_pi + dim) // 2


def rconn_bound(dim: int, cat_u, r: int) -> int:
    """Weighted average for an r-connected universal cover, r >= 1."""
    if r == 0:
        return main_bound(dim, cat_u)
    if r < 0:
        raise BoundsError("connectivity must be nonnegative")
    if not isinstance(cat_u, int):
        raise NotApplicable("cat_u is unknown")
    if dim < 0 or cat_u < 0:
        raise BoundsError("inputs must be nonnegative")
    return (r * cat_u + dim) // (r + 1)


def fibration_bound(dim_base: int, dim_fiber: int,
                    fiber_simply_connected: bool = True,
                    base_aspherical: bool = True) -> int:
    """Bundle bound: base dimension plus half the fiber dimension."""
    if not (fiber_simply_connected and base_aspherical):
        raise NotApplicable(
            "needs a simply connected fiber over an aspherical base")
    if dim_base < 0 or dim_fiber < 0:
        raise BoundsError("inputs must be nonnegative")
    return dim_base + dim_fiber // 2


@dataclass(frozen=True)
class FibrationProfile:
    dim_base: int
    dim_fiber: int
    fiber_simply_connected: bool = False
    base_aspherical: bool = False
    cat_base: int | None = None
    cat_fiber: int | None = None


@dataclass(frozen=True)
class BoundProfile:
    dim: int
    r: int = 0  # connectivity of the universal cover; 0 means only connected
    cd_pi: int | str = UNKNOWN
    cat_u: int | str = UNKNOWN
    simply_connected: bool = False
    fibration: FibrationProfile | None = None

    def __post_init__(self):
        if self.dim < 0 or self.r < 0:
            raise BoundsError("dimension and connectivity must be nonnegative")
        if isinstance(self.cat_u, int) and isinstance(self.cd_pi, int) \
                and self.cat_u > self.cd_pi:
            raise BoundsError(
                "cat_u cannot exceed cd: the classifying map deforms into the "
                "cd-skeleton of the classifying complex")


@dataclass
class TraceEntry:
    rule: str
    anchor: str
    inputs: dict
    value: int


@dataclass
class BoundResult:
    value: int | None
    trace: list[TraceEntry] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"value": self.value,
                "trace": [{"rule": t.rule, "anchor": t.anchor,
                           "inputs": t.inputs, "value": t.value}
                          for t in self.trace]}


def best_upper(profile: BoundProfile) -> BoundResult:
    """Minimum over every applicable rule, with one trace entry per rule."""
    trace: list[TraceEntry] = []
    n = profile.dim

    trace.append(TraceEntry("dimension", "upper.dim", {"dim": n}, n))

    simply = profile.simply_connected or profile.r >= 1
    if simply:
        trace.append(TraceEntry("halved-dimension", "upper.dim-half",
                                {"dim": n}, n // 2))
    if profile.r >= 1:
        trace.append(TraceEntry("connectivity-fraction", "upper.dim-over-r",
                                {"dim": n, "r": profile.r},
                                n // (profile.r + 1)))
    if isinstance(profile.cat_u, int) and profile.cat_u <= n:
        trace.append(TraceEntry("classifying-average", "upper.cat-u-average",
                                {"dim": n, "cat_u": profile.cat_u},
                                (profile.cat_u + n) // 2))
        if profile.r >= 1:
            trace.append(TraceEntry(
                "weighted-classifying-average", "upper.cat-u-weighted",
                {"dim": n, "cat_u": profile.cat_u, "r": profile.r},
                (profile.r * profile.cat_u + n) // (profile.r + 1)))
    if isinstance(profile.cd_pi, int):
        trace.append(TraceEntry("group-dimension-average", "upper.cd-average",
                                {"dim": n, "cd_pi": profile.cd_pi},
                                (profile.cd_pi + n) // 2))
    fib = profile.fibration
    if fib is not None:
        if fib.fiber_simply_connected and fib.base_aspherical:
            trace.append(TraceEntry(
                "fibration", "upper.fibration",
                {"dim_base": fib.dim_base, "dim_fiber": fib.dim_fiber},
                fib.dim_base + fib.dim_fiber // 2))
        if fib.cat_base is not None and fib.cat_fiber is not None:
            trace.append(TraceEntry(
                "bundle-product-comparison", "upper.bundle-product",
                {"cat_base": fib.cat_base, "cat_fiber": fib.cat_fiber},
                (fib.cat_base + 1) * (fib.cat_fiber + 1) - 1))
            if fib.fiber_simply_connected and fib.cat_fiber == fib.dim_fiber // 2:
                trace.append(TraceEntry(
                    "bundle-sum", "upper.bundle-sum",
                    {"cat_base": fib.cat_base, "cat_fiber": fib.cat_fiber},
                    fib.cat_base + fib.cat_fiber))
    value = min(t.value for t in trace)
    return BoundResult(value, trace)


def profile_from_json(data: dict) -> BoundProfile:
    fib = None
    if data.get("fibration"):
        f = data["fibration"]
        fib = FibrationProfile(
            f["dim_base"], f["dim_fiber"],
            f.get("fiber_simply_connected", False),
            f.get("base_aspherical", False),
            f.get("cat_base"), f.get("cat_fiber"))
    return BoundProfile(
        dim=data["dim"], r=data.get("r", 0),
        cd_pi=data.get("cd_pi", UNKNOWN), cat_u=data.get("cat_u", UNKNOWN),
        simply_connected=data.get("simply_connected", False), fibration=fib)


# -- mod-2 simplicial cohomology and cup length --------------------------------


def gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over the two-element field (XOR elimination)."""
    m = (mat.astype(np.uint8) & 1).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return len(gf2_rref(mat)[1])


def gf2_nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Basis of the kernel (column vectors) over the two-element field."""
    rows, cols = mat.shape
    if cols == 0:
        return []
    if rows == 0:
        return [np.eye(cols, dtype=np.uint8)[i] for i in range(cols)]
    red, pivots = gf2_rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            if red[i, f]:
                v[p] = 1
        basis.append(v)
    return basis


class _Gf2Incremental:
    """Growing span in echelon form: an independence test, and reduction to
    the coset representative that vanishes on the pivot columns."""

    def __init__(self, vectors: Iterable[np.ndarray] = ()):
        self.rows: list[tuple[int, np.ndarray]] = []
        for v in vectors:
            self.add_if_independent(v)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        red = v.copy()
        for p, row in self.rows:
            if red[p]:
                red ^= row
        return red

    def add_if_independent(self, v: np.ndarray) -> bool:
        red = self.reduce(v)
        if not red.any():
            return False
        pivot = int(np.nonzero(red)[0][0])
        self.rows.append((pivot, red))
        self.rows.sort(key=lambda pr: pr[0])
        return True


def coboundary_matrices(cx: Complex) -> list[np.ndarray]:
    """Matrix of the coboundary in each degree, mod 2.

    Entry (t, s) of the degree-p matrix is 1 when the p-cell s is a face of
    the (p+1)-cell t.
    """
    mats = []
    for p in range(cx.dim + 1):
        low = cx.cells(p)
        high = cx.cells(p + 1)
        idx = {c: i for i, c in enumerate(low)}
        m = np.zeros((len(high), len(low)), dtype=np.uint8)
        for ti, t in enumerate(high):
            for k in range(len(t)):
                face = t[:k] + t[k + 1:]
                m[ti, idx[face]] = 1
        mats.append(m)
    return mats


def betti_mod2(cx: Complex) -> list[int]:
    """Mod-2 Betti numbers in degrees 0..dim."""
    mats = coboundary_matrices(cx)
    out = []
    for p in range(cx.dim + 1):
        n_p = len(cx.cells(p))
        rank_up = gf2_rank(mats[p]) if p < len(mats) else 0
        rank_down = gf2_rank(mats[p - 1]) if p >= 1 else 0
        out.append(n_p - rank_up - rank_down)
    return out


def cohomology_representatives(cx: Complex, p: int) -> list[np.ndarray]:
    """Cocycle vectors representing a basis of degree-p cohomology."""
    mats = coboundary_matrices(cx)
    n_p = len(cx.cells(p))
    if n_p == 0:
        return []
    if p < len(mats) and mats[p].shape[0] > 0:
        kernel = gf2_nullspace(mats[p])
    else:
        kernel = [np.eye(n_p, dtype=np.uint8)[i] for i in range(n_p)]
    span = _Gf2Incremental(_image_vectors(mats, p, n_p))
    reps = []
    for v in kernel:
        if span.add_if_independent(v):
            reps.append(v)
    return reps


def _image_vectors(mats: list[np.ndarray], p: int, n_p: int) -> list[np.ndarray]:
    # the degree-(p-1) coboundary maps C^(p-1) into C^p; its columns span
    # the coboundary image in degree p
    if p == 0 or n_p == 0:
        return []
    m = mats[p - 1]
    return [m[:, j].copy() for j in range(m.shape[1])]


def cup_product(cx: Complex, p: int, q: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Front-face back-face cup product of cochains, mod 2."""
    low_p = {c: i for i, c in enumerate(cx.cells(p))}
    low_q = {c: i for i, c in enumerate(cx.cells(q))}
    high = cx.cells(p + q)
    out = np.zeros(len(high), dtype=np.uint8)
    for ti, t in enumerate(high):
        front = t[:p + 1]
        back = t[p:]
        out[ti] = a[low_p[front]] & b[low_q[back]]
    return out


def cuplength_mod2(cx: Complex) -> int:
    """Largest k with a nonzero k-fold product of positive-degree classes."""
    n = cx.dim
    mats = coboundary_matrices(cx)
    reps: dict[int, list[np.ndarray]] = {}
    for p in range(1, n + 1):
        rs = cohomology_representatives(cx, p)
        if rs:
            reps[p] = rs
    if not reps:
        return 0
    image_spans = {p: _Gf2Incremental(_image_vectors(mats, p, len(cx.cells(p))))
                   for p in range(1, n + 1)}
    # k-fold products, deduplicated per length by their canonical coset
    # form; degrees grow strictly, so at most dim rounds happen
    frontier: dict[tuple[int, bytes], np.ndarray] = {}
    for p, rs in reps.items():
        for v in rs:
            red = image_spans[p].reduce(v)
            if red.any():
                frontier[(p, red.tobytes())] = v
    best = 1 if frontier else 0
    while frontier:
        new_frontier: dict[tuple[int, bytes], np.ndarray] = {}
        for (deg, _), vec in frontier.items():
            for q, rs in reps.items():
                if deg + q > n:
                    continue
                for w in rs:
                    prod = cup_product(cx, deg, q, vec, w)
                    red = image_spans[deg + q].reduce(prod)
                    if red.any():
                        new_frontier[(deg + q, red.tobytes())] = prod
        if not new_frontier:
            break
        best += 1
        frontier = new_frontier
    return best
