"""Mod-2 simplicial cohomology and the cup-length lower bound.

The cup length sandwiches a concrete complex's category from below, where
the bounds module and the verified covers bound it from above. A GF(2)
vector is a Python int whose bit i is entry i: span rows, the kernel
relations, the coboundary columns and the cochains alike, so this module
imports neither numpy nor dataclasses, and `kocover cuplength` loads only
it and complexes.
"""

from __future__ import annotations

import bisect

from .complexes import Complex


class Gf2Span:
    """Span of the vectors added so far over the two-element field, kept in
    echelon form. A vector is an int whose bit i is its entry i. Each row
    remembers which added vectors sum to it, so an added vector that reduces
    to zero records a relation among them: adding the columns of a matrix
    gives its rank and a basis of its kernel."""

    def __init__(self):
        # (pivot, row, bitmask of the added vectors that sum to the row), in
        # pivot order, the pivot being the row's lowest set bit; relations
        # are bitmasks of sums that vanish
        self.rows: list[tuple[int, int, int]] = []
        self.relations: list[int] = []
        self.added = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, v: int) -> tuple[int, int]:
        # rows in pivot order, each zero below its pivot: one pass clears
        # every pivot position of v
        combo = 0
        for pivot, row, row_combo in self.rows:
            if v >> pivot & 1:
                v ^= row
                combo ^= row_combo
        return v, combo

    def reduce(self, v: int) -> int:
        """The member of v's coset that vanishes on every pivot: linear, the
        same for all of v plus the span, and zero exactly on the span."""
        return self._eliminate(v)[0]

    def add(self, v: int) -> bool:
        """Add v; True when it enlarges the span."""
        red, combo = self._eliminate(v)
        combo ^= 1 << self.added
        self.added += 1
        if not red:
            self.relations.append(combo)
            return False
        bisect.insort(self.rows, ((red & -red).bit_length() - 1, red, combo),
                      key=lambda row: row[0])
        return True

    def kernel(self) -> list[int]:
        """Basis of the combinations of the added vectors that sum to zero,
        as bitmasks whose bit i stands for the i-th vector added."""
        return list(self.relations)


def coboundary_columns(cx: Complex) -> list[list[int]]:
    """Columns of the coboundary matrix in each degree, mod 2.

    Bit t of column s in degree p is set when the p-cell s is a face of the
    (p+1)-cell t, cells numbered in the order of cx.cells.
    """
    degrees = []
    for p in range(cx.dim + 1):
        idx = {c: i for i, c in enumerate(cx.cells(p))}
        columns = [0] * len(idx)
        for ti, t in enumerate(cx.cells(p + 1)):
            for k in range(len(t)):
                columns[idx[t[:k] + t[k + 1:]]] |= 1 << ti
        degrees.append(columns)
    return degrees


class Cohomology:
    """Mod-2 cohomology in degrees 0..dim: per degree p, the span of the
    coboundaries in C^p and cocycles whose classes are a basis of H^p, as
    bitmasks over the p-cells."""

    def __init__(self, images: list[Gf2Span], representatives: list[list[int]]):
        self.images = images
        self.representatives = representatives


def cohomology(cx: Complex) -> Cohomology:
    # adding the columns of the degree-p coboundary gives the p-cocycles
    # (its kernel) and the span of the (p+1)-coboundaries at once
    spans = []
    for columns in coboundary_columns(cx):
        span = Gf2Span()
        for column in columns:
            span.add(column)
        spans.append(span)
    images = [Gf2Span()] + spans[:-1]
    reps = []
    for image, span in zip(images, spans):
        # reduction is linear with kernel the image, so independent
        # reductions are independent classes
        classes = Gf2Span()
        reps.append([v for v in span.kernel() if classes.add(image.reduce(v))])
    return Cohomology(images, reps)


def betti_mod2(cx: Complex) -> list[int]:
    """Mod-2 Betti numbers in degrees 0..dim."""
    return [len(reps) for reps in cohomology(cx).representatives]


def cup_product(cx: Complex, p: int, q: int, a: int, b: int) -> int:
    """Front-face back-face cup product of cochains, mod 2."""
    low_p = {c: i for i, c in enumerate(cx.cells(p))}
    low_q = {c: i for i, c in enumerate(cx.cells(q))}
    out = 0
    for ti, t in enumerate(cx.cells(p + q)):
        if a >> low_p[t[:p + 1]] & b >> low_q[t[p:]] & 1:  # front and back faces
            out |= 1 << ti
    return out


def cuplength_mod2(cx: Complex) -> int:
    """Largest k with a nonzero k-fold product of positive-degree classes."""
    co = cohomology(cx)
    classes = [(p, v) for p, reps in enumerate(co.representatives) if p >= 1
               for v in reps]
    # k-fold products, deduplicated per length by their canonical coset
    # form; degrees grow strictly, so at most dim rounds happen
    frontier = {(p, co.images[p].reduce(v)): v for p, v in classes}
    best = 0
    while frontier:
        best += 1
        products: dict[tuple[int, int], int] = {}
        for (deg, _), vec in frontier.items():
            for q, w in classes:
                if deg + q <= cx.dim:
                    prod = cup_product(cx, deg, q, vec, w)
                    red = co.images[deg + q].reduce(prod)
                    if red:
                        products[(deg + q, red)] = prod
        frontier = products
    return best
