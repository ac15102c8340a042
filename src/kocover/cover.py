"""Multiplicity calculus and multiple covers with deformation certificates.

A cover bundle holds m open cell sets on a subdivision tower together with
one deformability certificate per element and a claimed multiplicity
profile: on the base skeleton of dimension k(r+1)-1 every point must lie
in at least m-k+1 elements, for every k up to N = ceil((dim+1)/(r+1)).

The verifier recomputes multiplicities from scratch with one engine,
cover_signatures: the exact set of cover index sets of the cells at the
finest element level, per base-carrier dimension. A cell there is a chain
of cells one level down and inherits its coarser memberships from the
chain maximum, so r = 0 stars on the top level become a per-chain flag,
the stars of the level below become a DP over the face poset, and the
remaining elements are read from membership tables built once per level
up to the walk level below those; an explicit set sets its bit at its
cell numbers. The DP runs on plain Python ints. Without a star DP a walk
level of at most tower.ARRAY_MIN_CELLS cells groups the same tables' cell
masks in plain Python; a larger one is boolean rows over the level's
CellIndex, an explicit set's row set at its cell numbers, with identical
columns grouped by a sort. That indexed walk and the wheel builder import
numpy when they run, so loading this module, building an arc, star or
trivial cover and verifying one do not.

A family of stars whose centres are all given by a dimension is walked on
one closed level-1 cell of the standard n-simplex, n = dim X, not on X.
Whether a star at level w centred by dimension r holds a cell x depends
only on x's position inside its closed base carrier sigma: x's level-w
carrier must have a vertex over a level-(w-1) cell of dimension at most
r. The order-preserving vertex bijection sigma = Delta^(dim sigma)
carries every level, carrier and dimension across, so the index sets of
the cells over sigma depend only on dim sigma. An n-complex, like
Delta^n, has cells of every dimension 0..n, so the two give the same
signatures. Within Delta^n one level-1 cell is enough, the flag cell
F = ({0} < {0,1} < ... < {0..n}):

1. the symmetric group S_(n+1) permutes the vertices of Delta^n; this
   lifts to every level and keeps vertex and base-carrier dimensions, so
   it fixes every such star and every signature;
2. it is transitive on the level-1 facets, the full flags;
3. every cell of level >= 1 lies in the closure of a level-1 facet.

The tower of F's closure from level 1 up is that of Delta^n one level
down (_flag_cell), so a walk whose stars are finest at level L reads
level L-3 of Delta^n under a top-level flag and L-2 otherwise, one level
below a walk over whole levels of Delta^n. The simplex's tower, with the
bundle tower's depth cap and cell budget, is built once per process
(_standard_tower); signatures are not kept, so every walk is its own.

build_cover has one star family for every r: element w is the open star
at level w of the level-w vertices over level-(w-1) cells of dimension
at most r, its centres given by r ("layered-stars" for r = 0,
"staggered-duals" otherwise), certified by one push onto those centres
and, for r = 0, a snap. Graphs (arc phases) and r = 0 surfaces past the
depth cap (wheel cracks) have their own builders.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from .complexes import Complex, SimplicialMap, UsageError, simplex_complex
from .certify import (Certificate, CertificateFormatError, PartitionPush,
                      StarSnap, Target, certificate_from_json,
                      certificate_to_json, cellset_from_json, verify_certificate)
from .tower import (CellSet, CellT, OpenCellSet, SubdivisionTower, TowerError,
                    TowerSizeError, VertexStarSet, index_array, json_array,
                    json_field, json_object, numbers_array, preimage, proper_faces)

if TYPE_CHECKING:
    import numpy as np


class CoverError(UsageError):
    """Invalid arguments to a cover operation."""


class ConstructionError(RuntimeError):
    """The builder cannot produce a verified bundle for these parameters."""


# -- multiplicity -------------------------------------------------------------


def cover_signatures(tower: SubdivisionTower,
                     elements: list[CellSet]) -> dict[int, set[frozenset[int]]]:
    """Exact cover index sets of the cells at the finest element level L,
    keyed by base-carrier dimension.

    A level-t cell is a chain of level-(t-1) cells whose maximum is its
    carrier one level down, so membership in every coarser element and the
    base carrier are the maximum's. Up to two top levels are not walked:

    * when every level-L element is a star of center dimension 0, a chain
      lies in them exactly when it holds a vertex of level L-1: always for
      a singleton chain over a vertex, and for any other maximum both ways
      (a flag);
    * when every element at the next level t is a star, membership is an
      OR over the chain's vertices, so a DP over level t-1, faces first,
      gives every star mask of a chain with maximum c:
      R(c) = {s(c)} | {s(c)|y : y in R(f), f a proper face of c}.

    The DP stores the down-closed reach D(c), the union of R(f) over c and
    its proper faces, as a small-int bitset over the distinct star masks
    met. Every proper face lies in a facet, so the OR of D over the facets
    of c is the union over its proper faces, and R(c) depends only on s(c)
    and that OR; it is memoized on the pair. The set of a chain with
    maximum c then depends only on the base-carrier dimension of c, its
    mask of the elements below the DP, s(c) and the star masks of the
    chains longer than {c}, so each distinct tuple of those is expanded
    into index sets once.

    Every other element is read from the per-level membership tables of
    _membership, at the walk level below the stars in the DP. Without a DP
    the walk level is sized (TowerSizeError over the cell budget; every
    bundle's explicit cells lie on a sized level). On a level of at most
    tower.ARRAY_MIN_CELLS cells it is listed and its table grouped in
    plain Python, one (base-carrier dimension, mask, more than a vertex)
    triple per cell; on a larger one the walk reads the level's CellIndex
    (_indexed_signatures) and lists no cell of its own. The tables and the
    DP are plain Python, so a walk with a star DP or on a small level
    loads no numpy.

    When every element is a star centred by a dimension, the walk runs on
    one closed level-1 cell of the standard n-simplex, n = dim X, the flag
    cell F = ({0} < {0,1} < ... < {0..n}), and reads no level of X (see
    the module docstring). The tower of F from level 1 up is the tower of
    Delta^n one level down (_flag_cell), so a star at level w >= 2 is
    VertexStarSet(std, w-1, r), one at level 1 the level-0 cells whose
    least vertex is at most r, and a cell's base-carrier dimension is the
    largest vertex of its base carrier there (base_dim = max).
    """
    if not elements:
        raise CoverError("empty family")
    base_dim = _dim
    if all(isinstance(el, VertexStarSet) and isinstance(el.centers, int)
           for el in elements):
        tower, elements = _flag_cell(tower, elements)
        base_dim = max
    level = max(el.level for el in elements)
    flag = 0
    if level >= 1 and all(isinstance(el, VertexStarSet) and el.centers == 0
                          for el in elements if el.level == level):
        flag = sum(1 << i for i, el in enumerate(elements) if el.level == level)
        level -= 1
    stars = [(i, el) for i, el in enumerate(elements) if el.level == level]
    dp = level >= 1 and all(isinstance(el, VertexStarSet) for _, el in stars)
    if dp:
        level -= 1
    low = [(i, el) for i, el in enumerate(elements) if el.level <= level]
    if not dp and not tower.is_small(level):
        return _indexed_signatures(tower, level, low, flag, base_dim)
    cells = tower.cells(level)
    masks, dims = _membership(tower, level, low, base_dim)
    out: dict[int, set[int]] = {}
    if not dp:
        # the flagged stars hold the chains over c that have a vertex: all
        # of them when c is a vertex, all but {c} otherwise
        for d, lo, longer in set(zip(dims, masks, (len(c) > 1 for c in cells))):
            out.setdefault(d, set()).update((lo | flag, lo) if longer else (lo | flag,))
        return _index_sets(out, len(elements))
    # s(c): the stars centered at the barycenter of c, which is vertex j
    # of the star level when c is cells[j], of dimension len(c) - 1
    star = [0] * len(cells)
    for i, el in stars:
        if isinstance(el.centers, int):
            star = [s | 1 << i if len(c) <= el.centers + 1 else s
                    for s, c in zip(star, cells)]
        else:
            star = [s | 1 << i if j in el.centers else s for j, s in enumerate(star)]
    seen: list[int] = []  # bit j of a reach stands for the star mask seen[j]
    bit: dict[int, int] = {}

    def reach(y: int) -> int:
        if y not in bit:
            bit[y] = len(seen)
            seen.append(y)
        return 1 << bit[y]

    memo: dict[tuple[int, int], tuple[int, int]] = {}
    down: dict[CellT, int] = {(): 0}  # D(c); a vertex's one facet is empty
    groups = set()
    for i in sorted(range(len(cells)), key=lambda i: len(cells[i])):
        c, s = cells[i], star[i]
        below = 0
        for f in itertools.combinations(c, len(c) - 1):
            below |= down[f]
        hit = memo.get((s, below))
        if hit is None:
            longer = 0  # the star masks of the chains longer than {c}
            for j in _bits(below):
                longer |= reach(s | seen[j])
            hit = memo[s, below] = longer, longer | reach(s) | below
        longer, down[c] = hit
        groups.add((dims[i], masks[i], s, longer))
    for d, lo, s, longer in groups:
        sigs = out.setdefault(d, set())
        sigs.add(s | lo | flag)
        for j in _bits(longer):
            sigs.update((seen[j] | lo, seen[j] | lo | flag))
    return _index_sets(out, len(elements))


def _flag_cell(tower: SubdivisionTower, elements: list[VertexStarSet]
               ) -> tuple[SubdivisionTower, list[CellSet]]:
    """A family of stars centred by dimensions on X's tower, moved onto the
    closed flag cell F of Delta^n, n = dim X, whose tower from level 1 up
    is that of Delta^n one level down: vertex k of Delta^n stands for the
    face {0..k}, a level-0 cell S of Delta^n for the level-1 chain of the
    faces {0..k}, k in S, and so, level by level, each level-(w-1) cell of
    Delta^n for one level-w cell in the closure of F.

    A level-w vertex of F then keeps its dimension, so a star at level
    w >= 2 is the same star at level w-1. A level-1 cell of F is a set S of
    faces {0..k}, held by the level-1 star centred by r when some k in S
    is at most r: the level-0 cells of Delta^n whose least vertex is at
    most r. The tower is built with the bundle tower's depth cap and cell
    budget, once per process (_standard_tower)."""
    std = _standard_tower(tower.base.dim, tower.max_level, tower.max_cells)
    return std, [VertexStarSet(std, el.level - 1, el.centers) if el.level > 1
                 else OpenCellSet(std, 0, [c for c in std.cells(0) if c[0] <= el.centers])
                 for el in elements]


@functools.cache
def _standard_tower(n: int, max_level: int, max_cells: int) -> SubdivisionTower:
    return SubdivisionTower(simplex_complex(n), max_level, max_cells)


def _dim(cell: CellT) -> int:
    return len(cell) - 1


def _index_sets(masks: dict[int, set[int]], n: int) -> dict[int, set[frozenset[int]]]:
    """The element masks of each base-carrier dimension as index sets."""
    return {d: {frozenset(i for i in range(n) if mask >> i & 1) for mask in ms}
            for d, ms in masks.items()}


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _membership(tower: SubdivisionTower, level: int, low: list[tuple[int, CellSet]],
                base_dim: Callable[[CellT], int]) -> tuple[list[int], list[int]]:
    """Element masks and base-carrier dimensions (base_dim of the base
    carrier) of the cells of a level, aligned with cells(level): bit i of a
    mask is set when the element (i, el) of low, none of them finer than
    the level, holds the cell.

    One table per level, from the lowest element level up: a level-t
    cell's mask is that of its chain maximum one level down, gathered
    through the level's tops table, ORed with the level-t elements that
    hold the cell: an explicit set sets its bit at its cell numbers, a
    star of center dimension r when the cell has a vertex over a
    level-(t-1) cell of dimension at most r, an explicit star when it has
    a center. The base carrier is the maximum's too. No maximum is
    computed per cell, and no numpy is loaded. An explicit set holding a
    cell that is not on its level raises TowerError.
    """
    masks: list[int] | None = None
    for t in range(min((el.level for _, el in low), default=level), level + 1):
        cells = tower.cells(t)
        if t:
            tops = tower.level(t).tops
        masks = [0] * len(cells) if masks is None else [masks[v] for v in tops]
        for i, el in low:
            if el.level != t:
                continue
            if isinstance(el, OpenCellSet):
                bit = 1 << i
                for j in el.numbers():
                    masks[j] |= bit
                continue
            centers = tower.low_vertices(t, el.centers) \
                if isinstance(el.centers, int) else el.centers
            masks = [m | 1 << i if not centers.isdisjoint(c) else m
                     for m, c in zip(masks, cells)]
    if level == 0:
        return masks, list(map(base_dim, cells))
    dims = list(map(base_dim, tower.level(level).vbase))
    return masks, list(map(dims.__getitem__, tops))


def _indexed_signatures(tower: SubdivisionTower, level: int,
                        low: list[tuple[int, CellSet]], flag: int,
                        base_dim: Callable[[CellT], int]
                        ) -> dict[int, set[frozenset[int]]]:
    """cover_signatures' walk without a star DP on a level of more than
    tower.ARRAY_MIN_CELLS cells, on the level's CellIndex.

    Each cell is a column: one membership bit per element of low (the
    cell numbers of an explicit element of this level, the _membership
    table for every other), whether its chain is longer than a singleton,
    which under a flag also gives the set without the flagged elements,
    and its base-carrier dimension. The bits are packed into bytes
    (np.packbits) and the dimension is the last byte of the cell's packed
    key, a whole number of 64-bit words. Sorting the keys and an adjacent
    difference leave the distinct ones, and index sets are built from each
    distinct key unpacked; a key is as many words as the family needs, so
    the family's width has no limit. An explicit element holding a cell
    that is not on the level raises TowerError.
    """
    import numpy as np
    index = tower.index(level)
    n = len(index.block)
    listed = [isinstance(el, OpenCellSet) and el.level == level for _, el in low]
    if not all(listed):
        masks, _ = _membership(tower, level, [e for e, x in zip(low, listed) if not x],
                               base_dim)
    width = -(-(len(low) + 1) // 8)  # bytes of membership and chain bits
    bits = np.zeros((n, 8 * width), dtype=bool)  # cell x bit
    for column, (i, el), x in zip(bits.T, low, listed):
        if x:
            column[index_array(el.numbers())] = True
        else:
            column[:] = np.fromiter((m >> i & 1 for m in masks), dtype=bool, count=n)
    bits[:, len(low)] = index.size > 1
    key = np.zeros((n, 8 * -(-(width + 1) // 8)), dtype=np.uint8)  # cell x byte
    key[:, :width] = np.packbits(bits.ravel(), bitorder="little").reshape(n, width)
    dims = np.array(list(map(base_dim, tower.cells(0))), dtype=np.uint8)
    key[:, -1] = dims[index.carrier]
    key = key.view("<u8")  # cell x word
    # one word (up to 55 elements) sorts in np.sort, about ten times faster than np.lexsort
    key = np.sort(key[:, 0])[:, None] if key.shape[1] == 1 else key[np.lexsort(key.T)]
    first = np.ones(n, dtype=bool)  # does a run of equal keys start here?
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    key = key[first].view(np.uint8)  # the distinct keys, as bytes
    columns = np.unpackbits(key[:, :width], axis=1, bitorder="little")
    flagged = frozenset(i for i in range(flag.bit_length()) if flag >> i & 1)
    members = [i for i, _ in low]
    out: dict[int, set[frozenset[int]]] = {}
    for column, d in zip(columns.tolist(), key[:, -1].tolist()):
        lo = frozenset(itertools.compress(members, column))
        sigs = out.setdefault(d, set())
        sigs.add(lo | flagged)
        if column[len(low)]:
            sigs.add(lo)
    return out


def is_k_cover(elements: list[CellSet], k: int, skeleton: int | None = None) -> bool:
    """Does every k-element subfamily cover the cells whose base carrier
    has dimension at most skeleton (every cell when it is None)?

    Computed both by a witness search over subfamilies and by the
    multiplicity criterion (min Ord >= m-k+1), in _k_cover; the two must
    agree.
    """
    m = len(elements)
    if not 1 <= k <= m:
        raise CoverError(f"k must lie in 1..{m}")
    if skeleton is not None and skeleton < 0:
        raise CoverError(f"skeleton dimension must be nonnegative, got {skeleton}")
    criterion, brute, _ = _k_cover(cover_signatures(elements[0].tower, elements),
                                   k, m, skeleton)
    if brute != criterion:
        raise AssertionError(
            f"k-cover brute force ({brute}) disagrees with the multiplicity "
            f"criterion ({criterion}) at k={k}")
    return brute


def _k_cover(sigs: dict[int, set[frozenset[int]]], k: int, m: int,
             skeleton: int | None = None) -> tuple[bool, bool, int]:
    """Does every k-subset of range(m) meet the index set of every cell
    whose base carrier has dimension at most skeleton (every cell when it
    is None)? Returns (criterion, brute force, min Ord).

    The criterion is min Ord >= m-k+1, with min Ord = m when no cell is in
    range. The brute force searches for a witness against each distinct
    index set s: a subfamily that misses s is k members of range(m) outside
    s, so it takes the first k of them met walking range(m), and stops
    there. That costs O(|s| + k) per set, not a walk over C(m, k) subsets.
    """
    sets = {s for d, ss in sigs.items() if skeleton is None or d <= skeleton
            for s in ss}
    min_ord = min(map(len, sets), default=m)
    brute = not any(
        len(list(itertools.islice((i for i in range(m) if i not in s), k))) == k
        for s in sets)
    return min_ord >= m - k + 1, brute, min_ord


# -- bundles ------------------------------------------------------------------

# the bundle layout this module writes and the only one it reads: cells as
# vertex-number lists (tower.cell_numbers_from_json), and certificate i
# starting at element i
BUNDLE_FORMAT = 3


def check_format(data: dict) -> None:
    """Refuse a bundle that is not an object or whose "format" is not
    BUNDLE_FORMAT, naming what it is."""
    if not isinstance(data, dict):
        raise CoverError(f"a bundle must be an object, got {type(data).__name__}")
    if "format" not in data:
        raise CoverError(f"bundle has no 'format' field: it predates format "
                         f"{BUNDLE_FORMAT}, which this kocover reads; rebuild it "
                         f"with kocover cover build")
    fmt = data["format"]
    if type(fmt) is not int or fmt != BUNDLE_FORMAT:
        raise CoverError(f"bundle 'format' {fmt!r} is not supported: this kocover "
                         f"reads format {BUNDLE_FORMAT} only")


@dataclass
class ProfileClaim:
    k: int
    skeleton: int
    min_multiplicity: int


@dataclass
class CoverBundle:
    complex: Complex
    tower: SubdivisionTower
    r: int
    m: int
    elements: list[CellSet]
    certificates: list[Certificate]
    construction: str = ""

    @property
    def N(self) -> int:
        return cover_parameters(self.complex, self.r)

    @property
    def profile_claims(self) -> list[ProfileClaim]:
        return _profile_claims(self.r, self.m, self.N)

    def iter_json(self) -> Iterator[str]:
        """The bundle's compact sorted-key JSON text, in pieces, one
        element at a time. A certificate's start is not written:
        certificate i starts at element i."""
        return json_object({
            "format": BUNDLE_FORMAT,
            "complex": self.complex.to_json(),
            "params": {"r": self.r, "N": self.N, "m": self.m,
                       "max_level": self.tower.max_level,
                       "construction": self.construction},
            "elements": json_array(el.iter_json() for el in self.elements),
            "certificates": [certificate_to_json(c) for c in self.certificates],
            "profile": [asdict(p) for p in self.profile_claims],
        })

    def to_json(self) -> dict:
        """The bundle as JSON data, read back from its text."""
        return json.loads("".join(self.iter_json()))

    @classmethod
    def from_json(cls, data: dict) -> "CoverBundle":
        check_format(data)
        cx = Complex.from_json(json_field(data, "complex", dict, CoverError))
        params = json_field(data, "params", dict, CoverError)
        r, N, m = (json_field(params, name, int, CoverError) for name in ("r", "N", "m"))
        derived = cover_parameters(cx, r)
        if N != derived:
            raise CoverError(f"bundle field 'N' is {N}, but a {cx.dim}-complex with "
                             f"r={r} has N={derived}")
        profile = [asdict(p) for p in _profile_claims(r, m, N)]
        claimed = json_field(data, "profile", list, CoverError)
        # == takes True or 1.0 for 1, and a claim holds ints only
        if claimed != profile or any(type(v) is not int for p in claimed
                                     for v in p.values()):
            raise CoverError(f"bundle field 'profile' is {data['profile']!r}, but r={r} "
                             f"and m={m} give {profile!r}")
        max_level = None if params.get("max_level") is None \
            else json_field(params, "max_level", int, CoverError)
        tower = SubdivisionTower(cx, max_level=max_level)
        elements = [cellset_from_json(tower, e)
                    for e in json_field(data, "elements", list, CoverError)]
        raw = json_field(data, "certificates", list, CoverError)
        if len(raw) > len(elements):
            raise CoverError(f"bundle field 'certificates' has {len(raw)} entries but "
                             f"'elements' has {len(elements)}: certificate "
                             f"{len(elements)} has no element to start at")
        certs = [certificate_from_json(tower, c, el) for c, el in zip(raw, elements)]
        construction = json_field(params, "construction", str, CoverError) \
            if "construction" in params else ""
        return cls(cx, tower, r, m, elements, certs, construction)


def _profile_claims(r: int, m: int, N: int) -> list[ProfileClaim]:
    """The graded profile: on the base skeleton of dimension k(r+1)-1 every
    point lies in at least m-k+1 elements, for k = 1..N."""
    return [ProfileClaim(k, k * (r + 1) - 1, m - k + 1) for k in range(1, N + 1)]


def cover_parameters(cx: Complex, r: int) -> int:
    """Minimal admissible N for the profile on this complex."""
    if r < 0:
        raise CoverError("r must be nonnegative")
    return math.ceil((cx.dim + 1) / (r + 1))


# -- construction -------------------------------------------------------------

def build_cover(cx: Complex, r: int, m: int) -> CoverBundle:
    """Construct an m-element cover with the graded multiplicity profile.

    Past the trivial and graph cases, one star family serves every r:
    element w, for w = 1..m, is the open star at level w of the level-w
    vertices whose underlying level-(w-1) cell has dimension at most r,
    VertexStarSet(tower, w, r). One partition push onto those centres
    certifies it, followed by a vertex snap when r = 0. Deeper than the
    depth cap only r = 0 surfaces have a construction, the wheel cracks.
    See the construction notes in the README.
    """
    N = cover_parameters(cx, r)
    if m < N:
        raise CoverError(f"m={m} is below the minimal admissible N={N}")
    if not cx.is_connected():
        raise CoverError("the complex must be connected")
    tower = SubdivisionTower(cx)
    n = cx.dim
    target = Target("skeletal", 0) if r == 0 else Target("dimensional", r)

    if N == 1:
        whole = OpenCellSet(tower, 0, cx.cells())
        elements: list[CellSet] = [whole for _ in range(m)]
        certs = [Certificate(whole, (), target) for _ in range(m)]
        return CoverBundle(cx, tower, r, m, elements, certs, "trivial")

    if r == 0 and n == 1:
        return _build_arc_cover(cx, tower, m)

    if r > 0 and N > 2:
        raise ConstructionError(
            f"r={r} with N={N} > 2 is outside the implemented construction: "
            f"the star family for r >= 1 is built for dimension at most "
            f"2r+1 = {2 * r + 1}, and this complex has dimension {n}")
    if m > tower.max_level:
        if r == 0 and n == 2 and tower.max_level >= 4:
            return _build_wheel_cover(cx, tower, m)
        raise ConstructionError(
            f"the star family needs subdivision level {m}, over the cap "
            f"{tower.max_level} (KO_COVER_MAX_LEVEL); packing several "
            f"elements into one level needs separating-crack components, "
            f"which this builder only constructs for r = 0 graphs and surfaces")
    # the signature walk runs on Delta^n one level down (_flag_cell) and
    # reads its level m-3 under r = 0 stars, whose top level is a flag, and
    # level m-2 otherwise; sizing it lists nothing of that level
    deepest = max(m - 3 if r == 0 else m - 2, 0)
    try:
        _standard_tower(n, tower.max_level, tower.max_cells).sized(deepest)
    except TowerSizeError as exc:
        below = "" if exc.level == deepest else f"which needs level {exc.level} listed, "
        raise ConstructionError(
            f"verification at m={m} reads level {deepest} of the standard "
            f"{n}-simplex, {below}and {exc}") from None
    elements = [VertexStarSet(tower, w, r) for w in range(1, m + 1)]
    certs = [Certificate(el, (PartitionPush(el.level, r),)
                         + ((StarSnap(el.level),) if r == 0 else ()), target)
             for el in elements]
    return CoverBundle(cx, tower, r, m, elements, certs,
                       "layered-stars" if r == 0 else "staggered-duals")


def _build_arc_cover(cx: Complex, tower: SubdivisionTower, m: int) -> CoverBundle:
    """Graph cover: element i removes one interior vertex per base edge, at a
    dyadic phase chosen once per i, so misses never collide across elements."""
    phases = _dyadic_phases(m)
    depth_needed = max(d for d, _ in phases)
    if depth_needed > tower.max_level:
        raise ConstructionError(
            f"m={m} arc phases need subdivision level {depth_needed}, over the "
            f"cap {tower.max_level} (KO_COVER_MAX_LEVEL)")
    base_edges = [c for c in cx.cells() if len(c) == 2]
    elements: list[CellSet] = []
    certs: list[Certificate] = []
    for i in range(m):
        depth, num = phases[i]
        miss: set[CellT] = set()
        for e in base_edges:
            path = _edge_path_vertices(tower, depth, e)
            miss.add((path[num],))
        el = OpenCellSet.from_increasing(tower, depth, (
            j for j, c in enumerate(tower.cells(depth)) if c not in miss))
        elements.append(el)
        certs.append(Certificate(
            el, (StarSnap(depth),), Target("skeletal", 0)))
    return CoverBundle(cx, tower, 0, m, elements, certs, "arc-phases")


def _dyadic_phases(m: int) -> list[tuple[int, int]]:
    """First m dyadic positions (depth, index along the edge path), breadth
    first: 1/2, then 1/4, 3/4, then odd eighths, and so on. Element i is
    independent of m, so truncating a larger family gives a smaller one."""
    out: list[tuple[int, int]] = []
    depth = 1
    while len(out) < m:
        for num in range(1, 2 ** depth, 2):
            out.append((depth, num))
            if len(out) == m:
                break
        depth += 1
    return out


def _edge_path_vertices(tower: SubdivisionTower, t: int, edge: CellT) -> list[int]:
    """Vertices of a subdivided base edge at level t, from its least endpoint
    to the other; entry k sits at dyadic position k / 2^t.

    A level-s vertex is a level-(s-1) cell, so each subdivision puts the
    barycenter (u, w) of every path edge between its ends (u,) and (w,).
    """
    path = list(edge)
    for s in range(1, t + 1):
        vid = tower.level(s).vert_id
        nxt = [vid[(path[0],)]]
        for u, w in zip(path, path[1:]):
            nxt += [vid[(u, w) if u < w else (w, u)], vid[(w,)]]
        path = nxt
    return path


def _build_wheel_cover(cx: Complex, tower: SubdivisionTower, m: int) -> CoverBundle:
    """Surface cover that packs several elements into one level.

    Element i misses a crack built at level 4: around every 2-cell
    barycenter, the boundary of the i-th iterated closed neighborhood
    (these boundaries are nested and pairwise disjoint, so each is missed
    by one element only); three arcs from that circle to a fresh interior
    vertex on each edge of the 2-cell; and those edge vertices themselves.
    Crack cells of distinct elements overlap at most doubly in 2-cell
    interiors and never on edges or base vertices, which is exactly the
    graded budget. Removing a crack leaves components that are each
    contained in the star of a base vertex (the central disks and the
    corner regions), so a single vertex snap certifies every element; the
    certificate verifier re-checks that claim from scratch.

    The search runs on the level's CellIndex, the one the snaps replay on:
    regions, rings, cracks and miss counts are arrays over cell numbers,
    and an element's arcs at one edge slot are one search over all 2-cells.
    No level-4 cell tuple is listed: a vertex's singleton leads its block.
    """
    import numpy as np
    level = 4
    if tower.max_level < level:
        raise ConstructionError(
            f"wheel cracks need subdivision level {level}, over the cap "
            f"{tower.max_level} (KO_COVER_MAX_LEVEL)")
    try:
        index = tower.index(level)
    except TowerSizeError as exc:
        raise ConstructionError(f"wheel cracks: {exc}") from None
    n = len(index.block)
    base = tower.cell_index(0)
    carrier_dim = np.array([len(c) - 1 for c in base])[index.carrier]
    dim = index.size - 1
    two_cells = [c for c in cx.cells() if len(c) == 3]
    base_edges = [c for c in cx.cells() if len(c) == 2]

    # nested neighborhood rings around the 2-cell barycenters, grown for
    # all 2-cells at once. While every region stays inside its 2-cell, no
    # two meet. The first round in which one does not fails the check that
    # growing it alone would fail: its ring holds a cell over a base edge
    # or vertex, or the region holds a cell over a base face of two
    # 2-cells, whose cofaces in the other one it lacks. A region that
    # fills its 2-cell has an empty ring, which is refused the same way
    shared = np.zeros(len(base), dtype=bool)
    for f, k in Counter(f for t in two_cells for f in proper_faces(t)).items():
        shared[base[f]] = k > 1
    region = np.zeros(n, dtype=bool)
    # the singleton (v,) leads the block of v
    region[index.block_start[[tower.barycenter(t, level) for t in two_cells]]] = True
    cracks = np.zeros((m, n), dtype=bool)  # element i misses ring i+1
    for ring in cracks:
        # the region is closed, so the cells with a face in it are the
        # stars of its vertices; then their faces
        closed = region.copy()
        closed[index.face_cell[region[index.face]]] = True
        closed[index.face[closed[index.face_cell]]] = True
        ring[index.face[closed[index.face] & ~closed[index.face_cell]]] = True
        if not ring.any() or (carrier_dim[ring] != 2).any() \
                or shared[index.carrier[closed]].any():
            raise ConstructionError(
                f"wheel cracks: m={m} neighborhood rings around a 2-cell "
                f"barycenter reach its boundary at level {level}")
        region = closed
    # one fresh interior edge vertex per element and edge, spread dyadically
    positions = [num * 2 ** (level - depth) for depth, num in _dyadic_phases(m)]
    edge_vert: dict[CellT, list[int]] = {}  # base edge -> cell number per element
    for e in base_edges:
        path = _edge_path_vertices(tower, level, e)
        edge_vert[e] = index.block_start[[path[p] for p in positions]].tolist()
        cracks[np.arange(m), edge_vert[e]] = True
    counts = cracks.sum(axis=0)
    if (counts > carrier_dim).any():
        raise ConstructionError("wheel cracks: ring reservation exceeds a budget")

    # vertex -> edge adjacency from the face pairs of the edges: slots
    # sorted by vertex (a stable sort keeps each vertex's edges ascending),
    # those of vertex u from row[u] to row[u + 1]
    pair = np.flatnonzero(dim[index.face_cell] == 1)
    ends = index.face[pair].reshape(-1, 2)
    order = np.argsort(ends.ravel(), kind="stable")
    vertex = ends.ravel()[order]
    adjacency = (np.searchsorted(vertex, np.arange(n + 1)), vertex,
                 ends[:, ::-1].ravel()[order], np.repeat(index.face_cell[pair[::2]], 2)[order])
    # the 2-cell of each cell inside one, by position in two_cells; the
    # edge vertex of element i at edge slot k of 2-cell j is targets[i, k, j]
    cell_of = np.full(len(base), -1)
    cell_of[[base[t] for t in two_cells]] = np.arange(len(two_cells))
    cell_of = cell_of[index.carrier]
    targets = np.array([[edge_vert[e] for e in itertools.combinations(t, 2)]
                        for t in two_cells]).T
    for i in range(m):
        crack = cracks[i]
        # the crack's vertices inside a 2-cell are still those of its ring
        starts = np.flatnonzero(crack & (cell_of >= 0) & (dim == 0))
        failed = np.zeros(len(two_cells), dtype=bool)
        for target in targets[i]:
            free = (cell_of >= 0) & ~crack & (counts < carrier_dim)
            found, new = _arc_paths(adjacency, free, starts[~failed[cell_of[starts]]],
                                    cell_of, target)
            failed |= ~found
            crack[new] = True
            counts[new] += 1
        if failed.any():
            raise ConstructionError(
                f"wheel cracks: no room for an arc of element {i} "
                f"in 2-cell {cx.label_cell(two_cells[failed.argmax()])}")
    del adjacency, vertex, pair, ends, order  # the elements' sets below reuse this memory

    elements: list[CellSet] = [
        OpenCellSet.from_increasing(tower, level, numbers_array(np.flatnonzero(~crack)))
        for crack in cracks]
    certs = [Certificate(el, (StarSnap(level),), Target("skeletal", 0))
             for el in elements]
    for i, cert in enumerate(certs):
        verdict = verify_certificate(tower, cert)
        if not verdict.passed:
            raise ConstructionError(
                f"wheel cracks: element {i} does not snap: {verdict.reason}")
    return CoverBundle(cx, tower, 0, m, elements, certs, "wheel-cracks")


def _arc_paths(adjacency: tuple[np.ndarray, ...], free: np.ndarray, starts: np.ndarray,
               cell_of: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest vertex paths through free cells, one per 2-cell j from its
    starts to target[j], by one frontier search over all 2-cells at once.

    adjacency is (row, vertex, other end, edge): the slots sorted by
    vertex, those of vertex u from row[u] to row[u + 1]. Free cells lie
    inside one 2-cell, cell_of[cell], and no edge joins two, so the
    searches share no node. A node's parent is its least slot from the
    previous round, the least node, as in a queue sorted each round.
    Targets are not free and may be shared, so each 2-cell keeps its own
    hit, its least slot reaching its target, and leaves. Returns which
    2-cells were reached, and the paths' cells apart from their starts and
    targets.
    """
    import numpy as np
    row, vertex, other, edge = adjacency
    none = len(vertex)  # no slot reaches the node (or the 2-cell's target) yet
    prev = np.full(len(free), none)  # the slot reaching each node
    hit = np.full(len(target), none)  # the slot reaching each target
    frontier = starts
    while len(frontier):
        lo = row[frontier]
        count = row[frontier + 1] - lo
        slot = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        w, j = other[slot], cell_of[vertex[slot]]
        step = free[edge[slot]]
        at = step & (w == target[j])
        np.minimum.at(hit, j[at], slot[at])
        step &= free[w] & (prev[w] == none) & (hit[j] == none)
        w, slot = w[step], slot[step]
        np.minimum.at(prev, w, slot)
        frontier = w[prev[w] == slot]  # each node once, by its least slot
    found = hit < none
    slot, path = hit[found], [np.empty(0, dtype=np.intp)]
    while len(slot):  # back from the targets to the starts
        u = vertex[slot]
        back = prev[u] < none
        path += [edge[slot], u[back]]
        slot = prev[u][back]
    return found, np.concatenate(path)


# -- verification -------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CoverReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


def verify_cover_bundle(bundle: CoverBundle) -> CoverReport:
    """Re-derive multiplicities, check the profile both ways, re-verify all
    certificates. Failures become report entries, never exceptions."""
    report = CoverReport()
    tower = bundle.tower
    m = bundle.m
    try:
        sigs = cover_signatures(tower, bundle.elements)
    except (TowerError, CoverError) as exc:
        report.add("multiplicity", False, f"enumeration failed: {exc}")
        return report

    counted = False
    if len(bundle.elements) != m:
        report.add("element-count", False,
                   f"bundle claims m={m} but has {len(bundle.elements)} elements")
    elif len(bundle.certificates) != m:
        report.add("element-count", False,
                   f"bundle claims m={m} but has {len(bundle.certificates)} certificates")
    else:
        report.add("element-count", True)
        counted = True

    min_all = min((len(s) for ss in sigs.values() for s in ss), default=0)
    report.add("coverage", min_all >= 1,
               "" if min_all >= 1 else "some open cell lies in no element")

    for claim in bundle.profile_claims:
        if not counted:
            # the index sets number the elements there are, so they are not
            # subsets of the claimed range(m), and neither check would mean
            # anything
            report.add(f"profile-k{claim.k}", False,
                       "not checked: the element count does not match m")
            continue
        criterion, brute, min_ord = _k_cover(sigs, claim.k, m, claim.skeleton)
        agree = criterion == brute
        report.add(f"profile-k{claim.k}", criterion and agree,
                   f"min Ord {min_ord} on skeleton {claim.skeleton}, "
                   f"need {claim.min_multiplicity}"
                   + ("" if agree else "; brute force disagrees with the criterion"))

    for i, (el, cert) in enumerate(zip(bundle.elements, bundle.certificates)):
        report.add(f"certificate-{i}", *check_certificate(tower, el, cert, bundle.r))
    return report


def check_certificate(tower: SubdivisionTower, element: CellSet,
                      cert: Certificate, r: int) -> tuple[bool, str]:
    """Do the certificate's steps deform this element as an
    r-deformability witness? They are replayed from the element, whatever
    the certificate's own start, and must pass verify_certificate; for
    r = 0 the target must be the base 0-skeleton (every step is monotone),
    otherwise its dimension must be at most r. Returns (passed, detail)."""
    try:
        verdict = verify_certificate(tower, Certificate(element, cert.steps, cert.target))
    except (CertificateFormatError, TowerError) as exc:
        return False, f"structural error: {exc}"
    if not verdict.passed:  # a final-target failure names no step
        step = verdict.failing_step
        return False, verdict.reason if step is None else f"step {step}: {verdict.reason}"
    if r == 0:
        good = cert.target.kind == "skeletal" and cert.target.r == 0
        return good, "" if good else "r=0 needs a monotone certificate into the 0-skeleton"
    good = cert.target.r <= r
    return good, "" if good else f"target does not witness {r}-deformability"


# -- pullback -----------------------------------------------------------------


def pullback_cover(fmap: SimplicialMap, bundle: CoverBundle) -> list[OpenCellSet]:
    """Preimages of the bundle elements under a simplicial map, on a tower
    of the map's source with the bundle tower's depth cap; coverage is
    preserved and multiplicity only grows pointwise."""
    source_tower = SubdivisionTower(fmap.source, max_level=bundle.tower.max_level)
    return [preimage(fmap, source_tower, bundle.tower, el) for el in bundle.elements]
