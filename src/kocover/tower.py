"""Iterated barycentric subdivision towers with carrier tracking.

Level 0 is the base complex. A vertex of level t+1 is a cell of level t
(structural identity, so carrier maps are table lookups), and a cell of
level t+1 is a chain of level-t cells, stored as a strictly increasing
tuple of vertex ids. Chain elements have pairwise distinct dimensions, so
the inclusion order of a chain is recovered by sorting on dimension.

Deep levels explode factorially. Levels are sized and materialized
lazily and only up to a cell budget; one level beyond the last
materialized level can still be enumerated by streaming chains of the
level below. Decoded cells live on a materialized level.

A level is read two ways: its cell tuples come from its listing,
cells(t), and its cell numbers, their positions there, go through its
CellIndex. An OpenCellSet on a sized level carries its cell numbers as
an array('i'). A set made from numbers (the wheel builder's, the arc
builder's, a materialized star's, a decoded one) keeps only those
numbers, each once, and reads its cell tuples from the level's listing
on the first read of its cells; any other set looks its numbers up
once, on first use. The signature walk and a snap on a CellIndex read
only the numbers, so a wheel element is built and verified without a
cell tuple of its level.

Each level is built from the tables of the level below, faces first. The
chains with one maximum c, the block of c, are contiguous, and a level
lists the blocks of the lower cells in order. Every lower cell is a
simplex whose faces all lie on its level, so its block is the same for
every cell with k vertices: the chains of a (k-1)-simplex's faces that
end at the simplex, a Fubini number of them (1, 3, 13, 75, 541, ...).
One template per k, built on first use, holds them as face slots in
block order, and a block is one gather over the vertex numbers of its
cell's faces. The counts size a level before it is built, with no walk
over faces: the budget is checked level by level on cell-size
histograms, which need level 0 alone, and a sized level has its tops
table, the chain-maximum vertex of
every cell (each lower cell's number repeated by its count), and the
first cell of every block, checked against the cell budget, and lists
its cell tuples only when something reads them. Through tops, the base
carriers of the next level's vertices, the membership tables of the
signature walk and the base carriers of a CellIndex are gathers, not a
maximum per cell.

CellIndex is where kocover starts using arrays: numpy is imported when one
is built, not when this module loads, so materializing levels, their tops,
the chain counts and the cell numbers of a set never load it. One dtype
rule holds: cell numbers at rest (a set's numbers, a decoded set, the
bundle bytes) are array('i'), and every table that numpy gathers or
scatters through is intp, which numpy would otherwise copy an int32
index to on every gather. A level's tops and starts are such tables,
held at pointer width so that an index reads them in place, and
index_array and numbers_array are the one place where numbers at rest
and index tables are converted. A CellIndex indexes one whole sized
level, built once (tower.index) from the index of the level below, whose
face table gives every block's face cells: the template of each cell
size names the face (its maximum's slot and its position in that slot's
block) of every chain, so the face pairs are gathers and no level-t
tuple is read. A wheel level is searched, walked and snapped on its
index without listing its cells. The components of a set are labelled on
compact nodes, so their cost scales with chain blocks, not cells: a
block the set holds whole is one node, joined to another whole block
through the face pair of their maxima and to every present cell of a
block of a face of its maximum, and only the face pairs of the present
cells of blocks held in part are read cell by cell.
One size rule, ARRAY_MIN_CELLS, decides where arrays
are used: only on a level of more than 1,000 cells. A signature walk or
a snap on a smaller level (is_small) runs in plain Python; both run on
a sized level only. A plain snap costs 4-5 us a cell
against 0.4-0.6 us on an index that exists (0.10-0.11 us on a wheel
element, which holds nearly every block whole), and an index takes 1-2 ms
to build, so at most about 5 ms at the rule, well under the 100-120 ms
that importing numpy adds to a fresh process; every wheel level has 3,937
cells or more (delta-2 level 4: 1.3-1.5 ms indexed on a random 80%
carrier, 15-17 ms plain).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .complexes import Complex, ComplexError, SimplicialMap, UsageError

if TYPE_CHECKING:
    import numpy as np

CellT = tuple[int, ...]

DEFAULT_MAX_LEVEL = 4
DEFAULT_MAX_CELLS = 600_000
# a signature walk or a snap runs on a CellIndex only on a sized
# level of more than this many cells; on any other level it runs in plain
# Python (a few ms at most, well under the numpy import it saves a fresh
# process)
ARRAY_MIN_CELLS = 1_000
# a level's tops and starts are index tables at rest: 8-byte numbers, numpy's
# intp on a 64-bit host, so a CellIndex reads them in place (index_array)
_INDEX_TYPECODE = "q"


class TowerError(UsageError):
    """Invalid tower operation."""


class TowerDepthError(TowerError):
    """A requested level exceeds the configured subdivision depth cap."""


class TowerSizeError(TowerError):
    """A level is too large to materialize under the cell budget."""

    def __init__(self, level: int, count: int, budget: int):
        super().__init__(f"level {level} has {count} cells, over the "
                         f"materialization budget {budget}")
        self.level = level


def max_level_from_env() -> int:
    raw = os.environ.get("KO_COVER_MAX_LEVEL", "")
    if raw and not raw.isdecimal():
        raise TowerError(f"KO_COVER_MAX_LEVEL={raw!r} is not a non-negative integer")
    return int(raw) if raw else DEFAULT_MAX_LEVEL


@functools.cache
def _surjections(j: int, k: int) -> int:
    """k! S(j, k), the maps of a j-set onto a k-set: the chains of k faces
    of a (j-1)-simplex that end at the simplex."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** j for i in range(k + 1))


def proper_faces(cell: CellT) -> Iterator[CellT]:
    """Nonempty proper faces of a cell, largest first."""
    for k in range(len(cell) - 1, 0, -1):
        yield from itertools.combinations(cell, k)


class _Template:
    """The block of a cell with k vertices, the same for every such cell.

    A face of the cell is named by its slot: slot s < 2^k - 2 is the s-th
    proper face in proper_faces order, slot 2^k - 2 the cell itself. slots
    lists the chains of the block in block order, each as the slots of its
    members from the smallest up: a level lists each cell after its faces,
    so their vertex numbers then increase. The block of a cell c is the
    singleton (c,) followed, for each face f of c from the smallest up, by
    every chain of f's block with c added. Chain 0 is the singleton; chain
    j + 1 is gathered by gathers[j].
    """

    def __init__(self, k: int):
        simplex = tuple(range(k))
        self.faces = [*proper_faces(simplex), simplex]
        self.slot = {f: s for s, f in enumerate(self.faces)}
        # every face's block, chains as tuples of faces, faces first
        self.blocks: dict[CellT, list[tuple[CellT, ...]]] = {}
        for f in sorted(self.faces, key=len):
            self.blocks[f] = [(f,)] + [ch + (f,) for g in reversed(list(proper_faces(f)))
                                       for ch in self.blocks[g]]
        self.slots = [tuple(map(self.slot.__getitem__, ch)) for ch in self.blocks[simplex]]
        self.gathers = [operator.itemgetter(*s) for s in self.slots[1:]]

    @functools.cached_property
    def face_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(size, slot, position): the vertex count of every chain of the
        block, and for each chain in block order, its proper faces in
        proper_faces order, each the slot of the face's maximum and its
        position in that slot's block."""
        import numpy as np
        position = {ch: p for block in self.blocks.values() for p, ch in enumerate(block)}
        faces = [sub for ch in self.blocks[self.faces[-1]] for sub in proper_faces(ch)]
        return (np.array(list(map(len, self.slots)), dtype=np.int32),
                np.array([self.slot[sub[-1]] for sub in faces], dtype=np.intp),
                np.array(list(map(position.__getitem__, faces)), dtype=np.intp))


_template = functools.cache(_Template)  # built on first use, once per k


def _block(vid: dict[CellT, int], c: CellT) -> list[CellT]:
    """The level-t cells with maximum c, a level-(t-1) cell: one gather
    from its template over the vertex numbers vid gives c's faces."""
    ids = [*map(vid.__getitem__, proper_faces(c)), vid[c]]
    return [(ids[-1],), *[g(ids) for g in _template(len(c)).gathers]]


class _Level:
    """Vertex tables for one tower level.

    verts[i] is the underlying object of vertex i: the base vertex index at
    level 0, and the level-(t-1) cell at level t, so that verts and its
    inverse vert_id are the lower level's cells_list and cell_index. vdim
    is the dimension of that underlying cell; vbase is the base cell whose
    open cell contains the vertex point.

    Once the level is sized, count is its number of cells and, on levels 1
    and up, tops[i] is the chain maximum of cell i, the vertex of largest
    dimension, and starts[v] the number of the first cell of the block of
    vertex v, its singleton (v,). Both are index tables at pointer width,
    which the level's CellIndex reads in place. cells_list and cell_index,
    the cell tuples and their numbers, are listed only when read.
    """

    def __init__(self, t: int, verts: list, vert_id: dict, vdim: list[int],
                 vbase: list[CellT]):
        self.t = t
        self.verts = verts
        self.vert_id = vert_id
        self.vdim = vdim
        self.vbase = vbase
        self.count: int | None = None
        self.tops: array | None = None
        self.starts: array | None = None
        self.cells_list: list[CellT] | None = None
        # position of each cell in cells_list, its dense cell number
        self.cell_index: dict[CellT, int] | None = None
        self.index: CellIndex | None = None


class SubdivisionTower:
    """Lazy chain of barycentric subdivisions of a base complex."""

    def __init__(self, base: Complex, max_level: int | None = None,
                 max_cells: int = DEFAULT_MAX_CELLS):
        self.base = base
        self.max_level = max_level_from_env() if max_level is None else max_level
        self.max_cells = max_cells
        verts = range(len(base.vertices))
        lvl0 = _Level(0, list(verts), dict(zip(verts, verts)), [0] * len(verts),
                      [(i,) for i in verts])
        lvl0.cells_list = list(base.cells())
        lvl0.count = len(lvl0.cells_list)
        lvl0.cell_index = dict(zip(lvl0.cells_list, range(lvl0.count)))
        self._levels: list[_Level] = [lvl0]

    # -- level materialization ------------------------------------------

    def _check_depth(self, t: int) -> None:
        if t < 0:
            raise TowerError("negative level")
        if t > self.max_level:
            raise TowerDepthError(
                f"level {t} exceeds the subdivision depth cap {self.max_level} "
                f"(KO_COVER_MAX_LEVEL)")

    def level(self, t: int) -> _Level:
        """Vertex tables at level t (cells of level t-1 must fit the budget)."""
        self._check_depth(t)
        while len(self._levels) <= t:
            s = len(self._levels) - 1
            lower_cells = self.cells(s)
            low = self._levels[s]
            # a vertex's base carrier is that of its cell's chain maximum
            vbase = (list(lower_cells) if s == 0
                     else list(map(low.vbase.__getitem__, low.tops)))
            self._levels.append(_Level(s + 1, lower_cells, self.cell_index(s),
                                       [len(c) - 1 for c in lower_cells], vbase))
        return self._levels[t]

    def sized(self, t: int) -> int:
        """The number of level-t cells, checked against the cell budget
        (TowerSizeError), with the level's tops and block starts; lists no
        level-t cell. The budget is checked on the cell-size histograms,
        level by level from level 1 up, before any level is listed: the
        lowest level over it is refused. The chains with one maximum are
        contiguous, so tops is each lower cell's number repeated by its
        chain count."""
        self._check_depth(t)
        if t >= len(self._levels) or self._levels[t].count is None:
            for s, hist in enumerate(self._size_histograms(t)):
                if s and sum(hist) > self.max_cells:
                    raise TowerSizeError(s, sum(hist), self.max_cells)
        lv = self.level(t)
        if lv.count is None:
            counts = self._chain_counts(t)
            lv.tops = array(_INDEX_TYPECODE, itertools.chain.from_iterable(
                map(itertools.repeat, range(len(counts)), counts)))
            lv.starts = array(_INDEX_TYPECODE, itertools.accumulate(counts, initial=0))
            lv.starts.pop()  # the total
            lv.count = len(lv.tops)
        return lv.count

    def cells(self, t: int) -> list[CellT]:
        """All cells of level t, listed (the level sized first, under the
        cell budget)."""
        self.sized(t)
        lv = self.level(t)
        if lv.cells_list is None:
            lv.cells_list = list(self.iter_cells(t))
        return lv.cells_list

    def is_small(self, t: int) -> bool:
        """Does level t, sized here under the cell budget, have at most
        ARRAY_MIN_CELLS cells? A walk or a snap on such a level runs in
        plain Python, on any other on the level's CellIndex."""
        return self.sized(t) <= ARRAY_MIN_CELLS

    def cell_index(self, t: int) -> dict[CellT, int]:
        """Dense number of every level-t cell: its position in cells(t).
        Built on first use, not when the level is listed: a bundle writer
        lists a level and never looks a cell up."""
        cells = self.cells(t)
        lv = self._levels[t]
        if lv.cell_index is None:
            lv.cell_index = dict(zip(cells, range(len(cells))))
        return lv.cell_index

    def index(self, t: int) -> "CellIndex":
        """The CellIndex of level t, built the first time it is asked for,
        with those of the levels below; sizes the level (guarded by the
        cell budget) and lists none of its cells."""
        self.sized(t)
        lv = self.level(t)
        if lv.index is None:
            lv.index = CellIndex(self, t)
        return lv.index

    def iter_cells(self, t: int) -> Iterator[CellT]:
        """Stream the cells of level t, the chains of level t-1 cells,
        without materializing them (level 0 is always listed)."""
        lv = self.level(t)
        if lv.cells_list is not None:
            yield from lv.cells_list
            return
        yield from self.chains(t, lv.verts)

    def chains(self, t: int, tops: Iterable[CellT]) -> Iterator[CellT]:
        """Level-t cells whose chain maximum is in tops (level t-1 cells):
        the block of each top, gathered from its cell size's template, in
        block order (the order of a descent from each top through faces of
        the current minimum)."""
        vid = self.level(t).vert_id
        for top in tops:
            yield from _block(vid, top)

    def _chain_counts(self, t: int) -> list[int]:
        """Number of level-t chains with each level-(t-1) cell as maximum,
        aligned with cells(t-1). A lower cell c is a simplex with all its
        faces on its level, so they are the chains of the faces of a
        simplex that end at c: sum over k of k! S(len(c), k), the chains of
        each length."""
        chains = [sum(_surjections(j, k) for k in range(j + 1))
                  for j in range(self.base.dim + 2)]
        return list(map(chains.__getitem__, map(len, self.cells(t - 1))))

    def _size_histograms(self, t: int) -> list[list[int]]:
        """For each level 0..t, its number of cells with k vertices at
        index k. A chain of k faces ending at a cell with j vertices is an
        ordered partition of those vertices into k blocks, so level s has
        sum over j of H[s-1][j] * k! S(j, k) cells with k vertices; only
        level 0 is read."""
        hist = [0] * (self.base.dim + 2)
        for c in self.cells(0):
            hist[len(c)] += 1
        out = [hist]
        for _ in range(t):
            hist = [sum(h * _surjections(j, k) for j, h in enumerate(hist))
                    for k in range(len(hist))]
            out.append(hist)
        return out

    def count_cells(self, t: int) -> int:
        """Exact cell count of level t, from the cell-size histograms;
        lists no level above 0."""
        return sum(self._size_histograms(t)[t])

    # -- carriers ----------------------------------------------------------

    def carrier_down(self, t: int, cell: CellT) -> CellT:
        """Minimal level-(t-1) cell carrying the open cell: the chain
        maximum, its last vertex, since a level lists each cell after its
        faces."""
        if t == 0:
            raise TowerError("level 0 has no lower carrier")
        return self.level(t).verts[cell[-1]]

    def carrier(self, t: int, cell: CellT, s: int) -> CellT:
        """Carrier of a level-t cell at level s <= t."""
        if s > t:
            raise TowerError("carrier target level above the cell's level")
        cur = cell
        for lvl in range(t, s, -1):
            cur = self.carrier_down(lvl, cur)
        return cur

    def low_vertices(self, t: int, r: int) -> frozenset[int]:
        """The level-t vertices whose underlying level-(t-1) cell has
        dimension at most r: the centres and keep set that r stands for."""
        return frozenset(v for v, d in enumerate(self.level(t).vdim) if d <= r)

    def carrier0(self, t: int, cell: CellT) -> CellT:
        return cell if t == 0 else self.level(t).vbase[cell[-1]]

    def carrier0_dim(self, t: int, cell: CellT) -> int:
        return len(self.carrier0(t, cell)) - 1

    def lift_base_vertex(self, v: int, t: int) -> int:
        """Vertex id at level t of a base vertex (iterated singleton cell)."""
        return self.barycenter((v,), t)

    def barycenter(self, cell: CellT, t: int) -> int:
        """Vertex id at level t of a base cell's barycenter (at level 0 the
        cell must be a vertex): the cell, then its iterated singleton."""
        for s in range(1, t + 1):
            cell = (self.level(s).vert_id[cell],)
        return cell[0]

    def euler_characteristic(self, t: int) -> int:
        return sum((-1) ** (len(c) - 1) for c in self.iter_cells(t))

    # -- induced maps against another tower --------------------------------

    def map_cell(self, other: "SubdivisionTower", fmap: SimplicialMap,
                 t: int, cell: CellT) -> CellT:
        """Image of a level-t cell under the subdivision of a simplicial map."""
        if t == 0:
            return fmap.image_cell(cell)
        lv = self.level(t)
        olv = other.level(t)
        imgs = {self.map_cell(other, fmap, t - 1, lv.verts[v]) for v in cell}
        return tuple(sorted(olv.vert_id[c] for c in imgs))


# -- dense cell index ----------------------------------------------------------


def index_array(numbers: array) -> np.ndarray:
    """Cell numbers at rest, an array('i') or a level's tops or starts, as
    an intp index table, the width numpy gathers and scatters with (an
    int32 index is cast to intp on every gather): read in place when the
    numbers are pointer width, else copied once."""
    import numpy as np
    return np.frombuffer(numbers, dtype=numbers.typecode).astype(np.intp, copy=False)


def numbers_array(table: np.ndarray) -> array:
    """The inverse of index_array for cell numbers at rest: an index table
    of cell numbers as an array('i'), from the bytes of its int32 copy."""
    import numpy as np
    return array("i", table.astype(np.int32).tobytes())


class CellIndex:
    """Face incidence, chain blocks and base carriers of the cells of one
    sized level t, by cell number, built from the index of level t-1
    without reading a level-t cell tuple.

    Every table read as an index (face, face_cell, block, block_start,
    carrier and the block pairs) is intp; size and block_size, which are
    never an index, are int32.

    size[i] is the number of vertices of cell i. The face pairs
    (face_cell[k], face[k]) list every cell with each of its proper faces,
    cell-major and each cell's faces in proper_faces order. carrier[i]
    numbers carrier0 of cell i among the base cells, and base_words holds
    the vertices of each base cell as packed 64-bit words: bit v % 64 of
    base_words[v // 64, b] is set when v is a vertex of base cell b, so a
    base cell takes ceil(V / 64) words on a base of V vertices. Every
    level shares level 0's table.

    The cells that share one chain maximum c, a cell of level t-1, form
    block c: block[i] is the block of cell i (the level's tops table, read
    in place, as block_start reads its starts), and block c is the
    block_size[c] cells from block_start[c] on, led by the singleton (c,). The block pairs (block_cell[k],
    block_face[k]) are the face pairs of level t-1: each is a 2-vertex
    cell, in the block of the pair's cell, whose other vertex is its face.
    At level 0 every cell is its own block and the block pairs are the
    face pairs.

    Above level 0 the face pairs are gathers. Cell j of block c is chain j
    of the template of c's vertex count k, and each of its proper faces is
    a chain of the block of one face f of c: f's slot in c and the chain's
    position in f's block are the template's, and the number of f is read
    from the face pairs of level t-1 (the slot of c itself is c).
    """

    def __init__(self, tower: SubdivisionTower, t: int):
        import numpy as np
        self.t = t
        if t == 0:
            cells, position = tower.cells(0), tower.cell_index(0)
            n = len(cells)
            self.size = np.fromiter(map(len, cells), dtype=np.int32, count=n)
            self.face = np.fromiter((position[f] for c in cells for f in proper_faces(c)),
                                    dtype=np.intp)
            self.block = self.block_start = self.carrier = np.arange(n, dtype=np.intp)
            self.block_size = np.ones(n, dtype=np.int32)
            verts = np.zeros((n, 64 * -(-len(tower.base.vertices) // 64)), dtype=bool)
            for i, c in enumerate(cells):
                verts[i, list(c)] = True
            self.base_words = np.ascontiguousarray(
                np.packbits(verts, axis=1, bitorder="little").view("<u8").T)
        else:
            low = tower.index(t - 1)
            lv = tower.level(t)
            self.block, self.block_start = index_array(lv.tops), index_array(lv.starts)
            self.block_size = np.bincount(self.block, minlength=len(self.block_start)
                                          ).astype(np.int32)
            self.carrier = low.carrier[self.block]
            self.base_words = low.base_words
            n = len(self.block)
            self.size = np.empty(n, dtype=np.int32)
            # the face pairs, block by block: one template per vertex count
            # (bincount, as np.unique imports numpy.ma: 0.5 MB resident)
            sizes = np.flatnonzero(np.bincount(low.size)).tolist()
            tables = {k: _template(k).face_table for k in sizes}
            width = np.zeros(max(sizes, default=0) + 1, dtype=np.intp)
            for k, (size, _, _) in tables.items():
                width[k] = int((2 ** size - 2).sum())
            self.face = np.empty(int(width[low.size].sum()), dtype=np.intp)
            low_width = 2 ** low.size - 2
            for k, (size, slot, pos) in tables.items():
                is_k = low.size == k
                lower = np.flatnonzero(is_k)
                # the numbers of the faces of each k-vertex cell, itself last
                faces = np.empty((len(lower), 2 ** k - 1), dtype=np.intp)
                faces[:, :-1] = low.face[np.repeat(is_k, low_width)].reshape(len(lower), -1)
                faces[:, -1] = lower
                self.size[np.repeat(is_k, self.block_size)] = np.tile(size, len(lower))
                self.face[np.repeat(is_k, width[low.size])] = \
                    (self.block_start[faces[:, slot]] + pos).ravel()
            self.block_cell, self.block_face = low.face_cell, low.face
        self.face_cell = np.repeat(np.arange(n, dtype=np.intp), 2 ** self.size - 2)
        if t == 0:
            self.block_cell, self.block_face = self.face_cell, self.face

    def components(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Connected components of the cells numbered pos, two of them
        joined when one is a face of the other, on compact nodes: the
        least cell of each node, ascending, and the root of each node, the
        node that leads its component.

        A block that pos holds whole is connected through its leading
        singleton, which is a face of each of its cells, so it is one
        node; each present cell of a block held in part is a node of its
        own. Nodes are numbered in the order of their least cells, so the
        root of a component, its least node, holds its least cell. A block
        is a run of cell numbers, so the node of a cell of pos is the last
        one whose least cell is not after it: searchsorted(least, pos,
        side="right") - 1, gathered only by a caller that needs it. Two
        cells of different blocks are a face pair only if the blocks'
        maxima are, so the edges are read block by block:

        * two whole blocks are joined when their maxima are a face pair of
          the level below (a block pair);
        * a whole block is joined to every present cell of the block of a
          face of its maximum, since that cell with the maximum added is
          in it: each such cell, and each such whole block, is joined to
          one of these whole blocks;
        * a present cell of a block held in part that no whole block lies
          over is joined to its present faces, read from the face pairs.
          Under a whole block W, every present face of a cell is joined to
          W already: its block is whole, and its maximum a face of W's, or
          its block is held in part under W too. So no other face pair is
          read.

        Min-label hooking with pointer jumping then runs on the nodes.
        parent[x] <= x always holds and jumping runs until every node
        points at a root, so each round hooks roots only; an edge whose
        ends share a root is dropped, and the loop ends when none is left,
        whatever the number of rounds. A wheel element holds nearly every
        block whole, so the nodes number about the level-3 cells plus the
        cells of partial blocks (4.4k against 19.6k cells on random:2:7
        level 4), and no face pair of a whole block is read.
        """
        import numpy as np
        least, u, v = self._node_graph(pos)
        parent = np.arange(len(least), dtype=np.intp)
        pu, pv = u, v  # every node is its own root
        while len(u):
            np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
            while True:
                jumped = parent.take(parent)  # intp, so no cast; take beats []
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
            pu, pv = parent.take(u), parent.take(v)
            split = np.flatnonzero(pu != pv)
            u, v, pu, pv = u[split], v[split], pu[split], pv[split]
        return least, parent

    def _node_graph(self, pos: np.ndarray) -> tuple[np.ndarray, ...]:
        """The nodes and edges that components(pos) labels: the least cell
        of each node, ascending, and the edges as two arrays of node
        numbers. A cell of a whole block follows its block's leading
        singleton, the last node led before it, so the running count of
        node leads numbers it with its block."""
        import numpy as np
        block, start = self.block, self.block_start
        at = block[pos]
        held = np.bincount(at, minlength=len(start))
        whole = held == self.block_size
        loose = pos[~whole[at]]  # the present cells of blocks held in part
        lead = np.zeros(len(block), dtype=bool)
        lead[start[whole]] = True
        lead[loose] = True
        node = np.cumsum(lead, dtype=np.intp) - 1
        head = node[start]  # the node of each whole block
        bc, bf = self.block_cell, self.block_face
        joined = whole[bc] & whole[bf]
        u, v = [head[bc[joined]]], [head[bf[joined]]]
        if len(loose):
            # over[c]: one whole block over block c, held in part. Every
            # loose cell of c is joined to it, and so is every other one
            joined = whole[bc] & (held[bf] > 0) & ~whole[bf]
            over = np.full(len(start), -1, dtype=np.intp)
            over[bf[joined]] = head[bc[joined]]
            up = over[block[loose]]
            under = up >= 0
            u += [head[bc[joined]], node[loose[under]]]
            v += [over[bf[joined]], up[under]]
            # every present face of a cell under a whole block is joined
            # to that block already; a face is present when its block is
            # whole or it leads a node of its own, as a loose cell does
            cell, face = self._loose_pairs(loose[~under])
            kept = whole[block[face]] | lead[face]
            u.append(node[cell[kept]])
            v.append(node[face[kept]])
        return np.flatnonzero(lead), np.concatenate(u), np.concatenate(v)

    def _loose_pairs(self, loose: np.ndarray) -> tuple[np.ndarray, ...]:
        """The face pairs of the cells loose, as (cell, face): each cell's
        face pairs are one run of the face table, 2^k - 2 long for a cell
        of k vertices."""
        import numpy as np
        count = 2 ** self.size[loose] - 2
        first = np.searchsorted(self.face_cell, loose)
        face = self.face[np.repeat(first - np.cumsum(count) + count, count)
                         + np.arange(count.sum())]
        return np.repeat(loose, count), face


# -- open cell sets ----------------------------------------------------------


def _distinct(numbers: array) -> array:
    """Cell numbers with each repeated one kept once: as given when none
    repeats, else sorted."""
    seen = set(numbers)
    return numbers if len(seen) == len(numbers) else array("i", sorted(seen))


class OpenCellSet:
    """A union of open cells at one tower level, stored explicitly.

    A set keeps its cells, a frozenset of cell tuples, and their numbers,
    their positions in cells(level), as an array('i'), each made from the
    other on first use. A set made from numbers (from_numbers,
    from_increasing and the decoder) holds only the numbers, each once
    (from_increasing's producers emit no number twice, so they are not
    hashed to find out), until its cells are read, and then reads them
    from the level's listing; any other set looks its numbers up once,
    when they are first asked for. The two come from one source either
    way, so they cannot disagree.
    """

    kind = "cells"

    def __init__(self, tower: SubdivisionTower, level: int, cells: Iterable[CellT]):
        self.tower = tower
        self.level = level
        self._cells: frozenset[CellT] | None = frozenset(cells)
        self._numbers: array | None = None

    @classmethod
    def from_numbers(cls, tower: SubdivisionTower, level: int,
                     numbers: Iterable[int]) -> "OpenCellSet":
        """The set of the level cells numbered by numbers, nonnegative
        positions in cells(level), a number given twice kept once; sizes
        the level and lists none of it."""
        tower.sized(level)
        return cls._numbered(tower, level, _distinct(array("i", numbers)))

    @classmethod
    def from_increasing(cls, tower: SubdivisionTower, level: int,
                        numbers: Iterable[int]) -> "OpenCellSet":
        """from_numbers for numbers that their producer emits strictly
        increasing (np.flatnonzero, or a filter over a level's positions in
        order), so that none repeats and none is hashed."""
        tower.sized(level)
        return cls._numbered(tower, level, array("i", numbers))

    @classmethod
    def from_json_cells(cls, tower: SubdivisionTower, level: int,
                        items: list) -> "OpenCellSet":
        """The set of the level cells listed in their JSON form, by the
        numbers that cell_numbers_from_json looks up, a cell listed twice
        kept once."""
        return cls._numbered(tower, level,
                             _distinct(cell_numbers_from_json(tower, level, items)))

    @classmethod
    def _numbered(cls, tower: SubdivisionTower, level: int,
                  numbers: array) -> "OpenCellSet":
        """The set of the level cells numbered by numbers, none of them
        given twice; its cells are gathered on first read."""
        out = cls(tower, level, ())
        out._cells, out._numbers = None, numbers
        return out

    @property
    def cells(self) -> frozenset[CellT]:
        """The cells, the level's own tuples for a set made from numbers."""
        if self._cells is None:
            self._cells = frozenset(self._members())
        return self._cells

    def _members(self) -> Iterable[CellT]:
        """The cells, without gathering a frozenset when there is none:
        for a set made from numbers, those of the level's listing."""
        if self._cells is None:
            return map(self.tower.cells(self.level).__getitem__, self._numbers)
        return self._cells

    def numbers(self) -> array:
        """The numbers of the cells, in no set order. Materializes the level;
        TowerError names a cell that is not one of cells(level)."""
        if self._numbers is None:
            position = self.tower.cell_index(self.level)
            try:
                self._numbers = array("i", map(position.__getitem__, self._cells))
            except KeyError as exc:
                raise TowerError(
                    f"{exc.args[0]} is not a cell of level {self.level}") from None
        return self._numbers

    # point membership works per cell: a finer cell lies in the set iff its
    # carrier at this level does
    def contains(self, cell: CellT) -> bool:
        return cell in self.cells

    def contains_at(self, t: int, cell: CellT) -> bool:
        if t < self.level:
            raise TowerError("cannot test a coarser cell against a finer set")
        return self.contains(self.tower.carrier(t, cell, self.level))

    def is_empty(self) -> bool:
        return not (self._cells if self._numbers is None else self._numbers)

    def materialize(self) -> "OpenCellSet":
        return self

    def closure(self) -> "OpenCellSet":
        out: set[CellT] = set()
        for c in self.cells:
            out.add(c)
            out.update(proper_faces(c))
        return OpenCellSet(self.tower, self.level, out)

    def is_closed(self) -> bool:
        return self.cells == self.closure().cells

    def is_open(self) -> bool:
        """Open means coface-closed within the level's cell universe."""
        for c in self.tower.cells(self.level):
            if c in self.cells:
                continue
            if any(f in self.cells for f in proper_faces(c)):
                return False
        return True

    def point_disjoint(self, other: "OpenCellSet") -> bool:
        """Two open-cell unions share a point iff they share a cell at a common level."""
        t = max(self.level, other.level)
        a, b = self, other
        if a.level == b.level:
            return not (a.cells & b.cells)
        fine, coarse = (a, b) if a.level == t else (b, a)
        return not any(coarse.contains_at(t, c) for c in fine.cells)

    def dim(self) -> int:
        return max(map(len, self._members()), default=0) - 1

    def iter_json(self) -> Iterator[str]:
        """The set's compact sorted-key JSON text, in pieces: its cells,
        sorted, are encoded CELLS_PER_PIECE at a time from their tuples."""
        return json_object({"cells": self._iter_cells_json(), "kind": "cells",
                            "level": self.level})

    def _iter_cells_json(self) -> Iterator[str]:
        cells = sorted(self._members())
        yield "["
        for i in range(0, len(cells), CELLS_PER_PIECE):
            # a tuple encodes as a JSON array: strip the chunk's brackets
            text = ENCODER.encode(cells[i:i + CELLS_PER_PIECE])
            yield text[1:-1] if i == 0 else "," + text[1:-1]
        yield "]"

    def to_json(self) -> dict:
        return json.loads("".join(self.iter_json()))

    def __repr__(self) -> str:
        size = len(self._cells if self._numbers is None else self._numbers)
        return f"OpenCellSet(level={self.level}, cells={size})"


class VertexStarSet:
    """Union of open vertex stars at one level, kept implicit.

    centers is either a frozenset of vertex ids at this level or an int
    r >= 0, meaning every vertex whose underlying level-(level-1) cell has
    dimension at most r (0: every vertex that was already a vertex one
    level down). Cells of the set are exactly the level cells meeting the
    center set.
    """

    kind = "star"

    def __init__(self, tower: SubdivisionTower, level: int,
                 centers: frozenset[int] | int):
        if level < 1:
            raise TowerError("vertex stars live at level 1 or deeper")
        tower._check_depth(level)
        self.tower = tower
        self.level = level
        self.centers = centers

    def contains(self, cell: CellT) -> bool:
        if isinstance(self.centers, int):
            vdim = self.tower.level(self.level).vdim
            return any(vdim[v] <= self.centers for v in cell)
        return not self.centers.isdisjoint(cell)

    def contains_at(self, t: int, cell: CellT) -> bool:
        if t < self.level:
            raise TowerError("cannot test a coarser cell against a finer set")
        return self.contains(self.tower.carrier(t, cell, self.level))

    def materialize(self) -> OpenCellSet:
        centers = self.tower.low_vertices(self.level, self.centers) \
            if isinstance(self.centers, int) else self.centers
        cells = self.tower.cells(self.level)
        return OpenCellSet.from_increasing(self.tower, self.level, itertools.compress(
            range(len(cells)), (not centers.isdisjoint(c) for c in cells)))

    def to_json(self) -> dict:
        return {"kind": "star", "level": self.level,
                "centers": vertex_set_to_json(self.centers)}

    def iter_json(self) -> Iterator[str]:
        yield ENCODER.encode(self.to_json())

    def __repr__(self) -> str:
        c = self.centers if isinstance(self.centers, int) else len(self.centers)
        return f"VertexStarSet(level={self.level}, centers={c})"


CellSet = OpenCellSet | VertexStarSet


# -- JSON forms ----------------------------------------------------------------
#
# Bundles store a level-t cell as its sorted level-t vertex numbers: vertex
# v of level t is cells(t-1)[v], and level 0 numbers the base vertices in
# the complex's own order, so the numbers follow from the complex alone.


def cell_encoder(tower: SubdivisionTower) -> Callable[[int, CellT], object]:
    """Encode a level-t cell as nested label lists, for human-readable
    output such as `kocover complex dual`."""

    def enc(t: int, cell: CellT):
        if t == 0:
            return [tower.base.vertices[i] for i in cell]
        lv = tower.level(t)
        return sorted(enc(t - 1, lv.verts[v]) for v in cell)

    return enc


# the one encoder of bundle text: compact, keys sorted
ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# explicit cells per encoded piece: enough to keep the calls few, few
# enough that a piece's lists are short-lived and small
CELLS_PER_PIECE = 256


def json_object(fields: dict) -> Iterator[str]:
    """The text ENCODER gives for the object fields, in pieces, keys
    sorted. A value is JSON data, encoded whole, or an iterator of the
    text pieces of one value, passed on as they come."""
    sep = "{"
    for name in sorted(fields):
        yield f"{sep}{ENCODER.encode(name)}:"
        value = fields[name]
        if isinstance(value, Iterator):
            yield from value
        else:
            yield ENCODER.encode(value)
        sep = ","
    yield "}" if fields else "{}"


def json_array(items: Iterable[Iterator[str]]) -> Iterator[str]:
    """The text of a JSON array from the text pieces of each item."""
    sep = "["
    for item in items:
        yield sep
        yield from item
        sep = ","
    yield "]" if sep == "," else "[]"


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def json_field(data: dict, name: str, kind: type, error: type[Exception]):
    """data[name], which must be present and an int that is not a bool
    (kind int), a list, an object (kind dict) or a string; otherwise error
    names the field. data itself must be an object."""
    if not isinstance(data, dict):
        raise error(f"expected an object with the field {name!r}, "
                    f"got {type(data).__name__}")
    if name not in data:
        raise error(f"bundle field {name!r} is missing")
    value = data[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error(f"bundle field {name!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def cell_numbers_from_json(tower: SubdivisionTower, t: int, items: list) -> array:
    """The numbers, positions in cells(t), of level-t cells in their JSON
    form, each the strictly increasing list of its level-t vertex numbers.
    Materializes level t (TowerSizeError over the cell budget) and raises
    TowerError at the first item that is not one of cells(t)."""
    index = tower.cell_index(t)
    numbers = array("i")
    for data in items:
        if type(data) is not list:
            raise TowerError(f"malformed cell {data!r}: a cell is a list of vertex numbers")
        cell = tuple(data)
        for v in cell:
            if type(v) is not int:  # True == 1 and 1.0 == 1 would hash alike
                break
        else:
            i = index.get(cell)
            if i is not None:
                numbers.append(i)
                continue
        raise TowerError(f"{data!r} is not a cell of level {t}")
    return numbers


def vertex_set_to_json(verts: frozenset[int] | int) -> dict:
    """Star centers or a push keep set as JSON: a center dimension by its
    kind, "old-vertices" for 0 (every vertex that was already a vertex one
    level down) and "low-vertices" with its "dim" otherwise, explicit
    vertex numbers as a sorted list."""
    if isinstance(verts, int):
        return {"kind": "low-vertices", "dim": verts} if verts else {"kind": "old-vertices"}
    return {"kind": "explicit", "verts": sorted(verts)}


def vertex_set_from_json(tower: SubdivisionTower, level: int,
                         data: dict) -> frozenset[int] | int:
    """Inverse of vertex_set_to_json; TowerError on an unknown kind, on a
    "low-vertices" dim that is not a positive int (0 is "old-vertices"),
    or unless the explicit list is strictly increasing vertex numbers of
    the level."""
    kind = json_field(data, "kind", str, TowerError)
    if kind == "old-vertices":
        return 0
    if kind == "low-vertices":
        dim = json_field(data, "dim", int, TowerError)
        if dim < 1:
            raise TowerError(f"bundle field 'dim' must be positive, got {dim!r}")
        return dim
    if kind != "explicit":
        raise TowerError(f"unknown vertex set kind {kind!r}")
    verts = json_field(data, "verts", list, TowerError)
    n = len(tower.level(level).verts)
    if not all(type(v) is int and 0 <= v < n for v in verts) \
            or not all(a < b for a, b in zip(verts, verts[1:])):
        raise TowerError(f"vertex set {verts!r} is not a strictly increasing "
                         f"list of level-{level} vertex numbers")
    return frozenset(verts)


# -- tower operations ----------------------------------------------------------


def dual_complex(tower: SubdivisionTower, m: int) -> OpenCellSet:
    """Full subcomplex of the first subdivision on barycenters of cells of
    dimension greater than m. Empty (not an error) when m >= dim."""
    if m < 0:
        raise ComplexError("dual skeleton dimension must be nonnegative")
    high = [c for c in tower.cells(0) if len(c) - 1 > m]
    if not high:
        return OpenCellSet(tower, 1, ())
    verts, keep = tower.level(1).verts, set(high)
    return OpenCellSet(tower, 1, (c for c in tower.chains(1, high)
                                  if all(verts[v] in keep for v in c)))


def star(tower: SubdivisionTower, core: CellSet, kind: str = "open") -> OpenCellSet:
    """Open star of a core set, one level deeper: all cells there having a
    vertex whose carrier cell lies in the closure of the core. The closed
    star is its downward closure."""
    if kind not in ("open", "closed"):
        raise TowerError("star kind must be 'open' or 'closed'")
    t = core.level
    closure_cells = core.materialize().closure().cells
    nxt = tower.level(t + 1)
    marked = frozenset(nxt.vert_id[c] for c in closure_cells)
    out = VertexStarSet(tower, t + 1, marked).materialize()
    if kind == "closed":
        out = out.closure()
    return out


def preimage(fmap: SimplicialMap, source_tower: SubdivisionTower,
             target_tower: SubdivisionTower, s: CellSet) -> OpenCellSet:
    """Preimage of an open cell set under a simplicial map, lifted through
    subdivisions to the set's level."""
    if fmap.target != target_tower.base:
        raise TowerError("set does not live on the map's target")
    t = s.level
    cells = [c for c in source_tower.cells(t)
             if s.contains(source_tower.map_cell(target_tower, fmap, t, c))]
    return OpenCellSet(source_tower, t, cells)
