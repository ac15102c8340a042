import functools
import gc
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SMALL_NAMES

import kocover
from kocover import (Complex, OpenCellSet, SimplicialMap, SubdivisionTower,
                     TowerDepthError, TowerError, TowerSizeError, builtin, dual_complex,
                     preimage, random_complex, star)
from kocover.complexes import CATALOG, components, simplex_complex
from kocover.tower import (cell_numbers_from_json, fubini, proper_faces,
                           vertex_set_from_json)


def chains_of(cells):
    """Independent chain enumerator: count nonempty chains in the face poset."""
    cells = sorted(cells, key=len)
    memo = {}
    for c in cells:
        memo[c] = 1 + sum(memo[f] for f in proper_faces(c) if f in memo)
    return sum(memo.values())


def test_bary_of_triangle():
    t = SubdivisionTower(builtin("delta-2"))
    lvl1 = t.cells(1)
    verts = [c for c in lvl1 if len(c) == 1]
    tops = [c for c in lvl1 if len(c) == 3]
    assert len(verts) == 7
    assert len(tops) == 6


def test_bary_of_vertex_is_vertex():
    t = SubdivisionTower(builtin("point"))
    for lvl in range(3):
        assert t.cells(lvl) == [(0,)]


def test_barycentric_deepens_by_one():
    t = SubdivisionTower(builtin("delta-2"))
    t.level(1)
    assert len(t._levels) == 2
    t.level(2)
    assert len(t._levels) == 3
    # flags at the new top satisfy the chain characterization
    lv = t.level(2)
    # its vertices are the level-1 cells, numbered by the same table
    assert lv.verts is t.cells(1) and lv.vert_id is t.cell_index(1)
    for cell in t.cells(2):
        members = sorted((lv.verts[v] for v in cell), key=len)
        for a, b in zip(members, members[1:]):
            assert set(a) < set(b)


def test_flag_count_identity():
    for name in ("delta-2", "s1", "boundary-delta-3"):
        t = SubdivisionTower(builtin(name))
        for lvl in range(3):
            assert len(t.cells(lvl + 1)) == chains_of(t.cells(lvl))
            assert t.count_cells(lvl + 1) == len(t.cells(lvl + 1))


@pytest.mark.parametrize("name", ["delta-2", "s1", "boundary-delta-3", "torus-7"])
def test_euler_constant_across_levels(name):
    t = SubdivisionTower(builtin(name))
    chi = t.base.euler_characteristic()
    for lvl in range(4):
        assert t.euler_characteristic(lvl) == chi


@given(st.integers(1, 2), st.integers(3, 6), st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_euler_constant_random(dim, nverts, seed):
    cx = random_complex(dim, nverts, seed)
    t = SubdivisionTower(cx)
    chi = cx.euler_characteristic()
    assert t.euler_characteristic(1) == chi
    assert t.euler_characteristic(2) == chi


def test_carrier_laws():
    t = SubdivisionTower(builtin("delta-2"))
    for lvl in (1, 2):
        lv = t.level(lvl)
        for cell in t.cells(lvl):
            carrier = t.carrier_down(lvl, cell)
            # the carrier is the chain maximum: every member is a face of it
            for v in cell:
                assert set(lv.verts[v]) <= set(carrier)
            # carrier of a face is a face-or-equal of the carrier
            for f in proper_faces(cell):
                assert set(t.carrier_down(lvl, f)) <= set(carrier)
            # carriers compose
            assert t.carrier(lvl, cell, 0) == t.carrier0(lvl, cell)


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(0, 2),
       density=st.floats(0.05, 0.95), rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_carrier_dim_never_rises_to_a_face(small_towers, name, level, density, rng):
    # why a push, whose image is a face of its source, never raises the
    # base-carrier dimension
    t = small_towers[name]
    for cell in (c for c in t.cells(level) if rng.random() < density):
        d = t.carrier0_dim(level, cell)
        assert all(t.carrier0_dim(level, f) <= d for f in proper_faces(cell))


_LEVEL_CELLS: dict = {}


def level_cells(name, t):
    """The level-t cells of a complex, streamed once on a fresh tower."""
    if (name, t) not in _LEVEL_CELLS:
        _LEVEL_CELLS[name, t] = sorted(SubdivisionTower(builtin(name)).iter_cells(t))
    return _LEVEL_CELLS[name, t]


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(0, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cells_from_json_accepts_exactly_the_cells(small_towers, name, level, data):
    cells = level_cells(name, level)
    fresh = SubdivisionTower(builtin(name))
    n = len(fresh.level(level).verts)
    item = data.draw(st.one_of(
        st.sampled_from(cells).map(list),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True).map(sorted),
        st.lists(st.integers(-2, n + 1), max_size=4)))
    materialized = small_towers[name]
    materialized.cells(level)
    is_cell = tuple(item) in set(cells)
    for tower in (materialized, fresh):
        if is_cell:
            (i,) = cell_numbers_from_json(tower, level, [item])
            assert tower.cells(level)[i] == tuple(item)
        else:
            with pytest.raises(TowerError, match=f"is not a cell of level {level}"):
                cell_numbers_from_json(tower, level, [item])
    # decoding materialized the level
    assert fresh.level(level).cells_list == materialized.cells(level)


def test_cells_from_json_over_the_budget_is_a_size_error():
    # level 3 of delta-2 has 673 cells
    tower = SubdivisionTower(builtin("delta-2"), max_cells=200)
    with pytest.raises(TowerSizeError, match="level 3 has 673 cells"):
        cell_numbers_from_json(tower, 3, [[0]])


@pytest.mark.parametrize("verts", [[1, 0], [2, 2], [True], [-1], [7], ["a"]])
def test_vertex_set_from_json_refuses_non_vertices(verts):
    t = SubdivisionTower(builtin("delta-2"))  # level 1 has 7 vertices
    assert vertex_set_from_json(t, 1, {"kind": "explicit", "verts": [0, 6]}) == {0, 6}
    with pytest.raises(TowerError, match="level-1 vertex numbers"):
        vertex_set_from_json(t, 1, {"kind": "explicit", "verts": verts})


def test_cells_have_distinct_member_dimensions():
    # every cell is a chain, so its vertices have pairwise distinct
    # underlying dimensions; the lazy certificate path relies on this
    for name in ("delta-2", "boundary-delta-3"):
        t = SubdivisionTower(builtin(name))
        for lvl in (1, 2):
            lv = t.level(lvl)
            for cell in t.cells(lvl):
                dims = [lv.vdim[v] for v in cell]
                assert len(set(dims)) == len(dims)


def stack_descent(tower, t, tops, within=None):
    """The chains of tops as a stack descent from each top through faces of
    the current minimum, pushed largest first: an oracle independent of
    the memoized blocks of SubdivisionTower.chains."""
    vid = tower.level(t).vert_id
    for top in tops:
        if within is not None and top not in within:
            continue
        stack = [([vid[top]], top)]
        while stack:
            ids, mn = stack.pop()
            yield tuple(sorted(ids))
            stack.extend((ids + [vid[f]], f) for f in proper_faces(mn)
                         if within is None or f in within)


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(1, 3),
       top_density=st.floats(0.0, 1.0), within=st.one_of(st.none(), st.floats(0.0, 1.0)),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_chains_are_the_filtered_level_cells(small_towers, name, level, top_density,
                                             within, rng):
    t = small_towers[name]
    lower = t.cells(level - 1)
    tops = [c for c in lower if rng.random() < top_density]
    rng.shuffle(tops)
    keep = None if within is None else {c for c in lower if rng.random() < within}
    assert list(t.chains(level, tops, keep)) == list(stack_descent(t, level, tops, keep))
    lv = t.level(level)
    expected = [cell for cell in t.iter_cells(level)
                if t.carrier_down(level, cell) in tops
                and (keep is None or all(lv.verts[v] in keep for v in cell))]
    assert sorted(t.chains(level, tops, keep)) == sorted(expected)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_a_cell_ends_at_its_chain_maximum(name):
    # a level lists each cell after its faces, so a block's top has a
    # larger number than any vertex of a face's chain: a chain with that
    # top appended is sorted as built, and the top is its last vertex
    t = SubdivisionTower(builtin(name))
    rng = random.Random(name)
    for level in (1, 2, 3):
        cells = t.cells(level)
        assert list(t.level(level).tops) == [c[-1] for c in cells]
        assert all(list(c) == sorted(set(c)) for c in cells)
        lower = t.cells(level - 1)
        tops = rng.sample(lower, len(lower) // 2)
        keep = {c for c in lower if rng.random() < 0.7}
        assert all(list(c) == sorted(set(c)) for c in t.chains(level, tops, keep))


def test_streamed_cells_follow_the_stack_descent():
    # level 3 is streamed, not materialized, on a fresh tower
    for name in SMALL_NAMES:
        t = SubdivisionTower(builtin(name))
        assert list(t.iter_cells(3)) == list(stack_descent(t, 3, t.cells(2)))
        assert t.level(3).cells_list is None


@pytest.mark.parametrize("name, t", [("boundary-delta-4", 2), ("torus-7", 4)])
def test_materializing_a_level_leaves_no_garbage(name, t):
    # a block memo held in a recursive closure is a reference cycle that
    # keeps every block alive until the cycle collector runs
    tower = SubdivisionTower(builtin(name), max_level=t + 1)
    gc.collect()
    gc.disable()
    try:
        tower.cells(t)
        tower.level(t + 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


# levels of at most this many cells are checked cell by cell
ORACLE_CELLS = 100_000


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_tops_and_vbase_are_the_chain_maxima(name):
    tower = SubdivisionTower(builtin(name), max_cells=ORACLE_CELLS)
    assert tower.level(1).vbase == tower.cells(0)
    for t in range(1, tower.max_level + 1):
        try:
            cells = tower.cells(t)
        except TowerSizeError:
            break
        lv = tower.level(t)
        assert list(lv.tops) == [max(c, key=lv.vdim.__getitem__) for c in cells]
        if t < tower.max_level:
            assert tower.level(t + 1).vbase == [tower.carrier(t, c, 0) for c in cells]


def face_memo_counts(tower, t):
    """Reference for SubdivisionTower._chain_counts: the chains with each
    level-(t-1) cell as maximum, by a memo over its proper faces."""
    lower = tower.cells(t - 1)
    memo = {}
    for c in sorted(lower, key=len):
        memo[c] = 1 + sum(map(memo.__getitem__, proper_faces(c)))
    return list(map(memo.__getitem__, lower))


def test_fubini_numbers():
    assert fubini(6) == [1, 1, 3, 13, 75, 541, 4683]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_chain_counts_are_the_face_memo_counts(name):
    # every catalog level up to 3 that fits the oracle budget
    tower = SubdivisionTower(builtin(name), max_cells=ORACLE_CELLS)
    for t in range(1, 4):
        try:
            counts = face_memo_counts(tower, t)
        except TowerSizeError:
            break
        assert tower._chain_counts(t) == counts
        assert tower.count_cells(t) == sum(counts)


@given(st.integers(1, 3), st.integers(4, 7), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_chain_counts_of_random_complexes(dim, nverts, seed):
    tower = SubdivisionTower(random_complex(dim, nverts, seed), max_cells=20_000)
    for t in range(1, 3):
        assert tower._chain_counts(t) == face_memo_counts(tower, t)


@functools.lru_cache(maxsize=None)
def catalog_level(name, t):
    """A tower of a catalog complex with level t materialized, or None
    when the level is over the oracle budget."""
    tower = SubdivisionTower(builtin(name), max_cells=ORACLE_CELLS)
    try:
        tower.cells(t)
    except TowerSizeError:
        return None
    return tower


@given(name=st.sampled_from(sorted(CATALOG)), t=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_set_from_numbers_is_the_eager_gather(name, t, data):
    tower = catalog_level(name, t)
    if tower is None:
        return
    cells = tower.cells(t)
    numbers = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=60))
    repeats = data.draw(st.lists(st.sampled_from(numbers), max_size=10)) if numbers else []
    out = OpenCellSet.from_numbers(tower, t, numbers + repeats)
    # each number kept once, and the order of the given numbers kept when
    # none repeats
    assert sorted(out.numbers()) == sorted(set(numbers))
    if not repeats and len(set(numbers)) == len(numbers):
        assert list(out.numbers()) == numbers
    assert out.is_empty() == (not numbers)
    assert out.dim() == max((len(cells[i]) - 1 for i in numbers), default=-1)
    assert out.to_json() == OpenCellSet(tower, t, map(cells.__getitem__, numbers)).to_json()
    # the first read of the cells gathers the eager set, once, from the
    # level's own tuples
    gathered = out.cells
    assert gathered == frozenset(map(cells.__getitem__, numbers))
    assert out.cells is gathered
    position = tower.cell_index(t)
    assert all(c is cells[position[c]] for c in gathered)


def python_loop_index(tower, t):
    """Face pairs and base-carrier numbers of the level-t cells, by a loop
    over each cell's proper faces and a walk down its carriers."""
    cells = tower.cells(t)
    position = {c: i for i, c in enumerate(cells)}
    pairs = [(i, position[f]) for i, c in enumerate(cells) for f in proper_faces(c)]
    base = tower.cell_index(0)
    return pairs, [base[tower.carrier(t, c, 0)] for c in cells]


def assert_index_matches_the_loop(tower, t):
    import numpy as np
    index = tower.index(t)
    assert index is tower.level(t).index
    pairs, carrier = python_loop_index(tower, t)
    assert list(zip(index.face_cell.tolist(), index.face.tolist())) == pairs
    assert index.carrier.tolist() == carrier
    assert index.size.tolist() == list(map(len, tower.cells(t)))
    # every table the index gathers or scatters through is intp
    tables = (index.face_cell, index.face, index.carrier, index.block, index.block_start,
              index.block_cell, index.block_face)
    assert {table.dtype for table in tables} == {np.dtype(np.intp)}


@pytest.mark.parametrize("name, t", [("point", 2), ("s1", 3), ("delta-2", 4),
                                     ("boundary-delta-3", 3), ("torus-7", 3),
                                     ("rp2-6", 3), ("s1-x-s1", 3), ("delta-3", 2),
                                     ("boundary-delta-4", 2), ("delta-4", 1)])
def test_cell_index_matches_the_python_loop(name, t):
    tower = SubdivisionTower(builtin(name))
    # the index is built from the one below without listing its level
    tower.index(t)
    assert t == 0 or tower.level(t).cells_list is None
    assert_index_matches_the_loop(tower, t)
    for s in range(t + 1):
        assert_index_matches_the_loop(tower, s)


def test_an_index_reads_its_level_tables_in_place():
    # boundary-delta-3 level 4 (15,554 cells): block and block_start are the
    # level's tops and starts, not copies of them, and the tables that are
    # never an index stay narrow
    import numpy as np
    tower = SubdivisionTower(builtin("boundary-delta-3"))
    index, lv = tower.index(4), tower.level(4)
    assert len(index.block) == 15_554
    for table, numbers in ((index.block, lv.tops), (index.block_start, lv.starts)):
        assert table.dtype == np.intp
        assert np.shares_memory(table, np.frombuffer(numbers, dtype=numbers.typecode))
    assert index.size.dtype == index.block_size.dtype == np.int32


def assert_templates_match_the_oracles(cx, max_cells, rng):
    """Every level of cx within max_cells, built from the block templates,
    against the stack descent: its cells, tops and vbase on a tower that
    lists it, the face pairs, sizes and carriers of a CellIndex built on a
    fresh tower without listing it, and chains over random tops and a
    random within set."""
    tower = SubdivisionTower(cx, max_cells=max_cells)
    fresh = SubdivisionTower(cx, max_cells=max_cells)
    for t in range(1, tower.max_level + 1):
        if tower.count_cells(t) > max_cells:
            break
        lower = tower.cells(t - 1)
        cells = tower.cells(t)
        assert cells == list(stack_descent(tower, t, lower))
        lv = tower.level(t)
        assert list(lv.tops) == [max(c, key=lv.vdim.__getitem__) for c in cells]
        position = tower.cell_index(t)
        assert list(lv.starts) == [position[v,] for v in range(len(lower))]
        if t < tower.max_level:
            assert tower.level(t + 1).vbase == [tower.carrier(t, c, 0) for c in cells]
        index = fresh.index(t)
        assert fresh.level(t).cells_list is None
        pairs, carrier = python_loop_index(tower, t)
        assert list(zip(index.face_cell.tolist(), index.face.tolist())) == pairs
        assert index.carrier.tolist() == carrier
        assert index.size.tolist() == list(map(len, cells))
        assert index.block_start.tolist() == list(lv.starts)
        tops = rng.sample(lower, len(lower) // 3)
        within = {c for c in lower if rng.random() < 0.7}
        for keep in (None, within):
            assert list(tower.chains(t, tops, keep)) == list(stack_descent(tower, t, tops, keep))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_template_levels_match_the_stack_descent(name):
    # every catalog level within the oracle budget
    assert_templates_match_the_oracles(builtin(name), ORACLE_CELLS, random.Random(name))


@given(st.integers(1, 3), st.integers(4, 7), st.integers(0, 10 ** 6),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_template_levels_of_random_complexes(dim, nverts, seed, rng):
    assert_templates_match_the_oracles(random_complex(dim, nverts, seed), 10_000, rng)


def test_cells_at_gathers_blocks_without_listing_the_level():
    tower = SubdivisionTower(builtin("torus-7"))
    cells = SubdivisionTower(builtin("torus-7")).cells(3)
    numbers = random.Random(3).sample(range(len(cells)), 500) + [0, len(cells) - 1]
    assert tower.cells_at(3, numbers) == [cells[i] for i in numbers]
    assert tower.level(3).cells_list is None
    assert tower.sized(3) == len(cells)


def test_an_over_budget_level_is_refused_unlisted():
    # level 3 of delta-2 has 673 cells: sizing it for an index or a set
    # made from numbers is refused as listing it is
    for make in (lambda t: t.index(3), lambda t: OpenCellSet.from_numbers(t, 3, [0]),
                 lambda t: t.cells(3)):
        tower = SubdivisionTower(builtin("delta-2"), max_cells=200)
        with pytest.raises(TowerSizeError,
                           match="^level 3 has 673 cells, over the materialization budget 200$"):
            make(tower)
        assert tower.level(3).count is None and tower.level(3).cells_list is None


def test_sizing_checks_the_budget_from_level_one_up_before_listing():
    # level 3 of the standard 3-simplex (61,649 cells) fits the budget and
    # level 4 does not: sizing level 4 or above is refused at level 4 from
    # the cell-size histograms, with only the base listed, and a level over
    # the depth cap is refused for its depth first
    tower = SubdivisionTower(simplex_complex(3), max_level=6)
    for t in (4, 5, 6):
        with pytest.raises(TowerSizeError, match="^level 4 has 1455585 cells, over "
                                                 "the materialization budget 600000$"):
            tower.sized(t)
        assert len(tower._levels) == 1
    assert tower.count_cells(4) == 1455585 and tower.count_cells(7) > 10 ** 9
    assert [tower.count_cells(t) for t in range(3)] == [len(tower.cells(t)) for t in range(3)]
    with pytest.raises(TowerDepthError):
        SubdivisionTower(simplex_complex(3), max_level=3).sized(5)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_blocks_are_the_runs_of_one_chain_maximum(name):
    # the facts CellIndex.components contracts whole blocks by: each block
    # is led by its singleton, sized by the count DP, and the block pairs
    # are the face pairs of the level below, each once
    tower = SubdivisionTower(builtin(name), max_cells=ORACLE_CELLS)
    index = tower.index(0)
    assert index.block.tolist() == index.block_start.tolist() == list(range(len(tower.cells(0))))
    assert set(index.block_size.tolist()) == {1}
    assert index.block_cell is index.face_cell and index.block_face is index.face
    for t in range(1, tower.max_level + 1):
        try:
            index = tower.index(t)
        except TowerSizeError:
            break
        lower = tower.cells(t - 1)
        assert index.block.tolist() == list(tower.level(t).tops)
        cells = tower.cells(t)
        assert all(cells[s] == (c,) for c, s in enumerate(index.block_start.tolist()))
        assert index.block_size.tolist() == tower._chain_counts(t)
        position = tower.cell_index(t - 1)
        pairs = sorted((i, position[f]) for i, c in enumerate(lower) for f in proper_faces(c))
        assert sorted(zip(index.block_cell.tolist(), index.block_face.tolist())) == pairs


# (complex, level) pairs for the components test: the small levels, on
# arrays whatever their size, and two wheel levels over
# tower.ARRAY_MIN_CELLS, one of them over 10,000 cells (15,554)
COMPONENT_LEVELS = [(name, t) for name in SMALL_NAMES for t in (0, 1, 2)] \
    + [("delta-2", 4), ("boundary-delta-3", 4)]


# towers of their own: materializing delta-2 level 4 on the session's
# small_towers would change which levels later tests find materialized
@pytest.fixture(scope="module")
def component_towers():
    return {name: SubdivisionTower(builtin(name)) for name in SMALL_NAMES}


def drawn_cells(tower, t, kind, density, rng):
    """A set of level-t cells of one kind: any subset, whole chain blocks,
    the complement of a small closed set (the shape of a wheel element), or
    the open star of some vertices."""
    cells = tower.cells(t)
    if kind == "subset":
        return [c for c in cells if rng.random() < density]
    if kind == "blocks":
        tops = tower.level(t).tops if t else range(len(cells))
        whole = [rng.random() < density for _ in range(max(tops, default=-1) + 1)]
        return [c for c, top in zip(cells, tops) if whole[top]]
    if kind == "closed-complement":
        seeds = rng.sample(cells, rng.randint(1, min(8, len(cells))))
        closed = {f for c in seeds for f in (c, *proper_faces(c))}
        return [c for c in cells if c not in closed]
    centers = {v for v in range(len(tower.level(t).verts)) if rng.random() < density}
    return [c for c in cells if not centers.isdisjoint(c)]


@given(level=st.sampled_from(COMPONENT_LEVELS),
       kind=st.sampled_from(["subset", "blocks", "closed-complement", "star"]),
       density=st.floats(0, 1), rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_components_over_whole_blocks_match_union_find(component_towers, level, kind,
                                                       density, rng):
    import numpy as np
    name, t = level
    tower = component_towers[name]
    cells = drawn_cells(tower, t, kind, density, rng)
    index, position = tower.index(t), tower.cell_index(t)
    numbers = [position[c] for c in cells]
    rng.shuffle(numbers)
    # as int32, the width of numbers at rest, and as intp, as the snap reads them
    root = index.components(np.array(numbers, dtype=np.int32))
    assert np.array_equal(index.components(np.array(numbers, dtype=np.intp)), root)
    parts = {}
    for p, r in zip(numbers, root.tolist()):
        parts.setdefault(r, set()).add(p)
    links = ((position[c], position[f]) for c in cells for f in proper_faces(c))
    inside = set(numbers)
    expected = components(numbers, ((a, b) for a, b in links if b in inside))
    assert sorted(map(sorted, parts.values())) == sorted(map(sorted, expected))
    assert all(r == min(part) for r, part in parts.items())


def test_dual_complex_examples():
    s2 = builtin("boundary-delta-3")
    t = SubdivisionTower(s2)
    d = dual_complex(t, 1)
    assert len(d.cells) == 4 and d.dim() == 0

    d2 = builtin("delta-2")
    t2 = SubdivisionTower(d2)
    d = dual_complex(t2, 0)
    # star graph: three edge barycenters joined to the face barycenter
    assert d.dim() == 1
    assert len([c for c in d.cells if len(c) == 1]) == 4
    assert len([c for c in d.cells if len(c) == 2]) == 3

    assert dual_complex(t2, 2).is_empty()


@pytest.mark.parametrize("name", ["delta-2", "delta-3", "boundary-delta-3",
                                  "boundary-delta-4", "s1", "torus-7", "rp2-6",
                                  "s1-x-s1", "s1-x-s2"])
def test_dual_dimension_law(name):
    cx = builtin(name)
    t = SubdivisionTower(cx)
    for m in range(cx.dim):
        d = dual_complex(t, m)
        assert d.dim() == cx.dim - m - 1


@pytest.mark.parametrize("name", ["delta-2", "delta-3", "boundary-delta-3", "s1"])
def test_dual_disjoint_from_skeleton(name):
    cx = builtin(name)
    t = SubdivisionTower(cx)
    for m in range(cx.dim):
        skel = {c for c in cx.cells() if len(c) - 1 <= m}
        d = dual_complex(t, m)
        assert all(t.carrier0(1, c) not in skel for c in d.cells)


def test_star_examples():
    d2 = builtin("delta-2")
    t = SubdivisionTower(d2)
    vstar = star(t, OpenCellSet(t, 0, [(0,)]), "open")
    # all flags through the vertex
    assert len(vstar.cells) == 6
    assert vstar.is_open()
    assert star(t, OpenCellSet(t, 0, []), "open").is_empty()
    closed = star(t, OpenCellSet(t, 0, [(0,)]), "closed")
    assert closed.is_closed()
    assert vstar.cells <= closed.cells


def _closed_cell_pairs(cx):
    """All pairs of disjoint single-cell closures, a tractable exhaustive
    family of disjoint closed sets."""
    cells = cx.cells()
    for a, b in itertools.combinations(cells, 2):
        if not (set(a) & set(b)):
            yield a, b


@pytest.mark.parametrize("name", ["delta-2", "boundary-delta-3", "s1", "torus-7"])
def test_disjoint_stars(name):
    """Open stars of disjoint closed sets never meet; closed stars become
    disjoint after refining the cores once more (the pre-subdivision that
    neighborhood constructions rely on)."""
    cx = builtin(name)
    t = SubdivisionTower(cx)
    pairs = list(_closed_cell_pairs(cx))[:40]
    for a, b in pairs:
        sa = OpenCellSet(t, 0, [a]).closure()
        sb = OpenCellSet(t, 0, [b]).closure()
        assert sa.point_disjoint(sb)
        open_a, open_b = star(t, sa, "open"), star(t, sb, "open")
        assert open_a.point_disjoint(open_b)
        # refined cores have closure-disjoint stars one level further down
        ra = OpenCellSet(t, 1, [c for c in t.cells(1)
                                if sa.contains_at(1, c)]).closure()
        rb = OpenCellSet(t, 1, [c for c in t.cells(1)
                                if sb.contains_at(1, c)]).closure()
        ca, cb = star(t, ra, "closed"), star(t, rb, "closed")
        assert ca.point_disjoint(cb)


def test_adjacent_vertices_show_closed_star_sharpness():
    # the closed stars of two adjacent vertices meet at the edge barycenter
    # after one subdivision, which is why the refinement step above exists
    cx = Complex(["a", "b"], [["a", "b"]])
    t = SubdivisionTower(cx)
    sa = OpenCellSet(t, 0, [(0,)])
    sb = OpenCellSet(t, 0, [(1,)])
    ca = star(t, sa, "closed")
    cb = star(t, sb, "closed")
    assert not ca.point_disjoint(cb)


def test_preimage_examples():
    d2 = builtin("delta-2")
    t = SubdivisionTower(d2)
    ident = SimplicialMap.identity(d2)
    s = OpenCellSet(t, 0, [(0,), (0, 1)])
    assert preimage(ident, t, t, s).cells == s.cells

    s1 = builtin("s1")
    ts = SubdivisionTower(s1)
    const = SimplicialMap.constant(s1, d2, "a")
    vstar = star(t, OpenCellSet(t, 0, [(0,)]), "open")
    # pulling the open vertex star back along a constant map gives everything
    lifted = OpenCellSet(t, 1, vstar.cells)
    pre = preimage(const, ts, t, lifted)
    assert pre.cells == frozenset(ts.cells(1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_preimage_preserves_two_covers(seed):
    import random
    rng = random.Random(seed)
    cx = random_complex(rng.randrange(1, 3), rng.randrange(4, 7), rng.randrange(10 ** 6))
    target = builtin("delta-2")
    mapping = {v: rng.choice(target.vertices) for v in cx.vertices}
    try:
        f = SimplicialMap(cx, target, mapping)
    except Exception:
        return  # random vertex maps are not always simplicial toward delta-2
    tt = SubdivisionTower(target)
    ts = SubdivisionTower(cx)
    cells = list(target.cells())
    half = len(cells) // 2 + 1
    u = OpenCellSet(tt, 0, cells[:half] + cells[-1:])
    v = OpenCellSet(tt, 0, cells[half - 1:])
    # multiply covered downstairs stays multiply covered upstairs
    for c in ts.cells(0):
        img = ts.map_cell(tt, f, 0, c)
        up = sum(1 for s in (u, v) if f and preimage(f, ts, tt, s).contains(c))
        down = sum(1 for s in (u, v) if s.contains(img))
        assert up == down


def test_depth_cap(monkeypatch):
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", "2")
    t = SubdivisionTower(builtin("delta-2"))
    assert t.max_level == 2
    t.cells(2)
    with pytest.raises(TowerDepthError):
        t.cells(3)


# sha256 over "name level cells" of every catalog complex at levels 0-3
# that fit the cell budget. A level's dense cell numbers are positions in
# cells(t), so this order must follow from the complex alone.
CELL_ORDER_SHA256 = "779a6b02391cbfaba0d8de9809371cb1a83630f6d58d28cc165cd516624ddb00"

_ORDER_SCRIPT = """
import hashlib
from kocover import SubdivisionTower, TowerSizeError, builtin
from kocover.complexes import CATALOG

digest = hashlib.sha256()
for name in sorted(CATALOG):
    tower = SubdivisionTower(builtin(name))
    for level in range(4):
        try:
            cells = tower.cells(level)
        except TowerSizeError:
            break
        digest.update(f"{name} {level} {cells}\\n".encode())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_cell_order_does_not_depend_on_the_hash_seed(hashseed):
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [CELL_ORDER_SHA256]
