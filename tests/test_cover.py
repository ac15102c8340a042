import functools
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import CATALOG_NAMES, PATHS, SMALL_NAMES, cover_grid, on_path

from kocover import (Complex, ConstructionError, CoverBundle, CoverError,
                     OpenCellSet, SimplicialMap, SubdivisionTower, TowerSizeError,
                     VertexStarSet, builtin, build_cover, cover_parameters,
                     cover_signatures, is_k_cover, pullback_cover,
                     random_complex, verify_cover_bundle)
from kocover.certify import Certificate, PartitionPush, Target
from kocover import cover
from kocover.cli import run
from kocover.complexes import simplex_complex
from kocover.cover import (_arc_paths, _edge_path_vertices, _k_cover,
                           check_certificate)
from kocover.tower import DEFAULT_MAX_CELLS, CellIndex


def three_point_family():
    cx = Complex(["a", "b", "c"], [["a"], ["b"], ["c"]])
    t = SubdivisionTower(cx)
    ab = OpenCellSet(t, 0, [(0,), (1,)])
    bc = OpenCellSet(t, 0, [(1,), (2,)])
    ca = OpenCellSet(t, 0, [(2,), (0,)])
    return t, [ab, bc, ca]


def test_signature_examples():
    cx = builtin("delta-2")
    t = SubdivisionTower(cx)
    whole = OpenCellSet(t, 0, cx.cells())
    sigs = cover_signatures(t, [whole, whole, whole])
    assert sigs == {d: {frozenset({0, 1, 2})} for d in range(3)}

    t, fam = three_point_family()
    sigs = cover_signatures(t, fam)
    assert sigs == {0: {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}}
    assert min(len(s) for ss in sigs.values() for s in ss) == 2


def test_signatures_match_naive_recount():
    rng = random.Random(7)
    for _ in range(25):
        cx = random_complex(rng.randrange(1, 3), rng.randrange(4, 7),
                            rng.randrange(10 ** 6))
        t = SubdivisionTower(cx)
        cells = list(cx.cells())
        fam = [OpenCellSet(t, 0, rng.sample(cells, rng.randrange(1, len(cells) + 1)))
               for _ in range(rng.randrange(2, 5))]
        naive = {d: {frozenset(i for i, s in enumerate(fam) if cell in s.cells)
                     for cell in cx.cells(d)}
                 for d in range(cx.dim + 1)}
        assert cover_signatures(t, fam) == naive


def test_signatures_without_a_streamable_top_level():
    # the signatures walk level 2, although level 3 is over the cell budget
    tower = SubdivisionTower(builtin("delta-2"), max_cells=200)
    fam = [VertexStarSet(tower, w, 0) for w in range(1, 5)]
    with pytest.raises(TowerSizeError, match="level 3 has 673 cells"):
        tower.cells(3)
    free = SubdivisionTower(builtin("delta-2"))
    assert cover_signatures(tower, fam) == \
        cover_signatures(free, [VertexStarSet(free, w, 0) for w in range(1, 5)])


@pytest.mark.parametrize("name", ["s1", "delta-2", "torus-7", "boundary-delta-3",
                                  "rp2-6", "s1-x-s1"])
def test_edge_paths_run_along_the_subdivided_edge(name):
    tower = SubdivisionTower(builtin(name))
    for t in range(1, 5):
        cells = tower.cell_index(t)
        vbase = tower.level(t).vbase
        for edge in tower.base.cells(1):
            path = _edge_path_vertices(tower, t, edge)
            assert len(path) == 2 ** t + 1
            assert path[0] == tower.lift_base_vertex(edge[0], t)
            assert path[-1] == tower.lift_base_vertex(edge[1], t)
            assert all(vbase[v] == edge for v in path[1:-1])
            assert all(tuple(sorted(p)) in cells for p in zip(path, path[1:]))


def test_is_k_cover_examples():
    _, fam = three_point_family()
    assert is_k_cover(fam, 2)
    assert not is_k_cover(fam, 1)
    cx = builtin("delta-2")
    t = SubdivisionTower(cx)
    whole = OpenCellSet(t, 0, cx.cells())
    for k in (1, 2, 3, 4):
        assert is_k_cover([whole] * 4, k)
    with pytest.raises(CoverError):
        is_k_cover(fam, 0)


def test_n_cover_equivalence_seeded():
    """Subfamily brute force agrees with the multiplicity criterion; the
    assertion lives inside is_k_cover, so this exercises many families."""
    rng = random.Random(123)
    runs = 0
    while runs < 120:
        cx = random_complex(rng.randrange(1, 3), rng.randrange(3, 8),
                            rng.randrange(10 ** 6), connected=False)
        t = SubdivisionTower(cx)
        cells = list(cx.cells())
        m = rng.randrange(2, 7)
        fam = []
        for _ in range(m):
            fam.append(OpenCellSet(
                t, 0, rng.sample(cells, rng.randrange(1, len(cells) + 1))))
        k = rng.randrange(1, m + 1)
        is_k_cover(fam, k)
        runs += 1


FEASIBLE = [
    ("s1", 0, 2), ("s1", 0, 3), ("s1", 0, 5),
    ("delta-2", 0, 3), ("delta-2", 0, 4), ("delta-2", 0, 5),
    ("boundary-delta-3", 0, 3), ("torus-7", 0, 4), ("rp2-6", 0, 3),
    ("boundary-delta-3", 1, 2), ("torus-7", 1, 2), ("s1-x-s1", 1, 2),
    ("delta-3", 1, 2), ("delta-3", 2, 2),
    ("s1", 1, 3), ("delta-2", 2, 4), ("point", 0, 2),
]


@pytest.mark.parametrize("name,r,m", FEASIBLE)
def test_build_cover_verifies(name, r, m):
    bundle = build_cover(builtin(name), r, m)
    assert bundle.m == m
    report = verify_cover_bundle(bundle)
    assert report.ok, [c for c in report.checks if not c.passed]
    if r == 0:
        for cert in bundle.certificates:
            assert cert.target == Target("skeletal", 0)


def test_build_cover_argument_errors():
    with pytest.raises(CoverError):
        build_cover(builtin("delta-2"), 0, 2)  # m below N
    disconnected = Complex(["a", "b", "c", "d"],
                           [["a", "b"], ["c", "d"]])
    with pytest.raises(CoverError):
        build_cover(disconnected, 0, 3)


def test_build_cover_infeasible_raises_diagnostics(monkeypatch):
    # at depth cap 6 the r = 1 star family's signature walk at m = 6 reads
    # level 4 of the standard 3-simplex, which is over the cell budget
    with monkeypatch.context() as patch:
        patch.setenv("KO_COVER_MAX_LEVEL", "6")
        with pytest.raises(ConstructionError,
                           match=r"reads level 4 of the standard 3-simplex, and "
                                 r"level 4 has 1455585 cells\b.*budget 600000"):
            build_cover(builtin("s1-x-s2"), 1, 6)
    # packing beyond the depth cap is only implemented up to dimension 2
    with pytest.raises(ConstructionError, match="graphs and surfaces"):
        build_cover(builtin("delta-3"), 0, 5)


def test_budget_refusal_names_the_walk_level_and_the_level_over_budget(monkeypatch):
    # at m = 7 the walk reads level 5 of the standard 3-simplex, whose
    # vertices are the cells of level 4, the level over the cell budget
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", "7")
    with pytest.raises(ConstructionError,
                       match=r"^verification at m=7 reads level 5 of the standard "
                             r"3-simplex, which needs level 4 listed, and level 4 "
                             r"has 1455585 cells, over the materialization budget "
                             r"600000$"):
        build_cover(builtin("s1-x-s2"), 1, 7)


def test_budget_refusal_lists_no_level_of_the_standard_simplex(monkeypatch):
    # the budget is checked on cell-size histograms before anything is
    # listed, so the refusal at m = 6 never lists level 3 (61,649 cells)
    # to count level 4; a fresh simplex tower shows what the build listed
    monkeypatch.setattr(cover, "_standard_tower",
                        functools.cache(cover._standard_tower.__wrapped__))
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", "6")
    with pytest.raises(ConstructionError, match=r"level 4 has 1455585 cells"):
        build_cover(builtin("s1-x-s2"), 1, 6)
    std = cover._standard_tower(3, 6, DEFAULT_MAX_CELLS)
    assert len(std._levels) == 1 and std.level(3).cells_list is None


@pytest.mark.parametrize("r,m", [(1, 5), (0, 6)])
def test_raised_cap_star_covers_build_and_verify(monkeypatch, r, m):
    # the walk on one flag cell reads level m-2 (r >= 1) or m-3 (r = 0) of
    # the standard 3-simplex: level 3, with 61,649 cells; the walk on the
    # whole simplex read level 4, over the cell budget
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", str(m))
    bundle = build_cover(builtin("s1-x-s2"), r, m)
    assert verify_cover_bundle(bundle).ok


def test_dual_star_bundle_verifies_without_its_top_level():
    # every certificate is read structurally and the walk reads level 1 of
    # the standard 3-simplex, so level 3 (2,171,712 cells) is never listed
    bundle = build_cover(builtin("s1-x-s2"), 1, 3)
    again = CoverBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    assert all(el.centers == 1 for el in again.elements)
    assert verify_cover_bundle(again).ok
    assert again.tower.level(3).cells_list is None


@pytest.mark.parametrize("name,r,m", [("s1-x-s2", 1, 4), ("boundary-delta-4", 0, 4)])
def test_star_bundles_list_no_level_of_their_own_tower(monkeypatch, tmp_path, capsys,
                                                       name, r, m):
    """Building, verifying, a JSON round trip and kcheck read the standard
    3-simplex's levels and list no level >= 1 of the bundle's tower (level
    3 of s1-x-s2 has 2,171,712 cells, over the cell budget). Of the
    standard 3-simplex they read no level past the flag-cell walk's: level
    1 (149 cells) for r = 0 and level 2 (2,745 cells) for r = 1."""
    cx = builtin(name)
    std = simplex_complex(cx.dim)
    listed, read = [], []
    cells = SubdivisionTower.cells

    def record(tower, t):
        if t >= 1 and tower.base == cx:
            listed.append(t)
        if tower.base == std:
            read.append(t)
        return cells(tower, t)

    monkeypatch.setattr(SubdivisionTower, "cells", record)
    bundle = build_cover(cx, r, m)
    assert verify_cover_bundle(bundle).ok
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle.to_json()))
    again = CoverBundle.from_json(json.loads(path.read_text()))
    assert verify_cover_bundle(again).ok
    assert run(["cover", "kcheck", "--in", str(path), "--k", str(m), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["is_k_cover"]
    assert listed == []
    assert max(read) == (m - 3 if r == 0 else m - 2)
    # level t >= 2 is built from the cells of level t-1, so this holds for all
    for tower in (bundle.tower, again.tower):
        assert tower.level(1).cells_list is None


def test_wheel_cover_structure():
    bundle = build_cover(builtin("delta-2"), 0, 5)
    assert bundle.construction == "wheel-cracks"
    assert all(el.level == 4 for el in bundle.elements)
    tower = bundle.tower
    # every element contains all base vertices and misses exactly one
    # interior vertex per base edge
    base_vert_cells = {(tower.lift_base_vertex(v, 4),) for v in range(3)}
    for el in bundle.elements:
        assert base_vert_cells <= el.cells
        for e in [c for c in bundle.complex.cells() if len(c) == 2]:
            missed = [c for c in tower.cells(4)
                      if c not in el.cells and tower.carrier0(4, c) == e]
            assert len(missed) == 1 and len(missed[0]) == 1
    # misses on edges never collide across elements
    edge_misses = [frozenset(c for c in tower.cells(4)
                             if c not in el.cells
                             and len(tower.carrier0(4, c)) == 2)
                   for el in bundle.elements]
    for a, b in itertools.combinations(edge_misses, 2):
        assert not (a & b)


@pytest.mark.parametrize("decoded", [False, True], ids=["built", "decoded"])
def test_verifying_a_decoded_wheel_bundle_builds_one_cell_index(monkeypatch, decoded):
    # the builder searches on level 4's one index and its snaps replay on
    # it; decoding materializes level 4, so the five snaps share its index.
    # Each index is built from the one below, so every level has one
    built = []
    init = CellIndex.__init__

    def counting_init(self, tower, t, *rest):
        built.append(t)
        init(self, tower, t, *rest)

    monkeypatch.setattr(CellIndex, "__init__", counting_init)
    bundle = build_cover(builtin("delta-2"), 0, 5)
    if decoded:
        bundle = CoverBundle.from_json(json.loads(json.dumps(bundle.to_json())))
        built.clear()
    assert verify_cover_bundle(bundle).ok
    assert built == [4, 3, 2, 1, 0]


def test_a_wheel_build_and_its_verification_read_no_element_cells(monkeypatch):
    # the builder makes its elements from numbers, and its snap checks,
    # the signature walk and the verifier's snaps read only those numbers,
    # so no element gathers the frozenset of its cell tuples
    read = []
    cells = OpenCellSet.cells

    def counting_cells(self):
        read.append(self)
        return cells.fget(self)

    monkeypatch.setattr(OpenCellSet, "cells", property(counting_cells))
    bundle = build_cover(builtin("delta-2"), 0, 5)
    assert verify_cover_bundle(bundle).ok
    assert read and not any(r is el for r in read for el in bundle.elements)


@pytest.mark.parametrize("spec, m", [("delta-2", 6), ("boundary-delta-3", 6),
                                     ("random:2:7:161751", 5)])
def test_a_wheel_build_and_its_verification_list_no_level_4_cell(spec, m):
    # the builder searches, and the signature walk and the snaps read, the
    # index of level 4, built from level 3's without a level-4 tuple
    bundle = build_cover(builtin(spec), 0, m)
    assert bundle.construction == "wheel-cracks"
    assert verify_cover_bundle(bundle).ok
    assert bundle.tower.level(4).cells_list is None
    assert bundle.tower.level(3).cells_list is not None


class CountingPositions(dict):
    """A level's cell numbers, counting every lookup of a cell."""

    lookups = 0

    def __getitem__(self, cell):
        self.lookups += 1
        return super().__getitem__(cell)

    def get(self, cell, default=None):
        self.lookups += 1
        return super().get(cell, default)

    def __contains__(self, cell):
        self.lookups += 1
        return super().__contains__(cell)


def test_verifying_a_decoded_wheel_bundle_looks_up_no_cell():
    # the decoder keeps the numbers it looks up, and the walk rows and the
    # snaps read them: after decoding, no level-4 cell is looked up again
    bundle = build_cover(builtin("delta-2"), 0, 5)
    bundle = CoverBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    lv = bundle.tower.level(4)
    lv.cell_index = counting = CountingPositions(lv.cell_index)
    assert verify_cover_bundle(bundle).ok
    assert bundle.tower.cell_index(4) is counting
    assert counting.lookups == 0


@pytest.mark.parametrize("i", [0, 1], ids=["membership-table", "walk-level"])
def test_an_element_with_a_foreign_cell_is_refused(i):
    # s1 arcs: element 0 lies on level 1, below the level-2 walk, element 1
    # on the walk level; a cell that is not on its level is a structural
    # error, in the signature walk and in the element's snap
    bundle = build_cover(builtin("s1"), 0, 3)
    el, tower = bundle.elements[i], bundle.tower
    foreign = (len(tower.level(el.level).verts),)
    bad = OpenCellSet(tower, el.level, el.cells | {foreign})
    error = f"{foreign} is not a cell of level {el.level}"
    bundle.elements[i] = bad
    assert [(c.name, c.passed, c.detail) for c in verify_cover_bundle(bundle).checks] \
        == [("multiplicity", False, f"enumeration failed: {error}")]
    cert = Certificate(bad, bundle.certificates[i].steps, Target("skeletal", 0))
    assert check_certificate(tower, bad, cert, 0) == (False, f"structural error: {error}")


def test_wheel_cracks_stop_at_m7():
    # seven nested rings fit in a 2-cell at level 4. The eighth region
    # fills delta-2's one 2-cell, so its ring is empty; on a closed
    # surface it reaches the 2-cells across the edges. Both are the rings'
    # limit
    bundle = build_cover(builtin("delta-2"), 0, 7)
    assert bundle.construction == "wheel-cracks" and verify_cover_bundle(bundle).ok
    with pytest.raises(ConstructionError, match="rings .* reach its boundary"):
        build_cover(builtin("delta-2"), 0, 8)
    with pytest.raises(ConstructionError, match="rings .* reach its boundary"):
        build_cover(builtin("boundary-delta-3"), 0, 8)


def _arc_bfs(adjacency, free, starts, target):
    """Reference for cover._arc_paths: the queue search the wheel builder
    ran once per element, 2-cell and edge slot. Shortest vertex path from
    the starts (ascending) to target through free cells, by cell number,
    as the cells after the start (target first), or None.

    adjacency holds, per vertex cell u, the slots offsets[u]:offsets[u+1]
    of its other ends and edges, edges ascending; free is read per cell.
    The target, already in the crack, needs no room.
    """
    offsets, other, edge = adjacency
    prev = dict.fromkeys(starts)
    queue = starts
    while queue:
        nxt = []
        for u in queue:
            for j in range(offsets[u], offsets[u + 1]):
                w, e = other[j], edge[j]
                if w in prev or not free[e] or not (w == target or free[w]):
                    continue
                prev[w] = (u, e)
                if w == target:
                    path = []
                    while prev[w] is not None:
                        u, e = prev[w]
                        path += [w, e]
                        w = u
                    return path
                nxt.append(w)
        queue = sorted(nxt)
    return None


@pytest.fixture(scope="module")
def arc_levels():
    """Per complex, level 4 as the wheel builder searches it: the cells'
    2-cells (cell_of), the adjacency by slot with its row pointers
    (offsets), and the interior vertices of each base edge."""
    import numpy as np
    out = {}
    for spec in ("delta-2", "random:2:7:161751"):
        cx = builtin(spec)
        tower = SubdivisionTower(cx)
        index = tower.index(4)
        n = len(index.block)
        dim = index.size - 1
        base = tower.cell_index(0)
        two_cells = [c for c in cx.cells() if len(c) == 3]
        cell_of = np.full(len(base), -1)
        cell_of[[base[t] for t in two_cells]] = np.arange(len(two_cells))
        cell_of = cell_of[index.carrier]
        pair = np.flatnonzero(dim[index.face_cell] == 1)
        ends = index.face[pair].reshape(-1, 2)
        order = np.argsort(ends.ravel(), kind="stable")
        vertex = ends.ravel()[order]
        other = ends[:, ::-1].ravel()[order]
        edge = np.repeat(index.face_cell[pair[::2]], 2)[order]
        offsets = np.searchsorted(vertex, np.arange(n + 1))
        on_edge = {e: index.block_start[_edge_path_vertices(tower, 4, e)[1:-1]].tolist()
                   for e in cx.cells() if len(e) == 2}
        out[spec] = (two_cells, dim, cell_of, (offsets, vertex, other, edge),
                     (offsets, other, edge), on_edge)
    return out


@given(spec=st.sampled_from(["delta-2", "random:2:7:161751"]),
       seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.3, 1.0),
       slot=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_frontier_arcs_are_the_queue_search_paths(arc_levels, spec, seed, density, slot):
    # random free cells and starts inside the 2-cells, one target per base
    # edge, shared by the 2-cells on that edge at this slot
    import numpy as np
    two_cells, dim, cell_of, adjacency, offsets, on_edge = arc_levels[spec]
    rng = random.Random(seed)
    inside = cell_of >= 0
    free = inside & (np.array([rng.random() for _ in cell_of]) < density)
    start = inside & (dim == 0) & (np.array([rng.random() for _ in cell_of]) < 0.03)
    free &= ~start
    pick = {e: rng.choice(verts) for e, verts in on_edge.items()}
    target = np.array([pick[list(itertools.combinations(t, 2))[slot]] for t in two_cells])
    found, new = _arc_paths(adjacency, free, np.flatnonzero(start), cell_of, target)
    # the builder's intp tables and int32 copies of them give the same
    # arrays, order included
    narrow = [a.astype(np.int32) for a in adjacency]
    found32, new32 = _arc_paths(narrow, free, np.flatnonzero(start).astype(np.int32),
                                cell_of.astype(np.int32), target.astype(np.int32))
    assert np.array_equal(found, found32) and np.array_equal(new, new32)
    assert len(set(new.tolist())) == len(new)
    for j, t in enumerate(two_cells):
        mine = cell_of == j
        path = _arc_bfs(offsets, memoryview(free & mine),
                        np.flatnonzero(start & mine).tolist(), int(target[j]))
        assert found[j] == (path is not None)
        assert set(new[cell_of[new] == j].tolist()) == set(path or ()) - {target[j]}


def test_wheel_arc_failure_names_the_first_failing_two_cell(monkeypatch):
    # 2-cell 3 fails at the first edge slot and 2-cell 1 at the last; the
    # error names 2-cell 1, the first of them in the builder's order
    cx = builtin("boundary-delta-3")
    two_cells = [c for c in cx.cells() if len(c) == 3]
    fail = {0: 3, 2: 1}  # search number (element 0's edge slot) -> failing 2-cell
    calls = []

    def failing(*args):
        found, new = _arc_paths(*args)
        if len(calls) in fail:
            found[fail[len(calls)]] = False
        calls.append(len(calls))
        return found, new

    monkeypatch.setattr(cover, "_arc_paths", failing)
    with pytest.raises(ConstructionError, match=re.escape(
            f"no room for an arc of element 0 in 2-cell {cx.label_cell(two_cells[1])}")):
        build_cover(cx, 0, 5)
    assert calls == [0, 1, 2]


def test_single_vertex_cover():
    bundle = build_cover(builtin("point"), 1, 1)
    assert len(bundle.elements) == 1
    assert bundle.certificates[0].steps == ()
    assert verify_cover_bundle(bundle).ok


@pytest.mark.parametrize("name,r,m", [
    ("boundary-delta-3", 1, 2),  # staggered
    ("delta-2", 0, 3),           # layered stars
    ("s1", 0, 4),                # arc phases
    ("point", 0, 2),             # trivial
    ("delta-2", 0, 5),           # wheel cracks
])
def test_bundle_json_round_trip(name, r, m):
    # certificate i starts at element i, so no certificate writes a start
    bundle = build_cover(builtin(name), r, m)
    data = json.loads(json.dumps(bundle.to_json(), sort_keys=True))
    assert all("start" not in c for c in data["certificates"])
    again = CoverBundle.from_json(data)
    assert all(c.start is el for c, el in zip(again.certificates, again.elements))
    assert verify_cover_bundle(again) == verify_cover_bundle(bundle)
    assert verify_cover_bundle(again).ok
    assert again.m == bundle.m and again.r == bundle.r


def test_deleted_element_fails_verification():
    bundle = build_cover(builtin("delta-2"), 0, 3)
    bundle.elements = bundle.elements[:-1]
    bundle.certificates = bundle.certificates[:-1]
    report = verify_cover_bundle(bundle)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert "element-count" in failing or any(n.startswith("profile") for n in failing)


def test_corrupted_certificate_fails_only_itself():
    bundle = build_cover(builtin("delta-2"), 0, 3)
    bad = bundle.certificates[1]
    bundle.certificates[1] = Certificate(
        bad.start, (PartitionPush(bad.start.level, frozenset()),), bad.target)
    report = verify_cover_bundle(bundle)
    names = {c.name: c.passed for c in report.checks}
    assert not names["certificate-1"]
    assert names["certificate-0"] and names["certificate-2"]
    assert names["coverage"] and names["profile-k1"]


def test_a_certificate_is_replayed_from_its_element():
    # certificate i of a bundle starts at element i, so the start it
    # carries in memory is not read
    bundle = build_cover(builtin("delta-2"), 0, 3)
    before = verify_cover_bundle(bundle)
    cert = bundle.certificates[1]
    whole = OpenCellSet(bundle.tower, 0, bundle.complex.cells())
    bundle.certificates[1] = Certificate(whole, cert.steps, cert.target)
    assert verify_cover_bundle(bundle) == before and before.ok


def test_profile_monotone_in_m():
    """Restricting the (m+1)-element bundle to its first m elements meets
    the m-element profile; elements only depend on their own index."""
    for name, r, m in [("s1", 0, 3), ("delta-2", 0, 3)]:
        big = build_cover(builtin(name), r, m + 1)
        small = build_cover(builtin(name), r, m)
        for el_big, el_small in zip(big.elements, small.elements):
            assert type(el_big) is type(el_small)
        sigs = cover_signatures(big.tower, big.elements[:m])
        for claim in small.profile_claims:
            dims = [d for d in sigs if d <= claim.skeleton]
            min_ord = min((len(s) for d in dims for s in sigs[d]), default=m)
            assert min_ord >= claim.min_multiplicity


def chain_enumeration(tower, elements):
    """Reference signatures: every cell of the finest element level, read
    one by one."""
    level = max(el.level for el in elements)
    out = {}
    for cell in tower.iter_cells(level):
        cov = frozenset(i for i, el in enumerate(elements) if el.contains_at(level, cell))
        out.setdefault(tower.carrier0_dim(level, cell), set()).add(cov)
    return out


def _walkable(bundle, limit=100_000):
    level = max(el.level for el in bundle.elements)
    try:
        return bundle.tower.count_cells(level) <= limit
    except TowerSizeError:
        return False


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_signatures_equal_chain_enumeration_on_the_grid(name, monkeypatch):
    """Every criterion-3 instance of this complex that builds and whose
    finest level has at most 100k cells."""
    monkeypatch.setenv("KO_COVER_MAX_LEVEL", "4")
    checked = 0
    for _, r, m in [g for g in cover_grid() if g[0] == name]:
        try:
            bundle = build_cover(builtin(name), r, m)
        except (ConstructionError, CoverError):
            continue
        if not _walkable(bundle):
            continue
        assert cover_signatures(bundle.tower, bundle.elements) == \
            chain_enumeration(bundle.tower, bundle.elements), (r, m)
        checked += 1
    assert checked


_CATALOG_TOWERS = {}


@st.composite
def int_star_families(draw):
    """A catalog complex or a random one of dimension 1 to 3, and 1 to 5
    stars on levels 1 to 3 centred by dimensions 0 to 3, whose finest
    level has at most 100k cells."""
    spec = draw(st.sampled_from(CATALOG_NAMES) | st.integers(1, 3).flatmap(
        lambda d: st.builds(f"random:{d}:{{}}:{{}}".format, st.integers(d + 1, d + 4),
                            st.integers(0, 10 ** 6))))
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                           min_size=1, max_size=5))
    tower = _CATALOG_TOWERS.get(spec) or SubdivisionTower(builtin(spec))
    if spec in CATALOG_NAMES:  # a catalog tower lists its levels once
        _CATALOG_TOWERS[spec] = tower
    try:
        assume(tower.count_cells(max(w for w, _ in shapes)) <= 100_000)
    except TowerSizeError:
        assume(False)
    return tower, [VertexStarSet(tower, w, r) for w, r in shapes]


@given(family=int_star_families())
@settings(max_examples=25, deadline=None)
def test_star_signatures_from_the_standard_simplex(family):
    """A family of stars centred by dimensions is walked on the standard
    simplex of the complex's dimension; the signatures are those of the
    complex's own cells, one by one, and of the general walk over the
    stars' explicit copies on the complex's tower."""
    tower, fam = family
    sigs = cover_signatures(tower, fam)
    assert sigs == chain_enumeration(tower, fam)
    assert sigs == cover_signatures(tower, [el.materialize() for el in fam])


@functools.cache
def standard_tower(n):
    return SubdivisionTower(simplex_complex(n), max_level=4)


def unshifted_signatures(tower, elements):
    """Reference for the flag-cell walk: the int-centred stars rebuilt on
    the tower of the standard n-simplex, n = dim X, at their own levels,
    their centres listed, so that the walk takes its general path (a star
    DP and no flag) over a whole level of Delta^n."""
    std = standard_tower(tower.base.dim)
    return cover_signatures(std, [VertexStarSet(std, el.level,
                                                std.low_vertices(el.level, el.centers))
                                  for el in elements])


@st.composite
def flag_cell_families(draw):
    """A catalog complex or a random one of dimension 1 to 4, and 1 to 5
    stars on levels 1 to 4, repeats allowed, centred by dimensions 0 to n,
    whose reference walk reads a level of Delta^n of at most 100k cells."""
    spec = draw(st.sampled_from(CATALOG_NAMES) | st.integers(1, 4).flatmap(
        lambda d: st.builds(f"random:{d}:{{}}:{{}}".format, st.integers(d + 1, d + 4),
                            st.integers(0, 10 ** 6))))
    cx = builtin(spec)
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, cx.dim)),
                           min_size=1, max_size=5))
    # the reference's DP walks level L-1 of Delta^n, L the finest star level
    level = max(w for w, _ in shapes) - 1
    assume(standard_tower(cx.dim).count_cells(level) <= 100_000)
    tower = SubdivisionTower(cx, max_level=4)
    return tower, [VertexStarSet(tower, w, r) for w, r in shapes]


@given(family=flag_cell_families())
@settings(max_examples=30, deadline=None)
def test_flag_cell_signatures_equal_the_whole_simplex_walk(family):
    """The walk of a family of int-centred stars on one flag cell of
    Delta^n gives the signatures of the walk over whole levels of Delta^n:
    the symmetric group of Delta^n fixes every such star and every
    signature and moves any level-1 facet onto the flag cell."""
    tower, fam = family
    assert cover_signatures(tower, fam) == unshifted_signatures(tower, fam)


def _random_element(rng, tower, kind, level):
    if kind == "cells":
        cells = tower.cells(level)
        return OpenCellSet(tower, level, rng.sample(cells, rng.randrange(len(cells) + 1)))
    if kind == "blocks":  # a union of whole chain blocks
        cells, tops = tower.cells(level), tower.level(level).tops
        kept = {b for b in set(tops) if rng.random() < 0.5}
        return OpenCellSet(tower, level, [c for c, b in zip(cells, tops) if b in kept])
    if kind == "low":  # centered by a dimension, 0 to 2
        return VertexStarSet(tower, level, rng.randrange(3))
    verts = range(len(tower.level(level).verts))
    return VertexStarSet(tower, level,
                         frozenset(rng.sample(verts, rng.randrange(len(verts) + 1))))


def _random_family(seed):
    rng = random.Random(seed)
    name = rng.choice(["s1", "delta-2", f"random:2:5:{seed}"])
    tower = SubdivisionTower(builtin(name))
    fam = []
    for _ in range(rng.randrange(2, 6)):
        kind = rng.choice(["cells", "low", "explicit"])
        level = rng.randrange(3) if kind == "cells" else rng.randrange(1, 4)
        fam.append(_random_element(rng, tower, kind, level))
    if rng.random() < 0.5:
        skeleton = rng.randrange(2)
        fam.append(OpenCellSet(tower, 0, [c for c in tower.base.cells()
                                          if len(c) - 1 <= skeleton]))
    return tower, fam


def _special_family(which):
    """explicit-beside-old-top: an explicit set beside a star of center
    dimension 0 on the top level (no flag). explicit-below-old-top: an
    explicit set one level below such a top (no DP). chain-skipping-faces: on the triangle T, the
    chain {v, T} skips both edges through v, and only it has the star mask
    {0}, so the DP must reach v from T directly, not through facets.
    old-level-1-stars-n: n stars of center dimension 0 at level 1 and
    nothing else.
    seventy-stars: 70 explicit stars on the DP level, so its masks are
    wider than a machine word. explicit-centers-two-levels: explicit stars
    on the DP level and one level below it, a center-dimension-0 flag
    above and a level-0 region. low-stars-every-level: stars of center
    dimension 1 and 2 on levels 1 to 3, as a staggered family has, beside
    a level-2 explicit set."""
    tower = SubdivisionTower(builtin("delta-2"))
    if which.startswith("old-level-1-stars-"):
        # the flag alone: the walk reads level 0 with no membership rows
        return tower, [VertexStarSet(tower, 1, 0)] * int(which[-1])
    rng = random.Random(which)
    if which == "seventy-stars":
        fam = [_random_element(rng, tower, "explicit", 2) for _ in range(70)]
        return tower, fam + [_random_element(rng, tower, "cells", 1),
                             VertexStarSet(tower, 3, 0)]
    if which == "explicit-centers-two-levels":
        region = OpenCellSet(tower, 0, [c for c in tower.base.cells() if len(c) < 3])
        return tower, [_random_element(rng, tower, "explicit", 2),
                       _random_element(rng, tower, "explicit", 2),
                       _random_element(rng, tower, "explicit", 1),
                       VertexStarSet(tower, 3, 0), region]
    if which == "low-stars-every-level":
        return tower, [VertexStarSet(tower, w, r) for w in (1, 2, 3) for r in (1, 2)] \
            + [_random_element(rng, tower, "cells", 2)]
    if which == "chain-skipping-faces":
        vid = tower.level(1).vert_id
        return tower, [VertexStarSet(tower, 1, frozenset({vid[(0,)]})),
                       VertexStarSet(tower, 1, frozenset({vid[(0, 1)], vid[(0, 2)]}))]
    top = 3 if which == "explicit-beside-old-top" else 2
    fam = [VertexStarSet(tower, 3, 0),
           _random_element(rng, tower, "cells", top),
           _random_element(rng, tower, "explicit", 2),
           _random_element(rng, tower, "cells", 1)]
    return tower, fam


@pytest.mark.parametrize("family", [f"seed-{seed}" for seed in range(40)] + [
    "explicit-beside-old-top", "explicit-below-old-top", "chain-skipping-faces",
    "old-level-1-stars-1", "old-level-1-stars-3", "seventy-stars",
    "explicit-centers-two-levels", "low-stars-every-level"])
def test_signatures_equal_chain_enumeration_on_mixed_families(family):
    if family.startswith("seed-"):
        tower, fam = _random_family(int(family[5:]))
    else:
        tower, fam = _special_family(family)
    assert cover_signatures(tower, fam) == chain_enumeration(tower, fam)


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(1, 3),
       flag=st.booleans(), seed=st.integers(0, 2**32 - 1), wide=st.just(0))
@example(name="boundary-delta-3", level=3, flag=True, seed=9, wide=9)
@example(name="boundary-delta-3", level=3, flag=False, seed=70, wide=70)
@settings(max_examples=40, deadline=None)
def test_indexed_walk_equals_chain_enumeration(small_towers, name, level, flag, seed,
                                               wide):
    """Explicit sets on the walk level (so no star DP applies), beside
    explicit sets and stars below it and, with flag, a star of center
    dimension 0 one level up. A wide family is that many sets on the
    level: unions of whole chain blocks, so that columns repeat, then four
    random sets of cells, whose bits come last in a cell's packed key. On
    boundary-delta-3 level 3 (2,594 cells), 9 sets and the chain bit take
    two bytes, and 70 take two 64-bit words, the first of which the cells
    of a block share."""
    # a seeded Random, not a Hypothesis one: torus-7 level 3 has 9,072
    # cells and Hypothesis refuses a sample of more than 8,192
    rng = random.Random(seed)
    tower = small_towers[name]
    if wide:
        fam = [_random_element(rng, tower, "blocks" if i < wide - 4 else "cells", level)
               for i in range(wide)]
    else:
        fam = [_random_element(rng, tower, "cells", level)
               for _ in range(rng.randrange(1, 4))]
        for _ in range(rng.randrange(4)):
            kind = rng.choice(["cells", "low", "explicit"])
            low = rng.randrange(level + 1) if kind == "cells" else rng.randrange(1, level + 1)
            fam.append(_random_element(rng, tower, kind, low))
    if flag:
        fam.append(VertexStarSet(tower, level + 1, 0))
    if not wide:
        rng.shuffle(fam)
    assert walks_on_both_paths(tower, level, fam) == chain_enumeration(tower, fam)


def walks_on_both_paths(tower, level, fam):
    """The signatures of a family whose walk, at level, has no star DP,
    the same on arrays and in plain Python."""
    sigs = []
    for path in PATHS:
        with on_path(path):
            sigs.append(cover_signatures(tower, fam))
            assert tower.is_small(level) == (path == "plain")
    assert sigs[0] == sigs[1]
    return sigs[0]


def test_indexed_walk_of_seventy_explicit_sets():
    # more elements than a machine word has bits
    rng = random.Random(70)
    tower = SubdivisionTower(builtin("delta-2"))
    fam = [_random_element(rng, tower, "cells", 2) for _ in range(70)]
    fam += [_random_element(rng, tower, "cells", 1), VertexStarSet(tower, 3, 0)]
    sigs = walks_on_both_paths(tower, 2, fam)
    assert sigs == chain_enumeration(tower, fam)
    assert any(69 in s and 71 in s for ss in sigs.values() for s in ss)


def test_is_k_cover_with_a_region_on_mixed_families():
    """Brute force and the criterion agree (asserted inside is_k_cover)
    on the cells over the base 0-skeleton."""
    for seed in range(20):
        tower, fam = _random_family(seed)
        for k in range(1, len(fam) + 1):
            is_k_cover(fam, k, skeleton=0)


def k_cover_oracle(sets, k, m):
    """Does every k-subset of range(m) meet every index set? The exhaustive
    walk over subfamilies."""
    return all(all(set(sub) & s for s in sets)
               for sub in itertools.combinations(range(m), k))


@st.composite
def index_set_families(draw):
    m = draw(st.integers(1, 8))
    sets = st.sets(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=6)
    return m, draw(st.dictionaries(st.integers(0, 3), sets, min_size=1, max_size=4))


@given(family=index_set_families(), skeleton=st.none() | st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_k_cover_search_and_criterion_match_the_subfamily_walk(family, skeleton):
    m, sigs = family
    in_range = [s for d, ss in sigs.items() if skeleton is None or d <= skeleton for s in ss]
    for k in range(1, m + 2):  # a profile's k may exceed m
        criterion, brute, min_ord = _k_cover(sigs, k, m, skeleton)
        expected = k_cover_oracle(in_range, k, m)
        assert (brute, criterion) == (expected, expected)
        assert min_ord == min(map(len, in_range), default=m)


def test_verify_finishes_on_four_hundred_copies_of_the_base():
    # a profile check that walks every k-subset of range(m) takes over 20 s
    # on this bundle
    cx = builtin("torus-7")
    tower = SubdivisionTower(cx)
    whole = OpenCellSet(tower, 0, cx.cells())
    cert = Certificate(whole, (), Target("skeletal", 0))
    bundle = CoverBundle(cx, tower, 0, 400, [whole] * 400, [cert] * 400)
    start = time.perf_counter()
    report = verify_cover_bundle(bundle)
    assert time.perf_counter() - start < 2
    profile = {c.name: (c.passed, c.detail) for c in report.checks
               if c.name.startswith("profile-k")}
    assert profile == {f"profile-k{k}": (True, f"min Ord 400 on skeleton {k - 1}, "
                                               f"need {401 - k}")
                       for k in (1, 2, 3)}


def test_emptied_certificate_list_fails():
    bundle = build_cover(builtin("s1"), 0, 3)
    bundle.certificates = []
    report = verify_cover_bundle(bundle)
    assert not report.ok
    checks = {c.name: c for c in report.checks}
    assert not checks["element-count"].passed
    assert "0 certificates" in checks["element-count"].detail


def test_pullback_cover():
    s2 = builtin("boundary-delta-3")
    bundle = build_cover(s2, 1, 2)
    ident = SimplicialMap.identity(s2)
    pulled = pullback_cover(ident, bundle)
    for el, back in zip(bundle.elements, pulled):
        level = el.level
        for c in bundle.tower.cells(level):
            assert el.contains(c) == back.contains(c)

    # subcomplex inclusion: multiplicity never drops
    sk = s2.skeleton(1)
    incl = SimplicialMap(sk, s2, {v: v for v in sk.vertices})
    pulled = pullback_cover(incl, bundle)
    src_tower = pulled[0].tower
    level = max(el.level for el in bundle.elements)
    for c in src_tower.cells(level):
        up = sum(1 for s in pulled if s.contains_at(level, c))
        img = src_tower.map_cell(bundle.tower, incl, level, c)
        down = sum(1 for s in bundle.elements if s.contains_at(level, img))
        assert up >= down


def test_pullback_random_maps_preserve_coverage():
    rng = random.Random(99)
    target = builtin("delta-2")
    bundle = build_cover(target, 0, 3)
    for _ in range(10):
        cx = random_complex(1, rng.randrange(3, 6), rng.randrange(10 ** 6))
        mapping = {v: rng.choice(target.vertices) for v in cx.vertices}
        try:
            f = SimplicialMap(cx, target, mapping)
        except Exception:
            continue
        pulled = pullback_cover(f, bundle)
        tower = pulled[0].tower
        for level in {p.level for p in pulled}:
            pass
        level = max(p.level for p in pulled)
        for c in tower.iter_cells(level):
            assert any(p.contains_at(level, c) for p in pulled)


def test_cover_parameters():
    assert cover_parameters(builtin("delta-2"), 0) == 3
    assert cover_parameters(builtin("delta-3"), 1) == 2
    assert cover_parameters(builtin("s1"), 2) == 1
