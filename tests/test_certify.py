import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CATALOG_NAMES, PATHS, SMALL_NAMES, dual_push_certificate, on_path

import kocover
from kocover import (Certificate, CertificateFormatError, OpenCellSet, PartitionPush,
                     StarSnap, SubdivisionTower, Target, TowerError, TowerSizeError,
                     VertexStarSet, build_cover, builtin, verify_certificate)
from kocover.certify import (cellset_from_json, certificate_from_json, certificate_to_json,
                             replay)
from kocover.complexes import components
from kocover.cover import check_certificate
from kocover.tower import index_array, proper_faces


@pytest.fixture
def s2_tower():
    return SubdivisionTower(builtin("boundary-delta-3"))


def one_skeleton_complement(tower):
    cx = tower.base
    return OpenCellSet(tower, 0, [c for c in cx.cells() if len(c) - 1 > 1])


def final_carrier(tower, start, steps):
    """The level and cells of the carrier the steps leave of start."""
    carrier = replay(tower, start.materialize(), steps)
    return carrier.level, carrier.cells


def test_empty_certificate_inside_skeleton(s2_tower):
    cx = s2_tower.base
    verts = OpenCellSet(s2_tower, 0, [c for c in cx.cells() if len(c) == 1])
    verdict = verify_certificate(s2_tower, Certificate(verts, (), Target("skeletal", 0)))
    assert verdict.passed
    # a complex of dimension at most r certifies with no steps
    t1 = SubdivisionTower(builtin("s1"))
    whole1 = OpenCellSet(t1, 0, t1.base.cells())
    assert verify_certificate(t1, Certificate(whole1, (), Target("dimensional", 1))).passed


def test_dual_push_lands_on_face_barycenters(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    cert = dual_push_certificate(comp, 1, 1)
    verdict = verify_certificate(s2_tower, cert)
    assert verdict.passed and verdict.achieved == (0, 2)
    level, carrier = final_carrier(s2_tower, cert.start, cert.steps)
    assert level == 1
    assert len(carrier) == 4 and all(len(c) == 1 for c in carrier)


def test_push_missing_vertex_fails_with_witness(s2_tower):
    start = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 1).start
    bad = Certificate(start, (PartitionPush(1, frozenset()),), Target("dimensional", 0))
    verdict = verify_certificate(s2_tower, bad)
    assert not verdict.passed
    assert verdict.failing_step == 0
    assert verdict.witness is not None


def test_push_semantics_and_face_monotone(s2_tower):
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 1)
    refined, push = cert.start.cells, cert.steps[0]
    _, final = final_carrier(s2_tower, cert.start, cert.steps)
    expected = {tuple(v for v in c if v in push.keep) for c in refined}
    assert final == frozenset(expected)
    # image of a face is a face of the image
    for c in refined:
        img = tuple(v for v in c if v in push.keep)
        for k in range(1, len(c)):
            sub = c[:k]
            sub_img = tuple(v for v in sub if v in push.keep)
            assert set(sub_img) <= set(img)


def test_star_snap_generator(s2_tower):
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    level, carrier = final_carrier(s2_tower, cert.start, cert.steps[:-1])
    pts = OpenCellSet(s2_tower, level, carrier)
    snap = cert.steps[-1]
    cert = Certificate(pts, (snap,), Target("skeletal", 0))
    verdict = verify_certificate(s2_tower, cert)
    assert verdict.passed
    assert snap == StarSnap(level)
    # each barycenter snapped to the least vertex of its carrier cell
    assert final_carrier(s2_tower, pts, (snap,)) == (level, frozenset(
        (s2_tower.lift_base_vertex(min(s2_tower.carrier0(level, c)), level),)
        for c in carrier))


def test_star_snap_identity_on_base_vertices(s2_tower):
    verts = OpenCellSet(s2_tower, 0, [c for c in s2_tower.base.cells() if len(c) == 1])
    assert final_carrier(s2_tower, verts, (StarSnap(0),)) == (0, verts.cells)


def test_star_snap_rejects_edges(s2_tower):
    # a closed edge is one component over two base vertices
    s = OpenCellSet(s2_tower, 0, [(0,), (1,), (0, 1)])
    verdict = verify_certificate(s2_tower, Certificate(s, (StarSnap(0),),
                                                       Target("skeletal", 0)))
    assert (verdict.passed, verdict.failing_step, verdict.reason, verdict.witness) == \
        (False, 0, "snap component has no common base-carrier vertex", (0,))


def test_a_snap_past_the_materialized_levels_imports_no_numpy():
    # on s2 the dual push and the snap run on level 1, 74 cells, under the
    # array size rule: in plain Python, so the process never loads numpy
    code = """if True:
        import sys
        from kocover import (Certificate, OpenCellSet, PartitionPush, StarSnap,
                             SubdivisionTower, Target, builtin, verify_certificate)
        tower = SubdivisionTower(builtin("s2"))
        start = OpenCellSet(tower, 1, tower.chains(1, [c for c in tower.cells(0) if len(c) == 3]))
        keep = frozenset(v for v, d in enumerate(tower.level(1).vdim) if d == 2)
        cert = Certificate(start, (PartitionPush(1, keep), StarSnap(1)), Target("skeletal", 0))
        assert verify_certificate(tower, cert).passed
        assert len(tower.cells(1)) == 74
        assert "numpy" not in sys.modules
    """
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_dual_push_requires_disjointness(s2_tower):
    # the set that misses the avoided skeleton passes; one that meets it
    # has a cell with no kept vertex
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    assert cert.target == Target("skeletal", 0)
    assert verify_certificate(s2_tower, cert).passed
    whole = OpenCellSet(s2_tower, 0, s2_tower.base.cells())
    verdict = verify_certificate(s2_tower, dual_push_certificate(whole, 1, 0))
    assert (verdict.passed, verdict.failing_step, verdict.reason) == \
        (False, 0, "push leaves a carrier cell with no kept vertex")


def test_single_top_cell_pushes_to_barycenter():
    t = SubdivisionTower(builtin("delta-2"))
    top = OpenCellSet(t, 0, [(0, 1, 2)])
    cert = dual_push_certificate(top, 1, 1)
    level, carrier = final_carrier(t, cert.start, cert.steps)
    assert carrier == frozenset({(t.level(1).vert_id[(0, 1, 2)],)})


@pytest.mark.parametrize("name,m", [("boundary-delta-3", 0), ("boundary-delta-3", 1),
                                    ("delta-3", 1), ("torus-7", 0), ("s1-x-s1", 1)])
def test_dual_push_dimension_law(name, m):
    cx = builtin(name)
    t = SubdivisionTower(cx)
    skel = {c for c in cx.cells() if len(c) - 1 <= m}
    comp = OpenCellSet(t, 0, [c for c in cx.cells() if c not in skel])
    cert = dual_push_certificate(comp, m, 1)
    _, carrier = final_carrier(t, cert.start, cert.steps)
    assert max(len(c) - 1 for c in carrier) <= cx.dim - m - 1


def test_monotone_along_every_step(s2_tower):
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    level, cells = cert.start.level, frozenset(cert.start.cells)
    from kocover.certify import _expand_keep
    for step in cert.steps:
        if isinstance(step, PartitionPush):
            keep = _expand_keep(s2_tower, level, step.keep)
            new = set()
            for c in cells:
                img = tuple(v for v in c if v in keep)
                assert s2_tower.carrier0_dim(level, img) <= s2_tower.carrier0_dim(level, c)
                new.add(img)
            cells = frozenset(new)
        elif isinstance(step, StarSnap):
            # each point goes to a vertex of its base carrier
            assert all(len(c) == 1 and s2_tower.carrier0_dim(level, c) >= 0 for c in cells)
            cells = frozenset()


def test_lazy_and_explicit_verification_agree():
    """The structural star path gives the verdict of an explicit replay of
    the materialized start, on every catalog complex at every level up to 3
    that fits the tower budget, for stars of center dimension r from 0 to
    3, for the push and, when r = 0, the push with the trailing snap,
    under a skeletal target of dimension 0 and a dimensional one of
    dimension r. On the small complexes it also covers shapes that the
    structural path hands to explicit replay, a snap after a push with
    r >= 1 among them (they were once refused as unsupported)."""
    for name in CATALOG_NAMES:
        t = SubdivisionTower(builtin(name))
        n = t.base.dim
        for level in (1, 2, 3):
            try:
                t.cells(level)
            except TowerSizeError:
                break
            for r in range(4):
                lazy = VertexStarSet(t, level, r)
                explicit = lazy.materialize()
                push, snap = PartitionPush(level, r), StarSnap(level)
                # a snap after a push is read structurally only for r = 0
                small = name in SMALL_NAMES
                shapes = [(push,), (push, snap)] if r == 0 or small else [(push,)]
                if small:
                    shapes += [(push, push), (push, snap, snap)]
                for steps in shapes:
                    for target in (Target("skeletal", 0), Target("dimensional", r)):
                        v_lazy = verify_certificate(t, Certificate(lazy, steps, target))
                        v_exp = verify_certificate(t, Certificate(explicit, steps, target))
                        assert (v_lazy.passed, v_lazy.achieved, v_lazy.reason,
                                v_lazy.failing_step) == \
                            (v_exp.passed, v_exp.achieved, v_exp.reason,
                             v_exp.failing_step), (name, level, r, steps, target)
                        if steps == (push,) and target.kind == "dimensional":
                            # the subdivided r-skeleton of level L-1, which
                            # above level 1 holds a vertex over every base cell
                            low = min(r, n)
                            assert v_lazy.achieved == (low, low if level == 1 else n)
                        elif r == 0 and (target.kind == "dimensional" or snap in steps):
                            assert v_lazy.passed, (name, level, steps, target)
                        elif r == 0 and len(steps) == 1:
                            assert v_lazy.passed == (level == 1)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_level_has_a_vertex_over_a_top_cell(name):
    """The structural push verdict takes dim X for the largest base-carrier
    dimension of the level-(L-1) vertices, L >= 2: checked by listing on
    every level whose vertices, the cells one level down, number at most
    100,000."""
    tower = SubdivisionTower(builtin(name))
    checked = 0
    for t in range(1, tower.max_level + 1):
        if tower.count_cells(t - 1) > 100_000:
            break
        assert max(len(b) for b in tower.level(t).vbase) - 1 == tower.base.dim
        checked += 1
    assert checked >= 2


def face_components(cells):
    """Components of cells joined to their present faces, by union-find."""
    return components(cells, ((c, f) for c in cells for f in proper_faces(c)
                              if f in cells))


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(0, 2),
       density=st.floats(0.05, 0.95), rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_snapped_component_closures_share_no_carrier_cell(small_towers, name, level,
                                                          density, rng):
    # the reason the cover verifier needs no snap-closure disjointness replay
    tower = small_towers[name]
    cells = frozenset(c for c in tower.cells(level) if rng.random() < density)
    comps = face_components(cells)
    assert sum(len(comp) for comp in comps) == len(cells)
    closures = [{f for c in comp for f in (c, *proper_faces(c))} for comp in comps]
    for a, b in itertools.combinations(closures, 2):
        assert not (a & b & cells)


def snap_oracle(tower, level, cells):
    """Union-find replay of a star snap, kept as the reference for the
    indexed one: (final carrier, None) or (None, (reason, witness)). The
    failing component reported is the one holding the least cell of any
    failing component."""
    failures, targets = [], set()
    for comp in face_components(cells):
        common = set.intersection(*(set(tower.carrier0(level, c)) for c in comp))
        if common:
            targets.add(min(common))
        else:
            failures.append(min(comp))
    if failures:
        return None, ("snap component has no common base-carrier vertex", min(failures))
    return frozenset((tower.lift_base_vertex(v, level),) for v in targets), None


def assert_snap_matches_oracle(tower, level, cells):
    """Replay a one-snap certificate on arrays and in plain Python on
    tower, whose level is materialized; each verdict, passing or failing,
    must be the oracle's, so the two are equal."""
    verdicts = [snap_on_path(path, tower, level, cells) for path in PATHS]
    assert verdicts[0] == verdicts[1]


def snap_on_path(path, tower, level, cells):
    cert = Certificate(OpenCellSet(tower, level, cells), (StarSnap(level),),
                       Target("skeletal", 0))
    with on_path(path):
        assert tower.is_small(level) == (path == "plain")
        carrier, failure = snap_oracle(tower, level, cells)
        verdict = verify_certificate(tower, cert)
        if failure is not None:
            assert (verdict.passed, verdict.failing_step, verdict.reason, verdict.witness) \
                == (False, 0, *failure)
            return verdict
        assert (verdict.passed, verdict.failing_step, verdict.reason) == (True, None, "")
        assert verdict.achieved == ((0, 0) if cells else (-1, -1))
        assert final_carrier(tower, cert.start, cert.steps) == (level, carrier)
    return verdict


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(0, 2),
       density=st.floats(0.05, 0.95), rng=st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_indexed_snap_matches_union_find(small_towers, name, level, density, rng):
    # a materialized level has its one index
    tower = small_towers[name]
    cells = frozenset(c for c in tower.cells(level) if rng.random() < density)
    index = tower.index(level)
    assert index is tower.level(level).index
    listed, position = tower.cells(level), tower.cell_index(level)
    pos = index_array(OpenCellSet(tower, level, cells).numbers())
    assert sorted(listed[p] for p in pos.tolist()) == sorted(cells)
    root = index.components(pos)
    parts = {}
    for p, r in zip(pos.tolist(), root.tolist()):
        parts.setdefault(r, set()).add(listed[p])
    assert sorted(map(sorted, parts.values())) == sorted(map(sorted, face_components(cells)))
    assert all(r == min(position[c] for c in part) for r, part in parts.items())
    assert_snap_matches_oracle(tower, level, cells)


def test_indexed_snap_on_arc_phase_carriers():
    # arc elements on s1 are long paths, the most label rounds per cell
    bundle = build_cover(builtin("s1"), 0, 8)
    for el in bundle.elements:
        assert_snap_matches_oracle(bundle.tower, el.level, frozenset(el.cells))


def test_min_base_vertex_snap_takes_the_least_common_vertex():
    # one component over the open 2-simplex: every vertex is common
    t = SubdivisionTower(builtin("delta-2"))
    interior = frozenset(c for c in t.cells(1) if t.carrier0(1, c) == (0, 1, 2))
    assert len(face_components(interior)) == 1
    assert snap_oracle(t, 1, interior)[0] == frozenset({(t.lift_base_vertex(0, 1),)})
    assert_snap_matches_oracle(t, 1, interior)


def test_indexed_snap_on_a_wheel_element():
    bundle = build_cover(builtin("delta-2"), 0, 5)
    assert bundle.construction == "wheel-cracks"
    el = bundle.elements[0]
    assert_snap_matches_oracle(bundle.tower, el.level, frozenset(el.cells))


def snap_verdicts(tower, start):
    """(passed, reason, failing_step, witness) of a one-snap certificate
    on the start set, the same on arrays and in plain Python."""
    cert = Certificate(start, (StarSnap(start.level),), Target("skeletal", 0))
    verdicts = []
    for path in PATHS:
        with on_path(path):
            verdicts.append(verify_certificate(tower, cert))
    assert verdicts[0] == verdicts[1]
    v = verdicts[0]
    return v.passed, v.reason, v.failing_step, v.witness


@pytest.mark.parametrize("name", ["delta-2", "boundary-delta-3"])
def test_snap_verdicts_agree_on_closed_complements_of_a_wheel_level(name):
    # level 4 of a surface (3,937 and 15,554 cells), where wheel elements
    # are snapped: the complement of the closure of a few random cells and
    # of the cells over some base vertices and edges. The carrier fails
    # when one component crosses the surface and passes when each stays
    # near one base vertex or inside an open 2-cell; the two paths agree
    # on every verdict, witness included
    tower = SubdivisionTower(builtin(name))
    cells = tower.cells(4)
    low = [c for c in tower.cells(0) if len(c) < 3]
    rng = random.Random(4)
    verdicts = []
    for share in (0, 0, 0.6, 0.8, 1, 1):
        over = set(rng.sample(low, round(share * len(low))))
        seeds = rng.sample(cells, rng.randint(1, 8))
        closed = {f for c in seeds + [c for c in cells if tower.carrier0(4, c) in over]
                  for f in (c, *proper_faces(c))}
        start = OpenCellSet.from_numbers(
            tower, 4, [i for i, c in enumerate(cells) if c not in closed])
        verdicts.append(snap_verdicts(tower, start))
    assert {v[0] for v in verdicts} == {True, False}


def renumbered(tower, level, cells, rng):
    """The set of cells built from their numbers in a shuffled order, one
    unlike the iteration order of the cells themselves."""
    position = tower.cell_index(level)
    numbers = [position[c] for c in cells]
    rng.shuffle(numbers)
    out = OpenCellSet.from_numbers(tower, level, numbers)
    assert list(out.numbers()) == numbers
    assert numbers != [position[c] for c in out.cells]
    return out


@pytest.mark.parametrize("passing", [True, False])
def test_snap_verdict_does_not_depend_on_the_order_of_the_numbers(passing):
    # a set built from shuffled numbers and one that looks them up get the
    # oracle's verdict: a pass on the four open triangles, each its own
    # component, and a failure on two disjoint closed edges, each joining
    # two base vertices, whose witness is the least cell of either
    tower = SubdivisionTower(builtin("boundary-delta-3"))
    over = ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] if passing
            else [(0,), (1,), (0, 1), (2,), (3,), (2, 3)])
    cells = frozenset(c for c in tower.cells(2) if tower.carrier0(2, c) in over)
    assert len(face_components(cells)) == (4 if passing else 2)
    verdict = snap_verdicts(tower, renumbered(tower, 2, cells, random.Random(7)))
    assert verdict == snap_verdicts(tower, OpenCellSet(tower, 2, cells))
    _, failure = snap_oracle(tower, 2, cells)
    assert verdict == ((True, "", None, None) if passing
                       else (False, failure[0], 0, failure[1]))


def test_snap_witness_among_several_failing_components_of_a_large_level():
    # level 3 of torus-7 (9,072 cells): the cells over three closed edges
    # with no common vertex, each a component joining two base vertices,
    # and the one cell over the seventh base vertex, a component that
    # passes. The witness is the least cell of any failing component, read
    # through the face table on arrays, and the same in plain Python,
    # whatever the numbering
    tower = SubdivisionTower(builtin("torus-7"))
    assert tower.sized(3) > 1_000
    edges, used = [], set()
    for e in tower.base.cells(1):
        if used.isdisjoint(e):
            edges.append(e)
            used.update(e)
    assert len(edges) == 3 and len(used) == 6
    over = {f for a, b in edges for f in ((a,), (b,), (a, b))}
    over |= {(v,) for v in range(7) if v not in used}
    cells = frozenset(c for c in tower.cells(3) if tower.carrier0(3, c) in over)
    comps = face_components(cells)
    failing = [comp for comp in comps
               if not set.intersection(*(set(tower.carrier0(3, c)) for c in comp))]
    assert (len(comps), len(failing)) == (4, 3)
    _, failure = snap_oracle(tower, 3, cells)
    expected = (False, failure[0], 0, failure[1])
    assert snap_verdicts(tower, OpenCellSet(tower, 3, cells)) == expected
    assert snap_verdicts(tower, renumbered(tower, 3, cells, random.Random(5))) == expected


def test_generated_snap_reads_targets_in_the_order_of_the_numbers(s2_tower):
    # the snap a dual push certificate ends with, replayed alone on its
    # carrier renumbered, passes as on the carrier that looks its numbers up
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    level, cells = final_carrier(s2_tower, cert.start, cert.steps[:-1])
    assert cert.steps[-1] == StarSnap(level)
    shuffled = renumbered(s2_tower, level, cells, random.Random(3))
    assert snap_verdicts(s2_tower, shuffled) \
        == snap_verdicts(s2_tower, OpenCellSet(s2_tower, level, cells)) \
        == (True, "", None, None)


def test_a_start_off_its_streamed_level_is_refused():
    # level 1 of s1: vertices 0-2 are the base vertices, 3-5 the edges. A
    # replay refuses such a start on its sized level before its first step;
    # with no step, the non-chains once passed as base vertices, and a snap
    # raised IndexError
    for cell, steps in itertools.product([(999,), (0, 1), (3, 5), ()],
                                         [(), (StarSnap(1),)]):
        tower = SubdivisionTower(builtin("s1"))
        el = OpenCellSet(tower, 1, [cell, (0,)])
        cert = Certificate(el, steps, Target("skeletal", 0))
        reason = f"{cell} is not a cell of level 1"
        with pytest.raises(TowerError, match=re.escape(reason)):
            verify_certificate(tower, cert)
        assert check_certificate(tower, el, cert, 0) == (False, f"structural error: {reason}")


def test_a_decoded_set_numbers_each_cell_once(s2_tower):
    # a cell listed twice decodes to one cell with one number
    cells = [list(c) for c in s2_tower.cells(1)[:3]]
    el = cellset_from_json(s2_tower, {"kind": "cells", "level": 1,
                                      "cells": [*cells, cells[1]]})
    assert sorted(el.numbers()) == [0, 1, 2] and len(el.cells) == 3


def test_certificate_json_round_trip(s2_tower):
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    assert "start" not in data  # its start is the caller's
    again = certificate_from_json(s2_tower, data, cert.start)
    assert again.start is cert.start
    assert verify_certificate(s2_tower, again).passed
    assert again.target == cert.target
    assert len(again.steps) == len(cert.steps)


def test_the_refine_step_kind_is_refused(s2_tower):
    cert = dual_push_certificate(one_skeleton_complement(s2_tower), 1, 0)
    data = certificate_to_json(cert)
    data["steps"].insert(0, {"kind": "refine"})
    with pytest.raises(CertificateFormatError, match="unknown step kind 'refine'"):
        certificate_from_json(s2_tower, data, cert.start)


def corrupt(rng, tower, cert):
    """Produce a structurally valid but semantically broken variant."""
    kind = rng.choice(["drop-step", "shrink-keep", "early-snap", "tighten-target"])
    steps = list(cert.steps)
    if kind == "drop-step" and steps:
        steps.pop(rng.randrange(len(steps)))
        return Certificate(cert.start, tuple(steps), cert.target), kind
    if kind == "shrink-keep":
        for i, s in enumerate(steps):
            if isinstance(s, PartitionPush) and isinstance(s.keep, frozenset) \
                    and len(s.keep) > 1:
                keep = frozenset(sorted(s.keep)[:len(s.keep) // 2])
                steps[i] = PartitionPush(s.level, keep)
                return Certificate(cert.start, tuple(steps), cert.target), kind
    if kind == "early-snap":
        # the snap moved before the push it follows
        for i, s in enumerate(steps[1:], 1):
            if isinstance(s, StarSnap) and isinstance(steps[i - 1], PartitionPush):
                steps[i - 1:i + 1] = [s, steps[i - 1]]
                return Certificate(cert.start, tuple(steps), cert.target), kind
    if cert.target.kind == "dimensional" and cert.target.r > 0:
        return Certificate(cert.start, cert.steps,
                           Target("dimensional", cert.target.r - 1)), "tighten-target"
    return None, kind


def test_fuzzed_corruptions_never_pass_silently():
    rng = random.Random(20240901)
    t = SubdivisionTower(builtin("boundary-delta-3"))
    comp = one_skeleton_complement(t)
    base_certs = [dual_push_certificate(comp, 1, 0), dual_push_certificate(comp, 1, 1)]
    tried = 0
    for _ in range(300):
        cert = rng.choice(base_certs)
        broken, kind = corrupt(rng, t, cert)
        if broken is None:
            continue
        tried += 1
        try:
            verdict = verify_certificate(t, broken)
        except CertificateFormatError:
            continue  # structural rejection is a failure mode too
        if verdict.passed:
            # a dropped no-op may legitimately verify; insist the verdict is
            # honest by replaying the steps and checking the claimed target
            level, carrier = final_carrier(t, broken.start, broken.steps)
            if broken.target.kind == "skeletal":
                assert all(t.carrier0_dim(level, c) <= broken.target.r
                           for c in carrier)
            else:
                assert all(len(c) - 1 <= broken.target.r for c in carrier)
    assert tried >= 100
