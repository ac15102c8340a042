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

from conftest import CATALOG_NAMES, PATHS, SMALL_NAMES, on_path

import kocover
from kocover import (Certificate, CertificateFormatError,
                     CertificateGenerationError, OpenCellSet, PartitionPush,
                     Refine, StarSnap, SubdivisionTower, Target, TowerError,
                     TowerSizeError, VertexStarSet, build_cover, builtin,
                     certify_to_dimension, make_dual_push, make_star_snap,
                     verify_certificate)
from kocover.certify import (cellset_from_json, certificate_from_json, certificate_to_json,
                             run_steps)
from kocover.complexes import components
from kocover.cover import check_certificate
from kocover.tower import proper_faces


@pytest.fixture
def s2_tower():
    return SubdivisionTower(builtin("boundary-delta-3"))


def one_skeleton_complement(tower):
    cx = tower.base
    return OpenCellSet(tower, 0, [c for c in cx.cells() if len(c) - 1 > 1])


def test_empty_certificate_inside_skeleton(s2_tower):
    cx = s2_tower.base
    verts = OpenCellSet(s2_tower, 0, [c for c in cx.cells() if len(c) == 1])
    verdict = verify_certificate(s2_tower, Certificate(verts, (), Target("skeletal", 0)))
    assert verdict.passed and verdict.monotone


def test_dual_push_lands_on_face_barycenters(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    skel = {c for c in s2_tower.base.cells() if len(c) - 1 <= 1}
    steps = make_dual_push(comp, skel)
    cert = Certificate(comp, tuple(steps), Target("dimensional", 0))
    verdict = verify_certificate(s2_tower, cert)
    assert verdict.passed
    level, carrier = run_steps(s2_tower, comp, steps)
    assert level == 1
    assert len(carrier) == 4 and all(len(c) == 1 for c in carrier)


def test_push_missing_vertex_fails_with_witness(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    bad = Certificate(comp, (Refine(), PartitionPush(1, frozenset())),
                      Target("dimensional", 0))
    verdict = verify_certificate(s2_tower, bad)
    assert not verdict.passed
    assert verdict.failing_step == 1
    assert verdict.witness is not None


def test_push_semantics_and_face_monotone(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    steps = make_dual_push(comp, {c for c in s2_tower.base.cells() if len(c) - 1 <= 1})
    push = steps[1]
    _, refined = run_steps(s2_tower, comp, [steps[0]])
    _, final = run_steps(s2_tower, comp, steps)
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
    comp = one_skeleton_complement(s2_tower)
    steps = make_dual_push(comp, {c for c in s2_tower.base.cells() if len(c) - 1 <= 1})
    level, carrier = run_steps(s2_tower, comp, steps)
    pts = OpenCellSet(s2_tower, level, carrier)
    snap = make_star_snap(pts)
    cert = Certificate(pts, (snap,), Target("skeletal", 0))
    verdict = verify_certificate(s2_tower, cert)
    assert verdict.passed and verdict.monotone
    assert snap == StarSnap(level)
    # each barycenter snapped to the least vertex of its carrier cell
    assert run_steps(s2_tower, pts, (snap,)) == (level, frozenset(
        (s2_tower.lift_base_vertex(min(s2_tower.carrier0(level, c)), level),)
        for c in carrier))


def test_star_snap_identity_on_base_vertices(s2_tower):
    verts = OpenCellSet(s2_tower, 0, [c for c in s2_tower.base.cells() if len(c) == 1])
    snap = make_star_snap(verts)
    assert run_steps(s2_tower, verts, (snap,)) == (0, verts.cells)


def test_star_snap_rejects_edges(s2_tower):
    s = OpenCellSet(s2_tower, 0, [(0, 1)])
    with pytest.raises(CertificateGenerationError):
        make_star_snap(s)


def test_certify_to_dimension_cases(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    cert = certify_to_dimension(comp, 0)
    assert cert.target == Target("skeletal", 0)
    assert verify_certificate(s2_tower, cert).passed

    whole = OpenCellSet(s2_tower, 0, s2_tower.base.cells())
    with pytest.raises(CertificateGenerationError):
        certify_to_dimension(whole, 0)

    # a complex of dimension at most r certifies with no steps
    t1 = SubdivisionTower(builtin("s1"))
    whole1 = OpenCellSet(t1, 0, t1.base.cells())
    cert = certify_to_dimension(whole1, 1)
    assert cert.steps == ()
    assert verify_certificate(t1, cert).passed


def test_a_snap_past_the_materialized_levels_imports_no_numpy():
    # on s2 the dual push refines onto level 1, which is only streamed: the
    # snap there runs in plain Python, so the process never loads numpy
    code = """if True:
        import sys
        from kocover import (OpenCellSet, SubdivisionTower, builtin,
                             certify_to_dimension, verify_certificate)
        tower = SubdivisionTower(builtin("s2"))
        start = OpenCellSet(tower, 0, [c for c in tower.cells(0) if len(c) == 3])
        cert = certify_to_dimension(start, 0)
        assert cert.steps[-1].kind == "snap" and cert.steps[-1].level == 1
        assert verify_certificate(tower, cert).passed
        assert tower.level(1).cells_list is None
        assert "numpy" not in sys.modules
    """
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_certify_to_dimension_snaps_past_the_cell_budget():
    # level 1 of s3 has 540 cells and level 2 has 12,600: the dual push
    # refines onto level 2 and the snap there indexes its carrier alone
    tower = SubdivisionTower(builtin("s3"), max_cells=1000)
    pts = [c for c in tower.cells(1) if len(c) == 1 and tower.carrier0_dim(1, c) == 3]
    cert = certify_to_dimension(OpenCellSet(tower, 1, pts[:3]), 0)
    assert isinstance(cert.steps[-1], StarSnap) and cert.steps[-1].level == 2
    assert verify_certificate(tower, cert).passed
    assert tower.level(2).cells_list is None


def test_dual_push_requires_disjointness(s2_tower):
    whole = OpenCellSet(s2_tower, 0, s2_tower.base.cells())
    with pytest.raises(CertificateGenerationError):
        make_dual_push(whole, {c for c in s2_tower.base.cells() if len(c) - 1 <= 1})


def test_single_top_cell_pushes_to_barycenter():
    t = SubdivisionTower(builtin("delta-2"))
    top = OpenCellSet(t, 0, [(0, 1, 2)])
    steps = make_dual_push(top, {c for c in t.base.cells() if len(c) - 1 <= 1})
    level, carrier = run_steps(t, top, steps)
    assert carrier == frozenset({(t.level(1).vert_id[(0, 1, 2)],)})


@pytest.mark.parametrize("name,m", [("boundary-delta-3", 0), ("boundary-delta-3", 1),
                                    ("delta-3", 1), ("torus-7", 0), ("s1-x-s1", 1)])
def test_dual_push_dimension_law(name, m):
    cx = builtin(name)
    t = SubdivisionTower(cx)
    skel = {c for c in cx.cells() if len(c) - 1 <= m}
    comp = OpenCellSet(t, 0, [c for c in cx.cells() if c not in skel])
    steps = make_dual_push(comp, skel)
    _, carrier = run_steps(t, comp, steps)
    assert max(len(c) - 1 for c in carrier) <= cx.dim - m - 1


def test_monotone_along_every_step(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    cert = certify_to_dimension(comp, 0)
    level, cells = comp.level, frozenset(comp.cells)
    from kocover.certify import _expand_keep
    for step in cert.steps:
        if isinstance(step, Refine):
            level += 1
            cells = frozenset(s2_tower.chains(level, cells))
        elif isinstance(step, PartitionPush):
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
                    shapes += [(push, push), (push, snap, snap), (push, Refine())]
                for steps in shapes:
                    for target in (Target("skeletal", 0), Target("dimensional", r)):
                        v_lazy = verify_certificate(t, Certificate(lazy, steps, target))
                        v_exp = verify_certificate(t, Certificate(explicit, steps, target))
                        assert (v_lazy.passed, v_lazy.monotone, v_lazy.achieved,
                                v_lazy.reason, v_lazy.failing_step) == \
                            (v_exp.passed, v_exp.monotone, v_exp.achieved,
                             v_exp.reason, v_exp.failing_step), (name, level, r, steps, target)
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
        assert run_steps(tower, cert.start, cert.steps) == (level, carrier)
    return verdict


@given(name=st.sampled_from(SMALL_NAMES), level=st.integers(0, 2),
       density=st.floats(0.05, 0.95), streamed=st.booleans(),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_indexed_snap_matches_union_find(small_towers, name, level, density, streamed, rng):
    # a materialized level has its one index; on a level that was only
    # streamed the snap runs in plain Python over the carrier alone and
    # leaves the level unmaterialized
    if streamed:
        tower = SubdivisionTower(builtin(name))
        cells = frozenset(c for c in tower.iter_cells(level) if rng.random() < density)
        snap_on_path("plain", tower, level, cells)
        assert level == 0 or tower.level(level).cells_list is None
        return
    import numpy as np
    tower = small_towers[name]
    cells = frozenset(c for c in tower.cells(level) if rng.random() < density)
    index = tower.index(level)
    assert index is tower.level(level).index
    listed, position = tower.cells(level), tower.cell_index(level)
    pos = np.frombuffer(OpenCellSet(tower, level, cells).numbers(), dtype=np.int32)
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


def test_generated_snap_reads_targets_in_the_order_of_the_numbers(s2_tower):
    # the snap that certify_to_dimension ends with, replayed alone on its
    # carrier renumbered, passes as on the carrier that looks its numbers up
    cert = certify_to_dimension(one_skeleton_complement(s2_tower), 0)
    level, cells = run_steps(s2_tower, cert.start, cert.steps[:-1])
    assert cert.steps[-1] == make_star_snap(OpenCellSet(s2_tower, level, cells))
    shuffled = renumbered(s2_tower, level, cells, random.Random(3))
    assert snap_verdicts(s2_tower, shuffled) \
        == snap_verdicts(s2_tower, OpenCellSet(s2_tower, level, cells)) \
        == (True, "", None, None)


def test_a_start_off_its_streamed_level_is_refused():
    # level 1 of s1: vertices 0-2 are the base vertices, 3-5 the edges. A
    # replay refuses such a start before its first step; with no step, the
    # non-chains once passed as base vertices, and a snap raised IndexError
    for cell, steps in itertools.product([(999,), (0, 1), (3, 5), ()],
                                         [(), (StarSnap(1),)]):
        tower = SubdivisionTower(builtin("s1"))
        el = OpenCellSet(tower, 1, [cell, (0,)])
        cert = Certificate(el, steps, Target("skeletal", 0))
        reason = f"{cell} is not a chain of level-0 cells"
        with pytest.raises(TowerError, match=re.escape(reason)):
            verify_certificate(tower, cert)
        assert check_certificate(tower, el, cert, 0) == (False, f"structural error: {reason}")
        assert tower.level(1).cells_list is None


def test_a_decoded_set_numbers_each_cell_once(s2_tower):
    # a cell listed twice decodes to one cell with one number
    cells = [list(c) for c in s2_tower.cells(1)[:3]]
    el = cellset_from_json(s2_tower, {"kind": "cells", "level": 1,
                                      "cells": [*cells, cells[1]]})
    assert sorted(el.numbers()) == [0, 1, 2] and len(el.cells) == 3


def test_certificate_json_round_trip(s2_tower):
    comp = one_skeleton_complement(s2_tower)
    cert = certify_to_dimension(comp, 0)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    again = certificate_from_json(s2_tower, data)
    assert verify_certificate(s2_tower, again).passed
    assert again.target == cert.target
    assert len(again.steps) == len(cert.steps)


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
    base_certs = [certify_to_dimension(comp, 0), certify_to_dimension(comp, 1)]
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
            level, carrier = run_steps(t, broken.start, list(broken.steps))
            if broken.target.kind == "skeletal":
                assert all(t.carrier0_dim(level, c) <= broken.target.r
                           for c in carrier)
            else:
                assert all(len(c) - 1 <= broken.target.r for c in carrier)
    assert tried >= 100
