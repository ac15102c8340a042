"""Deformation certificates and their step-by-step verifier.

A certificate deforms an open cell set by three step kinds:

* refine: pass to the next tower level (identity on points);
* partition push: inside each cell, push points along join lines away from
  the vertices outside a kept set T, landing on the face spanned by T; the
  cell effect is sigma -> sigma intersect T;
* star snap: contract each connected component of the carrier along
  straight lines to a base vertex lying in every member cell's base
  carrier.

All three are monotone: along every track the base-carrier dimension never
increases (push and snap tracks stay inside the open carrier cell until
they land in a face, refine is the identity). Verification is independent
of how a certificate was produced.

A snap's components join each carrier cell to its faces in the carrier;
the min-base-vertex rule intersects the members' base carriers per
component, and an explicit assignment is checked for one target per
component lying in every member's base carrier. Every check is exact; a
failure names the failing component that holds the least cell, and for a
target outside a member's base carrier, the least such member. Arrays are
used only on a materialized level of more than tower.ARRAY_MIN_CELLS
(1,000) cells: there the snap reads the cell numbers the carrier set
carries (replay hands each step the carrier as a set, so a first-step
snap reads the numbers its start was decoded or built with) and is
replayed on the level's one CellIndex (tower.index), the face pairs
masked to the carrier and labelled with array operations, and an
explicit assignment read in the order of the numbers. On any other
level, a small one or one that was only streamed, it is plain Python:
union-find over the carrier's own cells, base carriers from
tower.carrier0. Only the indexed snap imports numpy, so loading this
module does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .complexes import UsageError, components
from .tower import (CellIndex, CellSet, CellT, OpenCellSet, SubdivisionTower,
                    VertexStarSet, cells_from_json, json_field, proper_faces,
                    vertex_set_from_json, vertex_set_to_json)

if TYPE_CHECKING:
    import numpy as np


class CertificateFormatError(UsageError):
    """Structurally malformed certificate (distinct from a failing verdict)."""


class CertificateGenerationError(ValueError):
    """A certificate generator could not produce a valid certificate."""


class StepFailure(ValueError):
    """A certificate step whose precondition fails on the current carrier."""

    def __init__(self, step: int, reason: str, witness: CellT):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class Refine:
    kind: str = field(default="refine", init=False)


@dataclass(frozen=True)
class PartitionPush:
    level: int
    keep: frozenset[int] | str  # vertex ids at `level`, or "old"
    kind: str = field(default="push", init=False)


@dataclass(frozen=True)
class StarSnap:
    level: int
    # cell -> base vertex id, or the rule "min-base-vertex"
    assignment: tuple[tuple[CellT, int], ...] | str
    kind: str = field(default="snap", init=False)


Step = Refine | PartitionPush | StarSnap


@dataclass(frozen=True)
class Target:
    kind: str  # "skeletal" or "dimensional"
    r: int

    def __post_init__(self):
        if self.kind not in ("skeletal", "dimensional"):
            raise CertificateFormatError(f"unknown target kind {self.kind!r}")
        if self.r < 0:
            raise CertificateFormatError("target dimension must be nonnegative")


@dataclass(frozen=True)
class Certificate:
    start: CellSet
    steps: tuple[Step, ...]
    target: Target


@dataclass
class Verdict:
    passed: bool
    monotone: bool
    achieved: tuple[int, int] | None  # (max final cell dim, max final base-carrier dim)
    failing_step: int | None = None
    reason: str = ""
    witness: object = None

    def __bool__(self) -> bool:
        return self.passed


def _fail(step: int | None, reason: str, witness=None) -> Verdict:
    return Verdict(False, False, None, failing_step=step, reason=reason, witness=witness)


# -- verification -------------------------------------------------------------


def verify_certificate(tower: SubdivisionTower, cert: Certificate) -> Verdict:
    """Check every step precondition and the claimed final target.

    Star-backed sets whose centers are the "old" vertices follow a
    structural path that never materializes the top level; it relies only
    on tower facts (the elements of a cell form a chain of distinct
    dimensions, so a cell holds at most one vertex of each kind), which the
    test suite checks independently on materialized levels.
    """
    if isinstance(cert.start, VertexStarSet) and cert.start.centers == "old":
        return _verify_star_old(tower, cert)
    return _verify_explicit(tower, cert)


def _verify_explicit(tower: SubdivisionTower, cert: Certificate) -> Verdict:
    try:
        carrier = replay(tower, cert.start.materialize(), cert.steps)
    except StepFailure as exc:
        return _fail(exc.step, exc.reason, exc.witness)
    return _final_verdict(tower, cert.target, carrier.level, carrier.cells)


def replay(tower: SubdivisionTower, carrier: OpenCellSet,
           steps: Sequence[Step]) -> OpenCellSet:
    """Apply certificate steps to a materialized carrier, one at a time,
    and return the final carrier.

    A snap reads the cell numbers of the carrier it is handed, so a
    first-step snap reuses the start's. Raises StepFailure when a step's
    precondition fails on the carrier, and CertificateFormatError when a
    step does not fit the carrier's level or names something outside the
    tower.
    """
    if carrier.tower is not tower:  # the steps read this tower's tables
        carrier = OpenCellSet(tower, carrier.level, carrier.cells)
    for idx, step in enumerate(steps):
        level = carrier.level
        if isinstance(step, Refine):
            carrier = OpenCellSet(tower, level + 1, tower.chains(level + 1, carrier.cells))
        elif isinstance(step, (PartitionPush, StarSnap)):
            if step.level != level:
                raise CertificateFormatError(
                    f"{step.kind} at level {step.level} applied to a level-{level} carrier")
            if isinstance(step, StarSnap):
                carrier = _apply_snap(tower, carrier, step, idx)
            else:
                keep = _expand_keep(tower, level, step.keep)
                pushed = set()
                for c in carrier.cells:
                    kept = tuple(v for v in c if v in keep)
                    if not kept:
                        raise StepFailure(
                            idx, "push leaves a carrier cell with no kept vertex", c)
                    pushed.add(kept)
                carrier = OpenCellSet(tower, level, pushed)
        else:
            raise CertificateFormatError(f"unknown step {step!r}")
    return carrier


def _expand_keep(tower: SubdivisionTower, level: int,
                 keep: frozenset[int] | str) -> frozenset[int]:
    lv = tower.level(level)
    if keep == "old":
        return frozenset(v for v in range(len(lv.verts)) if lv.vdim[v] == 0)
    if not all(0 <= v < len(lv.verts) for v in keep):  # type: ignore[operator]
        raise CertificateFormatError("push keeps a vertex that is not at its level")
    return keep  # type: ignore[return-value]


def _apply_snap(tower: SubdivisionTower, carrier: OpenCellSet, step: StarSnap,
                idx: int) -> OpenCellSet:
    level, cells = carrier.level, carrier.cells
    assign = None
    if step.assignment != "min-base-vertex":
        assign = dict(step.assignment)  # type: ignore[arg-type]
        if any(c not in assign for c in cells):
            raise CertificateFormatError("snap assignment does not cover the carrier")
        nbase = len(tower.base.vertices)
        if any(not 0 <= v < nbase for v in assign.values()):
            raise CertificateFormatError("snap assigns a non-vertex of the base complex")
    if not cells:
        return carrier
    snap = _snap_targets if tower.is_small(level) else _indexed_snap_targets
    return OpenCellSet(tower, level, ((tower.lift_base_vertex(v, level),)
                                      for v in snap(tower, carrier, assign, idx)))


def _snap_targets(tower: SubdivisionTower, carrier: OpenCellSet,
                  assign: dict[CellT, int] | None, idx: int) -> set[int]:
    """The base vertices a snap sends the components of a nonempty carrier
    to, in plain Python: union-find joins each carrier cell to its faces in
    the carrier, and base carriers come from tower.carrier0. assign is the
    explicit assignment, or None for the min-base-vertex rule. Raises the
    StepFailure of _indexed_snap_targets, and on a materialized level the
    TowerError of OpenCellSet.numbers for a cell that is not on it."""
    level, cells = carrier.level, carrier.cells
    if tower.level(level).cells_list is not None:
        carrier.numbers()  # refuses a cell that is not on the level
    links = ((c, f) for c in cells for f in proper_faces(c) if f in cells)
    targets: set[int] = set()
    failures = []  # (least cell, reason, witness) of each failing component
    for comp in components(cells, links):
        least = min(comp)
        base = {c: tower.carrier0(level, c) for c in comp}
        if assign is None:
            common = set.intersection(*map(set, set(base.values())))
            if common:
                targets.add(min(common))
            else:
                failures.append((least, "snap component has no common base-carrier vertex",
                                 least))
            continue
        goals = {assign[c] for c in comp}
        if len(goals) > 1:
            failures.append((least, "snap assigns different vertices inside one component",
                             least))
            continue
        (goal,) = goals
        outside = [c for c in comp if goal not in base[c]]
        if outside:
            failures.append((least, "snap target is not a vertex of a member cell's base "
                             "carrier", min(outside)))
        else:
            targets.add(goal)
    if failures:
        _, reason, witness = min(failures)
        raise StepFailure(idx, reason, witness)
    return targets


def _indexed_snap_targets(tower: SubdivisionTower, carrier: OpenCellSet,
                          assign: dict[CellT, int] | None, idx: int) -> set[int]:
    """_snap_targets on the CellIndex of the carrier's materialized level,
    over the carrier's cell numbers."""
    import numpy as np
    # two open cells touch iff one is a face of the other and both are
    # present; sorting on the component roots groups each component
    pos = np.frombuffer(carrier.numbers(), dtype=np.int32)
    index = tower.index(carrier.level)
    root = index.components(pos)
    order = np.argsort(root, kind="stable")
    member, root = pos[order], root[order]
    first = np.ones(len(root), dtype=bool)  # does a component start here?
    first[1:] = root[1:] != root[:-1]
    starts = np.flatnonzero(first)
    comp = np.cumsum(first) - 1  # the component of each member
    in_carrier = index.base_verts[index.carrier[member]]  # member x base vertex
    if assign is None:
        common = np.logical_and.reduceat(in_carrier, starts, axis=0)
        empty = ~common.any(axis=1)
        if empty.any():
            raise StepFailure(idx, "snap component has no common base-carrier vertex",
                              _least_failing(index, member, comp, empty)[1])
        target = common.argmax(axis=1)  # the least common vertex
    else:
        # each member's target, in the order of the numbers
        goal = np.fromiter(map(assign.__getitem__, map(index.cells.__getitem__, pos.tolist())),
                           dtype=np.intp, count=len(pos))[order]
        split = np.minimum.reduceat(goal, starts) != np.maximum.reduceat(goal, starts)
        outside = ~in_carrier[np.arange(len(member)), goal]
        bad = split | np.logical_or.reduceat(outside, starts)
        if bad.any():
            k, witness = _least_failing(index, member, comp, bad)
            if split[k]:
                raise StepFailure(
                    idx, "snap assigns different vertices inside one component", witness)
            raise StepFailure(
                idx, "snap target is not a vertex of a member cell's base carrier",
                min(index.cells[p] for p in member[(comp == k) & outside].tolist()))
        target = goal[starts]
    return set(target.tolist())


def _least_failing(index: CellIndex, member: np.ndarray, comp: np.ndarray,
                   failing: np.ndarray) -> tuple[int, CellT]:
    """Among the failing components, the one holding the least cell of
    any of them (tuple order), and that cell: a witness that does not
    depend on how the cells were numbered."""
    hit = failing[comp]
    witness, k = min(zip(map(index.cells.__getitem__, member[hit].tolist()),
                         comp[hit].tolist()))
    return k, witness


def _final_verdict(tower: SubdivisionTower, target: Target, level: int,
                   cells: frozenset[CellT]) -> Verdict:
    max_dim = max((len(c) - 1 for c in cells), default=-1)
    max_base = max((tower.carrier0_dim(level, c) for c in cells), default=-1)
    verdict = _target_verdict(target, max_dim, max_base)
    if not verdict.passed:
        if target.kind == "skeletal":
            verdict.witness = next(c for c in cells
                                   if tower.carrier0_dim(level, c) > target.r)
        else:
            verdict.witness = next(c for c in cells if len(c) - 1 > target.r)
    return verdict


def _verify_star_old(tower: SubdivisionTower, cert: Certificate) -> Verdict:
    """Structural path for star sets centered at all old vertices.

    Expected shape: [push(old)] followed by an optional snap rule. The push
    precondition holds by definition of the star; each cell keeps at most
    one vertex because a cell's elements form a chain, which contains at
    most one zero-dimensional member. The pushed carrier is the set of old
    vertex cells, whose points are the vertices of the level below.
    """
    start: VertexStarSet = cert.start  # type: ignore[assignment]
    level = start.level
    steps = list(cert.steps)
    if not steps or not isinstance(steps[0], PartitionPush) or steps[0].keep != "old" \
            or steps[0].level != level:
        # fall back to explicit verification, which may be expensive
        return _verify_explicit(tower, cert)
    # after the push: one cell per old vertex; old vertices at `level` are
    # exactly the vertices of level-1, i.e. the cells of level-2
    lowlv = tower.level(level - 1)
    old_verts = list(range(len(lowlv.verts)))  # level-(L-1) vertex ids
    rest = steps[1:]
    if not rest:
        # bare push: final carrier is the old vertex cells
        max_base = max((len(lowlv.vbase[w]) - 1 for w in old_verts), default=-1)
        return _target_verdict(cert.target, 0, max_base)
    if len(rest) == 1 and isinstance(rest[0], StarSnap) \
            and rest[0].assignment == "min-base-vertex" and rest[0].level == level:
        # isolated vertex cells are their own components; the rule picks the
        # least vertex of each base carrier, which is a valid assignment
        return _target_verdict(cert.target, 0, 0)
    return _fail(1, "unsupported step after a lazy star push", witness=None)


def _target_verdict(target: Target, max_dim: int, max_base: int) -> Verdict:
    """Judge the final carrier's dimensions against the target. Every step
    kind that replay accepts is monotone, so a passing verdict is monotone."""
    if target.kind == "skeletal" and max_base > target.r:
        return _fail(None, f"final carrier leaves the base {target.r}-skeleton")
    if target.kind == "dimensional" and max_dim > target.r:
        return _fail(None, f"final carrier has dimension {max_dim} > {target.r}")
    return Verdict(True, True, (max_dim, max_base))


# -- generators ---------------------------------------------------------------


def run_steps(tower: SubdivisionTower, start: CellSet,
              steps: Sequence[Step]) -> tuple[int, frozenset[CellT]]:
    """Apply steps to a set, returning the final carrier; raises
    CertificateGenerationError when a step precondition fails."""
    try:
        carrier = replay(tower, start.materialize(), steps)
    except StepFailure as exc:
        raise CertificateGenerationError(exc.reason) from exc
    return carrier.level, carrier.cells


def make_dual_push(s: CellSet, avoid_cells: set[CellT]) -> list[Step]:
    """Refine then push away from a base subcomplex the set does not meet.

    The kept vertices are the barycenters of the cells not contained in the
    avoided subcomplex; when the avoided set contains the base m-skeleton
    and the input lives at level 0, the result lands in the dual complex of
    dimension at most dim - m - 1.
    """
    tower = s.tower
    for c in s.materialize().cells:
        if tower.carrier0(s.level, c) in avoid_cells:
            raise CertificateGenerationError(
                f"set meets the avoided subcomplex at {c}")
    nxt = tower.level(s.level + 1)
    keep = frozenset(
        v for v in range(len(nxt.verts))
        if nxt.vbase[v] not in avoid_cells)
    return [Refine(), PartitionPush(s.level + 1, keep)]


def make_star_snap(s: CellSet) -> StarSnap:
    """Snap a set of isolated points to base vertices (least vertex id wins)."""
    s = s.materialize()
    tower = s.tower
    if any(len(c) != 1 for c in s.cells):
        raise CertificateGenerationError("star snap needs a zero-dimensional carrier")
    assign = tuple(sorted((c, min(tower.carrier0(s.level, c))) for c in s.cells))
    return StarSnap(s.level, assign)


def certify_to_dimension(s: CellSet, r: int) -> Certificate:
    """Dual-push certificate for a set avoiding a deep enough skeleton.

    Scans for the largest skeleton the set misses; fails (with a report,
    not a crash) when no skeleton of dimension at least dim-r-1 qualifies.
    """
    tower = s.tower
    n = tower.base.dim
    if r < 0:
        raise CertificateGenerationError("negative target dimension")
    cells = s.materialize().cells
    if n <= r:
        return Certificate(s, (), Target("dimensional", r))
    lowest = n - r - 1
    base_cells = tower.cells(0)
    for sk in range(n - 1, lowest - 1, -1):
        avoid = {c for c in base_cells if len(c) - 1 <= sk}
        if any(tower.carrier0(s.level, c) in avoid for c in cells):
            continue
        steps = make_dual_push(s, avoid)
        if r == 0:
            level, carrier = run_steps(tower, s, steps)
            try:
                snap = make_star_snap(OpenCellSet(tower, level, carrier))
            except CertificateGenerationError:
                continue
            cert = Certificate(s, tuple(steps) + (snap,), Target("skeletal", 0))
        else:
            cert = Certificate(s, tuple(steps), Target("dimensional", r))
        verdict = verify_certificate(tower, cert)
        if verdict.passed:
            return cert
    raise CertificateGenerationError(
        f"no skeleton of dimension >= {lowest} is avoided by the set")


# -- serialization ------------------------------------------------------------


def certificate_to_json(tower: SubdivisionTower, cert: Certificate) -> dict:
    """A certificate as JSON: cells and kept vertices as vertex numbers (see
    tower.cells_from_json), snap pairs as [cell, base vertex label]."""
    labels = tower.base.vertices
    steps = []
    for step in cert.steps:
        if isinstance(step, Refine):
            steps.append({"kind": "refine"})
        elif isinstance(step, PartitionPush):
            steps.append({"kind": "push", "level": step.level,
                          "keep": vertex_set_to_json(step.keep)})
        elif isinstance(step, StarSnap):
            if step.assignment == "min-base-vertex":
                assignment = {"kind": "min-base-vertex"}
            else:
                assignment = {"kind": "explicit",
                              "pairs": sorted([list(c), labels[v]]
                                              for c, v in step.assignment)}
            steps.append({"kind": "snap", "level": step.level, "assignment": assignment})
    return {"start": cert.start.to_json(), "steps": steps,
            "target": {"kind": cert.target.kind, "r": cert.target.r}}


def certificate_from_json(tower: SubdivisionTower, data: dict,
                          known: tuple[object, CellSet] | None = None) -> Certificate:
    """Inverse of certificate_to_json. known, when given, is a JSON cell set
    and its decoding: a start equal to it is not decoded again."""
    start_data = json_field(data, "start", dict, CertificateFormatError)
    if known is not None and start_data == known[0]:
        start = known[1]
    else:
        start = cellset_from_json(tower, start_data)
    steps: list[Step] = []
    for sd in json_field(data, "steps", list, CertificateFormatError):
        kind = json_field(sd, "kind", str, CertificateFormatError)
        if kind == "refine":
            steps.append(Refine())
        elif kind == "push":
            level = json_field(sd, "level", int, CertificateFormatError)
            keep = json_field(sd, "keep", dict, CertificateFormatError)
            steps.append(PartitionPush(level, vertex_set_from_json(tower, level, keep)))
        elif kind == "snap":
            level = json_field(sd, "level", int, CertificateFormatError)
            assignment = json_field(sd, "assignment", dict, CertificateFormatError)
            if assignment["kind"] == "min-base-vertex":
                steps.append(StarSnap(level, "min-base-vertex"))
            elif assignment["kind"] != "explicit":
                raise CertificateFormatError(
                    f"unknown snap assignment kind {assignment['kind']!r}")
            else:
                pairs = json_field(assignment, "pairs", list, CertificateFormatError)
                if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
                    raise CertificateFormatError("a snap pair is [cell, base vertex label]")
                cells, _ = cells_from_json(tower, level, [c for c, _ in pairs])
                targets = [_base_vertex(tower, label) for _, label in pairs]
                steps.append(StarSnap(level, tuple(sorted(zip(cells, targets)))))
        else:
            raise CertificateFormatError(f"unknown step kind {kind!r}")
    tgt = json_field(data, "target", dict, CertificateFormatError)
    return Certificate(start, tuple(steps),
                       Target(tgt["kind"], json_field(tgt, "r", int, CertificateFormatError)))


def _base_vertex(tower: SubdivisionTower, label) -> int:
    index = tower.base.vertex_index
    if not isinstance(label, str) or label not in index:
        raise CertificateFormatError(f"snap target {label!r} is not a base vertex label")
    return index[label]


def cellset_from_json(tower: SubdivisionTower, data: dict) -> CellSet:
    level = json_field(data, "level", int, CertificateFormatError)
    if data["kind"] == "cells":
        return OpenCellSet.from_json_cells(
            tower, level, json_field(data, "cells", list, CertificateFormatError))
    if data["kind"] == "star":
        centers = json_field(data, "centers", dict, CertificateFormatError)
        return VertexStarSet(tower, level, vertex_set_from_json(tower, level, centers))
    raise CertificateFormatError(f"unknown cell set kind {data.get('kind')!r}")
