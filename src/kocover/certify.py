"""Deformation certificates and their step-by-step verifier.

A certificate deforms an open cell set, on its own tower level, by two
step kinds:

* partition push: inside each cell, push points along join lines away from
  the vertices outside a kept set T, landing on the face spanned by T; the
  cell effect is sigma -> sigma intersect T;
* star snap: contract each connected component of the carrier along
  straight lines to the least base vertex lying in every member cell's
  base carrier.

Both are monotone: along every track the base-carrier dimension never
increases (push and snap tracks stay inside the open carrier cell until
they land in a face). Verification is independent of how a certificate
was produced.

A snap has one rule, min-base-vertex: its components join each carrier
cell to its faces in the carrier, and the members' base carriers are
intersected per component. Every check is exact; a failure names the
failing component that holds the least cell. Every carrier lies on its
start's level, which replay sizes under the cell budget. Arrays are used
only on a level of more than tower.ARRAY_MIN_CELLS (1,000) cells: there
the snap reads the cell numbers the carrier set carries (replay hands
each step the carrier as a set, so a first-step snap reads the numbers
its start was decoded or built with) and is replayed on the level's one
CellIndex (tower.index): the components are labelled on compact nodes,
one per chain block the carrier holds whole and one per present cell of
a block it holds in part, and base carriers are intersected once per
node, as packed vertex words, since every cell of a block has the
block's carrier. The carrier's cells are read only to find the blocks it
holds whole and the cells of the others, and the nodes are numbered by
one running count over the level; hooking and intersecting cost what the
nodes and their edges cost, and the node of each cell is looked up only
for a failure's witness, the least cell of the failing components, which
is read from the level's listing. On a smaller level it is plain Python:
union-find over the carrier's own cells, base carriers from
tower.carrier0. Only the indexed snap imports numpy, so loading this
module does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .complexes import UsageError, components
from .tower import (CellSet, CellT, OpenCellSet, SubdivisionTower, VertexStarSet,
                    index_array, json_field, proper_faces, vertex_set_from_json,
                    vertex_set_to_json)


class CertificateFormatError(UsageError):
    """Structurally malformed certificate (distinct from a failing verdict)."""


class StepFailure(ValueError):
    """A certificate step whose precondition fails on the current carrier."""

    def __init__(self, step: int, reason: str, witness: CellT):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class PartitionPush:
    level: int
    keep: frozenset[int] | int  # vertex ids at `level`, or a center dimension
    kind: str = field(default="push", init=False)


@dataclass(frozen=True)
class StarSnap:
    level: int
    kind: str = field(default="snap", init=False)


Step = PartitionPush | StarSnap


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
    achieved: tuple[int, int] | None  # (max final cell dim, max final base-carrier dim)
    failing_step: int | None = None
    reason: str = ""
    witness: object = None

    def __bool__(self) -> bool:
        return self.passed


def _fail(step: int | None, reason: str, witness=None) -> Verdict:
    return Verdict(False, None, failing_step=step, reason=reason, witness=witness)


# -- verification -------------------------------------------------------------


def verify_certificate(tower: SubdivisionTower, cert: Certificate) -> Verdict:
    """Check every step precondition and the claimed final target.

    Star-backed sets whose centers are given by a dimension follow a
    structural path that never materializes the top level; it relies only
    on tower facts (the elements of a cell form a chain of distinct
    dimensions, so a cell holds at most one vertex of each kind), which the
    test suite checks independently on materialized levels.
    """
    if isinstance(cert.start, VertexStarSet) and isinstance(cert.start.centers, int):
        return _verify_low_star(tower, cert)
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
    and return the final carrier, on the same level.

    A snap reads the cell numbers of the carrier it is handed, so a
    first-step snap reuses the start's. Raises TowerError when the start
    holds a cell that is not on its level or its level is over the cell
    budget, StepFailure when a step's precondition fails on the carrier,
    and CertificateFormatError when a step does not fit the carrier's
    level or names something outside the tower.
    """
    if carrier.tower is not tower:  # the steps read this tower's tables
        carrier = OpenCellSet(tower, carrier.level, carrier.cells)
    # push and snap send cells of a level to cells of that level, so only
    # the start can hold a cell that is not on its level
    carrier.numbers()  # refuses one, on a level sized under the budget
    level = carrier.level
    for idx, step in enumerate(steps):
        if step.level != level:
            raise CertificateFormatError(
                f"{step.kind} at level {step.level} applied to a level-{level} carrier")
        if isinstance(step, StarSnap):
            carrier = _apply_snap(tower, carrier, idx)
            continue
        keep = _expand_keep(tower, level, step.keep)
        pushed = set()
        for c in carrier.cells:
            kept = tuple(filter(keep.__contains__, c))
            if not kept:
                raise StepFailure(idx, "push leaves a carrier cell with no kept vertex", c)
            pushed.add(kept)
        carrier = OpenCellSet(tower, level, pushed)
    return carrier


def _expand_keep(tower: SubdivisionTower, level: int,
                 keep: frozenset[int] | int) -> frozenset[int]:
    if isinstance(keep, int):
        return tower.low_vertices(level, keep)
    if not all(0 <= v < len(tower.level(level).verts) for v in keep):
        raise CertificateFormatError("push keeps a vertex that is not at its level")
    return keep


def _apply_snap(tower: SubdivisionTower, carrier: OpenCellSet, idx: int) -> OpenCellSet:
    level = carrier.level
    if carrier.is_empty():
        return carrier
    snap = _snap_targets if tower.is_small(level) else _indexed_snap_targets
    return OpenCellSet(tower, level, ((tower.lift_base_vertex(v, level),)
                                      for v in snap(tower, carrier, idx)))


def _snap_targets(tower: SubdivisionTower, carrier: OpenCellSet, idx: int) -> set[int]:
    """The base vertices a snap sends the components of a nonempty carrier
    to, in plain Python: union-find joins each carrier cell to its faces in
    the carrier, and base carriers come from tower.carrier0. Raises the
    StepFailure of _indexed_snap_targets."""
    level, cells = carrier.level, carrier.cells
    links = ((c, f) for c in cells for f in proper_faces(c) if f in cells)
    targets: set[int] = set()
    failures = []  # the least cell of each failing component
    for comp in components(cells, links):
        common = set.intersection(*map(set, {tower.carrier0(level, c) for c in comp}))
        if common:
            targets.add(min(common))
        else:
            failures.append(min(comp))
    if failures:
        raise StepFailure(idx, "snap component has no common base-carrier vertex",
                          min(failures))
    return targets


def _indexed_snap_targets(tower: SubdivisionTower, carrier: OpenCellSet,
                          idx: int) -> set[int]:
    """_snap_targets on the CellIndex of the carrier's sized level, over
    the carrier's cell numbers and the compact nodes of its components.

    Every cell of a chain block has the block's base carrier, so a node
    (a block the carrier holds whole, or a cell of a block it holds in
    part) has the carrier of its least cell, and the base carriers are
    intersected once per node, as packed vertex words ANDed onto the
    node's root. Only when a component fails are the cells' nodes looked
    up, and the witness, the least of the failing components' cells, is
    read from the level's listing."""
    import numpy as np
    # two open cells touch iff one is a face of the other and both are
    # present
    pos = index_array(carrier.numbers())
    index = tower.index(carrier.level)
    least, root = index.components(pos)
    words = index.base_words[:, index.carrier[least]]  # word x node
    common = words.copy()
    for acc, word in zip(common, words):  # AND each node's words into its root's
        np.bitwise_and.at(acc, root, word)
    tops = np.flatnonzero(root == np.arange(len(root)))
    # root x base vertex: bit v % 64 of word v // 64 is vertex v
    bits = np.unpackbits(np.ascontiguousarray(common[:, tops].T).view(np.uint8),
                         axis=1, bitorder="little")
    empty = ~bits.any(axis=1)
    if empty.any():
        failing = np.zeros(len(root), dtype=bool)
        failing[tops[empty]] = True
        node = np.searchsorted(least, pos, side="right") - 1
        cells = tower.cells(carrier.level)
        raise StepFailure(idx, "snap component has no common base-carrier vertex",
                          min(map(cells.__getitem__, pos[failing[root[node]]].tolist())))
    return set(bits.argmax(axis=1).tolist())  # the least common vertex


def _final_verdict(tower: SubdivisionTower, target: Target, level: int,
                   cells: frozenset[CellT]) -> Verdict:
    """Judge the final carrier; a failing verdict's witness is the first
    cell, in the set's order, over the target. A cell's base carrier is
    carrier0: the cell itself at level 0, above it vbase of its chain
    maximum, its last vertex."""
    max_dim = max(map(len, cells), default=0) - 1
    if level:
        vbase = tower.level(level).vbase
        base_dims = [len(vbase[c[-1]]) - 1 for c in cells]
    else:
        base_dims = [len(c) - 1 for c in cells]
    verdict = _target_verdict(target, max_dim, max(base_dims, default=-1))
    if not verdict.passed:
        if target.kind == "skeletal":
            verdict.witness = next(c for c, d in zip(cells, base_dims) if d > target.r)
        else:
            verdict.witness = next(c for c in cells if len(c) - 1 > target.r)
    return verdict


def _verify_low_star(tower: SubdivisionTower, cert: Certificate) -> Verdict:
    """Structural path for a star set at level L centered at the vertices
    over level-(L-1) cells of dimension at most r: [push(r)] and, for
    r = 0, [push(0), snap]; any other shape is replayed explicitly. The
    push holds by definition of the star and leaves the subdivided
    r-skeleton of level L-1, of dimension min(r, n), which at level 1 is
    the base one and higher up holds every level-(L-1) vertex, among them
    the barycentres of the base n-cells, so its base carriers reach
    dimension n. For r = 0 its vertex cells are isolated, so the snap
    sends each to a base vertex. No level of the tower is read.
    """
    level, r = cert.start.level, cert.start.centers
    push = PartitionPush(level, r)
    steps = tuple(cert.steps)
    if steps == (push,):
        dim = min(r, tower.base.dim)
        return _target_verdict(cert.target, dim, dim if level == 1 else tower.base.dim)
    if r == 0 and steps == (push, StarSnap(level)):
        return _target_verdict(cert.target, 0, 0)
    # fall back to explicit verification, which may be expensive
    return _verify_explicit(tower, cert)


def _target_verdict(target: Target, max_dim: int, max_base: int) -> Verdict:
    """Judge the final carrier's dimensions against the target."""
    if target.kind == "skeletal" and max_base > target.r:
        return _fail(None, f"final carrier leaves the base {target.r}-skeleton")
    if target.kind == "dimensional" and max_dim > target.r:
        return _fail(None, f"final carrier has dimension {max_dim} > {target.r}")
    return Verdict(True, (max_dim, max_base))


# -- serialization ------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """A certificate as JSON: kept vertices as vertex numbers (see
    tower.vertex_set_to_json), a snap as its level and its rule. The
    start is not written: in a bundle, certificate i starts at element i."""
    steps = []
    for step in cert.steps:
        if isinstance(step, PartitionPush):
            steps.append({"kind": "push", "level": step.level,
                          "keep": vertex_set_to_json(step.keep)})
        elif isinstance(step, StarSnap):
            steps.append({"kind": "snap", "level": step.level,
                          "assignment": {"kind": "min-base-vertex"}})
    return {"steps": steps, "target": {"kind": cert.target.kind, "r": cert.target.r}}


def certificate_from_json(tower: SubdivisionTower, data: dict,
                          start: CellSet) -> Certificate:
    """Inverse of certificate_to_json, for a certificate that starts at
    start."""
    steps: list[Step] = []
    for sd in json_field(data, "steps", list, CertificateFormatError):
        kind = json_field(sd, "kind", str, CertificateFormatError)
        if kind == "push":
            level = json_field(sd, "level", int, CertificateFormatError)
            keep = json_field(sd, "keep", dict, CertificateFormatError)
            steps.append(PartitionPush(level, vertex_set_from_json(tower, level, keep)))
        elif kind == "snap":
            level = json_field(sd, "level", int, CertificateFormatError)
            assignment = json_field(sd, "assignment", dict, CertificateFormatError)
            rule = json_field(assignment, "kind", str, CertificateFormatError)
            if rule != "min-base-vertex":
                raise CertificateFormatError(f"unknown snap assignment kind {rule!r}")
            steps.append(StarSnap(level))
        else:
            raise CertificateFormatError(f"unknown step kind {kind!r}")
    tgt = json_field(data, "target", dict, CertificateFormatError)
    return Certificate(start, tuple(steps),
                       Target(json_field(tgt, "kind", str, CertificateFormatError),
                              json_field(tgt, "r", int, CertificateFormatError)))


def cellset_from_json(tower: SubdivisionTower, data: dict) -> CellSet:
    level = json_field(data, "level", int, CertificateFormatError)
    kind = json_field(data, "kind", str, CertificateFormatError)
    if kind == "cells":
        return OpenCellSet.from_json_cells(
            tower, level, json_field(data, "cells", list, CertificateFormatError))
    if kind == "star":
        centers = json_field(data, "centers", dict, CertificateFormatError)
        return VertexStarSet(tower, level, vertex_set_from_json(tower, level, centers))
    raise CertificateFormatError(f"unknown cell set kind {kind!r}")
