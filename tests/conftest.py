import collections
import contextlib
import sys
from unittest import mock

import pytest

import kocover.tower
from kocover import (Certificate, OpenCellSet, PartitionPush, StarSnap, SubdivisionTower,
                     Target, builtin, cover_parameters)

CATALOG_NAMES = [
    "delta-2", "delta-3", "boundary-delta-3", "boundary-delta-4", "s1",
    "torus-7", "rp2-6", "s1-x-s1", "s1-x-s2",
]



def cover_grid():
    """The criterion-3 grid: every r in 0..2 with the four smallest
    admissible m."""
    out = []
    for name in CATALOG_NAMES:
        cx = builtin(name)
        for r in (0, 1, 2):
            n_min = cover_parameters(cx, r)
            for m in range(n_min, n_min + 4):
                out.append((name, r, m))
    return out


SMALL_NAMES = ["s1", "delta-2", "boundary-delta-3", "torus-7", "rp2-6"]

PATHS = ("arrays", "plain")


@contextlib.contextmanager
def on_path(path):
    """Run every signature walk and snap without a star DP on a CellIndex
    ("arrays") or in plain Python ("plain"), whatever the size of its
    level: the one size rule, tower.ARRAY_MIN_CELLS, moved to either end.
    Both paths run on a sized level."""
    size = {"arrays": -1, "plain": sys.maxsize}[path]
    with mock.patch.object(kocover.tower, "ARRAY_MIN_CELLS", size):
        yield


def dual_push_certificate(s: OpenCellSet, skeleton: int, r: int) -> Certificate:
    """A certificate for an open cell set s that misses the base
    skeleton-skeleton: its start is s one level down, the chains of its
    cells (tower.chains), and its push keeps the vertices over base cells
    of higher dimension, so the carrier lands in the dual complex, of
    dimension at most dim X - skeleton - 1. For r = 0 a star snap follows, into the base
    0-skeleton; otherwise the target is dimension r."""
    tower, level = s.tower, s.level + 1
    start = OpenCellSet(tower, level, tower.chains(level, s.cells))
    keep = frozenset(v for v, b in enumerate(tower.level(level).vbase) if len(b) > skeleton + 1)
    if r == 0:
        return Certificate(start, (PartitionPush(level, keep), StarSnap(level)),
                           Target("skeletal", 0))
    return Certificate(start, (PartitionPush(level, keep),), Target("dimensional", r))


# acceptance results: criterion id -> list of (label, passed, detail)
ACCEPTANCE = collections.defaultdict(list)


def record_acceptance(criterion: int, label: str, passed: bool, detail: str = ""):
    ACCEPTANCE[criterion].append((label, passed, detail))


@pytest.fixture(scope="session")
def catalog():
    return {name: builtin(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def small_towers():
    return {name: SubdivisionTower(builtin(name)) for name in SMALL_NAMES}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for crit in sorted(ACCEPTANCE):
        rows = ACCEPTANCE[crit]
        ok = all(p for _, p, _ in rows)
        n_fail = sum(1 for _, p, _ in rows if not p)
        status = "PASS" if ok else f"FAIL ({n_fail}/{len(rows)} instances failed)"
        tr.write_line(f"criterion {crit}: {status}")
        for label, passed, detail in rows:
            mark = "pass" if passed else "FAIL"
            line = f"  [{mark}] {label}"
            if detail and not passed:
                line += f" :: {detail}"
            tr.write_line(line)
