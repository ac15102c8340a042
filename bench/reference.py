"""Host-speed reference: a fixed loop, timed between a pass's operations.

    python3 bench/reference.py      # the helper process HostClock starts

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, in phases that last from seconds to minutes; process CPU
time drifts with it, so it is contention for caches and memory, not
descheduling. A run of 30 s sits inside one phase, and no median over its
passes can remove a phase. So every pass is timed twice over: as it ran,
and scaled by the speed of this reference loop, sampled before the
operations of the pass and after the last one:

    norm_s = seconds * REFERENCE_S / (reference time during the pass)

where the reference time during the pass is the median of its samples. One
sample is itself a median over a few loops, and the median over the
samples of a pass keeps one slow sample next to a long operation from
moving the whole pass.

REFERENCE_S is the loop's median time on a quiet 2-core x86_64 VM under
CPython 3, so normalized seconds read close to wall seconds there. The loop
uses only the standard library and no kocover code, so a change to kocover
moves normalized times exactly as much as raw ones, while a slower or
faster host phase moves both the loop and the operations.

The loop does what kocover's cell code does: dict lookups of cells (tuples
of vertex ids) in random order over a table of tens of megabytes, which is
what makes kocover sensitive to other tenants' cache use, and some
cache-resident tuple, frozenset and sorting work. The table lives in a
helper process, so it never counts toward the worker's peak RSS; the
worker and the helper take turns, never running at once.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from itertools import combinations

perf = time.perf_counter

REFERENCE_S = 0.05        # median reference_work() time on the quiet reference VM
REPEATS = 3               # one sample is the median of this many loops
MIN_GAP_S = 2.0           # sample before an operation only if this long has passed
TABLE_CELLS = 200_000     # cells in the lookup table, about 60 MB with the dict
LOOKUPS = 30_000          # random-order lookups per loop


def make_table() -> tuple[dict, list]:
    rng = random.Random(0)
    bits = rng.getrandbits
    cells = [tuple(sorted((bits(20), bits(20), bits(20)))) for _ in range(TABLE_CELLS)]
    table = {c: i for i, c in enumerate(cells)}
    order = cells[:LOOKUPS]
    rng.shuffle(order)
    return table, order


def reference_work(table: dict, order: list) -> int:
    """A fixed amount of pure-Python work."""
    acc = 0
    for cell in order:
        acc += table[cell] + (cell[1:] in table)
    for n in (9, 10, 11, 12, 13, 14, 15, 16, 17) * 3:
        faces = {}
        for cell in combinations(range(n), 3):
            faces[tuple(sorted(cell, reverse=True))] = frozenset(cell)
        acc += sum(len(fs) for _, fs in sorted(faces.items(), key=lambda kv: kv[0][::-1]))
    return acc


def main() -> int:
    """Serve samples: one line in, one loop time (a median) out."""
    table, order = make_table()
    print("ready", flush=True)
    for _ in sys.stdin:
        times = []
        for _ in range(REPEATS):
            t = perf()
            reference_work(table, order)
            times.append(perf() - t)
        print(repr(statistics.median(times)), flush=True)
    return 0


class HostClock:
    """Samples the reference loop over a pass, in a helper process."""

    def __init__(self, enabled: bool = True):
        self.samples: list[tuple[float, float]] = []   # (taken at, loop seconds)
        self.spent = 0.0                               # time waiting for samples
        self.proc = None
        if enabled:
            self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
            if self.proc.stdout.readline().strip() != "ready":
                self.close()
                raise RuntimeError("reference helper did not start")

    def close(self) -> None:
        if self.proc is not None:
            self.proc.stdin.close()   # the helper exits at end of input
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def sample(self) -> None:
        if self.proc is None:
            return
        t0 = perf()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        secs = float(self.proc.stdout.readline())   # raises if the helper died
        now = perf()
        self.samples.append((now, secs))
        self.spent += now - t0

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent; call before an operation."""
        if not self.samples or perf() - self.samples[-1][0] >= MIN_GAP_S:
            self.sample()

    def factor(self) -> float:
        """The scale from raw to normalized seconds for the pass sampled so
        far; 1.0 when sampling is off."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(s for _, s in self.samples)


if __name__ == "__main__":
    sys.exit(main())
