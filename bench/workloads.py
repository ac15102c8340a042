"""Seeded workload definitions and the operations one pass runs.

A workload is a list of operations with known answers. The seed chooses the
`random:` complexes and the negative controls; kocover itself only ever sees
the generated specs. Random complexes are drawn from one fixed f-vector per
slot: the number of cells at every subdivision level depends only on the
base f-vector, so every seed streams and materializes the same number of
cells and timings stay comparable across seeds.

Every operation records its wall time and whether its verdict matched the
known answer. An unexpected exception from kocover is caught only by
`run_op` and `run_cli`, which count it as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kocover
from kocover import cli, cover

WORKLOADS = ("signature-walk", "wheel-crack", "cli-roundtrip")
# `kocover ... verify` processes run this often on each bundle and the median
# time counts: one verify of the 75 MB bundle is most of verify_s, too much to
# rest on a single timing
VERIFY_REPEATS = 3

# cup length mod 2 of every catalog complex: simplices and the point are
# contractible (0), spheres have one generator (1), and the torus, RP^2 and
# the sphere products have a nonzero product of two classes (2)
CUPLENGTH = {
    "point": 0, "delta-1": 0, "delta-2": 0, "delta-3": 0, "delta-4": 0,
    "boundary-delta-2": 1, "boundary-delta-3": 1, "boundary-delta-4": 1,
    "s1": 1, "s2": 1, "s3": 1,
    "torus-7": 2, "rp2-6": 2, "s1-x-s1": 2, "s1-x-s2": 2,
}


def f_vector(cx) -> tuple[int, ...]:
    return tuple(len(cx.cells(d)) for d in range(cx.dim + 1))


def seeded_spec(rng: random.Random, dim: int, nverts: int,
                fvec: tuple[int, ...]) -> str:
    """A `random:` spec whose complex has exactly the given f-vector."""
    for _ in range(5000):
        spec = f"random:{dim}:{nverts}:{rng.randrange(1_000_000)}"
        if f_vector(kocover.builtin(spec)) == fvec:
            return spec
    raise RuntimeError(f"no random:{dim}:{nverts} complex with f-vector {fvec}")


@dataclasses.dataclass
class Instance:
    """One in-process build + verify with its expected construction."""

    spec: str
    r: int
    m: int
    construction: str


@dataclasses.dataclass
class Plan:
    workload: str
    instances: list[Instance]          # in-process workloads
    cli_ops: list["CliOp"]             # cli-roundtrip
    control_instance: int = 0          # index into instances for in-process controls
    control_element: int = 0
    control_certificate: int = 0


@dataclasses.dataclass
class CliOp:
    """One `kocover` invocation and its known answer.

    kind: build | verify | check | control (only build and verify times
    enter build_s and verify_s). expect_rc is the exit code that counts as
    the right verdict; expect_out, when set, must appear in stdout.
    """

    name: str
    argv: list[str]
    kind: str
    expect_rc: int = 0
    expect_out: str | None = None
    bundle: str | None = None          # file this op writes
    tamper: tuple | None = None        # (source bundle, how, arg) applied first
    instance: str = ""                 # build and verify ops name their instance


def make_plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "signature-walk":
        if tiny:
            insts = [Instance("boundary-delta-3", 0, 3, "layered-stars"),
                     Instance(seeded_spec(rng, 2, 5, (5, 7, 3)), 0, 3, "layered-stars")]
        else:
            insts = [Instance("boundary-delta-4", 0, 4, "layered-stars"),
                     Instance(seeded_spec(rng, 3, 6, (6, 12, 10, 3)), 0, 4,
                              "layered-stars")]
        # controls run on the cheapest instance: a 2-dimensional layered cover
        ctl = Instance("boundary-delta-3", 0, 3, "layered-stars")
    elif workload == "wheel-crack":
        if tiny:
            insts = [Instance("delta-2", 0, 5, "wheel-cracks")]
        else:
            insts = [Instance("delta-2", 0, 6, "wheel-cracks"),
                     Instance("boundary-delta-3", 0, 6, "wheel-cracks"),
                     Instance(seeded_spec(rng, 2, 7, (7, 12, 5)), 0, 5, "wheel-cracks")]
        ctl = insts[0]
    elif workload == "cli-roundtrip":
        return Plan(workload, [], cli_plan(rng, tiny))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if ctl not in insts:
        insts.append(ctl)
    idx = insts.index(ctl)
    # certificate 0 of a layered cover pushes onto the base vertices, which
    # already lie in the 0-skeleton, so only later ones need their snap
    return Plan(workload, insts, [], control_instance=idx,
                control_element=rng.randrange(ctl.m),
                control_certificate=rng.randrange(1, ctl.m))


def cli_plan(rng: random.Random, tiny: bool) -> list[CliOp]:
    staggered = seeded_spec(rng, 2, 8, (8, 14, 6))
    covers = [("arc", "s1", 0, 5, "arc-phases"),
              ("staggered", staggered, 1, 2, "staggered-duals"),
              ("layered", "boundary-delta-3", 0, 4, "layered-stars"),
              ("trivial", "torus-7", 2, 3, "trivial")]
    if not tiny:
        covers.insert(0, ("wheel", "delta-2", 0, 5, "wheel-cracks"))
    ops: list[CliOp] = []
    for tag, spec, r, m, construction in covers:
        path = f"{tag}.json"
        ops.append(CliOp(f"cover-build:{tag}",
                         ["cover", "build", "--builtin", spec, "--r", str(r),
                          "--m", str(m), "--out", path], "build",
                         expect_out=f"({construction}, m={m})", bundle=path,
                         instance=f"{spec} r={r} m={m}"))
        ops.append(CliOp(f"cover-verify:{tag}", ["cover", "verify", "--in", path],
                         "verify", instance=f"{spec} r={r} m={m}"))
    # the layered profile is exact: multiplicity m-1 on the 1-skeleton, so
    # pairs cover it, while a single element cannot cover the whole surface
    ops.append(CliOp("kcheck:k2-skeleton1",
                     ["cover", "kcheck", "--in", "layered.json", "--k", "2",
                      "--skeleton", "1", "--json"], "check",
                     expect_out='"is_k_cover": true'))
    ops.append(CliOp("kcheck:k1-whole",
                     ["cover", "kcheck", "--in", "layered.json", "--k", "1", "--json"],
                     "check", expect_rc=1, expect_out='"is_k_cover": false'))
    ops.append(CliOp("product-build:torus-7-x-s1",
                     ["product", "build", "--x", "torus-7", "--b", "s1",
                      "--out", "product.json"], "build",
                     expect_out="(m=2)", bundle="product.json", instance="torus-7 x s1"))
    ops.append(CliOp("product-verify:torus-7-x-s1",
                     ["product", "verify", "--in", "product.json"], "verify",
                     instance="torus-7 x s1"))
    names = ["torus-7", "s1"] if tiny else sorted(CUPLENGTH)
    for name in names:
        ops.append(CliOp(f"cuplength:{name}",
                         ["cuplength", "--builtin", name, "--json"], "check",
                         expect_out=f'"cuplength_mod2": {CUPLENGTH[name]}'))
    ops.append(CliOp("bounds:dim3-cat1", ["bounds", "--dim", "3", "--cat-u", "1", "--json"],
                     "check", expect_out='"value": 2'))
    # negative controls: a tampered bundle must be refused (exit 1), a
    # malformed one rejected as bad input (exit 2)
    source = rng.choice(["arc", "layered"])  # r = 0 bundles
    how = rng.choice(["drop-element", "weaken-target"])
    ops.append(CliOp(f"control:{how}:{source}", ["cover", "verify", "--in", "tampered.json"],
                     "control", expect_rc=1,
                     tamper=(f"{source}.json", how, rng.randrange(1 << 16))))
    ops.append(CliOp(f"control:truncated:{source}", ["cover", "verify", "--in", "malformed.json"],
                     "control", expect_rc=2,
                     tamper=(f"{source}.json", "truncate", rng.randrange(1 << 16))))
    return ops


def tamper_bundle(src: Path, dst: Path, how: str, arg: int) -> None:
    """Write a corrupted copy of a cover bundle file."""
    if how == "truncate":
        raw = src.read_bytes()
        dst.write_bytes(raw[: 1 + arg % (len(raw) - 1)])
        return
    data = json.loads(src.read_text(encoding="utf-8"))
    m = data["params"]["m"]
    k = arg % m
    if how == "drop-element":
        # the bundle still claims m elements
        del data["elements"][k]
        del data["certificates"][k]
    elif how == "weaken-target":
        # an r = 0 cover needs certificates into the 0-skeleton; a
        # dimensional target is refused even when its replay passes
        if data["params"]["r"] != 0:
            raise ValueError("weaken-target needs an r = 0 bundle")
        data["certificates"][k]["target"] = {"kind": "dimensional", "r": 0}
    else:
        raise ValueError(f"unknown tampering {how!r}")
    dst.write_text(json.dumps(data, sort_keys=True, indent=2), encoding="utf-8")


# -- running operations ----------------------------------------------------------


@dataclasses.dataclass
class OpResult:
    name: str
    kind: str
    seconds: float
    ok: bool
    detail: str = ""
    rss_mb: float = 0.0
    bytes: int = 0
    instance: str = ""
    extra_s: float = 0.0               # repeats beyond the one timing that counts


def run_op(results: list[OpResult], name: str, kind: str, fn, instance: str = "") -> object:
    """Time fn(); its return is (ok, detail, value). Exceptions count as failures."""
    t0 = time.perf_counter()
    try:
        ok, detail, value = fn()
    except Exception as exc:  # noqa: BLE001 - a benchmark op must not abort the pass
        ok, detail, value = False, f"raised {type(exc).__name__}: {exc}", None
    results.append(OpResult(name, kind, time.perf_counter() - t0, ok, detail,
                            rss_mb=peak_rss_mb(), instance=instance))
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def no_span(kind: str):
    return contextlib.nullcontext()


def nothing() -> None:
    pass


def run_inprocess(plan: Plan, complexes: dict, results: list[OpResult],
                  op_span=no_span, before_op=nothing) -> None:
    """Build and verify every instance, then the negative controls.

    op_span(kind) wraps each operation so a tracer can tell positive
    instances from controls; before_op() runs, untimed, before each one.
    """
    bundles = []
    for inst in plan.instances:
        cx = complexes[inst.spec]
        label = f"{inst.spec} r={inst.r} m={inst.m}"

        def build(inst=inst, cx=cx):
            with op_span("instance"):
                b = cover.build_cover(cx, inst.r, inst.m)
            return (b.construction == inst.construction and len(b.elements) == inst.m,
                    f"construction {b.construction}", b)

        before_op()
        bundle = run_op(results, f"build:{label}", "build", build, label)
        bundles.append(bundle)
        if bundle is None:
            continue

        def verify(bundle=bundle):
            with op_span("instance"):
                rep = cover.verify_cover_bundle(bundle)
            bad = [c.name for c in rep.checks if not c.passed]
            return rep.ok, ",".join(bad), None

        before_op()
        run_op(results, f"verify:{label}", "verify", verify, label)

    base = bundles[plan.control_instance]
    if base is None:
        results.append(OpResult("control:base-build-failed", "control", 0.0, False))
        return
    k = plan.control_element

    def dropped():
        b = dataclasses.replace(base, elements=base.elements[:k] + base.elements[k + 1:],
                                certificates=base.certificates[:k] + base.certificates[k + 1:])
        with op_span("control"):
            rep = cover.verify_cover_bundle(b)
        failed = {c.name for c in rep.checks if not c.passed}
        return (not rep.ok and "element-count" in failed,
                ",".join(sorted(failed)), None)

    before_op()
    run_op(results, f"control:drop-element-{k}", "control", dropped)
    j = plan.control_certificate

    def no_snap():
        cert = base.certificates[j]
        steps = tuple(s for s in cert.steps if not isinstance(s, kocover.StarSnap))
        with op_span("control"):
            verdict = cover.verify_certificate(base.tower,
                                               dataclasses.replace(cert, steps=steps))
        return not verdict.passed, verdict.reason or "", None

    before_op()
    run_op(results, f"control:drop-snap-{j}", "control", no_snap)


def run_cli(ops: list[CliOp], workdir: Path, results: list[OpResult],
            env: dict | None, op_span=no_span, before_op=nothing) -> int:
    """Run the CLI operations, as subprocesses when env is given, else in
    process through kocover.cli.run; before_op() runs, untimed, before
    each one. As subprocesses, verify operations run VERIFY_REPEATS times:
    every verdict must be right, and the median time counts. Returns the
    bundle bytes written."""
    written = 0
    for op in ops:
        extra = 0.0
        try:
            if op.tamper is not None:
                src, how, arg = op.tamper
                tamper_bundle(workdir / src, workdir / op.argv[-1], how, arg)
            before_op()
            if env is not None:
                runs = [_spawn(op.argv, workdir, env)
                        for _ in range(VERIFY_REPEATS if op.kind == "verify" else 1)]
                wrong = [r for r in runs if not _right(op, r[0], r[1])]
                rc, out, _, _ = (wrong or runs)[0]
                rss = max(r[2] for r in runs)
                secs = statistics.median(r[3] for r in runs)
                extra = sum(r[3] for r in runs) - secs
            else:
                with op_span("control" if op.kind == "control" else "instance"):
                    rc, out, secs = _inprocess(op.argv, workdir)
                rss = peak_rss_mb()
        except Exception as exc:  # noqa: BLE001 - a benchmark op must not abort the pass
            results.append(OpResult(op.name, op.kind, 0.0, False,
                                    f"raised {type(exc).__name__}: {exc}",
                                    instance=op.instance))
            continue
        ok = _right(op, rc, out)
        size = 0
        if op.bundle and rc == 0:
            size = (workdir / op.bundle).stat().st_size
            written += size
        detail = "" if ok else f"exit {rc}, expected {op.expect_rc}; {out[-200:]!r}"
        results.append(OpResult(op.name, op.kind, secs, ok, detail, rss_mb=rss, bytes=size,
                                instance=op.instance, extra_s=extra))
    return written


def _right(op: CliOp, rc: int, out: str) -> bool:
    return rc == op.expect_rc and (op.expect_out is None or op.expect_out in out)


def _spawn(argv: list[str], workdir: Path, env: dict) -> tuple[int, str, float, float]:
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kocover.cli", *argv],
                                cwd=workdir, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        # wait4 gives this child's own peak RSS; Popen.wait would discard it
        _, status, usage = os.wait4(proc.pid, 0)
        secs = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0, secs)


def _inprocess(argv: list[str], workdir: Path) -> tuple[int, str, float]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            rc = cli.run(argv)
            secs = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return rc, buf.getvalue(), secs
