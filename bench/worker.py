"""One pass over one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode plain|base|traced
                            --out RESULT.json [--setup-only] [--tiny]

`run.py` starts this script once per pass so that peak RSS and allocator
state never carry over between passes. The modes:

- plain: the end-to-end pass; cli-roundtrip runs real `kocover`
  subprocesses. The host-speed reference loop (reference.py, in a helper
  process of its own) is sampled between operations, so the pass's times
  are also given normalized.
- traced: the per-layer pass, with spans installed; cli-roundtrip runs in
  process through `kocover.cli.run`.
- base: the traced pass's work without the spans, to measure tracing
  overhead. For the in-process workloads it equals plain.

The result file holds `t_ready`, the `time.perf_counter()` reading just
before the first timed call. On Linux that clock is system-wide, so the
parent subtracts its own reading taken before starting this process to get
the set-up time: interpreter start, `import kocover` and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["plain", "base", "traced"], default="plain")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # one CPU for the pass, its kocover children and the reference helper:
        # they take turns, and the helper samples the core the work runs on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import kocover
    if not Path(kocover.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kocover imported from {kocover.__file__}, not this checkout")
    import workloads
    plan = workloads.make_plan(args.workload, args.seed, tiny=args.tiny)
    complexes = {inst.spec: kocover.builtin(inst.spec) for inst in plan.instances}
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "specs": [i.spec for i in plan.instances]
              or [" ".join(op.argv) for op in plan.cli_ops if op.kind == "build"]}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    op_span = workloads.no_span
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        op_span = lambda kind: tracer.span("bench.op", kind=kind)  # noqa: E731

    import reference
    ops: list = []
    bundle_bytes = 0
    child_rss = 0.0
    # starting the clock starts its helper process and waits until it is ready
    clock = reference.HostClock(enabled=args.mode == "plain")
    try:
        t0 = time.perf_counter()
        if plan.cli_ops:
            workdir = Path(args.out).with_suffix(".d")
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                env = None
                if args.mode == "plain":
                    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KO_COVER_MAX_LEVEL="4")
                bundle_bytes = workloads.run_cli(plan.cli_ops, workdir, ops, env, op_span,
                                                 clock.maybe_sample)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if args.mode == "plain":
                child_rss = max((o.rss_mb for o in ops), default=0.0)
        else:
            workloads.run_inprocess(plan, complexes, ops, op_span, clock.maybe_sample)
        clock.sample()
        # one pass: without the reference loop and without repeated verifies
        wall = time.perf_counter() - t0 - clock.spent - sum(o.extra_s for o in ops)
    finally:
        clock.close()
    build = sum(o.seconds for o in ops if o.kind == "build")
    verify = sum(o.seconds for o in ops if o.kind == "verify")
    scale = clock.factor()

    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update({
        "wall_s": wall,
        "build_s": build,
        "verify_s": verify,
        "wall_norm_s": wall * scale,
        "build_norm_s": build * scale,
        "verify_norm_s": verify * scale,
        "reference_s": [s for _, s in clock.samples],
        "peak_rss_mb": child_rss if plan.cli_ops and args.mode == "plain" else own_rss,
        "bundle_bytes": bundle_bytes,
        "ops": [vars(o) for o in ops],
    })
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["cli.calls"] = len(plan.cli_ops)
        result["spans_consistent"] = tracing.self_time_consistent(tracer)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
