"""kocover benchmark: build -> verify time, set-up time and peak RSS per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
  signature-walk  layered-star covers of 3-dimensional complexes, in process
  wheel-crack     wheel-crack covers of surfaces, in process
  cli-roundtrip   real `kocover` processes: build -> bundle file -> verify

Each pass runs in a fresh worker process (bench/worker.py). Passes repeat
until the next one would end after --seconds; at least one always runs.
With --trace 0 the last stdout line carries the end-to-end metrics, as
medians over the passes, with pass times normalized to a reference host
speed (bench/reference.py) and the raw times on '#' lines. With --trace 1
it carries the per-layer metrics of traced passes, which alternate with
untraced passes of the same work so that the tracing overhead can be
reported. Every operation's verdict is checked against its known answer;
the exit code is 1 if any is wrong.
Earlier stdout lines, prefixed with '#', give the environment, one row per
instance and the spread of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"

# wall and verify times are bounded as normalized seconds: raw times on a
# shared host drift with its speed by more than any bound allows across runs
# (bench/reference.py). Raw wall_s and verify_s, build_s and bundle_bytes are
# printed on '#' lines only: a layered-star build takes well under a
# millisecond and the in-process workloads write no bundle, so on those
# workloads both read (close to) zero
END_TO_END = {"wall_norm_s": "s", "verify_norm_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
# per-layer metrics on the result line; the traced run prints more on '#'
# lines (per-level materialization, codec, product and cup-length times)
PER_LAYER = {
    "tower.stream_s": "s", "tower.cells_streamed": "count",
    "tower.materialize_s": "s", "tower.cells_materialized": "count",
    "tower.cells_materialized.l1": "count", "tower.cells_materialized.l2": "count",
    "tower.cells_materialized.l3": "count", "tower.cells_materialized.l4": "count",
    "cover.verify.self_s": "s", "cover.build.self_s": "s",
    "certify.verify_s": "s", "certify.verify_calls": "count",
    "certify.verifies_per_certificate": "ratio",
    "codec.cells_encoded": "count", "codec.bytes_written": "B",
    "cli.startup_s": "s", "cli.calls": "count", "trace.overhead_s": "s",
}
HELD_OUT_SEED = 9973       # reserved for validating later claims; never tune on it
SETUP_SAMPLES = 9          # set-up is sampled at least this often per run
PASS_TIMEOUT_S = 170.0     # a run must end within 180 s


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, for bench/selftest.py only")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kocover" / "__init__.py").is_file():
        print(f"error: no kocover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in ("signature-walk", "wheel-crack", "cli-roundtrip"):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running worker group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args)
    try:
        return bench.run()
    finally:
        bench.cleanup()


class Bench:
    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KO_COVER_MAX_LEVEL="4",
                        PYTHONHASHSEED="0")
        self.deadline = time.perf_counter() + PASS_TIMEOUT_S
        self.failures: list[str] = []
        WORK.mkdir(exist_ok=True)
        self.tmp = WORK / f"run-{os.getpid()}"
        self.tmp.mkdir(exist_ok=True)
        self.counter = 0

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    # -- processes ----------------------------------------------------------------

    def worker(self, mode: str, setup_only: bool = False) -> dict | None:
        """Run one worker; returns its result with setup_s, or None on failure."""
        self.counter += 1
        out = self.tmp / f"pass-{self.counter}.json"
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if self.args.tiny:
            cmd.append("--tiny")
        t_spawn = time.perf_counter()
        rc, err = self.spawn(cmd)
        if rc != 0 or not out.is_file():
            self.failures.append(f"worker {mode} exited {rc}: {err[-500:]}")
            return None
        res = json.loads(out.read_text(encoding="utf-8"))
        res["setup_s"] = res["t_ready"] - t_spawn
        return res

    def spawn(self, cmd: list[str]) -> tuple[int, str]:
        """Run cmd in its own process group; kill the group at the deadline."""
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            return -9, "timed out"
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return proc.returncode, err.decode(errors="replace")

    def cli_startup(self) -> list[float]:
        """Wall time of a trivial `kocover bounds` call, a few times."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            rc, err = self.spawn([sys.executable, "-m", "kocover.cli", "bounds",
                                  "--dim", "3", "--cat-u", "1"])
            times.append(time.perf_counter() - t0)
            if rc != 0:
                self.failures.append(f"kocover bounds exited {rc}: {err[-300:]}")
        return times

    # -- runs ---------------------------------------------------------------------

    def passes(self, modes: list[str]) -> list[list[dict]]:
        """Repeat a group of worker runs while the next group fits --seconds."""
        groups = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            group = [self.worker(m) for m in modes]
            if any(g is None for g in group):
                break
            groups.append(group)
            now = time.perf_counter()
            if now - start + (now - t0) > self.args.seconds:
                break
        return groups

    def run(self) -> int:
        env = dict(environment(), workload=self.args.workload, seed=self.args.seed,
                   held_out_seed=HELD_OUT_SEED)
        print("# env " + json.dumps(env, sort_keys=True))
        if self.args.trace:
            return self.run_traced()
        passes = [g[0] for g in self.passes(["plain"])]
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES and not self.failures:
            probe = self.worker("plain", setup_only=True)
            if probe is not None:
                setups.append(probe["setup_s"])
        attempted, failed = self.report_ops(passes)
        metrics = {}
        for name in ("wall_norm_s", "build_norm_s", "verify_norm_s", "wall_s", "build_s",
                     "verify_s", "peak_rss_mb", "bundle_bytes"):
            values = [p[name] for p in passes]
            if values:
                print(f"# metric {name} {unit_of(name)} " + json.dumps(spread(values)))
                metrics[name] = statistics.median(values)
        if setups:
            print("# metric setup_s s " + json.dumps(spread(setups)))
            metrics["setup_s"] = statistics.median(setups)
        print(f"# metric failed_ops_share ratio {failed / max(attempted, 1)!r}")
        return self.finish(attempted, failed,
                           {k: (metrics.get(k, 0.0), u) for k, u in END_TO_END.items()})

    def run_traced(self) -> int:
        groups = self.passes(["base", "traced"])
        base = [g[0] for g in groups]
        traced = [g[1] for g in groups]
        attempted, failed = self.report_ops(base + traced)
        for t in traced:
            if not t.get("spans_consistent", False):
                self.failures.append("span self times do not add up to their parents")
        startup = self.cli_startup()
        layers: dict[str, list[float]] = {}
        for t in traced:
            t["layers"]["codec.bytes_written"] = t["bundle_bytes"]
            for k, v in t["layers"].items():
                layers.setdefault(k, []).append(v)
        layers["cli.startup_s"] = startup
        if base and traced:
            layers["trace.overhead_s"] = [statistics.median(t["wall_s"] for t in traced)
                                          - statistics.median(b["wall_s"] for b in base)]
            print("# metric traced_wall_s s " + json.dumps(spread([t["wall_s"] for t in traced])))
            print("# metric untraced_wall_s s " + json.dumps(spread([b["wall_s"] for b in base])))
        for k in sorted(layers):
            print(f"# layer {k} {unit_of(k)} " + json.dumps(spread(layers[k])))
        metrics = {k: (statistics.median(layers[k]) if layers.get(k) else 0.0, u)
                   for k, u in PER_LAYER.items()}
        return self.finish(attempted, failed, metrics)

    def report_ops(self, passes: list[dict]) -> tuple[int, int]:
        """Print one row per instance (build and verify) and per other
        operation, as medians over passes; count failures."""
        rows: dict[str, list[dict]] = {}
        attempted = failed = 0
        for p in passes:
            for op in p["ops"]:
                rows.setdefault(op["name"], []).append(op)
                attempted += 1
                if not op["ok"]:
                    failed += 1
                    self.failures.append(f"{op['name']}: {op['detail']}")
        instances: dict[str, dict] = {}
        for name, ops in rows.items():
            row = {"n": len(ops), "seconds": statistics.median(o["seconds"] for o in ops),
                   "rss_mb": max(o["rss_mb"] for o in ops),
                   "bytes": statistics.median(o["bytes"] for o in ops),
                   "ok": all(o["ok"] for o in ops)}
            inst = ops[0]["instance"]
            if not inst:
                print("# op " + json.dumps({"op": name, "kind": ops[0]["kind"], **row}))
                continue
            d = instances.setdefault(inst, {"instance": inst, "n": row["n"], "rss_mb": 0.0,
                                            "bytes": 0, "ok": True})
            d[ops[0]["kind"] + "_s"] = row["seconds"]
            d["rss_mb"] = max(d["rss_mb"], row["rss_mb"])
            d["bytes"] += row["bytes"]
            d["ok"] = d["ok"] and row["ok"]
        for d in instances.values():
            print("# instance " + json.dumps(d))
        if passes:
            print("# specs " + json.dumps(passes[0]["specs"]))
            ref = [s for p in passes for s in p.get("reference_s", [])]
            if ref:
                print("# metric reference_s s " + json.dumps(spread(ref)))
        return attempted, failed

    def finish(self, attempted: int, failed: int, metrics: dict) -> int:
        for f in self.failures:
            print(f"# FAILED {f}")
        if self.failures and attempted == failed == 0:
            attempted = failed = 1  # no pass completed
        correct = not self.failures
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1


def unit_of(name: str) -> str:
    if name in END_TO_END or name in PER_LAYER:
        return END_TO_END.get(name) or PER_LAYER[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "B" if name == "bundle_bytes" else "count"


def spread(values: list[float]) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "KO_COVER_MAX_LEVEL": "4", "PYTHONHASHSEED": "0", "machine": platform.machine()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
