"""Run one workload in this process and print one JSON result as the last line.

Started by run.py, never by the user; one process per workload. Modes:

- setup: import the CLI and build the workload's inputs, then print the time
  since --spawned (CLOCK_MONOTONIC when run.py started this process).
- measure: after set-up, passes with tracing off until --seconds have passed
  (at least two, so pass-to-pass byte identity is checked).

In setup and measure mode the speed probe (probe.py) runs from the start of
main(), and times are reported both raw and at reference speed.
- trace: one untraced and one traced pass at --seed, plus an untraced pass at
  the reference seed first when --seed differs from it. Per-layer metrics come
  from the traced pass; its outputs must equal the untraced pass's bytes.
- reference: one untraced pass at the reference seed; prints output hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import probe
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_hashes.json"


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.items = workloads.items(name, seed)
        self.contexts = [item.setup() for item in self.items]

    def run_pass(
        self, tracer: tracing.Tracer | None = None, speed: probe.Probe | None = None
    ) -> tuple[float, float, list[workloads.ItemRun]]:
        """Run every item once; only the calls are timed, checks come after.

        Returns the raw wall time, the same at reference speed (raw when no
        probe runs) and the checked item runs.
        """
        raws, seconds = [], []
        outs = [OUT / self.name / item.name for item in self.items]
        first = len(speed.samples) if speed else 0
        started = perf_counter()
        for item, ctx, out in zip(self.items, self.contexts, outs):
            t0 = perf_counter()
            if tracer is None:
                raws.append(item.call(ctx, self.seed, out))
            else:
                raws.append(tracer.span(item.span, item.call, ctx, self.seed, out))
            seconds.append(perf_counter() - t0)
        wall = perf_counter() - started
        scaled = speed.scaled(wall, first, len(speed.samples)) if speed else wall
        runs = []
        for item, raw, out, secs in zip(self.items, raws, outs, seconds):
            try:
                problems, hashes = item.verify(raw, out)
            except Exception:  # unreadable or malformed output fails the item
                problems, hashes = [traceback.format_exc(limit=2).strip()[-300:]], {}
            runs.append(workloads.ItemRun(item.name, secs, problems, hashes))
        return wall, scaled, runs


def _require_same_bytes(runs: list[workloads.ItemRun], first: list[workloads.ItemRun]) -> None:
    for run, ref in zip(runs, first):
        if run.hashes != ref.hashes:
            run.problems.append("outputs differ from an earlier pass with the same seed")


def _changed_outputs(workload: str, runs: list[workloads.ItemRun]) -> int:
    reference = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    changed = 0
    for run in runs:
        ref = reference.get(run.name, {})
        changed += sum(ref.get(k) != run.hashes.get(k) for k in set(ref) | set(run.hashes))
    return changed


def _environment() -> dict:
    import numpy

    src = ROOT / "src" / "gamescale"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    speed = probe.Probe()
    speed.start()
    try:
        return run(speed)
    finally:
        speed.stop()  # an armed timer outliving its handler would kill the process


def run(speed: probe.Probe) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "reference"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    args = parser.parse_args()

    seed = workloads.REFERENCE_SEED if args.mode == "reference" else args.seed
    workload = Workload(args.workload, seed)
    if args.mode == "setup":
        elapsed = time.monotonic() - args.spawned
        print(json.dumps({"setup_s": speed.scaled(elapsed), "setup_raw_s": elapsed}))
        return 0
    if args.mode != "measure":
        speed.stop()  # traced and reference passes report raw times only

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    result: dict = {"environment": _environment(), "attempted": 0, "failed": 0, "failures": []}

    def account(runs: list[workloads.ItemRun]) -> None:
        result["attempted"] += len(runs)
        result["failed"] += sum(bool(r.problems) for r in runs)
        result["failures"] += [f"{r.name}: {p}" for r in runs for p in r.problems]

    if args.mode == "reference":
        _, _, runs = workload.run_pass()
        account(runs)
        result["hashes"] = {r.name: r.hashes for r in runs}
    elif args.mode == "measure":
        passes = []
        started = perf_counter()
        while len(passes) < 2 or perf_counter() - started < args.seconds:
            wall, scaled, runs = workload.run_pass(speed=speed)
            if passes:
                _require_same_bytes(runs, passes[0][2])
            account(runs)
            passes.append((wall, scaled, runs))
        speed.stop()
        result["pass_raw_s"] = [p[0] for p in passes]
        result["pass_s"] = [p[1] for p in passes]
        result["item_raw_s"] = {r.name: [p[2][i].seconds for p in passes]
                                for i, r in enumerate(passes[0][2])}
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        if seed != workloads.REFERENCE_SEED:
            reference = Workload(args.workload, workloads.REFERENCE_SEED)
            _, _, ref_runs = reference.run_pass()
            account(ref_runs)
        untraced_s, _, untraced = workload.run_pass()
        account(untraced)
        if seed == workloads.REFERENCE_SEED:
            ref_runs = untraced
        tracer = tracing.Tracer()
        tracer.install()
        traced_s, _, traced = workload.run_pass(tracer)
        _require_same_bytes(traced, untraced)
        account(traced)
        summary = tracing.Summary(tracer)
        layers = {m.name: float(m.value(summary)) for m in tracing.METRICS}
        layers["cli.outputs_changed"] = float(_changed_outputs(args.workload, ref_runs))
        layers["trace.overhead_s"] = traced_s - untraced_s
        result["layers"] = layers
        result["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{seed}.jsonl")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
