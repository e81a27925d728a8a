"""gamescale benchmark: four CLI workloads, end-to-end metrics, outside-in per-layer trace.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from anywhere inside a source checkout; the program is imported from
`src/`, nothing is installed. Each workload runs in its own process
(worker.py); see workloads.py for what each runs and why.

--trace 0 reports the end-to-end metrics, all medians:
  wall_s       wall time of one pass over the workload's items, after set-up
               (median over the passes made in --seconds, at least two)
  setup_s      fresh interpreter start through `import gamescale.cli` and the
               workload's generated inputs (median of SETUP_SAMPLES processes)
  peak_rss_mb  peak resident memory of the workload process
and prints failed_ratio (failed items / items attempted) beside them. An item
fails on an unexpected exit code or error record, an acceptance statistic
outside its pinned bound, or outputs that differ between two passes with the
same seed. The last line is the JSON result; `correct` is true when no item failed.

--trace 1 makes a separate traced run and reports the per-layer metrics of
tracer.METRICS plus cli.outputs_changed (files whose sha256 differs from
reference_hashes.json, recorded at seed 0; reported, not counted as a failure)
and trace.overhead_s. Spans are written to .bench_out/ when the run ends.

--write-reference re-records reference_hashes.json from an untraced pass at seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("psgd-seeds", "select-narrow", "ladder", "chain-regression")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"  # the arrays are tiny; one thread keeps timings steady
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    spawned = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"{workload} {mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [_worker("setup", workload, seed, seconds, deadline) for _ in range(SETUP_SAMPLES)]
    res = _worker("measure", workload, seed, seconds, deadline)
    res["setup_s"] = [s["setup_s"] for s in setups]
    res["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
    res["metrics"] = {
        "wall_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    import tracer

    res = _worker("trace", workload, seed, seconds, deadline)
    units = {m.name: m.unit for m in (*tracer.METRICS, *tracer.RUN_METRICS)}
    res["metrics"] = {name: {"value": res["layers"][name], "unit": unit} for name, unit in units.items()}
    return res


def report(workload: str, seed: int, traced: bool, res: dict) -> None:
    """Print the human-readable lines and keep the full result beside the spans."""
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{int(traced)}.json").write_text(json.dumps(res, indent=1))
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    for failure in res["failures"][:20]:
        print(f"FAILED {workload}: {failure}")
    if traced:
        if res["absent"]:
            print(f"absent (not traced): {', '.join(res['absent'])}")
        for name, m in res["metrics"].items():
            print(f"{workload:17s} {name:52s} {m['value']:.6g} {m['unit']}")
        return
    for name, times in res["item_raw_s"].items():
        print(f"{workload:17s} item {name:24s} median {statistics.median(times):.4f} s raw over {len(times)}")
    print(f"{workload:17s} raw medians: pass {statistics.median(res['pass_raw_s']):.4f} s, "
          f"setup {statistics.median(res['setup_raw_s']):.4f} s")
    cells = [f"{name} {m['value']:.4f} {m['unit']}" for name, m in res["metrics"].items()]
    cells.append(f"failed_ratio {res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']})")
    print(f"{workload:17s} " + "  ".join(cells))


def write_reference(deadline: float) -> int:
    hashes = {}
    for workload in WORKLOADS:
        res = _worker("reference", workload, 0, 0, deadline)
        if res["failed"]:
            print(f"{workload}: {res['failures']}", file=sys.stderr)
            return 1
        hashes[workload] = res["hashes"]
    (HERE / "reference_hashes.json").write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gamescale" / "cli.py").is_file():
        print(f"no gamescale sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(time.monotonic() + 4 * DEADLINE_S)
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace if args.trace else measure
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, deadline)
            report(name, args.seed, bool(args.trace), results[name])
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
