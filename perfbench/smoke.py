"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json agrees with the benchmark's own tables, that every
workload at a small set of seeds has no failed item and that its traced pass
writes the same bytes as its untraced one (both are counted as failures by the
traced run), that the end-to-end path works for all workloads in one command,
and that a directory holding only the benchmark files makes it exit non-zero.
Takes a few minutes; it is not part of the repository's pytest suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

SEEDS = (0, 1)


def bench(*args: str, root: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout + proc.stderr


def result(args: list[str]) -> dict:
    code, out = bench(*args)
    assert code == 0, f"{args}: exit {code}\n{out[-3000:]}"
    res = json.loads(out.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{args}:\n{out[-3000:]}"
    return res


def check_config() -> None:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in config["workloads"]} == workloads.WHY
    assert tuple(workloads.WHY) == run.WORKLOADS
    rows = [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in (*tracer.METRICS, *tracer.RUN_METRICS)]
    assert config["per_layer"] == rows, "per_layer rows differ from tracer.METRICS"
    assert {m["name"] for m in config["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def main() -> int:
    check_config()
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            res = result(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
            changed = res["metrics"]["cli.outputs_changed"]["value"]
            print(f"{workload} seed {seed}: traced run ok, {res['attempted']} items, "
                  f"{changed:g} outputs changed from the reference hashes")
    res = result(["--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0"])
    assert all(f"{w}.{k}" in res["metrics"] for w in run.WORKLOADS
               for k in ("wall_s", "setup_s", "peak_rss_mb")), res["metrics"]
    print(f"all workloads untraced ok, {res['attempted']} items")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", "ladder", "--seed", "0", "--seconds", "1", "--trace", "0", root=bare)
    shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in out, f"bare directory: exit {code}\n{out}"
    print(f"bare directory exits {code} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
