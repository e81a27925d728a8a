"""Run every shipped config and benchmark argv in two source trees and compare what each run leaves.

    python3 .github/scripts/compare_outputs.py HEAD_TREE BASE_TREE

Each configs/*.cfg of HEAD_TREE runs as `python -m gamescale EXPERIMENT --config
CFG` in both trees, each tree with its own src/ and its own copy of the config,
once at the config's seed (key CFG) and once with `--seed 1` (key CFG@seed1).
So does the argv of every `gamescale` item of HEAD_TREE's benchmark workloads
(perfbench/workloads.py), at `--seed 0` and `--seed 1` (key WORKLOAD:ITEM@seedN),
and each argv of EXTRA, which no config or workload runs, at `--seed 0` and
`--seed 1` (key extra:ARGV@seedN).
The exit codes and the sha256 of every output file must match, manifest.json's
taken without its runtime_seconds, so an exit-3 error record (type, stage, where,
message) is compared too. A HEAD_TREE run's standard error must be empty, or on
exit 3 hold only the one-line JSON error record, so a warning (numpy's
RuntimeWarning, say) fails the check. Exits 1 listing every difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# config file -> experiment
EXPERIMENT = {
    "markov.cfg": "markov",
    "participation.cfg": "participation",
    "psgd.cfg": "psgd",
    "regression.cfg": "regression",
    "restrict.cfg": "restrict",
    "restrict_zero_sum.cfg": "restrict",
    "scaling_stackelberg.cfg": "scaling-curve",
    "scaling_stationary.cfg": "scaling-curve",
    "select.cfg": "select",
}

RADII_60 = ",".join(f"{0.01 * i:.2f}" for i in range(1, 61))
# argvs that no config or workload runs: psgd with repeated and unordered horizons sharing one
# batch; psgd in one- and two-row batches, whose (1, d) steps are both C- and F-contiguous; no
# noise, and noise whose magnitude bound min(1, sqrt(3) sigma) is clipped to 1; both Stackelberg
# ladders of 60 classes, whose 6,060-row zoom rounds take two grid blocks
EXTRA = [
    ["psgd", "--horizons", "64,8,64,16", "--n-seeds", "3"],
    ["psgd", "--horizons", "8,3,64", "--n-seeds", "1"],
    ["psgd", "--sigma", "0", "--horizons", "8"],
    ["psgd", "--sigma", "2", "--horizons", "8"],
    ["scaling-curve", "--regime", "stackelberg_leader", "--radii", RADII_60],
    ["scaling-curve", "--regime", "stackelberg_follower", "--radii", RADII_60],
]


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, dict[str, str], str]:
    """Exit code, {file name: sha256} and standard error of one run in tree, manifest.json's
    hash taken without its runtime_seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "gamescale", *argv, "--out-dir", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    hashes = {}
    for p in sorted(out.iterdir()) if out.is_dir() else []:
        data = p.read_bytes()
        if p.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("runtime_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        hashes[p.name] = hashlib.sha256(data).hexdigest()
    return done.returncode, hashes, done.stderr


def stray_stderr(code: int, stderr: str) -> bool:
    """Whether stderr holds anything but, on exit 3, the one-line {"error": ...} record."""
    if code != 3:
        return stderr != ""
    lines = stderr.splitlines()
    try:
        record = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:  # not JSON
        return True
    return not (isinstance(record, dict) and list(record) == ["error"])


def workload_runs(head: Path) -> dict[str, list[str]]:
    """{WORKLOAD:ITEM@seedN: argv} of every CLI item of head's benchmark workloads at seeds 0 and 1."""
    sys.path.insert(0, str(head / "perfbench"))
    import workloads

    return {f"{workload}:{item.name}@seed{seed}": [*item.argv, "--seed", str(seed)]
            for workload in workloads.WHY for seed in (0, 1)
            for item in workloads.items(workload, seed) if isinstance(item, workloads.CliItem)}


def compare(head: Path, base: Path, runs: dict[str, list[str]], work: Path) -> list[str]:
    """One line per difference between the two trees' runs, named by key (run i writes to
    work/SIDE/i: a key holding a long argv is too long for a file name)."""
    differences = []
    for i, (key, argv) in enumerate(runs.items()):
        (head_code, head_files, head_err), (base_code, base_files, _) = (
            run(tree, argv, work / side / str(i)) for side, tree in (("head", head), ("base", base))
        )
        if stray_stderr(head_code, head_err):
            differences.append(f"{key}: stray standard error at head (exit {head_code}): {head_err.strip()[:500]!r}")
        if head_code != base_code:
            differences.append(f"{key}: exit code {head_code} at head, {base_code} at base")
        for name in sorted(set(head_files) | set(base_files)):
            if head_files.get(name) != base_files.get(name):
                differences.append(f"{key}: {name} differs ({head_files.get(name)} at head, "
                                   f"{base_files.get(name)} at base)")
    return differences


def main(head: str, base: str) -> int:
    head_tree, base_tree = Path(head).resolve(), Path(base).resolve()
    configs = sorted(p.name for p in (head_tree / "configs").glob("*.cfg"))
    unknown = [name for name in configs if name not in EXPERIMENT]
    if unknown:
        print(f"no experiment known for {unknown}; add them to EXPERIMENT", file=sys.stderr)
        return 1
    runs = {}
    for name in configs:
        argv = [EXPERIMENT[name], "--config", f"configs/{name}"]
        runs[name], runs[f"{name}@seed1"] = argv, [*argv, "--seed", "1"]
    argvs = workload_runs(head_tree)
    runs.update(argvs)
    for argv in EXTRA:
        for seed in (0, 1):
            runs[f"extra:{' '.join(argv)}@seed{seed}"] = [*argv, "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as work:
        differences = compare(head_tree, base_tree, runs, Path(work))
    for line in differences:
        print(line)
    print(f"{len(configs)} configs, {len(argvs)} workload argvs, {len(EXTRA)} extra argvs, {len(runs)} runs, "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
