"""The benchmark's four workloads: what each runs, why, and how outputs are checked.

A workload is a fixed list of items run one after another in one process
(closed loop, one client). Most items are `gamescale <experiment>` runs through
`gamescale.cli.main`, in process; the seed is passed as `--seed`. The one
non-CLI item is an env-leads Stackelberg solve of the strategic-regression game,
which the benchmark builds itself from the seed. Every item does the same
amount of work for any seed, and each has acceptance checks taken from the
paper's statistics at the repository's pinned bounds.

gamescale is imported inside the functions that use it, so that the worker's
speed probe is running while it loads (it is part of setup_s).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WHY = {
    "psgd-seeds": "gamescale psgd at shipped sizes: 40 short independent PSGD runs, almost all core "
                  "oracle and projection calls; the target of batching across seeds",
    "select-narrow": "successive elimination with two near arms: the same PSGD layer as few long "
                     "sequential runs, so a gain for wide batches that costs narrow ones shows",
    "ladder": "20-class ladder in all four regimes plus both restrict instances: well-conditioned "
              "best responses, solve_nash, Dykstra projections and the Pareto grid; no PSGD",
    "chain-regression": "markov at n=50 and n=200, regression, participation and an env-leads "
                        "Stackelberg solve with L/mu=202: value iteration and ill-conditioned best responses",
}

REFERENCE_SEED = 0


@dataclass
class ItemRun:
    """What one item did in one pass; checked after the pass's timed region."""

    name: str
    seconds: float
    problems: list[str]
    hashes: dict[str, str]  # output name -> sha256


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _non_increasing(values: list[float], tol: float = 1e-9) -> bool:
    return all(b <= a + tol for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Acceptance checks, one per item; each returns a list of problems
# ---------------------------------------------------------------------------


def check_psgd(out: Path) -> list[str]:
    gap = {int(r["horizon"]): float(r["mean_f_l_gap"]) for r in _rows(out / "psgd_summary.csv")}
    if not gap[4096] <= 0.5 * gap[512]:
        return [f"mean gap at T=4096 {gap[4096]:.3e} exceeds half of T=512 {gap[512]:.3e}"]
    return []


def check_select(out: Path) -> list[str]:
    (row,) = _rows(out / "selection_summary.csv")
    return [] if row["winner"] == "0" else [f"winner {row['winner']}, expected arm 0"]


def check_ladder(regime: str) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = _rows(out / "scaling_curve.csv")
        problems = []
        if any(r["certified"] != "1" for r in rows):
            problems.append("uncertified ladder row")
        if regime in ("stationary", "stackelberg_leader") and not _non_increasing(
            [float(r["learner_loss"]) for r in rows]
        ):
            problems.append("learner loss increases along the ladder")
        if regime == "nash" and max(float(r["nash_residual"]) for r in rows) > 1e-9:
            problems.append("nash residual above 1e-9")
        return problems

    return check


def check_restrict(out: Path) -> list[str]:
    record = dict(line.split("=", 1) for line in (out / "certificate.txt").read_text().splitlines())
    problems = []
    if not float(record["improvement"]) > 0:
        problems.append("restriction did not improve the learner loss")
    if float(record["restricted_residual"]) > 1e-6:
        problems.append("restricted residual above 1e-6")
    return problems


def check_markov(out: Path) -> list[str]:
    rows = _rows(out / "markov_sweep.csv")
    p_bar = np.array([float(r["p_bar"]) for r in rows])
    value = [float(r["learner_value"]) for r in rows]
    problems = []
    if not value[int(np.argmin(np.abs(p_bar - 0.55)))] > value[int(np.argmin(np.abs(p_bar - 1.0)))]:
        problems.append("value at p_bar~0.55 does not exceed the value at 1.0")
    if not _non_increasing([float(r["absorbing_state"]) for r in rows], tol=0.0):
        problems.append("absorbing state increases with p_bar")
    return problems


def check_regression(out: Path) -> list[str]:
    by_class = {r["model_class"]: r for r in _rows(out / "regression_equilibrium.csv")}
    small_loss = float(by_class["small"]["learner_loss"])
    large_loss = float(by_class["large"]["learner_loss"])
    k_star = float(by_class["large"]["k_star"])
    if abs(small_loss - 0.5) <= 1e-9 and abs(k_star - 3.4) <= 0.1 and 0.76 <= large_loss <= 0.80:
        return []
    return [f"small loss {small_loss}, large k* {k_star}, large loss {large_loss} outside bounds"]


def check_participation(out: Path) -> list[str]:
    rows = _rows(out / "participation_sweep.csv")
    if all(float(r["full_loss"]) > float(r["restricted_loss"]) for r in rows):
        return []
    return ["full loss not above restricted loss at every alpha"]


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    """One `gamescale` run; `exit_code` and `stage` give the expected outcome."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    exit_code: int = 0
    stage: Optional[str] = None

    @property
    def span(self) -> str:
        return f"cli.run.{self.argv[0]}"

    def setup(self) -> Callable:
        from gamescale.cli import main

        return main

    def call(self, main: Callable, seed: int, out: Path):
        """The timed part: the CLI call with its stdout and stderr captured."""
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([*self.argv, "--seed", str(seed), "--out-dir", str(out)])
        except Exception:  # a traceback is a failed item, not a failed benchmark
            return None, stdout.getvalue(), traceback.format_exc()
        return code, stdout.getvalue(), stderr.getvalue()

    def verify(self, raw, out: Path) -> tuple[list[str], dict[str, str]]:
        code, stdout, stderr = raw
        if code != self.exit_code:
            return [f"exit {code}, expected {self.exit_code}: {stderr.strip()[-300:]}"], {}
        paths = [Path(line) for line in stdout.splitlines() if line.strip()]
        hashes = {p.name: _sha256(p.read_bytes()) for p in paths}
        error = json.loads((out / "manifest.json").read_text())["error"]
        if self.stage is None:
            if error is not None:
                return [f"unexpected error record {error}"], hashes
            return self.check(out), hashes
        if error is None or error.get("stage") != self.stage:
            return [f"error record {error}, expected stage {self.stage}"], hashes
        return [], hashes


@dataclass(frozen=True)
class EnvLeadsItem:
    """Env-leads Stackelberg solve of the small-model strategic-regression game.

    The learner fits theta over a box around beta; the environment's action is
    the shift magnitude k in [-10, 10] along beta, so the learner's gradient is
    Lipschitz with L = 2 (1 + 10^2) = 202. beta is a unit vector drawn from the
    seed; the equilibrium is k* = 1 with learner loss |beta|^2 / 2 = 0.5 for any
    direction, and the solver's work does not depend on the direction.
    """

    name: str
    seed: int
    k_max: float = 10.0

    span = "bench.env_leads_solve"

    def setup(self):
        from gamescale import Box, GameSpec, box_1d

        draw = np.random.default_rng(self.seed).standard_normal(2)
        beta = draw / np.linalg.norm(draw)

        def shift(e):
            return e[0] * beta

        def loss_learner(t, e):
            diff = beta - t
            return float(diff @ diff) + float(t @ shift(e)) ** 2

        def grad_learner(t, e):
            ee = shift(e)
            return 2.0 * (t - beta) + 2.0 * float(t @ ee) * ee

        game = GameSpec(
            dim_learner=2,
            dim_env=1,
            loss_learner=loss_learner,
            loss_env=lambda t, e: -float(t @ shift(e)),
            grad_learner=grad_learner,
            mu=1.0,
            lipschitz=2.0 * (1.0 + self.k_max**2),
        )
        return game, Box(-(np.abs(beta) + 1.0), np.abs(beta) + 1.0), box_1d(-self.k_max, self.k_max)

    def call(self, game_and_sets, seed: int, out: Path):
        import gamescale

        game, learner_set, env_set = game_and_sets
        try:
            report = gamescale.stackelberg_leader(game, "env", env_set, learner_set, grid_resolution=101)
        except Exception:
            return traceback.format_exc()
        return report

    def verify(self, report, out: Path) -> tuple[list[str], dict[str, str]]:
        if isinstance(report, str):
            return [report.strip()[-300:]], {}
        k_star, loss = float(report.joint.env[0]), float(report.loss_learner)
        digest = {"solution": _sha256(f"{k_star:.17g},{loss:.17g}".encode())}
        if abs(k_star - 1.0) <= 1e-3 and abs(loss - 0.5) <= 1e-3:
            return [], digest
        return [f"k* {k_star}, loss {loss}: expected k*=1 and loss 0.5 within 1e-3"], digest


def _radii() -> str:
    return ",".join(f"{0.05 * i:.2f}" for i in range(1, 21))


def items(workload: str, seed: int) -> list:
    if workload == "psgd-seeds":
        return [CliItem("psgd", ("psgd", "--sigma", "0.3", "--horizons", "512,4096",
                                 "--n-seeds", "20"), check_psgd)]
    if workload == "select-narrow":
        return [CliItem("select", ("select", "--losses", "0,0.005,0.5,1.0", "--delta", "0.1",
                                   "--alpha", "8", "--sigma", "0.5", "--scale", "1.0",
                                   "--budget", "10000000"), check_select)]
    if workload == "ladder":
        return [
            *(CliItem(f"ladder-{regime}", ("scaling-curve", "--regime", regime, "--radii", _radii()),
                      check_ladder(regime))
              for regime in ("stationary", "stackelberg_leader", "stackelberg_follower", "nash")),
            CliItem("restrict-coupled", ("restrict", "--instance", "coupled"), check_restrict),
            CliItem("restrict-zero-sum", ("restrict", "--instance", "zero_sum"), lambda out: [],
                    exit_code=3, stage="pareto_check"),
        ]
    if workload == "chain-regression":
        return [
            CliItem("markov-50", ("markov", "--n", "50", "--gamma", "0.9", "--points", "200",
                                  "--p-min", "0.5", "--p-max", "1.0"), check_markov),
            CliItem("markov-200", ("markov", "--n", "200", "--gamma", "0.9", "--points", "200",
                                   "--p-min", "0.5", "--p-max", "1.0"), check_markov),
            CliItem("regression", ("regression", "--beta", "1,0", "--curve-step", "0.01"),
                    check_regression),
            CliItem("participation", ("participation", "--alpha-points", "20", "--alpha-min", "0.6",
                                      "--alpha-max", "1.0"), check_participation),
            EnvLeadsItem("env-leads-solve", seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")
