"""Strategic linear regression with a perturbation-choosing population.

Inputs are standard Gaussian; the true relation is y = beta^T x; a strategic
population shifts every input by e = k * beta/|beta| with k in a bounded
interval. The learner fits either a linear model (small class) or a linear
model plus an exp(-|x|^2) bump feature (large class). Both best responses
have closed forms; the population leads (Stackelberg) by choosing k to
maximize its expected prediction. The large class fits better pointwise yet
loses more at equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class RegressionInstance:
    beta: np.ndarray
    k_range: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 1 or float(np.linalg.norm(self.beta)) == 0.0:
            raise ValueError("beta must be a nonzero vector")
        if self.k_range[0] > self.k_range[1]:
            raise ValueError("empty k range")

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    @property
    def beta_norm(self) -> float:
        return float(np.linalg.norm(self.beta))

    def shift(self, k: float) -> np.ndarray:
        """Perturbation vector e = k * beta / |beta|."""
        return k * self.beta / self.beta_norm


@dataclass
class LargeModelClosedForm:
    """Scalars of the bump-feature best response at shift magnitude k."""

    m: float
    y: float
    z: float
    c: float
    p: float


@dataclass
class StackelbergOutcome:
    model_class: str
    k_star: float
    learner_loss: float
    env_objective: float


@dataclass
class ModelClassComparison:
    small: StackelbergOutcome
    large: StackelbergOutcome
    reverse_scaling: bool
    pointwise_dominance: bool


# ---------------------------------------------------------------------------
# Small model (pure linear)
# ---------------------------------------------------------------------------


def small_model_best_theta(instance: RegressionInstance, k: float) -> np.ndarray:
    """Population least-squares fit theta = (I - e e^T / (1 + |e|^2)) beta."""
    e = instance.shift(k)
    beta = instance.beta
    return beta - e * float(e @ beta) / (1.0 + float(e @ e))

def linear_population_loss(instance: RegressionInstance, theta: np.ndarray, k: float) -> float:
    """E[(beta^T x - theta^T (x + e))^2] = |beta - theta|^2 + (theta^T e)^2."""
    e = instance.shift(k)
    diff = instance.beta - theta
    return float(diff @ diff) + float(theta @ e) ** 2


def small_model_loss(instance: RegressionInstance, k: float) -> float:
    """Best-response learner loss of the small class, |beta|^2 k^2/(1+k^2)."""
    return linear_population_loss(instance, small_model_best_theta(instance, k), k)


def small_model_env_objective(instance: RegressionInstance, k: float) -> float:
    """Expected prediction theta*(e)^T e = k |beta| / (1 + k^2)."""
    return float(small_model_best_theta(instance, k) @ instance.shift(k))


def small_model_equilibrium(instance: RegressionInstance) -> StackelbergOutcome:
    k_star = _argmax_1d(lambda k: small_model_env_objective(instance, k), *instance.k_range)
    return StackelbergOutcome(
        model_class="small",
        k_star=k_star,
        learner_loss=small_model_loss(instance, k_star),
        env_objective=small_model_env_objective(instance, k_star),
    )


# ---------------------------------------------------------------------------
# Large model (linear + Gaussian bump feature)
# ---------------------------------------------------------------------------


def large_model_closed_form(instance: RegressionInstance, k: float) -> LargeModelClosedForm:
    d = instance.dim
    m = (1.0 / 3.0) ** (d / 2.0 + 1.0) * math.exp(-k * k / 3.0)
    y = (1.0 / 5.0) ** (d / 2.0) * math.exp(-2.0 * k * k / 5.0)
    z = -(1.0 / (1.0 + k * k)) * (m * m / y)
    c = (1.0 / (1.0 + z * k * k)) * (1.0 / (1.0 + k * k)) * (1.0 + 2.0 * (m * m / y) * k * k)
    p = -(m / y) * k * (2.0 + c)
    return LargeModelClosedForm(m=m, y=y, z=z, c=c, p=p)


def large_model_best_theta(instance: RegressionInstance, k: float) -> tuple[np.ndarray, float]:
    """Best-response coefficients (theta_1, theta_2) = (c beta, p |beta|)."""
    cf = large_model_closed_form(instance, k)
    return cf.c * instance.beta, cf.p * instance.beta_norm


def large_model_learner_loss(instance: RegressionInstance, k: float) -> float:
    cf = large_model_closed_form(instance, k)
    c, p, m, y = cf.c, cf.p, cf.m, cf.y
    k2 = k * k
    factor = 1.0 - 2.0 * c + c * c + c * c * k2 + 2.0 * p * m * c * k + 4.0 * p * m * k + p * p * y
    return factor * instance.beta_norm**2


def large_model_env_objective(instance: RegressionInstance, k: float) -> float:
    """Expected prediction of the fitted bump model, |beta| (c k + 3 m p)."""
    cf = large_model_closed_form(instance, k)
    return instance.beta_norm * (cf.c * k + 3.0 * cf.m * cf.p)


def large_model_equilibrium(instance: RegressionInstance) -> StackelbergOutcome:
    k_star = _argmax_1d(lambda k: large_model_env_objective(instance, k), *instance.k_range)
    return StackelbergOutcome(
        model_class="large",
        k_star=k_star,
        learner_loss=large_model_learner_loss(instance, k_star),
        env_objective=large_model_env_objective(instance, k_star),
    )


def compare_model_classes(instance: RegressionInstance) -> ModelClassComparison:
    """Both Stackelberg equilibria plus the pointwise fit comparison.

    reverse_scaling is true when the larger class loses more at its own
    equilibrium even though its best-response loss is no worse at any k.
    """
    small = small_model_equilibrium(instance)
    large = large_model_equilibrium(instance)
    lo, hi = instance.k_range
    ks = np.arange(lo, hi + 1e-12, 1e-3) if hi > lo else np.array([lo])
    pointwise = all(
        large_model_learner_loss(instance, float(k))
        <= small_model_loss(instance, float(k)) + 1e-9
        for k in ks
    )
    return ModelClassComparison(
        small=small,
        large=large,
        reverse_scaling=large.learner_loss > small.learner_loss,
        pointwise_dominance=pointwise,
    )


def _argmax_1d(f, lo: float, hi: float) -> float:
    """Grid argmax at spacing 1e-3 refined by two 10x zoom rounds; first maximizer wins ties."""
    if hi <= lo:
        return lo
    spacing = 1e-3
    for _ in range(3):
        n = max(int(round((hi - lo) / spacing)) + 1, 2)
        ks = np.linspace(lo, hi, n)
        vals = [f(float(k)) for k in ks]
        best = int(np.argmax(vals))
        lo_new = max(lo, float(ks[best]) - spacing)
        hi_new = min(hi, float(ks[best]) + spacing)
        lo, hi = lo_new, hi_new
        spacing /= 10.0
    return float(ks[best])
