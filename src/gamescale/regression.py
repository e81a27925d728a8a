"""Strategic linear regression with a perturbation-choosing population.

Inputs are standard Gaussian; the true relation is y = beta^T x; a strategic
population shifts every input by e = k * beta/|beta| with k in a bounded
interval. The learner fits either a linear model (small class) or a linear
model plus an exp(-|x|^2) bump feature (large class). Both best responses
have closed forms; the population leads (Stackelberg) by choosing k to
maximize its expected prediction. The large class fits better pointwise yet
loses more at equilibrium.

Each closed form takes a scalar k or a 1-D array of k values with the scalar
call's bits per k: + - * / round like Python floats, the scalar order stays
(beta - e * s / t), dots are np.vecdot over (N, d) rows (a 1-D `@`'s bits),
libm's math.exp and float ** 2 run per element (np.exp and numpy's x*x round
differently), constants such as |beta|^2 stay Python floats; scans go by BLOCK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

K_RANGE = (-10.0, 10.0)  # the shift magnitudes k the population may choose
MAX_DIM = 512  # cap on len(beta), here and in the CLI: at k = 1, m*m is subnormal from ~643, NaN from ~880
BLOCK = 2048  # k values per array call in the grid scans; bounds their memory


def _libm(f, a, *args) -> np.ndarray:
    """f(q, *args) of each element q of a, on Python floats, in a's shape (0-d for a scalar):
    libm's exp and pow per element, which np.exp and numpy's q*q round differently from."""
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist(), *args), float, a.size).reshape(a.shape)


def _exp(a) -> np.ndarray:
    return _libm(math.exp, a)


def _square(a) -> np.ndarray:
    return _libm(pow, a, repeat(2.0))


def _blocks(ks: np.ndarray):
    return (ks[i : i + BLOCK] for i in range(0, ks.size, BLOCK))


@dataclass(eq=False)
class RegressionInstance:
    beta: np.ndarray
    dim: int = field(init=False)
    beta_norm: float = field(init=False)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 1:
            raise ValueError("beta must be a nonzero vector")
        if self.beta.shape[0] > MAX_DIM:
            raise ValueError(f"beta must have at most MAX_DIM = {MAX_DIM} entries, got {self.beta.shape[0]}")
        with np.errstate(over="ignore"):
            squared_norm = float(self.beta @ self.beta)
        if squared_norm == 0.0:
            raise ValueError("beta must be a nonzero vector")
        if not math.isfinite(squared_norm):
            raise ValueError(f"beta must have a finite |beta|^2, got {squared_norm}")
        self.dim = self.beta.shape[0]
        self.beta_norm = float(np.linalg.norm(self.beta))

    def shift(self, k) -> np.ndarray:
        """Perturbation vector e = k * beta / |beta|; one row per k for an array."""
        return np.multiply.outer(k, self.beta) / self.beta_norm


@dataclass
class LargeModelClosedForm:
    """Scalars of the bump-feature best response at shift magnitude k (arrays for an array of k)."""

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


def small_model_best_theta(instance: RegressionInstance, k) -> np.ndarray:
    """Population least-squares fit theta = (I - e e^T / (1 + |e|^2)) beta."""
    e = instance.shift(k)
    s, t = np.vecdot(e, instance.beta), 1.0 + np.vecdot(e, e)
    return instance.beta - e * s[..., None] / t[..., None]


def small_model_loss(instance: RegressionInstance, k):
    """Best-response learner loss of the small class, |beta|^2 k^2/(1+k^2).

    E[(beta^T x - theta^T (x + e))^2] = |beta - theta|^2 + (theta^T e)^2 at theta = theta*(e).
    """
    theta = small_model_best_theta(instance, k)
    diff = instance.beta - theta
    return np.vecdot(diff, diff) + _square(np.vecdot(theta, instance.shift(k)))


def small_model_env_objective(instance: RegressionInstance, k):
    """Expected prediction theta*(e)^T e = k |beta| / (1 + k^2)."""
    return np.vecdot(small_model_best_theta(instance, k), instance.shift(k))


# ---------------------------------------------------------------------------
# Large model (linear + Gaussian bump feature)
# ---------------------------------------------------------------------------


def large_model_closed_form(instance: RegressionInstance, k) -> LargeModelClosedForm:
    d = instance.dim
    m = (1.0 / 3.0) ** (d / 2.0 + 1.0) * _exp(-k * k / 3.0)
    y = (1.0 / 5.0) ** (d / 2.0) * _exp(-2.0 * k * k / 5.0)
    z = -(1.0 / (1.0 + k * k)) * (m * m / y)
    c = (1.0 / (1.0 + z * k * k)) * (1.0 / (1.0 + k * k)) * (1.0 + 2.0 * (m * m / y) * k * k)
    p = -(m / y) * k * (2.0 + c)
    return LargeModelClosedForm(m=m, y=y, z=z, c=c, p=p)


def large_model_learner_loss(instance: RegressionInstance, k):
    cf = large_model_closed_form(instance, k)
    c, p, m, y = cf.c, cf.p, cf.m, cf.y
    k2 = k * k
    factor = 1.0 - 2.0 * c + c * c + c * c * k2 + 2.0 * p * m * c * k + 4.0 * p * m * k + p * p * y
    return factor * instance.beta_norm**2


def large_model_env_objective(instance: RegressionInstance, k):
    """Expected prediction of the fitted bump model, |beta| (c k + 3 m p)."""
    cf = large_model_closed_form(instance, k)
    return instance.beta_norm * (cf.c * k + 3.0 * cf.m * cf.p)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


# model class -> (best-response learner loss at k, population objective at k)
CLASS_OBJECTIVES = {
    "small": (small_model_loss, small_model_env_objective),
    "large": (large_model_learner_loss, large_model_env_objective),
}


def loss_curves(instance: RegressionInstance, ks: np.ndarray) -> np.ndarray:
    """Rows (k, small loss, large loss, small objective, large objective), one per k."""
    losses, objectives = zip(*CLASS_OBJECTIVES.values())
    return np.column_stack([ks, *(f(instance, ks) for f in losses + objectives)])


def stackelberg_outcome(instance: RegressionInstance, model_class: str) -> StackelbergOutcome:
    """The population leads: k* maximizes its objective against the class's best response."""
    learner_loss, env_objective = CLASS_OBJECTIVES[model_class]
    k_star = _argmax_1d(lambda k: env_objective(instance, k), *K_RANGE)
    return StackelbergOutcome(
        model_class=model_class,
        k_star=k_star,
        learner_loss=float(learner_loss(instance, k_star)),
        env_objective=float(env_objective(instance, k_star)),
    )


def compare_model_classes(instance: RegressionInstance) -> ModelClassComparison:
    """Both Stackelberg equilibria plus the pointwise fit comparison.

    reverse_scaling is true when the larger class loses more at its own
    equilibrium even though its best-response loss is no worse at any k.
    """
    small = stackelberg_outcome(instance, "small")
    large = stackelberg_outcome(instance, "large")
    pointwise = all(
        np.all(large_model_learner_loss(instance, b) <= small_model_loss(instance, b) + 1e-9)
        for b in _blocks(np.arange(K_RANGE[0], K_RANGE[1] + 1e-12, 1e-3))
    )
    return ModelClassComparison(
        small=small,
        large=large,
        reverse_scaling=large.learner_loss > small.learner_loss,
        pointwise_dominance=pointwise,
    )


def _argmax_1d(f, lo: float, hi: float) -> float:
    """Grid argmax at spacing 1e-3 refined by two 10x zoom rounds; first maximizer wins ties.
    f maps blocks of at most BLOCK k values to their values, bit for bit as its scalar calls."""
    spacing = 1e-3
    for _ in range(3):
        ks = np.linspace(lo, hi, max(int(round((hi - lo) / spacing)) + 1, 2))
        best = int(np.argmax(np.concatenate([f(block) for block in _blocks(ks)])))
        lo, hi = max(lo, float(ks[best]) - spacing), min(hi, float(ks[best]) + spacing)
        spacing /= 10.0
    return float(ks[best])
