"""Support vector machine trained with sequential minimal optimization.

The dual problem is solved two multipliers at a time.  Each step picks the
maximal-violating pair under the first-order rule (most violating index
from the "can increase" set against the most violating from the "can
decrease" set, lowest index on ties), applies the analytic two-variable
update with box clipping to [0, C], and stops once the KKT violation gap
falls below the tolerance.  Selection is deterministic, so training is
bit-reproducible.  ``SvmParams.seed`` has no effect; it stays because
stored ``model.json`` files carry it.

Shrinking temporarily drops bound-stuck multipliers from pair selection.
The full gradient is maintained throughout and convergence is re-verified
on the complete index set before stopping, so shrinking can only change
how fast the fixed point is reached, never where it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..model import BranchSample

KERNELS = ("rbf", "poly", "sigmoid")

# decision_values scores this many rows per kernel block, so scoring holds
# at most SCORE_BLOCK_ROWS x n_sv kernel entries at a time.
SCORE_BLOCK_ROWS = 4096


class DimensionMismatch(ValueError):
    pass


class SingleClassData(ValueError):
    pass


class NonFiniteFeature(ValueError):
    pass


def kernel_eval(kind: str, x: Sequence[float], y: Sequence[float], gamma: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vectors of shape {x.shape} and {y.shape}")
    if kind == "rbf":
        d = x - y
        return float(np.exp(-gamma * float(d @ d)))
    if kind == "poly":
        return float((gamma * float(x @ y) + 1.0) ** 3)
    if kind == "sigmoid":
        return float(np.tanh(gamma * float(x @ y)))
    raise ValueError(f"unknown kernel {kind!r}; expected one of {KERNELS}")


def gram_matrix(kind: str, a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"matrices of shape {a.shape} and {b.shape}")
    if kind == "rbf":
        # exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)) in place, with one
        # extra len(a) x len(b) buffer.  The operations run in the formula's
        # order, so the result is bit-identical to evaluating it directly.
        ab = a @ b.T
        ab *= 2.0
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
        sq -= ab
        np.maximum(sq, 0.0, out=sq)
        sq *= -gamma
        return np.exp(sq, out=sq)
    if kind == "poly":
        return (gamma * (a @ b.T) + 1.0) ** 3
    if kind == "sigmoid":
        return np.tanh(gamma * (a @ b.T))
    raise ValueError(f"unknown kernel {kind!r}; expected one of {KERNELS}")


@dataclass(frozen=True)
class SvmParams:
    c: float = 1.0
    kernel: str = "rbf"
    gamma: float = 0.0556
    tolerance: float = 1e-3
    shrinking: bool = True
    max_passes: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SvmModel:
    params: SvmParams
    support_vectors: np.ndarray  # (n_sv, n_features)
    dual_coefs: np.ndarray  # alpha_i * y_i per support vector
    bias: float
    sv_indices: tuple[int, ...]  # positions in the training set
    sv_alphas: np.ndarray
    sv_labels: np.ndarray
    n_samples: int
    converged: bool = True
    fingerprint: str = ""
    iterations: int = field(default=0, compare=False)

    def decision_values(self, features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatch(
                f"{x.shape[1]} features, model has {self.support_vectors.shape[1]}"
            )
        out = np.empty(len(x))
        for start in range(0, len(x), SCORE_BLOCK_ROWS):
            block = x[start:start + SCORE_BLOCK_ROWS]
            k = gram_matrix(self.params.kernel, block, self.support_vectors, self.params.gamma)
            out[start:start + len(block)] = k @ self.dual_coefs + self.bias
        return out

    def decision_value(self, features: Sequence[float]) -> float:
        return float(self.decision_values([features])[0])

    def predict(self, features: Sequence[float]) -> int:
        # A decision value of exactly zero is the undecidable case; it maps
        # to +1 so it surfaces for human review rather than vanishing.
        return 1 if self.decision_value(features) >= 0.0 else -1

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        return np.where(self.decision_values(features) >= 0.0, 1, -1)


def as_arrays(samples: Sequence[BranchSample]) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray([s.features for s in samples], dtype=float)
    y = np.asarray([s.label for s in samples], dtype=float)
    return x, y


def train_svm(samples: Sequence[BranchSample], params: SvmParams | None = None) -> SvmModel:
    if params is None:
        params = SvmParams()
    x, y = as_arrays(samples)
    return fit_svm(x, y, params)


def fit_svm(x: np.ndarray, y: np.ndarray, params: SvmParams) -> SvmModel:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch(f"features {x.shape} vs labels {y.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteFeature("features contain NaN or infinity")
    if not np.all(np.isin(y, (1.0, -1.0))):
        raise ValueError("labels must be +1 or -1")
    if len(np.unique(y)) < 2:
        raise SingleClassData("training data has only one class")

    n = x.shape[0]
    c = params.c
    tol = params.tolerance
    k = gram_matrix(params.kernel, x, x, params.gamma)
    q = (y[:, None] * y[None, :]) * k
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective: Q @ alpha - 1
    bound_eps = 1e-12 * max(1.0, c)
    active = np.ones(n, dtype=bool)
    converged = False
    iterations = 0
    shrink_period = 100

    while iterations < params.max_passes:
        viol = -y * grad  # per-index optimal-bias estimate
        can_up = ((y > 0) & (alpha < c - bound_eps)) | ((y < 0) & (alpha > bound_eps))
        can_down = ((y > 0) & (alpha > bound_eps)) | ((y < 0) & (alpha < c - bound_eps))
        up = can_up & active
        down = can_down & active
        m_val = np.max(viol[up]) if up.any() else -np.inf
        m_low = np.min(viol[down]) if down.any() else np.inf
        if m_val - m_low <= tol:
            if active.all():
                converged = True
                break
            # Shrunk set converged: reactivate everything and re-verify.
            active[:] = True
            continue
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(down, viol, np.inf)))

        # Analytic two-variable step on (i, j).
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if eta < 1e-12:
            eta = 1e-12
        diff = y[i] * grad[i] - y[j] * grad[j]  # E_i - E_j, bias-free
        aj_old, ai_old = alpha[j], alpha[i]
        aj = aj_old + y[j] * diff / eta
        if y[i] != y[j]:
            lo = max(0.0, aj_old - ai_old)
            hi = min(c, c + aj_old - ai_old)
        else:
            lo = max(0.0, ai_old + aj_old - c)
            hi = min(c, ai_old + aj_old)
        aj = min(max(aj, lo), hi)
        ai = ai_old + y[i] * y[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        grad += q[:, i] * (ai - ai_old) + q[:, j] * (aj - aj_old)
        iterations += 1

        if params.shrinking and iterations % shrink_period == 0:
            # Keep every free multiplier; drop bound-stuck indices whose
            # violation value sits strictly inside the current extremes.
            viol = -y * grad
            at_bound = (alpha <= bound_eps) | (alpha >= c - bound_eps)
            up_only = can_up & ~can_down
            down_only = can_down & ~can_up
            stuck = at_bound & (
                (up_only & (viol < m_low)) | (down_only & (viol > m_val))
            )
            active = ~stuck
            if not active.any():
                active[:] = True

    np.clip(alpha, 0.0, c, out=alpha)
    viol = -y * grad
    free = (alpha > bound_eps) & (alpha < c - bound_eps)
    if free.any():
        bias = float(np.mean(viol[free]))
    else:
        can_up = ((y > 0) & (alpha < c - bound_eps)) | ((y < 0) & (alpha > bound_eps))
        can_down = ((y > 0) & (alpha > bound_eps)) | ((y < 0) & (alpha < c - bound_eps))
        hi = np.max(viol[can_up]) if can_up.any() else 0.0
        lo = np.min(viol[can_down]) if can_down.any() else 0.0
        bias = float((hi + lo) / 2.0)

    sv = alpha > bound_eps
    idx = tuple(int(t) for t in np.flatnonzero(sv))
    return SvmModel(
        params=params,
        support_vectors=x[sv].copy(),
        dual_coefs=(alpha * y)[sv].copy(),
        bias=bias,
        sv_indices=idx,
        sv_alphas=alpha[sv].copy(),
        sv_labels=y[sv].copy(),
        n_samples=n,
        converged=converged,
        iterations=iterations,
    )


def full_alphas(model: SvmModel) -> np.ndarray:
    """Multipliers for every training index (zeros where not a support vector)."""
    out = np.zeros(model.n_samples)
    out[np.array(model.sv_indices, dtype=np.intp)] = model.sv_alphas
    return out


def kkt_violation(model: SvmModel, x: np.ndarray, y: np.ndarray) -> float:
    """Largest complementarity violation over the training set.

    Per index: alpha == 0 requires y*f >= 1, free requires y*f == 1,
    alpha == C requires y*f <= 1, each up to the returned slack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = full_alphas(model)
    c = model.params.c
    yf = y * model.decision_values(x)
    bound_eps = 1e-9 * max(1.0, c)
    slack = np.where(alpha <= bound_eps, 1.0 - yf,
                     np.where(alpha >= c - bound_eps, yf - 1.0, np.abs(yf - 1.0)))
    return float(np.max(slack, initial=0.0))
