"""Support vector machine trained with sequential minimal optimization.

The dual problem is solved two multipliers at a time.  Each step picks the
maximal-violating pair under the first-order rule (most violating index
from the "can increase" set against the most violating from the "can
decrease" set, lowest index on ties), applies the analytic two-variable
update with box clipping to [0, C], and stops once the KKT violation gap
falls below the tolerance.  Selection is deterministic, so training is
bit-reproducible.  ``SvmParams.seed`` and ``SvmParams.shrinking`` have no
effect; they stay because stored ``model.json`` files carry them.

The loop keeps ``viol = -y * grad`` (each index's optimal-bias estimate)
as its state rather than the gradient, and two identities keep every
iterate bit-identical to the gradient form.  Since y is +1 or -1, the
Hessian ``q[r, c] = y_r * y_c * k[r, c]`` gives
``-y_r * q[r, c] == -y_c * k[r, c]`` exactly, so ``viol`` moves along the
columns ``cols[c] = -y_c * k[:, c]`` (contiguous, no second n x n array),
summing the two step terms before adding them as the gradient form does.
And rounding is symmetric under negation, so the step's
``y_i * grad_i - y_j * grad_j`` is exactly ``viol_j - viol_i``.
Selection reads two masked copies of ``viol``: ``up_viol`` holds it where
an index is in the "can increase" set and -inf elsewhere, ``down_viol``
where it is in the "can decrease" set and +inf elsewhere, so their argmax
(argmin) gives the same extreme and lowest-index tie as reducing over the
masked values.  Each step adds its sum to both copies; an unmasked entry
thus gets the very addition the gradient form makes, and a masked one
stays infinite while the steps are finite.  Only i and j move, so only
their flags can flip, and the refresh writes an entry only when its flag
does.  i was in the "can increase" set and j in the "can decrease" set,
so when i joins the "can decrease" set its entry is copied from
``up_viol[i]``, and when j joins the "can increase" set from
``down_viol[j]``, each read before that entry is masked.
The per-index state (``alpha`` and the ``can_up`` and ``can_down``
masks) lives in Python lists, since each step reads and writes only
entries i and j; an array is built from ``alpha`` only at the end.
Each step size goes into a 0-d array, which numpy takes with less
per-call work than a Python float, for the same float64 product.
``tests/oracles.py::reference_smo`` keeps the loop that recomputes
everything from the gradient each iteration, and the tests require the
two to give bit-identical multipliers, bias, iteration counts and
``converged``, from zeros and from a given start alike: both derive
their first state from the one product ``k @ (alpha * y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

KERNELS = ("rbf", "poly", "sigmoid")

# decision_values scores this many rows per kernel block, so scoring holds
# at most SCORE_BLOCK_ROWS x n_sv kernel entries at a time.
SCORE_BLOCK_ROWS = 4096

# gram_matrix's RBF branch runs its elementwise steps over this many rows at
# a time: a 256 x 427 float64 chunk is under 1 MB.
RBF_CHUNK_ROWS = 256


class DimensionMismatch(ValueError):
    pass


class SingleClassData(ValueError):
    pass


class NonFiniteFeature(ValueError):
    pass


class NonFiniteKernel(ValueError):
    pass


class EmptyData(ValueError):
    pass


def check_labeled(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays; raises unless they are a non-empty, finite, +1/-1 labeled set.

    Every learner, the SVM and the baselines, checks its training data here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch(f"features {x.shape} vs labels {y.shape}")
    if not len(y):
        raise EmptyData("no training samples")
    if not np.isfinite(x).all():
        raise NonFiniteFeature("features contain NaN or infinity")
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be +1 or -1")
    return x, y


def decision_labels(decisions: np.ndarray) -> np.ndarray:
    """+1 where a decision value is at least 0.0, else -1.

    A decision value of exactly zero is the undecidable case; it maps to +1
    so it surfaces for human review rather than vanishing.
    """
    return np.where(decisions >= 0.0, 1, -1)


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
        # exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)), written over the one
        # GEMM output in halved norms: (-2 gamma) * max(h, 0) with
        # h = (|a|^2/2 + |b|^2/2) - a.b.  Scaling by a power of two is exact,
        # so h is bit for bit half the direct formula's operand and every
        # entry is the direct formula's, provided -2 gamma is finite, the
        # squared norms are far from overflow (8 times the largest is
        # finite) and each halves exactly (it is 0, at least 2**-1021, or an
        # even multiple of the least subnormal).  A call outside that domain
        # takes the unhalved steps in the same loop.
        # The norm sums come from a rank-2 product, [n_a, 1] @ [1; n_b]: each
        # entry sums two exact products, so it rounds once to n_a + n_b in
        # any summation order, in under a third of a broadcast add's time.
        # The steps run RBF_CHUNK_ROWS rows at a time through one reused
        # buffer that stays in L2 cache.
        ab = a @ b.T
        a_sq = np.sum(a * a, axis=1)
        b_sq = a_sq if b is a else np.sum(b * b, axis=1)
        norms = np.concatenate((a_sq, b_sq))
        half = norms * 0.5
        scale = -2.0 * float(gamma)
        halved = (math.isfinite(scale) and math.isfinite(8.0 * float(norms.max(initial=0.0)))
                  and (half + half == norms).all())
        if not halved:
            half, scale = norms, -gamma
        left = np.ones((len(a), 2))
        right = np.ones((2, len(b)))
        left[:, 0] = half[:len(a)]
        right[1] = half[len(a):]
        buf = np.empty((min(RBF_CHUNK_ROWS, len(a)), len(b)))
        for start in range(0, len(a), RBF_CHUNK_ROWS):
            out = ab[start:start + RBF_CHUNK_ROWS]
            h = buf[:len(out)]
            np.matmul(left[start:start + len(out)], right, out=h)
            if not halved:
                out *= 2.0
            h -= out
            np.maximum(h, 0.0, out=h)
            h *= scale
            np.exp(h, out=out)
        return ab
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
        for name in ("c", "gamma", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be at least 1, got {self.max_passes!r}")


@dataclass(frozen=True)
class SvmModel:
    params: SvmParams
    support_vectors: np.ndarray  # (n_sv, n_features)
    bias: float
    sv_indices: tuple[int, ...]  # positions in the training set
    sv_alphas: np.ndarray
    sv_labels: np.ndarray
    n_samples: int
    converged: bool
    fingerprint: str = ""
    iterations: int = field(default=0, compare=False)

    @property
    def dual_coefs(self) -> np.ndarray:
        """alpha_i * y_i per support vector (exact, since y_i is +1 or -1)."""
        return self.sv_alphas * self.sv_labels

    def decision_values(self, features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatch(
                f"{x.shape[1]} features, model has {self.support_vectors.shape[1]}"
            )
        out = np.empty(len(x))
        coefs = self.dual_coefs
        for start in range(0, len(x), SCORE_BLOCK_ROWS):
            block = x[start:start + SCORE_BLOCK_ROWS]
            k = gram_matrix(self.params.kernel, block, self.support_vectors, self.params.gamma)
            out[start:start + len(block)] = k @ coefs + self.bias
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The +1/-1 label of each row of the ``(m, d)`` array x."""
        return decision_labels(self.decision_values(x))


def _movable(alpha: np.ndarray, y: np.ndarray, c: float, bound_eps: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the indices whose y * alpha can still rise / fall inside [0, C]."""
    below_c = alpha < c - bound_eps
    above_0 = alpha > bound_eps
    positive = y > 0  # y is +1 or -1
    return np.where(positive, below_c, above_0), np.where(positive, above_0, below_c)


def train_svm(x: np.ndarray, y: np.ndarray, params: SvmParams,
              start: np.ndarray | None = None) -> SvmModel:
    """Fit the SVM to feature rows x labeled y (+1/-1).

    ``start`` is a multiplier per training row, each in [0, C], to begin
    from instead of zeros (alpha seeding).  Every SMO step keeps
    ``sum(y * alpha)``, so the fit satisfies the equality constraint only
    as well as ``start`` does.  For a positive semidefinite kernel the dual
    is convex, and the fit reaches the same optimum within the tolerance
    from any feasible start.
    """
    x, y = check_labeled(x, y)
    if (y == y[0]).all():  # labels are +1 or -1, so one value means one class
        raise SingleClassData("training data has only one class")

    n = x.shape[0]
    c = params.c
    tol = params.tolerance
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,):
            raise ValueError(f"start has shape {start.shape}, expected ({n},)")
        if not np.isfinite(start).all():
            raise ValueError("start contains NaN or infinity")
        if (start < 0.0).any() or (start > c).any():
            raise ValueError(f"start multipliers must lie in [0, {c}]")
    with np.errstate(over="ignore", invalid="ignore"):
        k = gram_matrix(params.kernel, x, x, params.gamma)
    if not np.isfinite(k).all():
        raise NonFiniteKernel(f"the {params.kernel} kernel with gamma={params.gamma} "
                              "overflows on these features")
    k_diag = k.diagonal().tolist()
    # cols[t] is -y_t * k[:, t], contiguous: the change in viol per unit of alpha_t.
    cols = list(np.multiply(k, -y, order="F").T)
    labels = y.tolist()
    bound_eps = 1e-12 * max(1.0, c)
    c_inner = c - bound_eps  # a multiplier at or above this sits at C
    if start is None:
        start = np.zeros(n)
    # -y * grad, where grad = Q @ alpha - 1 and (Q @ alpha)_r = y_r * (k @ (alpha * y))_r.
    # From zeros this is exactly y: k is finite, so k @ (+-0.0) is +-0.0.
    viol = y - k @ (start * y)
    alpha = start.tolist()
    can_up, can_down = (m.tolist() for m in _movable(start, y, c, bound_eps))
    inf, ninf = np.inf, -np.inf
    up_viol = np.where(can_up, viol, ninf)
    down_viol = np.where(can_down, viol, inf)
    step = np.empty(n)
    step_j = np.empty(n)
    move_i = np.empty(())  # the step sizes, as 0-d operands (see the docstring)
    move_j = np.empty(())
    add, multiply = np.add, np.multiply
    max_passes = params.max_passes
    converged = False
    iterations = 0

    while iterations < max_passes:
        i = int(up_viol.argmax())
        j = int(down_viol.argmin())
        m_val = up_viol.item(i)
        m_low = down_viol.item(j)
        if m_val - m_low <= tol:
            converged = True
            break

        # Analytic two-variable step on (i, j).  Each comparison below picks
        # the operand that max()/min() would, ties included.
        eta = k_diag[i] + k_diag[j] - 2.0 * k.item(i, j)
        if eta < 1e-12:
            eta = 1e-12
        yi, yj = labels[i], labels[j]
        diff = m_low - m_val  # E_i - E_j, bias-free: viol_j - viol_i
        aj_old, ai_old = alpha[j], alpha[i]
        aj = aj_old + yj * diff / eta
        if yi != yj:
            lo = aj_old - ai_old
            hi = c + aj_old - ai_old
        else:
            lo = ai_old + aj_old - c
            hi = ai_old + aj_old
        if not lo > 0.0:
            lo = 0.0
        if not hi < c:
            hi = c
        if lo > aj:
            aj = lo
        if hi < aj:
            aj = hi
        ai = ai_old + yi * yj * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        move_i[()] = ai - ai_old
        move_j[()] = aj - aj_old
        multiply(cols[i], move_i, step)
        multiply(cols[j], move_j, step_j)
        add(step, step_j, step)
        add(up_viol, step, up_viol)
        add(down_viol, step, down_viol)
        iterations += 1

        # Only alpha[i] and alpha[j] moved, so only their flags can flip.  i
        # could rise and j fall before the step, so up_viol[i] and
        # down_viol[j] hold their viol; each is read before it is masked.
        if yi > 0:
            rise, fall = ai < c_inner, ai > bound_eps
        else:
            rise, fall = ai > bound_eps, ai < c_inner
        if fall != can_down[i]:
            can_down[i] = fall
            down_viol[i] = up_viol.item(i) if fall else inf
        if not rise:
            can_up[i] = False
            up_viol[i] = ninf
        if yj > 0:
            rise, fall = aj < c_inner, aj > bound_eps
        else:
            rise, fall = aj > bound_eps, aj < c_inner
        if rise != can_up[j]:
            can_up[j] = rise
            up_viol[j] = down_viol.item(j) if rise else ninf
        if not fall:
            can_down[j] = False
            down_viol[j] = inf

    alpha = np.clip(np.array(alpha), 0.0, c)
    free = (alpha > bound_eps) & (alpha < c_inner)
    if free.any():
        bias = float(np.mean(up_viol[free]))
    else:
        can_up, can_down = _movable(alpha, y, c, bound_eps)
        hi = np.max(up_viol[can_up]) if can_up.any() else 0.0
        lo = np.min(down_viol[can_down]) if can_down.any() else 0.0
        bias = float((hi + lo) / 2.0)

    sv = alpha > bound_eps
    idx = tuple(np.flatnonzero(sv).tolist())
    return SvmModel(
        params=params,
        support_vectors=x[sv].copy(),
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

