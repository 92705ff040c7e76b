"""Independent reference implementations the test suite checks against.

Everything here is written for clarity over speed and shares no code with
the package internals beyond kernel evaluation (reusing the kernel is fine:
the quantity under test is the optimizer, not the kernel arithmetic).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from attackdag.learn.svm import SvmParams, gram_matrix


def dual_qp_reference(
    x: np.ndarray, y: np.ndarray, params: SvmParams
) -> tuple[np.ndarray, float, float]:
    """Solve the soft-margin dual directly with SLSQP.

    minimize   0.5 * a' Q a - sum(a)
    subject to 0 <= a_i <= C,  sum(a_i * y_i) == 0

    Returns (alphas, bias, objective).  Only meaningful for positive
    semidefinite kernels, where the dual is convex and the decision
    function at the optimum is unique.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    k = gram_matrix(params.kernel, x, x, params.gamma)
    q = (y[:, None] * y[None, :]) * k

    def objective(a: np.ndarray) -> float:
        return 0.5 * float(a @ q @ a) - float(a.sum())

    def gradient(a: np.ndarray) -> np.ndarray:
        return q @ a - 1.0

    # balanced interior point satisfying the equality constraint exactly,
    # used as a fallback start when the vertex start stalls the linesearch
    n_pos = int(np.sum(y > 0))
    n_neg = n - n_pos
    mass = 0.25 * params.c * min(n_pos, n_neg)
    interior = np.where(y > 0, mass / n_pos, mass / n_neg)

    result = None
    for start in (np.zeros(n), interior):
        for ftol in (1e-14, 1e-12, 1e-10):
            attempt = minimize(
                objective,
                start,
                jac=gradient,
                bounds=[(0.0, params.c)] * n,
                constraints=[{"type": "eq", "fun": lambda a: float(a @ y), "jac": lambda a: y}],
                method="SLSQP",
                options={"maxiter": 5000, "ftol": ftol},
            )
            if attempt.success and (result is None or attempt.fun < result.fun):
                result = attempt
    assert result is not None, "reference QP failed from every start"
    alphas = np.clip(result.x, 0.0, params.c)

    # Standard KKT bias estimate from the recovered multipliers.
    raw = k @ (alphas * y)  # decision values before bias
    eps = 1e-7 * max(1.0, params.c)
    free = (alphas > eps) & (alphas < params.c - eps)
    if free.any():
        bias = float(np.mean(y[free] - raw[free]))
    else:
        slack = y - raw
        can_up = ((y > 0) & (alphas < params.c - eps)) | ((y < 0) & (alphas > eps))
        can_down = ((y > 0) & (alphas > eps)) | ((y < 0) & (alphas < params.c - eps))
        hi = float(np.max(slack[can_up])) if can_up.any() else 0.0
        lo = float(np.min(slack[can_down])) if can_down.any() else 0.0
        bias = (hi + lo) / 2.0
    return alphas, bias, objective(alphas)


def reference_decisions(
    x_train: np.ndarray,
    y_train: np.ndarray,
    alphas: np.ndarray,
    bias: float,
    params: SvmParams,
    probes: np.ndarray,
) -> np.ndarray:
    """Decision values of the reference solution at the probe points."""
    k = gram_matrix(params.kernel, np.atleast_2d(probes), np.asarray(x_train, dtype=float),
                    params.gamma)
    return k @ (np.asarray(alphas) * np.asarray(y_train, dtype=float)) + bias


def rbf_gram_three_temporaries(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """The RBF Gram matrix as the direct formula, one temporary per step."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def knn_scan(x: np.ndarray, y: np.ndarray, probe: np.ndarray, k: int) -> int:
    """k nearest neighbors by repeated linear scan, no sorting library calls.

    Ties on distance go to the lower index; a vote tie is resolved to -1.
    """
    x = np.asarray(x, dtype=float)
    remaining = list(range(len(y)))
    votes = 0
    for _ in range(k):
        best = remaining[0]
        best_d = float(np.sum((x[best] - probe) ** 2))
        for idx in remaining[1:]:
            d = float(np.sum((x[idx] - probe) ** 2))
            if d < best_d:
                best, best_d = idx, d
        remaining.remove(best)
        votes += int(y[best])
    return 1 if votes > 0 else -1


def gnb_log_posterior(
    x: np.ndarray, y: np.ndarray, probe: np.ndarray, label: int, var_floor: float = 1e-9
) -> float:
    """Hand-rolled Gaussian naive Bayes log posterior, scalar math only."""
    rows = [x[i] for i in range(len(y)) if y[i] == label]
    prior = math.log(len(rows) / len(y))
    total = prior
    n_features = len(probe)
    for f in range(n_features):
        column = [row[f] for row in rows]
        mu = sum(column) / len(column)
        var = sum((v - mu) ** 2 for v in column) / len(column)
        var = max(var, var_floor)
        total += -0.5 * (math.log(2.0 * math.pi * var) + (probe[f] - mu) ** 2 / var)
    return total


def _gini_count(labels: list[int]) -> float:
    if not labels:
        return 0.0
    pos = sum(1 for v in labels if v == 1)
    p = pos / len(labels)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def exhaustive_tree(x: np.ndarray, y: np.ndarray):
    """Grow a CART tree by brute-force split enumeration.

    Mirrors the documented contract: Gini impurity, midpoint thresholds,
    strict improvement required, ties to the lowest feature index then the
    lowest threshold, majority leaf labels with ties to -1.  Built
    independently with python lists so an indexing bug in the package
    cannot hide in both places.
    """
    x = np.asarray(x, dtype=float)
    y = [int(v) for v in np.asarray(y)]

    def majority(labels: list[int]) -> int:
        pos = sum(1 for v in labels if v == 1)
        return 1 if pos > len(labels) - pos else -1

    def grow(rows: list[int]):
        labels = [y[i] for i in rows]
        if all(v == labels[0] for v in labels):
            return ("leaf", labels[0])
        parent = _gini_count(labels) * len(rows)
        best = None
        for f in range(x.shape[1]):
            values = sorted({float(x[i, f]) for i in rows})
            for lo, hi in zip(values[:-1], values[1:]):
                thr = (lo + hi) / 2.0
                left = [i for i in rows if x[i, f] <= thr]
                right = [i for i in rows if x[i, f] > thr]
                weighted = (
                    _gini_count([y[i] for i in left]) * len(left)
                    + _gini_count([y[i] for i in right]) * len(right)
                )
                if best is None or weighted < best[0] - 1e-12:
                    best = (weighted, f, thr, left, right)
        if best is None or best[0] >= parent - 1e-12:
            return ("leaf", majority(labels))
        _, f, thr, left, right = best
        return ("split", f, thr, grow(left), grow(right))

    return grow(list(range(len(y))))


def tree_predict(node, probe) -> int:
    while node[0] == "split":
        _, f, thr, left, right = node
        node = left if probe[f] <= thr else right
    return node[1]
