"""Independent reference implementations the test suite checks against.

Everything here is written for clarity over speed and shares no code with
the package internals beyond kernel evaluation, the expression AST, token
and error types, and a fitted model's ``decision_values`` and
``full_alphas`` for the KKT check (reusing the kernel is fine: the quantity
under test is the optimizer, not the kernel arithmetic).  It also holds the
measures only the tests read: the KKT violation, the SGD objective and an
expression's block leaves.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy.optimize import minimize

from attackdag.expr import (
    BLOCK_OPEN,
    DOT,
    IDENT,
    LPAREN,
    PLUS,
    RPAREN,
    STAR,
    EmptyBlockDescription,
    ExprToken,
    ExpressionSyntaxError,
    UnbalancedParens,
)
from attackdag.learn.svm import SvmModel, SvmParams, full_alphas, gram_matrix
from attackdag.model import AttackExpr, Block, Concat, Star


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


def reference_smo(
    x: np.ndarray, y: np.ndarray, params: SvmParams, steps: list | None = None,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """The SMO loop as first written: every mask and reduction recomputed in
    full on every iteration.

    ``train_svm`` must reproduce it bit for bit.  Returns (alphas, bias,
    iterations, converged), with the multipliers at or below the bound
    tolerance set to zero, as the model keeps them.  With ``steps`` given,
    each iteration appends ``(i, j, alpha_i, alpha_j)``: the pair it
    selected and their new multipliers.  ``start`` gives the multipliers to
    begin from (default: zeros).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    c = params.c
    tol = params.tolerance
    k = gram_matrix(params.kernel, x, x, params.gamma)
    q = (y[:, None] * y[None, :]) * k
    alpha = np.zeros(n) if start is None else np.array(start, dtype=float)
    # The gradient of the dual objective, Q @ alpha - 1, through
    # (Q @ alpha)_r = y_r * (k @ (alpha * y))_r: the formula train_svm starts
    # its viol = -y * grad from.  From zeros it is exactly -1.
    grad = -y * (y - k @ (alpha * y))
    bound_eps = 1e-12 * max(1.0, c)
    converged = False
    iterations = 0

    while iterations < params.max_passes:
        viol = -y * grad  # per-index optimal-bias estimate
        can_up = ((y > 0) & (alpha < c - bound_eps)) | ((y < 0) & (alpha > bound_eps))
        can_down = ((y > 0) & (alpha > bound_eps)) | ((y < 0) & (alpha < c - bound_eps))
        m_val = np.max(viol[can_up]) if can_up.any() else -np.inf
        m_low = np.min(viol[can_down]) if can_down.any() else np.inf
        if m_val - m_low <= tol:
            converged = True
            break
        i = int(np.argmax(np.where(can_up, viol, -np.inf)))
        j = int(np.argmin(np.where(can_down, viol, np.inf)))

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
        if steps is not None:
            steps.append((i, j, alpha[i], alpha[j]))

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
    alpha[alpha <= bound_eps] = 0.0
    return alpha, bias, iterations, converged


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


def hinge_objective(
    weights: np.ndarray, bias: float, x: np.ndarray, y: np.ndarray, c: float = 1.0
) -> float:
    """Regularized mean hinge loss the SGD trainer descends."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = 1.0 / (c * len(y))
    margins = 1.0 - y * (x @ weights + bias)
    return float(lam / 2.0 * (weights @ weights) + np.mean(np.maximum(margins, 0.0)))


def reference_sgd(x: np.ndarray, y: np.ndarray, epochs: int, c: float, seed: int
                  ) -> tuple[np.ndarray, float]:
    """(weights, bias) of hinge-loss SGD with a new weight array every step.

    lambda = 1/(c*n), step 1/(lambda*t), ``epochs`` passes over the rows in
    an order that ``random.Random(seed)`` shuffles before each pass.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    lam = 1.0 / (c * n)
    w = np.zeros(x.shape[1])
    b = 0.0
    t = 0
    rng = random.Random(seed)
    order = list(range(n))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            t += 1
            step = 1.0 / (lam * t)
            if y[i] * (w @ x[i] + b) < 1.0:
                w = (1.0 - step * lam) * w + step * y[i] * x[i]
                b += step * y[i]
            else:
                w = (1.0 - step * lam) * w
    return w, float(b)


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

    Ties on Euclidean distance go to the lower index; a vote tie is resolved
    to -1.  Two squared distances that differ can round to one distance.
    """
    x = np.asarray(x, dtype=float)
    remaining = list(range(len(y)))
    votes = 0

    def distance(idx: int) -> float:
        return math.sqrt(float(np.sum((x[idx] - probe) ** 2)))

    for _ in range(k):
        best = remaining[0]
        best_d = distance(best)
        for idx in remaining[1:]:
            d = distance(idx)
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


def tree_by_masks(x: np.ndarray, y: np.ndarray) -> list[tuple[int, float, int]]:
    """``train_tree`` by its former split search, O(d·m²) per node: every
    threshold of every feature scored with two boolean masks.  Each node is a
    ``(feature, threshold, label)`` tuple in pre-order, root first; a leaf has
    feature -1 and threshold 0.0, and a split label 0.

    The same floats in the same order as the package's cumulative-count
    search, so the two must build equal trees, thresholds bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def gini(labels: np.ndarray) -> float:
        if len(labels) == 0:
            return 0.0
        p = np.mean(labels == 1)
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    def grow(idx: np.ndarray) -> list[tuple[int, float, int]]:
        labels = y[idx]
        if np.all(labels == labels[0]):
            return [(-1, 0.0, int(labels[0]))]
        parent = gini(labels) * len(idx)
        best = None  # (weighted gini, feature, threshold)
        for f in range(x.shape[1]):
            values = np.unique(x[idx, f])
            for lo, hi in zip(values[:-1], values[1:]):
                thr = (lo + hi) / 2.0
                mask = x[idx, f] <= thr
                weighted = gini(labels[mask]) * mask.sum() + gini(labels[~mask]) * (~mask).sum()
                if best is None or weighted < best[0] - 1e-12:
                    best = (weighted, f, thr)
        if best is None or best[0] >= parent - 1e-12:
            pos = int(np.sum(labels == 1))
            return [(-1, 0.0, 1 if pos > len(labels) - pos else -1)]
        _, f, thr = best
        mask = x[idx, f] <= thr
        return [(f, float(thr), 0)] + grow(idx[mask]) + grow(idx[~mask])

    return grow(np.arange(len(y)))


def tree_predict(node, probe) -> int:
    while node[0] == "split":
        _, f, thr, left, right = node
        node = left if probe[f] <= thr else right
    return node[1]


def expr_blocks(expr: AttackExpr) -> list[Block]:
    """All Block leaves in left-to-right order."""
    out: list[Block] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Block):
            out.append(node)
        elif isinstance(node, Star):
            stack.append(node.inner)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


def render_expression_recursive(expr: AttackExpr) -> str:
    """The DSL text of an expression by direct recursion, one frame per operator.

    Minimal parentheses: union binds loosest, then concatenation, then star;
    a right operand of the same precedence is parenthesized.
    """
    prec = {Concat: 1, Star: 2, Block: 3}
    counter = [0]

    def walk(node: AttackExpr, min_prec: int) -> str:
        if isinstance(node, Block):
            counter[0] += 1
            text = f"bb_{counter[0]}({node.description})"
        elif isinstance(node, Star):
            text = walk(node.inner, 3) + "*"
        elif isinstance(node, Concat):
            text = walk(node.left, 1) + "." + walk(node.right, 2)
        else:
            text = walk(node.left, 0) + "+" + walk(node.right, 1)
        if prec.get(type(node), 0) < min_prec:
            return "(" + text + ")"
        return text

    return walk(expr, 0)


def tokenize_by_character(src: str) -> list[ExprToken]:
    """The expression scanner that walks a block description one character
    at a time to find its matching close paren; a whole block is one token."""
    tokens: list[ExprToken] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if src.startswith(BLOCK_OPEN, i):
            start = i
            i += 3
            j = i
            while j < n and src[j].isalnum():
                j += 1
            if j == i:
                raise ExpressionSyntaxError("expected block identifier", i, frozenset({IDENT}))
            i = j
            while i < n and src[i].isspace():
                i += 1
            if i >= n or src[i] != "(":
                raise ExpressionSyntaxError("expected '(' after block identifier", i, frozenset({LPAREN}))
            open_pos = i
            i += 1
            depth = 0
            j = i
            while j < n:
                if src[j] == "(":
                    depth += 1
                elif src[j] == ")":
                    if depth == 0:
                        break
                    depth -= 1
                j += 1
            if j >= n:
                raise UnbalancedParens("unclosed block description", open_pos)
            if not src[i:j].strip():
                raise EmptyBlockDescription(i)
            tokens.append(ExprToken(BLOCK_OPEN, src[i:j], start, j + 1))
            i = j + 1
            continue
        if ch == "(":
            tokens.append(ExprToken(LPAREN, "(", i, i + 1))
        elif ch == ")":
            tokens.append(ExprToken(RPAREN, ")", i, i + 1))
        elif ch == "*":
            tokens.append(ExprToken(STAR, "*", i, i + 1))
        elif ch == "+":
            tokens.append(ExprToken(PLUS, "+", i, i + 1))
        elif ch == ".":
            tokens.append(ExprToken(DOT, ".", i, i + 1))
        else:
            raise ExpressionSyntaxError(
                f"unexpected character {ch!r}", i, frozenset({BLOCK_OPEN, LPAREN})
            )
        i += 1
    return tokens


def rules_fired(hamming: int, ht_diff: float, head_to_leaf: bool,
                leaf_to_leaf: bool) -> tuple[str, ...]:
    """The rules R1-R3 that fire on one pair's facts, in order, stated one at a time."""
    fired = []
    if ht_diff <= -0.09 or ht_diff > 2.0:
        fired.append("R1")
    if hamming > 5:
        fired.append("R2")
    if 4 <= hamming <= 5 and (head_to_leaf or leaf_to_leaf):
        fired.append("R3")
    return tuple(fired)
