"""Baseline classifiers: k-NN, Gaussian naive Bayes, CART tree, SGD linear SVM.

All from scratch on numpy, all deterministic.  Tie-breaking rules are part
of the contract: k-NN breaks distance ties toward the lower sample index
and vote ties toward -1 (a tie is not evidence of feasibility), the tree
breaks equal-gain splits toward the lowest feature index then the lowest
threshold, and equal class scores fall back to -1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .svm import DimensionMismatch, EmptyData, check_labeled, check_rows, decision_labels


# --- k nearest neighbors ------------------------------------------------------


def knn_predict(x: np.ndarray, y: np.ndarray, features: Sequence[float], k: int) -> int:
    x, y = check_labeled(x, y)
    if not 1 <= k <= len(y):
        raise ValueError(f"k={k} outside 1..{len(y)}")
    probe = np.asarray(features, dtype=float)
    if probe.shape != x.shape[1:]:
        raise DimensionMismatch(f"probe of shape {probe.shape}, samples have {x.shape[1]} features")
    d = x - probe
    d *= d
    # Ties on the rounded distance, not on its square, go to the lower index.
    order = np.sqrt(d.sum(axis=1)).argsort(kind="stable")
    if sum(y[order[:k]].tolist()) > 0:  # +1/-1 labels sum exactly in any order
        return 1
    return -1


# --- Gaussian naive Bayes ------------------------------------------------------

VAR_FLOOR = 1e-9


@dataclass(frozen=True)
class GaussianNbModel:
    log_priors: dict[int, float]
    means: dict[int, np.ndarray]
    variances: dict[int, np.ndarray]

    def log_posterior(self, x: np.ndarray, label: int) -> np.ndarray:
        """The log posterior of ``label``, up to the shared evidence term, per row of x."""
        mu = self.means[label]
        x = check_rows(x, len(mu))
        var = self.variances[label]
        dens = -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var)
        return self.log_priors[label] + np.sum(dens, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.log_posterior(x, 1) > self.log_posterior(x, -1), 1, -1)


def train_gnb(x: np.ndarray, y: np.ndarray) -> GaussianNbModel:
    x, y = check_labeled(x, y)
    log_priors: dict[int, float] = {}
    means: dict[int, np.ndarray] = {}
    variances: dict[int, np.ndarray] = {}
    for label in (1, -1):
        mask = y == label
        if not mask.any():
            raise EmptyData(f"no samples with label {label:+d}")
        rows = x[mask]
        log_priors[label] = float(np.log(mask.sum() / len(y)))
        means[label] = rows.mean(axis=0)
        variances[label] = np.maximum(rows.var(axis=0), VAR_FLOOR)
    return GaussianNbModel(log_priors=log_priors, means=means, variances=variances)


# --- CART decision tree --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A CART tree as four arrays with one entry per node in pre-order, root
    first, and the number of features it was trained on.  A split's left
    child is the next node, ``t + 1``, and its right child is ``right[t]``;
    a leaf has ``feature`` -1 and its label in ``label``."""

    feature: np.ndarray  # intp, -1 at a leaf
    threshold: np.ndarray  # float64, 0.0 at a leaf
    right: np.ndarray  # intp, -1 at a leaf
    label: np.ndarray  # int64, ±1 at a leaf and 0 at a split
    n_features: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The ±1 label of each row of x; each pass moves the rows not at a leaf one level."""
        x = check_rows(x, self.n_features)
        at = np.zeros(len(x), dtype=np.intp)
        rows = np.flatnonzero(self.feature[at] >= 0)
        while len(rows):
            node = at[rows]
            left = x[rows, self.feature[node]] <= self.threshold[node]
            at[rows] = np.where(left, node + 1, self.right[node])
            rows = rows[self.feature[at[rows]] >= 0]
        return self.label[at]


def _majority(y: np.ndarray) -> int:
    pos = int(np.sum(y == 1))
    neg = len(y) - pos
    if pos > neg:
        return 1
    return -1


def _gini(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Gini impurity of sides of ``n`` rows, ``pos`` of them positive; 0 if empty."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = pos / n
        return np.where(n > 0, 1.0 - p * p - (1.0 - p) * (1.0 - p), 0.0)


def _best_split(x: np.ndarray, labels: np.ndarray) -> tuple[float, int, float] | None:
    """(weighted Gini, feature, threshold) of the first best split of the rows ``x``
    with ``labels``, or None if no feature takes two values.

    Each feature's column is sorted once; the threshold between consecutive
    distinct values is their midpoint, and the class counts of each side come
    from cumulative sums.  Splits are taken feature by feature, thresholds
    ascending, and a later one wins only if it is lower by more than 1e-12.
    """
    m = len(labels)
    live = np.flatnonzero((x != x[0]).any(axis=0))  # the features that take two values
    if not len(live):
        return None
    order = np.argsort(x[:, live], axis=0, kind="stable")
    values = np.take_along_axis(x[:, live], order, axis=0).T  # each row ascending
    positives = np.cumsum(labels[order] == 1, axis=0).T  # positives among the first k + 1
    feature, below = np.nonzero(values[:, 1:] != values[:, :-1])
    lo, hi = values[feature, below], values[feature, below + 1]
    with np.errstate(over="ignore"):
        thresholds = (lo + hi) / 2.0
    n_left = below + 1
    # A midpoint that rounded up to hi or overflowed puts other rows on its left.
    for k in np.flatnonzero((thresholds < lo) | (thresholds >= hi)):
        n_left[k] = np.searchsorted(values[feature[k]], thresholds[k], side="right")
    pos_left = np.where(n_left > 0, positives[feature, np.maximum(n_left - 1, 0)], 0)
    n_right, pos_right = m - n_left, positives[feature, -1] - pos_left
    weighted = _gini(pos_left, n_left) * n_left + _gini(pos_right, n_right) * n_right
    # Only a new running minimum can win, so the first-best scan visits those alone.
    running = np.minimum.accumulate(weighted)
    best = 0
    for k in np.flatnonzero(weighted[1:] < running[:-1]) + 1:
        if weighted[k] < weighted[best] - 1e-12:
            best = k
    return float(weighted[best]), int(live[feature[best]]), float(thresholds[best])


def train_tree(x: np.ndarray, y: np.ndarray) -> TreeModel:
    """Gini-impurity CART with midpoint thresholds and no depth limit.

    Growth stops at pure nodes or when no split improves impurity.  The split
    search sorts each feature once per node: O(d·m log m) for m rows.
    """
    x, y = check_labeled(x, y)

    def split(idx: np.ndarray) -> int | tuple[int, float, np.ndarray, np.ndarray]:
        """The leaf label for the rows idx, or their best split and its two row sets."""
        labels = y[idx]
        if np.all(labels == labels[0]):
            return int(labels[0])
        pos = np.count_nonzero(labels == 1)
        parent = float(_gini(pos, len(idx))) * len(idx)
        best = _best_split(x[idx], labels)
        if best is None or best[0] >= parent - 1e-12:
            return _majority(labels)
        _, f, thr = best
        mask = x[idx, f] <= thr
        return f, thr, idx[mask], idx[~mask]

    # An explicit stack, not recursion, so the depth is bounded only by the rows.
    # Nodes are appended as popped, left subtree first, which is pre-order; a
    # right child fills in its parent's ``right`` entry.
    nodes: list[list] = []  # each node's [feature, threshold, right, label], in pre-order
    todo = [(np.arange(len(y)), -1)]  # (rows, the split whose right child they are)
    while todo:
        idx, parent = todo.pop()
        if parent >= 0:
            nodes[parent][2] = len(nodes)
        plan = split(idx)
        if isinstance(plan, int):
            nodes.append([-1, 0.0, -1, plan])
            continue
        f, thr, left_rows, right_rows = plan
        todo += [(right_rows, len(nodes)), (left_rows, -1)]
        nodes.append([f, thr, -1, 0])
    feature, threshold, right, label = zip(*nodes)
    return TreeModel(feature=np.array(feature, dtype=np.intp),
                     threshold=np.array(threshold, dtype=np.float64),
                     right=np.array(right, dtype=np.intp),
                     label=np.array(label, dtype=np.int64),
                     n_features=x.shape[1])


# --- SGD linear SVM -------------------------------------------------------------

SGD_EPOCHS = 20
SGD_C = 1.0
SGD_SEED = 0


@dataclass(frozen=True)
class SgdSvmModel:
    weights: np.ndarray
    bias: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return decision_labels(check_rows(x, len(self.weights)) @ self.weights + self.bias)


def train_sgd_svm(x: np.ndarray, y: np.ndarray) -> SgdSvmModel:
    """Hinge loss + L2, lambda = 1/(SGD_C*n), step 1/(lambda*t), SGD_EPOCHS epochs
    shuffled by a generator seeded with SGD_SEED."""
    x, y = check_labeled(x, y)
    n = len(y)
    lam = 1.0 / (SGD_C * n)
    w = np.zeros(x.shape[1])
    b = 0.0
    t = 0
    rng = random.Random(SGD_SEED)
    order = list(range(n))
    # The step updates w in place with the products and sum that
    # ``w = shrink * w + scale * x[i]`` forms: each factor goes into a 0-d
    # array, which numpy takes faster than a Python float.
    rows, labels = list(x), y.tolist()
    shrink, scale = np.empty(()), np.empty(())
    scaled = np.empty(x.shape[1])
    add, multiply = np.add, np.multiply
    for _ in range(SGD_EPOCHS):
        rng.shuffle(order)
        for i in order:
            t += 1
            step = 1.0 / (lam * t)
            row, yi = rows[i], labels[i]
            shrink[()] = 1.0 - step * lam
            if yi * (float(w.dot(row)) + b) < 1.0:
                multiply(w, shrink, w)
                scale[()] = step * yi
                multiply(row, scale, scaled)
                add(w, scaled, w)
                b += step * yi
            else:
                multiply(w, shrink, w)
    return SgdSvmModel(weights=w, bias=b)

