"""Prediction scoring and search-space bookkeeping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..model import Metrics


class LengthMismatch(ValueError):
    pass


def evaluate(predictions: np.ndarray | Sequence[int],
             truth: np.ndarray | Sequence[int]) -> Metrics:
    """Confusion-count metrics for two +1/-1 label arrays (or sequences)."""
    pred, actual = np.asarray(predictions), np.asarray(truth)
    if len(pred) != len(actual):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(actual)} labels")
    if not len(pred):
        raise LengthMismatch("nothing to evaluate")
    flagged, feasible = pred == 1, actual == 1
    bad = ~(flagged | (pred == -1)) | ~(feasible | (actual == -1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"labels must be +1 or -1, got {(pred[i].item(), actual[i].item())}")
    # One bin per (predicted, actual) pair: 2 * (predicted +1) + (actual +1).
    tn, fn, fp, tp = np.bincount(2 * flagged + feasible, minlength=4).tolist()
    return Metrics.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)


def search_space_reduction(n_predicted_positive: int, n_candidates: int) -> float:
    """Fraction of the candidate space a human no longer has to review."""
    if n_candidates <= 0:
        raise ValueError("candidate count must be positive")
    if not 0 <= n_predicted_positive <= n_candidates:
        raise ValueError("positive count outside 0..candidates")
    return 1.0 - n_predicted_positive / n_candidates


def format_reduction(n_predicted_positive: int, n_candidates: int) -> str:
    return f"{100.0 * search_space_reduction(n_predicted_positive, n_candidates):.1f}%"
