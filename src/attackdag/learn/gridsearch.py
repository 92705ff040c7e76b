"""Hyperparameter grid search minimizing false negatives.

A missed feasible exploit is the expensive mistake here, so cells are
ranked by false negatives first, false positives second, grid order last.
A cell whose training or scoring raises a ``ValueError`` (every typed error
of ``train_svm`` and ``evaluate`` is one) is recorded and skipped; one bad
kernel/gamma combination must not sink the sweep.  Any other exception is a
fault, not a failed cell, and propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import evaluate
from .svm import SvmParams, train_svm


@dataclass(frozen=True)
class GridSpec:
    c_values: tuple[float, ...] = (1.0, 2.0, 3.0)
    kernels: tuple[str, ...] = ("rbf", "poly", "sigmoid")
    gamma_values: tuple[float, ...] = (0.01, 0.0556, 0.1, 0.5, 1.0)

    def cells(self) -> list[SvmParams]:
        return [
            SvmParams(c=c, kernel=k, gamma=g)
            for c in self.c_values
            for k in self.kernels
            for g in self.gamma_values
        ]


@dataclass(frozen=True)
class CellResult:
    params: SvmParams
    fn: Optional[int]  # None marks a failed cell
    fp: Optional[int]
    error: Optional[str] = None


def grid_search_min_fn(
    x: np.ndarray,
    y: np.ndarray,
    grid: GridSpec | None = None,
    eval_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[SvmParams, list[CellResult]]:
    """Train every cell on (x, y), score FN/FP on eval_data (default: (x, y)).

    Returns the winning cell's params plus the full surface so the caller
    can inspect or plot all of it.  If every cell failed, raises the first
    cell's error.
    """
    if grid is None:
        grid = GridSpec()
    eval_x, eval_y = (x, y) if eval_data is None else eval_data
    surface: list[CellResult] = []
    best: tuple[int, int, int] | None = None  # (fn, fp, cell order)
    best_params: SvmParams | None = None
    first_error: ValueError | None = None
    for order, params in enumerate(grid.cells()):
        try:
            model = train_svm(x, y, params)
            metrics = evaluate(model.predict(eval_x), eval_y)
        except ValueError as exc:  # record and keep sweeping
            surface.append(CellResult(params=params, fn=None, fp=None, error=str(exc)))
            first_error = first_error or exc
            continue
        surface.append(CellResult(params=params, fn=metrics.fn, fp=metrics.fp))
        key = (metrics.fn, metrics.fp, order)
        if best is None or key < best:
            best = key
            best_params = params
    if best_params is None:
        raise first_error or ValueError("the grid has no cells")
    return best_params, surface
