"""Hyperparameter grid search minimizing false negatives.

A missed feasible exploit is the expensive mistake here, so cells are
ranked by false negatives first, false positives second, grid order last.
A cell whose fit stopped at ``max_passes`` before converging ranks after
every converged one, since its FN/FP are wherever the loop stopped; a
surface of only such cells still yields its best.
A cell whose training or scoring raises a ``ValueError`` (every typed error
of ``train_svm`` and ``evaluate`` is one) is recorded and skipped; one bad
kernel/gamma combination must not sink the sweep.  Any other exception is a
fault, not a failed cell, and propagates.

Each (kernel, gamma) column is fitted in ascending C.  For a kernel in
``SEEDED_KERNELS`` every fit after the column's first successful one
starts from the previous fit's multipliers (alpha seeding, DeCoste &
Wagstaff, KDD 2000): they lie in [0, C_prev], so inside the larger box,
and keep ``sum(y * alpha)``.  These kernels are positive semidefinite, so
the dual is convex and a seeded fit meets the same optimality conditions
as a cold one, within the tolerance.  Its result can differ from a cold
fit's only within that tolerance, or where the fit stops at ``max_passes``
before converging.  The sigmoid kernel is not positive semidefinite: where
SMO ends up depends on where it starts, so its cells always start cold.  A
failed cell seeds nothing: the next C starts cold.  The surface is reported
in ``GridSpec.cells()`` order whatever order the fits ran in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import evaluate
from .svm import SvmModel, SvmParams, full_alphas, train_svm

# Kernels with a positive semidefinite Gram matrix, whose fits may start
# from the previous C's multipliers.
SEEDED_KERNELS = ("rbf", "poly")


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
    converged: Optional[bool] = None  # whether SMO converged; None for a failed cell


def grid_search_min_fn(
    x: np.ndarray,
    y: np.ndarray,
    grid: GridSpec,
    eval_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[SvmParams, list[CellResult]]:
    """Train every cell on (x, y), score FN/FP on eval_data (default: (x, y)).

    Returns the winning cell's params plus the full surface so the caller
    can inspect or plot all of it.  If every cell failed, raises the first
    cell's error.
    """
    eval_x, eval_y = (x, y) if eval_data is None else eval_data
    cells = grid.cells()
    columns: dict[tuple[str, float], list[int]] = {}
    for order, params in enumerate(cells):
        columns.setdefault((params.kernel, params.gamma), []).append(order)
    surface: list[CellResult | None] = [None] * len(cells)
    first_error: ValueError | None = None
    for column in columns.values():
        warm: SvmModel | None = None  # the fit the next C starts from
        for order in sorted(column, key=lambda o: cells[o].c):
            params = cells[order]
            try:
                model = train_svm(x, y, params,
                                  start=None if warm is None else full_alphas(warm))
                metrics = evaluate(model.predict(eval_x), eval_y)
            except ValueError as exc:  # record and keep sweeping
                surface[order] = CellResult(params=params, fn=None, fp=None, error=str(exc))
                if order == 0:
                    first_error = exc
                warm = None
                continue
            surface[order] = CellResult(params=params, fn=metrics.fn, fp=metrics.fp,
                                        converged=model.converged)
            warm = model if params.kernel in SEEDED_KERNELS else None
    ranked = [(not cell.converged, cell.fn, cell.fp, order) for order, cell in enumerate(surface)
              if cell.fn is not None]
    if not ranked:
        raise first_error or ValueError("the grid has no cells")
    return cells[min(ranked)[3]], surface
