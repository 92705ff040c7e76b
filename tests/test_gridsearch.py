import re

import numpy as np
import pytest

import dataclasses

import attackdag.learn.gridsearch as gridsearch
from attackdag.learn import (
    GridSpec,
    LengthMismatch,
    SvmParams,
    evaluate,
    full_alphas,
    grid_search_min_fn,
    train_svm,
)

N_FEATURES = 20


def arrays(values, labels):
    """(x, y) of one-feature rows zero-padded to 20 features."""
    x = np.zeros((len(values), N_FEATURES))
    x[:, 0] = values
    return x, np.array(labels)


def separable():
    xs = [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]
    return arrays(xs, [1 if v > 0 else -1 for v in xs])


class TestGridSpec:
    def test_default_sweep(self):
        spec = GridSpec()
        assert spec.c_values == (1.0, 2.0, 3.0)
        assert spec.kernels == ("rbf", "poly", "sigmoid")
        assert spec.gamma_values == (0.01, 0.0556, 0.1, 0.5, 1.0)
        assert len(spec.cells()) == 45

    def test_cells_enumerate_in_listed_order(self):
        spec = GridSpec(c_values=(2.0, 1.0), kernels=("poly", "rbf"), gamma_values=(0.3, 0.1))
        got = [(p.c, p.kernel, p.gamma) for p in spec.cells()]
        assert got == [
            (2.0, "poly", 0.3),
            (2.0, "poly", 0.1),
            (2.0, "rbf", 0.3),
            (2.0, "rbf", 0.1),
            (1.0, "poly", 0.3),
            (1.0, "poly", 0.1),
            (1.0, "rbf", 0.3),
            (1.0, "rbf", 0.1),
        ]

    def test_cells_carry_non_swept_defaults(self):
        cell = GridSpec().cells()[0]
        assert cell.tolerance == SvmParams().tolerance
        assert cell.shrinking == SvmParams().shrinking


class StubModel:
    converged = True

    def __init__(self, preds):
        self.preds = np.asarray(preds)

    def predict(self, x):
        assert len(x) == len(self.preds)
        return self.preds


class SyntheticFailure(ValueError):
    """A typed training error, as train_svm raises for data it cannot fit."""


def stub_trainer(table):
    """train_svm stand-in returning canned predictions keyed by cell params;
    "fail" raises a typed error, "crash" a fault that is not a ValueError."""

    def train(x, y, params, start=None):
        key = (params.c, params.kernel, params.gamma)
        if table[key] == "fail":
            raise SyntheticFailure(f"synthetic failure in {params.kernel}")
        if table[key] == "crash":
            raise TypeError("synthetic fault")
        return StubModel(table[key])

    return train


class TestSelection:
    # truth for four eval samples
    SAMPLES = arrays([0.0, 1.0, 2.0, 3.0], [1, 1, -1, -1])
    GRID = GridSpec(c_values=(1.0,), kernels=("rbf", "poly", "sigmoid"), gamma_values=(0.1,))

    def run(self, monkeypatch, table):
        monkeypatch.setattr(gridsearch, "train_svm", stub_trainer(table))
        return grid_search_min_fn(*self.SAMPLES, self.GRID)

    def test_fewest_false_negatives_wins(self, monkeypatch):
        best, surface = self.run(monkeypatch, {
            (1.0, "rbf", 0.1): [1, -1, -1, -1],     # fn=1 fp=0
            (1.0, "poly", 0.1): [1, 1, 1, 1],       # fn=0 fp=2
            (1.0, "sigmoid", 0.1): [1, -1, 1, 1],   # fn=1 fp=2
        })
        assert best.kernel == "poly"
        assert [(c.fn, c.fp) for c in surface] == [(1, 0), (0, 2), (1, 2)]

    def test_false_positives_break_fn_ties(self, monkeypatch):
        best, _ = self.run(monkeypatch, {
            (1.0, "rbf", 0.1): [1, 1, 1, 1],        # fn=0 fp=2
            (1.0, "poly", 0.1): [1, 1, 1, -1],      # fn=0 fp=1
            (1.0, "sigmoid", 0.1): [1, 1, 1, 1],    # fn=0 fp=2
        })
        assert best.kernel == "poly"

    def test_grid_order_breaks_full_ties(self, monkeypatch):
        best, _ = self.run(monkeypatch, {
            (1.0, "rbf", 0.1): [1, 1, -1, -1],
            (1.0, "poly", 0.1): [1, 1, -1, -1],
            (1.0, "sigmoid", 0.1): [1, 1, -1, -1],
        })
        assert best.kernel == "rbf"

    def test_failed_cell_recorded_and_skipped(self, monkeypatch):
        best, surface = self.run(monkeypatch, {
            (1.0, "rbf", 0.1): "fail",
            (1.0, "poly", 0.1): [1, 1, -1, -1],
            (1.0, "sigmoid", 0.1): "fail",
        })
        assert best.kernel == "poly"
        assert len(surface) == 3
        failed = [c for c in surface if c.error is not None]
        assert [c.params.kernel for c in failed] == ["rbf", "sigmoid"]
        assert all(c.fn is None and c.fp is None for c in failed)
        assert "synthetic failure" in failed[0].error

    def test_all_cells_failing_raises(self, monkeypatch):
        table = {
            (1.0, "rbf", 0.1): "fail",
            (1.0, "poly", 0.1): "fail",
            (1.0, "sigmoid", 0.1): "fail",
        }
        monkeypatch.setattr(gridsearch, "train_svm", stub_trainer(table))
        with pytest.raises(SyntheticFailure, match="synthetic failure in rbf"):
            grid_search_min_fn(*self.SAMPLES, self.GRID)

    def test_fault_that_is_not_a_value_error_propagates(self, monkeypatch):
        table = {
            (1.0, "rbf", 0.1): "fail",
            (1.0, "poly", 0.1): "crash",
            (1.0, "sigmoid", 0.1): [1, 1, -1, -1],
        }
        monkeypatch.setattr(gridsearch, "train_svm", stub_trainer(table))
        with pytest.raises(TypeError, match="synthetic fault"):
            grid_search_min_fn(*self.SAMPLES, self.GRID)

    def test_scores_on_eval_data_not_train(self, monkeypatch):
        # canned predictions are all +1; swapping eval truth flips fn/fp
        eval_pos = arrays([0.0, 1.0], [1, 1])
        eval_neg = arrays([0.0, 1.0], [-1, -1])
        grid = GridSpec(c_values=(1.0,), kernels=("rbf",), gamma_values=(0.1,))
        monkeypatch.setattr(
            gridsearch, "train_svm", stub_trainer({(1.0, "rbf", 0.1): [1, 1]})
        )
        _, on_pos = grid_search_min_fn(*self.SAMPLES, grid, eval_data=eval_pos)
        _, on_neg = grid_search_min_fn(*self.SAMPLES, grid, eval_data=eval_neg)
        assert (on_pos[0].fn, on_pos[0].fp) == (0, 0)
        assert (on_neg[0].fn, on_neg[0].fp) == (0, 2)


class TestRealTraining:
    def test_separable_data_all_cells_clean_first_wins(self):
        grid = GridSpec(c_values=(1.0, 2.0), kernels=("rbf",), gamma_values=(0.5, 1.0))
        best, surface = grid_search_min_fn(*separable(), grid)
        assert all((c.fn, c.fp) == (0, 0) for c in surface)
        assert (best.c, best.kernel, best.gamma) == (1.0, "rbf", 0.5)

    def test_cell_whose_kernel_overflows_is_recorded_as_failed(self):
        grid = GridSpec(c_values=(1.0,), kernels=("poly", "rbf"), gamma_values=(1e120,))
        best, surface = grid_search_min_fn(*separable(), grid)
        assert best.kernel == "rbf"
        poly, rbf = surface
        assert (poly.fn, poly.fp) == (None, None)
        assert "overflows" in poly.error
        assert rbf.error is None

    def test_default_eval_is_training_data(self):
        samples = separable()
        grid = GridSpec(c_values=(1.0,), kernels=("rbf",), gamma_values=(0.5,))
        _, implicit = grid_search_min_fn(*samples, grid)
        _, explicit = grid_search_min_fn(*samples, grid, eval_data=samples)
        assert [(c.fn, c.fp) for c in implicit] == [(c.fn, c.fp) for c in explicit]


def recording_trainer(log, fail_at=None):
    """train_svm that appends (params, start, model) for each fit it makes;
    a cell with C == fail_at raises a typed error instead."""

    def train(x, y, params, start=None):
        if params.c == fail_at:
            raise SyntheticFailure(f"synthetic failure at C={params.c}")
        model = train_svm(x, y, params, start=start)
        log.append((params, start, model))
        return model

    return train


def same_fit(a, b):
    return (np.array_equal(full_alphas(a), full_alphas(b)) and a.bias == b.bias
            and a.iterations == b.iterations and a.converged == b.converged)


class TestSeededColumns:
    def test_every_cell_scores_as_a_cold_fit_on_bundled_labels(self, labeled):
        x, y = labeled.features, labeled.labels
        best, surface = grid_search_min_fn(x, y, GridSpec())
        assert [cell.params for cell in surface] == GridSpec().cells()
        for cell in surface:
            metrics = evaluate(train_svm(x, y, cell.params).predict(x), y)
            assert (cell.fn, cell.fp, cell.error) == (metrics.fn, metrics.fp, None), cell
            assert cell.converged is True
        assert (best.c, best.kernel, best.gamma) == (1.0, "rbf", 0.5)

    def test_sigmoid_and_first_c_start_cold_the_rest_from_the_previous_c(self, labeled,
                                                                          monkeypatch):
        x, y = labeled.features, labeled.labels
        log = []
        monkeypatch.setattr(gridsearch, "train_svm", recording_trainer(log))
        grid_search_min_fn(x, y, GridSpec())
        fits = {(p.kernel, p.gamma, p.c): (start, model) for p, start, model in log}
        assert len(fits) == len(log) == 45
        seeded = 0
        for (kernel, gamma, c), (start, model) in fits.items():
            if kernel == "sigmoid" or c == 1.0:
                assert start is None
                assert same_fit(model, train_svm(x, y, SvmParams(c=c, kernel=kernel,
                                                                 gamma=gamma)))
            else:
                _, previous = fits[(kernel, gamma, c - 1.0)]
                assert np.array_equal(start, full_alphas(previous))
                seeded += 1
        assert seeded == 20

    def test_unsorted_c_values_give_the_sorted_cells_in_listed_order(self, labeled):
        x, y = labeled.features, labeled.labels
        listed = GridSpec(c_values=(3.0, 0.5, 1.0, 2.0, 8.0), gamma_values=(0.0556, 0.5))
        ascending = dataclasses.replace(listed, c_values=tuple(sorted(listed.c_values)))
        _, in_listed = grid_search_min_fn(x, y, listed)
        _, in_ascending = grid_search_min_fn(x, y, ascending)
        assert [cell.params for cell in in_listed] == listed.cells()
        by_params = {cell.params: cell for cell in in_ascending}
        assert in_listed == [by_params[cell.params] for cell in in_listed]

    def test_failed_cell_seeds_nothing(self, labeled, monkeypatch):
        x, y = labeled.features, labeled.labels
        log = []
        monkeypatch.setattr(gridsearch, "train_svm", recording_trainer(log, fail_at=2.0))
        grid = GridSpec(kernels=("poly",), gamma_values=(0.1,))
        _, surface = grid_search_min_fn(x, y, grid)
        assert [(cell.params.c, cell.error is None) for cell in surface] == [
            (1.0, True), (2.0, False), (3.0, True)]
        assert surface[1].converged is None
        (_, first, _), (params, after_failure, model) = log
        assert first is None and after_failure is None
        assert same_fit(model, train_svm(x, y, params))

    def test_cell_records_whether_its_fit_converged(self, monkeypatch):
        def capped(x, y, params, start=None):
            return train_svm(x, y, dataclasses.replace(params, max_passes=1), start=start)

        monkeypatch.setattr(gridsearch, "train_svm", capped)
        grid = GridSpec(c_values=(1.0, 2.0), kernels=("rbf", "poly"), gamma_values=(0.5,))
        best, surface = grid_search_min_fn(*separable(), grid)
        assert [cell.converged for cell in surface] == [False] * 4
        # with no converged cell, the best unconverged one still wins
        assert best == min(surface, key=lambda cell: (cell.fn, cell.fp)).params

    def test_converged_cell_outranks_an_unconverged_one_with_fewer_false_negatives(
            self, monkeypatch):
        def capped(x, y, params, start=None):
            if params.c == 1.0:
                params = dataclasses.replace(params, max_passes=1)
            return train_svm(x, y, params, start=start)

        monkeypatch.setattr(gridsearch, "train_svm", capped)
        # separable() but for one positive deep among the negatives
        x, y = arrays([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0], [1, -1, -1, -1, 1, 1, 1, 1])
        grid = GridSpec(c_values=(1.0, 2.0), kernels=("rbf",), gamma_values=(0.1,))
        best, surface = grid_search_min_fn(x, y, grid)
        assert [(cell.fn, cell.fp, cell.converged) for cell in surface] == [
            (0, 1, False), (1, 0, True)]
        assert best.c == 2.0


class TestEvaluate:
    def test_arrays_and_lists_give_the_same_int_counts(self):
        predicted, truth = [1, 1, -1, -1, 1], [1.0, -1.0, -1.0, 1.0, 1.0]
        for args in ((predicted, truth), (np.array(predicted), np.array(truth))):
            m = evaluate(*args)
            assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 1)
            assert all(type(v) is int for v in (m.tp, m.fp, m.tn, m.fn))

    def test_length_mismatch_and_empty_input(self):
        with pytest.raises(LengthMismatch, match="2 predictions vs 3 labels"):
            evaluate(np.array([1, -1]), np.array([1, -1, 1]))
        with pytest.raises(LengthMismatch, match="nothing to evaluate"):
            evaluate(np.array([], dtype=int), [])

    @pytest.mark.parametrize("predicted, truth, got", [
        ([1, 0], [1, 1], "(0, 1)"),
        (np.array([1, -1]), np.array([1.0, 2.0]), "(-1, 2.0)"),
    ])
    def test_first_label_that_is_not_plus_or_minus_one(self, predicted, truth, got):
        with pytest.raises(ValueError, match=re.escape(f"labels must be +1 or -1, got {got}")):
            evaluate(predicted, truth)
