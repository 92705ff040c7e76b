import functools
import inspect
import math
import sys
import time

import numpy as np
import pytest

from attackdag.learn import (
    DimensionMismatch,
    EmptyData,
    NonFiniteFeature,
    SvmParams,
    knn_predict,
    train_gnb,
    train_sgd_svm,
    train_svm,
    train_tree,
)
import attackdag.learn.baselines as baselines
from attackdag.learn.baselines import SGD_C, SGD_EPOCHS, SGD_SEED, VAR_FLOOR

from oracles import (
    exhaustive_tree,
    gnb_log_posterior,
    hinge_objective,
    knn_scan,
    reference_sgd,
    tree_by_masks,
    tree_predict,
)

N_FEATURES = 20


def pad(vec):
    return tuple(float(v) for v in vec) + (0.0,) * (N_FEATURES - len(vec))


def arrays(*rows):
    """(x, y) of (short vector, label) rows, each vector zero-padded to 20 features."""
    return np.array([pad(v) for v, _ in rows]).reshape(-1, N_FEATURES), np.array([l for _, l in rows])


def tree_depth(tree) -> int:
    """The number of splits on the longest root-to-leaf path of a ``TreeModel``."""
    depth = [0] * len(tree.feature)
    for t in np.flatnonzero(tree.feature >= 0):  # in pre-order a node precedes its children
        depth[t + 1] = depth[tree.right[t]] = depth[t] + 1
    return max(depth)


def random_samples(rng, n):
    x = rng.uniform(0, 4, size=(n, N_FEATURES))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return x, y


class TestKnn:
    def test_matches_scan_oracle_on_100_queries(self):
        rng = np.random.default_rng(20260819)
        x, y = random_samples(rng, 40)
        for _ in range(100):
            probe = rng.uniform(0, 4, size=N_FEATURES)
            k = int(rng.integers(1, 8))
            assert knn_predict(x, y, probe, k) == knn_scan(x, y, probe, k)

    def test_distance_tie_prefers_lower_index(self):
        # probe equidistant from samples 0 (+1) and 1 (-1); k=1 must pick 0
        x, y = arrays(([0.0], 1), ([2.0], -1), ([9.0], -1))
        assert knn_predict(x, y, pad([1.0]), 1) == 1
        # same geometry with labels swapped picks the new index-0 label
        assert knn_predict(x, -y, pad([1.0]), 1) == -1

    def test_tie_on_rounded_distance_prefers_lower_index(self):
        # Squared distances 1 + 2**-52 and 1 both round to the distance 1.0,
        # so the lower index wins even though its squared distance is larger.
        x, y = arrays(([1.0, 2.0 ** -26], 1), ([1.0], -1))
        probe = pad([])
        assert np.sum((x[0] - probe) ** 2) > np.sum((x[1] - probe) ** 2)
        assert knn_predict(x, y, probe, 1) == 1
        assert knn_scan(x, y, probe, 1) == 1

    def test_vote_tie_resolves_to_infeasible(self):
        x, y = arrays(([0.0], 1), ([2.0], -1))
        assert knn_predict(x, y, pad([1.0]), 2) == -1

    def test_k_bounds(self):
        x, y = arrays(([0.0], 1), ([1.0], -1))
        with pytest.raises(ValueError):
            knn_predict(x, y, pad([0.5]), 0)
        with pytest.raises(ValueError):
            knn_predict(x, y, pad([0.5]), 3)

    def test_rejects_unlabeled_and_empty(self):
        with pytest.raises(EmptyData):
            knn_predict(*arrays(), pad([0.0]), 1)
        x, y = arrays(([0.0], 1), ([1.0], 0))
        with pytest.raises(ValueError):
            knn_predict(x, y, pad([0.5]), 1)

    def test_rejects_nonfinite_features(self):
        x, y = arrays(([float("nan")], 1), ([1.0], -1))
        with pytest.raises(NonFiniteFeature):
            knn_predict(x, y, pad([0.0]), 1)


class TestGaussianNb:
    def test_log_posteriors_match_hand_computation(self):
        rng = np.random.default_rng(5)
        x, y = random_samples(rng, 30)
        model = train_gnb(x, y)
        probes = rng.uniform(0, 4, size=(20, N_FEATURES))
        for label in (1, -1):
            want = [gnb_log_posterior(x, y, probe, label, VAR_FLOOR) for probe in probes]
            assert model.log_posterior(probes, label) == pytest.approx(want, abs=1e-9)

    def test_variance_floor_on_constant_feature(self):
        # every feature constant per class: variances must floor, not divide by zero
        model = train_gnb(*arrays(([1.0], 1), ([1.0], 1), ([3.0], -1), ([3.0], -1)))
        assert np.all(model.variances[1] == VAR_FLOOR)
        assert math.isfinite(model.log_posterior(np.array([pad([2.0])]), 1)[0])
        assert model.predict(np.array([pad([1.0]), pad([3.0])])).tolist() == [1, -1]

    def test_posterior_tie_resolves_to_infeasible(self):
        # symmetric classes around the probe: equal priors, equal likelihoods
        model = train_gnb(*arrays(([0.0], 1), ([2.0], -1)))
        probe = np.array([pad([1.0])])
        assert model.log_posterior(probe, 1) == pytest.approx(
            model.log_posterior(probe, -1), abs=1e-12
        )
        assert model.predict(probe).tolist() == [-1]

    def test_priors_reflect_class_balance(self):
        model = train_gnb(*arrays(([0.0], 1), ([0.1], 1), ([0.2], 1), ([5.0], -1)))
        assert model.log_priors[1] == pytest.approx(math.log(0.75))
        assert model.log_priors[-1] == pytest.approx(math.log(0.25))

    def test_single_class_rejected(self):
        with pytest.raises(EmptyData):
            train_gnb(*arrays(([0.0], 1), ([1.0], 1)))


class TestDecisionTree:
    def test_matches_exhaustive_search_on_small_sets(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(1, 4))
            x = np.round(rng.uniform(0, 3, size=(n, dim)), 1)
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            padded = np.hstack([x, np.zeros((n, N_FEATURES - dim))])
            got = train_tree(padded, y)
            want = exhaustive_tree(padded, y)
            probes = np.array([pad(rng.uniform(-0.5, 3.5, size=dim)) for _ in range(30)])
            for rows in (padded, probes):
                assert got.predict(rows).tolist() == [tree_predict(want, row) for row in rows]

    def test_matches_mask_search_bit_for_bit(self):
        # Continuous, tied and extreme columns: adjacent floats whose midpoint
        # rounds up to the upper value, subnormals, signed zeros, and values
        # whose sum overflows.
        rng = np.random.default_rng(29)
        one_up = np.nextafter(1.0, 2.0)
        extremes = [1.0, one_up, np.nextafter(one_up, 2.0), 5e-324, 1e-323, 0.0, -0.0,
                    1e308, 1.7e308, -1e308, -1.7e308]
        for trial in range(150):
            n, dim = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            x = (rng.normal(size=(n, dim)), rng.integers(0, 3, size=(n, dim)).astype(float),
                 rng.choice(extremes, size=(n, dim)))[trial % 3]
            y = np.where(rng.random(n) < 0.5, 1, -1)
            with np.errstate(over="ignore"):
                want = [(f, thr.hex(), label) for f, thr, label in tree_by_masks(x, y)]
            tree = train_tree(x, y)
            got = list(zip(tree.feature.tolist(), map(float.hex, tree.threshold.tolist()),
                           tree.label.tolist()))
            assert got == want, trial

    def test_level_scoring_matches_a_row_walk_at_ties_and_specials(self):
        # Probes sit exactly on thresholds, on training values and at NaN, +-inf
        # and -0.0: a tie goes left, NaN and +inf right, as the oracle's walk goes.
        rng = np.random.default_rng(43)
        specials = [np.nan, np.inf, -np.inf, -0.0]
        for trial in range(40):
            n, dim = int(rng.integers(3, 14)), int(rng.integers(1, 4))
            x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.5], size=(n, dim))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            tree = train_tree(x, y)
            splits = np.flatnonzero(tree.feature >= 0)
            assert all(t + 1 < tree.right[t] < len(tree.feature) for t in splits), trial
            leaves = tree.feature == -1
            assert set(tree.label[leaves].tolist()) <= {1, -1}
            assert (tree.right[leaves] == -1).all() and len(splits) + 1 == leaves.sum()
            pool = np.concatenate([x.ravel(), tree.threshold[splits], specials])
            on_thresholds = x[rng.integers(0, n, size=len(splits))].copy()
            on_thresholds[np.arange(len(splits)), tree.feature[splits]] = tree.threshold[splits]
            probes = np.vstack([x, on_thresholds, rng.choice(pool, size=(60, dim))])
            want = exhaustive_tree(x, y)
            assert tree.predict(probes).tolist() == [tree_predict(want, row) for row in probes]

    def test_alternating_rows_train_fast(self):
        # Every node of this chain splits on one of twenty columns; scoring each
        # threshold with full masks took over 20 s.
        x = np.zeros((1100, N_FEATURES))
        x[:, 3] = np.arange(1100.0)
        y = np.where(np.arange(1100) % 2, -1, 1)
        start = time.perf_counter()
        tree = train_tree(x, y)
        assert time.perf_counter() - start < 5.0
        assert tree_depth(tree) == 1099
        assert tree.predict(x).tolist() == y.tolist()

    def test_pure_set_is_single_leaf(self):
        # purity check happens before class validation elsewhere; tree only
        # needs labels, so a one-class set is legal here
        tree = train_tree(*arrays(([0.0], 1), ([5.0], 1)))
        assert tree.feature.tolist() == [-1]
        assert tree.label.tolist() == [1]

    def test_unsplittable_set_majority_to_infeasible(self):
        # identical feature vectors with opposing labels: no split candidates,
        # 1 vs 1 majority tie falls to -1
        tree = train_tree(*arrays(([1.0], 1), ([1.0], -1)))
        assert tree.feature.tolist() == [-1]
        assert tree.label.tolist() == [-1]

    def test_separable_line_produces_midpoint_split(self):
        tree = train_tree(*arrays(([0.0], -1), ([1.0], -1), ([3.0], 1), ([4.0], 1)))
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert tree.threshold[0] == pytest.approx(2.0)
        assert tree.label.tolist() == [0, -1, 1]
        assert tree.predict(np.array([pad([1.9]), pad([2.1])])).tolist() == [-1, 1]

    def test_chain_deeper_than_the_recursion_limit(self):
        # labels alternating along one feature: each split peels off one end row,
        # so the tree is a chain of depth n - 1
        x = np.arange(200.0)[:, None]
        y = np.where(np.arange(200) % 2, -1, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            tree = train_tree(x, y)
            depth = tree_depth(tree)
            labels = tree.predict(x)
        finally:
            sys.setrecursionlimit(limit)
        assert depth == 199
        assert labels.tolist() == y.tolist()

    def test_equal_gain_prefers_lowest_feature(self):
        # two features carry identical separations; the split must use feature 0
        tree = train_tree(*arrays(
            ([0.0, 0.0], -1),
            ([0.0, 0.0], -1),
            ([2.0, 2.0], 1),
            ([2.0, 2.0], 1),
        ))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.0)


class TestSgdSvm:
    def separable_samples(self):
        xs = [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]
        return arrays(*(([v], 1 if v > 0 else -1) for v in xs))

    def test_perfect_accuracy_on_separable_line(self):
        x, y = self.separable_samples()
        model = train_sgd_svm(x, y)
        assert model.predict(x).tolist() == y.tolist()

    def test_bit_reproducible_under_fixed_seed(self, monkeypatch):
        monkeypatch.setattr(baselines, "SGD_EPOCHS", 15)
        monkeypatch.setattr(baselines, "SGD_SEED", 42)
        x, y = self.separable_samples()
        a = train_sgd_svm(x, y)
        b = train_sgd_svm(x, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_objective_near_coarse_grid_optimum(self, monkeypatch):
        # 1-D problem: sweep (w, b) on a fine grid and require the trained
        # objective within 5% of the best grid cell
        monkeypatch.setattr(baselines, "SGD_EPOCHS", 200)
        x, y = self.separable_samples()
        model = train_sgd_svm(x, y)
        trained = hinge_objective(model.weights, model.bias, x, y, c=SGD_C)
        best = min(
            hinge_objective(np.asarray([w] + [0.0] * (N_FEATURES - 1)), b, x, y, c=SGD_C)
            for w in np.linspace(0.0, 3.0, 121)
            for b in np.linspace(-1.5, 1.5, 61)
        )
        assert trained <= best * 1.05 + 1e-9

    def test_objective_beats_zero_model(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = random_samples(rng, 30)
        at_zero = hinge_objective(np.zeros(N_FEATURES), 0.0, x, y, c=SGD_C)
        for seed in (0, 1):  # the shipped seed, and another
            monkeypatch.setattr(baselines, "SGD_SEED", seed)
            model = train_sgd_svm(x, y)
            assert hinge_objective(model.weights, model.bias, x, y, c=SGD_C) < at_zero, seed

    def test_empty_rejected(self):
        with pytest.raises(EmptyData):
            train_sgd_svm(*arrays())

    def test_matches_allocating_reference_bit_for_bit(self, labeled):
        # The bundled rows; uniform rows; rows repeated many times over; and
        # repeated rows under both labels, where no step can clear the margin
        # for both copies, so every epoch keeps updating.
        rng = np.random.default_rng(53)
        problems = [(labeled.features, labeled.labels)]
        for trial in range(12):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 25))
            x = rng.normal(scale=(0.01, 1.0, 50.0)[trial % 3], size=(n, d))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            problems.append((x, y))
            repeated = x[rng.integers(0, min(n, 3), size=n)]
            problems.append((repeated, y))
            problems.append((np.vstack([repeated, repeated]), np.concatenate([y, -y])))
        for case, (x, y) in enumerate(problems):
            model = train_sgd_svm(x, y)
            weights, bias = reference_sgd(x, y, SGD_EPOCHS, SGD_C, SGD_SEED)
            assert model.weights.tobytes() == weights.tobytes(), case
            assert float(model.bias).hex() == bias.hex(), case


@pytest.mark.parametrize("train", [functools.partial(train_svm, params=SvmParams()), train_gnb,
                                   train_tree, train_sgd_svm],
                         ids=["svm", "gaussian nb", "decision tree", "sgd linear svm"])
def test_predict_returns_one_label_of_plus_or_minus_one_per_row(train):
    x, y = random_samples(np.random.default_rng(47), 30)
    model = train(x, y)
    probes = np.vstack([x, np.random.default_rng(48).uniform(-2, 6, size=(10, N_FEATURES))])
    for m in (0, 1, len(probes)):
        got = model.predict(probes[:m])
        assert got.shape == (m,)
        assert np.issubdtype(got.dtype, np.integer)
        assert set(got.tolist()) <= {1, -1}


@pytest.mark.parametrize("predict", [
    lambda x, y, rows: [knn_predict(x, y, row, 3) for row in rows],
    lambda x, y, rows: train_gnb(x, y).predict(rows),
    lambda x, y, rows: train_tree(x, y).predict(rows),
    lambda x, y, rows: train_sgd_svm(x, y).predict(rows),
    lambda x, y, rows: train_svm(x, y, SvmParams()).predict(rows),
], ids=["knn", "gaussian nb", "decision tree", "sgd linear svm", "svm"])
def test_predict_rejects_rows_of_another_width(predict):
    # The labels follow feature 0 alone, so the tree splits on it alone and
    # could answer for any width that keeps feature 0.
    x = np.random.default_rng(59).uniform(0, 4, size=(30, N_FEATURES))
    y = np.where(x[:, 0] > 2.0, 1, -1)
    for rows in (x[:, :3], x[:, :1], np.hstack([x, x[:, :1]])):
        with pytest.raises(DimensionMismatch):
            predict(x, y, rows)
