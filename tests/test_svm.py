import math

import numpy as np
import pytest

import attackdag.learn.svm as svm_module
from attackdag.learn import (
    DimensionMismatch,
    NonFiniteFeature,
    SingleClassData,
    SvmModel,
    SvmParams,
    fit_svm,
    full_alphas,
    gram_matrix,
    kernel_eval,
    kkt_violation,
    train_svm,
)
from attackdag.model import BranchSample

from oracles import dual_qp_reference, rbf_gram_three_temporaries, reference_decisions


class TestKernels:
    def test_rbf_hand_value(self):
        # squared distance 8, gamma 0.25 -> exp(-2)
        assert kernel_eval("rbf", (1.0, 2.0), (3.0, 4.0), 0.25) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )

    def test_rbf_identical_points(self):
        assert kernel_eval("rbf", (5.0, -3.0), (5.0, -3.0), 7.0) == 1.0

    def test_poly_hand_value(self):
        # (0.5 * 2 + 1)^3 = 8
        assert kernel_eval("poly", (1.0, 0.0), (2.0, 1.0), 0.5) == pytest.approx(8.0)

    def test_sigmoid_hand_values(self):
        assert kernel_eval("sigmoid", (1.0, 1.0), (1.0, -1.0), 0.3) == 0.0
        assert kernel_eval("sigmoid", (1.0, 1.0), (1.0, 1.0), 0.5) == pytest.approx(
            math.tanh(1.0)
        )

    def test_gram_matches_pairwise_eval(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        for kind in ("rbf", "poly", "sigmoid"):
            g = gram_matrix(kind, a, b, 0.37)
            assert g.shape == (5, 4)
            for i in range(5):
                for j in range(4):
                    assert g[i, j] == pytest.approx(
                        kernel_eval(kind, a[i], b[j], 0.37), abs=1e-12
                    )

    def test_rbf_gram_in_place_equals_direct_formula(self):
        rng = np.random.default_rng(3)
        sv = rng.integers(0, 2, size=(300, 20)).astype(float)
        sv[:, 9::10] = rng.normal(scale=3.0, size=(300, 2))
        probes = np.vstack([sv[:50], rng.normal(size=(4097, 20))])
        for gamma in (0.0556, 0.5, 7.0):
            assert np.array_equal(gram_matrix("rbf", probes, sv, gamma),
                                  rbf_gram_three_temporaries(probes, sv, gamma))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_eval("rbf", (1.0, 2.0), (1.0, 2.0, 3.0), 1.0)
        with pytest.raises(DimensionMismatch):
            gram_matrix("rbf", np.zeros((3, 2)), np.zeros((4, 3)), 1.0)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            kernel_eval("linear", (1.0,), (1.0,), 1.0)
        with pytest.raises(ValueError):
            gram_matrix("linear", np.zeros((2, 2)), np.zeros((2, 2)), 1.0)


class TestParams:
    def test_defaults(self):
        p = SvmParams()
        assert (p.c, p.kernel, p.gamma) == (1.0, "rbf", 0.0556)
        assert p.tolerance == 1e-3
        assert p.shrinking is True

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            SvmParams(kernel="linear")

    def test_rejects_nonpositive_c_and_tolerance(self):
        with pytest.raises(ValueError):
            SvmParams(c=0.0)
        with pytest.raises(ValueError):
            SvmParams(c=-1.0)
        with pytest.raises(ValueError):
            SvmParams(tolerance=0.0)


class TestFitValidation:
    def test_single_class_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(SingleClassData):
            fit_svm(x, np.array([1.0, 1.0, 1.0]), SvmParams())

    def test_nan_rejected(self):
        x = np.array([[0.0], [np.nan]])
        with pytest.raises(NonFiniteFeature):
            fit_svm(x, np.array([1.0, -1.0]), SvmParams())

    def test_bad_labels_rejected(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            fit_svm(x, np.array([1.0, 0.0]), SvmParams())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_svm(np.zeros((3, 2)), np.array([1.0, -1.0]), SvmParams())


class TestTwoPointAnalytic:
    """Two opposite-label points: the dual has a closed form.

    With kernel values K11 = K22 = 1, K12 = k, the shared multiplier is
    min(C, 2 / (2 - 2k)) and the bias is zero by symmetry.
    """

    X = np.array([[0.0], [2.0]])
    Y = np.array([1.0, -1.0])

    def test_free_solution(self):
        params = SvmParams(c=2.0, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = fit_svm(self.X, self.Y, params)
        k12 = math.exp(-4.0)
        expected = 2.0 / (2.0 - 2.0 * k12)
        alphas = full_alphas(model)
        assert alphas == pytest.approx([expected, expected], abs=1e-7)
        assert model.bias == pytest.approx(0.0, abs=1e-7)
        assert model.decision_value([0.0]) == pytest.approx(1.0, abs=1e-6)
        assert model.decision_value([2.0]) == pytest.approx(-1.0, abs=1e-6)
        assert model.converged

    def test_clipped_solution(self):
        params = SvmParams(c=0.5, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = fit_svm(self.X, self.Y, params)
        alphas = full_alphas(model)
        assert alphas == pytest.approx([0.5, 0.5], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        # both multipliers at the box bound: margins inside the slab
        k12 = math.exp(-4.0)
        assert model.decision_value([0.0]) == pytest.approx(0.5 * (1 - k12), abs=1e-9)

    def test_midpoint_ties_to_positive(self):
        params = SvmParams(c=2.0, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = fit_svm(self.X, self.Y, params)
        assert abs(model.decision_value([1.0])) < 1e-9
        assert model.predict([1.0]) == 1


def random_problem(rng, size, dim, scale=2.0):
    """Random two-class set with at least one sample per class."""
    x = rng.uniform(-scale, scale, size=(size, dim))
    y = np.where(rng.random(size) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return x, y


class TestOptimizerProperties:
    def test_kkt_and_constraint_on_random_sets(self):
        rng = np.random.default_rng(20260819)
        kernels = ("rbf", "poly", "sigmoid")
        for trial in range(18):
            x, y = random_problem(rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
            params = SvmParams(
                c=float(rng.choice([0.5, 1.0, 2.0])),
                kernel=kernels[trial % 3],
                gamma=float(rng.choice([0.1, 0.5, 1.0])),
                tolerance=1e-6,
            )
            model = fit_svm(x, y, params)
            alphas = full_alphas(model)
            assert np.all(alphas >= 0.0) and np.all(alphas <= params.c + 1e-12)
            assert abs(float(alphas @ y)) <= 1e-6
            assert kkt_violation(model, x, y) <= params.tolerance + 1e-9
            assert model.converged

    def test_matches_reference_qp_solver(self):
        # convex duals only: the sigmoid kernel is not positive semidefinite,
        # so a direct QP solve is not a valid reference for it
        rng = np.random.default_rng(41)
        for trial in range(12):
            x, y = random_problem(rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
            params = SvmParams(
                c=float(rng.choice([0.5, 1.0, 2.0])),
                kernel="rbf" if trial % 2 == 0 else "poly",
                gamma=float(rng.choice([0.1, 0.5])),
                tolerance=1e-6,
            )
            model = fit_svm(x, y, params)
            ref_alphas, ref_bias, ref_obj = dual_qp_reference(x, y, params)

            probes = np.vstack([x, rng.uniform(-2.5, 2.5, size=(5, x.shape[1]))])
            got = model.decision_values(probes)
            want = reference_decisions(x, y, ref_alphas, ref_bias, params, probes)
            assert np.max(np.abs(got - want)) <= 1e-4

            alphas = full_alphas(model)
            q = (y[:, None] * y[None, :]) * gram_matrix(params.kernel, x, x, params.gamma)
            obj = 0.5 * float(alphas @ q @ alphas) - float(alphas.sum())
            assert obj == pytest.approx(ref_obj, abs=1e-6)

    def test_shrinking_reaches_same_fixed_point(self):
        rng = np.random.default_rng(99)
        # overlapping blobs force enough iterations for shrinking to engage
        n = 80
        x = np.vstack([
            rng.normal(loc=0.0, scale=1.0, size=(n // 2, 2)),
            rng.normal(loc=1.0, scale=1.0, size=(n // 2, 2)),
        ])
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        base = dict(c=5.0, kernel="rbf", gamma=0.5, tolerance=1e-6)
        shrunk = fit_svm(x, y, SvmParams(shrinking=True, **base))
        plain = fit_svm(x, y, SvmParams(shrinking=False, **base))
        assert shrunk.converged and plain.converged
        assert max(shrunk.iterations, plain.iterations) >= 100  # shrink path exercised
        probes = np.vstack([x, rng.uniform(-2, 3, size=(10, 2))])
        assert np.max(np.abs(shrunk.decision_values(probes) - plain.decision_values(probes))) <= 1e-5

    def test_deterministic_retrain(self):
        rng = np.random.default_rng(3)
        x, y = random_problem(rng, 8, 3)
        params = SvmParams(tolerance=1e-6)
        a = fit_svm(x, y, params)
        b = fit_svm(x, y, params)
        assert a.sv_indices == b.sv_indices
        assert np.array_equal(a.sv_alphas, b.sv_alphas)
        assert a.bias == b.bias
        assert a.iterations == b.iterations


class TestModelSurface:
    def make_model(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.5, 1.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return fit_svm(x, y, SvmParams(gamma=0.5, tolerance=1e-6)), x

    def test_decision_value_matches_batch(self):
        model, x = self.make_model()
        batch = model.decision_values(x)
        for i in range(len(x)):
            assert model.decision_value(x[i]) == pytest.approx(float(batch[i]), abs=1e-15)

    def test_predict_many_matches_scalar_predict(self):
        model, x = self.make_model()
        many = model.predict_many(x)
        assert [model.predict(row) for row in x] == [int(v) for v in many]

    def test_feature_count_checked(self):
        model, _ = self.make_model()
        with pytest.raises(DimensionMismatch):
            model.decision_value([1.0, 2.0, 3.0])

    def test_zero_decision_predicts_positive(self):
        model = SvmModel(
            params=SvmParams(),
            support_vectors=np.array([[0.0]]),
            dual_coefs=np.array([0.0]),
            bias=0.0,
            sv_indices=(0,),
            sv_alphas=np.array([0.0]),
            sv_labels=np.array([1.0]),
            n_samples=1,
        )
        assert model.decision_value([3.0]) == 0.0
        assert model.predict([3.0]) == 1

    def test_full_alphas_places_zeros_elsewhere(self):
        model, x = self.make_model()
        alphas = full_alphas(model)
        assert len(alphas) == len(x)
        for pos, a in zip(model.sv_indices, model.sv_alphas):
            assert alphas[pos] == a
        assert all(alphas[i] == 0.0 for i in range(len(x)) if i not in model.sv_indices)

    def test_train_svm_accepts_branch_samples(self):
        rng = np.random.default_rng(11)
        feats = rng.uniform(0, 1, size=(6, 20))
        labels = [1, 1, 1, -1, -1, -1]
        samples = [
            BranchSample(origin=i, dest=i + 100, features=tuple(feats[i]), label=labels[i])
            for i in range(6)
        ]
        via_samples = train_svm(samples, SvmParams(tolerance=1e-6))
        direct = fit_svm(feats, np.asarray(labels, dtype=float), SvmParams(tolerance=1e-6))
        assert via_samples.sv_indices == direct.sv_indices
        assert via_samples.bias == direct.bias


class TestBlockedScoring:
    @pytest.mark.parametrize("kernel", ["rbf", "poly", "sigmoid"])
    def test_rows_across_a_block_boundary_match_kernel_eval(self, kernel, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 20))
        y = np.array([1.0, -1.0] * 4)
        model = fit_svm(x, y, SvmParams(kernel=kernel, gamma=0.05))
        rows = rng.normal(size=(svm_module.SCORE_BLOCK_ROWS + 1, 20))
        block_rows = []
        real_gram = svm_module.gram_matrix

        def recording_gram(kind, a, b, gamma):
            block_rows.append(len(a))
            return real_gram(kind, a, b, gamma)

        monkeypatch.setattr(svm_module, "gram_matrix", recording_gram)
        got = model.decision_values(rows)
        assert block_rows == [svm_module.SCORE_BLOCK_ROWS, 1]
        for row, value in zip(rows, got):
            terms = [c * kernel_eval(kernel, sv, row, 0.05)
                     for c, sv in zip(model.dual_coefs, model.support_vectors)]
            scale = sum(abs(t) for t in terms) + abs(model.bias)
            assert abs(value - (sum(terms) + model.bias)) <= 1e-9 * scale
