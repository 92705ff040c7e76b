import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attackdag.learn.svm as svm_module
from attackdag.learn import (
    DimensionMismatch,
    GridSpec,
    NonFiniteFeature,
    NonFiniteKernel,
    SingleClassData,
    SvmModel,
    SvmParams,
    full_alphas,
    gram_matrix,
    kernel_eval,
    train_svm,
)
from attackdag.learn.svm import decision_labels

from oracles import (
    dual_qp_reference,
    kkt_violation,
    rbf_gram_three_temporaries,
    reference_decisions,
    reference_smo,
)

# A node row as the CLI's features hold it: nine 0/1 bits and a mean depth.
NODE_DEPTHS = st.one_of(
    st.sampled_from((0.0, 1e-160, 2.0 ** -537)),
    st.integers(0, 2_000).map(lambda k: k / 2),
    st.floats(0.0, 1e3),
)
NODE_ROWS = st.lists(
    st.tuples(st.lists(st.sampled_from((0.0, 1.0)), min_size=9, max_size=9), NODE_DEPTHS),
    min_size=1, max_size=12,
)
GAMMAS = st.one_of(st.floats(1e-300, 1e300), st.integers(-300, 300).map(lambda e: 10.0 ** e))
RBF_ROW_COUNTS = (0, 1, svm_module.RBF_CHUNK_ROWS - 1, svm_module.RBF_CHUNK_ROWS,
                  svm_module.RBF_CHUNK_ROWS + 1)


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
        chunk = svm_module.RBF_CHUNK_ROWS
        # Row counts on each side of the chunk boundary; probes start with
        # support vectors, so some distances are exactly zero.
        for rows in (0, 1, chunk - 1, chunk, chunk + 1, 4097):
            probes = np.vstack([sv[:50], rng.normal(size=(4097, 20))])[:rows]
            for gamma in (0.0556, 0.5, 7.0):
                got = gram_matrix("rbf", probes, sv, gamma)
                assert got.shape == (rows, len(sv))
                assert np.array_equal(got, rbf_gram_three_temporaries(probes, sv, gamma))

    @settings(max_examples=300, deadline=None)
    @given(nodes=NODE_ROWS, gamma=GAMMAS, n_sv=st.integers(1, 12),
           rows=st.sampled_from(RBF_ROW_COUNTS), seed=st.integers(0, 2**32 - 1))
    def test_rbf_gram_equals_direct_formula_bit_for_bit(self, nodes, gamma, n_sv, rows, seed):
        # Branch rows as the CLI builds them, an origin node's row then a
        # destination's; a quarter of the probes repeat a support vector,
        # so those distances are exactly zero.
        table = np.array([bits + [depth] for bits, depth in nodes])
        rng = np.random.default_rng(seed)

        def branches(count: int) -> np.ndarray:
            pairs = rng.integers(0, len(table), size=(count, 2))
            return np.hstack([table[pairs[:, 0]], table[pairs[:, 1]]])

        sv = branches(n_sv)
        probes = branches(rows)
        repeat = rng.random(rows) < 0.25
        probes[repeat] = sv[rng.integers(0, n_sv, size=int(repeat.sum()))]
        with np.errstate(over="ignore"):
            got = gram_matrix("rbf", probes, sv, gamma)
            want = rbf_gram_three_temporaries(probes, sv, gamma)
        assert got.shape == want.shape == (rows, n_sv)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("a, b, gamma", [
        # A squared norm of one least subnormal does not halve exactly;
        # halved, this entry would read 1.0.
        ([[2.0 ** -537]], [[0.0]], 8e307),
        # -2 gamma overflows; halved, the zero distance would give NaN.
        ([[1.0, 3.0]], [[1.0, 3.0], [0.0, 0.0]], 1.5e308),
        # |a|^2 + |b|^2 overflows; halved, both entries would be finite.
        ([[1e154, 0.0]], [[1e154, 0.0], [0.0, 1.0]], 0.0556),
    ])
    def test_rbf_gram_outside_halved_domain_equals_direct_formula(self, a, b, gamma):
        a, b = np.array(a), np.array(b)
        with np.errstate(over="ignore", invalid="ignore"):
            got = gram_matrix("rbf", a, b, gamma)
            want = rbf_gram_three_temporaries(a, b, gamma)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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

    @pytest.mark.parametrize("field, value", [
        ("c", math.nan), ("c", math.inf), ("gamma", math.nan), ("gamma", math.inf),
        ("gamma", -math.inf), ("tolerance", math.nan), ("tolerance", math.inf),
        ("max_passes", 0), ("max_passes", -3),
    ])
    def test_rejects_non_finite_values_and_no_passes(self, field, value):
        with pytest.raises(ValueError, match=field):
            SvmParams(**{field: value})


class TestFitValidation:
    def test_single_class_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(SingleClassData):
            train_svm(x, np.array([1.0, 1.0, 1.0]), SvmParams())

    def test_nan_rejected(self):
        x = np.array([[0.0], [np.nan]])
        with pytest.raises(NonFiniteFeature):
            train_svm(x, np.array([1.0, -1.0]), SvmParams())

    def test_kernel_that_overflows_rejected(self):
        # (gamma * x.y + 1) ** 3 is beyond the float range for x.y = 4
        x = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NonFiniteKernel, match="poly kernel with gamma=1e\\+120 overflows"):
            train_svm(x, np.array([1.0, -1.0, 1.0]), SvmParams(kernel="poly", gamma=1e120))

    def test_bad_labels_rejected(self):
        x = np.array([[0.0], [1.0]])
        for label in (0.0, math.nan):
            with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
                train_svm(x, np.array([1.0, label]), SvmParams())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            train_svm(np.zeros((3, 2)), np.array([1.0, -1.0]), SvmParams())

    @pytest.mark.parametrize("start, message", [
        ([0.5, -1e-300, 0.5], r"start multipliers must lie in \[0, 1.0\]"),
        ([0.5, 1.0 + 1e-12, 0.5], r"start multipliers must lie in \[0, 1.0\]"),
        ([0.5, math.nan, 0.5], "start contains NaN or infinity"),
        ([0.5, math.inf, 0.5], "start contains NaN or infinity"),
        ([0.5, 0.5], r"start has shape \(2,\), expected \(3,\)"),
        ([[0.5, 0.5, 0.5]], r"start has shape \(1, 3\), expected \(3,\)"),
    ], ids=["below-0", "above-C", "nan", "inf", "short", "2d"])
    def test_start_outside_the_box_rejected(self, start, message):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=message):
            train_svm(x, np.array([1.0, -1.0, 1.0]), SvmParams(c=1.0), start=np.array(start))


class TestTwoPointAnalytic:
    """Two opposite-label points: the dual has a closed form.

    With kernel values K11 = K22 = 1, K12 = k, the shared multiplier is
    min(C, 2 / (2 - 2k)) and the bias is zero by symmetry.
    """

    X = np.array([[0.0], [2.0]])
    Y = np.array([1.0, -1.0])

    def test_free_solution(self):
        params = SvmParams(c=2.0, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = train_svm(self.X, self.Y, params)
        k12 = math.exp(-4.0)
        expected = 2.0 / (2.0 - 2.0 * k12)
        alphas = full_alphas(model)
        assert alphas == pytest.approx([expected, expected], abs=1e-7)
        assert model.bias == pytest.approx(0.0, abs=1e-7)
        assert model.decision_values(self.X) == pytest.approx([1.0, -1.0], abs=1e-6)
        assert model.converged

    def test_clipped_solution(self):
        params = SvmParams(c=0.5, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = train_svm(self.X, self.Y, params)
        alphas = full_alphas(model)
        assert alphas == pytest.approx([0.5, 0.5], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        # both multipliers at the box bound: margins inside the slab
        k12 = math.exp(-4.0)
        assert model.decision_values([[0.0]])[0] == pytest.approx(0.5 * (1 - k12), abs=1e-9)

    def test_midpoint_ties_to_positive(self):
        params = SvmParams(c=2.0, kernel="rbf", gamma=1.0, tolerance=1e-8)
        model = train_svm(self.X, self.Y, params)
        assert abs(model.decision_values([[1.0]])[0]) < 1e-9
        assert model.predict(np.array([[1.0]])).tolist() == [1]


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
            model = train_svm(x, y, params)
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
            model = train_svm(x, y, params)
            ref_alphas, ref_bias, ref_obj = dual_qp_reference(x, y, params)

            probes = np.vstack([x, rng.uniform(-2.5, 2.5, size=(5, x.shape[1]))])
            got = model.decision_values(probes)
            want = reference_decisions(x, y, ref_alphas, ref_bias, params, probes)
            assert np.max(np.abs(got - want)) <= 1e-4

            alphas = full_alphas(model)
            q = (y[:, None] * y[None, :]) * gram_matrix(params.kernel, x, x, params.gamma)
            obj = 0.5 * float(alphas @ q @ alphas) - float(alphas.sum())
            assert obj == pytest.approx(ref_obj, abs=1e-6)

    def test_seeded_sweep_matches_reference_qp_solver(self):
        # C rises through four values and each fit after the first starts
        # from the previous one's multipliers, as the grid search seeds its
        # rbf and poly columns; every fit must still reach the convex optimum.
        rng = np.random.default_rng(2024)
        for trial in range(6):
            x, y = random_problem(rng, int(rng.integers(6, 12)), int(rng.integers(2, 4)))
            kernel = "rbf" if trial % 2 == 0 else "poly"
            gamma = float(rng.choice([0.1, 0.5]))
            start = None
            for c in (0.25, 0.5, 1.0, 2.0):
                params = SvmParams(c=c, kernel=kernel, gamma=gamma, tolerance=1e-6)
                model = train_svm(x, y, params, start=start)
                assert model.converged
                assert kkt_violation(model, x, y) <= params.tolerance + 1e-9
                alphas = full_alphas(model)
                assert np.all(alphas >= 0.0) and np.all(alphas <= c)
                assert abs(float(alphas @ y)) <= 1e-6

                ref_alphas, ref_bias, ref_obj = dual_qp_reference(x, y, params)
                probes = np.vstack([x, rng.uniform(-2.5, 2.5, size=(5, x.shape[1]))])
                want = reference_decisions(x, y, ref_alphas, ref_bias, params, probes)
                assert np.max(np.abs(model.decision_values(probes) - want)) <= 1e-4
                q = (y[:, None] * y[None, :]) * gram_matrix(kernel, x, x, gamma)
                obj = 0.5 * float(alphas @ q @ alphas) - float(alphas.sum())
                assert obj == pytest.approx(ref_obj, abs=1e-6)
                start = alphas

    @pytest.mark.parametrize("kernel", svm_module.KERNELS)
    def test_stored_shrinking_flag_changes_no_fit(self, kernel):
        # SvmParams.shrinking only rides along in stored model.json files.
        # Overlapping blobs make every kernel's fit run hundreds of steps.
        rng = np.random.default_rng(99)
        n = 80
        x = np.vstack([
            rng.normal(loc=0.0, scale=1.0, size=(n // 2, 2)),
            rng.normal(loc=1.0, scale=1.0, size=(n // 2, 2)),
        ])
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        base = dict(c=5.0, kernel=kernel, gamma=0.5, tolerance=1e-6)
        on = train_svm(x, y, SvmParams(shrinking=True, **base))
        off = train_svm(x, y, SvmParams(shrinking=False, **base))
        assert on.converged and on.iterations >= 500
        assert on.sv_indices == off.sv_indices
        assert np.array_equal(on.sv_alphas, off.sv_alphas)
        assert (on.bias, on.iterations, on.converged) == (off.bias, off.iterations, off.converged)

    def test_deterministic_retrain(self):
        rng = np.random.default_rng(3)
        x, y = random_problem(rng, 8, 3)
        params = SvmParams(tolerance=1e-6)
        a = train_svm(x, y, params)
        b = train_svm(x, y, params)
        assert a.sv_indices == b.sv_indices
        assert np.array_equal(a.sv_alphas, b.sv_alphas)
        assert a.bias == b.bias
        assert a.iterations == b.iterations


def rounded_problem(seed):
    """Integer-rounded features in [-2, 2], so rows repeat and violations tie."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(10, 150)), int(rng.integers(1, 5))
    x = np.round(rng.uniform(-2, 2, size=(n, dim)))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return x, y


def bound_of(alpha, c):
    """"0", "C" or "free", with the trainer's bound tolerance."""
    eps = 1e-12 * max(1.0, c)
    return "0" if alpha <= eps else "C" if alpha >= c - eps else "free"


def assert_same_fit(x, y, params, steps=None, start=None):
    """train_svm against the full-recompute loop in oracles, bit for bit."""
    model = train_svm(x, y, params, start=start)
    alphas, bias, iterations, converged = reference_smo(x, y, params, steps, start)
    assert np.array_equal(full_alphas(model), alphas), params
    assert model.bias == bias, params
    assert model.iterations == iterations, params
    assert model.converged == converged, params
    return model


class TestBitIdentityWithReferenceLoop:
    def test_bundled_grid_cells(self, labeled):
        x, y = labeled.features, labeled.labels
        iterations = [
            assert_same_fit(x, y, params).iterations for params in GridSpec().cells()
        ]
        assert len(iterations) == 45
        assert max(iterations) >= 200  # some cells take hundreds of steps

    def test_bundled_grid_columns_seeded(self, labeled):
        # Every kernel's column, sigmoid's too: the oracle takes any start.
        x, y = labeled.features, labeled.labels
        seeded = []
        for kernel in svm_module.KERNELS:
            for gamma in GridSpec().gamma_values:
                start = None
                for c in (1.0, 2.0, 3.0):
                    params = SvmParams(c=c, kernel=kernel, gamma=gamma)
                    model = assert_same_fit(x, y, params, start=start)
                    if start is not None:
                        seeded.append(model.iterations)
                    start = full_alphas(model)
        assert len(seeded) == 30
        assert max(seeded) >= 200  # seeded fits take hundreds of steps too
        assert 0 in seeded  # a start that already meets the tolerance

    def test_seeded_random_sweeps(self):
        # Rounded features tie violations; C repeats, so some fits start at
        # the bound C itself, and the pass caps stop some fits early.
        rng = np.random.default_rng(20261020)
        fits = []
        for trial in range(30):
            x, y = rounded_problem(int(rng.integers(1 << 30)))
            kernel = svm_module.KERNELS[trial % 3]
            gamma = float(rng.choice([0.05, 0.5, 2.0]))
            tolerance = float(rng.choice([1e-3, 1e-8]))
            max_passes = int(rng.choice([37, 250, 2000]))
            start = None
            for c in sorted(rng.choice([0.01, 0.5, 2.0, 8.0], size=3)):
                params = SvmParams(c=float(c), kernel=kernel, gamma=gamma, tolerance=tolerance,
                                   max_passes=max_passes)
                fits.append(assert_same_fit(x, y, params, start=start))
                start = full_alphas(fits[-1])
        assert sum(m.converged for m in fits) >= 20
        assert sum(not m.converged for m in fits) >= 20
        assert sum(m.iterations > 200 for m in fits) >= 10

    def test_random_problems(self):
        rng = np.random.default_rng(20261018)
        kernels = ("rbf", "poly", "sigmoid")
        for trial in range(24):
            x, y = random_problem(rng, int(rng.integers(4, 60)), int(rng.integers(2, 5)))
            params = SvmParams(
                c=float(rng.choice([0.5, 1.0, 5.0, 20.0])),
                kernel=kernels[trial % 3],
                gamma=float(rng.choice([0.1, 0.5, 2.0])),
                tolerance=float(rng.choice([1e-3, 1e-6])),
            )
            assert_same_fit(x, y, params)

    def test_tiny_c_puts_every_multiplier_at_the_bound(self):
        rng = np.random.default_rng(5)
        x, y = random_problem(rng, 40, 3)
        params = SvmParams(c=1e-4, gamma=0.5)
        alphas = full_alphas(assert_same_fit(x, y, params))
        assert np.all((alphas == 0.0) | (alphas == params.c))

    def test_duplicate_rows_tie_in_violation(self):
        rng = np.random.default_rng(8)
        base, labels = random_problem(rng, 12, 2)
        x = np.vstack([base, base, base[:6]])
        y = np.concatenate([labels, labels, labels[:6]])
        for c in (0.5, 10.0):
            assert_same_fit(x, y, SvmParams(c=c, gamma=1.0, tolerance=1e-6))

    @pytest.mark.parametrize("c, bound", [(1.0, "C"), (10.0, "0")])
    def test_multiplier_leaves_its_bound_and_returns(self, c, bound):
        # A penalty entry is written only when its index's flag flips, so a
        # multiplier that leaves a bound and comes back to it needs the write
        # in both directions.
        x, y = random_problem(np.random.default_rng(14), 16, 2)
        steps = []
        assert_same_fit(x, y, SvmParams(c=c, gamma=0.5), steps)
        visits = {}
        for i, j, ai, aj in steps:
            for t, a in ((i, ai), (j, aj)):
                path, where = visits.setdefault(t, ["0"]), bound_of(a, c)
                if path[-1] != where:
                    path.append(where)
        assert any(path[k:k + 3] == [bound, "free", bound]
                   for path in visits.values() for k in range(len(path)))

    def test_reference_steps_replay_to_its_multipliers(self):
        # One record per iteration: a pair of two indices and their new
        # multipliers, which replayed from zeros give the fitted ones.
        x, y = rounded_problem(3000885)
        params = SvmParams(c=0.1, kernel="poly", gamma=0.5, tolerance=1e-8, max_passes=3000)
        steps = []
        model = assert_same_fit(x, y, params, steps)
        assert len(steps) == model.iterations >= 100
        alphas = np.zeros(len(y))
        for i, j, ai, aj in steps:
            assert i != j
            alphas[i], alphas[j] = ai, aj
        alphas = np.clip(alphas, 0.0, params.c)
        alphas[alphas <= 1e-12 * max(1.0, params.c)] = 0.0
        assert np.array_equal(full_alphas(model), alphas)

    @pytest.mark.parametrize("seed, kernel, c", [
        (3000005, "rbf", 1.0), (3000002, "poly", 0.1), (3000037, "sigmoid", 0.1)])
    def test_multiplier_drops_from_c_to_zero_in_one_step(self, seed, kernel, c):
        # Both of the index's flags flip in that step, so the i/j refresh
        # writes both of its penalty entries.
        x, y = rounded_problem(seed)
        steps = []
        model = assert_same_fit(x, y, SvmParams(c=c, kernel=kernel, gamma=0.5, tolerance=1e-8,
                                                max_passes=3000), steps)
        assert model.converged and model.iterations >= 100
        last, drops = {}, 0
        for i, j, ai, aj in steps:
            for t, a in ((i, ai), (j, aj)):
                drops += bound_of(last.get(t, 0.0), c) == "C" and bound_of(a, c) == "0"
                last[t] = a
        assert drops >= 1

    def test_seeded_sweep_with_tied_violations(self):
        # Integer-rounded features repeat rows, so violation values tie and
        # the lowest-index rule decides; C spans 1e-4 to 20 and the pass caps
        # stop some fits early.
        rng = np.random.default_rng(20261019)
        fits = []
        for trial in range(100):
            n, dim = int(rng.integers(4, 151)), int(rng.integers(1, 5))
            x = np.round(rng.uniform(-2, 2, size=(n, dim)))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            params = SvmParams(
                c=float(rng.choice([1e-4, 0.01, 0.5, 2.0, 8.0, 20.0])),
                kernel=svm_module.KERNELS[trial % 3],
                gamma=float(rng.choice([0.05, 0.5, 2.0])),
                tolerance=float(rng.choice([1e-3, 1e-8])),
                max_passes=int(rng.choice([1, 37, 100, 250, 450, 2000])),
            )
            fits.append(assert_same_fit(x, y, params))
        assert sum(m.converged for m in fits) >= 20
        assert sum(not m.converged for m in fits) >= 20
        assert sum(m.iterations > 200 for m in fits) >= 10

    def test_max_passes_cutoff(self):
        rng = np.random.default_rng(13)
        x, y = random_problem(rng, 50, 2)
        for max_passes in (1, 7, 150):
            model = assert_same_fit(x, y, SvmParams(c=100.0, gamma=2.0, tolerance=1e-9,
                                                    max_passes=max_passes))
            assert model.iterations == max_passes
            assert not model.converged


class TestModelSurface:
    def make_model(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.5, 1.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return train_svm(x, y, SvmParams(gamma=0.5, tolerance=1e-6)), x

    def test_decision_value_matches_batch(self):
        model, x = self.make_model()
        batch = model.decision_values(x)
        for i in range(len(x)):
            assert model.decision_values(x[i:i + 1])[0] == pytest.approx(batch[i], abs=1e-15)

    def test_predict_labels_the_decision_values(self):
        model, x = self.make_model()
        labels = model.predict(x)
        assert labels.shape == (len(x),)
        assert labels.tolist() == decision_labels(model.decision_values(x)).tolist()

    def test_decision_labels_send_zero_to_positive(self):
        decisions = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0])
        assert decision_labels(decisions).tolist() == [-1, -1, 1, 1, 1, 1]

    def test_feature_count_checked(self):
        model, _ = self.make_model()
        with pytest.raises(DimensionMismatch):
            model.predict(np.array([[1.0, 2.0, 3.0]]))

    def test_zero_decision_predicts_positive(self):
        model = SvmModel(
            params=SvmParams(),
            support_vectors=np.array([[0.0]]),
            bias=0.0,
            sv_indices=(0,),
            sv_alphas=np.array([0.0]),
            sv_labels=np.array([1.0]),
            n_samples=1,
            converged=True,
        )
        assert model.decision_values([[3.0]]).tolist() == [0.0]
        assert model.predict(np.array([[3.0]])).tolist() == [1]

    def test_full_alphas_places_zeros_elsewhere(self):
        model, x = self.make_model()
        alphas = full_alphas(model)
        assert len(alphas) == len(x)
        for pos, a in zip(model.sv_indices, model.sv_alphas):
            assert alphas[pos] == a
        assert all(alphas[i] == 0.0 for i in range(len(x)) if i not in model.sv_indices)


class TestBlockedScoring:
    @pytest.mark.parametrize("kernel", ["rbf", "poly", "sigmoid"])
    def test_rows_across_a_block_boundary_match_kernel_eval(self, kernel, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 20))
        y = np.array([1.0, -1.0] * 4)
        model = train_svm(x, y, SvmParams(kernel=kernel, gamma=0.05))
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
