import numpy as np
import pytest

from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn, validate_histogram
from conftest import exact_ot_uniform


class TestValidateHistogram:
    def test_valid(self):
        w = validate_histogram([0.25, 0.75])
        assert w.dtype == float

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            validate_histogram([1.5, -0.5])

    def test_wrong_sum(self):
        with pytest.raises(ValueError):
            validate_histogram([0.5, 0.6])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            validate_histogram([np.inf, 0.0])


class TestGroundCost:
    def test_coincident_points(self):
        c = ground_cost_matrix(np.zeros((2, 1)), np.zeros((2, 1)))
        assert c[0, 0] == 0.0

    def test_three_four_five(self):
        c = ground_cost_matrix(np.array([[0.0], [0.0]]), np.array([[3.0], [4.0]]))
        assert c[0, 0] == pytest.approx(25.0)

    def test_matches_naive_accumulation(self, rng):
        x = rng.standard_normal((300, 4))
        y = rng.standard_normal((300, 3))
        c = ground_cost_matrix(x, y)
        for i in range(4):
            for j in range(3):
                acc = 0.0
                for k in range(300):
                    acc += (x[k, i] - y[k, j]) ** 2
                assert c[i, j] == pytest.approx(acc, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ground_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_non_finite_points(self):
        with pytest.raises(ValueError):
            ground_cost_matrix(np.array([[np.nan], [0.0]]), np.zeros((2, 1)))


class TestExactOtUniform:
    def test_single_atom(self):
        assert exact_ot_uniform([[5.0]]) == pytest.approx(5.0)

    def test_identity_optimal(self):
        assert exact_ot_uniform([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(0.0)

    def test_three_by_three(self):
        # all 6 permutations by hand: the diagonal wins with mean 1
        cost = [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]]
        assert exact_ot_uniform(cost) == pytest.approx(1.0)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            exact_ot_uniform(np.zeros((9, 9)))


class TestSinkhorn:
    def test_zero_cost_gives_zero_distance(self):
        res = sinkhorn(np.zeros((3, 2)), [0.2, 0.3, 0.5], [0.6, 0.4])
        assert res.distance == pytest.approx(0.0, abs=1e-15)

    def test_single_atom_forced_coupling(self):
        res = sinkhorn([[4.25]], [1.0], [1.0])
        assert res.plan == pytest.approx(np.array([[1.0]]))
        assert res.distance == pytest.approx(4.25)
        assert res.converged

    def test_uniform_four_atoms_matches_permutation_oracle(self, rng):
        c = rng.uniform(size=(4, 4))
        w = np.full(4, 0.25)
        cfg = SinkhornConfig(epsilon=0.001, relative=True, max_iters=2000, tolerance=1e-6)
        res = sinkhorn(c, w, w, cfg)
        assert res.distance == pytest.approx(exact_ot_uniform(c), rel=0.02)

    def test_marginals_hold_after_rounding(self, rng):
        c = rng.uniform(size=(5, 3))
        a = validate_histogram(np.array([0.1, 0.3, 0.2, 0.25, 0.15]))
        b = validate_histogram(np.array([0.5, 0.2, 0.3]))
        for max_iters in (1, 3, 200):
            cfg = SinkhornConfig(epsilon=0.05, relative=False, max_iters=max_iters, tolerance=1e-6)
            res = sinkhorn(c, a, b, cfg)
            assert np.abs(res.plan.sum(axis=1) - a).max() < 1e-12
            assert np.abs(res.plan.sum(axis=0) - b).max() < 1e-12
            assert np.all(res.plan >= 0)

    def test_distance_recomputable_from_plan(self, rng):
        c = rng.uniform(size=(4, 6))
        a = np.full(4, 0.25)
        b = np.full(6, 1 / 6)
        res = sinkhorn(c, a, b)
        assert res.distance == pytest.approx(float((res.plan * c).sum()), abs=1e-9)

    def test_transpose_symmetry(self, rng):
        c = rng.uniform(size=(4, 3))
        a = np.array([0.1, 0.2, 0.3, 0.4])
        b = np.array([0.3, 0.3, 0.4])
        cfg = SinkhornConfig(max_iters=5000, tolerance=1e-12)
        forward = sinkhorn(c, a, b, cfg)
        backward = sinkhorn(c.T, b, a, cfg)
        assert forward.distance == pytest.approx(backward.distance, abs=1e-9)

    def test_zero_weight_atoms_stripped(self, rng):
        c = rng.uniform(size=(4, 3))
        a = np.array([0.5, 0.0, 0.25, 0.25])
        b = np.array([0.4, 0.6, 0.0])
        res = sinkhorn(c, a, b)
        assert np.all(res.plan[1, :] == 0.0)
        assert np.all(res.plan[:, 2] == 0.0)
        reduced = sinkhorn(c[np.ix_([0, 2, 3], [0, 1])], a[[0, 2, 3]], b[[0, 1]])
        assert res.distance == pytest.approx(reduced.distance, abs=1e-12)

    def test_nan_cost_rejected(self):
        c = np.array([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(ValueError):
            sinkhorn(c, [0.5, 0.5], [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.3, 0.3, 0.4])

    def test_identity_distance_vanishes(self, rng):
        # transporting a measure onto itself costs nothing
        cfg = SinkhornConfig(epsilon=1e-4, relative=True, max_iters=2000, tolerance=1e-9)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(2, 5))
            points = rng.standard_normal((d, n))
            w = rng.uniform(0.1, 1.0, n)
            w /= w.sum()
            res = sinkhorn(ground_cost_matrix(points, points), w, w, cfg)
            assert res.distance <= 1e-6

    def test_identity_with_duplicate_columns(self):
        points = np.array([[1.0, 1.0, -2.0], [0.5, 0.5, 0.25]])
        w = np.array([0.25, 0.25, 0.5])
        cfg = SinkhornConfig(epsilon=1e-4, relative=True, max_iters=2000, tolerance=1e-9)
        res = sinkhorn(ground_cost_matrix(points, points), w, w, cfg)
        assert res.distance <= 1e-6

    def test_refinement_toward_exact_value(self, rng):
        # |distance(eps) - exact| shrinks down the ladder {1, 0.1, 0.01} * mean
        for _ in range(10):
            n = int(rng.integers(2, 7))
            c = rng.uniform(size=(n, n))
            w = np.full(n, 1.0 / n)
            exact = exact_ot_uniform(c)
            gaps = []
            for scale in (1.0, 0.1, 0.01):
                cfg = SinkhornConfig(
                    epsilon=scale * float(c.mean()), relative=False, max_iters=2000, tolerance=1e-6
                )
                gaps.append(abs(sinkhorn(c, w, w, cfg).distance - exact))
            assert gaps[1] <= gaps[0] + 1e-9
            assert gaps[2] <= gaps[1] + 1e-9


class TestSinkhornConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(max_iters=0)
        with pytest.raises(ValueError):
            SinkhornConfig(tolerance=0.0)

    def test_relative_epsilon_scales_with_cost(self):
        cfg = SinkhornConfig(epsilon=0.1, relative=True)
        assert cfg.effective_epsilon(np.full((2, 2), 3.0)) == pytest.approx(0.3)
        assert cfg.effective_epsilon(np.zeros((2, 2))) == pytest.approx(0.1)

    def test_absolute_epsilon_used_verbatim(self):
        cfg = SinkhornConfig(epsilon=0.7, relative=False)
        assert cfg.effective_epsilon(np.full((2, 2), 3.0)) == pytest.approx(0.7)


class TestCostGradient:
    """The plan is the gradient of the regularized value w.r.t. the cost."""

    def test_single_atom(self):
        res = sinkhorn([[2.0]], [1.0], [1.0])
        assert res.plan == pytest.approx(np.array([[1.0]]))

    def test_entries_sum_to_one(self, rng):
        c = rng.uniform(size=(3, 4))
        res = sinkhorn(c, np.full(3, 1 / 3), np.full(4, 0.25))
        assert res.plan.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_central_differences(self, rng):
        # the envelope identity: grad of the regularized value is the plan
        c = rng.uniform(0.2, 1.0, size=(3, 3))
        a = np.array([0.2, 0.5, 0.3])
        b = np.array([0.4, 0.1, 0.5])
        cfg = SinkhornConfig(
            epsilon=0.1 * float(c.mean()), relative=False, max_iters=20000, tolerance=1e-13
        )
        grad = sinkhorn(c, a, b, cfg).plan
        h = 1e-4
        for i in range(3):
            for j in range(3):
                up = c.copy()
                up[i, j] += h
                down = c.copy()
                down[i, j] -= h
                fd = (sinkhorn(up, a, b, cfg).reg_distance - sinkhorn(down, a, b, cfg).reg_distance) / (2 * h)
                assert fd == pytest.approx(grad[i, j], abs=1e-3)
