import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anchorwmd import ot
from anchorwmd.model import DocumentMeasure
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn, sinkhorn_stack, validate_histogram
from conftest import exact_ot_uniform, log_domain_sinkhorn


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

    def test_zero_weight_atoms_rejected(self, rng):
        # a zero-weight atom carries no mass: callers drop it, the solver refuses it
        c = rng.uniform(size=(4, 3))
        positive = np.array([0.4, 0.2, 0.4])
        with pytest.raises(ValueError, match="must be positive"):
            sinkhorn(c, [0.5, 0.0, 0.25, 0.25], positive)
        with pytest.raises(ValueError, match="must be positive"):
            sinkhorn(c, np.full(4, 0.25), [0.4, 0.6, 0.0])
        with pytest.raises(ValueError, match="must be positive"):
            DocumentMeasure(word_ids=[0, 1, 2], support=c[:2], weights=[0.5, 0.5, 0.0])

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


def _random_problem(rng, n, m, d, tiny=None):
    """A random cost and two histograms; with ``tiny``, two source atoms and one
    target atom carry about that share of the mass."""
    cost = ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, m)))
    a = rng.uniform(0.1, 1.0, n)
    b = np.full(m, 1.0)
    a, b = a / a.sum(), b / b.sum()
    if tiny is not None:
        a[[1, n // 2]] = tiny
        b[m - 1] = tiny
        a, b = a / a.sum(), b / b.sum()
    return cost, a, b


def _counting(monkeypatch, name):
    """Replace ``ot.<name>`` by a wrapper that counts its calls."""
    inner = getattr(ot, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ot, name, wrapper)
    return calls


class TestMatchesLogDomainOracle:
    """The scaling iterations reproduce log-domain Sinkhorn step for step."""

    @pytest.mark.parametrize("zero_weights", [False, True], ids=["dense", "zero_weights"])
    @pytest.mark.parametrize(
        "config",
        [
            SinkhornConfig(epsilon=0.1),
            SinkhornConfig(epsilon=0.01),
            SinkhornConfig(epsilon=20.0, relative=False),
        ],
        ids=["rel0.1", "rel0.01", "abs20"],
    )
    @pytest.mark.parametrize("n, m", [(112, 112), (112, 16)], ids=["doc_doc", "doc_anchor"])
    def test_same_iterates(self, rng, n, m, config, zero_weights):
        # the solver rejects zero weights: atoms at 1e-12 and 1e-30 of the mass stand in
        for tiny in (1e-12, 1e-30) if zero_weights else (None,):
            cost, a, b = _random_problem(rng, n, m, 300, tiny)
            res = sinkhorn(cost, a, b, config)
            oracle = log_domain_sinkhorn(cost, a, b, config)
            assert res.iterations_used == oracle.iterations_used
            assert res.converged == oracle.converged
            assert res.epsilon == oracle.epsilon
            assert res.distance == pytest.approx(oracle.distance, rel=1e-9)
            assert res.reg_distance == pytest.approx(oracle.reg_distance, rel=1e-9)
            assert np.abs(res.plan - oracle.plan).max() < 1e-12


class TestHardPaths:
    """Absorption and the log-domain fallback keep the plan finite and feasible."""

    @staticmethod
    def _solve_strictly(cost, a, b, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                return sinkhorn(cost, a, b, config)

    @staticmethod
    def _check_against_oracle(res, cost, a, b, config):
        assert np.all(np.isfinite(res.plan))
        assert np.all(res.plan >= 0)
        assert np.abs(res.plan.sum(axis=1) - a).max() < 1e-12
        assert np.abs(res.plan.sum(axis=0) - b).max() < 1e-12
        oracle = log_domain_sinkhorn(cost, a, b, config)
        assert res.distance == pytest.approx(oracle.distance, rel=1e-5)

    def test_absorption(self, rng, monkeypatch):
        # a sharp kernel in low dimension drives the scalings out of range
        cost, a, b = _random_problem(rng, 20, 16, 3)
        config = SinkhornConfig(epsilon=1e-3, max_iters=1000)
        rebuilds = _counting(monkeypatch, "_absorbed_kernel")
        res = self._solve_strictly(cost, a, b, config)
        assert len(rebuilds) > 1
        self._check_against_oracle(res, cost, a, b, config)

    def test_well_scaled_kernel_stays_in_scaling_domain(self, rng, monkeypatch):
        # at the default relative epsilon a paper-shaped kernel keeps every
        # scaling in range: no log-domain step and no kernel rebuild
        cost, a, b = _random_problem(rng, 112, 16, 300)
        config = SinkhornConfig(epsilon=0.1)
        rebuilds = _counting(monkeypatch, "_absorbed_kernel")
        log_steps = _counting(monkeypatch, "_logsumexp")
        res = self._solve_strictly(cost, a, b, config)
        assert res.converged
        assert len(log_steps) == 0
        assert len(rebuilds) == 0
        self._check_against_oracle(res, cost, a, b, config)

    def test_non_finite_fallback(self, rng, monkeypatch):
        # a subnormal source weight against costs near 1e8 makes K @ v
        # underflow to zero in its row, so u = a / (K @ v) is infinite
        cost, a, b = _random_problem(rng, 8, 6, 3)
        cost *= 1e8 / cost.mean()
        a[0] = 0.0
        a /= a.sum()
        a[0] = 1e-310
        config = SinkhornConfig(epsilon=1e-3, relative=False, max_iters=300)
        log_steps = _counting(monkeypatch, "_logsumexp")
        res = self._solve_strictly(cost, a, b, config)
        assert len(log_steps) > 2
        self._check_against_oracle(res, cost, a, b, config)


def _assert_same_result(stacked, alone):
    # bit-equal values, both with the field types of a solo solve
    for res in (stacked, alone):
        assert (type(res.distance), type(res.reg_distance), type(res.epsilon)) == (float, float, float)
        assert (type(res.iterations_used), type(res.converged), res.plan.ndim) == (int, bool, 2)
    assert stacked.distance == alone.distance
    assert stacked.reg_distance == alone.reg_distance
    assert stacked.epsilon == alone.epsilon
    assert stacked.iterations_used == alone.iterations_used
    assert stacked.converged == alone.converged
    assert np.array_equal(stacked.plan, alone.plan)


class TestSinkhornStack:
    """The stacked core solves every problem as it would be solved alone."""

    CONFIG = SinkhornConfig(epsilon=0.05, max_iters=40)

    @staticmethod
    def _mixed_stack(rng):
        """Four problems sharing a source with two near-zero weights (1e-12, 1e-30).

        Under ``CONFIG`` they converge after different iteration counts (d=300
        and d=30 costs), hit ``max_iters`` (d=3), and need absorption (a row
        a thousand mean costs away) while the others do not.
        """
        n, m = 12, 7
        a = rng.uniform(0.1, 1.0, n)
        a[[3, 8]] = 1e-12 * a.sum(), 1e-30 * a.sum()
        b = np.full(m, 1.0 / m)
        costs = [
            ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, m))) for d in (300, 30, 3, 300)
        ]
        costs[3][0] += 1e3 * costs[3].mean()
        return np.stack(costs), a / a.sum(), b

    def test_each_problem_matches_log_domain_oracle(self, rng):
        costs, a, b = self._mixed_stack(rng)
        stacked = sinkhorn_stack(costs, a, b, self.CONFIG)
        assert len(set(stacked.iterations_used)) == len(costs)
        assert stacked.converged.tolist() == [True, True, False, True]
        assert stacked.iterations_used[2] == self.CONFIG.max_iters
        for k, cost in enumerate(costs):
            res = stacked[k]
            oracle = log_domain_sinkhorn(cost, a, b, self.CONFIG)
            assert res.iterations_used == oracle.iterations_used
            assert res.converged == oracle.converged
            assert res.epsilon == oracle.epsilon
            assert res.distance == pytest.approx(oracle.distance, rel=1e-9)
            assert res.reg_distance == pytest.approx(oracle.reg_distance, rel=1e-9)
            assert res.plan[[3, 8]].sum(axis=1) == pytest.approx(a[[3, 8]], rel=1e-9)

    def test_absorption_stays_with_its_problem(self, rng, monkeypatch):
        costs, a, b = self._mixed_stack(rng)
        rebuilt = []
        inner = ot._absorbed_kernel

        def counting(log_kernel, f, g):
            rebuilt.append(log_kernel.shape[0])
            return inner(log_kernel, f, g)

        monkeypatch.setattr(ot, "_absorbed_kernel", counting)
        for cost in costs[:3]:
            sinkhorn(cost, a, b, self.CONFIG)
        assert rebuilt == []
        sinkhorn(costs[3], a, b, self.CONFIG)
        alone = len(rebuilt)
        assert alone > 0
        stacked = sinkhorn_stack(costs, a, b, self.CONFIG)
        # every rebuild in the stack is the one problem's, as often as alone
        assert rebuilt[alone:] == [1] * alone
        monkeypatch.undo()
        for k, cost in enumerate(costs):
            _assert_same_result(stacked[k], sinkhorn(cost, a, b, self.CONFIG))

    @pytest.mark.parametrize(
        "config", [SinkhornConfig(epsilon=0.1), SinkhornConfig(epsilon=0.01)], ids=["rel0.1", "rel0.01"]
    )
    def test_bit_identical_to_solo_solves(self, rng, config):
        # one document against five 16-point anchors, sliced as anchor_transport
        # does: a strided (Y, n, p) view, each solo solve on a C-order copy
        classes, n, p, d = 5, 112, 16, 300
        weights = rng.uniform(0.1, 1.0, n)
        weights /= weights.sum()
        target = np.full(p, 1.0 / p)
        cost = ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, classes * p)))
        stacked = sinkhorn_stack(cost.reshape(n, classes, p).transpose(1, 0, 2), weights, target, config)
        assert stacked.plan.shape == (classes, n, p)
        for k in range(classes):
            _assert_same_result(stacked[k], sinkhorn(cost[:, k * p : (k + 1) * p].copy(), weights, target, config))

    @given(
        data=st.data(),
        num=st.integers(1, 6),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        relative=st.booleans(),
        epsilon=st.sampled_from([1e-3, 0.05, 1.0, 50.0]),
    )
    def test_property_bit_identical_to_solo_solves(self, data, num, n, m, relative, epsilon):
        weight = st.one_of(st.sampled_from([1e-30, 1e-12]), st.floats(0.05, 1.0))
        a = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(weight, min_size=m, max_size=m)))
        entries = st.floats(1e-3, 1e8)
        # drawn as (n, B, m), so the stack is a strided view, as in anchor_transport
        costs = np.array(data.draw(st.lists(entries, min_size=num * n * m, max_size=num * n * m)))
        costs = costs.reshape(n, num, m).transpose(1, 0, 2)
        config = SinkhornConfig(epsilon=epsilon, relative=relative, max_iters=30)
        stacked = sinkhorn_stack(costs, a / a.sum(), b / b.sum(), config)
        for k, cost in enumerate(costs):
            _assert_same_result(stacked[k], sinkhorn(cost.copy(), a / a.sum(), b / b.sum(), config))

    def test_rejects_malformed_stacks(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="non-empty"):
            sinkhorn_stack(np.zeros((0, 2, 2)), w, w)
        with pytest.raises(ValueError, match="non-empty"):
            sinkhorn_stack(np.zeros((2, 2)), w, w)
        with pytest.raises(ValueError, match="does not match"):
            sinkhorn_stack(np.zeros((3, 2, 3)), w, w)
        with pytest.raises(ValueError, match="NaN"):
            sinkhorn_stack(np.array([np.zeros((2, 2)), np.full((2, 2), np.nan)]), w, w)


def _padded(problems):
    """Problems ``(cost, source)`` of different row counts as one padded stack.

    Returns the (B, n_max, m) costs and the (B, n_max) source rows, zero past
    each problem's rows. Padded cost rows hold large finite values, which the
    solver must not read.
    """
    lengths = np.array([cost.shape[0] for cost, _ in problems])
    n_max, m = lengths.max(), problems[0][0].shape[1]
    costs = np.full((len(problems), n_max, m), 1e6)
    sources = np.zeros((len(problems), n_max))
    for k, (cost, source) in enumerate(problems):
        costs[k, : lengths[k]] = cost
        sources[k, : lengths[k]] = source
    return costs, sources


class TestPaddedStack:
    """A ragged stack, padded to its longest source, solves each problem as alone, to rounding."""

    @staticmethod
    def _ragged_problems(rng, target_size=7):
        """Five problems with 3 to 12 source rows: different dimensions, a near-zero
        source weight, and one row a thousand mean costs away (absorption)."""
        problems = []
        for n, d in ((12, 300), (3, 30), (9, 3), (5, 300), (10, 30)):
            cost = ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, target_size)))
            source = rng.uniform(0.1, 1.0, n)
            problems.append((cost, source / source.sum()))
        cost, source = problems[3]
        cost[0] += 1e3 * cost.mean()
        source = problems[0][1].copy()
        source[4] = 1e-12
        problems[0] = (problems[0][0], source / source.sum())
        return problems

    @staticmethod
    def _assert_close_to_solo(stacked, problems, target, config):
        for k, (cost, source) in enumerate(problems):
            res, alone = stacked[k], sinkhorn(cost, source, target, config)
            n = cost.shape[0]
            assert res.iterations_used == alone.iterations_used
            assert res.converged == alone.converged
            assert res.epsilon == alone.epsilon
            assert res.distance == pytest.approx(alone.distance, rel=1e-12)
            assert res.reg_distance == pytest.approx(alone.reg_distance, rel=1e-12)
            np.testing.assert_allclose(res.plan[:n], alone.plan, rtol=1e-12, atol=1e-12 * alone.plan.max())
            # padded rows carry exactly no mass; the real rows meet both marginals
            assert np.all(res.plan[n:] == 0.0)
            np.testing.assert_allclose(res.plan[:n].sum(axis=1), source, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.plan.sum(axis=0), target, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            SinkhornConfig(epsilon=0.05),
            SinkhornConfig(epsilon=0.01, max_iters=40),
            SinkhornConfig(epsilon=5.0, relative=False),
        ],
        ids=["rel0.05", "rel0.01-max40", "abs5"],
    )
    def test_matches_solo_solves(self, rng, config):
        problems = self._ragged_problems(rng)
        target = np.full(7, 1 / 7)
        costs, sources = _padded(problems)
        stacked = sinkhorn_stack(costs, sources, target, config)
        assert stacked.plan.shape == (5, 12, 7)
        self._assert_close_to_solo(stacked, problems, target, config)
        if config.max_iters == 40:
            # a problem that runs out of iterations keeps its count and flag
            assert not stacked.converged.all()
            assert set(stacked.iterations_used[~stacked.converged]) == {40}

    def test_underflowing_row_takes_the_log_domain_branch(self, rng, monkeypatch):
        # absolute epsilon 1 against a row 1e4 away: that real kernel row is 0
        config = SinkhornConfig(epsilon=1.0, relative=False, max_iters=500, tolerance=1e-9)
        target = np.full(4, 0.25)
        problems = []
        for n in (6, 3, 5):
            cost = rng.uniform(0.0, 3.0, (n, 4))
            source = rng.uniform(0.1, 1.0, n)
            problems.append((cost, source / source.sum()))
        problems[1][0][1] += 1e4
        sides = []
        inner = ot._log_domain_potential

        def recording(log_kernel, other_potential, marginal, side):
            sides.append((side, log_kernel.shape[0]))
            return inner(log_kernel, other_potential, marginal, side)

        monkeypatch.setattr(ot, "_log_domain_potential", recording)
        costs, sources = _padded(problems)
        stacked = sinkhorn_stack(costs, sources, target, config)
        assert (0, 1) in sides
        assert stacked.converged.all()
        monkeypatch.undo()
        self._assert_close_to_solo(stacked, problems, target, config)

    def test_unpadded_rows_equal_a_shared_source(self, rng):
        # one row per problem, all full length: the shared-source stack to the bit
        costs = rng.uniform(0.0, 5.0, (4, 6, 3))
        source = rng.uniform(0.1, 1.0, 6)
        source /= source.sum()
        target = np.full(3, 1 / 3)
        shared = sinkhorn_stack(costs, source, target)
        rows = sinkhorn_stack(costs, np.tile(source, (4, 1)), target)
        for k in range(4):
            _assert_same_result(rows[k], shared[k])

    def test_only_padded_sources_carry_a_mask(self):
        source = np.array([0.5, 0.3, 0.2])
        assert ot._source_rows(source, 2)[1] is None
        assert ot._source_rows(np.tile(source, (2, 1)), 2)[1] is None
        _, real = ot._source_rows(np.array([[0.5, 0.5, 0.0], [0.5, 0.3, 0.2]]), 2)
        assert real.tolist() == [[True, True, False], [True, True, True]]

    def test_rejects_malformed_sources(self):
        costs = np.ones((2, 3, 2))
        target = np.array([0.5, 0.5])
        sinkhorn_stack(costs, np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]), target)
        # a real entry after padding, a row of padding only, a negative entry
        for first_row in ([0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.6, 0.5, -0.1]):
            with pytest.raises(ValueError, match="zero padding"):
                sinkhorn_stack(costs, np.array([first_row, [0.2, 0.3, 0.5]]), target)
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn_stack(costs, np.array([[0.5, 0.5, np.nan], [0.2, 0.3, 0.5]]), target)
        with pytest.raises(ValueError, match="source"):
            sinkhorn_stack(costs, np.array([[0.2, 0.3, 0.5]]), target)
        with pytest.raises(ValueError, match="sums to"):
            sinkhorn_stack(costs, np.array([[0.5, 0.6, 0.0], [0.2, 0.3, 0.5]]), target)


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
