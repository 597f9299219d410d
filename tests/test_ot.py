import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorwmd import ot
from anchorwmd.model import DocumentMeasure
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn, sinkhorn_stack, validate_histogram
from conftest import (
    LogDomainResult,
    eager_reg_distance,
    exact_ot_uniform,
    log_domain_sinkhorn,
    reference_ground_cost_matrix,
    reference_scaling_iterations,
    reference_sinkhorn_stack,
)


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

    def test_given_target_norms_give_the_same_bits(self, rng):
        x, y = rng.standard_normal((30, 7)), rng.standard_normal((30, 5))
        assert np.array_equal(ground_cost_matrix(x, y, ot._squared_norms(y)), ground_cost_matrix(x, y))
        with pytest.raises(ValueError, match="target norms"):
            ground_cost_matrix(x, y, np.ones(4))
        # the points are checked whether or not their norms are given
        with pytest.raises(ValueError, match="must be finite"):
            ground_cost_matrix(x, np.full((30, 5), np.inf), np.ones(5))

    @pytest.mark.thorough
    def test_property_bit_equal_to_three_temporaries(self):
        # every entry, inf and NaN included once the norms overflow (from
        # 1e155), as the expression with three full-size temporaries gives it;
        # with same, one array on both sides, as the projection passes it
        reached = set()

        @given(
            seed=st.integers(0, 2**32 - 1),
            d=st.sampled_from([1, 2, 3, 30, 300]),
            n=st.integers(1, 20),
            m=st.integers(1, 20),
            fortran=st.tuples(st.booleans(), st.booleans()),
            scale=st.tuples(*[st.sampled_from([1e-150, 1.0, 1e100, 1e150, 1e155])] * 2),
            same=st.booleans(),
            given_norms=st.booleans(),
        )
        def bit_equal(seed, d, n, m, fortran, scale, same, given_norms):
            rng = np.random.default_rng(seed)

            def points(size, layout, magnitude):
                values = magnitude * rng.standard_normal((size, d)).T
                return values if layout else np.ascontiguousarray(values)

            x = points(n, fortran[0], scale[0])
            y = x if same else points(m, fortran[1], scale[1])
            with np.errstate(over="ignore"):
                norms = ot._squared_norms(y) if given_norms else None
            reference = reference_ground_cost_matrix(x, y)
            assert np.array_equal(ground_cost_matrix(x, y, norms), reference, equal_nan=True)
            reached.update(("inf" if np.isinf(reference).any() else None, "nan" if np.isnan(reference).any() else None))

        bit_equal()
        assert {"inf", "nan"} <= reached

    def test_norms_that_overflow_pass_to_the_solver(self):
        # finite coordinates whose squared distances overflow are not an error
        # of the points: the solver reports the cost
        x, y = np.full((3, 2), 1e200), np.full((3, 4), -1e200)
        for norms in (None, ot._squared_norms(y)):
            with np.errstate(over="ignore"):
                cost = ground_cost_matrix(x, y, norms)
            assert np.isinf(cost).all()
            with pytest.raises(ValueError, match="cost entries must be finite"):
                sinkhorn(cost, np.full(2, 0.5), np.full(4, 0.25))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("norms", ["none", "own", "ones"])
    def test_non_finite_coordinates_are_named(self, rng, value, side, norms):
        # at any of several points, with zero or random coordinates elsewhere,
        # and with no target norms, the targets' own, or ones that hide a
        # non-finite target
        for zeros in (False, True):
            for point in range(4):
                x, y = rng.standard_normal((30, 3)), rng.standard_normal((30, 4))
                if zeros:
                    x[:] = 0.0
                    y[:] = 0.0
                (x if side == "source" else y)[point % 7, point % (3 if side == "source" else 4)] = value
                with np.errstate(over="ignore", invalid="ignore"):
                    given = {"none": None, "own": ot._squared_norms(y), "ones": np.ones(4)}[norms]
                with pytest.raises(ValueError, match="point coordinates must be finite"):
                    ground_cost_matrix(x, y, given)

    def test_round_to_marginals_scales_in_place(self, rng):
        plan = rng.uniform(0.1, 1.0, (2, 4, 3))
        a, b = np.full((2, 4), 0.25), np.full((1, 3), 1 / 3)
        assert ot._round_to_marginals(plan, a, b) is plan
        assert plan.sum(axis=2) == pytest.approx(a)


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


def _loop_inputs(costs, source, target, config):
    """The log-kernel, source rows, target row and padding mask that ``sinkhorn_stack`` iterates on."""
    cost = np.ascontiguousarray(costs, dtype=float)
    a, real = ot._source_rows(source, cost.shape[0])
    log_kernel = cost / -ot._stack_epsilon(config, cost, real)[:, None, None]
    if real is not None:
        log_kernel[~real] = -np.inf
    return log_kernel, a, validate_histogram(target)[None], real


def _run_loop(loop, inputs, config):
    log_kernel, a, b, real = inputs
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return loop(log_kernel.copy(), a.copy(), b.copy(), config, None if real is None else real.copy())


def _repair_iterations(monkeypatch, inputs, config, name, until):
    """The iterations up to ``until`` at which the reference loop calls ``ot.<name>``."""
    calls = _counting(monkeypatch, name)
    found, previous = [], 0
    for limit in range(1, until + 1):
        before = len(calls)
        limited = SinkhornConfig(config.epsilon, config.relative, limit, config.tolerance)
        _, iterations, _ = _run_loop(reference_scaling_iterations, inputs, limited)
        if len(calls) - before > previous:
            found.append(limit)
        previous = len(calls) - before
        if iterations.max() < limit:
            break
    monkeypatch.undo()
    return found


# the stacks the block-loop properties draw: ragged or not, sharp or flat
# kernels, an outlier row and a subnormal source weight that force absorption
# or log-domain steps
_LOOP_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    num=st.integers(1, 4),
    n=st.integers(1, 40),
    m=st.integers(1, 12),
    d=st.sampled_from([2, 3, 30, 300]),
    padded=st.booleans(),
    outlier=st.booleans(),
    subnormal=st.booleans(),
    epsilon=st.sampled_from([(0.1, True), (0.01, True), (0.001, True), (20.0, False)]),
    max_iters=st.integers(1, 300),
    tolerance=st.sampled_from([1e-4, 1e-6, 1e-9]),
)


def _loop_case(seed, num, n, m, d, padded, outlier, subnormal, epsilon, max_iters, tolerance):
    """The block-loop inputs and config of one ``_LOOP_CASES`` draw."""
    rng = np.random.default_rng(seed)
    costs = np.stack([ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, m))) for _ in range(num)])
    if outlier:
        # a row a thousand mean costs away: absorption, or a log-domain step
        costs[0, 0] += 1e3 * costs[0].mean()
    if padded:
        source = np.zeros((num, n))
        for k, length in enumerate(rng.integers(1, n + 1, num)):
            source[k, :length] = rng.uniform(0.1, 1.0, length)
        source /= source.sum(axis=1, keepdims=True)
    else:
        source = rng.uniform(0.1, 1.0, n)
        source /= source.sum()
    rows = np.atleast_2d(source)  # a view: one row per problem, or the shared one
    heavy = rows[:, 1:].sum(axis=1) > 0  # rows with a second real entry
    if subnormal and heavy.any():
        # a first weight of 1e-310: once absorbed, its row's kernel products
        # can underflow to zero
        rows[heavy, 0] = 0.0
        rows[heavy] /= rows[heavy].sum(axis=1, keepdims=True)
        rows[heavy, 0] = 1e-310
    target = rng.uniform(0.1, 1.0, m)
    config = SinkhornConfig(epsilon[0], epsilon[1], max_iters, tolerance)
    return _loop_inputs(costs, source, target / target.sum(), config), config


@pytest.mark.thorough
class TestBlockLoopMatchesReference:
    """The block loop returns, to the bit, what checking every half-step returns.

    ``reference_scaling_iterations`` is the loop that checks the scaling
    range after every half-step and the stopping rule after every iteration.
    """

    @staticmethod
    def _assert_same(inputs, config):
        plans, iterations, converged = _run_loop(ot._scaling_iterations, inputs, config)
        ref_plans, ref_iterations, ref_converged = _run_loop(reference_scaling_iterations, inputs, config)
        assert np.array_equal(iterations, ref_iterations)
        assert np.array_equal(converged, ref_converged)
        assert np.array_equal(plans, ref_plans)
        return iterations

    def test_property_bit_equal_to_reference(self, monkeypatch):
        # the draws include relaxed problems whose scaling is absorbed, and
        # relaxed problems redone in the log domain, in padded and in
        # unpadded stacks; only the block loop repairs through ot._absorb
        reached = set()
        inner = ot._absorb

        def recording(side, scalings, product, potentials, kernel, log_kernel, a, b, previous, relaxed):
            scaling = scalings[side]
            if relaxed is not None:
                hit = ~((scaling.min(axis=1) >= ot._SCALING_LOW) & (scaling.max(axis=1) <= ot._SCALING_HIGH))
                finite = np.all(np.isfinite(scaling), axis=1) & (scaling.min(axis=1) > 0)
                for k in np.flatnonzero(hit & relaxed):
                    reached.add((bool((a == 0).any()), "absorbed" if finite[k] else "log domain"))
            inner(side, scalings, product, potentials, kernel, log_kernel, a, b, previous, relaxed)

        monkeypatch.setattr(ot, "_absorb", recording)

        @settings(max_examples=3 * settings.default.max_examples)
        @given(**_LOOP_CASES)
        def bit_equal(**case):
            self._assert_same(*_loop_case(**case))

        bit_equal()
        assert reached == {(padded, kind) for padded in (False, True) for kind in ("absorbed", "log domain")}

    @pytest.mark.parametrize("max_iters", [1, 3, 4, 5, 11, 12, 13, 200])
    def test_max_iters_inside_and_on_block_edges(self, max_iters):
        # a slow solve that every limit cuts short, whether or not it ends a block
        rng = np.random.default_rng(1)
        costs = np.stack([ground_cost_matrix(rng.standard_normal((3, 9)), rng.standard_normal((3, 7)))])
        config = SinkhornConfig(epsilon=0.01, max_iters=max_iters, tolerance=1e-12)
        iterations = self._assert_same(_loop_inputs(costs, np.full(9, 1 / 9), np.full(7, 1 / 7), config), config)
        assert iterations.tolist() == [max_iters]

    @staticmethod
    def _repairs_match_reference(monkeypatch, inputs, config):
        counts = []
        for loop in (reference_scaling_iterations, ot._scaling_iterations):
            rebuilds = _counting(monkeypatch, "_absorbed_kernel")
            log_steps = _counting(monkeypatch, "_logsumexp")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="raise"):
                    _run_loop(loop, inputs, config)
            monkeypatch.undo()
            counts.append((len(rebuilds), len(log_steps)))
        assert counts[0] == counts[1]
        return counts[0]

    def test_absorption_inside_a_block(self, monkeypatch):
        # the problem relaxes after iteration 4; its first scaling out of range
        # comes at iteration 6, the second step of the block of iterations 5-12,
        # and is absorbed: no log-domain step; it absorbs again at iteration 42
        rng = np.random.default_rng(0)
        cost = ground_cost_matrix(rng.standard_normal((2, 12)), rng.standard_normal((2, 9)))
        a, b = rng.uniform(0.1, 1.0, 12), rng.uniform(0.1, 1.0, 9)
        config = SinkhornConfig(epsilon=0.004, max_iters=1000)
        inputs = _loop_inputs(cost[None], a / a.sum(), b / b.sum(), config)
        assert _repair_iterations(monkeypatch, inputs, config, "_absorbed_kernel", until=60) == [6, 42]
        rebuilds, log_steps = self._repairs_match_reference(monkeypatch, inputs, config)
        assert rebuilds > 0 and log_steps == 0
        self._assert_same(inputs, config)

    def test_log_domain_fallback_inside_a_block(self, monkeypatch):
        # a subnormal source weight is absorbed at iteration 1; once the problem
        # relaxes after iteration 4, K @ v underflows in its row every ten
        # iterations from iteration 13 and the relaxed half-step is redone in
        # the log domain, at iterations 13, 23, ..., 53: steps of the blocks
        # 13-20, 21-28, ..., 53-60, the first, third, fifth and seventh of one
        rng = np.random.default_rng(8)
        cost = ground_cost_matrix(rng.standard_normal((3, 8)), rng.standard_normal((3, 6)))
        a, b = rng.uniform(0.1, 1.0, 8), rng.uniform(0.1, 1.0, 6)
        cost *= 100.0 / cost.mean()
        a[0] = 0.0
        a /= a.sum()
        a[0] = 1e-310
        config = SinkhornConfig(epsilon=0.1, relative=False, max_iters=300)
        inputs = _loop_inputs(cost[None], a, b / b.sum(), config)
        assert _repair_iterations(monkeypatch, inputs, config, "_absorbed_kernel", until=60) == [1, 13, 23, 33, 43, 53]
        assert _repair_iterations(monkeypatch, inputs, config, "_logsumexp", until=60) == [13, 23, 33, 43, 53]
        rebuilds, log_steps = self._repairs_match_reference(monkeypatch, inputs, config)
        assert rebuilds >= 3 and log_steps > 0
        self._assert_same(inputs, config)


class TestOverRelaxation:
    """Slow solves over-relax after iteration 4; fast ones keep the plain iterates."""

    SLOW = SinkhornConfig(epsilon=0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_where_plain_runs_out(self, seed):
        # a document of 117 words against a 16-point anchor in d=30 at relative
        # epsilon 0.01: plain Sinkhorn is still short of the tolerance at max_iters
        cost, a, b = _random_problem(np.random.default_rng(seed), 117, 16, 30)
        assert not log_domain_sinkhorn(cost, a, b, self.SLOW, relax=False).converged
        res = sinkhorn(cost, a, b, self.SLOW)
        assert res.converged
        oracle = log_domain_sinkhorn(cost, a, b, self.SLOW)
        assert res.iterations_used == oracle.iterations_used
        assert res.distance == pytest.approx(oracle.distance, rel=1e-9)
        assert res.reg_distance == pytest.approx(oracle.reg_distance, rel=1e-9)
        assert np.abs(res.plan - oracle.plan).max() < 1e-12
        # the fixed point of plain Sinkhorn, given the iterations to reach it
        long = log_domain_sinkhorn(cost, a, b, SinkhornConfig(epsilon=0.01, max_iters=5000), relax=False)
        assert long.converged and long.iterations_used > 2 * res.iterations_used
        assert res.distance == pytest.approx(long.distance, rel=1e-6)
        assert res.reg_distance == pytest.approx(long.reg_distance, rel=1e-6)

    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_solves_that_stop_by_iteration_4_keep_their_bits(self, epsilon):
        # a ragged stack whose problems stop between 3 and 102 plain
        # iterations; the flat d=3000 costs stop by iteration 4 (at 3 under
        # epsilon 0.1, on the decision iteration itself under 0.05)
        rng = np.random.default_rng(3)
        n, m = 30, 16
        dims = (3000, 100, 30, 10, 3000, 30)
        costs = np.stack([ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, m))) for d in dims])
        source = np.zeros((6, n))
        for k, length in enumerate((30, 25, 30, 12, 7, 30)):
            source[k, :length] = rng.uniform(0.1, 1.0, length)
        config = SinkhornConfig(epsilon=epsilon)
        inputs = _loop_inputs(costs, source / source.sum(axis=1, keepdims=True), np.full(m, 1 / m), config)
        plans, iterations, converged = _run_loop(ot._scaling_iterations, inputs, config)
        plain_plans, plain_iterations, _ = _run_loop(
            lambda *args: reference_scaling_iterations(*args, relax=False), inputs, config
        )
        early = plain_iterations <= ot._RELAX_AT
        assert early.any() and not early.all() and converged.all()
        assert np.array_equal(iterations[early], plain_iterations[early])
        assert np.array_equal(plans[early], plain_plans[early])
        # the slow ones relaxed: fewer iterations, other bits
        assert (iterations[~early] <= plain_iterations[~early]).all()
        assert not np.array_equal(plans[~early], plain_plans[~early])

    def test_guard_returns_a_diverging_problem_to_plain_steps(self, monkeypatch):
        # at omega 1.99 this problem's row gap grows after the switch: at
        # iteration 12 it is more than 4 times that of iteration 4, and the
        # guard sends it back to plain steps before it converges
        monkeypatch.setattr(ot, "_OMEGA", 1.99)
        cost, a, b = _random_problem(np.random.default_rng(18), 20, 10, 3)
        config = SinkhornConfig(epsilon=0.05, max_iters=300)
        inputs = _loop_inputs(cost[None], a, b, config)
        relaxed_half_steps = _counting(monkeypatch, "_relax")
        plans, iterations, converged = _run_loop(ot._scaling_iterations, inputs, config)
        assert converged.all()
        # relaxed for the block of iterations 5-12, and for no iteration after it
        assert len(relaxed_half_steps) == 2 * ot._BLOCK
        ref_plans, ref_iterations, _ = _run_loop(reference_scaling_iterations, inputs, config)
        assert np.array_equal(iterations, ref_iterations)
        assert np.array_equal(plans, ref_plans)
        # without the guard it stays relaxed, and 300 iterations are too few
        monkeypatch.setattr(ot, "_GUARD", np.inf)
        _, _, unguarded = _run_loop(ot._scaling_iterations, inputs, config)
        assert not unguarded.all()

    def test_knn_shaped_pairs_take_few_iterations(self):
        # 40 seeded document pairs of the raw-WMD k-NN benchmark's shape: d=300
        # words around five class centres of norm 4.5 and a common pool around
        # the origin, half of about 120 tokens from the document's class and
        # half common. Under the default config they take 20.4 iterations on
        # average (25.0 deciding relaxation at iteration 12)
        rng = np.random.default_rng(0)
        classes, pool, common, tokens = 5, 100, 1000, 120
        centres = rng.standard_normal((classes, 300))
        centres *= 4.5 / np.linalg.norm(centres, axis=1, keepdims=True)
        words = np.concatenate([c + 0.4 * rng.standard_normal((pool, 300)) for c in centres] + [0.4 * rng.standard_normal((common, 300))])

        def document(label):
            ids = np.concatenate([label * pool + rng.choice(pool, tokens // 2), classes * pool + rng.choice(common, tokens // 2)])
            ids, counts = np.unique(ids, return_counts=True)
            return words[ids].T, counts / counts.sum()

        iterations = []
        for _ in range(40):
            (x, a), (y, b) = document(rng.integers(classes)), document(rng.integers(classes))
            result = sinkhorn(ground_cost_matrix(x, y), a, b, SinkhornConfig())
            assert result.converged
            iterations.append(result.iterations_used)
        assert np.mean(iterations) <= 22.5


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


# the shapes the three callers solve: one raw-WMD k-NN pair through
# ``sinkhorn`` on a strided view, as classify takes it; an eval document
# against Y anchors of 16 points, sharing its source; a training batch of
# documents against Y anchors, padded to its longest document
_WHOLE_STACK_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    caller=st.sampled_from(["knn", "eval", "train"]),
    docs=st.integers(1, 4),
    classes=st.integers(1, 6),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    d=st.sampled_from([2, 3, 30, 300]),
    outlier=st.booleans(),
    subnormal=st.booleans(),
    epsilon=st.sampled_from([(0.1, True), (0.01, True), (0.001, True), (20.0, False)]),
    max_iters=st.integers(1, 300),
    tolerance=st.sampled_from([1e-4, 1e-6, 1e-9]),
)


def _whole_stack_case(seed, caller, docs, classes, n, m, d, outlier, subnormal, epsilon, max_iters, tolerance):
    """The costs, source, target and config of one ``_WHOLE_STACK_CASES`` draw."""
    rng = np.random.default_rng(seed)
    docs, classes, m = {"knn": (1, 1, m), "eval": (1, classes, 16), "train": (docs, classes, 16)}[caller]
    lengths = rng.integers(1, n + 1, docs) if caller == "train" else [n]
    costs = np.zeros((docs, classes, n, m))
    source = np.zeros((docs, n))
    for i, length in enumerate(lengths):
        words = rng.standard_normal((d, length))
        for k in range(classes):
            costs[i, k, :length] = ground_cost_matrix(words, rng.standard_normal((d, m)))
        source[i, :length] = rng.uniform(0.1, 1.0, length)
        if subnormal and length > 1:
            # a first weight of 1e-310: once absorbed, its row's kernel
            # products can underflow to zero
            source[i, 0] = 0.0
            source[i] /= source[i].sum()
            source[i, 0] = 1e-310
        else:
            source[i] /= source[i].sum()
    if outlier:
        # a row a thousand mean costs away: absorption, or a log-domain step
        costs[0, 0, 0] += 1e3 * costs[0, 0].mean()
    target = rng.uniform(0.1, 1.0, m)
    config = SinkhornConfig(epsilon[0], epsilon[1], max_iters, tolerance)
    costs = costs.reshape(docs * classes, n, m)
    source = np.repeat(source, classes, axis=0) if caller == "train" else source[0]
    return costs, source, target / target.sum(), config


def _assert_fields_equal(result, oracle):
    for name in ("distance", "plan", "iterations_used", "converged", "epsilon", "reg_distance"):
        assert np.array_equal(getattr(result, name), getattr(oracle, name)), name


class TestSinkhornStack:
    """The stacked core solves every problem as it would be solved alone."""

    @pytest.mark.thorough
    def test_property_bit_equal_to_reference_stack(self, monkeypatch):
        # every field of sinkhorn_stack, and of sinkhorn on a k-NN pair, to the
        # bit; the draws include relaxed solves whose scalings are absorbed or
        # redone in the log domain in each caller's shape
        reached = set()
        caller = []
        for name, kind in (("_absorbed_kernel", "absorbed"), ("_log_domain_potential", "log domain")):
            inner = getattr(ot, name)

            def recording(*args, _inner=inner, _kind=kind):
                if caller:
                    reached.add((caller[0], _kind))
                return _inner(*args)

            monkeypatch.setattr(ot, name, recording)

        @settings(max_examples=2 * settings.default.max_examples)
        @given(**_WHOLE_STACK_CASES)
        def bit_equal(**case):
            costs, source, target, config = _whole_stack_case(**case)
            oracle = reference_sinkhorn_stack(costs, source, target, config)
            caller.append(case["caller"])
            if case["caller"] == "knn":
                wide = np.zeros((costs.shape[1], costs.shape[2] + 2))
                wide[:, 1:-1] = costs[0]
                result = sinkhorn(wide[:, 1:-1], source, target, config)
                fields = LogDomainResult.__dataclass_fields__
                oracle = LogDomainResult(*(np.asarray(getattr(oracle, name))[0] for name in fields))
            else:
                result = sinkhorn_stack(costs, source, target, config)
            caller.clear()
            if case["caller"] == "knn" and oracle.iterations_used > ot._RELAX_AT:
                reached.add(("knn", "relaxed"))
            _assert_fields_equal(result, oracle)

        bit_equal()
        repaired = {(c, kind) for c in ("knn", "eval", "train") for kind in ("absorbed", "log domain")}
        assert reached >= repaired | {("knn", "relaxed")}

    CONFIG = SinkhornConfig(epsilon=0.05, max_iters=30)

    @staticmethod
    def _mixed_stack(rng):
        """Four problems sharing a source with two near-zero weights (1e-12, 1e-30).

        Under ``CONFIG`` they converge after different iteration counts (d=300
        and d=30 costs), hit ``max_iters`` (d=2), and need absorption (a row
        a thousand mean costs away) while the others do not.
        """
        n, m = 12, 7
        a = rng.uniform(0.1, 1.0, n)
        a[[3, 8]] = 1e-12 * a.sum(), 1e-30 * a.sum()
        b = np.full(m, 1.0 / m)
        costs = [
            ground_cost_matrix(rng.standard_normal((d, n)), rng.standard_normal((d, m))) for d in (300, 30, 2, 300)
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
        # one document against five 16-point anchors: its (n, Y * p) cost rows seen as a strided
        # (Y, n, p) view of the class slices transport_cost_rows copies; each solo solve on a C-order copy
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
        # drawn as (n, B, m), so the stack is a strided view, not a C-order array
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


class TestLazyRegDistance:
    """``reg_distance`` is computed on first read, to the bit the formula once applied to every solve."""

    def _padded_stack(self, rng, sizes=(7, 3, 5), m=4):
        n_max = max(sizes)
        costs = rng.uniform(0.0, 5.0, (len(sizes), n_max, m))
        source = np.zeros((len(sizes), n_max))
        for k, n in enumerate(sizes):
            source[k, :n] = rng.dirichlet(np.ones(n))
        return costs, source, np.full(m, 1.0 / m)

    @pytest.mark.parametrize("relative, epsilon", [(True, 0.1), (True, 0.01), (False, 3.0)])
    def test_stack_and_each_problem_bit_equal_to_eager_formula(self, rng, relative, epsilon):
        result = sinkhorn_stack(*self._padded_stack(rng), SinkhornConfig(epsilon=epsilon, relative=relative))
        assert "reg_distance" not in vars(result)  # nothing computed before the first read
        eager = eager_reg_distance(result)
        assert np.array_equal(result.reg_distance, eager)
        assert result.reg_distance is result.reg_distance  # computed once, then kept
        for k in range(result.plan.shape[0]):
            assert result[k].reg_distance == eager[k]
            assert type(result[k].reg_distance) is float


class TestSinkhornConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(max_iters=0)
        with pytest.raises(ValueError):
            SinkhornConfig(tolerance=0.0)

    HALVES = np.array([0.5, 0.5])

    def test_relative_epsilon_scales_with_cost(self):
        cfg = SinkhornConfig(epsilon=0.1, relative=True)
        assert sinkhorn(np.full((2, 2), 3.0), self.HALVES, self.HALVES, cfg).epsilon == pytest.approx(0.3)
        # a zero mean cost falls back to epsilon itself
        assert sinkhorn(np.zeros((2, 2)), self.HALVES, self.HALVES, cfg).epsilon == 0.1

    def test_absolute_epsilon_used_verbatim(self):
        cfg = SinkhornConfig(epsilon=0.7, relative=False)
        assert sinkhorn(np.full((2, 2), 3.0), self.HALVES, self.HALVES, cfg).epsilon == 0.7


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
