"""Entropic regularized optimal transport between empirical measures.

Provides squared-Euclidean ground costs and a stabilized Sinkhorn solver with
a final projection onto the marginal polytope. By the envelope theorem the
solver's plan is also the gradient of the regularized transport value with
respect to the cost matrix.

There is one solver core, :func:`sinkhorn_stack`: a (B, n, m) stack of
problems that share one source and one target histogram, one histogram
against many as in Cuturi 2013, "Sinkhorn Distances", Alg. 1, with the
matrix-vector products of all problems made in one stacked call. It returns
one :class:`SinkhornResult` for the whole stack, with (B,) values and
(B, n, m) plans; indexing it gives one problem's result. :func:`sinkhorn` is
the stack of one. Both histograms must be strictly positive. Validation and
rounding run once per stack; relative epsilon, potentials, iteration counts
and convergence are per problem, and a problem leaves the iterations as
soon as it meets the stopping rule. So a problem's result does not depend
on what it is stacked with: it equals, to the bit, the solve of its matrix
alone.

The iterations are stabilized scaling iterations with log-domain absorption
(Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems"): plain Sinkhorn scalings
``u = a / (K @ v)``, ``v = b / (K.T @ u)`` on the absorbed kernel
``K = exp(f + (-cost / epsilon) + g)``, two matrix-vector products per
iteration, with the marginal gaps read off the same products. Iterations
start from ``f = g = 0``. Both half-steps follow one rule, decided per
problem: a scaling inside [1e-50, 1e50] is kept; one outside it but finite
and positive is absorbed into its potential and ``K`` rebuilt with one exp
pass; any other scaling (overflowed, or underflowed to zero, as on a kernel
row that underflows entirely) has its half-step done in the log domain
instead. Either way the iterates are, in exact arithmetic, those of
log-domain Sinkhorn, so iteration counts and results match it up to
floating-point rounding. Iterations stop once both L1 marginal gaps are
within the tolerance. The column gap is evaluated lazily: right after the
column half-step it is at rounding level, so it is read only for problems
whose row gap already meets the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SinkhornConfig",
    "SinkhornResult",
    "validate_histogram",
    "ground_cost_matrix",
    "sinkhorn",
    "sinkhorn_stack",
]

_TINY = np.finfo(float).tiny


def validate_histogram(weights, atol: float = 1e-9) -> np.ndarray:
    """Check that ``weights`` is a strictly positive probability histogram and return it as float64.

    Entries must be finite, positive, and sum to 1 within ``atol``. A
    zero-weight atom carries no mass; drop it before building the histogram.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"histogram must be a non-empty 1-D array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("histogram contains non-finite entries")
    if np.any(w <= 0):
        raise ValueError("histogram entries must be positive")
    total = float(w.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"histogram sums to {total}, expected 1 within {atol}")
    return w


def ground_cost_matrix(source_points, target_points) -> np.ndarray:
    """Pairwise squared Euclidean distances between two point sets.

    Both arguments are (d, n) arrays with one point per column; the result
    has shape (n_source, n_target) with entry (i, j) equal to
    ``||source[:, i] - target[:, j]||^2``.
    """
    x = np.asarray(source_points, dtype=float)
    y = np.asarray(target_points, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays with one point per column")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"point dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("point coordinates must be finite")
    sq_x = np.einsum("di,di->i", x, x)
    sq_y = np.einsum("dj,dj->j", y, y)
    cost = sq_x[:, None] + sq_y[None, :] - 2.0 * (x.T @ y)
    # clip tiny negatives produced by cancellation between the three terms
    np.maximum(cost, 0.0, out=cost)
    return cost


@dataclass(frozen=True)
class SinkhornConfig:
    """Settings for the entropic solver.

    ``epsilon`` is the regularization strength. With ``relative=True`` (the
    default) it multiplies the mean entry of the cost matrix it is applied
    to, making behaviour independent of the scale of the input geometry;
    with ``relative=False`` it is used verbatim. ``tolerance`` bounds the L1
    marginal violation at which iterations stop.
    """

    epsilon: float = 0.1
    relative: bool = True
    max_iters: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf):
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0 < self.tolerance < np.inf):
            raise ValueError("tolerance must be positive and finite")

    def effective_epsilon(self, cost: np.ndarray):
        """Resolve the regularization strength for a concrete cost matrix.

        Given a (B, n, m) stack, returns the (B,) strengths of its matrices,
        each the one that matrix gets alone.
        """
        cost = np.asarray(cost, dtype=float)
        if self.relative:
            mean = cost.reshape(*cost.shape[:-2], -1).mean(axis=-1)
            eps = np.where(mean > 0, self.epsilon * mean, self.epsilon)
        else:
            eps = np.full(cost.shape[:-2], self.epsilon)
        return float(eps) if eps.ndim == 0 else eps


@dataclass(frozen=True)
class SinkhornResult:
    """Solution of one entropic transport problem, or of a stack of them.

    ``distance`` is the transport cost ``<plan, cost>`` of the rounded plan
    with the entropy term excluded. ``reg_distance`` is the full regularized
    objective ``<plan, cost> + epsilon * sum(plan * (log plan - 1))``; by the
    envelope theorem its gradient with respect to the cost matrix is exactly
    the plan, so it is the value the training loop differentiates.

    From :func:`sinkhorn_stack` every value field is a (B,) array and
    ``plan`` a (B, n, m) array; ``result[k]`` is problem k's result, with
    Python scalars and an (n, m) plan, as :func:`sinkhorn` returns it.
    """

    distance: float | np.ndarray
    plan: np.ndarray
    iterations_used: int | np.ndarray
    converged: bool | np.ndarray
    reg_distance: float | np.ndarray
    epsilon: float | np.ndarray

    def __getitem__(self, k: int) -> SinkhornResult:
        return SinkhornResult(
            float(self.distance[k]), self.plan[k], int(self.iterations_used[k]),
            bool(self.converged[k]), float(self.reg_distance[k]), float(self.epsilon[k]),
        )


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(values, axis=axis, keepdims=True)
    return np.squeeze(peak, axis=axis) + np.log(np.sum(np.exp(values - peak), axis=axis))


def _round_to_marginals(plan: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """Project a positive matrix, or each of a (B, n, m) stack, onto the transportation polytope.

    Scales rows then columns down to their prescribed sums and distributes
    the leftover mass as a rank-one correction, so the returned matrix meets
    both marginals up to floating-point error regardless of how early the
    iterations stopped.
    """
    # row and column sums as products with ones, which BLAS runs faster than sum()
    ones_n, ones_m = np.ones(plan.shape[-2]), np.ones(plan.shape[-1])
    plan = plan * np.minimum(row_sums / np.maximum(plan @ ones_m, _TINY), 1.0)[..., :, None]
    plan *= np.minimum(col_sums / np.maximum(ones_n @ plan, _TINY), 1.0)[..., None, :]
    missing_row = np.maximum(row_sums - plan @ ones_m, 0.0)
    missing_col = np.maximum(col_sums - ones_n @ plan, 0.0)
    deficit = missing_row.sum(axis=-1, keepdims=True)
    share = np.divide(missing_col, deficit, out=np.zeros_like(missing_col), where=deficit > _TINY)
    plan += missing_row[..., :, None] * share[..., None, :]
    return plan


# A scaling vector outside [_SCALING_LOW, _SCALING_HIGH] is absorbed into the
# dual potentials before its magnitude can cost precision in the kernel.
_SCALING_LOW = 1e-50
_SCALING_HIGH = 1e50


def _absorbed_kernel(log_kernel: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.exp(f[..., :, None] + log_kernel + g[..., None, :])


def _apply(kernel: np.ndarray, scaling: np.ndarray, side: int) -> np.ndarray:
    """Per problem, ``kernel @ scaling`` (side 0) or ``kernel.T @ scaling`` (side 1)."""
    if side == 0:
        return np.matmul(kernel, scaling[:, :, None])[:, :, 0]
    return np.matmul(scaling[:, None, :], kernel)[:, 0, :]


def _scaling_iterations(
    log_kernel: np.ndarray, a: np.ndarray, b: np.ndarray, config: SinkhornConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sinkhorn iterations on a (B, n, m) stack of problems sharing positive histograms.

    Returns the (B, n, m) plans and, per problem, the iterations used and
    whether it converged. ``a`` and ``b`` are (1, n) and (1, m) rows, which a
    stack of one meets without broadcasting. Problem k's iterate is
    ``u[k][:, None] * kernel[k] * v[k][None, :]`` with ``kernel[k] = exp(f[k]
    + log_kernel[k] + g[k])``, equal to the log-domain iterate ``exp(f + log
    u + log_kernel + g + log v)``. Side 0 is the rows (``a``, ``f``, ``u``),
    side 1 the columns (``b``, ``g``, ``v``); both half-steps run one rule,
    decided per problem. ``products`` holds ``kernel @ v`` and ``kernel.T @
    u``, so ``u * products[0]`` and ``v * products[1]`` are the iterates'
    marginals. A problem leaves the working arrays once it meets the stopping
    rule, so every problem's iterates are those it would have alone.
    """
    num = log_kernel.shape[0]
    plans = np.empty_like(log_kernel)
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    active = np.arange(num)  # stack index of each working problem
    marginals = (a, b)
    potentials = [np.zeros((num, a.size)), np.zeros((num, b.size))]
    scalings = [np.ones((num, a.size)), np.ones((num, b.size))]
    kernel = np.exp(log_kernel)
    products = [_apply(kernel, scalings[1], 0), None]
    iteration = 0
    while True:
        iteration += 1
        for side, other in ((0, 1), (1, 0)):
            scaling = marginals[side] / products[side]
            # NaN-safe: a NaN entry fails both comparisons
            if not (scaling.min() >= _SCALING_LOW and scaling.max() <= _SCALING_HIGH):
                hit = ~((scaling.min(axis=1) >= _SCALING_LOW) & (scaling.max(axis=1) <= _SCALING_HIGH))
                # absorb both scalings into the potentials and restart them at 1;
                # a scaling with no finite log is redone as a log-domain half-step
                potentials[other][hit] += np.log(scalings[other][hit])
                out = scaling[hit]
                finite = np.all(np.isfinite(out), axis=1) & (out.min(axis=1) > 0)
                absorbed = potentials[side][hit]
                absorbed[finite] += np.log(out[finite])
                if not finite.all():
                    lost = np.flatnonzero(hit)[~finite]
                    absorbed[~finite] = np.log(marginals[side]) - _logsumexp(
                        log_kernel[lost] + np.expand_dims(potentials[other][lost], 1 + side), axis=2 - side
                    )
                potentials[side][hit] = absorbed
                kernel[hit] = _absorbed_kernel(log_kernel[hit], potentials[0][hit], potentials[1][hit])
                scaling[hit] = 1.0
                scalings[other][hit] = 1.0
                products[side][hit] = _apply(kernel[hit], scalings[other][hit], side)
            scalings[side] = scaling
            products[other] = _apply(kernel, scaling, other)
        u, v = scalings
        # stop at L1 gaps <= tolerance on both sides; the column gap, at rounding
        # level right after the column half-step, is read only once the row gap is
        row_gap = np.abs(u * products[0] - a).sum(axis=1)
        if iteration < config.max_iters and row_gap.min() > config.tolerance:
            continue
        met = row_gap <= config.tolerance
        met[met] = np.abs(v[met] * products[1][met] - b).sum(axis=1) <= config.tolerance
        done = met if iteration < config.max_iters else np.ones_like(met)
        if not done.any():
            continue
        finished = active[done]
        iterations[finished] = iteration
        converged[finished] = met[done]
        if finished.size == num:
            # no problem froze earlier: the working stack is the whole stack
            return u[:, :, None] * kernel * v[:, None, :], iterations, converged
        plans[finished] = u[done][:, :, None] * kernel[done] * v[done][:, None, :]
        if done.all():
            return plans, iterations, converged
        keep = ~done
        active = active[keep]
        log_kernel = log_kernel[keep]
        kernel = kernel[keep]
        potentials = [potential[keep] for potential in potentials]
        scalings = [scaling[keep] for scaling in scalings]
        products[0] = products[0][keep]


def sinkhorn_stack(costs, source, target, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Solve a (B, n, m) stack of entropic OT problems sharing both histograms.

    Problem k transports ``source`` to ``target`` under ``costs[k]``. The one
    returned :class:`SinkhornResult` holds (B,) values and (B, n, m) plans;
    its ``[k]`` equals to the bit what :func:`sinkhorn` gives on ``costs[k]``
    alone. Validation and rounding are those of :func:`sinkhorn`, done once
    for the stack; relative epsilon, iteration counts and convergence are
    per problem.
    """
    if config is None:
        config = SinkhornConfig()
    # C order: on a strided view the same values solve to different last bits
    cost = np.ascontiguousarray(costs, dtype=float)
    if cost.ndim != 3 or cost.shape[0] == 0:
        raise ValueError(f"costs must be a non-empty (B, n, m) stack, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost contains NaN" if np.isnan(cost).any() else "cost entries must be finite")
    a = validate_histogram(source)[None]
    b = validate_histogram(target)[None]
    if cost.shape[1:] != (a.size, b.size):
        raise ValueError(f"cost shape {cost.shape[1:]} does not match histogram lengths {(a.size, b.size)}")
    num = cost.shape[0]

    eps = config.effective_epsilon(cost)
    # overflow and underflow of a scaling are detected and repaired in the
    # iterations; underflow of negligible plan entries to zero is expected
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        plans, iterations, converged = _scaling_iterations(cost / -eps[:, None, None], a, b, config)
        plans = _round_to_marginals(plans, a, b)
        distances = (plans * cost).reshape(num, -1).sum(axis=1)
        # a zero entry adds 0 * log(tiny) = 0
        log_plans = np.log(np.maximum(plans, _TINY))
        mass = plans.reshape(num, -1).sum(axis=1)
        entropy_terms = (plans * log_plans).reshape(num, -1).sum(axis=1) - mass
    return SinkhornResult(
        distance=distances,
        plan=plans,
        iterations_used=iterations,
        converged=converged,
        reg_distance=distances + eps * entropy_terms,
        epsilon=eps,
    )


def sinkhorn(cost, source, target, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Solve entropic OT between two histograms by stabilized scaling iterations.

    Parameters
    ----------
    cost : (n, m) array of non-negative finite entries.
    source : length-n histogram (positive, sums to 1).
    target : length-m histogram (positive, sums to 1).
    config : solver settings; defaults to ``SinkhornConfig()``.

    Iterations stop once the L1 marginal violation drops to
    ``config.tolerance`` or ``config.max_iters`` is reached; either way the
    returned plan is rounded onto the marginal polytope, so its row and
    column sums match the inputs to float accuracy. This is problem 0 of
    :func:`sinkhorn_stack` on a stack of one, with Python scalar fields.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    return sinkhorn_stack(cost[None], source, target, config)[0]
