"""Entropic regularized optimal transport between empirical measures.

Provides squared-Euclidean ground costs and a stabilized Sinkhorn solver with
a final projection onto the marginal polytope. By the envelope theorem the
solver's plan is also the gradient of the regularized transport value with
respect to the cost matrix.

The solver runs stabilized scaling iterations with log-domain absorption
(Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems"): plain Sinkhorn scalings
``u = a / (K @ v)``, ``v = b / (K.T @ u)`` on the absorbed kernel
``K = exp(f + (-cost / epsilon) + g)``, two matrix-vector products per
iteration, with the marginal gaps read off the same products. Iterations
start from ``f = g = 0``. Both half-steps follow one rule: a scaling inside
[1e-50, 1e50] is kept; one outside it but finite and positive is absorbed
into its potential and ``K`` rebuilt with one exp pass; any other scaling
(overflowed, or underflowed to zero, as on a kernel row that underflows
entirely) has its half-step done in the log domain instead. Either way the
iterates are, in exact arithmetic, those of log-domain Sinkhorn, so
iteration counts and results match it up to floating-point rounding.
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
]

_TINY = np.finfo(float).tiny


def validate_histogram(weights, atol: float = 1e-9) -> np.ndarray:
    """Check that ``weights`` is a probability histogram and return it as float64.

    Entries must be finite, non-negative, and sum to 1 within ``atol``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"histogram must be a non-empty 1-D array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("histogram contains non-finite entries")
    if np.any(w < 0):
        raise ValueError("histogram contains negative entries")
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

    def effective_epsilon(self, cost: np.ndarray) -> float:
        """Resolve the regularization strength for a concrete cost matrix."""
        if not self.relative:
            return self.epsilon
        mean = float(np.mean(cost))
        return self.epsilon * mean if mean > 0 else self.epsilon


@dataclass(frozen=True)
class SinkhornResult:
    """Solution of one entropic transport problem.

    ``distance`` is the transport cost ``<plan, cost>`` of the rounded plan
    with the entropy term excluded. ``reg_distance`` is the full regularized
    objective ``<plan, cost> + epsilon * sum(plan * (log plan - 1))``; by the
    envelope theorem its gradient with respect to the cost matrix is exactly
    the plan, so it is the value the training loop differentiates.
    """

    distance: float
    plan: np.ndarray
    iterations_used: int
    converged: bool
    reg_distance: float
    epsilon: float


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(values, axis=axis, keepdims=True)
    return np.squeeze(peak, axis=axis) + np.log(np.sum(np.exp(values - peak), axis=axis))


def _round_to_marginals(plan: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """Project a positive matrix onto the transportation polytope.

    Scales rows then columns down to their prescribed sums and distributes
    the leftover mass as a rank-one correction, so the returned matrix meets
    both marginals up to floating-point error regardless of how early the
    iterations stopped.
    """
    row = plan.sum(axis=1)
    plan = plan * np.minimum(row_sums / np.maximum(row, _TINY), 1.0)[:, None]
    col = plan.sum(axis=0)
    plan = plan * np.minimum(col_sums / np.maximum(col, _TINY), 1.0)[None, :]
    missing_row = np.maximum(row_sums - plan.sum(axis=1), 0.0)
    missing_col = np.maximum(col_sums - plan.sum(axis=0), 0.0)
    deficit = missing_row.sum()
    if deficit > _TINY:
        plan = plan + np.outer(missing_row, missing_col) / deficit
    return plan


# A scaling vector outside [_SCALING_LOW, _SCALING_HIGH] is absorbed into the
# dual potentials before its magnitude can cost precision in the kernel.
_SCALING_LOW = 1e-50
_SCALING_HIGH = 1e50


def _absorbed_kernel(log_kernel: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.exp(f[:, None] + log_kernel + g[None, :])


def _scaling_iterations(
    log_kernel: np.ndarray, a: np.ndarray, b: np.ndarray, config: SinkhornConfig
) -> tuple[np.ndarray, int, bool]:
    """Sinkhorn iterations on positive histograms; returns (plan, iterations, converged).

    The iterate is ``u[:, None] * kernel * v[None, :]`` with ``kernel =
    exp(f + log_kernel + g)``, equal to the log-domain iterate ``exp(f + log u
    + log_kernel + g + log v)``. Side 0 is the rows (``a``, ``f``, ``u``),
    side 1 the columns (``b``, ``g``, ``v``); both half-steps run one rule.
    ``products`` holds ``kernel @ v`` and ``kernel.T @ u``, so ``u *
    products[0]`` and ``v * products[1]`` are the iterate's marginals.
    """
    marginals = (a, b)
    potentials = [np.zeros(a.size), np.zeros(b.size)]
    scalings = [np.ones(a.size), np.ones(b.size)]
    kernel = np.exp(log_kernel)
    kernels = (kernel, kernel.T)
    products = [kernel.sum(axis=1), None]
    iterations = 0
    while True:
        iterations += 1
        for side, other in ((0, 1), (1, 0)):
            scaling = marginals[side] / products[side]
            # NaN-safe: a NaN entry fails both comparisons
            if not (scaling.min() >= _SCALING_LOW and scaling.max() <= _SCALING_HIGH):
                # absorb both scalings into the potentials and restart them at 1;
                # a scaling with no finite log is redone as a log-domain half-step
                potentials[other] = potentials[other] + np.log(scalings[other])
                if np.all(np.isfinite(scaling)) and scaling.min() > 0:
                    potentials[side] = potentials[side] + np.log(scaling)
                else:
                    potentials[side] = np.log(marginals[side]) - _logsumexp(
                        (log_kernel, log_kernel.T)[side] + potentials[other][None, :], axis=1
                    )
                kernel = _absorbed_kernel(log_kernel, *potentials)
                kernels = (kernel, kernel.T)
                scaling = np.ones(scaling.size)
                scalings[other] = np.ones(scalings[other].size)
                products[side] = kernels[side].sum(axis=1)
            scalings[side] = scaling
            products[other] = kernels[other] @ scaling
        u, v = scalings
        gap = max(float(np.abs(u * products[0] - a).sum()), float(np.abs(v * products[1] - b).sum()))
        converged = gap <= config.tolerance
        if converged or iterations == config.max_iters:
            return u[:, None] * kernel * v[None, :], iterations, converged


def sinkhorn(cost, source, target, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Solve entropic OT between two histograms by stabilized scaling iterations.

    Parameters
    ----------
    cost : (n, m) array of non-negative finite entries.
    source : length-n histogram (non-negative, sums to 1).
    target : length-m histogram.
    config : solver settings; defaults to ``SinkhornConfig()``.

    Zero-weight atoms are stripped before solving and their plan rows or
    columns reinserted as zeros. Iterations stop once the L1 marginal
    violation drops to ``config.tolerance`` or ``config.max_iters`` is
    reached; either way the returned plan is rounded onto the marginal
    polytope, so its row and column sums match the inputs to float accuracy.
    """
    if config is None:
        config = SinkhornConfig()
    cost_full = np.asarray(cost, dtype=float)
    if cost_full.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost_full.shape}")
    if np.any(np.isnan(cost_full)):
        raise ValueError("cost contains NaN")
    if not np.all(np.isfinite(cost_full)):
        raise ValueError("cost entries must be finite")
    a_full = validate_histogram(source)
    b_full = validate_histogram(target)
    if cost_full.shape != (a_full.size, b_full.size):
        raise ValueError(
            f"cost shape {cost_full.shape} does not match histogram lengths "
            f"({a_full.size}, {b_full.size})"
        )

    keep_a = a_full > 0
    keep_b = b_full > 0
    a = a_full[keep_a]
    b = b_full[keep_b]
    cost_sub = cost_full[np.ix_(keep_a, keep_b)]

    eps = config.effective_epsilon(cost_sub)
    # overflow and underflow of a scaling are detected and repaired in the
    # iterations; underflow of negligible plan entries to zero is expected
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        plan, iterations, converged = _scaling_iterations(-cost_sub / eps, a, b, config)
        plan = _round_to_marginals(plan, a, b)

        if keep_a.all() and keep_b.all():
            full_plan = plan
        else:
            full_plan = np.zeros_like(cost_full)
            full_plan[np.ix_(keep_a, keep_b)] = plan

        distance = float(np.sum(full_plan * cost_full))
        positive = plan[plan > 0]
        entropy_term = float(np.sum(positive * np.log(positive)) - plan.sum())
    return SinkhornResult(
        distance=distance,
        plan=full_plan,
        iterations_used=iterations,
        converged=converged,
        reg_distance=distance + eps * entropy_term,
        epsilon=eps,
    )
