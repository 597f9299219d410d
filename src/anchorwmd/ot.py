"""Entropic regularized optimal transport between empirical measures.

Provides squared-Euclidean ground costs and a stabilized Sinkhorn solver with
a final projection onto the marginal polytope. By the envelope theorem the
solver's plan is also the gradient of the regularized transport value with
respect to the cost matrix.

There is one solver core, :func:`sinkhorn_stack`: a (B, n, m) stack of
problems against one target histogram, one histogram against many as in
Cuturi 2013, "Sinkhorn Distances", Alg. 1, with the matrix-vector products
of all problems made in one stacked call. The source is one histogram shared
by every problem, or one row per problem. A row's positive entries come
first and the zeros after them are padding, so sources of different sizes
share one stack. A padded row has zero mass, a ``-inf`` log-kernel row and
a scaling fixed at 1, so it adds exactly 0 to every column product and its
plan row stays exactly 0. The stack returns one :class:`SinkhornResult`,
with (B,) values and (B, n, m) plans; indexing it gives one problem's
result. :func:`sinkhorn` is the stack of one. Every real histogram entry
must be positive. Validation and rounding run once per stack; relative
epsilon (the mean over the problem's real cells), potentials, iteration
counts and convergence are per problem, and a problem leaves the iterations
as soon as it meets the stopping rule. So in a stack without padding a
problem's result does not depend on what it is stacked with: it equals, to
the bit, the solve of its matrix alone. A padded problem's sums run over its
padded length, so its values can differ from its solve alone in their last
bits (within 1e-12 relative), with the same epsilon and, but for a gap that
lands within rounding of the tolerance, the same iteration count and
convergence.

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
instead, over real rows only. Either way the iterates are, in exact
arithmetic, those of log-domain Sinkhorn, so iteration counts and results
match it up to floating-point rounding. Iterations stop once both L1
marginal gaps are within the tolerance. The column gap is evaluated lazily:
right after the column half-step it is at rounding level, so it is read only
for problems whose row gap already meets the tolerance.
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

_HISTOGRAM_ATOL = 1e-9


def validate_histogram(weights) -> np.ndarray:
    """Check that ``weights`` is a strictly positive probability histogram and return it as float64.

    Entries must be finite, positive, and sum to 1 within ``_HISTOGRAM_ATOL``. A
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
    if abs(total - 1.0) > _HISTOGRAM_ATOL:
        raise ValueError(f"histogram sums to {total}, expected 1 within {_HISTOGRAM_ATOL}")
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
    # an overflow leaves inf or NaN entries for the solver's cost check to report once
    with np.errstate(over="ignore", invalid="ignore"):
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


def _log_domain_potential(
    log_kernel: np.ndarray, other_potential: np.ndarray, marginal: np.ndarray, side: int
) -> np.ndarray:
    """The potential of ``side`` that meets its marginal exactly, one log-sum-exp per row or column.

    A row half-step (side 0) reads only the real rows, those with positive
    mass, and leaves a padded row's potential at 0.
    """
    if side == 1:
        return np.log(marginal) - _logsumexp(log_kernel + other_potential[:, :, None], axis=1)
    real = marginal > 0
    potential = np.zeros(real.shape)
    potential[real] = np.log(marginal[real]) - _logsumexp((log_kernel + other_potential[:, None, :])[real], axis=1)
    return potential


def _scaling_iterations(
    log_kernel: np.ndarray, a: np.ndarray, b: np.ndarray, config: SinkhornConfig, real: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sinkhorn iterations on a (B, n, m) stack of problems with positive histograms.

    Returns the (B, n, m) plans and, per problem, the iterations used and
    whether it converged. ``a`` holds the (B, n) source rows, one per
    problem, and ``b`` is a (1, m) row. ``real`` is the (B, n) mask of real
    rows, or None when no row is padding; a padded row has zero mass, a
    ``-inf`` log-kernel row and a scaling held at 1. Problem k's iterate is
    ``u[k][:, None] * kernel[k] * v[k][None, :]`` with ``kernel[k] = exp(f[k]
    + log_kernel[k] + g[k])``, equal to the log-domain iterate ``exp(f + log
    u + log_kernel + g + log v)``. Side 0 is the rows (``a``, ``f``, ``u``),
    side 1 the columns (``b``, ``g``, ``v``); both half-steps run one rule,
    decided per problem. ``products`` holds ``kernel @ v`` and ``kernel.T @
    u``, so ``u * products[0]`` and ``v * products[1]`` are the iterates'
    marginals. A problem leaves the working arrays once it meets the stopping
    rule, so every problem's iterates are those it would have alone.
    """
    num, n, m = log_kernel.shape
    padded = real is not None
    plans = np.empty_like(log_kernel)
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    active = np.arange(num)  # stack index of each working problem
    potentials = [np.zeros((num, n)), np.zeros((num, m))]
    scalings = [np.ones((num, n)), np.ones((num, m))]
    kernel = np.exp(log_kernel)
    products = [_apply(kernel, scalings[1], 0), None]
    iteration = 0
    while True:
        iteration += 1
        for side, other in ((0, 1), (1, 0)):
            if side == 1:
                scaling = b / products[1]
            elif padded:
                # a padded row's 0 / 0 is never formed: its scaling stays 1
                scaling = np.divide(a, products[0], out=np.ones_like(products[0]), where=real)
            else:
                # the masked division's values, without its cost in every iteration
                scaling = a / products[0]
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
                    marginal = a[lost] if side == 0 else b
                    absorbed[~finite] = _log_domain_potential(log_kernel[lost], potentials[other][lost], marginal, side)
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
        a = a[keep]
        if padded:
            real = real[keep]


def _source_rows(source, num: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate the source of a stack of ``num`` problems.

    Returns the (num, n) source rows, one per problem, and the (num, n) mask
    of each problem's real rows, or None when no row is padding, so an
    unpadded stack skips every masked step. A 1-D source is one positive
    histogram shared by every problem. In (num, n) rows, a problem's real
    entries are its positive ones; they must come first and form a
    histogram, and the zeros after them are padding.
    """
    a = np.asarray(source, dtype=float)
    if a.ndim == 1:
        # a copy per problem: ufuncs run slower on a broadcast view's zero stride
        return np.repeat(validate_histogram(a)[None], num, axis=0), None
    if a.ndim != 2 or a.shape[0] != num or a.shape[1] == 0:
        raise ValueError(f"source must be a histogram or ({num}, n) rows, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("histogram contains non-finite entries")
    real = a > 0
    # a real entry after a padded one, or no real entry at all
    if np.any(a < 0) or not real[:, 0].all() or np.any(real[:, 1:] > real[:, :-1]):
        raise ValueError("each source row must be positive entries followed only by zero padding")
    totals = a.sum(axis=1)
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > _HISTOGRAM_ATOL:
        raise ValueError(f"histogram sums to {worst}, expected 1 within {_HISTOGRAM_ATOL}")
    return a, None if real.all() else real


def _stack_epsilon(config: SinkhornConfig, cost: np.ndarray, real: np.ndarray | None) -> np.ndarray:
    """The (B,) strengths of a stack whose problem k is the ``real[k]`` rows of ``cost[k]``."""
    if real is None:
        return config.effective_epsilon(cost)
    lengths = real.sum(axis=1)
    eps = np.empty(cost.shape[0])
    for length in np.unique(lengths):
        rows = lengths == length
        # a C-order copy of each problem's real rows: its mean is summed as its matrix alone
        eps[rows] = config.effective_epsilon(cost[rows, :length])
    return eps


def sinkhorn_stack(costs, source, target, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Solve a (B, n, m) stack of entropic OT problems against one target histogram.

    Problem k transports its source to ``target`` under ``costs[k]``.
    ``source`` is one length-n histogram shared by every problem, or (B, n)
    rows, one per problem. A row's positive entries must come first; the
    zeros after them are padding, so problem k is its first ``n_k`` rows:
    a padded cost row must be finite and is otherwise not read, and a padded
    plan row is exactly 0. The one returned :class:`SinkhornResult` holds
    (B,) values and (B, n, m) plans. Validation and rounding are those of
    :func:`sinkhorn`, done once for the stack; relative epsilon (over a
    problem's real cells), iteration counts and convergence are per problem.
    Without padding, ``[k]`` equals to the bit what :func:`sinkhorn` gives
    on ``costs[k]`` alone; with it, a problem's values match its real rows
    solved alone within 1e-12 relative, with the same epsilon.
    """
    if config is None:
        config = SinkhornConfig()
    # C order: on a strided view the same values solve to different last bits
    cost = np.ascontiguousarray(costs, dtype=float)
    if cost.ndim != 3 or cost.shape[0] == 0:
        raise ValueError(f"costs must be a non-empty (B, n, m) stack, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost contains NaN" if np.isnan(cost).any() else "cost entries must be finite")
    num = cost.shape[0]
    a, real = _source_rows(source, num)
    b = validate_histogram(target)[None]
    if cost.shape[1:] != (a.shape[1], b.size):
        raise ValueError(f"cost shape {cost.shape[1:]} does not match histogram lengths {(a.shape[1], b.size)}")

    eps = _stack_epsilon(config, cost, real)
    # overflow and underflow of a scaling are detected and repaired in the
    # iterations; underflow of negligible plan entries to zero is expected
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_kernel = cost / -eps[:, None, None]
        if real is not None:
            log_kernel[~real] = -np.inf
        plans, iterations, converged = _scaling_iterations(log_kernel, a, b, config, real)
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
