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
result; its ``reg_distance`` is computed when first read, so a caller that
reads only ``distance`` never takes the log of a plan. :func:`sinkhorn` is
the stack of one. Every real histogram entry
must be positive. Validation and rounding run once per stack; epsilon (by
the rule of :class:`SinkhornConfig`), potentials, iteration counts and
convergence are per problem, and a problem leaves the iterations
as soon as it meets the stopping rule. So in a stack without padding a
problem's result does not depend on what it is stacked with: it equals, to
the bit, the solve of its matrix alone. A padded problem's sums run over its
padded length, so its values can differ from its solve alone in their last
bits (within 1e-12 relative), with the same epsilon and, but for a gap that
lands within rounding of the tolerance or of a relaxation threshold (below),
the same iteration count and convergence.

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
instead, over real rows only. Iterations stop once both L1 marginal gaps
are within the tolerance.

Slow solves are over-relaxed (Thibault et al. 2021, "Overrelaxed
Sinkhorn-Knopp algorithm for regularized optimal transport"; Lehmann et al.
2022, "A note on overrelaxation in the Sinkhorn algorithm"), which keeps the
fixed point and cuts the iterations when plain Sinkhorn contracts slowly. A
problem still working after iteration 4, the first block end (below), whose
row gap fell by a factor of less than 2.5 in iteration 4 takes over-relaxed
half-steps from then on: the plain scaling ``s`` becomes
``s * sqrt(s / s_prev)``, with ``s_prev`` the scaling it replaces, so its
potential moves 3/2 of the way to the plain update, ``f + 3/2 (f_plain -
f)``; absorption and the log-domain step give the same relaxed value. It
goes back to plain steps for good at the first block end where its row gap
is more than 4 times that of the block end before; plain Sinkhorn converges
from any positive scaling. A solve that stops by iteration 4 never relaxes.
Either way the iterates are, in exact arithmetic, those of log-domain
Sinkhorn under the same rule, so iteration counts and results match it up
to floating-point rounding.

The range check, the stopping rule and the relaxation decisions are read a
block of iterations at a time; blocks end at iterations 4, 12, 20, ... A
block's iterations run with no check between them; then one pass over the
block finds, per problem, the first iteration that meets the rule and the
first scaling out of range. A problem that meets the rule first takes the
iterate of that iteration. Otherwise the problems still working go back to
the start of the first iteration with a scaling out of range and run it
half-step by half-step under the rule above. Each decision is made per
problem from its own row gaps at fixed iterations, so the plans, iteration
counts and convergence flags are, to the bit, those of checking every
half-step, and a problem's result still does not depend on its stack.

A small solve costs little more than its arithmetic: a step is two stacked
matrix-vector products and two divisions (three more calls per half-step
when relaxed) into buffers made once per working stack, a block's reading
is a few calls over all its steps, and the plan is built, rounded and
costed in place. Each of these computes what a plain numpy expression of
it would, to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
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


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a count setting that is not an integer (a bool is not one; numpy integers are) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be {'non-negative' if minimum == 0 else f'at least {minimum}'}, got {value}")


def _check_real(name: str, value, condition: str) -> None:
    """Reject a real setting that is not a number (a bool is not one) or is not ``condition``, one of the keys below."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    bounded_below = {"finite": value > -np.inf, "positive and finite": value > 0, "non-negative and finite": value >= 0}
    if not (bounded_below[condition] and value < np.inf):
        raise ValueError(f"{name} must be {condition}, got {value}")


def validate_histogram(weights) -> np.ndarray:
    """Check that ``weights`` is a strictly positive probability histogram and return it as float64.

    Entries must be finite, positive, and sum to 1 within ``_HISTOGRAM_ATOL``. A
    zero-weight atom carries no mass; drop it before building the histogram.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"histogram must be a non-empty 1-D array, got shape {w.shape}")
    # a positive minimum rules out NaN and -inf, and then a finite sum rules
    # out inf: a valid histogram takes two reductions
    lowest = w.min()
    total = float(w.sum()) if lowest > 0 else None
    if (total is None or not math.isfinite(total)) and not np.all(np.isfinite(w)):
        raise ValueError("histogram contains non-finite entries")
    if total is None:
        raise ValueError("histogram entries must be positive")
    if abs(total - 1.0) > _HISTOGRAM_ATOL:
        raise ValueError(f"histogram sums to {total}, expected 1 within {_HISTOGRAM_ATOL}")
    return w


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each column of a (d, n) array."""
    return np.einsum("dj,dj->j", points, points)


def _require_finite(x: np.ndarray, y: np.ndarray) -> None:
    """Reject point sets with a NaN or infinite coordinate."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("point coordinates must be finite")


def ground_cost_matrix(source_points, target_points, target_sq_norms=None) -> np.ndarray:
    """Pairwise squared Euclidean distances between two point sets.

    Both point arguments are (d, n) arrays with one point per column; the
    result has shape (n_source, n_target) with entry (i, j) equal to
    ``||source[:, i] - target[:, j]||^2``. A caller that keeps one target
    set may pass its squared column norms, as :func:`_squared_norms` gives
    them, as ``target_sq_norms``; they are then not recomputed.

    A coordinate that is not finite is a ``ValueError``. A NaN or infinite
    coordinate makes its point's squared norm, and each of its point's
    entries of the cost, NaN or infinite, so the coordinates are read for
    one only when a squared norm, or with given target norms an entry of the
    cost's first row, is not finite. Finite points whose squared distances
    overflow give inf or NaN entries, for the solver's cost check to report
    once.
    """
    x = np.asarray(source_points, dtype=float)
    y = np.asarray(target_points, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays with one point per column")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"point dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    given = target_sq_norms is not None
    if given and np.shape(target_sq_norms) != (y.shape[1],):
        _require_finite(x, y)
        raise ValueError(f"{np.shape(target_sq_norms)} target norms for {y.shape[1]} target points")
    with np.errstate(over="ignore", invalid="ignore"):
        sq_x = _squared_norms(x)
        sq_y = target_sq_norms if given else _squared_norms(y)
        # sq_x[:, None] + sq_y[None, :] - 2.0 * (x.T @ y), to the bit, in two
        # full-size arrays: the product, doubled and subtracted in place
        cost = x.T @ y
        cost *= 2.0
        np.subtract(np.add(sq_x[:, None], sq_y[None, :]), cost, out=cost)
    if not (np.isfinite(sq_x).all() and np.isfinite(sq_y).all()) or (
        given and not (cost.size and np.isfinite(cost[0]).all())
    ):
        _require_finite(x, y)
    # clip tiny negatives produced by cancellation between the three terms
    np.maximum(cost, 0.0, out=cost)
    return cost


@dataclass(frozen=True)
class SinkhornConfig:
    """Settings for the entropic solver.

    ``epsilon`` is the regularization strength. With ``relative=True`` (the
    default) a problem's strength is ``epsilon`` times the mean of its cost
    matrix's real cells (the rows of its positive source entries), or
    ``epsilon`` itself when that mean is 0, so behaviour does not depend on
    the scale of the input geometry; with ``relative=False`` it is
    ``epsilon`` verbatim. ``tolerance`` bounds the L1 marginal violation at
    which iterations stop.
    """

    epsilon: float = 0.1
    relative: bool = True
    max_iters: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        _check_real("epsilon", self.epsilon, "positive and finite")
        if not isinstance(self.relative, bool):
            raise ValueError(f"relative must be a bool, got {self.relative!r}")
        _check_count("max_iters", self.max_iters, 1)
        _check_real("tolerance", self.tolerance, "positive and finite")


@dataclass(frozen=True)
class SinkhornResult:
    """Solution of one entropic transport problem, or of a stack of them.

    ``distance`` is the transport cost ``<plan, cost>`` of the rounded plan
    with the entropy term excluded. ``reg_distance`` is the full regularized
    objective ``<plan, cost> + epsilon * sum(plan * (log plan - 1))``; by the
    envelope theorem its gradient with respect to the cost matrix is exactly
    the plan, so it is the value the training loop differentiates. It is
    computed from the other fields when first read, then kept.

    From :func:`sinkhorn_stack` every value field is a (B,) array and
    ``plan`` a (B, n, m) array; ``result[k]`` is problem k's result, with
    Python scalars and an (n, m) plan, as :func:`sinkhorn` returns it.
    """

    distance: float | np.ndarray
    plan: np.ndarray
    iterations_used: int | np.ndarray
    converged: bool | np.ndarray
    epsilon: float | np.ndarray

    @functools.cached_property
    def reg_distance(self) -> float | np.ndarray:
        stacked = self.plan.ndim == 3
        plans = self.plan if stacked else self.plan[None]
        num = plans.shape[0]
        # as in the solve: an extreme cost scale overflows to inf without a warning
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            # plan * log(plan), in one buffer; a zero entry adds 0 * log(tiny) = 0
            terms = np.maximum(plans, _TINY)
            np.log(terms, out=terms)
            terms *= plans
            mass = plans.reshape(num, -1).sum(axis=1)
            entropy_terms = terms.reshape(num, -1).sum(axis=1) - mass
            if stacked:
                return self.distance + self.epsilon * entropy_terms
            return float(self.distance + self.epsilon * entropy_terms[0])

    def __getitem__(self, k: int) -> SinkhornResult:
        return SinkhornResult(
            float(self.distance[k]), self.plan[k], int(self.iterations_used[k]),
            bool(self.converged[k]), float(self.epsilon[k]),
        )


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(values, axis=axis, keepdims=True)
    return np.squeeze(peak, axis=axis) + np.log(np.sum(np.exp(values - peak), axis=axis))


def _round_to_marginals(
    plan: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Project a positive matrix, or each of a (B, n, m) stack, onto the transportation polytope, in place.

    Scales rows then columns down to their prescribed sums and distributes
    the leftover mass as a rank-one correction, so the returned matrix,
    ``plan`` itself, meets both marginals up to floating-point error
    regardless of how early the iterations stopped. The correction is formed
    in ``scratch``, an array of ``plan``'s shape whose values are not read,
    or in a new one when it is None.
    """
    # row and column sums as products with ones, which BLAS runs faster than
    # sum(); each row, then each column, shrinks by min(sums / max(its sum, tiny), 1)
    ones_n, ones_m = np.ones(plan.shape[-2]), np.ones(plan.shape[-1])
    factor = plan @ ones_m
    np.maximum(factor, _TINY, out=factor)
    np.divide(row_sums, factor, out=factor)
    plan *= np.minimum(factor, 1.0, out=factor)[..., :, None]
    factor = ones_n @ plan
    np.maximum(factor, _TINY, out=factor)
    np.divide(col_sums, factor, out=factor)
    # after the iterations' last (column) half-step and the row scaling, the
    # columns rarely exceed their sums, and scaling by exactly 1 is no change
    if not np.minimum(factor, 1.0, out=factor).min() == 1.0:
        plan *= factor[..., None, :]
    missing_row = plan @ ones_m
    np.maximum(np.subtract(row_sums, missing_row, out=missing_row), 0.0, out=missing_row)
    missing_col = ones_n @ plan
    np.maximum(np.subtract(col_sums, missing_col, out=missing_col), 0.0, out=missing_col)
    deficit = missing_row.sum(axis=-1, keepdims=True)
    share = np.divide(missing_col, deficit, out=np.zeros_like(missing_col), where=deficit > _TINY)
    # missing_row[i] * share[j]: einsum forms each product as multiply does,
    # in one pass that runs faster on broadcast operands
    plan += np.einsum("...i,...j->...ij", missing_row, share, out=scratch)
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


def _absorb(
    side: int,
    scalings: list,
    product: np.ndarray,
    potentials: list,
    kernel: np.ndarray,
    log_kernel: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    previous: np.ndarray,
    relaxed: np.ndarray | None,
) -> None:
    """Repair, in place, each problem whose new half-step scaling ``scalings[side]`` is out of range.

    Both of its scalings are absorbed into the potentials and restart at 1,
    and its kernel is rebuilt and its ``product`` (``kernel @ v`` on side 0,
    ``kernel.T @ u`` on side 1) recomputed; a scaling with no finite log is
    redone as a log-domain half-step instead. ``previous`` is the scaling
    the new one replaces and ``relaxed`` the (B,) mask of over-relaxed
    problems, or None before any can relax: a relaxed log-domain half-step
    moves its potential ``_OMEGA`` times the way to the plain one.
    """
    scaling, other = scalings[side], 1 - side
    # NaN-safe: a NaN entry fails both comparisons
    if scaling.min() >= _SCALING_LOW and scaling.max() <= _SCALING_HIGH:
        return
    hit = ~((scaling.min(axis=1) >= _SCALING_LOW) & (scaling.max(axis=1) <= _SCALING_HIGH))
    potentials[other][hit] += np.log(scalings[other][hit])
    out = scaling[hit]
    finite = np.all(np.isfinite(out), axis=1) & (out.min(axis=1) > 0)
    absorbed = potentials[side][hit]
    absorbed[finite] += np.log(out[finite])
    if not finite.all():
        lost = np.flatnonzero(hit)[~finite]
        marginal = a[lost] if side == 0 else b
        potential = _log_domain_potential(log_kernel[lost], potentials[other][lost], marginal, side)
        if relaxed is not None and relaxed[lost].any():
            pick = relaxed[lost]
            start = absorbed[~finite][pick] + np.log(previous[lost[pick]])
            potential[pick] = start + _OMEGA * (potential[pick] - start)
        absorbed[~finite] = potential
    potentials[side][hit] = absorbed
    kernel[hit] = _absorbed_kernel(log_kernel[hit], potentials[0][hit], potentials[1][hit])
    scaling[hit] = 1.0
    scalings[other][hit] = 1.0
    product[hit] = _apply(kernel[hit], scalings[other][hit], side)


def _relax(scaling: np.ndarray, previous: np.ndarray, plain: np.ndarray | None, ratio: np.ndarray) -> None:
    """Over-relax, in place, the new half-step scalings of the relaxed problems.

    ``scaling`` holds the plain scalings (``a / (K @ v)`` or ``b / (K.T @
    u)``) and ``previous`` those they replace; a relaxed problem's becomes
    ``scaling * (scaling / previous) ** (_OMEGA - 1)``, its potential
    ``f + _OMEGA * (f_plain - f)``. Rows of the (B,) mask ``plain``, or none
    when it is None, keep the plain scaling, to the bit. ``ratio``, of
    ``scaling``'s shape, holds the factor.
    """
    np.divide(scaling, previous, out=ratio)
    # numpy takes the power 1/2 (omega 3/2) as a square root, not a pow call
    ratio **= _OMEGA - 1
    if plain is not None:
        ratio[plain] = 1.0
    scaling *= ratio


# Iterations run in blocks of this many steps with no check between them; the
# first block of a solve is half as long, so blocks end at iterations 4, 12,
# 20, ... A block cut short by a scaling out of range still ends there. A
# longer block pays for fewer checks but for more steps past a problem's
# stopping point. On one-thread raw-WMD k-NN solves (about 50 iterations
# each) 8 timed within 2% of the fastest of 4 to 16, and ahead of 16 on
# 40-problem training stacks. The shorter first block serves solves that stop
# within a few iterations, as eval's against a trained model do (3 or 4).
# The relaxation rule below reads its gaps at block ends, so this length is
# also part of what a solve computes.
_BLOCK = 8

# Over-relaxation (Thibault et al. 2021, "Overrelaxed Sinkhorn-Knopp algorithm
# for regularized optimal transport"; Lehmann et al. 2022, "A note on
# overrelaxation in the Sinkhorn algorithm"). At the end of iteration
# _RELAX_AT, the first block end, a problem still working whose row gap is at
# least _RELAX_RATE times that of iteration _RELAX_AT - 1 takes over-relaxed
# half-steps, by _OMEGA, from then on. At each later block end a relaxed
# problem whose row gap grew more than _GUARD times since the previous block
# end goes back to plain half-steps for good. On the 400 seed-1 raw-WMD k-NN
# benchmark solves this takes a mean of 19.7 iterations, against 49.4 plain
# and 24.4 when the decision waits for iteration 12 and reads the fall since
# iteration 5; the benchmark's eval solves take as many iterations as under
# that later decision, its training solves no more.
_OMEGA = 1.5
_RELAX_AT = 4
_RELAX_RATE = 0.4
_GUARD = 4.0


def _relaxation_masks(relaxed: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Whether any working problem is over-relaxed, and the mask for :func:`_relax` of those that are not.

    The mask is None unless some but not all are relaxed.
    """
    relaxing = bool(relaxed.any())
    return relaxing, ~relaxed if relaxing and not relaxed.all() else None


def _block_end(iteration: int) -> int:
    """The last iteration of the block that runs iteration ``iteration + 1``."""
    first = _BLOCK // 2
    return first if iteration < first else iteration + _BLOCK - (iteration - first) % _BLOCK


class _BlockBuffers:
    """The state of ``count`` working problems and their scalings and kernel products over one block.

    Slot 0 holds the state a block starts from, slot s + 1 what step s
    makes. ``scaled`` holds ``u | v``, one (count, n + m) row per slot, so
    that one min and max read every scaling; ``us`` and ``vs`` are its parts,
    and ``kvs`` and ``ktus`` hold ``kernel @ v`` and ``kernel.T @ u``.
    ``slots[s]`` holds slot s's views of the four, made once, as (count, n,
    1) or (count, m, 1) columns, the shape the stacked products take and
    give. A padded row's ``u`` is 1 in every slot, and no step writes it.
    """

    def __init__(self, count: int, n: int, m: int, padded: bool):
        self.scaled = (np.ones if padded else np.empty)((_BLOCK + 1, count, n + m))
        self.us, self.vs = self.scaled[..., :n], self.scaled[..., n:]
        self.kvs, self.ktus = np.empty((_BLOCK + 1, count, n)), np.empty((_BLOCK + 1, count, m))
        columns = (self.us[..., None], self.vs[..., None], self.kvs[..., None], self.ktus[..., None])
        self.slots = list(zip(*(list(array) for array in columns)))

    def carry(self, slot: int) -> None:
        """Make slot ``slot``'s state, copied into slot 0, the state the next block starts from."""
        self.scaled[0] = self.scaled[slot]
        self.kvs[0] = self.kvs[slot]


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
    side 1 the columns (``b``, ``g``, ``v``). ``kernel @ v`` and ``kernel.T
    @ u`` times ``u`` and ``v`` are the iterates' marginals. ``log_kernel``
    is only read.

    The iterations run in blocks that end at iterations 4, 12, 20, ... (see
    ``_BLOCK``) with no check between them; each step's ``u``, ``v``,
    ``kernel @ v`` and ``kernel.T @ u`` go into the block's buffers
    (:class:`_BlockBuffers`), made once per working stack. One min and max
    over all the block's scalings and one pass over its row gaps then read
    the block: a problem finishes at the first step that meets the stopping
    rule, with that step's iterate, and leaves the working arrays. If a
    scaling is out of range, the problems still working go back to the start
    of the first step that has one and run that step checked, each
    half-step's scaling repaired by :func:`_absorb` before it is used; the
    block then runs on to its end. Steps run past a problem's stopping point
    are dropped unread, so they never repair anything.

    A problem still working at the end of iteration ``_RELAX_AT`` whose row
    gap fell slowly in that iteration (to at least ``_RELAX_RATE`` times that
    of iteration ``_RELAX_AT - 1``) is over-relaxed from then on
    (:func:`_relax`), and goes back to plain steps at the first block end
    where its row gap is more than ``_GUARD`` times that of the block end
    before. Each of these is decided per problem from its own gaps at fixed
    iterations, so each problem gets the iterates, iteration count and
    convergence of checking every half-step, those it would have alone. A
    solve that stops by iteration ``_RELAX_AT`` never relaxes.
    """
    num, n, m = log_kernel.shape
    padded = real is not None
    plans = None  # made once a problem finishes before the others
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    active = np.arange(num)  # stack index of each working problem
    working_log_kernel = log_kernel  # log_kernel[active], taken when a repair first needs it
    potentials = [np.zeros((num, n)), np.zeros((num, m))]
    kernel = np.exp(log_kernel)
    kernel_t = kernel.transpose(0, 2, 1)  # kernel.T @ u as a column, to the bit u @ kernel
    # every scaling and product is a column, as are a_col and b_col; the
    # state starts at u = v = 1
    a_col, b_col = a[:, :, None], b[:, :, None]
    real_col = real[:, :, None] if padded else None
    block = _BlockBuffers(num, n, m, padded)
    u, v, kv, _ = block.slots[0]
    u[...], v[...] = 1.0, 1.0
    np.matmul(kernel, v, out=kv)
    terms = np.empty((_BLOCK, num, n))  # the row gaps' terms of a block
    ratios = None  # the over-relaxation factors of a half-step
    # per problem: whether it is over-relaxed, set at the end of iteration
    # _RELAX_AT, and the row gap its next relaxation decision compares with,
    # set at iteration _RELAX_AT - 1; a stack whose solves stop before then
    # never reads either. plain masks the problems that are not
    # relaxed while others are, or is None
    relaxed = marked = plain = None
    relaxing = False
    iteration = 0
    checked = False  # whether the next block is one step, checked half-step by half-step
    while True:
        steps = 1 if checked else min(_block_end(iteration), config.max_iters) - iteration
        if relaxing and ratios is None:
            ratios = np.empty((active.size, n, 1)), np.empty((active.size, m, 1))
        if checked and working_log_kernel is None:
            working_log_kernel = log_kernel[active]
        made = slice(1, steps + 1)  # the slots this block's steps write
        us, vs, kvs, ktus = block.us[made], block.vs[made], block.kvs[made], block.ktus[made]
        # an unchecked step may run on from a scaling that the check rejects
        with np.errstate(invalid=None if checked else "ignore"):
            for (step_u, step_v, step_kv, _), (u_s, v_s, kv_s, ktu_s) in zip(block.slots, block.slots[made]):
                if padded:
                    np.divide(a_col, step_kv, out=u_s, where=real_col)
                else:
                    np.divide(a_col, step_kv, out=u_s)
                if relaxing:
                    _relax(u_s, step_u, plain, ratios[0])
                if checked:
                    _absorb(0, [u_s[..., 0], step_v[..., 0]], step_kv[..., 0], potentials, kernel, working_log_kernel,
                            a, b, step_u[..., 0], relaxed)
                np.matmul(kernel_t, u_s, out=ktu_s)
                np.divide(b_col, ktu_s, out=v_s)
                if relaxing:
                    _relax(v_s, step_v, plain, ratios[1])
                if checked:
                    _absorb(1, [u_s[..., 0], v_s[..., 0]], ktu_s[..., 0], potentials, kernel, working_log_kernel,
                            a, b, step_v[..., 0], relaxed)
                np.matmul(kernel, v_s, out=kv_s)
            # the stopping rule: L1 gaps <= tolerance on both sides; the column
            # gap, at rounding level after a plain column half-step, is read
            # only once some row gap meets it
            row_terms = terms[:steps]
            np.multiply(us, kvs, out=row_terms)
            np.subtract(row_terms, a, out=row_terms)
            gaps = np.abs(row_terms, out=row_terms).sum(axis=2)
            # fmin passes over NaN gaps, which meet nothing
            some_met = np.fmin.reduce(gaps, axis=None) <= config.tolerance
            met = None  # per step and problem: the stopping rule met, once read
            if some_met:
                met = gaps <= config.tolerance
                met &= np.abs(vs * ktus - b).sum(axis=2) <= config.tolerance
            clean = None  # per step and problem: every scaling up to here in range
            scaled = block.scaled[made]
            if not (scaled.min() >= _SCALING_LOW and scaled.max() <= _SCALING_HIGH):
                clean = np.logical_and.accumulate(
                    (scaled.min(axis=2) >= _SCALING_LOW) & (scaled.max(axis=2) <= _SCALING_HIGH), axis=0
                )
        # a block where no gap met the rule, no scaling left its range and
        # max_iters is not reached decides nothing but the relaxation
        last = iteration + steps == config.max_iters
        done = None
        if some_met or clean is not None or last:
            if met is None:
                met = np.zeros(gaps.shape, dtype=bool)
            if clean is not None:
                met &= clean
            stopped = met.any(axis=0)
            done = stopped | (True if clean is None else clean[-1]) if last else stopped
        finishing = done is not None and done.any()
        if finishing:
            pick = np.flatnonzero(done)
            at = np.where(stopped, met.argmax(axis=0), steps - 1)[pick]
            finished = active[pick]
            iterations[finished] = iteration + 1 + at
            converged[finished] = stopped[pick]
            whole = pick.size == active.size
            # the iterate u * kernel * v, built in the working kernel when no
            # problem goes on, else in a copy of its finished problems' part
            plan = kernel if whole else kernel[pick]
            plan *= us[at, pick][:, :, None]
            plan *= vs[at, pick][:, None, :]
            if finished.size == num:
                # no problem froze earlier: the working stack is the whole stack
                return plan, iterations, converged
            if plans is None:
                plans = np.empty_like(log_kernel)
            plans[finished] = plan
            if whole:
                return plans, iterations, converged
        # go on after the block, or from the start of its first step with a
        # scaling out of range in a problem still working
        resume, checked = steps, False
        if clean is not None:
            keep = ~done
            if not clean[-1, keep].all():
                resume, checked = int(np.argmin(clean[:, keep].all(axis=1))), True
        if resume > 0:
            block.carry(resume)
            # the relaxation decisions, read off the steps kept
            reached = iteration + resume
            if iteration < _RELAX_AT - 1 <= reached:
                marked = gaps[_RELAX_AT - 2 - iteration]
            if reached >= _RELAX_AT and _block_end(reached - 1) == reached:
                gap = gaps[resume - 1]
                if reached == _RELAX_AT:
                    relaxed = gap >= _RELAX_RATE * marked
                else:
                    relaxed &= ~(gap > _GUARD * marked)
                marked = gap
                relaxing, plain = _relaxation_masks(relaxed)
        iteration += resume
        if finishing:
            keep = ~done
            active = active[keep]
            working_log_kernel = None
            kernel = kernel[keep]
            kernel_t = kernel.transpose(0, 2, 1)
            potentials = [potential[keep] for potential in potentials]
            kept = _BlockBuffers(active.size, n, m, padded)
            kept.scaled[0], kept.kvs[0] = block.scaled[0][keep], block.kvs[0][keep]
            block = kept
            terms = np.empty((_BLOCK, active.size, n))
            ratios = None
            if marked is not None:
                marked = marked[keep]
            if relaxed is not None:
                relaxed = relaxed[keep]
                relaxing, plain = _relaxation_masks(relaxed)
            a = a[keep]
            a_col = a[:, :, None]
            if padded:
                real = real[keep]
                real_col = real[:, :, None]


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
    # as for one histogram: a minimum of at least 0 rules out NaN and -inf,
    # and then finite sums rule out inf
    lowest = a.min()
    totals = a.sum(axis=1) if lowest >= 0 else None
    if (totals is None or not np.isfinite(totals).all()) and not np.all(np.isfinite(a)):
        raise ValueError("histogram contains non-finite entries")
    real = a > 0
    # a real entry after a padded one, or no real entry at all
    if lowest < 0 or not real[:, 0].all() or np.any(real[:, 1:] > real[:, :-1]):
        raise ValueError("each source row must be positive entries followed only by zero padding")
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > _HISTOGRAM_ATOL:
        raise ValueError(f"histogram sums to {worst}, expected 1 within {_HISTOGRAM_ATOL}")
    return a, None if real.all() else real


def _stack_epsilon(config: SinkhornConfig, cost: np.ndarray, real: np.ndarray | None) -> np.ndarray:
    """The (B,) strengths of a stack whose problem k is the ``real[k]`` rows of ``cost[k]``.

    This is the rule of :class:`SinkhornConfig`. A problem's mean is the sum
    of its real rows' cells, the first ``n_k * m`` of ``cost[k]`` in C order,
    over their count, as ``np.mean`` divides it: one sum per run of problems
    of the same length, over a view of those cells, has the bits of the sum
    over a copy of them.
    """
    num, n, m = cost.shape
    if not config.relative:
        return np.full(num, config.epsilon)
    cells = cost.reshape(num, n * m)
    if real is None:
        totals, counts = np.add.reduce(cells, axis=1), n * m
    else:
        lengths = real.sum(axis=1)
        totals, counts = np.empty(num), lengths * m
        bounds = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), num]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            totals[start:stop] = np.add.reduce(cells[start:stop, : counts[start]], axis=1)
    mean = totals / counts
    return np.where(mean > 0, config.epsilon * mean, config.epsilon)


def sinkhorn_stack(costs, source, target, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Solve a (B, n, m) stack of entropic OT problems against one target histogram.

    Problem k transports its source to ``target`` under ``costs[k]``.
    ``source`` is one length-n histogram shared by every problem, or (B, n)
    rows, one per problem. A row's positive entries must come first; the
    zeros after them are padding, so problem k is its first ``n_k`` rows:
    a padded cost row must be finite and is otherwise not read, and a padded
    plan row is exactly 0. The one returned :class:`SinkhornResult` holds
    (B,) values and (B, n, m) plans. Validation and rounding are those of
    :func:`sinkhorn`, done once for the stack; epsilon (by the rule of
    :class:`SinkhornConfig`), iteration counts and convergence are per problem.
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
        # the iterations' plans are fresh arrays, rounded in place; the
        # log-kernels are not read again, and their buffer takes the
        # rounding's correction, then the products summed into distances
        plans = _round_to_marginals(plans, a, b, log_kernel)
        distances = np.multiply(plans, cost, out=log_kernel).reshape(num, -1).sum(axis=1)
    return SinkhornResult(distance=distances, plan=plans, iterations_used=iterations, converged=converged, epsilon=eps)


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
