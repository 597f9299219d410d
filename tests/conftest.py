import itertools
import shutil
import tempfile

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_configure(config):
    """Keep hypothesis's on-disk caches, written from collection on, out of the checkout."""
    from hypothesis.configuration import set_hypothesis_home_dir

    storage = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(storage)
    config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))


def lp_transport_value(cost: np.ndarray, source: np.ndarray, target: np.ndarray) -> float:
    """Exact transport LP value via scipy's HiGHS solver (test oracle)."""
    from scipy.optimize import linprog

    n, m = cost.shape
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(source[i])
    for j in range(m - 1):  # last column constraint is redundant
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(target[j])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def exact_ot_uniform(cost) -> float:
    """Exact OT value for uniform equal-size marginals by enumeration (test oracle).

    With both marginals uniform over n atoms the optimum of the transport LP
    is attained at a permutation, so the value is the minimum over all n!
    permutations of the mean assigned cost. Refuses n > 8.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    n = c.shape[0]
    if n > 8:
        raise ValueError(f"n={n} exceeds the n<=8 enumeration limit")
    rows = np.arange(n)
    best = min(float(c[rows, perm].sum()) for perm in itertools.permutations(range(n)))
    return best / n


def log_domain_sinkhorn(cost, source, target, config=None):
    """Sinkhorn with every iteration in the log domain (test oracle for ``ot.sinkhorn``).

    Three n×m exp passes per iteration: two log-sum-exp updates of the dual
    potentials and the plan whose marginals are checked. Rounding and the
    reported values follow ``ot.sinkhorn``.
    """
    from anchorwmd.ot import SinkhornConfig, SinkhornResult, _logsumexp, _round_to_marginals

    if config is None:
        config = SinkhornConfig()
    cost = np.asarray(cost, dtype=float)
    a = np.asarray(source, dtype=float)
    b = np.asarray(target, dtype=float)

    eps = config.effective_epsilon(cost)
    log_kernel = -cost / eps
    log_a = np.log(a)
    log_b = np.log(b)
    u = np.zeros(a.size)
    v = np.zeros(b.size)
    converged = False
    iterations = 0
    with np.errstate(under="ignore"):
        for iterations in range(1, config.max_iters + 1):
            u = log_a - _logsumexp(log_kernel + v[None, :], axis=1)
            v = log_b - _logsumexp(log_kernel + u[:, None], axis=0)
            plan = np.exp(u[:, None] + log_kernel + v[None, :])
            row_gap = float(np.abs(plan.sum(axis=1) - a).sum())
            col_gap = float(np.abs(plan.sum(axis=0) - b).sum())
            if max(row_gap, col_gap) <= config.tolerance:
                converged = True
                break
        plan = _round_to_marginals(plan, a, b)

    distance = float(np.sum(plan * cost))
    positive = plan[plan > 0]
    entropy_term = float(np.sum(positive * np.log(positive)) - plan.sum())
    return SinkhornResult(
        distance=distance,
        plan=plan,
        iterations_used=iterations,
        converged=converged,
        reg_distance=distance + eps * entropy_term,
        epsilon=eps,
    )


def multiset_kmeans_centroids(points, k, rng, max_iters=50, restarts=None):
    """Lloyd's algorithm over every row of ``points`` (test oracle for ``model._kmeans_centroids``).

    Repeated rows are kept and each cluster mean is taken over its member
    rows one cluster at a time. Initial centroids are distinct rows (in
    ``np.unique`` order) drawn without replacement; with fewer than ``k``
    distinct rows they are duplicated with a small seeded jitter. Empty
    clusters restart at the first point farthest from its centroid; each
    restart appends its cluster index to the ``restarts`` list when one is given.
    """
    points = np.asarray(points, dtype=float)
    distinct = np.unique(points, axis=0)
    if distinct.shape[0] < k:
        reps = -(-k // distinct.shape[0])  # ceil
        base = np.tile(distinct, (reps, 1))[:k]
        return base + 1e-4 * rng.standard_normal(base.shape)

    start = rng.choice(distinct.shape[0], size=k, replace=False)
    centroids = distinct[start].copy()
    sq_pts = np.einsum("nd,nd->n", points, points)
    for _ in range(max_iters):
        sq_cent = np.einsum("kd,kd->k", centroids, centroids)
        dist2 = sq_pts[:, None] + sq_cent[None, :] - 2.0 * (points @ centroids.T)
        assign = dist2.argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        own_dist = dist2[np.arange(points.shape[0]), assign]
        for j in range(k):
            members = points[assign == j]
            if members.shape[0]:
                new_centroids[j] = members.mean(axis=0)
            else:
                new_centroids[j] = points[own_dist.argmax()]
                if restarts is not None:
                    restarts.append(j)
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids
