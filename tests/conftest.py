import itertools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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
