import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

# one profile for every property test: reproducible examples, no example
# database and no per-example deadline on a slow or shared host;
# ANCHORWMD_HYPOTHESIS_PROFILE=thorough runs ten times the examples
settings.register_profile("anchorwmd", derandomize=True, database=None, deadline=None)
settings.register_profile("thorough", settings.get_profile("anchorwmd"), max_examples=1000)
settings.load_profile(os.environ.get("ANCHORWMD_HYPOTHESIS_PROFILE", "anchorwmd"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_configure(config):
    """Keep hypothesis's other on-disk caches, written from collection on, out of the checkout."""
    from hypothesis.configuration import set_hypothesis_home_dir

    storage = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(storage)
    config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))


def reference_load_word_vectors(path: str):
    """Line-by-line vector-file parser (test oracle for ``data.load_word_vectors``).

    Splits each line with ``str.split``, fixes the dimension from the first
    line, skips duplicate tokens unread and converts every value with
    ``float``. Malformed lines raise ``ParseError`` with their line number.
    """
    import logging

    from anchorwmd.data import ParseError, WordVectorTable, _vocab_digest

    tokens: list[str] = []
    index: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    duplicates = 0
    dim = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token = parts[0]
            if dim is None:
                dim = len(parts) - 1
                if dim < 1:
                    raise ParseError(f"{path}:{lineno}: no vector values on first line")
            elif len(parts) - 1 != dim:
                raise ParseError(f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
            if token in index:
                duplicates += 1
                continue
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=float)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            index[token] = len(tokens)
            tokens.append(token)
            vectors.append(vec)
    if duplicates:
        logging.getLogger("anchorwmd.data").warning(
            "%s: ignored %d duplicate tokens (first occurrence kept)", path, duplicates
        )
    matrix = np.vstack(vectors) if vectors else np.zeros((0, 0))
    return WordVectorTable(index=index, matrix=matrix, vocab_hash=_vocab_digest(tokens, dim if dim is not None else 0))


_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def _reference_tokens(text: str) -> list[str]:
    """Character-by-character tokenizer: lowercase, runs of ASCII letters and digits, at least
    two characters and not all digits."""
    tokens, run = [], ""
    for ch in text.lower() + " ":
        if ch in _TOKEN_CHARS:
            run += ch
            continue
        if len(run) >= 2 and not all(c in "0123456789" for c in run):
            tokens.append(run)
        run = ""
    return tokens


def _reference_text(path: str) -> str:
    """A whole file decoded as UTF-8 with an optional leading byte-order mark; a decode error names the file."""
    from anchorwmd.data import ParseError

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def reference_load_corpus(path: str, fmt: str):
    r"""Corpus reader over whole decoded files (test oracle for ``data.load_corpus``).

    ``lines``: the text is cut at every ``\r\n``, ``\r`` or ``\n``; lines
    of whitespace only are skipped, and every other line needs a tab, with a
    label before the first one that is not blank once stripped. ``dirs``:
    each subdirectory of ``path``, in name order, is a class, and each of its
    ``.txt`` files, in name order, a document. Class names are every label
    read, documents without a surviving token are dropped with a warning,
    and a corpus left without documents is a ``ParseError``.
    """
    import logging
    import os
    import re
    from collections import Counter

    from anchorwmd.data import Corpus, Document, ParseError

    rows = []
    if fmt == "lines":
        base = os.path.basename(path)
        for lineno, line in enumerate(re.split("\r\n|\r|\n", _reference_text(path)), 1):
            if all(ch.isspace() for ch in line):
                continue
            if "\t" not in line:
                raise ParseError(f"{path}:{lineno}: expected '<label><TAB><text>'")
            tab = line.index("\t")
            label = line[:tab].strip()
            if not label:
                raise ParseError(f"{path}:{lineno}: empty label")
            rows.append((label, f"{base}:{lineno}", line[tab + 1 :]))
    else:
        class_dirs = [name for name in sorted(os.listdir(path)) if os.path.isdir(os.path.join(path, name))]
        if not class_dirs:
            raise ParseError(f"{path}: no class subdirectories found")
        for name in class_dirs:
            for fname in sorted(os.listdir(os.path.join(path, name))):
                if fname.endswith(".txt"):
                    rows.append((name, f"{name}/{fname}", _reference_text(os.path.join(path, name, fname))))

    class_names = sorted({label for label, _, _ in rows})
    log = logging.getLogger("anchorwmd.data")
    documents = []
    for label, doc_id, text in rows:
        counts = Counter(_reference_tokens(text))
        if counts:
            documents.append(Document(doc_id=doc_id, label=class_names.index(label), counts=dict(counts)))
        else:
            log.warning("dropping %s: no tokens survive filtering", doc_id)
    if len(documents) < len(rows):
        log.warning("dropped %d empty documents from %s", len(rows) - len(documents), path)
    if not documents:
        raise ParseError(f"{path}: corpus contains no non-empty documents")
    return Corpus(documents=documents, class_names=class_names)


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


@dataclass(frozen=True)
class LogDomainResult:
    """The fields of ``ot.SinkhornResult``, ``reg_distance`` given, not derived.

    Scalars and an (n, m) plan for one problem, or (B,) values and (B, n, m)
    plans for a stack.
    """

    distance: float
    plan: np.ndarray
    iterations_used: int
    converged: bool
    reg_distance: float
    epsilon: float


def _relaxation_step(relaxed, marked, gap, iteration):
    """The relaxation decisions after ``iteration``: the (new) relaxed mask and marked row gaps.

    The row gap of iteration ``ot._RELAX_AT - ot._BLOCK + 1`` is marked; at
    iteration ``ot._RELAX_AT`` a problem relaxes when its gap fell by a
    factor of at most ``1 / ot._RELAX_RATE`` per iteration since; every
    ``ot._BLOCK`` iterations after that a relaxed problem whose gap grew
    more than ``ot._GUARD`` times since the last mark goes back to plain
    steps for good, and its gap is marked again.
    """
    from anchorwmd import ot

    if iteration == ot._RELAX_AT - ot._BLOCK + 1:
        return relaxed, gap
    if iteration == ot._RELAX_AT:
        return gap >= marked * ot._RELAX_RATE ** (ot._BLOCK - 1), gap
    if iteration > ot._RELAX_AT and (iteration - ot._RELAX_AT) % ot._BLOCK == 0:
        return relaxed & ~(gap > ot._GUARD * marked), gap
    return relaxed, marked


def log_domain_sinkhorn(cost, source, target, config=None, relax=True):
    """Sinkhorn with every iteration in the log domain (test oracle for ``ot.sinkhorn``).

    Three n×m exp passes per iteration: two log-sum-exp updates of the dual
    potentials and the plan whose marginals are checked. With ``relax``, the
    solver's over-relaxation rule decides after each iteration from the row
    gap whether the next half-steps move each potential ``ot._OMEGA`` times
    the way to its plain update. Rounding and the reported values follow
    ``ot.sinkhorn``; the entropy of ``reg_distance`` is its own sum over the
    plan's positive entries.
    """
    from anchorwmd import ot
    from anchorwmd.ot import SinkhornConfig, _logsumexp, _round_to_marginals

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
    relaxed, marked = np.zeros(1, dtype=bool), np.zeros(1)
    converged = False
    iterations = 0
    with np.errstate(under="ignore"):
        for iterations in range(1, config.max_iters + 1):
            u_plain = log_a - _logsumexp(log_kernel + v[None, :], axis=1)
            u = u + ot._OMEGA * (u_plain - u) if relaxed[0] else u_plain
            v_plain = log_b - _logsumexp(log_kernel + u[:, None], axis=0)
            v = v + ot._OMEGA * (v_plain - v) if relaxed[0] else v_plain
            plan = np.exp(u[:, None] + log_kernel + v[None, :])
            row_gap = float(np.abs(plan.sum(axis=1) - a).sum())
            col_gap = float(np.abs(plan.sum(axis=0) - b).sum())
            if max(row_gap, col_gap) <= config.tolerance:
                converged = True
                break
            if relax:
                relaxed, marked = _relaxation_step(relaxed, marked, np.array([row_gap]), iterations)
        plan = _round_to_marginals(plan, a, b)

    distance = float(np.sum(plan * cost))
    positive = plan[plan > 0]
    entropy_term = float(np.sum(positive * np.log(positive)) - plan.sum())
    return LogDomainResult(
        distance=distance,
        plan=plan,
        iterations_used=iterations,
        converged=converged,
        reg_distance=distance + eps * entropy_term,
        epsilon=eps,
    )


def reference_scaling_iterations(log_kernel, a, b, config, real, relax=True):
    """Sinkhorn iterations checked half-step by half-step (test oracle for ``ot._scaling_iterations``).

    Checks every half-step's scaling for the [1e-50, 1e50] range before using
    it, absorbing it or redoing it in the log domain when it fails, and reads
    the stopping rule after every iteration, where ``ot._scaling_iterations``
    reads both once per block of iterations. With ``relax``, the
    over-relaxation decisions of ``_relaxation_step`` are read after every
    iteration too, and a relaxed problem's half-step scaling ``s`` becomes
    ``s * (s / previous) ** (ot._OMEGA - 1)`` before its check; a relaxed
    log-domain half-step moves the potential ``ot._OMEGA`` times the way to
    the plain one. Arguments and returns are those of
    ``ot._scaling_iterations``. The helpers are looked up on the ``ot``
    module, so a test that counts ``ot._absorbed_kernel`` or
    ``ot._logsumexp`` calls counts this loop's calls too.
    """
    from anchorwmd import ot

    num, n, m = log_kernel.shape
    padded = real is not None
    plans = np.empty_like(log_kernel)
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    active = np.arange(num)  # stack index of each working problem
    potentials = [np.zeros((num, n)), np.zeros((num, m))]
    scalings = [np.ones((num, n)), np.ones((num, m))]
    kernel = np.exp(log_kernel)
    products = [ot._apply(kernel, scalings[1], 0), None]
    relaxed, marked = np.zeros(num, dtype=bool), np.zeros(num)
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
            previous = scalings[side]
            if relaxed.any():
                scaling[relaxed] = scaling[relaxed] * (scaling[relaxed] / previous[relaxed]) ** (ot._OMEGA - 1)
            # NaN-safe: a NaN entry fails both comparisons
            if not (scaling.min() >= ot._SCALING_LOW and scaling.max() <= ot._SCALING_HIGH):
                hit = ~((scaling.min(axis=1) >= ot._SCALING_LOW) & (scaling.max(axis=1) <= ot._SCALING_HIGH))
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
                    potential = ot._log_domain_potential(log_kernel[lost], potentials[other][lost], marginal, side)
                    pick = relaxed[lost]
                    start = absorbed[~finite][pick] + np.log(previous[lost[pick]])
                    potential[pick] = start + ot._OMEGA * (potential[pick] - start)
                    absorbed[~finite] = potential
                potentials[side][hit] = absorbed
                kernel[hit] = ot._absorbed_kernel(log_kernel[hit], potentials[0][hit], potentials[1][hit])
                scaling[hit] = 1.0
                scalings[other][hit] = 1.0
                products[side][hit] = ot._apply(kernel[hit], scalings[other][hit], side)
            scalings[side] = scaling
            products[other] = ot._apply(kernel, scaling, other)
        u, v = scalings
        # stop at L1 gaps <= tolerance on both sides; the column gap, at rounding
        # level right after a plain column half-step, is read only once the row gap is
        row_gap = np.abs(u * products[0] - a).sum(axis=1)
        if relax:
            relaxed, marked = _relaxation_step(relaxed, marked, row_gap, iteration)
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
        relaxed, marked = relaxed[keep], marked[keep]
        a = a[keep]
        if padded:
            real = real[keep]


def reference_round_to_marginals(plan, row_sums, col_sums):
    """Rounding onto the transportation polytope from broadcast products (test oracle for ``ot._round_to_marginals``).

    Scales each (B, n, m) plan's rows, then its columns, down to their sums
    and adds the rank-one correction ``missing_row * missing_col / deficit``;
    row and column sums are products with ones. Returns a new array.
    """
    ones_n, ones_m = np.ones(plan.shape[-2]), np.ones(plan.shape[-1])
    tiny = np.finfo(float).tiny
    plan = plan * np.minimum(row_sums / np.maximum(plan @ ones_m, tiny), 1.0)[..., :, None]
    plan = plan * np.minimum(col_sums / np.maximum(ones_n @ plan, tiny), 1.0)[..., None, :]
    missing_row = np.maximum(row_sums - plan @ ones_m, 0.0)
    missing_col = np.maximum(col_sums - ones_n @ plan, 0.0)
    deficit = missing_row.sum(axis=-1, keepdims=True)
    share = np.divide(missing_col, deficit, out=np.zeros_like(missing_col), where=deficit > tiny)
    return plan + missing_row[..., :, None] * share[..., None, :]


def reference_sinkhorn_stack(costs, source, target, config=None):
    """A whole stack solved on top of ``reference_scaling_iterations`` (test oracle for ``ot.sinkhorn_stack``).

    Takes valid inputs only and checks nothing. Problem k's relative epsilon
    is ``config.epsilon`` times the mean of a C-order copy of its real rows'
    costs (``config.epsilon`` itself when that mean is 0); its log-kernel is
    ``cost / -epsilon`` with ``-inf`` on padded rows. The reference
    iterations' plans are rounded by :func:`reference_round_to_marginals`,
    ``distance`` is the sum of ``plan * cost`` per problem and
    ``reg_distance`` :func:`eager_reg_distance`. Returns a
    :class:`LogDomainResult` of (B,) values and (B, n, m) plans.
    """
    from anchorwmd.ot import SinkhornConfig

    if config is None:
        config = SinkhornConfig()
    cost = np.ascontiguousarray(costs, dtype=float)
    num = cost.shape[0]
    rows = np.asarray(source, dtype=float)
    a = np.repeat(rows[None], num, axis=0) if rows.ndim == 1 else rows.copy()
    b = np.asarray(target, dtype=float)[None]
    real = a > 0
    eps = np.empty(num)
    for k, length in enumerate(real.sum(axis=1)):
        mean = cost[k, :length].copy().mean()
        eps[k] = config.epsilon * mean if config.relative and mean > 0 else config.epsilon
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_kernel = cost / -eps[:, None, None]
        log_kernel[~real] = -np.inf
        plans, iterations, converged = reference_scaling_iterations(
            log_kernel, a, b, config, None if real.all() else real
        )
        plans = reference_round_to_marginals(plans, a, b)
        distance = (plans * cost).reshape(num, -1).sum(axis=1)
    result = LogDomainResult(distance, plans, iterations, converged, None, eps)
    return LogDomainResult(distance, plans, iterations, converged, eager_reg_distance(result), eps)


def eager_reg_distance(result):
    """``reg_distance`` of a stacked ``ot.SinkhornResult``, computed here (test oracle for its lazy field).

    (B,) values ``distance + epsilon * (sum(plan * log(max(plan, tiny))) - sum(plan))``.
    """
    num = result.plan.shape[0]
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_plans = np.log(np.maximum(result.plan, np.finfo(float).tiny))
        mass = result.plan.reshape(num, -1).sum(axis=1)
        entropy_terms = (result.plan * log_plans).reshape(num, -1).sum(axis=1) - mass
        return result.distance + result.epsilon * entropy_terms


def reference_anchor_transport(model, docs, config=None):
    """Documents against every anchor, the stack built by scatter.

    The test oracle for ``model.anchor_cost_rows`` of the documents'
    supports side by side, then ``model.transport_cost_rows`` of each
    document's rows. Embeds with the transform product, takes the ground
    cost against a copy of the anchor columns with their norms recomputed,
    scatters each word's cost row into a zeroed padded stack by fancy
    indexing, solves it and computes ``reg_distance`` eagerly. Returns the
    stacked result and its (B,) ``reg_distance``.
    """
    from anchorwmd.model import _stack_rows, anchor_columns
    from anchorwmd.ot import ground_cost_matrix, sinkhorn_stack

    num_docs, num_classes, p = len(docs), model.num_classes, model.num_support_points
    sizes = [doc.size for doc in docs]
    n_max = max(sizes)
    embedded = model.transform @ np.concatenate([doc.support for doc in docs], axis=1)
    cost = ground_cost_matrix(embedded, anchor_columns(model.anchors).copy())
    doc_of_row, row = _stack_rows(sizes)
    stack = np.zeros((num_docs, num_classes, n_max, p))
    stack[doc_of_row, :, row] = cost.reshape(-1, num_classes, p)
    source = np.zeros((num_docs, n_max))
    source[doc_of_row, row] = np.concatenate([doc.weights for doc in docs])
    result = sinkhorn_stack(stack.reshape(-1, n_max, p), np.repeat(source, num_classes, axis=0), np.full(p, 1.0 / p), config)
    return result, eager_reg_distance(result)


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
