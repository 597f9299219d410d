"""Contrastive training of the transform and anchors over transport distances.

Each document is contrasted with every class anchor: the distance to its own
class should undercut the distances to the other classes. Gradients flow
through the entropic transport value via the envelope rule (the optimal plan
is the gradient of the regularized value with respect to the cost matrix)
composed with the analytic derivatives of the squared Euclidean cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _write_table
from .model import (
    AnchorModel,
    DistinctWords,
    DocumentMeasure,
    _ordered_map,
    _stack_rows,
    anchor_columns,
    anchor_cost_rows,
    distinct_words,
    init_anchors,
    transport_cost_rows,
)
from .ot import SinkhornConfig, _check_count, _check_real

__all__ = [
    "TrainConfig",
    "GradientBundle",
    "AdamState",
    "EpochStats",
    "batch_gradients",
    "adam_step",
    "train",
    "write_loss_history",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOSS_KINDS = ("triplet", "infonce")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for contrastive training.

    Defaults follow the reference configuration: margin 10 for the triplet
    loss, temperature 30 for the InfoNCE loss, Adam at learning rate 0.1,
    and an L2 penalty of 0.001 on the transform matrix.

    Epsilon is a stop-gradient: each step differentiates ``reg_distance``
    with epsilon held at the value the current costs give it (by the rule of
    :class:`~anchorwmd.ot.SinkhornConfig`), so the plan alone is the
    derivative of each value with respect to its costs.
    """

    loss_kind: str = "triplet"
    margin: float = 10.0
    temperature: float = 30.0
    learning_rate: float = 0.1
    l2_coeff: float = 0.001
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    anchor_points: int = 16
    threads: int = 1
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        _check_real("margin", self.margin, "finite")
        _check_real("temperature", self.temperature, "positive and finite")
        _check_real("learning_rate", self.learning_rate, "non-negative and finite")
        _check_real("l2_coeff", self.l2_coeff, "non-negative and finite")
        for name, minimum in (("seed", 0), ("epochs", 1), ("batch_size", 1), ("anchor_points", 1), ("threads", 1)):
            _check_count(name, getattr(self, name), minimum)


def _triplet_terms(dists: np.ndarray, label: int, margin: float) -> tuple[float, np.ndarray, float]:
    """Triplet loss, its per-class derivative, and the active-hinge fraction.

    The loss is the hinge sum ``sum_k max(W_label - W_k + margin, 0)`` over ``k != label``.
    """
    hinges = np.maximum(dists[label] - dists + margin, 0.0)
    hinges[label] = 0.0
    active = hinges > 0
    coeffs = np.where(active, -1.0, 0.0)
    coeffs[label] = float(active.sum())
    return float(hinges.sum()), coeffs, float(active.sum()) / (dists.size - 1)


def _infonce_terms(dists: np.ndarray, label: int, temperature: float) -> tuple[float, np.ndarray, float]:
    """InfoNCE loss, its per-class derivative, and the softmax entropy.

    The loss is the cross-entropy of the softmax of ``-dists / temperature``
    over all classes, with a max shift so large distance gaps cannot overflow.
    """
    scores = -dists / temperature
    peak = scores.max()
    probs = np.exp(scores - peak)
    total = probs.sum()
    probs /= total
    coeffs = -probs / temperature
    coeffs[label] += 1.0 / temperature
    # log-probabilities stay finite where a probability underflows to 0
    entropy = float(-np.sum(probs * (scores - peak - np.log(total))))
    return float(np.log(total) + peak - scores[label]), coeffs, entropy


@dataclass
class GradientBundle:
    """Batch-averaged gradients, the loss, and solver diagnostics."""

    grad_transform: np.ndarray
    grad_anchors: np.ndarray
    loss_value: float
    stat: float  # hinge_active_fraction for triplet, softmax_entropy for infonce
    nonconverged_solves: int = 0


# Documents per padded stack: fixed, so a document's stack, and with it its
# values, depends only on document order
_STACK_DOCUMENTS = 8


def _document_stacks(docs: list) -> list[list]:
    """``docs`` cut, in order, into consecutive stacks of ``_STACK_DOCUMENTS``."""
    return [docs[start : start + _STACK_DOCUMENTS] for start in range(0, len(docs), _STACK_DOCUMENTS)]


def _stack_terms(model: AnchorModel, docs: list[DocumentMeasure], costs: list[np.ndarray], cfg: TrainConfig):
    """Per-document losses and stats, and the stack's share of the gradients, for one stack of documents.

    ``costs[i]`` is document i's (n_i, Y * p) cost rows; the documents'
    transport solves are one padded stack of them. Returns the
    losses, the stats, the non-converged solve count, and two sums over the
    stack's words: ``X @ W`` (d, Y * p) and ``W.sum(axis=0)`` (Y * p,), or
    None for both when every class coefficient of every document is 0. W
    (N, Y * p) is d loss / d cost and X (d, N) holds the raw supports; a
    document whose coefficients are all 0 stays out of both.
    :func:`batch_gradients` turns the batch's sums into the gradients.

    The gradients hold epsilon fixed at each solve's value (a stop-gradient
    on relative epsilon's dependence on the mean cost): by the envelope
    theorem the plan is then the exact derivative of ``reg_distance`` with
    respect to the costs.
    """
    result = transport_cost_rows(model, costs, [doc.weights for doc in docs], cfg.sinkhorn)
    num_classes, p = model.num_classes, model.num_support_points
    dists = result.reg_distance.reshape(len(docs), num_classes)
    # overflows stay inf or NaN for train to report once; set here, as worker threads start at numpy's default
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [
            _triplet_terms(doc_dists, doc.label, cfg.margin)
            if cfg.loss_kind == "triplet"
            else _infonce_terms(doc_dists, doc.label, cfg.temperature)
            for doc, doc_dists in zip(docs, dists)
        ]
        losses = [loss for loss, _, _ in terms]
        stats = [stat for _, _, stat in terms]
        nonconverged = int(np.count_nonzero(~result.converged))
        coeffs = np.array([doc_coeffs for _, doc_coeffs, _ in terms])
        active = coeffs.any(axis=1)
        if not active.any():
            return losses, stats, nonconverged, None, None

        doc_of_row, row = _stack_rows([doc.size for doc in docs])
        keep = active[doc_of_row]
        doc_of_row, row = doc_of_row[keep], row[keep]
        plans = result.plan.reshape(len(docs), num_classes, -1, p)
        # d loss / d cost (N, Y * p): each class's plan times its coefficient, class-major
        weighted = (coeffs[doc_of_row, :, None] * plans[doc_of_row, :, row]).reshape(row.size, -1)
        supports = np.concatenate([doc.support for doc, on in zip(docs, active) if on], axis=1)
        return losses, stats, nonconverged, supports @ weighted, weighted.sum(axis=0)


def batch_gradients(
    model: AnchorModel, batch: list[DocumentMeasure], cfg: TrainConfig, words: DistinctWords | None = None
) -> GradientBundle:
    """Average loss and gradients over a batch of raw documents.

    Every label and dimension is checked against the model before any
    word is costed. ``words`` is the batch's :func:`~anchorwmd.model.distinct_words`
    table (``rows[i]`` for ``batch[i]``; :func:`train` takes it from the
    corpus's), built here when not given. The batch's distinct words are
    embedded and costed against every anchor column once
    (:func:`~anchorwmd.model.anchor_cost_rows`). The batch is then cut, in
    order, into stacks of a fixed number of documents; each stack gathers
    its documents' cost rows, solves them as one padded stack and reduces
    its plans to ``X @ W`` and the column sums of W (:func:`_stack_terms`),
    and the stacks run on ``cfg.threads`` workers. Results are summed in
    stack order, so they do not depend on the thread count.

    With cost(i, j) = |A x_i - q_j|^2, d cost / d A = 2 (A x_i - q_j) x_i^T
    and d cost / d q_j = -2 (A x_i - q_j). Each document's class
    coefficients sum to 0 (the triplet hinges' -1 per active class and
    their count; InfoNCE's (1 - sum of the softmax) / temperature), and
    every row of a class's rounded plan sums to the word's weight, so every
    row of W sums to 0 and the A x_i term drops out. That leaves
    d L / d A = -2 Q (X W)^T and d L / d Q = 2 (Q diag(colsum W) - A X W)
    for the anchor columns Q: two d x (Y * p) x d products per batch. The
    L2 penalty on the transform is added here, both to the loss and to its
    gradient. Anchors are not regularized.
    """
    if not batch:
        raise ValueError("batch is empty")
    for doc in batch:
        if doc.label is None:
            raise ValueError("training documents must carry a class label")
        if not 0 <= doc.label < model.num_classes:
            raise ValueError(f"document label {doc.label} out of range for {model.num_classes} classes")
        if doc.dim != model.dim:
            raise ValueError(f"document dimension {doc.dim} does not match model dimension {model.dim}")
    if words is None:
        words = distinct_words(batch)
    elif [rows.size for rows in words.rows] != [doc.size for doc in batch]:
        raise ValueError("the word table's rows do not match the batch's documents")

    batch_rows, local_rows = np.unique(np.concatenate(words.rows), return_inverse=True)
    cost = anchor_cost_rows(model, words.vectors[batch_rows].T)
    doc_rows = np.split(local_rows, np.cumsum([doc.size for doc in batch])[:-1])
    stacks = _ordered_map(
        lambda stack: _stack_terms(model, [doc for doc, _ in stack], [cost[rows] for _, rows in stack], cfg),
        _document_stacks(list(zip(batch, doc_rows))),
        cfg.threads,
    )

    scale = 1.0 / len(batch)
    columns = anchor_columns(model.anchors)
    supports_weighted = np.zeros_like(columns)
    column_weights = np.zeros(columns.shape[1])
    loss = 0.0
    stat = 0.0
    nonconverged = 0
    for losses, stats, stack_nc, stack_xw, stack_colsum in stacks:
        for doc_loss, doc_stat in zip(losses, stats):
            loss += doc_loss * scale
            stat += doc_stat * scale
        nonconverged += stack_nc
        if stack_xw is not None:
            supports_weighted += stack_xw
            column_weights += stack_colsum

    grad_transform = -2.0 * scale * (columns @ supports_weighted.T)
    grad_columns = 2.0 * scale * (columns * column_weights - model.transform @ supports_weighted)
    grad_anchors = grad_columns.reshape(model.dim, model.num_classes, -1).transpose(1, 0, 2)

    if cfg.l2_coeff > 0:
        loss += cfg.l2_coeff * float(np.sum(model.transform**2))
        grad_transform += 2.0 * cfg.l2_coeff * model.transform

    return GradientBundle(
        grad_transform=grad_transform,
        grad_anchors=grad_anchors,
        loss_value=loss,
        stat=stat,
        nonconverged_solves=nonconverged,
    )


@dataclass
class AdamState:
    """First and second moment estimates, one array per parameter tensor."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update over a list of parameter tensors.

    The update is element-wise, so keeping moments per tensor is identical
    to flattening everything into a single parameter vector. Returns new
    parameter arrays and a new state; inputs are not mutated.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    t = state.step_count + 1
    new_m = []
    new_v = []
    new_params = []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(first_moment=new_m, second_moment=new_v, step_count=t)


@dataclass(frozen=True)
class EpochStats:
    """One row of the training history."""

    epoch: int
    mean_loss: float
    stat: float  # hinge_active_fraction for triplet, softmax_entropy for infonce
    nonconverged: int


def train(
    corpus: list[DocumentMeasure],
    cfg: TrainConfig,
    class_names: list[str] | None = None,
    vocab_hash: str = "",
) -> tuple[AnchorModel, list[EpochStats]]:
    """Fit the transform and anchors on a labeled corpus.

    The corpus's distinct words are tabled once
    (:func:`~anchorwmd.model.distinct_words`), for the k-means and for every
    batch. The transform starts at identity and anchors at per-class k-means
    centroids; every epoch shuffles the corpus with the seeded generator and
    applies one Adam step per batch. Returns the final model and per-epoch
    mean losses (including the L2 penalty). A batch whose loss, gradients,
    Adam moments or updated parameters' squared norms are not finite (say, a
    temperature so small that the softmax overflows) is a ``ValueError``
    naming the epoch and the batch; an epoch whose mean loss is not finite
    (say, a margin so large that the batch losses overflow their sum) names
    the epoch.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    labels = [doc.label for doc in corpus]
    if any(label is None for label in labels):
        raise ValueError("all training documents must carry a class label")
    num_classes = len(class_names) if class_names is not None else max(labels) + 1
    if num_classes < 2:
        raise ValueError("training needs at least 2 classes")
    if class_names is None:
        class_names = [str(k) for k in range(num_classes)]
    present = set(labels)
    for label, name in enumerate(class_names):
        if label not in present:
            raise ValueError(
                f"class {name!r} has no training documents (each one was dropped: no tokens, or no word vectors)"
            )

    words = distinct_words(corpus)
    transform = np.eye(corpus[0].dim)
    anchors = init_anchors(corpus, num_classes, cfg.anchor_points, cfg.seed, words)
    state = AdamState.zeros_like([transform, anchors])
    rng = np.random.default_rng(cfg.seed)

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        total_loss = 0.0
        total_stat = 0.0
        total_nonconverged = 0
        for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
            indices = order[start : start + cfg.batch_size]
            batch = [corpus[i] for i in indices]
            model = AnchorModel(transform, anchors, class_names, vocab_hash)
            # a step that overflows is reported once, by the check below, not as a warning per operation
            with np.errstate(over="ignore", invalid="ignore"):
                bundle = batch_gradients(model, batch, cfg, words.take(indices))
                (transform, anchors), state = adam_step(
                    [transform, anchors],
                    [bundle.grad_transform, bundle.grad_anchors],
                    state,
                    cfg.learning_rate,
                )
                # finite squared norms also keep the next batch's embedded norms from overflowing
                scalars = [bundle.loss_value, np.vdot(transform, transform), np.vdot(anchors, anchors)]
            arrays = [bundle.grad_transform, bundle.grad_anchors, *state.first_moment, *state.second_moment]
            if not (np.isfinite(scalars).all() and all(np.isfinite(values).all() for values in arrays)):
                raise ValueError(
                    f"epoch {epoch}, batch {batch_index}: the loss, gradients, parameters or Adam moments are not finite "
                    f"(loss {bundle.loss_value!r}); the temperature, L2 coefficient, learning rate or inputs are too extreme"
                )
            total_loss += bundle.loss_value * len(batch)
            total_stat += bundle.stat * len(batch)
            total_nonconverged += bundle.nonconverged_solves
        mean_loss = total_loss / len(corpus)
        if not np.isfinite(mean_loss):
            raise ValueError(
                f"epoch {epoch}: mean loss {mean_loss!r} is not finite; the margin or the inputs are too large"
            )
        history.append(
            EpochStats(
                epoch=epoch,
                mean_loss=mean_loss,
                stat=total_stat / len(corpus),
                nonconverged=total_nonconverged,
            )
        )
    return AnchorModel(transform, anchors, class_names, vocab_hash), history


def write_loss_history(history: list[EpochStats], path: str, loss_kind: str) -> None:
    """Write the per-epoch history as CSV.

    The third column is the hinge-active fraction for the triplet loss and
    the softmax entropy for InfoNCE.
    """
    stat_name = "hinge_active_fraction" if loss_kind == "triplet" else "softmax_entropy"
    header = ["epoch", "mean_loss", stat_name, "sinkhorn_nonconverged_count"]
    _write_table(path, header, ([row.epoch, row.mean_loss, row.stat, row.nonconverged] for row in history))
