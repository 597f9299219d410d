"""Contrastive training of the transform and anchors over transport distances.

Each document is contrasted with every class anchor: the distance to its own
class should undercut the distances to the other classes. Gradients flow
through the entropic transport value via the envelope rule (the optimal plan
is the gradient of the regularized value with respect to the cost matrix)
composed with the analytic derivatives of the squared Euclidean cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import AnchorModel, DocumentMeasure, _ordered_map, _stack_rows, anchor_columns, anchor_transport, init_anchors
from .ot import SinkhornConfig

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
        if not np.isfinite(self.margin):
            raise ValueError("margin must be finite")
        if not (0 < self.temperature < np.inf):
            raise ValueError("temperature must be positive and finite")
        if not (0 <= self.learning_rate < np.inf):
            raise ValueError("learning_rate must be non-negative and finite")
        if not (0 <= self.l2_coeff < np.inf):
            raise ValueError("l2_coeff must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.anchor_points < 1:
            raise ValueError("anchor_points must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


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


def _stack_terms(model: AnchorModel, docs: list[DocumentMeasure], cfg: TrainConfig):
    """Per-document losses and stats, and summed gradients, for one stack of documents.

    The documents' transport solves are one padded stack. Returns the
    losses, the stats, the non-converged solve count, and the stack's
    transform and anchor gradients, summed over its documents, or None for
    both when every class coefficient of every document is 0. A document
    whose coefficients are all 0 stays out of the gradient products.
    """
    embedded, result = anchor_transport(model, docs, cfg.sinkhorn)
    num_classes, p = model.num_classes, model.num_support_points
    dists = result.reg_distance.reshape(len(docs), num_classes)
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
    embedded = embedded[:, keep]
    columns = anchor_columns(model.anchors)
    # d cost(i,j) / d z_i = 2 (z_i - q_j)
    grad_embedded = 2.0 * (embedded * weighted.sum(axis=1) - columns @ weighted.T)
    # d cost(i,j) / d q_j = -2 (z_i - q_j)
    grad_columns = 2.0 * (columns * weighted.sum(axis=0) - embedded @ weighted)
    # z = A x: one product of the stack's embedded-word gradients with its supports
    supports = np.concatenate([doc.support for doc, on in zip(docs, active) if on], axis=1)
    grad_transform = grad_embedded @ supports.T
    grad_anchors = grad_columns.reshape(model.dim, num_classes, p).transpose(1, 0, 2)
    return losses, stats, nonconverged, grad_transform, grad_anchors


def batch_gradients(model: AnchorModel, batch: list[DocumentMeasure], cfg: TrainConfig) -> GradientBundle:
    """Average loss and gradients over a batch of raw documents.

    Every label is checked against the model's classes before any solve.
    The batch is cut, in order, into stacks of a fixed number of documents;
    each stack is one padded transport solve and one gradient pass, and the
    stacks run on ``cfg.threads`` workers. Results are summed in stack
    order, so they do not depend on the thread count. The L2 penalty on the
    transform is added here, both to the loss and to its gradient. Anchors
    are not regularized.
    """
    if not batch:
        raise ValueError("batch is empty")
    for doc in batch:
        if doc.label is None:
            raise ValueError("training documents must carry a class label")
        if not 0 <= doc.label < model.num_classes:
            raise ValueError(f"document label {doc.label} out of range for {model.num_classes} classes")

    stacks = _ordered_map(lambda docs: _stack_terms(model, docs, cfg), _document_stacks(batch), cfg.threads)

    scale = 1.0 / len(batch)
    grad_transform = np.zeros_like(model.transform)
    grad_anchors = np.zeros_like(model.anchors)
    loss = 0.0
    stat = 0.0
    nonconverged = 0
    for losses, stats, stack_nc, stack_gt, stack_ga in stacks:
        for doc_loss, doc_stat in zip(losses, stats):
            loss += doc_loss * scale
            stat += doc_stat * scale
        nonconverged += stack_nc
        if stack_gt is not None:
            grad_transform += stack_gt * scale
            grad_anchors += stack_ga * scale

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

    The transform starts at identity and anchors at per-class k-means
    centroids; every epoch shuffles the corpus with the seeded generator and
    applies one Adam step per batch. Returns the final model and per-epoch
    mean losses (including the L2 penalty).
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

    dim = corpus[0].dim
    transform = np.eye(dim)
    anchors = init_anchors(corpus, num_classes, cfg.anchor_points, cfg.seed)
    state = AdamState.zeros_like([transform, anchors])
    rng = np.random.default_rng(cfg.seed)

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        total_loss = 0.0
        total_stat = 0.0
        total_nonconverged = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [corpus[i] for i in order[start : start + cfg.batch_size]]
            model = AnchorModel(transform, anchors, class_names, vocab_hash)
            bundle = batch_gradients(model, batch, cfg)
            (transform, anchors), state = adam_step(
                [transform, anchors],
                [bundle.grad_transform, bundle.grad_anchors],
                state,
                cfg.learning_rate,
            )
            total_loss += bundle.loss_value * len(batch)
            total_stat += bundle.stat * len(batch)
            total_nonconverged += bundle.nonconverged_solves
        history.append(
            EpochStats(
                epoch=epoch,
                mean_loss=total_loss / len(corpus),
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "mean_loss", stat_name, "sinkhorn_nonconverged_count"])
        for row in history:
            writer.writerow([row.epoch, repr(row.mean_loss), repr(row.stat), row.nonconverged])
