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

from .model import AnchorModel, DocumentMeasure, _ordered_map, anchor_transport, init_anchors
from .ot import SinkhornConfig

__all__ = [
    "TrainConfig",
    "GradientBundle",
    "AdamState",
    "EpochStats",
    "triplet_loss",
    "infonce_loss",
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
        if not (self.temperature > 0):
            raise ValueError("temperature must be positive")
        if not (self.learning_rate >= 0):
            raise ValueError("learning_rate must be non-negative")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.anchor_points < 1:
            raise ValueError("anchor_points must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


def triplet_loss(doc_dists, label: int, margin: float) -> float:
    """Hinge sum pushing the own-class distance under every other class.

    Returns ``sum_k max(W_label - W_k + margin, 0)`` over all ``k != label``.
    """
    dists = _checked_dists(doc_dists, label)
    hinges = np.maximum(dists[label] - dists + margin, 0.0)
    hinges[label] = 0.0
    return float(hinges.sum())


def infonce_loss(doc_dists, label: int, temperature: float) -> float:
    """Softmax cross-entropy over negated distances at the given temperature.

    The denominator runs over all classes including ``label``; computed with
    a max shift so large distance gaps cannot overflow.
    """
    dists = _checked_dists(doc_dists, label)
    scores = -dists / temperature
    peak = scores.max()
    return float(np.log(np.exp(scores - peak).sum()) + peak - scores[label])


def _checked_dists(doc_dists, label: int) -> np.ndarray:
    dists = np.asarray(doc_dists, dtype=float)
    if dists.ndim != 1 or dists.size < 2:
        raise ValueError("doc_dists must be a vector with one entry per class (>= 2)")
    if not np.all(np.isfinite(dists)):
        raise ValueError("doc_dists must be finite")
    if not (0 <= label < dists.size):
        raise ValueError(f"label {label} out of range for {dists.size} classes")
    return dists


def _triplet_coefficients(dists: np.ndarray, label: int, margin: float) -> tuple[np.ndarray, float]:
    """Per-class derivative of the triplet loss and the active-hinge fraction."""
    active = dists[label] - dists + margin > 0
    active[label] = False
    coeffs = np.where(active, -1.0, 0.0)
    coeffs[label] = float(active.sum())
    return coeffs, float(active.sum()) / (dists.size - 1)


def _infonce_coefficients(dists: np.ndarray, label: int, temperature: float) -> tuple[np.ndarray, float]:
    """Per-class derivative of the InfoNCE loss and the softmax entropy."""
    scores = -dists / temperature
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    coeffs = -probs / temperature
    coeffs[label] += 1.0 / temperature
    entropy = float(-np.sum(probs * np.log(probs)))
    return coeffs, entropy


@dataclass
class GradientBundle:
    """Batch-averaged gradients, the loss, and solver diagnostics."""

    grad_transform: np.ndarray
    grad_anchors: np.ndarray
    loss_value: float
    stat: float  # hinge_active_fraction for triplet, softmax_entropy for infonce
    nonconverged_solves: int = 0


def _document_terms(model: AnchorModel, doc: DocumentMeasure, cfg: TrainConfig):
    """Loss, transform gradient, anchor gradients, and stats for one document."""
    if doc.label is None:
        raise ValueError("training documents must carry a class label")
    embedded, results = anchor_transport(model, doc, cfg.sinkhorn)
    dists = np.array([result.reg_distance for result in results])
    nonconverged = sum(not result.converged for result in results)

    if cfg.loss_kind == "triplet":
        loss = triplet_loss(dists, doc.label, cfg.margin)
        coeffs, stat = _triplet_coefficients(dists, doc.label, cfg.margin)
    else:
        loss = infonce_loss(dists, doc.label, cfg.temperature)
        coeffs, stat = _infonce_coefficients(dists, doc.label, cfg.temperature)

    # d cost(i,j) / d z_i = 2 (z_i - q_j), summed over classes before one
    # chain-rule product through z = A x
    grad_embedded = np.zeros_like(embedded)
    grad_anchors = np.zeros_like(model.anchors)
    for k, (c, result) in enumerate(zip(coeffs, results)):
        if c == 0.0:
            continue
        plan = result.plan
        anchor = model.anchors[k]
        grad_embedded += c * 2.0 * (embedded * plan.sum(axis=1)[None, :] - anchor @ plan.T)
        # d cost(i,j) / d q_j = -2 (z_i - q_j)
        grad_anchors[k] = c * 2.0 * (anchor * plan.sum(axis=0)[None, :] - embedded @ plan)
    if np.any(coeffs != 0.0):
        grad_transform = grad_embedded @ doc.support.T
    else:
        grad_transform = np.zeros_like(model.transform)
    return loss, grad_transform, grad_anchors, stat, nonconverged


def batch_gradients(model: AnchorModel, batch: list[DocumentMeasure], cfg: TrainConfig) -> GradientBundle:
    """Average loss and gradients over a batch of raw documents.

    Per-document transport solves are independent and run on ``cfg.threads``
    workers; accumulation happens in document order so results do not depend
    on the thread count. The L2 penalty on the transform is added here, both
    to the loss and to its gradient. Anchors are not regularized.
    """
    if not batch:
        raise ValueError("batch is empty")
    for doc in batch:
        if doc.size == 0:
            raise ValueError("batch contains an empty document")

    terms = _ordered_map(lambda doc: _document_terms(model, doc, cfg), batch, cfg.threads)

    scale = 1.0 / len(batch)
    grad_transform = np.zeros_like(model.transform)
    grad_anchors = np.zeros_like(model.anchors)
    loss = 0.0
    stat = 0.0
    nonconverged = 0
    for doc_loss, doc_gt, doc_ga, doc_stat, doc_nc in terms:
        loss += doc_loss * scale
        grad_transform += doc_gt * scale
        grad_anchors += doc_ga * scale
        stat += doc_stat * scale
        nonconverged += doc_nc

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
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", stat_name, "sinkhorn_nonconverged_count"])
        for row in history:
            writer.writerow([row.epoch, repr(row.mean_loss), repr(row.stat), row.nonconverged])
