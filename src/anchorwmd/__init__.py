"""Supervised Wasserstein document embeddings with per-class anchors.

Documents are empirical measures over word vectors; a learned linear
transform and per-class anchor point clouds are trained contrastively over
entropic word mover's distances. Classification is nearest-anchor, and the
anchor geometry yields per-class word importances.
"""

from .classify import Prediction, anchor_nn_classify, error_rate
from .data import Corpus, SplitSpec, WordVectorTable, load_corpus, load_word_vectors, split, to_measure
from .interpret import compute_importance_table, tfidf_top_words, top_k_words
from .model import (
    AnchorModel,
    DocumentMeasure,
    init_anchors,
    load_checkpoint,
    save_checkpoint,
)
from .ot import SinkhornConfig, SinkhornResult, ground_cost_matrix, sinkhorn
from .training import TrainConfig, adam_step, batch_gradients, train

__version__ = "0.1.0"

__all__ = [
    "AnchorModel",
    "Corpus",
    "DocumentMeasure",
    "Prediction",
    "SinkhornConfig",
    "SinkhornResult",
    "SplitSpec",
    "TrainConfig",
    "WordVectorTable",
    "adam_step",
    "anchor_nn_classify",
    "batch_gradients",
    "compute_importance_table",
    "error_rate",
    "ground_cost_matrix",
    "init_anchors",
    "load_checkpoint",
    "load_corpus",
    "load_word_vectors",
    "save_checkpoint",
    "sinkhorn",
    "split",
    "tfidf_top_words",
    "to_measure",
    "top_k_words",
    "train",
]
