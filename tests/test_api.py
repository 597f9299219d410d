import argparse
import importlib
import pkgutil

import numpy as np
import pytest

import anchorwmd
from anchorwmd.classify import check_k_values
from anchorwmd.cli import _merge_options
from anchorwmd.data import Corpus, Document, SplitSpec
from anchorwmd.interpret import ImportanceTable, importance_rankings, tfidf_rankings, top_k_words
from anchorwmd.model import (
    AnchorModel,
    DocumentMeasure,
    _ordered_map,
    anchor_cost_rows,
    init_anchors,
    transport_cost_rows,
)
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn
from anchorwmd.training import TrainConfig


def test_every_exported_name_resolves():
    submodules = [importlib.import_module(f"anchorwmd.{info.name}") for info in pkgutil.iter_modules(anchorwmd.__path__)]
    for module in [anchorwmd, *submodules]:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_kernel_matches_direct_solves(rng):
    d, n, p = 4, 5, 3
    transform = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    anchors = rng.standard_normal((3, d, p))
    model = AnchorModel(transform, anchors, ["a", "b", "c"])
    weights = rng.uniform(0.2, 1.0, n)
    doc = DocumentMeasure(np.arange(n), rng.standard_normal((d, n)), weights / weights.sum())
    cfg = SinkhornConfig(epsilon=0.05)

    cost = anchor_cost_rows(model, doc.support)
    result = transport_cost_rows(model, [cost], [doc.weights], cfg)

    assert np.array_equal(cost, ground_cost_matrix(transform @ doc.support, np.concatenate(anchors, axis=1)))
    assert result.distance.shape == (model.num_classes,)
    assert result.plan.shape == (model.num_classes, n, p)
    for k in range(model.num_classes):
        direct = sinkhorn(ground_cost_matrix(transform @ doc.support, anchors[k]), doc.weights, np.full(p, 1 / p), cfg)
        assert result[k].distance == direct.distance
        assert result[k].reg_distance == direct.reg_distance
        assert result[k].distance != pytest.approx(result[k].reg_distance)


TABLE = ImportanceTable(["a", "b"], ["x", "y"], np.zeros((2, 2)), np.zeros((2, 2)))
CORPUS = Corpus([Document("d0", 0, {"ab": 1}), Document("d1", 1, {"cd": 1})], ["x", "y"])
DOC = DocumentMeasure([0], [[1.0]], [1.0], label=0)

# (test id, setting, minimum, a call that passes the value as that setting): every count the package takes
COUNT_SETTINGS = [
    ("SinkhornConfig.max_iters", "max_iters", 1, lambda v: SinkhornConfig(max_iters=v)),
    ("TrainConfig.seed", "seed", 0, lambda v: TrainConfig(seed=v)),
    ("TrainConfig.epochs", "epochs", 1, lambda v: TrainConfig(epochs=v)),
    ("TrainConfig.batch_size", "batch_size", 1, lambda v: TrainConfig(batch_size=v)),
    ("TrainConfig.anchor_points", "anchor_points", 1, lambda v: TrainConfig(anchor_points=v)),
    ("TrainConfig.threads", "threads", 1, lambda v: TrainConfig(threads=v)),
    ("SplitSpec.seed", "seed", 0, lambda v: SplitSpec(seed=v)),
    ("_ordered_map.threads", "threads", 1, lambda v: _ordered_map(abs, [1, 2], v)),
    ("init_anchors.p", "p", 1, lambda v: init_anchors([DOC], 1, v, 0)),
    ("check_k_values", "k", 1, lambda v: check_k_values([3, v])),
    ("importance_rankings.k", "k", 1, lambda v: importance_rankings(TABLE, v)),
    ("top_k_words.k", "k", 1, lambda v: top_k_words(TABLE, 0, v)),
    ("tfidf_rankings.k", "k", 1, lambda v: tfidf_rankings(CORPUS, v)),
    ("cli.threads", "threads", 1, lambda v: _merge_options(argparse.Namespace(threads=v))),
    ("cli.top_k", "top_k", 1, lambda v: _merge_options(argparse.Namespace(top_k=v))),
    ("cli.seed", "seed", 0, lambda v: _merge_options(argparse.Namespace(seed=v))),
]
REAL_SETTINGS = [
    (f"{config.__name__}.{name}", name, lambda v, config=config, name=name: config(**{name: v}))
    for config, names in (
        (SinkhornConfig, ("epsilon", "tolerance")),
        (TrainConfig, ("margin", "temperature", "learning_rate", "l2_coeff")),
    )
    for name in names
]


@pytest.mark.parametrize(
    "name, call, accepted, rejected",
    [
        pytest.param(
            name,
            call,
            np.int64(minimum),
            # an option the command line leaves out is None, and takes its default
            [1.5, True, "3", minimum - 1] + ([] if case.startswith("cli.") else [None]),
            id=case,
        )
        for case, name, minimum, call in COUNT_SETTINGS
    ]
    + [
        pytest.param(name, call, np.float32(0.5), [True, "3", None, float("nan")], id=case)
        for case, name, call in REAL_SETTINGS
    ]
    + [
        pytest.param("relative", lambda v: SinkhornConfig(relative=v), False, [None, "no", 1], id="SinkhornConfig.relative")
    ],
)
def test_setting_of_the_wrong_type_or_range_is_one_line_naming_it(name, call, accepted, rejected):
    """Each setting takes one rule: an integer of at least its minimum (a bool is not one), a number, or a bool."""
    call(accepted)
    for value in rejected:
        with pytest.raises(ValueError) as excinfo:
            call(value)
        message = str(excinfo.value)
        assert message.startswith(f"{name} must be ") and message.endswith((f", got {value!r}", f", got {value}"))
        assert "\n" not in message
