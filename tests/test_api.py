import importlib
import pkgutil

import numpy as np
import pytest

import anchorwmd
from anchorwmd.model import AnchorModel, DocumentMeasure, anchor_cost_rows, transport_cost_rows
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn


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
