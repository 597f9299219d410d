"""``floattext._join_reprs`` writes exactly ``repr`` of every float, joined by the given separators."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorwmd import floattext
from anchorwmd.floattext import _join_reprs


def reference_join(values, item_sep, row_sep):
    """One ``repr`` per value: the text ``_join_reprs`` must reproduce."""
    rows = np.asarray(values, dtype=float)
    if rows.ndim == 1:
        rows = rows[np.newaxis]
    return row_sep.join(item_sep.join(map(repr, row)) for row in rows.tolist())


def first_mismatch(values):
    """The first value whose text differs from its ``repr``, with both texts; ``None`` when all agree."""
    flat = np.asarray(values, dtype=float).ravel()
    written = _join_reprs(flat, " ").split(" ")
    assert len(written) == flat.size
    return next(((x, ours, repr(x)) for x, ours in zip(flat.tolist(), written) if ours != repr(x)), None)


def with_neighbours(values):
    """``values`` and the doubles just below and above each (past the largest double: infinity)."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40), st.integers(1, 5))
def test_property_equals_repr_join(values, num_cols):
    array = np.array(values[: len(values) // num_cols * num_cols], dtype=float).reshape(-1, num_cols)
    assert _join_reprs(array, ", ", "], [") == reference_join(array, ", ", "], [")


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True), max_size=40), st.booleans())
def test_property_equals_repr_join_in_fixed_notation(values, negative):
    array = -np.array(values, dtype=float) if negative else np.array(values, dtype=float)
    assert _join_reprs(array, "\t") == reference_join(array, "\t", "\n")


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_property_equals_repr_join_over_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)  # NaNs and infinities included
    assert _join_reprs(values, " ") == reference_join(values, " ", "\n")


def test_fixed_values():
    info = sys.float_info
    powers_of_two = [2.0**k for k in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{k}") for k in range(-323, 309)]
    digits = "12345678901234567"
    decimals = [float(f"{digits[:n]}e{shift}") for n in range(1, 18) for shift in range(-24, 4)]
    decimals += [float(f"0.{digits[:n]}") for n in range(1, 18)] + [float(f"9.{'9' * n}") for n in range(1, 17)]
    values = [0.0, 5e-324, info.min, info.max, 0.1 + 0.2, 8 + 2**-16, 8 + 3 * 2**-16, 1e-4, 1e16]
    values = signed(with_neighbours(values + powers_of_two + powers_of_ten + decimals))
    assert np.signbit(values).sum() == values.size // 2  # -0.0 included
    assert first_mismatch(values) is None


def test_seeded_sweep_over_every_decade():
    rng = np.random.default_rng(20261020)
    decades = rng.uniform(1, 10, 250_000) * 10.0 ** rng.integers(-12, 22, 250_000)
    every_decade = rng.uniform(1, 10, 50_000) * 10.0 ** rng.integers(-307, 308, 50_000)
    short = np.round(rng.normal(0, 3, 50_000), 5)  # five-decimal coordinates, as in the vector files
    values = np.concatenate([decades, every_decade, short]) * rng.choice([-1.0, 1.0], 350_000)
    assert first_mismatch(values) is None


@pytest.mark.parametrize(
    "shape",
    [(0,), (0, 3), (3, 0), (1, 1), (1, 9), (9, 1), (4, 5), (3, 10_000)],
    ids=["empty", "no_rows", "no_columns", "one_value", "one_row", "one_column", "rows", "rows_across_blocks"],
)
def test_shapes(rng, shape):
    values = rng.standard_normal(shape)
    assert _join_reprs(values, ", ", "], [") == reference_join(values, ", ", "], [")


@pytest.mark.parametrize("block", [1, 5, 7])
def test_block_boundaries(rng, monkeypatch, block):
    monkeypatch.setattr(floattext, "_BLOCK", block)
    values = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-6, 18, (4, 6))
    assert _join_reprs(values, "·", "\n") == reference_join(values, "·", "\n")


def test_long_and_empty_separators(rng):
    values = rng.standard_normal((3, 4))
    for item_sep, row_sep in [("", ""), (" | " * 5, "\n" * 12), ("\t", "")]:
        assert _join_reprs(values, item_sep, row_sep) == reference_join(values, item_sep, row_sep)

