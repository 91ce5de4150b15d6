"""Weak-cell populations: tail math, sampling, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cells import (
    EMPTY_SPEC,
    MIN_ANCHOR_COUNT,
    CellPopulation,
    PopulationSpec,
    TailAnchor,
    _sample_columns,
    charged_mask,
)
from repro.rng import SeedTree


def two_anchor_spec(**kwargs):
    defaults = dict(
        anchors=(TailAnchor(1e4, 0.56), TailAnchor(1e6, 100.0)),
        cap=3e6,
    )
    defaults.update(kwargs)
    return PopulationSpec(**defaults)


# ---------------------------------------------------------------- tail math


def test_count_below_hits_anchors():
    spec = two_anchor_spec()
    assert spec.count_below(1e4) == pytest.approx(0.56)
    assert spec.count_below(1e6) == pytest.approx(100.0)


def test_count_below_is_monotonic_and_capped():
    spec = two_anchor_spec()
    values = [spec.count_below(x) for x in np.geomspace(1e3, 1e7, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert spec.count_below(1e9) == spec.count_below(spec.cap)


def test_inverse_count_roundtrip():
    spec = two_anchor_spec()
    for count in (0.1, 0.56, 5.0, 100.0, 200.0):
        threshold = spec.inverse_count(count)
        assert spec.count_below(threshold) == pytest.approx(count, rel=1e-6)


def test_expected_min_sits_at_min_anchor():
    spec = two_anchor_spec()
    assert spec.expected_min() == pytest.approx(1e4, rel=1e-6)


def test_single_anchor_uses_default_slope():
    spec = PopulationSpec(anchors=(TailAnchor(100.0, 1.0),), cap=1e3, default_slope=2.0)
    assert spec.count_below(200.0) == pytest.approx(4.0)
    assert spec.inverse_count(4.0) == pytest.approx(200.0)


def test_vectorized_inverse_matches_scalar():
    spec = two_anchor_spec()
    counts = np.array([0.01, 0.56, 3.0, 100.0, 400.0])
    vector = spec.inverse_count_array(counts)
    scalar = np.array([spec.inverse_count(c) for c in counts])
    assert np.allclose(vector, scalar)


def test_empty_spec():
    assert EMPTY_SPEC.empty
    assert EMPTY_SPEC.count_below(1e9) == 0.0
    assert EMPTY_SPEC.inverse_count(1.0) == math.inf


def test_anchor_validation():
    with pytest.raises(ValueError):
        PopulationSpec(anchors=(TailAnchor(10.0, 5.0), TailAnchor(20.0, 1.0)), cap=100.0)
    with pytest.raises(ValueError):
        TailAnchor(-1.0, 1.0)
    with pytest.raises(ValueError):
        PopulationSpec(anchors=(), cap=0.0)


def test_scaled_moves_thresholds_not_counts():
    spec = two_anchor_spec()
    scaled = spec.scaled(2.0)
    assert scaled.count_below(2e4) == pytest.approx(0.56)
    assert scaled.cap == spec.cap * 2


@given(
    t1=st.floats(min_value=1.0, max_value=1e6),
    ratio=st.floats(min_value=1.5, max_value=1e4),
    c1=st.floats(min_value=0.01, max_value=10.0),
    cratio=st.floats(min_value=1.5, max_value=1e4),
    q=st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=100)
def test_inverse_is_right_inverse_of_count(t1, ratio, c1, cratio, q):
    spec = PopulationSpec(
        anchors=(TailAnchor(t1, c1), TailAnchor(t1 * ratio, c1 * cratio)),
        cap=t1 * ratio * 2,
    )
    total = spec.count_below(spec.cap)
    threshold = spec.inverse_count(q * total)
    assert spec.count_below(threshold) == pytest.approx(q * total, rel=1e-4)


# ---------------------------------------------------------------- sampling


def make_population(row_bits=8192, **kwargs):
    spec = two_anchor_spec()
    defaults = dict(
        seed_tree=SeedTree(1).child("m"),
        row_bits=row_bits,
        hammer=spec,
        press=two_anchor_spec(
            anchors=(TailAnchor(4e7, 0.56), TailAnchor(6e7, 40.0)),
            cap=2e8,
            cluster_size_mean=2.5,
        ),
        retention=EMPTY_SPEC,
    )
    defaults.update(kwargs)
    return CellPopulation(**defaults)


def test_row_sampling_deterministic():
    a = make_population().row(0, 0, 5)
    b = make_population().row(0, 0, 5)
    assert np.array_equal(a.hammer.columns, b.hammer.columns)
    assert np.array_equal(a.hammer.thresholds, b.hammer.thresholds)
    assert np.array_equal(a.press.thresholds, b.press.thresholds)


def test_rows_are_independent():
    population = make_population()
    a = population.row(0, 0, 5)
    b = population.row(0, 0, 6)
    assert a.hammer.size != b.hammer.size or not np.array_equal(
        a.hammer.thresholds, b.hammer.thresholds
    )


def test_columns_unique_and_in_range():
    cells = make_population().row(0, 1, 9)
    for cellset in (cells.hammer, cells.press):
        assert len(np.unique(cellset.columns)) == cellset.size
        if cellset.size:
            assert cellset.columns.min() >= 0
            assert cellset.columns.max() < 8192


def test_press_disjoint_from_hammer():
    cells = make_population().row(0, 0, 3)
    overlap = set(cells.hammer.columns.tolist()) & set(cells.press.columns.tolist())
    assert not overlap


def test_thresholds_below_cap():
    cells = make_population().row(0, 0, 2)
    assert (cells.hammer.thresholds <= 3e6 * 1.0001).all()


def test_cache_reuses_objects():
    population = make_population()
    assert population.row(0, 0, 1) is population.row(0, 0, 1)


def test_row_count_scales_with_row_bits():
    small = make_population(row_bits=8192)
    large = make_population(row_bits=65536)
    small_counts = [small.row(0, 0, r).hammer.size for r in range(12)]
    large_counts = [large.row(0, 0, r).hammer.size for r in range(12)]
    ratio = np.mean(large_counts) / max(np.mean(small_counts), 1)
    assert 5.0 < ratio < 13.0  # expect ~8x


def test_true_cell_fraction_controls_anti():
    all_true = make_population(true_cell_fraction=1.0).row(0, 0, 4)
    assert not all_true.hammer.anti.any()
    all_anti = make_population(true_cell_fraction=0.0).row(0, 0, 4)
    assert all_anti.hammer.anti.all()


def test_press_clustering_creates_multibit_words():
    population = make_population(row_bits=65536)
    words = {}
    for row in range(20):
        cells = population.row(0, 0, row)
        for column in cells.press.columns.tolist():
            key = (row, column // 64)
            words[key] = words.get(key, 0) + 1
    assert max(words.values(), default=0) >= 2  # clusters share words


def _hammer_columns(row_bits, count, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(row_bits, size=count, replace=False))


def test_near_saturated_clustered_row_returns_its_exact_count():
    # H2-shaped: hammer cells take a third of the row and the press count
    # is ~86% of the free bits; the old batch loop lost ~0.5% of them.
    row_bits = 65536
    forbidden = _hammer_columns(row_bits, 21_300)
    pool = row_bits - forbidden.size
    count = int(0.86 * pool)
    for seed in range(3):
        columns = _sample_columns(
            np.random.default_rng(seed), count, row_bits, 2.5, forbidden
        )
        assert columns.size == count
        assert np.unique(columns).size == count
        assert not np.intersect1d(columns, forbidden).size


def test_clustered_columns_have_no_low_column_bias():
    # Keeping the lowest new columns when a batch overshoots its count
    # moves ~2.5% of the cells (and of the left-over free columns) out
    # of their half; both fractions must match the free pool's.
    row_bits = 8192
    forbidden = _hammer_columns(row_bits, 2700)
    free = np.setdiff1d(np.arange(row_bits), forbidden)
    free_low = np.mean(free < row_bits // 2)
    for count, tolerance in ((2000, 0.02), (int(0.9 * free.size), 0.012)):
        low, missed_low = [], []
        for seed in range(40):
            columns = _sample_columns(
                np.random.default_rng(seed), count, row_bits, 2.5, forbidden
            )
            low.append(np.mean(columns < row_bits // 2))
            missed = np.setdiff1d(free, columns)
            missed_low.append(np.mean(missed < row_bits // 2))
        assert abs(np.mean(low) - free_low) < 0.02
        assert abs(np.mean(missed_low) - free_low) < tolerance


@pytest.mark.parametrize("forbidden_count", [1000, 7900])
def test_clustered_sampler_terminates_one_short_of_the_pool(forbidden_count):
    # 7900 forbidden: the free pool is below the stall fraction from the
    # start, so every cell comes from the uniform top-up.
    row_bits = 8192
    forbidden = _hammer_columns(row_bits, forbidden_count)
    pool = row_bits - forbidden.size
    for count in (pool - 1, pool // 2):
        columns = _sample_columns(
            np.random.default_rng(5), count, row_bits, 2.5, forbidden
        )
        assert columns.size == count
        assert np.unique(columns).size == count
        assert not np.intersect1d(columns, forbidden).size


def test_charged_mask_true_and_anti():
    bits = np.array([0, 1, 0, 1])
    anti = np.array([False, False, True, True])
    assert charged_mask(bits, anti).tolist() == [False, True, True, False]


def test_invalid_population_args():
    with pytest.raises(ValueError):
        make_population(true_cell_fraction=1.5)
    with pytest.raises(ValueError):
        make_population(row_bits=32)
    with pytest.raises(ValueError):
        make_population(row_bits=8192 + 32)
