"""Weak-cell threshold populations.

Per-row cell thresholds are drawn lazily and deterministically from a
per-(rank, bank, row) RNG substream, so that results are reproducible
bit-for-bit (like re-testing the same physical chip) and materializing one
row never perturbs another.

Three populations exist per row, matching the paper's finding (Takeaway 2)
that RowHammer, RowPress, and retention failures affect almost disjoint
cell sets:

* hammer cells — threshold ``H`` in *reference aggressor activations*,
* press cells — threshold ``P`` in *effective on-time nanoseconds*,
* retention cells — retention time ``R`` in nanoseconds at 80 degC.

Threshold distributions are **piecewise power-law tails** described by
log-log anchor points ``(threshold, expected count per 65536-bit row below
that threshold)``.  This lets :mod:`repro.dram.catalog` calibrate each die
revision *directly* from the paper's Tables 5 and 6: the row-minimum
anchor (count ~ 0.56 puts the expected per-row minimum at that threshold)
and the bit-error-rate anchors at the doses reachable within the 60 ms
experiment budget.  A per-row lognormal strength factor reproduces the
row-to-row spread of the paper's min/mean statistics.

Press cells flip by *losing* charge (charge attraction; Obsv. 8), hammer
cells by *gaining* charge (injection), so a cell's stored value and its
true-/anti-cell polarity decide both eligibility and bitflip direction.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.rng import SeedTree

#: Row size the anchor counts are defined at (the paper's 8 KiB row).
REFERENCE_ROW_BITS = 65536

#: Expected count below a threshold that makes that threshold the expected
#: per-row minimum (Euler-Mascheroni-ish order-statistics constant).
MIN_ANCHOR_COUNT = 0.56

#: Version of the weak-cell model.  Bump it whenever a change alters the
#: cells sampled for a given seed, and so every record a campaign yields;
#: :func:`repro.service.store.spec_key` folds it into the service's cache
#: keys, so results of another model version are never served.
#: Version 2: clustered columns come from :func:`_sample_clustered`.
MODEL_VERSION = 2

#: Bits per ECC word; press cells cluster within words (Fig. 25/26).
WORD_BITS = 64

#: Largest cluster: geometric cluster sizes are capped here.
MAX_CLUSTER_SIZE = 32

#: Clustering stops once this fraction of a row is still free (each drawn
#: offset then lands with lower odds); the rest of the count is uniform.
STALL_FREE_FRACTION = 1.0 / 16.0


@dataclass(frozen=True)
class TailAnchor:
    """One calibration point: ``count`` expected cells below ``threshold``.

    Counts are per :data:`REFERENCE_ROW_BITS` bits.
    """

    threshold: float
    count: float

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.count <= 0:
            raise ValueError("anchor threshold and count must be positive")


@dataclass(frozen=True)
class PopulationSpec:
    """Piecewise power-law tail of one weak-cell population.

    ``anchors`` must be strictly increasing in both threshold and count.
    Below the first anchor and above the last one, the curve extrapolates
    with the slope of the adjacent segment (a single anchor uses
    ``default_slope``).  Cells are materialized up to ``cap``; thresholds
    beyond it can never fail within the experiment budget.
    ``row_sigma`` is the lognormal sigma of a per-row strength multiplier
    applied to every threshold in a row.
    """

    anchors: tuple[TailAnchor, ...]
    cap: float
    row_sigma: float = 0.0
    cluster_size_mean: float = 1.0
    default_slope: float = 6.0
    #: The per-row strength factor applies only to thresholds below this
    #: value (the deep tail that sets the row minimum).  ``None`` = all.
    #: Without this, a weak row would also multiply its *bulk* cell count
    #: through the steep tail slope, inflating worst-row BER far beyond
    #: the paper's Table 6.
    row_sigma_boundary: float | None = None

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.cluster_size_mean < 1.0:
            raise ValueError("cluster_size_mean must be >= 1")
        if self.row_sigma < 0.0:
            raise ValueError("row_sigma must be >= 0")
        thresholds = [a.threshold for a in self.anchors]
        counts = [a.count for a in self.anchors]
        if sorted(thresholds) != thresholds or sorted(counts) != counts:
            raise ValueError("anchors must increase in threshold and count")
        if len(set(thresholds)) != len(thresholds):
            raise ValueError("anchor thresholds must be distinct")

    @property
    def empty(self) -> bool:
        """Whether this spec produces no cells."""
        return not self.anchors

    def count_below(self, threshold: float) -> float:
        """Expected cells per reference row with threshold below ``threshold``."""
        if self.empty or threshold <= 0:
            return 0.0
        threshold = min(threshold, self.cap)
        anchors = self.anchors
        if len(anchors) == 1:
            base = anchors[0]
            return base.count * (threshold / base.threshold) ** self.default_slope
        # Locate the segment (log-log linear interpolation / extrapolation).
        if threshold <= anchors[0].threshold:
            lo, hi = anchors[0], anchors[1]
        elif threshold >= anchors[-1].threshold:
            lo, hi = anchors[-2], anchors[-1]
        else:
            lo = anchors[0]
            hi = anchors[-1]
            for left, right in zip(anchors, anchors[1:]):
                if left.threshold <= threshold <= right.threshold:
                    lo, hi = left, right
                    break
        slope = math.log(hi.count / lo.count) / math.log(hi.threshold / lo.threshold)
        return lo.count * (threshold / lo.threshold) ** slope

    def inverse_count(self, count: float) -> float:
        """Threshold at which ``count_below`` equals ``count``."""
        if self.empty or count <= 0:
            return math.inf
        anchors = self.anchors
        if len(anchors) == 1:
            base = anchors[0]
            value = base.threshold * (count / base.count) ** (1.0 / self.default_slope)
            return min(value, self.cap)
        if count <= anchors[0].count:
            lo, hi = anchors[0], anchors[1]
        elif count >= anchors[-1].count:
            lo, hi = anchors[-2], anchors[-1]
        else:
            lo = anchors[0]
            hi = anchors[-1]
            for left, right in zip(anchors, anchors[1:]):
                if left.count <= count <= right.count:
                    lo, hi = left, right
                    break
        slope = math.log(hi.count / lo.count) / math.log(hi.threshold / lo.threshold)
        value = lo.threshold * (count / lo.count) ** (1.0 / slope)
        return min(value, self.cap)

    def expected_min(self) -> float:
        """Expected per-row minimum threshold (the ACmin/t_AggONmin anchor)."""
        return self.inverse_count(MIN_ANCHOR_COUNT)

    def scaled(self, threshold_factor: float) -> "PopulationSpec":
        """A copy with every threshold scaled by ``threshold_factor``.

        Used to model specimen-to-specimen strength variation (e.g. the
        paper's real-system demo DIMM resists RowHammer far better than
        the fleet's Table 5 population statistics).
        """
        if threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        if self.empty:
            return self
        boundary = self.row_sigma_boundary
        return PopulationSpec(
            anchors=tuple(
                TailAnchor(a.threshold * threshold_factor, a.count) for a in self.anchors
            ),
            cap=self.cap * threshold_factor,
            row_sigma=self.row_sigma,
            cluster_size_mean=self.cluster_size_mean,
            default_slope=self.default_slope,
            row_sigma_boundary=boundary * threshold_factor if boundary else None,
        )

    @cached_property
    def _segment_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(anchor counts, anchor thresholds, inverse slopes) for sampling."""
        counts = np.array([a.count for a in self.anchors], dtype=np.float64)
        thresholds = np.array([a.threshold for a in self.anchors], dtype=np.float64)
        if len(self.anchors) == 1:
            inv_slopes = np.array([1.0 / self.default_slope])
        else:
            slopes = np.log(counts[1:] / counts[:-1]) / np.log(
                thresholds[1:] / thresholds[:-1]
            )
            inv_slopes = 1.0 / slopes
        return counts, thresholds, inv_slopes

    def inverse_count_array(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`inverse_count` (used by the row sampler)."""
        if self.empty:
            return np.full(counts.shape, math.inf)
        anchor_counts, anchor_thresholds, inv_slopes = self._segment_arrays
        if len(self.anchors) == 1:
            values = anchor_thresholds[0] * (counts / anchor_counts[0]) ** inv_slopes[0]
            return np.minimum(values, self.cap)
        segment = np.clip(np.searchsorted(anchor_counts, counts), 1, len(self.anchors) - 1)
        lo = segment - 1
        values = anchor_thresholds[lo] * (counts / anchor_counts[lo]) ** inv_slopes[lo]
        return np.minimum(values, self.cap)


#: A spec that produces no cells (dies immune to a mechanism, e.g. Mfr. M
#: 8Gb B-die for RowPress, Table 5).
EMPTY_SPEC = PopulationSpec(anchors=(), cap=1.0)


@dataclass
class CellSet:
    """One population's materialized cells in a row."""

    columns: np.ndarray  # int64 bit positions
    thresholds: np.ndarray  # float64
    anti: np.ndarray  # bool: True for anti-cells (charged encodes 0)

    @property
    def size(self) -> int:
        """Number of materialized cells."""
        return int(self.columns.size)

    @property
    def min_threshold(self) -> float:
        """Smallest threshold (inf when empty)."""
        return float(self.thresholds.min()) if self.thresholds.size else math.inf


def _empty_cellset() -> CellSet:
    return CellSet(
        columns=np.empty(0, dtype=np.int64),
        thresholds=np.empty(0, dtype=np.float64),
        anti=np.empty(0, dtype=bool),
    )


@dataclass
class WeakCells:
    """All materialized weak cells of one row."""

    row_bits: int
    hammer: CellSet
    press: CellSet
    retention: CellSet

    @property
    def min_hammer_threshold(self) -> float:
        """Smallest hammer threshold in the row (inf when none)."""
        return self.hammer.min_threshold

    @property
    def min_press_threshold(self) -> float:
        """Smallest press threshold in the row (inf when none)."""
        return self.press.min_threshold


def _sample_columns(
    rng: np.random.Generator,
    count: int,
    row_bits: int,
    cluster_size_mean: float,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``count`` distinct columns, optionally word-clustered."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    allowed = np.ones(row_bits, dtype=bool)
    if forbidden is not None and forbidden.size:
        allowed[forbidden] = False
    pool_size = int(allowed.sum())
    count = min(count, pool_size)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if count >= pool_size:
        # Saturated population: every allowed column is weak, so the
        # draw is the whole pool no matter how it would be clustered.
        return np.flatnonzero(allowed).astype(np.int64)
    if cluster_size_mean <= 1.0:
        pool = np.flatnonzero(allowed)
        return np.sort(rng.choice(pool, size=count, replace=False))
    return _sample_clustered(rng, count, row_bits, cluster_size_mean, allowed)


def _sample_clustered(
    rng: np.random.Generator,
    count: int,
    row_bits: int,
    cluster_size_mean: float,
    allowed: np.ndarray,
) -> np.ndarray:
    """Place exactly ``count`` word-clustered cells on ``allowed`` columns.

    Clusters group cells into 64-bit words so that multi-bit ECC words
    appear (Fig. 25/26).  They arrive one after another: a geometric
    size (mean ``cluster_size_mean``, capped at :data:`MAX_CLUSTER_SIZE`),
    a uniform word, and that many distinct uniform offsets over all 64
    bits of the word.  An offset on a forbidden or already-taken column
    is dropped; this thinning sets the per-word statistics of a crowded
    row.  The cluster that crosses ``count`` keeps a uniform subset of
    its cells.  Each batch draws the clusters expected to place the
    remaining cells, so the RNG volume scales with the cells drawn.

    A drawn offset lands with probability (free bits / ``row_bits``),
    so clustering stalls in a nearly full row: it stops once only
    :data:`STALL_FREE_FRACTION` of the row is free, and the remaining
    cells are drawn uniformly from the free columns.
    """
    free = allowed.copy()
    pool_size = int(np.count_nonzero(free))
    n_free = pool_size
    stall = min(pool_size, math.ceil(STALL_FREE_FRACTION * row_bits))
    floor = max(pool_size - count, stall)  # free columns left when clustering ends
    geometric_p = 1.0 / cluster_size_mean
    while n_free > floor:
        need = n_free - floor
        # Landing odds fall as the row fills: row_bits * ln(n_free / floor)
        # offsets are expected to place ``need`` cells.  The slack makes
        # one batch usually suffice; a short batch is followed by another.
        draws = row_bits * math.log(n_free / floor)
        n_clusters = int(1.02 * draws / cluster_size_mean) + 4
        sizes = np.minimum(rng.geometric(geometric_p, size=n_clusters), MAX_CLUSTER_SIZE)
        words = rng.integers(0, row_bits // WORD_BITS, size=n_clusters)
        columns = np.repeat(words * WORD_BITS, sizes) + _cluster_offsets(rng, sizes)
        landed = free[columns]
        columns = columns[landed]
        free[columns] = False
        placed = n_free - int(np.count_nonzero(free))
        if placed > need:
            free[columns] = True
            owners = np.repeat(np.arange(n_clusters), sizes)[landed]
            free[_first_cells(rng, columns, owners, need, row_bits)] = False
            placed = need
        n_free -= placed
    top_up = floor - (pool_size - count)
    if top_up > 0:
        free[rng.choice(np.flatnonzero(free), size=top_up, replace=False)] = False
    return np.flatnonzero(allowed & ~free).astype(np.int64)


def _cluster_offsets(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """Distinct uniform in-word offsets for each cluster, cluster-major.

    Floyd's algorithm for every cluster at once: step ``s`` draws one
    offset for each cluster larger than ``s``, so the draws total
    ``sizes.sum()``.  Clusters are visited largest first, which makes
    each step's active clusters a prefix.  Within a cluster the offsets
    form a uniform subset, but their order is not uniform.
    """
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(-sizes.astype(np.int8), kind="stable")
    descending = sizes[order]
    slots = starts[order]
    offsets = np.empty(int(sizes.sum()), dtype=np.int64)
    used = np.zeros(sizes.size, dtype=np.uint64)  # per-cluster offset bitmask
    for step in range(int(descending[0])):
        active = int(np.searchsorted(-descending, -step))  # clusters larger than step
        top = WORD_BITS + step - descending[:active]
        pick = rng.integers(0, top + 1).astype(np.uint64)
        mask = used[:active]
        seen = ((mask >> pick) & np.uint64(1)).astype(bool)
        pick = np.where(seen, top.astype(np.uint64), pick)
        mask |= np.uint64(1) << pick
        offsets[slots[:active] + step] = pick
    return offsets


def _first_cells(
    rng: np.random.Generator,
    columns: np.ndarray,
    owners: np.ndarray,
    need: int,
    row_bits: int,
) -> np.ndarray:
    """The first ``need`` distinct ``columns`` in cluster order.

    ``owners`` (non-decreasing) names each column's cluster.  A column
    two clusters share belongs to the earlier one.  The cluster that
    crosses ``need`` keeps a uniform subset of its cells, since
    :func:`_cluster_offsets` orders a cluster's offsets non-uniformly.
    """
    position = np.arange(columns.size)
    first = np.full(row_bits, columns.size)
    np.minimum.at(first, columns, position)
    fresh = first[columns] == position
    columns, owners = columns[fresh], owners[fresh]
    edge = owners[need - 1]
    whole = columns[owners < edge]
    partial = rng.choice(columns[owners == edge], size=need - whole.size, replace=False)
    return np.concatenate([whole, partial])


def _sample_thresholds(
    rng: np.random.Generator, spec: PopulationSpec, count: int, row_factor: float
) -> np.ndarray:
    """Inverse-CDF sample of ``count`` thresholds, scaled by ``row_factor``."""
    total = spec.count_below(spec.cap)
    quantiles = rng.random(count) * total
    thresholds = spec.inverse_count_array(quantiles)
    if row_factor != 1.0:
        if spec.row_sigma_boundary is None:
            thresholds = thresholds * row_factor
        else:
            tail = thresholds < spec.row_sigma_boundary
            thresholds = thresholds.copy()
            thresholds[tail] *= row_factor
    return thresholds


class CellPopulation:
    """Per-module lazy factory of :class:`WeakCells`, keyed by (rank, bank, row)."""

    def __init__(
        self,
        seed_tree: SeedTree,
        row_bits: int,
        hammer: PopulationSpec,
        press: PopulationSpec,
        retention: PopulationSpec,
        true_cell_fraction: float = 1.0,
        cache_rows: int = 2048,
    ) -> None:
        if not 0.0 <= true_cell_fraction <= 1.0:
            raise ValueError("true_cell_fraction must be in [0, 1]")
        if row_bits < WORD_BITS or row_bits % WORD_BITS:
            raise ValueError("row_bits must be a positive multiple of 64")
        self._seed_tree = seed_tree
        self.row_bits = row_bits
        self.hammer_spec = hammer
        self.press_spec = press
        self.retention_spec = retention
        self.true_cell_fraction = true_cell_fraction
        self._cache: OrderedDict[tuple[int, int, int], WeakCells] = OrderedDict()
        self._cache_rows = cache_rows

    def _row_scale(self) -> float:
        return self.row_bits / REFERENCE_ROW_BITS

    def _sample_set(
        self,
        rng: np.random.Generator,
        spec: PopulationSpec,
        forbidden: np.ndarray | None = None,
    ) -> CellSet:
        if spec.empty:
            return _empty_cellset()
        row_factor = 1.0
        if spec.row_sigma > 0.0:
            row_factor = float(
                np.exp(rng.normal(-0.5 * spec.row_sigma**2, spec.row_sigma))
            )
        expected = spec.count_below(spec.cap) * self._row_scale()
        expected = min(expected, float(self.row_bits))  # physical ceiling
        count = int(rng.poisson(expected)) if expected > 0 else 0
        count = min(count, self.row_bits - (forbidden.size if forbidden is not None else 0))
        if count <= 0:
            return _empty_cellset()
        columns = _sample_columns(rng, count, self.row_bits, spec.cluster_size_mean, forbidden)
        thresholds = _sample_thresholds(rng, spec, columns.size, row_factor)
        anti = rng.random(columns.size) >= self.true_cell_fraction
        return CellSet(columns=columns, thresholds=thresholds, anti=anti)

    def row(self, rank: int, bank: int, row: int) -> WeakCells:
        """Materialize (or fetch cached) weak cells of one row."""
        key = (rank, bank, row)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        rng = self._seed_tree.generator("cells", rank, bank, row)
        hammer = self._sample_set(rng, self.hammer_spec)
        # Press and retention cells avoid hammer columns: the paper finds
        # the vulnerable populations are (almost) disjoint (Obsv. 7).
        press = self._sample_set(rng, self.press_spec, forbidden=hammer.columns)
        occupied = np.concatenate([hammer.columns, press.columns])
        retention = self._sample_set(rng, self.retention_spec, forbidden=occupied)
        cells = WeakCells(
            row_bits=self.row_bits, hammer=hammer, press=press, retention=retention
        )
        self._cache[key] = cells
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return cells


def charged_mask(bits: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Whether each cell stores charge: true cells encode 1 as charged."""
    return (bits == 1) ^ anti
