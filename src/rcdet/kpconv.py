"""Learning-based radar cluster features: a kernel-point convolution stack.

A cluster is turned into a point set (positions relative to the cluster
centroid; per-point features = normalized BEV position, compensated velocity,
and a constant 1.0 channel) and pushed through a stack of kernel-point
convolution layers. Layers after the first are strided: query locations come
from grid subsampling with a cell size that doubles per layer, so the point
count shrinks while the channel count grows. Global average pooling over the
surviving points yields one feature row per cluster. All clusters of a frame
go through the stack in one pass (``learned_rows``).

Each layer's weight product (``_contract``) runs over the whole frame as one
of two products, picked by the layer's weight shape alone. A narrow layer
(in × out below ``_SPARSE_MIN_WEIGHTS``: every ``lite`` layer, ``large``
layer 0) multiplies all rows by the stacked (K·in, out) kernel in blocks
of exactly ``_ROW_BLOCK`` rows. A wide layer multiplies each kernel point's
(in, out) block only by the rows that kernel point reaches, in one BLAS call
over those rows zero-padded to a multiple of ``_KERNEL_ROW_BLOCK``: a query
reaches one or two of the 15 ``large`` kernel points, and its other
per-kernel-point inputs are exact zeros. A row's result depends only on that
row's own values, summed in a fixed order, so a cluster gets the same row in
any frame as alone. On narrow layers that holds because every call has one
shape; on wide layers it rests on BLAS computing a row of any multiple of
``_KERNEL_ROW_BLOCK`` rows as it does in a block of exactly that many, which
``test_wide_product_rows_independent_of_padded_row_count`` pins.

Kernel weights are drawn once from one seeded generator and frozen. They are
He-uniform (He et al., ICCV 2015; KPConv's reference code initialises its
kernels so): a layer with K kernel points and ``in`` input channels draws
U(-a, a) with a = sqrt(6 / (K * in)), so its weights have the He variance
2 / (K * in). The module provides forward evaluation and the analytic weight
gradient (for finite-difference verification), not training. Kernel point
dispositions are fixed (non-deformable), produced by a seeded repulsion
layout inside each layer's radius; the influence of a kernel point decays
linearly, reaching zero at ``influence_sigma`` (radius / 2 by default).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, SchemaVersionMismatch, check_number
from .features import (
    DEFAULT_POSITION_NORM,
    DEFAULT_VELOCITY_NORM,
    FeatureVector,
    HandcraftedConfig,
    extract_handcrafted,
)
from .radar import Cluster, canonical_members

POINT_FEATURE_DIM = 5  # (x, y, v_x, v_y, 1.0)
DEFAULT_BASE_CELL = 0.1
DEFAULT_NEIGHBOR_CAP = 26
RADIUS_PER_CELL = 2.5
_QUERY_BLOCK = 256  # queries per distance table in radius_neighbors
# Rows per weight product of a narrow layer in _contract. BLAS picks its
# kernel by the row count, so one fixed count keeps a row's bits independent
# of the others; 8 falls onto a slow small-matrix path, 64 re-reads less but
# computes more padding on the few-query deep layers.
_ROW_BLOCK = 32
# A layer is wide when its per-kernel-point block (in × out) has at least
# this many entries. Timed per layer on frames of the benchmark workloads,
# the kernel-point product took half the time or less on large 128×256 and
# up, about 0.2-0.35 less on large 64×128 (0.39 → 0.29 and 0.31 → 0.20 ms a
# hybrid-large frame), and 3-8 times as long on every lite layer and on
# large 5×64.
_SPARSE_MIN_WEIGHTS = 2**13
# A wide layer's kernel-point product pads its rows to a multiple of this.
# Each call re-reads the whole W_k (4 MiB on the last large layer), so a
# kernel point makes one call over all its rows; the padding keeps a single
# row off gemv, whose bits differ from a block's.
_KERNEL_ROW_BLOCK = 8

_CHECKPOINT_MAGIC = b"RCKP"
_CHECKPOINT_VERSION = 1


def _point_rows(name: str, values) -> np.ndarray:
    """``values`` as a float64 (N, 3) array; any other shape raises
    ``DimensionMismatch`` naming ``name`` instead of being reshaped."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise DimensionMismatch(f"{name} must have shape (N, 3), got {array.shape}")
    return array


@dataclass(eq=False)
class PointFeatures:
    """A point set with per-point feature rows: positions (N, 3), features (N, C)."""

    positions: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        self.positions = _point_rows("positions", self.positions)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.positions.shape[0]:
            raise DimensionMismatch(
                f"features {self.features.shape} do not match positions "
                f"{self.positions.shape}"
            )

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(eq=False)
class KPConvLayerConfig:
    """One kernel-point convolution layer: geometry, weights, stride flag."""

    kernel_points: np.ndarray
    weights: np.ndarray
    radius: float
    influence_sigma: float
    strided: bool

    def __post_init__(self) -> None:
        self.kernel_points = np.asarray(self.kernel_points, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.kernel_points.ndim != 2 or self.kernel_points.shape[1] != 3:
            raise ValueError(f"kernel_points must be (K, 3), got {self.kernel_points.shape}")
        k = self.kernel_points.shape[0]
        if self.weights.ndim != 3 or self.weights.shape[0] != k:
            raise ValueError(
                f"weights must be (K, in, out) with K={k}, got {self.weights.shape}"
            )
        if self.weights.shape[2] < 1:
            raise ValueError("out_channels must be positive")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if not np.all(np.isfinite(self.kernel_points)):
            raise ValueError("kernel points must be finite")
        check_number("radius", self.radius, above=0)
        check_number("influence_sigma", self.influence_sigma, above=0)
        norms = np.linalg.norm(self.kernel_points, axis=1)
        if norms.max() > self.radius * (1.0 + 1e-9):
            raise ValueError("kernel points must lie within the layer radius")

    @property
    def kernel_point_count(self) -> int:
        return self.kernel_points.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[2]


@dataclass(eq=False)
class KPNetworkConfig:
    """Ordered layer stack plus the subsampling schedule and neighbor cap."""

    layers: list[KPConvLayerConfig]
    base_cell_size: float = DEFAULT_BASE_CELL
    neighbor_cap: int | None = DEFAULT_NEIGHBOR_CAP
    variant: str = "custom"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        check_number("base_cell_size", self.base_cell_size, above=0)
        check_number("neighbor_cap", self.neighbor_cap, integer=True, optional=True, low=1)
        if self.layers[0].in_channels != POINT_FEATURE_DIM:
            raise ValueError(
                f"first layer takes {self.layers[0].in_channels} input channels, "
                f"points have {POINT_FEATURE_DIM}"
            )
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_channels != nxt.in_channels:
                raise ValueError(
                    f"channel chain broken: {prev.out_channels} -> {nxt.in_channels}"
                )

    @property
    def first_dim(self) -> int:
        return self.layers[0].out_channels

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_channels


# (kernel size, layer count, first dim, output dim) per named configuration.
VARIANT_SPECS = {
    "lite": (8, 4, 8, 64),
    "medium": (15, 5, 32, 512),
    "large": (15, 5, 64, 1024),
}


def kernel_point_layout(count: int, radius: float, seed: int) -> np.ndarray:
    """Seeded repulsion layout of ``count`` kernel points inside a ball.

    The first point is pinned to the origin; the rest start uniform in the
    unit ball and repel each other for a fixed number of steps, staying
    inside the ball, before scaling to ``radius``.
    """
    return _kernel_point_layouts(count, [radius], [seed])[0]


def _kernel_point_layouts(
    count: int, radii: Sequence[float], seeds: Sequence[int]
) -> np.ndarray:
    """:func:`kernel_point_layout` for each (radius, seed) pair, shape
    (len(seeds), count, 3). Each layout starts from its own generator and
    all of them repel in one loop; no layout sees another's points."""
    if count < 1:
        raise ValueError("need at least one kernel point")
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        directions = rng.normal(size=(count, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        starts.append(directions * rng.uniform(size=(count, 1)) ** (1.0 / 3.0))
    # Coordinate planes (3, layouts, count). Each norm sums (x² + y²) + z²
    # and the force sums over j along a non-inner axis, in j order, as a
    # per-point loop would: other orders change the layouts' bits.
    points = np.stack(starts).transpose(2, 0, 1).copy()
    points[:, :, 0] = 0.0
    eye = np.eye(count)
    for _ in range(150):
        diff = points[:, :, None, :] - points[:, :, :, None]  # [c, l, j, i] = p_i - p_j
        x, y, z = diff
        diff /= (np.sqrt((x * x + y * y) + z * z) + eye) ** 3
        step = np.clip(0.01 * np.add.reduce(diff, axis=2), -0.05, 0.05)
        step[:, :, 0] = 0.0
        points += step
        x, y, z = points
        points /= np.maximum(np.sqrt((x * x + y * y) + z * z), 1.0)
    layouts = np.ascontiguousarray(points.transpose(1, 2, 0))
    return layouts * np.asarray(radii, dtype=np.float64)[:, None, None]


def build_network(variant: str = "large", seed: int = 0) -> KPNetworkConfig:
    """Construct a named network configuration with seeded frozen weights.

    Channel counts double per layer from ``first_dim`` to ``output_dim``;
    layer i's grid cell is base_cell_size * 2**i with radius 2.5x the cell.
    The layers draw their He-uniform weights in layer order from one
    ``default_rng(seed)`` stream, each scaled in place to [-a, a].
    """
    if variant not in VARIANT_SPECS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {sorted(VARIANT_SPECS)}")
    kernel_size, n_layers, first_dim, output_dim = VARIANT_SPECS[variant]
    rng = np.random.default_rng(seed)
    radii = [RADIUS_PER_CELL * (DEFAULT_BASE_CELL * 2.0**i) for i in range(n_layers)]
    layouts = _kernel_point_layouts(
        kernel_size, radii, [seed * 1000 + i for i in range(n_layers)]
    )
    layers = []
    in_channels = POINT_FEATURE_DIM
    out_channels = first_dim
    for i, (radius, kernel_points) in enumerate(zip(radii, layouts)):
        bound = np.sqrt(6.0 / (kernel_size * in_channels))
        weights = rng.random((kernel_size, in_channels, out_channels))
        weights *= 2.0 * bound
        weights -= bound
        layers.append(
            KPConvLayerConfig(
                kernel_points=kernel_points,
                weights=weights,
                radius=radius,
                influence_sigma=0.5 * radius,
                strided=i > 0,
            )
        )
        in_channels = out_channels
        out_channels = min(out_channels * 2, output_dim)
    assert layers[-1].out_channels == output_dim
    return KPNetworkConfig(layers=layers, variant=variant)


def _grid_cells(
    positions: np.ndarray, segments: np.ndarray, cell: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied grid cells of segmented points: each cell's segment id, each
    point's cell index and each cell's point count.

    Cells are keyed by (segment id, floor division of the coordinates) and
    ordered by that key lexicographically, so a segment's cells are
    contiguous and ordered as if the segment were subsampled alone. One
    ``np.lexsort`` orders the points by key; a cell starts wherever a key
    differs from the one before it.
    """
    check_number("cell size", cell, above=0)
    keys = [segments, *(np.floor(positions[:, k] / cell).astype(np.int64) for k in range(3))]
    order = np.lexsort(keys[::-1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    first = np.flatnonzero(starts)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    counts = np.diff(first, append=order.size)
    return segments[order[first]], inverse, counts


def _cell_means(values: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Unbuffered np.add.at accumulates left-to-right over input order.
    sums = np.zeros((counts.size, values.shape[1]))
    np.add.at(sums, inverse, values)
    return sums / counts[:, None]


def grid_subsample(points: PointFeatures, cell: float) -> PointFeatures:
    """One output point per occupied grid cell: position barycenter, feature mean.

    Cells are keyed by floor division of the coordinates; outputs are ordered
    by cell index lexicographically. Per-cell accumulation runs left-to-right
    over input order (unbuffered ``np.add.at``) so results are reproducible
    bit-for-bit.
    """
    _, inverse, counts = _grid_cells(points.positions, np.zeros(points.count, np.int64), cell)
    return PointFeatures(
        positions=_cell_means(points.positions, inverse, counts),
        features=_cell_means(points.features, inverse, counts),
    )


def _segment_neighbors(
    queries: np.ndarray,
    query_segments: np.ndarray,
    support: np.ndarray,
    support_bounds: np.ndarray,
    radius: float,
    cap: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors of each query among the support points of its own segment.

    Segment s owns support rows ``support_bounds[s]:support_bounds[s + 1]``.
    Returns a table (N_q, M) of support indices, each row sorted by (squared
    distance, index), truncated to ``cap`` and padded with N_s up to the
    longest row M, plus each row's length. The support is laid out once as
    (3, segments, longest segment) coordinate planes padded with +inf past
    each segment's end, so a query's distance row is its segment's plane
    rows: the squared distance is (dx² + dy²) + dz², and the padding's is
    +inf. Queries are processed in blocks of ``_QUERY_BLOCK``, so a distance
    table holds at most that many rows of the longest segment. Entries not
    within the radius (a NaN query's included) are set to +inf before the
    sort.
    """
    n_s = support.shape[0]
    sizes = np.diff(support_bounds)
    r2 = radius * radius
    longest = sizes.max(initial=0)
    width = longest if cap is None else min(cap, longest)
    segments = np.repeat(np.arange(sizes.size), sizes)
    planes = np.full((3, sizes.size, longest), np.inf)
    planes[:, segments, np.arange(n_s) - support_bounds[segments]] = support.T
    table = np.full((queries.shape[0], width), n_s, dtype=np.intp)
    lengths = np.zeros(queries.shape[0], dtype=np.intp)
    slots = np.arange(width)
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        rows = query_segments[block]
        d2 = planes[0][rows]
        d2 -= queries[block, 0, None]
        d2 *= d2
        for k in (1, 2):
            square = planes[k][rows]
            square -= queries[block, k, None]
            square *= square
            d2 += square
        within = d2 <= r2
        d2[~within] = np.inf
        # A stable sort puts the in-radius entries first, ordered by
        # (squared distance, index within the segment).
        order = np.argsort(d2, axis=1, kind="stable")[:, :width]
        count = within.sum(axis=1)
        lengths[block] = count if cap is None else np.minimum(count, cap)
        np.copyto(
            table[block],
            order + support_bounds[rows, None],
            where=slots < lengths[block, None],
        )
    return table[:, : lengths.max(initial=0)], lengths


def radius_neighbors(
    queries: np.ndarray,
    support: np.ndarray,
    radius: float,
    cap: int | None = None,
) -> list[np.ndarray]:
    """Per-query support indices within ``radius``, nearest-first.

    Results are sorted by (squared distance, index) and truncated to ``cap``
    entries when given. Distances are compared squared, so the decision is
    exactly reproducible by a scalar oracle. Queries are processed in blocks
    of ``_QUERY_BLOCK`` so the distance table stays block x N_s.
    """
    check_number("radius", radius, above=0)
    check_number("neighbor_cap", cap, integer=True, optional=True, low=1)
    queries = _point_rows("queries", queries)
    support = _point_rows("support", support)
    table, lengths = _segment_neighbors(
        queries,
        np.zeros(queries.shape[0], dtype=np.intp),
        support,
        np.array([0, support.shape[0]]),
        radius,
        cap,
    )
    return [row[:n] for row, n in zip(table, lengths)]


def _neighborhood(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    table: np.ndarray,
) -> np.ndarray:
    """Influence-weighted neighbor features per query and kernel point,
    flattened to (N_q, K * in).

    ``table`` (N_q, M) lists each query's support indices, padded with
    ``support.count``, the index of one extra support row of zero features.
    The influence is computed only at the real entries
    (:func:`_influence_table`); a padded slot is an exact zero times that
    zero row, so it adds an exact zero and never reads a real point.
    """
    if support.features.shape[1] != layer.in_channels:
        raise DimensionMismatch(
            f"support features have {support.features.shape[1]} channels, "
            f"layer expects {layer.in_channels}"
        )
    influence = _influence_table(layer, query_positions, support.positions, table)
    features = np.vstack([support.features, np.zeros((1, layer.in_channels))])
    weighted = influence.transpose(1, 0, 2) @ np.take(features, table, axis=0)  # (N_q, K, in)
    return weighted.reshape(table.shape[0], -1)


def _influence_table(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    positions: np.ndarray,
    table: np.ndarray,
) -> np.ndarray:
    """Each kernel point's influence at each slot of ``table``, shape
    (K, N_q, M). Only the real entries, those below ``len(positions)``, are
    computed (:func:`_influence` over their flat coordinate planes) and
    scattered into zeros; a padded slot stays an exact zero."""
    real = table < len(positions)
    flat = np.flatnonzero(real)
    neighbors = np.take(table, flat)
    counts = np.count_nonzero(real, axis=1)
    rel = [
        np.take(positions[:, k], neighbors) - np.repeat(query_positions[:, k], counts)
        for k in range(3)
    ]
    influence = np.zeros((layer.kernel_point_count, table.size))
    influence[:, flat] = _influence(layer, rel)
    return influence.reshape(layer.kernel_point_count, *table.shape)


def _influence(layer: KPConvLayerConfig, rel: Sequence[np.ndarray]) -> np.ndarray:
    """Each kernel point's linear influence on neighbors at relative
    positions ``rel``, the flat x, y and z planes (P,), shape (K, P).

    The distance to kernel point k is sqrt((dx² + dy²) + dz²), one
    coordinate at a time over (K, P) planes, kernel point outermost."""
    points = layer.kernel_points
    dist = np.subtract(rel[0], points[:, 0, None])
    dist *= dist
    square = np.empty_like(dist)
    for k in (1, 2):
        np.subtract(rel[k], points[:, k, None], out=square)
        square *= square
        dist += square
    np.sqrt(dist, out=dist)
    dist /= layer.influence_sigma
    np.subtract(1.0, dist, out=dist)
    return np.maximum(0.0, dist, out=dist)


def _listed_neighborhood(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
) -> np.ndarray:
    """:func:`_neighborhood` of per-query neighbor lists: one 1-D array of
    integer indices in [0, ``support.count``) per query. An empty list may
    have any dtype; anything else is rejected rather than cast or taken as
    padding."""
    query_positions = _point_rows("query_positions", query_positions)
    n_q = query_positions.shape[0]
    if len(neighbors) != n_q:
        raise DimensionMismatch("one neighbor list per query is required")
    lists = [np.asarray(row) for row in neighbors]
    if any(row.ndim != 1 or (row.size and row.dtype.kind not in "iu") for row in lists):
        raise ValueError("each neighbors entry must be a 1-D array of integer indices")
    flat = np.concatenate([np.zeros(0, np.intp), *(row.astype(np.intp) for row in lists)])
    if flat.size and not (flat.min() >= 0 and flat.max() < support.count):
        raise DimensionMismatch(
            f"neighbors indices must lie in [0, {support.count}), "
            f"got {flat.min()}..{flat.max()}"
        )
    lengths = np.fromiter(map(len, lists), dtype=np.intp, count=n_q)
    table = np.full((n_q, lengths.max(initial=0)), support.count, dtype=np.intp)
    table[np.arange(table.shape[1]) < lengths[:, None]] = flat
    return _neighborhood(layer, query_positions, support, table)


def _contract(weighted: np.ndarray, layer: KPConvLayerConfig) -> np.ndarray:
    """The weight product (N_q, K*in) @ (K*in, out) of a layer, shape (N_q, out).

    A layer whose per-kernel-point block W_k has fewer than
    ``_SPARSE_MIN_WEIGHTS`` entries (in × out) multiplies all of ``weighted``
    by the stacked kernel in blocks of ``_ROW_BLOCK`` rows. A wider layer
    works one kernel point at a time: a query reaches only a few of the K
    kernel points, and the other (row, k) blocks of ``weighted`` are exact
    zeros. Kernel point k multiplies only its active rows, those whose
    (row, k) block has a nonzero entry, by W_k in one call, the rows
    zero-padded to a multiple of ``_KERNEL_ROW_BLOCK``, and each row sums its
    products over its active kernel points in ascending k, starting from zero.

    A row's sum runs over its own blocks only, and a wide layer's BLAS call
    gives a row the bits it has in a call of exactly ``_KERNEL_ROW_BLOCK``
    rows (pinned by ``test_wide_product_rows_independent_of_padded_row_count``),
    so a row's bits do not depend on how many rows share the product or
    where the row sits in it.
    """
    k, c_in, c_out = layer.weights.shape
    if c_in * c_out < _SPARSE_MIN_WEIGHTS:
        return _row_blocks(weighted, layer.weights.reshape(-1, c_out), _ROW_BLOCK)
    blocks = weighted.reshape(-1, k, c_in)
    active = blocks.any(axis=2)
    out = np.zeros((blocks.shape[0], c_out))
    for point, kernel in enumerate(layer.weights):
        rows = np.flatnonzero(active[:, point])
        if rows.size:
            padded = -(-rows.size // _KERNEL_ROW_BLOCK) * _KERNEL_ROW_BLOCK
            out[rows] += _row_blocks(blocks[rows, point], kernel, padded)
    return out


def _row_blocks(rows: np.ndarray, kernel: np.ndarray, block: int) -> np.ndarray:
    """``rows @ kernel``, with the rows zero-padded to a multiple of
    ``block`` and each block of exactly ``block`` rows one BLAS call."""
    n = rows.shape[0]
    padded = np.zeros((-(-n // block) * block, rows.shape[1]))
    padded[:n] = rows
    out = np.empty((padded.shape[0], kernel.shape[1]))
    for start in range(0, n, block):
        part = slice(start, start + block)
        np.matmul(padded[part], kernel, out=out[part])
    return out[:n]


def kpconv_forward(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
) -> np.ndarray:
    """Kernel-point convolution at each query, shape (N_q, out_channels).

    out(q) = sum over neighbors i and kernel points k of
    max(0, 1 - |p_i - q - y_k| / sigma) * (f_i @ W_k); empty neighborhoods
    produce zero rows. The weight product (``_contract``) computes each
    query's row from that row alone, so it is bit-identical to the same
    query's row in any other product, such as a frame pass.
    """
    weighted = _listed_neighborhood(layer, query_positions, support, neighbors)
    return _contract(weighted, layer)


def kpconv_weight_grad(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
    upstream: np.ndarray,
) -> np.ndarray:
    """Analytic gradient of sum(upstream * forward) wrt the layer weights."""
    weighted = _listed_neighborhood(layer, query_positions, support, neighbors)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (weighted.shape[0], layer.out_channels):
        raise DimensionMismatch(
            f"upstream must be (N_q, {layer.out_channels}), got {upstream.shape}"
        )
    return (weighted.T @ upstream).reshape(layer.weights.shape)


def cluster_to_point_features(cluster: Cluster) -> PointFeatures:
    """Cluster members as a point set in the cluster-local frame.

    Positions are re-centered on the cluster centroid (meters); feature rows
    are (x, y, v_x, v_y, 1.0) with positions and velocities normalized by the
    handcrafted defaults. Members are in canonical order, so downstream
    processing is exactly invariant to the input ordering. This is the
    one-cluster case of :func:`_point_sets`.
    """
    return _point_sets(*canonical_members([cluster]))


def _point_sets(members: np.ndarray, bounds: np.ndarray) -> PointFeatures:
    """Every cluster's :func:`cluster_to_point_features`, stacked in cluster
    order, from the clusters' ``canonical_members`` ``members`` and
    ``bounds``; each centroid is the mean of its cluster's contiguous slice.
    """
    positions = members[:, :3].copy()
    norm = np.array([DEFAULT_POSITION_NORM] * 2 + [DEFAULT_VELOCITY_NORM] * 2)
    features = np.column_stack([members[:, [0, 1, 3, 4]] / norm, np.ones(len(members))])
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            positions[a:b] -= positions[a:b].mean(axis=0)
    return PointFeatures(positions=positions, features=features)


def learned_rows(clusters: Sequence[Cluster], net: KPNetworkConfig) -> np.ndarray:
    """Run the convolution stack over all clusters of a frame at once and
    average-pool each cluster to one row, shape (n_clusters, output_dim).

    The clusters' point sets are stacked (``_point_sets``), each point
    tagged with its cluster's segment id; subsampling and neighbor search
    never cross segments. The influence gather and the weight product each
    run once per layer over the whole frame; the product (``_contract``)
    gives every row the bits it has when its cluster runs alone. Empty
    clusters yield zero rows.
    """
    return _learned_rows(*canonical_members(clusters), net)


def _learned_rows(members: np.ndarray, bounds: np.ndarray, net: KPNetworkConfig) -> np.ndarray:
    """:func:`learned_rows` of the clusters whose ``canonical_members`` are
    ``members`` and ``bounds``."""
    n_clusters = len(bounds) - 1
    rows = np.zeros((n_clusters, net.output_dim))
    points = _point_sets(members, bounds)
    if not points.count:
        return rows
    positions, features = points.positions, points.features
    segments = np.repeat(np.arange(n_clusters), np.diff(bounds))
    for i, layer in enumerate(net.layers):
        if layer.strided:
            cell = net.base_cell_size * 2.0**i
            query_segments, inverse, counts = _grid_cells(positions, segments, cell)
            queries = _cell_means(positions, inverse, counts)
        else:
            queries, query_segments = positions, segments
        table, _ = _segment_neighbors(
            queries, query_segments, positions, bounds, layer.radius, net.neighbor_cap
        )
        weighted = _neighborhood(
            layer, queries, PointFeatures(positions=positions, features=features), table
        )
        features = _contract(weighted, layer)
        positions, segments = queries, query_segments
        bounds = np.searchsorted(segments, np.arange(n_clusters + 1))
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b > a:
            rows[s] = features[a:b].mean(axis=0)
    return rows


def extract_learned(cluster: Cluster, net: KPNetworkConfig) -> FeatureVector:
    """One cluster's row of :func:`learned_rows`.

    Empty clusters yield a zero vector of the network's output width.
    """
    return FeatureVector(values=learned_rows([cluster], net)[0], kind="learned")


def extract_hybrid(
    cluster: Cluster, cfg: HandcraftedConfig, net: KPNetworkConfig
) -> FeatureVector:
    """Handcrafted values followed by learned values, concatenated."""
    handcrafted = extract_handcrafted(cluster, cfg)
    learned = extract_learned(cluster, net).values
    return FeatureVector(values=np.concatenate([handcrafted.values, learned]), kind="hybrid")


def save_network(net: KPNetworkConfig, path: str) -> None:
    """Write a network checkpoint.

    Binary layout (all integers little-endian uint32 unless noted, floats
    little-endian float64): magic "RCKP", version, variant length + utf-8
    bytes, base_cell_size (f64), neighbor cap (0 encodes None), layer count;
    then per layer: kernel point count, in channels, out channels, strided
    (uint8), radius (f64), influence sigma (f64), kernel points (K*3 f64),
    weights (K*in*out f64, C order).
    """
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", _CHECKPOINT_VERSION))
        variant_bytes = net.variant.encode("utf-8")
        fh.write(struct.pack("<I", len(variant_bytes)))
        fh.write(variant_bytes)
        fh.write(struct.pack("<d", net.base_cell_size))
        fh.write(struct.pack("<I", net.neighbor_cap or 0))
        fh.write(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            fh.write(
                struct.pack(
                    "<IIIB",
                    layer.kernel_point_count,
                    layer.in_channels,
                    layer.out_channels,
                    int(layer.strided),
                )
            )
            fh.write(struct.pack("<dd", layer.radius, layer.influence_sigma))
            fh.write(layer.kernel_points.astype("<f8").tobytes())
            fh.write(layer.weights.astype("<f8").tobytes())


def load_network(path: str) -> KPNetworkConfig:
    """Read a checkpoint written by :func:`save_network`.

    A malformed checkpoint raises ``ParseError`` naming ``path``: a bad
    magic, a truncated field or array, bytes after the last layer, a variant
    name that is not UTF-8, or a layer or network that fails validation.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a network checkpoint (bad magic)")
    offset = 4

    def take(size: int) -> int:
        """Claim the next ``size`` bytes; their start offset."""
        nonlocal offset
        if offset + size > len(data):
            raise ParseError(f"{path}: truncated checkpoint")
        offset += size
        return offset - size

    def unpack(fmt: str):
        return struct.unpack_from(fmt, data, take(struct.calcsize(fmt)))

    def floats(*shape: int) -> np.ndarray:
        count = math.prod(shape)
        start = take(count * 8)
        return np.frombuffer(data, dtype="<f8", count=count, offset=start).reshape(shape).copy()

    (version,) = unpack("<I")
    if version != _CHECKPOINT_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: checkpoint version {version}, expected {_CHECKPOINT_VERSION}"
        )
    (variant_len,) = unpack("<I")
    start = take(variant_len)
    try:
        variant = data[start:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: variant name is not UTF-8: {exc}") from exc
    (base_cell,) = unpack("<d")
    (cap,) = unpack("<I")
    (n_layers,) = unpack("<I")
    layers = []
    for i in range(n_layers):
        k, in_ch, out_ch, strided = unpack("<IIIB")
        radius, sigma = unpack("<dd")
        kernel_points = floats(k, 3)
        weights = floats(k, in_ch, out_ch)
        try:
            layers.append(
                KPConvLayerConfig(
                    kernel_points=kernel_points,
                    weights=weights,
                    radius=radius,
                    influence_sigma=sigma,
                    strided=bool(strided),
                )
            )
        except ValueError as exc:
            raise ParseError(f"{path}: layer {i}: {exc}") from exc
    if offset != len(data):
        raise ParseError(f"{path}: {len(data) - offset} byte(s) after the last layer")
    try:
        return KPNetworkConfig(
            layers=layers,
            base_cell_size=base_cell,
            neighbor_cap=cap or None,
            variant=variant,
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
