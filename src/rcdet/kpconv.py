"""Learning-based radar cluster features: a kernel-point convolution stack.

A cluster is turned into a point set (positions relative to the cluster
centroid; per-point features = normalized BEV position, compensated velocity,
and a constant 1.0 channel) and pushed through a stack of kernel-point
convolution layers. Layers after the first are strided: query locations come
from grid subsampling with a cell size that doubles per layer, so the point
count shrinks while the channel count grows. Global average pooling over the
surviving points yields one feature row per cluster.

Kernel weights are drawn once from a seeded generator and frozen; the module
provides forward evaluation and the analytic weight gradient (for
finite-difference verification), not training. Kernel point dispositions are
fixed (non-deformable), produced by a seeded repulsion layout inside each
layer's radius; the influence of a kernel point decays linearly, reaching
zero at ``influence_sigma`` (radius / 2 by default).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, SchemaVersionMismatch
from .features import (
    DEFAULT_POSITION_NORM,
    DEFAULT_VELOCITY_NORM,
    FeatureVector,
    HandcraftedConfig,
    extract_handcrafted,
)
from .radar import Cluster

POINT_FEATURE_DIM = 5  # (x, y, v_x, v_y, 1.0)
DEFAULT_BASE_CELL = 0.1
DEFAULT_NEIGHBOR_CAP = 26
RADIUS_PER_CELL = 2.5
_QUERY_BLOCK = 256  # queries per distance table in radius_neighbors

_CHECKPOINT_MAGIC = b"RCKP"
_CHECKPOINT_VERSION = 1


@dataclass(eq=False)
class PointFeatures:
    """A point set with per-point feature rows: positions (N, 3), features (N, C)."""

    positions: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
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
        if self.radius <= 0 or self.influence_sigma <= 0:
            raise ValueError("radius and influence_sigma must be positive")
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
        if self.base_cell_size <= 0:
            raise ValueError("base_cell_size must be positive")
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
    if count < 1:
        raise ValueError("need at least one kernel point")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    points[0] = 0.0
    for _ in range(150):
        diff = points[:, None, :] - points[None, :, :]
        dist = np.linalg.norm(diff, axis=2) + np.eye(count)
        force = (diff / dist[:, :, None] ** 3).sum(axis=1)
        step = np.clip(0.01 * force, -0.05, 0.05)
        step[0] = 0.0
        points = points + step
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = points / np.maximum(norms, 1.0)
    return points * radius


def build_network(variant: str = "large", seed: int = 0) -> KPNetworkConfig:
    """Construct a named network configuration with seeded frozen weights.

    Channel counts double per layer from ``first_dim`` to ``output_dim``;
    layer i's grid cell is base_cell_size * 2**i with radius 2.5x the cell.
    """
    if variant not in VARIANT_SPECS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {sorted(VARIANT_SPECS)}")
    kernel_size, n_layers, first_dim, output_dim = VARIANT_SPECS[variant]
    rng = np.random.default_rng(seed)
    layers = []
    in_channels = POINT_FEATURE_DIM
    out_channels = first_dim
    for i in range(n_layers):
        cell = DEFAULT_BASE_CELL * 2.0**i
        radius = RADIUS_PER_CELL * cell
        kernel_points = kernel_point_layout(kernel_size, radius, seed=seed * 1000 + i)
        std = np.sqrt(2.0 / (kernel_size * in_channels))
        weights = rng.normal(0.0, std, size=(kernel_size, in_channels, out_channels))
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


def grid_subsample(points: PointFeatures, cell: float) -> PointFeatures:
    """One output point per occupied grid cell: position barycenter, feature mean.

    Cells are keyed by floor division of the coordinates; outputs are ordered
    by cell index lexicographically. Per-cell accumulation runs left-to-right
    over input order (unbuffered ``np.add.at``) so results are reproducible
    bit-for-bit.
    """
    if cell <= 0:
        raise ValueError(f"cell size must be positive, got {cell}")
    keys = np.floor(points.positions / cell).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)  # its shape varies across numpy 2.0.x
    positions = np.zeros((counts.size, 3))
    features = np.zeros((counts.size, points.features.shape[1]))
    np.add.at(positions, inverse, points.positions)
    np.add.at(features, inverse, points.features)
    return PointFeatures(positions=positions / counts[:, None], features=features / counts[:, None])


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
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    support = np.asarray(support, dtype=np.float64).reshape(-1, 3)
    r2 = radius * radius
    out: list[np.ndarray] = []
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        rel = support[None, :, :] - queries[start : start + _QUERY_BLOCK, None, :]
        dx, dy, dz = rel[..., 0], rel[..., 1], rel[..., 2]
        d2 = dx * dx + dy * dy + dz * dz
        within = d2 <= r2
        # NaN sorts last, so a stable sort puts the in-radius indices first,
        # ordered by (squared distance, index).
        order = np.argsort(np.where(within, d2, np.nan), axis=1, kind="stable")
        count = within.sum(axis=1) if cap is None else np.minimum(within.sum(axis=1), cap)
        out += np.split(order[np.arange(order.shape[1]) < count[:, None]], np.cumsum(count)[:-1])
    return out


def _neighborhood(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
) -> np.ndarray:
    """Influence-weighted neighbor features per query and kernel point, (N_q, K, in).

    Neighbor lists are padded to a common length with the index of one extra
    support row of zero features, so a padded slot adds an exact zero and
    never reads a real point.
    """
    query_positions = np.asarray(query_positions, dtype=np.float64).reshape(-1, 3)
    if support.features.shape[1] != layer.in_channels:
        raise DimensionMismatch(
            f"support features have {support.features.shape[1]} channels, "
            f"layer expects {layer.in_channels}"
        )
    n_q = query_positions.shape[0]
    if len(neighbors) != n_q:
        raise DimensionMismatch("one neighbor list per query is required")
    lengths = np.fromiter(map(len, neighbors), dtype=np.intp, count=n_q)
    padded = np.full((n_q, lengths.max(initial=0)), support.count, dtype=np.intp)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = np.concatenate(
        [np.zeros(0, dtype=np.intp), *neighbors]
    )
    positions = np.vstack([support.positions, np.zeros((1, 3))])
    features = np.vstack([support.features, np.zeros((1, layer.in_channels))])
    rel = positions[padded] - query_positions[:, None, :]  # (N_q, M, 3)
    dist = np.linalg.norm(rel[:, :, None, :] - layer.kernel_points, axis=3)  # (N_q, M, K)
    influence = np.maximum(0.0, 1.0 - dist / layer.influence_sigma)
    return influence.transpose(0, 2, 1) @ features[padded]


def kpconv_forward(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
) -> np.ndarray:
    """Kernel-point convolution at each query, shape (N_q, out_channels).

    out(q) = sum over neighbors i and kernel points k of
    max(0, 1 - |p_i - q - y_k| / sigma) * (f_i @ W_k); empty neighborhoods
    produce zero rows. One GEMM (N_q, K*in) @ (K*in, out) over all queries.
    """
    weighted = _neighborhood(layer, query_positions, support, neighbors)
    return weighted.reshape(weighted.shape[0], -1) @ layer.weights.reshape(-1, layer.out_channels)


def kpconv_weight_grad(
    layer: KPConvLayerConfig,
    query_positions: np.ndarray,
    support: PointFeatures,
    neighbors: Sequence[np.ndarray],
    upstream: np.ndarray,
) -> np.ndarray:
    """Analytic gradient of sum(upstream * forward) wrt the layer weights."""
    weighted = _neighborhood(layer, query_positions, support, neighbors)
    weighted = weighted.reshape(weighted.shape[0], -1)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (weighted.shape[0], layer.out_channels):
        raise DimensionMismatch(
            f"upstream must be (N_q, {layer.out_channels}), got {upstream.shape}"
        )
    return (weighted.T @ upstream).reshape(layer.weights.shape)


def cluster_to_point_features(
    cluster: Cluster,
    position_norm: float = DEFAULT_POSITION_NORM,
    velocity_norm: float = DEFAULT_VELOCITY_NORM,
) -> PointFeatures:
    """Cluster members as a point set in the cluster-local frame.

    Positions are re-centered on the cluster centroid (meters); feature rows
    are (x, y, v_x, v_y, 1.0) with positions and velocities normalized the
    same way as the handcrafted features. Members are put in a canonical
    lexicographic order first, so downstream processing is exactly invariant
    to the input ordering.
    """
    positions = cluster.positions()
    velocities = cluster.velocities()
    rows = np.concatenate([positions, velocities], axis=1)
    order = np.lexsort(tuple(rows[:, i] for i in reversed(range(rows.shape[1]))))
    positions = positions[order]
    velocities = velocities[order]
    centroid = positions.mean(axis=0) if positions.shape[0] else np.zeros(3)
    features = np.column_stack(
        [
            positions[:, 0] / position_norm,
            positions[:, 1] / position_norm,
            velocities[:, 0] / velocity_norm,
            velocities[:, 1] / velocity_norm,
            np.ones(positions.shape[0]),
        ]
    )
    return PointFeatures(positions=positions - centroid, features=features)


def extract_learned(cluster: Cluster, net: KPNetworkConfig) -> FeatureVector:
    """Run the convolution stack over a cluster and average-pool to one row.

    Empty clusters yield a zero vector of the network's output width.
    """
    if cluster.member_count == 0:
        return FeatureVector(values=np.zeros(net.output_dim), kind="learned")
    points = cluster_to_point_features(cluster)
    positions = points.positions
    features = points.features
    for i, layer in enumerate(net.layers):
        if layer.strided:
            cell = net.base_cell_size * 2.0**i
            queries = grid_subsample(
                PointFeatures(positions=positions, features=features), cell
            ).positions
        else:
            queries = positions
        neighbors = radius_neighbors(queries, positions, layer.radius, net.neighbor_cap)
        features = kpconv_forward(
            layer, queries, PointFeatures(positions=positions, features=features), neighbors
        )
        positions = queries
    return FeatureVector(values=features.mean(axis=0), kind="learned")


def extract_hybrid(
    cluster: Cluster, cfg: HandcraftedConfig, net: KPNetworkConfig
) -> FeatureVector:
    """Handcrafted values followed by learned values, concatenated."""
    handcrafted = extract_handcrafted(cluster, cfg)
    learned = extract_learned(cluster, net)
    return FeatureVector(
        values=np.concatenate([handcrafted.values, learned.values]), kind="hybrid"
    )


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
    """Read a checkpoint written by :func:`save_network`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a network checkpoint (bad magic)")
    offset = 4

    def unpack(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(data):
            raise ParseError(f"{path}: truncated checkpoint")
        values = struct.unpack_from(fmt, data, offset)
        offset += size
        return values

    (version,) = unpack("<I")
    if version != _CHECKPOINT_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: checkpoint version {version}, expected {_CHECKPOINT_VERSION}"
        )
    (variant_len,) = unpack("<I")
    variant = data[offset : offset + variant_len].decode("utf-8")
    offset += variant_len
    (base_cell,) = unpack("<d")
    (cap,) = unpack("<I")
    (n_layers,) = unpack("<I")
    layers = []
    for _ in range(n_layers):
        k, in_ch, out_ch, strided = unpack("<IIIB")
        radius, sigma = unpack("<dd")
        n_kp = k * 3
        kernel_points = np.frombuffer(data, dtype="<f8", count=n_kp, offset=offset)
        offset += n_kp * 8
        n_w = k * in_ch * out_ch
        weights = np.frombuffer(data, dtype="<f8", count=n_w, offset=offset)
        offset += n_w * 8
        layers.append(
            KPConvLayerConfig(
                kernel_points=kernel_points.reshape(k, 3).copy(),
                weights=weights.reshape(k, in_ch, out_ch).copy(),
                radius=radius,
                influence_sigma=sigma,
                strided=bool(strided),
            )
        )
    return KPNetworkConfig(
        layers=layers,
        base_cell_size=base_cell,
        neighbor_cap=cap or None,
        variant=variant,
    )
