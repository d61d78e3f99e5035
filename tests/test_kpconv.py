"""Kernel-point convolution stack: subsampling and neighbor-search oracles,
forward-operator identities, gradient checks, and the extractor contracts."""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcdet
from rcdet import kpconv

from rcdet.errors import DimensionMismatch, ParseError, SchemaVersionMismatch
from rcdet.features import HandcraftedConfig, extract_handcrafted
from rcdet.geometry import Box2D, Box3D
from rcdet.kpconv import (
    KPConvLayerConfig,
    KPNetworkConfig,
    PointFeatures,
    build_network,
    cluster_to_point_features,
    extract_hybrid,
    extract_learned,
    grid_subsample,
    kernel_point_layout,
    kpconv_forward,
    kpconv_weight_grad,
    learned_rows,
    load_network,
    radius_neighbors,
    save_network,
)
from rcdet.radar import Cluster, PreliminaryDetection, RadarPoint


def _cluster(rng, size: int, spread: float = 3.0) -> Cluster:
    det = PreliminaryDetection(
        class_id=0,
        score=0.7,
        bbox2d=Box2D(0.0, 0.0, 100.0, 100.0),
        projected_center=np.array([50.0, 50.0]),
        depth=20.0,
        log_sigma=-2.0,
        box3d=Box3D(center=np.array([0.0, 20.0, 1.0]), dims=np.array([2.0, 4.0, 1.5]), yaw=0.4),
    )
    points = [
        RadarPoint(
            position=np.array([rng.uniform(-spread, spread), 20 + rng.uniform(-spread, spread), rng.uniform(-0.2, 0.2)]),
            velocity=rng.uniform(-5, 5, size=2),
        )
        for _ in range(size)
    ]
    return Cluster(det, points)


# -- grid subsampling -----------------------------------------------------------


def test_grid_subsample_single_cell(rng):
    positions = rng.uniform(0.0, 0.09, size=(5, 3))
    features = rng.uniform(-1, 1, size=(5, 2))
    out = grid_subsample(PointFeatures(positions=positions, features=features), cell=0.1)
    assert out.count == 1
    # Oracle: left-to-right accumulation in input order.
    pos_acc = np.zeros(3)
    feat_acc = np.zeros(2)
    for i in range(5):
        pos_acc = pos_acc + positions[i]
        feat_acc = feat_acc + features[i]
    assert np.array_equal(out.positions[0], pos_acc / 5)
    assert np.array_equal(out.features[0], feat_acc / 5)


def test_grid_subsample_lattice_identity():
    positions = np.array([[0.05, 0.05, 0.0], [1.05, 0.05, 0.0], [0.05, 2.05, 0.0]])
    features = np.arange(3, dtype=np.float64)[:, None]
    out = grid_subsample(PointFeatures(positions=positions, features=features), cell=1.0)
    assert out.count == 3
    got = {(tuple(p), float(f[0])) for p, f in zip(out.positions, out.features)}
    expected = {(tuple(p), float(f[0])) for p, f in zip(positions, features)}
    assert got == expected


def _subsample_oracle(positions, features, cell):
    cells = {}
    for i, p in enumerate(positions):
        key = (
            math.floor(p[0] / cell),
            math.floor(p[1] / cell),
            math.floor(p[2] / cell),
        )
        cells.setdefault(key, []).append(i)
    out_pos, out_feat = [], []
    for key in sorted(cells):
        members = cells[key]
        pos_acc = np.zeros(3)
        feat_acc = np.zeros(features.shape[1])
        for i in members:
            pos_acc = pos_acc + positions[i]
            feat_acc = feat_acc + features[i]
        out_pos.append(pos_acc / len(members))
        out_feat.append(feat_acc / len(members))
    return np.array(out_pos), np.array(out_feat)


def test_grid_subsample_matches_hash_oracle_exactly(rng):
    for _ in range(40):
        n = int(rng.integers(1, 60))
        positions = rng.uniform(-4, 4, size=(n, 3))
        features = rng.uniform(-2, 2, size=(n, 3))
        cell = float(rng.uniform(0.2, 2.0))
        out = grid_subsample(PointFeatures(positions=positions, features=features), cell)
        exp_pos, exp_feat = _subsample_oracle(positions, features, cell)
        assert np.array_equal(out.positions, exp_pos)
        assert np.array_equal(out.features, exp_feat)


def test_grid_subsample_mass_preservation(rng):
    n = 50
    positions = rng.uniform(-4, 4, size=(n, 3))
    features = rng.uniform(-2, 2, size=(n, 1))
    points = PointFeatures(positions=positions, features=features)
    out = grid_subsample(points, 0.7)
    assert out.count <= points.count
    keys = np.floor(positions / 0.7).astype(np.int64)
    counts = {}
    for key in map(tuple, keys):
        counts[key] = counts.get(key, 0) + 1
    weights = np.array([counts[key] for key in sorted(counts)], dtype=np.float64)
    weighted_mean = (out.positions * weights[:, None]).sum(axis=0) / n
    assert np.abs(weighted_mean - positions.mean(axis=0)).max() < 1e-12


# Coordinates on both sides of the 0.5 m cell edges, so the keys include
# negative cells and points share cells; repeats give duplicate points.
_CELL_COORDS = [-1.0, -0.55, -0.5, -0.05, 0.0, 0.05, 0.5, 0.95]


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 2), *[st.sampled_from(_CELL_COORDS)] * 3), max_size=40
    )
)
@example(points=[])
@example(points=[(1, -0.05, 0.5, -1.0)])
@example(points=[(0, -0.55, -0.55, -0.55)] * 3 + [(1, -0.55, -0.55, -0.55)])
def test_grid_cells_match_unique_oracle(points):
    """The lexsort cell keys equal np.unique over (segment, ix, iy, iz) rows."""
    segments = np.array([p[0] for p in points], dtype=np.int64)
    positions = np.array([p[1:] for p in points], dtype=np.float64).reshape(-1, 3)
    keys = np.column_stack([segments, np.floor(positions / 0.5).astype(np.int64)])
    cells, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    got = kpconv._grid_cells(positions, segments, 0.5)
    assert np.array_equal(got[0], cells[:, 0])
    assert np.array_equal(got[1], inverse.reshape(-1))
    assert np.array_equal(got[2], counts)


@pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_cell_and_radius_must_be_finite_and_positive(value):
    points = PointFeatures(positions=np.zeros((2, 3)), features=np.ones((2, 1)))
    with pytest.raises(ValueError, match="cell size"):
        grid_subsample(points, value)
    with pytest.raises(ValueError, match="radius"):
        radius_neighbors(np.zeros((1, 3)), np.zeros((2, 3)), value)


# -- radius search ----------------------------------------------------------------


def test_radius_neighbors_coincident_point():
    support = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    out = radius_neighbors(np.array([[0.0, 0.0, 0.0]]), support, radius=1e-6)
    assert out[0].tolist() == [0]


def test_radius_neighbors_empty_support():
    out = radius_neighbors(np.array([[0.0, 0.0, 0.0]]), np.zeros((0, 3)), radius=1.0)
    assert out[0].size == 0


def test_radius_neighbors_matches_bruteforce_oracle(rng):
    for _ in range(30):
        n_q, n_s = int(rng.integers(1, 20)), int(rng.integers(0, 40))
        queries = rng.uniform(-3, 3, size=(n_q, 3))
        support = rng.uniform(-3, 3, size=(n_s, 3))
        radius = float(rng.uniform(0.5, 4.0))
        cap = int(rng.integers(1, 10)) if rng.uniform() < 0.5 else None
        out = radius_neighbors(queries, support, radius, cap)
        for qi in range(n_q):
            candidates = []
            for si in range(n_s):
                dx = support[si, 0] - queries[qi, 0]
                dy = support[si, 1] - queries[qi, 1]
                dz = support[si, 2] - queries[qi, 2]
                d2 = dx * dx + dy * dy + dz * dz
                if d2 <= radius * radius:
                    candidates.append((d2, si))
            candidates.sort()
            expected = [si for _, si in candidates]
            if cap is not None:
                expected = expected[:cap]
            assert out[qi].tolist() == expected


def test_radius_neighbors_blocks_match_single_queries(rng):
    """Batches spanning several query blocks give the per-query answers."""
    queries = rng.uniform(-3, 3, size=(600, 3))
    support = rng.uniform(-3, 3, size=(50, 3))
    out = radius_neighbors(queries, support, 1.5, cap=7)
    assert len(out) == 600
    for q, idx in zip(queries, out):
        assert idx.tolist() == radius_neighbors(q[None], support, 1.5, cap=7)[0].tolist()


# -- forward operator ---------------------------------------------------------------


def _identity_layer(kernel_points, radius, sigma, channels=3):
    k = len(kernel_points)
    weights = np.stack([np.eye(channels)] * k)
    return KPConvLayerConfig(
        kernel_points=np.asarray(kernel_points, dtype=np.float64),
        weights=weights,
        radius=radius,
        influence_sigma=sigma,
        strided=False,
    )


def test_forward_neighbor_exactly_on_kernel_point():
    layer = _identity_layer([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]], radius=1.0, sigma=0.4)
    query = np.array([[0.0, 0.0, 0.0]])
    support = PointFeatures(
        positions=np.array([[0.5, 0.0, 0.0]]), features=np.array([[1.0, -2.0, 3.0]])
    )
    out = kpconv_forward(layer, query, support, [np.array([0])])
    assert np.array_equal(out[0], support.features[0])


def test_forward_zero_weights_zero_output(rng):
    layer = KPConvLayerConfig(
        kernel_points=np.zeros((3, 3)),
        weights=np.zeros((3, 4, 5)),
        radius=1.0,
        influence_sigma=0.5,
        strided=False,
    )
    support = PointFeatures(positions=rng.uniform(-1, 1, (6, 3)), features=rng.uniform(-1, 1, (6, 4)))
    out = kpconv_forward(layer, support.positions, support, radius_neighbors(support.positions, support.positions, 1.0))
    assert np.array_equal(out, np.zeros((6, 5)))


def test_forward_empty_neighborhood_zero_row():
    layer = _identity_layer([[0.0, 0.0, 0.0]], radius=1.0, sigma=0.5)
    support = PointFeatures(positions=np.zeros((1, 3)), features=np.ones((1, 3)))
    out = kpconv_forward(layer, np.array([[10.0, 0.0, 0.0]]), support, [np.array([], dtype=int)])
    assert np.array_equal(out, np.zeros((1, 3)))


def _forward_oracle(layer, queries, support, neighbors):
    """Triple loop over queries, neighbors, kernel points."""
    n_q = len(queries)
    out = np.zeros((n_q, layer.out_channels))
    for qi in range(n_q):
        for si in neighbors[qi]:
            rel = support.positions[si] - queries[qi]
            for ki in range(layer.kernel_point_count):
                diff = rel - layer.kernel_points[ki]
                dist = math.sqrt(diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2)
                influence = max(0.0, 1.0 - dist / layer.influence_sigma)
                if influence > 0:
                    out[qi] += influence * (support.features[si] @ layer.weights[ki])
    return out


def _random_layer(rng, k, c_in, c_out, radius=1.5):
    kernel_points = kernel_point_layout(k, radius, seed=int(rng.integers(10000)))
    weights = rng.normal(0, 0.5, size=(k, c_in, c_out))
    return KPConvLayerConfig(
        kernel_points=kernel_points,
        weights=weights,
        radius=radius,
        influence_sigma=0.75,
        strided=False,
    )


def test_forward_matches_triple_loop_oracle(rng):
    for _ in range(25):
        layer = _random_layer(rng, int(rng.integers(1, 5)), 3, 4)
        n = int(rng.integers(1, 10))
        support = PointFeatures(
            positions=rng.uniform(-1.5, 1.5, (n, 3)), features=rng.uniform(-2, 2, (n, 3))
        )
        queries = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 8)), 3))
        neighbors = radius_neighbors(queries, support.positions, layer.radius)
        out = kpconv_forward(layer, queries, support, neighbors)
        assert np.abs(out - _forward_oracle(layer, queries, support, neighbors)).max() < 1e-10


def test_forward_linear_in_features(rng):
    layer = _random_layer(rng, 4, 3, 6)
    n = 8
    positions = rng.uniform(-1, 1, (n, 3))
    fa = rng.uniform(-2, 2, (n, 3))
    fb = rng.uniform(-2, 2, (n, 3))
    queries = rng.uniform(-1, 1, (5, 3))
    neighbors = radius_neighbors(queries, positions, layer.radius)
    alpha, beta = 1.7, -0.6
    combined = kpconv_forward(
        layer, queries, PointFeatures(positions=positions, features=alpha * fa + beta * fb), neighbors
    )
    separate = alpha * kpconv_forward(
        layer, queries, PointFeatures(positions=positions, features=fa), neighbors
    ) + beta * kpconv_forward(layer, queries, PointFeatures(positions=positions, features=fb), neighbors)
    assert np.abs(combined - separate).max() < 1e-9


def test_forward_influence_support(rng):
    """A neighbor beyond radius + sigma from the query contributes nothing."""
    layer = _random_layer(rng, 3, 2, 3, radius=1.0)
    queries = np.zeros((1, 3))
    near = PointFeatures(positions=np.array([[0.3, 0.0, 0.0]]), features=np.array([[1.0, 2.0]]))
    far_position = np.array([[0.0, 0.0, 1.0 + layer.influence_sigma + 0.01]])
    both = PointFeatures(
        positions=np.vstack([near.positions, far_position]),
        features=np.vstack([near.features, [[5.0, -5.0]]]),
    )
    out_near = kpconv_forward(layer, queries, near, [np.array([0])])
    out_both = kpconv_forward(layer, queries, both, [np.array([0, 1])])
    assert np.array_equal(out_near, out_both)


def test_forward_padding_isolates_each_query(rng):
    """Mixed-length and empty neighbor lists: a non-finite support row reaches
    only the query that lists it, and every other row matches the oracle.
    Points and queries lie within sigma of each other, so every (query, point)
    pair has nonzero influence at the central kernel point."""
    layer = _random_layer(rng, 4, 3, 5)
    support = PointFeatures(
        positions=rng.uniform(-0.2, 0.2, (6, 3)), features=rng.uniform(-2, 2, (6, 3))
    )
    support.features[2, 1] = np.inf
    queries = rng.uniform(-0.2, 0.2, (5, 3))
    empty = np.array([], dtype=np.intp)
    neighbors = [np.array([0, 1, 3, 4, 5]), empty, np.array([2, 0]), np.array([5]), empty]
    with np.errstate(invalid="ignore"):
        out = kpconv_forward(layer, queries, support, neighbors)
    finite = [0, 1, 3, 4]
    assert np.all(np.isfinite(out[finite]))
    expected = _forward_oracle(layer, queries[finite], support, [neighbors[i] for i in finite])
    assert np.abs(out[finite] - expected).max() < 1e-10


def test_forward_dimension_mismatch(rng):
    layer = _random_layer(rng, 3, 4, 2)
    support = PointFeatures(positions=np.zeros((2, 3)), features=np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        kpconv_forward(layer, np.zeros((1, 3)), support, [np.array([0])])


_SUPPORT = PointFeatures(positions=np.zeros((2, 3)), features=np.ones((2, 3)))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: radius_neighbors(np.zeros((3, 2)), np.zeros((4, 3)), 1.0), DimensionMismatch, "queries must have shape (N, 3), got (3, 2)"),
        (lambda: radius_neighbors(np.zeros(3), np.zeros((4, 3)), 1.0), DimensionMismatch, "queries must have shape (N, 3), got (3,)"),
        (lambda: radius_neighbors(np.zeros((1, 3)), np.zeros(6), 1.0), DimensionMismatch, "support must have shape (N, 3), got (6,)"),
        (lambda: PointFeatures(positions=np.zeros((2, 6)), features=np.zeros((4, 5))), DimensionMismatch, "positions must have shape (N, 3), got (2, 6)"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros(3), _SUPPORT, [[0]]), DimensionMismatch, "query_positions must have shape (N, 3), got (3,)"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[-1]]), DimensionMismatch, "neighbors indices must lie in [0, 2), got -1..-1"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[0, 2]]), DimensionMismatch, "neighbors indices must lie in [0, 2), got 0..2"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[3]]), DimensionMismatch, "neighbors indices must lie in [0, 2), got 3..3"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[0.0]]), ValueError, "each neighbors entry must be a 1-D array of integer indices"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[True]]), ValueError, "each neighbors entry must be a 1-D array of integer indices"),
        (lambda: kpconv_forward(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[[0]]]), ValueError, "each neighbors entry must be a 1-D array of integer indices"),
        (lambda: kpconv_weight_grad(_identity_layer([[0.0] * 3], 1.0, 0.5), np.zeros((1, 3)), _SUPPORT, [[2]], np.zeros((1, 3))), DimensionMismatch, "neighbors indices must lie in [0, 2), got 2..2"),
    ],
)
def test_public_entries_reject_malformed_input(call, error, message):
    """Shapes are required, not reshaped, and a neighbor index outside the
    support is an error, never padding or a raw IndexError."""
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_forward_accepts_empty_neighbor_lists_of_any_dtype():
    layer = _identity_layer([[0.0] * 3], 1.0, 0.5)
    out = kpconv_forward(layer, np.zeros((2, 3)), _SUPPORT, [[], np.array([1], dtype=np.uint8)])
    assert np.array_equal(out, [[0.0] * 3, [1.0] * 3])


# -- influence at the real neighbor pairs ---------------------------------------


def _influence_oracle(layer, queries, positions, table):
    """Scalar ``math`` influence of every kernel point at every slot of
    ``table``; a slot holding ``len(positions)`` is padding and gets 0."""
    out = np.zeros((layer.kernel_point_count, *table.shape))
    for (q, m), s in np.ndenumerate(table):
        if s == len(positions):
            continue
        rel = [float(positions[s, c]) - float(queries[q, c]) for c in range(3)]
        for k, point in enumerate(layer.kernel_points.tolist()):
            dx, dy, dz = (r - p for r, p in zip(rel, point))
            out[k, q, m] = max(0.0, 1.0 - math.sqrt((dx * dx + dy * dy) + dz * dz) / layer.influence_sigma)
    return out


def _table(rng, lengths, n_s):
    """Each row: ``length`` distinct support indices, then padding ``n_s``."""
    table = np.full((len(lengths), max(lengths, default=0)), n_s, dtype=np.intp)
    for row, n in zip(table, lengths):
        row[:n] = rng.permutation(n_s)[:n]
    return table


@pytest.mark.parametrize(
    "n_s,lengths",
    [
        (9, [3, 0, 9, 1, 0, 5]),  # empty rows between real ones
        (6, [0, 4, 0]),
        (1, [1]),
        (5, [0, 0, 0]),  # width 0
        (0, [0, 0]),  # no support at all
        (0, []),  # no queries
    ],
)
def test_influence_table_matches_scalar_oracle(rng, n_s, lengths):
    """Every real entry has the bits of the scalar formula and every padded
    slot is exactly 0. Points, queries and kernel points lie close together,
    so most influences are nonzero."""
    layer = _random_layer(rng, 6, 2, 2, radius=0.5)
    positions = rng.uniform(-0.2, 0.2, (n_s, 3))
    queries = rng.uniform(-0.2, 0.2, (len(lengths), 3))
    table = _table(rng, lengths, n_s)
    got = kpconv._influence_table(layer, queries, positions, table)
    assert got.tobytes() == _influence_oracle(layer, queries, positions, table).tobytes()
    assert got.shape == (6, len(lengths), max(lengths, default=0))
    assert np.count_nonzero(got) >= 0.8 * 6 * np.count_nonzero(table < n_s)


def test_influence_table_all_padding_is_zero(rng):
    layer = _random_layer(rng, 6, 2, 2)
    table = np.full((4, 7), 3, dtype=np.intp)
    got = kpconv._influence_table(layer, rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 3)), table)
    assert got.shape == (6, 4, 7) and not got.any()


def test_frame_pass_computes_influence_only_at_real_pairs(monkeypatch):
    """Per layer, ``_influence`` gets exactly the neighbor search's pairs,
    the sum of its row lengths, and returns one (K, P) plane per kernel
    point: padded slots are never computed."""
    searches = []
    search = kpconv._segment_neighbors
    monkeypatch.setattr(kpconv, "_segment_neighbors", lambda *a: searches.append(search(*a)) or searches[-1])
    influence = kpconv._influence
    influences = _counting(monkeypatch, "_influence")
    net = build_network("lite", seed=0)
    learned_rows(_mixed_frame(5, _KINDS), net)
    assert len(influences) == len(searches) == len(net.layers)
    padded = 0
    for (layer, rel), (table, lengths) in zip(influences, searches):
        pairs = int(lengths.sum())
        assert [plane.shape for plane in rel] == [(pairs,)] * 3
        assert influence(layer, rel).shape == (layer.kernel_point_count, pairs)
        padded += table.size - pairs
    assert padded > 0  # the frame does pad its tables


def test_weight_gradient_matches_finite_differences(rng):
    for _ in range(15):
        layer = _random_layer(rng, int(rng.integers(1, 4)), 2, 3)
        n = int(rng.integers(2, 8))
        support = PointFeatures(
            positions=rng.uniform(-1, 1, (n, 3)), features=rng.uniform(-2, 2, (n, 2))
        )
        queries = rng.uniform(-1, 1, (3, 3))
        neighbors = radius_neighbors(queries, support.positions, layer.radius)
        upstream = rng.normal(size=(3, 3))
        grad = kpconv_weight_grad(layer, queries, support, neighbors, upstream)
        step = 1e-5
        for idx in np.ndindex(*layer.weights.shape):
            w_plus = layer.weights.copy()
            w_plus[idx] += step
            w_minus = layer.weights.copy()
            w_minus[idx] -= step
            layer_plus = KPConvLayerConfig(
                kernel_points=layer.kernel_points, weights=w_plus,
                radius=layer.radius, influence_sigma=layer.influence_sigma, strided=False,
            )
            layer_minus = KPConvLayerConfig(
                kernel_points=layer.kernel_points, weights=w_minus,
                radius=layer.radius, influence_sigma=layer.influence_sigma, strided=False,
            )
            fd = (
                np.sum(kpconv_forward(layer_plus, queries, support, neighbors) * upstream)
                - np.sum(kpconv_forward(layer_minus, queries, support, neighbors) * upstream)
            ) / (2 * step)
            scale = max(abs(grad[idx]), abs(fd), 1e-8)
            assert abs(grad[idx] - fd) / scale < 1e-4


def test_weight_gradient_matches_finite_differences_on_a_wide_layer(rng):
    """The gradient against the forward pass of a layer on the kernel-point
    product: along random directions, and at single weights of kernel points
    that some query reaches and of ones that none does (gradient 0)."""
    layer = _random_layer(rng, 6, 128, 128)
    assert _is_wide(layer)
    # Points and queries sit near the origin: the central kernel point
    # reaches them, the outer ones, near the 1.5 radius, lie beyond sigma.
    support = PointFeatures(
        positions=rng.uniform(-0.1, 0.1, (30, 3)), features=rng.uniform(-2, 2, (30, 128))
    )
    queries = rng.uniform(-0.1, 0.1, (10, 3))
    neighbors = radius_neighbors(queries, support.positions, layer.radius)
    upstream = rng.normal(size=(10, 128))
    grad = kpconv_weight_grad(layer, queries, support, neighbors, upstream)

    def loss(weights):
        moved = KPConvLayerConfig(
            kernel_points=layer.kernel_points, weights=weights,
            radius=layer.radius, influence_sigma=layer.influence_sigma, strided=False,
        )
        return np.sum(kpconv_forward(moved, queries, support, neighbors) * upstream)

    step = 1e-5
    reached = np.abs(grad).max(axis=(1, 2)) > 0
    assert reached.any() and not reached.all()
    directions = [rng.normal(size=layer.weights.shape) for _ in range(3)]
    for point in range(layer.kernel_point_count):
        direction = np.zeros(layer.weights.shape)
        direction[(point, *rng.integers(128, size=2))] = 1.0
        directions.append(direction)
    for direction in directions:
        fd = (loss(layer.weights + step * direction) - loss(layer.weights - step * direction)) / (2 * step)
        analytic = np.sum(grad * direction)
        assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd), 1.0)


# -- network construction and extraction -----------------------------------------


def test_kernel_points_stay_inside_radius():
    for count, radius in ((8, 0.5), (15, 2.0)):
        points = kernel_point_layout(count, radius, seed=3)
        assert np.linalg.norm(points, axis=1).max() <= radius * (1 + 1e-12)
        assert np.array_equal(points[0], np.zeros(3))


def test_batched_kernel_layouts_match_one_seed_layouts():
    """Repelling several layouts in one loop gives each the bits it has alone."""
    radii, seeds = [0.5, 1.0, 2.0], [3, 0, 7]
    for count in (1, 8, 15):
        layouts = kpconv._kernel_point_layouts(count, radii, seeds)
        for layout, radius, seed in zip(layouts, radii, seeds):
            assert layout.tobytes() == kernel_point_layout(count, radius, seed).tobytes()


# sha256 over each layer's kernel-point bytes then weight bytes, in layer order.
_NETWORK_DIGESTS = {
    "lite": "f8097d5885da6114a862485be9e64154a584571dd8e268197092291e6734fd1b",
    "large": "f47906c42bad3b6d1c5fab59fe510fda6a359687eb2aeb1bfb4c471ee9bc396b",
}


@pytest.mark.parametrize("variant", sorted(_NETWORK_DIGESTS))
def test_build_network_bits_pinned(variant):
    """The seeded kernel layouts and weights keep their bits; the benchmark
    digests see only detections, which never read features."""
    digest = hashlib.sha256()
    for layer in build_network(variant, seed=0).layers:
        digest.update(layer.kernel_points.tobytes())
        digest.update(layer.weights.tobytes())
    assert digest.hexdigest() == _NETWORK_DIGESTS[variant]


@pytest.mark.parametrize("cap", [0, -1, True, 2.5, "4"])
def test_neighbor_cap_must_be_none_or_positive_int(cap):
    layers = build_network("lite", seed=0).layers
    with pytest.raises(ValueError, match="neighbor_cap"):
        KPNetworkConfig(layers=layers, neighbor_cap=cap)
    with pytest.raises(ValueError, match="neighbor_cap"):
        radius_neighbors(np.zeros((1, 3)), np.zeros((2, 3)), 1.0, cap)


@pytest.mark.parametrize("variant,first,out,layers", [("lite", 8, 64, 4), ("medium", 32, 512, 5), ("large", 64, 1024, 5)])
def test_network_variant_shapes(variant, first, out, layers):
    net = build_network(variant, seed=0)
    assert net.first_dim == first
    assert net.output_dim == out
    assert len(net.layers) == layers
    assert not net.layers[0].strided
    assert all(layer.strided for layer in net.layers[1:])


def test_extract_learned_output_width(rng):
    net = build_network("lite", seed=0)
    cluster = _cluster(rng, 12)
    assert len(extract_learned(cluster, net)) == 64


def test_extract_learned_empty_cluster_zero(rng):
    net = build_network("lite", seed=0)
    empty = Cluster(_cluster(rng, 1).detection, [])
    assert np.array_equal(extract_learned(empty, net).values, np.zeros(64))


def test_zero_features_through_stack_give_zero(rng):
    net = build_network("lite", seed=0)
    cluster = _cluster(rng, 10)
    points = cluster_to_point_features(cluster)
    positions = points.positions
    features = np.zeros_like(points.features)  # constant channel forced to 0 too
    for i, layer in enumerate(net.layers):
        if layer.strided:
            cell = net.base_cell_size * 2.0**i
            queries = grid_subsample(PointFeatures(positions=positions, features=features), cell).positions
        else:
            queries = positions
        neighbors = radius_neighbors(queries, positions, layer.radius, net.neighbor_cap)
        features = kpconv_forward(layer, queries, PointFeatures(positions=positions, features=features), neighbors)
        positions = queries
    assert np.array_equal(features.mean(axis=0), np.zeros(net.output_dim))


def _per_cluster_oracle(cluster: Cluster, net: KPNetworkConfig) -> np.ndarray:
    """The convolution stack over one cluster alone, layer by layer through
    the public functions, with no segment ids."""
    if cluster.member_count == 0:
        return np.zeros(net.output_dim)
    points = cluster_to_point_features(cluster)
    positions = points.positions
    features = points.features
    for i, layer in enumerate(net.layers):
        if layer.strided:
            cell = net.base_cell_size * 2.0**i
            queries = grid_subsample(PointFeatures(positions=positions, features=features), cell).positions
        else:
            queries = positions
        neighbors = radius_neighbors(queries, positions, layer.radius, net.neighbor_cap)
        features = kpconv_forward(layer, queries, PointFeatures(positions=positions, features=features), neighbors)
        positions = queries
    return features.mean(axis=0)


@pytest.fixture(scope="module")
def networks() -> dict[str, KPNetworkConfig]:
    return {variant: build_network(variant, seed=0) for variant in ("lite", "large")}


# Cluster kinds of a mixed frame: empty; one point; one point repeated, so
# that every layer down to the deepest has one query; a group 0.1 m across;
# a 6 m group with three points duplicated; 300 points.
_KINDS = ("empty", "single", "repeated", "tight", "spread", "large")


def _mixed_cluster(rng, kind: str) -> Cluster:
    if kind == "empty":
        return Cluster(_cluster(rng, 1).detection, [])
    if kind == "single":
        return _cluster(rng, 1)
    if kind == "repeated":
        cluster = _cluster(rng, 1)
        return Cluster(cluster.detection, cluster.members * int(rng.integers(2, 6)))
    if kind == "tight":
        return _cluster(rng, int(rng.integers(2, 12)), spread=0.05)
    if kind == "spread":
        cluster = _cluster(rng, int(rng.integers(2, 40)))
        return Cluster(cluster.detection, cluster.members + cluster.members[:3])
    return _cluster(rng, 300)


def _mixed_frame(seed: int, kinds) -> list[Cluster]:
    rng = np.random.default_rng(seed)
    return [_mixed_cluster(rng, kind) for kind in kinds]


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(["lite", "large"]),
    kinds=st.lists(st.sampled_from(_KINDS[:-1]), min_size=1, max_size=8),
    with_large=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_pass_rows_match_per_cluster_oracle(networks, variant, kinds, with_large, seed):
    """Each row of the frame pass equals its cluster run alone, bit for bit."""
    net = networks[variant]
    clusters = _mixed_frame(seed, kinds + ["large"] * with_large)
    rows = learned_rows(clusters, net)
    assert rows.shape == (len(clusters), net.output_dim)
    for cluster, row in zip(clusters, rows):
        assert row.tobytes() == _per_cluster_oracle(cluster, net).tobytes()


# sha256 of learned_rows over _mixed_frame(seed, _KINDS) for seeds 0-3, in
# seed order: every cluster kind (empty, one point, one point repeated, 0.1 m,
# 6 m with duplicates, 300 points) in each frame.
_LEARNED_ROWS_DIGESTS = {
    "lite": "50bba73ad53323a7f157a26ddfd679df1178df8d180478d1d2c0023847596ddf",
    "large": "fa50037ff23ca48abb573b1f1d70857b3f861222f0e866f3b7646dc9284b01c9",
}


@pytest.mark.parametrize("variant", sorted(_LEARNED_ROWS_DIGESTS))
def test_learned_rows_bits_pinned(networks, variant):
    """The frame pass keeps its bits; the oracle test above compares two
    paths that share the private helpers, so only a pin catches a change in
    their arithmetic."""
    digest = hashlib.sha256()
    for seed in range(4):
        digest.update(learned_rows(_mixed_frame(seed, _KINDS), networks[variant]).tobytes())
    assert digest.hexdigest() == _LEARNED_ROWS_DIGESTS[variant]


def test_repeated_point_reaches_deepest_layer_as_one_query(rng):
    """The "repeated" kind of the mixed frames does what it is there for."""
    net = build_network("lite", seed=0)
    points = cluster_to_point_features(_mixed_cluster(rng, "repeated"))
    cell = net.base_cell_size * 2.0 ** (len(net.layers) - 1)
    assert grid_subsample(points, cell).count == 1


def _counting(monkeypatch, name: str) -> list:
    """Replace ``kpconv.<name>`` by a wrapper that records each call's arguments."""
    calls = []
    function = getattr(kpconv, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(kpconv, name, counted)
    return calls


def test_frame_pass_searches_neighbors_once_per_layer(monkeypatch, rng):
    """A frame of n clusters makes one neighbor-search pass and one weight
    product per layer, not n."""
    searches = _counting(monkeypatch, "_segment_neighbors")
    products = _counting(monkeypatch, "_contract")
    net = build_network("lite", seed=0)
    learned_rows([_cluster(rng, n) for n in (1, 5, 12, 30, 7)], net)
    assert len(searches) == len(net.layers)
    assert len(products) == len(net.layers)


_BLOCK = kpconv._ROW_BLOCK
_KERNEL_BLOCK = kpconv._KERNEL_ROW_BLOCK
_LAYERS = [(variant, i) for variant, n in (("lite", 4), ("large", 5)) for i in range(n)]


def _is_wide(layer: KPConvLayerConfig) -> bool:
    return layer.in_channels * layer.out_channels >= kpconv._SPARSE_MIN_WEIGHTS


def test_contract_threshold_splits_the_named_networks(networks):
    """Every lite layer and large layers 0-1 keep the dense product; large
    layers 2-4 take the kernel-point product, so ``_LAYERS`` covers both."""
    assert [i for i, layer in enumerate(networks["lite"].layers) if _is_wide(layer)] == []
    assert [i for i, layer in enumerate(networks["large"].layers) if _is_wide(layer)] == [2, 3, 4]


@settings(max_examples=30, deadline=None)
@given(
    variant_layer=st.sampled_from(_LAYERS),
    n=st.sampled_from(
        [1, _KERNEL_BLOCK - 1, _KERNEL_BLOCK, _KERNEL_BLOCK + 1, 2 * _KERNEL_BLOCK + 1,
         _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 6 * _BLOCK + 1]
    ),
    before=st.integers(0, 2 * _BLOCK),
    after=st.integers(0, _BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_row_bits_independent_of_other_rows(networks, variant_layer, n, before, after, seed):
    """A row of the weight product has the same bytes alone, among its own
    rows, and at any offset inside a larger frame. As in a frame, a row
    reaches few kernel points: 85 % of its per-kernel-point blocks are whole
    zeros, and single entries of the others are zero too."""
    variant, i = variant_layer
    layer = networks[variant].layers[i]
    rng = np.random.default_rng(seed)
    frame = rng.normal(size=(before + n + after, layer.kernel_point_count, layer.in_channels))
    frame[rng.random(frame.shape[:2]) < 0.85] = 0.0
    frame[rng.random(frame.shape) < 0.2] = 0.0
    frame = frame.reshape(len(frame), -1)
    rows = frame[before : before + n]
    out = kpconv._contract(rows, layer)
    np.testing.assert_allclose(out, rows @ layer.weights.reshape(-1, layer.out_channels), rtol=1e-12, atol=1e-12)
    assert out.tobytes() == kpconv._contract(frame, layer)[before : before + n].tobytes()
    j = int(rng.integers(n))
    assert out[j].tobytes() == kpconv._contract(rows[j : j + 1], layer)[0].tobytes()


def _dense_contract(weighted, layer):
    """The weight product as one float64 matmul over every kernel point."""
    return weighted @ layer.weights.reshape(-1, layer.out_channels)


def test_learned_rows_within_tolerance_of_dense_product(networks, monkeypatch):
    """The kernel-point product of the wide layers moves the large rows by
    rounding only: on the frames the bits are pinned on, each row differs
    from the dense product's row by at most 1e-12 times that row's largest
    magnitude."""
    net = networks["large"]
    frames = [_mixed_frame(seed, _KINDS) for seed in range(4)]
    rows = [learned_rows(clusters, net) for clusters in frames]
    monkeypatch.setattr(kpconv, "_contract", _dense_contract)
    for clusters, got in zip(frames, rows):
        want = learned_rows(clusters, net)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))


def test_wide_layers_multiply_only_active_rows(networks, monkeypatch):
    """Kernel point k of a wide layer multiplies exactly ceil(a_k / B) blocks
    of B rows, a_k being the rows whose k block has a nonzero entry, and no
    block at all when a_k is 0; a narrow layer multiplies ceil(N_q / 32)
    blocks of 32 rows. No other product runs."""
    net = networks["large"]
    products = _counting(monkeypatch, "_contract")
    calls = []
    matmul = np.matmul

    def counted(a, b, **kwargs):
        calls.append((a.shape, b))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    learned_rows(_mixed_frame(5, _KINDS), net)
    monkeypatch.undo()

    def against(kernel):
        """The row-block shapes multiplied by ``kernel``."""
        return [a for a, b in calls if b.shape == kernel.shape and b.ctypes.data == kernel.ctypes.data]

    expected, reached = 0, []
    for weighted, layer in products:
        k, c_in, c_out = layer.weights.shape
        if not _is_wide(layer):
            blocks = [(_BLOCK, k * c_in)] * -(-len(weighted) // _BLOCK)
            assert against(layer.weights.reshape(-1, c_out)) == blocks
            expected += len(blocks)
            continue
        active = np.count_nonzero(weighted.reshape(-1, k, c_in).any(axis=2), axis=0)
        reached += active.tolist()
        for kernel, a_k in zip(layer.weights, active):
            blocks = [(_KERNEL_BLOCK, c_in)] * -(-a_k // _KERNEL_BLOCK)
            assert against(kernel) == blocks
            expected += len(blocks)
    assert len(calls) == expected
    # The frame has kernel points that reach no row and ones that fill more
    # than one block.
    assert min(reached) == 0 and max(reached) > _KERNEL_BLOCK


def test_learned_rows_empty_frame_and_empty_clusters(rng):
    net = build_network("lite", seed=0)
    assert learned_rows([], net).shape == (0, 64)
    empty = Cluster(_cluster(rng, 1).detection, [])
    assert np.array_equal(learned_rows([empty, empty], net), np.zeros((2, 64)))


def test_extract_learned_deterministic_across_runs(rng):
    cluster = _cluster(rng, 20)
    first = extract_learned(cluster, build_network("lite", seed=7)).values
    second = extract_learned(cluster, build_network("lite", seed=7)).values
    assert np.array_equal(first, second)
    third = extract_learned(cluster, build_network("lite", seed=8)).values
    assert not np.array_equal(first, third)


def test_extract_learned_permutation_invariant(rng):
    net = build_network("lite", seed=0)
    cluster = _cluster(rng, 15)
    base = extract_learned(cluster, net).values
    perm = rng.permutation(15)
    shuffled = Cluster(cluster.detection, [cluster.members[i] for i in perm])
    assert np.array_equal(extract_learned(shuffled, net).values, base)


def test_hybrid_concatenation_contract(rng):
    net = build_network("large", seed=0)
    cfg = HandcraftedConfig()
    cluster = _cluster(rng, 10)
    hybrid = extract_hybrid(cluster, cfg, net)
    assert len(hybrid) == 1037
    assert np.array_equal(hybrid.values[:13], extract_handcrafted(cluster, cfg).values)
    assert np.array_equal(hybrid.values[13:], extract_learned(cluster, net).values)


_ONE_BLAS_THREAD_SCRIPT = """
import sys
import numpy as np
from rcdet.kpconv import build_network, extract_learned, learned_rows
from test_kpconv import _KINDS, _cluster, _mixed_frame
net = build_network("large", seed=0)
values = extract_learned(_cluster(np.random.default_rng(31), 300), net)
sys.stdout.buffer.write(values.values.tobytes())
sys.stdout.buffer.write(learned_rows(_mixed_frame(32, _KINDS * 2), net).tobytes())
"""


def test_extract_learned_bits_independent_of_blas_threads(monkeypatch):
    src_dir = os.path.dirname(os.path.dirname(rcdet.__file__))
    tests_dir = os.path.dirname(__file__)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
    )
    single = subprocess.run(
        [sys.executable, "-c", _ONE_BLAS_THREAD_SCRIPT], env=env, capture_output=True, check=True
    ).stdout
    net = build_network("large", seed=0)
    cluster = _cluster(np.random.default_rng(31), 300)
    expected = extract_learned(cluster, net).values.tobytes()
    products = _counting(monkeypatch, "_contract")
    frame = learned_rows(_mixed_frame(32, _KINDS * 2), net)
    # Every layer's product, the deepest included, spans more than two blocks.
    assert min(len(weighted) for weighted, _ in products) > 2 * kpconv._ROW_BLOCK
    assert single == expected + frame.tobytes()


def test_extract_learned_memory_bounded(rng):
    """Neighbor search works in query blocks, so a large cluster stays small."""
    net = build_network("large", seed=0)
    cluster = _cluster(rng, 2000)
    tracemalloc.start()
    try:
        extract_learned(cluster, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 2**20


# -- checkpoint IO -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    net = build_network("lite", seed=5)
    path = str(tmp_path / "net.rckp")
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.variant == net.variant
    assert loaded.base_cell_size == net.base_cell_size
    assert loaded.neighbor_cap == net.neighbor_cap
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.kernel_points, b.kernel_points)
        assert np.array_equal(a.weights, b.weights)
        assert (a.radius, a.influence_sigma, a.strided) == (b.radius, b.influence_sigma, b.strided)
    cluster = _cluster(rng, 9)
    assert np.array_equal(extract_learned(cluster, net).values, extract_learned(cluster, loaded).values)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.rckp"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        load_network(str(path))


def test_checkpoint_version_mismatch(tmp_path):
    import struct

    net = build_network("lite", seed=0)
    path = str(tmp_path / "net.rckp")
    save_network(net, path)
    with open(path, "r+b") as fh:
        fh.seek(4)
        fh.write(struct.pack("<I", 99))
    with pytest.raises(SchemaVersionMismatch):
        load_network(path)
