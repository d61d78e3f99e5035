"""Handcrafted cluster features and heatmap rasterization.

Statistics are verified against plain-Python per-channel oracles, the slope
against an independent least-squares fit (numpy polyfit), and rasterization
against a per-pixel painter oracle.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from rcdet.errors import DegenerateLine, EmptyCluster, MixedChannelCounts
from rcdet.features import (
    FeatureVector,
    HandcraftedConfig,
    cluster_orientation,
    cluster_slope,
    extract_handcrafted,
    rasterize_heatmap,
    slope_to_orientation,
    zero_features,
)
from rcdet.geometry import Box2D, Box3D
from rcdet.radar import Cluster, PreliminaryDetection, RadarPoint


def _cluster(positions, velocities=None) -> Cluster:
    positions = np.asarray(positions, dtype=np.float64)
    if velocities is None:
        velocities = np.zeros((len(positions), 2))
    velocities = np.asarray(velocities, dtype=np.float64)
    points = [
        RadarPoint(position=np.array([p[0], p[1], 0.0]), velocity=v)
        for p, v in zip(positions, velocities)
    ]
    det = PreliminaryDetection(
        class_id=0,
        score=0.5,
        bbox2d=Box2D(0.0, 0.0, 10.0, 10.0),
        projected_center=np.array([5.0, 5.0]),
        depth=10.0,
        log_sigma=0.0,
        box3d=Box3D(center=np.array([0.0, 10.0, 0.0]), dims=np.ones(3), yaw=0.0),
    )
    return Cluster(det, points)


def _random_cluster(rng, size: int) -> Cluster:
    positions = rng.uniform(-50, 50, size=(size, 2))
    velocities = rng.uniform(-15, 15, size=(size, 2))
    return _cluster(positions, velocities)


# -- slope and orientation -----------------------------------------------------


def test_slope_collinear_points():
    assert cluster_slope(_cluster([(0, 0), (1, 1), (2, 2)])) == pytest.approx(1.0, abs=1e-12)


def test_slope_two_point_line():
    assert cluster_slope(_cluster([(0, 0), (1, 2)])) == pytest.approx(2.0, abs=1e-12)


def test_slope_matches_polyfit_oracle(rng):
    for _ in range(100):
        cluster = _random_cluster(rng, int(rng.integers(2, 40)))
        x = cluster.positions()[:, 0] / 60.0
        y = cluster.positions()[:, 1] / 60.0
        expected = np.polyfit(x, y, 1)[0]
        assert abs(cluster_slope(cluster) - expected) < 1e-10


def test_slope_degenerate_vertical():
    with pytest.raises(DegenerateLine):
        cluster_slope(_cluster([(0, 0), (0, 1)]))


def test_slope_single_point():
    with pytest.raises(DegenerateLine):
        cluster_slope(_cluster([(3, 4)]))


def test_slope_empty_cluster():
    with pytest.raises(EmptyCluster):
        cluster_slope(_cluster(np.zeros((0, 2))))


def test_orientation_conventions():
    assert slope_to_orientation(1.0) == pytest.approx(math.pi / 4)
    assert slope_to_orientation(None, distinct_points=2) == math.pi / 2
    assert slope_to_orientation(None, distinct_points=1) == 0.0
    assert cluster_orientation(_cluster([(0, 0), (0, 1)])) == math.pi / 2
    assert cluster_orientation(_cluster([(3, 4)])) == 0.0
    # Coincident points carry no direction: singleton convention applies.
    assert cluster_orientation(_cluster([(3, 4), (3, 4)])) == 0.0


def test_orientation_rotational_consistency(rng):
    # A least-squares slope only rotates with the points when they actually
    # lie on a line, so the consistency check uses collinear clusters and
    # keeps both the original and the rotated line away from vertical.
    trials = 0
    while trials < 50:
        direction = rng.uniform(-1.2, 1.2)
        phi = rng.uniform(-1.2, 1.2)
        if min(abs(abs(a) - math.pi / 2) for a in (direction, direction + phi)) < 0.1:
            continue
        trials += 1
        offsets = rng.uniform(-20, 20, size=int(rng.integers(3, 20)))
        anchor = rng.uniform(-20, 20, size=2)
        positions = anchor + offsets[:, None] * np.array(
            [math.cos(direction), math.sin(direction)]
        )
        cluster = _cluster(positions)
        base = cluster_orientation(cluster)
        centroid = positions.mean(axis=0)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        rotated = _cluster((positions - centroid) @ rot.T + centroid)
        turned = cluster_orientation(rotated)
        assert abs(math.remainder(turned - base - phi, math.pi)) < 1e-9


# -- handcrafted feature extraction ---------------------------------------------


def test_single_point_features_collapse():
    cluster = _cluster([(6.0, 12.0)], [(2.0, -4.0)])
    fv = extract_handcrafted(cluster, HandcraftedConfig())
    stats = np.array([0.1, 0.2, 0.1, -0.2])
    assert len(fv) == 13
    assert np.array_equal(fv.values, np.concatenate([stats, stats, stats, [0.0]]))


def test_symmetric_pair_has_zero_mean():
    cluster = _cluster([(5.0, 7.0), (-5.0, -7.0)], [(3.0, -1.0), (-3.0, 1.0)])
    fv = extract_handcrafted(cluster, HandcraftedConfig(variant="mean"))
    assert len(fv) == 12
    assert np.array_equal(fv.values[8:12], np.zeros(4))


def test_empty_cluster_raises_and_zero_vector_stands_in():
    with pytest.raises(EmptyCluster):
        extract_handcrafted(_cluster(np.zeros((0, 2))), HandcraftedConfig())
    assert np.array_equal(zero_features(13).values, np.zeros(13))


def _stats_oracle(cluster: Cluster, cfg: HandcraftedConfig) -> list[float]:
    """Per-channel statistics via plain Python loops."""
    rows = []
    for point in cluster.members:
        rows.append(
            (
                point.position[0] / cfg.position_norm,
                point.position[1] / cfg.position_norm,
                point.velocity[0] / cfg.velocity_norm,
                point.velocity[1] / cfg.velocity_norm,
            )
        )
    channels = list(zip(*rows))
    values = [max(c) for c in channels] + [min(c) for c in channels]
    if cfg.variant in ("mean", "mean_ort", "complete"):
        values += [sum(c) / len(c) for c in channels]
    if cfg.variant in ("median_ort", "complete"):
        values += [statistics.median(c) for c in channels]
    if cfg.variant == "complete":
        means = [sum(c) / len(c) for c in channels]
        values += [
            sum((v - m) ** 2 for v in c) / len(c) for c, m in zip(channels, means)
        ]
    return values


@pytest.mark.parametrize("variant,length", [("mean", 12), ("mean_ort", 13), ("median_ort", 13), ("complete", 21)])
def test_variants_match_bruteforce_oracle(rng, variant, length):
    cfg = HandcraftedConfig(variant=variant)
    for _ in range(60):
        cluster = _random_cluster(rng, int(rng.integers(1, 30)))
        fv = extract_handcrafted(cluster, cfg)
        assert len(fv) == length
        expected = _stats_oracle(cluster, cfg)
        n_stats = len(expected)
        assert np.abs(fv.values[:n_stats] - np.array(expected)).max() < 1e-12
        if variant != "mean":
            assert fv.values[-1] == cluster_orientation(cluster, cfg.position_norm)


def test_permutation_invariance_exact(rng):
    cfg = HandcraftedConfig(variant="complete")
    for _ in range(30):
        cluster = _random_cluster(rng, int(rng.integers(2, 40)))
        base = extract_handcrafted(cluster, cfg).values
        perm = rng.permutation(cluster.member_count)
        shuffled = Cluster(cluster.detection, [cluster.members[i] for i in perm])
        assert np.array_equal(extract_handcrafted(shuffled, cfg).values, base)


def test_statistic_ordering(rng):
    cfg = HandcraftedConfig(variant="complete")
    for _ in range(30):
        cluster = _random_cluster(rng, int(rng.integers(1, 25)))
        v = extract_handcrafted(cluster, cfg).values
        vmax, vmin, vmean, vmedian = v[0:4], v[4:8], v[8:12], v[12:16]
        assert np.all(vmin <= vmean) and np.all(vmean <= vmax)
        assert np.all(vmin <= vmedian) and np.all(vmedian <= vmax)


def test_scale_equivariance_exact(rng):
    for _ in range(30):
        cluster = _random_cluster(rng, int(rng.integers(2, 20)))
        base = extract_handcrafted(cluster, HandcraftedConfig(position_norm=60.0)).values
        halved = extract_handcrafted(cluster, HandcraftedConfig(position_norm=120.0)).values
        # Position channels (x, y) of each statistic block halve exactly.
        for block in range(3):
            assert np.array_equal(halved[block * 4 : block * 4 + 2], base[block * 4 : block * 4 + 2] / 2)
            assert np.array_equal(halved[block * 4 + 2 : block * 4 + 4], base[block * 4 + 2 : block * 4 + 4])
        assert halved[-1] == base[-1]


# -- rasterization ----------------------------------------------------------------


def _cluster_with_bbox(bbox: Box2D, depth: float, positions=((1.0, 10.0),)) -> Cluster:
    cluster = _cluster(positions)
    det = cluster.detection
    det.bbox2d = bbox
    det.depth = depth
    return cluster


def test_rasterize_full_image_box():
    cluster = _cluster_with_bbox(Box2D(0.0, 0.0, 40.0, 24.0), depth=10.0)
    fv = FeatureVector(values=np.arange(3, dtype=np.float64))
    heatmap = rasterize_heatmap([(cluster, fv)], image_size=(40, 24), downsample=4)
    assert heatmap.values.shape == (3, 6, 10)
    for c in range(3):
        assert np.all(heatmap.values[c] == fv.values[c])


def test_rasterize_empty_input():
    heatmap = rasterize_heatmap([], image_size=(40, 24), downsample=4)
    assert heatmap.values.shape == (0, 6, 10)


def test_rasterize_requires_divisible_image():
    with pytest.raises(ValueError):
        rasterize_heatmap([], image_size=(41, 24), downsample=4)


def test_rasterize_mixed_channel_counts():
    a = (_cluster_with_bbox(Box2D(0, 0, 8, 8), 5.0), FeatureVector(values=np.zeros(2)))
    b = (_cluster_with_bbox(Box2D(0, 0, 8, 8), 5.0), FeatureVector(values=np.zeros(3)))
    with pytest.raises(MixedChannelCounts):
        rasterize_heatmap([a, b], image_size=(40, 24), downsample=4)


def test_rasterize_bbox_outside_image_rejected():
    cluster = _cluster_with_bbox(Box2D(0.0, 0.0, 48.0, 8.0), 5.0)
    with pytest.raises(ValueError):
        rasterize_heatmap([(cluster, FeatureVector(values=np.ones(1)))], (40, 24), 4)


def _painter_oracle(entries, image_size, downsample):
    """Per-pixel winner: nearest estimated depth, later entry on ties."""
    width, height = image_size
    grid_w, grid_h = width // downsample, height // downsample
    channels = len(entries[0][1].values) if entries else 0
    out = np.zeros((channels, grid_h, grid_w))
    for row in range(grid_h):
        cv = (row + 0.5) * downsample
        for col in range(grid_w):
            cu = (col + 0.5) * downsample
            winner = None
            for idx, (cluster, fv) in enumerate(entries):
                box = cluster.detection.bbox2d
                if box.x_min <= cu <= box.x_max and box.y_min <= cv <= box.y_max:
                    if winner is None or cluster.detection.depth <= entries[winner][0].detection.depth:
                        winner = idx
            if winner is not None:
                out[:, row, col] = entries[winner][1].values
    return out


def test_rasterize_overlap_nearest_depth_wins(rng):
    near = _cluster_with_bbox(Box2D(0.0, 0.0, 24.0, 16.0), depth=10.0)
    far = _cluster_with_bbox(Box2D(12.0, 8.0, 40.0, 24.0), depth=20.0)
    entries = [
        (far, FeatureVector(values=np.array([2.0]))),
        (near, FeatureVector(values=np.array([1.0]))),
    ]
    heatmap = rasterize_heatmap(entries, image_size=(40, 24), downsample=4)
    assert np.array_equal(heatmap.values, _painter_oracle(entries, (40, 24), 4))
    # The overlap cell region carries the near cluster's value.
    assert heatmap.values[0, 2, 4] == 1.0


def test_rasterize_random_overlaps_match_painter_oracle(rng):
    for _ in range(25):
        entries = []
        for _ in range(int(rng.integers(0, 6))):
            x = np.sort(rng.uniform(0, 40, 2))
            y = np.sort(rng.uniform(0, 24, 2))
            depth = float(rng.choice([5.0, 10.0, 10.0, 20.0]))
            cluster = _cluster_with_bbox(Box2D(x[0], y[0], x[1], y[1]), depth)
            entries.append((cluster, FeatureVector(values=rng.uniform(-1, 1, 4))))
        heatmap = rasterize_heatmap(entries, image_size=(40, 24), downsample=4)
        if entries:
            assert np.array_equal(heatmap.values, _painter_oracle(entries, (40, 24), 4))
        else:
            assert heatmap.values.shape == (0, 6, 10)


def test_rasterize_disjoint_matches_single(rng):
    a = _cluster_with_bbox(Box2D(0.0, 0.0, 16.0, 24.0), depth=5.0)
    b = _cluster_with_bbox(Box2D(24.0, 0.0, 40.0, 24.0), depth=7.0)
    fa = FeatureVector(values=np.array([1.0, -1.0]))
    fb = FeatureVector(values=np.array([2.0, -2.0]))
    joint = rasterize_heatmap([(a, fa), (b, fb)], (40, 24), 4)
    alone_a = rasterize_heatmap([(a, fa)], (40, 24), 4)
    alone_b = rasterize_heatmap([(b, fb)], (40, 24), 4)
    assert np.array_equal(joint.values, alone_a.values + alone_b.values)


def test_rasterize_owner_matches_painter_oracle_winner(rng):
    # Coding each entry's features as its index + 1 makes the painter oracle
    # return the winning index + 1 per pixel, and 0 where no box covers it.
    for _ in range(25):
        entries = []
        for _ in range(int(rng.integers(1, 6))):
            x = np.sort(rng.uniform(0, 40, 2))
            y = np.sort(rng.uniform(0, 24, 2))
            depth = float(rng.choice([5.0, 10.0, 10.0, 20.0]))
            cluster = _cluster_with_bbox(Box2D(x[0], y[0], x[1], y[1]), depth)
            values = rng.uniform(-1, 1, 4) if rng.uniform() < 0.5 else np.zeros(4)
            entries.append((cluster, FeatureVector(values=values)))
        coded = [(c, FeatureVector(values=[i + 1.0])) for i, (c, _) in enumerate(entries)]
        heatmap = rasterize_heatmap(entries, image_size=(40, 24), downsample=4)
        assert heatmap.owner.dtype == np.int32
        assert np.array_equal(heatmap.owner, _painter_oracle(coded, (40, 24), 4)[0] - 1)
        assert np.array_equal(heatmap.rows, np.array([fv.values for _, fv in entries]))


def test_rasterize_zero_feature_winner_owns_its_pixels():
    near = _cluster_with_bbox(Box2D(0.0, 0.0, 24.0, 16.0), depth=10.0)
    far = _cluster_with_bbox(Box2D(12.0, 8.0, 40.0, 24.0), depth=20.0)
    entries = [(far, FeatureVector(values=np.array([2.0]))), (near, zero_features(1))]
    heatmap = rasterize_heatmap(entries, image_size=(40, 24), downsample=4)
    # Pixel (2, 4) lies in both boxes and belongs to the near, all-zero
    # cluster; pixel (5, 0) lies in neither. Only the owner grid tells them apart.
    assert heatmap.owner[2, 4] == 1 and heatmap.values[0, 2, 4] == 0.0
    assert heatmap.owner[5, 0] == -1 and heatmap.values[0, 5, 0] == 0.0
    # Every access builds a fresh grid.
    heatmap.values[0, 2, 4] = 7.0
    assert heatmap.values[0, 2, 4] == 0.0
