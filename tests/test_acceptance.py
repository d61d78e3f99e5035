"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; runtime budgets are asserted where the
criterion states one.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rcdet.bench import bench_association, format_bench, random_association_inputs
from rcdet.cli import main as cli_main
from rcdet.decoder import (
    build_maps_from_detections,
    confidence,
    decode_depth,
    decode_detections,
    encode_depth,
    topk_peaks,
)
from rcdet.features import HandcraftedConfig, extract_handcrafted
from rcdet.geometry import wrap_angle
from rcdet.kpconv import (
    KPConvLayerConfig,
    PointFeatures,
    build_network,
    extract_hybrid,
    extract_learned,
    grid_subsample,
    kernel_point_layout,
    kpconv_forward,
    kpconv_weight_grad,
    radius_neighbors,
)
from rcdet.losses import (
    HeatmapPair,
    OrientationTarget,
    RegressionBatch,
    depth_uncertainty_loss,
    depth_uncertainty_loss_grad,
    dim2d_giou_loss,
    dim2d_giou_loss_grad,
    focal_loss,
    focal_loss_grad,
    l1_regression_loss,
    l1_regression_loss_grad,
    multibin_loss,
    multibin_loss_grad,
    offset_loss,
    offset_loss_grad,
    total_loss,
)
from rcdet.metrics import nds
from rcdet.radar import associate, associate_naive
from rcdet.scene_io import default_camera

from conftest import detection_for_box, random_visible_box
from test_features import _random_cluster, _stats_oracle
from test_kpconv import _cluster as random_kpconv_cluster
from test_radar import _member_matrix, _random_scene, oracle_membership


@contextmanager
def _criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} FAIL: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


# -- 1. handcrafted features ----------------------------------------------------


def test_acceptance_1_handcrafted_features():
    with _criterion(1, "handcrafted cluster features vs brute-force oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        cfg = HandcraftedConfig(variant="complete")
        polyfit_checked = 0
        for _ in range(1000):
            cluster = _random_cluster(rng, int(rng.integers(1, 65)))
            fv = extract_handcrafted(cluster, cfg)
            expected = _stats_oracle(cluster, cfg)
            assert np.abs(fv.values[: len(expected)] - np.array(expected)).max() < 1e-12

            # Slope against an independent least-squares fit where defined.
            positions = cluster.positions()
            x = positions[:, 0] / cfg.position_norm
            if cluster.member_count >= 2 and np.sum((x - x.mean()) ** 2) > 1e-9:
                from rcdet.features import cluster_slope

                y = positions[:, 1] / cfg.position_norm
                assert abs(cluster_slope(cluster) - np.polyfit(x, y, 1)[0]) < 1e-10
                polyfit_checked += 1

            perm = rng.permutation(cluster.member_count)
            from rcdet.radar import Cluster

            shuffled = Cluster(cluster.detection, [cluster.members[i] for i in perm])
            assert np.array_equal(extract_handcrafted(shuffled, cfg).values, fv.values)
        assert polyfit_checked > 900
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 2. frustum association -------------------------------------------------------


def test_acceptance_2_association_fuzz():
    with _criterion(2, "associate == associate_naive == membership oracle, 1000 seeds"):
        start = time.perf_counter()
        pillar_dims = (0.2, 0.2, 1.5)
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            if seed < 3:
                n_points, n_dets = 1000, 100
                points, dets, camera = random_association_inputs(n_points, n_dets, seed)
            else:
                n_points = int(rng.integers(0, 80))
                n_dets = int(rng.integers(0, 8))
                points, dets, camera = _random_scene(rng, n_points, n_dets)
            expansion = 1.0 if seed % 3 else 1.25
            batched = associate(points, dets, camera, pillar_dims, expansion)
            naive = associate_naive(points, dets, camera, pillar_dims, expansion)
            got = _member_matrix(batched, points)
            assert got == _member_matrix(naive, points), f"seed {seed}: naive mismatch"
            expected = [
                [
                    i
                    for i, p in enumerate(points)
                    if oracle_membership(p, det, camera, pillar_dims, expansion)
                ]
                for det in dets
            ]
            assert got == expected, f"seed {seed}: oracle mismatch"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 3. loss suite ------------------------------------------------------------------


def _perfect_losses_are_minimal(rng):
    target = np.zeros((2, 5, 5))
    target[0, 2, 2] = 1.0
    target[1, 4, 1] = 1.0
    assert focal_loss(HeatmapPair(predicted=target.copy(), target=target, num_objects=2)) == 0.0

    offsets = rng.uniform(-1, 1, (4, 2))
    assert (
        offset_loss(
            RegressionBatch(
                offsets_pred=offsets, offsets_target=offsets.copy(),
                truncated=rng.uniform(size=4) < 0.5,
            )
        )
        == 0.0
    )
    for kind, shape in (("velocity", (4, 2)), ("dims3d", (4, 3)), ("corners", (4, 8, 2))):
        values = rng.uniform(-2, 2, shape)
        fields = {
            "velocity": dict(velocity_pred=values, velocity_target=values.copy()),
            "dims3d": dict(dims3d_pred=values, dims3d_target=values.copy()),
            "corners": dict(corners_pred=values, corners_target=values.copy()),
        }[kind]
        assert l1_regression_loss(kind, RegressionBatch(**fields)) == 0.0

    targets = [OrientationTarget(yaw=float(rng.uniform(-math.pi, math.pi))) for _ in range(3)]
    conf = np.stack([t.flags.astype(float) for t in targets])
    residuals = np.stack([t.residuals for t in targets])
    rotcls, rotres, _ = multibin_loss(conf, residuals, targets)
    assert rotres == 0.0 and rotcls == 0.0

    depths = rng.uniform(2, 40, 4)
    assert (
        depth_uncertainty_loss(
            RegressionBatch(
                depth_pred=depths, depth_target=depths.copy(), log_sigma_pred=np.zeros(4)
            )
        )
        == 0.0
    )
    sides = rng.uniform(0.5, 4, (3, 4))
    assert (
        dim2d_giou_loss(
            RegressionBatch(
                sides_pred=sides, sides_target=sides.copy(), rep_points=rng.uniform(-3, 3, (3, 2))
            )
        )
        == 0.0
    )


def _finite_difference_checks(rng):
    step = 1e-6

    def check(value_fn, grad, array, indices):
        for idx in indices:
            plus = array.copy()
            plus[idx] += step
            minus = array.copy()
            minus[idx] -= step
            fd = (value_fn(plus) - value_fn(minus)) / (2 * step)
            assert _relative(grad[idx], fd) < 1e-4

    for _ in range(20):
        # focal
        target = (rng.uniform(size=(1, 3, 3)) < 0.3).astype(float)
        target[target < 1] = rng.uniform(0, 0.8, size=int((target < 1).sum()))
        pred = rng.uniform(0.1, 0.9, size=target.shape)
        grad = focal_loss_grad(HeatmapPair(pred, target, 2))
        check(
            lambda p: focal_loss(HeatmapPair(p, target, 2)),
            grad, pred, list(np.ndindex(*pred.shape))[:5],
        )

        # offset
        m = int(rng.integers(1, 5))
        o_pred = rng.uniform(-2, 2, (m, 2))
        o_target = rng.uniform(-2, 2, (m, 2))
        truncated = rng.uniform(size=m) < 0.5
        grad = offset_loss_grad(
            RegressionBatch(offsets_pred=o_pred, offsets_target=o_target, truncated=truncated)
        )
        check(
            lambda p: offset_loss(
                RegressionBatch(offsets_pred=p, offsets_target=o_target, truncated=truncated)
            ),
            grad, o_pred, list(np.ndindex(m, 2)),
        )

        # L1 family
        for kind, shape in (("velocity", (m, 2)), ("dims3d", (m, 3)), ("corners", (m, 8, 2))):
            pred_arr = rng.uniform(-3, 3, shape)
            target_arr = rng.uniform(-3, 3, shape)

            def batch_of(p, kind=kind, target_arr=target_arr):
                fields = {
                    "velocity": dict(velocity_pred=p, velocity_target=target_arr),
                    "dims3d": dict(dims3d_pred=p, dims3d_target=target_arr),
                    "corners": dict(corners_pred=p, corners_target=target_arr),
                }[kind]
                return RegressionBatch(**fields)

            grad = l1_regression_loss_grad(kind, batch_of(pred_arr))
            check(
                lambda p, k=kind: l1_regression_loss(k, batch_of(p)),
                grad, pred_arr, list(np.ndindex(*shape))[:6],
            )

        # multibin
        targets = [OrientationTarget(yaw=float(rng.uniform(-math.pi, math.pi))) for _ in range(m)]
        conf = rng.uniform(0.1, 0.9, (m, 4))
        residuals = rng.uniform(-1.5, 1.5, (m, 4, 2))
        conf_grad, res_grad = multibin_loss_grad(conf, residuals, targets)
        check(
            lambda c: multibin_loss(c, residuals, targets)[2],
            conf_grad, conf, list(np.ndindex(m, 4))[:6],
        )
        check(
            lambda r: multibin_loss(conf, r, targets)[2],
            res_grad, residuals, list(np.ndindex(m, 4, 2))[:6],
        )

        # depth with uncertainty
        d_pred = rng.uniform(3, 40, m)
        d_target = rng.uniform(3, 40, m)
        log_sigma = rng.uniform(-1.5, 1.5, m)
        depth_grad, sigma_grad = depth_uncertainty_loss_grad(
            RegressionBatch(depth_pred=d_pred, depth_target=d_target, log_sigma_pred=log_sigma)
        )
        check(
            lambda p: depth_uncertainty_loss(
                RegressionBatch(depth_pred=p, depth_target=d_target, log_sigma_pred=log_sigma)
            ),
            depth_grad, d_pred, [(i,) for i in range(m)],
        )
        check(
            lambda s: depth_uncertainty_loss(
                RegressionBatch(depth_pred=d_pred, depth_target=d_target, log_sigma_pred=s)
            ),
            sigma_grad, log_sigma, [(i,) for i in range(m)],
        )

        # GIoU on side distances
        sides_pred = rng.uniform(0.5, 5, (m, 4))
        sides_target = rng.uniform(0.5, 5, (m, 4))
        rep = rng.uniform(-3, 3, (m, 2))
        grad = dim2d_giou_loss_grad(
            RegressionBatch(sides_pred=sides_pred, sides_target=sides_target, rep_points=rep)
        )
        check(
            lambda p: dim2d_giou_loss(
                RegressionBatch(sides_pred=p, sides_target=sides_target, rep_points=rep)
            ),
            grad, sides_pred, list(np.ndindex(m, 4)),
        )


def test_acceptance_3_loss_suite():
    with _criterion(3, "losses: minima, gradient checks, sigma minimizer, 6.6 weights"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        _perfect_losses_are_minimal(rng)
        _finite_difference_checks(rng)

        # Analytic minimizer of the uncertainty loss over sigma^2.
        for err in (0.5, 1.0, math.e, 4.2):
            variances = np.linspace(0.05, 12.0, 4000)
            losses = [
                depth_uncertainty_loss(
                    RegressionBatch(
                        depth_pred=np.array([10.0]),
                        depth_target=np.array([10.0 + err]),
                        log_sigma_pred=np.array([0.5 * math.log(v)]),
                    )
                )
                for v in variances
            ]
            best = variances[int(np.argmin(losses))]
            assert abs(best - err) <= variances[1] - variances[0]

        assert total_loss(1, 1, 1, 1, 1, 1, 1, 1) == pytest.approx(6.6, abs=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 4. decoder ----------------------------------------------------------------------


def test_acceptance_4_decoder():
    with _criterion(4, "depth round trip, confidence anchors, plant-and-recover"):
        for depth in np.linspace(1.0, 60.0, 2000):
            assert abs(decode_depth(encode_depth(depth)) - depth) < 1e-9
        assert decode_depth(0.0) == 1.0
        p_dep, _ = confidence(1.0, 0.0)
        assert abs(p_dep - math.exp(-1.0)) < 1e-12

        rng = np.random.default_rng(404)
        camera = default_camera()
        dets, used = [], set()
        while len(dets) < 12:
            box = random_visible_box(rng, camera, depth_range=(6.0, 50.0))
            det = detection_for_box(rng, camera, box, class_id=int(rng.integers(3)))
            cell = (int(det.projected_center[0] // 4), int(det.projected_center[1] // 4))
            if any(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) < 2 for c in used):
                continue
            used.add(cell)
            det.attribute = int(rng.integers(4))
            dets.append(det)
        heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
        decoded = decode_detections(topk_peaks(heatmap, k=100), maps, camera, threshold=0.0)
        assert len(decoded) == len(dets)
        from rcdet.geometry import project_point

        by_cell = {
            (int(d.projected_center[0] // 4), int(d.projected_center[1] // 4)): d for d in dets
        }
        for out in decoded:
            pixel, _ = project_point(camera, out.box.center)
            planted = by_cell[(int(pixel[0] // 4), int(pixel[1] // 4))]
            assert out.class_id == planted.class_id
            assert out.attribute == planted.attribute
            assert np.abs(out.box.center - planted.box3d.center).max() < 1e-6
            assert np.abs(out.box.dims - planted.box3d.dims).max() < 1e-6
            assert abs(wrap_angle(out.box.yaw - planted.box3d.yaw)) < 1e-6
            assert np.abs(out.box.velocity - planted.box3d.velocity).max() < 1e-6


# -- 5. metrics -----------------------------------------------------------------------


def test_acceptance_5_metrics_anchors():
    with _criterion(5, "perfect NDS exactly 1.0; published components reproduce 46.5"):
        start = time.perf_counter()
        assert nds(1.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 1.0
        reconstructed = nds(0.335, 0.642, 0.261, 0.519, 0.466, 0.134)
        assert abs(reconstructed * 100.0 - 46.5) < 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 6. KPConv extractor -----------------------------------------------------------


def test_acceptance_6_kpconv():
    with _criterion(6, "KPConv dims 64/512/1024, linearity, 50 gradient checks, oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(606)

        for variant, width in (("lite", 64), ("medium", 512), ("large", 1024)):
            net = build_network(variant, seed=0)
            assert net.output_dim == width
            cluster = random_kpconv_cluster(rng, int(rng.integers(1, 20)))
            assert len(extract_learned(cluster, net)) == width

        # Linearity of the forward operator in the input features.
        for _ in range(10):
            k = int(rng.integers(2, 6))
            layer = KPConvLayerConfig(
                kernel_points=kernel_point_layout(k, 1.5, seed=int(rng.integers(1 << 30))),
                weights=rng.normal(0, 0.5, (k, 3, 4)),
                radius=1.5,
                influence_sigma=0.75,
                strided=False,
            )
            n = int(rng.integers(2, 10))
            positions = rng.uniform(-1, 1, (n, 3))
            fa, fb = rng.uniform(-2, 2, (n, 3)), rng.uniform(-2, 2, (n, 3))
            queries = rng.uniform(-1, 1, (4, 3))
            neighbors = radius_neighbors(queries, positions, layer.radius)
            combined = kpconv_forward(
                layer, queries, PointFeatures(positions=positions, features=2.0 * fa - 0.5 * fb), neighbors
            )
            split = 2.0 * kpconv_forward(
                layer, queries, PointFeatures(positions=positions, features=fa), neighbors
            ) - 0.5 * kpconv_forward(
                layer, queries, PointFeatures(positions=positions, features=fb), neighbors
            )
            assert np.abs(combined - split).max() < 1e-9

        # Weight gradient vs central finite differences, 50 instances.
        step = 1e-5
        for _ in range(50):
            k = int(rng.integers(1, 4))
            layer = KPConvLayerConfig(
                kernel_points=kernel_point_layout(k, 1.2, seed=int(rng.integers(1 << 30))),
                weights=rng.normal(0, 0.5, (k, 2, 3)),
                radius=1.2,
                influence_sigma=0.6,
                strided=False,
            )
            n = int(rng.integers(2, 9))
            support = PointFeatures(
                positions=rng.uniform(-1, 1, (n, 3)), features=rng.uniform(-2, 2, (n, 2))
            )
            queries = rng.uniform(-1, 1, (3, 3))
            neighbors = radius_neighbors(queries, support.positions, layer.radius)
            upstream = rng.normal(size=(3, 3))
            grad = kpconv_weight_grad(layer, queries, support, neighbors, upstream)
            for idx in np.ndindex(*layer.weights.shape):
                w_plus, w_minus = layer.weights.copy(), layer.weights.copy()
                w_plus[idx] += step
                w_minus[idx] -= step
                out_plus = kpconv_forward(
                    KPConvLayerConfig(layer.kernel_points, w_plus, layer.radius, layer.influence_sigma, False),
                    queries, support, neighbors,
                )
                out_minus = kpconv_forward(
                    KPConvLayerConfig(layer.kernel_points, w_minus, layer.radius, layer.influence_sigma, False),
                    queries, support, neighbors,
                )
                fd = (np.sum(out_plus * upstream) - np.sum(out_minus * upstream)) / (2 * step)
                assert _relative(grad[idx], fd) < 1e-4

        # Subsampling and radius search against exact brute-force oracles.
        from test_kpconv import _subsample_oracle

        for _ in range(100):
            n = int(rng.integers(1, 50))
            positions = rng.uniform(-4, 4, (n, 3))
            features = rng.uniform(-2, 2, (n, 2))
            cell = float(rng.uniform(0.2, 2.0))
            out = grid_subsample(PointFeatures(positions=positions, features=features), cell)
            exp_pos, exp_feat = _subsample_oracle(positions, features, cell)
            assert np.array_equal(out.positions, exp_pos)
            assert np.array_equal(out.features, exp_feat)

            queries = rng.uniform(-4, 4, (int(rng.integers(1, 10)), 3))
            radius = float(rng.uniform(0.5, 4.0))
            got = radius_neighbors(queries, positions, radius)
            for qi in range(queries.shape[0]):
                candidates = []
                for si in range(n):
                    dx = positions[si, 0] - queries[qi, 0]
                    dy = positions[si, 1] - queries[qi, 1]
                    dz = positions[si, 2] - queries[qi, 2]
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 <= radius * radius:
                        candidates.append((d2, si))
                candidates.sort()
                assert got[qi].tolist() == [si for _, si in candidates]
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 7. hybrid strategy --------------------------------------------------------------


def test_acceptance_7_hybrid():
    with _criterion(7, "hybrid features: 1037 = 13 + 1024, bit-exact halves"):
        rng = np.random.default_rng(707)
        net = build_network("large", seed=0)
        cfg = HandcraftedConfig(variant="mean_ort")
        for size in (1, 2, 7, 30):
            cluster = random_kpconv_cluster(rng, size)
            hybrid = extract_hybrid(cluster, cfg, net)
            assert len(hybrid) == 1037
            assert np.array_equal(hybrid.values[:13], extract_handcrafted(cluster, cfg).values)
            assert np.array_equal(hybrid.values[13:], extract_learned(cluster, net).values)


# -- 8. end to end --------------------------------------------------------------------


def test_acceptance_8_end_to_end(tmp_path, capsys):
    with _criterion(8, "noiseless 20-frame fixture: run -> eval gives mAP 1.0, TP < 1e-6"):
        start = time.perf_counter()
        import json

        config_path = tmp_path / "synth.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 808,
                    "n_frames": 20,
                    "objects_min": 1,
                    "objects_max": 4,
                    "clutter_density": 0.002,
                    "max_speed": 6.0,
                }
            )
        )
        scenes = str(tmp_path / "scenes.jsonl")
        dets = str(tmp_path / "dets.jsonl")
        report = str(tmp_path / "report.txt")
        assert cli_main(["synth", "--config", str(config_path), "--out", scenes]) == 0
        assert cli_main(["run", "--scenes", scenes, "--out", dets]) == 0
        assert cli_main(["eval", "--dets", dets, "--gt", scenes, "--report", report]) == 0
        capsys.readouterr()

        values = dict(
            line.split("=", 1) for line in Path(report).read_text().splitlines() if "=" in line
        )
        assert float(values["mAP"]) == 1.0
        for key in ("mATE", "mASE", "mAOE", "mAVE", "mAAE"):
            assert float(values[key]) < 1e-6, f"{key} = {values[key]}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"


# -- 9. association performance --------------------------------------------------------


def test_acceptance_9_association_benchmark():
    with _criterion(9, "1000x100 association: identical outputs; speedup reported"):
        # bench_association raises ResultMismatch when the two paths disagree;
        # that is the only hard gate here. The ratio is informational.
        report = bench_association(1000, 100, iters=3, seed=909)
        print("\n" + format_bench(report))
        if report.speedup < 2.0:
            print(f"NOTE: speedup {report.speedup:.2f}x below the 2x expectation")
