"""Loss suite: analytic minima, hand-computed anchors, finite-difference
gradient checks, and direct-formula oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from rcdet.errors import EmptyBatch, NoCoveredBin
from rcdet.losses import (
    DEFAULT_BIN_CENTERS,
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


def relative_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / scale


# -- focal loss ---------------------------------------------------------------


def test_focal_perfect_prediction_is_zero():
    target = np.zeros((2, 4, 4))
    target[0, 1, 2] = 1.0
    pair = HeatmapPair(predicted=target.copy(), target=target, num_objects=1)
    assert focal_loss(pair) == 0.0


def test_focal_hand_computed_single_pixel():
    pair = HeatmapPair(
        predicted=np.array([[[0.5]]]), target=np.array([[[1.0]]]), num_objects=1
    )
    expected = 0.25 * -math.log(0.5)  # (1 - 0.5)^2 * -ln(0.5)
    assert abs(focal_loss(pair) - expected) < 1e-12
    assert round(expected, 5) == 0.17329


def test_focal_decreases_along_interpolation(rng):
    target = (rng.uniform(size=(2, 6, 6)) < 0.05).astype(float)
    target[0, 0, 0] = 1.0
    start = rng.uniform(0.2, 0.8, size=target.shape)
    previous = None
    for t in np.linspace(0.0, 0.95, 12):
        predicted = (1 - t) * start + t * target
        value = focal_loss(HeatmapPair(predicted=np.clip(predicted, 0, 1), target=target, num_objects=3))
        if previous is not None:
            assert value < previous
        previous = value


def test_focal_empty_batch():
    pair = HeatmapPair(predicted=np.zeros((1, 2, 2)), target=np.zeros((1, 2, 2)), num_objects=0)
    with pytest.raises(EmptyBatch):
        focal_loss(pair)


_PIXEL = np.zeros((1, 1, 1))
_OFFSETS = np.zeros((3, 2))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: HeatmapPair(_PIXEL, _PIXEL, True), "num_objects must be an integer >= 0, got True"),
        (lambda: HeatmapPair(_PIXEL, _PIXEL, 1.5), "num_objects must be an integer >= 0, got 1.5"),
        (lambda: HeatmapPair(_PIXEL, _PIXEL, 0.5), "num_objects must be an integer >= 0, got 0.5"),
        (lambda: HeatmapPair(_PIXEL, _PIXEL, -1), "num_objects must be an integer >= 0, got -1"),
        (lambda: HeatmapPair(_PIXEL, _PIXEL, None), "num_objects must be an integer >= 0, got None"),
        (
            lambda: RegressionBatch(offsets_pred=_OFFSETS, offsets_target=_OFFSETS, truncated=[True]),
            "truncated must have shape (M,) for the M rows of offsets_pred, got (1,)",
        ),
        (
            lambda: RegressionBatch(offsets_pred=_OFFSETS, offsets_target=_OFFSETS, truncated=[[True]] * 3),
            "truncated must have shape (M,) for the M rows of offsets_pred, got (3, 1)",
        ),
        (
            lambda: RegressionBatch(truncated=[True, False, True]),
            "truncated must have shape (M,) for the M rows of offsets_pred, got (3,)",
        ),
    ],
    ids=["count-bool", "count-1.5", "count-0.5", "count-negative", "count-none",
         "truncated-one-flag", "truncated-column", "truncated-without-offsets"],
)
def test_loss_records_reject_meaningless_fields(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_focal_gradient_finite_differences(rng):
    for _ in range(10):
        target = (rng.uniform(size=(1, 3, 3)) < 0.3).astype(float)
        target[target < 1] = rng.uniform(0, 0.8, size=(target < 1).sum())
        predicted = rng.uniform(0.1, 0.9, size=target.shape)
        pair = HeatmapPair(predicted=predicted, target=target, num_objects=2)
        grad = focal_loss_grad(pair)
        step = 1e-6
        for idx in np.ndindex(*predicted.shape):
            plus = predicted.copy()
            plus[idx] += step
            minus = predicted.copy()
            minus[idx] -= step
            fd = (
                focal_loss(HeatmapPair(plus, target, 2))
                - focal_loss(HeatmapPair(minus, target, 2))
            ) / (2 * step)
            assert relative_error(grad[idx], fd) < 1e-4


# -- offset loss ---------------------------------------------------------------


def test_offset_perfect():
    batch = RegressionBatch(
        offsets_pred=np.array([[0.3, -0.2]]),
        offsets_target=np.array([[0.3, -0.2]]),
        truncated=np.array([False]),
    )
    assert offset_loss(batch) == 0.0


def test_offset_truncated_log_scale_closed_form():
    batch = RegressionBatch(
        offsets_pred=np.array([[math.e - 1.0, 0.0]]),
        offsets_target=np.array([[0.0, 0.0]]),
        truncated=np.array([True]),
    )
    assert abs(offset_loss(batch) - 1.0) < 1e-12


def test_offset_matches_branch_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(1, 12))
        pred = rng.uniform(-3, 3, size=(m, 2))
        target = rng.uniform(-3, 3, size=(m, 2))
        truncated = rng.uniform(size=m) < 0.4
        batch = RegressionBatch(offsets_pred=pred, offsets_target=target, truncated=truncated)
        total = 0.0
        for k in range(m):
            err = abs(pred[k, 0] - target[k, 0]) + abs(pred[k, 1] - target[k, 1])
            total += math.log(1.0 + err) if truncated[k] else err
        assert abs(offset_loss(batch) - total / m) < 1e-12


def test_offset_gradient(rng):
    for _ in range(10):
        m = int(rng.integers(1, 6))
        pred = rng.uniform(-3, 3, size=(m, 2))
        target = rng.uniform(-3, 3, size=(m, 2))
        truncated = rng.uniform(size=m) < 0.5
        batch = RegressionBatch(offsets_pred=pred, offsets_target=target, truncated=truncated)
        grad = offset_loss_grad(batch)
        step = 1e-6
        for idx in np.ndindex(m, 2):
            plus, minus = pred.copy(), pred.copy()
            plus[idx] += step
            minus[idx] -= step
            fd = (
                offset_loss(RegressionBatch(offsets_pred=plus, offsets_target=target, truncated=truncated))
                - offset_loss(RegressionBatch(offsets_pred=minus, offsets_target=target, truncated=truncated))
            ) / (2 * step)
            assert relative_error(grad[idx], fd) < 1e-4


# -- plain L1 family -------------------------------------------------------------


def _l1_batch(kind, pred, target):
    fields = {
        "velocity": dict(velocity_pred=pred, velocity_target=target),
        "dims3d": dict(dims3d_pred=pred, dims3d_target=target),
        "corners": dict(corners_pred=pred, corners_target=target),
    }
    return RegressionBatch(**fields[kind])


def test_l1_exact_predictions_zero(rng):
    for kind, shape in (("velocity", (3, 2)), ("dims3d", (3, 3)), ("corners", (3, 8, 2))):
        values = rng.uniform(-2, 2, size=shape)
        assert l1_regression_loss(kind, _l1_batch(kind, values, values.copy())) == 0.0


def test_l1_velocity_hand_case():
    batch = _l1_batch("velocity", np.array([[1.0, -2.0]]), np.array([[0.0, 0.0]]))
    assert l1_regression_loss("velocity", batch) == 3.0


def test_l1_matches_sum_oracle(rng):
    for kind, shape in (("velocity", (5, 2)), ("dims3d", (4, 3)), ("corners", (3, 8, 2))):
        pred = rng.uniform(-4, 4, size=shape)
        target = rng.uniform(-4, 4, size=shape)
        expected = sum(
            abs(float(p) - float(t)) for p, t in zip(pred.reshape(-1), target.reshape(-1))
        ) / shape[0]
        assert abs(l1_regression_loss(kind, _l1_batch(kind, pred, target)) - expected) < 1e-12


def test_l1_gradient(rng):
    pred = rng.uniform(-4, 4, size=(4, 3))
    target = rng.uniform(-4, 4, size=(4, 3))
    grad = l1_regression_loss_grad("dims3d", _l1_batch("dims3d", pred, target))
    assert np.array_equal(grad, np.sign(pred - target) / 4)


def test_l1_empty_batch():
    with pytest.raises(EmptyBatch):
        l1_regression_loss("velocity", _l1_batch("velocity", np.zeros((0, 2)), np.zeros((0, 2))))


# -- multibin orientation ---------------------------------------------------------


def test_orientation_target_encoding():
    target = OrientationTarget(yaw=0.0)
    assert target.flags.tolist() == [True, True, False, True]
    assert target.covered_count == 3
    np.testing.assert_allclose(target.residuals[0], [1.0, 0.0], atol=1e-15)

    target = OrientationTarget(yaw=0.3)
    assert target.flags.tolist() == [True, True, False, False]
    np.testing.assert_allclose(target.residuals[0], [math.cos(0.3), math.sin(0.3)])
    np.testing.assert_allclose(
        target.residuals[1], [math.cos(0.3 - math.pi / 2), math.sin(0.3 - math.pi / 2)]
    )


def test_multibin_perfect_predictions():
    targets = [OrientationTarget(yaw=0.4), OrientationTarget(yaw=-2.0)]
    conf = np.stack([t.flags.astype(float) for t in targets])
    residuals = np.stack([t.residuals for t in targets])
    rotcls, rotres, rot = multibin_loss(conf, residuals, targets)
    assert rotres == 0.0
    assert rotcls < 1e-6  # BCE at clamp saturation
    assert rot == rotcls + rotres


def test_multibin_single_covered_bin_hand_case():
    # One object, yaw exactly at a bin center: predicted residual (0, 0)
    # against target (1, 0) on the covered bin costs |0-1| + |0-0| = 1
    # averaged over the covered bins.
    target = OrientationTarget(yaw=0.0)
    conf = target.flags.astype(float)[None, :]
    residuals = np.zeros((1, 4, 2))
    _, rotres, _ = multibin_loss(conf, residuals, [target])
    assert abs(rotres - 1.0) < 1e-12


def test_multibin_matches_direct_formula_oracle(rng):
    eps = 1e-7
    for _ in range(30):
        m = int(rng.integers(1, 8))
        targets = [OrientationTarget(yaw=float(rng.uniform(-math.pi, math.pi))) for _ in range(m)]
        conf = rng.uniform(0.05, 0.95, size=(m, 4))
        residuals = rng.uniform(-1.5, 1.5, size=(m, 4, 2))
        rotcls, rotres, rot = multibin_loss(conf, residuals, targets)

        cls_total = 0.0
        res_total = 0.0
        for k, target in enumerate(targets):
            for i in range(4):
                b = 1.0 if target.flags[i] else 0.0
                p = min(max(conf[k, i], eps), 1 - eps)
                cls_total += -(b * math.log(p) + (1 - b) * math.log(1 - p))
            covered = [i for i in range(4) if target.flags[i]]
            err = 0.0
            for i in covered:
                offset = target.yaw - DEFAULT_BIN_CENTERS[i]
                err += abs(residuals[k, i, 0] - math.cos(offset))
                err += abs(residuals[k, i, 1] - math.sin(offset))
            res_total += err / len(covered)
        assert abs(rotcls - cls_total / (m * 4)) < 1e-10
        assert abs(rotres - res_total / m) < 1e-10
        assert abs(rot - (rotcls + rotres)) < 1e-15


def test_multibin_invariant_to_2pi_shift(rng):
    for _ in range(20):
        yaw = float(rng.uniform(-math.pi, math.pi))
        centers = DEFAULT_BIN_CENTERS
        a = OrientationTarget(yaw=yaw, bin_centers=centers)
        b = OrientationTarget(yaw=yaw + 2 * math.pi, bin_centers=centers + 2 * math.pi)
        residuals = rng.uniform(-1, 1, size=(1, 4, 2))
        conf = rng.uniform(0.2, 0.8, size=(1, 4))
        la = multibin_loss(conf, residuals, [a])
        lb = multibin_loss(conf, residuals, [b])
        assert la[1] == pytest.approx(lb[1], abs=1e-9)


def test_multibin_gradients(rng):
    m = 3
    targets = [OrientationTarget(yaw=float(rng.uniform(-math.pi, math.pi))) for _ in range(m)]
    conf = rng.uniform(0.1, 0.9, size=(m, 4))
    residuals = rng.uniform(-1.5, 1.5, size=(m, 4, 2))
    conf_grad, res_grad = multibin_loss_grad(conf, residuals, targets)
    step = 1e-6
    for idx in np.ndindex(m, 4):
        plus, minus = conf.copy(), conf.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (multibin_loss(plus, residuals, targets)[2] - multibin_loss(minus, residuals, targets)[2]) / (2 * step)
        assert relative_error(conf_grad[idx], fd) < 1e-4
    for idx in np.ndindex(m, 4, 2):
        plus, minus = residuals.copy(), residuals.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (multibin_loss(conf, plus, targets)[2] - multibin_loss(conf, minus, targets)[2]) / (2 * step)
        assert relative_error(res_grad[idx], fd) < 1e-4


def test_multibin_empty_batch_and_uncovered_bin():
    with pytest.raises(EmptyBatch):
        multibin_loss(np.zeros((0, 4)), np.zeros((0, 4, 2)), [])
    with pytest.raises(NoCoveredBin):
        OrientationTarget(yaw=0.0, flags=np.zeros(4, bool), residuals=np.zeros((4, 2)))


# -- depth uncertainty loss ---------------------------------------------------------


def test_depth_loss_zero_at_perfect_unit_variance():
    batch = RegressionBatch(
        depth_pred=np.array([7.0]), depth_target=np.array([7.0]), log_sigma_pred=np.array([0.0])
    )
    assert depth_uncertainty_loss(batch) == 0.0


def test_depth_loss_unit_error_unit_variance():
    batch = RegressionBatch(
        depth_pred=np.array([7.0]), depth_target=np.array([8.0]), log_sigma_pred=np.array([0.0])
    )
    assert depth_uncertainty_loss(batch) == 1.0


def test_depth_loss_grid_minimizer_matches_analytic(rng):
    err = math.e
    variances = np.linspace(0.1, 10.0, 2000)
    losses = [
        depth_uncertainty_loss(
            RegressionBatch(
                depth_pred=np.array([5.0]),
                depth_target=np.array([5.0 + err]),
                log_sigma_pred=np.array([0.5 * math.log(v)]),
            )
        )
        for v in variances
    ]
    best = variances[int(np.argmin(losses))]
    grid_step = variances[1] - variances[0]
    assert abs(best - err) <= grid_step
    assert min(losses) >= 1.0 + math.log(err) - 1e-9


def test_depth_loss_lower_bound_random(rng):
    for _ in range(30):
        err = float(rng.uniform(0.05, 10.0))
        log_sigma = float(rng.uniform(-2.0, 2.0))
        value = depth_uncertainty_loss(
            RegressionBatch(
                depth_pred=np.array([5.0]),
                depth_target=np.array([5.0 + err]),
                log_sigma_pred=np.array([log_sigma]),
            )
        )
        assert value >= 1.0 + math.log(err) - 1e-12


def test_depth_loss_gradients(rng):
    m = 4
    pred = rng.uniform(2, 30, size=m)
    target = rng.uniform(2, 30, size=m)
    log_sigma = rng.uniform(-1.5, 1.5, size=m)
    batch = RegressionBatch(depth_pred=pred, depth_target=target, log_sigma_pred=log_sigma)
    depth_grad, sigma_grad = depth_uncertainty_loss_grad(batch)
    step = 1e-6
    for k in range(m):
        plus, minus = pred.copy(), pred.copy()
        plus[k] += step
        minus[k] -= step
        fd = (
            depth_uncertainty_loss(RegressionBatch(depth_pred=plus, depth_target=target, log_sigma_pred=log_sigma))
            - depth_uncertainty_loss(RegressionBatch(depth_pred=minus, depth_target=target, log_sigma_pred=log_sigma))
        ) / (2 * step)
        assert relative_error(depth_grad[k], fd) < 1e-4
        plus, minus = log_sigma.copy(), log_sigma.copy()
        plus[k] += step
        minus[k] -= step
        fd = (
            depth_uncertainty_loss(RegressionBatch(depth_pred=pred, depth_target=target, log_sigma_pred=plus))
            - depth_uncertainty_loss(RegressionBatch(depth_pred=pred, depth_target=target, log_sigma_pred=minus))
        ) / (2 * step)
        assert relative_error(sigma_grad[k], fd) < 1e-4


# -- 2D GIoU loss -----------------------------------------------------------------


def test_dim2d_identical_sides_zero():
    batch = RegressionBatch(
        sides_pred=np.array([[1.0, 2.0, 3.0, 4.0]]),
        sides_target=np.array([[1.0, 2.0, 3.0, 4.0]]),
        rep_points=np.array([[10.0, 10.0]]),
    )
    assert dim2d_giou_loss(batch) == 0.0


def test_dim2d_reuses_geometry_giou_value():
    # Corner-touching boxes [0,0,1,1] and [1,1,2,2] about rep point (1,1):
    # GIoU -0.5 from the geometry module's hand computation, loss 1.5.
    batch = RegressionBatch(
        sides_pred=np.array([[1.0, 1.0, 0.0, 0.0]]),
        sides_target=np.array([[0.0, 0.0, 1.0, 1.0]]),
        rep_points=np.array([[1.0, 1.0]]),
    )
    assert dim2d_giou_loss(batch) == 1.5


def test_dim2d_loss_range(rng):
    for _ in range(100):
        batch = RegressionBatch(
            sides_pred=rng.uniform(0.1, 8.0, size=(3, 4)),
            sides_target=rng.uniform(0.1, 8.0, size=(3, 4)),
            rep_points=rng.uniform(-5, 5, size=(3, 2)),
        )
        value = dim2d_giou_loss(batch)
        assert 0.0 <= value <= 2.0


def test_dim2d_matches_geometry_giou(rng):
    from rcdet.geometry import Box2D, giou2d

    for _ in range(50):
        sides_pred = rng.uniform(0.1, 6.0, size=(1, 4))
        sides_target = rng.uniform(0.1, 6.0, size=(1, 4))
        rep = rng.uniform(0, 10, size=(1, 2))
        batch = RegressionBatch(sides_pred=sides_pred, sides_target=sides_target, rep_points=rep)
        pred_box = Box2D(
            rep[0, 0] - sides_pred[0, 0],
            rep[0, 1] - sides_pred[0, 1],
            rep[0, 0] + sides_pred[0, 2],
            rep[0, 1] + sides_pred[0, 3],
        )
        gt_box = Box2D(
            rep[0, 0] - sides_target[0, 0],
            rep[0, 1] - sides_target[0, 1],
            rep[0, 0] + sides_target[0, 2],
            rep[0, 1] + sides_target[0, 3],
        )
        assert abs(dim2d_giou_loss(batch) - (1.0 - giou2d(pred_box, gt_box))) < 1e-12


def test_dim2d_gradient(rng):
    for _ in range(10):
        m = int(rng.integers(1, 4))
        sides_pred = rng.uniform(0.5, 6.0, size=(m, 4))
        sides_target = rng.uniform(0.5, 6.0, size=(m, 4))
        rep = rng.uniform(-3, 3, size=(m, 2))
        batch = RegressionBatch(sides_pred=sides_pred, sides_target=sides_target, rep_points=rep)
        grad = dim2d_giou_loss_grad(batch)
        step = 1e-6
        for idx in np.ndindex(m, 4):
            plus, minus = sides_pred.copy(), sides_pred.copy()
            plus[idx] += step
            minus[idx] -= step
            fd = (
                dim2d_giou_loss(RegressionBatch(sides_pred=plus, sides_target=sides_target, rep_points=rep))
                - dim2d_giou_loss(RegressionBatch(sides_pred=minus, sides_target=sides_target, rep_points=rep))
            ) / (2 * step)
            assert relative_error(grad[idx], fd) < 1e-4


def test_all_losses_nonnegative_except_depth(rng):
    for _ in range(40):
        m = int(rng.integers(1, 6))
        target = (rng.uniform(size=(1, 3, 3)) < 0.3).astype(float)
        pred = rng.uniform(0, 1, size=target.shape)
        assert focal_loss(HeatmapPair(pred, target, m)) >= 0.0
        assert (
            offset_loss(
                RegressionBatch(
                    offsets_pred=rng.uniform(-5, 5, (m, 2)),
                    offsets_target=rng.uniform(-5, 5, (m, 2)),
                    truncated=rng.uniform(size=m) < 0.5,
                )
            )
            >= 0.0
        )
        assert (
            l1_regression_loss(
                "velocity",
                RegressionBatch(
                    velocity_pred=rng.uniform(-5, 5, (m, 2)),
                    velocity_target=rng.uniform(-5, 5, (m, 2)),
                ),
            )
            >= 0.0
        )
        targets = [OrientationTarget(yaw=float(rng.uniform(-math.pi, math.pi))) for _ in range(m)]
        rotcls, rotres, rot = multibin_loss(
            rng.uniform(0.01, 0.99, (m, 4)), rng.uniform(-2, 2, (m, 4, 2)), targets
        )
        assert rotcls >= 0.0 and rotres >= 0.0 and rot >= 0.0
        assert (
            dim2d_giou_loss(
                RegressionBatch(
                    sides_pred=rng.uniform(0.1, 5, (m, 4)),
                    sides_target=rng.uniform(0.1, 5, (m, 4)),
                    rep_points=rng.uniform(-5, 5, (m, 2)),
                )
            )
            >= 0.0
        )
    # The uncertainty-attenuated depth loss may go negative via its log term.
    value = depth_uncertainty_loss(
        RegressionBatch(
            depth_pred=np.array([10.0]),
            depth_target=np.array([10.001]),
            log_sigma_pred=np.array([-1.0]),
        )
    )
    assert value < 0.0


# -- total loss --------------------------------------------------------------------


def test_total_loss_zero():
    assert total_loss(0, 0, 0, 0, 0, 0, 0, 0) == 0.0


def test_total_loss_unit_components():
    assert total_loss(1, 1, 1, 1, 1, 1, 1, 1) == pytest.approx(6.6, abs=1e-12)


def test_total_loss_weighted_sum_oracle(rng):
    for _ in range(50):
        parts = rng.uniform(-2, 5, size=8)
        expected = parts[:6].sum() + 0.1 * parts[6] + 0.5 * parts[7]
        assert abs(total_loss(*parts) - expected) < 1e-12


# -- value and gradient check the same inputs -------------------------------------


def _uncovered_target() -> OrientationTarget:
    target = OrientationTarget(yaw=0.3)
    target.flags[:] = False
    return target


_CONF = np.full((2, 4), 0.5)
_RESIDUALS = np.zeros((2, 4, 2))
_SIDES = np.ones((1, 4))
_REP = np.array([[10.0, 10.0]])

# (loss name, arguments, expected error) for inputs the value rejects.
_BAD_INPUTS = {
    "multibin-fewer-targets": ("multibin", (_CONF, _RESIDUALS, [OrientationTarget(yaw=0.3)]), ValueError),
    "multibin-residual-shape": (
        "multibin", (_CONF, np.zeros((2, 3, 2)), [OrientationTarget(yaw=0.3)] * 2), ValueError
    ),
    "multibin-uncovered-bin": ("multibin", (_CONF, _RESIDUALS, [OrientationTarget(yaw=0.3), _uncovered_target()]), NoCoveredBin),
    "multibin-empty": ("multibin", (np.zeros((0, 4)), np.zeros((0, 4, 2)), []), EmptyBatch),
    "dim2d-negative-pred": ("dim2d", (RegressionBatch(sides_pred=-_SIDES, sides_target=_SIDES, rep_points=_REP),), ValueError),
    "dim2d-negative-target": ("dim2d", (RegressionBatch(sides_pred=_SIDES, sides_target=-_SIDES, rep_points=_REP),), ValueError),
    "offset-empty": ("offset", (RegressionBatch(offsets_pred=np.zeros((0, 2)), offsets_target=np.zeros((0, 2))),), EmptyBatch),
    "l1-unknown-kind": ("l1", ("speed", RegressionBatch()), ValueError),
    "depth-missing-sigma": ("depth", (RegressionBatch(depth_pred=np.ones(2), depth_target=np.ones(2)),), ValueError),
    "depth-sigma-shape": (
        "depth",
        (RegressionBatch(depth_pred=np.ones(3), depth_target=np.ones(3), log_sigma_pred=np.zeros((3, 3))),),
        ValueError,
    ),
}

_LOSSES = {
    "multibin": (multibin_loss, multibin_loss_grad),
    "dim2d": (dim2d_giou_loss, dim2d_giou_loss_grad),
    "offset": (offset_loss, offset_loss_grad),
    "l1": (l1_regression_loss, l1_regression_loss_grad),
    "depth": (depth_uncertainty_loss, depth_uncertainty_loss_grad),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("which", [0, 1], ids=["value", "gradient"])
def test_value_and_gradient_reject_the_same_input(case, which):
    name, args, error = _BAD_INPUTS[case]
    with pytest.raises(error):
        _LOSSES[name][which](*args)
