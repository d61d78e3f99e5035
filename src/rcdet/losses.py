"""Training loss suite: heatmap focal loss, regression L1 family, multi-bin
orientation loss, uncertainty-attenuated depth loss, GIoU box loss, and the
weighted total.

All losses are pure numpy functions normalized by the object count M and
raise EmptyBatch for M = 0 rather than returning 0. Each loss ships an
analytic gradient with respect to the predictions (valid away from the L1 /
min / max kinks), verified against central finite differences in the tests.
Logarithm arguments are floored at eps = 1e-7 (the surrounding power-law
factors stay raw, so exactly perfect predictions cost exactly zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateBox, EmptyBatch, NoCoveredBin, check_number
from .geometry import BIN_HALF_WIDTH, DEFAULT_BIN_CENTERS, wrap_angle

PROB_EPS = 1e-7
FOCAL_ALPHA = 2.0
FOCAL_BETA = 4.0
DIM2D_WEIGHT = 0.1
CORNER_WEIGHT = 0.5


@dataclass(eq=False)
class HeatmapPair:
    """Predicted and ground-truth class heatmaps (C x H x W) plus object count."""

    predicted: np.ndarray
    target: np.ndarray
    num_objects: int

    def __post_init__(self) -> None:
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.predicted.shape != self.target.shape:
            raise ValueError(
                f"heatmap shapes differ: {self.predicted.shape} vs {self.target.shape}"
            )
        for name, arr in (("predicted", self.predicted), ("target", self.target)):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} heatmap values must lie in [0, 1]")
        check_number("num_objects", self.num_objects, integer=True, low=0)


@dataclass(eq=False)
class OrientationTarget:
    """Ground-truth yaw encoded against the orientation bins.

    ``flags`` marks the bins covering the yaw (distance to the bin center at
    most half the bin width); ``residuals`` holds (cos, sin) of the offset to
    each covered bin center and zeros elsewhere.
    """

    yaw: float
    bin_centers: np.ndarray = field(default_factory=lambda: DEFAULT_BIN_CENTERS.copy())
    flags: np.ndarray = None
    residuals: np.ndarray = None

    def __post_init__(self) -> None:
        self.bin_centers = np.asarray(self.bin_centers, dtype=np.float64).reshape(-1)
        n = self.bin_centers.shape[0]
        if self.flags is None or self.residuals is None:
            offsets = np.array([wrap_angle(self.yaw - c) for c in self.bin_centers])
            self.flags = np.abs(offsets) <= BIN_HALF_WIDTH
            self.residuals = np.zeros((n, 2))
            self.residuals[self.flags, 0] = np.cos(offsets[self.flags])
            self.residuals[self.flags, 1] = np.sin(offsets[self.flags])
        else:
            self.flags = np.asarray(self.flags, dtype=bool).reshape(n)
            self.residuals = np.asarray(self.residuals, dtype=np.float64).reshape(n, 2)
        if not self.flags.any():
            raise NoCoveredBin(f"yaw {self.yaw} covers no orientation bin")

    @property
    def covered_count(self) -> int:
        return int(self.flags.sum())


@dataclass(eq=False)
class RegressionBatch:
    """Per-object predictions and targets for the regression losses.

    Only the fields a given loss consumes need to be present; predicted and
    target arrays must match in shape. Depths must be positive.
    """

    offsets_pred: np.ndarray | None = None
    offsets_target: np.ndarray | None = None
    truncated: np.ndarray | None = None
    velocity_pred: np.ndarray | None = None
    velocity_target: np.ndarray | None = None
    dims3d_pred: np.ndarray | None = None
    dims3d_target: np.ndarray | None = None
    corners_pred: np.ndarray | None = None
    corners_target: np.ndarray | None = None
    depth_pred: np.ndarray | None = None
    depth_target: np.ndarray | None = None
    log_sigma_pred: np.ndarray | None = None
    sides_pred: np.ndarray | None = None
    sides_target: np.ndarray | None = None
    rep_points: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in (
            "offsets_pred", "offsets_target", "velocity_pred", "velocity_target",
            "dims3d_pred", "dims3d_target", "corners_pred", "corners_target",
            "depth_pred", "depth_target", "log_sigma_pred",
            "sides_pred", "sides_target", "rep_points",
        ):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, np.asarray(value, dtype=np.float64))
        if self.truncated is not None:
            self.truncated = np.asarray(self.truncated, dtype=bool)
            rows = None if self.offsets_pred is None else self.offsets_pred.shape[:1]
            if self.truncated.shape != rows:
                raise ValueError(
                    f"truncated must have shape (M,) for the M rows of offsets_pred, "
                    f"got {self.truncated.shape}"
                )
        for pred, target in (
            (self.offsets_pred, self.offsets_target),
            (self.velocity_pred, self.velocity_target),
            (self.dims3d_pred, self.dims3d_target),
            (self.corners_pred, self.corners_target),
            (self.depth_pred, self.depth_target),
            (self.sides_pred, self.sides_target),
        ):
            if (pred is None) != (target is None):
                raise ValueError("predicted and target arrays must come in pairs")
            if pred is not None and pred.shape != target.shape:
                raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
        for depths in (self.depth_pred, self.depth_target):
            if depths is not None and depths.size and depths.min() <= 0:
                raise ValueError("depths must be positive")


def _require(arr: np.ndarray | None, name: str) -> np.ndarray:
    if arr is None:
        raise ValueError(f"regression batch is missing {name}")
    if arr.shape[0] == 0:
        raise EmptyBatch("loss is undefined for an empty batch (division by M)")
    return arr


def _log_clamped(p: np.ndarray) -> np.ndarray:
    """log with the argument floored at eps; the power-law factors outside the
    log stay unclamped so perfect predictions score exactly zero."""
    return np.log(np.maximum(p, PROB_EPS))


def _focal_objects(pair: HeatmapPair) -> int:
    """The object count M of a focal-loss input; raises EmptyBatch for 0."""
    if pair.num_objects < 1:
        raise EmptyBatch("focal loss needs at least one object")
    return pair.num_objects


def focal_loss(
    pair: HeatmapPair, alpha: float = FOCAL_ALPHA, beta: float = FOCAL_BETA
) -> float:
    """Penalty-reduced focal loss over the class heatmaps, normalized by M."""
    m = _focal_objects(pair)
    pred = pair.predicted
    target = pair.target
    pos = target == 1.0
    pos_term = np.sum((1.0 - pred[pos]) ** alpha * _log_clamped(pred[pos]))
    neg = ~pos
    neg_term = np.sum(
        (1.0 - target[neg]) ** beta * pred[neg] ** alpha * _log_clamped(1.0 - pred[neg])
    )
    return float(-(pos_term + neg_term) / m)


def focal_loss_grad(
    pair: HeatmapPair, alpha: float = FOCAL_ALPHA, beta: float = FOCAL_BETA
) -> np.ndarray:
    """d focal_loss / d predicted, elementwise (away from the clamp bounds)."""
    m = _focal_objects(pair)
    pred = np.clip(pair.predicted, PROB_EPS, 1.0 - PROB_EPS)
    target = pair.target
    grad = np.empty_like(pred)
    pos = target == 1.0
    grad[pos] = alpha * (1.0 - pred[pos]) ** (alpha - 1.0) * np.log(pred[pos]) - (
        1.0 - pred[pos]
    ) ** alpha / pred[pos]
    neg = ~pos
    grad[neg] = -((1.0 - target[neg]) ** beta) * (
        alpha * pred[neg] ** (alpha - 1.0) * np.log(1.0 - pred[neg])
        - pred[neg] ** alpha / (1.0 - pred[neg])
    )
    return grad / m


def _offset_inputs(batch: RegressionBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets_pred, offsets_target, truncated flags, all False if absent)."""
    pred = _require(batch.offsets_pred, "offsets_pred")
    truncated = batch.truncated
    if truncated is None:
        truncated = np.zeros(pred.shape[0], dtype=bool)
    return pred, batch.offsets_target, truncated


def offset_loss(batch: RegressionBatch) -> float:
    """Center-offset loss: log-scale L1 for truncated objects, plain L1 otherwise."""
    pred, target, truncated = _offset_inputs(batch)
    per_object = np.abs(pred - target).sum(axis=1)
    per_object = np.where(truncated, np.log1p(per_object), per_object)
    return float(per_object.mean())


def offset_loss_grad(batch: RegressionBatch) -> np.ndarray:
    """d offset_loss / d offsets_pred, shape (M, 2)."""
    pred, target, truncated = _offset_inputs(batch)
    m = pred.shape[0]
    signs = np.sign(pred - target)
    scale = np.where(truncated, 1.0 / (1.0 + np.abs(pred - target).sum(axis=1)), 1.0)
    return signs * scale[:, None] / m


_L1_FIELDS = {
    "velocity": ("velocity_pred", "velocity_target"),
    "dims3d": ("dims3d_pred", "dims3d_target"),
    "corners": ("corners_pred", "corners_target"),
}


def _l1_inputs(kind: str, batch: RegressionBatch) -> tuple[np.ndarray, np.ndarray]:
    """The (predicted, target) arrays of an L1 regression ``kind``."""
    if kind not in _L1_FIELDS:
        raise ValueError(f"unknown L1 regression kind {kind!r}")
    pred_name, target_name = _L1_FIELDS[kind]
    return _require(getattr(batch, pred_name), pred_name), getattr(batch, target_name)


def l1_regression_loss(kind: str, batch: RegressionBatch) -> float:
    """Mean over objects of the summed elementwise absolute error."""
    pred, target = _l1_inputs(kind, batch)
    return float(np.abs(pred - target).sum() / pred.shape[0])


def l1_regression_loss_grad(kind: str, batch: RegressionBatch) -> np.ndarray:
    pred, target = _l1_inputs(kind, batch)
    return np.sign(pred - target) / pred.shape[0]


def _multibin_inputs(
    bin_confidences: np.ndarray,
    bin_residuals: np.ndarray,
    targets: Sequence[OrientationTarget],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked (confidences, residuals, covered-bin flags as floats)."""
    conf = np.asarray(bin_confidences, dtype=np.float64)
    residuals = np.asarray(bin_residuals, dtype=np.float64)
    if conf.shape[0] == 0:
        raise EmptyBatch("multibin loss needs at least one object")
    if len(targets) != conf.shape[0]:
        raise ValueError("target count must match batch size")
    n_bins = conf.shape[1]
    if residuals.shape != (conf.shape[0], n_bins, 2):
        raise ValueError(f"bin_residuals must be (M, {n_bins}, 2), got {residuals.shape}")
    flags = np.stack([t.flags for t in targets])
    uncovered = np.flatnonzero(~flags.any(axis=1))
    if uncovered.size:
        raise NoCoveredBin(f"object {uncovered[0]} covers no orientation bin")
    return conf, residuals, flags.astype(np.float64)


def multibin_loss(
    bin_confidences: np.ndarray,
    bin_residuals: np.ndarray,
    targets: Sequence[OrientationTarget],
) -> tuple[float, float, float]:
    """Orientation loss: (bin classification, bin residual, their sum).

    ``bin_confidences`` is (M, N_bins); ``bin_residuals`` is (M, N_bins, 2)
    holding the predicted (cos, sin) offset per bin. Classification is binary
    cross-entropy averaged over all bins; the residual term is L1 on the raw
    (cos, sin) outputs averaged over the covered bins only.
    """
    conf, residuals, flags = _multibin_inputs(bin_confidences, bin_residuals, targets)
    m, n_bins = conf.shape
    bce = -(flags * _log_clamped(conf) + (1.0 - flags) * _log_clamped(1.0 - conf))
    rotcls = float(bce.sum() / (m * n_bins))

    rotres = 0.0
    for k, target in enumerate(targets):
        covered = target.flags
        n_covered = int(covered.sum())
        err = np.abs(residuals[k, covered] - target.residuals[covered]).sum()
        rotres += err / n_covered
    rotres = float(rotres / m)
    return rotcls, rotres, rotcls + rotres


def multibin_loss_grad(
    bin_confidences: np.ndarray,
    bin_residuals: np.ndarray,
    targets: Sequence[OrientationTarget],
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the summed rotation loss wrt confidences and residuals."""
    conf, residuals, flags = _multibin_inputs(bin_confidences, bin_residuals, targets)
    m, n_bins = conf.shape
    conf_c = np.clip(conf, PROB_EPS, 1.0 - PROB_EPS)
    conf_grad = (-flags / conf_c + (1.0 - flags) / (1.0 - conf_c)) / (m * n_bins)
    res_grad = np.zeros_like(residuals)
    for k, target in enumerate(targets):
        covered = target.flags
        n_covered = int(covered.sum())
        res_grad[k, covered] = (
            np.sign(residuals[k, covered] - target.residuals[covered]) / (m * n_covered)
        )
    return conf_grad, res_grad


def _depth_inputs(batch: RegressionBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depth_pred, depth_target, log_sigma_pred), the last of the first's shape."""
    pred = _require(batch.depth_pred, "depth_pred")
    log_sigma = _require(batch.log_sigma_pred, "log_sigma_pred")
    if log_sigma.shape != pred.shape:
        raise ValueError(f"log_sigma_pred must have shape {pred.shape}, got {log_sigma.shape}")
    return pred, batch.depth_target, log_sigma


def depth_uncertainty_loss(batch: RegressionBatch) -> float:
    """Uncertainty-attenuated depth L1: |d - d_hat| / sigma^2 + log sigma^2.

    The head predicts log sigma, so sigma^2 = exp(2 log sigma) and
    log sigma^2 = 2 log sigma; no logarithms are evaluated at runtime.
    Can be negative (the log term); for a fixed error e its minimum over
    sigma^2 is attained at sigma^2 = e with value 1 + log e.
    """
    pred, target, log_sigma = _depth_inputs(batch)
    err = np.abs(target - pred)
    per_object = err * np.exp(-2.0 * log_sigma) + 2.0 * log_sigma
    return float(per_object.mean())


def depth_uncertainty_loss_grad(batch: RegressionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Gradients wrt (depth_pred, log_sigma_pred)."""
    pred, target, log_sigma = _depth_inputs(batch)
    m = pred.shape[0]
    inv_var = np.exp(-2.0 * log_sigma)
    depth_grad = np.sign(pred - target) * inv_var / m
    sigma_grad = (-2.0 * np.abs(target - pred) * inv_var + 2.0) / m
    return depth_grad, sigma_grad


def _boxes_from_sides(sides: np.ndarray, rep_points: np.ndarray) -> np.ndarray:
    """(left, top, right, bottom) side distances -> (x1, y1, x2, y2) boxes."""
    return np.stack(
        [
            rep_points[:, 0] - sides[:, 0],
            rep_points[:, 1] - sides[:, 1],
            rep_points[:, 0] + sides[:, 2],
            rep_points[:, 1] + sides[:, 3],
        ],
        axis=1,
    )


def _giou_and_grad(pred_box: np.ndarray, gt_box: np.ndarray) -> tuple[float, np.ndarray]:
    """GIoU of two corner-form boxes and its gradient wrt the predicted corners."""
    x1, y1, x2, y2 = pred_box
    gx1, gy1, gx2, gy2 = gt_box
    area = (x2 - x1) * (y2 - y1)
    gt_area = (gx2 - gx1) * (gy2 - gy1)
    iw = min(x2, gx2) - max(x1, gx1)
    ih = min(y2, gy2) - max(y1, gy1)
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    union = area + gt_area - inter
    cw = max(x2, gx2) - min(x1, gx1)
    ch = max(y2, gy2) - min(y1, gy1)
    enclosing = cw * ch
    if enclosing <= 0:
        raise DegenerateBox("enclosing box has zero area")
    iou = inter / union if union > 0 else 0.0
    giou = iou - (enclosing - union) / enclosing

    d_area = np.array([-(y2 - y1), -(x2 - x1), (y2 - y1), (x2 - x1)])
    d_inter = np.zeros(4)
    if inter > 0:
        d_inter[0] = -ih if x1 >= gx1 else 0.0
        d_inter[1] = -iw if y1 >= gy1 else 0.0
        d_inter[2] = ih if x2 <= gx2 else 0.0
        d_inter[3] = iw if y2 <= gy2 else 0.0
    d_union = d_area - d_inter
    d_enc = np.array(
        [
            -ch if x1 <= gx1 else 0.0,
            -cw if y1 <= gy1 else 0.0,
            ch if x2 >= gx2 else 0.0,
            cw if y2 >= gy2 else 0.0,
        ]
    )
    if union > 0:
        d_iou = (d_inter * union - inter * d_union) / union**2
    else:
        d_iou = np.zeros(4)
    d_penalty = (d_union * enclosing - union * d_enc) / enclosing**2
    return giou, d_iou + d_penalty


def _dim2d_boxes(batch: RegressionBatch) -> tuple[np.ndarray, np.ndarray]:
    """The (predicted, target) corner-form boxes of non-negative side distances."""
    sides_pred = _require(batch.sides_pred, "sides_pred")
    sides_target = batch.sides_target
    rep = _require(batch.rep_points, "rep_points")
    if sides_pred.min() < 0 or sides_target.min() < 0:
        raise ValueError("side distances must be non-negative")
    return _boxes_from_sides(sides_pred, rep), _boxes_from_sides(sides_target, rep)


def dim2d_giou_loss(batch: RegressionBatch) -> float:
    """Mean (1 - GIoU) between boxes rebuilt from predicted and target side
    distances about each object's representative point."""
    pred_boxes, gt_boxes = _dim2d_boxes(batch)
    total = 0.0
    for pred_box, gt_box in zip(pred_boxes, gt_boxes):
        giou, _ = _giou_and_grad(pred_box, gt_box)
        total += 1.0 - giou
    return total / len(pred_boxes)


def dim2d_giou_loss_grad(batch: RegressionBatch) -> np.ndarray:
    """d dim2d_giou_loss / d sides_pred, shape (M, 4)."""
    pred_boxes, gt_boxes = _dim2d_boxes(batch)
    m = len(pred_boxes)
    grad = np.zeros((m, 4))
    # Chain through the corner coords: x1 = px - left, y1 = py - top,
    # x2 = px + right, y2 = py + bottom.
    corner_signs = np.array([-1.0, -1.0, 1.0, 1.0])
    for k, (pred_box, gt_box) in enumerate(zip(pred_boxes, gt_boxes)):
        _, d_corners = _giou_and_grad(pred_box, gt_box)
        grad[k] = -(d_corners * corner_signs) / m
    return grad


def total_loss(
    cls: float,
    offset: float,
    velocity: float,
    dims3d: float,
    rotation: float,
    depth: float,
    dim2d: float,
    corner: float,
) -> float:
    """Weighted sum of the component losses; the auxiliary 2D-dimensions and
    corner terms carry reduced weights (0.1 and 0.5)."""
    return (
        cls
        + offset
        + velocity
        + dims3d
        + rotation
        + depth
        + DIM2D_WEIGHT * dim2d
        + CORNER_WEIGHT * corner
    )
