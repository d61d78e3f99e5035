"""Detection evaluation: center-distance matching, average precision, the
five true-positive error terms, and the composite detection score.

Matching is greedy in confidence order against per-frame ground truth of the
same class, within a BEV center-distance threshold. AP integrates the
precision/recall curve on a 101-point recall grid, discarding the region
below minimum recall and precision (0.1 each). The composite score combines
mAP with the clipped complements of the five TP errors:

    score = (5 * mAP + sum(1 - min(1, err))) / 10

The orientation error is measured in radians in [0, pi] and is divided by pi
before the clip (mapping its full range onto [0, 1]); the other errors enter
as-is, so published component values reproduce their published composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .decoder import DetectionBox3D
from .errors import EmptyGroundTruth, check_number
from .geometry import Box3D, aligned_iou3d, wrap_angle

DEFAULT_DISTANCE_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_TP_THRESHOLD = 2.0
DEFAULT_MIN_RECALL = 0.1
DEFAULT_MIN_PRECISION = 0.1


@dataclass(eq=False)
class GroundTruth:
    """An annotated object: box, class, attribute label."""

    box: Box3D
    class_id: int
    attribute: int = 0


@dataclass
class EvalConfig:
    distance_thresholds: tuple[float, ...] = DEFAULT_DISTANCE_THRESHOLDS
    tp_threshold: float = DEFAULT_TP_THRESHOLD
    min_recall: float = DEFAULT_MIN_RECALL
    min_precision: float = DEFAULT_MIN_PRECISION
    class_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        thresholds = tuple(self.distance_thresholds)
        if not thresholds:
            raise ValueError("distance_thresholds must hold at least one threshold, got ()")
        for i, t in enumerate(thresholds):
            check_number(f"distance_thresholds[{i}]", t, above=0)
        # AP is keyed by (class, threshold): a repeat would count once in
        # mAP but once per repeat in the TP errors.
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"distance_thresholds must be strictly ascending, got {thresholds!r}")
        self.distance_thresholds = thresholds
        check_number("tp_threshold", self.tp_threshold, above=0)
        _check_ap_floors(self.min_recall, self.min_precision)
        for i, c in enumerate(self.class_ids or ()):
            check_number(f"class_ids[{i}]", c, integer=True, low=0)
        if self.class_ids is not None and len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError(f"class_ids must not repeat a class, got {self.class_ids!r}")


def _check_ap_floors(min_recall: float, min_precision: float) -> None:
    """Both floors lie in [0, 1), and at least one point of the 101-point
    recall grid lies above ``min_recall``."""
    check_number("min_recall", min_recall, low=0, below=1)
    check_number("min_precision", min_precision, low=0, below=1)
    if round(100 * min_recall) >= 100:
        raise ValueError(f"min_recall leaves no recall grid point above it, got {min_recall!r}")


@dataclass
class TPErrors:
    """Mean translation, scale, orientation, velocity, attribute errors."""

    ate: float
    ase: float
    aoe: float
    ave: float
    aae: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mATE": self.ate,
            "mASE": self.ase,
            "mAOE": self.aoe,
            "mAVE": self.ave,
            "mAAE": self.aae,
        }


@dataclass(eq=False)
class EvalResult:
    ap: dict[tuple[int, float], float]
    mean_ap: float
    errors: TPErrors
    nds: float


def _bev_distance(a: np.ndarray, b: np.ndarray) -> float:
    dx = float(a[0]) - float(b[0])
    dy = float(a[1]) - float(b[1])
    return math.sqrt(dx * dx + dy * dy)


def _candidates(
    dets: list[DetectionBox3D], gts: list[GroundTruth], limit: float = math.inf
) -> list[list[tuple[int, float]]]:
    """Per detection, the (index, BEV center distance) of each ground truth
    of its class that lies within ``limit``, in ground-truth order."""
    return [
        [
            (gi, dist)
            for gi, gt in enumerate(gts)
            if gt.class_id == det.class_id
            and (dist := _bev_distance(det.box.center, gt.box.center)) <= limit
        ]
        for det in dets
    ]


def _greedy_matches(
    candidates: list[list[tuple[int, float]]], threshold: float
) -> list[tuple[int, int, float]]:
    """Each detection in turn claims the nearest unclaimed candidate within
    ``threshold`` (the first of equals); (det_index, gt_index, distance)."""
    taken: set[int] = set()
    matches = []
    for di, row in enumerate(candidates):
        best_gi = -1
        best_dist = math.inf
        for gi, dist in row:
            if dist <= threshold and dist < best_dist and gi not in taken:
                best_gi = gi
                best_dist = dist
        if best_gi >= 0:
            taken.add(best_gi)
            matches.append((di, best_gi, best_dist))
    return matches


def match_detections(
    dets: list[DetectionBox3D], gts: list[GroundTruth], threshold: float
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy matching of one frame's detections against its ground truth.

    ``dets`` must already be sorted by confidence, descending; each detection
    claims the nearest still-unmatched ground truth of its class within the
    BEV center-distance threshold. Returns (matches, unmatched detection
    indices, unmatched ground-truth indices) with matches as
    (det_index, gt_index, distance) triples.
    """
    matches = _greedy_matches(_candidates(dets, gts), threshold)
    matched = {di for di, _, _ in matches}
    taken = {gi for _, gi, _ in matches}
    unmatched_dets = [di for di in range(len(dets)) if di not in matched]
    unmatched_gts = [gi for gi in range(len(gts)) if gi not in taken]
    return matches, unmatched_dets, unmatched_gts


def average_precision(
    scores: np.ndarray,
    tp_flags: np.ndarray,
    num_gt: int,
    min_recall: float = DEFAULT_MIN_RECALL,
    min_precision: float = DEFAULT_MIN_PRECISION,
) -> float:
    """Normalized area under the precision/recall curve.

    ``scores``/``tp_flags`` describe every detection of one class pooled over
    the scene set. Precision is sampled on a 101-point recall grid; samples
    at or below ``min_recall`` are dropped and precision is measured above
    ``min_precision``, renormalized to keep a perfect detector at 1.0.
    """
    if num_gt <= 0:
        raise ValueError("average precision needs at least one ground-truth box")
    _check_ap_floors(min_recall, min_precision)
    scores = np.asarray(scores, dtype=np.float64)
    tp_flags = np.asarray(tp_flags, dtype=bool)
    if scores.shape != tp_flags.shape:
        raise ValueError("scores and tp_flags must have the same length")
    return _average_precisions(scores, tp_flags[None], num_gt, min_recall, min_precision)[0]


# Exact-hundredth grid points (linspace would put 0.7000...01 above a recall
# of exactly 7/10 and spuriously zero that sample).
_RECALL_GRID = np.arange(101) / 100.0


def _average_precisions(
    scores: np.ndarray, flags: np.ndarray, num_gt: int, min_recall: float, min_precision: float
) -> list[float]:
    """:func:`average_precision` of each row of the (rows, n) bool ``flags``
    against the same n float64 ``scores``, unchecked: the scores are ranked
    once and every row's curve is accumulated in one pass."""
    if scores.size == 0:
        return [0.0] * len(flags)
    ranked = flags[:, np.argsort(-scores, kind="stable")]
    tp_cum = np.cumsum(ranked, axis=1)
    fp_cum = np.cumsum(~ranked, axis=1)
    recalls = tp_cum / num_gt
    precisions = tp_cum / (tp_cum + fp_cum)
    start = round(100 * min_recall) + 1
    values = []
    for recall, precision in zip(recalls, precisions):
        sampled = np.interp(_RECALL_GRID, recall, precision, right=0.0)
        clipped = np.maximum(sampled[start:] - min_precision, 0.0)
        # fsum keeps the mean exact for a perfect detector (all samples equal).
        values.append(math.fsum(clipped) / clipped.size / (1.0 - min_precision))
    return values


def tp_errors(pairs: list[tuple[DetectionBox3D, GroundTruth]]) -> TPErrors:
    """Mean per-match errors; with no matches every error is 1.0 by convention.

    Translation is BEV center distance (m); scale is 1 - center/yaw-aligned
    3D IoU; orientation is the smallest absolute yaw difference (radians, in
    [0, pi]); velocity is the BEV L2 error (m/s); attribute is 1 - accuracy.
    """
    if not pairs:
        return TPErrors(ate=1.0, ase=1.0, aoe=1.0, ave=1.0, aae=1.0)
    ate = ase = aoe = ave = aae = 0.0
    for det, gt in pairs:
        ate += _bev_distance(det.box.center, gt.box.center)
        ase += 1.0 - aligned_iou3d(det.box.dims, gt.box.dims)
        aoe += abs(wrap_angle(det.box.yaw - gt.box.yaw))
        dvx = float(det.box.velocity[0]) - float(gt.box.velocity[0])
        dvy = float(det.box.velocity[1]) - float(gt.box.velocity[1])
        ave += math.sqrt(dvx * dvx + dvy * dvy)
        aae += 0.0 if det.attribute == gt.attribute else 1.0
    n = len(pairs)
    return TPErrors(ate=ate / n, ase=ase / n, aoe=aoe / n, ave=ave / n, aae=aae / n)


def nds(
    mean_ap: float, ate: float, ase: float, aoe: float, ave: float, aae: float
) -> float:
    """Composite detection score from mAP and the five TP error terms.

    Each error contributes 1 - min(1, err); the orientation term is expected
    already normalized to [0, 1] (see :func:`evaluate`, which divides the
    radian error by pi). Published component values plug in directly.
    """
    terms = sum(1.0 - min(1.0, err) for err in (ate, ase, aoe, ave, aae))
    return (5.0 * mean_ap + terms) / 10.0


def evaluate(
    dets_per_frame: list[list[DetectionBox3D]],
    gts_per_frame: list[list[GroundTruth]],
    cfg: EvalConfig | None = None,
) -> EvalResult:
    """Full evaluation over a frame set.

    Per class and distance threshold, detections are matched frame by frame
    (greedily, in confidence order) and pooled into one PR curve; a class's
    curves share one ranking of its scores. mAP averages AP over classes and
    thresholds. TP errors are averaged per class over the matches at
    ``tp_threshold`` (those of the equal distance threshold, if any; classes
    with no matches count each error as 1.0) and then across classes.
    Classes that never appear in the ground truth are skipped; an entirely
    empty ground truth raises EmptyGroundTruth.
    """
    cfg = cfg or EvalConfig()
    if len(dets_per_frame) != len(gts_per_frame):
        raise ValueError("detections and ground truth must cover the same frames")
    gt_counts: dict[int, int] = {}
    for gts in gts_per_frame:
        for gt in gts:
            gt_counts[gt.class_id] = gt_counts.get(gt.class_id, 0) + 1
    if not gt_counts:
        raise EmptyGroundTruth("no ground-truth boxes in any frame")
    if cfg.class_ids is None:
        class_ids = sorted(gt_counts)
    else:
        class_ids = [c for c in cfg.class_ids if gt_counts.get(c, 0) > 0]
        if not class_ids:
            raise EmptyGroundTruth("no ground truth for any configured class")

    sorted_dets = [sorted(dets, key=lambda d: -d.score) for dets in dets_per_frame]
    limit = max(*cfg.distance_thresholds, cfg.tp_threshold)

    ap: dict[tuple[int, float], float] = {}
    per_class_errors: list[tuple[TPErrors, bool]] = []
    for class_id in class_ids:
        frame_dets = [
            [d for d in dets if d.class_id == class_id] for dets in sorted_dets
        ]
        frame_gts = [
            [g for g in gts if g.class_id == class_id] for gts in gts_per_frame
        ]
        # A frame's distances serve every threshold: a pair beyond the
        # largest matches at none.
        frame_candidates = [
            _candidates(dets, gts, limit) for dets, gts in zip(frame_dets, frame_gts)
        ]
        scores = np.array([det.score for dets in frame_dets for det in dets], dtype=np.float64)
        starts = list(accumulate(map(len, frame_dets), initial=0))
        flags = np.zeros((len(cfg.distance_thresholds), scores.size), dtype=bool)
        matches_at = {}
        for row, threshold in enumerate(cfg.distance_thresholds):
            matches_at[threshold] = [_greedy_matches(c, threshold) for c in frame_candidates]
            hits = [
                start + di
                for start, matches in zip(starts, matches_at[threshold])
                for di, _, _ in matches
            ]
            flags[row, hits] = True
        values = _average_precisions(
            scores, flags, gt_counts[class_id], cfg.min_recall, cfg.min_precision
        )
        ap.update(((class_id, t), v) for t, v in zip(cfg.distance_thresholds, values))
        tp_matches = matches_at.get(cfg.tp_threshold)
        if tp_matches is None:
            tp_matches = [_greedy_matches(c, cfg.tp_threshold) for c in frame_candidates]
        pairs = [
            (dets[di], gts[gi])
            for dets, gts, matches in zip(frame_dets, frame_gts, tp_matches)
            for di, gi, _ in matches
        ]
        per_class_errors.append((tp_errors(pairs), bool(pairs)))

    mean_ap = float(np.mean([ap[key] for key in ap]))
    errors = TPErrors(
        ate=float(np.mean([e.ate for e, _ in per_class_errors])),
        ase=float(np.mean([e.ase for e, _ in per_class_errors])),
        aoe=float(np.mean([e.aoe for e, _ in per_class_errors])),
        ave=float(np.mean([e.ave for e, _ in per_class_errors])),
        aae=float(np.mean([e.aae for e, _ in per_class_errors])),
    )
    # Real orientation errors are radians in [0, pi] and get normalized by pi
    # for the composite; the no-match convention value of 1.0 already lives in
    # the clipped space and enters as-is (so no detections score 0).
    aoe_normalized = float(
        np.mean([e.aoe / math.pi if matched else e.aoe for e, matched in per_class_errors])
    )
    score = nds(mean_ap, errors.ate, errors.ase, aoe_normalized, errors.ave, errors.aae)
    return EvalResult(ap=ap, mean_ap=mean_ap, errors=errors, nds=score)


def format_report(result: EvalResult) -> str:
    """Human-readable evaluation summary."""
    lines = ["metric   value", "-" * 17]
    lines.append(f"NDS      {result.nds:7.4f}")
    lines.append(f"mAP      {result.mean_ap:7.4f}")
    for name, value in result.errors.as_dict().items():
        lines.append(f"{name:<8} {value:7.4f}")
    lines.append("")
    lines.append("per-class AP")
    for (class_id, threshold), value in sorted(result.ap.items()):
        lines.append(f"  class {class_id} @ {threshold:g} m: {value:.4f}")
    return "\n".join(lines)


def report_key_values(result: EvalResult) -> str:
    """Machine-readable key=value report, one metric per line."""
    lines = [f"NDS={result.nds!r}", f"mAP={result.mean_ap!r}"]
    for name, value in result.errors.as_dict().items():
        lines.append(f"{name}={value!r}")
    for (class_id, threshold), value in sorted(result.ap.items()):
        lines.append(f"AP[class={class_id},threshold={threshold:g}]={value!r}")
    return "\n".join(lines) + "\n"
