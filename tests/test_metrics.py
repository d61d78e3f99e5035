"""Evaluation metrics: matching, AP against a hand-integrated PR oracle,
TP errors, and the composite score including the published-components anchor."""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcdet.decoder import DetectionBox3D
from rcdet.errors import EmptyGroundTruth
from rcdet.geometry import Box3D
from rcdet.metrics import (
    EvalConfig,
    EvalResult,
    GroundTruth,
    TPErrors,
    _average_precisions,
    average_precision,
    evaluate,
    match_detections,
    nds,
    report_key_values,
    tp_errors,
)


def _det(x, y, score, class_id=0, yaw=0.0, dims=(2.0, 4.0, 1.5), vel=(0.0, 0.0), attribute=0):
    return DetectionBox3D(
        box=Box3D(center=np.array([x, y, 0.0]), dims=np.array(dims), yaw=yaw, velocity=np.array(vel)),
        class_id=class_id,
        score=score,
        attribute=attribute,
    )


def _gt(x, y, class_id=0, yaw=0.0, dims=(2.0, 4.0, 1.5), vel=(0.0, 0.0), attribute=0):
    return GroundTruth(
        box=Box3D(center=np.array([x, y, 0.0]), dims=np.array(dims), yaw=yaw, velocity=np.array(vel)),
        class_id=class_id,
        attribute=attribute,
    )


# -- matching -----------------------------------------------------------------


def test_match_identical_sets():
    gts = [_gt(0, 10), _gt(5, 20)]
    dets = [_det(0, 10, 0.9), _det(5, 20, 0.8)]
    matches, unmatched_dets, unmatched_gts = match_detections(dets, gts, 2.0)
    assert [(d, g) for d, g, _ in matches] == [(0, 0), (1, 1)]
    assert all(dist == 0.0 for _, _, dist in matches)
    assert unmatched_dets == [] and unmatched_gts == []


def test_match_prefers_nearest_gt():
    gts = [_gt(0.0, 10.6), _gt(0.0, 10.4)]
    dets = [_det(0.0, 10.0, 0.9)]
    matches, _, unmatched_gts = match_detections(dets, gts, 0.5)
    assert matches == [(0, 1, pytest.approx(0.4))]
    assert unmatched_gts == [0]


def test_match_respects_class_and_threshold():
    gts = [_gt(0, 10, class_id=1)]
    dets = [_det(0, 10, 0.9, class_id=0), _det(0, 30, 0.8, class_id=1)]
    matches, unmatched_dets, unmatched_gts = match_detections(dets, gts, 2.0)
    assert matches == []
    assert unmatched_dets == [0, 1] and unmatched_gts == [0]


def test_match_greedy_in_score_order():
    # The higher-scored detection claims the shared ground truth first.
    gts = [_gt(0, 10)]
    dets = [_det(0, 10.1, 0.9), _det(0, 10.0, 0.5)]
    matches, unmatched_dets, _ = match_detections(dets, gts, 2.0)
    assert [(d, g) for d, g, _ in matches] == [(0, 0)]
    assert unmatched_dets == [1]


def test_match_random_equals_exhaustive_greedy_oracle(rng):
    for _ in range(50):
        n_dets, n_gts = int(rng.integers(0, 12)), int(rng.integers(0, 10))
        dets = sorted(
            (
                _det(rng.uniform(-20, 20), rng.uniform(0, 40), float(rng.uniform()), int(rng.integers(2)))
                for _ in range(n_dets)
            ),
            key=lambda d: -d.score,
        )
        gts = [
            _gt(rng.uniform(-20, 20), rng.uniform(0, 40), int(rng.integers(2))) for _ in range(n_gts)
        ]
        matches, _, _ = match_detections(dets, gts, 3.0)
        taken = set()
        expected = []
        for di, det in enumerate(dets):
            best, best_dist = -1, math.inf
            for gi, gt in enumerate(gts):
                if gi in taken or gt.class_id != det.class_id:
                    continue
                dist = math.hypot(
                    det.box.center[0] - gt.box.center[0], det.box.center[1] - gt.box.center[1]
                )
                if dist <= 3.0 and dist < best_dist:
                    best, best_dist = gi, dist
            if best >= 0:
                taken.add(best)
                expected.append((di, best))
        assert [(d, g) for d, g, _ in matches] == expected


# -- average precision ------------------------------------------------------------


def _interp_oracle(grid, xs, ys):
    """np.interp semantics (right=0), written independently."""
    out = []
    for g in grid:
        if g > xs[-1]:
            out.append(0.0)
            continue
        if g <= xs[0]:
            out.append(ys[0] if g < xs[0] else ys[bisect_right(xs, g) - 1])
            continue
        j = bisect_right(xs, g)
        if j > 0 and xs[j - 1] == g:
            out.append(ys[j - 1])
            continue
        x0, x1 = xs[j - 1], xs[j]
        y0, y1 = ys[j - 1], ys[j]
        out.append(y0 + (g - x0) * (y1 - y0) / (x1 - x0))
    return out


def _ap_oracle(scores, flags, num_gt):
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    tp = 0
    fp = 0
    rec, prec = [], []
    for i in order:
        if flags[i]:
            tp += 1
        else:
            fp += 1
        rec.append(tp / num_gt)
        prec.append(tp / (tp + fp))
    grid = [i / 100 for i in range(101)]
    sampled = _interp_oracle(grid, rec, prec)
    clipped = [max(0.0, p - 0.1) for p in sampled[11:]]
    return sum(clipped) / len(clipped) / 0.9


def test_ap_perfect_detector():
    scores = np.array([0.9, 0.8, 0.7])
    flags = np.array([True, True, True])
    assert average_precision(scores, flags, num_gt=3) == 1.0


def test_ap_zero_detections():
    assert average_precision(np.array([]), np.array([], dtype=bool), num_gt=3) == 0.0


def test_ap_hand_built_scenario():
    # 5 detections against 3 ground truths: TP, FP, TP, FP, TP by score order.
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
    flags = np.array([True, False, True, False, True])
    value = average_precision(scores, flags, num_gt=3)
    assert value == pytest.approx(_ap_oracle(scores.tolist(), flags.tolist(), 3), abs=1e-12)


def test_ap_matches_oracle_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 25))
        num_gt = int(rng.integers(1, 12))
        scores = rng.uniform(size=n)
        flags = rng.uniform(size=n) < 0.5
        # At most num_gt true positives can exist.
        while flags.sum() > num_gt:
            flags[np.flatnonzero(flags)[-1]] = False
        got = average_precision(scores, flags, num_gt)
        assert got == pytest.approx(_ap_oracle(scores.tolist(), flags.tolist(), num_gt), abs=1e-12)


def test_ap_invariant_to_score_scaling(rng):
    scores = rng.uniform(0.1, 1.0, size=12)
    flags = rng.uniform(size=12) < 0.4
    base = average_precision(scores, flags, num_gt=6)
    assert average_precision(scores * 7.3, flags, num_gt=6) == base


def test_ap_low_score_false_positive_never_helps(rng):
    for _ in range(20):
        n = int(rng.integers(1, 15))
        scores = rng.uniform(0.2, 1.0, size=n)
        flags = rng.uniform(size=n) < 0.5
        base = average_precision(scores, flags, num_gt=8)
        extended = average_precision(
            np.append(scores, 0.01), np.append(flags, False), num_gt=8
        )
        assert extended <= base + 1e-12


@st.composite
def _ap_tables(draw):
    """(scores, flags): n scores, ties likely, and a (rows, n) TP-flag table."""
    n = draw(st.integers(0, 24))
    scores = draw(st.lists(st.sampled_from([0.25, 0.5]) | st.floats(0, 1), min_size=n, max_size=n))
    flags = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=5))
    return np.array(scores, dtype=np.float64), np.array(flags, dtype=bool).reshape(len(flags), n)


@settings(max_examples=200, deadline=None)
@given(
    table=_ap_tables(),
    num_gt=st.integers(1, 12),
    min_recall=st.sampled_from([0.0, 0.1, 0.37, 0.99]),
    min_precision=st.sampled_from([0.0, 0.1, 0.5, 0.99]),
)
@example(table=(np.zeros(0), np.zeros((3, 0), dtype=bool)), num_gt=2, min_recall=0.1, min_precision=0.1)
@example(
    table=(np.full(3, 0.5), np.array([[False] * 3, [False, True, True]])),
    num_gt=2, min_recall=0.0, min_precision=0.0,
)
def test_one_pass_aps_equal_one_row_aps_bit_for_bit(table, num_gt, min_recall, min_precision):
    """Ranking once and accumulating every row of a TP-flag table gives
    each row the bits ``average_precision`` gives it alone, with tied
    scores, empty input, all-false rows and floors of 0 among the cases."""
    scores, flags = table
    got = _average_precisions(scores, flags, num_gt, min_recall, min_precision)
    want = [average_precision(scores, row, num_gt, min_recall, min_precision) for row in flags]
    assert [v.hex() for v in got] == [v.hex() for v in want]


# -- TP errors ----------------------------------------------------------------------


def test_tp_errors_perfect_matches():
    pairs = [(_det(1, 10, 0.9, yaw=0.3, vel=(2, 1), attribute=2), _gt(1, 10, yaw=0.3, vel=(2, 1), attribute=2))]
    errors = tp_errors(pairs)
    assert (errors.ate, errors.ase, errors.aoe, errors.ave, errors.aae) == (0, 0, 0, 0, 0)


def test_tp_errors_empty_convention():
    errors = tp_errors([])
    assert (errors.ate, errors.ase, errors.aoe, errors.ave, errors.aae) == (1, 1, 1, 1, 1)


def test_tp_errors_yaw_wraparound():
    for sign in (1.0, -1.0):
        pairs = [(_det(0, 10, 0.9, yaw=sign * math.pi / 2), _gt(0, 10, yaw=-sign * math.pi / 2))]
        assert tp_errors(pairs).aoe == pytest.approx(math.pi)


def test_tp_errors_random_closed_form(rng):
    from rcdet.geometry import aligned_iou3d, wrap_angle

    for _ in range(50):
        det = _det(
            rng.uniform(-5, 5), rng.uniform(5, 30), 0.9,
            yaw=rng.uniform(-math.pi, math.pi),
            dims=rng.uniform(0.5, 5, 3), vel=rng.uniform(-5, 5, 2),
            attribute=int(rng.integers(3)),
        )
        gt = _gt(
            rng.uniform(-5, 5), rng.uniform(5, 30),
            yaw=rng.uniform(-math.pi, math.pi),
            dims=rng.uniform(0.5, 5, 3), vel=rng.uniform(-5, 5, 2),
            attribute=int(rng.integers(3)),
        )
        errors = tp_errors([(det, gt)])
        assert errors.ate == pytest.approx(
            math.hypot(det.box.center[0] - gt.box.center[0], det.box.center[1] - gt.box.center[1]),
            abs=1e-12,
        )
        assert errors.ase == pytest.approx(1 - aligned_iou3d(det.box.dims, gt.box.dims), abs=1e-12)
        assert errors.aoe == pytest.approx(abs(wrap_angle(det.box.yaw - gt.box.yaw)), abs=1e-12)
        assert errors.ave == pytest.approx(
            float(np.linalg.norm(det.box.velocity - gt.box.velocity)), abs=1e-12
        )
        assert errors.aae == (0.0 if det.attribute == gt.attribute else 1.0)
        assert 0.0 <= errors.aoe <= math.pi


# -- composite score -----------------------------------------------------------------


def test_nds_perfect():
    assert nds(1.0, 0, 0, 0, 0, 0) == 1.0


def test_nds_floor():
    assert nds(0.0, 1.0, 1.5, 2.0, 1.0, 1.0) == 0.0


def test_nds_reproduces_published_composite():
    # Published component values; the composite rounds to 46.5 points.
    value = nds(0.335, 0.642, 0.261, 0.519, 0.466, 0.134)
    assert abs(value * 100 - 46.5) < 1.0
    assert value == pytest.approx(0.4653, abs=1e-9)


def test_nds_monotonicity(rng):
    for _ in range(50):
        m_ap = rng.uniform(0, 1)
        errs = rng.uniform(0, 1.2, size=5)
        base = nds(m_ap, *errs)
        assert nds(min(m_ap + 0.1, 1.0), *errs) >= base
        for k in range(5):
            bumped = errs.copy()
            bumped[k] += 0.1
            assert nds(m_ap, *bumped) <= base + 1e-12


# -- full evaluation -----------------------------------------------------------------


def test_evaluate_identical_sets():
    gts = [[_gt(0, 10), _gt(4, 20, class_id=1)], [_gt(-3, 15)]]
    dets = [
        [_det(0, 10, 0.9), _det(4, 20, 0.8, class_id=1)],
        [_det(-3, 15, 0.95)],
    ]
    result = evaluate(dets, gts)
    assert result.mean_ap == 1.0
    assert result.nds == 1.0
    assert all(value == 1.0 for value in result.ap.values())


def test_evaluate_no_detections():
    gts = [[_gt(0, 10)]]
    result = evaluate([[]], gts)
    assert result.mean_ap == 0.0
    assert result.errors.ate == 1.0
    assert result.nds == 0.0


def test_evaluate_empty_ground_truth():
    with pytest.raises(EmptyGroundTruth):
        evaluate([[]], [[]])


def test_evaluate_three_frame_fixture():
    """Hand-computed reference: one class, three frames.

    Frame 1: GT at (0, 10) with an exact detection (score .9).
    Frame 2: GT at (0, 20); detection offset 1.5 m (score .8) plus a far
             false positive (score .7).
    Frame 3: GT at (0, 30), no detection.

    At thresholds 0.5/1: flags (T, F, F) -> AP 23/90.
    At thresholds 2/4:   flags (T, T, F) -> AP 56/90.
    TP errors at 2.0 m: matches have distance 0 and 1.5 -> ATE 0.75, rest 0.
    NDS = (5 * (158/360) + (1 - .75) + 4) / 10 = 29/45.
    """
    gts = [[_gt(0, 10)], [_gt(0, 20)], [_gt(0, 30)]]
    dets = [
        [_det(0, 10, 0.9)],
        [_det(0, 21.5, 0.8), _det(10, 35, 0.7)],
        [],
    ]
    result = evaluate(dets, gts)
    assert result.ap[(0, 0.5)] == pytest.approx(23 / 90, abs=1e-12)
    assert result.ap[(0, 1.0)] == pytest.approx(23 / 90, abs=1e-12)
    assert result.ap[(0, 2.0)] == pytest.approx(56 / 90, abs=1e-12)
    assert result.ap[(0, 4.0)] == pytest.approx(56 / 90, abs=1e-12)
    assert result.mean_ap == pytest.approx(158 / 360, abs=1e-12)
    assert result.errors.ate == pytest.approx(0.75, abs=1e-12)
    assert result.errors.ase == 0.0
    assert result.errors.aoe == 0.0
    assert result.errors.ave == 0.0
    assert result.errors.aae == 0.0
    assert result.nds == pytest.approx(29 / 45, abs=1e-12)


def test_evaluate_frame_permutation_invariant(rng):
    gts = [[_gt(0, 10)], [_gt(3, 20), _gt(-4, 30, class_id=1)], [_gt(8, 12)]]
    dets = [
        [_det(0.2, 10, 0.9)],
        [_det(3, 20.4, 0.8), _det(-4, 30, 0.7, class_id=1)],
        [_det(8, 12.2, 0.6), _det(0, 40, 0.3)],
    ]
    base = evaluate(dets, gts)
    perm = [2, 0, 1]
    permuted = evaluate([dets[i] for i in perm], [gts[i] for i in perm])
    assert permuted.mean_ap == base.mean_ap
    assert permuted.nds == base.nds
    assert permuted.errors == base.errors


def test_evaluate_class_filter():
    gts = [[_gt(0, 10), _gt(5, 20, class_id=1)]]
    dets = [[_det(0, 10, 0.9), _det(5, 20, 0.8, class_id=1)]]
    result = evaluate(dets, gts, EvalConfig(class_ids=(0,)))
    assert set(result.ap) == {(0, t) for t in (0.5, 1.0, 2.0, 4.0)}


def _evaluate_oracle(dets_per_frame, gts_per_frame, cfg):
    """evaluate() as one ``average_precision`` per (class, threshold) over
    ``match_detections``, and the TP errors from matches made at
    ``tp_threshold`` on their own."""
    gt_counts = Counter(g.class_id for gts in gts_per_frame for g in gts)
    ap, per_class = {}, []
    for class_id in sorted(gt_counts):
        frame_dets = [
            sorted((d for d in dets if d.class_id == class_id), key=lambda d: -d.score)
            for dets in dets_per_frame
        ]
        frame_gts = [[g for g in gts if g.class_id == class_id] for gts in gts_per_frame]
        for threshold in cfg.distance_thresholds:
            scores, flags = [], []
            for dets, gts in zip(frame_dets, frame_gts):
                matched = {di for di, _, _ in match_detections(dets, gts, threshold)[0]}
                scores += [d.score for d in dets]
                flags += [di in matched for di in range(len(dets))]
            ap[(class_id, threshold)] = average_precision(
                np.array(scores), np.array(flags, dtype=bool), gt_counts[class_id],
                cfg.min_recall, cfg.min_precision,
            )
        pairs = [
            (dets[di], gts[gi])
            for dets, gts in zip(frame_dets, frame_gts)
            for di, gi, _ in match_detections(dets, gts, cfg.tp_threshold)[0]
        ]
        per_class.append((tp_errors(pairs), bool(pairs)))
    mean_ap = float(np.mean(list(ap.values())))
    errors = TPErrors(*(
        float(np.mean([getattr(e, name) for e, _ in per_class]))
        for name in ("ate", "ase", "aoe", "ave", "aae")
    ))
    aoe = float(np.mean([e.aoe / math.pi if matched else e.aoe for e, matched in per_class]))
    score = nds(mean_ap, errors.ate, errors.ase, aoe, errors.ave, errors.aae)
    return EvalResult(ap=ap, mean_ap=mean_ap, errors=errors, nds=score)


@pytest.mark.parametrize("tp_threshold", [2.0, 0.7, 3.0, 5.0])
def test_evaluate_report_equals_per_threshold_oracle(rng, tp_threshold):
    """The one-pass evaluation reports what per-threshold AP calls and
    separate TP matching report, byte for byte, whether ``tp_threshold`` is
    one of the distance thresholds (its matches are reused) or not (it
    matches on its own)."""
    def center():
        return rng.choice([0.0, 0.5, 1.5, 3.0]), rng.choice([10.0, 11.0, 13.0])

    cfg = EvalConfig(distance_thresholds=(0.5, 1.0, 2.0, 4.0), tp_threshold=tp_threshold)
    for _ in range(30):
        frames = int(rng.integers(1, 4))
        gts = [
            [_gt(*center(), class_id=int(rng.integers(3)), yaw=rng.uniform(-3, 3))
             for _ in range(int(rng.integers(0, 4)))]
            for _ in range(frames)
        ]
        if not any(gts):
            gts[0].append(_gt(0.0, 10.0))
        dets = [
            [_det(*center(), float(rng.choice([0.5, rng.uniform()])), class_id=int(rng.integers(3)),
                  attribute=int(rng.integers(2)))
             for _ in range(int(rng.integers(0, 5)))]
            for _ in range(frames)
        ]
        want = report_key_values(_evaluate_oracle(dets, gts, cfg))
        assert report_key_values(evaluate(dets, gts, cfg)) == want


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("distance_thresholds", (2.0, 1.0), "distance_thresholds must be strictly ascending, got (2.0, 1.0)"),
        ("distance_thresholds", (1.0, 1.0), "distance_thresholds must be strictly ascending, got (1.0, 1.0)"),
        ("class_ids", (0, 1, 1, 2), "class_ids must not repeat a class, got (0, 1, 1, 2)"),
        ("distance_thresholds", (0.5, math.nan), "distance_thresholds[1] must be a finite number > 0, got nan"),
        ("distance_thresholds", (0.5, math.inf), "distance_thresholds[1] must be a finite number > 0, got inf"),
        ("distance_thresholds", (True, 2.0), "distance_thresholds[0] must be a finite number > 0, got True"),
        ("distance_thresholds", (), "distance_thresholds must hold at least one threshold, got ()"),
        ("tp_threshold", math.nan, "tp_threshold must be a finite number > 0, got nan"),
        ("tp_threshold", True, "tp_threshold must be a finite number > 0, got True"),
        ("tp_threshold", 0.0, "tp_threshold must be a finite number > 0, got 0.0"),
        ("min_recall", 1.0, "min_recall must be a finite number in [0, 1), got 1.0"),
        ("min_recall", -0.1, "min_recall must be a finite number in [0, 1), got -0.1"),
        ("min_recall", math.nan, "min_recall must be a finite number in [0, 1), got nan"),
        ("min_recall", 0.999, "min_recall leaves no recall grid point above it, got 0.999"),
        ("min_precision", 1.0, "min_precision must be a finite number in [0, 1), got 1.0"),
        ("min_precision", False, "min_precision must be a finite number in [0, 1), got False"),
    ],
)
def test_eval_config_rejects_meaningless_value(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EvalConfig(**{field: value})


def test_extreme_floors_still_score_a_perfect_detector():
    # 0.99 and 0.994 leave one recall grid point, recall 1.0, above the floor.
    for min_recall in (0.0, 0.99, 0.994):
        cfg = EvalConfig(min_recall=min_recall, min_precision=0.99)
        result = evaluate([[_det(0, 10, 0.9)]], [[_gt(0, 10)]], cfg)
        assert result.mean_ap == 1.0


def test_average_precision_checks_its_floors():
    with pytest.raises(ValueError, match=re.escape("min_precision must be a finite number in [0, 1)")):
        average_precision(np.array([0.5]), np.array([True]), 1, min_precision=1.0)
