"""Scene and detections file formats plus the synthetic scene generator.

Files are line-delimited JSON: a schema header line followed by one frame
per line. Python's shortest-round-trip float formatting is used throughout,
so load(save(x)) reproduces every number exactly. Parse failures raise
ParseError naming the line and field; a header from a different format
version raises SchemaVersionMismatch.

``synth_scene`` builds fully annotated scenes that stand in for real drive
data: boxes are planted inside the camera frustum, radar returns are sampled
on the box faces visible from the sensor (their velocity is the planted
velocity projected onto the sensor ray and re-expanded to a BEV vector),
uniform clutter is added, and preliminary detections are derived from the
boxes with a configurable noise model. With noise disabled the generated
scenes are exactly recoverable end to end, which is what the oracle tests
rely on. Each sampled return is written straight into a row of the frame's
radar row table, with no object per return, and a synthesized frame's
sweeps are row ranges of that one read-only table: the layout that
``load_scenes`` gives a parsed frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from typing import Any, Iterator, Sequence

import numpy as np

from .decoder import DetectionBox3D
from .errors import BehindCamera, ParseError, SchemaVersionMismatch, check_finite, check_number
from .geometry import (
    MIN_FOCAL,
    Box2D,
    Box3D,
    CameraModel,
    _column_box2ds,
    _column_boxes,
    box3d_corners,
    project_box_to_bbox2d,
    project_point,
)
from .metrics import GroundTruth
from .radar import (
    _POINT_FIELDS,
    DEFAULT_PILLAR_DIMS,
    DEPTH_GATE_FLOOR,
    PreliminaryDetection,
    RadarSweep,
    _column_detections,
    _pillar_in_frustum,
    _table_sweeps,
    build_frustum,
)

SCENE_SCHEMA = "rcdet.scene"
DETECTIONS_SCHEMA = "rcdet.detections"
SCHEMA_VERSION = 1

DEFAULT_IMAGE_SIZE = (800, 448)
DEFAULT_FOCAL = 500.0

# Bounds on input integers. Class and attribute ids size nothing (class
# scores are kept only at the planted cells); [0, MAX_LABEL] is an input rule.
# An image side sets the radar heatmap's owner grid (image_size / 4 cells of
# int32) and its dense `.values` view, which MAX_IMAGE_SIDE caps. 4096 px
# covers 4K UHD (3840 x 2160).
MAX_LABEL = 255
MAX_IMAGE_SIDE = 4096
# A detection's depth gate is its depth plus or minus at least
# DEPTH_GATE_FLOOR; past about 2**52 m that sum rounds to the depth and the
# gate is empty. 1000 km is far beyond any sensor and far below that.
MAX_DETECTION_DEPTH = 1e6
# Highs of the synthetic noise scales (meters, m/s): with them every sampled
# return is finite, and a synthesized depth would need a draw of about 1000
# standard deviations to pass MAX_DETECTION_DEPTH.
MAX_SYNTH_NOISE = 1e3

# Base (width, length, height) per synthetic class, jittered per object.
_CLASS_DIMS = np.array([[1.9, 4.6, 1.7], [0.7, 0.8, 1.8], [2.6, 7.5, 3.0]])


@dataclass(eq=False)
class SceneFrame:
    """One input frame: camera, radar sweeps, image-stage detections, labels."""

    frame_id: int
    camera: CameraModel
    radar_sweeps: list[RadarSweep]
    detections: list[PreliminaryDetection]
    ground_truth: list[GroundTruth] | None = None


# check_number bounds of the numeric SynthConfig fields; the rest are >= 0.
_SYNTH_BOUNDS = {
    "n_classes": {"low": 1, "high": len(_CLASS_DIMS)},
    "n_sweeps": {"low": 1},
    "log_sigma": {},
    "focal": {"low": MIN_FOCAL},
    "downsample": {"low": 1},
    "position_noise": {"low": 0, "high": MAX_SYNTH_NOISE},
    "velocity_noise": {"low": 0, "high": MAX_SYNTH_NOISE},
    "depth_noise": {"low": 0, "high": MAX_SYNTH_NOISE},
}


@dataclass
class SynthConfig:
    """Knobs for the synthetic scene generator; all randomness is seeded."""

    seed: int = 0
    n_frames: int = 1
    objects_min: int = 1
    objects_max: int = 4
    points_per_object_min: int = 3
    points_per_object_max: int = 10
    clutter_density: float = 0.002  # points per square meter
    position_noise: float = 0.0  # radar point noise, meters
    velocity_noise: float = 0.0  # radar point noise, m/s
    depth_noise: float = 0.0  # detection depth noise, meters
    bbox_jitter: float = 0.0  # detection box jitter, pixels
    max_speed: float = 0.0  # object speed cap, m/s
    n_classes: int = 3
    n_sweeps: int = 3
    log_sigma: float = -4.0
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE
    focal: float = DEFAULT_FOCAL
    downsample: int = 4  # feature-grid stride used for center-spacing checks

    def __post_init__(self) -> None:
        # Under postponed annotations a field's type is its annotation text.
        for f in fields(self):
            if f.type in ("int", "float"):
                rule = _SYNTH_BOUNDS.get(f.name, {"low": 0})
                check_number(f.name, getattr(self, f.name), integer=f.type == "int", **rule)
        size = self.image_size
        if not (isinstance(size, (list, tuple)) and len(size) == 2):
            raise ValueError(
                f"image_size must be two integers in [1, {MAX_IMAGE_SIDE}], got {size!r}"
            )
        for side in size:
            check_number("image_size", side, integer=True, low=1, high=MAX_IMAGE_SIDE)
        self.image_size = tuple(size)
        if self.objects_max < self.objects_min:
            raise ValueError("objects_max must be >= objects_min")
        if self.points_per_object_max < self.points_per_object_min:
            raise ValueError("points_per_object_max must be >= points_per_object_min")


def default_camera(
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE, focal: float = DEFAULT_FOCAL
) -> CameraModel:
    """Forward-looking camera at the ego origin (ego +y is the optical axis)."""
    width, height = image_size
    intrinsic = np.array(
        [[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]]
    )
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return CameraModel(intrinsic=intrinsic, extrinsic=extrinsic, image_size=image_size)


# ---------------------------------------------------------------------------
# Serialization


def _require_field(record: dict, name: str, line: int) -> Any:
    if name not in record:
        raise ParseError(f"line {line}: missing field {name!r}")
    return record[name]


def _object(record: dict, name: str, line: int, what: str) -> dict:
    value = _require_field(record, name, line)
    if not isinstance(value, dict):
        raise ParseError(f"line {line}: {what} {name} must be an object")
    return value


def _objects(record: dict, name: str, line: int, what: str) -> list[dict]:
    value = _require_field(record, name, line)
    # A JSON object parses to an exact dict; one type pass checks every item.
    if not (isinstance(value, list) and set(map(type, value)) <= {dict}):
        raise ParseError(f"line {line}: {what} {name} must be an array of objects")
    return value


def _field_values(records: list[dict], name: str, line: int, default: Any = None) -> list:
    """Field ``name`` of every one of ``records``. A missing field takes
    ``default``, or is an error when there is none."""
    try:
        if default is None:
            return [record[name] for record in records]
        return [record.get(name, default) for record in records]
    except KeyError:  # indexing, not _require_field: this runs per record
        raise ParseError(f"line {line}: missing field {name!r}") from None


_NUMBER_TYPES = {int, float}  # not bool: a JSON true is no number
# An integer field lets a boolean past its type check, to name it no integer.
_INTEGER_TYPES = {int, float, bool}


def _numbers(
    values: Any, line: int, label: str, integral: bool = False, plural: bool = False
) -> list:
    """``values``, which must be a list, as floats, each a finite number, or
    with ``integral`` as ints, each an integer. A boolean is no number, and
    nor is an integer beyond float64. ``label`` names the field in the error
    (``line 2: detection score must be a number``); ``plural`` words it for
    the items of one list field (``… must be a list of numbers``)."""
    kinds = ("a list of numbers", "a list of integers") if plural else ("a number", "an integer")
    types = _INTEGER_TYPES if integral else _NUMBER_TYPES
    try:
        numeric = type(values) is list and types.issuperset(map(type, values))
        finite = numeric and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond float64
        numeric = False
    if not numeric:
        raise ParseError(f"line {line}: {label} must be {kinds[0]}")
    if not finite:
        raise ParseError(f"line {line}: {label} must be finite")
    if not integral:
        return list(map(float, values))
    if any(type(x) is bool or x != int(x) for x in values):
        raise ParseError(f"line {line}: {label} must be {kinds[1]}")
    return list(map(int, values))


def _column(
    records: list[dict], name: str, line: int, what: str, default: Any = None,
    integral: bool = False,
) -> list:
    """Field ``name`` of every one of ``records``, a line's records of kind
    ``what``, checked by :func:`_numbers` in one pass over them all."""
    values = _field_values(records, name, line, default)
    return _numbers(values, line, f"{what} {name}", integral)


def _labels(records: list[dict], name: str, line: int, what: str, default: Any = None) -> list:
    """A class or attribute id per record: an integer in [0, MAX_LABEL]."""
    labels = _column(records, name, line, what, default, integral=True)
    if not all(0 <= label <= MAX_LABEL for label in labels):
        raise ParseError(f"line {line}: {what} {name} must be in [0, {MAX_LABEL}]")
    return labels


def _rows(records: list[dict], name: str, line: int, what: str, width: int) -> np.ndarray:
    """Field ``name`` of every one of ``records``, each a list of ``width``
    finite numbers, as one (n, ``width``) float64 array, checked in one pass
    over them all."""
    values = _field_values(records, name, line)
    label = f"{what} {name}"
    if not set(map(type, values)) <= {list}:
        raise ParseError(f"line {line}: {label} must be a list of numbers")
    flat = _numbers(list(chain.from_iterable(values)), line, label, plural=True)
    if not set(map(len, values)) <= {width}:
        raise ParseError(f"line {line}: {label} must be a list of {width} numbers")
    return np.array(flat, dtype=np.float64).reshape(-1, width)


def _camera_to_json(camera: CameraModel) -> dict:
    return {
        "intrinsic": camera.intrinsic.tolist(),
        "extrinsic": camera.extrinsic.tolist(),
        "image_size": list(camera.image_size),
    }


def _camera_from_json(obj: dict, line: int) -> CameraModel:
    image_size = _require_field(obj, "image_size", line)
    image_size = _numbers(image_size, line, "camera image_size", integral=True, plural=True)
    if not all(1 <= side <= MAX_IMAGE_SIDE for side in image_size):
        raise ParseError(f"line {line}: camera image_size must be in [1, {MAX_IMAGE_SIDE}]")
    try:
        matrices = {
            name: np.array(_require_field(obj, name, line), dtype=np.float64)
            for name in ("intrinsic", "extrinsic")
        }
        for name, matrix in matrices.items():
            if not np.all(np.isfinite(matrix)):
                raise ParseError(f"line {line}: camera {name} must be finite")
        camera = CameraModel(image_size=tuple(image_size), **matrices)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"line {line}: bad camera record: {exc}") from exc
    # numpy reads a boolean or a numeric string as a number; JSON types do not.
    for name in matrices:
        if not _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(obj[name]))):
            raise ParseError(f"line {line}: camera {name} must be a matrix of numbers")
    return camera


class _CameraReader:
    """Reads a file's camera records, parsing one only when its ``repr``
    differs from the last record parsed, so frames with equal records share
    one :class:`CameraModel`. ``repr`` compares JSON values type-exactly
    (``==`` would let a ``false`` stand in for a ``0``)."""

    def __init__(self) -> None:
        self._record: str | None = None
        self._camera: CameraModel | None = None

    def __call__(self, obj: dict, line: int) -> CameraModel:
        record = repr(obj)
        if record != self._record:
            self._camera = _camera_from_json(obj, line)
            self._record = record
        return self._camera


def _box3d_to_json(box: Box3D) -> dict:
    return {
        "center": box.center.tolist(),
        "dims": box.dims.tolist(),
        "yaw": box.yaw,
        "velocity": box.velocity.tolist(),
    }


def _boxes_from_json(records: list[dict], line: int, what: str) -> list[Box3D]:
    """The ``box`` of every one of ``records``, a line's records of kind
    ``what``: each box field (center, dims, yaw, velocity) is checked across
    all of them before the next."""
    boxes = [_object(record, "box", line, what) for record in records]
    centers = _rows(boxes, "center", line, "box", 3)
    dims = _rows(boxes, "dims", line, "box", 3)
    if not (dims > 0).all():
        raise ParseError(f"line {line}: box dims must be positive")
    yaws = _column(boxes, "yaw", line, "box")
    velocities = _rows(boxes, "velocity", line, "box", 2)
    return _column_boxes(centers, dims, yaws, velocities)


def _detection_to_json(det: PreliminaryDetection) -> dict:
    return {
        "class_id": det.class_id,
        "score": det.score,
        "bbox": [det.bbox2d.x_min, det.bbox2d.y_min, det.bbox2d.x_max, det.bbox2d.y_max],
        "center2d": det.projected_center.tolist(),
        "depth": det.depth,
        "log_sigma": det.log_sigma,
        "box": _box3d_to_json(det.box3d),
        "attribute": det.attribute,
    }


def _detections_from_json(
    records: list[dict], camera: CameraModel, line: int
) -> list[PreliminaryDetection]:
    """A line's detections, each field checked across all of them before the
    next, in the order :func:`_detection_to_json` writes them. Each must fit
    its camera: its box and center lie in the image (edges included), and
    its depth is beyond the radar depth gate's floor and at most
    ``MAX_DETECTION_DEPTH``."""
    what = "detection"
    width, height = camera.image_size
    class_ids = _labels(records, "class_id", line, what)
    scores = _column(records, "score", line, what)
    if not all(0.0 <= score <= 1.0 for score in scores):
        raise ParseError(f"line {line}: detection score must be in [0, 1]")
    bboxes = _rows(records, "bbox", line, what, 4)
    if (bboxes[:, :2] > bboxes[:, 2:]).any():
        raise ParseError(f"line {line}: detection bbox min corner must not exceed its max corner")
    if (bboxes[:, :2] < 0).any() or (bboxes[:, 2:] > (width, height)).any():
        raise ParseError(f"line {line}: detection bbox must lie inside the {width}x{height} image")
    centers = _rows(records, "center2d", line, what, 2)
    if (centers < 0).any() or (centers > (width, height)).any():
        raise ParseError(
            f"line {line}: detection center2d must lie inside the {width}x{height} image"
        )
    depths = _column(records, "depth", line, what)
    if not all(depth > DEPTH_GATE_FLOOR for depth in depths):
        raise ParseError(
            f"line {line}: detection depth must be greater than the {DEPTH_GATE_FLOOR} m gate floor"
        )
    if not all(depth <= MAX_DETECTION_DEPTH for depth in depths):
        raise ParseError(f"line {line}: detection depth must be at most {MAX_DETECTION_DEPTH:.0f} m")
    log_sigmas = _column(records, "log_sigma", line, what)
    boxes = _boxes_from_json(records, line, what)
    attributes = _labels(records, "attribute", line, what, default=0)
    return _column_detections(
        class_ids, scores, _column_box2ds(bboxes.tolist()), centers, depths, log_sigmas, boxes,
        attributes,
    )


def _sweep_to_json(sweep: RadarSweep) -> dict:
    return {
        "timestamp": sweep.timestamp,
        "points": [
            {"position": row[:3], "velocity": row[3:5], "rcs": row[5], "sweep_age": row[6]}
            for row in sweep.table.tolist()
        ],
    }


def _point_column(records: list[dict], name: str, width: int, line: int) -> np.ndarray:
    """Field ``name`` of every radar point record as one float64 column:
    (N, ``width``) for a list field, (N,) for a number (``width`` 0, and 0.0
    where the field is missing)."""
    values = _field_values(records, name, line, None if width else 0.0)
    kind = f"a list of {width} numbers" if width else "a number"
    if width:
        if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {width}):
            raise ParseError(f"line {line}: radar point {name} must be {kind}")
        values = list(chain.from_iterable(values))
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise ParseError(f"line {line}: radar point {name} must be {kind}")
    try:
        column = np.array(values, dtype=np.float64)
        finite = np.isfinite(column).all()
    except OverflowError:  # an integer beyond float64
        finite = False
    if not finite:
        raise ParseError(f"line {line}: radar point {name} must be finite")
    return column.reshape(-1, width) if width else column


# Each radar point field: (name, list width or 0 for a number), in the order
# the frame's columns are parsed and checked, which is their order in a row.
_POINT_COLUMNS = (("position", 3), ("velocity", 2), ("rcs", 0), ("sweep_age", 0))


def _sweeps_from_json(record: dict, line: int) -> list[RadarSweep]:
    """The frame's sweeps, newest first: timestamps never increase, and each
    lies a finite time behind the newest (its points' sweep age).

    Every sweep's ``points`` are checked first, then every ``timestamp``;
    then each point field is parsed in one pass over all of the frame's
    points, field by field, into one read-only (n, 7) row table, and each
    sweep holds its row range of it. So of two bad fields, the first in
    ``_POINT_COLUMNS`` order is reported, whichever sweep holds it.
    """
    sweeps = _objects(record, "radar_sweeps", line, "frame")
    point_lists = [_objects(sweep, "points", line, "sweep") for sweep in sweeps]
    stamps = _column(sweeps, "timestamp", line, "sweep")
    points = list(chain.from_iterable(point_lists))
    table = np.column_stack(
        [_point_column(points, name, width, line) for name, width in _POINT_COLUMNS]
    )
    if (table[:, 6] < 0).any():
        raise ParseError(f"line {line}: radar point sweep_age must be >= 0")
    if any(newer < older for newer, older in zip(stamps, stamps[1:])):
        raise ParseError(f"line {line}: frame radar_sweeps must be ordered newest first")
    if stamps and not math.isfinite(stamps[0] - stamps[-1]):
        raise ParseError(f"line {line}: frame radar_sweeps must span a finite time")
    return _table_sweeps(table, stamps, list(accumulate(map(len, point_lists))))


def _frame_to_json(frame: SceneFrame) -> dict:
    record = {
        "frame_id": frame.frame_id,
        "camera": _camera_to_json(frame.camera),
        "radar_sweeps": [_sweep_to_json(s) for s in frame.radar_sweeps],
        "detections": [_detection_to_json(d) for d in frame.detections],
        "ground_truth": None,
    }
    if frame.ground_truth is not None:
        record["ground_truth"] = [
            {"box": _box3d_to_json(g.box), "class_id": g.class_id, "attribute": g.attribute}
            for g in frame.ground_truth
        ]
    return record


def _ground_truth_from_json(records: list[dict], line: int) -> list[GroundTruth]:
    """A line's ground truth, each field checked across all of its records
    before the next: box, class_id, attribute."""
    what = "ground truth"
    boxes = _boxes_from_json(records, line, what)
    class_ids = _labels(records, "class_id", line, what)
    attributes = _labels(records, "attribute", line, what, default=0)
    return list(map(GroundTruth, boxes, class_ids, attributes))


def _frame_from_json(record: dict, line: int, read_camera: _CameraReader) -> SceneFrame:
    """One scene line's frame, read in this order: ground truth, frame_id,
    camera, radar sweeps, detections. Within the sweeps' points, the ground
    truth and the detections, each field is checked across all of the
    line's records of that kind before the next field, so of two bad fields
    the first in field order is reported, whichever record holds it."""
    ground_truth = None
    if record.get("ground_truth") is not None:
        records = _objects(record, "ground_truth", line, "frame")
        ground_truth = _ground_truth_from_json(records, line)
    frame_id = _column([record], "frame_id", line, "frame", integral=True)[0]
    camera = read_camera(_object(record, "camera", line, "frame"), line)
    radar_sweeps = _sweeps_from_json(record, line)
    records = _objects(record, "detections", line, "frame")
    detections = _detections_from_json(records, camera, line)
    return SceneFrame(frame_id, camera, radar_sweeps, detections, ground_truth)


def _read_lines(path: str, schema: str) -> Iterator[tuple[int, dict]]:
    """Each record after the file's schema header, with its line number,
    decoded one line at a time as the caller asks for it. Lines are numbered
    as ``str.splitlines`` splits the file. So a line's invalid JSON is
    reported only after every earlier record has been converted."""
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = chain.from_iterable(map(str.splitlines, fh))
        for number, text in enumerate(lines, start=1):
            if not text.strip():
                continue
            try:
                record = json.loads(text)
            except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
                raise ParseError(f"line {number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ParseError(f"line {number}: expected a JSON object")
            if header is not None:
                yield number, record
                continue
            header = record
            if header.get("schema") != schema:
                raise ParseError(
                    f"line {number}: expected schema {schema!r}, got {header.get('schema')!r}"
                )
            if header.get("version") != SCHEMA_VERSION:
                raise SchemaVersionMismatch(
                    f"{path}: schema version {header.get('version')}, expected {SCHEMA_VERSION}"
                )
    if header is None:
        raise ParseError(f"{path}: empty file, expected a schema header")


def save_scenes(path: str, frames: Sequence[SceneFrame]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": SCENE_SCHEMA, "version": SCHEMA_VERSION}) + "\n")
        for frame in frames:
            fh.write(json.dumps(_frame_to_json(frame)) + "\n")


def _claim_frame_id(seen: set[int], frame_id: int, line: int) -> None:
    if frame_id in seen:
        raise ParseError(f"line {line}: duplicate frame_id {frame_id}")
    seen.add(frame_id)


def load_scenes(path: str) -> list[SceneFrame]:
    frames, seen, read_camera = [], set(), _CameraReader()
    for line, record in _read_lines(path, SCENE_SCHEMA):
        frames.append(_frame_from_json(record, line, read_camera))
        _claim_frame_id(seen, frames[-1].frame_id, line)
    return frames


def save_detections(path: str, results: Sequence[tuple[int, list[DetectionBox3D]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": DETECTIONS_SCHEMA, "version": SCHEMA_VERSION}) + "\n")
        for frame_id, boxes in results:
            record = {
                "frame_id": frame_id,
                "boxes": [
                    {
                        "class_id": b.class_id,
                        "score": b.score,
                        "box": _box3d_to_json(b.box),
                        "attribute": b.attribute,
                    }
                    for b in boxes
                ],
            }
            fh.write(json.dumps(record) + "\n")


def load_detections(path: str) -> list[tuple[int, list[DetectionBox3D]]]:
    """Each line's frame id and boxes. A line's box fields are checked across
    all of its boxes, one field at a time, in the order they are written."""
    results, seen = [], set()
    for line, record in _read_lines(path, DETECTIONS_SCHEMA):
        frame_id = _column([record], "frame_id", line, "frame", integral=True)[0]
        _claim_frame_id(seen, frame_id, line)
        records = _objects(record, "boxes", line, "frame")
        class_ids = _labels(records, "class_id", line, "box")
        scores = _column(records, "score", line, "box")
        boxes = _boxes_from_json(records, line, "box")
        attributes = _labels(records, "attribute", line, "box", default=0)
        results.append((frame_id, list(map(DetectionBox3D, boxes, class_ids, scores, attributes))))
    return results


# ---------------------------------------------------------------------------
# Synthetic scenes


def _sample_object(
    rng: np.random.Generator,
    cfg: SynthConfig,
    camera: CameraModel,
    used_cells: set[tuple[int, int]],
) -> tuple[GroundTruth, tuple[int, int]] | None:
    """Try to place one box inside the camera frustum, clear of used cells."""
    width, height = cfg.image_size
    for _ in range(200):
        class_id = int(rng.integers(cfg.n_classes))
        dims = _CLASS_DIMS[class_id] * rng.uniform(0.9, 1.1, size=3)
        bearing = rng.uniform(-0.35, 0.35)
        distance = rng.uniform(8.0, 45.0)
        center = np.array(
            [distance * math.sin(bearing), distance * math.cos(bearing), dims[2] / 2.0]
        )
        yaw = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, cfg.max_speed) if cfg.max_speed > 0 else 0.0
        direction = rng.uniform(-math.pi, math.pi)
        velocity = np.array([speed * math.cos(direction), speed * math.sin(direction)])
        box = Box3D(center=center, dims=dims, yaw=yaw, velocity=velocity)
        try:
            pixels = [project_point(camera, corner)[0] for corner in box3d_corners(box)]
        except BehindCamera:
            continue
        pts = np.array(pixels)
        margin = 2.0
        if (
            pts[:, 0].min() < margin
            or pts[:, 0].max() > width - margin
            or pts[:, 1].min() < margin
            or pts[:, 1].max() > height - margin
        ):
            continue
        center_px, _ = project_point(camera, center)
        cell = (
            int(center_px[0] // cfg.downsample),
            int(center_px[1] // cfg.downsample),
        )
        # Keep representative points at least two feature cells apart so
        # peak picking cannot suppress one object with another.
        if any(
            max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) < 2 for c in used_cells
        ):
            continue
        return GroundTruth(box=box, class_id=class_id, attribute=int(rng.integers(3))), cell
    return None


def _radial_velocity(position: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Project a BEV velocity onto the sensor ray and re-expand it as a vector."""
    x, y = float(position[0]), float(position[1])
    norm = math.sqrt(x * x + y * y)
    if norm == 0.0:
        return np.zeros(2)
    ray = np.array([x / norm, y / norm])
    return float(velocity @ ray) * ray


def _detection(
    camera: CameraModel, gt: GroundTruth, cfg: SynthConfig, rng: np.random.Generator | None = None
) -> PreliminaryDetection:
    """The detection of the planted box ``gt``: exact, with score 1, when
    there is no ``rng`` (for the box's own frustum); else it draws, in this
    order, the box jitter, the depth noise and the score. Jitter moves each
    min corner either way and each max corner only outward, and a min corner
    that would pass its max corner stops at it."""
    bbox = project_box_to_bbox2d(camera, gt.box)
    center_px, depth = project_point(camera, gt.box.center)
    score = 1.0
    if rng is not None:
        if cfg.bbox_jitter > 0:
            width, height = cfg.image_size
            jitter = rng.normal(0.0, cfg.bbox_jitter, size=4)
            x_max = min(max(bbox.x_max + abs(jitter[2]), 0.0), width)
            y_max = min(max(bbox.y_max + abs(jitter[3]), 0.0), height)
            bbox = Box2D(
                min(max(bbox.x_min + jitter[0], 0.0), width, x_max),
                min(max(bbox.y_min + jitter[1], 0.0), height, y_max),
                x_max,
                y_max,
            )
        if cfg.depth_noise > 0:
            depth = max(depth + rng.normal(0.0, cfg.depth_noise), 1.0)
        score = float(rng.uniform(0.5, 1.0))
    box = gt.box
    return PreliminaryDetection(
        class_id=gt.class_id,
        score=score,
        bbox2d=bbox,
        projected_center=center_px,
        depth=depth,
        log_sigma=cfg.log_sigma,
        box3d=Box3D(box.center.copy(), box.dims.copy(), box.yaw, box.velocity.copy()),
        attribute=gt.attribute,
    )


def _point_row(
    rng: np.random.Generator, bev: np.ndarray, velocity: np.ndarray
) -> tuple[float, ...]:
    """The row of a return at BEV position ``bev`` (z 0) with ``velocity``,
    a drawn RCS and sweep age 0, under :class:`RadarPoint`'s finite check."""
    row = (*bev.tolist(), 0.0, *velocity.tolist(), float(rng.uniform(-5.0, 15.0)), 0.0)
    check_finite("radar point", _POINT_FIELDS, row)
    return row


def _sample_object_rows(
    rng: np.random.Generator, cfg: SynthConfig, camera: CameraModel, gt: GroundTruth
) -> list[tuple[float, ...]]:
    """Radar returns on the box faces visible from the sensor, one row each.

    A candidate is kept only when its pillar lies in the object's own
    (noiseless) frustum, so that noise-free scenes are exactly recoverable;
    a return whose 50 candidates all fall outside falls back to the box's
    BEV center.
    """
    box = gt.box
    cos_y, sin_y = math.cos(box.yaw), math.sin(box.yaw)
    length_axis = np.array([cos_y, sin_y])
    width_axis = np.array([-sin_y, cos_y])
    half_w, half_l = box.dims[0] / 2.0, box.dims[1] / 2.0
    center_bev = box.center[:2]
    # The four side faces: (outward normal, face center, in-face axis, half length).
    faces = [
        (length_axis, center_bev + half_l * length_axis, width_axis, half_w),
        (-length_axis, center_bev - half_l * length_axis, width_axis, half_w),
        (width_axis, center_bev + half_w * width_axis, length_axis, half_l),
        (-width_axis, center_bev - half_w * width_axis, length_axis, half_l),
    ]
    visible = [f for f in faces if f[0] @ (-f[1]) > 0]  # sensor sits at the origin
    if not visible:
        visible = faces
    frustum = build_frustum(_detection(camera, gt, cfg), camera)
    pillar_half = 0.5 * np.asarray(DEFAULT_PILLAR_DIMS)

    count = int(rng.integers(cfg.points_per_object_min, cfg.points_per_object_max + 1))
    rows = []
    for _ in range(count):
        for _ in range(50):
            _, face_center, axis, half_len = visible[int(rng.integers(len(visible)))]
            bev = face_center + rng.uniform(-half_len, half_len) * axis
            if cfg.position_noise > 0:
                bev = bev + rng.normal(0.0, cfg.position_noise, size=2)
            velocity = _radial_velocity(bev, box.velocity) + (
                rng.normal(0.0, cfg.velocity_noise, size=2) if cfg.velocity_noise > 0 else 0.0
            )
            row = _point_row(rng, bev, velocity)
            if _pillar_in_frustum(frustum, row[:3], pillar_half):
                break
        else:
            row = _point_row(rng, center_bev, _radial_velocity(center_bev, box.velocity))
        rows.append(row)
    return rows


# Clutter rows draw x, y, v_x, v_y and rcs, in that order, each uniform
# between its low (first row) and high (second row) bound.
_CLUTTER_BOUNDS = np.array([[-35.0, 2.0, -2.0, -2.0, -5.0], [35.0, 58.0, 2.0, 2.0, 15.0]])
_CLUTTER_AREA = (35.0 - -35.0) * (58.0 - 2.0)  # square meters spanned by x and y


def _sample_clutter(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """Uniform clutter rows over the BEV area of ``_CLUTTER_BOUNDS``."""
    count = int(round(cfg.clutter_density * _CLUTTER_AREA))
    rows = np.zeros((count, 7))
    rows[:, [0, 1, 3, 4, 5]] = rng.uniform(*_CLUTTER_BOUNDS, size=(count, 5))
    return rows


def synth_scene(cfg: SynthConfig) -> list[SceneFrame]:
    """Generate seeded synthetic frames with ground truth."""
    rng = np.random.default_rng(cfg.seed)
    camera = default_camera(cfg.image_size, cfg.focal)
    frames = []
    for frame_id in range(cfg.n_frames):
        used_cells: set[tuple[int, int]] = set()
        ground_truth = []
        n_objects = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
        for _ in range(n_objects):
            placed = _sample_object(rng, cfg, camera, used_cells)
            if placed is None:
                continue
            gt, cell = placed
            used_cells.add(cell)
            ground_truth.append(gt)

        detections, rows = [], []
        for gt in ground_truth:
            rows += _sample_object_rows(rng, cfg, camera, gt)
            detections.append(_detection(camera, gt, cfg, rng))
        table = np.vstack([np.reshape(rows, (-1, 7)), _sample_clutter(rng, cfg)])

        # Rows are dealt round-robin: row i goes to sweep i % n_sweeps.
        dealt = [table[i :: cfg.n_sweeps] for i in range(cfg.n_sweeps)]
        base_time = frame_id * 0.5
        sweeps = _table_sweeps(
            np.concatenate(dealt),
            [base_time - 0.1 * i for i in range(cfg.n_sweeps)],
            list(accumulate(map(len, dealt))),
        )
        frames.append(SceneFrame(frame_id, camera, sweeps, detections, ground_truth))
    return frames
