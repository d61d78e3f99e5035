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
rely on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, Sequence

import numpy as np

from .decoder import DetectionBox3D
from .errors import BehindCamera, ParseError, SchemaVersionMismatch, check_number
from .geometry import (
    MIN_FOCAL,
    Box2D,
    Box3D,
    CameraModel,
    box3d_corners,
    project_box_to_bbox2d,
    project_point,
)
from .metrics import GroundTruth
from .radar import (
    DEFAULT_PILLAR_DIMS,
    DEPTH_GATE_FLOOR,
    Pillar,
    PreliminaryDetection,
    RadarPoint,
    RadarSweep,
    build_frustum,
    frustum_contains,
    pillar_expand,
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
    if not (isinstance(value, list) and all(isinstance(item, dict) for item in value)):
        raise ParseError(f"line {line}: {what} {name} must be an array of objects")
    return value


def _finite(
    record: dict, name: str, line: int, what: str, default: Any = None, array: bool = False
) -> Any:
    """``record[name]``: a finite number, or with ``array`` a list of finite
    numbers. A missing field takes ``default``, or is an error when there is
    none."""
    value = _require_field(record, name, line) if default is None else record.get(name, default)
    try:
        if isinstance(value, list) != array:
            raise TypeError
        finite = all(map(math.isfinite, value if array else (value,)))
    except (TypeError, OverflowError):
        kind = "a list of numbers" if array else "a number"
        raise ParseError(f"line {line}: {what} {name} must be {kind}") from None
    if not finite:
        raise ParseError(f"line {line}: {what} {name} must be finite")
    return value


def _integer(
    record: dict, name: str, line: int, what: str, default: Any = None, array: bool = False
) -> Any:
    """:func:`_finite` with every number integral, converted to int. A
    fraction or a boolean (which Python reads as a number) is an error."""
    value = _finite(record, name, line, what, default, array)
    numbers = value if array else (value,)
    if any(isinstance(x, bool) or x != int(x) for x in numbers):
        kind = "a list of integers" if array else "an integer"
        raise ParseError(f"line {line}: {what} {name} must be {kind}")
    return [int(x) for x in numbers] if array else int(value)


def _label(record: dict, name: str, line: int, what: str, default: Any = None) -> int:
    """A class or attribute id: an integer in [0, MAX_LABEL]."""
    value = _integer(record, name, line, what, default)
    if not 0 <= value <= MAX_LABEL:
        raise ParseError(f"line {line}: {what} {name} must be in [0, {MAX_LABEL}]")
    return value


def _camera_to_json(camera: CameraModel) -> dict:
    return {
        "intrinsic": camera.intrinsic.tolist(),
        "extrinsic": camera.extrinsic.tolist(),
        "image_size": list(camera.image_size),
    }


def _camera_from_json(obj: dict, line: int) -> CameraModel:
    image_size = _integer(obj, "image_size", line, "camera", array=True)
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
        return CameraModel(image_size=tuple(image_size), **matrices)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"line {line}: bad camera record: {exc}") from exc


def _box3d_to_json(box: Box3D) -> dict:
    return {
        "center": box.center.tolist(),
        "dims": box.dims.tolist(),
        "yaw": box.yaw,
        "velocity": box.velocity.tolist(),
    }


def _box3d_from_json(obj: dict, line: int) -> Box3D:
    try:
        return Box3D(
            center=_finite(obj, "center", line, "box", array=True),
            dims=_finite(obj, "dims", line, "box", array=True),
            yaw=float(_finite(obj, "yaw", line, "box")),
            velocity=_finite(obj, "velocity", line, "box", array=True),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"line {line}: bad box record: {exc}") from exc


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


def _detection_from_json(obj: dict, line: int) -> PreliminaryDetection:
    bbox = _finite(obj, "bbox", line, "detection", array=True)
    try:
        return PreliminaryDetection(
            class_id=_label(obj, "class_id", line, "detection"),
            score=float(_finite(obj, "score", line, "detection")),
            bbox2d=Box2D(*(float(v) for v in bbox)),
            projected_center=_finite(obj, "center2d", line, "detection", array=True),
            depth=float(_finite(obj, "depth", line, "detection")),
            log_sigma=float(_finite(obj, "log_sigma", line, "detection")),
            box3d=_box3d_from_json(_object(obj, "box", line, "detection"), line),
            attribute=_label(obj, "attribute", line, "detection", default=0),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"line {line}: bad detection record: {exc}") from exc


def _check_detection_fits(det: PreliminaryDetection, camera: CameraModel, line: int) -> None:
    """The detection's box and center lie in its camera's image (edges
    included), and its depth is beyond the radar depth gate's floor."""
    width, height = camera.image_size
    box = det.bbox2d
    if not (0 <= box.x_min and box.x_max <= width and 0 <= box.y_min and box.y_max <= height):
        raise ParseError(
            f"line {line}: detection bbox must lie inside the {width}x{height} image"
        )
    u, v = det.projected_center
    if not (0 <= u <= width and 0 <= v <= height):
        raise ParseError(
            f"line {line}: detection center2d must lie inside the {width}x{height} image"
        )
    if det.depth <= DEPTH_GATE_FLOOR:
        raise ParseError(
            f"line {line}: detection depth must be greater than the {DEPTH_GATE_FLOOR} m gate floor"
        )


def _sweep_to_json(sweep: RadarSweep) -> dict:
    return {
        "timestamp": sweep.timestamp,
        "points": [
            {"position": position, "velocity": velocity, "rcs": rcs, "sweep_age": age}
            for position, velocity, rcs, age in zip(
                sweep.positions.tolist(),
                sweep.velocities.tolist(),
                sweep.rcs.tolist(),
                sweep.sweep_ages.tolist(),
            )
        ],
    }


_NUMBER_TYPES = {int, float}  # not bool: a JSON true is no number


def _point_column(records: list[dict], name: str, width: int, line: int) -> np.ndarray:
    """Field ``name`` of every radar point record as one float64 column:
    (N, ``width``) for a list field, (N,) for a number (``width`` 0, and 0.0
    where the field is missing)."""
    try:
        if width:
            values = [rec[name] for rec in records]
        else:
            values = [rec.get(name, 0.0) for rec in records]
    except KeyError:  # indexing, not _require_field: this runs per point
        raise ParseError(f"line {line}: missing field {name!r}") from None
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


def _sweep_from_json(obj: dict, line: int) -> RadarSweep:
    records = _objects(obj, "points", line, "sweep")
    timestamp = _finite(obj, "timestamp", line, "sweep")
    columns = {
        column: _point_column(records, name, width, line)
        for column, name, width in (
            ("positions", "position", 3),
            ("velocities", "velocity", 2),
            ("rcs", "rcs", 0),
            ("sweep_ages", "sweep_age", 0),
        )
    }
    if (columns["sweep_ages"] < 0).any():
        raise ParseError(f"line {line}: radar point sweep_age must be >= 0")
    return RadarSweep(timestamp, **columns)


def _sweeps_from_json(record: dict, line: int) -> list[RadarSweep]:
    """The frame's sweeps, newest first: timestamps never increase, and each
    lies a finite time behind the newest (its points' sweep age)."""
    sweeps = [_sweep_from_json(s, line) for s in _objects(record, "radar_sweeps", line, "frame")]
    stamps = [s.timestamp for s in sweeps]
    if any(newer < older for newer, older in zip(stamps, stamps[1:])):
        raise ParseError(f"line {line}: frame radar_sweeps must be ordered newest first")
    if stamps and not math.isfinite(stamps[0] - stamps[-1]):
        raise ParseError(f"line {line}: frame radar_sweeps must span a finite time")
    return sweeps


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


def _frame_from_json(record: dict, line: int) -> SceneFrame:
    ground_truth = None
    if record.get("ground_truth") is not None:
        ground_truth = [
            GroundTruth(
                box=_box3d_from_json(_object(g, "box", line, "ground truth"), line),
                class_id=_label(g, "class_id", line, "ground truth"),
                attribute=_label(g, "attribute", line, "ground truth", default=0),
            )
            for g in _objects(record, "ground_truth", line, "frame")
        ]
    frame_id = _integer(record, "frame_id", line, "frame")
    camera = _camera_from_json(_object(record, "camera", line, "frame"), line)
    radar_sweeps = _sweeps_from_json(record, line)
    detections = [
        _detection_from_json(d, line) for d in _objects(record, "detections", line, "frame")
    ]
    for det in detections:
        _check_detection_fits(det, camera, line)
    return SceneFrame(frame_id, camera, radar_sweeps, detections, ground_truth)


def _read_lines(path: str, schema: str) -> list[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records = []
    for number, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            record = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise ParseError(f"line {number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ParseError(f"line {number}: expected a JSON object")
        records.append((number, record))
    if not records:
        raise ParseError(f"{path}: empty file, expected a schema header")
    header_line, header = records[0]
    if header.get("schema") != schema:
        raise ParseError(
            f"line {header_line}: expected schema {schema!r}, got {header.get('schema')!r}"
        )
    if header.get("version") != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: schema version {header.get('version')}, expected {SCHEMA_VERSION}"
        )
    return records[1:]


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
    frames, seen = [], set()
    for line, record in _read_lines(path, SCENE_SCHEMA):
        frames.append(_frame_from_json(record, line))
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
    results, seen = [], set()
    for line, record in _read_lines(path, DETECTIONS_SCHEMA):
        frame_id = _integer(record, "frame_id", line, "frame")
        _claim_frame_id(seen, frame_id, line)
        boxes = []
        for rec in _objects(record, "boxes", line, "frame"):
            boxes.append(
                DetectionBox3D(
                    box=_box3d_from_json(_object(rec, "box", line, "box"), line),
                    class_id=_label(rec, "class_id", line, "box"),
                    score=float(_finite(rec, "score", line, "box")),
                    attribute=_label(rec, "attribute", line, "box", default=0),
                )
            )
        results.append((frame_id, boxes))
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


def _noiseless_detection(
    camera: CameraModel, gt: GroundTruth, log_sigma: float
) -> PreliminaryDetection:
    """Exact detection record for a planted box (used for frustum checks)."""
    center_px, depth = project_point(camera, gt.box.center)
    return PreliminaryDetection(
        class_id=gt.class_id,
        score=1.0,
        bbox2d=project_box_to_bbox2d(camera, gt.box),
        projected_center=center_px,
        depth=depth,
        log_sigma=log_sigma,
        box3d=gt.box,
        attribute=gt.attribute,
    )


def _detection_from_box(
    rng: np.random.Generator, cfg: SynthConfig, camera: CameraModel, gt: GroundTruth
) -> PreliminaryDetection:
    bbox = project_box_to_bbox2d(camera, gt.box)
    if cfg.bbox_jitter > 0:
        width, height = cfg.image_size
        jitter = rng.normal(0.0, cfg.bbox_jitter, size=4)
        bbox = Box2D(
            min(max(bbox.x_min + jitter[0], 0.0), width),
            min(max(bbox.y_min + jitter[1], 0.0), height),
            min(max(bbox.x_max + abs(jitter[2]), 0.0), width),
            min(max(bbox.y_max + abs(jitter[3]), 0.0), height),
        )
    center_px, depth = project_point(camera, gt.box.center)
    if cfg.depth_noise > 0:
        depth = max(depth + rng.normal(0.0, cfg.depth_noise), 1.0)
    return PreliminaryDetection(
        class_id=gt.class_id,
        score=float(rng.uniform(0.5, 1.0)),
        bbox2d=bbox,
        projected_center=center_px,
        depth=depth,
        log_sigma=cfg.log_sigma,
        box3d=Box3D(
            center=gt.box.center.copy(),
            dims=gt.box.dims.copy(),
            yaw=gt.box.yaw,
            velocity=gt.box.velocity.copy(),
        ),
        attribute=gt.attribute,
    )


def _sample_object_points(
    rng: np.random.Generator,
    cfg: SynthConfig,
    camera: CameraModel,
    gt: GroundTruth,
    noiseless_det: PreliminaryDetection,
) -> list[RadarPoint]:
    """Radar returns on the box faces visible from the sensor.

    Every emitted point is checked against the object's own (noiseless)
    frustum so that noise-free scenes are exactly recoverable; points that
    keep falling outside fall back to the box's BEV center.
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
    frustum = build_frustum(noiseless_det, camera)
    pillar_half = 0.5 * np.asarray(DEFAULT_PILLAR_DIMS)

    count = int(rng.integers(cfg.points_per_object_min, cfg.points_per_object_max + 1))
    points = []
    for _ in range(count):
        point = None
        for _ in range(50):
            normal, face_center, axis, half_len = visible[int(rng.integers(len(visible)))]
            offset = rng.uniform(-half_len, half_len)
            bev = face_center + offset * axis
            position = np.array([bev[0], bev[1], 0.0])
            if cfg.position_noise > 0:
                position[:2] += rng.normal(0.0, cfg.position_noise, size=2)
            candidate = RadarPoint(
                position=position,
                velocity=_radial_velocity(position, box.velocity)
                + (rng.normal(0.0, cfg.velocity_noise, size=2) if cfg.velocity_noise > 0 else 0.0),
                rcs=float(rng.uniform(-5.0, 15.0)),
            )
            if frustum_contains(frustum, Pillar(candidate, pillar_half)):
                point = candidate
                break
        if point is None:
            position = np.array([center_bev[0], center_bev[1], 0.0])
            point = RadarPoint(
                position=position,
                velocity=_radial_velocity(position, box.velocity),
                rcs=float(rng.uniform(-5.0, 15.0)),
            )
        points.append(point)
    return points


def _sample_clutter(rng: np.random.Generator, cfg: SynthConfig) -> list[RadarPoint]:
    area = (35.0 - -35.0) * (58.0 - 2.0)
    count = int(round(cfg.clutter_density * area))
    points = []
    for _ in range(count):
        position = np.array([rng.uniform(-35.0, 35.0), rng.uniform(2.0, 58.0), 0.0])
        points.append(
            RadarPoint(
                position=position,
                velocity=rng.uniform(-2.0, 2.0, size=2),
                rcs=float(rng.uniform(-5.0, 15.0)),
            )
        )
    return points


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

        detections = []
        all_points = []
        for gt in ground_truth:
            noiseless = _noiseless_detection(camera, gt, cfg.log_sigma)
            all_points.extend(_sample_object_points(rng, cfg, camera, gt, noiseless))
            detections.append(_detection_from_box(rng, cfg, camera, gt))
        all_points.extend(_sample_clutter(rng, cfg))

        # Points are dealt round-robin: point i goes to sweep i % n_sweeps.
        base_time = frame_id * 0.5
        sweeps = [
            RadarSweep.from_points(base_time - 0.1 * i, all_points[i :: cfg.n_sweeps])
            for i in range(cfg.n_sweeps)
        ]

        frames.append(
            SceneFrame(
                frame_id=frame_id,
                camera=camera,
                radar_sweeps=sweeps,
                detections=detections,
                ground_truth=ground_truth,
            )
        )
    return frames
