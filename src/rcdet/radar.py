"""Radar preprocessing and frustum-based association.

The association stage turns a radar point cloud plus image-stage preliminary
detections into one point cluster per detection: each detection spawns a
frustum-shaped region of interest (its 2D box extruded over a depth gate
around the estimated depth), points are expanded into fixed-size pillars to
compensate for the missing elevation measurement, and a point joins a cluster
when any of its pillar's corners (or its center) projects into the box while
the point's camera depth falls inside the gate. Points matching no frustum
are clutter and are dropped.

``associate`` (vectorized) and ``associate_naive`` (reference double loop)
implement the identical contract and must produce bit-identical clusters;
both therefore evaluate the projection with the same fixed left-to-right
component arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidDetection
from .geometry import MIN_CAMERA_DEPTH, Box2D, Box3D, CameraModel

DEFAULT_PILLAR_DIMS = (0.2, 0.2, 1.5)
DEFAULT_MIN_RANGE = 1.0
DEFAULT_MAX_RANGE = 60.0
DEFAULT_MAX_SWEEPS = 6
DEPTH_GATE_FLOOR = 0.5


@dataclass(eq=False)
class RadarPoint:
    """One radar return: ego-frame position, compensated BEV velocity, RCS.

    ``velocity`` is the ego-motion-compensated radial velocity re-expanded as
    a BEV vector (v_x, v_y). ``sweep_age`` is seconds since the newest sweep.
    """

    position: np.ndarray
    velocity: np.ndarray
    rcs: float = 0.0
    sweep_age: float = 0.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(2)
        # math.isfinite over plain floats: a fraction of np.isfinite's call
        # overhead, which every parsed and every accumulated point pays.
        numbers = (*self.position.tolist(), *self.velocity.tolist(), self.rcs, self.sweep_age)
        if not all(map(math.isfinite, numbers)):
            bad = next(i for i, x in enumerate(numbers) if not math.isfinite(x))
            name = ("position",) * 3 + ("velocity",) * 2 + ("rcs", "sweep_age")
            raise ValueError(f"radar point {name[bad]} must be finite")
        if self.sweep_age < 0:
            raise ValueError(f"sweep_age must be >= 0, got {self.sweep_age}")


@dataclass(eq=False)
class RadarSweep:
    """A timestamped radar sweep as float64 columns, one row per return.

    ``positions`` (N, 3) are already registered to the current ego frame;
    ``velocities`` (N, 2), ``rcs`` (N,) and ``sweep_ages`` (N,) follow
    :class:`RadarPoint`'s fields. The columns are the only storage: ``points``
    builds :class:`RadarPoint` objects from them on each access. Each column
    is the sweep's own read-only copy, so a point's ``position`` and
    ``velocity``, which are views of a row, cannot change the sweep.
    """

    timestamp: float
    positions: np.ndarray
    velocities: np.ndarray
    rcs: np.ndarray
    sweep_ages: np.ndarray

    def __post_init__(self) -> None:
        self.timestamp = float(self.timestamp)
        if not math.isfinite(self.timestamp):
            raise ValueError("radar sweep timestamp must be finite")
        n = len(self.positions)
        for name, shape in (
            ("positions", (n, 3)), ("velocities", (n, 2)), ("rcs", (n,)), ("sweep_ages", (n,))
        ):
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.shape != shape:
                raise ValueError(f"radar sweep {name} must have shape {shape}, got {column.shape}")
            if not np.isfinite(column).all():
                raise ValueError(f"radar sweep {name} must be finite")
            column.flags.writeable = False
            setattr(self, name, column)
        if (self.sweep_ages < 0).any():
            raise ValueError("radar sweep sweep_ages must be >= 0")

    @classmethod
    def from_points(cls, timestamp: float, points: Sequence[RadarPoint]) -> RadarSweep:
        """The sweep whose rows are ``points``, in order."""
        return cls(
            timestamp,
            positions=np.array([p.position for p in points]).reshape(-1, 3),
            velocities=np.array([p.velocity for p in points]).reshape(-1, 2),
            rcs=[p.rcs for p in points],
            sweep_ages=[p.sweep_age for p in points],
        )

    @property
    def points(self) -> list[RadarPoint]:
        """The rows as new :class:`RadarPoint` objects, in order."""
        return [
            RadarPoint(position, velocity, rcs, age)
            for position, velocity, rcs, age in zip(
                self.positions, self.velocities, self.rcs.tolist(), self.sweep_ages.tolist()
            )
        ]


@dataclass(eq=False)
class Pillar:
    """Fixed-size 3D expansion of a radar point, centered on the point."""

    source: RadarPoint
    half_extents: np.ndarray = field(
        default_factory=lambda: 0.5 * np.asarray(DEFAULT_PILLAR_DIMS)
    )

    def __post_init__(self) -> None:
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        if not np.all(self.half_extents >= 0):
            raise ValueError("pillar half extents must be non-negative")

    @property
    def center(self) -> np.ndarray:
        return self.source.position

    def corners(self) -> np.ndarray:
        """The 8 axis-aligned corners, shape (8, 3)."""
        return self.source.position + _CORNER_SIGNS * self.half_extents


_CORNER_SIGNS = np.array(
    [(sx, sy, sz) for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
)


@dataclass(eq=False)
class PreliminaryDetection:
    """Image-stage detection: the first-stage box plus its regression outputs.

    ``depth`` and ``log_sigma`` are the estimated center depth and the log
    standard deviation of that estimate. ``attribute`` carries the predicted
    attribute label through to decoding (one value per field, as in the
    detections file format).
    """

    class_id: int
    score: float
    bbox2d: Box2D
    projected_center: np.ndarray
    depth: float
    log_sigma: float
    box3d: Box3D
    attribute: int = 0

    def __post_init__(self) -> None:
        self.projected_center = np.asarray(
            self.projected_center, dtype=np.float64
        ).reshape(2)
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.depth <= 0:
            raise ValueError(f"estimated depth must be positive, got {self.depth}")


@dataclass(eq=False)
class FrustumROI:
    """Frustum region of interest: expanded 2D box x depth gate [d_min, d_max]."""

    bbox2d: Box2D
    depth_range: tuple[float, float]
    camera: CameraModel

    def __post_init__(self) -> None:
        d_min, d_max = self.depth_range
        if not 0 < d_min < d_max:
            raise ValueError(f"depth range must satisfy 0 < d_min < d_max, got {self.depth_range}")


@dataclass(eq=False)
class Cluster:
    """A preliminary detection together with its associated radar points."""

    detection: PreliminaryDetection
    members: list[RadarPoint]

    @property
    def member_count(self) -> int:
        return len(self.members)

    def positions(self) -> np.ndarray:
        """Member positions stacked as (N, 3); empty clusters give (0, 3)."""
        if not self.members:
            return np.zeros((0, 3))
        return np.stack([p.position for p in self.members])

    def velocities(self) -> np.ndarray:
        if not self.members:
            return np.zeros((0, 2))
        return np.stack([p.velocity for p in self.members])


def accumulate_sweeps(
    sweeps: Sequence[RadarSweep], max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> list[RadarPoint]:
    """The rows of the newest ``max_sweeps`` sweeps as points, stamped with
    their sweep's age.

    ``sweeps`` must be ordered newest-first. A point's age is the newest
    sweep's timestamp minus its own sweep's, whatever ``sweep_ages`` the
    sweep holds; positions are assumed pre-registered to the current ego
    frame by the data producer. One :class:`RadarPoint` is built per kept
    row, straight from the columns. Fewer sweeps than the cap is fine.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    kept = sweeps[:max_sweeps]
    if not kept:
        return []
    newest = kept[0].timestamp
    out: list[RadarPoint] = []
    for sweep in kept:
        age = newest - sweep.timestamp
        out.extend(
            RadarPoint(position, velocity, rcs, age)
            for position, velocity, rcs in zip(
                sweep.positions, sweep.velocities, sweep.rcs.tolist()
            )
        )
    return out


def range_filter(
    points: Sequence[RadarPoint],
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
) -> list[RadarPoint]:
    """Keep points whose BEV range lies in [min_range, max_range] (inclusive)."""
    out = []
    for point in points:
        x, y = float(point.position[0]), float(point.position[1])
        rng = math.sqrt(x * x + y * y)
        if min_range <= rng <= max_range:
            out.append(point)
    return out


def pillar_expand(
    point: RadarPoint, pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS
) -> Pillar:
    """Expand a radar point into a pillar centered on it."""
    dims = np.asarray(pillar_dims, dtype=np.float64).reshape(3)
    if not np.all(dims >= 0):
        raise ValueError("pillar dims must be non-negative")
    return Pillar(source=point, half_extents=0.5 * dims)


def build_frustum(
    det: PreliminaryDetection, camera: CameraModel, expansion: float = 1.0
) -> FrustumROI:
    """Frustum ROI for a detection: expanded 2D box plus a depth gate.

    The gate half-extent comes from the box footprint seen along the camera
    ray through the box center: with theta the yaw relative to that ray,
    delta = expansion * 0.5 * (|l cos theta| + |w sin theta|), floored at
    0.5 m. The near plane is clamped to stay positive.
    """
    if expansion < 1.0:
        raise ValueError(f"expansion must be >= 1, got {expansion}")
    cam_pos = camera.center_in_ego()
    ray_x = float(det.box3d.center[0]) - float(cam_pos[0])
    ray_y = float(det.box3d.center[1]) - float(cam_pos[1])
    ray_angle = math.atan2(ray_y, ray_x)
    theta = det.box3d.yaw - ray_angle
    width, length = float(det.box3d.dims[0]), float(det.box3d.dims[1])
    delta = expansion * 0.5 * (
        abs(length * math.cos(theta)) + abs(width * math.sin(theta))
    )
    delta = max(delta, DEPTH_GATE_FLOOR)
    if det.depth <= DEPTH_GATE_FLOOR:
        raise InvalidDetection(
            f"estimated depth {det.depth:.3g} m is inside the gate floor; "
            f"the frustum would cross the camera"
        )
    d_min = max(det.depth - delta, MIN_CAMERA_DEPTH)
    d_max = det.depth + delta
    return FrustumROI(
        bbox2d=det.bbox2d.scaled(expansion), depth_range=(d_min, d_max), camera=camera
    )


def frustum_contains(frustum: FrustumROI, pillar: Pillar) -> bool:
    """Membership test used by the naive path: scalar math, one pillar at a time.

    A pillar is inside when any of its 8 corners or its center projects into
    the frustum's 2D box (corner must be in front of the camera) and the
    *point's* camera-frame depth lies inside the depth gate, bounds inclusive.
    """
    camera = frustum.camera
    ext = camera.extrinsic
    k = camera.intrinsic
    px, py, pz = (float(v) for v in pillar.center)
    center_depth = ext[2, 0] * px + ext[2, 1] * py + ext[2, 2] * pz + ext[2, 3]
    d_min, d_max = frustum.depth_range
    if not d_min <= center_depth <= d_max:
        return False
    box = frustum.bbox2d
    hx, hy, hz = (float(v) for v in pillar.half_extents)
    for sx, sy, sz in _SAMPLE_SIGNS:
        x = px + sx * hx
        y = py + sy * hy
        z = pz + sz * hz
        cx = ext[0, 0] * x + ext[0, 1] * y + ext[0, 2] * z + ext[0, 3]
        cy = ext[1, 0] * x + ext[1, 1] * y + ext[1, 2] * z + ext[1, 3]
        cz = ext[2, 0] * x + ext[2, 1] * y + ext[2, 2] * z + ext[2, 3]
        if cz <= MIN_CAMERA_DEPTH:
            continue
        u = (k[0, 0] * cx + k[0, 1] * cy + k[0, 2] * cz) / cz
        v = (k[1, 0] * cx + k[1, 1] * cy + k[1, 2] * cz) / cz
        if box.x_min <= u <= box.x_max and box.y_min <= v <= box.y_max:
            return True
    return False


# Center first, then the 8 pillar corners; shared by both association paths.
_SAMPLE_SIGNS = np.vstack([np.zeros((1, 3)), _CORNER_SIGNS])


def associate(
    points: Sequence[RadarPoint],
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS,
    expansion: float = 1.0,
) -> list[Cluster]:
    """Vectorized frustum association: one cluster per detection.

    A point may belong to several overlapping frustums; points inside none
    are discarded as clutter. Cluster member order follows input point order.
    """
    if not dets:
        return []
    if not points:
        return [Cluster(det, []) for det in dets]

    half = 0.5 * np.asarray(pillar_dims, dtype=np.float64).reshape(3)
    positions = np.stack([p.position for p in points])  # (N, 3)
    samples = positions[:, None, :] + _SAMPLE_SIGNS[None, :, :] * half  # (N, 9, 3)

    # Componentwise left-to-right arithmetic: bit-identical to the scalar path.
    ext = camera.extrinsic
    k = camera.intrinsic
    sx, sy, sz = samples[..., 0], samples[..., 1], samples[..., 2]
    cam_x = ext[0, 0] * sx + ext[0, 1] * sy + ext[0, 2] * sz + ext[0, 3]
    cam_y = ext[1, 0] * sx + ext[1, 1] * sy + ext[1, 2] * sz + ext[1, 3]
    cam_z = ext[2, 0] * sx + ext[2, 1] * sy + ext[2, 2] * sz + ext[2, 3]
    in_front = cam_z > MIN_CAMERA_DEPTH
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = (k[0, 0] * cam_x + k[0, 1] * cam_y + k[0, 2] * cam_z) / cam_z
        v = (k[1, 0] * cam_x + k[1, 1] * cam_y + k[1, 2] * cam_z) / cam_z
    center_depth = cam_z[:, 0]

    clusters = []
    for det in dets:
        frustum = build_frustum(det, camera, expansion)
        d_min, d_max = frustum.depth_range
        box = frustum.bbox2d
        inside = (
            in_front
            & (u >= box.x_min)
            & (u <= box.x_max)
            & (v >= box.y_min)
            & (v <= box.y_max)
        )
        member = inside.any(axis=1) & (center_depth >= d_min) & (center_depth <= d_max)
        clusters.append(Cluster(det, [points[i] for i in np.flatnonzero(member)]))
    return clusters


def associate_naive(
    points: Sequence[RadarPoint],
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS,
    expansion: float = 1.0,
) -> list[Cluster]:
    """Reference association: unbatched per-point, per-detection double loop."""
    pillars = [pillar_expand(point, pillar_dims) for point in points]
    clusters = []
    for det in dets:
        frustum = build_frustum(det, camera, expansion)
        members = [
            pillar.source for pillar in pillars if frustum_contains(frustum, pillar)
        ]
        clusters.append(Cluster(det, members))
    return clusters
