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

``cluster_sweeps`` runs a frame's whole front end (accumulate, range gate,
associate) on the sweeps' columns and builds a :class:`RadarPoint` only for
a clustered return, one object shared by every cluster it joins.
``accumulate_sweeps``, ``range_filter`` and ``associate`` are the same
kernels with point lists at their edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidDetection, check_finite, check_number
from .geometry import MIN_CAMERA_DEPTH, Box2D, Box3D, CameraModel

DEFAULT_PILLAR_DIMS = (0.2, 0.2, 1.5)
DEFAULT_MIN_RANGE = 1.0
DEFAULT_MAX_RANGE = 60.0
DEFAULT_MAX_SWEEPS = 6
DEPTH_GATE_FLOOR = 0.5


_POINT_FIELDS = ("position",) * 3 + ("velocity",) * 2 + ("rcs", "sweep_age")


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
        # Every point built one at a time pays this check (synthetic scenes,
        # bench inputs); rows of checked sweep columns skip this constructor
        # through _row_points.
        values = (*self.position.tolist(), *self.velocity.tolist(), self.rcs, self.sweep_age)
        check_finite("radar point", _POINT_FIELDS, values)
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
        return _row_points(self.positions, self.velocities, self.rcs, self.sweep_ages)


def _row_points(
    positions: np.ndarray, velocities: np.ndarray, rcs: np.ndarray, ages: np.ndarray
) -> list[RadarPoint]:
    """One :class:`RadarPoint` per row of already-checked columns.

    The points skip ``__post_init__``: their ``position`` and ``velocity``
    are row views, and ``rcs``/``sweep_age`` plain floats, exactly what the
    checked constructor would have stored. Those two columns are made
    read-only, as the sweep's own are, so no point can change another.
    """
    positions.flags.writeable = velocities.flags.writeable = False
    new = object.__new__
    out = []
    for position, velocity, r, age in zip(positions, velocities, rcs.tolist(), ages.tolist()):
        point = new(RadarPoint)
        point.position = position
        point.velocity = velocity
        point.rcs = r
        point.sweep_age = age
        out.append(point)
    return out


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
        check_finite("detection", ("depth", "log_sigma"), (self.depth, self.log_sigma))
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


def canonical_members(clusters: Sequence[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster's members as C-ordered rows (x, y, z, v_x, v_y), each
    cluster's sorted lexicographically by all five values, and the segment
    bounds: cluster s owns rows ``bounds[s]:bounds[s + 1]``. A slice reduced
    in row order thus has the same bits under any member permutation.
    """
    members = [point for cluster in clusters for point in cluster.members]
    positions = np.array([p.position for p in members]).reshape(-1, 3)
    rows = np.hstack([positions, np.array([p.velocity for p in members]).reshape(-1, 2)])
    counts = [cluster.member_count for cluster in clusters]
    segments = np.repeat(np.arange(len(clusters)), counts)
    order = np.lexsort((*rows.T[::-1], segments))
    return rows[order], np.cumsum([0, *counts])


def _accumulated_columns(
    sweeps: Sequence[RadarSweep], max_sweeps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the newest ``max_sweeps`` sweeps as new columns
    (positions, velocities, rcs, ages), each row aged by its sweep.

    A sweep's age is checked once, for the sweep, with the texts the point
    constructor uses for one row; a sweep with no rows makes no point, so
    its age is not checked.
    """
    check_number("max_sweeps", max_sweeps, integer=True, low=1)
    kept = [sweep for sweep in sweeps[:max_sweeps] if len(sweep.rcs)]
    if not kept:
        return np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0), np.zeros(0)
    newest = sweeps[0].timestamp
    ages = [newest - sweep.timestamp for sweep in kept]
    for age in ages:
        if not math.isfinite(age):
            raise ValueError("radar point sweep_age must be finite")
        if age < 0:
            raise ValueError(f"sweep_age must be >= 0, got {age}")
    return (
        np.concatenate([sweep.positions for sweep in kept]),
        np.concatenate([sweep.velocities for sweep in kept]),
        np.concatenate([sweep.rcs for sweep in kept]),
        np.repeat(ages, [len(sweep.rcs) for sweep in kept]),
    )


def _in_range(positions: np.ndarray, min_range: float, max_range: float) -> np.ndarray:
    """The rows whose BEV range lies in [min_range, max_range], as a mask.

    ``sqrt(x*x + y*y)`` is correctly rounded in numpy as in ``math``, so a
    row's verdict is the scalar formula's. A square past float64's range is
    inf, as in ``math``, and so out of range, without a warning.
    """
    x, y = positions[:, 0], positions[:, 1]
    with np.errstate(over="ignore"):
        rng = np.sqrt(x * x + y * y)
    return (min_range <= rng) & (rng <= max_range)


def accumulate_sweeps(
    sweeps: Sequence[RadarSweep], max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> list[RadarPoint]:
    """The rows of the newest ``max_sweeps`` sweeps as points, stamped with
    their sweep's age.

    ``sweeps`` must be ordered newest-first. A point's age is the newest
    sweep's timestamp minus its own sweep's, whatever ``sweep_ages`` the
    sweep holds; positions are assumed pre-registered to the current ego
    frame by the data producer. Fewer sweeps than the cap is fine.
    """
    return _row_points(*_accumulated_columns(sweeps, max_sweeps))


def _stacked_positions(points: Sequence[RadarPoint]) -> np.ndarray:
    return np.array([p.position for p in points], dtype=np.float64).reshape(-1, 3)


def range_filter(
    points: Sequence[RadarPoint],
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
) -> list[RadarPoint]:
    """Keep points whose BEV range lies in [min_range, max_range] (inclusive)."""
    keep = _in_range(_stacked_positions(points), min_range, max_range)
    return [points[i] for i in np.flatnonzero(keep).tolist()]


def _pillar_half_extents(pillar_dims: Sequence[float]) -> np.ndarray:
    dims = np.asarray(pillar_dims, dtype=np.float64).reshape(3)
    if not (np.isfinite(dims).all() and (dims >= 0).all()):
        raise ValueError("pillar dims must be finite and non-negative")
    return 0.5 * dims


def pillar_expand(
    point: RadarPoint, pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS
) -> Pillar:
    """Expand a radar point into a pillar centered on it."""
    return Pillar(source=point, half_extents=_pillar_half_extents(pillar_dims))


def build_frustum(
    det: PreliminaryDetection, camera: CameraModel, expansion: float = 1.0
) -> FrustumROI:
    """Frustum ROI for a detection: expanded 2D box plus a depth gate.

    The gate half-extent comes from the box footprint seen along the camera
    ray through the box center: with theta the yaw relative to that ray,
    delta = expansion * 0.5 * (|l cos theta| + |w sin theta|), floored at
    0.5 m. The near plane is clamped to stay positive.
    """
    return _frustum(det, camera, check_number("expansion", expansion, low=1.0))


def _frustum(det: PreliminaryDetection, camera: CameraModel, expansion: float) -> FrustumROI:
    """:func:`build_frustum` of a checked ``expansion``."""
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


def _member_rows(
    positions: np.ndarray,
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float],
    expansion: float,
) -> list[np.ndarray]:
    """Each detection's member rows of ``positions`` (N, 3), in row order.

    The 9 pillar samples of every row are projected once; a detection then
    box-tests only the rows whose center depth passes its gate.
    """
    half = _pillar_half_extents(pillar_dims)
    check_number("expansion", expansion, low=1.0)
    if not (len(dets) and len(positions)):
        return [np.zeros(0, dtype=np.intp) for _ in dets]
    # One contiguous (N, 9) plane per coordinate: row + sample offset.
    offsets = (_SAMPLE_SIGNS * half).T
    sx, sy, sz = (positions[:, c, None] + offsets[c] for c in range(3))

    # Componentwise left-to-right arithmetic: bit-identical to the scalar path.
    ext = camera.extrinsic
    k = camera.intrinsic
    cam_x = ext[0, 0] * sx + ext[0, 1] * sy + ext[0, 2] * sz + ext[0, 3]
    cam_y = ext[1, 0] * sx + ext[1, 1] * sy + ext[1, 2] * sz + ext[1, 3]
    cam_z = ext[2, 0] * sx + ext[2, 1] * sy + ext[2, 2] * sz + ext[2, 3]
    in_front = cam_z > MIN_CAMERA_DEPTH
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = (k[0, 0] * cam_x + k[0, 1] * cam_y + k[0, 2] * cam_z) / cam_z
        v = (k[1, 0] * cam_x + k[1, 1] * cam_y + k[1, 2] * cam_z) / cam_z
    center_depth = cam_z[:, 0]

    rows = []
    for det in dets:
        frustum = _frustum(det, camera, expansion)
        d_min, d_max = frustum.depth_range
        box = frustum.bbox2d
        gated = np.flatnonzero((center_depth >= d_min) & (center_depth <= d_max))
        cu, cv = u[gated], v[gated]
        inside = (
            in_front[gated]
            & (cu >= box.x_min)
            & (cu <= box.x_max)
            & (cv >= box.y_min)
            & (cv <= box.y_max)
        )
        rows.append(gated[inside.any(axis=1)])
    return rows


def cluster_sweeps(
    sweeps: Sequence[RadarSweep],
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
    pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS,
    expansion: float = 1.0,
) -> list[Cluster]:
    """A frame's radar front end in one pass over its sweep columns:
    ``associate(range_filter(accumulate_sweeps(...)))``, with the same
    clusters and members.

    Only clustered rows become :class:`RadarPoint` objects, one per row,
    shared by every cluster the row joins.
    """
    positions, velocities, rcs, ages = _accumulated_columns(sweeps, max_sweeps)
    gated = np.flatnonzero(_in_range(positions, min_range, max_range))
    rows = _member_rows(positions[gated], dets, camera, pillar_dims, expansion)
    members = [gated[r] for r in rows]
    clustered = np.zeros(len(positions), dtype=bool)
    for m in members:
        clustered[m] = True
    clustered = np.flatnonzero(clustered)
    columns = [column[clustered] for column in (positions, velocities, rcs, ages)]
    point_of = dict(zip(clustered.tolist(), _row_points(*columns)))
    return [Cluster(det, [point_of[i] for i in m.tolist()]) for det, m in zip(dets, members)]


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
    rows = _member_rows(_stacked_positions(points), dets, camera, pillar_dims, expansion)
    return [Cluster(det, [points[i] for i in r.tolist()]) for det, r in zip(dets, rows)]


def associate_naive(
    points: Sequence[RadarPoint],
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS,
    expansion: float = 1.0,
) -> list[Cluster]:
    """Reference association: unbatched per-point, per-detection double loop."""
    # Bad settings fail here too when there are no points or no detections.
    _pillar_half_extents(pillar_dims)
    check_number("expansion", expansion, low=1.0)
    pillars = [pillar_expand(point, pillar_dims) for point in points]
    clusters = []
    for det in dets:
        frustum = _frustum(det, camera, expansion)
        members = [
            pillar.source for pillar in pillars if frustum_contains(frustum, pillar)
        ]
        clusters.append(Cluster(det, members))
    return clusters
