"""Radar preprocessing and frustum-based association.

The association stage turns a radar point cloud plus image-stage preliminary
detections into one point cluster per detection: each detection spawns a
frustum-shaped region of interest (its 2D box extruded over a depth gate
around the estimated depth), points are expanded into fixed-size pillars to
compensate for the missing elevation measurement, and a point joins a cluster
when any of its pillar's corners (or its center) projects into the box while
the point's camera depth falls inside the gate. A pillar is only those 9
samples (``_SAMPLE_SIGNS``); no object is built for it. Points matching no
frustum are clutter and are dropped.

``associate`` (vectorized) and ``associate_naive`` (reference double loop)
implement the identical contract and must produce bit-identical clusters;
both therefore evaluate the projection with the same fixed left-to-right
component arithmetic.

Every set of radar returns is one row table: a read-only float64 array of
shape (n, 7) whose columns are x, y, z, v_x, v_y, rcs and sweep age. A
sweep, a frame's accumulated rows and a member store each hold one.
``_point_table`` turns :class:`RadarPoint` objects into a table,
``_row_points`` turns a table into points and ``_table_sweeps`` cuts a
checked table into sweeps.

``cluster_sweeps`` runs a frame's whole front end (accumulate, range gate,
associate) on the sweeps' tables. Its clusters share one member store, the
clustered rows, and each holds its members as row indices into it; it
builds no :class:`RadarPoint`. ``accumulate_sweeps``, ``range_filter`` and
``associate`` are the same kernels with point lists at their edges.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from dataclasses import dataclass
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
    Every field holds real numbers, not bools, and finite ones; a bad field
    raises ``ValueError`` naming it.
    """

    position: np.ndarray
    velocity: np.ndarray
    rcs: float = 0.0
    sweep_age: float = 0.0

    def __post_init__(self) -> None:
        self.position = _point_vector("position", self.position, 3)
        self.velocity = _point_vector("velocity", self.velocity, 2)
        self.rcs = _point_number("rcs", self.rcs)
        self.sweep_age = _point_number("sweep_age", self.sweep_age)
        # Every point a caller builds one at a time pays these checks;
        # rows of checked sweep columns skip this constructor through
        # _row_points, and the synthetic generator runs the finite check on
        # its rows without building a point.
        values = (*self.position.tolist(), *self.velocity.tolist(), self.rcs, self.sweep_age)
        check_finite("radar point", _POINT_FIELDS, values)
        if self.sweep_age < 0:
            raise ValueError(f"sweep_age must be >= 0, got {self.sweep_age}")


def _number_array(what: str, value) -> np.ndarray:
    """``value`` as an array of real numbers; bools, strings, None, complex,
    integers beyond float64 and ragged lists raise ``ValueError`` naming
    ``what``, such as ``radar sweep rcs must be an array of numbers``."""
    try:
        array = np.asarray(value)
        # numpy reads a list mixing bools into numbers as numbers.
        numeric = array.dtype.kind in "iuf" and (
            isinstance(value, np.ndarray)
            or not any(isinstance(x, (bool, np.bool_)) for x in np.asarray(value, object).flat)
        )
    except ValueError:  # a ragged list
        numeric = False
    if not numeric:
        raise ValueError(f"{what} must be an array of numbers")
    return array


def _point_vector(name: str, value, size: int) -> np.ndarray:
    """A point's ``name`` field as a float64 vector of ``size`` numbers, by
    :func:`_number_array`'s rule; a wrong size raises ``ValueError``."""
    array = _number_array(f"radar point {name}", value)
    if array.size != size:
        raise ValueError(f"radar point {name} must hold {size} numbers, got shape {array.shape}")
    return np.asarray(array, dtype=np.float64).reshape(size)


def _point_number(name: str, value) -> float:
    """A point's ``name`` field as a float: a real number, not a bool; an
    integer beyond float64 becomes inf, which the finite check then names."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"radar point {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


# Each column of a sweep's row table: (attribute, shape after the row count,
# the table columns it fills), in the order its checks run.
_SWEEP_COLUMNS = (
    ("positions", (3,), slice(0, 3)),
    ("velocities", (2,), slice(3, 5)),
    ("rcs", (), 5),
    ("sweep_ages", (), 6),
)


@dataclass(eq=False)
class RadarSweep:
    """A timestamped radar sweep as one row table, one row per return.

    ``positions`` (N, 3) are already registered to the current ego frame;
    ``velocities`` (N, 2), ``rcs`` (N,) and ``sweep_ages`` (N,) follow
    :class:`RadarPoint`'s fields. The given columns are copied into
    ``table`` (N, 7), the only storage, and the four attributes are its
    read-only views; ``points`` builds :class:`RadarPoint` objects from it on
    each access. So a point's ``position`` and ``velocity``, and the caller's
    arrays, cannot change the sweep.

    The timestamp must be a real number (not a bool) and each column an
    array of real numbers of its shape, with no bool in it, as in
    :class:`RadarPoint`; then one pass checks that the whole table is finite
    and names the first column, in the order above, that is not. A sweep
    pickles as its timestamp and ``table``. The scene reader and the
    synthetic generator build their sweeps without this constructor
    (``_table_sweeps``): each holds a read-only row range of its frame's one
    table.
    """

    timestamp: float
    positions: np.ndarray
    velocities: np.ndarray
    rcs: np.ndarray
    sweep_ages: np.ndarray

    def __post_init__(self) -> None:
        stamp = self.timestamp
        if isinstance(stamp, bool) or not isinstance(stamp, numbers.Real):
            raise ValueError(f"radar sweep timestamp must be a number, got {stamp!r}")
        try:
            self.timestamp = float(stamp)
        except OverflowError:  # an integer beyond float64
            self.timestamp = math.inf
        if not math.isfinite(self.timestamp):
            raise ValueError("radar sweep timestamp must be finite")
        try:
            n = len(self.positions)
        except TypeError:  # a scalar or None
            raise ValueError("radar sweep positions must be an array of numbers") from None
        table = np.empty((n, 7))
        for name, shape, into in _SWEEP_COLUMNS:
            column = _number_array(f"radar sweep {name}", getattr(self, name))
            if column.shape != (n, *shape):
                raise ValueError(
                    f"radar sweep {name} must have shape {(n, *shape)}, got {column.shape}"
                )
            table[:, into] = column
        if not np.isfinite(table).all():
            bad = next(
                name for name, _, into in _SWEEP_COLUMNS if not np.isfinite(table[:, into]).all()
            )
            raise ValueError(f"radar sweep {bad} must be finite")
        if (table[:, 6] < 0).any():
            raise ValueError("radar sweep sweep_ages must be >= 0")
        # Frozen before the views are taken: a view keeps the flag it was
        # made with.
        table.flags.writeable = False
        self._hold(table)

    def _hold(self, table: np.ndarray) -> None:
        """Store the read-only row ``table`` and its four column views."""
        self.table = table
        self.positions, self.velocities = table[:, :3], table[:, 3:5]
        self.rcs, self.sweep_ages = table[:, 5], table[:, 6]

    def __reduce__(self):
        return RadarSweep._from_table, (self.timestamp, self.table)

    @classmethod
    def _from_table(cls, timestamp: float, table: np.ndarray) -> RadarSweep:
        """The sweep whose rows are those of the (N, 7) row ``table``."""
        return cls(timestamp, table[:, :3], table[:, 3:5], table[:, 5], table[:, 6])

    @classmethod
    def from_points(cls, timestamp: float, points: Sequence[RadarPoint]) -> RadarSweep:
        """The sweep whose rows are ``points``, in order."""
        return cls._from_table(timestamp, _point_table(points))

    @property
    def points(self) -> list[RadarPoint]:
        """The rows as new :class:`RadarPoint` objects, in order."""
        return _row_points(self.table)


def _point_table(points: Sequence[RadarPoint]) -> np.ndarray:
    """The row table of ``points``, one row per point, in order."""
    return np.column_stack([
        np.reshape([p.position for p in points], (-1, 3)),
        np.reshape([p.velocity for p in points], (-1, 2)),
        [p.rcs for p in points],
        [p.sweep_age for p in points],
    ])


def _table_sweeps(
    table: np.ndarray, stamps: Sequence[float], ends: Sequence[int]
) -> list[RadarSweep]:
    """One :class:`RadarSweep` per row range of an already-checked row
    ``table``: sweep ``i`` holds rows ``ends[i - 1]:ends[i]`` (from 0 for the
    first) and the finite float ``stamps[i]``.

    The sweeps skip ``__post_init__``: each holds a view of its rows, not a
    copy, with the column views the checked constructor would have made.
    The table is made read-only first, so no sweep can change another.
    """
    table.flags.writeable = False
    new = object.__new__
    out = []
    for stamp, start, end in zip(stamps, [0, *ends], ends):
        sweep = new(RadarSweep)
        sweep.timestamp = stamp
        sweep._hold(table[start:end])
        out.append(sweep)
    return out


def _row_points(table: np.ndarray) -> list[RadarPoint]:
    """One :class:`RadarPoint` per row of an already-checked row table.

    The points skip ``__post_init__``: their ``position`` and ``velocity``
    are views of the row, and ``rcs``/``sweep_age`` plain floats, exactly
    what the checked constructor would have stored. The table is made
    read-only first, so no point can change another or the table.
    """
    table.flags.writeable = False
    new = object.__new__
    out = []
    for position, velocity, (r, age) in zip(table[:, :3], table[:, 3:5], table[:, 5:].tolist()):
        point = new(RadarPoint)
        point.position = position
        point.velocity = velocity
        point.rcs = r
        point.sweep_age = age
        out.append(point)
    return out


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


def _column_detections(
    class_ids, scores, bboxes, centers, depths, log_sigmas, boxes, attributes
) -> list[PreliminaryDetection]:
    """One :class:`PreliminaryDetection` per index of already-checked
    columns: ints ``class_ids`` and ``attributes``, floats ``scores`` in
    [0, 1], positive ``depths`` and finite ``log_sigmas``, :class:`Box2D`
    ``bboxes`` and :class:`Box3D` ``boxes``, and an (n, 2) float64
    ``centers`` array of finite values.

    The detections skip ``__post_init__``: each ``projected_center`` is a
    view of its row, exactly what the checked constructor would have stored.
    """
    new = object.__new__
    out = []
    for values in zip(class_ids, scores, bboxes, centers, depths, log_sigmas, boxes, attributes):
        det = new(PreliminaryDetection)
        (
            det.class_id, det.score, det.bbox2d, det.projected_center,
            det.depth, det.log_sigma, det.box3d, det.attribute,
        ) = values
        out.append(det)
    return out


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


# Held while a store builds its points; building is pure Python under the
# GIL, so one lock for every store costs no parallelism.
_POINTS_LOCK = threading.Lock()


class _MemberStore:
    """Clustered rows as one read-only row ``table`` (n, 7).

    ``points()`` is the rows as :class:`RadarPoint` objects: the ones given,
    or else built from the table on first call, once, under a lock, so
    every caller and every cluster indexing a row gets the same object.
    """

    def __init__(self, table: np.ndarray, points: list[RadarPoint] | None = None) -> None:
        table.flags.writeable = False
        self.table = table
        self._points = points

    @classmethod
    def of_points(cls, points: Sequence[RadarPoint]) -> _MemberStore:
        """The store whose rows are ``points``, which it keeps as its objects."""
        points = list(points)
        return cls(_point_table(points), points)

    def points(self) -> list[RadarPoint]:
        if self._points is None:
            with _POINTS_LOCK:
                if self._points is None:
                    self._points = _row_points(self.table)
        return self._points


class Cluster:
    """A preliminary detection together with its associated radar points.

    The members are row indices into a member store (``_MemberStore``).
    ``Cluster(detection, points)`` turns ``points`` into a store of its own
    and keeps those objects; the clusters of ``cluster_sweeps`` share their
    frame's store. ``members`` gives the rows as a tuple of
    :class:`RadarPoint` objects, ``positions()`` and ``velocities()`` as
    arrays gathered from the store's table.

    The store copies the members' values when the cluster is built, and
    every feature reads that copy: changing a point afterwards does not
    change the cluster, and ``members`` is a tuple, so it cannot grow.
    """

    def __init__(self, detection: PreliminaryDetection, members: Sequence[RadarPoint]) -> None:
        self.detection = detection
        self._store = _MemberStore.of_points(members)
        self._rows = np.arange(len(self._store.table))

    @classmethod
    def _of_rows(
        cls, detection: PreliminaryDetection, store: _MemberStore, rows: np.ndarray
    ) -> Cluster:
        cluster = object.__new__(cls)
        cluster.detection = detection
        cluster._store = store
        cluster._rows = rows
        return cluster

    @property
    def members(self) -> tuple[RadarPoint, ...]:
        """The members as the store's shared objects, in row order."""
        points = self._store.points()
        return tuple(points[i] for i in self._rows.tolist())

    @property
    def member_count(self) -> int:
        return len(self._rows)

    def positions(self) -> np.ndarray:
        """Member positions as a new (N, 3) array; empty clusters give (0, 3)."""
        return self._store.table[self._rows, :3]

    def velocities(self) -> np.ndarray:
        return self._store.table[self._rows, 3:5]


def canonical_members(clusters: Sequence[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster's members as C-ordered rows (x, y, z, v_x, v_y), the
    first five columns of its store's table, each cluster's sorted
    lexicographically by all five values, and the segment bounds: cluster s
    owns rows ``bounds[s]:bounds[s + 1]``. A slice reduced in row order thus
    has the same bits under any member permutation.
    """
    gathered = [cluster._store.table[cluster._rows, :5] for cluster in clusters]
    rows = np.concatenate(gathered or [np.zeros((0, 5))])
    counts = [cluster.member_count for cluster in clusters]
    segments = np.repeat(np.arange(len(clusters)), counts)
    order = np.lexsort((*rows.T[::-1], segments))
    return rows[order], np.cumsum([0, *counts])


def _accumulated_table(sweeps: Sequence[RadarSweep], max_sweeps: int) -> np.ndarray:
    """The rows of the newest ``max_sweeps`` sweeps as a new row table, each
    row aged by its sweep.

    A sweep's age is checked once, for the sweep, with the texts the point
    constructor uses for one row; a sweep with no rows makes no point, so
    its age is not checked.
    """
    check_number("max_sweeps", max_sweeps, integer=True, low=1)
    kept = [sweep for sweep in sweeps[:max_sweeps] if len(sweep.table)]
    if not kept:
        return np.zeros((0, 7))
    newest = sweeps[0].timestamp
    ages = [newest - sweep.timestamp for sweep in kept]
    for age in ages:
        if not math.isfinite(age):
            raise ValueError("radar point sweep_age must be finite")
        if age < 0:
            raise ValueError(f"sweep_age must be >= 0, got {age}")
    table = np.concatenate([sweep.table for sweep in kept])
    table[:, 6] = np.repeat(ages, [len(sweep.table) for sweep in kept])
    return table


def _in_range(table: np.ndarray, min_range: float, max_range: float) -> np.ndarray:
    """The rows of a row table whose BEV range lies in [min_range,
    max_range], as a mask.

    ``sqrt(x*x + y*y)`` is correctly rounded in numpy as in ``math``, so a
    row's verdict is the scalar formula's. A square past float64's range is
    inf, as in ``math``, and so out of range, without a warning.
    """
    x, y = table[:, 0], table[:, 1]
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
    return _row_points(_accumulated_table(sweeps, max_sweeps))


def range_filter(
    points: Sequence[RadarPoint],
    min_range: float = DEFAULT_MIN_RANGE,
    max_range: float = DEFAULT_MAX_RANGE,
) -> list[RadarPoint]:
    """Keep points whose BEV range lies in [min_range, max_range] (inclusive)."""
    keep = _in_range(_point_table(points), min_range, max_range)
    return [points[i] for i in np.flatnonzero(keep).tolist()]


def _pillar_half_extents(pillar_dims: Sequence[float]) -> np.ndarray:
    dims = np.asarray(pillar_dims, dtype=np.float64).reshape(3)
    if not (np.isfinite(dims).all() and (dims >= 0).all()):
        raise ValueError("pillar dims must be finite and non-negative")
    return 0.5 * dims


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


def _pillar_in_frustum(frustum: FrustumROI, center, half_extents) -> bool:
    """Membership test of the naive path: scalar math, one pillar at a time.

    The pillar is the box of ``half_extents`` centered on ``center`` (x, y,
    z). It is inside when its center or any of its 8 corners projects into
    the frustum's 2D box (the sample must be in front of the camera) and the
    center's camera-frame depth lies inside the depth gate, bounds inclusive.
    """
    camera = frustum.camera
    ext = camera.extrinsic
    k = camera.intrinsic
    px, py, pz = (float(v) for v in center)
    center_depth = ext[2, 0] * px + ext[2, 1] * py + ext[2, 2] * pz + ext[2, 3]
    d_min, d_max = frustum.depth_range
    if not d_min <= center_depth <= d_max:
        return False
    box = frustum.bbox2d
    hx, hy, hz = (float(v) for v in half_extents)
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
_SAMPLE_SIGNS = np.array([(0.0, 0.0, 0.0), *itertools.product((1.0, -1.0), repeat=3)])

# Most gated (detection, row) pairs box-tested at once. A pair takes about
# 190 B of temporaries, so a group peaks near 12 MiB; seeded frames hold at
# most a few thousand pairs, one group.
_PAIR_BUDGET = 2**16


def _member_rows(
    table: np.ndarray,
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float],
    expansion: float,
) -> list[np.ndarray]:
    """Each detection's member rows of a row ``table``, in row order.

    The 9 pillar samples of every row are projected once. One (detections,
    rows) mask then holds every detection's depth gate, and only the gated
    (detection, row) pairs are box-tested, over groups of consecutive
    detections holding at most ``_PAIR_BUDGET`` pairs (or one detection's).
    """
    half = _pillar_half_extents(pillar_dims)
    check_number("expansion", expansion, low=1.0)
    if not (len(dets) and len(table)):
        return [np.zeros(0, dtype=np.intp) for _ in dets]
    # One contiguous (N, 9) plane per coordinate: row + sample offset.
    offsets = (_SAMPLE_SIGNS * half).T
    sx, sy, sz = (table[:, c, None] + offsets[c] for c in range(3))

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

    frusta = [_frustum(det, camera, expansion) for det in dets]
    gates = np.array([frustum.depth_range for frustum in frusta])
    boxes = np.array(
        [(f.bbox2d.x_min, f.bbox2d.y_min, f.bbox2d.x_max, f.bbox2d.y_max) for f in frusta]
    )
    gated = (center_depth >= gates[:, :1]) & (center_depth <= gates[:, 1:])
    pair_ends = np.cumsum(gated.sum(axis=1))
    rows: list[np.ndarray] = []
    start = 0
    while start < len(dets):
        done = pair_ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(pair_ends, done + _PAIR_BUDGET, "right")), start + 1)
        rows += _boxed_rows(gated[start:stop], boxes[start:stop], u, v, in_front)
        start = stop
    return rows


def _boxed_rows(
    gated: np.ndarray, boxes: np.ndarray, u: np.ndarray, v: np.ndarray, in_front: np.ndarray
) -> list[np.ndarray]:
    """Each detection's gated rows with a pillar sample in front of the camera
    and inside its (x_min, y_min, x_max, y_max) box, in row order."""
    # Detection-major pairs, rows ascending within each detection.
    pair_det, pair_row = np.nonzero(gated)
    box = boxes[pair_det].T[:, :, None]
    cu, cv = u[pair_row], v[pair_row]
    inside = (
        in_front[pair_row] & (cu >= box[0]) & (cu <= box[2]) & (cv >= box[1]) & (cv <= box[3])
    ).any(axis=1)
    member_det, member_row = pair_det[inside], pair_row[inside]
    bounds = np.searchsorted(member_det, np.arange(len(gated) + 1)).tolist()
    return [member_row[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
    """A frame's radar front end in one pass over its sweep tables:
    ``associate(range_filter(accumulate_sweeps(...)))``, with the same
    clusters and members.

    The clusters share one member store holding only the clustered rows;
    each indexes its members there, in row order.
    """
    table = _accumulated_table(sweeps, max_sweeps)
    gated = table[_in_range(table, min_range, max_range)]
    rows = _member_rows(gated, dets, camera, pillar_dims, expansion)
    clustered = np.zeros(len(gated), dtype=bool)
    for r in rows:
        clustered[r] = True
    # A gated row's index into the store, where its row is clustered.
    store_row = np.cumsum(clustered) - 1
    store = _MemberStore(gated[clustered])
    return [Cluster._of_rows(det, store, store_row[r]) for det, r in zip(dets, rows)]


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
    store = _MemberStore.of_points(points)
    rows = _member_rows(store.table, dets, camera, pillar_dims, expansion)
    return [Cluster._of_rows(det, store, r) for det, r in zip(dets, rows)]


def associate_naive(
    points: Sequence[RadarPoint],
    dets: Sequence[PreliminaryDetection],
    camera: CameraModel,
    pillar_dims: Sequence[float] = DEFAULT_PILLAR_DIMS,
    expansion: float = 1.0,
) -> list[Cluster]:
    """Reference association: unbatched per-point, per-detection double loop
    over :func:`_pillar_in_frustum`; it never calls ``_member_rows``."""
    # Bad settings fail here too when there are no points or no detections.
    half = _pillar_half_extents(pillar_dims)
    check_number("expansion", expansion, low=1.0)
    clusters = []
    for det in dets:
        frustum = _frustum(det, camera, expansion)
        members = [p for p in points if _pillar_in_frustum(frustum, p.position, half)]
        clusters.append(Cluster(det, members))
    return clusters
