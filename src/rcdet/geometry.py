"""Camera projection and box primitives shared by the whole pipeline.

Coordinate conventions (nuScenes-style):
  Ego frame:    x right, y forward, z up (meters).
  Camera frame: x right, y down, z forward (optical axis).
  Image frame:  u right, v down (pixels), origin at the top-left corner.

A ``Box3D`` lives in the ego frame. Its ``yaw`` is the heading about +z,
measured from the ego x-axis; the box *length* axis points along the
heading and the *width* axis is perpendicular to it.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, DegenerateBox, check_finite

MIN_CAMERA_DEPTH = 1e-6
# Smallest focal length, in pixels. A real camera's is far larger (the
# pinhole field of view is 2·atan(side / 2f), near 180 degrees at 1 pixel),
# and dividing a finite pixel offset by at least 1 keeps an unprojected ray
# finite.
MIN_FOCAL = 1.0

_ORTHONORMAL_TOL = 1e-9


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = math.remainder(float(angle), 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(eq=False)
class CameraModel:
    """Pinhole camera: intrinsic matrix, camera-from-ego transform, image size.

    ``intrinsic`` is 3x3 in pixels; ``extrinsic`` is a 4x4 rigid transform
    taking ego-frame points to the camera frame; ``image_size`` is
    (width, height) in pixels.
    """

    intrinsic: np.ndarray
    extrinsic: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        self.intrinsic = np.asarray(self.intrinsic, dtype=np.float64)
        self.extrinsic = np.asarray(self.extrinsic, dtype=np.float64)
        if self.intrinsic.shape != (3, 3):
            raise ValueError(f"intrinsic must be 3x3, got {self.intrinsic.shape}")
        if self.extrinsic.shape != (4, 4):
            raise ValueError(f"extrinsic must be 4x4, got {self.extrinsic.shape}")
        focal = self.intrinsic[0, 0], self.intrinsic[1, 1]
        if not all(f >= MIN_FOCAL for f in focal):
            raise ValueError(
                f"intrinsic focal entries must be >= {MIN_FOCAL} pixel, "
                f"got {list(map(float, focal))}"
            )
        # project_point divides by the camera depth, which is the image
        # plane's third coordinate only for this bottom row.
        if self.intrinsic[2].tolist() != [0.0, 0.0, 1.0]:
            raise ValueError(
                f"intrinsic bottom row must be [0, 0, 1], got {self.intrinsic[2].tolist()}"
            )
        rot = self.extrinsic[:3, :3]
        # Entries of an orthonormal block lie in [-1, 1]; testing that first
        # keeps the product below from overflowing (and a NaN from passing).
        if not (
            np.abs(rot).max() <= 1.0 + _ORTHONORMAL_TOL
            and np.abs(rot.T @ rot - np.eye(3)).max() < _ORTHONORMAL_TOL
        ):
            raise ValueError("extrinsic rotation block is not orthonormal")
        width, height = self.image_size
        if width <= 0 or height <= 0:
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        self.image_size = (int(width), int(height))

    @property
    def rotation(self) -> np.ndarray:
        return self.extrinsic[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.extrinsic[:3, 3]

    def center_in_ego(self) -> np.ndarray:
        """Camera optical center expressed in the ego frame (-R^T t).

        Written out componentwise so the value is bit-reproducible by scalar
        reimplementations (the frustum depth gate derives from it).
        """
        rot, t = self.extrinsic, self.extrinsic[:3, 3]
        return np.array(
            [
                -(rot[0, 0] * t[0] + rot[1, 0] * t[1] + rot[2, 0] * t[2]),
                -(rot[0, 1] * t[0] + rot[1, 1] * t[1] + rot[2, 1] * t[2]),
                -(rot[0, 2] * t[0] + rot[1, 2] * t[1] + rot[2, 2] * t[2]),
            ]
        )


_BOX3D_FIELDS = ("center",) * 3 + ("dims",) * 3 + ("velocity",) * 2 + ("yaw",)


@dataclass(eq=False)
class Box3D:
    """Oriented 3D box: center (m, ego), dims (width, length, height), yaw, BEV velocity.

    The constructor normalizes ``yaw`` to (-pi, pi].
    """

    center: np.ndarray
    dims: np.ndarray
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.dims = np.asarray(self.dims, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(2)
        values = (*self.center.tolist(), *self.dims.tolist(), *self.velocity.tolist(), self.yaw)
        check_finite("box", _BOX3D_FIELDS, values)
        if not np.all(self.dims > 0):
            raise ValueError(f"box dims must be positive, got {self.dims}")
        self.yaw = wrap_angle(self.yaw)


@dataclass
class Box2D:
    """Axis-aligned image-plane box, min corner (x_min, y_min) to max corner."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        values = (self.x_min, self.y_min, self.x_max, self.y_max)
        check_finite("2D box", ("x_min", "y_min", "x_max", "y_max"), values)
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(
                f"box min corner must not exceed max corner: "
                f"({self.x_min}, {self.y_min}) vs ({self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def scaled(self, factor: float) -> "Box2D":
        """Scale the box about its center by ``factor``."""
        cx, cy = self.center
        hw = 0.5 * (self.x_max - self.x_min) * factor
        hh = 0.5 * (self.y_max - self.y_min) * factor
        return Box2D(cx - hw, cy - hh, cx + hw, cy + hh)


def transform_to_camera(camera: CameraModel, point: np.ndarray) -> np.ndarray:
    """Apply the camera-from-ego transform to a single ego-frame point.

    Uses fixed left-to-right summation so the scalar and batched association
    paths produce bit-identical floats.
    """
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    rot = camera.extrinsic
    cx = rot[0, 0] * x + rot[0, 1] * y + rot[0, 2] * z + rot[0, 3]
    cy = rot[1, 0] * x + rot[1, 1] * y + rot[1, 2] * z + rot[1, 3]
    cz = rot[2, 0] * x + rot[2, 1] * y + rot[2, 2] * z + rot[2, 3]
    return np.array([cx, cy, cz])


def project_point(camera: CameraModel, point: np.ndarray) -> tuple[np.ndarray, float]:
    """Project an ego-frame point; returns (pixel (u, v), camera-frame depth).

    Raises BehindCamera when the point's camera depth is <= 1e-6 m.
    """
    cam_pt = transform_to_camera(camera, point)
    depth = float(cam_pt[2])
    if depth <= MIN_CAMERA_DEPTH:
        raise BehindCamera(f"point depth {depth:.3g} m is behind the camera")
    k = camera.intrinsic
    u = (k[0, 0] * cam_pt[0] + k[0, 1] * cam_pt[1] + k[0, 2] * cam_pt[2]) / depth
    v = (k[1, 0] * cam_pt[0] + k[1, 1] * cam_pt[1] + k[1, 2] * cam_pt[2]) / depth
    return np.array([u, v]), depth


def unproject_point(camera: CameraModel, pixel: np.ndarray, depth: float) -> np.ndarray:
    """Inverse pinhole projection back into the ego frame.

    ``pixel`` is a (sub)pixel image location; ``depth`` is the camera-frame z
    the recovered point should have.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    ray = np.linalg.solve(camera.intrinsic, np.array([pixel[0], pixel[1], 1.0]))
    cam_pt = ray * (depth / ray[2])
    return camera.rotation.T @ (cam_pt - camera.translation)


def box3d_corners(box: Box3D) -> np.ndarray:
    """The 8 corners of a yaw-rotated box, shape (8, 3).

    Order: all sign combinations of (length, width, height) half-extents,
    length sign varying slowest.
    """
    half_w, half_l, half_h = 0.5 * box.dims
    cos_y, sin_y = math.cos(box.yaw), math.sin(box.yaw)
    length_axis = np.array([cos_y, sin_y, 0.0])
    width_axis = np.array([-sin_y, cos_y, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    signs = np.array(
        [(sl, sw, sh) for sl in (1.0, -1.0) for sw in (1.0, -1.0) for sh in (1.0, -1.0)]
    )
    offsets = (
        signs[:, :1] * half_l * length_axis
        + signs[:, 1:2] * half_w * width_axis
        + signs[:, 2:3] * half_h * up
    )
    return box.center + offsets


def project_box_to_bbox2d(camera: CameraModel, box: Box3D) -> Box2D:
    """Axis-aligned hull of the projected box corners, clipped to the image.

    Corners behind the camera are ignored; raises BehindCamera when every
    corner is behind. A box whose hull falls entirely outside the image
    clips to a zero-area box on the image border.
    """
    pixels = []
    for corner in box3d_corners(box):
        try:
            pixel, _ = project_point(camera, corner)
        except BehindCamera:
            continue
        pixels.append(pixel)
    if not pixels:
        raise BehindCamera("all box corners are behind the camera")
    pts = np.array(pixels)
    width, height = camera.image_size
    x_min = min(max(float(pts[:, 0].min()), 0.0), float(width))
    x_max = min(max(float(pts[:, 0].max()), 0.0), float(width))
    y_min = min(max(float(pts[:, 1].min()), 0.0), float(height))
    y_max = min(max(float(pts[:, 1].max()), 0.0), float(height))
    return Box2D(x_min, y_min, x_max, y_max)


def iou2d(a: Box2D, b: Box2D) -> float:
    """Plain intersection-over-union of two axis-aligned boxes."""
    inter_w = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    inter_h = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = inter_w * inter_h
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def giou2d(a: Box2D, b: Box2D) -> float:
    """Generalized IoU: IoU minus the normalized empty part of the enclosing box.

    Zero-area input boxes are allowed; raises DegenerateBox when the enclosing
    box itself has zero area.
    """
    enclosing_w = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    enclosing_h = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    enclosing = enclosing_w * enclosing_h
    if enclosing <= 0:
        raise DegenerateBox("enclosing box has zero area")
    inter_w = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    inter_h = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = inter_w * inter_h
    union = a.area + b.area - inter
    iou = inter / union if union > 0 else 0.0
    return iou - (enclosing - union) / enclosing


def aligned_iou3d(dims_a: np.ndarray, dims_b: np.ndarray) -> float:
    """IoU of two 3D boxes after aligning centers and yaw.

    With centers and orientation shared, the intersection is the product of
    the per-axis minima. This is the scale-error IoU used by the evaluation
    metrics; no polygon clipping is involved.

    Volumes are products of plain floats, which give the bits of ``prod``
    and overflow to inf without a warning. When the union is past float64's
    range, every volume is divided by the intersection one axis at a time
    instead: each factor is then >= 1, and the IoU is finite and in [0, 1].
    """
    a = np.asarray(dims_a, dtype=np.float64).tolist()
    b = np.asarray(dims_b, dtype=np.float64).tolist()
    if not (np.shape(a) == np.shape(b) == (3,) and all(0 < x < math.inf for x in a + b)):
        raise ValueError("box dims must be three positive finite numbers each")
    low = list(map(min, a, b))
    inter = math.prod(low)
    union = math.prod(a) + math.prod(b) - inter
    if math.isfinite(union):
        return inter / union
    ratio_a = math.prod(x / m for x, m in zip(a, low))
    ratio_b = math.prod(x / m for x, m in zip(b, low))
    return 1.0 / (ratio_a + ratio_b - 1.0)
