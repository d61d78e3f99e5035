"""Shared builders for randomized test inputs."""

from __future__ import annotations

import math
import platform

import numpy as np
import pytest

from rcdet.geometry import Box3D, CameraModel, project_box_to_bbox2d, project_point, unproject_point
from rcdet.errors import BehindCamera
from rcdet.radar import PreliminaryDetection, RadarPoint


def pytest_report_header(config) -> str:
    """The versions that the sha256 pins depend on: numpy's reduction order
    and memory layout, and the BLAS kernels of the KPConv weight products
    (fixed (32, K·in) blocks on narrow layers, (8, in) blocks per kernel
    point on wide ones), decide the bits of the pinned feature rows."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip()
    except (TypeError, KeyError):
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}, Python {platform.python_version()}"


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_camera(rng: np.random.Generator, image_size=(800, 448)) -> CameraModel:
    width, height = image_size
    focal = rng.uniform(300.0, 800.0)
    intrinsic = np.array(
        [
            [focal, 0.0, width / 2.0 + rng.uniform(-20, 20)],
            [0.0, focal * rng.uniform(0.95, 1.05), height / 2.0 + rng.uniform(-20, 20)],
            [0.0, 0.0, 1.0],
        ]
    )
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = random_rotation(rng)
    extrinsic[:3, 3] = rng.uniform(-3.0, 3.0, size=3)
    return CameraModel(intrinsic=intrinsic, extrinsic=extrinsic, image_size=image_size)


def random_visible_box(
    rng: np.random.Generator, camera: CameraModel, depth_range=(5.0, 55.0)
) -> Box3D:
    """A box whose center projects inside the image and whose corners are in front."""
    width, height = camera.image_size
    for _ in range(500):
        pixel = np.array(
            [rng.uniform(0.1 * width, 0.9 * width), rng.uniform(0.1 * height, 0.9 * height)]
        )
        depth = rng.uniform(*depth_range)
        center = unproject_point(camera, pixel, depth)
        box = Box3D(
            center=center,
            dims=rng.uniform(0.5, 5.0, size=3),
            yaw=rng.uniform(-math.pi, math.pi),
            velocity=rng.uniform(-8.0, 8.0, size=2),
        )
        try:
            project_box_to_bbox2d(camera, box)
        except BehindCamera:
            continue
        return box
    raise RuntimeError("could not sample a visible box")


def detection_for_box(
    rng: np.random.Generator,
    camera: CameraModel,
    box: Box3D,
    class_id: int = 0,
    log_sigma: float = -2.0,
) -> PreliminaryDetection:
    center_px, depth = project_point(camera, box.center)
    return PreliminaryDetection(
        class_id=class_id,
        score=float(rng.uniform(0.3, 1.0)),
        bbox2d=project_box_to_bbox2d(camera, box),
        projected_center=center_px,
        depth=depth,
        log_sigma=log_sigma,
        box3d=box,
    )


def random_radar_points(rng: np.random.Generator, count: int) -> list[RadarPoint]:
    return [
        RadarPoint(
            position=np.array(
                [rng.uniform(-40.0, 40.0), rng.uniform(-5.0, 60.0), rng.uniform(-0.5, 1.5)]
            ),
            velocity=rng.uniform(-8.0, 8.0, size=2),
            rcs=float(rng.uniform(-10.0, 20.0)),
        )
        for _ in range(count)
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
