"""Per-frame processing: radar preprocessing, association, cluster feature
extraction and rasterization, then box decoding.

The radar feature heatmap is the fusion-side product of a frame (the input
contract for downstream regression heads); the decoded boxes come from the
preliminary-detection records planted at the decoder's grid cells. Frames are
independent; a scene set runs them in order on the calling thread, and its
results are ordered by frame id whatever the input order.

Features run over windows of consecutive frames (``process_frames``): a frame
joins the window while the window's cluster member rows stay at most
``WINDOW_MEMBER_ROWS`` (4096), and a window holds at least one frame, so the
windows depend on the input alone. A window's frames share one KPConv pass
and so each wide-layer kernel point's weight read (4 MiB on ``large``). A
row's bits do not depend on the other rows of its pass, so every output is
byte-identical to a pass per frame; ``process_frame`` is the one-frame window.
A frame's heatmap paints ``owner`` from its detections and copies its slice
of the window's feature matrix as ``rows``.
The pass's memory is bounded by one window: its largest arrays, the last
``large`` layer's neighbour gather and weighted neighbourhood, hold at most
R x (26 + 15) x 512 floats for R member rows (the neighbour cap is 26, K is
15), about 0.65 GiB at R = 4096. A window of 72 benchmark hybrid-large frames
(4082 rows) peaked at 200 MiB under tracemalloc, one such frame at 2.5 MiB.
Only a frame whose own clusters hold more rows makes a larger window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .decoder import (
    DetectionBox3D,
    build_maps_from_detections,
    decode_detections,
    topk_peaks,
)
from .errors import DimensionMismatch, check_number
from .features import FeatureHeatmap, HandcraftedConfig, _handcrafted_rows, _paint_owner
from .kpconv import KPNetworkConfig, _learned_rows
from .radar import (
    DEFAULT_MAX_RANGE,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_MIN_RANGE,
    DEFAULT_PILLAR_DIMS,
    Cluster,
    canonical_members,
    cluster_sweeps,
)
from .scene_io import SceneFrame

FEATURE_STRATEGIES = ("handcrafted", "learned", "hybrid")
# Cluster member rows a window of frames may hold (see the module docstring).
# On the benchmark frames, larger windows saved no more time per frame.
WINDOW_MEMBER_ROWS = 4096


@dataclass
class PipelineConfig:
    feature_strategy: str = "handcrafted"
    handcrafted: HandcraftedConfig = field(default_factory=HandcraftedConfig)
    pillar_dims: tuple[float, float, float] = DEFAULT_PILLAR_DIMS
    expansion: float = 1.0
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    min_range: float = DEFAULT_MIN_RANGE
    max_range: float = DEFAULT_MAX_RANGE
    downsample: int = 4
    top_k: int = 100
    score_threshold: float = 0.0
    num_classes: int | None = None

    def __post_init__(self) -> None:
        if self.feature_strategy not in FEATURE_STRATEGIES:
            raise ValueError(
                f"unknown feature strategy {self.feature_strategy!r}, "
                f"expected one of {FEATURE_STRATEGIES}"
            )
        for name in ("max_sweeps", "downsample", "top_k"):
            check_number(name, getattr(self, name), integer=True, low=1)
        check_number("num_classes", self.num_classes, integer=True, optional=True, low=1)
        check_number("min_range", self.min_range, low=0.0)
        check_number("max_range", self.max_range, low=0.0)
        check_number("expansion", self.expansion, low=1.0)
        check_number("score_threshold", self.score_threshold, low=0.0, high=1.0)
        if self.min_range > self.max_range:
            raise ValueError(
                f"min_range must not exceed max_range, got {self.min_range} > {self.max_range}"
            )
        dims = self.pillar_dims
        if not (np.ndim(dims) == 1 and len(dims) == 3):
            raise ValueError(f"pillar_dims must be three numbers, got {dims!r}")
        for i, d in enumerate(dims):
            check_number(f"pillar_dims[{i}]", d, low=0.0)


@dataclass(eq=False)
class FrameResult:
    frame_id: int
    detections: list[DetectionBox3D]
    radar_heatmap: FeatureHeatmap
    clusters: list[Cluster]


def feature_length(cfg: PipelineConfig, net: KPNetworkConfig | None) -> int:
    if cfg.feature_strategy == "handcrafted":
        return cfg.handcrafted.length
    if net is None:
        raise ValueError(f"{cfg.feature_strategy} extraction needs a network config")
    if cfg.feature_strategy == "learned":
        return net.output_dim
    return cfg.handcrafted.length + net.output_dim


def feature_rows(
    clusters: Sequence[Cluster], cfg: PipelineConfig, net: KPNetworkConfig | None
) -> np.ndarray:
    """The clusters' features, those of a frame or a window of frames,
    shape (n_clusters, ``feature_length``).

    The strategy picks the columns: handcrafted first, then learned (one
    ``handcrafted_rows``/``learned_rows`` pass each, both over one
    ``canonical_members`` table). Empty clusters are zero rows.
    """
    rows = np.zeros((len(clusters), feature_length(cfg, net)))
    members = canonical_members(clusters)
    if cfg.feature_strategy != "learned":
        rows[:, : cfg.handcrafted.length] = _handcrafted_rows(*members, cfg.handcrafted)
    if cfg.feature_strategy != "handcrafted":
        rows[:, -net.output_dim :] = _learned_rows(*members, net)
    return rows


def process_frames(
    frames: Sequence[SceneFrame], cfg: PipelineConfig, net: KPNetworkConfig | None = None
) -> list[FrameResult]:
    """Run frames through the full chain, one result per frame in input order.

    Each frame's radar is clustered on its own (``cluster_sweeps``). The
    features then run over windows of consecutive frames: a frame joins the
    current window while the window's cluster member rows stay at most
    ``WINDOW_MEMBER_ROWS``, and a window always holds at least one frame, so
    the windows depend on the input alone. One ``feature_rows`` call covers
    a window's clusters, and its rows are split back to their frames, which
    are rasterized, planted and decoded one by one. A row's bits do not
    depend on the other rows of its pass, so every output is byte-identical
    to a pass per frame.
    """
    results = []
    for window in _windows(frames, cfg):
        rows = feature_rows([c for _, clusters in window for c in clusters], cfg, net)
        start = 0
        for frame, clusters in window:
            stop = start + len(clusters)
            results.append(_decode_frame(frame, clusters, rows[start:stop], cfg))
            start = stop
    return results


def _windows(
    frames: Sequence[SceneFrame], cfg: PipelineConfig
) -> Iterator[list[tuple[SceneFrame, list[Cluster]]]]:
    """Consecutive frames with their clusters, packed by member rows as
    :func:`process_frames` states."""
    window, rows = [], 0
    for frame in frames:
        clusters = cluster_sweeps(
            frame.radar_sweeps, frame.detections, frame.camera, cfg.max_sweeps,
            cfg.min_range, cfg.max_range, cfg.pillar_dims, cfg.expansion,
        )
        count = sum(cluster.member_count for cluster in clusters)
        if window and rows + count > WINDOW_MEMBER_ROWS:
            yield window
            window, rows = [], 0
        window.append((frame, clusters))
        rows += count
    if window:
        yield window


def _decode_frame(
    frame: SceneFrame, clusters: list[Cluster], rows: np.ndarray, cfg: PipelineConfig
) -> FrameResult:
    """A frame's result from its clusters and their feature rows: paint the
    heatmap, plant, take the top K and decode. The heatmap owns a copy of
    ``rows``; with no clusters it has (0, 0) rows, as when painted from no
    (cluster, features) pairs."""
    owner = _paint_owner(
        [cluster.detection for cluster in clusters], frame.camera.image_size, cfg.downsample
    )
    rows = rows.copy() if clusters else np.zeros((0, 0))
    radar_heatmap = FeatureHeatmap(owner=owner, rows=rows, downsample=cfg.downsample)
    num_classes = cfg.num_classes
    if num_classes is None:
        num_classes = max((d.class_id + 1 for d in frame.detections), default=1)
    scores, maps = build_maps_from_detections(
        frame.detections, frame.camera.image_size, num_classes, cfg.downsample
    )
    candidates = topk_peaks(scores, cfg.top_k)
    detections = decode_detections(candidates, maps, frame.camera, cfg.score_threshold)
    return FrameResult(
        frame_id=frame.frame_id,
        detections=detections,
        radar_heatmap=radar_heatmap,
        clusters=clusters,
    )


def process_frame(
    frame: SceneFrame, cfg: PipelineConfig, net: KPNetworkConfig | None = None
) -> FrameResult:
    """Run one frame through the full chain: accumulate, filter, associate,
    extract, rasterize, decode. This is :func:`process_frames` of one frame,
    a window of one frame whatever its member rows; the frame gets the same
    bytes in any window of ``WINDOW_MEMBER_ROWS`` rows, so its feature pass
    holds that frame's rows alone."""
    return process_frames([frame], cfg, net)[0]


def run_scenes(
    frames: Sequence[SceneFrame],
    cfg: PipelineConfig,
    net: KPNetworkConfig | None = None,
) -> list[FrameResult]:
    """Process frames in input order on the calling thread, in windows of
    frames (:func:`process_frames`), and order the results by frame id.

    Every frame's image sides are checked against the feature stride before
    any frame is processed. A window's clusters share one feature pass of at
    most ``WINDOW_MEMBER_ROWS`` member rows (more only for a frame that has
    more alone), so the feature pass's memory is bounded by one window, not
    by the file, and the results are byte-identical to a pass per frame. The
    numpy calls of a frame are many and short, so threads would only contend
    for the GIL, and BLAS already uses every core."""
    for frame in frames:
        width, height = frame.camera.image_size
        if width % cfg.downsample or height % cfg.downsample:
            raise DimensionMismatch(
                f"frame {frame.frame_id}: camera image_size {width}x{height} must be a "
                f"multiple of the feature stride {cfg.downsample}"
            )
    return sorted(process_frames(frames, cfg, net), key=lambda r: r.frame_id)
