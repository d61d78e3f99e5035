"""Spans and counts recorded around calls into each rcdet layer.

The traced run replays ``pipeline.process_frame`` stage by stage through the
public functions of each module, wrapping every call in a span. Spans keep
name, start, end, parent span and frame id in memory; ``write_spans`` dumps
them when the run ends. Nothing here changes what the stages compute: the
harness checks the replay's detections and heatmap against
``process_frame``'s, and the KPConv layer loop against ``extract_learned``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from rcdet.decoder import build_maps_from_detections, decode_detections, topk_peaks
from rcdet.errors import EmptyCluster
from rcdet.features import FeatureVector, extract_handcrafted, rasterize_heatmap, zero_features
from rcdet.kpconv import (
    KPNetworkConfig,
    PointFeatures,
    cluster_to_point_features,
    grid_subsample,
    kpconv_forward,
    radius_neighbors,
)
from rcdet.pipeline import FrameResult, PipelineConfig, feature_length
from rcdet.radar import Cluster, accumulate_sweeps, associate, range_filter
from rcdet.scene_io import SceneFrame


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    frame_id: int | None


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index].end_ns = time.perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span recorder with counters at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.frame_id: int | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.frame_id))
        self._stack.append(index)
        return _OpenSpan(self, index)

    def busy_ns(self) -> Counter[str]:
        """Total span duration per name."""
        busy: Counter[str] = Counter()
        for s in self.spans:
            busy[s.name] += s.end_ns - s.start_ns
        return busy

    def self_ns(self, name: str) -> int:
        """Total duration of ``name`` spans minus the time their children cover."""
        total = 0
        children: Counter[int] = Counter()
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end_ns - s.start_ns
        for i, s in enumerate(self.spans):
            if s.name == name:
                total += s.end_ns - s.start_ns - children[i]
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "frame_id": s.frame_id,
                        }
                    )
                    + "\n"
                )


def kpconv_flops(in_channels: int, out_channels: int, kernel_points: int, n: int) -> int:
    """Multiply-adds x2 of one kpconv_forward query with ``n`` neighbors: the
    influence-weighted feature sum (K x n x in) and the kernel contraction
    (K x in x out). Distance and influence terms are left out."""
    if n == 0:
        return 0
    return 2 * kernel_points * in_channels * (n + out_channels)


def replay_learned(cluster: Cluster, net: KPNetworkConfig, tracer: Tracer) -> FeatureVector:
    """``kpconv.extract_learned``'s layer loop, one span per public call."""
    with tracer.span("kpconv.extract_learned"):
        if cluster.member_count == 0:
            return FeatureVector(values=np.zeros(net.output_dim), kind="learned")
        points = cluster_to_point_features(cluster)
        positions = points.positions
        features = points.features
        for i, layer in enumerate(net.layers):
            if layer.strided:
                cell = net.base_cell_size * 2.0**i
                with tracer.span("kpconv.grid_subsample"):
                    queries = grid_subsample(
                        PointFeatures(positions=positions, features=features), cell
                    ).positions
            else:
                queries = positions
            with tracer.span("kpconv.radius_neighbors"):
                neighbors = radius_neighbors(queries, positions, layer.radius, net.neighbor_cap)
            with tracer.span("kpconv.kpconv_forward"):
                features = kpconv_forward(
                    layer,
                    queries,
                    PointFeatures(positions=positions, features=features),
                    neighbors,
                )
            tracer.counts["kpconv.queries"] += len(neighbors)
            for idx in neighbors:
                tracer.counts["kpconv.neighbor_pairs"] += len(idx)
                tracer.counts["kpconv.flop"] += kpconv_flops(
                    layer.in_channels, layer.out_channels, layer.kernel_point_count, len(idx)
                )
            positions = queries
        return FeatureVector(values=features.mean(axis=0), kind="learned")


def _replay_features(
    cluster: Cluster,
    cfg: PipelineConfig,
    net: KPNetworkConfig | None,
    tracer: Tracer,
    learned_out: list | None,
) -> FeatureVector:
    # Mirrors pipeline.extract_cluster_features, including its empty-cluster rule.
    try:
        if cfg.feature_strategy == "handcrafted":
            with tracer.span("features.extract_handcrafted"):
                return extract_handcrafted(cluster, cfg.handcrafted)
        if cfg.feature_strategy == "hybrid":
            with tracer.span("features.extract_handcrafted"):
                handcrafted = extract_handcrafted(cluster, cfg.handcrafted)
        learned = replay_learned(cluster, net, tracer)
        if learned_out is not None:
            learned_out.append((cluster, learned.values))
        if cfg.feature_strategy == "learned":
            return learned
        return FeatureVector(
            values=np.concatenate([handcrafted.values, learned.values]), kind="hybrid"
        )
    except EmptyCluster:
        return zero_features(feature_length(cfg, net), kind=cfg.feature_strategy)


def traced_process_frame(
    frame: SceneFrame,
    cfg: PipelineConfig,
    net: KPNetworkConfig | None,
    tracer: Tracer,
    learned_out: list | None = None,
) -> FrameResult:
    """``pipeline.process_frame`` stage by stage, each call in a span.

    With ``learned_out``, each cluster's KPConv replay output is appended to
    it as (cluster, values), for comparison with ``extract_learned``."""
    tracer.frame_id = frame.frame_id
    counts = tracer.counts
    with tracer.span("pipeline.process_frame"):
        with tracer.span("radar.accumulate_sweeps"):
            points = accumulate_sweeps(frame.radar_sweeps, cfg.max_sweeps)
        with tracer.span("radar.range_filter"):
            gated = range_filter(points, cfg.min_range, cfg.max_range)
        with tracer.span("radar.associate"):
            clusters = associate(
                gated, frame.detections, frame.camera, cfg.pillar_dims, cfg.expansion
            )
        features = [_replay_features(c, cfg, net, tracer, learned_out) for c in clusters]
        with tracer.span("features.rasterize_heatmap"):
            heatmap = rasterize_heatmap(
                list(zip(clusters, features)), frame.camera.image_size, cfg.downsample
            )
        num_classes = cfg.num_classes
        if num_classes is None:
            num_classes = max((d.class_id + 1 for d in frame.detections), default=1)
        with tracer.span("decoder.build_maps_from_detections"):
            class_heatmap, maps = build_maps_from_detections(
                frame.detections, frame.camera.image_size, num_classes, cfg.downsample
            )
        with tracer.span("decoder.topk_peaks"):
            candidates = topk_peaks(class_heatmap, cfg.top_k)
        with tracer.span("decoder.decode_detections"):
            detections = decode_detections(
                candidates, maps, frame.camera, cfg.score_threshold
            )
    clustered = {id(p) for c in clusters for p in c.members}
    counts["radar.points_in"] += len(points)
    counts["radar.points_gated"] += len(gated)
    counts["radar.points_clustered"] += len(clustered)
    counts["radar.clutter_dropped"] += len(gated) - len(clustered)
    counts["radar.empty_clusters"] += sum(1 for c in clusters if c.member_count == 0)
    counts["features.clusters"] += len(clusters)
    counts["decoder.candidates"] += len(candidates)
    counts["decoder.kept"] += len(detections)
    tracer.frame_id = None
    return FrameResult(
        frame_id=frame.frame_id,
        detections=detections,
        radar_heatmap=heatmap,
        clusters=clusters,
    )
