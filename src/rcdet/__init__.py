"""Non-neural core of a radar + monocular-camera 3D detection pipeline.

Subpackages cover camera/box geometry, radar preprocessing and frustum
association, cluster feature extraction (handcrafted, kernel-point
convolution, hybrid), heatmap rasterization, box decoding with
uncertainty-weighted confidence, the training loss suite, detection-score
evaluation, scene file IO, synthetic scene generation, and an association
benchmark.

The loss suite and the association benchmark are imported on first use of
one of their names, so a process that runs or evaluates scenes never
compiles them.
"""

from importlib import import_module

from .decoder import (
    Candidate,
    DetectionBox3D,
    RegressionMaps,
    build_maps_from_detections,
    confidence,
    decode_depth,
    decode_detections,
    decode_orientation,
    encode_depth,
    topk_peaks,
    unproject_center,
)
from .errors import (
    BehindCamera,
    DegenerateBox,
    DegenerateLine,
    DimensionMismatch,
    EmptyBatch,
    EmptyCluster,
    EmptyGroundTruth,
    InvalidDetection,
    MixedChannelCounts,
    NoCoveredBin,
    ParseError,
    RcdetError,
    ResultMismatch,
    SchemaVersionMismatch,
)
from .features import (
    FeatureHeatmap,
    FeatureVector,
    HandcraftedConfig,
    cluster_orientation,
    cluster_slope,
    extract_handcrafted,
    handcrafted_rows,
    rasterize_heatmap,
    slope_to_orientation,
    zero_features,
)
from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    aligned_iou3d,
    box3d_corners,
    giou2d,
    iou2d,
    project_box_to_bbox2d,
    project_point,
    unproject_point,
    wrap_angle,
)
from .kpconv import (
    KPConvLayerConfig,
    KPNetworkConfig,
    PointFeatures,
    build_network,
    extract_hybrid,
    extract_learned,
    grid_subsample,
    kernel_point_layout,
    kpconv_forward,
    kpconv_weight_grad,
    learned_rows,
    load_network,
    radius_neighbors,
    save_network,
)
from .metrics import (
    EvalConfig,
    EvalResult,
    GroundTruth,
    TPErrors,
    average_precision,
    evaluate,
    match_detections,
    nds,
    tp_errors,
)
from .pipeline import FrameResult, PipelineConfig, process_frame, run_scenes
from .radar import (
    Cluster,
    FrustumROI,
    Pillar,
    PreliminaryDetection,
    RadarPoint,
    RadarSweep,
    accumulate_sweeps,
    associate,
    associate_naive,
    build_frustum,
    pillar_expand,
    range_filter,
)
from .scene_io import (
    SceneFrame,
    SynthConfig,
    default_camera,
    load_detections,
    load_scenes,
    save_detections,
    save_scenes,
    synth_scene,
)

__version__ = "0.1.0"

_LAZY_MODULE = dict.fromkeys(("BenchReport", "bench_association"), "bench") | dict.fromkeys(
    (
        "DEFAULT_BIN_CENTERS",
        "HeatmapPair",
        "OrientationTarget",
        "RegressionBatch",
        "depth_uncertainty_loss",
        "dim2d_giou_loss",
        "focal_loss",
        "l1_regression_loss",
        "multibin_loss",
        "offset_loss",
        "total_loss",
    ),
    "losses",
)


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULE})
