"""CLI subcommands and the pipeline wrapper."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcdet import cli, kpconv, pipeline, radar
from rcdet.cli import main
from rcdet.features import extract_handcrafted
from rcdet.kpconv import build_network, extract_hybrid, extract_learned, save_network
from rcdet.metrics import evaluate
from rcdet.pipeline import PipelineConfig, feature_length, process_frame, run_scenes
from rcdet.scene_io import (
    SynthConfig,
    load_detections,
    load_scenes,
    save_scenes,
    synth_scene,
)


def _write_scene(tmp_path, **kwargs) -> str:
    cfg = SynthConfig(**kwargs)
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(cfg))
    return path


# -- pipeline API -------------------------------------------------------------


def test_process_frame_feature_strategies(tmp_path):
    frames = synth_scene(SynthConfig(seed=5, n_frames=1, objects_min=2, objects_max=2))
    net = build_network("lite", seed=0)
    handcrafted = process_frame(frames[0], PipelineConfig())
    learned = process_frame(frames[0], PipelineConfig(feature_strategy="learned"), net)
    hybrid = process_frame(frames[0], PipelineConfig(feature_strategy="hybrid"), net)
    assert handcrafted.radar_heatmap.channels == 13
    assert learned.radar_heatmap.channels == 64
    assert hybrid.radar_heatmap.channels == 77
    assert len(handcrafted.detections) == 2


def test_process_frame_hybrid_memory_independent_of_feature_width():
    # A dense 1037-channel heatmap of the default 800 x 448 camera alone
    # would take 177 MiB; the owner grid plus one row per cluster is small.
    frame = synth_scene(SynthConfig(seed=5, n_frames=1, objects_min=3, objects_max=3))[0]
    net = build_network("large", seed=0)
    tracemalloc.start()
    try:
        result = process_frame(frame, PipelineConfig(feature_strategy="hybrid"), net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.radar_heatmap.channels == 1037
    assert len(result.clusters) == 3
    assert peak <= 32 * 2**20


def _class_255_frame_peak(image_size) -> int:
    """The ``tracemalloc`` peak of one handcrafted ``process_frame`` whose
    first detection has the largest class id."""
    frame = synth_scene(
        SynthConfig(seed=5, n_frames=1, objects_min=3, objects_max=3, image_size=image_size)
    )[0]
    frame.detections[0].class_id = 255
    tracemalloc.start()
    try:
        result = process_frame(frame, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(d.class_id for d in result.detections)[-1] == 255
    return peak


def test_process_frame_memory_with_largest_class_id():
    # Class scores are kept only at the planted cells, so class id 255 costs
    # no more than class 0; a dense 256-channel class heatmap of the default
    # camera would take 43.75 MiB.
    assert _class_255_frame_peak((800, 448)) <= 4 * 2**20


def test_process_frame_memory_with_largest_class_id_on_largest_camera():
    # At 4096 x 4096 px the radar owner grid (4 MiB of int32) dominates; a
    # dense 256-channel class heatmap would take 2 GiB.
    assert _class_255_frame_peak((4096, 4096)) <= 16 * 2**20


def test_kept_detections_hold_no_feature_grids():
    """Decoded boxes own their fields: keeping every frame's detections,
    as `run_scenes` does, keeps none of a frame's grids alive."""
    frames = synth_scene(SynthConfig(seed=6, n_frames=20, objects_min=6, objects_max=12))
    cfg = PipelineConfig()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        kept = [process_frame(frame, cfg).detections for frame in frames]
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert sum(map(len, kept)) >= 100
    assert held <= 2**20


@pytest.mark.parametrize(
    "strategy,variant",
    [("handcrafted", None), ("learned", "lite"), ("hybrid", "large")],
    ids=["handcrafted", "learned-lite", "hybrid-large"],
)
def test_process_frame_rows_match_single_cluster_extraction(strategy, variant):
    """The frame's feature matrix gives each cluster the row it gets alone,
    and a cluster without radar points a zero row."""
    frame = synth_scene(
        SynthConfig(
            seed=3, n_frames=1, objects_min=4, objects_max=6, points_per_object_min=1,
            points_per_object_max=40, clutter_density=0.05, image_size=(200, 112), focal=125.0,
        )
    )[0]
    # Beyond the 60 m range gate, this detection's frustum holds no point.
    frame.detections.append(dataclasses.replace(frame.detections[0], depth=80.0))
    net = build_network(variant, seed=0) if variant else None
    cfg = PipelineConfig(feature_strategy=strategy)
    result = process_frame(frame, cfg, net)
    assert len(result.clusters) >= 5 and result.clusters[-1].member_count == 0
    extract = {
        "handcrafted": lambda c: extract_handcrafted(c, cfg.handcrafted),
        "learned": lambda c: extract_learned(c, net),
        "hybrid": lambda c: extract_hybrid(c, cfg.handcrafted, net),
    }[strategy]
    alone = [
        extract(c).values if c.member_count else np.zeros(feature_length(cfg, net))
        for c in result.clusters
    ]
    assert result.radar_heatmap.rows.tobytes() == np.array(alone).tobytes()


def test_process_frame_learned_requires_net(tmp_path):
    frames = synth_scene(SynthConfig(seed=5, n_frames=1))
    with pytest.raises(ValueError):
        process_frame(frames[0], PipelineConfig(feature_strategy="learned"))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("min_range", math.nan, "min_range must be a finite number >= 0.0, got nan"),
        ("max_range", math.nan, "max_range must be a finite number >= 0.0, got nan"),
        ("min_range", 70.0, "min_range must not exceed max_range, got 70.0 > 60.0"),
        ("pillar_dims", (math.nan,) * 3, "pillar_dims[0] must be a finite number >= 0.0, got nan"),
        ("pillar_dims", (0.2, -0.2, 1.5), "pillar_dims[1] must be a finite number >= 0.0, got -0.2"),
        ("expansion", math.inf, "expansion must be a finite number >= 1.0, got inf"),
        ("max_sweeps", True, "max_sweeps must be an integer >= 1, got True"),
        ("downsample", 0, "downsample must be an integer >= 1, got 0"),
        ("top_k", 0, "top_k must be an integer >= 1, got 0"),
        ("top_k", 2.5, "top_k must be an integer >= 1, got 2.5"),
        ("score_threshold", math.nan, "score_threshold must be a finite number in [0.0, 1.0]"),
        ("num_classes", 1.5, "num_classes must be None or an integer >= 1, got 1.5"),
        ("num_classes", True, "num_classes must be None or an integer >= 1, got True"),
        ("num_classes", 0, "num_classes must be None or an integer >= 1, got 0"),
        ("num_classes", -1, "num_classes must be None or an integer >= 1, got -1"),
    ],
)
def test_pipeline_config_rejects_meaningless_value(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(**{field: value})


_FRAME = synth_scene(SynthConfig(seed=5, n_frames=1))[0]
_EXPANSION_NAN = "expansion must be a finite number >= 1.0, got nan"


def _radar_entry(name: str, points: bool = True, dets: bool = True):
    """A call of ``radar.<name>`` on the seed-5 frame, with or without its
    points and detections; the setting under test is passed at call time."""
    frame = _FRAME
    pts = radar.accumulate_sweeps(frame.radar_sweeps) if points else []
    ds = frame.detections if dets else []
    return {
        "build_frustum": lambda **kw: radar.build_frustum(frame.detections[0], frame.camera, **kw),
        "associate": lambda **kw: radar.associate(pts, ds, frame.camera, **kw),
        "associate_naive": lambda **kw: radar.associate_naive(pts, ds, frame.camera, **kw),
        "cluster_sweeps": lambda **kw: radar.cluster_sweeps(frame.radar_sweeps, ds, frame.camera, **kw),
        "accumulate_sweeps": lambda **kw: radar.accumulate_sweeps(frame.radar_sweeps if points else [], **kw),
    }[name]


@pytest.mark.parametrize(
    "entry,setting,message",
    [
        (_radar_entry("build_frustum"), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("build_frustum"), {"expansion": 0.5}, "expansion must be a finite number >= 1.0, got 0.5"),
        (_radar_entry("associate"), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("associate", points=False), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("associate", dets=False), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("associate_naive", dets=False), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("cluster_sweeps"), {"expansion": math.nan}, _EXPANSION_NAN),
        (_radar_entry("accumulate_sweeps"), {"max_sweeps": 2.5}, "max_sweeps must be an integer >= 1, got 2.5"),
        (_radar_entry("accumulate_sweeps"), {"max_sweeps": 0}, "max_sweeps must be an integer >= 1, got 0"),
        (_radar_entry("accumulate_sweeps", points=False), {"max_sweeps": True}, "max_sweeps must be an integer >= 1, got True"),
        (_radar_entry("cluster_sweeps"), {"max_sweeps": 2.5}, "max_sweeps must be an integer >= 1, got 2.5"),
    ],
)
def test_radar_entries_reject_meaningless_setting(entry, setting, message):
    """The library entries check ``expansion`` and ``max_sweeps`` with the
    rule and text ``PipelineConfig`` uses, with or without points and
    detections."""
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(**setting)


def test_frame_front_end_checks_expansion_once_per_call(monkeypatch):
    """``cluster_sweeps`` checks ``expansion`` once, not once per detection."""
    names = []
    check = radar.check_number
    monkeypatch.setattr(radar, "check_number", lambda name, *a, **k: names.append(name) or check(name, *a, **k))
    radar.cluster_sweeps(_FRAME.radar_sweeps, _FRAME.detections, _FRAME.camera)
    assert len(_FRAME.detections) > 1
    assert sorted(names) == ["expansion", "max_sweeps"]


def test_run_scenes_orders_results_by_frame_id():
    """Frames run in input order; the results come back in frame-id order."""
    frames = synth_scene(SynthConfig(seed=8, n_frames=6, objects_max=3))
    net = build_network("lite", seed=0)
    cfg = PipelineConfig(feature_strategy="learned")
    forward = run_scenes(frames, cfg, net)
    backward = run_scenes(list(reversed(frames)), cfg, net)
    assert [r.frame_id for r in backward] == sorted(f.frame_id for f in frames)
    assert [r.frame_id for r in backward] == [r.frame_id for r in forward]
    for a, b in zip(forward, backward):
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.score == db.score
            assert np.array_equal(da.box.center, db.box.center)
        assert np.array_equal(a.radar_heatmap.owner, b.radar_heatmap.owner)
        assert np.array_equal(a.radar_heatmap.rows, b.radar_heatmap.rows)


def _heatmap_bytes(result) -> tuple[bytes, bytes]:
    # tobytes, not np.array_equal: a padded slot could turn -0.0 into +0.0.
    return result.radar_heatmap.rows.tobytes(), result.radar_heatmap.owner.tobytes()


# Frames of mixed cluster sizes, empty clusters included, for the window tests.
_WINDOW_FRAMES = synth_scene(
    SynthConfig(
        seed=3, n_frames=6, objects_min=1, objects_max=6, points_per_object_min=0,
        points_per_object_max=40, clutter_density=0.05, image_size=(200, 112), focal=125.0,
    )
)
for _frame in _WINDOW_FRAMES[1::3]:
    # Beyond the 60 m range gate, this detection's frustum holds no point.
    _frame.detections.append(dataclasses.replace(_frame.detections[0], depth=80.0))
_WINDOW_CASES = {
    "handcrafted": (PipelineConfig(), None),
    "learned-lite": (PipelineConfig(feature_strategy="learned"), build_network("lite", seed=0)),
    "hybrid-large": (PipelineConfig(feature_strategy="hybrid"), build_network("large", seed=0)),
}
_ALONE = {
    name: [_heatmap_bytes(process_frame(frame, cfg, net)) for frame in _WINDOW_FRAMES]
    for name, (cfg, net) in _WINDOW_CASES.items()
}


@pytest.mark.parametrize("name", sorted(_WINDOW_CASES))
@settings(max_examples=25, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_WINDOW_FRAMES) - 1), min_size=1, max_size=8),
    limit=st.integers(0, 600),
)
def test_windows_give_each_frame_its_own_bits(name, picks, limit):
    """Whatever frames share a window, in any order and of any size, each
    frame's heatmap ``rows`` and ``owner`` are the bytes its own
    ``process_frame`` gives."""
    cfg, net = _WINDOW_CASES[name]
    with unittest.mock.patch.object(pipeline, "WINDOW_MEMBER_ROWS", limit):
        results = pipeline.process_frames([_WINDOW_FRAMES[i] for i in picks], cfg, net)
    assert [_heatmap_bytes(r) for r in results] == [_ALONE[name][i] for i in picks]


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records each call's
    arguments."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_run_scenes_makes_one_feature_pass_per_window(monkeypatch):
    """Four small frames share one window: one neighbour search per layer."""
    cfg, net = _WINDOW_CASES["learned-lite"]
    calls = _counting(monkeypatch, kpconv, "_segment_neighbors")
    frames = _WINDOW_FRAMES[:4]
    results = run_scenes(frames, cfg, net)
    assert sum(c.member_count for r in results for c in r.clusters) > 0
    assert len(calls) == len(net.layers)


def _dense_file(n_frames: int) -> list:
    return synth_scene(
        SynthConfig(
            seed=11, n_frames=n_frames, objects_min=6, objects_max=12,
            points_per_object_min=10, points_per_object_max=40, clutter_density=0.05,
        )
    )


def _member_rows(clusters) -> int:
    return sum(c.member_count for c in clusters)


def test_file_spanning_two_windows(monkeypatch):
    """A file of more member rows than one window holds makes two feature
    passes, each of at most ``WINDOW_MEMBER_ROWS`` rows, and every frame
    keeps the bytes of its own pass."""
    cfg, net = _WINDOW_CASES["learned-lite"]
    frames = _dense_file(16)
    passes = _counting(monkeypatch, pipeline, "feature_rows")
    results = run_scenes(list(reversed(frames)), cfg, net)
    sizes = [_member_rows(clusters) for clusters, *_ in passes]
    assert len(sizes) == 2 and max(sizes) <= pipeline.WINDOW_MEMBER_ROWS
    assert sum(sizes) > pipeline.WINDOW_MEMBER_ROWS
    monkeypatch.undo()
    assert [_heatmap_bytes(r) for r in results] == [
        _heatmap_bytes(process_frame(frame, cfg, net)) for frame in frames
    ]


def _feature_pass_peaks(monkeypatch, frames, cfg, net) -> list[int]:
    """The ``tracemalloc`` peak of each feature pass of ``run_scenes``,
    above what was allocated when the pass began."""
    peaks, fn = [], pipeline.feature_rows

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows = fn(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return rows

    monkeypatch.setattr(pipeline, "feature_rows", traced)
    tracemalloc.start()
    try:
        run_scenes(frames, cfg, net)
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return peaks


def test_feature_pass_memory_is_set_by_one_window(monkeypatch):
    """The feature pass's memory does not grow with the file: a file of
    three windows peaks as high as its first window alone does, while one
    pass over the whole file would hold three windows' rows."""
    cfg, net = _WINDOW_CASES["learned-lite"]
    frames = _dense_file(40)
    first = next(pipeline._windows(frames, cfg))
    rows = sum(_member_rows(c) for window in pipeline._windows(frames, cfg) for _, c in window)
    assert rows > 2.5 * pipeline.WINDOW_MEMBER_ROWS
    one = _feature_pass_peaks(monkeypatch, [frame for frame, _ in first], cfg, net)
    many = _feature_pass_peaks(monkeypatch, frames, cfg, net)
    assert len(one) == 1 and len(many) >= 3
    assert max(many) <= 1.25 * one[0]


# -- CLI ----------------------------------------------------------------------


def test_cli_synth_run_eval_noiseless(tmp_path, capsys):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({"seed": 11, "n_frames": 5, "objects_max": 3}))
    scenes = str(tmp_path / "scenes.jsonl")
    dets = str(tmp_path / "dets.jsonl")
    report = str(tmp_path / "report.txt")

    assert main(["synth", "--config", str(config_path), "--out", scenes]) == 0
    assert main(["run", "--scenes", scenes, "--features", "handcrafted", "--out", dets]) == 0
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", report]) == 0

    output = capsys.readouterr().out
    assert "NDS" in output
    values = dict(
        line.split("=", 1) for line in Path(report).read_text().splitlines() if "=" in line
    )
    assert float(values["NDS"]) > 1.0 - 1e-9
    assert float(values["mAP"]) == 1.0


def test_cli_run_learned_with_checkpoint(tmp_path):
    scenes = _write_scene(tmp_path, seed=3, n_frames=2, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    weights = str(tmp_path / "net.rckp")
    code = main(
        [
            "run", "--scenes", scenes, "--features", "learned", "--net", "lite",
            "--out", dets, "--save-net-weights", weights,
        ]
    )
    assert code == 0
    assert os.path.exists(weights)
    rerun = str(tmp_path / "dets2.jsonl")
    assert main(
        ["run", "--scenes", scenes, "--features", "learned", "--net-weights", weights, "--out", rerun]
    ) == 0
    assert load_detections(dets) is not None
    assert Path(dets).read_text() == Path(rerun).read_text()


# Byte offsets in a "lite" checkpoint: the header is magic, version, variant
# length, "lite", base cell (f64), cap and layer count; layer 0 then starts
# with K, in, out (uint32) and strided (uint8), followed by radius and sigma
# (f64), 8 kernel points and the weights.
_BASE_CELL = 16
_RADIUS = 32 + 13
_KERNEL_POINTS = _RADIUS + 16


def _put(offset: int, value: float):
    return lambda data: data[:offset] + struct.pack("<d", value) + data[offset + 8 :]


def _first_layer_takes_four_channels(data: bytes) -> bytes:
    """Layer 0 of a "lite" checkpoint (8 kernel points, 5 -> 8 channels)
    with its last input channel cut out of the header and the weights."""
    start = _KERNEL_POINTS + 8 * 24
    weights = np.frombuffer(data, dtype="<f8", count=8 * 5 * 8, offset=start).reshape(8, 5, 8)
    header = data[:32] + struct.pack("<III", 8, 4, 8) + data[44:start]
    return header + weights[:, :4].tobytes() + data[start + weights.nbytes :]


_BAD_CHECKPOINTS = [
    ("trailing-bytes", lambda data: data + b"\0", "1 byte(s) after the last layer"),
    ("truncated-in-weights", lambda data: data[:-100], "truncated checkpoint"),
    ("variant-not-utf8", lambda data: data[:12] + b"\xff\xfe" + data[14:], "variant name is not UTF-8"),
    ("nan-base-cell", _put(_BASE_CELL, math.nan), "base_cell_size must be a finite number > 0, got nan"),
    ("nan-radius", _put(_RADIUS, math.nan), "layer 0: radius must be a finite number > 0, got nan"),
    ("inf-radius", _put(_RADIUS, math.inf), "layer 0: radius must be a finite number > 0, got inf"),
    ("nan-sigma", _put(_RADIUS + 8, math.nan), "layer 0: influence_sigma must be a finite number > 0, got nan"),
    ("nan-kernel-point", _put(_KERNEL_POINTS + 24, math.nan), "layer 0: kernel points must be finite"),
    ("inf-weight", _put(_KERNEL_POINTS + 8 * 24, math.inf), "layer 0: weights must be finite"),
    ("first-layer-not-5-channels", _first_layer_takes_four_channels, "first layer takes 4 input channels"),
]


@pytest.mark.parametrize(
    "corrupt,message", [row[1:] for row in _BAD_CHECKPOINTS], ids=[row[0] for row in _BAD_CHECKPOINTS]
)
def test_cli_run_rejects_malformed_checkpoint(tmp_path, capsys, corrupt, message):
    """A malformed or non-finite network checkpoint: exit 1, one error line
    naming the checkpoint, no traceback and no warning."""
    scenes = _write_scene(tmp_path, seed=3, n_frames=1, objects_max=2)
    weights = tmp_path / "net.rckp"
    save_network(build_network("lite", seed=0), str(weights))
    weights.write_bytes(corrupt(weights.read_bytes()))
    out = tmp_path / "dets.jsonl"
    args = ["run", "--scenes", scenes, "--features", "learned", "--net-weights", str(weights)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_dump_bev(tmp_path):
    scenes = _write_scene(tmp_path, seed=6, n_frames=2, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    bev = str(tmp_path / "bev.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets, "--dump-bev", bev]) == 0
    lines = [json.loads(line) for line in Path(bev).read_text().splitlines()]
    assert len(lines) == 2
    for record in lines:
        assert {"frame_id", "boxes", "clusters"} <= set(record)
        for box in record["boxes"]:
            assert len(box["footprint"]) == 4


def test_cli_dump_bev_reads_positions_not_members(tmp_path, monkeypatch):
    """`run --dump-bev` builds no RadarPoint, and its file has the bytes of
    one whose cluster points are written through each cluster's `members`."""
    scenes = _write_scene(tmp_path, seed=6, n_frames=3, objects_min=2, objects_max=3)
    built = []
    row_points = radar._row_points
    monkeypatch.setattr(radar, "_row_points", lambda *cols: built.append(1) or row_points(*cols))
    bev = tmp_path / "bev.jsonl"
    out = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", out, "--dump-bev", str(bev)]) == 0
    assert built == []
    results = run_scenes(load_scenes(scenes), PipelineConfig())
    lines = bev.read_text().splitlines(keepends=True)
    assert len(lines) == len(results)
    for line, result in zip(lines, results):
        record = json.loads(line)
        for entry, cluster in zip(record["clusters"], result.clusters, strict=True):
            entry["points_bev"] = [p.position[:2].tolist() for p in cluster.members]
        assert line == json.dumps(record) + "\n"
    assert any(c.member_count for result in results for c in result.clusters)


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 2


def test_cli_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_data_error_exits_1(tmp_path, capsys):
    assert main(["run", "--scenes", str(tmp_path / "missing.jsonl"), "--out", "x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_eval_without_ground_truth_exits_1(tmp_path, capsys):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_min=0, objects_max=0)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 1


def test_cli_eval_rejects_unknown_frames(tmp_path):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    other = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    records = Path(dets).read_text().splitlines()
    payload = json.loads(records[1])
    payload["frame_id"] = 42
    with open(dets, "w") as fh:
        fh.write(records[0] + "\n" + json.dumps(payload) + "\n")
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 1


def _rewrite_first_frame(path: str, edit) -> None:
    header, record, *rest = Path(path).read_text().splitlines()
    payload = json.loads(record)
    edit(payload)
    Path(path).write_text("\n".join([header, json.dumps(payload), *rest]) + "\n")


@pytest.mark.parametrize("center", [[5000.0, 100.0], [-3.0, 100.0]])
def test_cli_run_rejects_center_outside_image(tmp_path, capsys, center):
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_min=1, objects_max=2)
    _rewrite_first_frame(scenes, lambda rec: rec["detections"][0].update(center2d=center))
    assert main(["run", "--scenes", scenes, "--out", str(tmp_path / "dets.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: detection center2d must lie inside the 800x448 image\n"


_NAN = float("nan")


def _set_point(field, value):
    return lambda rec: rec["radar_sweeps"][0]["points"][0].update({field: value})


def _set_detection(field, value):
    return lambda rec: rec["detections"][0].update({field: value})


def _set_box(field, value):
    return lambda rec: rec["detections"][0]["box"].update({field: value})


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_point("position", [1.0, _NAN, 0.0]), "radar point position must be finite"),
        (_set_point("velocity", [_NAN, 0.0]), "radar point velocity must be finite"),
        (_set_point("velocity", [0.0, float("inf")]), "radar point velocity must be finite"),
        (_set_point("rcs", _NAN), "radar point rcs must be finite"),
        (_set_point("sweep_age", _NAN), "radar point sweep_age must be finite"),
        (lambda rec: rec["radar_sweeps"][1].update(timestamp=_NAN), "sweep timestamp must be finite"),
        (_set_detection("class_id", _NAN), "detection class_id must be finite"),
        (_set_detection("score", _NAN), "detection score must be finite"),
        (_set_detection("bbox", [0.0, 0.0, _NAN, 10.0]), "detection bbox must be finite"),
        (_set_detection("center2d", [_NAN, 100.0]), "detection center2d must be finite"),
        (_set_detection("depth", _NAN), "detection depth must be finite"),
        (_set_detection("log_sigma", _NAN), "detection log_sigma must be finite"),
        (_set_detection("attribute", _NAN), "detection attribute must be finite"),
        (_set_detection("depth", "far"), "detection depth must be a number"),
        (_set_box("center", [0.0, _NAN, 1.0]), "box center must be finite"),
        (_set_box("dims", [_NAN, 4.0, 1.5]), "box dims must be finite"),
        (_set_box("yaw", float("-inf")), "box yaw must be finite"),
        (_set_box("velocity", [_NAN, 0.0]), "box velocity must be finite"),
        (
            lambda rec: rec["ground_truth"][0]["box"].update(center=[_NAN, 20.0, 1.0]),
            "box center must be finite",
        ),
        (lambda rec: rec["ground_truth"][0].update(class_id=_NAN), "ground truth class_id must be finite"),
        (lambda rec: rec["camera"]["intrinsic"][0].__setitem__(2, _NAN), "camera intrinsic must be finite"),
        (lambda rec: rec["camera"]["extrinsic"][1].__setitem__(3, _NAN), "camera extrinsic must be finite"),
        (lambda rec: rec.update(frame_id=_NAN), "frame frame_id must be finite"),
    ],
    ids=[
        "point-position", "point-velocity", "point-velocity-inf", "point-rcs",
        "point-sweep_age", "sweep-timestamp", "detection-class_id", "detection-score",
        "detection-bbox", "detection-center2d", "detection-depth", "detection-log_sigma",
        "detection-attribute", "detection-depth-string", "box-center", "box-dims",
        "box-yaw", "box-velocity", "ground_truth-box-center", "ground_truth-class_id",
        "camera-intrinsic", "camera-extrinsic", "frame_id",
    ],
)
def test_cli_run_rejects_non_finite_field(tmp_path, capsys, edit, message):
    """A non-finite number anywhere in a frame is a parse error naming the
    line and the field: exit 1, one error line, no traceback."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_min=1, objects_max=2)
    _rewrite_first_frame(scenes, edit)
    assert main(["run", "--scenes", scenes, "--out", str(tmp_path / "dets.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _reverse_sweeps(rec):
    rec["radar_sweeps"].reverse()


def _stretch_sweeps(rec):
    rec["radar_sweeps"][0]["timestamp"] = 1e308
    rec["radar_sweeps"][-1]["timestamp"] = -1e308


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "edit,message",
    [
        (_reverse_sweeps, "frame radar_sweeps must be ordered newest first"),
        (_stretch_sweeps, "frame radar_sweeps must span a finite time"),
    ],
    ids=["oldest-first", "infinite-span"],
)
def test_cli_rejects_unordered_radar_sweeps(tmp_path, capsys, command, edit, message):
    """Sweeps come newest first, each a finite age behind the newest: both
    commands that read a scene file exit 1 naming the line and the field."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_min=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    capsys.readouterr()
    _rewrite_first_frame(scenes, edit)
    args = {
        "run": ["run", "--scenes", scenes, "--out", str(tmp_path / "out.jsonl")],
        "eval": ["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "field,value,message",
    [
        ("bbox", [-50.0, 10.0, 100.0, 100.0], "bbox must lie inside the 800x448 image"),
        ("bbox", [10.0, 10.0, 100.0, 449.0], "bbox must lie inside the 800x448 image"),
        ("center2d", [900.0, 10.0], "center2d must lie inside the 800x448 image"),
        ("center2d", [10.0, -0.5], "center2d must lie inside the 800x448 image"),
        ("depth", 0.3, "depth must be greater than the 0.5 m gate floor"),
        ("depth", 0.5, "depth must be greater than the 0.5 m gate floor"),
        ("depth", 1e300, "depth must be at most 1000000 m"),
    ],
    ids=[
        "bbox-left", "bbox-bottom", "center-right", "center-top", "depth-0.3", "depth-0.5",
        "depth-1e300",
    ],
)
def test_cli_rejects_detection_outside_camera(tmp_path, capsys, command, field, value, message):
    """A detection whose box or center leaves its camera's image, or whose
    depth is not beyond the radar gate's floor: both commands that read a
    scene file exit 1 naming the line and the field."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_min=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    capsys.readouterr()
    _rewrite_first_frame(scenes, _set_detection(field, value))
    args = {
        "run": ["run", "--scenes", scenes, "--out", str(tmp_path / "out.jsonl")],
        "eval": ["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: line 2: detection {message}\n"


@pytest.mark.parametrize("depth,code", [(1e6, 0), (1e6 + 0.5, 1), (2.0**53, 1), (1e300, 1)])
def test_cli_run_bounds_detection_depth_on_its_line(tmp_path, capsys, depth, code):
    """A depth past ``MAX_DETECTION_DEPTH`` in the last frame fails on that
    frame's line, before its depth gate could collapse to a bare
    ``ValueError``; a depth at the bound runs."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=3, objects_min=1, objects_max=2)
    lines = Path(scenes).read_text().splitlines()
    record = json.loads(lines[3])
    record["detections"][0]["depth"] = depth
    lines[3] = json.dumps(record)
    Path(scenes).write_text("\n".join(lines) + "\n")
    assert main(["run", "--scenes", scenes, "--out", str(tmp_path / "dets.jsonl")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "error: line 4: detection depth must be at most 1000000 m\n")


def _set_at(path, value):
    """An edit of a parsed record that sets the field at ``path`` (keys and
    list indices) to ``value``."""

    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value

    return edit


def _run_or_eval_edited(tmp_path, kind, edit) -> int:
    """Edit the first frame of a fresh scene file (then ``rcdet run`` it, or
    with kind ``gt`` ``rcdet eval`` against it) or of its detections file
    (then ``rcdet eval`` it); the exit code."""
    scenes = _write_scene(
        tmp_path, seed=2, n_frames=2, objects_min=1, objects_max=2, image_size=(200, 112),
        focal=125.0,
    )
    dets, out = str(tmp_path / "dets.jsonl"), str(tmp_path / "out.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    if kind == "scenes":
        _rewrite_first_frame(scenes, edit)
        return main(["run", "--scenes", scenes, "--out", out])
    _rewrite_first_frame(scenes if kind == "gt" else dets, edit)
    return main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")])


_WRONG_TYPES = [
    ("scenes", ("frame_id",), [1], "frame frame_id must be a number"),
    ("scenes", ("frame_id",), 1.5, "frame frame_id must be an integer"),
    ("scenes", ("frame_id",), True, "frame frame_id must be an integer"),
    ("scenes", ("frame_id",), -1, "frame frame_id must be in [0, 9007199254740991]"),
    ("scenes", ("frame_id",), 1e300, "frame frame_id must be in [0, 9007199254740991]"),
    ("scenes", ("frame_id",), 2**53, "frame frame_id must be in [0, 9007199254740991]"),
    ("scenes", ("camera",), 5, "frame camera must be an object"),
    ("scenes", ("camera", "image_size"), 200, "camera image_size must be a list of numbers"),
    ("scenes", ("camera", "image_size"), [200.7, 112], "camera image_size must be a list of integers"),
    ("scenes", ("camera", "image_size"), [8192, 112], "camera image_size must be in [1, 4096]"),
    ("scenes", ("camera", "intrinsic", 2, 2), True, "camera intrinsic must be a matrix of numbers"),
    ("scenes", ("camera", "extrinsic", 0, 1), "0", "camera extrinsic must be a matrix of numbers"),
    ("scenes", ("radar_sweeps",), 5, "frame radar_sweeps must be an array of objects"),
    ("scenes", ("radar_sweeps",), [5], "frame radar_sweeps must be an array of objects"),
    ("scenes", ("radar_sweeps", 0, "points"), {}, "sweep points must be an array of objects"),
    ("scenes", ("radar_sweeps", 0, "points"), ["x"], "sweep points must be an array of objects"),
    ("scenes", ("radar_sweeps", 1, "timestamp"), [0.0], "sweep timestamp must be a number"),
    ("scenes", ("radar_sweeps", 1, "timestamp"), True, "sweep timestamp must be a number"),
    ("scenes", ("detections",), "abc", "frame detections must be an array of objects"),
    ("scenes", ("detections",), [[]], "frame detections must be an array of objects"),
    ("scenes", ("detections", 0, "class_id"), [0], "detection class_id must be a number"),
    ("scenes", ("detections", 0, "class_id"), 0.9, "detection class_id must be an integer"),
    ("scenes", ("detections", 0, "class_id"), True, "detection class_id must be an integer"),
    ("scenes", ("detections", 0, "class_id"), -1, "detection class_id must be in [0, 255]"),
    ("scenes", ("detections", 0, "class_id"), 256, "detection class_id must be in [0, 255]"),
    ("scenes", ("detections", 0, "attribute"), 2.7, "detection attribute must be an integer"),
    ("scenes", ("detections", 0, "score"), [0.5], "detection score must be a number"),
    ("scenes", ("detections", 0, "bbox"), 5, "detection bbox must be a list of numbers"),
    ("scenes", ("detections", 0, "score"), True, "detection score must be a number"),
    ("scenes", ("detections", 0, "depth"), True, "detection depth must be a number"),
    ("scenes", ("detections", 0, "log_sigma"), False, "detection log_sigma must be a number"),
    ("scenes", ("detections", 0, "bbox"), [0, 0, True, 10], "detection bbox must be a list of numbers"),
    ("scenes", ("detections", 0, "box", "yaw"), True, "box yaw must be a number"),
    ("scenes", ("detections", 0, "box", "center"), [0, True, 1], "box center must be a list of numbers"),
    ("scenes", ("detections", 0, "box"), 5, "detection box must be an object"),
    ("scenes", ("ground_truth",), 5, "frame ground_truth must be an array of objects"),
    ("scenes", ("ground_truth",), [None], "frame ground_truth must be an array of objects"),
    ("scenes", ("ground_truth", 0, "class_id"), [1], "ground truth class_id must be a number"),
    ("scenes", ("ground_truth", 0, "class_id"), 1.5, "ground truth class_id must be an integer"),
    ("scenes", ("ground_truth", 0, "attribute"), [1], "ground truth attribute must be a number"),
    ("scenes", ("ground_truth", 0, "box"), [], "ground truth box must be an object"),
    ("scenes", ("ground_truth", 0, "box", "yaw"), False, "box yaw must be a number"),
    ("dets", ("boxes",), 5, "frame boxes must be an array of objects"),
    ("dets", ("boxes",), [5], "frame boxes must be an array of objects"),
    ("dets", ("frame_id",), [0], "frame frame_id must be a number"),
    ("dets", ("frame_id",), 0.5, "frame frame_id must be an integer"),
    ("dets", ("frame_id",), -1, "frame frame_id must be in [0, 9007199254740991]"),
    ("dets", ("frame_id",), 1e300, "frame frame_id must be in [0, 9007199254740991]"),
    ("dets", ("boxes", 0, "class_id"), [0], "box class_id must be a number"),
    ("dets", ("boxes", 0, "class_id"), 0.5, "box class_id must be an integer"),
    ("dets", ("boxes", 0, "score"), True, "box score must be a number"),
] + [
    (kind, ("radar_sweeps", 0, "points", 0, field), value, f"radar point {field} must be {what}")
    for kind in ("scenes", "gt")
    for field, value, what in [
        ("position", ["1.5", 20, 0], "a list of 3 numbers"),
        ("position", [True, 20, 0], "a list of 3 numbers"),
        ("position", [[1.0], [2.0], [0.0]], "a list of 3 numbers"),
        ("position", [[1, 2, 0]], "a list of 3 numbers"),
        ("velocity", [False, True], "a list of 2 numbers"),
        ("rcs", "3.5", "a number"),
        ("rcs", True, "a number"),
        ("sweep_age", "0.5", "a number"),
        ("sweep_age", -0.5, ">= 0"),
    ]
] + [
    (kind, ("camera", "intrinsic", row, column), value, f"bad camera record: intrinsic {what}")
    for kind in ("scenes", "gt")
    for row, column, value, what in [
        (0, 0, 5e-324, "focal entries must be >= 1.0 pixel"),
        (1, 1, 0.5, "focal entries must be >= 1.0 pixel"),
        (2, 2, 5e-324, "bottom row must be [0, 0, 1]"),
        (2, 2, -5e-324, "bottom row must be [0, 0, 1]"),
        (2, 2, 1.797e308, "bottom row must be [0, 0, 1]"),
        (2, 2, -1.797e308, "bottom row must be [0, 0, 1]"),
        (2, 2, 2.0, "bottom row must be [0, 0, 1]"),
    ]
]


@pytest.mark.parametrize(
    "kind,path,value,message",
    _WRONG_TYPES,
    ids=[f"{k}-{'.'.join(map(str, p))}-{json.dumps(v)}" for k, p, v, _ in _WRONG_TYPES],
)
def test_cli_rejects_wrong_json_type(tmp_path, capsys, kind, path, value, message):
    """A field of the wrong JSON type, a fraction or boolean where an integer
    belongs, an id or image size out of range, or a camera intrinsic that
    projection cannot invert: exit 1, one error line naming the line and the
    field, no traceback."""
    assert _run_or_eval_edited(tmp_path, kind, _set_at(path, value)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("image_size", [[802, 448], [800, 450]])
def test_cli_run_rejects_image_side_off_the_feature_stride(
    tmp_path, capsys, monkeypatch, image_size
):
    """A camera image side that is no multiple of the feature stride, in the
    last frame: `rcdet run` exits 1 naming the frame before it processes any
    frame; `rcdet eval` reads the file as before."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=3, objects_min=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    capsys.readouterr()
    header, *records = Path(scenes).read_text().splitlines()
    last = json.loads(records[-1])
    last["camera"]["image_size"] = image_size
    Path(scenes).write_text("\n".join([header, *records[:-1], json.dumps(last)]) + "\n")
    processed = []
    monkeypatch.setattr(pipeline, "process_frames", lambda frames, *args: processed.extend(frames))
    assert main(["run", "--scenes", scenes, "--out", str(tmp_path / "out.jsonl")]) == 1
    width, height = image_size
    assert capsys.readouterr().err == (
        f"error: frame 2: camera image_size {width}x{height} must be a multiple of the "
        "feature stride 4\n"
    )
    assert processed == []
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 0


def _field_paths(node, prefix=()):
    """Every key and list-index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """One small frame's scene and detections files, and each file's header,
    frame record and field paths."""
    root = tmp_path_factory.mktemp("mutation")
    scenes, dets = str(root / "scenes.jsonl"), str(root / "dets.jsonl")
    synth = SynthConfig(
        seed=2, n_frames=1, objects_min=2, objects_max=2, points_per_object_max=4,
        clutter_density=0.0, n_sweeps=2, image_size=(200, 112), focal=125.0,
    )
    save_scenes(scenes, synth_scene(synth))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    files = {}
    for path in (scenes, dets):
        header, record = Path(path).read_text().splitlines()
        files[path] = (header, json.loads(record), list(_field_paths(json.loads(record))))
    return root, scenes, dets, files


_JSON_SCALARS = st.one_of(
    st.integers(), st.floats(), st.text(max_size=8), st.none(), st.booleans()
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=8), _JSON_SCALARS, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_survives_any_one_field_mutation(mutation_inputs, data):
    """Any one field of a valid scene or detections record replaced by any
    JSON value: `run` and `eval` exit 0 with nothing on stderr, or 1 with
    one error line, and raise nothing (warnings included)."""
    root, scenes, dets, files = mutation_inputs
    target = data.draw(st.sampled_from([scenes, dets]))
    header, record, paths = files[target]
    path = data.draw(st.sampled_from(paths))
    payload = json.loads(json.dumps(record))
    _set_at(path, data.draw(_JSON_VALUES))(payload)
    for name, (head, original, _) in files.items():
        body = payload if name == target else original
        Path(name).write_text(head + "\n" + json.dumps(body) + "\n")
    for args in (
        ["run", "--scenes", scenes, "--out", str(root / "out.jsonl")],
        ["eval", "--dets", dets, "--gt", scenes, "--report", str(root / "report.txt")],
    ):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
        assert (code, err.getvalue().count("\n")) in ((0, 0), (1, 1)), err.getvalue()


@pytest.mark.parametrize(
    "target,path,value",
    [
        # A box whose volume overflows: the scale error's IoU cannot overflow.
        ("dets", ("boxes", 0, "box", "dims", 0), 8.185385208973377e306),
        # A return whose squared range overflows: inf is out of range.
        ("scenes", ("radar_sweeps", 0, "points", 0, "position", 0), 1.3407807929942597e154),
    ],
)
def test_cli_survives_value_past_float64(mutation_inputs, target, path, value):
    """Values a field-mutation search found: `run` and `eval` exit 0 with no
    warning, and no NaN reaches the report."""
    root, scenes, dets, files = mutation_inputs
    target = {"dets": dets, "scenes": scenes}[target]
    for name, (head, record, _) in files.items():
        body = json.loads(json.dumps(record))
        if name == target:
            _set_at(path, value)(body)
        Path(name).write_text(head + "\n" + json.dumps(body) + "\n")
    report = root / "report.txt"
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        assert main(["run", "--scenes", scenes, "--out", str(root / "out.jsonl")]) == 0
        assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(report)]) == 0
    assert "nan" not in report.read_text().lower()


# Zeros, a negative, the subnormal extremes, and magnitudes around the
# square root and the top of float64's range.
_SWEEP_VALUES = [0, -0.0, -1, 5e-324, -5e-324, 1e-300, 1.34e154, 1e300, 1.797e308, -1.797e308]


def _leaf(record, path):
    for key in path:
        record = record[key]
    return record


@pytest.mark.parametrize("value", _SWEEP_VALUES, ids=repr)
@pytest.mark.parametrize("target", ["scenes", "dets"])
def test_cli_survives_each_numeric_leaf_at_each_extreme(mutation_inputs, target, value):
    """Every numeric leaf of the mutation test's scene or detections record,
    set to ``value``: `run` and `eval` exit 0 with nothing on stderr, or 1
    with one error line that names the edited record's line 2, raise
    nothing (warnings included), and write no NaN into the report. The
    deterministic twin of the Hypothesis test."""
    root, scenes, dets, files = mutation_inputs
    target = {"dets": dets, "scenes": scenes}[target]
    header, record, paths = files[target]
    report = root / "report.txt"
    runs = (
        ["run", "--scenes", scenes, "--out", str(root / "out.jsonl")],
        ["eval", "--dets", dets, "--gt", scenes, "--report", str(report)],
    )
    leaves = [path for path in paths if type(_leaf(record, path)) in (int, float)]
    assert leaves
    failures = []
    for path in leaves:
        payload = json.loads(json.dumps(record))
        _set_at(path, value)(payload)
        for name, (head, original, _) in files.items():
            body = payload if name == target else original
            Path(name).write_text(head + "\n" + json.dumps(body) + "\n")
        for args in runs:
            report.unlink(missing_ok=True)
            err = io.StringIO()
            try:
                with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(args)
            except Exception as exc:  # noqa: BLE001 - every escape is a failing case
                failures.append((args[0], path, repr(exc)))
                continue
            text = err.getvalue()
            if not (
                (code == 0 and text == "")
                or (code == 1 and re.fullmatch(r"error: line 2: [^\n]*\n", text))
            ):
                failures.append((args[0], path, code, text))
            elif args[0] == "eval" and code == 0 and "nan" in report.read_text().lower():
                failures.append((args[0], path, "NaN in the report"))
    assert failures == []


@pytest.mark.parametrize("field", ["score", "class_id"])
def test_cli_eval_rejects_non_finite_detection_box(tmp_path, capsys, field):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_min=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    capsys.readouterr()
    _rewrite_first_frame(dets, lambda rec: rec["boxes"][0].update({field: _NAN}))
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: line 2: box {field} must be finite\n"


@pytest.mark.parametrize(
    "option,value",
    [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--top-k", "0"),
        ("--top-k", "-5"),
        ("--threshold", "nan"),
        ("--threshold", "2"),
        ("--threshold", "-0.1"),
        ("--expansion", "nan"),
        ("--expansion", "inf"),
        ("--expansion", "0.5"),
    ],
)
def test_cli_run_rejects_meaningless_option(tmp_path, capsys, option, value):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    out = tmp_path / "dets.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenes", scenes, "--out", str(out), option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "--scenes", "s", "--out", "d", "--net-seed", "-1"], "argument --net-seed: must be an integer >= 0, got -1"),
        (["run", "--scenes", "s", "--out", "d", "--top-k", "0"], "argument --top-k: must be an integer >= 1, got 0"),
        (["run", "--scenes", "s", "--out", "d", "--workers", "-3"], "argument --workers: must be an integer >= 1, got -3"),
        (["run", "--scenes", "s", "--out", "d", "--net-seed", "2.5"], "argument --net-seed: invalid int value: '2.5'"),
        (["run", "--scenes", "s", "--out", "d", "--top-k", "1e3"], "argument --top-k: invalid int value: '1e3'"),
    ],
    ids=["net-seed", "top-k", "workers", "net-seed-fraction", "top-k-exponent"],
)
def test_cli_rejects_meaningless_integer_option(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_run_accepts_option_bounds(tmp_path):
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_max=2)
    args = ["run", "--scenes", scenes, "--out", str(tmp_path / "dets.jsonl")]
    args += ["--workers", "1", "--top-k", "1", "--threshold", "1", "--expansion", "1"]
    assert main(args) == 0
    assert main(args[:5] + ["--threshold", "0"]) == 0


def test_cli_run_output_is_the_same_for_every_worker_count(tmp_path, capsys):
    """``--workers`` is checked but changes nothing: frames run in order on
    one thread."""
    scenes = _write_scene(tmp_path, seed=8, n_frames=6, objects_max=3)
    written = []
    for workers in ("1", "2", "3"):
        dets = tmp_path / f"dets-{workers}.jsonl"
        args = ["run", "--scenes", scenes, "--out", str(dets), "--features", "learned"]
        assert main(args + ["--net", "lite", "--workers", workers]) == 0
        written.append(dets.read_bytes())
    assert written[0].count(b"\n") == 7
    assert written[1] == written[0] and written[2] == written[0]
    assert capsys.readouterr().out.count("processed 6 frames") == 3


def test_cli_rejects_duplicate_frame_ids(tmp_path, capsys):
    scenes = _write_scene(tmp_path, seed=2, n_frames=2, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    header, first, _ = Path(dets).read_text().splitlines()
    Path(dets).write_text("\n".join([header, first, first]) + "\n")
    report = str(tmp_path / "r")
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", report]) == 1
    assert "line 3: duplicate frame_id 0" in capsys.readouterr().err
    _rewrite_first_frame(scenes, lambda rec: rec.update(frame_id=1))
    assert main(["run", "--scenes", scenes, "--out", dets]) == 1
    assert "line 3: duplicate frame_id 1" in capsys.readouterr().err


def test_cli_import_compiles_no_loss_module():
    """``import rcdet.cli`` leaves the loss suite unimported; the package
    still exports its names, and none of the deleted association
    benchmark's."""
    src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
    script = "import rcdet.cli, sys; print('rcdet.losses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"
    import rcdet

    assert "focal_loss" in dir(rcdet)
    assert rcdet.total_loss.__module__ == "rcdet.losses"
    for name in ("no_such_name", "bench_association", "BenchReport", "ResultMismatch"):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(rcdet, name)


def test_cli_has_no_bench_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value",
    [("--net-weights", None), ("--save-net-weights", None), ("--net", "medium"), ("--net-seed", "5")],
    ids=["--net-weights", "--save-net-weights", "--net", "--net-seed"],
)
def test_cli_run_rejects_network_option_for_handcrafted_features(tmp_path, capsys, option, value):
    """A handcrafted run builds no network, so a network option has no
    meaning: a usage error naming the option, with nothing read or written."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    out = tmp_path / "dets.jsonl"
    checkpoint = tmp_path / "net.rckp"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenes", scenes, "--out", str(out), option, value or str(checkpoint)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: needs --features learned or hybrid" in err
    assert not out.exists() and not checkpoint.exists()


@pytest.mark.parametrize("option,value", [("--net", "large"), ("--net-seed", "9")], ids=["--net", "--net-seed"])
def test_cli_run_rejects_network_build_option_with_checkpoint(tmp_path, capsys, option, value):
    """A checkpoint fixes the network, so ``--net`` or ``--net-seed`` next to
    ``--net-weights`` has no meaning: a usage error naming the option, with
    nothing read or written."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    out, saved = tmp_path / "dets.jsonl", tmp_path / "saved.rckp"
    checkpoint = tmp_path / "net.rckp"
    save_network(build_network("lite", seed=0), str(checkpoint))
    args = ["run", "--scenes", scenes, "--out", str(out), "--features", "hybrid"]
    args += ["--net-weights", str(checkpoint), "--save-net-weights", str(saved), option, value]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: not allowed with argument --net-weights" in err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize(
    "given,built",
    [([], ("large", 0)), (["--net", "lite", "--net-seed", "3"], ("lite", 3))],
    ids=["defaults", "given"],
)
def test_cli_run_builds_large_seed_0_network_by_default(tmp_path, monkeypatch, given, built):
    """Without a checkpoint, ``--net`` and ``--net-seed`` default to the
    ``large`` network at seed 0; a lite network stands in for the build."""
    calls = []

    def build(variant, seed):
        calls.append((variant, seed))
        return build_network("lite", seed=0)

    monkeypatch.setattr(cli, "build_network", build)
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    args = ["run", "--scenes", scenes, "--out", str(tmp_path / "dets.jsonl")]
    assert main(args + ["--features", "learned"] + given) == 0
    assert calls == [built]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--features", "learned", "--net", "lite", "--net-weights", ""],
        ["run", "--features", "learned", "--net", "lite", "--save-net-weights", ""],
        ["run", "--dump-bev", ""],
        ["synth", "--config", ""],
    ],
    ids=["--net-weights", "--save-net-weights", "--dump-bev", "--config"],
)
def test_cli_rejects_empty_file_path(tmp_path, capsys, argv):
    """An empty path names no file: a usage error naming the option, not a
    silently absent option, with nothing read or written."""
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    out = tmp_path / "out.jsonl"
    paths = ["--out", str(out)] + (["--scenes", scenes] if argv[0] == "run" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + paths + argv[1:])
    assert exc.value.code == 2
    option = argv[-2]
    assert f"argument {option}: must be a file path, got ''" in capsys.readouterr().err
    assert not out.exists()


def test_cli_synth_rejects_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({"bogus_knob": 3}))
    assert main(["synth", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 1


_BAD_SYNTH_CONFIGS = [
    ({"image_size": 5}, "image_size"),
    ({"image_size": [200]}, "image_size"),
    ({"image_size": [200.5, 112]}, "image_size"),
    ({"image_size": [True, 112]}, "image_size"),
    ({"image_size": [0, 112]}, "image_size"),
    ({"image_size": [8192, 112]}, "image_size"),
    ({"n_frames": 2.5}, "n_frames"),
    ({"n_frames": True}, "n_frames"),
    ({"seed": "a"}, "seed"),
    ({"objects_max": None}, "objects_max"),
    ({"focal": "far"}, "focal"),
    ({"clutter_density": float("nan")}, "clutter_density"),
    ({"log_sigma": float("-inf")}, "log_sigma"),
    ({"max_speed": 10**400}, "max_speed"),
    ({"position_noise": [0.1]}, "position_noise"),
    ({"downsample": 0}, "downsample"),
    ({"seed": -1}, "seed"),
    ({"n_frames": -1}, "n_frames"),
    ({"objects_min": -1}, "objects_min"),
    ({"points_per_object_min": -5, "points_per_object_max": -1}, "points_per_object_min"),
    ({"n_sweeps": -3}, "n_sweeps"),
    ({"n_sweeps": 0}, "n_sweeps"),
    ({"clutter_density": -1}, "clutter_density"),
    ({"position_noise": -0.1}, "position_noise"),
    ({"velocity_noise": -0.1}, "velocity_noise"),
    ({"depth_noise": -1}, "depth_noise"),
    ({"position_noise": 1e308}, "position_noise"),
    ({"velocity_noise": 1000.5}, "velocity_noise"),
    ({"depth_noise": 1e308}, "depth_noise"),
    ({"bbox_jitter": -2}, "bbox_jitter"),
    ({"max_speed": -3}, "max_speed"),
    ({"focal": -5.0}, "focal"),
    ({"focal": 0.0}, "focal"),
    ({"focal": 0.5}, "focal"),
]


@pytest.mark.parametrize(
    "settings,field", _BAD_SYNTH_CONFIGS, ids=[json.dumps(s)[:32] for s, _ in _BAD_SYNTH_CONFIGS]
)
def test_cli_synth_rejects_wrongly_typed_config(tmp_path, capsys, settings, field):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(settings))
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad synth config: {field} ") and err.count("\n") == 1
    assert not out.exists()
