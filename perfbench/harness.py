"""Runs one workload: builds its input, checks every output, measures.

One run is a closed loop with a single caller. It

1. generates the workload's scene files from the seed (and, at the default
   seed, checks their pinned sha256);
2. makes a check pass over every frame: ``process_frame`` against the traced
   replay (detections and heatmap bit-equal), ``associate`` against
   ``associate_naive``, and the KPConv replay against ``extract_learned``;
   the pass also yields the layer counts, which must agree between the
   traced replay and the untraced outputs;
3. measures for the given seconds, interleaving ``rcdet run``/``rcdet eval``
   cycles in fresh processes (output bytes checked against the serial loop)
   with passes over the frames in this process. Untraced: set-up time in
   fresh processes, CLI wall times and peak RSS, ``process_frame`` latency.
   Traced: alternating untraced and traced passes, and the CLI with the
   layer calls it makes wrapped in spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from rcdet.errors import RcdetError
from rcdet.kpconv import KPNetworkConfig, extract_learned
from rcdet.pipeline import PipelineConfig, process_frame
from rcdet.radar import accumulate_sweeps, associate, associate_naive, range_filter
from rcdet.scene_io import SceneFrame, load_scenes, save_detections, save_scenes, synth_scene

from .hostref import ref_ns, scaled
from .tracing import Tracer, traced_process_frame
from .workloads import DEFAULT_SEED, MIB, Workload

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
WORK_DIR = ".perfbench_work"

SETUP_REPEATS = 7
MIN_CLI_CYCLES = 2
# Share of a run's measuring time given to `rcdet run`/`eval`; the rest goes
# to passes over the frames in-process.
CLI_SHARE = 0.6
CHILD_TIMEOUT_S = 60
# A timing percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_frames_per_s": "frames/s",
    "eval_frames_per_s": "frames/s",
    "frame_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# Counts that the untraced outputs also give, so both runs must agree on them.
OUTPUT_COUNTS = (
    "radar.points_in",
    "radar.points_clustered",
    "radar.empty_clusters",
    "features.clusters",
    "decoder.kept",
)

_STAGES = (
    "radar.accumulate_sweeps",
    "radar.range_filter",
    "radar.associate",
    "features.extract_handcrafted",
    "features.rasterize_heatmap",
    "kpconv.extract_learned",
    "kpconv.grid_subsample",
    "kpconv.radius_neighbors",
    "kpconv.kpconv_forward",
    "decoder.build_maps_from_detections",
    "decoder.topk_peaks",
    "decoder.decode_detections",
)
# Spans recorded around the layer calls `rcdet run` / `rcdet eval` make.
_CLI_STAGES = (
    "scene_io.load_scenes",
    "scene_io.save_detections",
    "scene_io.load_detections",
    "metrics.evaluate",
    "pipeline.run_scenes",
)


class Refused(Exception):
    """The run must not start: the input differs from the digest pinned for
    its seed, or the host has too little memory available."""


@dataclass
class Tally:
    """Operations attempted and failed: CLI commands and process_frame calls."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class CheckPass:
    """What the check pass learned about the outputs of one scene."""

    detections: dict = field(default_factory=dict)  # frame_id -> boxes, serial loop
    latency_ns: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # from the traced replay
    heatmap_shape: tuple = ()


@dataclass
class Clip:
    """One scene file `rcdet run` and `rcdet eval` are given."""

    path: str
    frame_ids: list[int]
    expected: bytes = b""  # detections file the serial process_frame loop gives
    report: bytes | None = None  # eval report of the first repetition


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _detection_key(boxes) -> list:
    """Bit-exact identity of a detection list."""
    return [
        (
            b.class_id,
            b.attribute,
            float(b.score).hex(),
            b.box.center.tobytes(),
            b.box.dims.tobytes(),
            float(b.box.yaw).hex(),
            b.box.velocity.tobytes(),
        )
        for b in boxes
    ]


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


def check_pass(
    frames: list[SceneFrame],
    cfg: PipelineConfig,
    net: KPNetworkConfig | None,
    tally: Tally,
    problems: list[str],
) -> CheckPass:
    """Serial process_frame loop plus the traced replay, checked frame by frame.

    The process_frame calls are timed, so the pass is also the first pass of
    the latency loop."""
    out = CheckPass()
    tracer = Tracer()
    oc: Counter = Counter()  # the same counts, taken from process_frame's outputs
    for frame in frames:
        start = time.perf_counter_ns()
        try:
            result = process_frame(frame, cfg, net)
        except RcdetError:
            tally.record(False)
            continue
        out.latency_ns.append(time.perf_counter_ns() - start)
        tally.record(True)
        out.detections[frame.frame_id] = result.detections
        learned: list = []
        replay = traced_process_frame(frame, cfg, net, tracer, learned)
        fid = frame.frame_id
        if _detection_key(replay.detections) != _detection_key(result.detections):
            problems.append(f"frame {fid}: traced replay detections differ")
        if not _bits_equal(replay.radar_heatmap.values, result.radar_heatmap.values):
            problems.append(f"frame {fid}: traced replay heatmap differs")
        for cluster, values in learned:
            if not _bits_equal(values, extract_learned(cluster, net).values):
                problems.append(f"frame {fid}: KPConv replay differs from extract_learned")
        gated = range_filter(
            accumulate_sweeps(frame.radar_sweeps, cfg.max_sweeps), cfg.min_range, cfg.max_range
        )
        fast = associate(gated, frame.detections, frame.camera, cfg.pillar_dims, cfg.expansion)
        naive = associate_naive(
            gated, frame.detections, frame.camera, cfg.pillar_dims, cfg.expansion
        )
        if [[id(p) for p in c.members] for c in fast] != [
            [id(p) for p in c.members] for c in naive
        ]:
            problems.append(f"frame {fid}: associate differs from associate_naive")

        out.heatmap_shape = result.radar_heatmap.values.shape
        oc["radar.points_in"] += sum(len(s.points) for s in frame.radar_sweeps[: cfg.max_sweeps])
        oc["radar.points_clustered"] += len({id(p) for c in result.clusters for p in c.members})
        oc["radar.empty_clusters"] += sum(1 for c in result.clusters if c.member_count == 0)
        oc["features.clusters"] += len(result.clusters)
        oc["decoder.kept"] += len(result.detections)
        del result, replay
    out.counts = tracer.counts
    for name in OUTPUT_COUNTS:
        if out.counts[name] != oc[name]:
            problems.append(f"count {name}: traced {out.counts[name]} != untraced {oc[name]}")
    return out


@dataclass
class HostSamples:
    """Host reference passes timed around the frames of the passes."""

    kind: str  # of reference, see hostref
    ref_ns: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # frame latency / adjacent references


def frame_pass(
    frames: list[SceneFrame],
    cfg: PipelineConfig,
    net: KPNetworkConfig | None,
    tally: Tally,
    tracer: Tracer | None = None,
    host: HostSamples | None = None,
) -> list[int]:
    """One closed-loop pass over the frames; per-call latency in ns.

    With a tracer the traced replay stands in for process_frame. With
    ``host``, a reference pass is timed before every frame and after the
    last, and each latency is also recorded divided by the mean of the two
    references around it."""
    samples = []
    ref = 0
    if host is not None:
        ref = ref_ns(host.kind)
        host.ref_ns.append(ref)
    for frame in frames:
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                process_frame(frame, cfg, net)
            else:
                traced_process_frame(frame, cfg, net, tracer)
        except RcdetError:
            tally.record(False)
            continue
        elapsed = time.perf_counter_ns() - start
        samples.append(elapsed)
        tally.record(True)
        if host is not None:
            ref_next = ref_ns(host.kind)
            host.ref_ns.append(ref_next)
            host.ratios.append(elapsed / ((ref + ref_next) / 2))
            ref = ref_next
    return samples


def setup_probes(workload: Workload, repeats: int) -> list[float]:
    """`import rcdet` plus the network build, each in a fresh process.

    The harness has imported rcdet already, so bytecode caches are written."""
    net = workload.net or "-"
    return [_child(["setup", net])["setup_s"] for _ in range(repeats)]


def _child(args: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, PROBE, *args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        raise RuntimeError(f"probe {args[0]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_cycle(
    workload: Workload,
    clips: list[Clip],
    work: str,
    tally: Tally,
    problems: list[str],
    trace: bool,
) -> list[dict] | None:
    """`rcdet run` then `rcdet eval`, in a fresh process per scene file.

    Detections must equal the serial loop's bytes, and each file's eval
    report must repeat exactly. Returns the child reports, or None when a
    command failed."""
    dets_path = os.path.join(work, "detections.jsonl")
    report_path = os.path.join(work, "report.txt")
    cycle = []
    for clip in clips:
        for path in (dets_path, report_path):
            if os.path.exists(path):
                os.remove(path)
        spec = {
            "run": workload.run_args(clip.path, dets_path),
            "eval": ["eval", "--dets", dets_path, "--gt", clip.path, "--report", report_path],
            "trace": trace,
            "reference": workload.reference,
        }
        try:
            rep = _child(["cli", json.dumps(spec)])
        except RuntimeError as exc:  # the child itself died, e.g. killed for memory
            tally.record(False)
            problems.append(str(exc))
            continue
        tally.record(rep["run_code"] == 0)
        if rep["run_code"] != 0:
            continue
        for _ in range(rep["eval_repeats"] - 1):  # eval repeats only after a success
            tally.record(True)
        tally.record(rep["eval_code"] == 0)
        with open(dets_path, "rb") as fh:
            if fh.read() != clip.expected:
                problems.append(f"{clip.path}: rcdet run detections differ from the serial loop")
        if rep["eval_code"] != 0:
            continue
        with open(report_path, "rb") as fh:
            report = fh.read()
        if clip.report is not None and report != clip.report:
            problems.append(f"{clip.path}: rcdet eval report differs between repetitions")
        clip.report = report
        rep["frames"] = len(clip.frame_ids)
        cycle.append(rep)
    return cycle if len(cycle) == len(clips) else None


def interleave(seconds: float, cycle, frame_pass, problems: list[str]) -> tuple[list, list]:
    """Alternate CLI cycles and frame passes until ``seconds`` pass (and at
    least MIN_CLI_CYCLES cycles), giving the cycles CLI_SHARE of the time.

    Interleaving makes every metric sample the whole run, so a slow spell
    of the host weighs on all of them alike."""
    cycles, passes = [], []
    cli_s = pass_s = 0.0
    start = time.perf_counter()
    attempts = 0
    # Start another round if at least half of one (of average length) fits,
    # so that a run measures ``seconds`` on average.
    while attempts < MIN_CLI_CYCLES or (
        time.perf_counter() - start + 0.5 * (cli_s + pass_s) / attempts <= seconds
    ):
        attempts += 1
        t = time.perf_counter()
        done = cycle()
        cli_s += time.perf_counter() - t
        if done is not None:
            cycles.append(done)
        while pass_s < cli_s * (1 - CLI_SHARE) / CLI_SHARE:
            t = time.perf_counter()
            passes.append(frame_pass())
            pass_s += time.perf_counter() - t
    if not cycles:
        problems.append("no rcdet run/eval cycle succeeded, so no output was checked")
    return cycles, passes


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mem_available_mib() -> float | None:
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _commit(root: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(root: str) -> str:
    """Digest of the library sources, which identifies the code when the
    checkout carries no git metadata."""
    src = os.path.join(root, "src", "rcdet")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, workload: Workload, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
        "workload": workload.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "workers": workload.workers,
    }


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _median(values) -> float | None:
    values = list(values)
    return float(statistics.median(values)) if values else None


def _put(metrics: dict, name: str, value, unit: str, samples: int) -> None:
    """Add a metric; one without samples (every attempt failed) is left out."""
    if value is not None:
        metrics[name] = Metric(value, unit, samples)


def _rate(cycle: list[dict], key: str) -> float:
    return sum(r["frames"] for r in cycle) / sum(r[key] for r in cycle)


def _per_frame(cycle: list[dict], key: str) -> float:
    return sum(r[key] for r in cycle) / sum(r["frames"] for r in cycle)


def untraced_metrics(workload, frames, cfg, net, clips, work, seconds, tally, problems, check):
    setup = setup_probes(workload, SETUP_REPEATS)
    kind = workload.reference
    host = HostSamples(kind)
    cycles, passes = interleave(
        seconds,
        lambda: cli_cycle(workload, clips, work, tally, problems, trace=False),
        lambda: frame_pass(frames, cfg, net, tally, host=host),
        problems,
    )
    latency_ms = [ns / 1e6 for ns in check.latency_ns + [s for p in passes for s in p]]
    n = len(cycles)
    metrics: dict[str, Metric] = {}
    extra: dict[str, Metric] = {}
    # Set-up is wall time: dividing it by a reference made it less steady.
    # The other times are divided by the host reference timed around them
    # and given on the nominal host (see hostref): `rcdet run` and frames by
    # the workload's kind, `rcdet eval`, which parses and scores in Python,
    # by the interpreter reference.
    _put(metrics, "setup_s", _median(setup), "s", len(setup))
    run_ref = _median(_per_frame(c, "run_ref") for c in cycles)
    if run_ref is not None:
        _put(metrics, "run_frames_per_s", 1e3 / scaled(run_ref, kind), "frames/s", n)
    eval_ref = _median(_per_frame(c, "eval_ref") for c in cycles)
    if eval_ref is not None:
        _put(metrics, "eval_frames_per_s", 1e3 / scaled(eval_ref), "frames/s", n)
    frame_ref = _median(host.ratios)
    if frame_ref is not None:
        _put(metrics, "frame_ms_p50", scaled(frame_ref, kind), "ms", len(host.ratios))
    if len(host.ratios) >= 10 * SAMPLES_BEYOND:
        p90 = scaled(percentile(host.ratios, 0.9), kind)
        _put(extra, "frame_ms_p90", p90, "ms", len(host.ratios))
    peak = _median(max(r["maxrss_kb"] for r in c) / 1024 for c in cycles)
    _put(metrics, "peak_rss_mb", peak, "MB", n)

    _put(extra, "wall.run_frames_per_s", _median(_rate(c, "run_s") for c in cycles), "frames/s", n)
    eval_rate = _median(_rate(c, "eval_s") for c in cycles)
    _put(extra, "wall.eval_frames_per_s", eval_rate, "frames/s", n)
    _put(extra, "wall.frame_ms_p50", _median(latency_ms), "ms", len(latency_ms))
    if len(latency_ms) >= 10 * SAMPLES_BEYOND:
        _put(extra, "wall.frame_ms_p90", percentile(latency_ms, 0.9), "ms", len(latency_ms))
    ref_ms = _median(ns / 1e6 for ns in host.ref_ns)
    _put(extra, f"host.{kind}_ref_ms", ref_ms, "ms", len(host.ref_ns))
    return metrics, extra


def traced_metrics(workload, frames, cfg, net, clips, work, seconds, tally, problems, check):
    n = len(frames)
    tracer = Tracer()

    def pass_pair() -> tuple[int, int]:
        untraced = sum(frame_pass(frames, cfg, net, tally))
        return untraced, sum(frame_pass(frames, cfg, net, tally, tracer))

    cycles, passes = interleave(
        seconds,
        lambda: cli_cycle(workload, clips, work, tally, problems, trace=True),
        pass_pair,
        problems,
    )
    untraced_ns = [u for u, _ in passes]
    traced_ns = [t for _, t in passes]
    traced_frames = n * len(traced_ns)
    busy = tracer.busy_ns()
    cli_ms: dict[str, list[float]] = {name: [] for name in (*_CLI_STAGES, "cli.run.self")}
    run_scenes_s = []
    for cycle in cycles:
        per_cmd: Counter = Counter()
        for rep in cycle:
            for cmd, name, start, end in rep["spans"]:
                per_cmd[(cmd, name)] += end - start
        # load_scenes is called by both commands; its metric is the run's parse.
        for name in _CLI_STAGES:
            cmd = "eval" if name in ("scene_io.load_detections", "metrics.evaluate") else "run"
            cli_ms[name].append(per_cmd[(cmd, name)] / 1e6 / n)
        layers = sum(
            v for (cmd, name), v in per_cmd.items() if cmd == "run" and name != "cli.run"
        )
        cli_ms["cli.run.self"].append((per_cmd[("run", "cli.run")] - layers) / 1e6 / n)
        run_scenes_s.append(per_cmd[("run", "pipeline.run_scenes")] / 1e9)

    counts = check.counts
    metrics: dict[str, Metric] = {}
    for name in _STAGES:
        busy_ms = busy[name] / 1e6 / traced_frames
        _put(metrics, f"{name}.ms_per_frame", busy_ms, "ms", traced_frames)
    for name in _CLI_STAGES:
        _put(metrics, f"{name}.ms_per_frame", _median(cli_ms[name]), "ms", len(cycles))
    _put(
        metrics, "cli.run.self_ms_per_frame", _median(cli_ms["cli.run.self"]), "ms", len(cycles)
    )
    glue = tracer.self_ns("pipeline.process_frame") / 1e6 / traced_frames
    _put(metrics, "pipeline.glue_ms_per_frame", glue, "ms", traced_frames)
    # Serial sum of process_frame over the frames, over the wall time of
    # run_scenes at the workload's worker count.
    if run_scenes_s:
        speedup = _median(untraced_ns) / 1e9 / _median(run_scenes_s)
        _put(metrics, "pipeline.worker_speedup", speedup, "x", len(cycles))
    if sum(untraced_ns):
        overhead = (sum(traced_ns) - sum(untraced_ns)) / sum(untraced_ns)
        _put(metrics, "trace.overhead_frac", overhead, "ratio", len(traced_ns))
    for name in (
        "scene_io.points_parsed",
        "radar.points_in",
        "radar.points_gated",
        "radar.points_clustered",
        "radar.clutter_dropped",
        "radar.empty_clusters",
        "features.clusters",
        "kpconv.queries",
        "kpconv.neighbor_pairs",
        "decoder.candidates",
        "decoder.kept",
    ):
        _put(metrics, name, counts[name], "count", 1)
    if check.heatmap_shape:
        c, h, w = check.heatmap_shape
        _put(metrics, "features.channels", c, "count", 1)
        _put(metrics, "features.heatmap_mb_per_frame", c * h * w * 8 / MIB, "MB", 1)
    gated = counts["radar.points_gated"]
    if gated:
        clustered = counts["radar.points_clustered"] / gated
        _put(metrics, "radar.clustered_frac", clustered, "ratio", 1)
    _put(metrics, "kpconv.gflop_per_frame", counts["kpconv.flop"] / n / 1e9, "GFLOP", 1)
    scene_bytes = sum(os.path.getsize(clip.path) for clip in clips)
    _put(metrics, "scene_io.scene_bytes_per_frame", scene_bytes / n, "B", 1)
    return metrics, tracer


def run_workload(
    root: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    n_frames: int | None = None,
) -> dict:
    """One benchmark run. Returns the result record; raises Refused when the
    input at the default seed is not the pinned one, or when less memory is
    available than the workload is expected to need.

    ``n_frames`` overrides the frames per scene file (for quick checks); the
    pinned digests then do not apply."""
    frames_n = workload.n_frames if n_frames is None else n_frames
    need = workload.expected_peak_mib(frames_n)
    available = mem_available_mib()
    if available is not None and available < need:
        raise Refused(
            f"{workload.name}: MemAvailable {available:.0f} MiB is below the "
            f"expected peak of {need:.0f} MiB"
        )
    pinned = None
    if seed == DEFAULT_SEED and frames_n == workload.n_frames:
        pinned = load_digests()[workload.name]

    work = os.path.join(root, WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        generated = synth_scene(workload.synth_config(seed, frames_n))
        clips = []
        for i in range(workload.clips):
            part = generated[i * frames_n : (i + 1) * frames_n]
            path = os.path.join(work, f"scene{i}.jsonl")
            save_scenes(path, part)
            clips.append(Clip(path, [f.frame_id for f in part]))
        del generated
        digests = {"scene_sha256": [sha256_file(clip.path) for clip in clips]}
        if pinned is not None and digests["scene_sha256"] != pinned["scene_sha256"]:
            raise Refused(
                f"{workload.name} seed {seed}: scene sha256 {digests['scene_sha256']} "
                f"!= pinned {pinned['scene_sha256']}"
            )
        frames = [f for clip in clips for f in load_scenes(clip.path)]
        cfg = workload.pipeline_config()
        net = workload.network()
        tally = Tally()
        problems: list[str] = []

        check = check_pass(frames, cfg, net, tally, problems)
        check.counts["scene_io.points_parsed"] = sum(
            len(s.points) for f in frames for s in f.radar_sweeps
        )
        expected_path = os.path.join(work, "expected.jsonl")
        for clip in clips:
            done = [fid for fid in clip.frame_ids if fid in check.detections]
            save_detections(expected_path, [(fid, check.detections[fid]) for fid in done])
            with open(expected_path, "rb") as fh:
                clip.expected = fh.read()
        digests["detections_sha256"] = [hashlib.sha256(c.expected).hexdigest() for c in clips]
        counts = {k: int(v) for k, v in sorted(check.counts.items())}

        args = (workload, frames, cfg, net, clips, work, seconds, tally, problems, check)
        if trace:
            metrics, tracer = traced_metrics(*args)
            spans = os.path.join(root, WORK_DIR, f"spans-{workload.name}-{seed}.jsonl")
            tracer.write_spans(spans)
            extra = {}
        else:
            metrics, extra = untraced_metrics(*args)
        digests["report_sha256"] = [
            None if c.report is None else hashlib.sha256(c.report).hexdigest() for c in clips
        ]
        if pinned is not None:
            for key in ("detections_sha256", "report_sha256"):
                if digests[key] != pinned[key]:
                    problems.append(f"{key} {digests[key]} != pinned {pinned[key]}")
            if counts != pinned["counts"]:
                problems.append(f"counts {counts} != pinned {pinned['counts']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra["error_frac"] = Metric(tally.error_frac, "ratio", tally.attempted)
    return {
        "metrics": metrics,
        "extra": extra,
        "tally": tally,
        "problems": problems,
        "digests": digests,
        "counts": counts,
        "frames": len(frames),
    }
