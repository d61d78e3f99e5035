"""Command-line interface.

Subcommands:
  run     process a scene file through the pipeline and write detections
  eval    evaluate a detections file against scene ground truth
  synth   generate a synthetic scene file from a JSON config
  bench   time the vectorized association against the naive double loop

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import RcdetError, check_number
from .geometry import box3d_corners
from .kpconv import build_network, load_network, save_network
from .metrics import evaluate, format_report, report_key_values
from .pipeline import FEATURE_STRATEGIES, FrameResult, PipelineConfig, run_scenes
from .scene_io import (
    SynthConfig,
    load_detections,
    load_scenes,
    save_detections,
    save_scenes,
    synth_scene,
)


def _bounded(convert, **rule):
    """An argparse type: ``convert(text)``, then :func:`check_number` with
    ``rule``. Named after ``convert``, so argparse reports text ``convert``
    rejects as, e.g., "invalid int value: '2.5'"."""

    def parse(text: str):
        value = convert(text)
        try:
            return check_number("", value, integer=convert is int, **rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = convert.__name__
    return parse


@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcdet",
        description="Radar + monocular-camera 3D detection core: pipeline, "
        "evaluation, synthetic data, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="process scenes and write detections")
    run_p.add_argument("--scenes", required=True, help="input scene file")
    run_p.add_argument(
        "--features", choices=FEATURE_STRATEGIES, default="handcrafted",
        help="radar cluster feature strategy",
    )
    run_p.add_argument("--out", required=True, help="output detections file")
    run_p.add_argument(
        "--net", choices=("lite", "medium", "large"), default="large",
        help="network size for learned/hybrid features",
    )
    run_p.add_argument("--net-weights", help="load network weights from a checkpoint")
    run_p.add_argument("--net-seed", type=_bounded(int, low=0), default=0)
    run_p.add_argument(
        "--save-net-weights", help="write the network checkpoint used for this run"
    )
    run_p.add_argument(
        "--expansion", type=_bounded(float, low=1), default=1.0, help="frustum expansion, >= 1"
    )
    run_p.add_argument(
        "--threshold", type=_bounded(float, low=0, high=1), default=0.0,
        help="confidence cutoff in [0, 1]",
    )
    run_p.add_argument("--top-k", type=_bounded(int, low=1), default=100)
    run_p.add_argument(
        "--workers", type=_bounded(int, low=1), default=1,
        help="checked but unused: frames run in order on one thread, with the same "
        "output for every value, until ROADMAP item 8's process pool gives it a meaning",
    )
    run_p.add_argument(
        "--dump-bev", help="also write clusters and box footprints as BEV coordinates"
    )

    eval_p = sub.add_parser("eval", help="evaluate detections against ground truth")
    eval_p.add_argument("--dets", required=True, help="detections file")
    eval_p.add_argument("--gt", required=True, help="scene file with ground truth")
    eval_p.add_argument("--report", required=True, help="output key=value report file")

    synth_p = sub.add_parser("synth", help="generate a synthetic scene file")
    synth_p.add_argument("--config", help="JSON file of generator settings")
    synth_p.add_argument("--out", required=True, help="output scene file")

    bench_p = sub.add_parser("bench", help="benchmark the association paths")
    bench_p.add_argument("--points", type=_bounded(int, low=1), default=1000)
    bench_p.add_argument("--dets", type=_bounded(int, low=1), default=100)
    bench_p.add_argument("--iters", type=_bounded(int, low=1), default=5)
    bench_p.add_argument("--seed", type=_bounded(int, low=0), default=0)

    return parser


def _dump_bev(path: str, results: list[FrameResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            boxes = []
            for det in result.detections:
                corners = box3d_corners(det.box)
                boxes.append(
                    {
                        "class_id": det.class_id,
                        "score": det.score,
                        "center_bev": det.box.center[:2].tolist(),
                        # Top-face corners trace the BEV footprint.
                        "footprint": corners[[0, 2, 4, 6], :2].tolist(),
                    }
                )
            clusters = [
                {
                    "detection_index": i,
                    "points_bev": cluster.positions()[:, :2].tolist(),
                }
                for i, cluster in enumerate(result.clusters)
            ]
            fh.write(
                json.dumps(
                    {"frame_id": result.frame_id, "boxes": boxes, "clusters": clusters}
                )
                + "\n"
            )


def _cmd_run(args: argparse.Namespace) -> int:
    frames = load_scenes(args.scenes)
    net = None
    if args.features in ("learned", "hybrid"):
        if args.net_weights:
            net = load_network(args.net_weights)
        else:
            net = build_network(args.net, args.net_seed)
        if args.save_net_weights:
            save_network(net, args.save_net_weights)
    cfg = PipelineConfig(
        feature_strategy=args.features,
        expansion=args.expansion,
        top_k=args.top_k,
        score_threshold=args.threshold,
    )
    results = run_scenes(frames, cfg, net)
    save_detections(args.out, [(r.frame_id, r.detections) for r in results])
    if args.dump_bev:
        _dump_bev(args.dump_bev, results)
    total = sum(len(r.detections) for r in results)
    print(f"processed {len(results)} frames, wrote {total} detections to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    detections = dict(load_detections(args.dets))
    frames = sorted(load_scenes(args.gt), key=lambda f: f.frame_id)
    frame_ids = {f.frame_id for f in frames}
    unknown = sorted(set(detections) - frame_ids)
    if unknown:
        raise RcdetError(f"detections reference unknown frame ids: {unknown}")
    dets_per_frame = [detections.get(f.frame_id, []) for f in frames]
    gts_per_frame = [f.ground_truth or [] for f in frames]
    result = evaluate(dets_per_frame, gts_per_frame)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report_key_values(result))
    print(format_report(result))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
    try:
        cfg = SynthConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise RcdetError(f"bad synth config: {exc}") from exc
    frames = synth_scene(cfg)
    save_scenes(args.out, frames)
    objects = sum(len(f.ground_truth or []) for f in frames)
    print(f"wrote {len(frames)} frames with {objects} objects to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import bench_association, format_bench

    report = bench_association(args.points, args.dets, args.iters, args.seed)
    print(format_bench(report))
    return 0


_COMMANDS = {"run": _cmd_run, "eval": _cmd_eval, "synth": _cmd_synth, "bench": _cmd_bench}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RcdetError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
