"""Benchmark `rcdet run` / `rcdet eval` on one seeded workload.

    python3 perfbench/run.py --workload dense-handcrafted --seed 0 --seconds 35 --trace 0

Run from the repository root; ``--workload all`` runs every workload in
turn. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that gives the per-layer metrics. Every
run checks the program's outputs. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 0
when every check passed, 1 when a check failed or the run was refused, 2
when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_lines(result: dict) -> list[str]:
    """Human-readable metric table, then the environment."""
    lines = []
    for name, metric in {**result["metrics"], **result["extra"]}.items():
        lines.append(f"  {name:<44} {metric.value:>14.6g} {metric.unit:<9} n={metric.samples}")
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    lines.append("digests " + json.dumps(result["digests"], sort_keys=True))
    lines.append("counts " + json.dumps(result["counts"], sort_keys=True))
    return lines


def result_record(result: dict) -> dict:
    tally = result["tally"]
    return {
        "correct": not result["problems"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit} for name, m in result["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rcdet", "__init__.py")):
        print(f"error: no rcdet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import Refused, environment, run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}, expected one of "
            f"{sorted(WORKLOADS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        try:
            result = run_workload(ROOT, workload, args.seed, args.seconds, bool(args.trace))
        except Refused as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        result["env"] = environment(ROOT, workload, args.seed)
        print(f"frames={result['frames']}")
        print("\n".join(result_lines(result)))
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        record = result_record(result)
        print(json.dumps(record))
        status = max(status, 0 if record["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
