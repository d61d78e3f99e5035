"""Child-process side of the benchmark; each invocation is a fresh process.

  probe.py setup NET        time `import rcdet` plus build_network(NET, 0)
                            ("-" builds no network, as `rcdet run` for
                            handcrafted features)
  probe.py cli SPEC_JSON    run `rcdet run` then `rcdet eval` through
                            rcdet.cli.main; report wall times, exit codes
                            and ru_maxrss read right after the run command.
                            Eval repeats until EVAL_MIN_S have passed and
                            reports its median time. The run and each eval
                            repetition are also given as multiples of the
                            host reference work timed right before and
                            after them (see hostref.py; the run's kind is
                            the spec's "reference"). With "trace" set, the
                            layer calls the CLI makes are wrapped in spans.

The last line of standard output is one JSON object.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

EVAL_MIN_S = 0.5
EVAL_MAX_REPEATS = 20

# Layer calls `rcdet run` and `rcdet eval` make, wrapped when tracing.
CLI_CALLS = {
    "load_scenes": "scene_io.load_scenes",
    "load_detections": "scene_io.load_detections",
    "save_detections": "scene_io.save_detections",
    "build_network": "kpconv.build_network",
    "run_scenes": "pipeline.run_scenes",
    "evaluate": "metrics.evaluate",
}


def _setup(net: str) -> dict:
    start = time.perf_counter()
    import rcdet

    if net != "-":
        rcdet.build_network(net, 0)
    return {"setup_s": time.perf_counter() - start}


def _wrap(spans: list, command: list, name: str, fn):
    def traced(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append([command[0], name, start, time.perf_counter_ns()])

    return traced


def _timed_main(main, argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a crash of the command is counted as a failure
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def _command(cli, spans: list, command: list, key: str, argv: list[str]) -> tuple[int, float]:
    command[0] = key
    start = time.perf_counter_ns()
    code, seconds = _timed_main(cli.main, argv)
    spans.append([key, f"cli.{key}", start, time.perf_counter_ns()])
    return code, seconds


def _cli(spec: dict) -> dict:
    import rcdet.cli as cli
    from hostref import ref_block_ns

    spans: list = []
    command = [""]
    if spec["trace"]:
        for attr, name in CLI_CALLS.items():
            setattr(cli, attr, _wrap(spans, command, name, getattr(cli, attr)))
    out = {"spans": spans, "eval_code": None}
    kind = spec["reference"]
    ref_before = ref_block_ns(kind)
    out["run_code"], out["run_s"] = _command(cli, spans, command, "run", spec["run"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["run_ref"] = out["run_s"] * 1e9 / ((ref_before + ref_block_ns(kind)) / 2)
    if out["run_code"] != 0:
        return out
    # `rcdet eval` of a small file takes milliseconds: repeat it for a steadier
    # median. Spans are kept for the last repetition only. Eval parses and
    # scores in Python, so the interpreter reference is timed around it.
    times, ratios = [], []
    ref_before = ref_block_ns()
    while True:
        spans[:] = [s for s in spans if s[0] != "eval"]
        code, seconds = _command(cli, spans, command, "eval", spec["eval"])
        ref_after = ref_block_ns()
        times.append(seconds)
        ratios.append(seconds * 1e9 / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        if code != 0 or sum(times) >= EVAL_MIN_S or len(times) >= EVAL_MAX_REPEATS:
            break
    out["eval_code"] = code
    out["eval_s"] = statistics.median(times)
    out["eval_ref"] = statistics.median(ratios)
    out["eval_repeats"] = len(times)
    return out


def main(argv: list[str]) -> int:
    mode, arg = argv
    result = _setup(arg) if mode == "setup" else _cli(json.loads(arg))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
