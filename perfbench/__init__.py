"""End-to-end and per-layer benchmark for ``rcdet run`` and ``rcdet eval``.

Run it from the repository root with ``python3 perfbench/run.py --help``;
README.md in this directory describes the workloads and metrics.
"""
