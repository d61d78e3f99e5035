"""Fixed pieces of reference work, timed next to the program to track the
host's speed.

The host this benchmark runs on is a share of a busy machine. The same code
runs at very different speeds from one second to the next and from one
minute to the next, and every time the program takes moves with it. A
reference does a fixed amount of the kind of work the measured code is
bound by, so a slow spell of the host stretches it by about as much; a time
divided by the reference time measured right around it no longer follows
the host.

Two kinds, because the host's slow spells stretch them by different amounts
(measured by alternating one `hybrid-large` frame with both for minutes: the
frame over the interpreter reference spread 0.30-0.36 over 10 s windows,
over the memory reference 0.04, against 0.11-0.16 for the frame alone):

- ``interpreter``: Python loops over objects and dicts plus many small numpy
  einsums (KPConv's per-query call), for short interpreter-bound work;
- ``memory``: a fresh 32 MiB array is mapped, zeroed and written, for work
  dominated by large fresh arrays, like the dense heatmaps of a frame.

``scaled`` turns such a ratio into the time on the nominal host, where one
reference pass takes its ``NOMINAL_MS``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_FEATURES = _RNG.standard_normal((15, 16))
_WEIGHTS = _RNG.standard_normal((15, 16, 32))
_GRID = _RNG.standard_normal((64, 64))


class _Point:
    __slots__ = ("x", "y", "v")

    def __init__(self, x: float, y: float, v: float) -> None:
        self.x, self.y, self.v = x, y, v


_POINTS = [_Point(i * 0.5, i * 0.25, i * 0.125) for i in range(300)]


def _interpreter_work() -> float:
    acc = 0.0
    cells: dict = {}
    for _ in range(14):
        for p in _POINTS:
            key = (int(p.x) >> 3, int(p.y) >> 3)
            cells[key] = cells.get(key, 0.0) + p.v
            acc += p.x * p.y - p.v
    for _ in range(140):
        acc += float(np.einsum("kc,kco->o", _FEATURES, _WEIGHTS)[0])
    acc += float(np.maximum(_GRID, 0.0).sum())
    return acc + len(cells)


def _memory_work() -> float:
    block = np.ones(4 << 20)
    return float(block[::4096].sum())


WORK = {"interpreter": _interpreter_work, "memory": _memory_work}
# One reference pass on a quiet 2-vCPU KVM guest (Python 3.11, numpy 2.4).
NOMINAL_MS = {"interpreter": 2.0, "memory": 8.0}


def ref_ns(kind: str = "interpreter") -> int:
    """Time of one reference pass, in ns.

    An untimed pass first brings the reference's code and data back into
    the caches, so the timed one does not depend on how much memory the
    measured code touched before it."""
    work = WORK[kind]
    work()
    start = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - start


def ref_block_ns(kind: str = "interpreter", passes: int = 3) -> float:
    """Median of a few back-to-back reference passes, in ns."""
    return float(statistics.median(ref_ns(kind) for _ in range(passes)))


def scaled(ratio: float, kind: str = "interpreter") -> float:
    """A time, given as a multiple of the reference time, in ms on the
    nominal host."""
    return ratio * NOMINAL_MS[kind]
