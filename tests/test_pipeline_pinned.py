"""The bits `process_frame` gives the benchmark's scenes, pinned by sha256.

The radar front end (accumulate, gate, associate) and the feature stages are
each checked against oracles elsewhere; this pin catches any change in what
the whole chain hands downstream on real workload frames: the heatmap's
`rows` and `owner`, and every cluster's member rows in order."""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from rcdet.pipeline import process_frame  # noqa: E402
from rcdet.scene_io import synth_scene  # noqa: E402

_FRAME_DIGESTS = {
    "lite-2w": "20322e9170ac2b95c6b048c8a7dab75302ce7de12fc73a3e1d5488f10d72f622",
    "hybrid-large": "27f9ccb9a4d9b0490ca0bd9993e298e948675ea9ac19a9cafa84a35a45af91eb",
}


@pytest.mark.parametrize("name", sorted(_FRAME_DIGESTS))
def test_process_frame_bits_pinned(name):
    """Every frame of the workload's first scene file at its default seed."""
    workload = WORKLOADS[name]
    frames = synth_scene(workload.synth_config(DEFAULT_SEED, workload.n_frames))
    cfg, net = workload.pipeline_config(), workload.network()
    digest = hashlib.sha256()
    for frame in frames[: workload.n_frames]:
        result = process_frame(frame, cfg, net)
        heatmap = result.radar_heatmap
        for grid in (heatmap.owner, heatmap.rows):
            digest.update(np.array(grid.shape, dtype=np.int64).tobytes())
            digest.update(grid.tobytes())
        for cluster in result.clusters:
            members = [[*p.position, *p.velocity, p.rcs, p.sweep_age] for p in cluster.members]
            digest.update(np.int64(len(members)).tobytes())
            digest.update(np.array(members, dtype=np.float64).tobytes())
    assert digest.hexdigest() == _FRAME_DIGESTS[name]
