"""Every numeric setting goes through one checker, and records built one at a
time reject NaN and infinity in their numeric fields, naming the field."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from rcdet.features import HandcraftedConfig
from rcdet.geometry import Box2D, Box3D
from rcdet.kpconv import KPConvLayerConfig, KPNetworkConfig, build_network
from rcdet.metrics import EvalConfig
from rcdet.pipeline import PipelineConfig
from rcdet.radar import PreliminaryDetection
from rcdet.scene_io import SynthConfig

_LITE = build_network("lite", seed=0)
_LAYER = _LITE.layers[0]

# Arguments each settings object needs besides the field under test.
_REQUIRED = {
    KPNetworkConfig: {"layers": _LITE.layers},
    KPConvLayerConfig: {
        f.name: getattr(_LAYER, f.name) for f in dataclasses.fields(KPConvLayerConfig)
    },
}


_SETTINGS = (
    PipelineConfig, HandcraftedConfig, EvalConfig, SynthConfig, KPNetworkConfig, KPConvLayerConfig
)


def _numeric_cases():
    """(settings class, field, value) for each meaningless value of each
    numeric field, read from the annotations (``from __future__ import
    annotations`` makes them text). A tuple field gets the value as its first
    element."""
    for cls in _SETTINGS:
        for f in dataclasses.fields(cls):
            kind = f.type.removesuffix(" | None")
            integer = kind in ("int", "tuple[int, ...]", "tuple[int, int]")
            if kind.startswith("tuple["):
                rest = tuple(f.default or (0,))[1:]
            elif kind in ("int", "float"):
                rest = None
            else:
                continue
            for bad in (True, math.nan, math.inf) + ((2.5,) if integer else ()):
                yield cls, f.name, bad if rest is None else (bad, *rest)


_CASES = list(_numeric_cases())


@pytest.mark.parametrize(
    "cls,name,value",
    _CASES,
    ids=[f"{cls.__name__}.{name}-{value!r}" for cls, name, value in _CASES],
)
def test_every_numeric_setting_rejects_meaningless_value(cls, name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        cls(**{**_REQUIRED.get(cls, {}), name: value})


def test_numeric_cases_cover_every_settings_object():
    """The cases come from annotation text; a changed annotation must not
    drop a field's cases unnoticed."""
    assert {cls for cls, _, _ in _CASES} == set(_SETTINGS)
    assert len({(cls, name) for cls, name, _ in _CASES}) == 38


def _box3d(**change) -> Box3D:
    fields = {"center": [0.0, 10.0, 0.0], "dims": [2.0, 4.0, 1.5], "yaw": 0.3, "velocity": [1.0, 0.0]}
    return Box3D(**{**fields, **change})


def _box2d(**change) -> Box2D:
    return Box2D(**{"x_min": 300.0, "y_min": 180.0, "x_max": 500.0, "y_max": 260.0, **change})


def _detection(**change) -> PreliminaryDetection:
    fields = {
        "class_id": 0, "score": 0.9, "bbox2d": _box2d(), "projected_center": [400.0, 220.0],
        "depth": 10.0, "log_sigma": -2.0, "box3d": _box3d(),
    }
    return PreliminaryDetection(**{**fields, **change})


_NON_FINITE_RECORDS = [
    (_detection, "depth", math.nan, "detection depth must be finite"),
    (_detection, "depth", math.inf, "detection depth must be finite"),
    (_detection, "log_sigma", math.nan, "detection log_sigma must be finite"),
    (_detection, "log_sigma", -math.inf, "detection log_sigma must be finite"),
    (_box3d, "center", [0.0, math.nan, 0.0], "box center must be finite"),
    (_box3d, "dims", [2.0, math.inf, 1.5], "box dims must be finite"),
    (_box3d, "velocity", [math.nan, 0.0], "box velocity must be finite"),
    (_box3d, "yaw", math.nan, "box yaw must be finite"),
    (_box2d, "x_min", math.nan, "2D box x_min must be finite"),
    (_box2d, "y_min", -math.inf, "2D box y_min must be finite"),
    (_box2d, "x_max", np.float64(math.inf), "2D box x_max must be finite"),
    (_box2d, "y_max", math.nan, "2D box y_max must be finite"),
]


@pytest.mark.parametrize(
    "build,field,value,message",
    _NON_FINITE_RECORDS,
    ids=[f"{build.__name__[1:]}.{field}-{value!r}" for build, field, value, _ in _NON_FINITE_RECORDS],
)
def test_records_reject_non_finite_fields(build, field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(**{field: value})
