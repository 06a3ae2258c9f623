"""Pipeline configuration: one flat dataclass, JSON round-trippable."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path


# fields that must be positive and finite, and integers with their least value
_POSITIVE = ("min_disparity_px", "ransac_threshold", "pnp_ransac_threshold",
             "fixed_deviation_px", "deviation_floor_px")
_AT_LEAST = {"ransac_max_iters": 1, "gn_max_iters": 1, "window_size": 2,
             "keyframe_stride": 1}


def _real(cfg, name: str) -> float:
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    # phase machine
    preset_height_m: float = 1.5       # must stay below 3 m
    window_size: int = 10
    keyframe_stride: int = 5           # camera frames between keyframes
    min_features: int = 20
    min_disparity_px: float = 1.0

    # robust homography estimation
    ransac_threshold: float = 5e-3     # normalized coords (~2 px at f=400)
    ransac_confidence: float = 0.999
    ransac_max_iters: int = 2000

    # known-rotation PnP: inlier gate on the reprojection error
    pnp_ransac_threshold: float = 0.02

    # Gauss-Newton velocity refinement
    gn_max_iters: int = 25
    gn_step_tol: float = 1e-10
    gn_cost_tol: float = 1e-12

    # IMU model
    gravity: tuple = (0.0, 0.0, 9.81)  # NED, down-positive
    gyro_bias: tuple = (0.0, 0.0, 0.0)
    accel_bias: tuple = (0.0, 0.0, 0.0)
    stationary_window_s: float = 0.5
    stationary_accel_tol: float = 0.05  # fraction of g
    stationary_gyro_tol: float = 0.01   # rad/s

    # visual-residual weighting
    deviation_mode: str = "dynamic"     # "dynamic" | "fixed"
    fixed_deviation_px: float = 1.5
    deviation_floor_px: float = 0.25

    def __post_init__(self):
        """Reject a config the pipeline cannot run before any stage starts."""
        for name in _POSITIVE:
            value = _real(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name, least in _AT_LEAST.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < _real(self, "ransac_confidence") < 1.0:
            raise ValueError("ransac_confidence must lie in the open interval (0, 1), "
                             f"got {self.ransac_confidence!r}")
        if not (0.0 <= _real(self, "preset_height_m") < 3.0):
            raise ValueError("preset height must lie in [0, 3) m")
        if self.deviation_mode not in ("dynamic", "fixed"):
            raise ValueError(f"unknown deviation mode {self.deviation_mode!r}")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        for key in ("gravity", "gyro_bias", "accel_bias"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("gravity", "gyro_bias", "accel_bias"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    return PipelineConfig.from_json_dict(json.loads(Path(path).read_text()))
