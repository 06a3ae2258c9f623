"""Pipeline configuration: one flat dataclass, JSON round-trippable."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class PipelineConfig:
    # phase machine
    preset_height_m: float = 1.5       # must stay below 3 m
    window_size: int = 10
    keyframe_stride: int = 5           # camera frames between keyframes
    min_features: int = 20
    min_disparity_px: float = 1.0
    imu_rate_hint: float = 200.0

    # robust homography estimation
    ransac_threshold: float = 5e-3     # normalized coords (~2 px at f=400)
    ransac_confidence: float = 0.999
    ransac_max_iters: int = 2000

    # robust PnP
    pnp_ransac_threshold: float = 0.02
    pnp_ransac_max_iters: int = 500

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
        if not (0.0 <= self.preset_height_m < 3.0):
            raise ValueError("preset height must lie in [0, 3) m")
        if self.deviation_mode not in ("dynamic", "fixed"):
            raise ValueError(f"unknown deviation mode {self.deviation_mode!r}")
        if self.window_size < 2:
            raise ValueError("window size must be >= 2")
        if self.keyframe_stride < 1:
            raise ValueError("keyframe stride must be >= 1")

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


def save_config(path, cfg: PipelineConfig) -> None:
    Path(path).write_text(json.dumps(cfg.to_json_dict(), indent=2))
