"""Dynamic per-feature pixel deviation for stereo visual residuals.

The stereo (left-to-right, same time) deviation uses the baseline and a
reference depth.  Weights are inverse-variance in the deviation, floored.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDisparityError
from .geometry import CameraRig, homogeneous, normalize

# the least deviation a weight credits, in pixels: a stereo match exact to
# rounding (noiseless data) would take an unbounded weight
DEVIATION_FLOOR_PX = 0.25


def stereo_deviation(obs_l, obs_r, rig: CameraRig, depth) -> np.ndarray:
    """Left-to-right reprojection deviations (...,) in pixels of pixel rows (..., 2).

    ``depth`` (...,) is each feature's reference depth; the left
    observation is pushed across the baseline at that depth and compared
    with the measured right observation.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth <= 0.0):
        raise InvalidDisparityError(f"reference depth {np.min(depth)} must be positive")
    pred = depth[..., None] * homogeneous(normalize(rig, obs_l)) + (-rig.baseline, 0.0, 0.0)
    diff = pred[..., :2] / pred[..., 2:] - normalize(rig, obs_r)
    # a stacked row dot rounds as np.linalg.norm of each row on its own
    return rig.f * np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def weight(sigma):
    """Inverse-variance weights 1 / max(sigma, DEVIATION_FLOOR_PX)^2, sigma in pixels."""
    s = np.maximum(sigma, DEVIATION_FLOOR_PX)
    return 1.0 / (s * s)

