"""Dynamic per-feature pixel deviation for stereo visual residuals.

Two residual types: the stereo (left-to-right, same time) deviation uses
the baseline and a reference depth; the temporal deviation predicts the
next-keyframe coordinate from the motion field under a uniform-motion
assumption.  Weights are inverse-variance in the deviation, floored.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDisparityError, TimeStepError, ZeroDepthError
from .geometry import CameraRig, homogeneous, normalize
from .motion_field import projection_velocity_matrix


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


def temporal_deviation(obs_k, obs_k1, p_c_k, v_rel, omega_c, dt: float,
                       rig: CameraRig) -> float:
    """Left-camera deviation in pixels between predicted and tracked next coordinates.

    ``v_rel`` is the camera's translational velocity in its own frame and
    ``omega_c`` its angular rate; the feature's camera-frame velocity is
    ``-v_rel - omega_c x p_c`` and the next normalized coordinate follows
    by uniform motion over ``dt``.
    """
    if dt <= 0.0:
        raise TimeStepError(f"dt must be positive, got {dt}")
    p_c = np.asarray(p_c_k, dtype=np.float64).reshape(3)
    if abs(p_c[2]) < 1e-9:
        raise ZeroDepthError("zero feature depth")
    v_c = -np.asarray(v_rel, dtype=np.float64) - np.cross(
        np.asarray(omega_c, dtype=np.float64), p_c)
    v_hat = projection_velocity_matrix(p_c) @ v_c
    predicted = normalize(rig, obs_k) + v_hat * dt
    return rig.f * float(np.linalg.norm(predicted - normalize(rig, obs_k1)))


def weight(sigma, floor: float = 0.25):
    """Inverse-variance weights 1 / max(sigma, floor)^2 of deviations in pixels."""
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    s = np.maximum(sigma, floor)
    return 1.0 / (s * s)

