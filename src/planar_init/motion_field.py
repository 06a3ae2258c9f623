"""Motion-field velocity refinement.

The image-plane velocity of a tracked plane feature constrains the body
velocity through a linear chain: body velocity -> camera velocity
(rigid-lever arm) -> apparent feature velocity in the camera ->
normalized image velocity -> transfer through the inter-keyframe
homography.  :func:`flow_model` builds that chain once per keyframe pair;
Gauss-Newton on the stacked residuals against its prediction recovers
the body velocity in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HorizonSingularityError,
    InsufficientDataError,
    UnobservableVelocityError,
    ZeroDepthError,
)
from .geometry import CameraRig, Rotation, cross
from .homography import Homography


def flow_transfer_matrix(h: Homography, p_i) -> np.ndarray:
    """2x2 Jacobians (..., 2, 2) of the dehomogenized homography map at points (..., 2).

    With the block partition H = [[h1, h2], [h3, h4]] this is
    ((h3 p + h4) h1 - (h1 p + h2) h3) / (h3 p + h4)^2.  Each point's
    products are stacked matrix-vector products, so a stack rounds as its
    points one by one.
    """
    p = np.asarray(p_i, dtype=np.float64)[..., None]
    denom = np.matmul(h.h3, p)[..., 0] + h.h4
    if np.any(np.abs(denom) < 1e-9):
        raise HorizonSingularityError(
            f"|h3.p + h4| = {np.min(np.abs(denom)):.3g} at a feature point")
    mapped = np.matmul(h.h1, p)[..., 0] + h.h2
    num = denom[..., None, None] * h.h1 - mapped[..., :, None] * h.h3
    return num / (denom * denom)[..., None, None]


def projection_velocity_matrix(p_c) -> np.ndarray:
    """2x3 maps (..., 2, 3) from camera-frame point velocities to normalized
    image velocities, at camera-frame points (..., 3)."""
    p = np.asarray(p_c, dtype=np.float64)
    z = p[..., 2]
    if np.any(np.abs(z) < 1e-9):
        raise ZeroDepthError("feature depth is zero")
    out = np.zeros(p.shape[:-1] + (2, 3))
    out[..., 0, 0] = out[..., 1, 1] = 1.0 / z
    out[..., 0, 2] = -p[..., 0] / (z * z)
    out[..., 1, 2] = -p[..., 1] / (z * z)
    return out


@dataclass(frozen=True)
class FlowModel:
    """The motion-field prediction of one keyframe pair, linear in the body velocity.

    Feature k's predicted normalized velocity in the target view is
    ``-blocks[k] @ (v + lever_w)`` for body velocity ``v`` in the world
    frame: ``lever_w`` is the camera's lever-arm velocity in the world
    frame, and each (2, 3) block chains world -> camera rotation,
    projection at the feature's source point and transfer through the
    homography.
    """

    blocks: np.ndarray
    lever_w: np.ndarray

    def predict(self, v) -> np.ndarray:
        """Predicted normalized velocities (N, 2) for body velocity ``v`` (3,)."""
        return -np.einsum("nij,j->ni", self.blocks, v + self.lever_w)


def flow_model(p_source, p_c_source, h: Homography, R_w_b: Rotation, omega_b,
               rig: CameraRig) -> FlowModel:
    """The flow prediction at source points (N, 2) with camera-frame points (N, 3).

    The camera origin moves at v + R_b^w (omega_b x t_c^b), so static
    points appear to move at -R_b^c R_w^b (v + lever_w) in the camera;
    their normalized velocity is then transferred through ``h`` (source
    view -> target view).  The camera's rotational flow is left out.
    """
    omega = np.asarray(omega_b, dtype=np.float64).reshape(3)
    r_b_c = rig.T_c_b.rotation.inverse()
    c_mat = (r_b_c @ R_w_b).matrix()
    lever_w = R_w_b.inverse().apply(cross(omega, rig.T_c_b.translation))
    blocks = flow_transfer_matrix(h, p_source) @ projection_velocity_matrix(p_c_source) @ c_mat
    return FlowModel(blocks, lever_w)


@dataclass(frozen=True)
class VelocityRefinement:
    velocity: np.ndarray
    iterations: int
    cost: float
    converged: bool

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=np.float64).reshape(3).copy()
        v.setflags(write=False)
        object.__setattr__(self, "velocity", v)


def refine_velocity(
    p_source,
    p_c_source,
    v_measured,
    h: Homography,
    R_w_b: Rotation,
    omega_b,
    rig: CameraRig,
    v_init,
    *,
    max_iters: int = 25,
    step_tol: float = 1e-10,
    cost_tol: float = 1e-12,
) -> VelocityRefinement:
    """Gauss-Newton body-velocity fit to measured normalized velocities.

    Row k of ``p_source`` (N, 2), ``p_c_source`` (N, 3) and ``v_measured``
    (N, 2) is one feature: its normalized coordinate in the source
    keyframe, its metric camera-frame point there (stereo depth), and its
    measured normalized velocity in the target keyframe.  Residual per
    feature: measured velocity minus the prediction transferred through
    ``h`` from the source view.  The chain is linear in the body velocity,
    so the iteration converges in one step; the loop shape matches the
    general solver contract (no damping, stop on step norm or relative
    cost decrease).
    """
    p_source = np.asarray(p_source, dtype=np.float64).reshape(-1, 2)
    p_c_source = np.asarray(p_c_source, dtype=np.float64).reshape(-1, 3)
    measured = np.asarray(v_measured, dtype=np.float64).reshape(-1, 2)
    if not len(p_source) == len(p_c_source) == len(measured):
        raise ValueError("p_source, p_c_source and v_measured need one row per feature")
    if len(p_source) < 3:
        raise InsufficientDataError(
            f"need >= 3 flow observations, got {len(p_source)}")
    v = np.asarray(v_init, dtype=np.float64).reshape(3).copy()

    model = flow_model(p_source, p_c_source, h, R_w_b, omega_b, rig)
    jac = model.blocks.reshape(-1, 3)  # d(residual)/dv = +block
    if np.linalg.matrix_rank(jac, tol=1e-12) < 3:
        raise UnobservableVelocityError("flow Jacobian rank < 3")

    def cost_at(vel: np.ndarray) -> tuple[float, np.ndarray]:
        res = measured - model.predict(vel)
        return float(np.sum(res * res)), res.reshape(-1)

    cost, res = cost_at(v)
    iterations = 0
    converged = False
    for _ in range(max_iters):
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if np.linalg.norm(step) < step_tol:
            converged = True
            break
        new_cost, new_res = cost_at(v + step)
        if new_cost > cost:  # no damping: a non-descending step ends the solve
            break
        iterations += 1
        drop = cost - new_cost
        v = v + step
        cost, res = new_cost, new_res
        if drop < cost_tol * max(cost, 1.0):
            converged = True
            break
    return VelocityRefinement(v, iterations, cost, converged)
