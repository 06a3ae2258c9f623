"""Camera centre from world points under a known camera rotation.

The gyro chain supplies the camera rotation R (camera -> world), so only the
camera centre C is unknown.  A world point P observed at normalized
coordinates (x, y) gives two equations that are linear in C,

    (r1 - x r3) . C = (r1 - x r3) . P,    (r2 - y r3) . C = (r2 - y r3) . P,

where r_k are the rows of R^T: the known-rotation case of Kneip, Chli &
Siegwart (BMVC 2011).  A row's residual is the point's camera depth times
its reprojection error, so dividing each row by the depth under the last
estimate makes the least-squares cost the reprojection error; a few passes
settle the depths.  Coplanar points, the take-off case, are no degeneracy:
two points with distinct bearings fix C.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .geometry import Pose, Rotation

# least-squares solves per fit: one algebraic, then depth-normalised passes
_PASSES = 4


def _pairs(points_w, obs) -> tuple[np.ndarray, np.ndarray]:
    pw = np.asarray(points_w, dtype=np.float64).reshape(-1, 3)
    ob = np.asarray(obs, dtype=np.float64).reshape(-1, 2)
    if len(ob) != len(pw):
        raise ValueError(f"{len(pw)} world points but {len(ob)} observations")
    return pw, ob


def refine_pose(points_w, obs, rotation: Rotation, weights=None) -> np.ndarray:
    """Camera centre (world frame) fitting world points (N, 3) to their
    normalized observations (N, 2) under the known camera rotation
    (camera -> world).

    ``weights`` are per-point scalars applied to the squared reprojection
    residuals (information weighting); None means uniform.
    """
    pw, ob = _pairs(points_w, obs)
    m = rotation.matrix()
    # rows r1 - x r3 and r2 - y r3 of each point, (N, 2, 3), and their
    # right-hand sides
    a = m.T[:2] - ob[:, :, None] * m.T[2]
    b = np.matmul(a, pw[:, :, None])[..., 0]
    sw = np.ones(len(pw)) if weights is None else np.sqrt(np.asarray(weights, dtype=np.float64))
    scale = sw
    for _ in range(_PASSES):
        centre, *_ = np.linalg.lstsq((a * scale[:, None, None]).reshape(-1, 3),
                                     (b * scale[:, None]).reshape(-1), rcond=None)
        scale = sw / ((pw - centre) @ m[:, 2])
    return centre


def _reprojection_errors(points_w: np.ndarray, obs: np.ndarray, rotation: Rotation,
                         centre: np.ndarray) -> np.ndarray:
    """Per-point reprojection error norms; infinite behind the camera."""
    p_c = (points_w - centre) @ rotation.matrix()
    z = p_c[:, 2]
    ahead = z > 1e-9
    err = np.full(len(points_w), np.inf)
    err[ahead] = np.linalg.norm(p_c[ahead, :2] / z[ahead, None] - obs[ahead], axis=1)
    return err


def solve_pnp(points_w, obs, rotation: Rotation, *,
              threshold: float) -> tuple[Pose, np.ndarray]:
    """Camera pose ``T_c^w`` from world points (N, 3), their normalized
    observations (N, 2) and the known camera rotation (camera -> world).

    The centre is fitted on every point, the points whose reprojection
    error is below ``threshold`` are kept, and the centre is refitted on
    them.  Returns the pose and that inlier mask.  The gate is not a
    sampling loop: the pipeline's points are homography inliers already,
    and a large share of gross outliers would pull the first fit too far
    for the gate to find the inliers.
    """
    pw, ob = _pairs(points_w, obs)
    if len(pw) < 4:
        raise InsufficientDataError(f"need >= 4 point pairs, got {len(pw)}")
    mask = _reprojection_errors(pw, ob, rotation, refine_pose(pw, ob, rotation)) < threshold
    if int(mask.sum()) < 4:
        raise InsufficientDataError(
            f"only {int(mask.sum())} of {len(pw)} points within the inlier threshold")
    return Pose(rotation, refine_pose(pw[mask], ob[mask], rotation), "c", "w"), mask
