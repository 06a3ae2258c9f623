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

With only three unknowns, each point's two rows A_i are kept as their
normal blocks A_i^T A_i and A_i^T b_i, built once per set of points in a
:class:`PnpSystem`.  Every fit on those points, whether on all of them, on
the inliers, or with information weights, is a re-weighting of that one
system: a pass is a weighted sum of the blocks and a closed-form solve of
the symmetric 3x3 normal equations, and a weight of zero drops a point.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .geometry import Pose, Rotation

# solves per fit: one algebraic, then depth-normalised passes
_PASSES = 4


class PnpSystem:
    """The known-rotation PnP problem of world points (N, 3), their
    normalized observations (N, 2) and the camera rotation (camera ->
    world), as per-point normal blocks.

    ``len()`` is the point count.  The points, observations and rotation
    are kept for the reprojection errors.
    """

    __slots__ = ("points_w", "obs", "rotation", "_m", "_blocks", "_heights")

    def __init__(self, points_w, obs, rotation: Rotation):
        pw = np.asarray(points_w, dtype=np.float64).reshape(-1, 3)
        ob = np.asarray(obs, dtype=np.float64).reshape(-1, 2)
        if len(ob) != len(pw):
            raise ValueError(f"{len(pw)} world points but {len(ob)} observations")
        self.points_w, self.obs, self.rotation = pw, ob, rotation
        m = self._m = rotation.matrix()
        x, y = ob[:, 0], ob[:, 1]
        # with c_k the columns of R, a point's rows are c1 - x c3 and
        # c2 - y c3, so A^T A = B0 + x B1 + y B2 + (x^2 + y^2) B3, where
        # B0 = c1 c1^T + c2 c2^T = I - B3 and B3 = c3 c3^T
        c3 = m[:, 2]
        s1, s2, b3 = m[:, 0, None] * c3, m[:, 1, None] * c3, m[:, 2, None] * c3
        basis = np.array([np.eye(3) - b3, -(s1 + s1.T), -(s2 + s2.T), b3]).reshape(4, 9)
        # right-hand sides b = (q1 - x q3, q2 - y q3) with q = R^T P, and
        # A^T b = bx c1 + by c2 - (x bx + y by) c3
        q = pw @ m
        bx, by = q[:, 0] - x * q[:, 2], q[:, 1] - y * q[:, 2]
        n = len(pw)
        f = np.empty((n, 4))
        f[:, 0], f[:, 1], f[:, 2], f[:, 3] = 1.0, x, y, x * x + y * y
        g = np.empty((n, 3))
        g[:, 0], g[:, 1], g[:, 2] = bx, by, -(x * bx + y * by)
        self._blocks = np.empty((n, 12))  # A^T A (9) then A^T b (3)
        self._blocks[:, :9] = f @ basis
        self._blocks[:, 9:] = g @ m.T
        # a point's camera depth is its height along the optical axis c3
        # less the centre's
        self._heights = q[:, 2]

    def __len__(self) -> int:
        return len(self.points_w)

    def reprojection_errors(self, centre: np.ndarray) -> np.ndarray:
        """Per-point reprojection error norms; infinite behind the camera."""
        p_c = (self.points_w - centre) @ self._m
        z = p_c[:, 2]
        ahead = z > 1e-9
        err = np.full(len(p_c), np.inf)
        err[ahead] = np.linalg.norm(p_c[ahead, :2] / z[ahead, None] - self.obs[ahead], axis=1)
        return err


def _solve(sums) -> tuple[float, float, float]:
    """The centre of weighted block sums (12,): Cramer's rule on the
    symmetric 3x3 normal equations."""
    a, b, c, _, d, e, _, _, f, u, v, w = sums.tolist()
    # cofactors; the adjugate of a symmetric matrix is symmetric
    ca, cb, cc = d * f - e * e, c * e - b * f, b * e - c * d
    cd, ce, cf = a * f - c * c, b * c - a * e, a * d - b * b
    det = a * ca + b * cb + c * cc
    # the normal matrix is positive semi-definite: a determinant this small
    # against its trace cubed leaves the centre unfixed
    if not det > 1e-12 * (a + d + f) ** 3:
        raise InsufficientDataError("the points fix no camera centre")
    return ((ca * u + cb * v + cc * w) / det, (cb * u + cd * v + ce * w) / det,
            (cc * u + ce * v + cf * w) / det)


def refine_pose(system: PnpSystem, weights=None) -> np.ndarray:
    """Camera centre (world frame) fitting the points of ``system`` to their
    observations under its camera rotation.

    ``weights`` are per-point scalars applied to the squared reprojection
    residuals (information weighting); None means uniform, and a weight of
    zero leaves the point out.  Each pass is a weighted sum of the blocks
    and one closed-form solve.
    """
    blocks, heights = system._blocks, system._heights
    if weights is None:
        w = np.ones(len(system))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(system),):
            raise ValueError(f"{len(system)} points but weights of shape {w.shape}")
        keep = np.flatnonzero(w)
        if len(keep) < len(w):
            blocks, heights, w = blocks[keep], heights[keep], w[keep]
    a0, a1, a2 = system._m[:, 2].tolist()
    scaled = w
    for k in range(_PASSES):
        if k:
            depth = heights - (x * a0 + y * a1 + z * a2)
            scaled = w / (depth * depth)
        x, y, z = _solve(scaled @ blocks)
    return np.array([x, y, z])


def solve_pnp(system: PnpSystem, *, threshold: float) -> tuple[Pose, np.ndarray]:
    """Camera pose ``T_c^w`` of the points, observations and rotation of
    ``system``.

    The centre is fitted on every point, the points whose reprojection
    error is below ``threshold`` are kept, and the centre is refitted on
    them.  Returns the pose and that inlier mask.  The gate is not a
    sampling loop: the pipeline's points are homography inliers already,
    and a large share of gross outliers would pull the first fit too far
    for the gate to find the inliers.
    """
    if len(system) < 4:
        raise InsufficientDataError(f"need >= 4 point pairs, got {len(system)}")
    mask = system.reprojection_errors(refine_pose(system)) < threshold
    if int(mask.sum()) < 4:
        raise InsufficientDataError(
            f"only {int(mask.sum())} of {len(system)} points within the inlier threshold")
    return Pose(system.rotation, refine_pose(system, mask.astype(np.float64)), "c", "w"), mask
