"""Robust PnP: Grunert P3P hypotheses inside a sampling loop, GN refinement.

The minimal solver recovers the three camera-to-point distances from the
classical quartic, then absolute orientation gives the pose.  Because the
hypothesis generator is 3-point it stays well posed when all world points
are coplanar, which is the take-off regime this package cares about.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePnpError, InsufficientDataError
from .geometry import Pose, Rotation


def _grunert_quartic(a2, b2, c2, ca, cb, cg) -> np.ndarray:
    """Quartic in v = s3/s1 eliminating u = s2/s1 from the P3P system.

    a = |P2-P3|, b = |P1-P3|, c = |P1-P2| (squared lengths passed in);
    ca/cb/cg are cosines of the angles between the bearing-vector pairs
    (2,3), (1,3), (1,2).
    """
    q4 = a2**2 - 2*a2*b2 - 2*a2*c2 + b2**2 - 4*b2*c2*ca**2 + 2*b2*c2 + c2**2
    q3 = -4*(a2**2*cb - a2*b2*ca*cg - a2*b2*cb - 2*a2*c2*cb + b2**2*ca*cg
             - 2*b2*c2*ca**2*cb - b2*c2*ca*cg + b2*c2*cb + c2**2*cb)
    q2 = 2*(2*a2**2*cb**2 + a2**2 - 4*a2*b2*ca*cb*cg - 2*a2*b2*cg**2
            - 4*a2*c2*cb**2 - 2*a2*c2 + 2*b2**2*ca**2 + 2*b2**2*cg**2 - b2**2
            - 2*b2*c2*ca**2 - 4*b2*c2*ca*cb*cg + 2*c2**2*cb**2 + c2**2)
    q1 = -4*(a2**2*cb - a2*b2*ca*cg - 2*a2*b2*cb*cg**2 + a2*b2*cb - 2*a2*c2*cb
             + b2**2*ca*cg - b2*c2*ca*cg - b2*c2*cb + c2**2*cb)
    q0 = a2**2 - 4*a2*b2*cg**2 + 2*a2*b2 - 2*a2*c2 + b2**2 - 2*b2*c2 + c2**2
    return np.array([q4, q3, q2, q1, q0])


def _absolute_orientation(p_world: np.ndarray, p_cam: np.ndarray):
    """Least-squares (R, t) with p_cam = R p_world + t (Kabsch), for a
    stack of camera-frame point sets p_cam (K, 3, 3) of the same world
    points; returns R (K, 3, 3) and t (K, 3)."""
    cw = p_world.mean(axis=0)
    cc = p_cam.mean(axis=1)
    h = (p_world - cw).T @ (p_cam - cc[:, None])
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(1, 2), u.swapaxes(1, 2)
    flip = np.zeros((len(h), 3, 3))
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    r = v @ flip @ ut
    return r, cc - r @ cw


def _polish_distances(s: np.ndarray, a2, b2, c2, ca, cb, cg,
                      iters: int = 3) -> np.ndarray:
    """Newton-polish (s1, s2, s3) on the law-of-cosines system; thin
    triangles make the quartic roots lose several digits otherwise."""
    s = s.copy()
    for _ in range(iters):
        s1, s2, s3 = s
        r = np.array([
            s2 * s2 + s3 * s3 - 2 * s2 * s3 * ca - a2,
            s1 * s1 + s3 * s3 - 2 * s1 * s3 * cb - b2,
            s1 * s1 + s2 * s2 - 2 * s1 * s2 * cg - c2,
        ])
        jac = 2.0 * np.array([
            [0.0, s2 - s3 * ca, s3 - s2 * ca],
            [s1 - s3 * cb, 0.0, s3 - s1 * cb],
            [s1 - s2 * cg, s2 - s1 * cg, 0.0],
        ])
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            return s
        s = s - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return s


def p3p(points_w: np.ndarray, obs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Minimal 3-point pose hypotheses.

    ``points_w``: (3, 3) world points; ``obs``: (3, 2) normalized image
    coordinates.  Returns a list of (R, t) with ``p_c = R p_w + t``.
    """
    pw = np.asarray(points_w, dtype=np.float64)
    ob = np.asarray(obs, dtype=np.float64)
    bearings = np.c_[ob, np.ones(3)]
    bearings /= np.linalg.norm(bearings, axis=1, keepdims=True)
    a2 = float(np.sum((pw[1] - pw[2]) ** 2))
    b2 = float(np.sum((pw[0] - pw[2]) ** 2))
    c2 = float(np.sum((pw[0] - pw[1]) ** 2))
    if min(a2, b2, c2) < 1e-16:
        return []
    ca = float(bearings[1] @ bearings[2])
    cb = float(bearings[0] @ bearings[2])
    cg = float(bearings[0] @ bearings[1])

    roots = np.roots(_grunert_quartic(a2, b2, c2, ca, cb, cg))
    p_cam = []  # camera-frame points of each surviving root
    for root in roots:
        if abs(root.imag) > 1e-8 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        if v <= 0.0:
            continue
        den = 2.0 * b2 * (ca * v - cg)
        if abs(den) < 1e-14:
            continue
        u = -(a2 + b2 - c2 + (a2 - b2 - c2) * v * v
              + 2.0 * (c2 - a2) * cb * v) / den
        if u <= 0.0 or not math.isfinite(u):
            continue
        s1_sq = b2 / (1.0 + v * v - 2.0 * v * cb)
        if s1_sq <= 0.0:
            continue
        s1 = math.sqrt(s1_sq)
        dist = _polish_distances(np.array([s1, u * s1, v * s1]),
                                 a2, b2, c2, ca, cb, cg)
        if np.any(dist <= 0.0) or not np.all(np.isfinite(dist)):
            continue
        p_cam.append(dist[:, None] * bearings)
    if not p_cam:
        return []
    return list(zip(*_absolute_orientation(pw, np.array(p_cam))))


def _reprojection_errors(r: np.ndarray, t: np.ndarray, points_w: np.ndarray,
                         obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residual norms and a positive-depth mask."""
    p_c = points_w @ r.T + t
    z = p_c[:, 2]
    good = z > 1e-9
    err = np.full(len(points_w), np.inf)
    err[good] = np.linalg.norm(p_c[good, :2] / z[good, None] - obs[good], axis=1)
    return err, good


def refine_pose(points_w: np.ndarray, obs: np.ndarray, r0: np.ndarray,
                t0: np.ndarray, weights: np.ndarray | None = None,
                max_iters: int = 15) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Newton reprojection refinement of (R, t), p_c = R p_w + t.

    ``weights`` are per-point scalars applied to the squared residuals
    (information weighting); None means uniform.
    """
    pw = np.asarray(points_w, dtype=np.float64)
    ob = np.asarray(obs, dtype=np.float64)
    n = len(pw)
    sw = np.ones(n) if weights is None else np.sqrt(np.asarray(weights, dtype=np.float64))
    r, t = r0.copy(), t0.copy()
    cost = np.inf
    # rows (2k, 2k+1) of the Jacobian belong to point k; columns [dtheta, dt]
    jac = np.zeros((n, 2, 6))
    for _ in range(max_iters):
        p_c = pw @ r.T + t
        z = p_c[:, 2]
        if np.any(z <= 1e-9):
            break
        res = (p_c[:, :2] / z[:, None] - ob) * sw[:, None]
        new_cost = float(np.sum(res * res))
        # d(residual)/d(p_c) = [[1/z, 0, gx], [0, 1/z, gy]], chained with
        # d(p_c)/d[dtheta, dt] = [-[p_c-t]x | I].  Each dtheta entry sums
        # its non-zero products onto 0.0, left to right, which is the full
        # 3-term product down to the sign of an exact zero.
        inv_z = 1.0 / z
        gx = -p_c[:, 0] * inv_z * inv_z
        gy = -p_c[:, 1] * inv_z * inv_z
        rx, ry, rz = (p_c - t).T
        jac[:, 0, 0] = 0.0 + gx * ry
        jac[:, 0, 1] = (0.0 + inv_z * rz) + gx * -rx
        jac[:, 0, 2] = 0.0 + inv_z * -ry
        jac[:, 1, 0] = (0.0 + inv_z * -rz) + gy * ry
        jac[:, 1, 1] = 0.0 + gy * -rx
        jac[:, 1, 2] = 0.0 + inv_z * rx
        jac[:, 0, 3] = inv_z
        jac[:, 0, 5] = gx
        jac[:, 1, 4] = inv_z
        jac[:, 1, 5] = gy
        jac *= sw[:, None, None]
        step, *_ = np.linalg.lstsq(jac.reshape(2 * n, 6), -res.reshape(-1), rcond=None)
        if not np.all(np.isfinite(step)):
            break
        r = Rotation.from_rotvec(step[:3]).matrix() @ r
        t = t + step[3:]
        if new_cost >= cost - 1e-16 and np.linalg.norm(step) < 1e-12:
            cost = min(cost, new_cost)
            break
        cost = new_cost
    return r, t, cost


def solve_pnp(
    points_w,
    obs,
    seed: int | np.random.Generator = 0,
    *,
    threshold: float = 0.02,
    confidence: float = 0.999,
    max_iters: int = 500,
) -> tuple[Pose, np.ndarray]:
    """Robust camera pose from world points (N, 3) and their normalized
    observations (N, 2).

    Random 4-point samples: 3 feed the minimal solver, the 4th ranks its
    up-to-four hypotheses.  The consensus pose is refined by Gauss-Newton
    on its inliers.  Returns ``T_c^w`` (camera pose in world) and the
    inlier mask.
    """
    pw = np.asarray(points_w, dtype=np.float64).reshape(-1, 3)
    ob = np.asarray(obs, dtype=np.float64).reshape(-1, 2)
    n = len(pw)
    if len(ob) != n:
        raise ValueError(f"{n} world points but {len(ob)} observations")
    if n < 4:
        raise InsufficientDataError(f"need >= 4 point pairs, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    best = None
    best_count = 0
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        idx = rng.choice(n, size=4, replace=False)
        tri = pw[idx[:3]]
        # reject collinear world samples
        if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-10:
            continue
        for r, t in p3p(tri, ob[idx[:3]]):
            err4, good4 = _reprojection_errors(r, t, pw[idx[3:]], ob[idx[3:]])
            if not good4[0] or err4[0] > threshold:
                continue
            err, good = _reprojection_errors(r, t, pw, ob)
            mask = good & (err < threshold)
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best = (r, t, mask)
                ratio = count / n
                if ratio >= 1.0:
                    needed = 0
                    break
                denom = math.log(max(1e-12, 1.0 - ratio ** 4))
                needed = min(max_iters,
                             int(math.ceil(math.log(1.0 - confidence) / denom)))
    if best is None or best_count < 4:
        raise DegeneratePnpError("no PnP consensus of size >= 4")

    r, t, mask = best
    r, t, _ = refine_pose(pw[mask], ob[mask], r, t)
    err, good = _reprojection_errors(r, t, pw, ob)
    final_mask = good & (err < threshold)
    if int(final_mask.sum()) < 4:
        final_mask = mask
    r_cw = r.T
    return Pose(Rotation.from_matrix(r_cw), -r_cw @ t, "c", "w"), final_mask
