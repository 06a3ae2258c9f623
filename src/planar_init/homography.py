"""Planar homography: synthesis, robust estimation, analytic decomposition.

A calibrated homography between two views of a plane factors as
``H = R + t_bar n^T`` where ``t_bar = t/d`` is the translation divided by
the source-camera-to-plane distance and ``n`` is the unit plane normal in
the source camera frame.  A homography is held in that factored form,
one :class:`HomographySolution`; ``reassemble`` gives the 3x3 matrix.
Such a matrix has its second-largest singular value equal to 1, and
``decompose`` scales any multiple of it back to that before splitting it.

Estimation holds R and n fixed, as the pipeline knows them from the gyro
rotation and the IMU-propagated prior normal, so H is linear in t_bar
alone and two correspondences fix a hypothesis (Saurer et al., TPAMI 2017;
Troiani et al., ICRA 2014): a 2-point random-sampling consensus loop,
then a depth-weighted least-squares refit on the inliers.  Over 36
default-noise take-off windows (324 pairs) the fitted t_bar is a median
0.17 deg off the true direction.  The 8-DoF 4-point fit it replaced gave,
through the four-way decomposition and prior selection, a t_bar 4.7 deg
off (0.23 deg for the rank-1 factor of H - R the pose chain used then),
at about four times the cost per call.

Decomposition is the analytic SVD construction returning up to four
``(R, t_bar, n)`` triples, of which positive-depth filtering keeps at most
two.  The pipeline runs both on the reassembled fit as its positive-depth
check; ``harness.selection_trial`` runs them on exact homographies,
reproducing the paper's prior-normal disambiguation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEstimationError,
    DegenerateHomographyError,
    InconsistentDataError,
    InsufficientDataError,
    InvalidPlaneError,
)
from .geometry import Rotation, cross, homogeneous


@dataclass(frozen=True)
class HomographySolution:
    """A plane homography H = R + t_bar n^T in factored form: the rotation
    R, the translation over the plane distance t_bar = t/d, and the unit
    plane normal n in the source frame.

    ``synthesize`` and ``estimate`` return one; ``decompose`` returns up to
    four candidates of a matrix.
    """

    rotation: Rotation
    t_bar: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        for name in ("t_bar", "n"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(3).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def reassemble(self) -> np.ndarray:
        """The matrix R + t_bar n^T; a decomposition candidate reproduces
        the decomposed H scaled to sigma_2 = 1."""
        return self.rotation.matrix() + np.outer(self.t_bar, self.n)


def synthesize(rotation: Rotation, t, n, d: float) -> HomographySolution:
    """Ground-truth homography from relative pose and plane, H = R + t n^T / d.

    ``t`` is the source-camera origin expressed in the target camera frame,
    ``n`` the unit plane normal in the source frame, ``d`` the
    source-camera-to-plane distance in meters.
    """
    if d <= 0.0:
        raise InvalidPlaneError(f"plane distance {d} must be positive")
    n = np.asarray(n, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("plane normal must be unit length")
    t = np.asarray(t, dtype=np.float64).reshape(3)
    return HomographySolution(rotation, t / d, n)


def _points(p) -> np.ndarray:
    """Normalized points as a contiguous (N, 2) float array; non-finite raises."""
    a = np.ascontiguousarray(p, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.isfinite(a)):
        raise ValueError("points must be finite")
    return a


def _normal_equations(y: np.ndarray, rx: np.ndarray,
                      s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each correspondence's least-squares equations in t_bar.

    For a source point x and a target point y = (u, v, 1), with R x (N, 3)
    in ``rx`` and n . x (N,) in ``s``, let w = R x + t_bar (n . x).  Two rows
    of [y]x w = 0 read ``A t_bar - b = (u, v) w_z - (w_x, w_y)``, the forward
    transfer error times the predicted depth w_z.  Their normal matrix
    A^T A = [[q0, 0, q1], [0, q0, q2], [q1, q2, q3]] keeps that pattern
    under sums, so it is returned as q (N, 4), and A^T b as g (N, 3).
    """
    u, v = y[:, 0], y[:, 1]
    b0 = rx[:, 0] - u * rx[:, 2]
    b1 = rx[:, 1] - v * rx[:, 2]
    q = (s * s)[:, None] * np.stack([np.ones_like(u), -u, -v, u * u + v * v], axis=1)
    g = s[:, None] * np.stack([-b0, -b1, u * b0 + v * b1], axis=1)
    return q, g


def _solve(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solutions (K, 3) of normal equations (K, 4) and (K, 3) in the form
    ``_normal_equations`` returns, by the Schur complement on t_z; a
    singular one gives non-finite entries.  Call under ``np.errstate``
    ignoring divide and invalid."""
    q0, q1, q2, q3 = q.T
    tz = (q0 * g[:, 2] - q1 * g[:, 0] - q2 * g[:, 1]) / (q0 * q3 - q1 * q1 - q2 * q2)
    return np.stack([(g[:, 0] - q1 * tz) / q0, (g[:, 1] - q2 * tz) / q0, tz], axis=1)


def _distances(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances (..., N) from the dehomogenized points w (..., N, 3) to p (N, 2);
    nan or inf where a point maps to infinity.  Call under ``np.errstate``
    ignoring divide, invalid and over."""
    dx = w[..., 0] / w[..., 2] - p[:, 0]
    dy = w[..., 1] / w[..., 2] - p[:, 1]
    return np.sqrt(dx * dx + dy * dy)


# hypotheses drawn and scored together: at the pipeline's median inlier
# ratio of 0.87 the 2-point stopping rule needs 5.  Replaying the 162
# estimate calls of 18 default-noise window inits (3 scenes x 2 profiles x
# seeds 11-13) on a 2-core x86-64 host took, best of 30 passes, 0.52 / 0.44
# / 0.58 / 0.66 ms per call at blocks of 4 / 8 / 16 / 32 (the 4-point
# estimator it replaced: 1.88 ms at its block of 32).
_BLOCK = 8


def estimate(
    p_src,
    p_dst,
    rotation: Rotation,
    n,
    *,
    threshold: float = 1e-3,
    confidence: float = 0.999,
    max_iters: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[HomographySolution, np.ndarray]:
    """Robust homography H = R + t_bar n^T mapping normalized points
    ``p_src`` onto ``p_dst``, with the rotation R and the unit plane normal
    ``n`` (source frame) known: only t_bar (3,) is estimated.

    ``p_src`` and ``p_dst`` are (N, 2) arrays, row k one correspondence.
    Each correspondence gives two equations linear in t_bar
    (``_normal_equations``), so two points fix a hypothesis.  Inliers are
    the correspondences whose symmetric transfer error falls below
    ``threshold`` (normalized-coordinate units).  The returned t_bar is the
    least-squares fit on the best consensus set, each point's rows divided
    by its predicted depth under the best hypothesis, so that the cost is
    the forward transfer error.

    Hypotheses come in blocks of ``_BLOCK``: one generator call draws a
    block's ordered pairs of distinct points, the block is scored at once,
    then replayed in draw order: the first strictly larger consensus wins,
    the 2-point adaptive iteration count shrinks with it, and a full
    consensus stops the search.

    Returns the fit (``rotation``, t_bar, ``n``) and a boolean inlier mask.
    """
    p_src, p_dst = _points(p_src), _points(p_dst)
    count = len(p_src)
    if len(p_dst) != count:
        raise ValueError(f"{count} source points but {len(p_dst)} target points")
    if count < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r = rotation.matrix()
    n = np.asarray(n, dtype=np.float64).reshape(3)
    x, y = homogeneous(p_src), homogeneous(p_dst)
    rx, s = x @ r.T, x @ n
    q, g = _normal_equations(y, rx, s)
    # the backward map, by Sherman-Morrison: H^-1 y = R^T y - c (n . R^T y)
    # with c = R^T t_bar / (1 + n . R^T t_bar)
    ry = y @ r
    ny = ry @ n

    def inliers(t: np.ndarray) -> np.ndarray:
        """Masks (K, N) of the hypotheses t (K, 3); a non-finite transfer
        error compares False.  Elementwise, so a hypothesis rounds the same
        in any block."""
        c = t[:, :1] * r[0] + t[:, 1:2] * r[1] + t[:, 2:] * r[2]
        c /= 1.0 + (c[:, :1] * n[0] + c[:, 1:2] * n[1] + c[:, 2:] * n[2])
        return (_distances(rx + t[:, None, :] * s[:, None], p_dst)
                + _distances(ry - c[:, None, :] * ny[:, None], p_src)) < threshold

    best_count = 0
    needed = max_iters
    it = 0
    done = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not done and it < needed:
            idx = rng.integers(0, (count, count - 1), size=(min(_BLOCK, needed - it), 2))
            idx[:, 1] += idx[:, 1] >= idx[:, 0]
            t = _solve(q[idx[:, 0]] + q[idx[:, 1]], g[idx[:, 0]] + g[idx[:, 1]])
            masks = inliers(t)
            for k, size in enumerate(masks.sum(axis=1).tolist()):
                it += 1
                if size > best_count:
                    best_count, best_mask, best_t = size, masks[k], t[k]
                    ratio = size / count
                    if ratio >= 1.0:
                        done = True
                        break
                    # adaptive stopping rule for 2-point samples
                    denom = math.log(max(1e-12, 1.0 - ratio * ratio))
                    needed = min(max_iters, int(math.ceil(math.log(1.0 - confidence) / denom)))
                if it >= needed:
                    break
        if best_count < 4:
            raise DegenerateEstimationError("no consensus set of size >= 4")

        depth = rx[best_mask, 2] + s[best_mask] * best_t[2]
        w = 1.0 / (depth * depth)
        t_bar = _solve((w @ q[best_mask])[None], (w @ g[best_mask])[None])
        mask = inliers(t_bar)[0]
    if int(mask.sum()) < 4:
        mask = best_mask
    return HomographySolution(rotation, t_bar[0], n), mask


def _dedupe(solutions: list[HomographySolution]) -> list[HomographySolution]:
    """Drop the sign -1 candidates that repeat a sign +1 one.

    ``solutions`` holds two flip pairs, (R_+, +-t_bar_+, +-n_+) then
    (R_-, +-t_bar_-, +-n_-).  Flip partners share one rotation and their
    normals are ||2n|| = 2 apart, so only a pair across the two signs can
    coincide, and only when the two rotations do.
    """
    plus, minus = solutions[:2], solutions[2:]
    if not minus[0].rotation.angle_to(plus[0].rotation) < 1e-8:
        return solutions
    return plus + [s for s in minus
                   if not any(np.linalg.norm(s.t_bar - k.t_bar) < 1e-8
                              and np.linalg.norm(s.n - k.n) < 1e-8 for k in plus)]


def decompose(matrix) -> list[HomographySolution]:
    """Analytic SVD decomposition of a 3x3 homography into up to four
    physically distinct (R, t_bar, n) candidates.

    The matrix is first scaled to a second singular value of 1, the scale
    at which it is R + t_bar n^T.  A non-finite or rank-deficient matrix
    raises, and so does a rotation (all singular values numerically
    equal), with no translation or normal to recover; the pipeline's
    parallax gate stops a pure-rotation pair before its H is estimated.
    """
    m = np.array(matrix, dtype=np.float64).reshape(3, 3)
    if not np.all(np.isfinite(m)):
        raise DegenerateHomographyError("non-finite homography")
    s = np.linalg.svd(m, compute_uv=False)
    if s[1] < 1e-12 * max(1.0, s[0]):
        raise DegenerateHomographyError("homography is numerically rank deficient")
    m = m / s[1]
    _, s, vt = np.linalg.svd(m)
    if not np.all(np.isfinite(s)) or s[2] < 1e-12:
        raise DegenerateHomographyError("cannot decompose rank-deficient H")
    if s[0] - s[2] < 1e-9:
        raise DegenerateHomographyError("H is a rotation: no translation to decompose")

    # work with right singular vectors of H (eigenvectors of H^T H)
    v = vt.T
    if np.linalg.det(v) < 0.0:
        v = -v
    v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
    s1, s3 = s[0], s[2]
    span = math.sqrt(max(s1 * s1 - s3 * s3, 1e-300))
    ca = math.sqrt(max(1.0 - s3 * s3, 0.0)) / span
    cb = math.sqrt(max(s1 * s1 - 1.0, 0.0)) / span

    solutions: list[HomographySolution] = []
    for sign in (1.0, -1.0):
        uvec = ca * v1 + sign * cb * v3
        normal = cross(v2, uvec)
        u_frame = np.column_stack([v2, uvec, normal])
        w_frame = np.column_stack([m @ v2, m @ uvec, cross(m @ v2, m @ uvec)])
        r = w_frame @ u_frame.T
        # guard against numerical drift off SO(3)
        ur, _, vr = np.linalg.svd(r)
        r = ur @ np.diag([1.0, 1.0, np.linalg.det(ur @ vr)]) @ vr
        t_bar = (m - r) @ normal
        rotation = Rotation.from_matrix(r)
        for flip in (1.0, -1.0):
            solutions.append(HomographySolution(rotation, flip * t_bar, flip * normal))

    solutions = _dedupe(solutions)
    # deterministic order: normals closest to the optical axis first
    solutions.sort(key=lambda s: (-s.n[2], -s.n[0], -s.n[1]))
    return solutions


def filter_positive_depth(
    solutions: list[HomographySolution],
    p_src,
) -> list[HomographySolution]:
    """Keep solutions for which every source point (N, 2) has positive depth.

    Visibility in the source camera requires ``n . p_h > 0`` (the plane
    lies in front); cheirality in the target camera requires the third
    component of ``(R + t_bar n^T) p_h`` to stay positive.
    """
    p_src = _points(p_src)
    if not solutions or not len(p_src):
        raise InsufficientDataError("need nonempty solutions and points")
    pts = np.c_[p_src, np.ones(len(p_src))]
    kept: list[HomographySolution] = []
    for s in solutions:
        if np.any(pts @ s.n <= 0.0):
            continue
        if np.any(pts @ s.reassemble()[2] <= 0.0):
            continue
        kept.append(s)
    if not kept:
        raise InconsistentDataError("positive-depth test rejected every solution")
    return kept


def indicator(fit: HomographySolution, p_src, p_dst) -> np.ndarray:
    """Planarity indicator: forward transfer residual (N,) of each
    correspondence, the distance from ``p_dst`` to ``p_src`` mapped through
    the reassembled H; ``inf`` where the mapped point lies at infinity."""
    m = fit.reassemble()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _distances(_points(p_src) @ m[:, :2].T + m[:, 2], _points(p_dst))
    out[~np.isfinite(out)] = np.inf
    return out
