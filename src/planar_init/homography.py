"""Planar homography: synthesis, robust estimation, analytic decomposition.

A calibrated homography between two views of a plane factors as
``H = R + t_bar n^T`` where ``t_bar = t/d`` is the translation divided by
the source-camera-to-plane distance and ``n`` is the unit plane normal in
the source camera frame.  Such an H always has its second-largest
singular value equal to 1, which is the normalization every
:class:`Homography` instance carries.

Estimation is a random-sampling consensus loop whose minimal-sample
hypotheses are the closed-form 4-point interpolants, with a normalized DLT
refit on the final inliers; decomposition is the analytic SVD
construction returning up to four ``(R, t_bar, n)`` triples, of which
positive-depth filtering keeps at most two.
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
from .geometry import Rotation, cross


class Homography:
    """3x3 homography stored with its second singular value normalized to 1."""

    __slots__ = ("_m",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(3, 3)
        if not np.all(np.isfinite(m)):
            raise DegenerateHomographyError("non-finite homography")
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] < 1e-12 * max(1.0, s[0]):
            raise DegenerateHomographyError("homography is numerically rank deficient")
        m = m / s[1]
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def apply(self, p_i) -> np.ndarray:
        """Map normalized source points (2,) or (N, 2) through H, dehomogenized."""
        p = np.asarray(p_i, dtype=np.float64)
        out = _map(self._m, np.atleast_2d(p))
        return out[0] if p.ndim == 1 else out

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self._m))

    def __repr__(self) -> str:
        return f"Homography({np.array2string(self._m, precision=6)})"


@dataclass(frozen=True)
class HomographySolution:
    """One decomposition candidate: rotation, t/d translation, unit plane normal."""

    rotation: Rotation
    t_bar: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        for name in ("t_bar", "n"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(3).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def reassemble(self) -> np.ndarray:
        """R + t_bar n^T, which must reproduce the decomposed H."""
        return self.rotation.matrix() + np.outer(self.t_bar, self.n)


def synthesize(rotation: Rotation, t, n, d: float) -> Homography:
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
    return Homography(rotation.matrix() + np.outer(t / d, n))


def _points(p) -> np.ndarray:
    """Normalized points as a contiguous (N, 2) float array; non-finite raises."""
    a = np.ascontiguousarray(p, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.isfinite(a)):
        raise ValueError("points must be finite")
    return a


def _map(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Points (N, 2) through a 3x3 matrix, dehomogenized.

    A point sent to the line at infinity maps to ``inf``.
    """
    w = p @ m[:, :2].T + m[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = w[:, :2] / w[:, 2:3]
    out[~np.isfinite(out)] = np.inf
    return out


def symmetric_transfer_error(h: Homography, p_src, p_dst) -> np.ndarray:
    """Forward plus backward transfer distance per correspondence."""
    p_src, p_dst = _points(p_src), _points(p_dst)
    err = (np.linalg.norm(h.apply(p_src) - p_dst, axis=-1)
           + np.linalg.norm(h.inverse().apply(p_dst) - p_src, axis=-1))
    err[~np.isfinite(err)] = np.inf
    return err


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity transforms taking each point set of a stack (K, M, 2) to
    zero mean and sqrt(2) mean radius, (K, 3, 3)."""
    mean = pts.mean(axis=1)
    dist = np.linalg.norm(pts - mean[:, None], axis=2).mean(axis=1)
    s = math.sqrt(2.0) / np.maximum(dist, 1e-12)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, :2, 2] = -s[:, None] * mean
    t[:, 2, 2] = 1.0
    return t


def _dlt(p_src: np.ndarray, p_dst: np.ndarray) -> np.ndarray:
    """Normalized DLT on a stack (K, M, 2) of M >= 4 correspondences each;
    returns the unnormalized (K, 3, 3) solutions."""
    t_src = _hartley_normalization(p_src)
    t_dst = _hartley_normalization(p_dst)
    ones = np.ones(p_src.shape[:2] + (1,))
    a = np.concatenate([p_src, ones], axis=2) @ np.swapaxes(t_src, 1, 2)
    b = np.concatenate([p_dst, ones], axis=2) @ np.swapaxes(t_dst, 1, 2)
    k, m = a.shape[:2]
    rows = np.zeros((k, 2 * m, 9))
    rows[:, 0::2, 0:3] = -a
    rows[:, 0::2, 6:9] = b[:, :, 0:1] * a
    rows[:, 1::2, 3:6] = -a
    rows[:, 1::2, 6:9] = b[:, :, 1:2] * a
    # the null vector is the last row of V^T; below 9 rows only the full
    # factorization has one, above it the reduced one skips the unused U
    _, _, vt = np.linalg.svd(rows, full_matrices=2 * m < 9)
    h_hat = vt[:, -1].reshape(k, 3, 3)
    return np.linalg.inv(t_dst) @ h_hat @ t_src


def _basis(pts: np.ndarray) -> np.ndarray:
    """Matrices (K, 3, 3) mapping e1, e2, e3 and (1, 1, 1) onto the four
    points of each sample of a stack (K, 4, 2), homogeneous: the columns
    are the first three points, scaled to sum to the fourth."""
    cols = np.ones((len(pts), 3, 4))
    cols[:, :2] = np.swapaxes(pts, 1, 2)
    scale = np.linalg.solve(cols[:, :, :3], cols[:, :, 3:])
    return cols[:, :, :3] * np.swapaxes(scale, 1, 2)


def _interpolants(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The homographies (K, 3, 3) taking each 4-point sample of ``src``
    exactly onto ``dst``, as the map between two projective bases
    (Hartley & Zisserman, Multiple View Geometry, 2nd ed., sec. 2.3)."""
    return _basis(dst) @ np.linalg.inv(_basis(src))


# the 3 points left of a 4-point sample when each one in turn is dropped
_TRIPLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _collinear(pts: np.ndarray) -> np.ndarray:
    """Per sample of a stack (K, 4, 2): are any 3 of its points (nearly) collinear?"""
    extent = pts.max(axis=1) - pts.min(axis=1)
    scale = np.maximum(np.maximum(extent[:, 0], extent[:, 1]), 1e-12)
    tri = pts[:, _TRIPLES]
    u = tri[:, :, 1] - tri[:, :, 0]
    v = tri[:, :, 2] - tri[:, :, 0]
    area = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return np.any(area < (1e-10 * scale * scale)[:, None], axis=1)


def _hypotheses(src: np.ndarray, dst: np.ndarray):
    """Minimal-sample homographies of a stack of 4-point samples (K, 4, 2).

    Returns the usable ones and their inverses, each scaled to unit second
    singular value as :class:`Homography` scales it, and the (K,) mask of
    usable samples: a sample is dropped where ``Homography`` would reject
    its interpolant or that interpolant's inverse (non-finite, or
    numerically rank deficient).
    """
    try:
        m = _interpolants(src, dst)
    except np.linalg.LinAlgError:
        # one singular basis fails the stacked call; solve the samples one
        # by one and drop only the failing ones
        m = np.full((len(src), 3, 3), np.nan)
        for k in range(len(src)):
            try:
                m[k] = _interpolants(src[k:k + 1], dst[k:k + 1])[0]
            except np.linalg.LinAlgError:
                pass
    ok = np.all(np.isfinite(m), axis=(1, 2))
    s = np.ones((len(m), 3))
    s[ok] = np.linalg.svd(m[ok], compute_uv=False)
    ok &= s[:, 1] >= 1e-12 * np.maximum(1.0, s[:, 0])
    ok &= s[:, 2] >= 1e-12 * s[:, 1]  # else the inverse is rank deficient
    h = m[ok] / s[ok, 1, None, None]
    # the singular values of the inverse are 1 / s, so its second is 1 too
    return h, np.linalg.inv(h), ok


def _transfer_distances(m: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances (K, N) from each point ``p`` (N, 2) mapped through each of
    a stack ``m`` (K, 3, 3) to its ``q``, rounded as ``_map`` and
    ``np.linalg.norm`` round them but without their temporaries; nan or
    inf where a point maps to infinity.  Call under ``np.errstate``
    ignoring divide, invalid and over."""
    w = p @ np.swapaxes(m[:, :, :2], 1, 2) + m[:, None, :, 2]
    dx = w[..., 0] / w[..., 2] - q[:, 0]
    dy = w[..., 1] / w[..., 2] - q[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _block_inliers(p_src: np.ndarray, p_dst: np.ndarray, idx: np.ndarray,
                   threshold: float) -> np.ndarray:
    """Inlier masks (K, N) of the hypotheses fitted to the samples ``idx``
    (K, 4); a collinear or unusable sample gets an empty mask."""
    src, dst = p_src[idx], p_dst[idx]
    collinear = _collinear(np.concatenate([src, dst]))
    keep = ~(collinear[:len(idx)] | collinear[len(idx):])
    masks = np.zeros((len(idx), len(p_src)), dtype=bool)
    h, h_inv, ok = _hypotheses(src[keep], dst[keep])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a non-finite error compares False, as symmetric_transfer_error's inf does
        err = _transfer_distances(h, p_src, p_dst) + _transfer_distances(h_inv, p_dst, p_src)
        masks[np.flatnonzero(keep)[ok]] = err < threshold
    return masks


def _fix_sign(m: np.ndarray, p_src: np.ndarray) -> np.ndarray:
    """Choose the sign making H p_src have positive third components."""
    third = np.c_[p_src, np.ones(len(p_src))] @ m[2]
    if np.median(third) < 0.0:
        return -m
    return m


# hypotheses drawn and scored together; replaying the 162 estimate calls of
# 18 default-noise window inits (3 scenes x 2 profiles x seeds 11-13) on a
# 2-core x86-64 host took, best of 60 passes, 1.91 / 1.52 / 1.49 / 2.27 ms
# per call at blocks of 8 / 16 / 32 / 64
_BLOCK = 32


def estimate(
    p_src,
    p_dst,
    *,
    threshold: float = 1e-3,
    confidence: float = 0.999,
    max_iters: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[Homography, np.ndarray]:
    """Robust homography mapping normalized points ``p_src`` onto ``p_dst``.

    ``p_src`` and ``p_dst`` are (N, 2) arrays, row k one correspondence.
    Random 4-point sampling with the closed-form 4-point interpolant as
    hypothesis; inliers are correspondences whose symmetric transfer error
    falls below ``threshold`` (normalized-coordinate units).  The returned
    homography is a least-squares normalized-DLT refit on the final
    inlier set.

    Hypotheses are drawn, fitted and scored in blocks of ``_BLOCK``, then
    replayed in draw order under the sequential rule: the first strictly
    larger consensus wins, the adaptive iteration count shrinks with it,
    and a full consensus stops the search.  The generator state is saved
    after every draw; when the search stops inside a block, it is restored
    to the state after the last sample used, so it ends where a
    one-at-a-time loop leaves it.

    Returns the scale-normalized homography and a boolean inlier mask.
    """
    p_src, p_dst = _points(p_src), _points(p_dst)
    n = len(p_src)
    if len(p_dst) != n:
        raise ValueError(f"{n} source points but {len(p_dst)} target points")
    if n < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bit_generator = rng.bit_generator

    best_mask: np.ndarray | None = None
    best_count = 0
    needed = max_iters
    it = 0
    done = False
    while not done and it < min(needed, max_iters):
        size = min(_BLOCK, min(needed, max_iters) - it)
        idx = np.empty((size, 4), dtype=np.int64)
        states = []
        for k in range(size):
            idx[k] = rng.choice(n, size=4, replace=False)
            states.append(bit_generator.state)
        masks = _block_inliers(p_src, p_dst, idx, threshold)
        for used, count in enumerate(masks.sum(axis=1).tolist(), start=1):
            it += 1
            if count > best_count:
                best_count = count
                best_mask = masks[used - 1]
                ratio = count / n
                if ratio >= 1.0:
                    done = True
                    break
                # standard adaptive stopping rule for 4-point samples
                denom = math.log(max(1e-12, 1.0 - ratio ** 4))
                needed = min(max_iters, int(math.ceil(math.log(1.0 - confidence) / denom)))
            if it >= min(needed, max_iters):
                break
        if used < size:
            bit_generator.state = states[used - 1]
    if best_mask is None or best_count < 4:
        raise DegenerateEstimationError("no consensus set of size >= 4")

    src, dst = p_src[best_mask], p_dst[best_mask]
    h = Homography(_fix_sign(_dlt(src[None], dst[None])[0], src))
    mask = symmetric_transfer_error(h, p_src, p_dst) < threshold
    if int(mask.sum()) < 4:
        mask = best_mask
    return h, mask


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


def decompose(h: Homography) -> list[HomographySolution]:
    """Analytic SVD decomposition into (R, t_bar, n) candidates.

    Returns up to four physically distinct solutions.  A homography whose
    singular values are all (numerically) equal is a rotation, with no
    translation or normal to recover, and raises; the pipeline's parallax
    gate stops a pure-rotation pair before its H is estimated.
    """
    m = h.matrix
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


def indicator(h: Homography, p_src, p_dst) -> np.ndarray:
    """Planarity indicator: transfer residual of each correspondence.

    Computed on the dehomogenized 2D differences through one
    :meth:`Homography.apply`; an entry is ``inf`` where the mapped point
    lies on the line at infinity.
    """
    mapped = h.apply(_points(p_src))
    out = np.linalg.norm(mapped - _points(p_dst), axis=1)
    out[~np.all(np.isfinite(mapped), axis=1)] = np.inf
    return out
