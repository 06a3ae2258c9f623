"""Planar homography: synthesis, robust estimation, analytic decomposition.

A calibrated homography between two views of a plane factors as
``H = R + t_bar n^T`` where ``t_bar = t/d`` is the translation divided by
the source-camera-to-plane distance and ``n`` is the unit plane normal in
the source camera frame.  Such an H always has its second-largest
singular value equal to 1, which is the normalization every
:class:`Homography` instance carries.

Estimation is a normalized DLT inside a random-sampling consensus loop;
decomposition is the analytic SVD construction returning up to four
``(R, t_bar, n)`` triples, of which positive-depth filtering keeps at
most two.
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
from .geometry import Rotation


@dataclass(frozen=True)
class Correspondence:
    """One feature seen in the source (i) and target (j) view, normalized coords."""

    p_i: np.ndarray
    p_j: np.ndarray
    feature_id: int = -1

    def __post_init__(self):
        for name in ("p_i", "p_j"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(2).copy()
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


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

    @classmethod
    def from_matrix(cls, matrix) -> "Homography":
        return cls(matrix)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    # Block partition: H = [[h1 (2x2), h2 (2x1)], [h3 (1x2), h4 (1x1)]].
    @property
    def h1(self) -> np.ndarray:
        return self._m[:2, :2]

    @property
    def h2(self) -> np.ndarray:
        return self._m[:2, 2]

    @property
    def h3(self) -> np.ndarray:
        return self._m[2, :2]

    @property
    def h4(self) -> float:
        return float(self._m[2, 2])

    def apply(self, p_i) -> np.ndarray:
        """Map normalized source points (2,) or (N, 2) through H, dehomogenized."""
        p = np.asarray(p_i, dtype=np.float64)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        w = p @ self._m[:, :2].T + self._m[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = w[:, :2] / w[:, 2:3]
        out[~np.isfinite(out)] = np.inf
        return out[0] if single else out

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
    normal_indeterminate: bool = False

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


def symmetric_transfer_error(h: Homography, p_i, p_j) -> np.ndarray:
    """Forward plus backward transfer distance per correspondence."""
    p_i = np.atleast_2d(np.asarray(p_i, dtype=np.float64))
    p_j = np.atleast_2d(np.asarray(p_j, dtype=np.float64))
    h_inv = h.inverse()
    fwd = np.linalg.norm(h.apply(p_i) - p_j, axis=-1)
    bwd = np.linalg.norm(h_inv.apply(p_j) - p_i, axis=-1)
    err = fwd + bwd
    err[~np.isfinite(err)] = np.inf
    return err


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity transform taking points to zero mean, sqrt(2) mean radius."""
    mean = pts.mean(axis=0)
    dist = np.linalg.norm(pts - mean, axis=1).mean()
    s = math.sqrt(2.0) / max(dist, 1e-12)
    return np.array([[s, 0.0, -s * mean[0]],
                     [0.0, s, -s * mean[1]],
                     [0.0, 0.0, 1.0]])


def _dlt(p_i: np.ndarray, p_j: np.ndarray) -> np.ndarray:
    """Normalized DLT on >= 4 correspondences; returns an unnormalized 3x3."""
    t_i = _hartley_normalization(p_i)
    t_j = _hartley_normalization(p_j)
    a = np.c_[p_i, np.ones(len(p_i))] @ t_i.T
    b = np.c_[p_j, np.ones(len(p_j))] @ t_j.T
    rows = np.zeros((2 * len(a), 9))
    rows[0::2, 0:3] = -a
    rows[0::2, 6:9] = b[:, 0:1] * a
    rows[1::2, 3:6] = -a
    rows[1::2, 6:9] = b[:, 1:2] * a
    # the null vector is the last row of V^T; below 9 rows only the full
    # factorization has one, above it the reduced one skips the unused U
    _, _, vt = np.linalg.svd(rows, full_matrices=len(rows) < 9)
    h_hat = vt[-1].reshape(3, 3)
    return np.linalg.inv(t_j) @ h_hat @ t_i


def _sample_degenerate(pts: np.ndarray) -> bool:
    """True if any 3 of the 4 sampled points are (nearly) collinear."""
    scale = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1e-12)
    for drop in range(4):
        tri = np.delete(pts, drop, axis=0)
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        area = abs(u[0] * v[1] - u[1] * v[0])
        if area < 1e-10 * scale * scale:
            return True
    return False


def _fix_sign(m: np.ndarray, p_i: np.ndarray) -> np.ndarray:
    """Choose the sign making H p_i have positive third components."""
    third = np.c_[p_i, np.ones(len(p_i))] @ m[2]
    if np.median(third) < 0.0:
        return -m
    return m


def estimate(
    correspondences: list[Correspondence],
    *,
    threshold: float = 1e-3,
    confidence: float = 0.999,
    max_iters: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[Homography, np.ndarray]:
    """Robust homography from normalized correspondences.

    Random 4-point sampling with a normalized-DLT hypothesis; inliers are
    correspondences whose symmetric transfer error falls below
    ``threshold`` (normalized-coordinate units).  The returned homography
    is a least-squares DLT refit on the final inlier set.

    Returns the scale-normalized homography and a boolean inlier mask.
    """
    n = len(correspondences)
    if n < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {n}")
    p_i = np.array([c.p_i for c in correspondences])
    p_j = np.array([c.p_j for c in correspondences])
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    best_mask: np.ndarray | None = None
    best_count = 0
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        idx = rng.choice(n, size=4, replace=False)
        if _sample_degenerate(p_i[idx]) or _sample_degenerate(p_j[idx]):
            continue
        try:
            cand = Homography(_dlt(p_i[idx], p_j[idx]))
        except (DegenerateHomographyError, np.linalg.LinAlgError):
            continue
        mask = symmetric_transfer_error(cand, p_i, p_j) < threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                break
            # standard adaptive stopping rule for 4-point samples
            denom = math.log(max(1e-12, 1.0 - ratio ** 4))
            needed = min(max_iters, int(math.ceil(math.log(1.0 - confidence) / denom)))
    if best_mask is None or best_count < 4:
        raise DegenerateEstimationError("no consensus set of size >= 4")

    refit = _fix_sign(_dlt(p_i[best_mask], p_j[best_mask]), p_i[best_mask])
    h = Homography(refit)
    mask = symmetric_transfer_error(h, p_i, p_j) < threshold
    if int(mask.sum()) < 4:
        mask = best_mask
    return h, mask


_PURE_ROTATION_GAP = 1e-9


def _dedupe(solutions: list[HomographySolution]) -> list[HomographySolution]:
    kept: list[HomographySolution] = []
    for s in solutions:
        dup = False
        for k in kept:
            if (
                s.rotation.angle_to(k.rotation) < 1e-8
                and np.linalg.norm(s.t_bar - k.t_bar) < 1e-8
                and np.linalg.norm(s.n - k.n) < 1e-8
            ):
                dup = True
                break
        if not dup:
            kept.append(s)
    return kept


def decompose(h: Homography) -> list[HomographySolution]:
    """Analytic SVD decomposition into (R, t_bar, n) candidates.

    Returns up to four physically distinct solutions.  A homography whose
    singular values are all (numerically) equal is a pure rotation: the
    translation is zero and the plane normal unobservable, reported as a
    single solution with ``normal_indeterminate`` set.
    """
    m = h.matrix
    u, s, vt = np.linalg.svd(m)
    if not np.all(np.isfinite(s)) or s[2] < 1e-12:
        raise DegenerateHomographyError("cannot decompose rank-deficient H")

    if s[0] - s[2] < _PURE_ROTATION_GAP:
        # project to the nearest rotation
        r = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
        return [HomographySolution(Rotation.from_matrix(r), np.zeros(3),
                                   np.array([0.0, 0.0, 1.0]), True)]

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
        normal = np.cross(v2, uvec)
        u_frame = np.column_stack([v2, uvec, normal])
        w_frame = np.column_stack([m @ v2, m @ uvec, np.cross(m @ v2, m @ uvec)])
        r = w_frame @ u_frame.T
        # guard against numerical drift off SO(3)
        ur, _, vr = np.linalg.svd(r)
        r = ur @ np.diag([1.0, 1.0, np.linalg.det(ur @ vr)]) @ vr
        t_bar = (m - r) @ normal
        for flip in (1.0, -1.0):
            solutions.append(HomographySolution(
                Rotation.from_matrix(r), flip * t_bar, flip * normal))

    solutions = _dedupe(solutions)
    if all(np.linalg.norm(s.t_bar) < 1e-6 for s in solutions):
        r = solutions[0].rotation
        return [HomographySolution(r, np.zeros(3), np.array([0.0, 0.0, 1.0]), True)]
    # deterministic order: normals closest to the optical axis first
    solutions.sort(key=lambda s: (-s.n[2], -s.n[0], -s.n[1]))
    return solutions


def filter_positive_depth(
    solutions: list[HomographySolution],
    correspondences: list[Correspondence],
) -> list[HomographySolution]:
    """Keep solutions for which every correspondence has positive depth.

    Visibility in the source camera requires ``n . p_i_h > 0`` (the plane
    lies in front); cheirality in the target camera requires the third
    component of ``(R + t_bar n^T) p_i_h`` to stay positive.
    """
    if not solutions or not correspondences:
        raise InsufficientDataError("need nonempty solutions and correspondences")
    pts = np.array([np.append(c.p_i, 1.0) for c in correspondences])
    kept: list[HomographySolution] = []
    for s in solutions:
        if s.normal_indeterminate:
            kept.append(s)
            continue
        if np.any(pts @ s.n <= 0.0):
            continue
        if np.any(pts @ s.reassemble()[2] <= 0.0):
            continue
        kept.append(s)
    if not kept:
        raise InconsistentDataError("positive-depth test rejected every solution")
    return kept


def indicator(h: Homography, correspondences: list[Correspondence]) -> np.ndarray:
    """Planarity indicator: transfer residual of each correspondence.

    Computed on the dehomogenized 2D differences through one
    :meth:`Homography.apply`; an entry is ``inf`` where the mapped point
    lies on the line at infinity.
    """
    p_i = np.array([c.p_i for c in correspondences]).reshape(-1, 2)
    p_j = np.array([c.p_j for c in correspondences]).reshape(-1, 2)
    mapped = h.apply(p_i)
    out = np.linalg.norm(mapped - p_j, axis=1)
    out[~np.all(np.isfinite(mapped), axis=1)] = np.inf
    return out
