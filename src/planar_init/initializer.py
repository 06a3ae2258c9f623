"""The initialization pipeline: solution selection, stereo scale recovery,
motion-field velocity refinement, and the window-level orchestration.

Per consecutive keyframe pair (previous ``i``, current ``j``) the pipeline
estimates the homography mapping the *current* view onto the *previous*
one, so the decomposed plane normal lives in the current camera frame
(where the gyro-propagated prior normal is maintained) and the decomposed
translation is the current camera's position in the previous camera
frame.  PnP against stereo points triangulated at the previous keyframe
supplies the metric counterpart of that translation, and their
least-squares ratio is the scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import imu as imu_mod
from .config import PipelineConfig
from .errors import (
    DegenerateTranslationError,
    InconsistentDataError,
    InvalidDisparityError,
    NoSolutionError,
    PipelineError,
    PlanarInitError,
)
from .geometry import (
    CameraRig,
    Pose,
    Rotation,
    freeze_feature_rows,
    homogeneous,
    normalize,
)
from .homography import (
    Homography,
    HomographySolution,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
)
from .imu import ImuStream, NavState, PriorNormal
from .motion_field import VelocityRefinement, refine_velocity
from .pnp import refine_pose, solve_pnp
from .weighting import stereo_deviation, weight

STATUS_INITIALIZED = "initialized"
STATUS_IMU_ONLY = "imu-only-fallback"
STATUS_PURE_ROTATION = "pure-rotation"


@dataclass(frozen=True)
class Keyframe:
    """One stereo keyframe.

    Row k of the read-only (N, 2) arrays ``uv_l``, ``uv_r`` (pixels) and
    ``norm_l`` (normalized left coordinates) belongs to feature ``ids[k]``;
    ids ascend strictly.
    """

    index: int
    t: float
    ids: np.ndarray
    uv_l: np.ndarray
    uv_r: np.ndarray
    norm_l: np.ndarray

    def __post_init__(self):
        freeze_feature_rows(self, f"keyframe {self.index}", ("uv_l", "uv_r", "norm_l"))


@dataclass
class KeyframeWindow:
    """Keyframes after the height gate, the IMU samples spanning them, and
    the IMU-only state at the first keyframe that anchors the window."""

    keyframes: list
    imu: ImuStream
    anchor: NavState

    def __post_init__(self):
        times = [kf.t for kf in self.keyframes]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("keyframe timestamps must be strictly increasing")

    def shared_features(self, a: int, b: int):
        """Features seen in keyframes ``a`` and ``b``: their ascending ids,
        and the rows holding them in ``a`` and in ``b``."""
        return np.intersect1d(self.keyframes[a].ids, self.keyframes[b].ids,
                              assume_unique=True, return_indices=True)


@dataclass(frozen=True)
class Selection:
    """Outcome of the prior-normal disambiguation."""

    solution: HomographySolution
    margin: float
    distances: tuple


def select_solution(n_prior: PriorNormal, candidates: list[HomographySolution]) -> Selection:
    """Pick the candidate whose plane normal is closest to the prior.

    Ties go to the first candidate.  The margin, reported for
    diagnostics, is the gap between the two smallest distances; it is
    infinite for a single candidate.
    """
    if not candidates:
        raise NoSolutionError("no homography solutions to select from")
    dists = tuple(float(np.linalg.norm(n_prior.n - c.n)) for c in candidates)
    if len(candidates) == 1:
        return Selection(candidates[0], math.inf, dists)
    order = int(np.argmin(dists))
    # argmin returns the first minimum, which realizes the <= convention
    nearest, runner_up = sorted(dists)[:2]
    return Selection(candidates[order], runner_up - nearest, dists)


def triangulate_stereo(uv_l, uv_r, rig: CameraRig) -> np.ndarray:
    """Left-camera points (..., 3) of stereo pixel rows (..., 2).

    Depth from pixel disparity: z = f b / (uL - uR).  A disparity <= 0
    raises, so callers drop the rows they do not trust beforehand.
    """
    uv_l = np.asarray(uv_l, dtype=np.float64)
    disparity = uv_l[..., 0] - np.asarray(uv_r, dtype=np.float64)[..., 0]
    if np.any(disparity <= 0.0):
        raise InvalidDisparityError(f"disparity {np.min(disparity):.6g} <= 0")
    z = rig.f * rig.baseline / disparity
    return np.expand_dims(z, -1) * homogeneous(normalize(rig, uv_l))


def _reliable(kf: Keyframe, rows: np.ndarray, min_disparity_px: float) -> np.ndarray:
    """Mask of the ``rows`` of ``kf`` whose disparity reaches ``min_disparity_px``."""
    return kf.uv_l[rows, 0] - kf.uv_r[rows, 0] >= min_disparity_px


def recover_scale(t_bar, t_hat) -> float:
    """Closed-form least squares for s in s * t_bar = t_hat.

    A non-positive result signals a backwards scale; callers treat it as
    a failure flag.
    """
    tb = np.asarray(t_bar, dtype=np.float64).reshape(3)
    th = np.asarray(t_hat, dtype=np.float64).reshape(3)
    nrm2 = float(tb @ tb)
    if nrm2 <= 1e-12:  # ||t_bar|| <= 1e-6: pure rotation, scale unobservable
        raise DegenerateTranslationError("up-to-scale translation is degenerate")
    return float(tb @ th) / nrm2


def metric_alignment(T_pnp: Pose, T_imu_body: Pose, rig: CameraRig) -> np.ndarray:
    """Metric counterpart of the up-to-scale translation.

    ``T_pnp`` is the PnP camera pose (frames c -> w) at the current
    keyframe; ``T_imu_body`` the body pose (b -> w) at the reference
    keyframe.  Returns the current camera's position expressed in the
    reference camera frame:

        t_hat = (R_b^w R_c^b)^T (t_pnp - t_b^w) - (R_c^b)^T t_c^b
    """
    if T_pnp.of_frame != "c" or T_pnp.in_frame != "w":
        raise PlanarInitError("T_pnp must carry frames (of='c', in='w')")
    if T_imu_body.of_frame != "b" or T_imu_body.in_frame != "w":
        raise PlanarInitError("T_imu_body must carry frames (of='b', in='w')")
    r_cw = (T_imu_body.rotation @ rig.T_c_b.rotation).inverse()
    lever = rig.T_c_b.rotation.inverse().apply(rig.T_c_b.translation)
    return r_cw.apply(T_pnp.translation - T_imu_body.translation) - lever


def refine_body_velocity(
    window: KeyframeWindow,
    h_forward: Homography,
    v_init,
    rig: CameraRig,
    *,
    pair: int,
    R_w_b: Rotation,
    gyro_bias,
    config: PipelineConfig,
    points: tuple[np.ndarray, np.ndarray],
) -> VelocityRefinement:
    """Gauss-Newton body-velocity refinement over keyframe pair ``pair``.

    ``h_forward`` maps the earlier keyframe of the pair onto the later
    one (the direction in which feature velocities are transferred).
    The measured normalized velocity of each feature is the forward
    difference of its tracked left-camera coordinates over the pair
    interval; its metric source point comes from stereo triangulation at
    the earlier keyframe: ``points`` = (feature ids, left-camera points).
    """
    kf_i, kf_j = window.keyframes[pair], window.keyframes[pair + 1]
    ids, p_c = points
    p_i = kf_i.norm_l[kf_i.ids.searchsorted(ids)]
    v_measured = (kf_j.norm_l[kf_j.ids.searchsorted(ids)] - p_i) / (kf_j.t - kf_i.t)
    pair_imu = imu_mod.slice_between(window.imu, kf_i.t, kf_j.t)
    omega = imu_mod.mean_gyro(pair_imu, gyro_bias)
    return refine_velocity(
        p_i, p_c, v_measured, h_forward, R_w_b, omega, rig, v_init,
        max_iters=config.gn_max_iters, step_tol=config.gn_step_tol,
        cost_tol=config.gn_cost_tol)


@dataclass
class InitializationResult:
    """Metric per-keyframe states plus diagnostics.

    ``poses`` are body poses in the window's world frame (anchored at the
    IMU-propagated body pose of the first keyframe); ``scale`` is the
    first pair's recovered scale factor.
    """

    status: str
    keyframe_times: list
    poses: list
    velocities: list
    scale: float | None
    selected: HomographySolution | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == STATUS_INITIALIZED:
            if self.scale is None or self.scale <= 0.0:
                raise ValueError("initialized result requires scale > 0")

    @property
    def initialized(self) -> bool:
        return self.status == STATUS_INITIALIZED

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "status": self.status,
            "scale": self.scale,
            "keyframes": [
                {
                    "t": t,
                    "q_wxyz": [float(v) for v in pose.rotation.quat],
                    "t_xyz": [float(v) for v in pose.translation],
                    "v_xyz": [float(v) for v in vel],
                }
                for t, pose, vel in zip(self.keyframe_times, self.poses, self.velocities)
            ],
            "diagnostics": self.diagnostics,
        }
        if self.selected is not None:
            d["selected"] = {
                "q_wxyz": [float(v) for v in self.selected.rotation.quat],
                "t_bar": [float(v) for v in self.selected.t_bar],
                "n": [float(v) for v in self.selected.n],
                "normal_indeterminate": self.selected.normal_indeterminate,
            }
        return d


@dataclass(frozen=True)
class PairTrace:
    """What one keyframe pair computed: one entry of ``diagnostics["pairs"]``."""

    pair: int
    selection_margin: float
    selection_distances: tuple
    scale: float
    t_hat_norm: float
    pnp_inliers: int
    gn_iterations: int
    gn_cost: float
    gn_converged: bool
    correspondences: int
    homography_inliers: int


def _imu_only_result(window: KeyframeWindow, gravity, status: str,
                     selected: HomographySolution | None,
                     diagnostics: dict) -> InitializationResult:
    """IMU-only result: the propagated body pose and velocity at every keyframe."""
    times, poses, vels = [], [], []
    nav = window.anchor
    for kf in window.keyframes:
        if kf.t > nav.t + 1e-9:
            nav = imu_mod.propagate(
                nav, imu_mod.slice_between(window.imu, nav.t, kf.t), gravity)
        times.append(kf.t)
        poses.append(nav.pose)
        vels.append(nav.velocity.copy())
    return InitializationResult(status, times, poses, vels, None, selected, diagnostics)


def run_initialization(
    window: KeyframeWindow,
    imu_samples,
    rig: CameraRig,
    config: PipelineConfig | None = None,
    seed: int = 0,
) -> InitializationResult:
    """Execute the full pipeline on a gathered keyframe window.

    ``imu_samples`` is the stream from the stationary prefix (where the
    world frame is anchored and the prior normal is [0, 0, 1]); the window
    carries the IMU-only anchor at its first keyframe, propagated from that
    prefix by :func:`planar_init.harness.select_window`.  Any stage failure
    raises :class:`PipelineError` naming the stage (and the pairs completed
    before it); an inadequate feature count falls back to an IMU-only result.
    """
    cfg = config or PipelineConfig()
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    if len(window.keyframes) < 2:
        raise PipelineError("window", "need at least two keyframes")
    if len(imu_samples) == 0:
        raise PipelineError("imu", "empty IMU stream")

    gravity = np.asarray(cfg.gravity, dtype=np.float64)
    if not imu_mod.is_stationary(
            imu_samples, float(np.linalg.norm(gravity)),
            cfg.stationary_window_s, cfg.stationary_accel_tol,
            cfg.stationary_gyro_tol):
        raise PipelineError("stationarity", "stream does not start at rest")

    # IMU-only anchor at the first keyframe (the height-gate instant), within
    # half a sample interval (the stationarity gate saw >= 2 samples)
    t0 = float(imu_samples.t[0])
    kf0 = window.keyframes[0]
    anchor = window.anchor
    interval = (float(imu_samples.t[-1]) - t0) / (len(imu_samples) - 1)
    if abs(anchor.t - kf0.t) > 0.5 * interval:
        raise PipelineError("imu", "IMU stream does not reach the first keyframe")
    timings["anchor_s"] = time.perf_counter() - t_start

    # feature gate
    counts = [len(kf.ids) for kf in window.keyframes]
    if min(counts) < cfg.min_features:
        return _imu_only_result(
            window, gravity, STATUS_IMU_ONLY, None,
            {"feature_counts": counts, "min_features": cfg.min_features,
             "timings": timings})

    # prior normal chained from the stationary instant to the first keyframe
    # (the world frame is the body frame at rest, so the anchor's attitude
    # is the body rotation since t0)
    prior = PriorNormal(np.array([0.0, 0.0, 1.0]), t0)
    if anchor.t > t0:
        r_pre = imu_mod.camera_rotation(anchor.pose.rotation, rig.T_c_b)
        prior = imu_mod.propagate_normal(prior, r_pre, kf0.t)

    diag: dict = {
        "feature_counts": counts,
        "deviation_mode": cfg.deviation_mode,
        "pairs": [],
        "indicator_values": [],
    }

    nav = anchor
    poses: list[Pose] = [anchor.pose]
    velocities: list[np.ndarray] = []
    for m in range(len(window.keyframes) - 1):
        try:
            trace, nav, prior, selected = _initialize_pair(
                window, m, nav, prior, rig, cfg, rng, timings,
                diag["indicator_values"])
        except PipelineError as exc:
            exc.diagnostics = {"feature_counts": counts, "pairs": diag["pairs"]}
            raise
        if trace is None:
            diag["indicator_percentiles"] = _percentiles(diag.pop("indicator_values"))
            diag["timings"] = timings
            diag["pure_rotation_pair"] = m
            return _imu_only_result(window, gravity, STATUS_PURE_ROTATION, selected, diag)
        diag["pairs"].append(asdict(trace))
        poses.append(nav.pose)
        velocities.append(nav.velocity)
        if m == 0:
            first_selection = selected

    velocities.append(velocities[-1])  # last keyframe: hold the last refined value
    diag["indicator_percentiles"] = _percentiles(diag.pop("indicator_values"))
    timings["total_s"] = time.perf_counter() - t_start
    diag["timings"] = timings
    return InitializationResult(
        STATUS_INITIALIZED,
        [kf.t for kf in window.keyframes],
        poses, velocities, diag["pairs"][0]["scale"], first_selection, diag)


def _percentiles(indicator_values: list) -> dict:
    """The diagnostics summary of the planarity indicator over the window's pairs."""
    vals = np.asarray(indicator_values)
    return {
        "p50": float(np.percentile(vals, 50)),
        "p95": float(np.percentile(vals, 95)),
        "p100": float(np.max(vals)),
    }


def _initialize_pair(window: KeyframeWindow, m: int, nav_prev: NavState,
                     prior: PriorNormal, rig: CameraRig, cfg: PipelineConfig,
                     rng: np.random.Generator, timings: dict, indicator_values: list):
    """One keyframe pair (previous ``m``, current ``m + 1``) of the chain.

    Returns the pair's :class:`PairTrace` (``None`` for pure rotation), the
    navigation state and prior normal at the current keyframe, and the
    selected solution; stage timings and indicator values are appended to
    ``timings`` and ``indicator_values``.
    """
    kf_i, kf_j = window.keyframes[m], window.keyframes[m + 1]
    pair_imu = imu_mod.slice_between(window.imu, kf_i.t, kf_j.t)
    if len(pair_imu) < 2:
        raise PipelineError("imu", f"no IMU coverage for pair {m}")

    # prior normal into the current camera frame
    r_cam = imu_mod.integrate_camera_rotation(pair_imu, cfg.gyro_bias, rig.T_c_b)
    prior = imu_mod.propagate_normal(prior, r_cam, kf_j.t)

    # homography from the current view onto the previous one: row k of
    # p_src / p_dst is feature fids[k] in the current / previous keyframe
    fids, rows_i, rows_j = window.shared_features(m, m + 1)
    if len(fids) < 4:
        raise PipelineError("homography", f"only {len(fids)} correspondences in pair {m}")
    p_src = kf_j.norm_l[rows_j]
    p_dst = kf_i.norm_l[rows_i]
    t_stage = time.perf_counter()
    try:
        h_est, inlier_mask = estimate(
            p_src, p_dst, threshold=cfg.ransac_threshold,
            confidence=cfg.ransac_confidence,
            max_iters=cfg.ransac_max_iters, seed=rng)
    except PlanarInitError as exc:
        raise PipelineError("homography", str(exc)) from exc
    timings[f"homography_{m}_s"] = time.perf_counter() - t_stage
    indicator_values.extend(indicator(h_est, p_src, p_dst).tolist())

    candidates = decompose(h_est)
    if len(candidates) == 1 and candidates[0].normal_indeterminate:
        return None, nav_prev, prior, candidates[0]
    try:
        survivors = filter_positive_depth(candidates, p_src[inlier_mask])
    except InconsistentDataError as exc:
        raise PipelineError("cheirality", str(exc)) from exc
    selection = select_solution(prior, survivors)

    # For vertical take-off t is nearly parallel to n; the four-way
    # decomposition then splits one double root into two candidates that
    # straddle the truth by O(sqrt(noise)).  With the gyro rotation in
    # hand, t_bar n^T = H - R is a well-conditioned rank-1 fit, so the
    # pose chain uses that extraction; selection output is unchanged.
    rel_rot = r_cam.inverse()
    t_bar = _rank1_translation(h_est, rel_rot, prior)

    # the reliable inliers are triangulated at the previous keyframe in one
    # call; PnP and the velocity refinement share the points
    used = np.flatnonzero(inlier_mask)
    used = used[_reliable(kf_i, rows_i[used], cfg.min_disparity_px)]
    ri, rj = rows_i[used], rows_j[used]
    p_c = triangulate_stereo(kf_i.uv_l[ri], kf_i.uv_r[ri], rig)
    cam_prev = nav_prev.pose @ rig.T_c_b
    points_w = cam_prev.apply(p_c)
    obs_j = kf_j.norm_l[rj]
    if len(points_w) < 4:
        raise PipelineError("pnp", f"only {len(points_w)} usable stereo points in pair {m}")
    # the current camera's rotation comes from the gyro chain; PnP solves
    # only for its centre
    t_stage = time.perf_counter()
    try:
        t_pnp, pnp_mask = solve_pnp(points_w, obs_j, cam_prev.rotation @ rel_rot,
                                    threshold=cfg.pnp_ransac_threshold)
    except PlanarInitError as exc:
        raise PipelineError("pnp", str(exc)) from exc
    timings[f"pnp_{m}_s"] = time.perf_counter() - t_stage

    try:
        t_hat = metric_alignment(t_pnp, nav_prev.pose, rig)
        s = recover_scale(t_bar, t_hat)
    except DegenerateTranslationError:
        return None, nav_prev, prior, selection.solution
    if s <= 0.0:
        raise PipelineError("scale", f"backwards scale {s:.6g} in pair {m}")

    if cfg.deviation_mode == "dynamic":
        inl = rj[pnp_mask]
        t_pnp = _weighted_pnp_refit(t_pnp, points_w[pnp_mask], obs_j[pnp_mask],
                                    kf_j.uv_l[inl], kf_j.uv_r[inl], rig, cfg)
        t_hat = metric_alignment(t_pnp, nav_prev.pose, rig)
        s = recover_scale(t_bar, t_hat)
        if s <= 0.0:
            raise PipelineError("scale", f"backwards scale {s:.6g} in pair {m}")

    # chain the metric pose: T_cj^w = T_ci^w o (R, s t_bar)
    rel = Pose(rel_rot, s * t_bar, "c", "c")
    body_curr = (cam_prev @ rel) @ rig.T_c_b.invert()

    # velocity from the motion field (forward homography = inverse estimate)
    t_stage = time.perf_counter()
    try:
        refinement = refine_body_velocity(
            window, h_est.inverse(), nav_prev.velocity, rig, pair=m,
            R_w_b=nav_prev.pose.rotation.inverse(), gyro_bias=cfg.gyro_bias,
            config=cfg, points=(fids[used], p_c))
    except PlanarInitError as exc:
        raise PipelineError("velocity", str(exc)) from exc
    timings[f"velocity_{m}_s"] = time.perf_counter() - t_stage

    trace = PairTrace(
        pair=m,
        selection_margin=selection.margin,
        selection_distances=selection.distances,
        scale=s,
        t_hat_norm=float(np.linalg.norm(t_hat)),
        pnp_inliers=int(pnp_mask.sum()),
        gn_iterations=refinement.iterations,
        gn_cost=refinement.cost,
        gn_converged=refinement.converged,
        correspondences=len(fids),
        homography_inliers=int(np.sum(inlier_mask)),
    )
    nav_curr = NavState(kf_j.t, body_curr, refinement.velocity,
                        nav_prev.gyro_bias, nav_prev.accel_bias)
    return trace, nav_curr, prior, selection.solution


def _rank1_translation(h_est: Homography, rel_rot: Rotation,
                       prior: PriorNormal) -> np.ndarray:
    """Best rank-1 factor t_bar of (H - R), signed so the normal faces the prior."""
    residual = h_est.matrix - rel_rot.matrix()
    u, s, vt = np.linalg.svd(residual)
    t_bar = s[0] * u[:, 0]
    if float(vt[0] @ prior.n) < 0.0:
        t_bar = -t_bar
    return t_bar


def _weighted_pnp_refit(t_pnp: Pose, points_w: np.ndarray, obs: np.ndarray,
                        uv_l: np.ndarray, uv_r: np.ndarray, rig: CameraRig,
                        cfg: PipelineConfig) -> Pose:
    """Refit the PnP camera centre on its inliers with dynamic
    inverse-deviation weights, under the same camera rotation.

    Each inlier's stereo deviation at the current keyframe (pixels
    ``uv_l``, ``uv_r``) is computed against the depth its world point takes
    under the current pose estimate, so the weight reflects the feature's
    own measurement quality rather than its momentary disparity.  A point
    behind the camera keeps the fixed deviation.
    """
    # camera-frame depths under the current PnP pose
    z_pred = t_pnp.invert().apply(points_w)[:, 2]
    ahead = z_pred > 0.0
    sigma = np.full(len(z_pred), cfg.fixed_deviation_px)
    sigma[ahead] = stereo_deviation(uv_l[ahead], uv_r[ahead], rig, z_pred[ahead])
    centre = refine_pose(points_w, obs, t_pnp.rotation,
                         weight(sigma, cfg.deviation_floor_px))
    return Pose(t_pnp.rotation, centre, "c", "w")
