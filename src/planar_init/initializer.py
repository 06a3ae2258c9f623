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
from .geometry import CameraRig, Pose, Rotation, homogeneous, normalize
from .homography import (
    Homography,
    HomographySolution,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
)
from .imu import ImuStream, NavState, PriorNormal
from .motion_field import FlowObservation, VelocityRefinement, refine_velocity
from .pnp import refine_pose, solve_pnp
from .weighting import STEREO, PixelDeviation, stereo_deviation, weight

STATUS_INITIALIZED = "initialized"
STATUS_IMU_ONLY = "imu-only-fallback"
STATUS_PURE_ROTATION = "pure-rotation"


@dataclass(frozen=True)
class StereoObservation:
    """One feature in one stereo keyframe: pixels and normalized coords."""

    uv_l: np.ndarray
    uv_r: np.ndarray
    norm_l: np.ndarray
    norm_r: np.ndarray

    def __post_init__(self):
        for name in ("uv_l", "uv_r", "norm_l", "norm_r"):
            v = getattr(self, name)
            if (isinstance(v, np.ndarray) and v.dtype == np.float64
                    and v.shape == (2,) and not v.flags.writeable):
                continue  # a read-only 2-vector, such as a row of a frozen array
            v = np.asarray(v, dtype=np.float64).reshape(2).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Keyframe:
    index: int
    t: float
    observations: dict  # feature_id -> StereoObservation


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

    def shared_features(self, a: int, b: int) -> list[int]:
        ka, kb = self.keyframes[a], self.keyframes[b]
        return sorted(set(ka.observations) & set(kb.observations))


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


@dataclass(frozen=True)
class StereoPoint:
    point: np.ndarray
    disparity_px: float
    reliable: bool

    def __post_init__(self):
        v = np.asarray(self.point, dtype=np.float64).reshape(3).copy()
        v.setflags(write=False)
        object.__setattr__(self, "point", v)


def triangulate_stereo(obs_l, obs_r, rig: CameraRig,
                       min_disparity_px: float = 1.0) -> StereoPoint:
    """Depth from pixel disparity: z = f b / (uL - uR); point in the left frame.

    Disparity <= 0 raises; disparity below ``min_disparity_px`` flags the
    point as unreliable.
    """
    u_l = float(np.asarray(obs_l, dtype=np.float64)[0])
    u_r = float(np.asarray(obs_r, dtype=np.float64)[0])
    disparity = u_l - u_r
    if disparity <= 0.0:
        raise InvalidDisparityError(f"disparity {disparity:.6g} <= 0")
    z = rig.f * rig.baseline / disparity
    p = z * homogeneous(normalize(rig, obs_l))
    return StereoPoint(p, disparity, disparity >= min_disparity_px)


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


def _stereo_points(kf: Keyframe, feature_ids, rig: CameraRig,
                   min_disparity_px: float) -> dict[int, np.ndarray]:
    """Left-camera points of the features that triangulate reliably in ``kf``."""
    points: dict[int, np.ndarray] = {}
    for fid in feature_ids:
        obs = kf.observations[fid]
        try:
            sp = triangulate_stereo(obs.uv_l, obs.uv_r, rig, min_disparity_px)
        except InvalidDisparityError:
            continue
        if sp.reliable:
            points[fid] = sp.point
    return points


def measured_flow_observations(
    window: KeyframeWindow,
    rig: CameraRig,
    pair: int = 0,
    points: dict[int, np.ndarray] | None = None,
    min_disparity_px: float = 1.0,
) -> list[FlowObservation]:
    """Flow observations for one keyframe pair.

    The measured normalized velocity of each feature is the forward
    difference of its tracked left-camera coordinates over the pair
    interval; the metric source point comes from stereo triangulation at
    the earlier keyframe: ``points`` (feature id -> left-camera point), or
    every shared feature triangulated here when it is ``None``.
    """
    kf_i, kf_j = window.keyframes[pair], window.keyframes[pair + 1]
    dt = kf_j.t - kf_i.t
    if points is None:
        points = _stereo_points(kf_i, window.shared_features(pair, pair + 1),
                                rig, min_disparity_px)
    obs_i, obs_j = kf_i.observations, kf_j.observations
    return [FlowObservation(obs_i[f].norm_l, p, (obs_j[f].norm_l - obs_i[f].norm_l) / dt, f)
            for f, p in points.items()]


def refine_body_velocity(
    window: KeyframeWindow,
    h_forward: Homography,
    v_init,
    rig: CameraRig,
    *,
    pair: int = 0,
    R_w_b: Rotation | None = None,
    gyro_bias=(0.0, 0.0, 0.0),
    config: PipelineConfig | None = None,
    points: dict[int, np.ndarray] | None = None,
) -> VelocityRefinement:
    """Gauss-Newton body-velocity refinement over one keyframe pair.

    ``h_forward`` maps the earlier keyframe of the pair onto the later
    one (the direction in which feature velocities are transferred).
    ``points`` is passed on to :func:`measured_flow_observations`.
    """
    cfg = config or PipelineConfig()
    kf_i, kf_j = window.keyframes[pair], window.keyframes[pair + 1]
    obs = measured_flow_observations(window, rig, pair, points,
                                     cfg.min_disparity_px)
    pair_imu = imu_mod.slice_between(window.imu, kf_i.t, kf_j.t)
    omega = imu_mod.mean_gyro(pair_imu, gyro_bias)
    return refine_velocity(
        obs, h_forward, R_w_b or Rotation.identity(), omega, rig, v_init,
        max_iters=cfg.gn_max_iters, step_tol=cfg.gn_step_tol,
        cost_tol=cfg.gn_cost_tol)


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

    # IMU-only anchor at the first keyframe (the height-gate instant)
    t0 = float(imu_samples.t[0])
    kf0 = window.keyframes[0]
    anchor = window.anchor
    if abs(anchor.t - kf0.t) > 0.5 / max(cfg.imu_rate_hint, 1.0):
        raise PipelineError("imu", "IMU stream does not reach the first keyframe")
    timings["anchor_s"] = time.perf_counter() - t_start

    # feature gate
    counts = [len(kf.observations) for kf in window.keyframes]
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
    shared = window.shared_features(m, m + 1)
    if len(shared) < 4:
        raise PipelineError("homography", f"only {len(shared)} correspondences in pair {m}")
    fids = np.array(shared)
    p_src = np.array([kf_j.observations[f].norm_l for f in shared])
    p_dst = np.array([kf_i.observations[f].norm_l for f in shared])
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

    # each inlier is triangulated once at the previous keyframe; PnP and
    # the velocity refinement share the points
    points = _stereo_points(kf_i, fids[inlier_mask].tolist(), rig,
                            cfg.min_disparity_px)
    cam_prev = nav_prev.pose @ rig.T_c_b
    pnp_pairs = [(cam_prev.apply(p), kf_j.observations[f].norm_l)
                 for f, p in points.items()]
    if len(pnp_pairs) < 4:
        raise PipelineError("pnp", f"only {len(pnp_pairs)} usable stereo points in pair {m}")
    t_stage = time.perf_counter()
    try:
        t_pnp, pnp_mask = solve_pnp(
            pnp_pairs, rng, threshold=cfg.pnp_ransac_threshold,
            confidence=cfg.ransac_confidence, max_iters=cfg.pnp_ransac_max_iters)
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
        t_pnp = _weighted_pnp_refit(
            t_pnp, pnp_pairs, pnp_mask, list(points), kf_j, rig, cfg)
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
            config=cfg, points=points)
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


def _weighted_pnp_refit(t_pnp: Pose, pnp_pairs, pnp_mask, pnp_fids, kf_j,
                        rig: CameraRig, cfg: PipelineConfig) -> Pose:
    """Re-refine the PnP pose with dynamic inverse-deviation weights.

    Each inlier's stereo deviation at the current keyframe is computed
    against the depth its world point takes under the current pose
    estimate, so the weight reflects the feature's own measurement
    quality rather than its momentary disparity.
    """
    idx = np.flatnonzero(pnp_mask)
    if len(idx) < 4:
        return t_pnp
    pts = np.array([pnp_pairs[k][0] for k in idx])
    obs = np.array([pnp_pairs[k][1] for k in idx])
    # camera-frame depths under the current PnP pose
    inv = t_pnp.invert()
    weights = np.empty(len(idx))
    for row, k in enumerate(idx):
        fid = pnp_fids[k]
        o = kf_j.observations[fid]
        z_pred = float(inv.apply(pnp_pairs[k][0])[2])
        if z_pred <= 0.0:
            weights[row] = weight(PixelDeviation(cfg.fixed_deviation_px, STEREO),
                                  cfg.deviation_floor_px)
            continue
        dev = stereo_deviation(o.uv_l, o.uv_r, rig, z_pred, fid, kf_j.index)
        weights[row] = weight(dev, cfg.deviation_floor_px)
    r_wc = t_pnp.rotation.inverse().matrix()
    t_wc = -r_wc @ t_pnp.translation
    r, t, _ = refine_pose(pts, obs, r_wc, t_wc, weights)
    r_cw = r.T
    return Pose(Rotation.from_matrix(r_cw), -r_cw @ t, "c", "w")
