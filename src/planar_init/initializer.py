"""The initialization pipeline: solution selection, stereo scale recovery,
velocity from the metric displacement, and the window-level orchestration.

Per consecutive keyframe pair (previous ``i``, current ``j``) the pipeline
fits the homography H = R + t_bar n^T mapping the *current* view onto the
*previous* one with the gyro rotation R and the prior normal n held fixed:
n is the world vertical seen from the current camera, whose attitude the
run's one IMU pass holds, and the one unknown t_bar is the current
camera's position in the previous camera frame over the plane distance.
PnP against stereo points triangulated at the previous keyframe supplies
the metric counterpart of that translation, and their least-squares ratio
is the scale.  The PnP camera centre's displacement over the pair interval
is the body velocity: the paper's motion-field constraint integrated over
the interval.  Every keyframe's attitude is the pass's; the visual chain
carries only the camera position, c_j = c_i + R_ci (s t_bar).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import imu as imu_mod
from .config import PipelineConfig
from .errors import (
    DegenerateHomographyError,
    DegenerateTranslationError,
    InconsistentDataError,
    InvalidDisparityError,
    NoSolutionError,
    PipelineError,
    PlanarInitError,
)
from .geometry import (
    CameraRig,
    FrameObservations,
    Pose,
    Rotation,
    _json_number,
    _json_numbers,
    _json_value,
    homogeneous,
    normalize,
)
from .homography import (
    HomographySolution,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
)
from .imu import NavState, NavTrack
from .motion_field import refine_velocity
from .pnp import PnpSystem, refine_pose, solve_pnp
from .weighting import stereo_deviation, weight

STATUS_INITIALIZED = "initialized"
STATUS_IMU_ONLY = "imu-only-fallback"
STATUS_PURE_ROTATION = "pure-rotation"


@dataclass
class KeyframeWindow:
    """Keyframes after the height gate (the dataset's own
    :class:`FrameObservations`) and the run's one IMU propagation pass over
    them: ``track`` starts at the first keyframe's state, the IMU-only
    anchor of the window, and runs to the last keyframe's."""

    keyframes: list[FrameObservations]
    track: NavTrack

    def __post_init__(self):
        times = [kf.t for kf in self.keyframes]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("keyframe timestamps must be strictly increasing")
        self._at = self.track.index_at(times)

    def state(self, k: int) -> NavState:
        """The pass's state at keyframe ``k``."""
        return self.track[int(self._at[k])]

    def pair_track(self, m: int) -> NavTrack:
        """The pass from keyframe ``m``'s state to keyframe ``m + 1``'s."""
        return self.track[self._at[m]:self._at[m + 1] + 1]

    def shared_features(self, a: int, b: int):
        """Features seen in keyframes ``a`` and ``b``: their ascending ids,
        and the rows holding them in ``a`` and in ``b``."""
        return np.intersect1d(self.keyframes[a].ids, self.keyframes[b].ids,
                              assume_unique=True, return_indices=True)


_DOWN = np.array([0.0, 0.0, 1.0])
_DOWN.setflags(write=False)


def prior_normal(camera_attitude: Rotation) -> np.ndarray:
    """The prior plane normal (3,): the world vertical +z, the ground
    plane's normal, in the frame of a camera of attitude ``camera_attitude``
    (camera into world coordinates)."""
    return camera_attitude.inverse().apply(_DOWN)


@dataclass(frozen=True)
class Selection:
    """Outcome of the prior-normal disambiguation."""

    solution: HomographySolution
    margin: float
    distances: tuple


def select_solution(n_prior: np.ndarray, candidates: list[HomographySolution]) -> Selection:
    """Pick the candidate whose plane normal is closest to the unit prior
    normal ``n_prior`` (3,).

    Ties go to the first candidate.  The margin, reported for
    diagnostics, is the gap between the two smallest distances; it is
    infinite for a single candidate.
    """
    if not candidates:
        raise NoSolutionError("no homography solutions to select from")
    dists = tuple(float(np.linalg.norm(n_prior - c.n)) for c in candidates)
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


def _reliable(kf: FrameObservations, rows: np.ndarray, min_disparity_px: float) -> np.ndarray:
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
    if nrm2 <= 1e-12:  # ||t_bar|| <= 1e-6: no direction to scale along
        raise DegenerateTranslationError("up-to-scale translation is degenerate")
    return float(tb @ th) / nrm2


def refine_body_velocity(window: KeyframeWindow, pair: int, body_prev: Pose,
                         cam_curr: Pose, rig: CameraRig) -> np.ndarray:
    """Mean body velocity (3,) over keyframe pair ``pair``, in the world frame.

    ``body_prev`` is the body pose at the earlier keyframe and ``cam_curr``
    the known-rotation PnP camera pose (c -> w) at the later one, both in
    world axes about any one origin; the lever arm is handled by composing
    ``cam_curr`` with the inverse extrinsics.
    """
    dt = window.keyframes[pair + 1].t - window.keyframes[pair].t
    return refine_velocity(body_prev, cam_curr @ rig.T_b_c, dt)


@dataclass
class InitializationResult:
    """Metric per-keyframe states plus diagnostics.

    ``poses`` are body poses in the window's world frame (anchored at the
    IMU-propagated body pose of the first keyframe); ``scale`` is the
    first pair's recovered scale factor and ``selected`` its fitted
    (R_gyro, t_bar, n_prior), the solution the chain uses.
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
            }
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "InitializationResult":
        """The result that :meth:`to_json_dict` wrote as ``d``.  A missing
        or malformed key raises ``ValueError`` naming it."""
        status = _json_value(d, "status")
        scale = None if d.get("scale") is None else _json_number(d, "scale")
        kfs = d.get("keyframes", [])
        if not isinstance(kfs, list):
            raise ValueError(f"key 'keyframes' is not a list: {kfs!r}")
        times, poses, velocities = [], [], []
        for k, kf in enumerate(kfs):
            prefix = f"keyframes[{k}]."
            times.append(_json_number(kf, "t", prefix))
            poses.append(Pose(Rotation(_json_numbers(kf, "q_wxyz", 4, prefix)),
                              _json_numbers(kf, "t_xyz", 3, prefix), "b", "w"))
            velocities.append(_json_numbers(kf, "v_xyz", 3, prefix))
        selected = d.get("selected")
        if selected is not None:
            selected = HomographySolution(
                Rotation(_json_numbers(selected, "q_wxyz", 4, "selected.")),
                _json_numbers(selected, "t_bar", 3, "selected."),
                _json_numbers(selected, "n", 3, "selected."))
        diagnostics = d.get("diagnostics", {})
        if not isinstance(diagnostics, dict):
            raise ValueError(f"key 'diagnostics' is not an object: {diagnostics!r}")
        return cls(status, times, poses, velocities, scale, selected, diagnostics)


@dataclass(frozen=True)
class PairTrace:
    """What one keyframe pair computed: one entry of ``diagnostics["pairs"]``.

    ``homography_s`` and ``pnp_s`` are the wall times of those two stages,
    ``pair_s`` that of the whole pair step.  A pair stopped by the
    pure-rotation gate computed only its parallax and ``pair_s``.
    """

    pair: int
    parallax: float
    selection_margin: float | None = None
    selection_distances: tuple | None = None
    scale: float | None = None
    t_hat_norm: float | None = None
    pnp_inliers: int | None = None
    correspondences: int | None = None
    homography_inliers: int | None = None
    transfer_rms_px: float | None = None
    homography_s: float | None = None
    pnp_s: float | None = None
    pair_s: float | None = None


def _imu_only_result(window: KeyframeWindow, status: str,
                     diagnostics: dict) -> InitializationResult:
    """IMU-only result: the pass's body pose and velocity at every keyframe."""
    states = [window.state(k) for k in range(len(window.keyframes))]
    return InitializationResult(status, [kf.t for kf in window.keyframes],
                                [s.pose for s in states], [s.velocity.copy() for s in states],
                                None, None, diagnostics)


def run_initialization(
    window: KeyframeWindow,
    imu_samples,
    rig: CameraRig,
    config: PipelineConfig | None = None,
    seed: int = 0,
) -> InitializationResult:
    """Execute the full pipeline on a gathered keyframe window.

    ``imu_samples`` is the stream from the stationary prefix, where the
    world frame is anchored at the body at rest; the window carries the
    run's one propagation pass from that prefix over its keyframes
    (:func:`planar_init.harness.select_window`), and every keyframe's
    attitude and prior normal are read off it.  Any stage failure
    raises :class:`PipelineError` naming the stage (and the pairs completed
    before it); an inadequate feature count falls back to an IMU-only result.

    Every outcome carries the same diagnostics dict, a failure as its
    ``PipelineError.diagnostics``: ``feature_counts``, ``deviation_mode``,
    ``pairs`` (one :class:`PairTrace` per pair run, a pure-rotation pair
    included), ``timings`` (``anchor_s`` once the anchor is checked, and
    ``total_s``), and ``indicator_percentiles`` once a pair in ``pairs``
    has fitted its homography.
    """
    cfg = config or PipelineConfig()
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    counts = [len(kf.ids) for kf in window.keyframes]
    diag: dict = {"feature_counts": counts, "deviation_mode": cfg.deviation_mode,
                  "pairs": [], "timings": timings}
    residuals: list[np.ndarray] = []  # the indicator residuals of each fitted pair
    try:
        if len(window.keyframes) < 2:
            raise PipelineError("window", "need at least two keyframes")
        if len(imu_samples) == 0:
            raise PipelineError("imu", "empty IMU stream")
        if not imu_mod.is_stationary(imu_samples):
            raise PipelineError("stationarity", "stream does not start at rest")

        # IMU-only anchor at the first keyframe (the height-gate instant): its
        # nearest sample, within half a sample interval up to rounding (the
        # stationarity gate saw >= 2 samples)
        t0 = float(imu_samples.t[0])
        anchor = window.state(0)
        interval = (float(imu_samples.t[-1]) - t0) / (len(imu_samples) - 1)
        if abs(anchor.t - window.keyframes[0].t) > 0.5 * interval + imu_mod.SLICE_TOL_S:
            raise PipelineError("imu", "IMU stream does not reach the first keyframe")
        timings["anchor_s"] = time.perf_counter() - t_start

        # feature gate
        if min(counts) < cfg.min_features:
            return _imu_only_result(window, STATUS_IMU_ONLY, diag)

        cam = anchor.pose @ rig.T_c_b
        poses: list[Pose] = [anchor.pose]
        velocities: list[np.ndarray] = []
        for m in range(len(window.keyframes) - 1):
            t_pair = time.perf_counter()
            trace, cam, velocity, selected, pair_residuals = _initialize_pair(
                window, m, cam.translation, rig, cfg, rng)
            trace = replace(trace, pair_s=time.perf_counter() - t_pair)
            diag["pairs"].append(dict(vars(trace)))
            if cam is None:
                # the gate found no parallax above noise: no translation to recover
                return _imu_only_result(window, STATUS_PURE_ROTATION, diag)
            residuals.append(pair_residuals)
            poses.append(cam @ rig.T_b_c)
            velocities.append(velocity)
            if m == 0:
                first_selection = selected

        # keyframe m carries the mean velocity over [t_m, t_m+1]; the last one
        # holds the last pair's
        velocities.append(velocities[-1])
        return InitializationResult(
            STATUS_INITIALIZED,
            [kf.t for kf in window.keyframes],
            poses, velocities, diag["pairs"][0]["scale"], first_selection, diag)
    except PipelineError as exc:
        exc.diagnostics = diag
        raise
    finally:
        # completes the one dict every outcome holds, after any return value
        # or exception is built
        if residuals:
            diag["indicator_percentiles"] = _percentiles(np.concatenate(residuals))
        timings["total_s"] = time.perf_counter() - t_start


def _percentiles(values: np.ndarray) -> dict:
    """The diagnostics summary of the planarity indicator over the window's pairs."""
    return {
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p100": float(np.max(values)),
    }


def _initialize_pair(window: KeyframeWindow, m: int, c_prev: np.ndarray,
                     rig: CameraRig, cfg: PipelineConfig, rng: np.random.Generator):
    """One keyframe pair (previous ``m``, current ``m + 1``) of the chain.

    ``c_prev`` is the previous camera's chained position in the world.
    Returns the pair's :class:`PairTrace`, the current camera's pose
    (c -> w), the mean body velocity over the pair, the fitted
    (R, t_bar, n), and the planarity indicator's residuals over the pair's
    correspondences.  A pure-rotation pair, whose derotated parallax is
    below the RANSAC threshold, returns a trace of that parallax alone, and
    no pose, velocity, solution or residuals.
    """
    kf_i, kf_j = window.keyframes[m], window.keyframes[m + 1]
    pair_track = window.pair_track(m)
    if len(pair_track) < 2:
        raise PipelineError("imu", f"no IMU coverage for pair {m}")

    # both cameras' attitudes and the prior normal, the world vertical seen
    # from the current camera, are the pass's; the gyro rotation between them
    # maps the current camera frame into the previous one
    r_ci = window.state(m).pose.rotation @ rig.T_c_b.rotation
    r_cj = window.state(m + 1).pose.rotation @ rig.T_c_b.rotation
    n_prior = prior_normal(r_cj)
    rel_rot = imu_mod.integrate_camera_rotation(pair_track, rig.T_c_b).inverse()

    # homography from the current view onto the previous one: row k of
    # p_src / p_dst is feature fids[k] in the current / previous keyframe
    fids, rows_i, rows_j = window.shared_features(m, m + 1)
    if len(fids) < 4:
        raise PipelineError("homography", f"only {len(fids)} correspondences in pair {m}")
    p_src = normalize(rig, kf_j.uv_l[rows_j])
    p_dst = normalize(rig, kf_i.uv_l[rows_i])

    # pure-rotation gate: with the gyro rotation taken out, a pair whose
    # features moved less than the RANSAC inlier threshold (what the
    # pipeline counts as noise) has no observable translation
    parallax = _derotated_parallax(p_src, p_dst, rel_rot)
    if parallax < cfg.ransac_threshold:
        return PairTrace(pair=m, parallax=parallax), None, None, None, None

    t_stage = time.perf_counter()
    try:
        fit, inlier_mask = estimate(
            p_src, p_dst, rel_rot, n_prior, threshold=cfg.ransac_threshold,
            confidence=cfg.ransac_confidence,
            max_iters=cfg.ransac_max_iters, seed=rng)
    except PlanarInitError as exc:
        raise PipelineError("homography", str(exc)) from exc
    homography_s = time.perf_counter() - t_stage
    residuals = indicator(fit, p_src, p_dst)

    # the paper's four-way decomposition of the fitted H, kept as the
    # positive-depth check and the selection diagnostics; the chain uses
    # the fit's own (R, t_bar, n)
    try:
        survivors = filter_positive_depth(decompose(fit.reassemble()), p_src[inlier_mask])
    except DegenerateHomographyError as exc:
        raise PipelineError("homography", str(exc)) from exc
    except InconsistentDataError as exc:
        raise PipelineError("cheirality", str(exc)) from exc
    selection = select_solution(n_prior, survivors)

    # the reliable inliers are triangulated at the previous keyframe in one
    # call; the metric step is solved in world axes centred on the previous
    # camera, so the chained position, which the weighted refit moves,
    # enters neither PnP nor the velocity
    used = np.flatnonzero(inlier_mask)
    used = used[_reliable(kf_i, rows_i[used], cfg.min_disparity_px)]
    ri, rj = rows_i[used], rows_j[used]
    p_c = triangulate_stereo(kf_i.uv_l[ri], kf_i.uv_r[ri], rig)
    body_prev = Pose(r_ci, np.zeros(3), "c", "w") @ rig.T_b_c
    points = r_ci.apply(p_c)
    obs_j = p_src[used]
    if len(points) < 4:
        raise PipelineError("pnp", f"only {len(points)} usable stereo points in pair {m}")
    # the current camera's rotation is the pass's; PnP solves only for its
    # centre, and every fit below re-weights one system
    t_stage = time.perf_counter()
    system = PnpSystem(points, obs_j, r_cj)
    try:
        t_pnp, pnp_mask = solve_pnp(system, threshold=cfg.pnp_ransac_threshold)
    except PlanarInitError as exc:
        raise PipelineError("pnp", str(exc)) from exc
    pnp_s = time.perf_counter() - t_stage

    # velocity from the PnP fit, before the weighted refit below
    velocity = refine_body_velocity(window, m, body_prev, t_pnp, rig)

    if cfg.deviation_mode == "dynamic":
        inl = rj[pnp_mask]
        try:
            t_pnp = _weighted_pnp_refit(t_pnp, system, pnp_mask,
                                        kf_j.uv_l[inl], kf_j.uv_r[inl], rig)
        except PlanarInitError as exc:
            raise PipelineError("pnp", f"{exc} in pair {m}") from exc

    # the metric counterpart of t_bar is the final PnP centre in the
    # previous camera's frame, and the scale is fitted once, from it
    t_hat = r_ci.inverse().apply(t_pnp.translation)
    try:
        s = recover_scale(fit.t_bar, t_hat)
    except DegenerateTranslationError as exc:
        raise PipelineError("scale", f"{exc} in pair {m}") from exc
    if s <= 0.0:
        raise PipelineError("scale", f"backwards scale {s:.6g} in pair {m}")

    # chain the metric position: c_j = c_i + R_ci (s t_bar)
    cam_curr = Pose(r_cj, c_prev + r_ci.apply(s * fit.t_bar), "c", "w")

    trace = PairTrace(
        pair=m,
        parallax=parallax,
        selection_margin=selection.margin,
        selection_distances=selection.distances,
        scale=s,
        t_hat_norm=float(np.linalg.norm(t_hat)),
        pnp_inliers=int(pnp_mask.sum()),
        correspondences=len(fids),
        homography_inliers=int(np.sum(inlier_mask)),
        transfer_rms_px=rig.f * float(np.sqrt(np.mean(residuals[inlier_mask] ** 2))),
        homography_s=homography_s,
        pnp_s=pnp_s,
    )
    return trace, cam_curr, velocity, fit, residuals


def _derotated_parallax(p_src: np.ndarray, p_dst: np.ndarray,
                        rel_rot: Rotation) -> float:
    """Median distance, in normalized units, from each previous-view point
    ``p_dst`` to its current-view match ``p_src`` rotated into the previous
    view by the gyro rotation ``rel_rot``."""
    rays = rel_rot.apply(homogeneous(p_src))
    return float(np.median(np.linalg.norm(p_dst - rays[:, :2] / rays[:, 2:], axis=1)))


def _weighted_pnp_refit(t_pnp: Pose, system: PnpSystem, inliers: np.ndarray,
                        uv_l: np.ndarray, uv_r: np.ndarray, rig: CameraRig) -> Pose:
    """Refit the PnP camera centre of ``system`` on its ``inliers`` (mask)
    with dynamic inverse-deviation weights, under the same camera rotation;
    the other points get weight zero.

    Each inlier's stereo deviation at the current keyframe (pixels
    ``uv_l``, ``uv_r``, one row per inlier) is computed against the depth
    its world point takes under the current pose estimate, so the weight
    reflects the feature's own measurement quality rather than its
    momentary disparity.  An inlier behind the camera has no such depth
    and weighs zero, as an outlier does.
    """
    # camera-frame depths under the current PnP pose
    z_pred = t_pnp.invert().apply(system.points_w[inliers])[:, 2]
    ahead = z_pred > 0.0
    weights = np.zeros(len(system))
    weights[np.flatnonzero(inliers)[ahead]] = weight(
        stereo_deviation(uv_l[ahead], uv_r[ahead], rig, z_pred[ahead]))
    return Pose(t_pnp.rotation, refine_pose(system, weights), "c", "w")
