"""Dataset-level orchestration: window gathering, metrics, and sweeps.

This is the layer between raw datasets and the pipeline: it fires the
height gate from IMU-only propagation, gathers the keyframe window, runs
the initializer, and scores results against ground truth with the
per-axis RMSE / box-plot statistics the reports carry.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import imu as imu_mod
from .config import PipelineConfig
from .errors import AlignmentError, PipelineError
from .geometry import CameraRig, Rotation, to_euler_ned
from .homography import decompose, filter_positive_depth, synthesize
from .imu import PriorNormal
from .initializer import (
    InitializationResult,
    Keyframe,
    KeyframeWindow,
    StereoObservation,
    run_initialization,
    select_solution,
)
from .simulator import (
    Dataset,
    LoadedDataset,
    NoiseModel,
    SCENE_PRESETS,
    TrajectoryProfile,
    generate_trajectory,
    make_dataset,
    scene_preset,
    synthesize_imu,
)

REPORT_SCHEMA_VERSION = 1


def splitmix64(x: int) -> int:
    """Deterministic stateless seed derivation (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


def trial_seed(master_seed: int, index: int) -> int:
    return splitmix64((master_seed & 0xFFFFFFFFFFFFFFFF) + index)


def select_window(dataset, config: PipelineConfig) -> KeyframeWindow:
    """Gather the keyframe window after the IMU-only height gate fires.

    Propagates the IMU stream from rest up to the first camera frame at
    which the altitude gain reaches the preset height, and takes every
    ``keyframe_stride``-th frame from there, up to ``window_size``.  The
    state at the gate frame anchors the window, so no sample before it is
    integrated again.
    """
    frames = dataset.frames
    imu = dataset.imu
    rig = dataset.rig
    if not frames:
        raise PipelineError("height-gate", "dataset has no camera frames")
    gravity = np.asarray(config.gravity, dtype=np.float64)
    nav = imu_mod.nav_state_at_rest(float(imu.t[0]), config.gyro_bias, config.accel_bias)
    z0 = nav.pose.translation[2]
    frame_t = np.array([fr.t for fr in frames])
    # the last sample of each frame's propagation (slice_between's tolerance)
    frame_end = np.searchsorted(imu.t, frame_t + 1e-9, side="right") - 1
    excess = np.linalg.norm(imu.accel - nav.accel_bias, axis=1) - gravity[2]
    gate_idx = None
    k = 0
    while k < len(frames):
        if frame_t[k] > nav.t + 1e-9:
            nav = imu_mod.propagate(
                nav, imu_mod.slice_between(imu, nav.t, frame_t[k]), gravity)
        gain = z0 - nav.pose.translation[2]
        if gain >= config.preset_height_m:
            gate_idx = k
            break
        k += _gate_step(imu, excess, nav, gain, config.preset_height_m,
                        frame_end[k + 1:])
    if gate_idx is None:
        raise PipelineError("height-gate",
                            f"altitude never reached {config.preset_height_m} m")
    picked = frames[gate_idx::config.keyframe_stride][:config.window_size]
    keyframes = [_keyframe(fr, rig) for fr in picked]
    span = imu_mod.slice_between(imu, keyframes[0].t, keyframes[-1].t)
    return KeyframeWindow(keyframes, span, nav)


def _keyframe(fr, rig: CameraRig) -> Keyframe:
    """A picked frame's observations, its pixels normalized in one array step."""
    uv = np.array(list(fr.pixels.values()), dtype=np.float64).reshape(-1, 2, 2)
    norm = (uv - np.array([rig.cx, rig.cy])) / rig.f  # geometry.normalize, per row
    # read-only, so each observation keeps views of its rows instead of copies
    uv.setflags(write=False)
    norm.setflags(write=False)
    return Keyframe(fr.frame, fr.t, {
        fid: StereoObservation(uv[k, 0], uv[k, 1], norm[k, 0], norm[k, 1])
        for k, fid in enumerate(fr.pixels)
    })


def _gate_step(imu, excess: np.ndarray, nav, gain: float, height: float,
               later: np.ndarray) -> int:
    """How many frames the height-gate search may advance by, at least one.

    In any attitude the upward acceleration is at most the specific-force
    excess ``|f - b_a| - g_z`` (NED), so from climb rate v the altitude
    gained in the next T seconds is at most ``v T + A T^2 / 2``, A the
    largest excess in that span; the midpoint recurrence keeps the same
    bound.  The search
    jumps to the last of the ``later`` frames (given by their last sample)
    that this bound keeps below ``height``, each of which would fail the
    gate, so they are propagated through in one call instead of one each.
    """
    i = int(np.searchsorted(imu.t, nav.t - 1e-9))
    span = imu.t[i:] - imu.t[i]
    reach = (gain - nav.velocity[2] * span
             + 0.5 * np.maximum.accumulate(excess[i:]) * span * span)
    # a micrometre of slack covers rounding in the propagated altitude
    hits = np.flatnonzero(reach[later - i] >= height - 1e-6)
    return max(int(hits[0]) if hits.size else len(later), 1)


def run_on_dataset(dataset, config: PipelineConfig | None = None,
                   seed: int = 0) -> InitializationResult:
    cfg = config or PipelineConfig()
    window = select_window(dataset, cfg)
    return run_initialization(window, dataset.imu, dataset.rig, cfg, seed)


# ------------------------------------------------------------------ metrics

def _five_number(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0}
    return {
        "min": float(np.min(values)),
        "q1": float(np.percentile(values, 25)),
        "median": float(np.percentile(values, 50)),
        "q3": float(np.percentile(values, 75)),
        "max": float(np.max(values)),
    }


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


@dataclass
class MetricsReport:
    """Per-axis RMSE and distribution summaries against ground truth."""

    status: str
    translation_rmse: np.ndarray
    velocity_rmse: np.ndarray
    euler_rmse: np.ndarray
    translation_errors: np.ndarray
    velocity_errors: np.ndarray
    euler_errors: np.ndarray
    times: np.ndarray
    indicator_percentiles: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        axes = ("x", "y", "z")
        angles = ("roll", "pitch", "yaw")
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "status": self.status,
            "translation_rmse_m": dict(zip(axes, map(float, self.translation_rmse))),
            "velocity_rmse_mps": dict(zip(axes, map(float, self.velocity_rmse))),
            "euler_rmse_rad": dict(zip(angles, map(float, self.euler_rmse))),
            "boxplots": {
                "translation": {a: _five_number(self.translation_errors[:, k])
                                for k, a in enumerate(axes)},
                "velocity": {a: _five_number(self.velocity_errors[:, k])
                             for k, a in enumerate(axes)},
                "euler": {a: _five_number(self.euler_errors[:, k])
                          for k, a in enumerate(angles)},
            },
            "indicator_percentiles": self.indicator_percentiles,
            "timings": self.timings,
        }

    def plot_rows(self) -> list[list[float]]:
        """Rows of t, err_x..err_z, err_vx..err_vz, err_roll..err_yaw."""
        rows = []
        for k, t in enumerate(self.times):
            rows.append([float(t), *map(float, self.translation_errors[k]),
                         *map(float, self.velocity_errors[k]),
                         *map(float, self.euler_errors[k])])
        return rows


PLOT_HEADER = ["t", "err_x", "err_y", "err_z", "err_vx", "err_vy", "err_vz",
               "err_roll", "err_pitch", "err_yaw"]


def evaluate(result: InitializationResult, gt_t: np.ndarray,
             gt_position: np.ndarray, gt_quat: np.ndarray,
             gt_velocity: np.ndarray, cam_period: float) -> MetricsReport:
    """Score a result against ground truth via nearest-timestamp association."""
    times = np.asarray(result.keyframe_times, dtype=np.float64)
    tol = cam_period / 2.0
    pairs = []
    for k, t in enumerate(times):
        j = int(np.argmin(np.abs(gt_t - t)))
        if abs(gt_t[j] - t) <= tol:
            pairs.append((k, j))
    if not pairs:
        raise AlignmentError("no keyframe timestamps match the ground truth")

    t_err, v_err, e_err, kept_t = [], [], [], []
    for k, j in pairs:
        pose = result.poses[k]
        t_err.append(pose.translation - gt_position[j])
        v_err.append(np.asarray(result.velocities[k]) - gt_velocity[j])
        est = to_euler_ned(pose.rotation)
        ref = to_euler_ned(Rotation(gt_quat[j]))
        e_err.append(_wrap_angle(np.array([est.roll - ref.roll,
                                           est.pitch - ref.pitch,
                                           est.yaw - ref.yaw])))
        kept_t.append(times[k])
    t_err = np.array(t_err)
    v_err = np.array(v_err)
    e_err = np.array(e_err)
    return MetricsReport(
        status=result.status,
        translation_rmse=np.sqrt(np.mean(t_err ** 2, axis=0)),
        velocity_rmse=np.sqrt(np.mean(v_err ** 2, axis=0)),
        euler_rmse=np.sqrt(np.mean(e_err ** 2, axis=0)),
        translation_errors=t_err,
        velocity_errors=v_err,
        euler_errors=e_err,
        times=np.array(kept_t),
        indicator_percentiles=result.diagnostics.get("indicator_percentiles", {}),
        timings=result.diagnostics.get("timings", {}),
    )


def evaluate_against_dataset(result: InitializationResult, dataset) -> MetricsReport:
    if isinstance(dataset, Dataset):
        tr = dataset.truth
        return evaluate(result, tr.t[tr.cam_indices], tr.position[tr.cam_indices],
                        tr.quat_wxyz[tr.cam_indices], tr.velocity[tr.cam_indices],
                        dataset.cam_period)
    if isinstance(dataset, LoadedDataset):
        return evaluate(result, dataset.gt_t, dataset.gt_position, dataset.gt_quat,
                        dataset.gt_velocity, dataset.cam_period)
    raise TypeError(f"unsupported dataset type {type(dataset)!r}")


# ------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SelectionTrial:
    """Outcome of one prior-normal selection trial."""

    success: bool
    margin: float
    prior_error_angle: float
    candidate_gap_angle: float
    n_candidates: int


def selection_trial(profile_kind: str, seed: int,
                    noise: NoiseModel | None = None,
                    config: PipelineConfig | None = None,
                    rig: CameraRig | None = None) -> SelectionTrial:
    """One lightweight take-off: noisy-gyro prior vs. exact decomposition.

    Simulates the trajectory analytically, integrates the *noisy* gyro
    stream from the stationary start to the first keyframe pair past the
    height gate, synthesizes the exact homography for that pair, and
    checks whether the prior normal selects the true candidate.
    """
    noise = noise or NoiseModel()
    cfg = config or PipelineConfig()
    rig = rig or CameraRig.default()
    rng = np.random.default_rng(seed)
    tilt = float(rng.uniform(0.1, 0.35)) if profile_kind == "oblique" else 0.25
    profile = TrajectoryProfile(
        kind=profile_kind, tilt_angle=tilt,
        climb_rate=float(rng.uniform(0.7, 1.4)))
    truth = generate_trajectory(profile)
    imu = synthesize_imu(truth, noise.gyro_bias, noise.accel_bias,
                         noise.gyro_noise_density, noise.accel_noise_density,
                         seed=int(rng.integers(2 ** 31)))

    alt = -truth.position[truth.cam_indices, 2]
    gate = np.flatnonzero(alt >= cfg.preset_height_m)
    if len(gate) == 0:
        raise PipelineError("height-gate", "trajectory never reaches the gate")
    k_i = int(truth.cam_indices[gate[0]])
    k_j = int(truth.cam_indices[min(gate[0] + cfg.keyframe_stride,
                                    len(truth.cam_indices) - 1)])

    # exact relative geometry for the pair, homography mapping j -> i
    cam_i = truth.camera_pose(k_i, rig)
    cam_j = truth.camera_pose(k_j, rig)
    rel = cam_i.invert() @ cam_j  # T_cj^ci
    n_j, d_j = truth.plane_in_camera(k_j, rig)
    h_true = synthesize(rel.rotation, rel.translation, n_j, d_j)

    # prior normal from the noisy gyro chain, stationary start -> time j
    span = imu_mod.slice_between(imu, imu.t[0], truth.t[k_j])
    r_cam = imu_mod.integrate_camera_rotation(span, cfg.gyro_bias, rig.T_c_b)
    prior = imu_mod.propagate_normal(
        PriorNormal(np.array([0.0, 0.0, 1.0]), float(imu.t[0])), r_cam, truth.t[k_j])

    # candidates from the exact homography, pruned by positive depth
    candidates = decompose(h_true)
    survivors = filter_positive_depth(candidates, _plane_points(h_true, n_j, rng, count=20))
    selection = select_solution(prior, survivors)

    truth_angle = min(
        math.acos(np.clip(float(c.n @ n_j), -1.0, 1.0)) for c in survivors)
    sel_angle = math.acos(np.clip(float(selection.solution.n @ n_j), -1.0, 1.0))
    success = bool(sel_angle <= truth_angle + 1e-9)
    prior_err = math.acos(np.clip(float(prior.n @ n_j), -1.0, 1.0))
    if len(survivors) == 2:
        gap = math.acos(np.clip(float(survivors[0].n @ survivors[1].n), -1.0, 1.0))
    else:
        gap = math.pi
    return SelectionTrial(success, selection.margin, prior_err, gap, len(survivors))


def _plane_points(h, n, rng, count=20) -> np.ndarray:
    """Source points (up to ``count``, 2) of the plane visible in both views of ``h``."""
    pts = []
    guard = 0
    while len(pts) < count and guard < 20 * count:
        guard += 1
        p = rng.uniform(-0.5, 0.5, size=2)
        ph = np.array([p[0], p[1], 1.0])
        if ph @ n <= 0.05:
            continue
        w = h.matrix @ ph
        if w[2] <= 0.05:
            continue
        pts.append(p)
    return np.array(pts).reshape(-1, 2)


@dataclass(frozen=True)
class FullTrial:
    """Outcome of one end-to-end pipeline trial."""

    status: str
    translation_rmse: tuple
    velocity_rmse: tuple
    euler_rmse: tuple
    scale_error: float


def full_trial(scene_name: str, profile_kind: str, seed: int,
               noise: NoiseModel | None = None,
               config: PipelineConfig | None = None,
               rig: CameraRig | None = None,
               window_size: int | None = None) -> FullTrial:
    cfg = config or PipelineConfig()
    if window_size is not None:
        from dataclasses import replace
        cfg = replace(cfg, window_size=window_size)
    ds = make_dataset(scene_preset(scene_name, seed=0), TrajectoryProfile(kind=profile_kind),
                      rig=rig, noise=noise or NoiseModel(), seed=seed)
    try:
        result = run_on_dataset(ds, cfg, seed=seed)
    except PipelineError:
        return FullTrial("failed", (np.nan,) * 3, (np.nan,) * 3, (np.nan,) * 3, np.nan)
    report = evaluate_against_dataset(result, ds)
    scale_err = np.nan
    if result.initialized and result.scale is not None:
        gate_frame = _frame_of_time(ds, result.keyframe_times[1])
        n_c, d_true = ds.truth.plane_in_camera(
            int(ds.truth.cam_indices[gate_frame]), ds.rig)
        scale_err = abs(result.scale - d_true) / d_true
    return FullTrial(result.status,
                     tuple(map(float, report.translation_rmse)),
                     tuple(map(float, report.velocity_rmse)),
                     tuple(map(float, report.euler_rmse)),
                     float(scale_err))


def _frame_of_time(ds: Dataset, t: float) -> int:
    times = np.array([fr.t for fr in ds.frames])
    return int(np.argmin(np.abs(times - t)))


def _selection_job(args) -> tuple[int, SelectionTrial]:
    idx, profile_kind, seed = args
    return idx, selection_trial(profile_kind, seed)


def _full_job(args) -> tuple[int, FullTrial]:
    idx, scene, profile_kind, seed = args
    return idx, full_trial(scene, profile_kind, seed)


# OpenBLAS thread setters, most specific first: numpy wheels ship an
# OpenBLAS whose symbols carry the ``scipy_`` prefix and the ILP64 suffix.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split(maxsplit=5)[-1].strip()
                if "openblas" in path.rsplit("/", 1)[-1].lower():
                    return path
    except OSError:
        pass
    return None


def _single_thread_blas() -> None:
    """Pool initializer: put the worker's already-loaded OpenBLAS on one thread.

    Each forked worker inherits numpy's multi-threaded OpenBLAS, whose
    helper threads spin-wait after every threaded call; with one worker
    per core that oversubscribes the cores.  Trials parallelize across
    workers instead.  Without OpenBLAS or ``/proc`` this does nothing.
    """
    path = _loaded_openblas()
    if path is None:
        return
    import ctypes

    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return
    for name in _OPENBLAS_SET_THREADS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return


def run_sweep(mode: str, scenes: list[str], profiles: list[str], trials: int,
              master_seed: int, jobs: int = 1) -> list[dict]:
    """Seeded trial matrix; aggregation is independent of completion order.

    Per-trial seeds are derived from the master seed by splitmix64 of
    (master + global trial index), so the aggregate is a pure function of
    the inputs regardless of ``jobs``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for s in scenes:
        if s not in SCENE_PRESETS:
            raise ValueError(f"unknown scene preset {s!r}")
    tasks = []
    idx = 0
    for scene in scenes:
        for profile_kind in profiles:
            for k in range(trials):
                seed = trial_seed(master_seed, idx)
                if mode == "selection":
                    tasks.append((idx, profile_kind, seed))
                else:
                    tasks.append((idx, scene, profile_kind, seed))
                idx += 1
    job = _selection_job if mode == "selection" else _full_job
    results: dict[int, object] = {}
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_single_thread_blas) as pool:
            for i, out in pool.map(job, tasks):
                results[i] = out
    else:
        for task in tasks:
            i, out = job(task)
            results[i] = out

    rows = []
    idx = 0
    for scene in scenes:
        for profile_kind in profiles:
            chunk = [results[idx + k] for k in range(trials)]
            idx += trials
            if mode == "selection":
                ok = sum(1 for c in chunk if c.success)
                rows.append({
                    "scene": scene, "profile": profile_kind, "trials": trials,
                    "successes": ok, "success_rate": ok / trials,
                    "median_margin": float(np.median([c.margin for c in chunk])),
                    "max_prior_error_rad": float(np.max([c.prior_error_angle for c in chunk])),
                })
            else:
                good = [c for c in chunk if c.status == "initialized"]
                t_med = (float(np.median([max(c.translation_rmse) for c in good]))
                         if good else float("nan"))
                s_med = (float(np.median([c.scale_error for c in good]))
                         if good else float("nan"))
                rows.append({
                    "scene": scene, "profile": profile_kind, "trials": trials,
                    "initialized": len(good),
                    "success_rate": len(good) / trials,
                    "median_max_translation_rmse_m": t_med,
                    "median_scale_error": s_med,
                })
    return rows
