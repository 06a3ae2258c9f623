"""Dataset-level orchestration: window gathering, metrics, and sweeps.

This is the layer between raw datasets and the pipeline: it fires the
height gate from IMU-only propagation, gathers the keyframe window, runs
the initializer, and scores results against ground truth with the
per-axis RMSE / box-plot statistics the reports carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import imu as imu_mod
from .config import PipelineConfig
from .errors import AlignmentError, PipelineError
from .geometry import CameraRig, Rotation, to_euler_ned
from .homography import decompose, filter_positive_depth, synthesize
from .initializer import (
    InitializationResult,
    KeyframeWindow,
    prior_normal,
    run_initialization,
    select_solution,
)
from .simulator import (
    Dataset,
    LoadedDataset,
    NoiseModel,
    PROFILE_KINDS,
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

    Propagates the IMU stream once, from rest to one sample past the last
    camera frame, fires the gate at the first frame whose state (the
    nearest sample to the frame time) has gained the preset height, and
    takes every ``keyframe_stride``-th frame from there, up to
    ``window_size``.  The window carries that pass from its first keyframe
    to its last.
    """
    frames = dataset.frames
    imu = dataset.imu
    if not frames:
        raise PipelineError("height-gate", "dataset has no camera frames")
    rest = imu_mod.nav_state_at_rest(float(imu.t[0]), config.gyro_bias, config.accel_bias)
    # the pass ends one sample past the last frame, so that sample can be
    # the nearest, and keeps the first sample even when every frame precedes it
    end = min(int(np.searchsorted(imu.t, frames.times[-1], side="right")), len(imu) - 1)
    track = imu_mod.propagate(rest, imu_mod.slice_between(imu, rest.t, float(imu.t[end])))
    at_frame = track.index_at(frames.times)
    gain = rest.pose.translation[2] - track.position[at_frame, 2]
    fired = np.flatnonzero(gain >= config.preset_height_m)
    if not fired.size:
        raise PipelineError("height-gate",
                            f"altitude never reached {config.preset_height_m} m")
    picked = range(int(fired[0]), len(frames), config.keyframe_stride)[:config.window_size]
    keyframes = frames[picked.start:picked.stop:picked.step]
    return KeyframeWindow(keyframes, track[at_frame[picked[0]]:at_frame[picked[-1]] + 1])


def run_on_dataset(dataset, config: PipelineConfig | None = None,
                   seed: int = 0) -> InitializationResult:
    cfg = config or PipelineConfig()
    window = select_window(dataset, cfg)
    return run_initialization(window, dataset.imu, dataset.rig, cfg, seed)


# ------------------------------------------------------------------ metrics

def _five_numbers(errors: np.ndarray, names) -> dict:
    """Min, quartiles and max of each column of ``errors`` (n, 3), keyed by ``names``."""
    if errors.size == 0:
        zero = {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0}
        return {name: dict(zero) for name in names}
    q1, median, q3 = np.percentile(errors, [25, 50, 75], axis=0).tolist()
    lo, hi = np.min(errors, axis=0).tolist(), np.max(errors, axis=0).tolist()
    return {name: {"min": lo[k], "q1": q1[k], "median": median[k], "q3": q3[k],
                   "max": hi[k]}
            for k, name in enumerate(names)}


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
                "translation": _five_numbers(self.translation_errors, axes),
                "velocity": _five_numbers(self.velocity_errors, axes),
                "euler": _five_numbers(self.euler_errors, angles),
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
    """Score a result against a dataset's ground truth, positions taken from rest.

    The pipeline's world frame starts at the body at rest, the first
    ground-truth row; a hover starts aloft, a take-off at the origin.
    """
    if isinstance(dataset, Dataset):
        tr = dataset.truth
        return evaluate(result, tr.t[tr.cam_indices],
                        tr.position[tr.cam_indices] - tr.position[0],
                        tr.quat_wxyz[tr.cam_indices], tr.velocity[tr.cam_indices],
                        dataset.cam_period)
    if isinstance(dataset, LoadedDataset):
        return evaluate(result, dataset.gt_t,
                        dataset.gt_position - dataset.gt_position[0], dataset.gt_quat,
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
                    noise: NoiseModel | None = None) -> SelectionTrial:
    """One lightweight take-off: noisy-gyro prior vs. exact decomposition.

    Simulates the trajectory analytically, integrates the *noisy* gyro
    stream from the stationary start to the first keyframe pair past the
    height gate, synthesizes the exact homography for that pair, and
    checks whether the prior normal selects the true candidate.
    """
    noise = noise or NoiseModel()
    cfg = PipelineConfig()
    rig = CameraRig.default()
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
    h_true = synthesize(rel.rotation, rel.translation, n_j, d_j).reassemble()

    # prior normal from the noisy gyro pass, stationary start -> time j: the
    # world vertical seen from camera j at the pass's last attitude
    rest = imu_mod.nav_state_at_rest(float(imu.t[0]), cfg.gyro_bias, cfg.accel_bias)
    track = imu_mod.propagate(rest, imu_mod.slice_between(imu, rest.t, truth.t[k_j]))
    n_prior = prior_normal(Rotation(track.quat[-1]) @ rig.T_c_b.rotation)

    # candidates from the exact homography, pruned by positive depth
    candidates = decompose(h_true)
    survivors = filter_positive_depth(candidates, _plane_points(h_true, n_j, rng, count=20))
    selection = select_solution(n_prior, survivors)

    truth_angle = min(
        math.acos(np.clip(float(c.n @ n_j), -1.0, 1.0)) for c in survivors)
    sel_angle = math.acos(np.clip(float(selection.solution.n @ n_j), -1.0, 1.0))
    success = bool(sel_angle <= truth_angle + 1e-9)
    prior_err = math.acos(np.clip(float(n_prior @ n_j), -1.0, 1.0))
    if len(survivors) == 2:
        gap = math.acos(np.clip(float(survivors[0].n @ survivors[1].n), -1.0, 1.0))
    else:
        gap = math.pi
    return SelectionTrial(success, selection.margin, prior_err, gap, len(survivors))


def _plane_points(h, n, rng, count=20) -> np.ndarray:
    """Source points (up to ``count``, 2) of the plane visible in both views of ``h`` (3x3)."""
    pts = []
    guard = 0
    while len(pts) < count and guard < 20 * count:
        guard += 1
        p = rng.uniform(-0.5, 0.5, size=2)
        ph = np.array([p[0], p[1], 1.0])
        if ph @ n <= 0.05:
            continue
        w = h @ ph
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


def full_trial(scene_name: str, profile_kind: str, seed: int) -> FullTrial:
    """One end-to-end window on an in-memory dataset with default noise and config."""
    ds = make_dataset(scene_preset(scene_name, seed=0), TrajectoryProfile(kind=profile_kind),
                      seed=seed)
    try:
        result = run_on_dataset(ds, seed=seed)
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
    return int(np.argmin(np.abs(ds.frames.times - t)))


def _selection_job(args) -> tuple[int, SelectionTrial]:
    idx, profile_kind, seed = args
    return idx, selection_trial(profile_kind, seed)


def _full_job(args) -> tuple[int, FullTrial]:
    idx, scene, profile_kind, seed = args
    return idx, full_trial(scene, profile_kind, seed)


def _run_share(job, tasks, sender) -> None:
    """A forked sweep worker: send back ``(True, outputs)`` or ``(False, exc)``."""
    try:
        message = (True, [job(task) for task in tasks])
    except Exception as exc:
        message = (False, exc)
    sender.send(message)
    sender.close()


def check_sweep(mode: str, scenes: list[str], profiles: list[str], trials: int,
                jobs: int) -> None:
    """Raise ``ValueError`` for arguments ``run_sweep`` cannot run."""
    if mode not in ("selection", "full"):
        raise ValueError(f"unknown sweep mode {mode!r}; choose selection or full")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not scenes or not profiles:
        raise ValueError("a sweep needs at least one scene and one profile")
    for s in scenes:
        if s not in SCENE_PRESETS:
            raise ValueError(f"unknown scene preset {s!r}")
    for p in profiles:
        if p not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {p!r}")


def run_sweep(mode: str, scenes: list[str], profiles: list[str], trials: int,
              master_seed: int, jobs: int = 1) -> list[dict]:
    """Seeded trial matrix; aggregation is independent of completion order.

    Per-trial seeds are derived from the master seed by splitmix64 of
    (master + global trial index), so the aggregate is a pure function of
    the inputs regardless of ``jobs``.
    """
    check_sweep(mode, scenes, profiles, trials, jobs)
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
    # this process runs tasks[0::workers] while each of workers - 1 forked
    # children runs its own stride; a child inherits its tasks through the
    # fork and sends back one message
    import multiprocessing  # here, so that importing the CLI stays cheap
    import numpy.random  # loaded lazily by numpy; once here, not in every child
    fork = multiprocessing.get_context("fork")
    workers = min(jobs, len(tasks))
    children = []
    try:
        for k in range(1, workers):
            receiver, sender = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_share, args=(job, tasks[k::workers], sender))
            children.append((child, receiver))
            # closed once forked, so that no later child inherits it: the
            # receiver sees EOF only when every copy of this end is closed
            with sender:
                child.start()
        outputs = [job(task) for task in tasks[0::workers]]
        for child, receiver in children:
            try:
                ok, payload = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a sweep worker exited with code {child.exitcode} "
                                   "before it sent its trials") from None
            if not ok:
                raise payload
            outputs += payload
    finally:
        for child, receiver in children:
            receiver.close()
            if child.pid is not None:  # None if its fork failed
                child.terminate()
                child.join()
    results = dict(outputs)

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
