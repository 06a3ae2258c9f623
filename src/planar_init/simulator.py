"""Deterministic synthetic take-off datasets: planar scene, trajectory,
stereo feature tracks, and IMU streams.

World frame is NED (z down); the ground plane is z = 0 and altitude h
means body position z = -h.  The body starts level and at rest, so the
world frame coincides with the initial body frame, matching the
pipeline's IMU-only anchor.  The downward-looking left camera shares the
body axes by default (optical axis +z = down); the right camera sits at
+baseline along camera x.

All randomness flows from explicit seeds; a dataset is a pure function of
its configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import (
    CameraRig,
    Pose,
    Rotation,
    freeze_feature_rows,
    load_rig,
    project,
    quat_matrices,
    save_rig,
)
from .imu import GRAVITY_NED, ImuStream, load_imu_csv, save_imu_csv

SCENE_PRESETS = {"helipad": 0.0, "asphalt": 0.01, "lawn": 0.05}
PROFILE_KINDS = ("vertical", "oblique", "hover")
# camera frames that render_tracks projects in one stacked pass, chosen by
# measurement: with 800 features a chunk's temporaries stay near 150 kB,
# while a whole 121-frame flight in one pass was slower and page-faulted more
_RENDER_CHUNK = 8


@dataclass(frozen=True)
class SceneConfig:
    """Planar feature field with optional out-of-plane roughness."""

    feature_count: int = 800
    extent: tuple[float, float] = (10.0, 10.0)
    roughness: float = 0.0
    dropout_polygons: tuple = ()
    seed: int = 0
    preset: str = "custom"

    def __post_init__(self):
        if self.roughness < 0.0:
            raise ValueError("roughness must be >= 0")
        if self.feature_count < 0:
            raise ValueError("feature count must be >= 0")


def scene_preset(name: str, seed: int = 0, **overrides) -> SceneConfig:
    if name not in SCENE_PRESETS:
        raise ValueError(f"unknown scene preset {name!r}; choose from {sorted(SCENE_PRESETS)}")
    return SceneConfig(roughness=SCENE_PRESETS[name], seed=seed, preset=name, **overrides)


@dataclass(frozen=True)
class TrajectoryProfile:
    """Analytic take-off profile with a stationary prefix.

    The climb rate ramps up with a smoothstep over ``ramp_time`` and then
    holds constant, so keyframes past the ramp see constant-velocity
    motion.  ``oblique`` adds a constant pitch tilt (reached during the
    ramp) and a proportional lateral drift; ``hover`` holds a fixed
    altitude for the whole duration.
    """

    kind: str = "vertical"
    climb_rate: float = 1.0
    tilt_angle: float = 0.25
    duration: float = 6.0
    cam_rate_hz: float = 20.0
    imu_rate_hz: float = 200.0
    stationary_time: float = 1.0
    ramp_time: float = 1.0
    hover_altitude: float = 2.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.cam_rate_hz <= 0 or self.imu_rate_hz <= 0:
            raise ValueError("rates must be positive")
        ratio = self.imu_rate_hz / self.cam_rate_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("IMU rate must be an integer multiple of camera rate")

    @property
    def cam_stride(self) -> int:
        return int(round(self.imu_rate_hz / self.cam_rate_hz))


def _smoothstep(tau: np.ndarray) -> np.ndarray:
    t = np.clip(tau, 0.0, 1.0)
    return 3.0 * t * t - 2.0 * t * t * t


def _smoothstep_dot(tau: np.ndarray) -> np.ndarray:
    t = np.clip(tau, 0.0, 1.0)
    inside = (tau > 0.0) & (tau < 1.0)
    return np.where(inside, 6.0 * t - 6.0 * t * t, 0.0)


def _smoothstep_int(tau: np.ndarray) -> np.ndarray:
    """Integral of the smoothstep from 0, in units of ramp time."""
    t = np.clip(tau, 0.0, 1.0)
    base = t ** 3 - 0.5 * t ** 4
    return base + np.maximum(tau - 1.0, 0.0)


@dataclass
class GroundTruth:
    """Dense body trajectory sampled on the IMU grid, plus camera-frame markers."""

    t: np.ndarray
    position: np.ndarray
    quat_wxyz: np.ndarray
    velocity: np.ndarray
    omega_body: np.ndarray
    accel_world: np.ndarray
    cam_indices: np.ndarray
    features: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def body_pose(self, index: int) -> Pose:
        return Pose(Rotation(self.quat_wxyz[index]), self.position[index], "b", "w")

    def camera_pose(self, index: int, rig: CameraRig) -> Pose:
        return self.body_pose(index) @ rig.T_c_b

    def plane_in_camera(self, index: int, rig: CameraRig) -> tuple[np.ndarray, float]:
        """Ground-plane unit normal in the camera frame and camera-to-plane
        distance, for the sample at ``index``."""
        cam = self.camera_pose(index, rig)
        n_c = cam.rotation.inverse().apply(np.array([0.0, 0.0, 1.0]))
        d = -float(cam.translation[2])  # altitude of the camera origin
        return n_c, d

    def nearest_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.t - t)))


def generate_trajectory(profile: TrajectoryProfile) -> GroundTruth:
    """Analytic poses, velocities, and body rates on the IMU time grid."""
    n = int(round(profile.duration * profile.imu_rate_hz)) + 1
    t = np.arange(n) / profile.imu_rate_hz
    tau = (t - profile.stationary_time) / profile.ramp_time

    if profile.kind == "hover":
        alt = np.full(n, profile.hover_altitude)
        speed = np.zeros(n)
        accel_up = np.zeros(n)
    else:
        alt = profile.climb_rate * profile.ramp_time * _smoothstep_int(tau)
        speed = profile.climb_rate * _smoothstep(tau)
        accel_up = profile.climb_rate * _smoothstep_dot(tau) / profile.ramp_time

    position = np.zeros((n, 3))
    velocity = np.zeros((n, 3))
    accel = np.zeros((n, 3))
    position[:, 2] = -alt
    velocity[:, 2] = -speed
    accel[:, 2] = -accel_up

    quat = np.zeros((n, 4))
    quat[:, 0] = 1.0
    omega = np.zeros((n, 3))
    if profile.kind == "oblique":
        drift = math.tan(profile.tilt_angle)
        position[:, 0] = drift * alt
        velocity[:, 0] = drift * speed
        accel[:, 0] = drift * accel_up
        theta = profile.tilt_angle * _smoothstep(tau)
        theta_dot = profile.tilt_angle * _smoothstep_dot(tau) / profile.ramp_time
        quat[:, 0] = np.cos(0.5 * theta)
        quat[:, 2] = np.sin(0.5 * theta)  # pitch about body/world y
        omega[:, 1] = theta_dot

    cam_indices = np.arange(0, n, profile.cam_stride)
    return GroundTruth(t, position, quat, velocity, omega, accel, cam_indices)


def _points_in_polygon(xy: np.ndarray, polygon) -> np.ndarray:
    """Even-odd rule; polygon is a sequence of (x, y) vertices."""
    poly = np.asarray(polygon, dtype=np.float64)
    x, y = xy[:, 0], xy[:, 1]
    inside = np.zeros(len(xy), dtype=bool)
    j = len(poly) - 1
    for i in range(len(poly)):
        xi, yi = poly[i]
        xj, yj = poly[j]
        crosses = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= crosses & (x < xcut)
        j = i
    return inside


def generate_scene(cfg: SceneConfig) -> np.ndarray:
    """Feature field (N, 3): uniform on the plane, Gaussian out-of-plane
    perturbation, dropout polygons excluded."""
    rng = np.random.default_rng(cfg.seed)
    half_x, half_y = cfg.extent[0] / 2.0, cfg.extent[1] / 2.0
    kept: list[np.ndarray] = []
    remaining = cfg.feature_count
    guard = 0
    while remaining > 0 and guard < 64:
        guard += 1
        m = max(remaining * 2, 16)
        xy = rng.uniform((-half_x, -half_y), (half_x, half_y), size=(m, 2))
        mask = np.ones(m, dtype=bool)
        for poly in cfg.dropout_polygons:
            mask &= ~_points_in_polygon(xy, poly)
        xy = xy[mask][:remaining]
        z = rng.normal(0.0, cfg.roughness, size=len(xy)) if cfg.roughness > 0 else np.zeros(len(xy))
        kept.append(np.c_[xy, z])
        remaining -= len(xy)
    if remaining > 0:
        raise ValueError("dropout polygons cover too much of the scene")
    return np.vstack(kept) if kept else np.empty((0, 3))


@dataclass(frozen=True)
class FrameObservations:
    """Stereo pixel observations of one camera frame.

    Row k of the read-only ``uv_l`` and ``uv_r`` (N, 2) holds the left and
    right pixels of feature ``ids[k]``; ids ascend strictly.
    """

    frame: int
    t: float
    ids: np.ndarray
    uv_l: np.ndarray
    uv_r: np.ndarray

    def __post_init__(self):
        freeze_feature_rows(self, f"frame {self.frame}", ("uv_l", "uv_r"))


def render_tracks(scene: np.ndarray, truth: GroundTruth, rig: CameraRig,
                  noise_px: float = 0.0, seed: int = 0,
                  min_depth: float = 0.05) -> list[FrameObservations]:
    """Project every feature into both cameras at every camera frame.

    Visibility requires positive depth and in-bounds pixels in both
    views (evaluated noise-free); i.i.d. Gaussian pixel noise of std
    ``noise_px`` is then added.  Track ids are the feature indices, so
    they are stable across keyframes.

    Frames are projected ``_RENDER_CHUNK`` at a time in one stacked pass.
    The noise draw order is that of one frame at a time: each visible
    feature, in bounds or not, draws its left pixel noise, then its right,
    as an (n, 2) block per view and frame.
    """
    rng = np.random.default_rng(seed)
    r_cb = rig.T_c_b.rotation.matrix()
    t_cb = rig.T_c_b.translation
    cam = truth.cam_indices
    r_bw = quat_matrices(truth.quat_wxyz)[cam]
    cam_pos = truth.position[cam] + r_bw @ t_cb
    r_wc = (r_bw @ r_cb).transpose(0, 2, 1)
    scene_t = np.ascontiguousarray(scene.T)
    frames: list[FrameObservations] = []
    for lo in range(0, len(cam), _RENDER_CHUNK):
        hi = min(lo + _RENDER_CHUNK, len(cam))
        # left-camera points, coordinate-major (F, 3, N); the right camera
        # sits at +baseline along camera x, so it sees the same depths
        p_c = r_wc[lo:hi] @ (scene_t - cam_pos[lo:hi, :, None])
        rows = np.flatnonzero(p_c[:, 2] > min_depth)
        frame_of, ids = np.divmod(rows, len(scene))  # frame by frame, ids ascending
        # visible points, coordinate-major (3, M), so project reads contiguous columns
        q_l = np.take(p_c.transpose(1, 0, 2).reshape(3, -1), rows, axis=1)
        q_r = q_l.copy()
        q_r[0] -= rig.baseline
        uvl = project(rig, q_l.T)
        uvr = project(rig, q_r.T)
        inb = ((uvl[:, 0] >= 0) & (uvl[:, 0] < rig.width)
               & (uvl[:, 1] >= 0) & (uvl[:, 1] < rig.height)
               & (uvr[:, 0] >= 0) & (uvr[:, 0] < rig.width)
               & (uvr[:, 1] >= 0) & (uvr[:, 1] < rig.height))
        uvl, uvr = uvl[inb], uvr[inb]
        if noise_px > 0.0 and len(ids):
            # draws in pairs: the frames before row j's frame drew 2 pairs
            # per visible row, its own frame 1 pair per row before j for the
            # left view, then its whole left block before the right view
            noise = rng.normal(0.0, noise_px, size=(2 * len(ids), 2))
            counts = np.bincount(frame_of, minlength=hi - lo)
            left = (np.cumsum(counts) - counts)[frame_of] + np.arange(len(ids))
            right = left + counts[frame_of]
            uvl = uvl + np.take(noise, left[inb], axis=0)
            uvr = uvr + np.take(noise, right[inb], axis=0)
        ids, frame_of = ids[inb], frame_of[inb]
        for a in (ids, uvl, uvr):
            a.setflags(write=False)  # FrameObservations keeps views, not copies
        bounds = np.searchsorted(frame_of, np.arange(hi - lo + 1))
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            frames.append(FrameObservations(lo + j, float(truth.t[cam[lo + j]]),
                                            ids[a:b], uvl[a:b], uvr[a:b]))
    return frames


def synthesize_imu(truth: GroundTruth, gyro_bias=(0.0, 0.0, 0.0),
                   accel_bias=(0.0, 0.0, 0.0), gyro_noise_density: float = 0.0,
                   accel_noise_density: float = 0.0, gravity=GRAVITY_NED,
                   seed: int = 0) -> ImuStream:
    """IMU stream from the analytic trajectory.

    Gyro: body angular rate plus bias plus white noise; accel: specific
    force R_w^b (a_world - g) plus bias plus white noise.  Noise
    densities are continuous-time (per sqrt(Hz)); the per-sample standard
    deviation is density * sqrt(rate).
    """
    rng = np.random.default_rng(seed)
    g = np.asarray(gravity, dtype=np.float64)
    rate = 1.0 / float(np.mean(np.diff(truth.t)))
    mats = quat_matrices(truth.quat_wxyz)
    specific = np.einsum("nij,nj->ni", mats.transpose(0, 2, 1), truth.accel_world - g)
    gyro = truth.omega_body + np.asarray(gyro_bias, dtype=np.float64)
    accel = specific + np.asarray(accel_bias, dtype=np.float64)
    if gyro_noise_density > 0.0:
        gyro = gyro + rng.normal(0.0, gyro_noise_density * math.sqrt(rate), size=gyro.shape)
    if accel_noise_density > 0.0:
        accel = accel + rng.normal(0.0, accel_noise_density * math.sqrt(rate), size=accel.shape)
    return ImuStream(truth.t, gyro, accel)


@dataclass(frozen=True)
class NoiseModel:
    """Sensor noise defaults: consumer-grade MEMS and sub-pixel tracking."""

    pixel_px: float = 0.5
    gyro_noise_density: float = 2e-4    # rad/s/sqrt(Hz)
    accel_noise_density: float = 2e-3   # m/s^2/sqrt(Hz)
    gyro_bias: tuple = (2e-4, -1.5e-4, 1e-4)
    accel_bias: tuple = (5e-3, -4e-3, 6e-3)

    def __post_init__(self):
        """Reject a noise level that is negative or not finite, and a bias
        that is not finite."""
        for name in ("pixel_px", "gyro_noise_density", "accel_noise_density"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("gyro_bias", "accel_bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass
class Dataset:
    """Everything one synthetic flight produces."""

    rig: CameraRig
    imu: ImuStream
    frames: list
    truth: GroundTruth
    scene_config: SceneConfig
    profile: TrajectoryProfile
    noise: NoiseModel

    @property
    def cam_period(self) -> float:
        return 1.0 / self.profile.cam_rate_hz


def make_dataset(scene_cfg: SceneConfig, profile: TrajectoryProfile,
                 rig: CameraRig | None = None,
                 noise: NoiseModel | None = None, seed: int = 0,
                 gravity=GRAVITY_NED) -> Dataset:
    """Generate a complete dataset; pure function of configs and seed."""
    rig = rig or CameraRig.default()
    noise = noise or NoiseModel()
    ss = np.random.SeedSequence(seed)
    scene_seed, track_seed, imu_seed = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    scene = generate_scene(replace(scene_cfg, seed=scene_cfg.seed + scene_seed))
    truth = generate_trajectory(profile)
    truth.features = scene
    frames = render_tracks(scene, truth, rig, noise.pixel_px, seed=track_seed)
    imu = synthesize_imu(truth, noise.gyro_bias, noise.accel_bias,
                         noise.gyro_noise_density, noise.accel_noise_density,
                         gravity, seed=imu_seed)
    return Dataset(rig, imu, frames, truth, scene_cfg, profile, noise)


# ---------------------------------------------------------------- disk I/O

FEATURES_HEADER = ["frame", "t", "feature_id", "uL", "vL", "uR", "vR"]
GROUNDTRUTH_HEADER = ["t", "px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz"]


def write_dataset(out_dir, ds: Dataset) -> str:
    """Write the on-disk layout; returns a content digest for reproducibility."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_rig(out / "rig.json", ds.rig)
    save_imu_csv(out / "imu.csv", ds.imu)

    with open(out / "features.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(FEATURES_HEADER)
        for fr in ds.frames:
            # the rows csv.writer would write: nothing to quote, \r\n line ends
            head = f"{fr.frame},{fr.t!r},"
            fh.writelines(f"{head}{fid},{ul[0]!r},{ul[1]!r},{ur[0]!r},{ur[1]!r}\r\n"
                          for fid, ul, ur in zip(fr.ids.tolist(), fr.uv_l.tolist(),
                                                 fr.uv_r.tolist()))

    with open(out / "groundtruth.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(GROUNDTRUTH_HEADER)
        for k in ds.truth.cam_indices:
            row = [ds.truth.t[k], *ds.truth.position[k], *ds.truth.quat_wxyz[k],
                   *ds.truth.velocity[k]]
            w.writerow([repr(float(x)) for x in row])

    plane = []
    for frame_no, k in enumerate(ds.truth.cam_indices):
        n_c, d = ds.truth.plane_in_camera(int(k), ds.rig)
        plane.append({"frame": frame_no, "t": float(ds.truth.t[k]),
                      "n_c": [float(v) for v in n_c], "d": d})
    scene_meta = {
        "preset": ds.scene_config.preset,
        "roughness": ds.scene_config.roughness,
        "extent": list(ds.scene_config.extent),
        "feature_count": ds.scene_config.feature_count,
        "profile": ds.profile.kind,
        "cam_rate_hz": ds.profile.cam_rate_hz,
        "imu_rate_hz": ds.profile.imu_rate_hz,
        "keyframes": plane,
    }
    (out / "scene.json").write_text(json.dumps(scene_meta, indent=2))
    return dataset_digest(out)


def dataset_digest(dataset_dir) -> str:
    h = hashlib.sha256()
    for name in ("rig.json", "imu.csv", "features.csv", "groundtruth.csv", "scene.json"):
        h.update(name.encode())
        h.update((Path(dataset_dir) / name).read_bytes())
    return h.hexdigest()


@dataclass
class LoadedDataset:
    """On-disk dataset view: enough to run the pipeline and evaluate it."""

    rig: CameraRig
    imu: ImuStream
    frames: list
    gt_t: np.ndarray
    gt_position: np.ndarray
    gt_quat: np.ndarray
    gt_velocity: np.ndarray
    scene_meta: dict

    @property
    def cam_period(self) -> float:
        return 1.0 / float(self.scene_meta["cam_rate_hz"])


def _is_integer(v: np.ndarray) -> np.ndarray:
    """Which values are integers that int64 holds."""
    return np.isfinite(v) & (np.floor(v) == v) & (np.abs(v) < 2.0 ** 63)


def load_dataset(dataset_dir) -> LoadedDataset:
    """Read a dataset written by :func:`write_dataset`.

    ``features.csv`` rows may come in any order; a repeated
    ``(frame, feature_id)`` row raises ``ValueError``.
    """
    root = Path(dataset_dir)
    rig = load_rig(root / "rig.json")
    imu = load_imu_csv(root / "imu.csv")
    gt = np.loadtxt(root / "groundtruth.csv", delimiter=",", skiprows=1, ndmin=2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty features.csv is legitimate
        raw = np.loadtxt(root / "features.csv", delimiter=",", skiprows=1, ndmin=2)
    if raw.size == 0:
        raw = np.empty((0, 7))
    # rows the stable sort below would misfile: a fractional id, or a frame
    # with no groundtruth row; and a row whose time is not its frame's
    # groundtruth time (both are written with repr, so they compare exactly)
    frame, t, fid = raw[:, 0], raw[:, 1], raw[:, 2]
    whole = _is_integer(frame)
    mistimed = whole & (frame >= 0) & (frame < len(gt))
    mistimed[mistimed] = t[mistimed] != gt[frame[mistimed].astype(np.int64), 0]
    for name, col, bad, what in (
            ("frame", frame, ~whole, "is not an integer"),
            ("feature_id", fid, ~_is_integer(fid), "is not an integer"),
            ("frame", frame, (frame < 0) | (frame >= len(gt)),
             f"lies outside the {len(gt)} groundtruth frames"),
            ("t", t, mistimed, "is not its frame's groundtruth time")):
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(f"features.csv data row {k + 1}: {name} {float(col[k])!r} {what}")
    # one stable sort by (frame, feature id) splits the rows into frames
    frame_no = raw[:, 0].astype(np.int64)
    fids = raw[:, 2].astype(np.int64)
    order = np.lexsort((fids, frame_no))
    frame_no, fids = frame_no[order], fids[order]
    dup = (frame_no[1:] == frame_no[:-1]) & (fids[1:] == fids[:-1])
    if dup.any():
        k = int(np.flatnonzero(dup)[0])
        raise ValueError(f"features.csv repeats feature {fids[k]} in frame {frame_no[k]}")
    uv_l, uv_r = raw[order, 3:5], raw[order, 5:7]
    # the groundtruth rows define the camera-frame timeline; frames without
    # any visible feature are real (empty) frames, not gaps
    bounds = np.searchsorted(frame_no, np.arange(len(gt) + 1))
    frames = [FrameObservations(k, float(gt[k, 0]), fids[a:b], uv_l[a:b], uv_r[a:b])
              for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
    scene_meta = json.loads((root / "scene.json").read_text())
    return LoadedDataset(rig, imu, frames, gt[:, 0], gt[:, 1:4], gt[:, 4:8],
                         gt[:, 8:11], scene_meta)
