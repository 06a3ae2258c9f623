"""Deterministic synthetic take-off datasets: planar scene, trajectory,
stereo feature tracks, and IMU streams.

World frame is NED (z down); the ground plane is z = 0 and altitude h
means body position z = -h.  The body starts level and at rest.  A
take-off starts at the origin, so the world frame coincides with the
initial body frame, matching the pipeline's IMU-only anchor; a hover
starts aloft, and evaluation measures positions from rest.  The
downward-looking left camera shares the body axes by default (optical
axis +z = down); the right camera sits at +baseline along camera x.

All randomness flows from explicit seeds; a dataset is a pure function of
its configuration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .geometry import (
    CameraRig,
    FrameObservations,
    Pose,
    Rotation,
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


class Frames(Sequence):
    """Read-only sequence of a flight's camera frames, each built on first
    access and then kept.

    ``times`` (read-only) holds every frame's timestamp, so finding a frame
    by time builds none.  ``build(ks)`` returns the frames numbered in
    ``ks``, an ascending list of frames not built yet.  Indexing builds one
    frame, a slice is a list of the frames it picks and hands every missing
    one to ``build`` in one call, and iteration builds ``_RENDER_CHUNK`` at
    a time.  Building holds a lock, so threads may share a sequence.
    """

    def __init__(self, times, build):
        self.times = np.array(times, dtype=np.float64)
        self.times.setflags(write=False)
        self._build = build
        self._built: list = [None] * len(self.times)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._fill(range(*key.indices(len(self))))
        k = operator.index(key)
        if not -len(self) <= k < len(self):
            raise IndexError(f"frame {k} of {len(self)}")
        k %= len(self)
        fr = self._built[k]
        return fr if fr is not None else self._fill((k,))[0]

    def __iter__(self):
        for lo in range(0, len(self), _RENDER_CHUNK):
            yield from self._fill(range(lo, min(lo + _RENDER_CHUNK, len(self))))

    def _fill(self, ks) -> list:
        """The frames numbered in ``ks``, building those not built yet in
        one call."""
        with self._lock:
            missing = sorted({k for k in ks if self._built[k] is None})
            if missing:
                for k, fr in zip(missing, self._build(missing)):
                    self._built[k] = fr
            return [self._built[k] for k in ks]


class _Render:
    """Renders camera frames of one flight.

    Frame k draws its pixel noise from its own generator, seeded by
    ``SeedSequence(seed, spawn_key=(k,))`` (the k-th child that
    ``SeedSequence(seed).spawn`` gives), as one (kept rows, 4) block in
    the column order uL, vL, uR, vR.  A frame's pixels therefore depend on
    no other frame, and rendering it draws no other frame's noise.  The
    frames asked for, consecutive or not, are projected in stacked passes
    of at most ``_RENDER_CHUNK`` frames.
    """

    def __init__(self, scene, truth, rig, noise_px, seed, min_depth):
        r_cb = rig.T_c_b.rotation.matrix()
        cam = truth.cam_indices
        r_bw = quat_matrices(truth.quat_wxyz)[cam]
        self.times = truth.t[cam]
        self._cam_pos = truth.position[cam] + r_bw @ rig.T_c_b.translation
        self._r_wc = (r_bw @ r_cb).transpose(0, 2, 1)
        self._scene_t = np.ascontiguousarray(scene.T)
        self._rig = rig
        self._noise_px = noise_px
        self._seed = seed
        self._min_depth = min_depth

    def __call__(self, ks: list[int]) -> list[FrameObservations]:
        return [fr for a in range(0, len(ks), _RENDER_CHUNK)
                for fr in self._render(ks[a:a + _RENDER_CHUNK])]

    def _render(self, ks: list[int]) -> list[FrameObservations]:
        """The frames numbered in ``ks``, in one stacked pass."""
        rig = self._rig
        # left-camera points, coordinate-major (F, 3, N); the right camera
        # sits at +baseline along camera x, so it sees the same depths
        p_c = self._r_wc[ks] @ (self._scene_t - self._cam_pos[ks, :, None])
        rows = np.flatnonzero(p_c[:, 2] > self._min_depth)
        frame_of, ids = np.divmod(rows, p_c.shape[2])  # frame by frame, ids ascending
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
        uvl, uvr, ids, frame_of = uvl[inb], uvr[inb], ids[inb], frame_of[inb]
        bounds = np.searchsorted(frame_of, np.arange(len(ks) + 1)).tolist()
        if self._noise_px > 0.0:
            noise = np.concatenate([self._noise(k, b - a) for k, a, b
                                    in zip(ks, bounds[:-1], bounds[1:])])
            uvl = uvl + noise[:, :2]
            uvr = uvr + noise[:, 2:]
        for a in (ids, uvl, uvr):
            a.setflags(write=False)  # FrameObservations keeps views, not copies
        return [FrameObservations(k, float(self.times[k]), ids[a:b], uvl[a:b], uvr[a:b])
                for k, a, b in zip(ks, bounds[:-1], bounds[1:])]

    def _noise(self, k: int, n: int) -> np.ndarray:
        """Frame k's pixel noise for its n kept rows, (n, 4)."""
        rng = np.random.default_rng(np.random.SeedSequence(self._seed, spawn_key=(k,)))
        return rng.normal(0.0, self._noise_px, size=(n, 4))


def render_tracks(scene: np.ndarray, truth: GroundTruth, rig: CameraRig,
                  noise_px: float = 0.0, seed: int = 0,
                  min_depth: float = 0.05) -> Frames:
    """Every feature projected into both cameras at every camera frame,
    each frame rendered on first access.

    Visibility requires positive depth and in-bounds pixels in both
    views (evaluated noise-free); i.i.d. Gaussian pixel noise of std
    ``noise_px`` is then added to the kept rows, from a generator of the
    frame's own (see ``_Render``).  Track ids are the feature indices, so
    they are stable across keyframes.  A frame's pixels depend only on
    ``seed`` and the frame itself: not on which frames were rendered
    before it, in what order, or what the other frames see.  Iteration
    renders ``_RENDER_CHUNK`` frames in one stacked pass.  ``noise_px``
    must be finite and >= 0, as in ``NoiseModel``.  ``min_depth`` must be
    positive: the pinhole projects no point at or behind the camera centre.
    """
    if not (math.isfinite(noise_px) and noise_px >= 0.0):
        raise ValueError(f"noise_px must be finite and >= 0, got {noise_px!r}")
    if not min_depth > 0.0:
        raise ValueError(f"min_depth must be positive, got {min_depth!r}")
    render = _Render(scene, truth, rig, noise_px, seed, min_depth)
    return Frames(render.times, render)


def synthesize_imu(truth: GroundTruth, gyro_bias=(0.0, 0.0, 0.0),
                   accel_bias=(0.0, 0.0, 0.0), gyro_noise_density: float = 0.0,
                   accel_noise_density: float = 0.0, seed: int = 0) -> ImuStream:
    """IMU stream from the analytic trajectory.

    Gyro: body angular rate plus bias plus white noise; accel: specific
    force R_w^b (a_world - g), g = ``GRAVITY_NED``, plus bias plus white
    noise.  Noise densities are continuous-time (per sqrt(Hz)); the
    per-sample standard deviation is density * sqrt(rate).
    """
    rng = np.random.default_rng(seed)
    rate = 1.0 / float(np.mean(np.diff(truth.t)))
    mats = quat_matrices(truth.quat_wxyz)
    specific = np.einsum("nij,nj->ni", mats.transpose(0, 2, 1), truth.accel_world - GRAVITY_NED)
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
    frames: Frames
    truth: GroundTruth
    scene_config: SceneConfig
    profile: TrajectoryProfile
    noise: NoiseModel

    @property
    def cam_period(self) -> float:
        return 1.0 / self.profile.cam_rate_hz


def make_dataset(scene_cfg: SceneConfig, profile: TrajectoryProfile,
                 rig: CameraRig | None = None,
                 noise: NoiseModel | None = None, seed: int = 0) -> Dataset:
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
                         seed=imu_seed)
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
    frames: Frames
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


def _read_rows(path: Path, columns: int) -> np.ndarray:
    """The data rows (n, ``columns``) of a csv file below its header line.

    A file with no data rows gives none; another column count raises
    ``ValueError`` naming the file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size == 0:
        return np.empty((0, columns))
    if rows.shape[1] != columns:
        raise ValueError(f"{path.name}: expected {columns} columns, got {rows.shape[1]}")
    return rows


class _FeatureRows:
    """The rows of ``features.csv``, checked at load, their pixel fields
    parsed when their frame is first built.

    One vectorized pass over the file's bytes finds every line and its
    commas; each data line must have 7 fields.  The ``frame``, ``t`` and
    ``feature_id`` fields of every row are then parsed by one np.loadtxt
    call: ``frame`` must be an integer naming a groundtruth frame,
    ``feature_id`` an integer, ``t`` that frame's groundtruth time, and no
    ``(frame, feature_id)`` may repeat.  Lines end in LF, CRLF or CR; empty
    lines are skipped and do not count as data rows.
    """

    def __init__(self, path: Path, gt_t: np.ndarray):
        self.path = path
        buf = np.frombuffer(path.read_bytes(), dtype=np.uint8)
        # LF, CRLF and a lone CR end a line, as in the text mode np.loadtxt read
        lf, cr = buf == ord("\n"), buf == ord("\r")
        cr[:-1] &= ~lf[1:]
        ends = np.flatnonzero(lf | cr)
        if len(buf) and not (lf[-1] or cr[-1]):
            ends = np.append(ends, len(buf))  # a last line without a line break
        starts = np.concatenate(([0], ends + 1))[:len(ends)]
        crlf = ((ends > starts) & lf[np.minimum(ends, len(buf) - 1)]
                & (buf[np.maximum(ends - 1, 0)] == ord("\r")))
        ends = ends - crlf  # a line's text stops at the CR of its CRLF
        keep = ends > starts
        keep[:1] = False  # the header line
        starts, ends = starts[keep], ends[keep]
        commas = np.flatnonzero(buf == ord(","))
        first = np.searchsorted(commas, starts)
        fields = np.searchsorted(commas, ends) - first + 1
        bad = np.flatnonzero(fields != len(FEATURES_HEADER))
        if len(bad):
            raise DatasetError(f"{path.name}: expected {len(FEATURES_HEADER)} columns, "
                               f"got {fields[bad[0]]}")
        cut = commas[first[:, None] + np.arange(len(FEATURES_HEADER) - 1)]
        self._buf = buf
        # field k of data row i + 1 is buf[lo[i, k]:hi[i, k]]
        self._lo = np.column_stack([starts, cut + 1])
        self._hi = np.column_stack([cut, ends])
        frame, t, fid = self._parse(np.arange(len(starts)), 0, 2).T
        n_gt = len(gt_t)
        # rows the sort below would misfile: a fractional id, or a frame with
        # no groundtruth row; and a row whose time is not its frame's
        # groundtruth time (both are written with repr, so they compare exactly)
        whole = _is_integer(frame)
        mistimed = whole & (frame >= 0) & (frame < n_gt)
        mistimed[mistimed] = t[mistimed] != gt_t[frame[mistimed].astype(np.int64)]
        for col, values, bad, what in (
                (0, frame, ~whole, "is not an integer"),
                (2, fid, ~_is_integer(fid), "is not an integer"),
                (0, frame, (frame < 0) | (frame >= n_gt),
                 f"lies outside the {n_gt} groundtruth frames"),
                (1, t, mistimed, "is not its frame's groundtruth time")):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise self._error(i, col, float(values[i]), what)
        # one stable sort by (frame, feature id) splits the rows into frames
        frame_no, fids = frame.astype(np.int64), fid.astype(np.int64)
        self.row = np.lexsort((fids, frame_no))  # data row - 1, in (frame, id) order
        frame_no, fids = frame_no[self.row], fids[self.row]
        dup = (frame_no[1:] == frame_no[:-1]) & (fids[1:] == fids[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise DatasetError(f"{path.name} repeats feature {fids[k]} in frame {frame_no[k]}")
        fids.setflags(write=False)  # each frame keeps views, not copies
        self.fids = fids
        # the groundtruth rows define the camera-frame timeline; frames
        # without any visible feature are real (empty) frames, not gaps
        self.bounds = np.searchsorted(frame_no, np.arange(n_gt + 1))

    def _error(self, i: int, col: int, value, what: str) -> DatasetError:
        shown = value.decode("ascii", "replace") if isinstance(value, bytes) else value
        return DatasetError(f"{self.path.name} data row {i + 1}: "
                            f"{FEATURES_HEADER[col]} {shown!r} {what}")

    def pixels(self, ks: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """``uv_l`` and ``uv_r`` of the rows of frames ``ks``, in order,
        parsed by one np.loadtxt call."""
        rows = np.concatenate([np.arange(self.bounds[k], self.bounds[k + 1]) for k in ks])
        uv = self._parse(self.row[rows], 3, 6)
        return np.ascontiguousarray(uv[:, :2]), np.ascontiguousarray(uv[:, 2:])

    def _parse(self, rows: np.ndarray, first: int, last: int) -> np.ndarray:
        """Fields ``first``..``last`` of data rows ``rows + 1``, one row each
        (len(rows), last - first + 1), parsed by one np.loadtxt call."""
        if not len(rows):
            return np.empty((0, last - first + 1))
        lo, hi = self._lo[rows, first], self._hi[rows, last]
        size = hi - lo + 1  # each row's text and a line break
        at = np.cumsum(size) - size
        # the byte after a row's text, its line break, a comma or past the
        # end of the file, becomes a line break
        index = np.repeat(lo - at, size) + np.arange(int(size.sum()))
        text = self._buf[np.minimum(index, len(self._buf) - 1)]
        text[at + size - 1] = ord("\n")
        try:
            return self._loadtxt(text.tobytes())
        except ValueError:
            raise self._field_error(rows, first, last) from None

    @staticmethod
    def _loadtxt(text: bytes) -> np.ndarray:
        return np.loadtxt(io.StringIO(text.decode("latin-1")), delimiter=",",
                          comments=None, ndmin=2)

    def _field_error(self, rows: np.ndarray, first: int, last: int) -> DatasetError:
        """The error for the first field, in file order, of fields
        ``first``..``last`` of data rows ``rows + 1`` that np.loadtxt reads
        no number from.  A joint parse of the rows fails only on such a
        field, so there is one."""

        def is_number(text: bytes) -> bool:
            if not text.strip():  # loadtxt skips a blank line, parsing nothing
                return False
            try:
                self._loadtxt(text + b"\n")
            except ValueError:
                return False
            return True

        fields = ((i, col, self._buf[self._lo[i, col]:self._hi[i, col]].tobytes())
                  for i in np.sort(rows).tolist() for col in range(first, last + 1))
        i, col, text = next(f for f in fields if not is_number(f[2]))
        return self._error(i, col, text, "is not a number")


def load_dataset(dataset_dir) -> LoadedDataset:
    """Read a dataset written by :func:`write_dataset`.

    Every row of ``features.csv`` is checked here (see :class:`_FeatureRows`)
    and rows may come in any order; a malformed one raises
    :class:`~planar_init.errors.DatasetError`, a ``ValueError``, naming the
    data row, as does a csv file with a column too many or too few.  A
    frame's pixels are parsed when it is first read, so a pixel field that
    does not parse raises ``DatasetError`` then, and only if its frame is
    read.
    """
    root = Path(dataset_dir)
    rig = load_rig(root / "rig.json")
    imu = load_imu_csv(root / "imu.csv")
    gt = _read_rows(root / "groundtruth.csv", len(GROUNDTRUTH_HEADER))
    rows = _FeatureRows(root / "features.csv", gt[:, 0])
    fids, bounds = rows.fids, rows.bounds.tolist()

    def build(ks: list[int]) -> list[FrameObservations]:
        uv_l, uv_r = rows.pixels(ks)
        for a in (uv_l, uv_r):
            a.setflags(write=False)
        out, at = [], 0
        for k in ks:
            a, b = bounds[k], bounds[k + 1]
            end = at + b - a
            # frames.times is a frozen copy: a later write to gt_t reaches no frame
            out.append(FrameObservations(k, float(frames.times[k]), fids[a:b],
                                         uv_l[at:end], uv_r[at:end]))
            at = end
        return out

    frames = Frames(gt[:, 0], build)
    scene_meta = json.loads((root / "scene.json").read_text())
    return LoadedDataset(rig, imu, frames, gt[:, 0], gt[:, 1:4], gt[:, 4:8],
                         gt[:, 8:11], scene_meta)
