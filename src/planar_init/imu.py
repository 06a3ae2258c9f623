"""Discrete-time IMU propagation for the pre-initialization phase.

Midpoint (trapezoidal) integration between consecutive samples; biases
are held constant.  Gravity is the world-frame constant ``GRAVITY_NED``,
down-positive along +z, and the world frame is the body frame at rest:
the ground plane's normal is world +z, and a camera sees it through the
attitude the pass holds at its frame.

A stream is held as arrays (:class:`ImuStream`), and so is the state at
every sample of a pass (:class:`NavTrack`), which a run computes once and
reads all its IMU motion off: each keyframe's attitude, position and
velocity, and the rotation between two keyframes.  Propagation computes
every interval's rotation increment in one vectorized step; only the
quaternion chain runs sample by sample, on plain floats.  The
world-rotated specific force then comes from one batched product, and
velocity and position from cumulative sums of the midpoint recurrence.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import StreamError
from .geometry import Pose, Rotation, quat_matrices

GRAVITY_NED = np.array([0.0, 0.0, 9.81])
GRAVITY_NED.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ImuStream:
    """IMU readings as arrays, body frame.

    ``t`` (N,) seconds, ``gyro`` (N, 3) rad/s and ``accel`` (N, 3) specific
    force in m/s^2.  Construction copies the inputs, rejects an empty
    stream and checks once that the timestamps strictly increase; slices
    taken by :func:`slice_between` are read-only views of the same arrays.
    """

    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=np.float64)
        gyro = np.array(self.gyro, dtype=np.float64)
        accel = np.array(self.accel, dtype=np.float64)
        if t.ndim != 1 or gyro.shape != (len(t), 3) or accel.shape != (len(t), 3):
            raise ValueError(f"expected t (N,), gyro and accel (N, 3); got "
                             f"{t.shape}, {gyro.shape}, {accel.shape}")
        if len(t) == 0:
            raise StreamError("empty IMU sample stream")
        rising = np.diff(t) > 0.0  # False for NaN as well
        if not rising.all():
            k = int(np.argmin(rising)) + 1
            raise StreamError(f"non-monotonic timestamps at t={t[k]}")
        for name, a in (("t", t), ("gyro", gyro), ("accel", accel)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def _view(self, start: int, stop: int) -> "ImuStream":
        """Samples ``start:stop`` without copying or checking again."""
        out = object.__new__(ImuStream)
        for name in ("t", "gyro", "accel"):
            object.__setattr__(out, name, getattr(self, name)[start:stop])
        return out

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class NavState:
    """Timestamped body pose in world, velocity, and constant biases."""

    t: float
    pose: Pose
    velocity: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray

    def __post_init__(self):
        if self.pose.of_frame != "b" or self.pose.in_frame != "w":
            raise ValueError("NavState pose must carry frames (of='b', in='w')")
        for name in ("velocity", "gyro_bias", "accel_bias"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(3).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def nav_state_at_rest(t: float, gyro_bias=(0.0, 0.0, 0.0),
                      accel_bias=(0.0, 0.0, 0.0)) -> NavState:
    """Stationary, level state anchoring the world frame at the body."""
    return NavState(t, Pose(Rotation.identity(), np.zeros(3), "b", "w"),
                    np.zeros(3),
                    np.asarray(gyro_bias, dtype=np.float64),
                    np.asarray(accel_bias, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class NavTrack:
    """The state at every sample of one :func:`propagate` pass.

    ``t`` (N,) seconds, attitudes ``quat`` (N, 4) wxyz, ``position`` and
    ``velocity`` (N, 3), all read-only, and the pass's constant biases.
    ``track[k]`` is the :class:`NavState` at sample k; ``track[a:b]`` is a
    track of samples a to b - 1 that views the same arrays.
    """

    t: np.ndarray
    quat: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return replace(self, t=self.t[k], quat=self.quat[k],
                           position=self.position[k], velocity=self.velocity[k])
        return NavState(float(self.t[k]),
                        Pose(Rotation(self.quat[k]), self.position[k], "b", "w"),
                        self.velocity[k], self.gyro_bias, self.accel_bias)

    def index_at(self, times) -> np.ndarray:
        """Index of the state at each of ``times`` (see :func:`nearest_index`);
        a time before the first sample reads the state the pass started from."""
        return nearest_index(self.t, times)


def nearest_index(t: np.ndarray, times) -> np.ndarray:
    """Index into the increasing, non-empty ``t`` of the sample nearest each
    of ``times``: the earlier of two within ``SLICE_TOL_S`` of a tie, the
    first or last sample for a time outside them."""
    times = np.asarray(times, dtype=np.float64)
    if len(t) == 1:
        return np.zeros(times.shape, dtype=np.intp)
    after = np.clip(np.searchsorted(t, times), 1, len(t) - 1)
    before = after - 1
    nearer = t[after] - times < times - t[before] - SLICE_TOL_S
    return np.where(nearer, after, before)


def _require(samples, count: int, what: str) -> None:
    if len(samples) == 0:
        raise StreamError("empty IMU sample stream")
    if len(samples) < count:
        raise StreamError(f"need at least {count} samples to {what}")


def _increments(samples: ImuStream, gyro_bias) -> np.ndarray:
    """Unit quaternions (N-1, 4) of each interval's bias-corrected mean gyro.

    The exponential map of ``omega * dt``; below 1e-12 rad the vector part
    is ``rotvec / 2``, the limit of ``rotvec * sin(angle / 2) / angle``.
    """
    dt = np.diff(samples.t)[:, None]
    rotvec = (0.5 * (samples.gyro[:-1] + samples.gyro[1:]) - gyro_bias) * dt
    angle = np.sqrt(np.einsum("ij,ij->i", rotvec, rotvec))
    half = 0.5 * angle
    sinc = np.divide(np.sin(half), angle, out=np.full_like(angle, 0.5),
                     where=angle >= 1e-12)
    q = np.empty((len(rotvec), 4))
    q[:, 0] = np.cos(half)
    q[:, 1:] = rotvec * sinc[:, None]
    return q


def _chain(q0: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Attitudes (N, 4): ``q0`` right-multiplied by each increment in turn.

    Hamilton products on plain floats, renormalized after every step.
    """
    w, x, y, z = (float(c) for c in q0)
    out = [(w, x, y, z)]
    for a, b, c, d in increments.tolist():
        w, x, y, z = (w * a - x * b - y * c - z * d,
                      w * b + x * a + y * d - z * c,
                      w * c - x * d + y * a + z * b,
                      w * d + x * c - y * b + z * a)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        out.append((w, x, y, z))
    return np.array(out)


def propagate(state: NavState, samples: ImuStream) -> NavTrack:
    """Midpoint strapdown propagation: the state at every sample of a stream.

    The stream must start at ``state.t``; item 0 of the track is ``state``
    at the first sample.  Rotation integrates the bias-corrected mean gyro
    of each interval; velocity and position use the average of the
    world-rotated specific force at both endpoints plus gravity.
    """
    _require(samples, 1, "propagate")
    if abs(samples.t[0] - state.t) > 1e-9:
        raise StreamError(
            f"stream starts at {samples.t[0]}, state is at {state.t}")
    b_g, b_a = state.gyro_bias, state.accel_bias
    dt = np.diff(samples.t)[:, None]
    quats = _chain(state.pose.rotation.quat, _increments(samples, b_g))
    f_w = np.einsum("nij,nj->ni", quat_matrices(quats), samples.accel - b_a)
    a_w = 0.5 * (f_w[:-1] + f_w[1:]) + GRAVITY_NED
    # v_k+1 = v_k + a_k dt and p_k+1 = (p_k + v_k dt) + a_k dt^2 / 2, each
    # summed left to right in that order
    v = np.cumsum(np.concatenate(([state.velocity], a_w * dt)), axis=0)
    steps = np.empty((2 * len(dt) + 1, 3))
    steps[0] = state.pose.translation
    steps[1::2] = v[:-1] * dt
    steps[2::2] = 0.5 * a_w * dt * dt
    p = np.cumsum(steps, axis=0)[::2]
    for a in (quats, p, v):
        a.setflags(write=False)
    return NavTrack(samples.t, quats, p, v, b_g, b_a)


def integrate_camera_rotation(track: NavTrack, T_c_b: Pose) -> Rotation:
    """The body attitude change over a span of a pass, in the camera frame.

    Returns R mapping camera coordinates at the track's first state to
    camera coordinates at its last.  Spans cut from one pass share their
    end states, so the rotations of consecutive spans compose to that of
    their union.
    """
    _require(track, 2, "integrate rotation")
    # the body attitude at the last state in the body frame at the first
    gamma = Rotation(track.quat[0]).inverse() @ Rotation(track.quat[-1])
    r_cb = T_c_b.rotation
    return r_cb.inverse() @ gamma.inverse() @ r_cb


STATIONARY_WINDOW_S = 0.5
"""Seconds that :func:`is_stationary` averages: half the simulator's 1 s
rest, 101 samples at 200 Hz, whose mean has a tenth of a sample's noise."""

STATIONARY_ACCEL_TOL = 0.05
"""Largest gap of the mean specific-force magnitude from |g|, as a share of
|g| (0.49 m/s^2): over 100 times the mean's noise at the default IMU noise."""

STATIONARY_GYRO_TOL = 0.01
"""Largest mean angular rate, rad/s: over 30 times the mean's noise at the
default IMU noise; turning this fast tilts the body by 0.3 deg in the window."""

SLICE_TOL_S = 1e-9
"""Seconds by which :func:`slice_between` widens [t0, t1] at both ends, and
by which :func:`nearest_index` counts two samples as equally near, so
that rounding alone neither drops a sample on a keyframe time nor picks
between two; far below 5 ms."""


def is_stationary(samples: ImuStream) -> bool:
    """Stationarity gate for anchoring the world frame at the body at rest.

    Averages the first ``STATIONARY_WINDOW_S`` seconds: mean accel
    magnitude within ``STATIONARY_ACCEL_TOL * g`` of g (``GRAVITY_NED``)
    and mean gyro magnitude below ``STATIONARY_GYRO_TOL`` rad/s (means
    reject sensor white noise, motion does not average out).
    """
    _require(samples, 1, "test stationarity")
    count = int(np.searchsorted(samples.t, samples.t[0] + STATIONARY_WINDOW_S, side="right"))
    if count < 2:
        return False
    g = float(GRAVITY_NED[2])
    accel_mag = float(np.linalg.norm(np.mean(samples.accel[:count], axis=0)))
    gyro_mag = float(np.linalg.norm(np.mean(samples.gyro[:count], axis=0)))
    return (abs(accel_mag - g) <= STATIONARY_ACCEL_TOL * g
            and gyro_mag <= STATIONARY_GYRO_TOL)


def slice_between(samples: ImuStream, t0: float, t1: float) -> ImuStream:
    """Samples with t in [t0, t1], widened by ``SLICE_TOL_S``, as a view."""
    start = int(np.searchsorted(samples.t, t0 - SLICE_TOL_S, side="left"))
    stop = int(np.searchsorted(samples.t, t1 + SLICE_TOL_S, side="right"))
    return samples._view(start, max(start, stop))


IMU_CSV_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az"]


def save_imu_csv(path, samples: ImuStream) -> None:
    rows = np.column_stack([samples.t, samples.gyro, samples.accel]).tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(IMU_CSV_HEADER)
        w.writerows([repr(x) for x in row] for row in rows)


def read_csv_rows(path: Path, columns: int, error: type[Exception] = ValueError) -> np.ndarray:
    """The data rows (n, ``columns``) of a csv file below its header line.

    A file with no data rows gives none; another column count, or a field
    that is not a number, raises ``error`` naming the file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # a field that is not a number
            raise error(f"{path.name}: {exc}") from None
    if rows.size == 0:
        return np.empty((0, columns))
    if rows.shape[1] != columns:
        raise error(f"{path.name}: expected {columns} columns, got {rows.shape[1]}")
    return rows


def load_imu_csv(path) -> ImuStream:
    """Read a stream written by :func:`save_imu_csv`; a file without samples
    or with a column count other than 7 raises ``StreamError``."""
    data = read_csv_rows(Path(path), 7, StreamError)
    return ImuStream(data[:, 0], data[:, 1:4], data[:, 4:7])
