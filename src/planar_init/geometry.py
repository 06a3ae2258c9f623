"""Rotations, labeled poses, the pinhole stereo rig, and the stereo
observations of one camera frame.

Conventions
-----------
- Rotations are stored as unit quaternions (wxyz) and renormalized after
  every composition; matrices appear only at API boundaries.
- A :class:`Pose` carries frame labels: ``T`` with ``of_frame="c"`` and
  ``in_frame="b"`` maps camera coordinates into body coordinates,
  ``x_b = R x_c + t``.  Composition checks that labels chain.
- Euler angles are reported in ZYX (yaw-pitch-roll) order for a
  north-east-down world frame, radians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BehindCameraError, FrameMismatchError

_EPS = 1e-15


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"expected 3-vector, got shape {a.shape}")
    return a


class Rotation:
    """Unit-quaternion rotation (wxyz storage, Hamilton convention)."""

    __slots__ = ("_q",)

    def __init__(self, quat_wxyz):
        q = np.array(quat_wxyz, dtype=np.float64).reshape(4)
        n = math.sqrt(float(q @ q))
        if n < _EPS:
            raise ValueError("zero-norm quaternion")
        q /= n
        if q[0] < 0.0:  # canonical sign, keeps equality checks simple
            q = -q
        q.setflags(write=False)
        self._q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "Rotation":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        a = _as_vec3(axis)
        n = np.linalg.norm(a)
        if n < _EPS:
            raise ValueError("zero rotation axis")
        half = 0.5 * float(angle)
        return cls(np.concatenate(([math.cos(half)], math.sin(half) * a / n)))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Shepperd's method: branch on the largest diagonal term."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > max(m[0, 0], m[1, 1], m[2, 2]):
            s = math.sqrt(tr + 1.0) * 2.0
            q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                 (m[1, 0] - m[0, 1]) / s)
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                 (m[0, 2] + m[2, 0]) / s)
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                 (m[1, 2] + m[2, 1]) / s)
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                 (m[1, 2] + m[2, 1]) / s, 0.25 * s)
        return cls(q)

    # -- accessors ----------------------------------------------------

    @property
    def quat(self) -> np.ndarray:
        """Quaternion as wxyz, read-only."""
        return self._q

    def matrix(self) -> np.ndarray:
        w, x, y, z = self._q.tolist()  # Python floats: the same IEEE operations, faster
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    # -- algebra ------------------------------------------------------

    def compose(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self._q.tolist()
        w2, x2, y2, z2 = other._q.tolist()
        return Rotation((
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        w, x, y, z = self._q.tolist()
        return Rotation((w, -x, -y, -z))

    def apply(self, v) -> np.ndarray:
        """Rotate one 3-vector or an (..., 3) stack of them.

        Each row of a stack is one matrix-vector product, so it rounds
        exactly as the same row rotated on its own (``rows @ m.T`` does not).
        """
        a = np.asarray(v, dtype=np.float64)
        m = self.matrix()
        if a.ndim == 1:
            return m @ a
        return np.matmul(m, a[..., None])[..., 0]

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        return 2.0 * math.acos(min(1.0, abs(float(self._q[0]))))

    def angle_to(self, other: "Rotation") -> float:
        return (self.inverse() @ other).angle()

    def __repr__(self) -> str:
        w, x, y, z = self._q
        return f"Rotation(wxyz=[{w:.6g}, {x:.6g}, {y:.6g}, {z:.6g}])"


@dataclass(frozen=True)
class Pose:
    """Rigid transform with frame labels: x_in = R x_of + t."""

    rotation: Rotation
    translation: np.ndarray
    of_frame: str
    in_frame: str

    def __post_init__(self):
        t = _as_vec3(self.translation).copy()
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    def compose(self, other: "Pose") -> "Pose":
        if other.in_frame != self.of_frame:
            raise FrameMismatchError(
                f"cannot compose T[{self.of_frame}->{self.in_frame}] with "
                f"T[{other.of_frame}->{other.in_frame}]"
            )
        return Pose(
            self.rotation @ other.rotation,
            self.rotation.apply(other.translation) + self.translation,
            other.of_frame,
            self.in_frame,
        )

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def invert(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation), self.in_frame, self.of_frame)

    def apply(self, p) -> np.ndarray:
        return self.rotation.apply(p) + self.translation


def quat_matrices(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of N wxyz unit quaternions."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    m = np.empty((len(quats), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


class EulerAngles(NamedTuple):
    roll: float
    pitch: float
    yaw: float
    gimbal_lock: bool = False


def to_euler_ned(rotation: Rotation) -> EulerAngles:
    """ZYX (yaw-pitch-roll) Euler angles in NED, radians.

    At gimbal lock (|pitch| = pi/2) yaw is set to 0 by convention and the
    result is flagged.
    """
    m = rotation.matrix()
    s = -m[2, 0]
    if abs(s) >= 1.0 - 1e-12:
        pitch = math.copysign(math.pi / 2.0, s)
        if s > 0.0:
            roll = math.atan2(m[0, 1], m[0, 2])
        else:
            roll = math.atan2(-m[0, 1], -m[0, 2])
        return EulerAngles(roll, pitch, 0.0, True)
    pitch = math.asin(max(-1.0, min(1.0, s)))
    roll = math.atan2(m[2, 1], m[2, 2])
    yaw = math.atan2(m[1, 0], m[0, 0])
    return EulerAngles(roll, pitch, yaw, False)


@dataclass(frozen=True)
class CameraRig:
    """Stereo rig: pinhole intrinsics, baseline, left-camera-to-body extrinsics.

    ``f`` in pixels, ``baseline`` in meters.  ``T_c_b`` maps left-camera
    coordinates into body coordinates.  The right camera sits at
    ``[+baseline, 0, 0]`` in the left camera frame.
    """

    f: float
    cx: float
    cy: float
    baseline: float
    width: int
    height: int
    T_c_b: Pose

    def __post_init__(self):
        if self.f <= 0.0:
            raise ValueError("focal length must be positive")
        if self.baseline <= 0.0:
            raise ValueError("baseline must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point outside image bounds")
        if self.T_c_b.of_frame != "c" or self.T_c_b.in_frame != "b":
            raise ValueError("T_c_b must carry frames (of='c', in='b')")

    @cached_property
    def T_b_c(self) -> Pose:
        """The inverse extrinsics, body into left-camera coordinates; built
        once per rig.  Its translation is minus the lever arm R_cb^T t_cb."""
        return self.T_c_b.invert()

    @classmethod
    def default(cls) -> "CameraRig":
        """1280x800 rig with a small forward/down camera offset."""
        return cls(
            f=640.0, cx=640.0, cy=400.0, baseline=0.2, width=1280, height=800,
            T_c_b=Pose(Rotation.identity(), np.array([0.10, 0.0, 0.03]), "c", "b"),
        )

    def to_json_dict(self) -> dict:
        return {
            "f": self.f, "cx": self.cx, "cy": self.cy,
            "baseline": self.baseline,
            "width": self.width, "height": self.height,
            "T_cb": {
                "q_wxyz": [float(v) for v in self.T_c_b.rotation.quat],
                "t_xyz": [float(v) for v in self.T_c_b.translation],
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CameraRig":
        """The rig that :meth:`to_json_dict` wrote as ``d``.  A missing or
        non-numeric key raises ``ValueError`` naming it."""
        t = _json_value(d, "T_cb")
        return cls(
            f=_json_number(d, "f"), cx=_json_number(d, "cx"), cy=_json_number(d, "cy"),
            baseline=_json_number(d, "baseline"),
            width=int(_json_number(d, "width")), height=int(_json_number(d, "height")),
            T_c_b=Pose(Rotation(_json_numbers(t, "q_wxyz", 4, "T_cb.")),
                       _json_numbers(t, "t_xyz", 3, "T_cb."), "c", "b"),
        )


def _json_value(d, key: str, prefix: str = ""):
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object holding key {prefix + key!r}")
    if key not in d:
        raise ValueError(f"missing key {prefix + key!r}")
    return d[key]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_number(d, key: str, prefix: str = "") -> float:
    value = _json_value(d, key, prefix)
    if not _is_number(value):
        raise ValueError(f"key {prefix + key!r} is not a number: {value!r}")
    return float(value)


def _json_numbers(d, key: str, n: int, prefix: str = "") -> np.ndarray:
    value = _json_value(d, key, prefix)
    if not (isinstance(value, list) and len(value) == n and all(map(_is_number, value))):
        raise ValueError(f"key {prefix + key!r} is not a list of {n} numbers: {value!r}")
    return np.array(value, dtype=np.float64)


def save_rig(path, rig: CameraRig) -> None:
    Path(path).write_text(json.dumps(rig.to_json_dict(), indent=2))


def load_rig(path) -> CameraRig:
    """The rig in the JSON file ``path``; a malformed file raises
    ``ValueError`` naming it."""
    path = Path(path)
    try:
        return CameraRig.from_json_dict(json.loads(path.read_text()))
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from exc


def project(rig: CameraRig, p_c) -> np.ndarray:
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2)."""
    p = np.asarray(p_c, dtype=np.float64)
    z = p[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError(f"point depth {np.min(z):.6g} <= 0")
    # one coordinate at a time: a 1-D pass runs several times faster than
    # broadcasting an (..., 1) depth over (..., 2) pixels
    uv = np.empty(p.shape[:-1] + (2,))
    uv[..., 0] = rig.f * p[..., 0] / z + rig.cx
    uv[..., 1] = rig.f * p[..., 1] / z + rig.cy
    return uv


def normalize(rig: CameraRig, pixel) -> np.ndarray:
    """Pixels (..., 2) to normalized image coordinates [(u-cx)/f, (v-cy)/f]."""
    return (np.asarray(pixel, dtype=np.float64) - (rig.cx, rig.cy)) / rig.f


def homogeneous(xy) -> np.ndarray:
    """Append 1 to normalized coordinates (..., 2)."""
    a = np.asarray(xy, dtype=np.float64)
    return np.concatenate([a, np.ones(a.shape[:-1] + (1,))], axis=-1)


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, bit for bit as ``np.cross`` rounds it,
    at about a tenth of its cost: ``np.cross`` spends most of a call on
    broadcasting set-up."""
    a0, a1, a2 = _as_vec3(a).tolist()
    b0, b1, b2 = _as_vec3(b).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


@dataclass(frozen=True)
class FrameObservations:
    """Stereo pixel observations of one camera frame; a keyframe is one of
    these, picked by the height gate.

    Row k of the read-only ``uv_l`` and ``uv_r`` (N, 2) holds the left and
    right pixels of feature ``ids[k]``; ids ascend strictly.  Writeable
    inputs are copied, so no caller can change a frame under the pipeline.
    """

    frame: int
    t: float
    ids: np.ndarray
    uv_l: np.ndarray
    uv_r: np.ndarray

    def __post_init__(self):
        def frozen(a, dtype=np.float64):
            a = np.asarray(a, dtype=dtype)
            if a.flags.writeable:
                a = a.copy()
                a.setflags(write=False)
            return a

        ids = frozen(self.ids, np.int64).reshape(-1)
        object.__setattr__(self, "ids", ids)
        for name in ("uv_l", "uv_r"):
            rows = frozen(getattr(self, name)).reshape(-1, 2)
            if len(rows) != len(ids):
                raise ValueError(f"frame {self.frame}: {name} needs one row per feature id")
            object.__setattr__(self, name, rows)
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError(f"frame {self.frame}: feature ids must ascend strictly")
