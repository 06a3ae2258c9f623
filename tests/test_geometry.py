import math

import numpy as np
import pytest

from planar_init.errors import BehindCameraError, FrameMismatchError
from planar_init.geometry import (
    CameraRig,
    Pose,
    Rotation,
    cross,
    homogeneous,
    load_rig,
    normalize,
    project,
    save_rig,
    to_euler_ned,
)

from conftest import random_rotation


def zyx_rotation(roll: float, pitch: float, yaw: float) -> Rotation:
    """ZYX composition: R = Rz(yaw) Ry(pitch) Rx(roll)."""
    return (Rotation.from_axis_angle([0, 0, 1], yaw)
            @ Rotation.from_axis_angle([0, 1, 0], pitch)
            @ Rotation.from_axis_angle([1, 0, 0], roll))


class TestRotation:
    def test_identity(self):
        np.testing.assert_allclose(Rotation.identity().matrix(), np.eye(3), atol=1e-15)

    def test_axis_angle_matches_matrix(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(r.matrix(), expected, atol=1e-15)

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = random_rotation(rng)
            r2 = Rotation.from_matrix(r.matrix())
            assert r.angle_to(r2) < 1e-12

    def test_matrix_orthonormal_det_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_rotation(rng).matrix()
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_unit_norm_under_many_compositions(self):
        # drift must stay below 1e-9 after 1e5 compositions
        rng = np.random.default_rng(2)
        steps = [random_rotation(rng, 0.1) for _ in range(100)]
        r = Rotation.identity()
        for k in range(100_000):
            r = r @ steps[k % 100]
        assert abs(np.linalg.norm(r.quat) - 1.0) < 1e-9
        m = r.matrix()
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-9)

    def test_apply_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(r.apply(v), r.matrix() @ v, atol=1e-14)
        batch = rng.normal(size=(5, 3))
        np.testing.assert_allclose(r.apply(batch), batch @ r.matrix().T, atol=1e-14)

    def test_axis_angle_small_angle(self):
        r = Rotation.from_axis_angle([1.0, 0.0, 0.0], 1e-14)
        assert r.angle() < 1e-13


class TestPose:
    def test_compose_identity(self):
        rng = np.random.default_rng(4)
        t = Pose(random_rotation(rng), rng.normal(size=3), "c", "w")
        out = t.compose(Pose(Rotation.identity(), np.zeros(3), "c", "c"))
        assert out.rotation.angle_to(t.rotation) < 1e-15
        np.testing.assert_allclose(out.translation, t.translation)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = Pose(random_rotation(rng), rng.normal(size=3), "c", "w")
            out = t.compose(t.invert())
            assert out.rotation.angle() < 1e-12
            assert np.linalg.norm(out.translation) < 1e-12

    def test_compose_matches_matrix_product(self):
        # oracle: 4x4 homogeneous matrix product
        def homogeneous(pose):
            m = np.eye(4)
            m[:3, :3] = pose.rotation.matrix()
            m[:3, 3] = pose.translation
            return m

        quarter = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
        a = Pose(quarter, np.array([1.0, 0.0, 0.0]), "a", "w")
        b = Pose(quarter, np.array([1.0, 0.0, 0.0]), "b", "a")
        out = a.compose(b)
        np.testing.assert_allclose(homogeneous(out), homogeneous(a) @ homogeneous(b),
                                   atol=1e-15)
        assert out.rotation.angle_to(Rotation.from_axis_angle([0, 0, 1], math.pi)) < 1e-12
        np.testing.assert_allclose(out.translation, [1.0, 1.0, 0.0], atol=1e-15)
        assert out.of_frame == "b" and out.in_frame == "w"

    def test_frame_mismatch_raises(self):
        a = Pose(Rotation.identity(), np.zeros(3), "w", "w")
        b = Pose(Rotation.identity(), np.zeros(3), "c", "b")
        with pytest.raises(FrameMismatchError):
            a.compose(b)

    def test_apply(self):
        t = Pose(Rotation.from_axis_angle([0, 0, 1], math.pi / 2), np.array([0.0, 0.0, 1.0]),
                 "c", "w")
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 1.0], atol=1e-15)


def test_cross_matches_np_cross_bit_for_bit():
    # magnitudes from 1e-200 to 1e150 keep every product finite, with
    # underflows to signed zero; a quarter of the components are exact +-0
    rng = np.random.default_rng(40)
    vecs = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-200, 150, size=(2000, 3))
    zero = rng.random(size=vecs.shape) < 0.25
    vecs[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    for a, b in zip(vecs[:1000], vecs[1000:]):
        assert cross(a, b).tobytes() == np.cross(a, b).tobytes()


class TestProjection:
    def test_optical_axis(self, simple_rig):
        np.testing.assert_allclose(project(simple_rig, [0.0, 0.0, 2.0]), [640.0, 400.0])

    def test_direct_evaluation(self):
        rig = CameraRig(f=400.0, cx=0.0, cy=0.0, baseline=0.1, width=1280, height=800,
                        T_c_b=Pose(Rotation.identity(), np.zeros(3), "c", "b"))
        np.testing.assert_allclose(project(rig, [1.0, 2.0, 2.0]), [200.0, 400.0])

    def test_behind_camera(self, simple_rig):
        with pytest.raises(BehindCameraError):
            project(simple_rig, [0.0, 0.0, -1.0])
        with pytest.raises(BehindCameraError):
            project(simple_rig, [0.0, 0.0, 0.0])

    def test_stack_matches_single_points(self, rig):
        rng = np.random.default_rng(8)
        p = rng.uniform([-1, -1, 0.5], [1, 1, 5.0], size=(40, 3))
        stacked = project(rig, p)
        assert stacked.shape == (40, 2)
        for k in range(40):
            np.testing.assert_array_equal(stacked[k], project(rig, p[k]))
        with pytest.raises(BehindCameraError):  # one row behind the camera
            project(rig, [[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])

    def test_normalize_center(self, simple_rig):
        np.testing.assert_allclose(normalize(simple_rig, [640.0, 400.0]), [0.0, 0.0])

    def test_normalize_offset(self, simple_rig):
        np.testing.assert_allclose(normalize(simple_rig, [840.0, 400.0]), [0.5, 0.0])

    def test_project_normalize_round_trip(self, rig):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = rng.uniform([-1, -1, 0.5], [1, 1, 5.0])
            np.testing.assert_allclose(
                normalize(rig, project(rig, p)), [p[0] / p[2], p[1] / p[2]], atol=1e-12)

    def test_homogeneous(self):
        np.testing.assert_allclose(homogeneous([0.5, -0.2]), [0.5, -0.2, 1.0])


class TestEulerNed:
    def test_identity(self):
        e = to_euler_ned(Rotation.identity())
        assert e == (0.0, 0.0, 0.0, False)

    def test_pure_yaw(self):
        e = to_euler_ned(Rotation.from_axis_angle([0, 0, 1], 0.3))
        np.testing.assert_allclose([e.roll, e.pitch, e.yaw], [0.0, 0.0, 0.3], atol=1e-15)
        assert not e.gimbal_lock

    def test_round_trip(self):
        # oracle: composition of axis rotations
        rng = np.random.default_rng(7)
        for _ in range(300):
            roll, yaw = rng.uniform(-math.pi, math.pi, size=2)
            pitch = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
            e = to_euler_ned(zyx_rotation(roll, pitch, yaw))
            np.testing.assert_allclose([e.roll, e.pitch, e.yaw], [roll, pitch, yaw],
                                       atol=1e-10)

    def test_gimbal_lock_flagged(self):
        e = to_euler_ned(zyx_rotation(0.4, math.pi / 2, 0.2))
        assert e.gimbal_lock
        assert e.yaw == 0.0
        # the recovered rotation must still reproduce the matrix
        r = zyx_rotation(e.roll, e.pitch, e.yaw)
        np.testing.assert_allclose(
            r.matrix(), zyx_rotation(0.4, math.pi / 2, 0.2).matrix(), atol=1e-9)


class TestCameraRig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraRig(f=-1.0, cx=0, cy=0, baseline=0.1, width=10, height=10,
                      T_c_b=Pose(Rotation.identity(), np.zeros(3), "c", "b"))
        with pytest.raises(ValueError):
            CameraRig(f=100.0, cx=20, cy=5, baseline=0.1, width=10, height=10,
                      T_c_b=Pose(Rotation.identity(), np.zeros(3), "c", "b"))

    def test_default_matches_hardware(self, rig):
        assert (rig.width, rig.height) == (1280, 800)

    def test_json_round_trip(self, tmp_path, rig):
        path = tmp_path / "rig.json"
        save_rig(path, rig)
        back = load_rig(path)
        assert back.f == rig.f and back.baseline == rig.baseline
        np.testing.assert_allclose(back.T_c_b.translation, rig.T_c_b.translation)
        assert back.T_c_b.rotation.angle_to(rig.T_c_b.rotation) < 1e-15
