import numpy as np
import pytest

from planar_init.errors import (
    HorizonSingularityError,
    InsufficientDataError,
    UnobservableVelocityError,
    ZeroDepthError,
)
from planar_init.geometry import CameraRig, Pose, Rotation
from planar_init.homography import Homography
from planar_init.motion_field import (
    flow_model,
    flow_transfer_matrix,
    projection_velocity_matrix,
    refine_velocity,
)


def fd_homography_velocity(h, p_i, v_i, step=1e-6):
    """Central finite difference of the dehomogenized map along v_i."""
    p_i = np.asarray(p_i, float)
    v_i = np.asarray(v_i, float)
    return (h.apply(p_i + step * v_i) - h.apply(p_i - step * v_i)) / (2 * step)


class TestPredictedVelocity:
    def test_identity(self):
        h = Homography(np.eye(3))
        np.testing.assert_allclose(
            flow_transfer_matrix(h, [0.1, -0.2]) @ np.array([0.3, 0.4]), [0.3, 0.4])

    def test_pure_scaling(self):
        # h1 = 2I, h2 = h3 = 0, h4 = 1 -> v_j = 2 v_i
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        np.testing.assert_allclose(
            flow_transfer_matrix(h, [0.1, 0.2]) @ np.array([0.5, -0.1]), [1.0, -0.2])

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = np.eye(3) + rng.normal(0, 0.2, size=(3, 3))
            try:
                h = Homography(m)
            except Exception:
                continue
            p = rng.uniform(-0.4, 0.4, size=2)
            v = rng.normal(size=2)
            denom = h.h3 @ p + h.h4
            if abs(denom) < 0.2:
                continue
            pred = flow_transfer_matrix(h, p) @ v
            np.testing.assert_allclose(pred, fd_homography_velocity(h, p, v),
                                       atol=1e-6, rtol=1e-6)

    def test_horizon_singularity(self):
        m = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0.0, 1.0]])
        with pytest.raises(HorizonSingularityError):
            flow_transfer_matrix(Homography(m), [1.0, 0.0]) @ np.array([1.0, 0.0])
        with pytest.raises(HorizonSingularityError):  # one singular row of a stack
            flow_transfer_matrix(Homography(m), [[0.2, 0.1], [1.0, 0.0]])

    def test_stack_matches_single_points(self):
        rng = np.random.default_rng(3)
        h = Homography(np.eye(3) + rng.normal(0, 0.1, size=(3, 3)))
        p = rng.uniform(-0.4, 0.4, size=(50, 2))
        stacked = flow_transfer_matrix(h, p)
        assert stacked.shape == (50, 2, 2)
        for k in range(50):
            np.testing.assert_array_equal(stacked[k], flow_transfer_matrix(h, p[k]))


class TestFeatureVelocity:
    def test_direct_evaluation(self):
        # p = [1, 2, 2], v = [0, 0, 1]: [-x/z^2, -y/z^2] = [-0.25, -0.5]
        np.testing.assert_allclose(
            projection_velocity_matrix([1.0, 2.0, 2.0]) @ [0.0, 0.0, 1.0], [-0.25, -0.5])

    def test_zero_velocity(self):
        np.testing.assert_allclose(
            projection_velocity_matrix([1.0, 2.0, 2.0]) @ np.zeros(3), [0.0, 0.0])

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform([-1, -1, 0.5], [1, 1, 4.0])
            v = rng.normal(size=3)
            step = 1e-6
            ahead = (p + step * v)
            behind = (p - step * v)
            fd = ((ahead[:2] / ahead[2]) - (behind[:2] / behind[2])) / (2 * step)
            np.testing.assert_allclose(projection_velocity_matrix(p) @ v, fd,
                                       atol=1e-6, rtol=1e-6)

    def test_zero_depth(self):
        with pytest.raises(ZeroDepthError):
            projection_velocity_matrix([1.0, 1.0, 0.0])
        with pytest.raises(ZeroDepthError):  # one zero-depth row of a stack
            projection_velocity_matrix([[1.0, 1.0, 2.0], [1.0, 1.0, 0.0]])

    def test_stack_matches_single_points(self):
        rng = np.random.default_rng(4)
        p = rng.uniform([-1, -1, 0.5], [1, 1, 4.0], size=(50, 3))
        stacked = projection_velocity_matrix(p)
        assert stacked.shape == (50, 2, 3)
        for k in range(50):
            np.testing.assert_array_equal(stacked[k], projection_velocity_matrix(p[k]))


IDENTITY_H = Homography(np.eye(3))


class TestCameraVelocity:
    """The flow model's camera-velocity part, seen through an identity homography."""

    def test_sign_convention(self, simple_rig):
        # descending 1.5 m/s towards the plane (NED z down): static points move
        # at [0, 0, -1.5] in the camera and spread away from the optical axis
        model = flow_model([[0.5, 1.0]], [[1.0, 2.0, 2.0]], IDENTITY_H,
                           Rotation.identity(), np.zeros(3), simple_rig)
        np.testing.assert_allclose(model.predict(np.array([0.0, 0.0, 1.5])),
                                   [[0.375, 0.75]])

    def test_lever_arm(self):
        rig = CameraRig(
            f=400.0, cx=640.0, cy=400.0, baseline=0.1, width=1280, height=800,
            T_c_b=Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]), "c", "b"))
        # omega x t_cb = [0,0,1] x [1,0,0] = [0,1,0]: the camera moves along +y,
        # so a point on the optical axis at depth 2 drifts along -y at 1/2
        model = flow_model([[0.0, 0.0]], [[0.0, 0.0, 2.0]], IDENTITY_H,
                           Rotation.identity(), [0.0, 0.0, 1.0], rig)
        np.testing.assert_allclose(model.lever_w, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(model.predict(np.zeros(3)), [[0.0, -0.5]], atol=1e-15)

    def test_numeric_differentiation_oracle(self, rig):
        # static points seen from a rotating, translating body: differentiate
        # their normalized coordinates numerically as the camera origin moves
        # (its attitude held, since the model leaves out the rotational flow)
        omega = np.array([0.1, -0.2, 0.3])
        v_b = np.array([0.4, 0.2, -1.0])
        body_0 = Rotation.about_z(0.4) @ Rotation.about_x(0.2)
        step = 1e-6

        def camera(t):
            body = Pose(body_0 @ Rotation.from_rotvec(omega * t), v_b * t, "b", "w")
            return body @ rig.T_c_b

        cam_0 = camera(0.0)
        p_c = np.array([[0.3, -0.2, 2.0], [-0.5, 0.4, 3.0], [0.1, 0.6, 1.5]])
        points_w = cam_0.apply(p_c)

        def normalized(t):
            q = cam_0.rotation.inverse().apply(points_w - camera(t).translation)
            return q[:, :2] / q[:, 2:]

        fd = (normalized(step) - normalized(-step)) / (2 * step)
        model = flow_model(p_c[:, :2] / p_c[:, 2:], p_c, IDENTITY_H, body_0.inverse(),
                           omega, rig)
        np.testing.assert_allclose(model.predict(v_b), fd, atol=1e-8)


class TestFlowModel:
    def test_transfer_matches_finite_difference(self, rig):
        # the model's velocities are its identity-homography velocities pushed
        # through the dehomogenized map of h
        rng = np.random.default_rng(6)
        h = Homography(np.eye(3) + rng.normal(0, 0.05, size=(3, 3)))
        p = rng.uniform(-0.4, 0.4, size=(20, 2))
        p_c = rng.uniform(1.0, 4.0, size=(20, 1)) * np.c_[p, np.ones(20)]
        args = (Rotation.about_y(0.2), [0.05, -0.1, 0.2], rig)
        v = np.array([0.3, -0.1, -0.8])
        local = flow_model(p, p_c, IDENTITY_H, *args).predict(v)
        transferred = flow_model(p, p_c, h, *args).predict(v)
        for k in range(20):
            np.testing.assert_allclose(transferred[k], fd_homography_velocity(h, p[k], local[k]),
                                       atol=1e-8)


def vertical_flow_instance(n_features=12, h_i=1.5, v_true=(0.0, 0.0, -1.0),
                           dt=0.25, seed=0):
    """Exact model-consistent instance: downward camera, constant velocity.

    World NED; camera = body (identity extrinsics apart from a small lever),
    climbing at -v_z.  Returns ((p_source, p_c_source, v_measured), forward
    homography, omega, rig, true body velocity).
    """
    rig = CameraRig.default()
    rng = np.random.default_rng(seed)
    v_true = np.asarray(v_true, float)
    climb = -v_true[2]
    h_j = h_i + climb * dt
    # cameras at altitude h (ground plane below), identity attitude
    t_rel = np.array([-v_true[0] * dt, -v_true[1] * dt, h_j - h_i])
    h_fwd = Homography(np.eye(3) + np.outer(t_rel / h_i, [0.0, 0.0, 1.0]))
    p = rng.uniform(-0.4, 0.4, size=(n_features, 2))
    p_c = h_i * np.c_[p, np.ones(n_features)]
    # exact target positions under the homography
    v_meas = (h_fwd.apply(p) - p) / dt
    return (p, p_c, v_meas), h_fwd, np.zeros(3), rig, v_true


class TestRefineVelocity:
    def test_recovers_truth_from_zero(self):
        obs, h_fwd, omega, rig, v_true = vertical_flow_instance()
        out = refine_velocity(*obs, h_fwd, Rotation.identity(), omega, rig,
                              np.zeros(3))
        np.testing.assert_allclose(out.velocity, v_true, atol=1e-9)
        assert out.iterations <= 10

    def test_warm_start_single_iteration(self):
        obs, h_fwd, omega, rig, v_true = vertical_flow_instance()
        out = refine_velocity(*obs, h_fwd, Rotation.identity(), omega, rig, v_true)
        assert out.iterations <= 1
        assert out.cost < 1e-18

    def test_descent_property(self):
        rng = np.random.default_rng(2)
        obs, h_fwd, omega, rig, v_true = vertical_flow_instance(seed=3)
        p, p_c, v_meas = obs
        noisy = v_meas + rng.normal(0, 1e-3, size=v_meas.shape)
        out = refine_velocity(p, p_c, noisy, h_fwd, Rotation.identity(), omega, rig,
                              np.zeros(3))
        # linear problem: converged at the normal-equation optimum
        assert out.converged

    def test_too_few_features(self):
        obs, h_fwd, omega, rig, _ = vertical_flow_instance(n_features=2)
        with pytest.raises(InsufficientDataError):
            refine_velocity(*obs, h_fwd, Rotation.identity(), omega, rig, np.zeros(3))

    def test_rank_deficient(self):
        # all features at the same image point: lateral and vertical motion
        # become indistinguishable
        obs, h_fwd, omega, rig, _ = vertical_flow_instance(n_features=12)
        clones = [np.repeat(a[:1], 5, axis=0) for a in obs]
        with pytest.raises(UnobservableVelocityError):
            refine_velocity(*clones, h_fwd, Rotation.identity(), omega, rig,
                            np.zeros(3))

    def test_analytic_jacobian_matches_finite_differences(self):
        # the solver's Jacobian is the model's blocks: check them against
        # central differences of the residual on the model's prediction
        (p, p_c, v_meas), h_fwd, _, rig, _ = vertical_flow_instance(seed=5)
        model = flow_model(p, p_c, h_fwd, Rotation.about_z(0.3), [0.02, -0.01, 0.05], rig)

        def residuals(v):
            return (v_meas - model.predict(v)).reshape(-1)

        v0 = np.array([0.2, -0.1, -0.7])
        jac_analytic = model.blocks.reshape(-1, 3)
        step = 1e-6
        jac_fd = np.empty_like(jac_analytic)
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            jac_fd[:, k] = (residuals(v0 + e) - residuals(v0 - e)) / (2 * step)
        denom = np.maximum(np.abs(jac_fd), 1e-9)
        assert np.max(np.abs(jac_analytic - jac_fd) / denom) < 1e-5
