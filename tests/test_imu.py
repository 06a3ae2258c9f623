import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planar_init.errors import StreamError
from planar_init.geometry import Pose, Rotation
from planar_init.imu import (
    ImuStream,
    integrate_camera_rotation,
    is_stationary,
    load_imu_csv,
    nav_state_at_rest,
    propagate,
    save_imu_csv,
    slice_between,
)
from planar_init.simulator import (
    NoiseModel,
    TrajectoryProfile,
    dataset_digest,
    generate_trajectory,
    make_dataset,
    scene_preset,
    synthesize_imu,
    write_dataset,
)


def constant_stream(gyro, accel, duration=1.0, rate=200.0, t0=0.0):
    n = int(round(duration * rate)) + 1
    t = t0 + np.arange(n) / rate
    return ImuStream(t, np.tile(gyro, (n, 1)), np.tile(accel, (n, 1)))


def noisy_stream(n=401, seed=0):
    rng = np.random.default_rng(seed)
    return ImuStream(np.arange(n) / 200.0, rng.normal(0, 0.3, (n, 3)),
                     rng.normal(0, 1.0, (n, 3)) + [0, 0, -9.81])


def part(samples, start, stop=None):
    return ImuStream(samples.t[start:stop], samples.gyro[start:stop],
                     samples.accel[start:stop])


class TestPropagate:
    def test_hover_equilibrium(self):
        # accel = -gravity (specific force at rest), zero gyro: state unchanged
        state = nav_state_at_rest(0.0)
        samples = constant_stream([0, 0, 0], [0.0, 0.0, -9.81])
        out = propagate(state, samples)[-1]
        assert np.linalg.norm(out.pose.translation) < 1e-12
        assert np.linalg.norm(out.velocity) < 1e-12
        assert out.pose.rotation.angle() < 1e-12

    def test_constant_acceleration_kinematics(self):
        # net world accel a for T seconds from rest: dp = a T^2 / 2, dv = a T
        a = np.array([0.3, -0.2, 0.5])
        state = nav_state_at_rest(0.0)
        samples = constant_stream([0, 0, 0], a + [0.0, 0.0, -9.81], duration=2.0)
        out = propagate(state, samples)[-1]
        np.testing.assert_allclose(out.velocity, a * 2.0, atol=1e-9)
        np.testing.assert_allclose(out.pose.translation, a * 2.0, atol=1e-9)

    def test_constant_yaw_rate(self):
        # oracle: quaternion exponential, exact for constant rate
        omega = 0.7
        state = nav_state_at_rest(0.0)
        samples = constant_stream([0, 0, omega], [0.0, 0.0, -9.81], duration=3.0)
        out = propagate(state, samples)[-1]
        expected = Rotation.from_axis_angle([0, 0, 1], omega * 3.0)
        assert out.pose.rotation.angle_to(expected) < 1e-9

    def test_bias_correction(self):
        bg = np.array([0.01, -0.02, 0.005])
        state = nav_state_at_rest(0.0, gyro_bias=bg)
        samples = constant_stream(bg, [0.0, 0.0, -9.81], duration=2.0)
        out = propagate(state, samples)[-1]
        assert out.pose.rotation.angle() < 1e-12

    def test_split_stream_equals_whole(self):
        samples = noisy_stream()
        state = nav_state_at_rest(0.0)
        whole = propagate(state, samples)[-1]
        for cut in (1, 137, 200, 399):
            mid = propagate(state, part(samples, 0, cut + 1))[-1]
            out = propagate(mid, part(samples, cut))[-1]
            assert abs(out.t - whole.t) < 1e-12
            np.testing.assert_allclose(out.pose.translation,
                                       whole.pose.translation, atol=1e-10)
            np.testing.assert_allclose(out.velocity, whole.velocity, atol=1e-10)
            assert out.pose.rotation.angle_to(whole.pose.rotation) < 1e-10

    def test_track_holds_the_state_at_every_sample(self):
        # item k of the track is the stream up to sample k propagated on its
        # own, and a slice views the same arrays
        samples = noisy_stream(seed=3)
        state = nav_state_at_rest(0.0, gyro_bias=[0.01, -0.02, 0.005])
        track = propagate(state, samples)
        assert len(track) == len(samples)
        for k in (0, 1, 137, 400):
            alone = propagate(state, part(samples, 0, k + 1))[-1]
            assert track[k].t == alone.t == samples.t[k]
            np.testing.assert_array_equal(track[k].pose.rotation.quat,
                                          alone.pose.rotation.quat)
            np.testing.assert_array_equal(track[k].pose.translation, alone.pose.translation)
            np.testing.assert_array_equal(track[k].velocity, alone.velocity)
        span = track[100:201]
        assert len(span) == 101 and span[0].t == samples.t[100]
        assert np.shares_memory(span.position, track.position)
        with pytest.raises(ValueError):
            span.velocity[0, 0] = 1.0

    def test_index_at_takes_the_nearest_sample(self):
        # samples every 5 ms from 0; a time before the first sample reads
        # the state the pass started from, one after the last the last state,
        # and a tie within SLICE_TOL_S the earlier sample
        track = propagate(nav_state_at_rest(0.0),
                          constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.1))
        times = [-0.01, 0.0, 0.0024, 0.0025, 0.0025 + 4e-10, 0.0025 + 1e-9,
                 0.005 - 1e-10, 0.0075, 1.0]
        np.testing.assert_array_equal(track.index_at(times), [0, 0, 0, 0, 0, 1, 1, 1, 20])
        np.testing.assert_array_equal(track[:1].index_at([-1.0, 0.0, 1.0]), [0, 0, 0])

    def test_matches_stepwise_recurrence(self):
        # oracle: the midpoint recurrence one interval at a time, with one
        # Rotation per interval
        bg = np.array([0.01, -0.02, 0.005])
        ba = np.array([0.05, -0.04, 0.06])
        state = nav_state_at_rest(0.0, gyro_bias=bg, accel_bias=ba)
        samples = noisy_stream(seed=7)
        g = np.array([0.0, 0.0, 9.81])
        r, p, v = Rotation.identity(), np.zeros(3), np.zeros(3)
        for k in range(len(samples) - 1):
            dt = samples.t[k + 1] - samples.t[k]
            omega = 0.5 * (samples.gyro[k] + samples.gyro[k + 1]) - bg
            r_next = r @ Rotation.from_axis_angle(omega, np.linalg.norm(omega) * dt)
            a_w = 0.5 * (r.apply(samples.accel[k] - ba)
                         + r_next.apply(samples.accel[k + 1] - ba)) + g
            p = p + v * dt + 0.5 * a_w * dt * dt
            v = v + a_w * dt
            r = r_next
        out = propagate(state, samples)[-1]
        assert out.t == samples.t[-1]
        np.testing.assert_allclose(out.pose.rotation.quat, r.quat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.pose.translation, p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.velocity, v, rtol=0, atol=1e-12)

    def test_single_sample_keeps_state(self):
        state = nav_state_at_rest(0.0)
        out = propagate(state, constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.0))[-1]
        assert out.t == 0.0
        np.testing.assert_array_equal(out.pose.translation, np.zeros(3))
        np.testing.assert_array_equal(out.velocity, np.zeros(3))

    def test_non_monotonic_raises(self):
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.1)
        with pytest.raises(StreamError):
            propagate(nav_state_at_rest(0.0),
                      ImuStream(s.t[[0, 2, 1]], s.gyro[:3], s.accel[:3]))

    def test_misaligned_start_raises(self):
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.1, t0=1.0)
        with pytest.raises(StreamError):
            propagate(nav_state_at_rest(0.0), s)

    def test_closed_loop_against_simulator(self):
        # fine IMU rate isolates the integrator consistency from the sampling
        # discretization of the smoothstep ramp
        profile = TrajectoryProfile(kind="vertical", imu_rate_hz=2000.0)
        truth = generate_trajectory(profile)
        samples = synthesize_imu(truth)
        out = propagate(nav_state_at_rest(0.0), samples)[-1]
        assert -truth.position[-1, 2] > 3.0  # the ascent passes 3 m
        np.testing.assert_allclose(out.pose.translation, truth.position[-1],
                                   atol=1e-6)
        np.testing.assert_allclose(out.velocity, truth.velocity[-1], atol=1e-6)

    def test_closed_loop_at_200hz(self):
        # at the hardware rate the midpoint scheme keeps sub-mm accuracy
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        samples = synthesize_imu(truth)
        out = propagate(nav_state_at_rest(0.0), samples)[-1]
        np.testing.assert_allclose(out.pose.translation, truth.position[-1],
                                   atol=2e-4)


def camera_rotation_over(samples, t_cb):
    return integrate_camera_rotation(propagate(nav_state_at_rest(samples.t[0]), samples), t_cb)


class TestCameraRotation:
    def test_zero_gyro_identity(self):
        t_cb = Pose(Rotation.from_axis_angle([1, 0, 0], 0.3), np.zeros(3), "c", "b")
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.5)
        assert camera_rotation_over(s, t_cb).angle() < 1e-12

    def test_identity_extrinsics_matches_body(self):
        t_cb = Pose(Rotation.identity(), np.zeros(3), "c", "b")
        s = constant_stream([0, 0, 0.5], [0, 0, -9.81], duration=1.0)
        r = camera_rotation_over(s, t_cb)
        # coordinate map from frame k-1 to frame k is the inverse increment
        assert r.angle_to(Rotation.from_axis_angle([0, 0, 1], -0.5)) < 1e-9

    def test_conjugation(self):
        # oracle: explicit matrix conjugation R_c = R_cb^T Gamma^-1 R_cb
        r_cb = Rotation.from_axis_angle([1, 0, 0], math.pi / 2)
        t_cb = Pose(r_cb, np.zeros(3), "c", "b")
        s = constant_stream([0, 0, 0.8], [0, 0, -9.81], duration=1.0)
        r = camera_rotation_over(s, t_cb)
        gamma_inv = Rotation.from_axis_angle([0, 0, 1], -0.8).matrix()
        expected = r_cb.matrix().T @ gamma_inv @ r_cb.matrix()
        np.testing.assert_allclose(r.matrix(), expected, atol=1e-9)

    def test_consecutive_spans_compose(self):
        # spans cut from one pass share their end states, so their rotations
        # chain to the rotation over the whole pass
        t_cb = Pose(Rotation.from_axis_angle([1, 1, 0], 0.4), np.zeros(3), "c", "b")
        track = propagate(nav_state_at_rest(0.0, gyro_bias=[0.01, 0.0, -0.02]),
                          noisy_stream(seed=4))
        chained = Rotation.identity()
        for a, b in ((0, 137), (137, 250), (250, 400)):
            chained = integrate_camera_rotation(track[a:b + 1], t_cb) @ chained
        assert chained.angle_to(integrate_camera_rotation(track, t_cb)) < 1e-12

    def test_empty_span_raises(self):
        t_cb = Pose(Rotation.identity(), np.zeros(3), "c", "b")
        with pytest.raises(StreamError):
            camera_rotation_over(ImuStream([0.0], np.zeros((1, 3)), np.zeros((1, 3))), t_cb)


class TestStationarity:
    def test_at_rest(self):
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=1.0)
        assert is_stationary(s)

    def test_rotating_fails(self):
        s = constant_stream([0.2, 0, 0], [0, 0, -9.81], duration=1.0)
        assert not is_stationary(s)

    def test_accelerating_fails(self):
        s = constant_stream([0, 0, 0], [0, 0, -12.0], duration=1.0)
        assert not is_stationary(s)

    def test_noise_tolerated(self):
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        samples = synthesize_imu(
            truth, gyro_noise_density=2e-4, accel_noise_density=2e-3, seed=5)
        assert is_stationary(samples)


class TestStreamUtils:
    def test_slice_between(self):
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=1.0)
        part = slice_between(s, 0.25, 0.5)
        assert part.t[0] == pytest.approx(0.25)
        assert part.t[-1] == pytest.approx(0.5)

    def test_slice_between_inclusive_within_tolerance(self):
        t = np.array([0.0, 0.1 - 1e-10, 0.1, 0.2, 0.3, 0.3 + 1e-10, 0.4])
        s = ImuStream(t, np.zeros((7, 3)), np.zeros((7, 3)))
        np.testing.assert_array_equal(slice_between(s, 0.1, 0.3).t, t[1:6])
        np.testing.assert_array_equal(slice_between(s, 0.1 + 1e-10, 0.3 - 1e-10).t, t[1:6])
        np.testing.assert_array_equal(slice_between(s, 0.2, 0.2).t, [0.2])
        assert len(slice_between(s, 0.11, 0.19)) == 0

    def test_empty_stream_raises(self):
        with pytest.raises(StreamError):
            ImuStream([], np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("t", [[0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [0.0, np.nan, 0.2]])
    def test_non_monotonic_stream_raises(self, t):
        with pytest.raises(StreamError):
            ImuStream(t, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_stream_arrays_are_read_only(self):
        s = constant_stream([0, 0, 0], [0, 0, -9.81], duration=0.1)
        with pytest.raises(ValueError):
            s.gyro[0, 0] = 1.0
        with pytest.raises(ValueError):
            slice_between(s, 0.0, 0.05).t[0] = 1.0

    def test_csv_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,gx,gy\n0.0,0.1,0.2\n")
        with pytest.raises(StreamError):
            load_imu_csv(path)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = ImuStream(np.arange(50) * 0.005, rng.normal(size=(50, 3)),
                            rng.normal(size=(50, 3)))
        path = tmp_path / "imu.csv"
        save_imu_csv(path, samples)
        back = load_imu_csv(path)
        assert len(back) == 50
        np.testing.assert_array_equal(back.t, samples.t)
        np.testing.assert_array_equal(back.gyro, samples.gyro)
        np.testing.assert_array_equal(back.accel, samples.accel)

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        samples = synthesize_imu(truth, (2e-4, -1.5e-4, 1e-4), (5e-3, -4e-3, 6e-3),
                                 2e-4, 2e-3, seed=3)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_imu_csv(first, samples)
        save_imu_csv(second, load_imu_csv(first))
        assert first.read_bytes() == second.read_bytes()


_DIGEST_SCRIPT = """
import sys, tempfile
from planar_init.simulator import (NoiseModel, TrajectoryProfile, make_dataset,
                                   scene_preset, write_dataset)
ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique", duration=3.0),
                  noise=NoiseModel(), seed=11)
with tempfile.TemporaryDirectory() as out:
    print(write_dataset(out, ds))
"""


def test_dataset_digest_is_stable_across_interpreters(tmp_path):
    # a second interpreter has its own hash seed and import state
    ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique", duration=3.0),
                      noise=NoiseModel(), seed=11)
    digest = write_dataset(tmp_path, ds)
    assert digest == dataset_digest(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == digest
