import numpy as np
import pytest

from planar_init.errors import InvalidDisparityError
from planar_init.geometry import normalize, project
from planar_init.weighting import DEVIATION_FLOOR_PX, stereo_deviation, weight


class TestStereoDeviation:
    def test_consistent_pair_is_zero(self, simple_rig):
        # right obs exactly at the predicted disparity for the given depth
        z = 2.0
        p_l = np.array([0.1, -0.05])
        uv_l = project(simple_rig, z * np.array([p_l[0], p_l[1], 1.0]))
        p_r = p_l - np.array([simple_rig.baseline / z, 0.0])
        uv_r = project(simple_rig, z * np.array([p_r[0], p_r[1], 1.0]))
        sigma = stereo_deviation(uv_l, uv_r, simple_rig, depth=z)
        assert sigma < 1e-9

    def test_direct_evaluation(self, simple_rig):
        # p_l = [0,0,1], z = 2, b = 0.1, f = 400: prediction [-0.05, 0, 1];
        # measured right at [-0.0525, 0]: sigma = 400 * 0.0025 = 1 px
        uv_l = np.array([simple_rig.cx, simple_rig.cy])
        uv_r = np.array([simple_rig.cx - 0.0525 * simple_rig.f, simple_rig.cy])
        sigma = stereo_deviation(uv_l, uv_r, simple_rig, depth=2.0)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_noise_scaling(self, rig):
        # 0.5 px right-image noise: mean sigma tracks the noise level
        rng = np.random.default_rng(0)
        sigmas = []
        for _ in range(10_000):
            z = rng.uniform(1.0, 4.0)
            p_l = rng.uniform(-0.4, 0.4, size=2)
            uv_l = project(rig, z * np.array([p_l[0], p_l[1], 1.0]))
            p_r = p_l - [rig.baseline / z, 0.0]
            uv_r = project(rig, z * np.array([p_r[0], p_r[1], 1.0]))
            uv_r = uv_r + rng.normal(0.0, 0.5, size=2)
            sigmas.append(stereo_deviation(uv_l, uv_r, rig, depth=z))
        mean = float(np.mean(sigmas))
        # mean of a Rayleigh(0.5) is 0.5 sqrt(pi/2) ~ 0.627
        assert abs(mean - 0.5) < 0.3 * 0.5 or abs(mean - 0.627) < 0.3 * 0.627

    def test_invalid_depth(self, simple_rig):
        with pytest.raises(InvalidDisparityError):
            stereo_deviation([0, 0], [0, 0], simple_rig, depth=-1.0)
        with pytest.raises(InvalidDisparityError):  # one bad row of a stack
            stereo_deviation(np.zeros((2, 2)), np.zeros((2, 2)), simple_rig,
                             depth=[2.0, 0.0])

    def test_zero_noise_simulator(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        rig = ds.rig
        fr = ds.frames[70]
        cam = ds.truth.camera_pose(int(ds.truth.cam_indices[fr.frame]), rig)
        z = cam.invert().apply(ds.truth.features[fr.ids[:100]])[:, 2]
        sigma = stereo_deviation(fr.uv_l[:100], fr.uv_r[:100], rig, depth=z)
        assert sigma.shape == z.shape
        assert np.all(sigma < 1e-9)

    def test_stack_matches_single_rows(self, rig):
        # each row of a stacked call rounds as the row on its own
        rng = np.random.default_rng(5)
        uv_l = rng.uniform(100.0, 700.0, size=(200, 2))
        uv_r = uv_l - [30.0, 0.0] + rng.normal(0.0, 0.5, size=(200, 2))
        z = rng.uniform(1.0, 4.0, size=200)
        stacked = stereo_deviation(uv_l, uv_r, rig, z)
        for k in range(200):
            assert stacked[k] == stereo_deviation(uv_l[k], uv_r[k], rig, z[k])


class TestWeight:
    def test_value_above_the_floor(self):
        assert weight(1.5) == pytest.approx(1.0 / 2.25)

    def test_floor_clamps(self):
        assert DEVIATION_FLOOR_PX == 0.25
        assert weight(0.0) == weight(DEVIATION_FLOOR_PX) == pytest.approx(16.0)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        sig = np.sort(rng.uniform(0.3, 5.0, size=50))
        ws = weight(sig)
        assert all(a > b for a, b in zip(ws, ws[1:]))
        np.testing.assert_array_equal(ws, [weight(s) for s in sig])


class TestPixelUnitConsistency:
    def test_sigma_invariant_to_focal_rescale(self, simple_rig):
        # scaling f while keeping pixels fixed rescales normalized coords;
        # sigma in pixels must not change
        from planar_init.geometry import CameraRig, Pose, Rotation
        rig2 = CameraRig(f=800.0, cx=640.0, cy=400.0, baseline=0.1,
                         width=1280, height=800,
                         T_c_b=Pose(Rotation.identity(), np.zeros(3), "c", "b"))
        uv_l = np.array([700.0, 400.0])
        z = 2.0
        # consistent right pixel for each rig (same physical point and noise)
        for rig in (simple_rig, rig2):
            p_l = normalize(rig, uv_l)
            p_r = p_l - [rig.baseline / z, 0.0]
            uv_r = project(rig, z * np.array([p_r[0], p_r[1], 1.0])) + [1.3, 0.0]
            sigma = stereo_deviation(uv_l, uv_r, rig, depth=z)
            assert sigma == pytest.approx(1.3, abs=1e-9)
