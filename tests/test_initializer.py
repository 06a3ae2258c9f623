import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from planar_init.config import PipelineConfig
from planar_init.errors import (
    DegenerateTranslationError,
    InsufficientDataError,
    InvalidDisparityError,
    NoSolutionError,
    PipelineError,
)
from planar_init.geometry import CameraRig, FrameObservations, Pose, Rotation, normalize
from planar_init.harness import evaluate_against_dataset, run_on_dataset, select_window
from planar_init.homography import HomographySolution, estimate
from planar_init.imu import ImuStream, nav_state_at_rest, propagate
from planar_init.initializer import (
    STATUS_IMU_ONLY,
    STATUS_INITIALIZED,
    STATUS_PURE_ROTATION,
    InitializationResult,
    KeyframeWindow,
    PairTrace,
    prior_normal,
    recover_scale,
    refine_body_velocity,
    run_initialization,
    select_solution,
    _weighted_pnp_refit,
    triangulate_stereo,
)
from planar_init.pnp import PnpSystem
from planar_init.weighting import DEVIATION_FLOOR_PX
from planar_init.simulator import (
    NoiseModel,
    TrajectoryProfile,
    make_dataset,
    scene_preset,
)

from conftest import random_rotation


def solution(n, t_bar=(0.1, 0.0, 0.0)):
    n = np.asarray(n, dtype=np.float64)
    return HomographySolution(Rotation.identity(), np.asarray(t_bar), n / np.linalg.norm(n))


UP_NORMAL = np.array([0.0, 0.0, 1.0])


def rolled_rig(degrees: float) -> CameraRig:
    """The default rig with its camera rolled about body x."""
    rig = CameraRig.default()
    return replace(rig, T_c_b=Pose(Rotation.from_axis_angle([1, 0, 0], math.radians(degrees)),
                                   rig.T_c_b.translation, "c", "b"))


class TestSelectSolution:
    def test_prefers_matching_normal(self):
        a = solution([0.0, 0.0, 1.0])
        b = solution([1.0, 0.0, 0.0])
        sel = select_solution(UP_NORMAL, [a, b])
        assert sel.solution is a
        assert sel.margin > 0.0

    def test_tie_takes_first(self):
        a = solution([1.0, 0.0, 1.0])
        b = solution([-1.0, 0.0, 1.0])  # same distance by symmetry
        sel = select_solution(UP_NORMAL, [a, b])
        assert sel.solution is a
        assert sel.margin == pytest.approx(0.0, abs=1e-15)

    def test_single_candidate(self):
        a = solution([0.3, 0.1, 1.0])
        sel = select_solution(UP_NORMAL, [a])
        assert sel.solution is a
        assert sel.margin == math.inf

    def test_margin_between_two_nearest_of_three(self):
        far = solution([1.0, 0.0, 0.2])
        near = solution([0.1, 0.0, 1.0])
        mid = solution([0.5, 0.0, 1.0])
        sel = select_solution(UP_NORMAL, [far, near, mid])
        assert sel.solution is near
        d_far, d_near, d_mid = sel.distances
        assert sel.margin == d_mid - d_near
        assert 0.0 < sel.margin < d_far - d_near

    def test_empty_raises(self):
        with pytest.raises(NoSolutionError):
            select_solution(UP_NORMAL, [])

    def test_argmin_scale_invariance(self):
        # the argmin selection is invariant to a positive rescale of the
        # distance computations
        rng = np.random.default_rng(0)
        for _ in range(100):
            prior = rng.normal(size=3)
            prior /= np.linalg.norm(prior)
            cands = [solution(rng.normal(size=3)) for _ in range(2)]
            sel = select_solution(prior, cands)
            d = np.array(sel.distances)
            for c in (0.1, 3.0, 1e6):
                assert np.argmin(c * d) == np.argmin(d)


class TestPriorNormal:
    def test_world_vertical_in_the_camera_frame(self):
        np.testing.assert_array_equal(prior_normal(Rotation.identity()), UP_NORMAL)
        # a camera rolled a quarter turn about x sees the vertical along its +y
        quarter = Rotation.from_axis_angle([1, 0, 0], math.pi / 2)
        np.testing.assert_allclose(prior_normal(quarter), [0.0, 1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("roll_deg", [0.0, 5.0])
    @pytest.mark.parametrize("kind", ["vertical", "oblique"])
    def test_normal_given_to_estimate_is_the_true_plane_normal(self, kind, roll_deg,
                                                               monkeypatch):
        # the prior at every keyframe is the world vertical seen from the
        # camera at the pass's attitude: on noiseless data, the true ground
        # normal in that camera whatever the camera's mounting
        import planar_init.initializer as initializer
        normals = []

        def recorded(p_src, p_dst, rotation, n, **kwargs):
            normals.append(np.array(n))
            return estimate(p_src, p_dst, rotation, n, **kwargs)

        monkeypatch.setattr(initializer, "estimate", recorded)
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=kind),
                          rig=rolled_rig(roll_deg), noise=NoiseModel.noiseless(), seed=1)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        assert len(normals) == len(result.keyframe_times) - 1
        for t, n in zip(result.keyframe_times[1:], normals):
            k = int(np.argmin(np.abs(ds.truth.t - t)))
            n_true, _ = ds.truth.plane_in_camera(k, ds.rig)
            assert math.acos(min(1.0, float(n @ n_true))) < 1e-5


class TestTriangulateStereo:
    def test_direct_evaluation(self, simple_rig):
        # f=400, b=0.1, disparity=20 -> z = 2
        uv_l = np.array([700.0, 400.0])
        uv_r = np.array([680.0, 400.0])
        point = triangulate_stereo(uv_l, uv_r, simple_rig)
        assert point.shape == (3,)
        assert point[2] == pytest.approx(2.0)
        assert uv_l[0] - uv_r[0] == pytest.approx(20.0)

    def test_simulated_point(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        rig = ds.rig
        fr = ds.frames[70]
        k = int(ds.truth.cam_indices[fr.frame])
        cam = ds.truth.camera_pose(k, rig)
        points = triangulate_stereo(fr.uv_l[:50], fr.uv_r[:50], rig)
        expected = cam.invert().apply(ds.truth.features[fr.ids[:50]])
        assert points.shape == (50, 3)
        np.testing.assert_allclose(points, expected, atol=1e-9)

    def test_zero_disparity(self, simple_rig):
        with pytest.raises(InvalidDisparityError):
            triangulate_stereo([640.0, 400.0], [640.0, 400.0], simple_rig)

    def test_any_nonpositive_row_raises(self, simple_rig):
        uv_l = np.array([[700.0, 400.0], [640.0, 400.0]])
        uv_r = np.array([[680.0, 400.0], [640.5, 400.0]])
        with pytest.raises(InvalidDisparityError):
            triangulate_stereo(uv_l, uv_r, simple_rig)

    def test_unreliable_flag(self, simple_rig):
        # a positive disparity below min_disparity_px is not triangulated
        from planar_init.initializer import _reliable
        uv_l = np.array([[700.0, 400.0], [640.5, 400.0]])
        uv_r = np.array([[680.0, 400.0], [640.0, 400.0]])
        kf = FrameObservations(0, 0.0, [3, 7], uv_l, uv_r)
        np.testing.assert_array_equal(_reliable(kf, np.arange(2), 1.0), [True, False])


class TestRecoverScale:
    def test_closed_form(self):
        assert recover_scale([0.0, 0.0, 1.0], [0.0, 0.0, 2.0]) == pytest.approx(2.0)

    def test_orthogonal_residual(self):
        assert recover_scale([1.0, 0.0, 0.0], [2.0, 0.1, 0.0]) == pytest.approx(2.0)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t_bar = rng.normal(size=3)
            t_hat = rng.normal(size=3)
            s = recover_scale(t_bar, t_hat)
            assert abs(t_bar @ (s * t_bar - t_hat)) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateTranslationError):
            recover_scale([1e-7, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_backwards_scale_flagged_by_sign(self):
        s = recover_scale([0.0, 0.0, 1.0], [0.0, 0.0, -2.0])
        assert s < 0.0


class TestMetricStep:
    @pytest.mark.parametrize("kind", ["vertical", "oblique"])
    def test_t_hat_is_the_true_camera_displacement(self, kind, monkeypatch):
        # noiseless helipad, default rig with its 0.10 m lever arm: each
        # pair's metric translation is the true displacement of the camera
        # between the keyframes, in the previous camera's frame.  Measured
        # over seeds 1-3 and 11, both profiles and both deviation modes, the
        # largest error is 3.9e-16 m on a 0.25 m displacement.
        import planar_init.initializer as initializer
        t_hats = []

        def spy(t_bar, t_hat):
            t_hats.append(np.array(t_hat))
            return recover_scale(t_bar, t_hat)

        monkeypatch.setattr(initializer, "recover_scale", spy)
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=kind),
                          noise=NoiseModel.noiseless(), seed=1)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        pairs = result.diagnostics["pairs"]
        assert len(t_hats) == len(pairs) == len(result.keyframe_times) - 1
        for m, (pair, t_hat) in enumerate(zip(pairs, t_hats)):
            k_i, k_j = (int(np.argmin(np.abs(ds.truth.t - t)))
                        for t in result.keyframe_times[m:m + 2])
            cam_i = ds.truth.camera_pose(k_i, ds.rig)
            expected = (cam_i.invert() @ ds.truth.camera_pose(k_j, ds.rig)).translation
            np.testing.assert_allclose(t_hat, expected, rtol=0.0, atol=1e-14)
            assert abs(pair["t_hat_norm"] - np.linalg.norm(expected)) < 1e-14

    def test_refit_inlier_behind_the_camera_weighs_zero(self, simple_rig, monkeypatch):
        # an inlier that the refit pose puts behind the camera has no stereo
        # depth: it weighs zero, as an outlier does, and the refit goes on
        import planar_init.initializer as initializer
        rng = np.random.default_rng(3)
        rig = simple_rig
        ahead = np.column_stack([rng.uniform(-1.0, 1.0, (12, 2)), rng.uniform(2.0, 3.0, 12)])
        points = np.vstack([ahead, [[0.2, -0.1, -1.5]]])
        obs = points[:, :2] / points[:, 2:]
        obs[-1] = [0.05, 0.02]
        system = PnpSystem(points, obs, Rotation.identity())
        pose = Pose(Rotation.identity(), np.zeros(3), "c", "w")
        inliers = np.ones(len(points), dtype=bool)
        inliers[0] = False
        uv_l = rig.f * obs[inliers] + (rig.cx, rig.cy)
        shifted = points[inliers] - (rig.baseline, 0.0, 0.0)
        uv_r = rig.f * shifted[:, :2] / shifted[:, 2:] + (rig.cx, rig.cy)
        uv_r[-1] = uv_l[-1]
        seen, real = [], initializer.refine_pose

        def spy(system, weights):
            seen.append(weights)
            return real(system, weights)

        monkeypatch.setattr(initializer, "refine_pose", spy)
        refit = _weighted_pnp_refit(pose, system, inliers, uv_l, uv_r, rig)
        (weights,) = seen
        assert weights[0] == 0.0 and weights[-1] == 0.0
        assert np.all(weights[1:-1] > 0.0)
        np.testing.assert_allclose(refit.translation, np.zeros(3), rtol=0.0, atol=1e-12)


class TestWindowTypes:
    def test_strictly_increasing_times(self):
        kfs = [FrameObservations(0, 0.0, [], [], []), FrameObservations(1, 0.0, [], [], [])]
        imu = ImuStream([0.0], np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            KeyframeWindow(kfs, propagate(nav_state_at_rest(0.0), imu))

    def test_shared_features(self, clean_vertical_dataset):
        window = select_window(clean_vertical_dataset, PipelineConfig())
        shared, rows_0, rows_1 = window.shared_features(0, 1)
        assert len(shared) >= 20
        assert np.all(np.diff(shared) > 0)
        for pos, rows in ((0, rows_0), (1, rows_1)):
            np.testing.assert_array_equal(window.keyframes[pos].ids[rows], shared)

    def test_keyframe_arrays_read_only(self, clean_vertical_dataset):
        # a keyframe is the dataset's own frame record, not a copy of it
        window = select_window(clean_vertical_dataset, PipelineConfig())
        kf = window.keyframes[0]
        assert kf is clean_vertical_dataset.frames[kf.frame]
        for name in ("ids", "uv_l", "uv_r"):
            with pytest.raises(ValueError):
                getattr(kf, name)[0] = 0

    def test_keyframe_rejects_unsorted_ids(self):
        uv = np.zeros((2, 2))
        with pytest.raises(ValueError, match="frame 0: feature ids must ascend strictly"):
            FrameObservations(0, 0.0, [5, 5], uv, uv)


class TestRefineBodyVelocity:
    def test_noise_free_ascent(self, clean_vertical_dataset):
        # the true body pose at the earlier keyframe and the true camera pose
        # at the later one give the true (constant) climb velocity
        ds = clean_vertical_dataset
        window = select_window(ds, PipelineConfig())
        k_i, k_j = (int(np.argmin(np.abs(ds.truth.t - kf.t)))
                    for kf in window.keyframes[:2])
        out = refine_body_velocity(window, 0, ds.truth.body_pose(k_i),
                                   ds.truth.camera_pose(k_j, ds.rig), ds.rig)
        np.testing.assert_allclose(out, ds.truth.velocity[k_i], rtol=0.0, atol=1e-12)

    def test_lever_arm(self, clean_vertical_dataset):
        # a body turning in place moves its offset camera, but not itself
        ds = clean_vertical_dataset
        window = select_window(ds, PipelineConfig())
        still = Pose(Rotation.identity(), np.zeros(3), "b", "w")
        turned = Pose(Rotation.from_axis_angle([0, 0, 1], 0.5)
                      @ Rotation.from_axis_angle([1, 0, 0], 0.2), np.zeros(3), "b", "w")
        out = refine_body_velocity(window, 0, still, turned @ ds.rig.T_c_b, ds.rig)
        np.testing.assert_allclose(out, np.zeros(3), rtol=0.0, atol=1e-15)


class TestRunInitialization:
    def test_noise_free_vertical(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        report = evaluate_against_dataset(result, ds)
        assert np.abs(report.translation_errors).max() < 1e-4
        assert np.abs(report.velocity_errors).max() < 1e-9
        assert report.euler_rmse.max() < 1e-5

    @pytest.mark.parametrize("scene", ["helipad", "asphalt"])
    @pytest.mark.parametrize("kind", ["vertical", "oblique"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_noise_free_body_frame_velocity(self, scene, kind, seed):
        # every keyframe's velocity, seen in its estimated body frame, is the
        # true body-frame velocity: the IMU-only anchor's attitude error
        # (about 6e-6 rad on oblique windows) turns the whole world frame,
        # the velocity along with it
        ds = make_dataset(scene_preset(scene), TrajectoryProfile(kind=kind),
                          noise=NoiseModel.noiseless(), seed=seed)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        for t, pose, v in zip(result.keyframe_times, result.poses, result.velocities):
            k = int(np.argmin(np.abs(ds.truth.t - t)))
            true_b = ds.truth.body_pose(k).rotation.inverse().apply(ds.truth.velocity[k])
            np.testing.assert_allclose(pose.rotation.inverse().apply(v), true_b,
                                       rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("roll_deg", [2.0, 5.0, 10.0])
    @pytest.mark.parametrize("kind", ["vertical", "oblique"])
    def test_noise_free_rolled_camera(self, kind, roll_deg):
        # a camera mounted rolled about body x recovers ground truth as the
        # level one does: the prior normal is the world vertical in that camera
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=kind),
                          rig=rolled_rig(roll_deg), noise=NoiseModel.noiseless(), seed=1)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        assert evaluate_against_dataset(result, ds).translation_rmse.max() < 1e-4

    def test_velocity_does_not_depend_on_deviation_mode(self, noisy_vertical_dataset):
        # the velocity comes from the PnP fit before the weighted refit, in
        # world axes centred on the previous camera: the chained position,
        # which the refit moves by millimetres, never enters it
        dynamic, fixed = (run_on_dataset(noisy_vertical_dataset,
                                         PipelineConfig(deviation_mode=mode), seed=0)
                          for mode in ("dynamic", "fixed"))
        assert dynamic.status == fixed.status == STATUS_INITIALIZED
        assert len(dynamic.velocities) == len(fixed.velocities)
        for a, b in zip(dynamic.velocities, fixed.velocities):
            assert a.tobytes() == b.tobytes()
        shift = np.abs(dynamic.poses[-1].translation - fixed.poses[-1].translation).max()
        assert shift > 1e-4

    def test_scale_matches_plane_distance(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        k = int(np.argmin(np.abs(ds.truth.t - result.keyframe_times[1])))
        _, d_true = ds.truth.plane_in_camera(k, ds.rig)
        assert abs(result.scale - d_true) / d_true < 1e-6

    def test_end_to_end_reassembly(self, clean_vertical_dataset, monkeypatch):
        # the selected solution is the first pair's fit: the gyro rotation,
        # the chain's t_bar and the prior normal, reassembling the fitted H
        import planar_init.initializer as initializer
        fits = []

        def recorded(p_src, p_dst, rotation, n, **kwargs):
            fits.append((rotation, np.array(n), estimate(p_src, p_dst, rotation, n, **kwargs)))
            return fits[-1][2]

        monkeypatch.setattr(initializer, "estimate", recorded)
        ds = clean_vertical_dataset
        cfg = PipelineConfig()
        window = select_window(ds, cfg)
        result = run_initialization(window, ds.imu, ds.rig, cfg, seed=0)
        sel = result.selected
        r_gyro, n_prior, (fit, _) = fits[0]
        assert sel is fit
        assert sel.rotation.quat.tobytes() == r_gyro.quat.tobytes()
        assert sel.n.tobytes() == n_prior.tobytes()
        t_bar = sel.t_bar
        np.testing.assert_array_equal(sel.reassemble(),
                                      r_gyro.matrix() + np.outer(t_bar, n_prior))
        # the first pair's chained translation is s * t_bar
        cam = [result.poses[k] @ ds.rig.T_c_b for k in (0, 1)]
        step = cam[0].rotation.inverse().apply(cam[1].translation - cam[0].translation)
        np.testing.assert_allclose(step, result.scale * t_bar, rtol=1e-12, atol=1e-15)

    def test_transfer_rms_on_default_noise(self, noisy_vertical_dataset):
        # R_gyro and n_prior consistent with the fit: the inliers' transfer
        # residual is the tracking noise, 0.5 px per axis in each view, or
        # about 1 px as a 2-D distance, not the 3.2 px of the inlier gate
        result = run_on_dataset(noisy_vertical_dataset, PipelineConfig(), seed=0)
        rms = [p["transfer_rms_px"] for p in result.diagnostics["pairs"]]
        assert len(rms) == len(result.keyframe_times) - 1
        assert all(0.7 < v < 1.2 for v in rms), rms

    def test_feature_gate_fallback(self):
        from dataclasses import replace
        scene = replace(scene_preset("helipad"), feature_count=5)
        ds = make_dataset(scene, TrajectoryProfile(kind="vertical"),
                          noise=NoiseModel.noiseless(), seed=13)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_IMU_ONLY
        assert result.scale is None
        assert len(result.poses) == len(result.keyframe_times)

    def test_hover_pure_rotation(self):
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="hover"),
                          noise=NoiseModel.noiseless(), seed=14)
        cfg = PipelineConfig(preset_height_m=0.0)
        result = run_on_dataset(ds, cfg, seed=0)
        assert result.status == STATUS_PURE_ROTATION
        assert result.scale is None and result.selected is None
        payload = json.loads(json.dumps(result.to_json_dict()))  # serializable
        assert "selected" not in payload
        d = result.diagnostics
        # the gate stops the first pair, before any homography or indicator:
        # its trace holds the parallax and the pair's wall time alone
        [trace] = d["pairs"]
        assert trace["pair"] == 0
        assert 0.0 <= trace["parallax"] < cfg.ransac_threshold
        assert {k for k, v in trace.items() if v is not None} == {"pair", "parallax", "pair_s"}
        assert "indicator_percentiles" not in d

    @pytest.mark.parametrize("pixel_px", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scene", ["helipad", "asphalt", "lawn"])
    def test_noisy_hover_is_pure_rotation(self, scene, seed, pixel_px):
        # a hover pair's median derotated parallax is 1.5-2.5 pixel-noise
        # sigmas, below the 3.2 px RANSAC threshold even at 1 px noise
        ds = make_dataset(scene_preset(scene, seed=seed), TrajectoryProfile(kind="hover"),
                          noise=NoiseModel(pixel_px=pixel_px), seed=seed)
        result = run_on_dataset(ds, PipelineConfig(preset_height_m=0.0), seed=0)
        assert result.status == STATUS_PURE_ROTATION
        assert result.scale is None and result.selected is None

    @pytest.mark.parametrize("pixel_px", [0.5, 1.0])
    @pytest.mark.parametrize("scene", ["helipad", "asphalt", "lawn"])
    def test_slow_climb_clears_the_parallax_gate(self, scene, pixel_px):
        # 0.1 m/s gated at 0.5 m; the 10 m default field would leave fewer
        # than min_features in view that low, so the same 800 features are
        # spread over 3 m
        ds = make_dataset(scene_preset(scene, seed=1, extent=(3.0, 3.0)),
                          TrajectoryProfile(kind="vertical", climb_rate=0.1, duration=12.0),
                          noise=NoiseModel(pixel_px=pixel_px), seed=1)
        cfg = PipelineConfig(preset_height_m=0.5)
        result = run_on_dataset(ds, cfg, seed=0)
        assert result.status == STATUS_INITIALIZED
        # every pair clears the gate with room to spare
        assert min(p["parallax"] for p in result.diagnostics["pairs"]) > 2 * cfg.ransac_threshold

    def test_vertical_climb_t_parallel_n_under_default_noise(self):
        # a vertical climb translates the camera along the plane normal
        # (t ∥ n), the rank-1 translation's degenerate-looking case
        max_err, scale_err = [], []
        for scene in ("helipad", "asphalt", "lawn"):
            for seed in range(1, 6):
                ds = make_dataset(scene_preset(scene, seed=seed),
                                  TrajectoryProfile(kind="vertical"),
                                  noise=NoiseModel(), seed=seed)
                result = run_on_dataset(ds, PipelineConfig(), seed=seed)
                assert result.status == STATUS_INITIALIZED, (scene, seed)
                tr = ds.truth
                idx = [int(np.argmin(np.abs(tr.t - t))) for t in result.keyframe_times]
                for a, b in zip(idx, idx[1:]):
                    rel = tr.camera_pose(a, ds.rig).invert() @ tr.camera_pose(b, ds.rig)
                    t = rel.translation
                    n, _ = tr.plane_in_camera(a, ds.rig)
                    cos = abs(t @ n) / np.linalg.norm(t)
                    assert math.degrees(math.acos(min(cos, 1.0))) < 1.0
                report = evaluate_against_dataset(result, ds)
                max_err.append(np.abs(report.translation_errors).max())
                _, d_true = tr.plane_in_camera(idx[1], ds.rig)
                scale_err.append(abs(result.scale - d_true) / d_true)
        assert max(max_err) < 0.1
        assert np.median(scale_err) < 0.05

    def test_undecomposable_fit_is_a_homography_failure(self, clean_vertical_dataset,
                                                        monkeypatch):
        # a fit that decompose cannot split (here a non-finite t_bar) ends
        # the run at stage homography, not with a stray exception
        import planar_init.initializer as initializer

        def non_finite(*args, **kwargs):
            fit, mask = estimate(*args, **kwargs)
            return HomographySolution(fit.rotation, np.full(3, np.nan), fit.n), mask

        monkeypatch.setattr(initializer, "estimate", non_finite)
        with pytest.raises(PipelineError) as info:
            run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
        assert info.value.stage == "homography"

    def test_degenerate_translation_is_a_scale_failure(self, clean_vertical_dataset,
                                                       monkeypatch):
        import planar_init.initializer as initializer

        def degenerate(t_bar, t_hat):
            raise DegenerateTranslationError("up-to-scale translation is degenerate")

        monkeypatch.setattr(initializer, "recover_scale", degenerate)
        with pytest.raises(PipelineError) as info:
            run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
        assert info.value.stage == "scale"

    def test_determinism(self, noisy_vertical_dataset):
        # bit-identical apart from wall-clock stage timings
        ds = noisy_vertical_dataset
        a = run_on_dataset(ds, PipelineConfig(), seed=5).to_json_dict()
        b = run_on_dataset(ds, PipelineConfig(), seed=5).to_json_dict()
        for d in (a["diagnostics"], b["diagnostics"]):
            d.pop("timings")
            for pair in d["pairs"]:
                del pair["homography_s"], pair["pnp_s"], pair["pair_s"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_diagnostics_populated(self, noisy_vertical_dataset):
        result = run_on_dataset(noisy_vertical_dataset, PipelineConfig(), seed=0)
        d = result.diagnostics
        assert len(d["pairs"]) == len(result.keyframe_times) - 1
        assert all(p["selection_margin"] >= 0.0 for p in d["pairs"])
        assert all(p["pnp_inliers"] >= 4 for p in d["pairs"])
        # each per-pair value is stored once, in its pair's record
        for key in ("selection_margins", "pnp_inlier_counts", "scales"):
            assert key not in d
        pct = d["indicator_percentiles"]
        assert pct["p50"] <= pct["p95"] <= pct["p100"]

    def test_triangulates_each_inlier_once(self, noisy_vertical_dataset, monkeypatch):
        # one stacked call per pair covers each inlier's row once
        import planar_init.initializer as initializer
        calls = []
        real = initializer.triangulate_stereo

        def counted(uv_l, uv_r, rig):
            calls.append(np.asarray(uv_l))
            return real(uv_l, uv_r, rig)

        monkeypatch.setattr(initializer, "triangulate_stereo", counted)
        result = run_on_dataset(noisy_vertical_dataset, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        pairs = result.diagnostics["pairs"]
        assert len(calls) == len(pairs)
        for rows, pair in zip(calls, pairs):
            # every inlier is far above the disparity floor on this dataset
            assert len(rows) == pair["homography_inliers"]
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_stationarity_gate(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        window = select_window(ds, PipelineConfig())
        spinning = ImuStream(ds.imu.t, ds.imu.gyro + 0.1, ds.imu.accel)
        with pytest.raises(PipelineError) as info:
            run_initialization(window, spinning, ds.rig, PipelineConfig(), seed=0)
        assert info.value.stage == "stationarity"

    @pytest.mark.parametrize("shift_s, reaches", [(0.002, True), (0.003, False)])
    def test_anchor_within_half_a_sample(self, clean_vertical_dataset, shift_s, reaches):
        # the 200 Hz stream allows the anchor 2.5 ms from the first keyframe
        ds = clean_vertical_dataset
        window = select_window(ds, PipelineConfig())
        t = window.track.t.copy()
        t[0] -= shift_s
        moved = KeyframeWindow(window.keyframes, replace(window.track, t=t))
        if reaches:
            assert run_initialization(moved, ds.imu, ds.rig, PipelineConfig(), seed=0).initialized
            return
        with pytest.raises(PipelineError, match="does not reach the first keyframe") as info:
            run_initialization(moved, ds.imu, ds.rig, PipelineConfig(), seed=0)
        assert info.value.stage == "imu"

    def test_pipeline_error_pickles(self):
        # crossing a process boundary keeps the stage, the message and what
        # the pipeline computed before failing
        import pickle
        exc = PipelineError("pnp", "boom")
        exc.diagnostics = {"feature_counts": [40, 38], "pairs": [{"pair": 0}]}
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is PipelineError
        assert back.stage == "pnp"
        assert back.message == "boom"
        assert str(back) == "[pnp] boom"
        assert back.diagnostics == exc.diagnostics

    def test_result_schema_round_trip(self, clean_vertical_dataset):
        result = run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert payload["schema_version"] == 1
        assert payload["status"] == STATUS_INITIALIZED
        assert len(payload["keyframes"]) == len(result.keyframe_times)
        assert payload["scale"] == result.scale

    @pytest.mark.parametrize("status", [STATUS_INITIALIZED, STATUS_IMU_ONLY,
                                        STATUS_PURE_ROTATION])
    def test_result_json_to_from_to_is_equal(self, status, clean_vertical_dataset):
        result = _outcome(status, clean_vertical_dataset)
        assert result.status == status
        payload = json.loads(json.dumps(result.to_json_dict()))
        back = InitializationResult.from_json_dict(payload)
        assert json.dumps(back.to_json_dict()) == json.dumps(payload)
        assert (back.selected is None) == (status != STATUS_INITIALIZED)

    def test_every_outcome_returns_the_same_diagnostics(self, clean_vertical_dataset,
                                                        monkeypatch):
        # initialized, feature-gate fallback, pure rotation and a PipelineError
        # each return one dict of the same keys, per-pair times in the traces
        outcomes = {status: _outcome(status, clean_vertical_dataset).diagnostics
                    for status in (STATUS_INITIALIZED, STATUS_IMU_ONLY,
                                   STATUS_PURE_ROTATION)}
        import planar_init.initializer as initializer
        real, calls = initializer.solve_pnp, []

        def third_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise InsufficientDataError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(initializer, "solve_pnp", third_call_fails)
        with pytest.raises(PipelineError) as info:
            run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
        outcomes["failed"] = info.value.diagnostics

        fields = {f.name for f in dataclasses.fields(PairTrace)}
        pairs_run = {STATUS_INITIALIZED: 9, STATUS_IMU_ONLY: 0, STATUS_PURE_ROTATION: 1,
                     "failed": 2}
        for name, d in outcomes.items():
            fitted = [p for p in d["pairs"] if p["homography_s"] is not None]
            extra = {"indicator_percentiles"} if fitted else set()
            assert set(d) == {"feature_counts", "deviation_mode", "pairs", "timings"} | extra
            assert set(d["timings"]) == {"anchor_s", "total_s"}, name
            assert d["timings"]["total_s"] > d["timings"]["anchor_s"] > 0.0, name
            assert len(d["pairs"]) == pairs_run[name], name
            assert all(set(p) == fields for p in d["pairs"]), name
            assert all(p["homography_s"] > 0.0 and p["pnp_s"] > 0.0 for p in fitted), name
            # each pair step is timed whole, and the steps and the anchor
            # check do not overlap
            assert all(p["pair_s"] > 0.0 for p in d["pairs"]), name
            assert all(p["pair_s"] >= p["homography_s"] + p["pnp_s"] for p in fitted), name
            timings = d["timings"]
            assert (timings["anchor_s"] + sum(p["pair_s"] for p in d["pairs"])
                    <= timings["total_s"]), name

    def test_anchor_is_first_keyframe_pose(self, clean_vertical_dataset):
        # the first keyframe's pose is the IMU-only propagated anchor
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        k0 = int(np.argmin(np.abs(ds.truth.t - result.keyframe_times[0])))
        np.testing.assert_allclose(result.poses[0].translation,
                                   ds.truth.position[k0], atol=1e-4)


def _outcome(status: str, clean_vertical_dataset) -> InitializationResult:
    """A run that ends with ``status``."""
    if status == STATUS_INITIALIZED:
        return run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
    if status == STATUS_IMU_ONLY:  # 5 features: below min_features
        ds = make_dataset(replace(scene_preset("helipad"), feature_count=5),
                          TrajectoryProfile(kind="vertical"),
                          noise=NoiseModel.noiseless(), seed=13)
        return run_on_dataset(ds, PipelineConfig(), seed=0)
    ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="hover"),
                      noise=NoiseModel.noiseless(), seed=14)
    return run_on_dataset(ds, PipelineConfig(preset_height_m=0.0), seed=0)


# HEAD's per-feature chain, kept here as the oracle for the stacked one: one
# call per feature, on 2- and 3-vectors
def _per_feature_normalize(rig, uv):
    return np.array([(uv[0] - rig.cx) / rig.f, (uv[1] - rig.cy) / rig.f])


def _per_feature_triangulate(uv_l, uv_r, rig, min_disparity_px):
    """The feature's left-camera point, or None where it is not reliable."""
    disparity = float(uv_l[0]) - float(uv_r[0])
    if disparity <= 0.0 or disparity < min_disparity_px:
        return None
    z = rig.f * rig.baseline / disparity
    n = _per_feature_normalize(rig, uv_l)
    return z * np.array([n[0], n[1], 1.0])


def _per_feature_apply(pose, p):
    return pose.rotation.matrix() @ p + pose.translation


def _per_feature_stereo_sigma(uv_l, uv_r, rig, depth):
    n = _per_feature_normalize(rig, uv_l)
    pred = depth * np.array([n[0], n[1], 1.0]) + np.array([-rig.baseline, 0.0, 0.0])
    return rig.f * float(np.linalg.norm(pred[:2] / pred[2] - _per_feature_normalize(rig, uv_r)))


def _per_feature_weight(sigma, floor):
    s = max(sigma, floor)
    return 1.0 / (s * s)


class TestStackedChainMatchesPerFeatureChain:
    """Each stacked per-pair step of a real window must reproduce the
    per-feature computation it replaced bit for bit: the triangulated
    points, PnP's points and the refit weights.  PnP works in world axes
    centred on the previous camera; the velocity is the displacement of
    the body pose PnP gives there, before the refit."""

    @staticmethod
    def spy(monkeypatch):
        import planar_init.initializer as initializer
        calls = {}
        for module, name in ((initializer, "estimate"), (initializer, "triangulate_stereo"),
                             (initializer, "solve_pnp"), (initializer, "refine_pose"),
                             (initializer, "refine_velocity")):
            calls[name] = []

            def wrapper(*args, _real=getattr(module, name), _log=calls[name], **kwargs):
                out = _real(*args, **kwargs)
                _log.append((args, out))
                return out

            monkeypatch.setattr(module, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind, seed", [("vertical", 21), ("oblique", 16)])
    def test_real_window(self, kind, seed, monkeypatch):
        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind=kind),
                          noise=NoiseModel(), seed=seed)
        cfg = PipelineConfig()
        rig = ds.rig
        window = select_window(ds, cfg)
        calls = self.spy(monkeypatch)
        result = run_initialization(window, ds.imu, rig, cfg, seed=0)
        assert result.status == STATUS_INITIALIZED
        pairs = len(window.keyframes) - 1
        for name in ("estimate", "triangulate_stereo", "solve_pnp", "refine_pose",
                     "refine_velocity"):
            assert len(calls[name]) == pairs, name
        for m in range(pairs):
            kf_i, kf_j = window.keyframes[m], window.keyframes[m + 1]
            rows_i = dict(zip(kf_i.ids.tolist(), range(len(kf_i.ids))))
            rows_j = dict(zip(kf_j.ids.tolist(), range(len(kf_j.ids))))
            shared = sorted(set(rows_i) & set(rows_j))
            _, (_, inliers) = calls["estimate"][m]
            points = {}
            for fid in np.array(shared)[inliers].tolist():
                r = rows_i[fid]
                p = _per_feature_triangulate(kf_i.uv_l[r], kf_i.uv_r[r], rig,
                                             cfg.min_disparity_px)
                if p is not None:
                    points[fid] = p
            fids = list(points)
            _, stacked = calls["triangulate_stereo"][m]
            np.testing.assert_array_equal(stacked, np.array(list(points.values())))

            cam_prev = result.poses[m] @ rig.T_c_b
            r_prev = cam_prev.rotation.matrix()
            world = np.array([r_prev @ p for p in points.values()])
            (system,), (t_pnp, pnp_mask) = calls["solve_pnp"][m]
            np.testing.assert_array_equal(system.points_w, world)
            np.testing.assert_array_equal(
                system.obs, normalize(rig, kf_j.uv_l[[rows_j[f] for f in fids]]))

            inv = t_pnp.invert()
            weights = []
            for k in np.flatnonzero(pnp_mask):
                r = rows_j[fids[k]]
                z = float(_per_feature_apply(inv, world[k])[2])
                # an inlier behind the camera weighs zero
                weights.append(_per_feature_weight(
                    _per_feature_stereo_sigma(kf_j.uv_l[r], kf_j.uv_r[r], rig, z),
                    DEVIATION_FLOOR_PX) if z > 0.0 else 0.0)
            # the refit re-weights PnP's own system; the outliers weigh zero
            (refit_system, refit_weights), _ = calls["refine_pose"][m]
            assert refit_system is system
            np.testing.assert_array_equal(refit_weights[pnp_mask], weights)
            assert not refit_weights[~pnp_mask].any()

            (body_prev, body_curr, dt), velocity = calls["refine_velocity"][m]
            origin = Pose(cam_prev.rotation, np.zeros(3), "c", "w") @ rig.T_c_b.invert()
            assert body_prev.translation.tobytes() == origin.translation.tobytes()
            assert body_prev.rotation.angle_to(result.poses[m].rotation) < 1e-12
            assert body_curr.translation.tobytes() == \
                (t_pnp @ rig.T_c_b.invert()).translation.tobytes()
            assert dt == kf_j.t - kf_i.t
            assert velocity.tobytes() == result.velocities[m].tobytes()


class TestPipelineMatchesReferenceRansac:
    """A window run with the block 2-point RANSAC must give the same bits as
    one run with the one-hypothesis-at-a-time reference loop of
    test_homography: the comparison is program against reference, not
    against pinned bytes."""

    def test_oblique_window(self, monkeypatch):
        import planar_init.initializer as initializer
        from test_homography import reference_estimate

        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique"),
                          noise=NoiseModel(), seed=16)
        cfg = PipelineConfig()
        window = select_window(ds, cfg)

        def run(solver):
            # the generator state after each pair's search, next to the result
            states = []

            def recorded(p_src, p_dst, rotation, n, *, threshold, confidence, max_iters,
                         seed):
                out = solver(p_src, p_dst, rotation, n, seed, threshold=threshold,
                             confidence=confidence, max_iters=max_iters)
                states.append(seed.bit_generator.state)
                return out

            monkeypatch.setattr(initializer, "estimate", recorded)
            return run_initialization(window, ds.imu, ds.rig, cfg, seed=0), states

        fast, fast_states = run(lambda p_src, p_dst, rotation, n, rng, **kw:
                                estimate(p_src, p_dst, rotation, n, seed=rng, **kw))
        ref, ref_states = run(reference_estimate)

        assert fast.status == ref.status == STATUS_INITIALIZED
        assert len(fast_states) == len(window.keyframes) - 1
        assert fast_states == ref_states
        assert np.float64(fast.scale).tobytes() == np.float64(ref.scale).tobytes()
        for a, b in zip(fast.poses, ref.poses, strict=True):
            assert a.rotation.quat.tobytes() == b.rotation.quat.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()
        for a, b in zip(fast.velocities, ref.velocities, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        counts = [[(p["homography_inliers"], p["pnp_inliers"]) for p in r.diagnostics["pairs"]]
                  for r in (fast, ref)]
        assert counts[0] == counts[1]
