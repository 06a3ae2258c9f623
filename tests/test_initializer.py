import json
import math

import numpy as np
import pytest

from planar_init.config import PipelineConfig
from planar_init.errors import (
    DegenerateTranslationError,
    InvalidDisparityError,
    NoSolutionError,
    PipelineError,
)
from planar_init.geometry import Pose, Rotation
from planar_init.harness import evaluate_against_dataset, run_on_dataset, select_window
from planar_init.homography import HomographySolution
from planar_init.imu import ImuStream, PriorNormal, nav_state_at_rest
from planar_init.initializer import (
    STATUS_IMU_ONLY,
    STATUS_INITIALIZED,
    STATUS_PURE_ROTATION,
    KeyframeWindow,
    metric_alignment,
    recover_scale,
    refine_body_velocity,
    run_initialization,
    select_solution,
    triangulate_stereo,
)
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


class TestSelectSolution:
    def test_prefers_matching_normal(self):
        prior = PriorNormal(np.array([0.0, 0.0, 1.0]), 0.0)
        a = solution([0.0, 0.0, 1.0])
        b = solution([1.0, 0.0, 0.0])
        sel = select_solution(prior, [a, b])
        assert sel.solution is a
        assert sel.margin > 0.0

    def test_tie_takes_first(self):
        prior = PriorNormal(np.array([0.0, 0.0, 1.0]), 0.0)
        a = solution([1.0, 0.0, 1.0])
        b = solution([-1.0, 0.0, 1.0])  # same distance by symmetry
        sel = select_solution(prior, [a, b])
        assert sel.solution is a
        assert sel.margin == pytest.approx(0.0, abs=1e-15)

    def test_single_candidate(self):
        prior = PriorNormal(np.array([0.0, 0.0, 1.0]), 0.0)
        a = solution([0.3, 0.1, 1.0])
        sel = select_solution(prior, [a])
        assert sel.solution is a
        assert sel.margin == math.inf

    def test_margin_between_two_nearest_of_three(self):
        prior = PriorNormal(np.array([0.0, 0.0, 1.0]), 0.0)
        far = solution([1.0, 0.0, 0.2])
        near = solution([0.1, 0.0, 1.0])
        mid = solution([0.5, 0.0, 1.0])
        sel = select_solution(prior, [far, near, mid])
        assert sel.solution is near
        d_far, d_near, d_mid = sel.distances
        assert sel.margin == d_mid - d_near
        assert 0.0 < sel.margin < d_far - d_near

    def test_empty_raises(self):
        with pytest.raises(NoSolutionError):
            select_solution(PriorNormal(np.array([0.0, 0.0, 1.0]), 0.0), [])

    def test_argmin_scale_invariance(self):
        # the argmin selection is invariant to a positive rescale of the
        # distance computations
        rng = np.random.default_rng(0)
        for _ in range(100):
            prior = PriorNormal(rng.normal(size=3), 0.0)
            cands = [solution(rng.normal(size=3)) for _ in range(2)]
            sel = select_solution(prior, cands)
            d = np.array(sel.distances)
            for c in (0.1, 3.0, 1e6):
                assert np.argmin(c * d) == np.argmin(d)


class TestTriangulateStereo:
    def test_direct_evaluation(self, simple_rig):
        # f=400, b=0.1, disparity=20 -> z = 2
        uv_l = np.array([700.0, 400.0])
        uv_r = np.array([680.0, 400.0])
        sp = triangulate_stereo(uv_l, uv_r, simple_rig)
        assert sp.point[2] == pytest.approx(2.0)
        assert sp.disparity_px == pytest.approx(20.0)
        assert sp.reliable

    def test_simulated_point(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        rig = ds.rig
        fr = ds.frames[70]
        k = int(ds.truth.cam_indices[fr.frame])
        cam = ds.truth.camera_pose(k, rig)
        for fid, (uv_l, uv_r) in list(fr.pixels.items())[:50]:
            sp = triangulate_stereo(uv_l, uv_r, rig)
            expected = cam.invert().apply(ds.truth.features[fid])
            np.testing.assert_allclose(sp.point, expected, atol=1e-9)

    def test_zero_disparity(self, simple_rig):
        with pytest.raises(InvalidDisparityError):
            triangulate_stereo([640.0, 400.0], [640.0, 400.0], simple_rig)

    def test_unreliable_flag(self, simple_rig):
        sp = triangulate_stereo([640.5, 400.0], [640.0, 400.0], simple_rig,
                                min_disparity_px=1.0)
        assert not sp.reliable


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


class TestMetricAlignment:
    def test_chain_collapses(self, simple_rig):
        t_pnp = Pose(Rotation.identity(), np.array([0.0, 0.0, 2.0]), "c", "w")
        body = Pose(Rotation.identity(), np.zeros(3), "b", "w")
        np.testing.assert_allclose(metric_alignment(t_pnp, body, simple_rig),
                                   [0.0, 0.0, 2.0], atol=1e-15)

    def test_pose_chain_identity(self, rig):
        # component formula vs. the pose-chain evaluation
        rng = np.random.default_rng(2)
        for _ in range(100):
            body = Pose(random_rotation(rng), rng.normal(size=3), "b", "w")
            t_pnp = Pose(random_rotation(rng), rng.normal(size=3), "c", "w")
            t_hat = metric_alignment(t_pnp, body, rig)
            chain = (body @ rig.T_c_b).invert() @ t_pnp
            np.testing.assert_allclose(t_hat, chain.translation, atol=1e-12)

    def test_simulated_offset_extrinsics(self, clean_vertical_dataset):
        # truth poses in, true relative camera translation out
        ds = clean_vertical_dataset
        rig = ds.rig
        k_i = int(ds.truth.cam_indices[60])
        k_j = int(ds.truth.cam_indices[65])
        body_i = ds.truth.body_pose(k_i)
        cam_j = ds.truth.camera_pose(k_j, rig)
        t_hat = metric_alignment(cam_j, body_i, rig)
        expected = (ds.truth.camera_pose(k_i, rig).invert() @ cam_j).translation
        np.testing.assert_allclose(t_hat, expected, atol=1e-9)


class TestWindowTypes:
    def test_strictly_increasing_times(self):
        from planar_init.initializer import Keyframe
        kfs = [Keyframe(0, 0.0, {}), Keyframe(1, 0.0, {})]
        imu = ImuStream([0.0], np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            KeyframeWindow(kfs, imu, nav_state_at_rest(0.0))

    def test_shared_features(self, clean_vertical_dataset):
        window = select_window(clean_vertical_dataset, PipelineConfig())
        shared = window.shared_features(0, 1)
        assert len(shared) >= 20
        assert shared == sorted(shared)
        for pos in (0, 1):
            assert set(shared) <= set(window.keyframes[pos].observations)


class TestRefineBodyVelocity:
    def test_noise_free_ascent(self, clean_vertical_dataset):
        # acceptance criterion 5 core: recover the true body velocity from
        # rendered tracks, starting at zero
        ds = clean_vertical_dataset
        cfg = PipelineConfig()
        window = select_window(ds, cfg)
        kf_i, kf_j = window.keyframes[0], window.keyframes[1]
        k_i = int(ds.truth.cam_indices[kf_i.index])
        cam_i = ds.truth.camera_pose(k_i, ds.rig)
        cam_j = ds.truth.camera_pose(int(ds.truth.cam_indices[kf_j.index]), ds.rig)
        rel = cam_j.invert() @ cam_i  # maps frame i into frame j
        n_i, d_i = ds.truth.plane_in_camera(k_i, ds.rig)
        from planar_init.homography import synthesize
        h_fwd = synthesize(rel.rotation, rel.translation, n_i, d_i)
        out = refine_body_velocity(window, h_fwd, np.zeros(3), ds.rig,
                                   R_w_b=ds.truth.body_pose(k_i).rotation.inverse(),
                                   config=cfg)
        v_true = ds.truth.velocity[k_i]
        np.testing.assert_allclose(out.velocity, v_true, atol=1e-6)
        assert out.iterations <= 10


class TestRunInitialization:
    def test_noise_free_vertical(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        report = evaluate_against_dataset(result, ds)
        assert np.abs(report.translation_errors).max() < 1e-4
        assert np.abs(report.velocity_errors).max() < 1e-4
        assert report.euler_rmse.max() < 1e-5

    def test_scale_matches_plane_distance(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        k = ds.truth.nearest_index(result.keyframe_times[1])
        _, d_true = ds.truth.plane_in_camera(k, ds.rig)
        assert abs(result.scale - d_true) / d_true < 1e-6

    def test_end_to_end_reassembly(self, clean_vertical_dataset):
        # the selected solution must reassemble the estimated homography
        ds = clean_vertical_dataset
        cfg = PipelineConfig()
        window = select_window(ds, cfg)
        result = run_initialization(window, ds.imu, ds.rig, cfg, seed=0)
        sel = result.selected
        from planar_init.homography import estimate
        kf_i, kf_j = window.keyframes[0], window.keyframes[1]
        shared = window.shared_features(0, 1)
        p_src = np.array([kf_j.observations[f].norm_l for f in shared])
        p_dst = np.array([kf_i.observations[f].norm_l for f in shared])
        h, _ = estimate(p_src, p_dst, threshold=cfg.ransac_threshold, seed=0)
        re = sel.reassemble()
        aligned = re * np.sign(re[2, 2] * h.matrix[2, 2])
        s2 = np.linalg.svd(aligned, compute_uv=False)[1]
        assert np.linalg.norm(aligned / s2 - h.matrix) < 1e-8

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
        assert result.scale is None
        json.dumps(result.to_json_dict())  # diagnostics stay serializable
        # the indicator is summarized as for an initialized result
        pct = result.diagnostics["indicator_percentiles"]
        assert 0.0 <= pct["p50"] <= pct["p95"] <= pct["p100"]
        assert "indicator_values" not in result.diagnostics

    def test_determinism(self, noisy_vertical_dataset):
        # bit-identical apart from wall-clock stage timings
        ds = noisy_vertical_dataset
        a = run_on_dataset(ds, PipelineConfig(), seed=5).to_json_dict()
        b = run_on_dataset(ds, PipelineConfig(), seed=5).to_json_dict()
        a["diagnostics"].pop("timings")
        b["diagnostics"].pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_diagnostics_populated(self, noisy_vertical_dataset):
        result = run_on_dataset(noisy_vertical_dataset, PipelineConfig(), seed=0)
        d = result.diagnostics
        assert len(d["pairs"]) == len(result.keyframe_times) - 1
        assert all(p["selection_margin"] >= 0.0 for p in d["pairs"])
        assert all(p["pnp_inliers"] >= 4 for p in d["pairs"])
        assert all(isinstance(p["gn_converged"], bool) for p in d["pairs"])
        # each per-pair value is stored once, in its pair's record
        for key in ("selection_margins", "pnp_inlier_counts", "gn_iterations", "scales"):
            assert key not in d
        pct = d["indicator_percentiles"]
        assert pct["p50"] <= pct["p95"] <= pct["p100"]

    def test_triangulates_each_inlier_once(self, noisy_vertical_dataset, monkeypatch):
        # PnP and the velocity refinement share one stereo point per inlier
        import planar_init.initializer as initializer
        calls = []
        real = initializer.triangulate_stereo

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(initializer, "triangulate_stereo", counted)
        result = run_on_dataset(noisy_vertical_dataset, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
        pairs = result.diagnostics["pairs"]
        assert len(calls) == sum(p["homography_inliers"] for p in pairs)

    def test_stationarity_gate(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        window = select_window(ds, PipelineConfig())
        spinning = ImuStream(ds.imu.t, ds.imu.gyro + 0.1, ds.imu.accel)
        with pytest.raises(PipelineError) as info:
            run_initialization(window, spinning, ds.rig, PipelineConfig(), seed=0)
        assert info.value.stage == "stationarity"

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

    def test_anchor_is_first_keyframe_pose(self, clean_vertical_dataset):
        # the first keyframe's pose is the IMU-only propagated anchor
        ds = clean_vertical_dataset
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        k0 = ds.truth.nearest_index(result.keyframe_times[0])
        np.testing.assert_allclose(result.poses[0].translation,
                                   ds.truth.position[k0], atol=1e-4)
