import shutil
import warnings

import numpy as np
import pytest

from planar_init import errors, simulator
from planar_init.geometry import FrameObservations, normalize, quat_matrices
from planar_init.homography import synthesize
from planar_init.imu import propagate, nav_state_at_rest
from planar_init.simulator import (
    NoiseModel,
    SceneConfig,
    TrajectoryProfile,
    dataset_digest,
    generate_scene,
    generate_trajectory,
    load_dataset,
    make_dataset,
    render_tracks,
    scene_preset,
    synthesize_imu,
    write_dataset,
)

from conftest import transfer


def per_frame_render(scene, truth, rig, noise_px=0.0, seed=0, min_depth=0.05):
    """Reference renderer, one camera frame at a time: (frame, t, ids, uv_l,
    uv_r) per frame, and the number of visible features per frame.  Frame k
    draws its noise from its own generator, the k-th spawned child of the
    seed, as one (kept rows, 4) block: uL, vL, uR, vR."""
    r_cb = rig.T_c_b.rotation.matrix()
    t_cb = rig.T_c_b.translation
    body_mats = quat_matrices(truth.quat_wxyz)
    streams = np.random.SeedSequence(seed).spawn(len(truth.cam_indices))
    frames, visible = [], []
    for frame_no, k in enumerate(truth.cam_indices):
        r_bw = body_mats[k]
        cam_pos = truth.position[k] + r_bw @ t_cb
        r_wc = (r_bw @ r_cb).T
        p_cl = (scene - cam_pos) @ r_wc.T
        p_cr = p_cl.copy()
        p_cr[:, 0] -= rig.baseline
        idx = np.flatnonzero((p_cl[:, 2] > min_depth) & (p_cr[:, 2] > min_depth))
        uvl = rig.f * p_cl[idx, :2] / p_cl[idx, 2:] + (rig.cx, rig.cy)
        uvr = rig.f * p_cr[idx, :2] / p_cr[idx, 2:] + (rig.cx, rig.cy)
        inb = ((uvl[:, 0] >= 0) & (uvl[:, 0] < rig.width)
               & (uvl[:, 1] >= 0) & (uvl[:, 1] < rig.height)
               & (uvr[:, 0] >= 0) & (uvr[:, 0] < rig.width)
               & (uvr[:, 1] >= 0) & (uvr[:, 1] < rig.height))
        uvl, uvr = uvl[inb], uvr[inb]
        if noise_px > 0.0:
            rng = np.random.default_rng(streams[frame_no])
            noise = rng.normal(0.0, noise_px, size=(len(uvl), 4))
            uvl = uvl + noise[:, :2]
            uvr = uvr + noise[:, 2:]
        frames.append((frame_no, float(truth.t[k]), idx[inb], uvl, uvr))
        visible.append(len(idx))
    return frames, np.array(visible)


class TestScene:
    def test_flat_when_roughness_zero(self):
        pts = generate_scene(SceneConfig(feature_count=500, roughness=0.0, seed=3))
        assert pts.shape == (500, 3)
        assert np.all(pts[:, 2] == 0.0)

    def test_deterministic(self):
        a = generate_scene(SceneConfig(feature_count=200, roughness=0.02, seed=9))
        b = generate_scene(SceneConfig(feature_count=200, roughness=0.02, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_roughness_statistics(self):
        pts = generate_scene(SceneConfig(feature_count=10_000, roughness=0.05, seed=1))
        std = float(np.std(pts[:, 2]))
        assert abs(std - 0.05) < 0.005  # within 10%

    def test_dropout_polygon_excluded(self):
        poly = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        pts = generate_scene(SceneConfig(feature_count=2000, seed=2,
                                         dropout_polygons=(poly,)))
        inside = (np.abs(pts[:, 0]) < 1.0) & (np.abs(pts[:, 1]) < 1.0)
        assert not inside.any()

    def test_presets(self):
        assert scene_preset("helipad").roughness == 0.0
        assert scene_preset("asphalt").roughness == 0.01
        assert scene_preset("lawn").roughness == 0.05
        with pytest.raises(ValueError):
            scene_preset("volcano")


class TestTrajectory:
    def test_vertical_has_no_horizontal_velocity(self):
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        assert np.all(truth.velocity[:, 0] == 0.0)
        assert np.all(truth.velocity[:, 1] == 0.0)
        assert -truth.position[-1, 2] >= 3.0

    def test_hover_identity_relative_poses(self):
        truth = generate_trajectory(TrajectoryProfile(kind="hover"))
        k = truth.cam_indices
        assert np.ptp(truth.position[k], axis=0).max() == 0.0
        assert np.all(truth.quat_wxyz[k] == truth.quat_wxyz[k[0]])

    def test_velocity_is_position_derivative(self):
        # numeric differentiation oracle on a fine grid
        profile = TrajectoryProfile(kind="oblique", imu_rate_hz=20_000.0)
        truth = generate_trajectory(profile)
        fd = np.gradient(truth.position, truth.t, axis=0)
        interior = slice(2, -2)
        np.testing.assert_allclose(fd[interior], truth.velocity[interior], atol=1e-6)

    def test_stationary_prefix(self):
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        prefix = truth.t <= 1.0
        assert np.all(truth.velocity[prefix] == 0.0)
        assert np.all(truth.omega_body[prefix] == 0.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TrajectoryProfile(cam_rate_hz=19.0, imu_rate_hz=200.0)


class TestRenderTracks:
    def test_consistency_triangle(self, rig):
        # ground-truth poses + plane -> homography -> every rendered
        # correspondence satisfies it (noise-free, roughness 0)
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                          rig=rig, noise=NoiseModel.noiseless(), seed=5)
        truth = ds.truth
        f_a, f_b = ds.frames[70], ds.frames[75]
        k_a = truth.cam_indices[f_a.frame]
        k_b = truth.cam_indices[f_b.frame]
        cam_a = truth.camera_pose(int(k_a), rig)
        cam_b = truth.camera_pose(int(k_b), rig)
        rel = cam_b.invert() @ cam_a  # T_ca^cb
        n_a, d_a = truth.plane_in_camera(int(k_a), rig)
        h = synthesize(rel.rotation, rel.translation, n_a, d_a)
        shared, rows_a, rows_b = np.intersect1d(f_a.ids, f_b.ids, return_indices=True)
        assert len(shared) >= 20
        p_a = normalize(rig, f_a.uv_l[rows_a])
        p_b = normalize(rig, f_b.uv_l[rows_b])
        np.testing.assert_allclose(transfer(h.reassemble(), p_a), p_b, atol=1e-12)

    def test_stereo_disparity_consistency(self, rig):
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                          rig=rig, noise=NoiseModel.noiseless(), seed=6)
        truth = ds.truth
        fr = ds.frames[80]
        k = int(truth.cam_indices[fr.frame])
        cam = truth.camera_pose(k, rig)
        p_c = cam.invert().apply(truth.features[fr.ids])
        np.testing.assert_allclose(fr.uv_l[:, 0] - fr.uv_r[:, 0],
                                   rig.f * rig.baseline / p_c[:, 2], atol=1e-9)
        np.testing.assert_allclose(fr.uv_l[:, 1], fr.uv_r[:, 1], atol=1e-9)

    def test_low_altitude_starves_features(self, rig):
        # below 0.2 m of camera altitude the stereo overlap holds almost
        # no features: the not-started regime before the height gate
        scene = generate_scene(SceneConfig(feature_count=800, seed=7))
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        frames = render_tracks(scene, truth, rig)
        alt = -truth.position[truth.cam_indices, 2]
        for fr in frames:
            cam_alt = alt[fr.frame] - rig.T_c_b.translation[2]
            if 0.01 < cam_alt < 0.2:
                assert len(fr.ids) < 20

    def test_track_ids_stable(self, clean_vertical_dataset):
        ds = clean_vertical_dataset
        f_a, f_b = ds.frames[70], ds.frames[80]
        shared = np.intersect1d(f_a.ids, f_b.ids)
        assert len(shared)  # same physical features carry the same id
        assert shared.max() < len(ds.truth.features)

    @pytest.mark.parametrize("kind, duration", [("vertical", 6.0), ("oblique", 6.0),
                                                ("hover", 6.0), ("vertical", 3.0),
                                                ("hover", 0.3)])
    @pytest.mark.parametrize("noise_px", [0.5, 0.0])
    def test_matches_per_frame_reference(self, rig, kind, duration, noise_px):
        # the stacked chunks give every frame the same bits, and the same
        # noise draws, as projecting one frame at a time
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind=kind, duration=duration))
        frames = render_tracks(scene, truth, rig, noise_px=noise_px, seed=9)
        expected, _ = per_frame_render(scene, truth, rig, noise_px=noise_px, seed=9)
        assert len(frames) % simulator._RENDER_CHUNK != 0  # a partial last chunk
        assert len(frames) == len(expected)
        for fr, (frame_no, t, ids, uv_l, uv_r) in zip(frames, expected):
            assert (fr.frame, fr.t) == (frame_no, t)
            np.testing.assert_array_equal(fr.ids, ids)
            assert fr.uv_l.tobytes() == uv_l.tobytes()
            assert fr.uv_r.tobytes() == uv_r.tobytes()

    @pytest.mark.parametrize("noise_px", [0.5, 0.0])
    def test_matches_reference_on_starved_frames(self, rig, noise_px):
        # below the plane no feature is visible; just above it features are
        # visible but fall outside the stereo overlap
        scene = generate_scene(SceneConfig(feature_count=800, seed=7))
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        frames = render_tracks(scene, truth, rig, noise_px=noise_px, seed=1)
        expected, visible = per_frame_render(scene, truth, rig, noise_px=noise_px, seed=1)
        kept = np.array([len(ids) for _, _, ids, _, _ in expected])
        assert np.any(visible == 0)
        assert np.any((visible > 0) & (kept == 0))
        for fr, (_, _, ids, uv_l, uv_r) in zip(frames, expected):
            np.testing.assert_array_equal(fr.ids, ids)
            assert fr.uv_l.tobytes() == uv_l.tobytes()
            assert fr.uv_r.tobytes() == uv_r.tobytes()

    def test_noise_statistics(self, rig):
        # the noisy render minus the noiseless one is the drawn noise: each
        # pixel column has std noise_px and mean 0, and no two columns
        # (left against right included) correlate.  Over ~11k kept rows the
        # standard errors are ~0.7% of the std and ~0.01 of a correlation
        noise_px = 0.5
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        noisy = render_tracks(scene, truth, rig, noise_px=noise_px, seed=9)
        clean = render_tracks(scene, truth, rig, noise_px=0.0, seed=9)
        residuals = []
        for fn, fc in zip(noisy, clean, strict=True):
            np.testing.assert_array_equal(fn.ids, fc.ids)  # visibility is noise-free
            residuals.append(np.c_[fn.uv_l - fc.uv_l, fn.uv_r - fc.uv_r])
        r = np.concatenate(residuals)  # columns uL, vL, uR, vR
        assert len(r) > 10_000
        np.testing.assert_allclose(r.std(axis=0), noise_px, rtol=0.05)
        np.testing.assert_allclose(r.mean(axis=0), 0.0, atol=0.03)
        corr = np.corrcoef(r.T)
        np.testing.assert_allclose(corr[~np.eye(4, dtype=bool)], 0.0, atol=0.05)

    def test_noise_determinism(self, rig):
        scene = generate_scene(SceneConfig(feature_count=100, seed=1))
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        a = render_tracks(scene, truth, rig, noise_px=0.5, seed=3)
        b = render_tracks(scene, truth, rig, noise_px=0.5, seed=3)
        c = render_tracks(scene, truth, rig, noise_px=0.5, seed=4)
        fa, fb, fc = a[70], b[70], c[70]
        np.testing.assert_array_equal(fa.ids, fb.ids)
        np.testing.assert_array_equal(fa.uv_l, fb.uv_l)
        _, rows_a, rows_c = np.intersect1d(fa.ids, fc.ids, return_indices=True)
        assert not np.array_equal(fa.uv_l[rows_a], fc.uv_l[rows_c])


def assert_frame_matches(fr, expected):
    frame_no, t, ids, uv_l, uv_r = expected
    assert (fr.frame, fr.t) == (frame_no, t)
    np.testing.assert_array_equal(fr.ids, ids)
    assert fr.uv_l.tobytes() == uv_l.tobytes()
    assert fr.uv_r.tobytes() == uv_r.tobytes()


def access_orders(n):
    """Frame index sequences that build the frames of a sequence of n in
    different orders; each ends having touched every frame."""
    return {
        "forward": list(range(n)),
        "reverse": list(range(n - 1, -1, -1)),
        "strided": list(range(61, n, 5)) + list(range(n)),
        "negative": [-1, -n, -7] + [k - n for k in range(n)],
        "late first": [n - 1, 3, n // 2] + list(range(n)),
    }


class TestFrames:
    @pytest.mark.parametrize("order", ["forward", "reverse", "strided", "negative",
                                       "late first"])
    @pytest.mark.parametrize("noise_px", [0.5, 0.0])
    def test_any_access_order_matches_reference(self, rig, order, noise_px):
        # a frame's pixels and noise do not depend on which frames were
        # rendered before it
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        frames = render_tracks(scene, truth, rig, noise_px=noise_px, seed=9)
        expected, _ = per_frame_render(scene, truth, rig, noise_px=noise_px, seed=9)
        for k in access_orders(len(frames))[order]:
            assert_frame_matches(frames[k], expected[k])

    @pytest.mark.parametrize("noise_px", [0.5, 0.0])
    def test_slices_and_iteration_after_indexing(self, rig, noise_px):
        scene = generate_scene(scene_preset("lawn", seed=4))
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        frames = render_tracks(scene, truth, rig, noise_px=noise_px, seed=2)
        expected, _ = per_frame_render(scene, truth, rig, noise_px=noise_px, seed=2)
        picked = frames[61::5]
        assert [fr.frame for fr in picked] == list(range(61, len(frames), 5))
        assert frames[61] is picked[0]  # built once, then kept
        for fr, k in zip(frames[-3:2:-4], range(len(frames) - 3, 2, -4)):
            assert_frame_matches(fr, expected[k])
        assert frames[5:5] == []
        for fr, exp in zip(frames, expected, strict=True):
            assert_frame_matches(fr, exp)
        with pytest.raises(IndexError):
            frames[len(frames)]
        with pytest.raises(IndexError):
            frames[-len(frames) - 1]

    @pytest.mark.parametrize("order", ["strided", "reverse"])
    @pytest.mark.parametrize("noise_px", [0.5, 0.0])
    def test_starved_frames_in_any_order(self, rig, order, noise_px):
        scene = generate_scene(SceneConfig(feature_count=800, seed=7))
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        frames = render_tracks(scene, truth, rig, noise_px=noise_px, seed=1)
        expected, visible = per_frame_render(scene, truth, rig, noise_px=noise_px, seed=1)
        assert np.any(visible == 0)
        for k in access_orders(len(frames))[order]:
            assert_frame_matches(frames[k], expected[k])

    def test_frame_noise_ignores_what_other_frames_see(self, rig):
        # raising min_depth drops features from frame 40 (0.5 m up) but from
        # none of frame 60's kept rows (1.5 m up): frame 60 keeps its bytes,
        # rendered alone or in one pass with frame 40
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        base = render_tracks(scene, truth, rig, noise_px=0.5, seed=9)
        f40, f60 = base[40], base[60]
        for min_depth in (0.6, 0.8, 1.0):
            alone = render_tracks(scene, truth, rig, noise_px=0.5, seed=9,
                                  min_depth=min_depth)[60]
            g40, g60 = render_tracks(scene, truth, rig, noise_px=0.5, seed=9,
                                     min_depth=min_depth)[40:61:20]
            assert len(g40.ids) < len(f40.ids)
            for fr in (alone, g60):
                np.testing.assert_array_equal(fr.ids, f60.ids)
                assert fr.uv_l.tobytes() == f60.uv_l.tobytes()
                assert fr.uv_r.tobytes() == f60.uv_r.tobytes()

    @pytest.mark.parametrize("min_depth", [0.0, -0.061, float("nan")])
    def test_nonpositive_min_depth_rejected_at_the_call(self, rig, min_depth):
        # rendering asphalt oblique seed 2 at min_depth -0.061 used to fail
        # only when a frame was read, with BehindCameraError
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        with pytest.raises(ValueError, match="min_depth must be positive"):
            render_tracks(scene, truth, rig, noise_px=0.5, seed=9, min_depth=min_depth)

    @pytest.mark.parametrize("noise_px", [-0.5, float("nan"), float("inf")])
    def test_bad_noise_px_rejected_at_the_call(self, rig, noise_px):
        # a negative or NaN noise_px used to render noiseless frames silently
        scene = generate_scene(scene_preset("asphalt", seed=2))
        truth = generate_trajectory(TrajectoryProfile(kind="oblique"))
        with pytest.raises(ValueError, match="noise_px must be finite and >= 0"):
            render_tracks(scene, truth, rig, noise_px=noise_px, seed=9)

    def test_times_are_the_frame_times(self, rig, tmp_path):
        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique"),
                          rig=rig, seed=3)
        write_dataset(tmp_path / "a", ds)
        for frames in (ds.frames, load_dataset(tmp_path / "a").frames):
            assert len(frames.times) == len(frames)
            assert not frames.times.flags.writeable
            assert [fr.t for fr in frames] == frames.times.tolist()

    def test_loaded_frames_equal_the_written_ones(self, rig, tmp_path):
        # every frame, empty ones included, in any access order
        ds = make_dataset(scene_preset("lawn"), TrajectoryProfile(kind="vertical"),
                          rig=rig, seed=6)
        write_dataset(tmp_path / "a", ds)
        expected = [(fr.frame, fr.t, fr.ids, fr.uv_l, fr.uv_r) for fr in ds.frames]
        assert any(len(ids) == 0 for _, _, ids, _, _ in expected)
        loaded_ds = load_dataset(tmp_path / "a")
        loaded_ds.gt_t[:] = -1.0  # frames keep their own copy of the times
        loaded = loaded_ds.frames
        assert len(loaded) == len(expected)
        for k in access_orders(len(loaded))["late first"]:
            assert_frame_matches(loaded[k], expected[k])


class TestSynthesizeImu:
    def test_hover_reads_gravity(self):
        truth = generate_trajectory(TrajectoryProfile(kind="hover"))
        samples = synthesize_imu(truth)
        np.testing.assert_allclose(samples.accel[:50], [[0.0, 0.0, -9.81]] * 50, atol=1e-12)
        np.testing.assert_allclose(samples.gyro[:50], np.zeros((50, 3)), atol=1e-12)

    def test_closed_loop(self):
        # tilt ramp couples attitude and specific force; slightly looser than
        # the pure-vertical 1e-6 bound at the same rate
        profile = TrajectoryProfile(kind="oblique", imu_rate_hz=2000.0)
        truth = generate_trajectory(profile)
        samples = synthesize_imu(truth)
        out = propagate(nav_state_at_rest(0.0), samples)[-1]
        np.testing.assert_allclose(out.pose.translation, truth.position[-1], atol=1e-5)

    def test_seed_determinism(self):
        truth = generate_trajectory(TrajectoryProfile(kind="vertical"))
        a = synthesize_imu(truth, gyro_noise_density=1e-3, seed=1)
        b = synthesize_imu(truth, gyro_noise_density=1e-3, seed=1)
        c = synthesize_imu(truth, gyro_noise_density=1e-3, seed=2)
        np.testing.assert_array_equal(a.gyro[100], b.gyro[100])
        assert not np.array_equal(a.gyro[100], c.gyro[100])


class TestNoiseModel:
    @pytest.mark.parametrize("bad", [
        {"pixel_px": -3.0}, {"pixel_px": float("nan")}, {"pixel_px": float("inf")},
        {"gyro_noise_density": -1e-4}, {"accel_noise_density": float("nan")},
        {"gyro_bias": (0.0, float("inf"), 0.0)}, {"accel_bias": (float("nan"), 0.0, 0.0)},
    ])
    def test_rejects_negative_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            NoiseModel(**bad)

    def test_negative_bias_and_zero_noise_are_valid(self):
        assert NoiseModel(gyro_bias=(-1e-3, 0.0, 0.0)).gyro_bias[0] == -1e-3
        assert NoiseModel.noiseless().pixel_px == 0.0


class TestDatasetIo:
    def test_round_trip_and_digest(self, tmp_path, rig):
        ds = make_dataset(scene_preset("asphalt"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        d1 = write_dataset(tmp_path / "a", ds)
        d2 = write_dataset(tmp_path / "b", ds)
        assert d1 == d2
        assert d1 == dataset_digest(tmp_path / "a")

        loaded = load_dataset(tmp_path / "a")
        assert loaded.rig.f == rig.f
        assert len(loaded.imu) == len(ds.imu)
        assert len(loaded.frames) == len(ds.frames)  # empty frames survive
        assert loaded.scene_meta["preset"] == "asphalt"
        # pixel payloads survive exactly
        orig = next(fr for fr in ds.frames if len(fr.ids))
        back = next(fr for fr in loaded.frames if fr.frame == orig.frame)
        np.testing.assert_array_equal(orig.ids[0], back.ids[0])
        np.testing.assert_array_equal(orig.uv_l[0], back.uv_l[0])

    @staticmethod
    def rewrite_features(path, edit):
        """Rewrite the data rows of ``features.csv`` through ``edit``, as the
        bytes ``write_dataset`` wrote them, CRLF line ends included."""
        lines = (path / "features.csv").read_bytes().splitlines(keepends=True)
        assert lines[0].endswith(b"\r\n")
        (path / "features.csv").write_bytes(b"".join(lines[:1] + edit(lines[1:])))

    def test_shuffled_rows_load_the_same_frames(self, tmp_path, rig):
        ds = make_dataset(scene_preset("asphalt"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        before = load_dataset(tmp_path / "a")
        order = np.random.default_rng(0).permutation
        self.rewrite_features(tmp_path / "a", lambda rows: [rows[k] for k in order(len(rows))])
        after = load_dataset(tmp_path / "a")
        assert len(after.frames) == len(before.frames)
        for a, b in zip(before.frames, after.frames):
            assert (a.frame, a.t) == (b.frame, b.t)
            for name in ("ids", "uv_l", "uv_r"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_duplicate_row_raises(self, tmp_path, rig):
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        self.rewrite_features(tmp_path / "a", lambda rows: rows + rows[len(rows) // 2:][:1])
        with pytest.raises(ValueError, match="repeats feature"):
            load_dataset(tmp_path / "a")

    @pytest.mark.parametrize("row, message", [
        ("999,50.0,3,1.0,2.0,3.0,4.0", "frame 999.0 lies outside the 61 groundtruth frames"),
        ("-1,0.0,3,1.0,2.0,3.0,4.0", "frame -1.0 lies outside"),
        ("7.5,0.35,3,1.0,2.0,3.0,4.0", "frame 7.5 is not an integer"),
        ("7,0.35,3.7,1.0,2.0,3.0,4.0", "feature_id 3.7 is not an integer"),
        ("nan,0.35,3,1.0,2.0,3.0,4.0", "frame nan is not an integer"),
    ])
    def test_malformed_row_raises(self, tmp_path, rig, row, message):
        # such rows used to vanish (frame past the groundtruth) or be
        # truncated into another feature (7.5 -> frame 7, 3.7 -> id 3)
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        n_rows = sum(len(fr.ids) for fr in ds.frames)
        self.rewrite_features(tmp_path / "a", lambda rows: rows + [row.encode() + b"\r\n"])
        with pytest.raises(ValueError, match=f"data row {n_rows + 1}: {message}"):
            load_dataset(tmp_path / "a")

    @pytest.mark.parametrize("row, message", [
        ("abc,0.35,3,1.0,2.0,3.0,4.0", "frame 'abc' is not a number"),
        ("7,,3,1.0,2.0,3.0,4.0", "t '' is not a number"),
        ("7,0.35,1_0,1.0,2.0,3.0,4.0", "feature_id '1_0' is not a number"),
    ])
    def test_field_that_is_no_number_raises_at_load(self, tmp_path, rig, row, message):
        # np.loadtxt parses none of these; float() would take "1_0" as 10
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        n_rows = sum(len(fr.ids) for fr in ds.frames)
        self.rewrite_features(tmp_path / "a", lambda rows: rows + [row.encode() + b"\r\n"])
        with pytest.raises(ValueError, match=f"data row {n_rows + 1}: {message}"):
            load_dataset(tmp_path / "a")

    def test_bad_pixel_raises_when_its_frame_is_read(self, tmp_path, rig):
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        spoiled = []

        def spoil(rows):
            k = [n for n, row in enumerate(rows) if row.startswith(b"56,")][2]
            spoiled.append(k)
            head, _ = rows[k].rsplit(b",", 1)
            return rows[:k] + [head + b",4.0x\r\n"] + rows[k + 1:]

        self.rewrite_features(tmp_path / "a", spoil)
        k = spoiled[0]
        frames = load_dataset(tmp_path / "a").frames
        assert len(frames[55].ids) and len(frames[57].ids)
        with pytest.raises(errors.DatasetError,
                           match=f"features.csv data row {k + 1}: vR '4.0x' is not a number"):
            frames[50:60:2]
        with pytest.raises(ValueError, match=f"data row {k + 1}"):
            frames[56]

    def test_row_time_off_its_frame_raises(self, tmp_path, rig):
        # a frame's time comes from groundtruth.csv; a row that says
        # otherwise used to load silently
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        k = sum(len(fr.ids) for fr in ds.frames) // 2

        def retime(rows):
            frame, _, rest = rows[k].split(b",", 2)
            return rows[:k] + [frame + b",999.5," + rest] + rows[k + 1:]

        self.rewrite_features(tmp_path / "a", retime)
        with pytest.raises(ValueError,
                           match=f"data row {k + 1}: t 999.5 is not its frame's groundtruth time"):
            load_dataset(tmp_path / "a")

    def test_frame_arrays_read_only(self, tmp_path, rig):
        ds = make_dataset(scene_preset("helipad"),
                          TrajectoryProfile(kind="vertical", duration=3.0),
                          rig=rig, noise=NoiseModel(), seed=8)
        write_dataset(tmp_path / "a", ds)
        for fr in (ds.frames[-1], load_dataset(tmp_path / "a").frames[-1]):
            assert len(fr.ids)
            for name in ("ids", "uv_l", "uv_r"):
                with pytest.raises(ValueError):
                    getattr(fr, name)[0] = 0

    def test_dataset_pure_function_of_seed(self, rig):
        a = make_dataset(scene_preset("helipad"), TrajectoryProfile(), rig=rig, seed=4)
        b = make_dataset(scene_preset("helipad"), TrajectoryProfile(), rig=rig, seed=4)
        np.testing.assert_array_equal(a.truth.features, b.truth.features)
        np.testing.assert_array_equal(a.imu.accel[500], b.imu.accel[500])


def loadtxt_frames(path):
    """Reference loader: every frame of the dataset at ``path`` from one
    np.loadtxt parse of the whole features.csv, as (frame, t, ids, uv_l,
    uv_r) per frame."""
    gt_t = np.loadtxt(path / "groundtruth.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a header-only file has no rows
        raw = np.loadtxt(path / "features.csv", delimiter=",", skiprows=1, ndmin=2)
    if raw.size == 0:
        raw = np.empty((0, 7))
    raw = raw[np.lexsort((raw[:, 2], raw[:, 0]))]
    frames = []
    for k, t in enumerate(gt_t.tolist()):
        rows = raw[raw[:, 0] == k]
        frames.append((k, t, rows[:, 2].astype(np.int64), rows[:, 3:5], rows[:, 5:7]))
    return frames


def _lf(lines):
    return [line.rstrip("\r\n") + "\n" for line in lines]


def _cr(lines):
    return [line.rstrip("\r\n") + "\r" for line in lines]


def _shuffled_lf(lines):
    order = np.random.default_rng(5).permutation(len(lines))
    return _lf([lines[k] for k in order])


def _no_final_newline(lines):
    return lines[:-1] + [lines[-1].rstrip("\r\n")]


def _blank_lines(lines):
    return ["\r\n"] + lines[:40] + ["\r\n", "\r\n"] + lines[40:] + ["\n"]


def _non_canonical(lines):
    """frame as ``7.0``, feature_id as `` 7``, t with a trailing zero."""
    out = []
    for k, line in enumerate(lines):
        frame, t, fid, rest = line.split(",", 3)
        if k % 3 == 0:
            frame = f"{frame}.0"
        if k % 3 == 1:
            fid = f" {fid}"
        if "." in t and "e" not in t and k % 2 == 0:
            t = f"{t}0"
        out.append(",".join((frame, t, fid, rest)))
    return out


class TestLoaderOracle:
    """load_dataset splits features.csv into fields from its bytes, parses
    every row's keys at load and a frame's pixels on first read; every frame
    must equal the full np.loadtxt parse."""

    EDITS = {"as written": lambda lines: lines, "LF": _lf, "CR": _cr, "shuffled LF": _shuffled_lf,
             "no final newline": _no_final_newline, "blank lines": _blank_lines,
             "non-canonical": _non_canonical, "header only": lambda lines: []}

    @pytest.fixture(scope="class", params=[(s, p) for s in ("helipad", "asphalt", "lawn")
                                           for p in ("vertical", "oblique")],
                    ids=lambda sp: "-".join(sp))
    def written(self, request, tmp_path_factory):
        scene, profile = request.param
        path = tmp_path_factory.mktemp(f"{scene}-{profile}")
        write_dataset(path, make_dataset(scene_preset(scene), TrajectoryProfile(kind=profile),
                                         noise=NoiseModel(), seed=11))
        return path

    @pytest.fixture(params=list(EDITS))
    def edited(self, request, written, tmp_path):
        shutil.copytree(written, tmp_path / "ds")
        path = tmp_path / "ds" / "features.csv"
        lines = path.read_bytes().decode().splitlines(keepends=True)  # CRLF as written
        path.write_bytes("".join(lines[:1] + self.EDITS[request.param](lines[1:])).encode())
        return tmp_path / "ds"

    @pytest.mark.parametrize("access", ["late first", "slices", "iteration"])
    def test_frames_equal_the_full_parse(self, edited, access):
        expected = loadtxt_frames(edited)
        frames = load_dataset(edited).frames
        n = len(frames)
        if access == "late first":
            got = {k: frames[k] for k in access_orders(n)["late first"]}
        elif access == "slices":
            got = dict(zip(range(40, n, 5), frames[40::5]))
            got.update(zip(range(n - 1, -1, -3), frames[::-3]))
            got.update(enumerate(frames[:]))
        else:
            got = dict(enumerate(frames))
        assert len(frames) == len(expected) == len(got)
        for k, fr in got.items():
            assert_frame_matches(fr, expected[k])

    def test_only_the_loaded_frames_are_parsed(self, written, monkeypatch):
        # load_dataset parses the frame, t and feature_id fields of every
        # row of features.csv in one np.loadtxt call and no pixel field; one
        # slice read parses the pixels of all its frames in one call
        calls = []
        loadtxt = np.loadtxt

        def recording(fname, *args, **kwargs):
            out = loadtxt(fname, *args, **kwargs)
            calls.append((getattr(fname, "name", "text"), out.shape))
            return out

        n_rows = len((written / "features.csv").read_bytes().splitlines()) - 1
        monkeypatch.setattr(np, "loadtxt", recording)
        frames = load_dataset(written).frames
        assert [c for c in calls if not str(c[0]).endswith(("imu.csv", "groundtruth.csv"))] \
            == [("text", (n_rows, 3))]
        calls.clear()
        frames[40:90:5]
        assert calls == [("text", (sum(len(fr.ids) for fr in frames[40:90:5]), 4))]
        frames[40:100:5]
        assert len(calls) == 2


class TestFramesBuilder:
    def test_slice_hands_its_missing_frames_over_in_one_call(self):
        asked = []

        def build(ks):
            asked.append(list(ks))
            return [FrameObservations(k, float(k), [], [], []) for k in ks]

        frames = simulator.Frames(np.arange(20.0), build)
        frames[6]
        assert [fr.frame for fr in frames[12:2:-3]] == [12, 9, 6, 3]
        assert [fr.frame for fr in frames[:4]] == [0, 1, 2, 3]
        assert asked == [[6], [3, 9, 12], [0, 1, 2]]
        list(frames)
        assert asked[3:] == [[4, 5, 7], [8, 10, 11, 13, 14, 15], [16, 17, 18, 19]]
