import csv
import json
import multiprocessing
import os
import shutil
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from planar_init import cli, harness
from planar_init import imu as imu_mod
from planar_init import simulator
from planar_init.cli import main
from planar_init.config import PipelineConfig, load_config
from planar_init.errors import AlignmentError, PipelineError
from planar_init.geometry import Pose, Rotation
from planar_init.harness import (
    evaluate,
    run_on_dataset,
    run_sweep,
    select_window,
    selection_trial,
    splitmix64,
    trial_seed,
)
from planar_init.initializer import InitializationResult, STATUS_INITIALIZED, run_initialization
from planar_init.simulator import (
    FrameObservations,
    NoiseModel,
    TrajectoryProfile,
    make_dataset,
    scene_preset,
)


_FULL_JOB = harness._full_job


def _full_job_fails_in_worker(args):
    """A full sweep job that raises for task 1, which a 2-process sweep
    leaves to its forked worker."""
    if args[0] == 1:
        raise LookupError("trial 1 failed in the worker")
    return _FULL_JOB(args)


def _full_job_exits_in_worker(args):
    """A full sweep job whose process dies on task 1 without a word."""
    if args[0] == 1:
        os._exit(3)
    return _FULL_JOB(args)


def _full_job_fails_in_caller(args):
    """A full sweep job that raises for task 0, the caller's own first
    task, while task 1 keeps its forked worker busy for a minute."""
    if args[0] == 0:
        raise LookupError("trial 0 failed in the caller")
    time.sleep(60)
    return _FULL_JOB(args)


class TestSeeds:
    def test_splitmix_reference_values(self):
        # first outputs of the canonical splitmix64 generator seeded 0 and 1
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(7, k) for k in range(1000)}
        assert len(seeds) == 1000


class TestSelectWindow:
    def test_gate_altitude(self, clean_vertical_dataset):
        cfg = PipelineConfig()
        window = select_window(clean_vertical_dataset, cfg)
        ds = clean_vertical_dataset
        k0 = int(np.argmin(np.abs(ds.truth.t - window.keyframes[0].t)))
        alt = -ds.truth.position[k0, 2]
        assert alt >= cfg.preset_height_m
        assert alt < cfg.preset_height_m + 0.2
        assert len(window.keyframes) == cfg.window_size

    def test_stride(self, clean_vertical_dataset):
        cfg = PipelineConfig(keyframe_stride=3, window_size=4)
        window = select_window(clean_vertical_dataset, cfg)
        idx = [kf.frame for kf in window.keyframes]
        assert np.all(np.diff(idx) == 3)

    def test_anchor_is_the_prefix_propagated_from_rest(self):
        # the window's anchor, read off the one pass up to the last frame, is
        # the prefix up to the gate propagated on its own
        cfg = PipelineConfig()
        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique"),
                          noise=NoiseModel(), seed=5)
        window = select_window(ds, cfg)
        t0, kf0 = float(ds.imu.t[0]), window.keyframes[0]
        rest = imu_mod.nav_state_at_rest(t0, cfg.gyro_bias, cfg.accel_bias)
        whole = imu_mod.propagate(rest, imu_mod.slice_between(ds.imu, t0, kf0.t))[-1]
        assert window.state(0).t == whole.t == pytest.approx(kf0.t)
        assert window.state(0).pose.rotation.angle_to(whole.pose.rotation) < 1e-12
        np.testing.assert_allclose(window.state(0).pose.translation, whole.pose.translation,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(window.state(0).velocity, whole.velocity, rtol=0, atol=1e-12)
        assert window.track.t[0] == pytest.approx(kf0.t)
        assert window.track.t[-1] == pytest.approx(window.keyframes[-1].t)

    @pytest.mark.parametrize("profile,height", [("vertical", 1.5), ("oblique", 1.5),
                                                ("oblique", 0.3), ("hover", 0.0)])
    def test_gate_frame_matches_frame_by_frame_search(self, profile, height):
        # oracle: propagate one frame interval at a time and test every frame
        cfg = PipelineConfig(preset_height_m=height)
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=profile),
                          noise=NoiseModel(), seed=2)
        nav = imu_mod.nav_state_at_rest(float(ds.imu.t[0]), cfg.gyro_bias, cfg.accel_bias)
        for fr in ds.frames:
            if fr.t > nav.t + 1e-9:
                nav = imu_mod.propagate(nav, imu_mod.slice_between(ds.imu, nav.t, fr.t))[-1]
            if -nav.pose.translation[2] >= height:
                break
        window = select_window(ds, cfg)
        assert window.keyframes[0].frame == fr.frame
        assert window.state(0).t == nav.t

    @pytest.mark.parametrize("profile, settings, status", [
        ("vertical", {}, "initialized"),
        ("vertical", {"min_features": 100000}, "imu-only-fallback"),
        ("hover", {"preset_height_m": 0.0}, "pure-rotation"),
    ])
    def test_one_propagation_pass_per_run(self, monkeypatch, profile, settings, status):
        # select_window propagates once; the run reads every state it needs,
        # IMU-only keyframes included, off that pass
        calls = []
        real = imu_mod.propagate

        def counted(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(imu_mod, "propagate", counted)
        cfg = PipelineConfig(**settings)
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=profile),
                          noise=NoiseModel(), seed=0)
        window = select_window(ds, cfg)
        assert calls == [len(imu_mod.slice_between(ds.imu, ds.imu.t[0], ds.frames.times[-1]))]
        result = run_initialization(window, ds.imu, ds.rig, cfg, seed=0)
        assert result.status == status
        assert len(calls) == 1

    def test_builds_only_the_window_frames(self, monkeypatch):
        # the height gate reads frame times only; the window's frames are
        # the only ones rendered
        built = []

        def recording(frame, *args):
            built.append(frame)
            return FrameObservations(frame, *args)

        monkeypatch.setattr(simulator, "FrameObservations", recording)
        cfg = PipelineConfig()
        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique"),
                          seed=1)
        window = select_window(ds, cfg)
        assert built == [kf.frame for kf in window.keyframes]
        assert len(built) == cfg.window_size < len(ds.frames)

    def test_gate_never_fires(self):
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="hover"),
                          noise=NoiseModel.noiseless(), seed=3)
        with pytest.raises(PipelineError):
            select_window(ds, PipelineConfig(preset_height_m=1.5))


def synthetic_result(times, offset=np.zeros(3)):
    poses = [Pose(Rotation.identity(), np.array([0.0, 0.0, -1.0]) + offset, "b", "w")
             for _ in times]
    vels = [np.zeros(3) for _ in times]
    return InitializationResult(STATUS_INITIALIZED, list(times), poses, vels,
                                1.0, None, {})


class TestEvaluate:
    def test_exact_estimate_gives_zero(self):
        times = np.array([0.0, 0.05, 0.10])
        res = synthetic_result(times)
        gt_pos = np.tile([0.0, 0.0, -1.0], (3, 1))
        gt_quat = np.tile([1.0, 0, 0, 0], (3, 1))
        gt_vel = np.zeros((3, 3))
        rep = evaluate(res, times, gt_pos, gt_quat, gt_vel, cam_period=0.05)
        assert np.all(rep.translation_rmse == 0.0)
        assert np.all(rep.velocity_rmse == 0.0)
        assert np.all(rep.euler_rmse == 0.0)

    def test_constant_offset(self):
        times = np.array([0.0, 0.05, 0.10, 0.15])
        res = synthetic_result(times, offset=np.array([1.0, 0.0, 0.0]))
        gt_pos = np.tile([0.0, 0.0, -1.0], (4, 1))
        gt_quat = np.tile([1.0, 0, 0, 0], (4, 1))
        gt_vel = np.zeros((4, 3))
        rep = evaluate(res, times, gt_pos, gt_quat, gt_vel, cam_period=0.05)
        assert rep.translation_rmse[0] == pytest.approx(1.0)
        assert np.all(rep.translation_errors[:, 0] == 1.0)

    def test_alignment_error(self):
        times = np.array([0.0, 0.05])
        res = synthetic_result(times)
        with pytest.raises(AlignmentError):
            evaluate(res, times + 100.0, np.zeros((2, 3)),
                     np.tile([1.0, 0, 0, 0], (2, 1)), np.zeros((2, 3)), 0.05)

    def test_plot_rows_schema(self):
        times = np.array([0.0, 0.05])
        res = synthetic_result(times)
        gt_pos = np.tile([0.0, 0.0, -1.0], (2, 1))
        rep = evaluate(res, times, gt_pos, np.tile([1.0, 0, 0, 0], (2, 1)),
                       np.zeros((2, 3)), 0.05)
        rows = rep.plot_rows()
        assert len(rows) == 2 and len(rows[0]) == 10

    def test_report_json_shape(self, clean_vertical_dataset):
        result = run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
        from planar_init.harness import evaluate_against_dataset
        rep = evaluate_against_dataset(result, clean_vertical_dataset)
        d = rep.to_json_dict()
        assert set(d["translation_rmse_m"]) == {"x", "y", "z"}
        assert set(d["euler_rmse_rad"]) == {"roll", "pitch", "yaw"}
        box = d["boxplots"]["translation"]["x"]
        assert box["min"] <= box["q1"] <= box["median"] <= box["q3"] <= box["max"]


class TestSweep:
    def test_selection_trial_runs(self):
        out = selection_trial("vertical", seed=1)
        assert out.n_candidates in (1, 2)
        assert 0.0 <= out.prior_error_angle < 0.5

    def test_aggregate_matches_single_trial(self):
        rows = run_sweep("selection", ["helipad"], ["vertical"], trials=1,
                         master_seed=3)
        single = selection_trial("vertical", seed=trial_seed(3, 0))
        assert rows[0]["successes"] == int(single.success)
        assert rows[0]["trials"] == 1

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_parallel_determinism(self, jobs):
        a = run_sweep("selection", ["helipad"], ["vertical", "oblique"],
                      trials=6, master_seed=9, jobs=1)
        b = run_sweep("selection", ["helipad"], ["vertical", "oblique"],
                      trials=6, master_seed=9, jobs=jobs)
        assert a == b

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_parallel_determinism_full_mode(self, jobs):
        # full trials run every estimator in the forked workers; their rows
        # must not depend on --jobs, also where 3 processes split 4 tasks
        args = ("full", ["helipad"], ["vertical", "oblique"])
        a = run_sweep(*args, trials=2, master_seed=4, jobs=1)
        b = run_sweep(*args, trials=2, master_seed=4, jobs=jobs)
        assert a == b
        assert all(row["initialized"] == 2 for row in a)

    def test_worker_runs_trials_on_one_thread(self, monkeypatch, tmp_path):
        # a forked worker inherits no BLAS helper threads, and no trial
        # makes a BLAS call large enough to start them; the caller's own
        # trials are exempt, as the caller may hold BLAS helper threads
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        caller = os.getpid()

        def job(args):
            selection_trial("oblique", seed=1)
            out = _FULL_JOB(args)
            threads = len(os.listdir("/proc/self/task"))
            if os.getpid() != caller and threads != 1:
                raise AssertionError(f"the sweep worker runs {threads} OS threads")
            (tmp_path / f"{args[0]}.pid").write_text(str(os.getpid()))
            return out

        monkeypatch.setattr(harness, "_full_job", job)
        rows = run_sweep("full", ["helipad"], ["oblique"], trials=2, master_seed=1, jobs=2)
        assert rows[0]["initialized"] == 2
        pids = {int(f.read_text()) for f in tmp_path.glob("*.pid")}
        assert len(pids) == 2 and caller in pids

    @pytest.mark.parametrize("mode, trials, forks", [("full", 1, 0), ("selection", 2, 1)])
    def test_forks_no_more_workers_than_trials(self, monkeypatch, mode, trials, forks):
        # the caller runs a share itself: min(jobs, trials) - 1 forks, and
        # none at all for a single trial
        forked = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        args = (mode, ["helipad"], ["vertical"], trials, 3)
        expected = run_sweep(*args, jobs=1)
        monkeypatch.setattr(os, "fork", recording)
        assert run_sweep(*args, jobs=4) == expected
        assert len(forked) == forks

    def test_worker_exception_reraised_in_caller(self, monkeypatch):
        monkeypatch.setattr(harness, "_full_job", _full_job_fails_in_worker)
        with pytest.raises(LookupError, match="trial 1 failed in the worker") as info:
            run_sweep("full", ["helipad"], ["vertical"], trials=2, master_seed=1, jobs=2)
        assert info.type is LookupError
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_result_names_its_code(self, monkeypatch):
        monkeypatch.setattr(harness, "_full_job", _full_job_exits_in_worker)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_sweep("full", ["helipad"], ["vertical"], trials=2, master_seed=1, jobs=2)
        assert multiprocessing.active_children() == []

    def test_caller_exception_stops_the_workers(self, monkeypatch):
        monkeypatch.setattr(harness, "_full_job", _full_job_fails_in_caller)
        start = time.monotonic()
        with pytest.raises(LookupError, match="trial 0 failed in the caller"):
            run_sweep("full", ["helipad"], ["vertical"], trials=2, master_seed=1, jobs=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_unknown_scene(self):
        with pytest.raises(ValueError):
            run_sweep("selection", ["moon"], ["vertical"], 1, 0)

    @pytest.mark.parametrize("mode, scenes, profiles", [
        ("selection", [], ["vertical"]),
        ("full", ["helipad"], []),
        ("fulll", ["helipad"], ["vertical"]),
    ])
    def test_empty_lists_and_unknown_mode_rejected(self, mode, scenes, profiles):
        with pytest.raises(ValueError):
            run_sweep(mode, scenes, profiles, 1, 0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_sweep("selection", ["helipad"], ["vertical"], 1, 0, jobs=jobs)

    def test_full_mode_single_trial(self):
        rows = run_sweep("full", ["helipad"], ["vertical"], trials=1, master_seed=2)
        assert rows[0]["initialized"] == 1
        assert rows[0]["median_scale_error"] < 0.05

    def test_selection_failures_attributed_to_prior_error(self):
        # crank gyro noise until selections fail: every failure must come
        # with a prior-normal error beyond half the inter-candidate gap
        bad = NoiseModel(gyro_noise_density=0.05)
        n_fail = 0
        for k in range(100):
            t = selection_trial("oblique", seed=trial_seed(77, k), noise=bad)
            if not t.success:
                n_fail += 1
                assert t.prior_error_angle > 0.5 * t.candidate_gap_angle
        assert n_fail > 0


# configs the pipeline cannot run, or would run to a silently wrong result
BAD_CONFIGS = [
    {"pnp_ransac_threshold": 0},
    {"ransac_confidence": 1.0},
    {"ransac_confidence": 0},
    {"window_size": 1},
    {"preset_heigth_m": 1.0},
    {"ransac_threshold": -1e-3},
    {"pnp_ransac_threshold": float("nan")},
    {"min_disparity_px": 0.0},
    {"ransac_threshold": float("inf")},
    {"ransac_max_iters": 0},
    {"ransac_max_iters": 2.5},
    {"min_disparity_px": "1.0"},
    {"gyro_bias": [0, 0]},
    {"accel_bias": "abc"},
    {"gyro_bias": [float("nan"), 0, 0]},
    {"accel_bias": [0, 0, float("inf")]},
    {"gyro_bias": [0, True, 0]},
    {"accel_bias": 0.0},
]


def _config_id(cfg: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in cfg.items())


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(preset_height_m=1.2, min_features=30)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset_heigth_m": 1.0}))
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [("attitude_source", "gyro"),
                                            ("pnp_ransac_max_iters", 500),
                                            ("gravity", [0.0, 0.0, 9.81]),
                                            ("stationary_window_s", 0.5),
                                            ("stationary_accel_tol", 0.05),
                                            ("stationary_gyro_tol", 0.01),
                                            ("fixed_deviation_px", 1.5),
                                            ("deviation_floor_px", 0.25)])
    def test_removed_key_rejected(self, key, value, tmp_path):
        # a saved config from before the field was deleted
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PipelineConfig().to_json_dict(), key: value}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            load_config(path)

    @pytest.mark.parametrize("doc", [[], ["preset_height_m"], 1.5])
    def test_non_object_rejected(self, doc, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_config(path)

    def test_preset_height_bound(self):
        with pytest.raises(ValueError):
            PipelineConfig(preset_height_m=3.5)

    @pytest.mark.parametrize("bad", BAD_CONFIGS, ids=_config_id)
    def test_bad_values_rejected_up_front(self, bad):
        with pytest.raises(ValueError):
            PipelineConfig.from_json_dict(bad)




@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = main(["generate", "--scene", "helipad", "--profile", "vertical",
                 "--seed", "7", "--noiseless", "--out", str(root / "clean")])
    assert code == 0
    return root / "clean"


@pytest.fixture(scope="module")
def noisy_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy") / "ds"
    assert main(["generate", "--scene", "helipad", "--profile", "vertical",
                 "--seed", "7", "--out", str(root)]) == 0
    return root


def shift_imu_clock(dataset_dir, out, seconds):
    """A copy of ``dataset_dir`` at ``out`` with every IMU time ``seconds`` later."""
    shutil.copytree(dataset_dir, out)
    imu = imu_mod.load_imu_csv(out / "imu.csv")
    imu_mod.save_imu_csv(out / "imu.csv",
                         imu_mod.ImuStream(imu.t + seconds, imu.gyro, imu.accel))
    return out


@pytest.fixture(scope="module")
def shifted_dataset_dir(noisy_dataset_dir, tmp_path_factory):
    """A noisy take-off with every IMU time 2.5 ms later: no sample falls on
    a frame time, so each keyframe reads the sample half an interval before
    it, the earlier of two equally near.  The gyro noise turns the body
    about 1e-3 rad over the window."""
    return shift_imu_clock(noisy_dataset_dir,
                           tmp_path_factory.mktemp("shifted") / "ds", 0.0025)


class TestImuBetweenFrameTimes:
    def test_imu_only_fallback_writes_its_result(self, shifted_dataset_dir, tmp_path):
        # the fallback reads each keyframe's state off the one pass, so it
        # no longer propagates from a state that is not on its stream
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_features": 100000}))
        out = tmp_path / "run"
        assert main(["init", "--dataset", str(shifted_dataset_dir), "--config", str(cfg),
                     "--out", str(out)]) == 3
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "imu-only-fallback"
        assert len(result["keyframes"]) == PipelineConfig().window_size

    def test_pair_rotations_tile_the_pass(self, shifted_dataset_dir, monkeypatch):
        # each pair's rotation spans its two keyframes' states, so the
        # window's pairs chain to the pass's rotation over the whole window
        pairs = []
        real = imu_mod.integrate_camera_rotation

        def recorded(*args):
            pairs.append(real(*args))
            return pairs[-1]

        ds = simulator.load_dataset(shifted_dataset_dir)
        cfg = PipelineConfig()
        window = select_window(ds, cfg)
        monkeypatch.setattr(imu_mod, "integrate_camera_rotation", recorded)
        assert run_initialization(window, ds.imu, ds.rig, cfg, seed=0).initialized
        assert len(pairs) == len(window.keyframes) - 1
        chained = Rotation.identity()
        for r in pairs:
            chained = r @ chained
        whole = imu_mod.integrate_camera_rotation(window.track, ds.rig.T_c_b)
        assert chained.angle_to(whole) < 1e-12

    def test_keyframes_read_the_earlier_of_two_equal_samples(self, shifted_dataset_dir):
        ds = simulator.load_dataset(shifted_dataset_dir)
        window = select_window(ds, PipelineConfig())
        for k, kf in enumerate(window.keyframes):
            assert window.state(k).t == pytest.approx(kf.t - 0.0025, abs=1e-9)

    @pytest.mark.parametrize("shift_ms", [-2.0, -1.0, 1.0, 2.0, 2.5, 3.0])
    def test_init_on_an_offset_imu_clock(self, shift_ms, noisy_dataset_dir, tmp_path):
        # each frame reads its nearest sample, so an IMU clock off by up to
        # half a sample interval either way still anchors the window
        copy = shift_imu_clock(noisy_dataset_dir, tmp_path / "ds", shift_ms / 1000.0)
        out = tmp_path / "run"
        assert main(["init", "--dataset", str(copy), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["status"] == "initialized"


class TestCli:
    def test_generate_deterministic_digest(self, tmp_path, capsys):
        args = ["generate", "--scene", "helipad", "--profile", "vertical",
                "--seed", "7", "--noiseless"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        d1 = capsys.readouterr().out.splitlines()[-1]
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        d2 = capsys.readouterr().out.splitlines()[-1]
        assert d1 == d2 and d1.startswith("digest:")

    # Pinned so that a change to the render's noise draws or the written
    # bytes shows.  Each frame draws its noise from its own spawned stream,
    # for its kept rows only; a per-feature noise model (ROADMAP item 8)
    # would change every noisy dataset and re-pin these on purpose.
    @pytest.mark.parametrize("scene, profile, seed, digest", [
        ("asphalt", "oblique", 1,
         "e770b4c6863da5192ec06fce91d266c490b68efe6dc17a97b044a99dd890ec0e"),
        ("helipad", "hover", 0,
         "7c7bb911ae7565f7daa994f48b4ef142eb8feb5eeec86380a67fde0d8fb23d94"),
    ])
    def test_generate_digest_is_pinned(self, tmp_path, capsys, scene, profile, seed, digest):
        assert main(["generate", "--scene", scene, "--profile", profile,
                     "--seed", str(seed), "--out", str(tmp_path / "ds")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"digest: {digest}"

    def test_generate_scene_echo(self, tmp_path):
        assert main(["generate", "--scene", "lawn", "--seed", "1",
                     "--out", str(tmp_path / "lawn")]) == 0
        meta = json.loads((tmp_path / "lawn" / "scene.json").read_text())
        assert meta["roughness"] == 0.05

    def test_invalid_preset_usage_error(self, tmp_path):
        assert main(["generate", "--scene", "volcano",
                     "--out", str(tmp_path / "x")]) == 1

    def test_missing_command_usage_error(self):
        assert main([]) == 1

    def test_init_noise_free(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["init", "--dataset", str(dataset_dir), "--out", str(out),
                     "--seed", "0"])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "initialized"
        metrics = json.loads((out / "metrics.json").read_text())
        assert max(metrics["translation_rmse_m"].values()) < 1e-4

    def test_init_feature_fallback_exit_code(self, tmp_path):
        ds_dir = tmp_path / "tiny"
        assert main(["generate", "--scene", "helipad", "--profile", "vertical",
                     "--seed", "3", "--noiseless", "--features", "5",
                     "--out", str(ds_dir)]) == 0
        out = tmp_path / "run"
        code = main(["init", "--dataset", str(ds_dir), "--out", str(out)])
        assert code == 3
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "imu-only-fallback"

    def test_init_failure_keeps_completed_pairs(self, dataset_dir, tmp_path, monkeypatch):
        import planar_init.initializer as initializer
        from planar_init.errors import InsufficientDataError
        calls = []
        real = initializer.solve_pnp

        def third_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise InsufficientDataError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(initializer, "solve_pnp", third_call_fails)
        out = tmp_path / "run"
        assert main(["init", "--dataset", str(dataset_dir), "--out", str(out)]) == 3
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "failed:pnp"
        assert "injected" in result["message"]
        assert [p["pair"] for p in result["diagnostics"]["pairs"]] == [0, 1]
        assert len(result["diagnostics"]["feature_counts"]) >= 3

    @pytest.mark.parametrize("lines, stage, pairs", [
        (401, "height-gate", None), (601, "height-gate", None),
        (700, "imu", 2), (1000, "imu", 8),
    ])
    def test_init_on_a_truncated_imu_stream(self, lines, stage, pairs, dataset_dir, tmp_path):
        # imu.csv cut to its header and lines - 1 samples: the stream ends
        # before the climb reaches the gate, or inside the window, where the
        # pairs it covers run and the first it does not is named
        copy = tmp_path / "cut"
        shutil.copytree(dataset_dir, copy)
        rows = (copy / "imu.csv").read_bytes().splitlines(keepends=True)
        (copy / "imu.csv").write_bytes(b"".join(rows[:lines]))
        out = tmp_path / "run"
        assert main(["init", "--dataset", str(copy), "--out", str(out)]) == 3
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == f"failed:{stage}"
        if pairs is None:
            assert result["message"] == "[height-gate] altitude never reached 1.5 m"
        else:
            assert result["message"] == f"[imu] no IMU coverage for pair {pairs}"
            assert [p["pair"] for p in result["diagnostics"]["pairs"]] == list(range(pairs))

    def test_init_on_an_imu_stream_after_every_frame(self, dataset_dir, tmp_path):
        # every frame reads the rest state, so the gate never fires
        copy = tmp_path / "late"
        shutil.copytree(dataset_dir, copy)
        imu = imu_mod.load_imu_csv(copy / "imu.csv")
        imu_mod.save_imu_csv(copy / "imu.csv",
                             imu_mod.ImuStream(imu.t + 100.0, imu.gyro, imu.accel))
        out = tmp_path / "run"
        assert main(["init", "--dataset", str(copy), "--out", str(out)]) == 3
        assert json.loads((out / "result.json").read_text())["status"] == "failed:height-gate"

    @pytest.mark.parametrize("bad", BAD_CONFIGS, ids=_config_id)
    def test_init_bad_config_is_a_usage_error(self, bad, dataset_dir, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "run"
        code = main(["init", "--dataset", str(dataset_dir), "--config", str(path),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: invalid config:") and len(err.splitlines()) == 1
        assert not (out / "result.json").exists()

    def test_init_bad_config_process_exit(self, dataset_dir, tmp_path):
        import os
        import subprocess
        import sys
        import planar_init
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pnp_ransac_threshold": 0}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(planar_init.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "planar_init.cli", "init", "--dataset", str(dataset_dir),
             "--config", str(path), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "pnp_ransac_threshold" in proc.stderr

    def test_init_duplicate_feature_row_is_an_io_error(self, dataset_dir, tmp_path):
        import shutil
        copy = tmp_path / "dup"
        shutil.copytree(dataset_dir, copy)
        lines = (copy / "features.csv").read_text().splitlines(keepends=True)
        (copy / "features.csv").write_text("".join(lines + lines[-1:]))
        assert main(["init", "--dataset", str(copy), "--out", str(tmp_path / "run")]) == 2

    def test_init_deviation_flags(self, dataset_dir, tmp_path):
        out = tmp_path / "fixed"
        code = main(["init", "--dataset", str(dataset_dir), "--out", str(out),
                     "--deviation", "fixed"])
        assert code == 0
        # --deviation is the one weighting flag: init takes no deviation value
        assert main(["init", "--dataset", str(dataset_dir), "--out", str(out),
                     "--deviation", "fixed", "--fixed-deviation-px", "2.0"]) == 1

    def test_hover_metrics_measured_from_rest(self, tmp_path):
        # the hover starts 2 m up; the pipeline's world frame starts at rest
        ds, run = tmp_path / "hover", tmp_path / "run"
        assert main(["generate", "--scene", "helipad", "--profile", "hover",
                     "--seed", "0", "--out", str(ds)]) == 0
        cfg = tmp_path / "hover.json"
        cfg.write_text(json.dumps({"preset_height_m": 0}))
        assert main(["init", "--dataset", str(ds), "--config", str(cfg),
                     "--out", str(run)]) == 3
        metrics = json.loads((run / "metrics.json").read_text())
        assert metrics["status"] == "pure-rotation"
        assert all(v < 0.1 for v in metrics["translation_rmse_m"].values())

    def test_evaluate_writes_plot_csv(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["init", "--dataset", str(dataset_dir),
                     "--out", str(run_dir)]) == 0
        out = tmp_path / "eval"
        code = main(["evaluate", "--result", str(run_dir / "result.json"),
                     "--dataset", str(dataset_dir), "--out", str(out)])
        assert code == 0
        with open(out / "errors.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "err_x", "err_y", "err_z", "err_vx", "err_vy",
                           "err_vz", "err_roll", "err_pitch", "err_yaw"]
        assert len(rows) == 11  # header + 10 keyframes
        errs = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.abs(errs[:, 1:4]).max() < 1e-4

    def test_sweep_csv_identical_across_jobs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--mode", "selection", "--trials", "4",
                "--profiles", "vertical", "--seed", "11"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_unwritable_out_runs_no_trial(self, monkeypatch, tmp_path, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "--mode", "full", "--trials", "3",
                     "--out", str(blocker / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("I/O error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--scenes", "nowhere"),
                                             ("--profiles", "nowhere")])
    def test_sweep_usage_error_leaves_no_directory(self, flag, value, tmp_path, capsys):
        # --out's directory used to be made before the arguments were checked
        out = tmp_path / "new" / "x.csv"
        code = main(["sweep", "--mode", "full", "--trials", "1", flag, value,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("flag", ["--scenes", "--profiles"])
    def test_sweep_empty_list_is_a_usage_error(self, flag, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--trials", "1", flag, "", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--noise-px", "-3"), ("--noise-px", "nan"),
                                             ("--features", "-1")])
    def test_generate_bad_input_is_a_usage_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["generate", "--scene", "helipad", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_init_negative_seed_is_a_usage_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["init", "--dataset", str(dataset_dir), "--out", str(out),
                     "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_is_a_usage_error(self, jobs, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--trials", "1", "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_malformed_features_row_is_an_io_error(self, dataset_dir, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        with open(ds / "features.csv", "a", newline="") as fh:
            fh.write("7.5,0.35,3,1.0,2.0,3.0,4.0\r\n")
        code = main(["init", "--dataset", str(ds), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert "frame 7.5 is not an integer" in err

    @staticmethod
    def _window_frames(dataset_dir) -> list[int]:
        window = select_window(simulator.load_dataset(dataset_dir), PipelineConfig())
        return [kf.frame for kf in window.keyframes]

    @staticmethod
    def _break_pixel(ds, frame: int, text: bytes = b"abc") -> int:
        """Write ``text`` for the first uL of ``frame`` in ``ds``'s
        features.csv; returns that row's data row number."""
        lines = (ds / "features.csv").read_bytes().split(b"\r\n")
        k = next(k for k, line in enumerate(lines[1:], 1)
                 if line.startswith(f"{frame},".encode()))
        fields = lines[k].split(b",")
        lines[k] = b",".join(fields[:3] + [text] + fields[4:])
        (ds / "features.csv").write_bytes(b"\r\n".join(lines))
        return k

    @pytest.mark.parametrize("read, text", [(True, b"abc"), (False, b"abc"), (True, b""),
                                            (True, b"  ")],
                             ids=["window-frame", "unread-frame", "empty-in-window",
                                  "blank-in-window"])
    def test_bad_pixel_fails_init_only_in_a_frame_it_reads(self, read, text, dataset_dir,
                                                           tmp_path, capsys):
        # a pixel field is parsed when its frame is first read, so a bad one
        # in a frame outside the window no longer fails the run.  An empty
        # field on a line of its own is a blank line to np.loadtxt, which it
        # skips with a warning and no error: the row is still named, with
        # no warning
        clean = tmp_path / "clean"
        assert main(["init", "--dataset", str(dataset_dir), "--out", str(clean)]) == 0
        window = self._window_frames(dataset_dir)
        frame = window[3] if read else window[0] + 1
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        row = self._break_pixel(ds, frame, text)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["init", "--dataset", str(ds), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert not caught
        if read:
            assert code == 2
            assert err.splitlines() == [f"I/O error: features.csv data row {row}: "
                                        f"uL {text.decode()!r} is not a number"]
            assert not (tmp_path / "run" / "result.json").exists()
        else:
            assert code == 0
            keyframes = [json.loads((out / "result.json").read_text())["keyframes"]
                         for out in (clean, tmp_path / "run")]
            assert keyframes[0] == keyframes[1]

    def test_comment_line_is_an_io_error(self, dataset_dir, tmp_path, capsys):
        # np.loadtxt used to strip "#" comments; write_dataset writes none
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        lines = (ds / "features.csv").read_bytes().split(b"\r\n")
        (ds / "features.csv").write_bytes(b"\r\n".join(lines[:5] + [b"# note"] + lines[5:]))
        code = main(["init", "--dataset", str(ds), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["I/O error: features.csv: expected 7 columns, got 1"]

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("baseline"), "rig.json: missing key 'baseline'"),
        (lambda d: d.update(f="640"), "rig.json: key 'f' is not a number: '640'"),
        (lambda d: d["T_cb"].pop("t_xyz"), "rig.json: missing key 'T_cb.t_xyz'"),
        (lambda d: d["T_cb"].update(q_wxyz=[1.0, 0.0]),
         "rig.json: key 'T_cb.q_wxyz' is not a list of 4 numbers"),
    ], ids=["missing", "string", "missing-nested", "short-list"])
    @pytest.mark.parametrize("command", ["init", "evaluate"])
    def test_malformed_rig_is_an_io_error(self, command, edit, message, dataset_dir,
                                          tmp_path, capsys):
        # a missing key used to escape as a KeyError traceback with exit 1
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        rig = json.loads((ds / "rig.json").read_text())
        edit(rig)
        (ds / "rig.json").write_text(json.dumps(rig))
        result = tmp_path / "result.json"
        result.write_text("{}")
        args = (["init", "--dataset", str(ds), "--out", str(tmp_path / "run")]
                if command == "init" else
                ["evaluate", "--result", str(result), "--dataset", str(ds),
                 "--out", str(tmp_path / "eval")])
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: {"keyframes": []}, "missing key 'status'"),
        (lambda d: d["keyframes"][0].pop("q_wxyz") and d,
         "missing key 'keyframes[0].q_wxyz'"),
        (lambda d: [], "expected a JSON object holding key 'status'"),
        (lambda d: d["keyframes"][0].update(q_wxyz=[1.0, 0.0, 0.0]) or d,
         "key 'keyframes[0].q_wxyz' is not a list of 4 numbers"),
    ], ids=["no-status", "no-quaternion", "not-an-object", "short-quaternion"])
    def test_malformed_result_is_an_io_error(self, edit, message, dataset_dir, tmp_path,
                                             capsys):
        # each used to escape as a KeyError, AttributeError or ValueError
        # traceback with exit 1
        run = tmp_path / "run"
        assert main(["init", "--dataset", str(dataset_dir), "--out", str(run)]) == 0
        path = run / "result.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(path), "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"I/O error: {path}: {message}")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("name, columns", [("groundtruth.csv", 11), ("features.csv", 7),
                                               ("imu.csv", 7)])
    @pytest.mark.parametrize("got", [-1, 1], ids=["column-fewer", "column-more"])
    def test_csv_column_count_is_an_io_error(self, name, columns, got, dataset_dir,
                                             tmp_path, capsys):
        # a column too few used to fail outside the I/O error path: groundtruth.csv
        # in evaluate, features.csv as a frame was built, imu.csv as a
        # pipeline failure (exit 3)
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        path = ds / name
        lines = path.read_text().splitlines()
        edit = ((lambda row: row.rsplit(",", 1)[0]) if got < 0
                else (lambda row: row + ",0.0"))
        path.write_text("".join(edit(row) + "\r\n" for row in lines))
        out = tmp_path / "run"
        code = main(["init", "--dataset", str(ds), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{name}: expected {columns} columns, got {columns + got}" in err
        assert not out.exists()

    def test_io_error_exit_code(self, dataset_dir, tmp_path):
        assert main(["init", "--dataset", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_evaluate_side_by_side_comparison(self, tmp_path):
        ds_dir = tmp_path / "noisy"
        assert main(["generate", "--scene", "helipad", "--profile", "vertical",
                     "--seed", "5", "--out", str(ds_dir)]) == 0
        for mode in ("dynamic", "fixed"):
            assert main(["init", "--dataset", str(ds_dir), "--deviation", mode,
                         "--out", str(tmp_path / mode)]) == 0
        out = tmp_path / "cmp"
        code = main(["evaluate",
                     "--result", str(tmp_path / "dynamic" / "result.json"),
                     "--result", str(tmp_path / "fixed" / "result.json"),
                     "--dataset", str(ds_dir), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["runs"]) == {"dynamic", "fixed"}
        for rep in doc["runs"].values():
            assert "translation_rmse_m" in rep
        assert (out / "errors_dynamic.csv").exists()
        assert (out / "errors_fixed.csv").exists()


class TestDegradedScenes:
    def test_oblique_with_apron_dropout_initializes(self):
        # smooth parking apron under the take-off point: no features there,
        # the detected ones bunch to one side, and the pipeline must still
        # initialize off the homography
        apron = ((-1.4, -1.4), (1.4, -1.4), (1.4, 1.4), (-1.4, 1.4))
        scene = replace(scene_preset("helipad"), feature_count=1600,
                        dropout_polygons=(apron,))
        ds = make_dataset(scene, TrajectoryProfile(kind="oblique"),
                          noise=NoiseModel(), seed=18)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        assert result.status == STATUS_INITIALIZED
