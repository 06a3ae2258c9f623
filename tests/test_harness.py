import concurrent.futures
import csv
import ctypes
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from planar_init import imu as imu_mod
from planar_init.cli import main
from planar_init.config import PipelineConfig, load_config
from planar_init.errors import AlignmentError, PipelineError
from planar_init.geometry import Pose, Rotation
from planar_init.harness import (
    _loaded_openblas,
    _single_thread_blas,
    evaluate,
    run_on_dataset,
    run_sweep,
    select_window,
    selection_trial,
    splitmix64,
    trial_seed,
)
from planar_init.initializer import InitializationResult, STATUS_INITIALIZED
from planar_init.simulator import (
    NoiseModel,
    TrajectoryProfile,
    make_dataset,
    scene_preset,
)


def _openblas_get_threads() -> int | None:
    """Thread count of this process's OpenBLAS, or None without one."""
    path = _loaded_openblas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


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
        k0 = ds.truth.nearest_index(window.keyframes[0].t)
        alt = -ds.truth.position[k0, 2]
        assert alt >= cfg.preset_height_m
        assert alt < cfg.preset_height_m + 0.2
        assert len(window.keyframes) == cfg.window_size

    def test_stride(self, clean_vertical_dataset):
        cfg = PipelineConfig(keyframe_stride=3, window_size=4)
        window = select_window(clean_vertical_dataset, cfg)
        idx = [kf.index for kf in window.keyframes]
        assert np.all(np.diff(idx) == 3)

    def test_anchor_is_the_prefix_propagated_from_rest(self):
        # the window's anchor, propagated frame by frame up to the gate, is
        # the whole prefix propagated in one pass
        cfg = PipelineConfig()
        ds = make_dataset(scene_preset("asphalt"), TrajectoryProfile(kind="oblique"),
                          noise=NoiseModel(), seed=5)
        window = select_window(ds, cfg)
        t0, kf0 = float(ds.imu.t[0]), window.keyframes[0]
        rest = imu_mod.nav_state_at_rest(t0, cfg.gyro_bias, cfg.accel_bias)
        whole = imu_mod.propagate(rest, imu_mod.slice_between(ds.imu, t0, kf0.t),
                                  cfg.gravity)
        assert window.anchor.t == whole.t == pytest.approx(kf0.t)
        assert window.anchor.pose.rotation.angle_to(whole.pose.rotation) < 1e-12
        np.testing.assert_allclose(window.anchor.pose.translation, whole.pose.translation,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(window.anchor.velocity, whole.velocity, rtol=0, atol=1e-12)
        assert window.imu.t[0] == pytest.approx(kf0.t)
        assert window.imu.t[-1] == pytest.approx(window.keyframes[-1].t)

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
                nav = imu_mod.propagate(
                    nav, imu_mod.slice_between(ds.imu, nav.t, fr.t), cfg.gravity)
            if -nav.pose.translation[2] >= height:
                break
        window = select_window(ds, cfg)
        assert window.keyframes[0].index == fr.frame
        assert window.anchor.t == nav.t

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

    def test_parallel_determinism(self):
        a = run_sweep("selection", ["helipad"], ["vertical", "oblique"],
                      trials=6, master_seed=9, jobs=1)
        b = run_sweep("selection", ["helipad"], ["vertical", "oblique"],
                      trials=6, master_seed=9, jobs=2)
        assert a == b

    def test_parallel_determinism_full_mode(self):
        # full trials reach the BLAS-backed estimators the pool workers run
        # single-threaded; their rows must not depend on --jobs
        args = ("full", ["helipad"], ["vertical", "oblique"])
        a = run_sweep(*args, trials=2, master_seed=4, jobs=1)
        b = run_sweep(*args, trials=2, master_seed=4, jobs=2)
        assert a == b
        assert all(row["initialized"] == 2 for row in a)

    def test_pool_workers_run_single_thread_blas(self):
        if _openblas_get_threads() is None:
            pytest.skip("no OpenBLAS loaded in this process")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, initializer=_single_thread_blas) as pool:
            assert pool.submit(_openblas_get_threads).result(timeout=60) == 1

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
    {"deviation_floor_px": 0},
    {"ransac_confidence": 1.0},
    {"ransac_confidence": 0},
    {"window_size": 1},
    {"preset_heigth_m": 1.0},
    {"ransac_threshold": -1e-3},
    {"pnp_ransac_threshold": float("nan")},
    {"min_disparity_px": 0.0},
    {"fixed_deviation_px": float("inf")},
    {"ransac_max_iters": 0},
    {"gn_max_iters": 2.5},
    {"deviation_floor_px": "0.25"},
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
                                            ("pnp_ransac_max_iters", 500)])
    def test_removed_key_rejected(self, key, value, tmp_path):
        # a saved config from before the field was deleted
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PipelineConfig().to_json_dict(), key: value}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
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


class TestCli:
    def test_generate_deterministic_digest(self, tmp_path, capsys):
        args = ["generate", "--scene", "helipad", "--profile", "vertical",
                "--seed", "7", "--noiseless"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        d1 = capsys.readouterr().out.splitlines()[-1]
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        d2 = capsys.readouterr().out.splitlines()[-1]
        assert d1 == d2 and d1.startswith("digest:")

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
        path.write_text(json.dumps({"deviation_floor_px": 0}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(planar_init.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "planar_init.cli", "init", "--dataset", str(dataset_dir),
             "--config", str(path), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "deviation_floor_px" in proc.stderr

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
                     "--deviation", "fixed", "--fixed-deviation-px", "2.0"])
        assert code == 0

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
