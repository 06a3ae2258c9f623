"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from planar_init.config import PipelineConfig
from planar_init.errors import InvalidDisparityError
from planar_init.geometry import CameraRig, Pose, Rotation, project
from planar_init.harness import (
    evaluate_against_dataset,
    run_on_dataset,
    selection_trial,
    trial_seed,
)
from planar_init.homography import (
    decompose,
    estimate,
    filter_positive_depth,
    synthesize,
)
from planar_init.initializer import (
    STATUS_IMU_ONLY,
    STATUS_PURE_ROTATION,
    recover_scale,
    triangulate_stereo,
)
from planar_init.motion_field import refine_velocity
from planar_init.pnp import PnpSystem, refine_pose
from planar_init.simulator import (
    NoiseModel,
    TrajectoryProfile,
    make_dataset,
    scene_preset,
)
from planar_init.weighting import stereo_deviation, weight

_SUITE_T0 = time.perf_counter()


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_setup(rng):
    axis = rng.normal(size=3)
    r = Rotation.from_axis_angle(axis, rng.uniform(0.0, 0.6))
    n = rng.normal(size=3) * 0.4
    n[2] = abs(n[2]) + 1.2
    n /= np.linalg.norm(n)
    d = rng.uniform(0.5, 5.0)
    t = rng.normal(size=3)
    t *= rng.uniform(0.05, 2.0) * d / np.linalg.norm(t)
    return r, t, n, d


def _plane_corrs(h, n, rng, count):
    """Vectorized exact plane correspondences visible in both views, as
    source and target arrays (count, 2)."""
    m = h.reassemble()
    for _ in range(60):
        p = rng.uniform(-0.5, 0.5, size=(6 * count, 2))
        ph = np.c_[p, np.ones(len(p))]
        src_ok = ph @ n > 0.05
        w = ph @ m.T
        dst_ok = w[:, 2] > 0.05
        keep = np.flatnonzero(src_ok & dst_ok)[:count]
        if len(keep) == count:
            return p[keep], w[keep, :2] / w[keep, 2:3]
    return None


def test_c01_homography_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    max_kept = 0
    trials = 0
    while trials < 1000:
        r, t, n, d = _random_setup(rng)
        h = synthesize(r, t, n, d)
        corrs = _plane_corrs(h, n, rng, 20)
        if corrs is None:
            continue
        trials += 1
        sols = decompose(h.reassemble())
        kept = filter_positive_depth(sols, corrs[0])
        max_kept = max(max_kept, len(kept))
        t_bar = t / d
        err = min(
            s.rotation.angle_to(r)
            + np.linalg.norm(s.t_bar - t_bar)
            + np.linalg.norm(s.n - n)
            for s in kept
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and max_kept <= 2 and elapsed < 5.0
    _report("criterion 1 (homography round trip)", ok,
            f"worst error {worst:.2e} (tol 1e-6), max survivors {max_kept} (<= 2), "
            f"{elapsed:.2f}s (< 5s)")


def test_c02_estimation_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    corrs = None
    while corrs is None:
        r, t, n, d = _random_setup(rng)
        h_true = synthesize(r, t, n, d)
        corrs = _plane_corrs(h_true, n, rng, 50)
    # the gyro rotation and the prior normal are known: only t/d is fitted
    h, mask = estimate(*corrs, r, n, seed=0)
    frob = float(np.linalg.norm(h.reassemble() - h_true.reassemble()))

    src, dst = list(corrs[0][:35]), list(corrs[1][:35])
    while len(src) < 50:
        src.append(rng.uniform(-0.5, 0.5, size=2))
        dst.append(rng.uniform(-0.5, 0.5, size=2) + rng.choice([-0.4, 0.4], size=2))
    _, mask_o = estimate(np.array(src), np.array(dst), r, n, threshold=1e-3, seed=1)
    exact_inliers = bool(mask_o[:35].all() and not mask_o[35:].any())
    elapsed = time.perf_counter() - t0
    ok = frob < 1e-9 and mask.all() and exact_inliers and elapsed < 1.0
    _report("criterion 2 (estimation exactness)", ok,
            f"Frobenius {frob:.2e} (< 1e-9), exact inlier set {exact_inliers}, "
            f"{elapsed:.2f}s (< 1s)")


def test_c03_selection_robustness():
    t0 = time.perf_counter()
    trials = []
    for k in range(1000):
        kind = "vertical" if k % 2 == 0 else "oblique"
        trials.append(selection_trial(kind, seed=trial_seed(303, k)))
    successes = sum(1 for t in trials if t.success)
    rate = successes / len(trials)
    failures = [t for t in trials if not t.success]
    failures_explained = all(
        t.prior_error_angle > 0.5 * t.candidate_gap_angle for t in failures)
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.99 and failures_explained and elapsed < 60.0
    _report("criterion 3 (selection robustness)", ok,
            f"success rate {rate:.3f} (>= 0.99), {len(failures)} failures all "
            f"beyond half-gap {failures_explained}, {elapsed:.1f}s (< 60s)")


def _scale_trial(seed: int) -> float:
    noise = NoiseModel(pixel_px=1.0)
    ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                      noise=noise, seed=seed)
    cfg = PipelineConfig(window_size=2)
    result = run_on_dataset(ds, cfg, seed=seed)
    k = int(np.argmin(np.abs(ds.truth.t - result.keyframe_times[1])))
    _, d_true = ds.truth.plane_in_camera(k, ds.rig)
    return abs(result.scale - d_true) / d_true


def test_c04_scale_recovery(clean_vertical_dataset):
    # noise-free end-to-end scale
    result = run_on_dataset(clean_vertical_dataset, PipelineConfig(), seed=0)
    k = int(np.argmin(np.abs(clean_vertical_dataset.truth.t - result.keyframe_times[1])))
    _, d_true = clean_vertical_dataset.truth.plane_in_camera(
        k, clean_vertical_dataset.rig)
    clean_err = abs(result.scale - d_true) / d_true

    # 1-px noise Monte-Carlo
    errs = [_scale_trial(trial_seed(404, k)) for k in range(200)]
    median_err = float(np.median(errs))

    # normal-equation residual of the scale fit, exact by construction
    rng = np.random.default_rng(405)
    residual = 0.0
    for _ in range(1000):
        t_bar = rng.normal(size=3)
        t_hat = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        s = recover_scale(t_bar, t_hat)
        residual = max(residual, abs(float(t_bar @ (s * t_bar - t_hat))))
    ok = clean_err < 1e-6 and median_err < 0.05 and residual < 1e-12
    _report("criterion 4 (scale recovery)", ok,
            f"noise-free rel err {clean_err:.2e} (< 1e-6), 1-px median rel err "
            f"{median_err:.4f} (< 0.05), normal-eq residual {residual:.2e} (< 1e-12)")


def test_c05_velocity_refinement(clean_vertical_dataset):
    ds = clean_vertical_dataset
    truth = ds.truth
    result = run_on_dataset(ds, PipelineConfig(), seed=0)
    window_err = float(np.abs(evaluate_against_dataset(result, ds).velocity_errors).max())

    # the integrated constraint fed the true body poses of the first pair
    # returns the true mean velocity over the pair (trapezoidal mean of the
    # true velocity samples between the two keyframes)
    k_i, k_j = (int(np.argmin(np.abs(truth.t - t))) for t in result.keyframe_times[:2])
    v_mean = 0.5 * (truth.velocity[k_i:k_j] + truth.velocity[k_i + 1:k_j + 1]).mean(axis=0)
    v = refine_velocity(truth.body_pose(k_i), truth.body_pose(k_j), truth.t[k_j] - truth.t[k_i])
    pair_err = float(np.abs(v - v_mean).max())

    ok = window_err < 1e-6 and pair_err < 1e-12
    _report("criterion 5 (velocity refinement)", ok,
            f"window velocity err {window_err:.2e} m/s (< 1e-6), true-pose pair "
            f"err {pair_err:.2e} m/s (< 1e-12)")


def test_c06_window_accuracy():
    details = []
    ok = True
    for kind, seed in (("vertical", 6), ("oblique", 16)):
        ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind=kind),
                          noise=NoiseModel(), seed=seed)
        result = run_on_dataset(ds, PipelineConfig(), seed=0)
        report = evaluate_against_dataset(result, ds)
        t_max = float(np.abs(report.translation_errors).max())
        v_rmse = float(report.velocity_rmse.max())
        roll_deg = math.degrees(report.euler_rmse[0])
        ok = ok and t_max < 0.1 and v_rmse < 0.1 and roll_deg < 0.5
        details.append(f"{kind}: |t|max {t_max:.3f} m (< 0.1), v rmse {v_rmse:.3f} "
                       f"(< 0.1), roll {roll_deg:.3f} deg (< 0.5)")
    _report("criterion 6 (window accuracy)", ok, "; ".join(details))


def test_c07_planarity_indicator():
    t0 = time.perf_counter()
    ds_flat = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="vertical"),
                           noise=NoiseModel.noiseless(), seed=7)
    flat = run_on_dataset(ds_flat, PipelineConfig(), seed=0)
    flat_max = flat.diagnostics["indicator_percentiles"]["p100"]

    ds_lawn = make_dataset(scene_preset("lawn"), TrajectoryProfile(kind="vertical"),
                           noise=NoiseModel.noiseless(), seed=7)
    lawn = run_on_dataset(ds_lawn, PipelineConfig(), seed=0)
    lawn_p95 = lawn.diagnostics["indicator_percentiles"]["p95"]
    elapsed = time.perf_counter() - t0
    ok = flat_max < 1e-9 and lawn_p95 < 0.03 and elapsed < 10.0
    _report("criterion 7 (planarity indicator)", ok,
            f"helipad max {flat_max:.2e} (< 1e-9), lawn p95 {lawn_p95:.4f} "
            f"(< 0.03), {elapsed:.1f}s (< 10s)")


def _weighting_trial(seed: int, rig: CameraRig):
    """One heteroscedastic refit comparison; returns (err_dynamic, err_fixed)."""
    rng = np.random.default_rng(seed)
    n_pts = 120
    altitude = 2.5
    cam_pos = np.array([0.0, 0.0, -altitude])
    r_cw = Rotation.from_axis_angle([0, 0, 1], rng.uniform(-0.5, 0.5))
    r_wc = r_cw.matrix().T
    t_wc = -r_wc @ cam_pos
    pts = np.c_[rng.uniform(-1.5, 1.5, size=(n_pts, 2)), np.zeros(n_pts)]
    p_c = pts @ r_wc.T + t_wc
    sigma_px = rng.uniform(0.2, 2.0, size=n_pts)

    # per-feature deviation estimate from a few independent stereo pairs
    sigma_hat = np.zeros(n_pts)
    n_pairs = 6
    for k in range(n_pts):
        z = p_c[k, 2]
        uv_l_true = rig.f * p_c[k, :2] / z + (rig.cx, rig.cy)
        p_r = p_c[k] - np.array([rig.baseline, 0.0, 0.0])
        uv_r_true = rig.f * p_r[:2] / z + (rig.cx, rig.cy)
        devs = []
        for _ in range(n_pairs):
            uv_l = uv_l_true + rng.normal(0.0, sigma_px[k], 2)
            uv_r = uv_r_true + rng.normal(0.0, sigma_px[k], 2)
            devs.append(stereo_deviation(uv_l, uv_r, rig, depth=z))
        sigma_hat[k] = np.mean(devs)

    # fresh left observations for the pose refit
    obs = (p_c[:, :2] / p_c[:, 2:3]
           + rng.normal(size=(n_pts, 2)) * (sigma_px / rig.f)[:, None])
    w_dyn = weight(sigma_hat)
    w_fix = np.full(n_pts, weight(1.5))
    system = PnpSystem(pts, obs, r_cw)
    err_d = np.linalg.norm(refine_pose(system, w_dyn) - cam_pos)
    err_f = np.linalg.norm(refine_pose(system, w_fix) - cam_pos)
    return err_d, err_f


def test_c08_dynamic_weighting():
    rig = CameraRig.default()
    errs = np.array([_weighting_trial(trial_seed(808, k), rig) for k in range(24)])
    rmse_dyn = float(np.sqrt(np.mean(errs[:, 0] ** 2)))
    rmse_fix = float(np.sqrt(np.mean(errs[:, 1] ** 2)))
    ok = rmse_dyn < rmse_fix
    _report("criterion 8 (dynamic weighting)", ok,
            f"translation RMSE dynamic {rmse_dyn:.5f} m < fixed {rmse_fix:.5f} m "
            f"over {len(errs)} trials")


def _flow_errors(ds, a_idx: int) -> np.ndarray:
    """Pixel distances (N,) between the integrated motion-field model, fed
    truth, and the rendered position of each feature shared by frames
    a_idx, a_idx + 1: the model moves the body by the true velocity times
    the interval under the true rotation and reprojects frame a's points."""
    truth, rig = ds.truth, ds.rig
    a, b = ds.frames[a_idx], ds.frames[a_idx + 1]
    k_a, k_b = int(truth.cam_indices[a.frame]), int(truth.cam_indices[b.frame])
    body_a = truth.body_pose(k_a)
    body_b = Pose(truth.body_pose(k_b).rotation,
                  body_a.translation + truth.velocity[k_a] * (b.t - a.t), "b", "w")
    cam_a, cam_b = body_a @ rig.T_c_b, body_b @ rig.T_c_b
    shared, _, rows_b = np.intersect1d(a.ids, b.ids, return_indices=True)
    p_c = cam_a.invert().apply(truth.features[shared])
    predicted = project(rig, (cam_b.invert() @ cam_a).apply(p_c))
    return np.linalg.norm(predicted - b.uv_l[rows_b], axis=1)


def test_c09_flow_consistency(clean_vertical_dataset):
    errors = np.concatenate([_flow_errors(clean_vertical_dataset, a_idx)
                             for a_idx in (70, 80, 90, 100)])
    worst = float(errors.max())
    checked = len(errors)
    ok = worst < 0.5 and checked > 100
    _report("criterion 9 (flow consistency)", ok,
            f"worst flow error {worst:.2e} px (< 0.5) over {checked} features")


def test_c10_degenerate_inputs(simple_rig):
    hover_ds = make_dataset(scene_preset("helipad"), TrajectoryProfile(kind="hover"),
                            noise=NoiseModel.noiseless(), seed=10)
    hover = run_on_dataset(hover_ds, PipelineConfig(preset_height_m=0.0), seed=0)
    hover_again = run_on_dataset(hover_ds, PipelineConfig(preset_height_m=0.0), seed=0)

    tiny_scene = replace(scene_preset("helipad"), feature_count=5)
    tiny_ds = make_dataset(tiny_scene, TrajectoryProfile(kind="vertical"),
                           noise=NoiseModel.noiseless(), seed=10)
    tiny = run_on_dataset(tiny_ds, PipelineConfig(), seed=0)

    try:
        triangulate_stereo([640.0, 400.0], [640.0, 400.0], simple_rig)
        zero_disp_ok = False
    except InvalidDisparityError:
        zero_disp_ok = True

    deterministic = hover.to_json_dict()["keyframes"] == hover_again.to_json_dict()["keyframes"]
    suite_elapsed = time.perf_counter() - _SUITE_T0
    ok = (hover.status == STATUS_PURE_ROTATION and hover.scale is None
          and tiny.status == STATUS_IMU_ONLY and zero_disp_ok and deterministic
          and suite_elapsed < 300.0)
    _report("criterion 10 (degenerate inputs)", ok,
            f"hover -> {hover.status}, 5 features -> {tiny.status}, zero disparity "
            f"typed error {zero_disp_ok}, deterministic {deterministic}, "
            f"suite {suite_elapsed:.0f}s (< 300s)")
