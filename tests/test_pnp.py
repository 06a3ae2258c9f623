import numpy as np
import pytest

from planar_init import pnp
from planar_init.errors import InsufficientDataError
from planar_init.geometry import Rotation
from planar_init.pnp import PnpSystem, refine_pose, solve_pnp

THRESHOLD = 0.02


def refine_pose_reference(points_w, obs, rotation, weights=None, passes=4):
    """Depth-normalised centre fit, one point at a time into the 3x3
    weighted normal equations (A^T W A) C = A^T W b."""
    r = rotation.matrix()
    n = len(points_w)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    depth = np.ones(n)
    for _ in range(passes):
        lhs = np.zeros((3, 3))
        rhs = np.zeros(3)
        for k in range(n):
            for axis in (0, 1):
                row = r[:, axis] - obs[k, axis] * r[:, 2]
                wk = w[k] / depth[k] ** 2
                lhs += wk * np.outer(row, row)
                rhs += wk * row * (row @ points_w[k])
        centre = np.linalg.solve(lhs, rhs)
        depth = (points_w - centre) @ r[:, 2]
    return centre


def make_view(rng, n_points=100, coplanar=True, altitude=2.0, max_tilt=0.2):
    """Camera above the ground plane looking down; returns (pts, obs, pose)."""
    r_cw = (Rotation.from_axis_angle([1, 0, 0], rng.uniform(-max_tilt, max_tilt))
            @ Rotation.from_axis_angle([0, 1, 0], rng.uniform(-max_tilt, max_tilt))
            @ Rotation.from_axis_angle([0, 0, 1], rng.uniform(-np.pi, np.pi)))
    cam_pos = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), -altitude])
    r_wc = r_cw.matrix().T
    t_wc = -r_wc @ cam_pos
    pts = np.c_[rng.uniform(-1.5, 1.5, size=(n_points, 2)),
                np.zeros(n_points) if coplanar else rng.uniform(-0.3, 0.3, n_points)]
    p_c = pts @ r_wc.T + t_wc
    if np.any(p_c[:, 2] < 0.3):
        return None
    obs = p_c[:, :2] / p_c[:, 2:3]
    return pts, obs, (r_cw, cam_pos)


def view(seed, **kwargs):
    rng = np.random.default_rng(seed)
    out = None
    while out is None:
        out = make_view(rng, **kwargs)
    return rng, out


class TestSolvePnp:
    def test_identity_pose(self):
        rng = np.random.default_rng(1)
        pts = np.c_[rng.uniform(-1, 1, size=(30, 2)), rng.uniform(1.0, 3.0, 30)]
        obs = pts[:, :2] / pts[:, 2:3]
        pose, mask = solve_pnp(PnpSystem(pts, obs, Rotation.identity()), threshold=THRESHOLD)
        assert pose.rotation.angle() == 0.0
        assert np.linalg.norm(pose.translation) < 1e-12
        assert mask.all()

    def test_coplanar_exact(self):
        # the take-off case: every world point on the ground plane
        rng = np.random.default_rng(2)
        done = 0
        while done < 30:
            v = make_view(rng, n_points=100, coplanar=done % 3 != 0)
            if v is None:
                continue
            pts, obs, (r_cw, cam_pos) = v
            pose, mask = solve_pnp(PnpSystem(pts, obs, r_cw), threshold=THRESHOLD)
            assert pose.rotation is r_cw
            assert (pose.of_frame, pose.in_frame) == ("c", "w")
            assert np.linalg.norm(pose.translation - cam_pos) < 1e-12
            assert mask.all()
            done += 1

    def test_monte_carlo_noise(self):
        # 1-px noise at f=400 from 3 m altitude: median error < 5 cm
        errs = []
        trial = 0
        while len(errs) < 200:
            rng = np.random.default_rng(10_000 + trial)
            trial += 1
            v = make_view(rng, n_points=100, coplanar=True, altitude=3.0)
            if v is None:
                continue
            pts, obs, (r_cw, cam_pos) = v
            noisy = obs + rng.normal(0.0, 1.0 / 400.0, size=obs.shape)
            pose, _ = solve_pnp(PnpSystem(pts, noisy, r_cw), threshold=THRESHOLD)
            errs.append(np.linalg.norm(pose.translation - cam_pos))
        assert np.median(errs) < 0.05

    def test_outlier_rejection(self):
        _, (pts, obs, (r_cw, cam_pos)) = view(3, n_points=60)
        clean, clean_mask = solve_pnp(PnpSystem(pts, obs, r_cw), threshold=THRESHOLD)
        obs = obs.copy()
        obs[17] += [0.15, -0.1]  # far above the threshold
        pose, mask = solve_pnp(PnpSystem(pts, obs, r_cw), threshold=THRESHOLD)
        assert not mask[17]
        assert mask.sum() == 59
        assert np.linalg.norm(pose.translation - cam_pos) < 1e-12
        np.testing.assert_allclose(pose.translation, clean.translation, rtol=0, atol=1e-12)
        assert clean_mask.all()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            solve_pnp(PnpSystem(np.zeros((3, 3)), np.zeros((3, 2)), Rotation.identity()),
                      threshold=THRESHOLD)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            PnpSystem(np.zeros((5, 3)), np.zeros((4, 2)), Rotation.identity())
        _, (pts, obs, (r_cw, _)) = view(4, n_points=5)
        with pytest.raises(ValueError):
            refine_pose(PnpSystem(pts, obs, r_cw), np.ones(4))

    def test_no_consensus(self):
        # only 3 of 10 observations agree on any centre: fewer than 4 inliers
        rng, (pts, obs, (r_cw, _)) = view(5, n_points=10)
        obs = obs.copy()
        obs[3:] += rng.choice([-1, 1], size=(7, 2)) * rng.uniform(0.2, 0.4, (7, 2))
        with pytest.raises(InsufficientDataError):
            solve_pnp(PnpSystem(pts, obs, r_cw), threshold=THRESHOLD)

    def test_determinism(self):
        rng, (pts, obs, (r_cw, _)) = view(6, n_points=40)
        noisy = obs + rng.normal(0, 2e-3, size=obs.shape)
        p1, m1 = solve_pnp(PnpSystem(pts, noisy, r_cw), threshold=THRESHOLD)
        p2, m2 = solve_pnp(PnpSystem(pts, noisy, r_cw), threshold=THRESHOLD)
        assert p1.translation.tobytes() == p2.translation.tobytes()
        assert np.array_equal(m1, m2)
        c1 = refine_pose(PnpSystem(pts, noisy, r_cw), np.linspace(0.5, 2.0, 40))
        c2 = refine_pose(PnpSystem(pts, noisy, r_cw), np.linspace(0.5, 2.0, 40))
        assert c1.tobytes() == c2.tobytes()


class TestRefinePose:
    def test_weighted_refit_downweights_noisy_points(self):
        # two noise populations; inverse-variance weights must beat uniform
        rng = np.random.default_rng(8)
        gains_ok = 0
        for trial in range(10):
            v = None
            while v is None:
                v = make_view(rng, n_points=80)
            pts, obs, (r_cw, cam_pos) = v
            sigma = np.where(np.arange(80) < 40, 5e-4, 8e-3)
            noisy = obs + rng.normal(size=obs.shape) * sigma[:, None]
            err_u = np.linalg.norm(refine_pose(PnpSystem(pts, noisy, r_cw)) - cam_pos)
            system = PnpSystem(pts, noisy, r_cw)
            err_w = np.linalg.norm(refine_pose(system, 1.0 / sigma**2) - cam_pos)
            if err_w < err_u:
                gains_ok += 1
        assert gains_ok >= 8

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_normal_equations_reference(self, weighted):
        rng = np.random.default_rng(21)
        for k in range(12):
            v = None
            while v is None:
                v = make_view(rng, n_points=20 + 10 * k, coplanar=k % 2 == 0)
            pts, obs, _ = v
            noisy = obs + rng.normal(0.0, 2e-3, obs.shape)
            # the rotation is known only up to gyro drift
            drift = rng.normal(0.0, 1e-3, 3)
            r_cw = v[2][0] @ Rotation.from_axis_angle(drift, np.linalg.norm(drift))
            w = rng.uniform(0.1, 4.0, len(pts)) if weighted else None
            np.testing.assert_allclose(refine_pose(PnpSystem(pts, noisy, r_cw), w),
                                       refine_pose_reference(pts, noisy, r_cw, w),
                                       rtol=0, atol=1e-12)


class TestPnpSystem:
    """Every fit of a pair re-weights one system of per-point normal blocks."""

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("coplanar", [True, False])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_each_pass_matches_the_reference(self, passes, coplanar, weighted, monkeypatch):
        # the first pass is the algebraic solve, the second the first
        # depth-normalised one: each is one closed-form solve
        monkeypatch.setattr(pnp, "_PASSES", passes)
        rng = np.random.default_rng(31)
        for k in range(12):
            v = None
            while v is None:
                v = make_view(rng, n_points=20 + 10 * k, coplanar=coplanar)
            pts, obs, (r_cw, _) = v
            noisy = obs + rng.normal(0.0, 2e-3, obs.shape)
            w = rng.uniform(0.1, 4.0, len(pts)) if weighted else None
            np.testing.assert_allclose(refine_pose(PnpSystem(pts, noisy, r_cw), w),
                                       refine_pose_reference(pts, noisy, r_cw, w, passes),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("coplanar", [True, False])
    def test_zero_weight_drops_the_point(self, coplanar):
        rng = np.random.default_rng(32)
        for k in range(10):
            v = None
            while v is None:
                v = make_view(rng, n_points=30, coplanar=coplanar)
            pts, obs, (r_cw, cam_pos) = v
            noisy = obs + rng.normal(0.0, 2e-3, obs.shape)
            # the dropped points: a gross outlier, and one behind the camera
            noisy[3] += [0.3, -0.2]
            pts = pts.copy()
            pts[7] = cam_pos - 2.0 * r_cw.matrix()[:, 2]
            w = rng.uniform(0.1, 4.0, len(pts))
            w[[3, 7]] = 0.0
            keep = w > 0.0
            np.testing.assert_allclose(
                refine_pose(PnpSystem(pts, noisy, r_cw), w),
                refine_pose(PnpSystem(pts[keep], noisy[keep], r_cw), w[keep]),
                rtol=0, atol=1e-12)

    def test_unfixed_centre_raises(self):
        # one bearing, or no weight at all, fixes no centre
        _, (pts, obs, (r_cw, _)) = view(33, n_points=6)
        system = PnpSystem(pts, obs, r_cw)
        with pytest.raises(InsufficientDataError):
            refine_pose(system, np.zeros(6))
        with pytest.raises(InsufficientDataError):
            refine_pose(system, np.eye(6)[2])
