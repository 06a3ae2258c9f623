import numpy as np
import pytest

from planar_init.errors import DegeneratePnpError, InsufficientDataError
from planar_init.geometry import Rotation
from planar_init import pnp
from planar_init.pnp import p3p, refine_pose, solve_pnp


def kabsch_reference(p_world, p_cam):
    """(R, t) with p_cam = R p_world + t for one root's points (3, 3)."""
    cw = p_world.mean(axis=0)
    cc = p_cam.mean(axis=0)
    h = (p_world - cw).T @ (p_cam - cc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cc - r @ cw


def refine_pose_reference(points_w, obs, r0, t0, weights=None, max_iters=15):
    """Gauss-Newton pose refinement with the Jacobian built from the full
    (n, 2, 3) projection derivative and (n, 3, 3) skew matrices."""
    n = len(points_w)
    sw = np.ones(n) if weights is None else np.sqrt(weights)
    r, t = r0.copy(), t0.copy()
    cost = np.inf
    for _ in range(max_iters):
        p_c = points_w @ r.T + t
        z = p_c[:, 2]
        if np.any(z <= 1e-9):
            break
        res = (p_c[:, :2] / z[:, None] - obs) * sw[:, None]
        new_cost = float(np.sum(res * res))
        jac = np.zeros((2 * n, 6))
        inv_z = 1.0 / z
        j_pi = np.zeros((n, 2, 3))
        j_pi[:, 0, 0] = inv_z
        j_pi[:, 1, 1] = inv_z
        j_pi[:, 0, 2] = -p_c[:, 0] * inv_z * inv_z
        j_pi[:, 1, 2] = -p_c[:, 1] * inv_z * inv_z
        rp = p_c - t
        skew = np.zeros((n, 3, 3))
        skew[:, 0, 1] = -rp[:, 2]
        skew[:, 0, 2] = rp[:, 1]
        skew[:, 1, 0] = rp[:, 2]
        skew[:, 1, 2] = -rp[:, 0]
        skew[:, 2, 0] = -rp[:, 1]
        skew[:, 2, 1] = rp[:, 0]
        jtheta = np.einsum("nij,njk->nik", j_pi, -skew)
        jac[:, :3] = (jtheta * sw[:, None, None]).reshape(2 * n, 3)
        jac[:, 3:] = (j_pi * sw[:, None, None]).reshape(2 * n, 3)
        step, *_ = np.linalg.lstsq(jac, -res.reshape(-1), rcond=None)
        if not np.all(np.isfinite(step)):
            break
        r = Rotation.from_rotvec(step[:3]).matrix() @ r
        t = t + step[3:]
        if new_cost >= cost - 1e-16 and np.linalg.norm(step) < 1e-12:
            cost = min(cost, new_cost)
            break
        cost = new_cost
    return r, t, cost


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def make_view(rng, n_points=100, coplanar=True, altitude=2.0, max_tilt=0.2):
    """Camera above the ground plane looking down; returns (pts, obs, pose)."""
    r_cw = (Rotation.about_x(rng.uniform(-max_tilt, max_tilt))
            @ Rotation.about_y(rng.uniform(-max_tilt, max_tilt))
            @ Rotation.about_z(rng.uniform(-np.pi, np.pi)))
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


class TestP3p:
    def test_contains_truth(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 100:
            view = make_view(rng, n_points=3, coplanar=done % 2 == 0)
            if view is None:
                continue
            pts, obs, (r_cw, cam_pos) = view
            r_wc = r_cw.matrix().T
            t_wc = -r_wc @ cam_pos
            sols = p3p(pts, obs)
            assert sols, "P3P returned nothing"
            best = min(np.linalg.norm(r - r_wc) + np.linalg.norm(t - t_wc)
                       for r, t in sols)
            assert best < 1e-6
            done += 1

    def test_degenerate_collinear(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        obs = pts[:, :2] / 2.0
        assert p3p(pts, obs) == []


    def test_stacked_kabsch_matches_per_root_reference(self, monkeypatch):
        # each root's pose has the bits of aligning that root's points alone
        stacks = []

        def spy(p_world, p_cam):
            stacks.append(p_cam.copy())
            return absolute_orientation(p_world, p_cam)

        absolute_orientation = pnp._absolute_orientation
        monkeypatch.setattr(pnp, "_absolute_orientation", spy)
        rng = np.random.default_rng(5)
        roots = 0
        for k in range(120):
            view = make_view(rng, n_points=3, coplanar=k % 2 == 0)
            if view is None:
                continue
            pts, obs, _ = view
            obs = obs + rng.normal(0.0, 1e-3 * (k % 3), obs.shape)
            stacks.clear()
            sols = p3p(pts, obs)
            if not sols:
                continue
            assert len(stacks) == 1 and len(stacks[0]) == len(sols)
            for (r, t), p_cam in zip(sols, stacks[0]):
                r_ref, t_ref = kabsch_reference(pts, p_cam)
                assert same_bits(r, r_ref) and same_bits(t, t_ref)
            roots += len(sols)
        assert roots > 120


class TestSolvePnp:
    def test_identity_pose(self):
        rng = np.random.default_rng(1)
        pts = np.c_[rng.uniform(-1, 1, size=(30, 2)), rng.uniform(1.0, 3.0, 30)]
        obs = pts[:, :2] / pts[:, 2:3]
        pose, mask = solve_pnp(pts, obs, seed=0)
        assert pose.rotation.angle() < 1e-9
        assert np.linalg.norm(pose.translation) < 1e-9
        assert mask.all()

    def test_coplanar_exact(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 30:
            view = make_view(rng, n_points=100, coplanar=True)
            if view is None:
                continue
            pts, obs, (r_cw, cam_pos) = view
            pose, mask = solve_pnp(pts, obs, seed=done)
            assert pose.rotation.angle_to(r_cw) < 1e-6
            assert np.linalg.norm(pose.translation - cam_pos) < 1e-6
            assert mask.all()
            done += 1

    def test_monte_carlo_noise(self):
        # 1-px noise at f=400 from 3 m altitude: median error < 5 cm
        errs = []
        trial = 0
        while len(errs) < 200:
            rng = np.random.default_rng(10_000 + trial)
            trial += 1
            view = make_view(rng, n_points=100, coplanar=True, altitude=3.0)
            if view is None:
                continue
            pts, obs, (r_cw, cam_pos) = view
            noisy = obs + rng.normal(0.0, 1.0 / 400.0, size=obs.shape)
            pose, _ = solve_pnp(pts, noisy, seed=trial)
            errs.append(np.linalg.norm(pose.translation - cam_pos))
        assert np.median(errs) < 0.05

    def test_outlier_rejection(self):
        rng = np.random.default_rng(3)
        view = None
        while view is None:
            view = make_view(rng, n_points=60)
        pts, obs, (r_cw, cam_pos) = view
        obs = obs.copy()
        obs[45:] += rng.choice([-1, 1], size=(15, 2)) * rng.uniform(0.1, 0.4, (15, 2))
        pose, mask = solve_pnp(pts, obs, seed=4)
        assert mask[:45].all()
        assert not mask[45:].any()
        assert np.linalg.norm(pose.translation - cam_pos) < 1e-9

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            solve_pnp(np.zeros((3, 3)), np.zeros((3, 2)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            solve_pnp(np.zeros((5, 3)), np.zeros((4, 2)))

    def test_no_consensus(self):
        # every 3-point world sample is collinear
        pts = np.c_[np.linspace(0, 5, 10), np.zeros(10), np.zeros(10)]
        rng = np.random.default_rng(5)
        obs = rng.uniform(-0.5, 0.5, size=(10, 2))
        with pytest.raises(DegeneratePnpError):
            solve_pnp(pts, obs, seed=0, max_iters=60)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        view = None
        while view is None:
            view = make_view(rng, n_points=40)
        pts, obs, _ = view
        noisy = obs + rng.normal(0, 2e-3, size=obs.shape)
        p1, m1 = solve_pnp(pts, noisy, seed=7)
        p2, m2 = solve_pnp(pts, noisy, seed=7)
        assert np.array_equal(p1.translation, p2.translation)
        assert np.array_equal(p1.rotation.quat, p2.rotation.quat)
        assert np.array_equal(m1, m2)


class TestRefinePose:
    def test_weighted_refit_downweights_noisy_points(self):
        # two noise populations; inverse-variance weights must beat uniform
        rng = np.random.default_rng(8)
        gains_ok = 0
        for trial in range(10):
            view = None
            while view is None:
                view = make_view(rng, n_points=80)
            pts, obs, (r_cw, cam_pos) = view
            r_wc = r_cw.matrix().T
            t_wc = -r_wc @ cam_pos
            sigma = np.where(np.arange(80) < 40, 5e-4, 8e-3)
            noisy = obs + rng.normal(size=obs.shape) * sigma[:, None]
            w = 1.0 / sigma**2
            r_u, t_u, _ = refine_pose(pts, noisy, r_wc, t_wc)
            r_w, t_w, _ = refine_pose(pts, noisy, r_wc, t_wc, weights=w)
            err_u = np.linalg.norm(-r_u.T @ t_u - cam_pos)
            err_w = np.linalg.norm(-r_w.T @ t_w - cam_pos)
            if err_w < err_u:
                gains_ok += 1
        assert gains_ok >= 8

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_full_jacobian_reference(self, weighted):
        # same bits as the Jacobian built from full 3x3 products, from a
        # near start and from the identity, including points with exact
        # zero coordinates
        rng = np.random.default_rng(21)
        for k in range(12):
            view = None
            while view is None:
                view = make_view(rng, n_points=40 + 10 * k)
            pts, obs, (r_cw, cam_pos) = view
            if k % 3 == 0:
                pts[::5, :2] = np.round(pts[::5, :2])
            r_wc = r_cw.matrix().T
            t_wc = -r_wc @ cam_pos
            noisy = obs + rng.normal(0.0, 2e-3, obs.shape)
            w = rng.uniform(0.1, 4.0, len(pts)) if weighted else None
            starts = [(Rotation.from_rotvec(rng.normal(0, 0.05, 3)).matrix() @ r_wc,
                       t_wc + rng.normal(0, 0.05, 3)),
                      (np.eye(3), np.array([0.0, 0.0, 2.0]))]
            for r0, t0 in starts:
                r, t, cost = refine_pose(pts, noisy, r0, t0, weights=w)
                r_ref, t_ref, cost_ref = refine_pose_reference(pts, noisy, r0, t0, w)
                assert same_bits(r, r_ref) and same_bits(t, t_ref)
                assert cost == cost_ref
