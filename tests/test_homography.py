import math

import numpy as np
import pytest

from planar_init.errors import (
    DegenerateEstimationError,
    DegenerateHomographyError,
    InconsistentDataError,
    InsufficientDataError,
    InvalidPlaneError,
)
from planar_init.geometry import Rotation
from planar_init.homography import (
    HomographySolution,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
    synthesize,
)

from conftest import random_rotation, transfer


def random_plane_setup(rng, max_angle=0.6, t_over_d=(0.05, 2.0)):
    """Random (R, t, n, d) with the normal in a cone about the optical axis."""
    r = random_rotation(rng, max_angle)
    n = rng.normal(size=3) * 0.4
    n[2] = abs(n[2]) + 1.2
    n /= np.linalg.norm(n)
    d = rng.uniform(0.5, 5.0)
    t = rng.normal(size=3)
    t *= rng.uniform(*t_over_d) * d / np.linalg.norm(t)
    return r, t, n, d


def plane_correspondences(h, n, rng, count=20):
    """Exact correspondences of plane points visible in both views, as
    source and target arrays (M, 2).

    Returns fewer than ``count`` when the motion leaves too little shared
    view of the plane; callers that need an exact count resample.
    """
    src, dst = [], []
    guard = 0
    while len(src) < count and guard < 50 * count:
        guard += 1
        p = rng.uniform(-0.5, 0.5, size=2)
        ph = np.array([p[0], p[1], 1.0])
        if ph @ n <= 0.05:
            continue
        w = h.reassemble() @ ph
        if w[2] <= 0.05:
            continue
        src.append(p)
        dst.append(w[:2] / w[2])
    return np.array(src).reshape(-1, 2), np.array(dst).reshape(-1, 2)


def sample_setup_with_correspondences(rng, count=20, **kwargs):
    while True:
        r, t, n, d = random_plane_setup(rng, **kwargs)
        h = synthesize(r, t, n, d)
        src, dst = plane_correspondences(h, n, rng, count)
        if len(src) == count:
            return r, t, n, d, h, src, dst


class TestSynthesize:
    def test_identity(self):
        h = synthesize(Rotation.identity(), np.zeros(3), [0.0, 0.0, 1.0], 1.0)
        np.testing.assert_allclose(h.reassemble(), np.eye(3), atol=1e-15)

    def test_direct_evaluation(self):
        # R=I, t=[0,0,-1], n=[0,0,1], d=2 -> diag(1, 1, 0.5); sigma_2 is already 1
        h = synthesize(Rotation.identity(), [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], 2.0)
        np.testing.assert_allclose(h.reassemble(), np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_invalid_plane(self):
        with pytest.raises(InvalidPlaneError):
            synthesize(Rotation.identity(), np.zeros(3), [0.0, 0.0, 1.0], -1.0)

    def test_maps_plane_points(self):
        # oracle: project plane points through both cameras directly
        rng = np.random.default_rng(1)
        for _ in range(50):
            r, t, n, d = random_plane_setup(rng)
            h = synthesize(r, t, n, d)
            for _ in range(20):
                p = rng.uniform(-0.4, 0.4, size=2)
                ph = np.array([p[0], p[1], 1.0])
                if ph @ n <= 0.1:
                    continue
                # physical point on the plane at depth z = d / (n . p_h)
                z = d / float(n @ ph)
                p_src = z * ph
                p_dst = r.apply(p_src) + t
                if p_dst[2] <= 0.1:
                    continue
                mapped = transfer(h.reassemble(), p)
                np.testing.assert_allclose(mapped, p_dst[:2] / p_dst[2], atol=1e-12)


def noisy(dst, rng, sigma):
    return dst + rng.normal(scale=sigma, size=dst.shape)


class TestEstimate:
    """The fit of t_bar under a known rotation and plane normal."""

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate(np.zeros((3, 2)), np.zeros((3, 2)), Rotation.identity(), [0.0, 0.0, 1.0])

    def test_identity_motion(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.5, 0.5, size=(12, 2))
        h, mask = estimate(pts, pts, Rotation.identity(), [0.0, 0.0, 1.0], seed=0)
        np.testing.assert_allclose(h.reassemble(), np.eye(3), atol=1e-12)
        assert np.abs(h.t_bar).max() < 1e-12
        assert mask.all()

    def test_exact_recovery(self):
        # noiseless: t_bar to 1e-12 given the exact R and n
        rng = np.random.default_rng(3)
        for seed in range(20):
            r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=50)
            h, mask = estimate(src, dst, r, n, seed=seed)
            assert np.abs(h.t_bar - t / d).max() < 1e-12
            assert np.linalg.norm(h.reassemble() - h_true.reassemble()) < 1e-9
            assert mask.all()

    def test_vertical_pair(self):
        # a climb straight up from a level plane: t parallel to n, where the
        # four-way decomposition splits one double root in two
        rng = np.random.default_rng(5)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(10):
            r = random_rotation(rng, 0.05)
            d = rng.uniform(1.0, 5.0)
            t = -rng.uniform(0.05, 0.5) * n
            h_true = synthesize(r, t, n, d)
            src, dst = plane_correspondences(h_true, n, rng, 40)
            h, mask = estimate(src, dst, r, n, seed=0)
            assert np.abs(h.t_bar - t / d).max() < 1e-12
            assert mask.all()

    def test_outlier_identification(self):
        rng = np.random.default_rng(4)
        r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=35)
        src, dst = list(src), list(dst)
        for _ in range(15):  # 30% gross outliers
            src.append(rng.uniform(-0.5, 0.5, size=2))
            dst.append(rng.uniform(-0.5, 0.5, size=2) + rng.choice([-0.4, 0.4], size=2))
        h, mask = estimate(np.array(src), np.array(dst), r, n, threshold=1e-3, seed=2)
        assert mask[:35].all()
        assert not mask[35:].any()
        assert np.abs(h.t_bar - t / d).max() < 1e-12

    def test_refit_is_depth_weighted_least_squares(self):
        # the returned t_bar minimises the forward transfer rows on the
        # consensus, each divided by its predicted depth: an lstsq solve of
        # those rows, weighted at the returned t_bar rather than at the best
        # hypothesis, differs only at second order in the noise
        rng = np.random.default_rng(8)
        r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=60)
        dst = noisy(dst, rng, 1e-3)
        h, mask = estimate(src, dst, r, n, threshold=0.05, seed=0)
        t_bar = h.t_bar
        assert mask.all()
        x = np.c_[src, np.ones(len(src))]
        y = dst
        rx, s = x @ r.matrix().T, x @ n
        depth = rx[:, 2] + s * t_bar[2]
        a = np.zeros((len(x), 2, 3))
        a[:, 0, 0] = a[:, 1, 1] = -s
        a[:, :, 2] = s[:, None] * y
        b = rx[:, :2] - y * rx[:, 2:]
        ref = np.linalg.lstsq((a / depth[:, None, None]).reshape(-1, 3),
                              (b / depth[:, None]).reshape(-1), rcond=None)[0]
        # an unweighted solve is 4e-4 away here
        assert np.linalg.norm(t_bar - ref) < 1e-5 * np.linalg.norm(ref)
        assert np.linalg.norm(t_bar - t / d) < 0.01 * np.linalg.norm(t / d)

    def test_no_consensus_raises(self):
        # unrelated points: no t_bar carries 4 of them within the threshold
        rng = np.random.default_rng(9)
        src, dst = rng.uniform(-0.5, 0.5, size=(2, 12, 2))
        with pytest.raises(DegenerateEstimationError):
            estimate(src, dst, Rotation.identity(), [0.0, 0.0, 1.0],
                     threshold=1e-6, max_iters=100, seed=0)

    def test_symmetric_transfer_error_on_exact_data(self):
        rng = np.random.default_rng(6)
        r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=30)
        h, mask = estimate(src, dst, r, n, seed=3)
        m = h.reassemble()
        err = (np.linalg.norm(transfer(m, src) - dst, axis=1)
               + np.linalg.norm(transfer(np.linalg.inv(m), dst) - src, axis=1))
        assert err.max() < 1e-10
        assert mask.all()

    def test_determinism(self):
        rng = np.random.default_rng(7)
        r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=40)
        dst = noisy(dst, rng, 5e-4)
        runs = []
        for _ in range(2):
            gen = np.random.default_rng(9)
            runs.append((estimate(src, dst, r, n, threshold=3e-3, seed=gen),
                         gen.bit_generator.state))
        (h1, m1), state1 = runs[0]
        (h2, m2), state2 = runs[1]
        assert h1.t_bar.tobytes() == h2.t_bar.tobytes()
        assert np.array_equal(m1, m2)
        assert state1 == state2

    @pytest.mark.parametrize("seed", range(5))
    def test_hypothesis_count_within_two_point_rule(self, seed, monkeypatch):
        # at an inlier ratio w the 2-point rule asks for
        # log(1 - confidence) / log(1 - w^2) hypotheses; exact data finds the
        # full consensus in the first block here, so no more are scored
        import planar_init.homography as homography
        scored = []
        real = homography._solve

        def counting(q, g):
            scored.append(len(q))
            return real(q, g)

        monkeypatch.setattr(homography, "_solve", counting)
        rng = np.random.default_rng(100 + seed)
        r, t, n, d, h_true, src, dst = sample_setup_with_correspondences(rng, count=35)
        src = np.r_[src, rng.uniform(-0.5, 0.5, size=(15, 2))]
        dst = np.r_[dst, rng.uniform(-0.5, 0.5, size=(15, 2)) + 0.4]
        _, mask = estimate(src, dst, r, n, seed=seed)
        assert mask.sum() == 35
        rule = math.ceil(math.log(1.0 - 0.999) / math.log(1.0 - 0.7 ** 2))
        assert sum(scored[:-1]) <= rule  # the last call is the refit
        assert scored[-1] == 1

    def test_iteration_cap_bounds_the_hypotheses(self, monkeypatch):
        import planar_init.homography as homography
        scored = []
        real = homography._solve
        monkeypatch.setattr(homography, "_solve",
                            lambda q, g: scored.append(len(q)) or real(q, g))
        src, dst, r, n = noisy_plane_with_outliers(0, 60, 0.7)
        estimate(src, dst, r, n, threshold=2e-3, max_iters=13, seed=0)
        assert sum(scored[:-1]) == 13


def reference_estimate(p_i, p_j, rotation, n, rng, threshold=1e-3, confidence=0.999,
                       max_iters=2000):
    """The one-hypothesis-at-a-time loop that the block loop replays.

    Pairs come from the same generator calls, one per block of
    ``homography._BLOCK`` or fewer; each hypothesis is then solved and
    scored on its own, with the same arithmetic.
    """
    from planar_init.homography import _BLOCK

    count = len(p_i)
    if count < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {count}")
    r = rotation.matrix()
    n = np.asarray(n, dtype=np.float64)
    x = np.c_[p_i, np.ones(count)]
    y = np.c_[p_j, np.ones(count)]
    rx, s = x @ r.T, x @ n
    u, v = y[:, 0], y[:, 1]
    b0, b1 = rx[:, 0] - u * rx[:, 2], rx[:, 1] - v * rx[:, 2]
    q = (s * s)[:, None] * np.c_[np.ones(count), -u, -v, u * u + v * v]
    g = s[:, None] * np.c_[-b0, -b1, u * b0 + v * b1]
    ry = y @ r
    ny = ry @ n

    def solve(qk, gk):
        tz = (qk[0] * gk[2] - qk[1] * gk[0] - qk[2] * gk[1]) / (
            qk[0] * qk[3] - qk[1] * qk[1] - qk[2] * qk[2])
        return np.array([(gk[0] - qk[1] * tz) / qk[0], (gk[1] - qk[2] * tz) / qk[0], tz])

    def inliers(t):
        fwd = rx + t * s[:, None]
        c = t[0] * r[0] + t[1] * r[1] + t[2] * r[2]
        c = c / (1.0 + (c[0] * n[0] + c[1] * n[1] + c[2] * n[2]))
        bwd = ry - c * ny[:, None]
        err = (np.hypot(fwd[:, 0] / fwd[:, 2] - p_j[:, 0], fwd[:, 1] / fwd[:, 2] - p_j[:, 1])
               + np.hypot(bwd[:, 0] / bwd[:, 2] - p_i[:, 0], bwd[:, 1] / bwd[:, 2] - p_i[:, 1]))
        return err < threshold

    best_mask, best_t, best_count = None, None, 0
    needed = max_iters
    it = 0
    pending = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while it < needed:
            if not pending:
                idx = rng.integers(0, (count, count - 1), size=(min(_BLOCK, needed - it), 2))
                idx[:, 1] += idx[:, 1] >= idx[:, 0]
                pending = idx.tolist()
            i, j = pending.pop(0)
            it += 1
            t = solve(q[i] + q[j], g[i] + g[j])
            mask = inliers(t)
            size = int(mask.sum())
            if size > best_count:
                best_count, best_mask, best_t = size, mask, t
                ratio = size / count
                if ratio >= 1.0:
                    break
                denom = math.log(max(1e-12, 1.0 - ratio * ratio))
                needed = min(max_iters, int(math.ceil(math.log(1.0 - confidence) / denom)))
        if best_mask is None or best_count < 4:
            raise DegenerateEstimationError("no consensus set of size >= 4")
        depth = rx[best_mask, 2] + s[best_mask] * best_t[2]
        w = 1.0 / (depth * depth)
        t_bar = solve(w @ q[best_mask], w @ g[best_mask])
        mask = inliers(t_bar)
    if int(mask.sum()) < 4:
        mask = best_mask
    return HomographySolution(rotation, t_bar, n), mask


def noisy_plane_with_outliers(seed, count, outlier_share, noise=2e-4):
    """``count`` correspondences of a random plane with pixel-scale noise, a
    share of them replaced by gross outliers, with the plane's rotation and
    normal."""
    rng = np.random.default_rng(seed)
    r, t, n, d, h, src, dst = sample_setup_with_correspondences(rng, count=count)
    dst = dst + rng.normal(scale=noise, size=dst.shape)
    bad = rng.permutation(count)[:int(round(outlier_share * count))]
    dst[bad] = rng.uniform(-0.5, 0.5, size=(len(bad), 2))
    return src, dst, r, n


class TestBlockLoopMatchesSequentialLoop:
    """The block loop must keep the sequential loop's draws, stopping point
    and result bit for bit, and leave the generator where it left it."""

    @staticmethod
    def assert_same(src, dst, r, n, seed, **kwargs):
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            h_ref, m_ref = reference_estimate(src, dst, r, n, rng_ref, **kwargs)
        except DegenerateEstimationError:
            with pytest.raises(DegenerateEstimationError):
                estimate(src, dst, r, n, seed=rng_new, **kwargs)
        else:
            h_new, m_new = estimate(src, dst, r, n, seed=rng_new, **kwargs)
            assert np.array_equal(m_new, m_ref)
            assert h_new.t_bar.tobytes() == h_ref.t_bar.tobytes()
            assert h_new.reassemble().tobytes() == h_ref.reassemble().tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("count", [4, 5, 40, 300])
    @pytest.mark.parametrize("outlier_share", [0.0, 0.3, 0.6])
    def test_planes_with_outliers(self, count, outlier_share):
        for seed in range(4):
            src, dst, r, n = noisy_plane_with_outliers(seed, count, outlier_share)
            self.assert_same(src, dst, r, n, seed, threshold=2e-3)

    def test_repeated_targets(self):
        # 30 of 36 points share one target: most pairs give a singular
        # system, whose non-finite hypothesis scores no inliers
        src, dst, r, n = noisy_plane_with_outliers(21, 36, 0.0)
        dst[:30] = dst[0]
        for seed in range(4):
            self.assert_same(src, dst, r, n, seed, threshold=2e-3)

    def test_iteration_cap(self):
        # 70% outliers keep the adaptive count above the cap, which is not a
        # multiple of the block size, so the last block is a short one
        for seed in range(4):
            src, dst, r, n = noisy_plane_with_outliers(seed, 60, 0.7)
            self.assert_same(src, dst, r, n, seed, threshold=2e-3, max_iters=45)

    def test_no_consensus(self):
        rng = np.random.default_rng(9)
        src, dst = rng.uniform(-0.5, 0.5, size=(2, 12, 2))
        self.assert_same(src, dst, Rotation.identity(), np.array([0.0, 0.0, 1.0]), 0,
                         threshold=1e-6, max_iters=100)


class TestDecompose:
    @pytest.mark.parametrize("rotation", [
        Rotation.identity(),
        Rotation.from_axis_angle([1, 0, 0], 0.2) @ Rotation.from_axis_angle([0, 0, 1], -0.4),
    ], ids=["identity", "rotation"])
    def test_rotation_raises(self, rotation):
        # no translation or normal to recover; the pipeline's parallax gate
        # reports such a pair as pure rotation before H is estimated
        with pytest.raises(DegenerateHomographyError, match="rotation"):
            decompose(rotation.matrix())

    def test_matrix_scale_is_ignored(self):
        # a homography is defined up to scale: decompose scales its input to
        # sigma_2 = 1, so a multiple of R + t_bar n^T gives the same candidates
        rng = np.random.default_rng(0)
        for _ in range(50):
            r, t, n, d = random_plane_setup(rng)
            m = synthesize(r, t, n, d).reassemble()
            base = decompose(m)
            for c in (0.5, 3.0):
                scaled = decompose(c * m)
                assert len(scaled) == len(base)
                for a, b in zip(scaled, base):
                    assert np.abs(a.rotation.matrix() - b.rotation.matrix()).max() < 1e-12
                    assert np.abs(a.t_bar - b.t_bar).max() < 1e-12
                    assert np.abs(a.n - b.n).max() < 1e-12

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, 1.0, np.nan]), np.diag([1.0, np.inf, 1.0]),
        np.diag([2.0, 1e-13, 0.0]), np.zeros((3, 3)),
    ], ids=["nan", "inf", "rank-1", "zero"])
    def test_degenerate_matrix_raises(self, matrix):
        with pytest.raises(DegenerateHomographyError):
            decompose(matrix)

    def test_round_trip_contains_truth(self):
        # acceptance criterion 1 at reduced count; the full 1000 draws run in
        # the acceptance suite
        rng = np.random.default_rng(8)
        for _ in range(300):
            r, t, n, d = random_plane_setup(rng)
            h = synthesize(r, t, n, d)
            sols = decompose(h.reassemble())
            assert len(sols) <= 4
            best = min(
                s.rotation.angle_to(r)
                + np.linalg.norm(s.t_bar - t / d)
                + np.linalg.norm(s.n - n)
                for s in sols
            )
            assert best < 1e-6

    def test_reassembly_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r, t, n, d = random_plane_setup(rng)
            h = synthesize(r, t, n, d)
            m = h.reassemble()
            for s in decompose(m):
                assert np.linalg.norm(s.reassemble() - m) < 1e-9


class TestFilterPositiveDepth:
    def test_generic_motion_keeps_two(self):
        rng = np.random.default_rng(10)
        kept_counts = []
        for _ in range(100):
            r, t, n, d, h, src, _ = sample_setup_with_correspondences(
                rng, count=20, max_angle=0.4, t_over_d=(0.05, 1.0))
            kept = filter_positive_depth(decompose(h.reassemble()), src)
            kept_counts.append(len(kept))
            assert len(kept) <= 2
            best = min(
                s.rotation.angle_to(r)
                + np.linalg.norm(s.t_bar - t / d)
                + np.linalg.norm(s.n - n)
                for s in kept
            )
            assert best < 1e-6
        assert max(kept_counts) == 2  # the two-fold ambiguity does occur

    def test_exactly_two_for_generic_motion(self):
        # translation well away from the plane normal, features in a compact
        # off-axis patch: the four candidates collapse to exactly two after
        # the positive-depth test, with the true triple among them
        rng = np.random.default_rng(55)
        r = Rotation.from_axis_angle([0, 0, 1], 0.25) @ Rotation.from_axis_angle([1, 0, 0], 0.1)
        n = np.array([0.15, -0.1, 1.0])
        n /= np.linalg.norm(n)
        t = np.array([0.8, 0.5, -0.2])
        d = 2.0
        h = synthesize(r, t, n, d)
        src = []
        while len(src) < 25:
            p = rng.uniform([0.1, -0.15], [0.4, 0.15])
            w = h.reassemble() @ np.array([p[0], p[1], 1.0])
            if w[2] > 0.05:
                src.append(p)
        sols = decompose(h.reassemble())
        assert len(sols) == 4
        kept = filter_positive_depth(sols, np.array(src))
        assert len(kept) == 2
        best = min(
            s.rotation.angle_to(r) + np.linalg.norm(s.t_bar - t / d)
            + np.linalg.norm(s.n - n)
            for s in kept
        )
        assert best < 1e-6

    def test_identity_solution_passes(self):
        # no motion, plane facing the camera: a point in front stays in front
        sols = [HomographySolution(Rotation.identity(), np.zeros(3), [0.0, 0.0, 1.0])]
        assert filter_positive_depth(sols, np.array([[0.1, 0.0]])) == sols

    def test_antipodal_normal_rejected(self):
        rng = np.random.default_rng(11)
        r, t, n, d, h, src, _ = sample_setup_with_correspondences(
            rng, count=15, t_over_d=(0.1, 1.0))
        sols = decompose(h.reassemble())
        flipped = [s for s in sols if float(s.n @ n) < 0.0]
        assert flipped
        with pytest.raises(InconsistentDataError):
            filter_positive_depth(flipped, src)

    def test_empty_inputs_raise(self):
        with pytest.raises(InsufficientDataError):
            filter_positive_depth([], np.empty((0, 2)))


class TestIndicator:
    def test_exact_planar_is_zero(self):
        rng = np.random.default_rng(12)
        *_, h, src, dst = sample_setup_with_correspondences(rng, count=10)
        vals = indicator(h, src, dst)
        assert vals.shape == (len(src),)
        assert np.all(vals < 1e-12)

    def test_direct_evaluation(self):
        identity = HomographySolution(Rotation.identity(), np.zeros(3), [0.0, 0.0, 1.0])
        vals = indicator(identity, [[0.0, 0.0]], [[0.01, 0.0]])
        assert vals[0] == pytest.approx(0.01)

    def test_zero_iff_constraint_holds(self):
        rng = np.random.default_rng(13)
        *_, h, src, dst = sample_setup_with_correspondences(rng, count=1)
        off = dst + np.array([1e-4, 0.0])
        exact, perturbed = indicator(h, np.r_[src, src], np.r_[dst, off])
        assert exact == 0.0
        assert perturbed > 0.0

    def test_infinite_flag(self):
        # map the point onto the plane at infinity: H = I + e_z (-1, 0, 0)^T,
        # whose third row [-1, 0, 1] kills p = (1, 0)
        h = HomographySolution(Rotation.identity(), [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0])
        # row 0 maps to infinity, row 1 stays finite
        vals = indicator(h, [[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
        assert vals[0] == np.inf
        assert vals[1] == 0.0
