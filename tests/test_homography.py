import numpy as np
import pytest

from planar_init.errors import (
    DegenerateEstimationError,
    InconsistentDataError,
    InsufficientDataError,
    InvalidPlaneError,
)
from planar_init.geometry import Rotation
from planar_init.homography import (
    Correspondence,
    Homography,
    decompose,
    estimate,
    filter_positive_depth,
    indicator,
    symmetric_transfer_error,
    synthesize,
)

from conftest import random_rotation


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
    """Exact correspondences of plane points visible in both views.

    Returns fewer than ``count`` when the motion leaves too little shared
    view of the plane; callers that need an exact count resample.
    """
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        p = rng.uniform(-0.5, 0.5, size=2)
        ph = np.array([p[0], p[1], 1.0])
        if ph @ n <= 0.05:
            continue
        w = h.matrix @ ph
        if w[2] <= 0.05:
            continue
        out.append(Correspondence(p, w[:2] / w[2], feature_id=len(out)))
    return out


def sample_setup_with_correspondences(rng, count=20, **kwargs):
    while True:
        r, t, n, d = random_plane_setup(rng, **kwargs)
        h = synthesize(r, t, n, d)
        corrs = plane_correspondences(h, n, rng, count)
        if len(corrs) == count:
            return r, t, n, d, h, corrs


class TestHomographyType:
    def test_second_singular_value_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = Homography(rng.normal(size=(3, 3)) + 3 * np.eye(3))
            s = np.linalg.svd(h.matrix, compute_uv=False)
            assert abs(s[1] - 1.0) < 1e-12

    def test_partition_reassembles_exactly(self):
        h = Homography(np.diag([2.0, 1.0, 0.5]))
        m = np.zeros((3, 3))
        m[:2, :2] = h.h1
        m[:2, 2] = h.h2
        m[2, :2] = h.h3
        m[2, 2] = h.h4
        assert np.array_equal(m, h.matrix)


class TestSynthesize:
    def test_identity(self):
        h = synthesize(Rotation.identity(), np.zeros(3), [0.0, 0.0, 1.0], 1.0)
        np.testing.assert_allclose(h.matrix, np.eye(3), atol=1e-15)

    def test_direct_evaluation(self):
        # R=I, t=[0,0,-1], n=[0,0,1], d=2 -> diag(1, 1, 0.5); sigma_2 is already 1
        h = synthesize(Rotation.identity(), [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], 2.0)
        np.testing.assert_allclose(h.matrix, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

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
                mapped = h.apply(p)
                np.testing.assert_allclose(mapped, p_dst[:2] / p_dst[2], atol=1e-12)


class TestEstimate:
    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate([Correspondence([0, 0], [0, 0])] * 3)

    def test_identity_motion(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.5, 0.5, size=(12, 2))
        corrs = [Correspondence(p, p) for p in pts]
        h, mask = estimate(corrs, seed=0)
        aligned = h.matrix * np.sign(h.matrix[2, 2])
        np.testing.assert_allclose(aligned, np.eye(3), atol=1e-9)
        assert mask.all()

    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        r, t, n, d, h_true, corrs = sample_setup_with_correspondences(rng, count=50)
        h, mask = estimate(corrs, seed=1)
        aligned = h.matrix * np.sign(h.matrix[2, 2] * h_true.matrix[2, 2])
        assert np.linalg.norm(aligned - h_true.matrix) < 1e-9
        assert mask.sum() == 50

    def test_outlier_identification(self):
        rng = np.random.default_rng(4)
        r, t, n, d, h_true, corrs = sample_setup_with_correspondences(rng, count=35)
        for _ in range(15):  # 30% gross outliers
            p = rng.uniform(-0.5, 0.5, size=2)
            q = rng.uniform(-0.5, 0.5, size=2) + rng.choice([-0.4, 0.4], size=2)
            corrs.append(Correspondence(p, q))
        h, mask = estimate(corrs, threshold=1e-3, seed=2)
        assert mask[:35].all()
        assert not mask[35:].any()
        aligned = h.matrix * np.sign(h.matrix[2, 2] * h_true.matrix[2, 2])
        assert np.linalg.norm(aligned - h_true.matrix) < 1e-9

    def test_no_consensus_raises(self):
        # all points collinear: every 4-point sample is degenerate
        xs = np.linspace(-0.5, 0.5, 12)
        corrs = [Correspondence([x, 2 * x], [x + 0.1, 2 * x]) for x in xs]
        with pytest.raises(DegenerateEstimationError):
            estimate(corrs, max_iters=100, seed=0)

    def test_symmetric_transfer_error_on_exact_data(self):
        rng = np.random.default_rng(6)
        *_, corrs = sample_setup_with_correspondences(rng, count=30)
        h, mask = estimate(corrs, seed=3)
        err = symmetric_transfer_error(h, np.array([c.p_i for c in corrs]),
                                       np.array([c.p_j for c in corrs]))
        assert err.max() < 1e-10

    def test_determinism_and_sign_uniqueness(self):
        rng = np.random.default_rng(7)
        *_, corrs = sample_setup_with_correspondences(rng, count=40)
        h1, m1 = estimate(corrs, seed=9)
        h2, m2 = estimate(corrs, seed=9)
        assert np.array_equal(h1.matrix, h2.matrix)
        assert np.array_equal(m1, m2)
        # scale invariance: normalization is unique up to sign
        scaled = Homography(-3.7 * h1.matrix)
        assert (np.allclose(scaled.matrix, h1.matrix, atol=1e-12)
                or np.allclose(scaled.matrix, -h1.matrix, atol=1e-12))


class TestDecompose:
    def test_identity_is_pure_rotation(self):
        sols = decompose(Homography(np.eye(3)))
        assert len(sols) == 1
        assert sols[0].normal_indeterminate
        assert sols[0].rotation.angle() < 1e-12
        assert np.linalg.norm(sols[0].t_bar) == 0.0

    def test_pure_rotation(self):
        r = Rotation.about_x(0.2) @ Rotation.about_z(-0.4)
        sols = decompose(Homography(r.matrix()))
        assert len(sols) == 1
        assert sols[0].normal_indeterminate
        assert sols[0].rotation.angle_to(r) < 1e-9
        assert np.linalg.norm(sols[0].t_bar) < 1e-9

    def test_round_trip_contains_truth(self):
        # acceptance criterion 1 at reduced count; the full 1000 draws run in
        # the acceptance suite
        rng = np.random.default_rng(8)
        for _ in range(300):
            r, t, n, d = random_plane_setup(rng)
            h = synthesize(r, t, n, d)
            sols = decompose(h)
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
            for s in decompose(h):
                assert np.linalg.norm(s.reassemble() - h.matrix) < 1e-9


class TestFilterPositiveDepth:
    def test_generic_motion_keeps_two(self):
        rng = np.random.default_rng(10)
        kept_counts = []
        for _ in range(100):
            r, t, n, d, h, corrs = sample_setup_with_correspondences(
                rng, count=20, max_angle=0.4, t_over_d=(0.05, 1.0))
            kept = filter_positive_depth(decompose(h), corrs)
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
        r = Rotation.about_z(0.25) @ Rotation.about_x(0.1)
        n = np.array([0.15, -0.1, 1.0])
        n /= np.linalg.norm(n)
        t = np.array([0.8, 0.5, -0.2])
        d = 2.0
        h = synthesize(r, t, n, d)
        corrs = []
        while len(corrs) < 25:
            p = rng.uniform([0.1, -0.15], [0.4, 0.15])
            w = h.matrix @ np.array([p[0], p[1], 1.0])
            if w[2] > 0.05:
                corrs.append(Correspondence(p, w[:2] / w[2]))
        sols = decompose(h)
        assert len(sols) == 4
        kept = filter_positive_depth(sols, corrs)
        assert len(kept) == 2
        best = min(
            s.rotation.angle_to(r) + np.linalg.norm(s.t_bar - t / d)
            + np.linalg.norm(s.n - n)
            for s in kept
        )
        assert best < 1e-6

    def test_identity_solution_passes(self):
        sols = decompose(Homography(np.eye(3)))
        corrs = [Correspondence([0.1, 0.0], [0.1, 0.0])]
        assert filter_positive_depth(sols, corrs) == sols

    def test_antipodal_normal_rejected(self):
        rng = np.random.default_rng(11)
        r, t, n, d, h, corrs = sample_setup_with_correspondences(
            rng, count=15, t_over_d=(0.1, 1.0))
        sols = decompose(h)
        flipped = [s for s in sols if float(s.n @ n) < 0.0]
        assert flipped
        with pytest.raises(InconsistentDataError):
            filter_positive_depth(flipped, corrs)

    def test_empty_inputs_raise(self):
        with pytest.raises(InsufficientDataError):
            filter_positive_depth([], [])


class TestIndicator:
    def test_exact_planar_is_zero(self):
        rng = np.random.default_rng(12)
        *_, h, corrs = sample_setup_with_correspondences(rng, count=10)
        vals = indicator(h, corrs)
        assert vals.shape == (len(corrs),)
        assert np.all(vals < 1e-12)

    def test_direct_evaluation(self):
        c = Correspondence([0.0, 0.0], [0.01, 0.0])
        assert indicator(Homography(np.eye(3)), [c])[0] == pytest.approx(0.01)

    def test_zero_iff_constraint_holds(self):
        rng = np.random.default_rng(13)
        *_, h, corrs = sample_setup_with_correspondences(rng, count=1)
        c = corrs[0]
        off = Correspondence(c.p_i, c.p_j + np.array([1e-4, 0.0]))
        exact, perturbed = indicator(h, [c, off])
        assert exact == 0.0
        assert perturbed > 0.0

    def test_infinite_flag(self):
        # map the point onto the plane at infinity: third row kills p = (1, 0)
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        c = Correspondence([1.0, 0.0], [0.0, 0.0])
        finite = Correspondence([0.0, 0.0], [0.0, 0.0])
        vals = indicator(Homography(m), [c, finite])
        assert vals[0] == np.inf
        assert vals[1] == 0.0
