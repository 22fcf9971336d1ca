"""Poincare/Klein primitive contracts: closed forms, round trips, metric axioms."""

import math

import numpy as np
import pytest

from hypstruct import autodiff as ad
from hypstruct import geometry as geo

import composed_ops as composed
from conftest import central_difference, event_totals, traced_peak_mb, weighted_grad


def rand_ball_point(rng, dim, c=1.0, max_norm=0.9):
    v = rng.standard_normal(dim)
    r = rng.uniform(0.0, max_norm) / math.sqrt(c)
    return v / np.linalg.norm(v) * r


def dist(a, b, c=1.0):
    """Poincare distance between two points."""
    return float(geo.dist_rows(a[None, :], b[None, :], c)[0])


def midpoint(rows, c=1.0):
    """Einstein midpoint of Klein rows: one group holding the one class of every row."""
    return geo.einstein_mid(np.asarray(rows), c, np.zeros(len(rows), dtype=np.int64),
                            np.ones((1, 1)))[0]


class TestPoincareDistance:
    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rand_ball_point(rng, 4)
            assert dist(p, p) == 0.0

    def test_origin_closed_form(self):
        # at the origin the distance reduces to (2/sqrt(c)) atanh(sqrt(c)||b||)
        assert dist(np.zeros(2), np.array([0.5, 0.0])) == pytest.approx(2.0 * math.atanh(0.5),
                                                                         abs=1e-12)
        rng = np.random.default_rng(1)
        for c in (1.0, 0.5, 2.0):
            for _ in range(10):
                p = rand_ball_point(rng, 3, c)
                want = (2.0 / math.sqrt(c)) * math.atanh(math.sqrt(c) * np.linalg.norm(p))
                assert dist(np.zeros(3), p, c) == pytest.approx(want, abs=1e-12)

    def test_small_curvature_recovers_euclidean(self):
        c = 1e-8
        assert dist(np.array([0.1, 0.0]), np.array([0.3, 0.0]), c) == pytest.approx(0.4, abs=1e-6)
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rand_ball_point(rng, 5, 1.0, 0.5)
            b = rand_ball_point(rng, 5, 1.0, 0.5)
            want = 2.0 * np.linalg.norm(a - b)
            assert abs(dist(a, b, c) - want) <= 1e-5

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            dim = int(rng.integers(1, 17))
            a = rand_ball_point(rng, dim)
            b = rand_ball_point(rng, dim)
            c = rand_ball_point(rng, dim)
            dab = dist(a, b)
            dba = dist(b, a)
            dac = dist(a, c)
            dcb = dist(c, b)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-12
            assert dab <= dac + dcb + 1e-9


class TestExpLogMaps:
    def test_zero_maps_to_origin(self):
        p = geo.exp0(np.zeros(3), 1.0)
        np.testing.assert_array_equal(p, 0.0)
        np.testing.assert_array_equal(composed.log0(p, 1.0), 0.0)

    def test_axis_closed_form(self):
        for t in (0.1, 1.0, 5.0, 20.0, 50.0):
            p = geo.exp0(np.array([t, 0.0]), 1.0)
            assert p[0] == pytest.approx(math.tanh(t), abs=1e-15)
            assert np.linalg.norm(p) < 1.0

    def test_log_inverts_exp(self):
        u = np.array([math.tanh(1.0), 0.0])
        np.testing.assert_allclose(composed.log0(u, 1.0), [1.0, 0.0], atol=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.standard_normal(6)
            v *= rng.uniform(0, 5.0) / np.linalg.norm(v)
            back = composed.log0(geo.exp0(v, 1.0), 1.0)
            np.testing.assert_allclose(back, v, atol=1e-9)

    def test_exp_inverts_log(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rand_ball_point(rng, 4, max_norm=0.999)
            again = geo.exp0(composed.log0(u, 1.0), 1.0)
            np.testing.assert_allclose(again, u, atol=1e-9)


class TestClip:
    def test_inside_unchanged(self):
        np.testing.assert_array_equal(geo.clip0(np.array([0.3, 0.4]), 1.0), [0.3, 0.4])

    def test_outside_rescaled(self):
        p = geo.clip0(np.array([3.0, 4.0]), 1.0, epsilon=1e-5)
        np.testing.assert_allclose(p, np.array([0.6, 0.8]) * (1.0 - 1e-5), atol=1e-15)

    def test_zero_preserved(self):
        np.testing.assert_array_equal(geo.clip0(np.zeros(2), 1.0), 0.0)


class TestModelConversions:
    def test_fixed_point_origin(self):
        np.testing.assert_array_equal(geo.to_klein(np.zeros(2), 1.0), 0.0)
        np.testing.assert_array_equal(geo.to_poincare(np.zeros(2), 1.0), 0.0)

    def test_known_values(self):
        np.testing.assert_allclose(geo.to_klein(np.array([0.5, 0.0]), 1.0), [0.8, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(geo.to_poincare(np.array([0.8, 0.0]), 1.0), [0.5, 0.0],
                                   atol=1e-15)

    def test_round_trips(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = rand_ball_point(rng, 3, max_norm=0.99)
            back = geo.to_poincare(geo.to_klein(z, 1.0), 1.0)
            np.testing.assert_allclose(back, z, atol=1e-12)

    def test_poincare_norm_smaller(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(4)
            v *= rng.uniform(0.05, 0.95) / np.linalg.norm(v)
            assert np.linalg.norm(geo.to_poincare(v, 1.0)) < np.linalg.norm(v)


class TestEinsteinMidpoint:
    def test_single_point(self):
        p = np.array([0.3, -0.2])
        np.testing.assert_allclose(midpoint([p]), p, atol=1e-15)

    def test_symmetric_pair(self):
        np.testing.assert_allclose(midpoint([[0.6, 0.0], [-0.6, 0.0]]), 0.0, atol=1e-15)

    def test_reference_value(self):
        # gamma-weighted average of (0.5, 0) and the origin
        g = 1.0 / math.sqrt(1.0 - 0.25)
        want = g * 0.5 / (g + 1.0)
        mid = midpoint([[0.5, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(mid, [want, 0.0], atol=1e-15)
        assert mid[0] == pytest.approx(0.267949, abs=1e-6)

    def test_permutation_invariance(self):
        # reordering only reorders two float sums: by the recursive-summation
        # bound any two orders of n points agree to about 4 (n - 1) 2**-53 /
        # sqrt(c) per coordinate (5e-15 for 12 points), not bit for bit
        rng = np.random.default_rng(8)
        pts = []
        for _ in range(12):
            v = rng.standard_normal(3)
            v *= rng.uniform(0.001, 0.999) / np.linalg.norm(v)
            pts.append(v)
        base = midpoint(pts)
        for _ in range(5):
            perm = rng.permutation(len(pts))
            again = midpoint([pts[i] for i in perm])
            np.testing.assert_allclose(again, base, atol=1e-12)

    def test_output_inside_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pts = []
            for _ in range(int(rng.integers(1, 8))):
                v = rng.standard_normal(2)
                v *= rng.uniform(0.001, 0.9999) / np.linalg.norm(v)
                pts.append(v)
            mid = midpoint(pts)
            assert float(np.dot(mid, mid)) < 1.0


class TestHypAvePoincare:
    def test_single_and_symmetric(self):
        p = np.array([0.4, 0.1])
        np.testing.assert_allclose(composed.poincare_midpoint([p], 1.0), p, atol=1e-12)
        np.testing.assert_allclose(composed.poincare_midpoint([p, -p], 1.0), 0.0, atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        pts = [rand_ball_point(rng, 2, max_norm=0.95) for _ in range(9)]
        base = composed.poincare_midpoint(pts, 1.0)
        perm = rng.permutation(9)
        again = composed.poincare_midpoint([pts[i] for i in perm], 1.0)
        np.testing.assert_allclose(again, base, atol=1e-12)


class TestMonotonicity:
    def test_clipped_unit_vectors_preserve_order(self):
        # Poincare distance grows with Euclidean distance for unit-direction
        # vectors clipped from outside the ball.  Near the boundary the
        # distance resolves Euclidean differences only above float noise, so
        # near-ties are skipped.
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            u, v, w = (2.0 * x / np.linalg.norm(x) for x in rng.standard_normal((3, 4)))
            cu = geo.clip0(u, 1.0, epsilon=1e-5)
            cv = geo.clip0(v, 1.0, epsilon=1e-5)
            cw = geo.clip0(w, 1.0, epsilon=1e-5)
            euv, euw = np.linalg.norm(u - v) / 2, np.linalg.norm(u - w) / 2
            if abs(euv - euw) < 1e-4:
                continue
            duv = dist(cu, cv)
            duw = dist(cu, cw)
            assert (euv < euw) == (duv < duw)
            checked += 1
        assert checked > 150


def test_clamp_counter_increments():
    before = ad.total_atanh_clamps()
    a = geo.clip0(np.array([1.0, 0.0]) * 5.0, 1.0, epsilon=1e-16)
    b = geo.clip0(np.array([-1.0, 0.0]) * 5.0, 1.0, epsilon=1e-16)
    dist(a, b)
    assert ad.total_atanh_clamps() > before


def test_unit_norm_clip_is_rescaled():
    # ||v|| == 1 sits on the boundary and must take the rescale branch
    p = geo.clip0(np.array([1.0, 0.0]), 1.0)
    assert np.linalg.norm(p) == pytest.approx(1.0 - 1e-5, abs=1e-12)


# fused backward passes against the composed references -------------------------

# rows along the last axis, unbatched and with a leading restart axis
FUSED_SHAPES = [(5, 3), (3, 4, 2)]


def assert_fused_matches(fused, composed, x, weights):
    """Fused and composed gradients agree to 1e-10; both match finite differences."""
    g_fused = weighted_grad(fused, x, weights)
    g_composed = weighted_grad(composed, x, weights)
    want = central_difference(lambda v: float(np.sum(ad.val(fused(v)) * weights)), x)
    np.testing.assert_allclose(g_fused, g_composed, rtol=0, atol=1e-10)
    np.testing.assert_allclose(g_fused, want, rtol=0, atol=1e-7)
    np.testing.assert_allclose(g_composed, want, rtol=0, atol=1e-7)
    return g_fused


class TestFusedBackward:
    @pytest.mark.parametrize("shape", FUSED_SHAPES)
    @pytest.mark.parametrize("c", [1.0, 0.6])
    def test_exp0(self, shape, c):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        np.testing.assert_array_equal(geo.exp0(v, c), composed.exp0(v, c))
        assert_fused_matches(lambda x: geo.exp0(x, c), lambda x: composed.exp0(x, c), v, w)

    def test_exp0_tanh_cap(self):
        # tanh(s) caps below 1 for s >~ 19: no gradient flows through the cap,
        # so the radial derivative is zero and only the direction moves
        rng = np.random.default_rng(22)
        v = 40.0 * rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        g = assert_fused_matches(lambda x: geo.exp0(x, 1.0),
                                 lambda x: composed.exp0(x, 1.0), v, w)
        np.testing.assert_allclose(np.sum(g * v, axis=-1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, 0.6])
    def test_group_means_and_einstein_mid(self, c):
        # 9 rows of 4 classes, class 2 without rows, in 5 groups of classes
        rng = np.random.default_rng(24)
        k = geo.to_klein(0.5 * geo.exp0(rng.standard_normal((9, 3)), c), c)
        labels = np.array([0, 1, 3, 0, 1, 1, 3, 0, 3])
        groups = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1],
                           [1, 0, 0, 0]], dtype=float)
        over_rows = groups[:, labels]
        w = rng.standard_normal((5, 3))
        means = over_rows / over_rows.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(geo.group_means(k, labels, groups), means @ k,
                                   rtol=0, atol=1e-15)
        assert_fused_matches(lambda x: geo.group_means(x, labels, groups),
                             lambda x: ad.matmul(means, x), k, w)
        np.testing.assert_allclose(geo.einstein_mid(k, c, labels, groups),
                                   composed.einstein_mid(k, c, over_rows), rtol=0, atol=1e-15)
        assert_fused_matches(lambda x: geo.einstein_mid(x, c, labels, groups),
                             lambda x: composed.einstein_mid(x, c, over_rows), k, w)

    def test_einstein_mid_on_a_floored_row(self):
        # row 1 lies on the unit sphere, where 1 - ||k||^2 floors: its Lorentz
        # factor is a constant of the backward pass in both forms
        k = np.array([[0.3, 0.1], [1.0, 0.0], [-0.2, 0.4]])
        labels, groups = np.array([0, 1, 2]), np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        w = np.array([[0.5, -1.0], [2.0, 0.3]])
        fused = weighted_grad(lambda x: geo.einstein_mid(x, 1.0, labels, groups), k, w)
        chain = weighted_grad(lambda x: composed.einstein_mid(x, 1.0, groups[:, labels]), k, w)
        assert np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("shape", FUSED_SHAPES)
    @pytest.mark.parametrize("c", [1.0, 0.6])
    def test_dist_rows(self, shape, c):
        # the two rows of every i < j pair, as embed-tree pairs them
        rng = np.random.default_rng(23)
        z = 0.8 * geo.exp0(rng.standard_normal(shape), c)
        ii, jj = np.triu_indices(shape[-2], 1)
        z1, z2 = z[..., ii, :], z[..., jj, :]
        np.testing.assert_array_equal(geo.dist_rows(z1, z2, c), composed.dist_rows(z1, z2, c))
        # values only: a tape node is not an operand
        with pytest.raises(TypeError):
            geo.dist_rows(ad.Node(z1), z2, c)

    def test_dist_rows_boundary_clamp(self):
        # pair 0 lies well inside; pair 1 joins antipodal points one ulp inside
        # the unit circle, where the atanh argument clamps
        edge = np.nextafter(1.0, 0.0)
        z = np.array([[0.3, 0.1], [edge, 0.0], [-0.2, 0.4], [-edge, 0.0]])
        ii, jj = np.array([0, 1]), np.array([2, 3])
        seen = {}
        for name, impl in (("fused", geo), ("composed", composed)):
            before = ad.total_atanh_clamps()
            seen[name] = (impl.dist_rows(z[ii], z[jj], 1.0), ad.total_atanh_clamps() - before)
        (got, clamps), (want, want_clamps) = seen["fused"], seen["composed"]
        assert clamps == want_clamps == 1
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert got[1] == 2.0 * np.arctanh(ad.ATANH_MAX)


# all-pairs kernel ---------------------------------------------------------------

class TestPairDistances:
    @pytest.mark.parametrize("shape", FUSED_SHAPES)
    @pytest.mark.parametrize("mode,c", [("poincare", 1.0), ("poincare", 0.6), ("l2", 1.0)])
    def test_matches_gathered_pairs(self, shape, mode, c):
        # well-separated rows: the kernel against gather + paired distance
        rng = np.random.default_rng(25)
        z = 0.8 * geo.exp0(rng.standard_normal(shape), c)
        w = rng.standard_normal(shape[:-2] + (shape[-2] * (shape[-2] - 1) // 2,))
        np.testing.assert_allclose(geo.pair_distances(z, mode, c),
                                   composed.pair_distances(z, mode, c), rtol=1e-14, atol=0)
        assert_fused_matches(lambda x: geo.pair_distances(x, mode, c),
                             lambda x: composed.pair_distances(x, mode, c), z, w)

    @pytest.mark.parametrize("k", [2, 13, 121])
    def test_pair_index_is_the_cached_read_only_upper_triangle(self, k):
        ii, jj, flat = geo.pair_index(k)
        want_i, want_j = np.triu_indices(k, 1)
        np.testing.assert_array_equal(ii, want_i)
        np.testing.assert_array_equal(jj, want_j)
        np.testing.assert_array_equal(flat, want_i * k + want_j)
        assert geo.pair_index(k) is geo.pair_index(k)
        for a in (ii, jj, flat):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


# close and coincident pairs -------------------------------------------------------

SEPARATIONS = [10.0 ** -e for e in range(3, 13)]


def colinear_pair(r, sep, dim):
    """Rows ``r e1`` and ``r2 e1`` with ``r2 - r`` exact in floating point."""
    r2 = r + sep
    z = np.zeros((2, dim))
    z[0, 0], z[1, 0] = r, r2
    return z, r2


def exact_colinear(r, r2, c):
    # d = (2/sqrt(c)) atanh(sqrt(c)(r2 - r)/(1 - c r r2)), dd/dr2 = 2/(1 - c r2^2)
    sc = math.sqrt(c)
    d = (2.0 / sc) * math.atanh(sc * (r2 - r) / (1.0 - c * r * r2))
    return d, 2.0 / (1.0 - c * r2 * r2), -2.0 / (1.0 - c * r * r)


class TestClosePairs:
    @pytest.mark.parametrize("c", [1.0, 0.6])
    @pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
    @pytest.mark.parametrize("sep", SEPARATIONS)
    def test_kernel_and_dist_rows_against_exact_colinear(self, sep, r, c):
        z, r2 = colinear_pair(r, sep, 3)
        d, dd_r2, dd_r = exact_colinear(r, r2, c)
        assert abs(float(geo.dist_rows(z[0], z[1], c)) - d) <= 1e-13 * d

        def kernel(x):
            return geo.pair_distances(x, "poincare", c)

        g = weighted_grad(kernel, z, np.ones(1))
        assert abs(float(kernel(z)[0]) - d) <= 1e-13 * d
        assert abs(g[1, 0] - dd_r2) <= 1e-13 * abs(dd_r2)
        assert abs(g[0, 0] - dd_r) <= 1e-13 * abs(dd_r)
        np.testing.assert_array_equal(g[:, 1:], 0.0)

    @pytest.mark.parametrize("sep", SEPARATIONS)
    def test_l2_kernel_exact_for_close_pairs(self, sep):
        z, r2 = colinear_pair(0.5, sep, 2)
        got = float(geo.pair_distances(z, "l2", 1.0)[0])
        assert abs(got - (r2 - 0.5)) <= 1e-15 * (r2 - 0.5)
        g = weighted_grad(lambda x: geo.pair_distances(x, "l2", 1.0), z, np.ones(1))
        np.testing.assert_allclose(g[:, 0], [-1.0, 1.0], rtol=1e-15, atol=0)


class TestCoincidentRows:
    @pytest.mark.parametrize("mode", geo.PAIR_MODES)
    @pytest.mark.parametrize("batched", [False, True])
    def test_zero_distance_and_gradient(self, mode, batched):
        # rows 0 and 2 coincide; pair (0, 2) is index 1 in triu order
        z = np.array([[0.2, -0.3], [0.5, 0.1], [0.2, -0.3], [-0.4, 0.0]])
        if batched:
            z = np.stack([z, z[[2, 1, 0, 3]]])
        lead = z.shape[:-2]
        only_tie = np.zeros(lead + (6,))
        only_tie[..., 1] = 1.0
        before = event_totals()
        out = geo.pair_distances(z, mode, 1.0)
        assert np.all(out[..., 1] == 0.0)
        assert np.all(out[..., [0, 2, 3, 4, 5]] > 0.0)
        np.testing.assert_array_equal(
            weighted_grad(lambda x: geo.pair_distances(x, mode, 1.0), z, only_tie), 0.0)
        w = np.random.default_rng(26).standard_normal(lead + (6,))
        g = weighted_grad(lambda x: geo.pair_distances(x, mode, 1.0), z, w)
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(
            g, weighted_grad(lambda x: composed.pair_distances(x, mode, 1.0), z, w),
            rtol=0, atol=1e-10)
        assert event_totals() == before

    def test_dist_rows_identical_rows(self):
        z = np.array([[0.2, -0.3], [0.0, 0.0]])
        before = ad.total_atanh_clamps()
        assert np.all(geo.dist_rows(z, z, 1.0) == 0.0)
        assert ad.total_atanh_clamps() == before


# row blocks of the pair kernel --------------------------------------------------

def assert_blocks_match_the_whole_tensor(x, mode, c, g, rows, monkeypatch):
    """Value and VJP of the row-blocked kernel, ``rows`` rows a block (None:
    the default budget), bit for bit those of the whole-tensor oracle."""
    if rows is not None:
        monkeypatch.setattr(geo, "PAIR_BLOCK_CELLS", rows * x.size)
    dist, vjp = geo.pair_distances_vjp(x, mode, c)
    want, want_vjp = composed.pair_distances_vjp(x, mode, c)
    np.testing.assert_array_equal(dist, want)
    np.testing.assert_array_equal(vjp(g), want_vjp(g))


class TestRowBlocks:
    # k = 13 is embed-tree's, 121 train-c100's; 64 and 70 are exact
    # multiples of 32 and 7 rows, 121 of 11 rows and of none of the others
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("k", [13, 64, 70, 121])
    @pytest.mark.parametrize("rows", [None, 1, 7, 11, 32])
    @pytest.mark.parametrize("mode,c", [("poincare", 1.0), ("poincare", 0.6), ("l2", 1.0)])
    def test_match_the_whole_tensor_bit_for_bit(self, lead, k, rows, mode, c, monkeypatch):
        rng = np.random.default_rng(k)
        x = 0.8 * geo.exp0(rng.standard_normal(lead + (k, 16)), c)
        g = rng.standard_normal(lead + (k * (k - 1) // 2,))
        assert_blocks_match_the_whole_tensor(x, mode, c, g, rows, monkeypatch)

    @pytest.mark.parametrize("c", [1.0, 0.6])
    @pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
    @pytest.mark.parametrize("sep", SEPARATIONS)
    @pytest.mark.parametrize("mode", geo.PAIR_MODES)
    def test_close_pairs_in_one_row_blocks(self, sep, r, c, mode, monkeypatch):
        z, _ = colinear_pair(r, sep, 3)
        assert_blocks_match_the_whole_tensor(z, mode, c, np.ones(1), 1, monkeypatch)

    def test_embed_tree_shape_is_one_block(self):
        # embed-tree's 8 restarts of the 13-vertex tree in 2 dimensions
        assert geo.PAIR_BLOCK_CELLS // (8 * 13 * 2) >= 13

    @pytest.mark.parametrize("mode", geo.PAIR_MODES)
    def test_memory_is_bounded_by_pairs_not_by_the_difference_tensor(self, mode):
        # k = 1,111, d = 16: the whole (k, k, d) float64 difference tensor is
        # 158 MB.  What is left is O(k^2): the P = 616,605 per-pair arrays,
        # the (k, k) scatter matrix and, on a cold cache, the pair index.
        # Cold, poincare read 70.9 MB while its backward pass allocated its
        # own temporaries and outputs, and 48.6 MB once it wrote them over the
        # forward's buffers; l2 reads 23.8 MB (37.9 MB cold).  Bounds, in
        # (k, k) float64 matrices of 9.4 MB: poincare 5.5 (51.8 MB, 3.2 MB
        # above its reading), l2 eight, half the tensor.
        k, d = 1111, 16
        rng = np.random.default_rng(27)
        x = 0.8 * geo.exp0(rng.standard_normal((k, d)), 1.0)
        g = rng.standard_normal(k * (k - 1) // 2)

        def forward_and_vjp():
            _, vjp = geo.pair_distances_vjp(x, mode, 1.0)
            vjp(g)

        matrices = {"poincare": 5.5, "l2": 8}[mode]
        assert traced_peak_mb(forward_and_vjp) < matrices * k * k * 8 / 2**20
