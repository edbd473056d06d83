"""Geometry core: cloud model, transforms, exact knn, partial extraction."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from spatialprivacy.geometry import (
    PointCloud,
    RigidTransform,
    SpatialIndex,
    apply_transform,
    canonical_order,
    centroid,
    estimate_normals,
    extract_partial,
    knn_bruteforce,
    random_rigid_transform,
    ranking_copy,
)


class TestPointCloud:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_rejects_non_unit_normals(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))

    def test_unreliable_normals_may_be_anything_finite(self):
        cloud = PointCloud(
            np.zeros((1, 3)), np.array([[0.0, 0.0, 0.0]]), reliable=np.array([False])
        )
        assert not cloud.reliable[0]

    def test_immutable_arrays(self, random_cloud):
        with pytest.raises(ValueError):
            random_cloud.positions[0, 0] = 99.0

    def test_caller_buffers_stay_writable(self):
        p, n = np.zeros((3, 3)), np.tile([0.0, 0.0, 1.0], (3, 1))
        cloud = PointCloud(p, n)
        p[0, 0] = 1.0
        n[0, 0] = 1.0
        for arr in (cloud.positions, cloud.normals):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0
        rot, shift = np.eye(3), np.zeros(3)
        transform = RigidTransform(rot, shift)
        rot[0, 0] = 1.0
        shift[0] = 1.0
        with pytest.raises(ValueError):
            transform.translation[0] = 2.0

    def test_subset_keeps_order(self, random_cloud):
        sub = random_cloud.subset(np.array([5, 2, 7]))
        assert np.array_equal(sub.positions[0], random_cloud.positions[5])
        assert np.array_equal(sub.positions[1], random_cloud.positions[2])


class TestRigidTransform:
    def test_validates_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflection, np.zeros(3))

    def test_identity(self, random_cloud):
        out = apply_transform(random_cloud, RigidTransform.identity())
        assert np.array_equal(out.positions, random_cloud.positions)
        assert np.array_equal(out.normals, random_cloud.normals)

    def test_translation_only(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        t = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        out = apply_transform(cloud, t)
        assert np.allclose(out.positions[0], [1, 0, 0])
        assert np.allclose(out.normals[0], [0, 0, 1])

    def test_preserves_pairwise_distances(self, rng, random_cloud):
        t = random_rigid_transform(rng)
        out = apply_transform(random_cloud, t)
        before = np.linalg.norm(
            random_cloud.positions[:50, None] - random_cloud.positions[None, :50], axis=2
        )
        after = np.linalg.norm(
            out.positions[:50, None] - out.positions[None, :50], axis=2
        )
        assert np.max(np.abs(before - after)) < 1e-9

    def test_centroid_covariance(self, rng, random_cloud):
        t = random_rigid_transform(rng)
        lhs = centroid(apply_transform(random_cloud, t))
        rhs = t.apply(centroid(random_cloud))
        assert np.linalg.norm(lhs - rhs) < 1e-9


class TestRandomRigidTransform:
    def test_deterministic_per_seed(self):
        a = random_rigid_transform(7)
        b = random_rigid_transform(7)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_determinant_is_one(self):
        for seed in range(1000):
            t = random_rigid_transform(seed)
            assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9

    def test_mean_rotation_angle_matches_haar_measure(self):
        # Haar-uniform rotations have angle density (1 - cos t) / pi on
        # [0, pi]; quadrature gives the expected mean independently.
        expected, _ = quad(lambda t: t * (1 - np.cos(t)) / np.pi, 0, np.pi)
        rng = np.random.default_rng(0)
        angles = []
        for _ in range(10000):
            t = random_rigid_transform(rng)
            angles.append(np.arccos(np.clip((np.trace(t.rotation) - 1) / 2, -1, 1)))
        assert abs(np.degrees(np.mean(angles)) - np.degrees(expected)) < 2.0

    def test_translation_within_box(self):
        for seed in range(100):
            t = random_rigid_transform(seed, translation_extent=10.0)
            assert np.all(np.abs(t.translation) <= 10.0)


class _CountingTree:
    """A cKDTree stand-in that counts the ball queries made through it."""

    def __init__(self, tree):
        self.tree, self.balls = tree, 0

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self.balls += 1
        return self.tree.query_ball_point(*args, **kwargs)


class TestKnn:
    def test_query_on_cloud_point(self, random_cloud):
        index = SpatialIndex(random_cloud)
        dist, idx = index.query(random_cloud.positions[17], 1)
        assert idx[0] == 17
        assert dist[0] == 0.0

    def test_tie_broken_by_lower_index(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 5.0, 0]])
        index = SpatialIndex(pts)
        dist, idx = index.query(np.zeros(3), 2)
        assert list(idx) == [0, 1]
        assert dist[0] == dist[1] == 1.0

    def test_matches_linear_scan(self, rng):
        pts = rng.uniform(-5, 5, (1000, 3))
        queries = rng.uniform(-5, 5, (100, 3))
        index = SpatialIndex(pts)
        dist, idx = index.query(queries, k=2)
        for qi, q in enumerate(queries):
            d = np.linalg.norm(pts - q, axis=1)
            order = np.lexsort((np.arange(len(pts)), d))[:2]
            assert np.array_equal(idx[qi], order)
            assert np.array_equal(dist[qi], d[order])

    def test_query_is_the_linear_scan(self):
        """Bitwise equal indices and distances on tie-heavy and tie-free clouds.

        Tie-heavy cases draw points with replacement from few grid-rounded
        rows and put queries on the grid, so the k-th and (k+1)-th neighbors
        often tie; tie-free cases are uniform random clouds. Queries are
        copied from the cloud or drawn off it, k is 1, a random value and n,
        and the first query is also asked alone as a ``(3,)`` point. The
        ball fallback must run on tie-heavy cases and never on tie-free ones.
        """
        r = np.random.default_rng(2008)
        balls = {True: 0, False: 0}
        for case in range(120):
            ties = case % 2 == 0
            n, nq = int(r.integers(1, 300)), int(r.integers(1, 40))
            if ties:
                distinct = np.round(4 * r.uniform(-1, 1, (r.integers(1, n + 1), 3))) / 4
                pts = distinct[r.integers(0, len(distinct), n)]
                queries = np.round(8 * r.uniform(-1.2, 1.2, (nq, 3))) / 8
            else:
                pts = r.uniform(-1, 1, (n, 3))
                queries = r.uniform(-1.2, 1.2, (nq, 3))
            copied = r.random(nq) < 0.5
            queries[copied] = pts[r.integers(0, n, copied.sum())]
            index = SpatialIndex(pts)
            index._tree = _CountingTree(index._tree)
            for k in sorted({1, int(r.integers(1, n + 1)), n}):
                dist, idx = index.query(queries, k)
                for qi, q in enumerate(queries):
                    d = np.linalg.norm(pts - q, axis=1)
                    order = np.lexsort((np.arange(n), d))[:k]
                    assert np.array_equal(idx[qi], order), (case, k, qi)
                    assert np.array_equal(dist[qi], d[order]), (case, k, qi)
                one_dist, one_idx = index.query(queries[0], k)
                assert one_idx.shape == (k,)
                assert np.array_equal(one_idx, idx[0]) and np.array_equal(one_dist, dist[0])
            balls[ties] += index._tree.balls
        assert balls[True] > 0
        assert balls[False] == 0

    def test_k_out_of_range(self, random_cloud):
        index = SpatialIndex(random_cloud)
        with pytest.raises(ValueError):
            index.query(np.zeros(3), k=len(random_cloud) + 1)

    def test_bruteforce_matches_linear_scan_high_dim(self, rng):
        refs = rng.normal(size=(400, 128))
        queries = rng.normal(size=(50, 128))
        self._assert_linear_scan(refs, queries, 2)

    def test_bruteforce_is_the_linear_scan(self):
        """Bitwise equal indices and distances on random adversarial inputs.

        Cases mix random shapes and dimensions, references drawn with
        replacement from few distinct (sometimes grid-rounded) rows, queries
        copied from the references, coordinates scaled from 1e-3 to 1e3 and
        every k from 1 to n. Every fifth case has more query rows than two
        GEMM tiles hold, so the kernel runs several tiles. Each case runs with
        and without the prepared ranking copy.
        """
        r = np.random.default_rng(2004)
        for case in range(200):
            n, dim, nq = r.integers(1, 60), r.integers(1, 140), r.integers(1, 30)
            big = case % 10 in (0, 5)
            if big:
                n = r.integers(1000, 2500)
            k = int(r.integers(1, n + 1))
            if big:
                # A tile holds 2**18 keys, or one row when a row needs more.
                nq = 2 * max(1, 2**18 // max(n, k * dim)) + r.integers(1, 30)
            scale = 10.0 ** r.uniform(-3, 3)
            distinct = r.normal(size=(r.integers(1, n + 1), dim))
            if case % 2:
                distinct = np.round(4 * distinct) / 4
            refs = scale * distinct[r.integers(0, len(distinct), n)]
            queries = scale * r.normal(size=(nq, dim))
            copied = r.random(nq) < 0.5
            queries[copied] = refs[r.integers(0, n, copied.sum())]
            results = [knn_bruteforce(refs, queries, k=k),
                       knn_bruteforce(refs, queries, k=k, prepared=ranking_copy(refs))]
            for qi, q in enumerate(queries):
                d = np.linalg.norm(refs - q, axis=1)
                order = np.lexsort((np.arange(n), d))[:k]
                for dist, idx in results:
                    assert np.array_equal(idx[qi], order), (case, qi)
                    assert np.array_equal(dist[qi], d[order]), (case, qi)

    def test_bruteforce_memory_is_bounded_by_the_tile(self):
        r = np.random.default_rng(6500)
        refs = np.abs(r.normal(size=(6500, 128)))
        queries = np.abs(r.normal(size=(3387, 128)))
        tracemalloc.start()
        try:
            knn_bruteforce(refs, queries, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 3387 x 6500 key matrix alone would take 176 MB.
        assert peak <= 32 * 2**20

    def test_bruteforce_duplicate_reference_tie(self):
        refs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        for prepared in (None, ranking_copy(refs)):
            dist, idx = knn_bruteforce(refs, np.array([[1.0, 0.0]]), k=2, prepared=prepared)
            assert list(idx[0]) == [0, 2]

    @staticmethod
    def _assert_linear_scan(refs, queries, k):
        """Bitwise the linear scan, both with the prepared ranking copy
        given and with the call making its own."""
        for prepared in (None, ranking_copy(refs)):
            dist, idx = knn_bruteforce(refs, queries, k=k, prepared=prepared)
            for qi, q in enumerate(np.atleast_2d(queries)):
                d = np.linalg.norm(refs - q, axis=1)
                order = np.lexsort((np.arange(len(refs)), d))[:k]
                assert np.array_equal(idx[qi], order), (k, qi)
                assert np.array_equal(dist[qi], d[order]), (k, qi)

    def test_bruteforce_near_duplicates_within_the_slack(self):
        """References a few ulps apart put the (k+1)-th key within the
        rounding slack of the k-th without equalling it, and their keys may
        rank them unlike their direct distances."""
        r = np.random.default_rng(99)
        near = 0
        for _ in range(60):
            dim, scale = int(r.integers(1, 140)), 10.0 ** r.uniform(-3, 3)
            base = scale * r.normal(size=(int(r.integers(1, 4)), dim))
            refs = base[r.integers(0, len(base), int(r.integers(4, 12)))]
            steps = r.integers(-3, 4, size=refs.shape) * (r.random(refs.shape) < 0.3)
            refs = refs + steps * np.spacing(refs)
            queries = (refs[r.integers(0, len(refs), 5)]
                       + scale * 1e-3 * r.normal(size=(5, dim)))
            for k in range(1, len(refs) + 1):
                self._assert_linear_scan(refs, queries, k)
            for q in queries:
                d = np.sort(np.linalg.norm(refs - q, axis=1))
                near += np.count_nonzero((d[:-1] < d[1:]) & (d[1:] <= d[:-1] * (1 + 1e-12)))
        assert near > 0

    def test_bruteforce_k_equal_to_n(self):
        """No (k+1)-th key exists: every reference is returned, in scan order."""
        r = np.random.default_rng(7)
        for n in (1, 2, 3, 17):
            refs = np.round(r.normal(size=(n, 5)))
            queries = np.vstack([refs, r.normal(size=(4, 5))])
            self._assert_linear_scan(refs, queries, n)

    def test_bruteforce_equidistant_at_the_kth_place(self):
        """Six references at exactly distance 3 straddle the k-th place for
        k = 3..8, behind two at distance 1; lower indices win the tie."""
        shell = [(1, 2, 2), (2, -1, 2), (-2, 2, 1), (2, 2, -1), (0, 0, 3), (-3, 0, 0)]
        offsets = np.array(shell + [(1, 0, 0), (0, -1, 0), (5, 0, 0), (0, 4, 3)], float)
        q = np.array([10.0, -20.0, 30.0])
        refs = q + offsets[np.random.default_rng(3).permutation(len(offsets))]
        assert np.count_nonzero(np.linalg.norm(refs - q, axis=1) == 3.0) == len(shell)
        for k in range(1, len(refs) + 1):
            self._assert_linear_scan(refs, q, k)

    def test_bruteforce_untied_rows_take_no_full_row_pass(self):
        """A row whose (k+1)-th key is clear of the slack keeps its k picks,
        so the selection adds no tile-sized temporary to the key tile."""
        r = np.random.default_rng(2029)
        refs, queries = r.normal(size=(2000, 16)), r.normal(size=(100, 16))
        tracemalloc.start()
        try:
            knn_bruteforce(refs, queries, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 100 x 2000 queries fit one tile of 1.6 MB of keys.
        assert peak < 1.5 * 100 * 2000 * 8

    def test_bruteforce_keys_are_float32(self):
        """The ranking tile holds float32 keys: with the ranking copy given,
        a call adds little beyond one 100 x 2000 tile of 4-byte keys."""
        r = np.random.default_rng(2030)
        refs, queries = r.normal(size=(2000, 16)), r.normal(size=(100, 16))
        prepared = ranking_copy(refs)
        tracemalloc.start()
        try:
            knn_bruteforce(refs, queries, k=2, prepared=prepared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 100 * 2000 * 4

    def test_bruteforce_below_float32_resolution(self):
        """References that differ only below float32 resolution.

        Rows are copies of a few base rows moved by 2**-40 to 2**-16 of
        their size: the smallest moves leave equal float32 rows, so equal
        float32 keys for unequal float64 distances; moves near 2**-24 let
        float32 rounding rank two rows unlike their distances. Queries sit
        on references or near them; every k is checked.
        """
        r = np.random.default_rng(2031)
        equal_keys = 0
        for case in range(80):
            dim = int(r.choice([1, 2, 3, 16, 128]))
            scale = 10.0 ** r.uniform(-3, 3)
            base = scale * np.abs(r.normal(size=(int(r.integers(1, 4)), dim)))
            refs = base[r.integers(0, len(base), int(r.integers(2, 14)))]
            refs = refs * (1 + 2.0 ** r.uniform(-40, -16, refs.shape)
                           * r.choice([-1, 0, 1], refs.shape))
            near = refs[r.integers(0, len(refs), 6)]
            queries = near * (1 + 2.0 ** r.uniform(-30, -10, near.shape)
                              * r.normal(size=near.shape))
            queries[::2] = refs[r.integers(0, len(refs), 3)]
            for k in range(1, len(refs) + 1):
                self._assert_linear_scan(refs, queries, k)
            rounded = (refs / 2.0 ** np.floor(np.log2(scale))).astype(np.float32)
            same = (rounded[:, None] == rounded[None]).all(axis=2)
            differ = (refs[:, None] != refs[None]).any(axis=2)
            equal_keys += np.count_nonzero(same & differ)
        assert equal_keys > 0

    def test_bruteforce_mirrored_references(self):
        """Pairs of references mirrored about the query, q + d and q - d,
        are (nearly) equidistant from it but differ in norm, so the order of
        their keys rests on the float32 rounding of ||r||^2 and of the final
        add; the float64 scan orders them by its own rounding or by index."""
        r = np.random.default_rng(2034)
        for case in range(150):
            dim = int(r.integers(1, 5))
            q = r.normal(size=dim) * 10.0 ** r.uniform(-3, 0)
            d = r.normal(size=(int(r.integers(1, 5)), dim))
            refs = np.vstack([q + d, q - d])[r.permutation(2 * len(d))]
            for k in range(1, len(refs) + 1):
                self._assert_linear_scan(refs, q, k)

    def test_bruteforce_extreme_magnitudes(self):
        """Coordinates from 1e-150 to 1e150, beyond float32's range at both
        ends, so only the power-of-two scaling lets the float32 GEMM rank;
        queries and references may differ in magnitude."""
        r = np.random.default_rng(2032)
        for case in range(60):
            dim, n = int(r.integers(1, 140)), int(r.integers(1, 40))
            scale = 10.0 ** r.uniform(-150, 150)
            distinct = r.normal(size=(int(r.integers(1, n + 1)), dim))
            if case % 2:
                distinct = np.round(4 * distinct) / 4
            refs = scale * distinct[r.integers(0, len(distinct), n)]
            queries = scale * 10.0 ** r.uniform(-2, 2) * r.normal(size=(5, dim))
            queries[:2] = refs[r.integers(0, n, 2)]
            for k in sorted({1, 2 if n > 1 else 1, int(r.integers(1, n + 1)), n}):
                self._assert_linear_scan(refs, queries, k)

    def test_bruteforce_descriptor_like_variants(self):
        """Unit, non-negative 128-bin rows of a raw set and a second variant
        stacked into one pool, queried 2-nn as the descriptor matcher does.
        The variant keeps a third of the rows, moves a third by about 1e-7 of
        their size (float32 resolution) and replaces the rest, so a query
        whose nearest row has no near copy finds its second and third
        neighbors tied or nearly tied, with float32 keys that may rank them
        either way."""
        r = np.random.default_rng(2033)
        near_ties = 0
        for case in range(6):
            raw = np.abs(r.normal(size=(int(r.integers(100, 400)), 128))) ** 3
            raw[:, r.random(128) < 0.3] = 0.0
            variant = raw.copy()
            part = r.integers(0, 3, len(raw))
            variant[part == 1] *= 1 + 1e-7 * r.normal(size=((part == 1).sum(), 128))
            variant[part == 2] = np.abs(r.normal(size=((part == 2).sum(), 128))) ** 3
            pool = np.vstack([raw, variant])
            pool /= np.linalg.norm(pool, axis=1, keepdims=True)
            noisy = pool[r.integers(0, len(pool), 100)] + 1e-3 * r.random((100, 128))
            queries = np.vstack([pool[r.integers(0, len(pool), 100)], noisy])
            self._assert_linear_scan(pool, queries, 2)
            d = np.sort(np.linalg.norm(pool[None] - queries[:, None], axis=2), axis=1)
            near_ties += np.count_nonzero(d[:, 2] <= d[:, 1] * (1 + 1e-6))
        assert near_ties > 0

class TestExtractPartial:
    def test_zero_radius_keeps_center_point(self, random_cloud):
        center = random_cloud.positions[3]
        out = extract_partial(random_cloud, center, 0.0)
        assert len(out) >= 1
        assert np.any(np.all(out.positions == center, axis=1))

    def test_radius_covering_everything(self, random_cloud):
        diameter = 100.0
        out = extract_partial(random_cloud, np.zeros(3), diameter)
        assert len(out) == len(random_cloud)

    def test_count_matches_linear_scan_on_cube(self, rng):
        pts = rng.uniform(-1, 1, (2000, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (2000, 1))
        cloud = PointCloud(pts, nrm)
        center = np.zeros(3)
        out = extract_partial(cloud, center, 1.0)
        expected = np.sum(np.linalg.norm(pts - center, axis=1) <= 1.0)
        assert len(out) == expected

    def test_nested_in_radius(self, random_cloud):
        center = np.zeros(3)
        small = extract_partial(random_cloud, center, 1.0)
        large = extract_partial(random_cloud, center, 2.0)
        small_set = {tuple(p) for p in small.positions}
        large_set = {tuple(p) for p in large.positions}
        assert small_set <= large_set


class TestCentroid:
    def test_two_points(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        assert np.array_equal(centroid(cloud), [1.0, 0, 0])

    def test_single_point(self):
        cloud = PointCloud(np.array([[3.0, -1.0, 2.0]]))
        assert np.array_equal(centroid(cloud), [3.0, -1.0, 2.0])

    def test_matches_high_precision_sum(self, rng):
        import math

        pts = rng.uniform(-100, 100, (1000, 3))
        cloud = PointCloud(pts)
        expected = np.array(
            [math.fsum(pts[:, d]) / len(pts) for d in range(3)]
        )
        assert np.linalg.norm(centroid(cloud) - expected) < 1e-9

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            centroid(PointCloud(np.zeros((0, 3))))


class TestEstimateNormals:
    def test_planar_cloud(self, rng):
        pts = np.column_stack(
            [rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200), np.zeros(200)]
        )
        out = estimate_normals(PointCloud(pts), k=10)
        assert np.all(out.reliable)
        assert np.all(np.abs(np.abs(out.normals[:, 2]) - 1.0) < 1e-3)

    def test_sphere_normals_radial(self, rng):
        v = rng.normal(size=(800, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        out = estimate_normals(PointCloud(pts), k=10)
        radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        dots = np.abs(np.einsum("ij,ij->i", out.normals, radial))
        assert np.all(dots[out.reliable] >= 0.95)

    def test_collinear_points_flagged_unreliable(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        out = estimate_normals(PointCloud(pts), k=2)
        assert not np.any(out.reliable)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.zeros((3, 3))), k=5)


class TestCanonicalOrder:
    def test_stable_under_permutation_and_motion(self, rng, random_cloud):
        order = canonical_order(random_cloud.positions)
        t = random_rigid_transform(rng)
        moved = apply_transform(random_cloud, t)
        assert np.array_equal(order, canonical_order(moved.positions))
        perm = rng.permutation(len(random_cloud))
        permuted = random_cloud.positions[perm]
        # The same physical points come out in the same geometric order.
        assert np.array_equal(
            permuted[canonical_order(permuted)],
            random_cloud.positions[order],
        )
