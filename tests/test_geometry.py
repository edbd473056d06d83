"""Geometry core: cloud model, transforms, exact knn, ball cuts."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from spatialprivacy import geometry
from spatialprivacy.geometry import (
    PackedRows,
    PointCloud,
    RigidTransform,
    SpatialIndex,
    apply_transform,
    canonical_order,
    centroid,
    ball_indices,
    estimate_normals,
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

    def test_only_reliable_normals_are_checked(self):
        normals = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 1.0 + 2e-6], [0.0, 0.0, 1.0 + 5e-7]])
        PointCloud(np.zeros((3, 3)), normals, reliable=np.array([False, False, True]))
        with pytest.raises(ValueError, match="unit length"):
            PointCloud(np.zeros((3, 3)), normals, reliable=np.array([False, True, True]))

    def test_unit_check_holds_about_one_float_per_point(self):
        """The check runs for every subset and transform, so its memory grows
        by one float per point, not by a gathered (n, 3) copy of the rows."""
        def peak(n):
            r = np.random.default_rng(n)
            normals = r.normal(size=(n, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            positions = r.normal(size=(n, 3))
            tracemalloc.start()
            try:
                PointCloud(positions, normals)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(80_000) - peak(20_000)) / 60_000 < 20

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


def one_group(refs, queries, k, prepare=False):
    """``knn_bruteforce`` on the one group ``refs``, packed, with the ranking
    copy made by the call or, with ``prepare``, beforehand: its (q, k) results."""
    group = [PackedRows.pack(refs)]
    dist, idx = knn_bruteforce(group, queries, k=k,
                               prepared=ranking_copy(group) if prepare else None)
    return dist[0], idx[0]


def assert_linear_scan(index, pts, queries, k):
    """``index.query`` equals, bitwise, a linear scan of ``pts``."""
    dist, idx = index.query(queries, k)
    for qi, q in enumerate(queries):
        d = np.linalg.norm(pts - q, axis=1)
        order = np.lexsort((np.arange(len(pts)), d))[:k]
        assert np.array_equal(idx[qi], order), (k, qi)
        assert np.array_equal(dist[qi], d[order]), (k, qi)


def assert_query_is_the_linear_scan(r):
    """120 tie-heavy and tie-free cases of ``TestKnn.test_query_is_the_linear_scan``;
    returns, for each kind, how many rows tie across the k-th place."""
    ties = {True: 0, False: 0}
    for case in range(120):
        tie_heavy = case % 2 == 0
        n, nq = int(r.integers(1, 300)), int(r.integers(1, 40))
        if tie_heavy:
            distinct = np.round(4 * r.uniform(-1, 1, (r.integers(1, n + 1), 3))) / 4
            pts = distinct[r.integers(0, len(distinct), n)]
            queries = np.round(8 * r.uniform(-1.2, 1.2, (nq, 3))) / 8
        else:
            pts = r.uniform(-1, 1, (n, 3))
            queries = r.uniform(-1.2, 1.2, (nq, 3))
        copied = r.random(nq) < 0.5
        queries[copied] = pts[r.integers(0, n, copied.sum())]
        index = SpatialIndex(pts)
        for k in sorted({1, int(r.integers(1, n + 1)), n}):
            assert_linear_scan(index, pts, queries, k)
            dist, idx = index.query(queries, k)
            one_dist, one_idx = index.query(queries[0], k)
            assert one_idx.shape == (k,)
            assert np.array_equal(one_idx, idx[0]) and np.array_equal(one_dist, dist[0])
            if k < n:
                d = np.sort(np.linalg.norm(pts[None] - queries[:, None], axis=2), axis=1)
                ties[tie_heavy] += int(np.sum(d[:, k - 1] == d[:, k]))
    return ties


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
        and the first query is also asked alone as a ``(3,)`` point. Ties
        across the k-th place must occur on tie-heavy cases and never on
        tie-free ones.
        """
        ties = assert_query_is_the_linear_scan(np.random.default_rng(2008))
        assert ties[True] > 0
        assert ties[False] == 0

    def test_grid_query_is_the_linear_scan(self, monkeypatch):
        """The same cases on the grid path, which small inputs skip."""
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", 0)
        ties = assert_query_is_the_linear_scan(np.random.default_rng(2008))
        assert ties[True] > 0

    def test_query_far_outside_the_cloud(self, rng, monkeypatch):
        """Queries 500 m outside the cloud, on every side, on both paths."""
        pts = rng.uniform(-1, 1, (2000, 3))
        queries = np.vstack([np.eye(3) * 500, -np.eye(3) * 500, [[300.0, -400, 0]]])
        for scan_pairs in (geometry._SCAN_PAIRS, 0):
            monkeypatch.setattr(geometry, "_SCAN_PAIRS", scan_pairs)
            for k in (1, 5):
                assert_linear_scan(SpatialIndex(pts), pts, queries, k)

    def test_k_equal_to_n(self, rng, monkeypatch):
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", 0)
        pts = rng.uniform(-1, 1, (1500, 3))
        assert_linear_scan(SpatialIndex(pts), pts, pts[:3] + 0.01, len(pts))

    def test_no_queries(self, random_cloud):
        dist, idx = SpatialIndex(random_cloud).query(np.zeros((0, 3)), 3)
        assert dist.shape == idx.shape == (0, 3)

    def test_one_point_cloud(self, rng, monkeypatch):
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", 0)
        pts = np.array([[1.0, 2.0, 3.0]])
        index = SpatialIndex(pts)
        queries = np.vstack([pts, rng.uniform(-10, 10, (20, 3))])
        assert_linear_scan(index, pts, queries, 1)
        rows, indices = index.ball(queries, 5.0)
        assert np.array_equal(rows, np.flatnonzero(np.linalg.norm(queries - pts, axis=1) <= 5))
        assert not indices.any()

    def test_memory_is_linear_with_a_far_outlier(self, rng):
        """A cloud of 10k points with one 1 km away: a dense grid over its
        bounding box would need about 10**9 cells; the index holds O(n)."""
        pts = np.vstack([rng.uniform(-5, 5, (10_000, 3)), [[1000.0, 0, 0]]])
        tracemalloc.start()
        try:
            index = SpatialIndex(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * len(pts)
        queries = np.vstack([pts[::997], [[1000.0, 1, 0], [600.0, 0, 0]]])
        assert_linear_scan(index, pts, queries, 4)

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
            results = [one_group(refs, queries, k=k, prepare=prepare)
                       for prepare in (False, True)]
            for qi, q in enumerate(queries):
                d = np.linalg.norm(refs - q, axis=1)
                order = np.lexsort((np.arange(n), d))[:k]
                for dist, idx in results:
                    assert np.array_equal(idx[qi], order), (case, qi)
                    assert np.array_equal(dist[qi], d[order]), (case, qi)

    def test_bruteforce_memory_is_bounded_by_the_tile(self):
        r = np.random.default_rng(6500)
        refs = PackedRows.pack(np.abs(r.normal(size=(6500, 128))))
        queries = np.abs(r.normal(size=(3387, 128)))
        tracemalloc.start()
        try:
            knn_bruteforce([refs], queries, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 3387 x 6500 key matrix alone would take 176 MB.
        assert peak <= 32 * 2**20

    def test_bruteforce_duplicate_reference_tie(self):
        refs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        for prepare in (False, True):
            dist, idx = one_group(refs, np.array([[1.0, 0.0]]), k=2, prepare=prepare)
            assert list(idx[0]) == [0, 2]

    @staticmethod
    def _assert_linear_scan(refs, queries, k):
        """Bitwise the linear scan of the packed references, both with the
        prepared ranking copy given and with the call making its own."""
        queries = np.atleast_2d(queries)
        for prepare in (False, True):
            dist, idx = one_group(refs, queries, k=k, prepare=prepare)
            for qi, q in enumerate(queries):
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
        refs, queries = PackedRows.pack(r.normal(size=(2000, 16))), r.normal(size=(100, 16))
        tracemalloc.start()
        try:
            knn_bruteforce([refs], queries, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 100 x 2000 queries fit one tile of 1.6 MB of keys.
        assert peak < 1.5 * 100 * 2000 * 8

    def test_bruteforce_keys_are_float32(self):
        """The ranking tile holds float32 keys: with the ranking copy given,
        a call adds little beyond one 100 x 2000 tile of 4-byte keys."""
        r = np.random.default_rng(2030)
        refs, queries = PackedRows.pack(r.normal(size=(2000, 16))), r.normal(size=(100, 16))
        prepared = ranking_copy([refs])
        tracemalloc.start()
        try:
            knn_bruteforce([refs], queries, k=2, prepared=prepared)
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

class TestGroupedKnn:
    """knn_bruteforce over a list of reference groups: each group's
    distances and indices are, bitwise, that group's own linear scan."""

    @staticmethod
    def _assert_each_group_scanned(groups, queries, k):
        """The groups packed, each in its own store, with and without the
        prepared ranking copy."""
        packed = [PackedRows.pack(g) for g in groups]
        for prepared in (None, ranking_copy(packed)):
            dist, idx = knn_bruteforce(packed, queries, k=k, prepared=prepared)
            assert dist.shape == idx.shape == (len(groups), len(queries), k)
            for g, refs in enumerate(groups):
                for qi, q in enumerate(queries):
                    d = np.linalg.norm(refs - q, axis=1)
                    order = np.lexsort((np.arange(len(refs)), d))[:k]
                    assert np.array_equal(idx[g, qi], order), (g, qi)
                    assert np.array_equal(dist[g, qi], d[order]), (g, qi)

    def test_groups_are_each_the_linear_scan(self):
        """1 to 9 groups of unequal sizes, one of exactly k rows, drawn from
        few distinct (sometimes grid-rounded) rows, so that rows repeat
        within and across groups; queries partly copied from the groups.
        Every third case has a group of over 1000 rows and more query rows
        than two tiles hold, so the kernel runs several tiles."""
        r = np.random.default_rng(2041)
        for case in range(54):
            n_groups, k = case % 9 + 1, int(r.integers(1, 4))
            big = case % 3 == 0
            dim = int(r.integers(1, 17 if big else 140))
            scale = 10.0 ** r.uniform(-3, 3)
            distinct = r.normal(size=(int(r.integers(1, 40)), dim))
            if case % 2:
                distinct = np.round(4 * distinct) / 4
            sizes = r.integers(k, 80, n_groups)
            sizes[r.integers(n_groups)] = k
            if big:
                sizes[r.integers(n_groups)] = r.integers(1000, 2500)
            groups = [scale * distinct[r.integers(0, len(distinct), n)] for n in sizes]
            nq = int(r.integers(1, 30))
            if big:
                nq += 2 * max(1, 2**18 // max(max(sizes), k * dim))
            queries = scale * r.normal(size=(nq, dim))
            copied = r.random(nq) < 0.5
            pooled = np.vstack(groups)
            queries[copied] = pooled[r.integers(0, len(pooled), copied.sum())]
            self._assert_each_group_scanned(groups, queries, k)

    def test_tie_at_the_kth_place_in_one_group_only(self):
        """One group puts six references at exactly distance 3 behind two at
        distance 1, so a tie straddles the k-th place for k = 3..7; the
        other groups are tie-free, and the tied group comes first or not."""
        shell = [(1, 2, 2), (2, -1, 2), (-2, 2, 1), (2, 2, -1), (0, 0, 3), (-3, 0, 0)]
        offsets = np.array(shell + [(1, 0, 0), (0, -1, 0)], float)
        q = np.array([10.0, -20.0, 30.0])
        r = np.random.default_rng(4)
        tied = q + offsets[r.permutation(len(offsets))]
        others = [q + 4 * r.normal(size=(n, 3)) for n in (8, 12, 9)]
        for k in range(1, 9):
            for groups in ([tied] + others, others[:2] + [tied] + others[2:]):
                self._assert_each_group_scanned(groups, q[None], k)

    def test_a_bare_array_is_rejected(self):
        """The references are a list of groups and the queries 2-D: a bare
        (n, dim) array or store of references, or one (dim,) query, raises."""
        r = np.random.default_rng(6)
        refs, queries = r.normal(size=(5, 4)), r.normal(size=(2, 4))
        packed = PackedRows.pack(refs)
        for bad_refs, bad_queries in ((refs, queries), (packed, queries),
                                      ([packed], queries[0])):
            with pytest.raises(ValueError, match="list of \\(n, dim\\) reference groups"):
                knn_bruteforce(bad_refs, bad_queries, k=2)

    def test_dense_groups_are_rejected(self):
        """Only packed groups are searched: a dense group, alone or beside a
        packed one, raises, with or without the ranking copy; so does an
        empty list."""
        r = np.random.default_rng(7)
        refs, queries = r.normal(size=(5, 4)), r.normal(size=(2, 4))
        packed = PackedRows.pack(refs)
        for groups in ([refs], [packed, refs], []):
            for prepared in (None, ranking_copy([packed])):
                with pytest.raises(ValueError, match="each a PackedRows store"):
                    knn_bruteforce(groups, queries, k=2, prepared=prepared)

    def test_k_beyond_a_group_is_rejected(self):
        r = np.random.default_rng(5)
        with pytest.raises(ValueError, match="k=2 out of range"):
            knn_bruteforce([PackedRows.pack(r.normal(size=(5, 4))),
                            PackedRows.pack(r.normal(size=(1, 4)))],
                           r.normal(size=(2, 4)), k=2)

    def test_memory_is_bounded_by_the_tile(self):
        """Seven groups of about 2000 rows, as the reference ensemble holds,
        and 3387 query rows, as a full default space describes to."""
        r = np.random.default_rng(6501)
        groups = [PackedRows.pack(np.abs(r.normal(size=(n, 128))))
                  for n in (2036, 2064, 2014, 1849, 2100, 1933, 2189)]
        queries = np.abs(r.normal(size=(3387, 128)))
        tracemalloc.start()
        try:
            knn_bruteforce(groups, queries, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 3387 x 14185 key matrix alone would take 192 MB in float32.
        assert peak <= 32 * 2**20


def sparse_rows(r, n, dim, density=0.35):
    """(n, dim) rows, mostly zero as spin images are, with a -0.0 entry, an
    all-zero row and an all-nonzero row."""
    rows = np.where(r.random((n, dim)) < density, r.normal(size=(n, dim)), 0.0)
    rows[0, -1] = -0.0
    rows[1] = 0.0
    rows[2] = r.normal(size=dim)
    return rows


class TestPackedRows:
    """Rows packed as nonzero masks and values come back bit for bit."""

    def test_round_trip_is_bitwise(self):
        """``dense`` gives, bit for bit, what indexing the dense rows gives:
        all of them, slices, integers, index arrays of shape (m,) and
        (m, k), negative indices; the rows hold a -0.0 entry, an all-zero
        row and an all-nonzero row. An index past the rows raises as numpy
        does."""
        r = np.random.default_rng(33)
        for dim in (1, 7, 8, 9, 128):
            rows = sparse_rows(r, 40, dim)
            packed = PackedRows.pack(rows)
            assert len(packed) == 40 and packed.dim == dim
            assert packed.dense().tobytes() == rows.tobytes()
            assert np.signbit(packed.dense()[0, -1])
            picks = r.integers(0, 40, (6, 3))
            for key in (slice(3, 17), slice(-5, None), slice(9, 2), slice(None),
                        slice(1, 30, 4), slice(None, None, -3), picks, -picks - 1, picks[0],
                        3, -1, [0, 1, 2], [2, 1, 0], np.zeros(0, dtype=int)):
                got, want = packed.dense(key), rows[key]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
            assert np.count_nonzero(packed.values.view(np.uint64)) == packed.values.size
            for key in (40, -41, [0, 40]):
                with pytest.raises(IndexError):
                    packed.dense(key)

    def test_concat_is_the_stacked_rows(self):
        r = np.random.default_rng(34)
        a, b = sparse_rows(r, 30, 16), sparse_rows(r, 12, 16)
        pa, pb = PackedRows.pack(a), PackedRows.pack(b)
        joined = PackedRows.concat([pb, PackedRows.pack(a[:0]), pa, pb])
        assert joined.dense().tobytes() == np.vstack([b, a, b]).tobytes()
        assert joined.values.tobytes() == np.concatenate([pb.values, pa.values,
                                                          pb.values]).tobytes()
        with pytest.raises(ValueError, match="widths"):
            PackedRows.concat([pa, PackedRows.pack(a[:, :8])])

    def test_pack_takes_two_dimensional_rows(self):
        with pytest.raises(ValueError, match="shape"):
            PackedRows.pack(np.ones(5))

    def test_ranking_copy_is_the_dense_one(self):
        """Each group's squared norms, padded with +inf, and its rows times
        one power of two, transposed to float32 and padded with zeros."""
        r = np.random.default_rng(35)
        groups = [sparse_rows(r, n, 128) * 10.0 ** r.uniform(-3, 3) for n in (50, 9, 300)]
        sq_norms, e, copy = ranking_copy([PackedRows.pack(g) for g in groups])
        assert e == -math.frexp(max(np.abs(g).max() for g in groups))[1]
        assert sq_norms.shape == (3, 300) and copy.shape == (3, 128, 300)
        for g, rows in enumerate(groups):
            norms = np.full(300, np.inf)
            norms[:len(rows)] = np.einsum("ij,ij->i", rows, rows)
            scaled = np.zeros((128, 300), dtype=np.float32)
            scaled[:, :len(rows)] = (rows * 2.0**e).T
            assert sq_norms[g].tobytes() == norms.tobytes()
            assert copy[g].tobytes() == scaled.tobytes()

    def test_ranking_copy_rejects_dense_groups(self):
        rows = sparse_rows(np.random.default_rng(36), 5, 8)
        for groups in ([rows], [PackedRows.pack(rows), rows], [], rows):
            with pytest.raises(ValueError, match="PackedRows"):
                ranking_copy(groups)


def flat_ball_point(points, centers, radius):
    """The reference for ``SpatialIndex.ball``: the tree's sorted list of
    each center's points, flattened into (rows, indices)."""
    hits = cKDTree(points).query_ball_point(centers, radius, return_sorted=True)
    rows = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    return rows, np.array([i for h in hits for i in h], dtype=np.intp)


class TestBall:
    """``SpatialIndex.ball`` against ``cKDTree.query_ball_point``, exactly."""

    def assert_ball(self, points, centers, radius):
        rows, indices = SpatialIndex(points).ball(centers, radius)
        expected_rows, expected_indices = flat_ball_point(points, centers, radius)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(indices, expected_indices)
        return rows, indices

    def test_random_clouds(self):
        r = np.random.default_rng(1975)
        for _ in range(20):
            pts = r.uniform(-2, 2, (int(r.integers(1, 3000)), 3))
            centers = np.vstack([pts[::7], r.uniform(-2.5, 2.5, (20, 3))])
            self.assert_ball(pts, centers, float(r.uniform(0.1, 1.5)))

    @pytest.mark.parametrize("radius", [0.125, 0.25, 0.75, 1.0])
    def test_grid_with_points_exactly_at_the_radius(self, radius):
        xx, yy = np.meshgrid(np.arange(12) / 8, np.arange(12) / 8)
        grid = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        pts = np.vstack([grid, grid[::3]])
        rows, indices = self.assert_ball(pts, grid, radius)
        # Inclusive: the grid point one radius along x of the first center.
        assert int(8 * radius) in indices[rows == 0]

    @pytest.mark.parametrize("radius", [0.125, 0.25, 0.75, 1.0])
    def test_grid_path_with_points_exactly_at_the_radius(self, radius, monkeypatch):
        """The same clouds on the grid path, which small inputs skip."""
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", 0)
        self.test_grid_with_points_exactly_at_the_radius(radius)
        self.test_random_clouds()

    def test_center_far_from_every_point_gets_no_rows(self, random_cloud):
        centers = np.vstack([random_cloud.positions[:2], [[500.0, 0, 0]],
                             random_cloud.positions[2:4]])
        rows, _ = self.assert_ball(random_cloud.positions, centers, 0.8)
        assert set(rows.tolist()) == {0, 1, 3, 4}

    def test_no_centers_gives_empty_arrays(self, random_cloud):
        rows, indices = SpatialIndex(random_cloud).ball(np.zeros((0, 3)), 0.8)
        assert rows.shape == indices.shape == (0,)


class TestBallIndices:
    """A partial release cuts ``cloud.subset(ball_indices(...))``."""

    def test_zero_radius_keeps_center_point(self, random_cloud):
        center = random_cloud.positions[3]
        out = random_cloud.subset(ball_indices(random_cloud, center, 0.0))
        assert len(out) >= 1
        assert np.any(np.all(out.positions == center, axis=1))

    def test_radius_covering_everything(self, random_cloud):
        diameter = 100.0
        out = random_cloud.subset(ball_indices(random_cloud, np.zeros(3), diameter))
        assert len(out) == len(random_cloud)

    def test_count_matches_linear_scan_on_cube(self, rng):
        pts = rng.uniform(-1, 1, (2000, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (2000, 1))
        cloud = PointCloud(pts, nrm)
        center = np.zeros(3)
        out = cloud.subset(ball_indices(cloud, center, 1.0))
        expected = np.sum(np.linalg.norm(pts - center, axis=1) <= 1.0)
        assert len(out) == expected

    @pytest.mark.parametrize("scan_pairs", [geometry._SCAN_PAIRS, 0], ids=["scan", "grid"])
    def test_the_rule_of_spatial_index_ball(self, scan_pairs, monkeypatch):
        """``ball_indices`` is a single-centre ``SpatialIndex.ball`` (on its
        scan and its grid path): points at exactly the radius along each
        axis are kept, and so is a point whose distance is the radius only
        after rounding, where the squared sum may exceed the squared radius."""
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", scan_pairs)
        r = np.random.default_rng(1999)
        center = np.array([0.25, -1.5, 2.0])
        on_axes = center + 0.75 * np.vstack([np.eye(3), -np.eye(3)])
        cloud = PointCloud(np.vstack([on_axes, center + r.uniform(-2, 2, (500, 3))]))
        index = SpatialIndex(cloud)
        assert np.array_equal(ball_indices(cloud, center, 0.75)[:6], np.arange(6))
        radii = [0.0, 0.75, *np.linalg.norm(cloud.positions[6:60] - center, axis=1)]
        for radius in radii:
            _, expected = index.ball(center[None], radius)
            assert np.array_equal(ball_indices(cloud, center, radius), expected), radius

    def test_negative_radius_raises(self, random_cloud):
        for radius in (-1.0, -1e-12):
            with pytest.raises(ValueError, match="radius"):
                ball_indices(random_cloud, np.zeros(3), radius)

    def test_nested_in_radius(self, random_cloud):
        center = np.zeros(3)
        small = random_cloud.subset(ball_indices(random_cloud, center, 1.0))
        large = random_cloud.subset(ball_indices(random_cloud, center, 2.0))
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


def whole_cloud_normals(cloud, k):
    """The normals and reliable flags of estimate_normals as it was before
    row blocks: every step over the whole cloud at once."""
    index = SpatialIndex(cloud)
    _, idx = index.query(cloud.positions, k + 1)
    neigh = cloud.positions[idx]  # (n, k+1, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0].copy()
    reliable = eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)

    bbox_center = 0.5 * (cloud.positions.min(axis=0) + cloud.positions.max(axis=0))
    outward = np.einsum("ni,ni->n", normals, cloud.positions - bbox_center)
    flip = outward < 0
    normals[flip] = -normals[flip]
    ambiguous = np.abs(outward) < 1e-12
    if np.any(ambiguous):
        sub = normals[ambiguous]
        dom = np.abs(sub).argmax(axis=1)
        sign = np.sign(sub[np.arange(len(sub)), dom])
        sign[sign == 0] = 1.0
        normals[ambiguous] = sub * sign[:, None]

    lens = np.linalg.norm(normals, axis=1)
    safe = np.where(lens > 0, lens, 1.0)
    normals /= safe[:, None]
    reliable = reliable & (lens > 0)
    normals[~reliable] = np.array([0.0, 0.0, 1.0])
    return normals, reliable


def normals_case(kind, n):
    """n points of a random cube, a noisy plane, or an exact integer grid
    (4 x 4 x 4, whose equal distances tie at the k-th place)."""
    rng = np.random.default_rng(11)
    if kind == "random":
        return rng.uniform(-1, 1, (n, 3))
    if kind == "plane":
        return np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.normal(0, 1e-3, n)])
    return np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)[:n]


class TestEstimateNormals:
    BLOCK = 16  # rows per block in the blocked-kernel tests

    @pytest.mark.parametrize("kind", ["random", "plane", "grid"])
    @pytest.mark.parametrize("k", [2, 12])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_row_blocks_equal_the_whole_cloud_bitwise(self, kind, k, n, monkeypatch):
        """Blocks of 16 rows around a block boundary and over a short last
        block give the bytes of the whole-cloud computation, on the grid
        path. On the grid, distances tie across the k-th place and those
        rows are ordered by index inside a block."""
        monkeypatch.setattr(geometry, "_NORMAL_BLOCK_ENTRIES", self.BLOCK * (k + 1))
        monkeypatch.setattr(geometry, "_SCAN_PAIRS", 0)
        cloud = PointCloud(normals_case(kind, n))
        out = estimate_normals(cloud, k)
        if kind == "grid":
            d = np.sort(np.linalg.norm(cloud.positions[None] - cloud.positions[:, None],
                                       axis=2), axis=1)
            assert np.any(d[:, k] == d[:, k + 1])
        normals, reliable = whole_cloud_normals(cloud, k)
        assert out.normals.tobytes() == normals.tobytes()
        assert out.reliable.tobytes() == reliable.tobytes()

    def test_default_blocks_equal_the_whole_cloud_bitwise(self):
        """A cloud of several default blocks (2520 rows at k = 12)."""
        cloud = PointCloud(normals_case("random", 6000))
        out = estimate_normals(cloud, 12)
        normals, reliable = whole_cloud_normals(cloud, 12)
        assert out.normals.tobytes() == normals.tobytes()
        assert out.reliable.tobytes() == reliable.tobytes()

    def test_memory_grows_by_the_outputs_not_the_neighborhoods(self):
        """From 20k to 80k points the traced peak grows by under 100 B per
        added point: the outputs, the index and the O(n) passes. Whole-cloud
        (n, k+1, 3) temporaries grew it by 1128 B per point."""
        rng = np.random.default_rng(5)
        peaks = []
        for n in (20_000, 80_000):
            cloud = PointCloud(rng.uniform(-5, 5, (n, 3)))
            tracemalloc.start()
            try:
                estimate_normals(cloud, 12)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 60_000 < 100

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
