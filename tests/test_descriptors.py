"""Spin-image descriptors: binning, the batched kernel, invariance and
keypoint selection."""

import tracemalloc

import numpy as np
import pytest

from spatialprivacy.descriptors import (
    SpinParams,
    UnusableSpaceError,
    _spin_histograms,
    describe,
    select_keypoints,
)
from spatialprivacy.geometry import (
    PointCloud,
    SpatialIndex,
    apply_transform,
    random_rigid_transform,
)
from spatialprivacy.synthetic import default_space_specs, generate_space

P = SpinParams()  # bin 0.1 m, width 8: support 0.8 m, 128 entries
W = P.image_width


def spin(cloud, center, normal=(0.0, 0.0, 1.0), params=P):
    """Raw histogram of one center: a one-row call of the kernel."""
    return _spin_histograms(SpatialIndex(cloud), np.array([center], float),
                            np.array([normal], float), params)[0]


def reference_histogram(points, center, normal, params):
    """The per-keypoint accumulator the kernel replaced: a support filter,
    then four ``np.add.at`` calls, one per bilinear corner."""
    rel = points - center
    rel = rel[np.einsum("ij,ij->i", rel, rel) <= params.support_radius**2]
    w = params.image_width
    beta = rel @ normal
    alpha = np.sqrt(np.maximum(np.einsum("ij,ij->i", rel, rel) - beta * beta, 0.0))
    a = alpha / params.bin_size
    b = beta / params.bin_size + w
    a0 = np.floor(a).astype(np.intp)
    b0 = np.floor(b).astype(np.intp)
    fa = a - a0
    fb = b - b0
    flat = np.zeros(params.length)
    for da, db, weight in (
        (0, 0, (1 - fa) * (1 - fb)),
        (1, 0, fa * (1 - fb)),
        (0, 1, (1 - fa) * fb),
        (1, 1, fa * fb),
    ):
        col = a0 + da
        row = b0 + db
        ok = (col >= 0) & (col < w) & (row >= 0) & (row < 2 * w) & (weight > 0)
        if np.any(ok):
            np.add.at(flat, row[ok] * w + col[ok], weight[ok])
    return flat


def reference_describe(cloud, params, factor):
    """``describe`` as a loop over keypoints: ball query, accumulate,
    normalise with ``np.linalg.norm``."""
    index = SpatialIndex(cloud)
    keys = select_keypoints(cloud, factor)
    rows = []
    for i in keys:
        neigh = index.ball(cloud.positions[i], params.support_radius)
        vec = reference_histogram(cloud.positions[neigh], cloud.positions[i],
                                  cloud.normals[i], params)
        rows.append(vec / np.linalg.norm(vec))
    return keys, cloud.positions[keys], np.array(rows)


def assert_as_reference(space, cloud, params, factor):
    indices, positions, descriptors = reference_describe(cloud, params, factor)
    assert np.array_equal(space.indices, indices)
    assert np.array_equal(space.positions, positions)
    assert np.array_equal(space.descriptors, descriptors)
    assert space.params == params


def edge_cloud():
    """Duplicated points on an exact 1/8 m grid in z = 0 with +z normals:
    every beta is 0 and, with 1/8 m bins, axis-aligned alphas are whole bins
    (some exactly at the support radius); two points sit far from the rest."""
    xx, yy = np.meshgrid(np.arange(12) / 8, np.arange(12) / 8)
    grid = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    pts = np.vstack([grid, grid[::3], [[50.0, 50.0, 50.0], [-40.0, 0.0, 0.0]]])
    return PointCloud(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))


def seeded_cloud(n, seed):
    r = np.random.default_rng(seed)
    nrm = r.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(r.uniform(-2, 2, (n, 3)), nrm)


class TestSpinParams:
    def test_defaults(self):
        assert P.support_radius == pytest.approx(0.8)
        assert P.length == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinParams(bin_size=0.0)
        with pytest.raises(ValueError):
            SpinParams(image_width=1)


class TestSpinImage:
    def test_lone_keypoint_all_mass_at_origin_cell(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        vec = spin(cloud, [0, 0, 0])
        # alpha = 0, beta = 0 lands exactly at column 0 of the beta = 0 row.
        expected_cell = W * W + 0
        assert vec[expected_cell] == 1.0
        assert np.sum(vec != 0) == 1

    def test_point_outside_support_contributes_nothing(self):
        pts = np.array([[0.0, 0, 0], [2 * P.support_radius, 0, 0]])
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (2, 1)))
        vec = spin(cloud, [0, 0, 0])
        assert vec[W * W] == 1.0
        assert np.sum(vec != 0) == 1

    def test_bilinear_split_between_alpha_bins(self):
        # A point at alpha = 1.5 bins, beta = 0 splits its mass evenly
        # between alpha bins 1 and 2 on the beta = 0 row.
        pts = np.array([[0.0, 0, 0], [1.5 * P.bin_size, 0.0, 0.0]])
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (2, 1)))
        vec = spin(cloud, [0, 0, 0])
        row = W
        expected = np.zeros(P.length)
        expected[row * W + 0] = 1.0
        expected[row * W + 1] = 0.5
        expected[row * W + 2] = 0.5
        assert np.allclose(vec, expected, atol=1e-12)

    def test_empty_support_gives_zero_vector(self, random_cloud):
        vec = spin(random_cloud, [500.0, 500.0, 500.0])
        assert np.all(vec == 0)

    def test_unit_norm_and_nonnegative(self, random_cloud):
        descs = describe(random_cloud, P, 5).descriptors
        assert np.all(descs >= 0)
        assert np.max(np.abs(np.linalg.norm(descs, axis=1) - 1.0)) < 1e-9

    def test_rigid_invariance(self, rng, random_cloud):
        for seed in range(25):
            t = random_rigid_transform(seed)
            moved = apply_transform(random_cloud, t)
            i = int(rng.integers(len(random_cloud)))
            original = spin(random_cloud, random_cloud.positions[i], random_cloud.normals[i])
            transformed = spin(moved, moved.positions[i], moved.normals[i])
            assert np.max(np.abs(original - transformed)) < 1e-6

    def test_spin_about_normal_is_noop(self, random_cloud):
        theta = 1.1
        rot = np.array(
            [[np.cos(theta), -np.sin(theta), 0],
             [np.sin(theta), np.cos(theta), 0],
             [0, 0, 1.0]]
        )
        spun = PointCloud(random_cloud.positions @ rot.T,
                          random_cloud.normals @ rot.T)
        original = spin(random_cloud, [0.2, -0.1, 0.0])
        after = spin(spun, rot @ np.array([0.2, -0.1, 0.0]))
        assert np.max(np.abs(original - after)) < 1e-9

    def test_support_growth_keeps_existing_mass(self, random_cloud):
        small = SpinParams(bin_size=0.1, image_width=8)
        large = SpinParams(bin_size=0.1, image_width=12)
        center, normal = random_cloud.positions[0], random_cloud.normals[0]
        h_small = spin(random_cloud, center, normal, small)
        h_large = spin(random_cloud, center, normal, large)
        assert h_large.sum() >= h_small.sum() - 1e-12


class TestKernel:
    """The batched kernel against the per-keypoint reference, bitwise."""

    @pytest.mark.parametrize("params", [P, SpinParams(0.125, 6)])
    def test_histograms_equal_reference(self, params):
        cloud = seeded_cloud(3000, 7)
        edges = edge_cloud()
        for c, centers, normals in (
            # Cloud points, an off-cloud center and one far from every point.
            (cloud, np.vstack([cloud.positions[::7], [[0.05, 0.1, -0.2], [90.0, 0, 0]]]),
             np.vstack([cloud.normals[::7], [[0.0, 0.6, 0.8], [1.0, 0, 0]]])),
            (edges, edges.positions, edges.normals),
        ):
            hist = _spin_histograms(SpatialIndex(c), centers, normals, params)
            expected = np.array([
                reference_histogram(c.positions, p, n, params)
                for p, n in zip(centers, normals)
            ])
            assert np.array_equal(hist, expected)
            if c is cloud:
                assert np.all(hist[-1] == 0)

    @pytest.mark.parametrize("make, factor, params", [
        (lambda: seeded_cloud(300, 1), 5, P),
        (edge_cloud, 1, P),
        (edge_cloud, 1, SpinParams(0.125, 6)),
    ])
    def test_describe_equals_reference(self, make, factor, params):
        cloud = make()
        assert_as_reference(describe(cloud, params, factor), cloud, params, factor)

    def test_many_blocks_with_a_short_last_one(self, monkeypatch):
        blocks = []
        ball = SpatialIndex.ball

        def counting_ball(self, centers, radius):
            blocks.append(len(centers))
            return ball(self, centers, radius)

        cloud = seeded_cloud(4000, 2)
        monkeypatch.setattr(SpatialIndex, "ball", counting_ball)
        space = describe(cloud, P, 2)
        monkeypatch.undo()
        assert_as_reference(space, cloud, P, 2)
        # 1, 2, 4, ... until a block holds about 2**14 neighbor entries.
        assert blocks[:4] == [1, 2, 4, 8] and len(blocks) > 10
        assert sum(blocks) == len(space) and blocks[-1] < blocks[-2]

    def test_memory_is_bounded(self):
        # The first default space at paper density: 16.9k points.
        spec = default_space_specs(0, 80.0, 0.005)
        label = next(iter(spec))
        cloud = generate_space(spec[label], label)
        tracemalloc.start()
        try:
            space = describe(cloud, P, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(space) > 3000
        assert peak <= 16 * 2**20


class TestSelectKeypoints:
    def test_counts(self):
        pts = np.random.default_rng(0).uniform(0, 1, (10, 3))
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (10, 1)))
        assert len(select_keypoints(cloud, 5)) == 2
        assert len(select_keypoints(cloud, 1)) == 10

    def test_deterministic(self, random_cloud):
        a = select_keypoints(random_cloud, 5)
        b = select_keypoints(random_cloud, 5)
        assert np.array_equal(a, b)

    def test_unreliable_normals_excluded(self, rng):
        pts = rng.uniform(0, 1, (20, 3))
        nrm = np.tile([0.0, 0, 1.0], (20, 1))
        reliable = np.ones(20, dtype=bool)
        reliable[:10] = False
        cloud = PointCloud(pts, nrm, reliable=reliable)
        picked = select_keypoints(cloud, 1)
        assert len(picked) == 10
        assert np.all(cloud.reliable[picked])

    def test_stable_under_rigid_motion(self, rng, random_cloud):
        t = random_rigid_transform(rng)
        moved = apply_transform(random_cloud, t)
        a = set(select_keypoints(random_cloud, 5).tolist())
        b = set(select_keypoints(moved, 5).tolist())
        assert a == b

    def test_requires_normals(self, rng):
        with pytest.raises(ValueError):
            select_keypoints(PointCloud(rng.uniform(0, 1, (10, 3))), 5)


class TestDescribe:
    def test_sparse_grid_descriptors_identical(self):
        # Grid spacing beyond the support radius: every descriptor is the
        # lone self-point cell, identical across keypoints.
        xx, yy = np.meshgrid(np.arange(10), np.arange(10))
        pts = np.column_stack([xx.ravel() * 1.0, yy.ravel() * 1.0, np.zeros(100)])
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (100, 1)))
        space = describe(cloud, P, 5)
        assert len(space) >= 1
        spread = np.max(space.descriptors, axis=0) - np.min(space.descriptors, axis=0)
        assert np.max(spread) < 1e-6

    def test_planar_patch_mass_confined_to_zero_height_row(self, rng):
        pts = np.column_stack(
            [rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400), np.zeros(400)]
        )
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (400, 1)))
        space = describe(cloud, P, 5)
        grid = space.descriptors.reshape(len(space), 2 * W, W)
        off_row = np.delete(grid, W, axis=1)
        assert np.max(off_row) == 0.0

    def test_keypoint_count(self, rng):
        pts = rng.uniform(0, 3, (1000, 3))
        nrm = rng.normal(size=(1000, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        space = describe(PointCloud(pts, nrm), P, 5)
        assert len(space) == 200

    def test_rigid_invariance_by_matched_keypoint(self, rng, random_cloud):
        t = random_rigid_transform(rng)
        moved = apply_transform(random_cloud, t)
        a = describe(random_cloud, P, 5)
        b = describe(moved, P, 5)
        assert np.array_equal(a.indices, b.indices)
        assert np.max(np.abs(a.descriptors - b.descriptors)) < 1e-6

    def test_empty_cloud_errors(self):
        with pytest.raises(ValueError):
            describe(PointCloud(np.zeros((0, 3)), np.zeros((0, 3))), P, 5)

    def test_all_unreliable_errors(self, rng):
        pts = rng.uniform(0, 1, (10, 3))
        cloud = PointCloud(
            pts, np.tile([0.0, 0, 1.0], (10, 1)), reliable=np.zeros(10, dtype=bool)
        )
        with pytest.raises(UnusableSpaceError):
            describe(cloud, P, 5)

