"""Spin-image descriptors: binning, invariance, selection, caching."""

import numpy as np
import pytest

from spatialprivacy.descriptors import (
    CacheFormatError,
    DescribedSpace,
    KeyPoint,
    SpinParams,
    UnusableSpaceError,
    _spin_accumulate,
    describe,
    load_described,
    save_described,
    select_keypoints,
    spin_image,
)
from spatialprivacy.geometry import (
    PointCloud,
    apply_transform,
    random_rigid_transform,
)

P = SpinParams()  # bin 0.1 m, width 8: support 0.8 m, 128 entries
W = P.image_width


def kp(position, normal=(0.0, 0.0, 1.0), index=0):
    return KeyPoint(index, np.asarray(position, float), np.asarray(normal, float))


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
        vec = spin_image(kp([0, 0, 0]), cloud, P)
        # alpha = 0, beta = 0 lands exactly at column 0 of the beta = 0 row.
        expected_cell = W * W + 0
        assert vec[expected_cell] == 1.0
        assert np.sum(vec != 0) == 1

    def test_point_outside_support_contributes_nothing(self):
        pts = np.array([[0.0, 0, 0], [2 * P.support_radius, 0, 0]])
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (2, 1)))
        vec = spin_image(kp([0, 0, 0]), cloud, P)
        assert vec[W * W] == 1.0
        assert np.sum(vec != 0) == 1

    def test_bilinear_split_between_alpha_bins(self):
        # A point at alpha = 1.5 bins, beta = 0 splits its mass evenly
        # between alpha bins 1 and 2 on the beta = 0 row.
        pts = np.array([[0.0, 0, 0], [1.5 * P.bin_size, 0.0, 0.0]])
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (2, 1)))
        vec = spin_image(kp([0, 0, 0]), cloud, P)
        row = W
        expected = np.zeros(P.length)
        expected[row * W + 0] = 1.0
        expected[row * W + 1] = 0.5
        expected[row * W + 2] = 0.5
        expected /= np.linalg.norm(expected)
        assert np.allclose(vec, expected, atol=1e-12)

    def test_empty_support_gives_zero_vector(self, random_cloud):
        vec = spin_image(kp([500.0, 500.0, 500.0]), random_cloud, P)
        assert np.all(vec == 0)

    def test_unit_norm_and_nonnegative(self, random_cloud):
        vec = spin_image(kp(random_cloud.positions[0]), random_cloud, P)
        assert np.all(vec >= 0)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_rigid_invariance(self, rng, random_cloud):
        for seed in range(25):
            t = random_rigid_transform(seed)
            moved = apply_transform(random_cloud, t)
            i = int(rng.integers(len(random_cloud)))
            original = spin_image(
                kp(random_cloud.positions[i], random_cloud.normals[i]), random_cloud, P
            )
            transformed = spin_image(
                kp(moved.positions[i], moved.normals[i]), moved, P
            )
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
        original = spin_image(kp([0.2, -0.1, 0.0]), random_cloud, P)
        after = spin_image(kp(rot @ np.array([0.2, -0.1, 0.0])), spun, P)
        assert np.max(np.abs(original - after)) < 1e-9

    def test_support_growth_keeps_existing_mass(self, random_cloud):
        rel = random_cloud.positions - random_cloud.positions[0]
        normal = random_cloud.normals[0]
        small = SpinParams(bin_size=0.1, image_width=8)
        large = SpinParams(bin_size=0.1, image_width=12)
        within_small = np.linalg.norm(rel, axis=1) <= small.support_radius
        h_small = _spin_accumulate(rel[within_small], normal, small)
        within_large = np.linalg.norm(rel, axis=1) <= large.support_radius
        h_large = _spin_accumulate(rel[within_large], normal, large)
        assert h_large.sum() >= h_small.sum() - 1e-12


class TestSelectKeypoints:
    def test_counts(self):
        pts = np.random.default_rng(0).uniform(0, 1, (10, 3))
        cloud = PointCloud(pts, np.tile([0.0, 0, 1.0], (10, 1)))
        assert len(select_keypoints(cloud, 5)) == 2
        assert len(select_keypoints(cloud, 1)) == 10

    def test_deterministic(self, random_cloud):
        a = [k.index for k in select_keypoints(random_cloud, 5)]
        b = [k.index for k in select_keypoints(random_cloud, 5)]
        assert a == b

    def test_unreliable_normals_excluded(self, rng):
        pts = rng.uniform(0, 1, (20, 3))
        nrm = np.tile([0.0, 0, 1.0], (20, 1))
        reliable = np.ones(20, dtype=bool)
        reliable[:10] = False
        cloud = PointCloud(pts, nrm, reliable=reliable)
        picked = select_keypoints(cloud, 1)
        assert len(picked) == 10
        assert all(cloud.reliable[k.index] for k in picked)

    def test_stable_under_rigid_motion(self, rng, random_cloud):
        t = random_rigid_transform(rng)
        moved = apply_transform(random_cloud, t)
        a = {k.index for k in select_keypoints(random_cloud, 5)}
        b = {k.index for k in select_keypoints(moved, 5)}
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


class TestCache:
    def test_round_trip_bit_identical(self, tmp_path, random_cloud):
        space = describe(random_cloud, P, 5, label="roundtrip")
        path = tmp_path / "space.spdc"
        save_described(space, path)
        loaded = load_described(path)
        assert loaded.label == "roundtrip"
        assert np.array_equal(loaded.indices, space.indices)
        assert np.array_equal(loaded.positions, space.positions)
        assert np.array_equal(loaded.normals, space.normals)
        assert np.array_equal(loaded.descriptors, space.descriptors)
        assert loaded.params == space.params

    def test_rebuild_is_bit_identical(self, tmp_path, random_cloud):
        p1, p2 = tmp_path / "a.spdc", tmp_path / "b.spdc"
        save_described(describe(random_cloud, P, 5), p1)
        save_described(describe(random_cloud, P, 5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.spdc"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_described(path)

    def test_every_malformed_file_raises_cache_format_error(self, tmp_path):
        space = DescribedSpace(
            "cut", np.arange(2, dtype=np.int64), np.ones((2, 3)),
            np.tile([0.0, 0.0, 1.0], (2, 1)), np.full((2, 4), 0.5), P,
        )
        path = tmp_path / "space.spdc"
        save_described(space, path)
        data = path.read_bytes()
        version = (2).to_bytes(4, "little")
        bad = [data[:cut] for cut in range(len(data))]
        bad += [data + b"\0", b"XXXX" + data[4:], data[:4] + version + data[8:]]
        for blob in bad:
            path.write_bytes(blob)
            with pytest.raises(CacheFormatError):
                load_described(path)
