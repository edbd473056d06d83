"""Synthetic space generator: ground-truth planes, noise model, determinism."""

import numpy as np
import pytest

from spatialprivacy.synthetic import (
    SyntheticSpaceSpec,
    default_space_specs,
    generate_space,
    generate_space_with_truth,
)


def test_noiseless_room_points_lie_on_their_planes():
    spec = SyntheticSpaceSpec(
        extents=(4.0, 4.0, 2.5), clutter_count=(0, 0), density=400, seed=1
    )
    cloud, truth = generate_space_with_truth(spec, "bare")
    assert truth.n_room_planes == 6
    assert len(truth.plane_normals) == 6
    assert np.all(truth.planar)
    for sid in range(6):
        mask = truth.surface_id == sid
        assert np.any(mask)
        resid = cloud.positions[mask] @ truth.plane_normals[sid] - truth.plane_offsets[sid]
        assert np.max(np.abs(resid)) < 1e-12


def test_room_without_ceiling_has_five_planes():
    spec = SyntheticSpaceSpec(clutter_count=(0, 0), ceiling=False, density=100, seed=2)
    _, truth = generate_space_with_truth(spec, "open")
    assert truth.n_room_planes == 5


def test_noise_bounded_by_gaussian_tail():
    sigma = 0.01
    spec = SyntheticSpaceSpec(
        extents=(4.0, 4.0, 2.5), clutter_count=(0, 0), density=200,
        noise_sigma=sigma, seed=3,
    )
    cloud, truth = generate_space_with_truth(spec, "noisy")
    for sid in range(6):
        mask = truth.surface_id == sid
        resid = cloud.positions[mask] @ truth.plane_normals[sid] - truth.plane_offsets[sid]
        assert np.max(np.abs(resid)) <= 5 * sigma


def test_same_seed_reproduces_bitwise():
    spec = SyntheticSpaceSpec(density=80, noise_sigma=0.01, seed=7)
    a = generate_space(spec, "x")
    b = generate_space(spec, "x")
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.normals, b.normals)


def test_normals_are_unit_and_true_for_planar_surfaces():
    spec = SyntheticSpaceSpec(density=60, seed=4)
    cloud, truth = generate_space_with_truth(spec, "s")
    lens = np.linalg.norm(cloud.normals, axis=1)
    assert np.max(np.abs(lens - 1.0)) < 1e-9
    planar = truth.planar
    ids = truth.surface_id[planar]
    expected = truth.plane_normals[ids]
    assert np.allclose(cloud.normals[planar], expected, atol=1e-12)


def test_density_scales_point_count():
    small = generate_space(SyntheticSpaceSpec(clutter_count=(0, 0), density=50, seed=5), "a")
    big = generate_space(SyntheticSpaceSpec(clutter_count=(0, 0), density=100, seed=5), "b")
    assert len(big) == pytest.approx(2 * len(small), rel=0.05)


def test_default_specs_distinct_and_labeled():
    specs = default_space_specs(0, 60.0, 0.005)
    assert len(specs) == 7
    assert sorted(specs) == [f"space{i}" for i in range(7)]
    assert len({s.seed for s in specs.values()}) == 7


def test_validation():
    with pytest.raises(ValueError):
        SyntheticSpaceSpec(density=0)
    with pytest.raises(ValueError):
        SyntheticSpaceSpec(noise_sigma=-0.1)
