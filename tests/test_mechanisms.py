"""Plane generalization, subsumption, conservative caps, release sequences."""

import numpy as np
import pytest

from spatialprivacy import mechanisms
from spatialprivacy.geometry import (
    PointCloud,
    ball_indices,
    centroid,
    random_rigid_transform,
)
from spatialprivacy.mechanisms import (
    GeneralizationParams,
    Plane,
    ReleaseState,
    ReleaseStep,
    project_to_planes,
    ransac_planes,
    release_at,
    release_sequence,
    step_release,
    subsume,
)
from spatialprivacy.synthetic import SyntheticSpaceSpec, generate_space

from conftest import make_box_room, make_plane_cloud

GP = GeneralizationParams()


class TestRansacPlanes:
    def test_perfect_plane(self):
        cloud = make_plane_cloud(500)
        planes = ransac_planes(cloud, GP, seed=0)
        assert len(planes) == 1
        plane = planes[0]
        assert np.allclose(np.abs(plane.normal), [0, 0, 1], atol=1e-9)
        assert abs(plane.offset) < 1e-9
        assert len(plane.inlier_indices) == 500

    def test_empty_cloud(self):
        cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        assert ransac_planes(cloud, GP, seed=0) == []

    def test_box_room_recovery(self):
        cloud, face_normals, face_offsets = make_box_room(300)
        planes = ransac_planes(cloud, GP, seed=3)
        assert len(planes) == 6
        assert sorted(len(p.inlier_indices) for p in planes) == [300] * 6
        matched_faces = set()
        for plane in planes:
            for face, (fn, fo) in enumerate(zip(face_normals, face_offsets)):
                sign = fn @ plane.normal
                if abs(sign) > 1.0 - 1e-3 and abs(
                    plane.offset * np.sign(sign) - fo
                ) < 1e-3:
                    matched_faces.add(face)
                    break
            else:
                pytest.fail(f"plane {plane.normal}, {plane.offset} matches no face")
        assert matched_faces == set(range(6))

    def test_deterministic_per_seed(self):
        cloud, _, _ = make_box_room(200)
        a = ransac_planes(cloud, GP, seed=9)
        b = ransac_planes(cloud, GP, seed=9)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.normal, pb.normal)
            assert np.array_equal(pa.inlier_indices, pb.inlier_indices)

    def test_inliers_satisfy_plane_criteria(self):
        spec = SyntheticSpaceSpec(density=60, noise_sigma=0.01, seed=4)
        cloud = generate_space(spec, "s")
        for plane in ransac_planes(cloud, GP, seed=1):
            idx = plane.inlier_indices
            assert np.all(plane.distances(cloud.positions[idx]) <= GP.dist_eps)
            dots = np.abs(cloud.normals[idx] @ plane.normal)
            assert np.all(dots >= GP.cos_angle_max - 1e-12)

    def test_disjoint_inliers(self):
        cloud, _, _ = make_box_room(200)
        planes = ransac_planes(cloud, GP, seed=2)
        all_idx = np.concatenate([p.inlier_indices for p in planes])
        assert len(all_idx) == len(np.unique(all_idx))


def greedy_extract_oracle(positions, normals, eligible, pool, params, rng):
    """``_greedy_extract`` scoring one candidate at a time, two products each."""
    planes = []
    pool = np.asarray(pool, dtype=np.intp)
    pool = pool[eligible[pool]]
    while len(pool) >= params.min_inliers:
        n_cand = min(params.candidates_per_round, len(pool))
        candidates = rng.choice(pool, size=n_cand, replace=False)
        pool_pos = positions[pool]
        pool_nrm = normals[pool]
        best_count = 0
        best_mask = None
        best_candidate = -1
        for c in candidates:
            n_c = normals[c]
            off = float(n_c @ positions[c])
            near = np.abs(pool_pos @ n_c - off) <= params.dist_eps
            aligned = np.abs(pool_nrm @ n_c) >= params.cos_angle_max
            mask = near & aligned
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                best_candidate = c
        if best_count < params.min_inliers:
            break
        inliers = pool[best_mask]
        normal, offset = mechanisms._fit_plane_lsq(positions[inliers], normals[best_candidate])
        refit = Plane(normal, offset, inliers)
        refit_mask = refit.accepts(pool_pos, pool_nrm, params)
        if int(refit_mask.sum()) >= params.min_inliers:
            refit.inlier_indices = np.sort(pool[refit_mask])
            plane = refit
        else:
            n_c = normals[best_candidate]
            plane = Plane(n_c.copy(), float(n_c @ positions[best_candidate]),
                          np.sort(inliers))
        planes.append(plane)
        pool = pool[~np.isin(pool, plane.inlier_indices)]
    return planes


def assert_same_planes(got, expected):
    """The same planes, bitwise, in the same order."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.normal.tobytes() == b.normal.tobytes()
        assert a.offset == b.offset
        assert np.array_equal(a.inlier_indices, b.inlier_indices)


def two_equal_planes(n):
    """n points on z = 0 and n on x = 5, each plane with its own normal."""
    rng = np.random.default_rng(6)
    floor = np.column_stack([rng.uniform(0, 4, n), rng.uniform(0, 4, n), np.zeros(n)])
    wall = np.column_stack([np.full(n, 5.0), rng.uniform(0, 4, n), rng.uniform(0, 4, n)])
    normals = np.repeat([[0.0, 0, 1], [1.0, 0, 0]], n, axis=0)
    return PointCloud(np.vstack([floor, wall]), normals)


class TestBlockedRansac:
    """``_greedy_extract`` scores a round's candidates in blocks; its planes
    equal, bitwise, those of the per-candidate loop above."""

    def extract_both(self, cloud, seed, params=GP, pool=None):
        pool = np.arange(len(cloud)) if pool is None else pool
        args = (cloud.positions, cloud.normals, cloud.reliable, pool, params)
        got = mechanisms._greedy_extract(*args, np.random.default_rng(seed))
        expected = greedy_extract_oracle(*args, np.random.default_rng(seed))
        assert_same_planes(got, expected)
        return got

    def test_box_room(self):
        cloud, _, _ = make_box_room(300)
        assert len(self.extract_both(cloud, 3)) == 6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_spaces(self, seed):
        spec = SyntheticSpaceSpec(density=25, noise_sigma=0.005, seed=seed)
        cloud = generate_space(spec, "s")
        assert len(self.extract_both(cloud, seed)) > 3

    def test_partial_balls(self, space):
        for center in (0, 500, 1500):
            ball = np.linalg.norm(space.positions - space.positions[center], axis=1) <= 1.0
            self.extract_both(space.subset(np.flatnonzero(ball)), center)

    def test_subsume_residual_pools(self, space, monkeypatch):
        walks = {}
        for extract in (greedy_extract_oracle, mechanisms._greedy_extract):
            monkeypatch.setattr(mechanisms, "_greedy_extract", extract)
            walks[extract] = release_sequence(space, 0.8, 6, seed=4)[1]
        expected, got = walks.values()
        assert len(got.planes) > 1
        assert_same_planes(got.planes, expected.planes)

    def test_pool_smaller_than_candidates_per_round(self):
        cloud = make_plane_cloud(60)
        params = GeneralizationParams(min_inliers=20, candidates_per_round=100)
        pool = np.arange(10, 50)
        planes = self.extract_both(cloud, 2, params, pool=pool)
        assert len(planes) == 1
        assert np.array_equal(planes[0].inlier_indices, pool)

    def test_pool_spanning_several_blocks(self):
        cloud, _, _ = make_box_room(2000)
        assert mechanisms._BLOCK_PAIRS // len(cloud) < GP.candidates_per_round // 4
        assert len(self.extract_both(cloud, 5)) == 6

    @pytest.mark.parametrize("pairs", [1, 7 * 300, mechanisms._BLOCK_PAIRS])
    def test_equal_top_counts_first_candidate_wins(self, pairs, monkeypatch):
        # Every candidate accepts exactly its own plane's 150 points, so the
        # count ties in every block and the first candidate drawn wins.
        monkeypatch.setattr(mechanisms, "_BLOCK_PAIRS", pairs)
        cloud = two_equal_planes(150)
        planes = self.extract_both(cloud, 8)
        first = np.random.default_rng(8).choice(np.arange(300), size=100, replace=False)[0]
        assert len(planes) == 2
        assert first in planes[0].inlier_indices


class TestProjectToPlanes:
    def test_projection_moves_point_onto_plane(self):
        cloud = make_plane_cloud(100)
        planes = ransac_planes(cloud, GP, seed=0)
        off = PointCloud(
            np.array([[0.1, 0.2, 0.03]]), np.array([[0.0, 0.0, 1.0]])
        )
        merged = PointCloud(
            np.vstack([cloud.positions, off.positions]),
            np.vstack([cloud.normals, off.normals]),
        )
        planes[0].inlier_indices = np.arange(len(merged))
        out = project_to_planes(merged, planes)
        assert np.allclose(out.positions[-1], [0.1, 0.2, 0.0], atol=1e-9)
        assert np.allclose(out.normals[-1], [0, 0, 1], atol=1e-12)

    def test_normal_sign_follows_point(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        nrm = np.array([[0.0, 0, 1.0], [0.0, 0, -1.0]])
        cloud = PointCloud(pts, nrm)
        from spatialprivacy.mechanisms import Plane

        plane = Plane(np.array([0.0, 0, 1.0]), 0.0, np.arange(2))
        out = project_to_planes(cloud, [plane])
        assert np.array_equal(out.normals[0], [0, 0, 1])
        assert np.array_equal(out.normals[1], [0, 0, -1])

    def test_perfect_plane_projection_is_identity(self):
        cloud = make_plane_cloud(300)
        planes = ransac_planes(cloud, GP, seed=0)
        out = project_to_planes(cloud, planes)
        matched = {tuple(np.round(p, 12)) for p in out.positions}
        original = {tuple(np.round(p, 12)) for p in cloud.positions}
        assert matched == original

    def test_unassigned_points_dropped(self):
        cloud, _, _ = make_box_room(200)
        planes = ransac_planes(cloud, GP, seed=0)[:2]
        out = project_to_planes(cloud, planes)
        assert len(out) == sum(len(p.inlier_indices) for p in planes)


def residuals(state, n=None):
    """Indices of the first ``n`` (all) accumulated points that no plane holds."""
    n = len(state) if n is None else n
    held = np.zeros(n, dtype=bool)
    for plane in state.planes:
        held[plane.inlier_indices[plane.inlier_indices < n]] = True
    return np.flatnonzero(~held)


def fresh_state(cloud, seed=0):
    state = ReleaseState(label=cloud.label)
    subsume(state, cloud, GP, seed)
    return state


class TestSubsume:
    def test_nearby_points_subsumed_without_new_planes(self):
        state = fresh_state(make_plane_cloud(200))
        assert len(state.planes) == 1
        newcomers = make_plane_cloud(100, seed=5, z=0.01)
        subsume(state, newcomers, GP, seed=1)
        assert len(state.planes) == 1
        assert len(state.planes[0].inlier_indices) == 300
        assert len(residuals(state)) == 0

    def test_fresh_wall_becomes_one_new_plane(self):
        state = fresh_state(make_plane_cloud(200))
        rng = np.random.default_rng(3)
        wall = PointCloud(
            np.column_stack(
                [np.zeros(100), rng.uniform(-2, 2, 100), rng.uniform(0, 2, 100)]
            ),
            np.tile([1.0, 0, 0], (100, 1)),
        )
        subsume(state, wall, GP, seed=1)
        assert len(state.planes) == 2

    def test_unsubsumable_scraps_stay_residual(self):
        state = fresh_state(make_plane_cloud(200))
        scraps = PointCloud(
            np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.2], [0.0, 0.2, 1.4]]),
            np.tile([1.0, 0, 0], (3, 1)),
        )
        before = len(state.planes)
        subsume(state, scraps, GP, seed=1)
        assert len(state.planes) == before
        assert np.array_equal(residuals(state), np.arange(len(state) - 3, len(state)))

    def test_assigned_points_recheck_against_their_plane(self):
        spec = SyntheticSpaceSpec(density=50, noise_sigma=0.01, seed=8)
        cloud = generate_space(spec, "s")
        half = len(cloud) // 2
        state = fresh_state(cloud.subset(np.arange(half)))
        subsume(state, cloud.subset(np.arange(half, len(cloud))), GP, seed=2)
        for plane in state.planes:
            idx = plane.inlier_indices
            assert np.all(
                plane.accepts(state.positions[idx], state.normals[idx], GP)
            )

    def test_ransac_pool_is_every_point_no_plane_holds(self, space, monkeypatch):
        # Each RANSAC pass of a walk gets the accumulated points that no plane
        # made before it holds, residuals of earlier releases included.
        calls = []   # per pass: (points accumulated, its pool, planes it made)
        extract = mechanisms._greedy_extract

        def spy(positions, normals, eligible, pool, params, rng):
            planes = extract(positions, normals, eligible, pool, params, rng)
            calls.append((len(positions), np.array(pool), len(planes)))
            return planes

        monkeypatch.setattr(mechanisms, "_greedy_extract", spy)
        _, state = release_sequence(space, 0.8, 6, seed=4)
        assert len(calls) > 1 and len(state.planes) > 1
        made = 0
        for n, pool, new in calls:
            before = ReleaseState(planes=state.planes[:made])
            assert np.array_equal(pool, residuals(before, n))
            made += new
        assert made == len(state.planes)

    def test_plane_count_monotone(self):
        spec = SyntheticSpaceSpec(density=50, seed=9)
        cloud = generate_space(spec, "s")
        state = ReleaseState()
        counts = []
        chunks = np.array_split(np.arange(len(cloud)), 5)
        for chunk in chunks:
            subsume(state, cloud.subset(chunk), GP, seed=4)
            counts.append(len(state.planes))
        assert counts == sorted(counts)


def release_now(state, cap):
    """``release_at`` for a one-step walk whose step sees the whole state."""
    step = ReleaseStep(
        center=np.zeros(3), transform=random_rigid_transform(0),
        n_planes=len(state.planes), n_accumulated=len(state),
    )
    return release_at(state, step, cap)


def ranked(planes):
    """The planes' indices by inlier count descending, ties by index."""
    return sorted(range(len(planes)), key=lambda i: (-len(planes[i].inlier_indices), i))


def projected_under_cap(state, step, cap):
    """The release at ``step`` under ``cap``, projected for that cap alone:
    the planes live at the step, each cut to its inliers revealed by then,
    and the top ``cap`` of them by :func:`ranked`, in index order."""
    n = step.n_accumulated
    live = [Plane(p.normal, p.offset, p.inlier_indices[: np.searchsorted(p.inlier_indices, n)])
            for p in state.planes[: step.n_planes]]
    return project_to_planes(state.prefix(n), [live[i] for i in sorted(ranked(live)[:cap])])


class TestConservativeRelease:
    def make_two_plane_state(self):
        big = make_plane_cloud(300)
        rng = np.random.default_rng(1)
        wall = PointCloud(
            np.column_stack(
                [np.zeros(100), rng.uniform(-2, 2, 100), rng.uniform(0.5, 2.5, 100)]
            ),
            np.tile([1.0, 0, 0], (100, 1)),
        )
        state = ReleaseState()
        subsume(state, big, GP, seed=0)
        subsume(state, wall, GP, seed=0)
        assert [len(p.inlier_indices) for p in state.planes] == [300, 100]
        return state

    def test_cap_above_plane_count_is_identity(self):
        state = self.make_two_plane_state()
        capped = release_now(state, 10)
        full = project_to_planes(state.prefix(len(state)), state.planes)
        assert np.array_equal(
            np.sort(capped.positions, axis=0), np.sort(full.positions, axis=0)
        )

    def test_cap_one_releases_largest_plane(self):
        state = self.make_two_plane_state()
        out = release_now(state, 1)
        assert len(out) == 300
        assert np.allclose(out.positions[:, 2], 0.0, atol=1e-9)

    def test_equal_inliers_tie_by_creation(self):
        a = make_plane_cloud(100, seed=1)
        rng = np.random.default_rng(2)
        b = PointCloud(
            np.column_stack(
                [np.zeros(100), rng.uniform(-2, 2, 100), rng.uniform(0.5, 2.5, 100)]
            ),
            np.tile([1.0, 0, 0], (100, 1)),
        )
        state = ReleaseState()
        subsume(state, a, GP, seed=0)
        subsume(state, b, GP, seed=0)
        out = release_now(state, 1)
        assert np.allclose(out.positions[:, 2], 0.0, atol=1e-9)  # earlier plane

    def test_nesting(self):
        state = self.make_two_plane_state()
        small = release_now(state, 1)
        large = release_now(state, 2)
        small_set = {tuple(p) for p in np.round(small.positions, 12)}
        large_set = {tuple(p) for p in np.round(large.positions, 12)}
        assert small_set <= large_set

    def test_unbounded_equals_project_all(self):
        state = self.make_two_plane_state()
        unbounded = release_now(state, None)
        full = project_to_planes(state.prefix(len(state)), state.planes)
        assert np.array_equal(unbounded.positions, full.positions)

    def test_state_untouched(self):
        state = self.make_two_plane_state()
        release_now(state, 1)
        assert len(state.planes) == 2
        assert [len(p.inlier_indices) for p in state.planes] == [300, 100]

    def test_cap_below_one_rejected(self):
        state = self.make_two_plane_state()
        with pytest.raises(ValueError):
            release_now(state, 0)


@pytest.fixture(scope="module")
def space():
    return generate_space(SyntheticSpaceSpec(density=60, seed=12), "seq")


def sorted_rows(positions):
    """The rows in lexicographic order, to compare point sets."""
    return positions[np.lexsort(positions.T[::-1])]


def revealed_union(space, steps, radius):
    """Per step, the source points of every ball cut so far, as a mask."""
    union = np.zeros(len(space), dtype=bool)
    for step in steps:
        union |= np.linalg.norm(space.positions - step.center, axis=1) <= radius
        yield union.copy()


class TestReleaseSequence:

    def test_single_release_matches_one_time_generalization(self, space):
        steps, state = release_sequence(space, 1.0, 1, seed=5)
        assert len(steps) == 1
        step = steps[0]
        expected = project_to_planes(state.prefix(len(state)), state.planes)
        released = release_at(state, step)
        assert np.array_equal(released.positions, expected.positions)
        assert np.array_equal(released.normals, expected.normals)
        ball = np.linalg.norm(space.positions - step.center, axis=1) <= 1.0
        assert step.n_accumulated == len(state)
        assert np.array_equal(state.prefix(step.n_accumulated).positions,
                              space.positions[ball])

    def test_ball_boundary_is_inclusive_as_ball_indices(self):
        # A 0.5 m grid: every point has an axis neighbour at exactly r = 0.5.
        grid = 0.5 * np.array([(i, j, 0) for i in range(5) for j in range(5)], float)
        cloud = PointCloud(grid, np.tile([0.0, 0.0, 1.0], (len(grid), 1)))
        for seed in range(4):
            steps, state = release_sequence(cloud, 0.5, 1, seed=seed,
                                            generalize=False)
            first = release_at(state, steps[0])
            cut = cloud.subset(ball_indices(cloud, steps[0].center, 0.5))
            assert np.array_equal(first.positions, cut.positions)
            assert np.array_equal(first.normals, cut.normals)
            assert np.any(np.linalg.norm(first.positions - steps[0].center, axis=1) == 0.5)

    def test_accumulation_monotone_and_union_exact(self, space):
        steps, state = release_sequence(space, 0.5, 12, seed=7)
        sizes = [s.n_accumulated for s in steps]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(state)
        for step, union in zip(steps, revealed_union(space, steps, 0.5)):
            assert step.n_accumulated == union.sum()
            assert np.array_equal(sorted_rows(state.prefix(step.n_accumulated).positions),
                                  sorted_rows(space.positions[union]))

    def test_walk_steps_bounded(self, space):
        steps, _ = release_sequence(space, 0.5, 12, seed=8)
        centers = np.array([s.center for s in steps])
        hops = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        assert np.all(hops <= 0.5 + 1e-12)

    def test_same_transform_for_whole_sequence(self, space):
        steps, _ = release_sequence(space, 0.5, 5, seed=9)
        first = steps[0].transform
        for step in steps[1:]:
            assert np.array_equal(step.transform.rotation, first.rotation)
            assert np.array_equal(step.transform.translation, first.translation)

    def test_deterministic(self, space):
        a, state_a = release_sequence(space, 0.5, 8, seed=10)
        b, state_b = release_sequence(space, 0.5, 8, seed=10)
        assert np.array_equal(state_a.positions, state_b.positions)
        assert_same_planes(state_a.planes, state_b.planes)
        for sa, sb in zip(a, b):
            assert np.array_equal(release_at(state_a, sa, 3).positions,
                                  release_at(state_b, sb, 3).positions)

    def test_release_at_matches_shorter_walk(self, space):
        # A walk cut after t releases holds exactly the state as of release t.
        steps, final = release_sequence(space, 0.6, 10, seed=11)
        for t in range(1, len(steps) + 1):
            _, live = release_sequence(space, 0.6, t, seed=11)
            assert len(live) == steps[t - 1].n_accumulated
            assert len(live.planes) == steps[t - 1].n_planes
            for cap in (None, 1, 2, 5):
                derived = release_at(final, steps[t - 1], cap)
                chosen = sorted(ranked(live.planes)[:cap])
                expected = project_to_planes(live.prefix(len(live)),
                                             [live.planes[i] for i in chosen])
                assert np.array_equal(derived.positions, expected.positions)
                assert np.array_equal(derived.normals, expected.normals)

    def test_release_is_the_per_cap_projection(self, space):
        """A walk reaching 7 planes: under caps 1, 3, 5 and none, each
        step's release, taken from its one projection of the live planes,
        is bitwise the projection of its top planes alone."""
        steps, state = release_sequence(space, 2.0, 6, seed=3)
        assert steps[-1].n_planes >= 5
        for step in steps:
            release = step_release(state, step)
            for cap in (1, 3, 5, None):
                expected = projected_under_cap(state, step, cap)
                for got in (release.cloud.subset(release.rows(cap)),
                            release_at(state, step, cap)):
                    for name in ("positions", "normals", "reliable"):
                        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()

    def test_raw_mode_releases_accumulated_points(self, space):
        steps, state = release_sequence(
            space, 0.5, 4, seed=13, generalize=False
        )
        assert not state.generalize
        for step, union in zip(steps, revealed_union(space, steps, 0.5)):
            released = release_at(state, step)
            prefix = state.prefix(step.n_accumulated)
            for name in ("positions", "normals", "reliable"):
                assert getattr(released, name).tobytes() == getattr(prefix, name).tobytes()
            assert len(released) == union.sum()
            assert np.array_equal(sorted_rows(released.positions),
                                  sorted_rows(space.positions[union]))
            with pytest.raises(ValueError, match="only to generalized walks"):
                release_at(state, step, 1)
        assert steps[-1].n_planes == 0

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            release_sequence(
                PointCloud(np.zeros((0, 3)), np.zeros((0, 3))), 1.0, 1
            )

    @pytest.mark.parametrize("radius, releases, message", [
        (float("nan"), 1, "radius must be"), (float("inf"), 1, "radius must be"),
        (0.0, 1, "radius must be"), (-1.0, 1, "radius must be"), ("1", 1, "radius must be"),
        (1.0, 0, "releases must be"), (1.0, 2.0, "releases must be"),
        (1.0, True, "releases must be"),
    ])
    def test_bad_policy_rejected_by_name(self, space, radius, releases, message):
        with pytest.raises(ValueError, match="^" + message):
            release_sequence(space, radius, releases)
