"""Privacy mechanisms: partial release, plane generalization, conservative caps.

Generalization replaces surfaces by planes fitted with a greedy RANSAC that
hypothesizes each candidate plane directly from one point and its normal.
Across successive releases a :class:`ReleaseState` accumulates the raw points
revealed so far; new points are first subsumed by existing planes (in plane
creation order) and only the leftovers are offered to RANSAC, so earlier
generalizations stay stable. Conservative releasing caps how many planes are
released while the full state is kept for future subsumption.

Subsumption only appends newer point indices to existing planes and new
planes take the next creation number, so the state as of any earlier release
is a prefix of the final one. A walk therefore keeps only the final state
plus a few counts per release, and :func:`release_at` derives what any
release emitted under any plane cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import require_int, require_real
from .geometry import (
    PointCloud,
    RigidTransform,
    SpatialIndex,
    random_rigid_transform,
)

__all__ = [
    "GeneralizationParams",
    "Plane",
    "ReleasePolicy",
    "ReleaseState",
    "ReleaseStep",
    "project_to_planes",
    "ransac_planes",
    "release_at",
    "release_sequence",
    "subsume",
]


@dataclass(frozen=True)
class GeneralizationParams:
    dist_eps: float = 0.05            # max point-to-plane distance, meters
    normal_angle_max: float = 30.0    # max normal deviation, degrees
    min_inliers: int = 30
    candidates_per_round: int = 100

    def __post_init__(self):
        require_real("dist_eps", self.dist_eps, 0.0)
        require_real("normal_angle_max", self.normal_angle_max, 0.0)
        require_int("min_inliers", self.min_inliers, 1)
        require_int("candidates_per_round", self.candidates_per_round, 1)

    @property
    def cos_angle_max(self) -> float:
        return math.cos(math.radians(self.normal_angle_max))


@dataclass
class Plane:
    """A fitted plane n . x = offset with the points it claimed."""

    normal: np.ndarray
    offset: float
    inlier_indices: np.ndarray
    seq: int

    def distances(self, positions: np.ndarray) -> np.ndarray:
        return np.abs(positions @ self.normal - self.offset)

    def accepts(self, positions: np.ndarray, normals: np.ndarray,
                params: GeneralizationParams) -> np.ndarray:
        near = self.distances(positions) <= params.dist_eps
        aligned = np.abs(normals @ self.normal) >= params.cos_angle_max
        return near & aligned


@dataclass(frozen=True)
class ReleasePolicy:
    """How a space is revealed: the ball radius and the release count. The
    walk's next center is a point within one radius of the current one."""

    radius: float
    num_releases: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.num_releases < 1:
            raise ValueError("num_releases must be >= 1")


def _fit_plane_lsq(positions: np.ndarray, guide_normal: np.ndarray):
    """Least-squares plane through the points, signed like ``guide_normal``."""
    center = positions.mean(axis=0)
    centered = positions - center
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    if normal @ guide_normal < 0:
        normal = -normal
    return normal, float(normal @ center)


def _greedy_extract(positions, normals, eligible, pool, params, rng, start_seq):
    """Repeatedly commit the best one-point-plus-normal plane hypothesis.

    ``pool`` holds the currently unassigned point indices; committed planes
    remove their inliers from it. Returns the committed planes.
    """
    planes: list[Plane] = []
    pool = np.asarray(pool, dtype=np.intp)
    pool = pool[eligible[pool]]
    seq = start_seq
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
        normal, offset = _fit_plane_lsq(positions[inliers], normals[best_candidate])
        refit = Plane(normal, offset, inliers, seq)
        refit_mask = refit.accepts(pool_pos, pool_nrm, params)
        if int(refit_mask.sum()) >= params.min_inliers:
            refit.inlier_indices = np.sort(pool[refit_mask])
            plane = refit
        else:
            # The refit drifted off the consensus set; keep the raw hypothesis.
            n_c = normals[best_candidate]
            plane = Plane(n_c.copy(), float(n_c @ positions[best_candidate]),
                          np.sort(inliers), seq)
        planes.append(plane)
        keep = ~np.isin(pool, plane.inlier_indices, assume_unique=False)
        pool = pool[keep]
        seq += 1
    return planes


def ransac_planes(cloud: PointCloud, params: GeneralizationParams = GeneralizationParams(),
                  seed=0) -> list[Plane]:
    """Greedy plane extraction over the whole cloud; deterministic per seed.

    Points with unreliable normals never become candidates or inliers.
    """
    if len(cloud) == 0:
        return []
    if not cloud.has_normals:
        raise ValueError("cloud has no normals; run estimate_normals first")
    return _greedy_extract(
        cloud.positions, cloud.normals, cloud.reliable,
        np.arange(len(cloud)), params, np.random.default_rng(seed), start_seq=0,
    )


def project_to_planes(cloud: PointCloud, planes: list[Plane]) -> PointCloud:
    """Replace each assigned point by its orthogonal projection onto its plane.

    Projected normals take the plane normal, signed to agree with the point's
    own normal. Points claimed by no plane are dropped. Output order is plane
    creation order, then ascending point index within a plane.
    """
    chunks_pos = []
    chunks_nrm = []
    for plane in sorted(planes, key=lambda p: p.seq):
        idx = plane.inlier_indices
        pos = cloud.positions[idx]
        resid = pos @ plane.normal - plane.offset
        chunks_pos.append(pos - resid[:, None] * plane.normal)
        sign = np.where(cloud.normals[idx] @ plane.normal >= 0, 1.0, -1.0)
        chunks_nrm.append(sign[:, None] * plane.normal)
    if not chunks_pos:
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3)), cloud.label)
    return PointCloud(
        np.vstack(chunks_pos), np.vstack(chunks_nrm), cloud.label
    )


@dataclass
class ReleaseState:
    """Accumulated raw points, accepted planes, and residuals across releases."""

    positions: np.ndarray
    normals: np.ndarray
    reliable: np.ndarray
    planes: list[Plane] = field(default_factory=list)
    assignment: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    label: str | None = None

    @classmethod
    def empty(cls, label: str | None = None) -> "ReleaseState":
        return cls(
            positions=np.zeros((0, 3)),
            normals=np.zeros((0, 3)),
            reliable=np.zeros(0, dtype=bool),
            assignment=np.zeros(0, dtype=np.intp),
            label=label,
        )

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def residual_indices(self) -> np.ndarray:
        return np.flatnonzero(self.assignment < 0)

    def prefix(self, n: int) -> PointCloud:
        """The first ``n`` accumulated raw points."""
        return PointCloud(self.positions[:n], self.normals[:n], self.label,
                          self.reliable[:n])

    def append(self, points: PointCloud) -> None:
        """Accumulate raw points as unassigned residuals."""
        if not points.has_normals:
            raise ValueError("new points need normals")
        self.positions = np.vstack([self.positions, points.positions])
        self.normals = np.vstack([self.normals, points.normals])
        self.reliable = np.concatenate([self.reliable, points.reliable])
        self.assignment = np.concatenate(
            [self.assignment, np.full(len(points), -1, dtype=np.intp)]
        )


def subsume(state: ReleaseState, new_points: PointCloud,
            params: GeneralizationParams = GeneralizationParams(),
            seed=0) -> ReleaseState:
    """Fold newly revealed points into the state.

    Each new point goes to the first existing plane (creation order) that
    accepts it; the leftovers join the state's residuals and a RANSAC pass may
    mint additional planes from that pool. Existing planes are never refit, so
    previously released projections stay fixed.
    """
    rng = np.random.default_rng(seed)
    base = len(state)
    state.append(new_points)

    fresh = np.arange(base, len(state), dtype=np.intp)
    unclaimed = fresh[state.reliable[fresh]]
    for plane in state.planes:
        if len(unclaimed) == 0:
            break
        mask = plane.accepts(state.positions[unclaimed], state.normals[unclaimed], params)
        claimed = unclaimed[mask]
        if len(claimed):
            plane.inlier_indices = np.sort(
                np.concatenate([plane.inlier_indices, claimed])
            )
            state.assignment[claimed] = plane.seq
            unclaimed = unclaimed[~mask]

    new_planes = _greedy_extract(
        state.positions, state.normals, state.reliable, state.residual_indices,
        params, rng, start_seq=len(state.planes),
    )
    for plane in new_planes:
        state.assignment[plane.inlier_indices] = plane.seq
        state.planes.append(plane)
    return state


@dataclass(frozen=True)
class ReleaseStep:
    """One emitted release: where the walk stood and how much it had revealed.

    ``n_accumulated`` and ``n_planes`` size the walk's state as of this
    release; the released cloud itself is derived from the final state, by
    :func:`release_at` for a generalized walk and by
    ``state.prefix(n_accumulated)`` for a raw one.
    """

    center: np.ndarray              # walk center, reference frame
    transform: RigidTransform       # frame change the application sees
    accumulated_indices: np.ndarray  # source-space indices revealed so far
    n_planes: int
    n_accumulated: int


def release_at(state: ReleaseState, step: ReleaseStep,
               cap: int | None = None) -> PointCloud:
    """Generalized cloud released at ``step`` under a plane cap, reference frame.

    ``state`` is the walk's final state. The planes live at ``step`` are its
    first ``step.n_planes``, each holding its inliers below
    ``step.n_accumulated``. They rank by inlier count descending, ties by
    creation order, and the top ``cap`` (all when None) are projected. The
    state itself is untouched; withheld planes remain available for
    subsumption.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1 when bounded")
    n = step.n_accumulated
    live = [
        Plane(p.normal, p.offset,
              p.inlier_indices[: np.searchsorted(p.inlier_indices, n)], p.seq)
        for p in state.planes[: step.n_planes]
    ]
    chosen = sorted(live, key=lambda p: (-len(p.inlier_indices), p.seq))[:cap]
    return project_to_planes(state.prefix(n), chosen)


def release_sequence(space: PointCloud, policy: ReleasePolicy, seed=0,
                     params: GeneralizationParams = GeneralizationParams(),
                     generalize: bool = True) -> tuple[list[ReleaseStep], ReleaseState]:
    """Simulate a user revealing a space along a random walk.

    Per release: extract the ball around the walk center, accumulate the
    not-yet-seen points and subsume/generalize them. Each release is
    re-expressed in one random rigid frame shared by the whole sequence. With
    ``generalize=False`` the points are only accumulated, and a release is
    the accumulated raw points, for baseline comparisons. Returns the steps
    and the final state, from which every release is derived.
    """
    if len(space) == 0:
        raise ValueError("space is empty")
    rng = np.random.default_rng(seed)
    transform = random_rigid_transform(rng)
    index = SpatialIndex(space)
    state = ReleaseState.empty(space.label)
    seen = np.zeros(len(space), dtype=bool)
    steps: list[ReleaseStep] = []
    center_idx = int(rng.integers(len(space)))
    for _ in range(policy.num_releases):
        center = space.positions[center_idx]
        ball = index.ball(center, policy.radius)
        new_idx = ball[~seen[ball]]
        seen[new_idx] = True
        if len(new_idx):
            if generalize:
                subsume(state, space.subset(new_idx), params, rng)
            else:
                state.append(space.subset(new_idx))
        steps.append(
            ReleaseStep(
                center=center.copy(),
                transform=transform,
                accumulated_indices=np.flatnonzero(seen),
                n_planes=len(state.planes),
                n_accumulated=len(state),
            )
        )
        # Random-walk user movement: the next center is uniform over the ball,
        # which always holds the current center itself.
        center_idx = int(ball[rng.integers(len(ball))])
    return steps, state
