"""Privacy mechanisms: walks of partial releases, raw or generalized, and caps.

A walk reveals one ball per release; a :class:`ReleaseState` accumulates the
raw points revealed so far. Generalization replaces surfaces by planes fitted
with a greedy RANSAC that hypothesizes each candidate plane from one point
and its normal; new points are first subsumed by existing planes (in plane
creation order) and only the leftovers are offered to RANSAC, so earlier
generalizations stay stable. Conservative releasing caps how many planes are
released while the full state is kept for future subsumption.

Subsumption only appends newer point indices to existing planes, and
planes are appended, so a plane's index is its creation number and the state
as of any earlier release is a prefix of the final one. A walk therefore
keeps only the final state plus a few counts per release, and
:func:`step_release` derives what any release emitted, raw or under any
plane cap: each plane live at the step is projected once, and the release
under a cap is the concatenation of its top planes' slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import require_int, require_real
from .geometry import PointCloud, RigidTransform, ball_indices, random_rigid_transform

__all__ = [
    "GeneralizationParams",
    "Plane",
    "ReleaseState",
    "ReleaseStep",
    "StepRelease",
    "project_to_planes",
    "ransac_planes",
    "release_at",
    "release_sequence",
    "step_release",
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

    def distances(self, positions: np.ndarray) -> np.ndarray:
        return np.abs(positions @ self.normal - self.offset)

    def accepts(self, positions: np.ndarray, normals: np.ndarray,
                params: GeneralizationParams) -> np.ndarray:
        near = self.distances(positions) <= params.dist_eps
        aligned = np.abs(normals @ self.normal) >= params.cos_angle_max
        return near & aligned


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


_BLOCK_PAIRS = 1 << 16  # (pool point, candidate) pairs per _greedy_extract block


def _greedy_extract(positions, normals, eligible, pool, params, rng):
    """Repeatedly commit the best one-point-plus-normal plane hypothesis.

    ``pool`` holds the point indices no plane holds yet; committed planes
    remove their inliers from it. Returns the committed planes in commit
    order.

    Each round draws up to ``candidates_per_round`` candidates and counts
    the pool points each one accepts. The candidates go in blocks of
    ``max(1, 2**16 // len(pool))``, one (pool, block) product of positions
    and one of normals per block: a few numpy calls per block rather than
    about 8 per candidate, since every call hands the GIL between threads.
    The first candidate with the top count wins (strict ``>`` across
    blocks); its inliers are refit by least squares.
    """
    planes: list[Plane] = []
    pool = np.asarray(pool, dtype=np.intp)
    pool = pool[eligible[pool]]
    while len(pool) >= params.min_inliers:
        n_cand = min(params.candidates_per_round, len(pool))
        candidates = rng.choice(pool, size=n_cand, replace=False)
        pool_pos = positions[pool]
        pool_nrm = normals[pool]
        cand_nrm = normals[candidates]
        offsets = np.einsum("ij,ij->i", cand_nrm, positions[candidates])
        block = max(1, _BLOCK_PAIRS // len(pool))
        best_count = 0
        best_mask = None
        best_candidate = -1
        for lo in range(0, n_cand, block):
            hi = min(lo + block, n_cand)
            prod = pool_pos @ cand_nrm[lo:hi].T
            prod -= offsets[lo:hi]
            mask = np.abs(prod, out=prod) <= params.dist_eps
            prod = np.matmul(pool_nrm, cand_nrm[lo:hi].T, out=prod)
            mask &= np.abs(prod, out=prod) >= params.cos_angle_max
            counts = np.count_nonzero(mask, axis=0)
            j = int(np.argmax(counts))
            if counts[j] > best_count:
                best_count = int(counts[j])
                best_mask = mask[:, j]
                best_candidate = candidates[lo + j]
        if best_count < params.min_inliers:
            break
        inliers = pool[best_mask]
        normal, offset = _fit_plane_lsq(positions[inliers], normals[best_candidate])
        refit = Plane(normal, offset, inliers)
        refit_mask = refit.accepts(pool_pos, pool_nrm, params)
        if int(refit_mask.sum()) >= params.min_inliers:
            refit.inlier_indices = np.sort(pool[refit_mask])
            plane = refit
        else:
            # The refit drifted off the consensus set; keep the raw hypothesis.
            n_c = normals[best_candidate]
            plane = Plane(n_c.copy(), float(n_c @ positions[best_candidate]),
                          np.sort(inliers))
        planes.append(plane)
        pool = pool[~np.isin(pool, plane.inlier_indices)]
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
    return _greedy_extract(cloud.positions, cloud.normals, cloud.reliable,
                           np.arange(len(cloud)), params, np.random.default_rng(seed))


def project_to_planes(cloud: PointCloud, planes: list[Plane]) -> PointCloud:
    """Replace each point a plane holds by its orthogonal projection onto it.

    Projected normals take the plane normal, signed to agree with the point's
    own normal. Points held by no plane are dropped. Output order is the
    order of ``planes``, then ascending point index within a plane.
    """
    chunks_pos = []
    chunks_nrm = []
    for plane in planes:
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
    """What a raw or generalized walk has revealed: the raw points, in
    reveal order, and the planes, in creation order. A point no plane holds
    is a residual; a new state is ``ReleaseState(label=..., generalize=...)``."""

    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    normals: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    reliable: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    planes: list[Plane] = field(default_factory=list)
    label: str | None = None
    generalize: bool = True

    def __len__(self) -> int:
        return len(self.positions)

    def prefix(self, n: int) -> PointCloud:
        """The first ``n`` accumulated raw points."""
        return PointCloud(self.positions[:n], self.normals[:n], self.label,
                          self.reliable[:n])

    def append(self, points: PointCloud) -> None:
        """Accumulate raw points as residuals."""
        if not points.has_normals:
            raise ValueError("new points need normals")
        self.positions = np.vstack([self.positions, points.positions])
        self.normals = np.vstack([self.normals, points.normals])
        self.reliable = np.concatenate([self.reliable, points.reliable])


def subsume(state: ReleaseState, new_points: PointCloud,
            params: GeneralizationParams = GeneralizationParams(),
            seed=0) -> ReleaseState:
    """Fold newly revealed points into the state.

    Each new point goes to the first existing plane (creation order) that
    accepts it. The residuals, every accumulated point that no plane then
    holds, are the pool of a RANSAC pass that may append new planes. Existing
    planes are never refit, so previously released projections stay fixed.
    """
    rng = np.random.default_rng(seed)
    base = len(state)
    state.append(new_points)
    unclaimed = base + np.flatnonzero(new_points.reliable)
    for plane in state.planes:
        if len(unclaimed) == 0:
            break
        mask = plane.accepts(state.positions[unclaimed], state.normals[unclaimed], params)
        claimed = unclaimed[mask]
        if len(claimed):
            plane.inlier_indices = np.sort(np.concatenate([plane.inlier_indices, claimed]))
            unclaimed = unclaimed[~mask]

    held = np.zeros(len(state), dtype=bool)
    for plane in state.planes:
        held[plane.inlier_indices] = True
    state.planes += _greedy_extract(state.positions, state.normals, state.reliable,
                                    np.flatnonzero(~held), params, rng)
    return state


@dataclass(frozen=True)
class ReleaseStep:
    """One emitted release: where the walk stood and how much it had revealed.

    ``n_accumulated`` and ``n_planes`` size the walk's state as of this
    release. The raw points revealed so far are ``state.prefix(n_accumulated)``
    of the final state, in reveal order: the truth a release stands for.
    :func:`release_at` derives the release itself from the final state.
    """

    center: np.ndarray              # walk center, reference frame
    transform: RigidTransform       # frame change the application sees
    n_planes: int
    n_accumulated: int


@dataclass(frozen=True)
class StepRelease:
    """Every cloud one walk step can release, reference frame: ``cloud`` is
    its release under no cap, and :meth:`rows` picks the release under any
    cap from it.

    In a generalized walk ``cloud`` holds the projections of the planes live
    at the step, each plane projected once, in plane index order: plane i's
    points are rows ``bounds[i]:bounds[i + 1]``. In a raw walk it is the raw
    points revealed so far, and ``bounds`` is None.
    """

    cloud: PointCloud
    bounds: np.ndarray | None

    def rows(self, cap: int | None = None) -> np.ndarray:
        """The mask of the rows of ``cloud`` released under ``cap``: the
        slices of the top ``cap`` planes (all when None), ranked by inlier
        count descending, ties by index (the older plane first), in index
        order. A raw walk releases every row and takes no bounded cap."""
        if cap is not None and cap < 1:
            raise ValueError("cap must be >= 1 when bounded")
        if self.bounds is None:
            if cap is not None:
                raise ValueError("bounded plane caps apply only to generalized walks")
            return np.ones(len(self.cloud), dtype=bool)
        sizes = np.diff(self.bounds)
        chosen = np.zeros(len(sizes), dtype=bool)
        chosen[np.argsort(-sizes, kind="stable")[:cap]] = True
        return np.repeat(chosen, sizes)


def step_release(state: ReleaseState, step: ReleaseStep) -> StepRelease:
    """What ``step`` can release, derived from ``state``, the walk's final
    state. A raw walk releases the raw points revealed so far,
    ``state.prefix(step.n_accumulated)``. In a generalized walk the planes
    live at ``step`` are its first ``step.n_planes``, each holding its
    inliers below ``step.n_accumulated``, projected by
    :func:`project_to_planes`. The state itself is untouched; withheld
    planes remain available for subsumption."""
    n = step.n_accumulated
    if not state.generalize:
        return StepRelease(state.prefix(n), None)
    live = [
        Plane(p.normal, p.offset, p.inlier_indices[: np.searchsorted(p.inlier_indices, n)])
        for p in state.planes[: step.n_planes]
    ]
    bounds = np.cumsum([0] + [len(p.inlier_indices) for p in live])
    return StepRelease(project_to_planes(state.prefix(n), live), bounds)


def release_at(state: ReleaseState, step: ReleaseStep,
               cap: int | None = None) -> PointCloud:
    """The cloud released at ``step`` under ``cap``, reference frame: the
    rows :meth:`StepRelease.rows` picks from :func:`step_release`."""
    release = step_release(state, step)
    return release.cloud.subset(release.rows(cap))


def release_sequence(space: PointCloud, radius: float, releases: int = 1, seed=0,
                     params: GeneralizationParams = GeneralizationParams(),
                     generalize: bool = True) -> tuple[list[ReleaseStep], ReleaseState]:
    """Simulate a user revealing a space along a random walk of ``releases``.

    Per release: cut the ball of ``radius`` around the walk center
    (inclusive, by :func:`~spatialprivacy.geometry.ball_indices`), accumulate
    the not-yet-seen points and, with ``generalize``, subsume/generalize
    them; without it the walk is raw and the points are only accumulated.
    The next center is a point of the ball. Each release is re-expressed in
    one random rigid frame shared by the whole walk. Returns the steps and
    the final state, which records whether the walk generalizes;
    :func:`step_release` derives every release from it.
    """
    require_real("radius", radius, 0.0)
    require_int("releases", releases, 1)
    if len(space) == 0:
        raise ValueError("space is empty")
    rng = np.random.default_rng(seed)
    transform = random_rigid_transform(rng)
    state = ReleaseState(label=space.label, generalize=generalize)
    seen = np.zeros(len(space), dtype=bool)
    steps: list[ReleaseStep] = []
    center_idx = int(rng.integers(len(space)))
    for _ in range(releases):
        center = space.positions[center_idx]
        ball = ball_indices(space, center, radius)
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
                n_planes=len(state.planes),
                n_accumulated=len(state),
            )
        )
        # Random-walk user movement: the next center is uniform over the ball,
        # which always holds the current center itself.
        center_idx = int(ball[rng.integers(len(ball))])
    return steps, state
