"""Point-cloud data model, rigid transforms, and exact nearest-neighbor search.

Positions are in meters throughout. A cloud carries one unit normal per point;
normals may be absent (``normals is None``) until :func:`estimate_normals` is
run, and individual normals may be flagged unreliable when the local
neighborhood does not define a plane.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "RigidTransform",
    "SpatialIndex",
    "apply_transform",
    "canonical_order",
    "centroid",
    "estimate_normals",
    "extract_partial",
    "knn_bruteforce",
    "random_rigid_transform",
    "ranking_copy",
]

UNIT_NORM_TOL = 1e-6


def _as_points(a, name: str = "positions") -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contain non-finite values")
    return a


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of oriented points, optionally labeled with a space id.

    ``reliable`` marks points whose normal is trustworthy; unreliable points
    are skipped by keypoint selection. When ``normals`` is present, every
    reliable normal has unit length within 1e-6.
    """

    positions: np.ndarray
    normals: np.ndarray | None = None
    label: str | None = None
    reliable: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_points(self.positions).view()
        object.__setattr__(self, "positions", pos)
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals").view()
            if len(nrm) != len(pos):
                raise ValueError("normals and positions length mismatch")
            rel = self.reliable
            if rel is None:
                rel = np.ones(len(pos), dtype=bool)
            else:
                rel = np.asarray(rel, dtype=bool).copy()
                if rel.shape != (len(pos),):
                    raise ValueError("reliable mask has wrong shape")
            lens = np.linalg.norm(nrm[rel], axis=1)
            if len(lens) and np.max(np.abs(lens - 1.0), initial=0.0) > UNIT_NORM_TOL:
                raise ValueError("reliable normals must have unit length within 1e-6")
            nrm.flags.writeable = False
            rel.flags.writeable = False
            object.__setattr__(self, "normals", nrm)
            object.__setattr__(self, "reliable", rel)
        elif self.reliable is not None:
            raise ValueError("reliable mask given without normals")
        pos.flags.writeable = False

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def subset(self, indices: np.ndarray, label: str | None = None) -> "PointCloud":
        """New cloud keeping the given point indices, in the given order."""
        indices = np.asarray(indices)
        return PointCloud(
            self.positions[indices],
            None if self.normals is None else self.normals[indices],
            label if label is not None else self.label,
            None if self.reliable is None else self.reliable[indices],
        )

    def with_label(self, label: str) -> "PointCloud":
        return replace(self, label=label)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> R @ x + t (rotation + translation only)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.rotation, dtype=np.float64).view()
        t = np.ascontiguousarray(self.translation, dtype=np.float64).view()
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3, 3) and translation (3,)")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation must have determinant +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def apply_rotation(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float64) @ self.rotation.T


class SpatialIndex:
    """Exact k-nearest-neighbor index over a cloud's positions.

    Queries return exactly what a linear scan would: neighbors ordered by
    Euclidean distance, ties broken by lower point index. A tree query for
    k + 1 neighbors settles a row when its (k+1)-th distance exceeds its k-th
    by a 1e-12 relative margin; only a row where a tie may straddle the k-th
    place falls back to a ball query over every tied point. Read-only after
    construction, safe for concurrent queries.
    """

    def __init__(self, cloud_or_points):
        if isinstance(cloud_or_points, PointCloud):
            pts = cloud_or_points.positions
        else:
            pts = _as_points(cloud_or_points)
        self.points = pts
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return len(self.points)

    def query(self, queries: np.ndarray, k: int):
        """k nearest neighbors of each query point.

        Returns ``(distances, indices)`` each of shape ``(q, k)`` (or ``(k,)``
        for a single query point).
        """
        queries = np.asarray(queries, dtype=np.float64)
        single = queries.ndim == 1
        q = queries.reshape(-1, 3)
        n = len(self.points)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for index of size {n}")
        m = min(k + 1, n)
        tree_dist, idx = self._tree.query(q, k=m)
        tree_dist, idx = tree_dist.reshape(len(q), m), idx.reshape(len(q), m)
        # Scan distances, ordered by (distance, index); a row whose (k+1)-th
        # neighbor could tie its k-th is re-resolved over a ball.
        dist = np.linalg.norm(self.points[idx] - q[:, None], axis=2)
        order = np.lexsort((idx, dist), axis=1)[:, :k]
        dist = np.take_along_axis(dist, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        bound = tree_dist[:, k - 1] * (1.0 + 1e-12) + 1e-300
        tied = np.flatnonzero(tree_dist[:, -1] <= bound) if m > k else []
        for row in tied:
            cand = self.ball(q[row], bound[row])
            d = np.linalg.norm(self.points[cand] - q[row], axis=1)
            order = np.lexsort((cand, d))[:k]
            dist[row] = d[order]
            idx[row] = cand[order]
        if single:
            return dist[0], idx[0]
        return dist, idx

    def ball(self, centers: np.ndarray, radius: float):
        """Points with distance <= radius of each center, ascending by index.

        For one center of shape ``(3,)``, their index array. For centers of
        shape ``(m, 3)``, the pair ``(rows, indices)`` that ``np.nonzero``
        gives for the (m, n) mask of hits: ordered by center, then by index.
        """
        centers = np.asarray(centers, dtype=np.float64)
        hits = self._tree.query_ball_point(centers, radius, return_sorted=True)
        if centers.ndim == 1:
            return np.asarray(hits, dtype=np.intp)
        counts = np.fromiter(map(len, hits), np.intp, len(hits))
        indices = np.fromiter(itertools.chain.from_iterable(hits), np.intp, counts.sum())
        return np.repeat(np.arange(len(hits)), counts), indices


def _exponent(a: np.ndarray) -> int:
    """The e for which 2**e brings the largest magnitude in ``a`` into
    [0.5, 1); 0 for an empty or all-zero array, at most 1000 so that 2**e
    stays a float64."""
    top = max(a.max(), -a.min()) if a.size else 0.0
    return min(-math.frexp(top)[1], 1000)


def ranking_copy(references: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """``(sq_norms, e, copy)``, what :func:`knn_bruteforce` ranks on: the
    references' squared norms ``einsum("ij,ij->i", references, references)``,
    and the references times 2**e, rounded to float32 and transposed to a
    C-contiguous (dim, n) array, where 2**e brings their largest magnitude
    into [0.5, 1). Scaling by a power of two is exact, so the cast cannot
    overflow, and it flushes to zero only entries some 2**149 times smaller
    than the largest. The transposed layout runs the GEMM about a fifth
    faster."""
    e = _exponent(references)
    return (np.einsum("ij,ij->i", references, references), e,
            np.ascontiguousarray((references * 2.0**e).T, dtype=np.float32))


def knn_bruteforce(references: np.ndarray, queries: np.ndarray, k: int, *,
                   prepared: tuple[np.ndarray, int, np.ndarray] | None = None):
    """Exact k-nn in arbitrary dimension, e.g. descriptor space.

    Exact means equal, bitwise in both indices and distances, to the direct
    linear scan: for each query ``q`` the distances are
    ``np.linalg.norm(references - q, axis=1)`` and the neighbors are the first
    ``k`` of their ascending order, ties by lower reference index (the contract
    of :meth:`SpatialIndex.query`). Returns ``(distances, indices)`` of shape
    ``(q, k)``. ``prepared``, if given, is ``ranking_copy(references)``, for
    callers that query one reference set many times; otherwise each call
    makes it.

    Queries run in row tiles of about 2**18 keys (one row if a row alone has
    more), so beyond the inputs, the float32 copy and the outputs memory is
    O(2**18 + survivors). One float32 GEMM per tile ranks each row on
    ``||r||^2 - 2 q.r``, both sides scaled by one power of two; a rounding
    bound around the row's k-th key keeps every reference that the linear
    scan could place in its top k, and only those survivors get their
    distance computed directly, in float64, and sorted. The k smallest keys
    of a row come from k + 1 min passes over the tile, O((k + 1) * tile)
    beyond the GEMM; only a row whose (k+1)-th key falls within the bound (a
    tie may straddle the k-th place) is masked in full to find its survivors.
    """
    references = np.asarray(references, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    n, dim = references.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for reference set of size {n}")
    sr, e_ref, r32 = ranking_copy(references) if prepared is None else prepared
    # One scale s = 2**e for both sides: every |s q| and |s r| is below 1.
    # Queries larger than the references rescale the copy, exactly but for
    # underflow, which the slack below covers.
    e = min(e_ref, _exponent(queries))
    if e < e_ref:
        r32 = r32 * np.float32(2.0 ** (e - e_ref))
    scale = 2.0**e
    n32 = (sr * scale * scale).astype(np.float32)
    # Keys are x.y + ||y||^2 = s^2 (||r||^2 - 2 q.r) for x = -2 s q (exact)
    # and y = s r: x.y by the float32 GEMM, ||y||^2 as s^2 sr rounded to
    # float32, added in float32. With u = 2**-24, g(m) = m u / (1 - m u),
    # a = ||x|| and b = s max ||r||, each term of x.y takes two input
    # roundings, a product, <= dim - 1 additions and the final add, so it is
    # off by at most g(dim + 3) a b in sum; ||y||^2 takes a float64 sum (a
    # relative error below u for dim < 2**28), the cast and the final add:
    # g(3) b^2. Underflow, even flushed to zero, adds at most
    # 2 tiny (sqrt(dim) (a + b) + 2 dim + 3) per key, tiny = 2**-126. Twice
    # one key's error is the float32 part of the slack. The float64 part,
    # (dim + 8) eps (a + b)^2, covers the linear scan's
    # (dim + 5) eps/2 (||q|| + ||r||)^2 on each of the two distances
    # compared, the rounding of kth + slack and of this formula; and
    # (3 dim + 10) s^2 2**-1074 covers float64 underflow in sr and the scan.
    u, tiny = 2.0**-24, float(np.finfo(np.float32).tiny)
    eps = float(np.finfo(np.float64).eps)
    g_dot, g_norm = ((m * u) / (1 - m * u) for m in (dim + 3, 3))
    b = np.sqrt(sr.max()) * scale
    under = math.ldexp(3 * dim + 10, 2 * e - 1074)
    dist = np.empty((len(queries), k))
    idx = np.empty((len(queries), k), dtype=np.intp)
    # Tiles of 2**18 keys keep the GEMM efficient while no q x n matrix
    # exists; the k * dim term bounds the survivors' difference vectors.
    block = max(1, (1 << 18) // max(n, k * dim))
    for s in range(0, len(queries), block):
        qb = queries[s:s + block]
        xb = qb * (-2.0 * scale)
        kb = xb.astype(np.float32) @ r32
        kb += n32
        a = np.sqrt(np.einsum("ij,ij->i", xb, xb))
        slack = (2 * (g_dot * a * b + g_norm * b * b)
                 + 4 * tiny * (math.sqrt(dim) * (a + b) + 2 * dim + 3)
                 + (dim + 8) * eps * (a + b) ** 2 + under)
        # k argmin passes pick each row's k smallest keys, each pick masked
        # with +inf; one more min pass gives the (k+1)-th key (+inf if k = n).
        rows = np.arange(len(kb))
        picks = np.empty((len(kb), k), dtype=np.intp)
        keys = np.empty((len(kb), k), dtype=np.float32)
        for j in range(k):
            picks[:, j] = kb.argmin(axis=1)
            keys[:, j] = kb[rows, picks[:, j]]
            kb[rows, picks[:, j]] = np.inf
        thr = keys[:, -1] + slack
        # A row whose (k+1)-th key exceeds thr keeps exactly its k picks. A
        # tied row gets its picks back and keeps every key within thr, as
        # SpatialIndex.query re-resolves a tied row over a ball.
        tied = kb.min(axis=1) <= thr
        kb[rows[tied, None], picks[tied]] = keys[tied]
        tied_rows, tied_cols = np.nonzero(kb[tied] <= thr[tied, None])
        rows = np.concatenate([np.repeat(rows[~tied], k), rows[tied][tied_rows]])
        cols = np.concatenate([picks[~tied].ravel(), tied_cols])
        d = np.linalg.norm(qb[rows] - references[cols], axis=1)
        order = np.lexsort((cols, d, rows))
        # Every row keeps at least k survivors; take the first k of each.
        counts = np.bincount(rows, minlength=len(kb))
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        dist[s:s + block], idx[s:s + block] = d[take], cols[take]
    return dist, idx


def centroid(cloud: PointCloud) -> np.ndarray:
    """Arithmetic mean of positions."""
    if len(cloud) == 0:
        raise ValueError("centroid of an empty cloud is undefined")
    return cloud.positions.mean(axis=0)


def apply_transform(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """Map positions by R p + t and normals by R n, preserving point order."""
    return PointCloud(
        transform.apply(cloud.positions),
        None if cloud.normals is None else transform.apply_rotation(cloud.normals),
        cloud.label,
        cloud.reliable,
    )


def extract_partial(cloud: PointCloud, center: np.ndarray, radius: float) -> PointCloud:
    """Points with ||p - center|| <= radius (inclusive), normals kept."""
    if radius <= 0 and not np.isclose(radius, 0.0):
        raise ValueError("radius must be >= 0")
    center = np.asarray(center, dtype=np.float64)
    d = np.linalg.norm(cloud.positions - center, axis=1)
    return cloud.subset(np.flatnonzero(d <= radius))


def canonical_order(positions: np.ndarray) -> np.ndarray:
    """Permutation sorting points by distance to their centroid, ties by index.

    This ordering is invariant under rigid motion (distances to the centroid
    are preserved) and under storage permutation, which makes deterministic
    subsampling stable across transformed copies of the same cloud.
    """
    positions = np.asarray(positions, dtype=np.float64)
    d = np.linalg.norm(positions - positions.mean(axis=0), axis=1)
    return np.lexsort((np.arange(len(positions)), d))


def random_rigid_transform(
    seed_or_rng, translation_extent: float = 10.0
) -> RigidTransform:
    """Rotation uniform over SO(3), translation uniform in a +-extent box.

    Deterministic for a given integer seed; also accepts a Generator to draw
    from an existing stream.
    """
    rng = np.random.default_rng(seed_or_rng)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    # Re-orthonormalize to meet the 1e-9 orthogonality requirement exactly.
    u, _, vt = np.linalg.svd(rot)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    t = rng.uniform(-translation_extent, translation_extent, size=3)
    return RigidTransform(rot, t)


def estimate_normals(cloud: PointCloud, k: int) -> PointCloud:
    """Per-point least-squares plane normals over the k nearest neighbors.

    The neighborhood of a point is the point itself plus its k nearest
    neighbors. Normals are oriented away from the bounding-box center
    (n . (p - c) >= 0). Points whose neighborhood is degenerate (collinear or
    coincident) keep an arbitrary unit normal but are flagged unreliable.
    """
    n = len(cloud)
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, have {n}")
    index = SpatialIndex(cloud)
    _, idx = index.query(cloud.positions, k + 1)
    neigh = cloud.positions[idx]  # (n, k+1, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0].copy()
    # Collinear or coincident neighborhoods have two vanishing eigenvalues.
    reliable = eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)

    bbox_center = 0.5 * (cloud.positions.min(axis=0) + cloud.positions.max(axis=0))
    outward = np.einsum("ni,ni->n", normals, cloud.positions - bbox_center)
    flip = outward < 0
    normals[flip] = -normals[flip]
    # Points on a plane through the bbox center get a sign-free fallback:
    # make the dominant component positive.
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
    return PointCloud(cloud.positions, normals, cloud.label, reliable)
