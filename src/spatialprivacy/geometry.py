"""Point-cloud data model, rigid transforms, and exact nearest-neighbor search.

Positions are in meters throughout. A cloud carries one unit normal per point;
normals may be absent (``normals is None``) until :func:`estimate_normals` is
run, and individual normals may be flagged unreliable when the local
neighborhood does not define a plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "RigidTransform",
    "SpatialIndex",
    "apply_transform",
    "ball_indices",
    "canonical_order",
    "centroid",
    "estimate_normals",
    "knn_bruteforce",
    "random_rigid_transform",
    "ranking_copy",
]

UNIT_NORM_TOL = 1e-6
_NORMAL_BLOCK_ENTRIES = 1 << 15  # neighbor entries per estimate_normals row block


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
            # One float per point, in place: no gathered (n, 3) copy of the rows.
            off = np.einsum("ij,ij->i", nrm, nrm)
            np.abs(np.subtract(np.sqrt(off, out=off), 1.0, out=off), out=off)
            if off.max(initial=0.0, where=rel) > UNIT_NORM_TOL:
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
        The (m, 3) form builds no Python list: one ``sparse_distance_matrix``
        call between a tree over the centers and this index's tree returns
        every pair as arrays, and one sort of ``row * n + index`` orders them.
        """
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim == 1:
            return np.asarray(self._tree.query_ball_point(centers, radius, return_sorted=True),
                              dtype=np.intp)
        pairs = cKDTree(centers).sparse_distance_matrix(self._tree, radius, output_type="ndarray")
        n = len(self.points)
        return np.divmod(np.sort(pairs["i"].astype(np.int64) * n + pairs["j"]), n)


def _exponent(a: np.ndarray) -> int:
    """The e for which 2**e brings the largest magnitude in ``a`` into
    [0.5, 1); 0 for an empty or all-zero array, at most 1000 so that 2**e
    stays a float64."""
    top = max(a.max(), -a.min()) if a.size else 0.0
    return min(-math.frexp(top)[1], 1000)


def ranking_copy(references) -> tuple[np.ndarray, int, np.ndarray]:
    """``(sq_norms, e, copy)``, what :func:`knn_bruteforce` ranks on, for
    a list of G (n_g, dim) reference groups. With L the largest group's
    row count, ``sq_norms`` is (G, L): each group's
    ``einsum("ij,ij->i", r, r)``, padded with +inf. ``copy`` is
    (G, dim, L) float32, C-contiguous: each group times 2**e,
    transposed and padded with zeros, where one e brings the largest
    magnitude of all groups into [0.5, 1). Scaling by a power of two is
    exact, so the cast cannot overflow, and it flushes to zero only entries
    some 2**149 times smaller than the largest. The transposed layout runs
    the GEMM about a fifth faster."""
    groups = [np.asarray(r, dtype=np.float64) for r in references]
    e = min(_exponent(r) for r in groups)
    width = max(len(r) for r in groups)
    sq_norms = np.full((len(groups), width), np.inf)
    copy = np.zeros((len(groups), groups[0].shape[1], width), dtype=np.float32)
    for g, r in enumerate(groups):
        sq_norms[g, :len(r)] = np.einsum("ij,ij->i", r, r)
        np.multiply(r.T, 2.0**e, out=copy[g, :, :len(r)], casting="same_kind")
    return sq_norms, e, copy


def knn_bruteforce(references, queries: np.ndarray, k: int, *,
                   prepared: tuple[np.ndarray, int, np.ndarray] | None = None):
    """Exact k-nn in arbitrary dimension, e.g. descriptor space.

    ``references`` is a list of G (n_g, dim) arrays (the groups, of any
    sizes n_g >= k), each searched on its own by the (q, dim) ``queries``;
    anything else raises ``ValueError``. Exact means equal, bitwise in both
    indices and distances, to the direct linear scan: for each query ``q``
    and group ``r`` the distances are ``np.linalg.norm(r - q, axis=1)`` and
    the neighbors are the first ``k`` of their ascending order, ties by
    lower row index (the contract of :meth:`SpatialIndex.query`). Returns
    ``(distances, indices)``, each of shape ``(G, q, k)``. ``prepared``, if
    given, is ``ranking_copy(references)``, for callers that query one
    reference set many times; otherwise each call makes it.

    Queries run in row tiles of about 2**18 keys per group (one row if a row
    alone has more), so beyond the inputs, the float32 copy and the outputs
    memory is O(2**18 + survivors): one (rows, L) key buffer serves every
    group in turn. One float32 GEMM per group and tile ranks each row on
    ``||r||^2 - 2 q.r``, both sides scaled by one power of two; a rounding
    bound around the row's k-th key keeps every reference that the linear
    scan could place in its top k. The k smallest keys of a row come from
    k + 1 min passes over the buffer, O((k + 1) * tile) beyond the GEMM;
    only a row whose (k+1)-th key falls within the bound (a tie may straddle
    the k-th place) is masked in full to find its survivors. Survivors get
    their distances directly, in float64, as the linear scan sums them, and
    those of all groups are sorted in one pass per tile.
    """
    groups = [np.asarray(r, dtype=np.float64) for r in references]
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or any(r.ndim != 2 for r in groups):
        raise ValueError("knn_bruteforce takes a list of (n, dim) reference groups "
                         "and (q, dim) queries")
    sizes = [len(r) for r in groups]
    dim = groups[0].shape[1]
    if not 1 <= k <= min(sizes):
        raise ValueError(f"k={k} out of range for reference set of size {min(sizes)}")
    sr, e_ref, r32 = ranking_copy(groups) if prepared is None else prepared
    # One scale s = 2**e for both sides: every |s q| and |s r| is below 1.
    # Queries larger than the references rescale the copy, exactly but for
    # underflow, which the slack below covers.
    e = min(e_ref, _exponent(queries))
    rescale = np.float32(2.0 ** (e - e_ref)) if e < e_ref else None
    scale = 2.0**e
    n32 = (sr * scale * scale).astype(np.float32)
    # Keys are x.y + ||y||^2 = s^2 (||r||^2 - 2 q.r) for x = -2 s q (exact)
    # and y = s r: x.y by the float32 GEMM, ||y||^2 as s^2 sr rounded to
    # float32, added in float32. With u = 2**-24, g(m) = m u / (1 - m u),
    # a = ||x|| and b = s max ||r|| over the group, each term of x.y takes
    # two input roundings, a product, <= dim - 1 additions and the final
    # add, so it is off by at most g(dim + 3) a b in sum; ||y||^2 takes a
    # float64 sum (a relative error below u for dim < 2**28), the cast and
    # the final add: g(3) b^2. Underflow, even flushed to zero, adds at most
    # 2 tiny (sqrt(dim) (a + b) + 2 dim + 3) per key, tiny = 2**-126. Twice
    # one key's error is the float32 part of the slack. The float64 part,
    # (dim + 8) eps (a + b)^2, covers the linear scan's
    # (dim + 5) eps/2 (||q|| + ||r||)^2 on each of the two distances
    # compared, the rounding of kth + slack and of this formula; and
    # (3 dim + 10) s^2 2**-1074 covers float64 underflow in sr and the scan.
    # Zero columns padded with +inf norms key +inf and are never picked.
    u, tiny = 2.0**-24, float(np.finfo(np.float32).tiny)
    eps = float(np.finfo(np.float64).eps)
    g_dot, g_norm = ((m * u) / (1 - m * u) for m in (dim + 3, 3))
    b = np.sqrt([norms[:n].max() for norms, n in zip(sr, sizes)])[:, None] * scale
    under = math.ldexp(3 * dim + 10, 2 * e - 1074)
    n_groups, width = sr.shape
    dist = np.empty((n_groups, len(queries), k))
    idx = np.empty((n_groups, len(queries), k), dtype=np.intp)
    # Tiles of 2**18 keys per group keep the GEMM efficient while no q x n
    # matrix exists; the k * dim term bounds one group's difference vectors.
    block = max(1, (1 << 18) // max(width, k * dim))
    buf = np.empty((min(block, len(queries)), width), dtype=np.float32)
    picks = np.empty((n_groups, len(buf), k), dtype=np.intp)
    keys = np.empty((len(buf), k), dtype=np.float32)
    diff = np.empty((len(buf), k, dim))
    sq = np.empty((n_groups, len(buf), k))
    for s in range(0, len(queries), block):
        qb = queries[s:s + block]
        nb = len(qb)
        xb = qb * (-2.0 * scale)
        x32 = xb.astype(np.float32)
        a = np.sqrt(np.einsum("ij,ij->i", xb, xb))
        slack = (2 * (g_dot * a * b + g_norm * b * b)
                 + 4 * tiny * (math.sqrt(dim) * (a + b) + 2 * dim + 3)
                 + (dim + 8) * eps * (a + b) ** 2 + under)
        rows = np.arange(nb)
        extra = []   # tied rows' further survivors: (group, row), column, distance
        for g, ref in enumerate(groups):
            copy = r32[g] if rescale is None else r32[g] * rescale
            kb = np.matmul(x32, copy, out=buf[:nb])
            kb += n32[g]
            # k argmin passes pick each row's k smallest keys, each pick
            # masked with +inf; one more min pass gives the (k+1)-th key
            # (+inf if k = n_g).
            pick, key = picks[g, :nb], keys[:nb]
            for j in range(k):
                p = kb.argmin(axis=1)
                pick[:, j] = p
                key[:, j] = kb[rows, p]
                kb[rows, p] = np.inf
            # The picks' squared distances as the linear scan sums them:
            # np.linalg.norm takes sqrt(add.reduce(x * x)).
            vec = np.subtract(ref[pick], qb[:, None], out=diff[:nb])
            vec *= vec
            np.add.reduce(vec, axis=-1, out=sq[g, :nb])
            # Every row keeps its k picks. A row whose (k+1)-th key is within
            # thr (a tie may straddle the k-th place) also keeps every other
            # key within thr, as SpatialIndex.query re-resolves a tied row
            # over a ball.
            thr = key[:, -1] + slack[g]
            tied = kb.min(axis=1) <= thr
            if tied.any():
                tied_rows, tied_cols = np.nonzero(kb[tied] <= thr[tied, None])
                tied_rows = rows[tied][tied_rows]
                extra.append((tied_rows + g * nb, tied_cols,
                              np.linalg.norm(ref[tied_cols] - qb[tied_rows], axis=1)))
        d = np.sqrt(sq[:, :nb]).ravel()
        owner = np.repeat(np.arange(n_groups * nb), k)
        cols = picks[:, :nb].ravel()
        if extra:
            owner, cols, d = (np.concatenate(part) for part in zip((owner, cols, d), *extra))
        order = np.lexsort((cols, d, owner))
        # Every (group, row) keeps at least k survivors; take the first k.
        counts = np.bincount(owner, minlength=n_groups * nb)
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        dist[:, s:s + nb] = d[take].reshape(n_groups, nb, k)
        idx[:, s:s + nb] = cols[take].reshape(n_groups, nb, k)
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


def ball_indices(cloud: PointCloud, center: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the points with ||p - center|| <= radius (inclusive),
    ascending, by one linear scan."""
    if radius <= 0 and not np.isclose(radius, 0.0):
        raise ValueError("radius must be >= 0")
    center = np.asarray(center, dtype=np.float64)
    d = np.linalg.norm(cloud.positions - center, axis=1)
    return np.flatnonzero(d <= radius)


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

    One :class:`SpatialIndex` serves the whole cloud; the (k+1)-NN query,
    the neighborhood covariances and their ``eigh`` run in row blocks of
    ``_NORMAL_BLOCK_ENTRIES`` (2**15) neighbor entries, about 2.5k rows at
    k = 12, and fill preallocated outputs. So beyond the O(n) outputs, the
    index and the O(n) orientation and unit-length passes over the whole
    cloud, memory is bounded by the block. Every step works per row, so the
    normals and reliable flags equal, bitwise, those of the same computation
    over the whole cloud at once.
    """
    n = len(cloud)
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, have {n}")
    # Each helper's temporaries (the index, the O(n) pass's arrays) are freed
    # when it returns, before PointCloud checks the normals' lengths.
    normals, reliable = _plane_fits(cloud, k)
    _orient_unit(cloud.positions, normals, reliable)
    return PointCloud(cloud.positions, normals, cloud.label, reliable)


def _plane_fits(cloud: PointCloud, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's smallest-eigenvalue eigenvector of the covariance of its
    k + 1 nearest points, and whether the neighborhood spans a plane; one
    block of ``_NORMAL_BLOCK_ENTRIES`` neighbor entries at a time."""
    index = SpatialIndex(cloud)
    pts = cloud.positions
    normals = np.empty((len(pts), 3))
    reliable = np.empty(len(pts), dtype=bool)
    block = max(1, _NORMAL_BLOCK_ENTRIES // (k + 1))
    for s in range(0, len(pts), block):
        _, idx = index.query(pts[s:s + block], k + 1)
        neigh = pts[idx]  # (rows, k+1, 3)
        centered = neigh - neigh.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered)
        eigvals, eigvecs = np.linalg.eigh(cov)
        normals[s:s + block] = eigvecs[:, :, 0]
        # Collinear or coincident neighborhoods have two vanishing eigenvalues.
        reliable[s:s + block] = eigvals[:, 1] > 1e-9 * np.maximum(eigvals[:, 2], 1e-30)
    return normals, reliable


def _orient_unit(positions: np.ndarray, normals: np.ndarray, reliable: np.ndarray) -> None:
    """In place: flip each normal away from the bounding-box center, scale it
    to unit length, and set an unreliable or zero normal to (0, 0, 1),
    flagged unreliable."""
    bbox_center = 0.5 * (positions.min(axis=0) + positions.max(axis=0))
    outward = np.einsum("ni,ni->n", normals, positions - bbox_center)
    np.negative(normals, out=normals, where=(outward < 0)[:, None])
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
    reliable &= lens > 0
    normals /= np.where(lens > 0, lens, 1.0)[:, None]
    normals[~reliable] = np.array([0.0, 0.0, 1.0])
