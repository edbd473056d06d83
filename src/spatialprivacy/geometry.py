"""Point-cloud data model, rigid transforms, and exact nearest-neighbor search.

Positions are in meters throughout. A cloud carries one unit normal per point;
normals may be absent (``normals is None``) until :func:`estimate_normals` is
run, and individual normals may be flagged unreliable when the local
neighborhood does not define a plane.

:class:`SpatialIndex` answers 3D fixed-radius and k-nearest queries on a
uniform grid of cubic cells, numpy only. Its answers are exact, equal to a
linear scan's, because a point's cell is a non-decreasing function of each
of its coordinates: a point within distance R of q lies, on each axis, within
R of q, and so in the box of cells that ``q -+ R`` (widened far beyond
rounding) fall in. A k-nearest query either finds its k nearest within a box
whose faces lie farther than its k-th candidate, or takes the box of the
ball its first k candidates reach. Distances are summed as the linear scan
sums them, and ties go to the lower index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "PackedRows",
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
_CELL_POINTS = 2          # points per grid cell that SpatialIndex's cell size aims at
_PAIR_ENTRIES = 1 << 13   # (query, point) pairs per SpatialIndex chunk
_SCAN_PAIRS = 1 << 16     # at most this many (query, point) pairs: SpatialIndex scans
_DENSE_ENTRIES = 1 << 15  # float64 entries of packed rows made dense at a time


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


def _cell_size(ends: np.ndarray, n: int) -> float:
    """The edge of SpatialIndex's cubic cells, from rows 0, j, n-1-j and n-1
    (j = n // 100) of the cloud's positions partitioned along each axis.

    It aims at ``_CELL_POINTS`` points per cell if the n points filled the
    box of their middle 98% on each axis evenly, an axis thinner than one
    cell counting one cell thick, so that a planar cloud gets planar cells
    and a few far points do not coarsen the grid. The edge is at least 2**-20
    of the cloud's largest extent, so that cell keys stay below 2**63; a
    cloud of one repeated point gets cells of 1 m.
    """
    extent = np.sort(ends[2] - ends[1])[::-1]
    cells = n / _CELL_POINTS
    for dim in (3, 2, 1):
        edge = float(np.prod(extent[:dim]) / cells) ** (1 / dim)
        if 0 < edge <= extent[dim - 1]:
            break
    edge = max(edge, float((ends[3] - ends[0]).max()) * 2.0**-20)
    return edge if edge > 0 else 1.0


class SpatialIndex:
    """Exact neighbor search over a cloud's positions, on a uniform grid.

    The points are sorted by the key of their cubic cell, whose edge comes
    from the data (:func:`_cell_size`). Only the sorted keys, the order and
    the sorted positions are kept, so memory is O(n) whatever the cloud's
    extent. A point's cell is ``floor((p - origin) * (1 / edge))`` on each
    axis, a non-decreasing function of each coordinate, so the points whose
    coordinates lie in an interval fill a known range of cells; and the
    keys put the cells of each (x, y) column in one run of the sorted order.
    Read-only after construction, safe for concurrent queries.
    """

    def __init__(self, cloud_or_points):
        if isinstance(cloud_or_points, PointCloud):
            pts = cloud_or_points.positions
        else:
            pts = _as_points(cloud_or_points)
        n = len(pts)
        self.points = pts
        ends = np.partition(pts, (0, n // 100, n - 1 - n // 100, n - 1), axis=0)[
            [0, n // 100, n - 1 - n // 100, n - 1]] if n else np.zeros((4, 3))
        self._origin = ends[0]
        self._inv = 1.0 / _cell_size(ends, n)
        self._edge = 1.0 / self._inv
        cells = np.floor((pts - self._origin) * self._inv).astype(np.int64)
        self._dims = cells.max(axis=0, initial=0) + 1
        keys = (cells[:, 0] * self._dims[1] + cells[:, 1]) * self._dims[2] + cells[:, 2]
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        # One padding point past the end: index n, at infinity.
        self._order = np.append(order, n)
        self._sorted = np.full((3, n + 1), np.inf)
        self._sorted[:, :n] = pts[order].T

    def __len__(self) -> int:
        return len(self.points)

    def _cells(self, x: np.ndarray) -> np.ndarray:
        """The cell of each row of ``x``, found as ``__init__`` finds a
        point's, and clipped on each axis to [-1, dims]: -1 and dims stand
        for any cell below and above the grid."""
        t = np.floor((x - self._origin) * self._inv)
        return np.minimum(np.maximum(t, -1), self._dims).astype(np.int64)

    def _box_runs(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(start, stop)``, each (m, c): for each row's box of cells from
        ``lo`` to ``hi`` ((m, 3), inclusive, clipped here into the grid), the
        runs of the sorted order that hold its points, one per (x, y) column,
        padded with empty runs. A box past the grid on some axis is empty."""
        lo, hi = np.maximum(lo, 0), np.minimum(hi, self._dims - 1)
        span = hi - lo + 1
        nx, ny = np.maximum(span[:, :2].max(axis=0, initial=0), 0)
        cx = lo[:, 0, None, None] + np.arange(nx)[:, None]
        cy = lo[:, 1, None, None] + np.arange(ny)
        column = (cx * self._dims[1] + cy) * self._dims[2]
        start = np.searchsorted(self._keys, column + lo[:, 2, None, None])
        stop = np.searchsorted(self._keys, column + hi[:, 2, None, None], side="right")
        empty = ((cx > hi[:, 0, None, None]) | (cy > hi[:, 1, None, None])
                 | (span[:, 2, None, None] <= 0))
        return start.reshape(len(lo), -1), np.where(empty, start, stop).reshape(len(lo), -1)

    def query(self, queries: np.ndarray, k: int):
        """k nearest neighbors of each query point.

        Returns ``(distances, indices)`` each of shape ``(q, k)`` (or ``(k,)``
        for a single query point): exactly what a linear scan gives, the
        distances ``np.linalg.norm(points - q, axis=1)`` and the first k of
        their ascending order, ties by lower point index. When the queries
        times the points are at most ``_SCAN_PAIRS``, it is that scan
        (:meth:`_scan`); otherwise the grid's (:meth:`_grid_query`).
        """
        queries = np.asarray(queries, dtype=np.float64)
        single = queries.ndim == 1
        q = _as_points(queries.reshape(-1, 3), "queries")
        n = len(self.points)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for index of size {n}")
        dist, idx = self._scan(q, k) if len(q) * n <= _SCAN_PAIRS else self._grid_query(q, k)
        if single:
            return dist[0], idx[0]
        return dist, idx

    def _grid_query(self, q: np.ndarray, k: int):
        """``query`` on the grid. A row first takes as candidates the points
        of the box of cells within r of its own (clamped into the grid), for
        the least r whose box of (2r + 1)**3 cells averages k points. Every
        point outside the box lies beyond one of its faces that has cells
        behind it, so the row is settled if its k-th candidate distance is
        below the distance to the nearest such face, less a slack far above
        the rounding of cell coordinates and of distances. A row with k
        candidates that is not settled has k points within its k-th
        candidate distance, so its k nearest lie in that ball, and so in the
        box of cells the ball reaches, whose points answer it. A row with
        fewer than k candidates tries again with r doubled, and is scanned
        once a box would have ``n / _CELL_POINTS`` columns or more."""
        dist = np.empty((len(q), k))
        idx = np.empty((len(q), k), dtype=np.intp)
        t = (q - self._origin) * self._inv
        cell = np.minimum(np.maximum(self._cells(q), 0), self._dims - 1)
        key = (cell[:, 0] * self._dims[1] + cell[:, 1]) * self._dims[2] + cell[:, 2]
        slack = 2.0**-40 * (np.abs(t).max(axis=1, initial=0) + self._dims.max())
        pending, r = np.arange(len(q)), 0
        while (2 * r + 1) ** 3 * _CELL_POINTS < k:
            r += 1
        while len(pending):
            if (2 * r + 1) ** 2 * _CELL_POINTS >= len(self.points):
                dist[pending], idx[pending] = self._scan(q[pending], k)
                break
            lo, hi = cell[pending] - r, cell[pending] + r
            # The rows of one cell share its box, whose runs are found once.
            _, first, group = np.unique(key[pending], return_index=True, return_inverse=True)
            start, stop = self._box_runs(lo[first], hi[first])
            dk, ik = self._nearest(q[pending], start[group], stop[group], k)
            # Distance, in cells, to each face with cells behind it.
            tp = t[pending]
            faces = np.minimum(np.where(lo > 0, tp - lo, np.inf),
                               np.where(hi < self._dims - 1, hi + 1 - tp, np.inf))
            bound = (faces.min(axis=1) - slack[pending]) * self._edge * (1 - 2.0**-40)
            ok = dk[:, -1] < bound
            dist[pending[ok]], idx[pending[ok]] = dk[ok], ik[ok]
            ball = ~ok & (dk[:, -1] < np.inf)
            if ball.any():
                rows = pending[ball]
                reach = dk[ball, -1:] * (1 + 2.0**-40)
                runs = self._box_runs(self._cells(q[rows] - reach), self._cells(q[rows] + reach))
                dist[rows], idx[rows] = self._nearest(q[rows], *runs, k)
            pending, r = pending[~ok & ~ball], max(2 * r, 1)
        return dist, idx

    def _nearest(self, q: np.ndarray, start: np.ndarray, stop: np.ndarray, k: int):
        """``(distances, indices)``, each (m, k): each query's first k by
        (distance, index) among the points of its runs, padded with +inf
        distances if it has fewer. Rows are taken in order of their candidate
        counts, in chunks of about ``_PAIR_ENTRIES`` candidates."""
        n = len(self.points)
        lens = stop - start
        counts = lens.sum(axis=1)
        dist = np.empty((len(q), k))
        idx = np.empty((len(q), k), dtype=np.intp)
        by_count = np.argsort(counts, kind="stable")
        for a, b in _chunks(counts[by_count], _PAIR_ENTRIES):
            rows = by_count[a:b]
            cnt, width = counts[rows], max(int(counts[rows[-1]]), k)
            # Row i's candidates fill row i of an (m, width) array, padded
            # with the point at infinity.
            run = lens[rows].ravel()
            step = np.arange(run.sum())
            slot = np.repeat(np.arange(len(rows)) * width - (np.cumsum(cnt) - cnt), cnt)
            padded = np.full(len(rows) * width, n)
            padded[slot + step] = np.repeat(start[rows].ravel() - (np.cumsum(run) - run),
                                            run) + step
            padded = padded.reshape(len(rows), width)
            sq = _squared([c.take(padded) for c in self._sorted], q[rows].T[:, :, None])
            dist[rows], idx[rows] = self._select(np.sqrt(sq), padded, k)
        return dist, idx

    def _select(self, d: np.ndarray, pos: np.ndarray, k: int):
        """``(distances, indices)``, each (m, k): each row's first k by
        (distance, index) of the distances ``d`` to the sorted points at
        ``pos``, both (m, w) with w >= k."""
        line = np.arange(len(d))[:, None]
        if k == 1:
            pick = d.argmin(axis=1)[:, None]
        else:
            pick = np.argpartition(d, k - 1, axis=1)[:, :k]
            pick = pick[line, d[line, pick].argsort(axis=1)]
        dk = d[line, pick]
        # Equal distances among the k, or across the k-th place, are ordered
        # by index: such a row is sorted whole.
        tied = ((dk[:, 1:] == dk[:, :-1]).any(axis=1)
                | (np.count_nonzero(d <= dk[:, -1:], axis=1) > k)) & (dk[:, -1] < np.inf)
        if tied.any():
            pick[tied] = np.lexsort((self._order[pos[tied]], d[tied]), axis=1)[:, :k]
            dk = d[line, pick]
        return dk, self._order[pos[line, pick]]

    def _scan(self, q: np.ndarray, k: int):
        """``(distances, indices)``, each (m, k): each query's first k by
        (distance, index) over every point, from the distances in index
        order, in row chunks of about ``_PAIR_ENTRIES`` pairs."""
        n = len(self.points)
        dist = np.empty((len(q), k))
        idx = np.empty((len(q), k), dtype=np.intp)
        rows = max(1, _PAIR_ENTRIES // n)
        for s in range(0, len(q), rows):
            d = np.sqrt(_squared(self.points.T[:, None], q[s:s + rows].T[:, :, None]))
            if k == 1:
                pick = d.argmin(axis=1)[:, None]
            else:
                pick = np.argsort(d, axis=1, kind="stable")[:, :k]
            dist[s:s + rows] = np.take_along_axis(d, pick, axis=1)
            idx[s:s + rows] = pick
        return dist, idx

    def ball(self, centers: np.ndarray, radius: float):
        """Points within ``radius`` of each of the (m, 3) ``centers``.

        Returns the pair ``(rows, indices)`` that ``np.nonzero`` gives for
        the (m, n) mask of hits: ordered by center, then by index. A hit is
        a point whose difference d from the center has
        ``(d_x**2 + d_y**2) + d_z**2 <= radius**2``, summed in that order, as
        ``cKDTree.query_ball_point`` tests it. Such a point lies within
        radius * (1 + 2**-40) of the center on each axis, so the cells of
        ``center -+ radius * (1 + 2**-40)`` bound the box of cells it is in;
        when the centers times the points are at most ``_SCAN_PAIRS``, the
        mask is made whole.
        """
        centers = _as_points(centers, "centers")
        n = len(self.points)
        if len(centers) * n <= _SCAN_PAIRS:
            return np.nonzero(_squared(self.points.T[:, None], centers.T[:, :, None])
                              <= radius * radius)
        reach = radius * (1 + 2.0**-40)
        rows, pos = _flatten(*self._box_runs(self._cells(centers - reach),
                                             self._cells(centers + reach)))
        hit = _squared([c.take(pos) for c in self._sorted], centers.T[:, rows]) <= radius * radius
        return np.divmod(np.sort(rows[hit] * n + self._order[pos[hit]]), n)


def _squared(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``(d_x**2 + d_y**2) + d_z**2``, summed in that order, for the
    differences d = points - q, given per axis as arrays that broadcast;
    +inf at a padding point. ``np.linalg.norm(points - q, axis=1)`` of (n, 3)
    arrays is its square root."""
    sq = None
    for axis in range(3):
        d = points[axis] - q[axis]
        d *= d
        sq = d if sq is None else np.add(sq, d, out=sq)
    return sq


def _chunks(counts: np.ndarray, size: int):
    """``(start, stop)`` row slices whose ``counts`` sum to about ``size``
    (a row with more forms a slice of its own)."""
    cut = np.flatnonzero(np.diff(np.cumsum(counts) // size)) + 1
    return zip([0, *cut], [*cut, len(counts)]) if len(counts) else ()


def _flatten(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, positions)``: every position of each (m, c) row's runs, in order."""
    return (np.repeat(np.arange(len(start)), (stop - start).sum(axis=1)),
            _run_positions(start.ravel(), (stop - start).ravel()))


def _run_positions(start: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Every position of the runs ``start[i]:start[i] + lens[i]``, in order."""
    pos = np.repeat(start - (np.cumsum(lens) - lens), lens)
    pos += np.arange(len(pos))
    return pos


class PackedRows:
    """Read-only float64 rows of one width, packed: per row, a bit mask of
    its nonzero entries and their values, in row order.

    An entry is stored when any of its bits is set, so -0.0 is kept and the
    dense rows come back bit for bit. A store takes ``ceil(dim / 8) + 8``
    bytes per row plus 8 per stored entry, against ``8 * dim`` dense. Make
    one with :meth:`pack` or :meth:`concat`. ``values`` holds the stored
    entries; :meth:`dense` is the one way to read rows.
    """

    def __init__(self, bits: np.ndarray, offsets: np.ndarray, values: np.ndarray, dim: int):
        # Row i's mask is bits[i], its values are values[offsets[i]:offsets[i + 1]].
        self._bits, self._offsets, self.values = bits, offsets, values
        for a in (bits, offsets, values):
            a.flags.writeable = False
        self.dim = dim

    @classmethod
    def pack(cls, rows) -> "PackedRows":
        """The store of the (n, dim) ``rows``, as float64."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"rows must have shape (n, dim), got {rows.shape}")
        mask = rows.view(np.uint64) != 0
        stored = np.flatnonzero(mask)   # faster than rows[mask]
        offsets = np.searchsorted(stored, np.arange(len(rows) + 1) * rows.shape[1])
        return cls(np.packbits(mask, axis=1), offsets, rows.reshape(-1).take(stored),
                   rows.shape[1])

    @classmethod
    def concat(cls, parts: list["PackedRows"]) -> "PackedRows":
        """One store of the rows of the stores ``parts``, in order, all of one width."""
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"rows of widths {sorted(dims)} cannot share a store")
        offsets = np.zeros(sum(map(len, parts)) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.diff(p._offsets) for p in parts]), out=offsets[1:])
        return cls(np.concatenate([p._bits for p in parts]), offsets,
                   np.concatenate([p.values for p in parts]), dims.pop())

    def __len__(self) -> int:
        return len(self._bits)

    def dense(self, rows=None) -> np.ndarray:
        """The dense rows ``np.arange(len(self))[rows]`` (all if None), bit for
        bit as indexing the dense (n, dim) array by ``rows`` gives them. The
        stored values are placed by the flat index of each set mask bit: on
        rows a third nonzero, 2-3 times faster than through the boolean mask."""
        picked = np.arange(len(self))[slice(None) if rows is None else rows]
        flat = picked.ravel()
        first = self._offsets[flat]
        values = self.values.take(_run_positions(first, self._offsets[flat + 1] - first))
        mask = np.unpackbits(self._bits[flat], axis=1, count=self.dim).view(bool)
        out = np.zeros(mask.shape)
        out.reshape(-1)[np.flatnonzero(mask)] = values
        return out.reshape(picked.shape + (self.dim,))


def _packed_groups(references) -> bool:
    """Whether ``references`` is a non-empty list of :class:`PackedRows`."""
    return (isinstance(references, (list, tuple)) and len(references) > 0
            and all(isinstance(r, PackedRows) for r in references))


def _exponent(a: np.ndarray) -> int:
    """The e for which 2**e brings the largest magnitude in ``a`` into
    [0.5, 1); 0 for an empty or all-zero array, at most 1000 so that 2**e
    stays a float64."""
    top = max(a.max(), -a.min()) if a.size else 0.0
    return min(-math.frexp(top)[1], 1000)


def ranking_copy(references: list[PackedRows]) -> tuple[np.ndarray, int, np.ndarray]:
    """``(sq_norms, e, copy)``, what :func:`knn_bruteforce` ranks on, for a
    list of G (n_g, dim) reference groups, each a :class:`PackedRows` store
    (anything else raises ``ValueError``) read ``_DENSE_ENTRIES`` values at
    a time. With L the largest group's row count, ``sq_norms`` is (G, L):
    each group's ``einsum("ij,ij->i", r, r)``, padded with +inf. ``copy`` is
    (G, dim, L) float32, C-contiguous: each group times 2**e, transposed and
    padded with zeros, where one e brings the largest magnitude of all
    groups into [0.5, 1). Scaling by a power of two is exact, so the cast
    cannot overflow, and it flushes to zero only entries some 2**149 times
    smaller than the largest. The transposed layout runs the GEMM about a
    fifth faster."""
    if not _packed_groups(references):
        raise ValueError("ranking_copy takes a list of PackedRows reference groups")
    e = min(_exponent(r.values) for r in references)
    width = max(len(r) for r in references)
    sq_norms = np.full((len(references), width), np.inf)
    copy = np.zeros((len(references), references[0].dim, width), dtype=np.float32)
    rows = max(1, _DENSE_ENTRIES // copy.shape[1])
    for g, r in enumerate(references):
        for lo in range(0, len(r), rows):
            part = r.dense(slice(lo, lo + rows))
            hi = lo + len(part)
            sq_norms[g, lo:hi] = np.einsum("ij,ij->i", part, part)
            np.multiply(part.T, 2.0**e, out=copy[g, :, lo:hi], casting="same_kind")
    return sq_norms, e, copy


def knn_bruteforce(references: list[PackedRows], queries: np.ndarray, k: int, *,
                   prepared: tuple[np.ndarray, int, np.ndarray] | None = None):
    """Exact k-nn in arbitrary dimension, e.g. descriptor space.

    ``references`` is a list of G groups of (n_g, dim) rows, n_g >= k, each a
    :class:`PackedRows` store searched on its own by the (q, dim) ``queries``;
    anything else raises ``ValueError``. Exact means equal, bitwise in indices
    and distances, to the linear scan: for each query ``q`` and group ``r``
    (its dense rows) the distances are ``np.linalg.norm(r - q, axis=1)`` and
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
    their distances directly, in float64, as the linear scan sums them, from
    their rows made dense ``_DENSE_ENTRIES`` (2**15) entries at a time, one
    group at a time; those of all groups are sorted in one pass per tile.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or not _packed_groups(references):
        raise ValueError("knn_bruteforce takes a list of (n, dim) reference groups, "
                         "each a PackedRows store, and (q, dim) queries")
    sizes = [len(r) for r in references]
    dim = references[0].dim
    if not 1 <= k <= min(sizes):
        raise ValueError(f"k={k} out of range for reference set of size {min(sizes)}")
    sr, e_ref, r32 = ranking_copy(references) if prepared is None else prepared
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
    # matrix exists; the survivors' float64 rows are made in chunks.
    block = max(1, (1 << 18) // width)
    chunk = max(1, _DENSE_ENTRIES // dim)
    buf = np.empty((min(block, len(queries)), width), dtype=np.float32)
    picks = np.empty((n_groups, len(buf), k), dtype=np.intp)
    keys = np.empty((len(buf), k), dtype=np.float32)
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
        extra = []   # tied rows' further survivors: (group, row), column
        for g in range(n_groups):
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
            # Every row keeps its k picks. A row whose (k+1)-th key is within
            # thr (a tie may straddle the k-th place) also keeps every other
            # key within thr, as SpatialIndex.query re-resolves a tied row
            # over a ball.
            thr = key[:, -1] + slack[g]
            tied = kb.min(axis=1) <= thr
            if tied.any():
                tied_rows, tied_cols = np.nonzero(kb[tied] <= thr[tied, None])
                extra.append((rows[tied][tied_rows] + g * nb, tied_cols))
        owner = np.repeat(np.arange(n_groups * nb), k)
        cols = picks[:, :nb].ravel()
        if extra:
            owner, cols = (np.concatenate(part) for part in zip((owner, cols), *extra))
        # The survivors' distances as the linear scan sums them:
        # np.linalg.norm takes sqrt(add.reduce(x * x)).
        group, row = np.divmod(owner, nb)
        d = np.empty(len(owner))
        for g, ref in enumerate(references):
            mine = np.flatnonzero(group == g)
            for lo in range(0, len(mine), chunk):
                at = mine[lo:lo + chunk]
                vec = ref.dense(cols[at])
                vec -= qb[row[at]]
                vec *= vec
                d[at] = np.sqrt(np.add.reduce(vec, axis=-1))
                del vec   # before the next chunk's rows are made
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
    """Indices of the points within ``radius`` of ``center``, ascending, by
    one linear scan: those whose difference d from it has
    ``(d_x**2 + d_y**2) + d_z**2 <= radius**2``, the rule of
    :meth:`SpatialIndex.ball`, whose answer for this one center it is.
    ``radius < 0`` raises ``ValueError``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    center = np.asarray(center, dtype=np.float64)
    return np.flatnonzero(_squared(cloud.positions.T, center) <= radius * radius)


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

    One :class:`SpatialIndex` grid serves the whole cloud, its cells sized
    from the cloud; the (k+1)-NN query (exact, as a linear scan ranks), the
    neighborhood covariances and their ``eigh`` run in row blocks of
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
