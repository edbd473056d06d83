"""Two-level spatial inference from descriptor matching.

The adversary holds a reference ensemble: per known space, one pool stacking
the descriptors of the raw capture and one or more plane-generalized variants,
and the spin-image settings that built them, which describe every query too.
Inference runs in two stages. Inter-space matching 2-nn matches every query
descriptor against each label's pool, scores the label by ``(1 - mean kept
NNDR) * kept_fraction``, and picks the argmax. Intra-space matching then keeps
only geometrically consistent keypoint pairs (pairwise distances and internal
angles of the matched complete graphs must agree) and reports the centroid of
the surviving reference keypoints as the location hypothesis.

:func:`infer` is the one entry point of the attack. A caller attacking many
query clouds describes them first and passes their descriptions to
:func:`two_nn`, which 2-nn matches the rows of all of them in one
``knn_bruteforce`` call, one large GEMM instead of many small ones; each
cloud's ``infer`` call then takes its description and neighbours, and the
results are bitwise those of a lone call.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._checks import require_real
from .descriptors import (DescribedSpace, SpinParams, UnusableSpaceError, describe,
                          select_keypoints)
from .geometry import PackedRows, PointCloud, knn_bruteforce, ranking_copy
from .mechanisms import GeneralizationParams, project_to_planes, ransac_planes

__all__ = [
    "AttackParams",
    "CacheFormatError",
    "Hypothesis",
    "InterSpaceResult",
    "IntraSpaceResult",
    "ReferenceEnsemble",
    "build_reference",
    "load_ensemble",
    "match_inter",
    "match_intra",
    "infer",
    "raw_view",
    "save_ensemble",
    "two_nn",
]


_BLOCK_EDGES = 1 << 15  # edges per match_intra row block


@dataclass(frozen=True)
class AttackParams:
    """The adversary's thresholds; ``nndr_threshold=None`` keeps every match
    as a candidate of :func:`match_inter`, with no NNDR pre-filter."""

    nndr_threshold: float | None = None  # pre-filter matches at NNDR < nndr_threshold
    t1: float = 0.9               # NNDR gate before the geometric check
    t2: float = 0.95              # combined geometric similarity gate

    def __post_init__(self):
        for name in ("nndr_threshold", "t1", "t2"):
            if name != "nndr_threshold" or self.nndr_threshold is not None:
                require_real(name, getattr(self, name), 0.0, closed=True)


@dataclass(frozen=True)
class _LabelPool:
    """One label's stacked descriptors, packed, and keypoint positions."""

    descriptors: PackedRows
    positions: np.ndarray


class ReferenceEnsemble:
    """Per-label descriptor pools and the spin-image settings that built them.

    Each label's pool stacks the descriptors and keypoint positions of its
    raw and generalized variants, the raw variant first: its rows lead the
    pool in :func:`describe`'s keypoint order, so :func:`raw_view` reads a
    space's raw description back without describing it. Each pool's
    descriptors must be a :class:`PackedRows` store. Spin images are mostly
    zero (a third to two fifths of the entries are not, on the synthetic
    rooms), so at 128 bins a store takes 24 bytes per row plus 8 per nonzero
    entry, under half the dense rows; the exact kNN makes dense only the
    rows it compares. Every pool holds at least two rows, so
    :func:`match_inter` can 2-nn match in each; ``ValueError`` names a label
    whose pool is not packed or holds fewer. ``prepared`` caches
    the pools' grouped ranking copy (:func:`ranking_copy`), which every
    query's ``knn_bruteforce`` would otherwise recompute; at half the dense
    descriptors' size, it is the ensemble's largest part. Every value must
    be finite: a NaN row would be every query's neighbour at distance NaN,
    which the NNDR reads as a perfect match.
    :func:`infer` describes queries with ``params`` and ``factor``.
    Immutable after construction; concurrent matching against it is safe.
    """

    def __init__(self, pools: dict[str, tuple[PackedRows, np.ndarray]],
                 params: SpinParams, factor: int):
        if not pools or factor < 1:
            raise ValueError("ensemble needs at least one label and a factor >= 1")
        self._pools = {}
        for label, (descriptors, positions) in pools.items():
            if not isinstance(descriptors, PackedRows):
                raise ValueError(f"label {label!r} descriptors are not a PackedRows store")
            shape = (len(descriptors), descriptors.dim)
            if shape[1] != params.length or shape[0] < 2 or positions.shape != (shape[0], 3):
                raise ValueError(f"label {label!r} has {shape} descriptors and "
                                 f"{positions.shape} positions; it needs at least 2 rows "
                                 f"of width {params.length}")
            if not (np.isfinite(descriptors.values).all() and np.isfinite(positions).all()):
                raise ValueError(f"label {label!r} has non-finite descriptors or positions")
            self._pools[label] = _LabelPool(descriptors, positions)
        self.labels = list(pools)
        self.params = params
        self.factor = factor
        self.prepared = ranking_copy([self._pools[label].descriptors for label in self.labels])

    def pool(self, label: str) -> _LabelPool:
        return self._pools[label]


@dataclass(frozen=True)
class MatchedPairs:
    """Accepted one-to-one keypoint matches between a query and one label."""

    query_indices: np.ndarray      # indices into the query's keypoints
    reference_indices: np.ndarray  # indices into the label's pooled keypoints
    nndr: np.ndarray


@dataclass(frozen=True)
class InterSpaceResult:
    scores: dict[str, float]
    winner: str
    pairs: dict[str, MatchedPairs]


@dataclass(frozen=True)
class IntraSpaceResult:
    abstained: bool
    survivor_mask: np.ndarray | None   # over the pairs passed the t1 gate
    similarity: np.ndarray | None
    centroid: np.ndarray | None


@dataclass(frozen=True)
class Hypothesis:
    label: str
    centroid: np.ndarray | None
    abstained: bool
    inter: InterSpaceResult
    intra: IntraSpaceResult
    query: DescribedSpace        # the described query the matches index into


def match_inter(ensemble: ReferenceEnsemble, query: DescribedSpace,
                params: AttackParams = AttackParams(),
                neighbours: tuple[np.ndarray, np.ndarray] | None = None) -> InterSpaceResult:
    """Score every reference label against the query; argmax wins.

    One ``knn_bruteforce`` call 2-nn matches every query descriptor in
    every label's pool. ``neighbours``, if given, is that call's
    ``(distances, indices)``, each ``(len(ensemble.labels), len(query), 2)``,
    computed by the caller, as :func:`two_nn` does for many queries at
    once; the exact kNN ranks each row on its own, so they are bitwise the
    rows this call would compute. Per label, each query keypoint gets its
    NNDR (0 for the 0/0 of exact duplicates: closer is better); with
    ``params.nndr_threshold`` set, only those below it stay candidates.
    Each reference keypoint keeps the candidate of lowest NNDR (ties by
    lower query index), and the label scores ``(1 - mean kept NNDR) * kept
    / len(query)``. A label that keeps no pair scores zero. Ties go to the
    label that comes first in ensemble order. The query must be described
    with the ensemble's spin-image settings.
    """
    n_query = len(query)
    if n_query == 0:
        raise ValueError("query has no descriptors")
    if query.params != ensemble.params:
        raise ValueError(f"query described with {query.params}, "
                         f"ensemble with {ensemble.params}")
    empty = MatchedPairs(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    scores = dict.fromkeys(ensemble.labels, 0.0)
    pairs = dict.fromkeys(ensemble.labels, empty)
    dist, idx = _ranked_knn(ensemble, query.descriptors) if neighbours is None else neighbours
    second = dist[:, :, 1].ravel()
    nndr = np.divide(dist[:, :, 0].ravel(), second, out=np.zeros(len(second)),
                     where=second > 0)
    # One candidate per (label, query keypoint). Per label and reference
    # keypoint, keep the first in (label, NNDR, query index) order.
    candidates = np.arange(len(nndr))
    if params.nndr_threshold is not None:
        candidates = candidates[nndr < params.nndr_threshold]
    group, query_idx = np.divmod(candidates, n_query)
    order = np.lexsort((query_idx, nndr[candidates], group))
    ordered = candidates[order]
    refs = idx[:, :, 0].ravel()
    width = max(len(ensemble.pool(label).descriptors) for label in ensemble.labels)
    _, first = np.unique(group[order] * width + refs[ordered], return_index=True)
    kept = ordered[np.sort(first)]
    group, query_idx = np.divmod(kept, n_query)
    kept_nndr = nndr[kept]
    bounds = np.searchsorted(group, np.arange(len(ensemble.labels) + 1))
    for label, lo, hi in zip(ensemble.labels, bounds[:-1], bounds[1:]):
        if hi > lo:
            # Each label's own mean, as a lone array of its NNDRs sums.
            scores[label] = float((1.0 - kept_nndr[lo:hi].mean()) * ((hi - lo) / n_query))
            pairs[label] = MatchedPairs(query_idx[lo:hi], refs[kept[lo:hi]],
                                        kept_nndr[lo:hi])
    winner = max(ensemble.labels, key=lambda lab: scores[lab])
    return InterSpaceResult(scores, winner, pairs)


def _ranked_knn(ensemble: ReferenceEnsemble, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each descriptor row's 2 nearest neighbours in every label's pool."""
    return knn_bruteforce([ensemble.pool(label).descriptors for label in ensemble.labels],
                          rows, k=2, prepared=ensemble.prepared)


def two_nn(ensemble: ReferenceEnsemble,
           described_list: list[DescribedSpace]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each described query's 2-nn ``(distances, indices)`` over every
    label's pool, as :func:`match_inter` takes them. One ``knn_bruteforce``
    call ranks the bit-distinct rows of all the queries, so a row that
    several queries share is ranked once; the caller bounds the rows of one
    call, which set the memory it holds. A lone query needs no dedup:
    :func:`match_inter` ranks its rows itself."""
    if not described_list:
        return []
    rows = np.concatenate([d.descriptors for d in described_list])
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    dist, idx = _ranked_knn(ensemble, rows[first])
    bounds = np.cumsum([0] + [len(d) for d in described_list])
    return [(dist[:, inverse[lo:hi]], idx[:, inverse[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def match_intra(query_positions: np.ndarray, reference_positions: np.ndarray,
                nndr: np.ndarray,
                params: AttackParams = AttackParams()) -> IntraSpaceResult:
    """Geometric consistency check over matched keypoint pairs.

    Pairs first pass the NNDR < t1 gate; fewer than three survivors means
    no geometry to check, so the matcher abstains. Each surviving vertex gets
    a distance similarity (mean of exp(-0.5 |edge length difference|) over its
    edges) and an angular similarity; their product must reach t2. The
    hypothesis is the centroid of the accepted reference keypoints.

    The n gated vertices go in row blocks of ``max(1, 2**15 // n)``, about
    2**15 edges each: O(n^2) time, O(2**15 + n) memory, about 2.9 MB for a
    self-query's 1055 pairs (``tracemalloc``). A block's
    (2, 3, B, n) array holds the query and reference edges from each vertex
    to every vertex. Their lengths give the distance term. Normalised, their
    3x3 gram products give the angle term: two vertices' angle-cosine sets
    (one cosine per unordered pair of incident edges) have inner product
    (|Uq^T Ur|_F^2 - (n - 1)) / 2. The zero-length self edge normalises to
    zero and adds nothing.
    """
    gate = np.asarray(nndr, dtype=np.float64) < params.t1
    n = int(gate.sum())
    if n < 3:
        return IntraSpaceResult(True, None, None, None)
    r = np.asarray(reference_positions, dtype=np.float64)[gate]
    points = np.stack([np.asarray(query_positions, dtype=np.float64)[gate].T, r.T])
    block = min(n, max(1, _BLOCK_EDGES // n))
    buf = np.empty(6 * block * n)
    similarity = np.empty(n)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        edges = np.subtract(points[:, :, None, :], points[:, :, rows, None],
                            out=buf[:6 * len(rows) * n].reshape(2, 3, len(rows), n))
        # In place where possible: these temporaries set a self-query's peak.
        length = np.einsum("kcbj,kcbj->kbj", edges, edges)
        np.sqrt(length, out=length)
        edge_sim = np.subtract(length[0], length[1])
        np.abs(edge_sim, out=edge_sim)
        edge_sim *= -0.5
        np.exp(edge_sim, out=edge_sim)
        edge_sim[np.arange(len(rows)), rows] = 0.0
        edges /= np.maximum(length, 1e-300, out=length)[:, None]
        stacked = edges.reshape(6, len(rows), n).transpose(1, 0, 2)
        gram = np.square(stacked @ stacked.transpose(0, 2, 1))
        fro = (gram.reshape(-1, 2, 3, 2, 3).sum(axis=(2, 4)) - (n - 1)) / 2.0
        dot_qr, norm_q, norm_r = fro[:, 0, 1], fro[:, 0, 0], fro[:, 1, 1]
        # Two empty angle sets agree; one empty set matches nothing.
        s_angle = np.where((norm_q > 0) | (norm_r > 0), 0.0, 1.0)
        both = (norm_q > 0) & (norm_r > 0)
        s_angle[both] = dot_qr[both] / np.sqrt(norm_q[both] * norm_r[both])
        similarity[rows] = edge_sim.sum(axis=1) / (n - 1) * s_angle
    survivors = similarity >= params.t2
    if not np.any(survivors):
        return IntraSpaceResult(True, survivors, similarity, None)
    return IntraSpaceResult(False, survivors, similarity, r[survivors].mean(axis=0))


def infer(ensemble: ReferenceEnsemble, query: PointCloud,
          params: AttackParams = AttackParams(),
          described: DescribedSpace | None = None,
          neighbours: tuple[np.ndarray, np.ndarray] | None = None) -> Hypothesis:
    """Two-level inference for one query cloud: :func:`match_inter` picks
    the label, then :func:`match_intra` checks its pairs against that
    label's pool. The query is described with the ensemble's spin-image
    settings and keypoint factor (``UnusableSpaceError`` if no keypoint
    is reliable), unless ``described`` is that description already, as
    :func:`raw_view` gives it. ``neighbours``, if given, are its 2-nn rows
    from :func:`two_nn`, which :func:`match_inter` then reads, not computes.
    """
    if described is None:
        described = describe(query, ensemble.params, ensemble.factor)
    inter = match_inter(ensemble, described, params, neighbours)
    matched = inter.pairs[inter.winner]
    pool = ensemble.pool(inter.winner)
    intra = match_intra(described.positions[matched.query_indices],
                        pool.positions[matched.reference_indices], matched.nndr, params)
    return Hypothesis(inter.winner, intra.centroid, intra.abstained, inter, intra, described)


def raw_view(ensemble: ReferenceEnsemble, space: PointCloud) -> DescribedSpace:
    """``describe(space, ensemble.params, ensemble.factor)`` as the pool of
    ``space.label`` already holds it, if the ensemble was built from this
    space: the pool's first rows, one per keypoint of
    :func:`select_keypoints`. The descriptors are those rows alone, read
    with :meth:`PackedRows.dense`; the positions are a view of the pool's.

    Nothing here checks that the rows are this space's; a pool built from
    another cloud yields that cloud's rows. Raises ``KeyError`` for a label
    the ensemble lacks and ``ValueError`` for a pool with fewer rows than
    the space has keypoints.
    """
    keys = select_keypoints(space, ensemble.factor)
    pool = ensemble.pool(space.label)
    if len(keys) > len(pool.descriptors):
        raise ValueError(f"pool of {space.label!r} holds {len(pool.descriptors)} rows, "
                         f"fewer than its {len(keys)} raw keypoints")
    return DescribedSpace(keys.astype(np.int64), pool.positions[:len(keys)],
                          pool.descriptors.dense(slice(len(keys))), ensemble.params)


def build_reference(
    spaces: list[PointCloud],
    variant_params: tuple[GeneralizationParams, ...] = (GeneralizationParams(),),
    desc_params: SpinParams = SpinParams(),
    factor: int = 5,
    seed: int = 0,
    map_fn=map,
) -> ReferenceEnsemble:
    """Describe each labeled space raw plus one generalized variant per spec.

    Variant seeds derive deterministically from the master seed, the space's
    position in the list, and the variant index, so rebuilding yields an
    identical ensemble. ``map_fn`` maps the per-space work over the spaces
    and returns the results in order, as the builtin ``map`` does or an
    executor's ``map`` across threads; the ensemble does not depend on it.
    A space that cannot be described, or whose variants give fewer than two
    descriptor rows in all, raises :class:`UnusableSpaceError`. Each
    variant's descriptors are packed as soon as it is described, and each
    label's packed variants are stacked into its pool, so no dense pool is
    ever stacked.
    """
    labels = [space.label for space in spaces]
    seen: set[str] = set()
    for label in labels:
        if label is None:
            raise ValueError("every reference space needs a label")
        if label in seen:
            raise ValueError(f"duplicate space label {label!r}")
        seen.add(label)

    def described(space_idx: int, space: PointCloud):
        # The raw variant first: raw_view reads it back from there.
        yield describe(space, desc_params, factor)
        for v_idx, gen in enumerate(variant_params):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(space_idx, v_idx))
            )
            planes = ransac_planes(space, gen, rng)
            yield describe(project_to_planes(space, planes), desc_params, factor)

    def pool_of(space_idx: int, space: PointCloud) -> tuple[PackedRows, np.ndarray]:
        variants = [(PackedRows.pack(v.descriptors), v.positions)
                    for v in described(space_idx, space)]
        descriptors = PackedRows.concat([d for d, _ in variants])
        if len(descriptors) < 2:
            raise UnusableSpaceError(f"one descriptor row in {space.label}; "
                                     f"2-nn matching needs at least 2")
        return descriptors, np.vstack([p for _, p in variants])

    pools = dict(zip(labels, map_fn(pool_of, range(len(spaces)), spaces)))
    return ReferenceEnsemble(pools, desc_params, factor)


_ENSEMBLE_MAGIC = b"SPEN"
_ENSEMBLE_VERSION = 2


class CacheFormatError(ValueError):
    """An ensemble cache file has the wrong magic or version, is cut short,
    has bytes after its end, or holds values that do not fit together."""


def _write_array(fh, arr: np.ndarray, dtype: str) -> None:
    data = np.ascontiguousarray(arr, dtype=dtype)
    fh.write(struct.pack("<BI", len(data.shape), data.size))
    fh.write(struct.pack(f"<{len(data.shape)}I", *data.shape))
    fh.write(data.tobytes())


def _read(fh, size: int) -> bytes:
    # Checked before reading: a corrupt size must not allocate its bytes.
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CacheFormatError("cache file is cut short")
    return fh.read(size)


def _read_array(fh, dtype: str) -> np.ndarray:
    ndim, size = struct.unpack("<BI", _read(fh, 5))
    shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
    itemsize = np.dtype(dtype).itemsize
    if size != math.prod(shape):
        raise CacheFormatError(f"cache array of shape {shape} holds {size} values")
    data = np.frombuffer(_read(fh, size * itemsize), dtype=dtype, count=size)
    return data.reshape(shape).copy()


@contextmanager
def _cache_reader(path):
    """The open ensemble file past its magic and version, which must be this
    module's; it must end where the reading ends."""
    with open(path, "rb") as fh:
        if _read(fh, 4) != _ENSEMBLE_MAGIC:
            raise CacheFormatError(f"cache file does not start with {_ENSEMBLE_MAGIC!r}")
        (found,) = struct.unpack("<I", _read(fh, 4))
        if found != _ENSEMBLE_VERSION:
            raise CacheFormatError(f"unsupported {_ENSEMBLE_MAGIC!r} cache version {found}")
        yield fh
        if fh.read(1):
            raise CacheFormatError("cache file has bytes after its end")


def _write_text(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_text(fh) -> str:
    (size,) = struct.unpack("<I", _read(fh, 4))
    return _read(fh, size).decode("utf-8")


def save_ensemble(ensemble: ReferenceEnsemble, path) -> None:
    """Write the magic, version, bin size, image width, factor and label
    count, then per label its name, descriptors and positions, the
    descriptors dense (:meth:`PackedRows.dense`), one label's at a time."""
    params = ensemble.params
    with open(path, "wb") as fh:
        fh.write(_ENSEMBLE_MAGIC)
        fh.write(struct.pack("<IdIII", _ENSEMBLE_VERSION, params.bin_size,
                             params.image_width, ensemble.factor, len(ensemble.labels)))
        for label in ensemble.labels:
            _write_text(fh, label)
            _write_array(fh, ensemble.pool(label).descriptors.dense(), "<f8")
            _write_array(fh, ensemble.pool(label).positions, "<f8")


def load_ensemble(path) -> ReferenceEnsemble:
    """The ensemble :func:`save_ensemble` wrote; a malformed or inconsistent
    file raises :class:`CacheFormatError`."""
    try:
        with _cache_reader(path) as fh:
            bin_size, width, factor, n_labels = struct.unpack("<dIII", _read(fh, 20))
            pools: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for _ in range(n_labels):
                label = _read_text(fh)
                if label in pools:
                    raise CacheFormatError(f"repeated label {label!r}")
                pools[label] = (PackedRows.pack(_read_array(fh, "<f8")),
                                _read_array(fh, "<f8"))
            return ReferenceEnsemble(pools, SpinParams(bin_size, width), factor)
    except ValueError as err:
        raise CacheFormatError(f"ensemble cache: {err}") from err
