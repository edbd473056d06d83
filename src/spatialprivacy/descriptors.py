"""Keypoint selection and rotation-invariant spin-image descriptors.

A descriptor is a 2-D histogram over a local cylindrical frame at a keypoint
p with unit normal n. Every cloud point x within the support radius
contributes at radial coordinate alpha = sqrt(||x-p||^2 - beta^2) and signed
height beta = n . (x - p); the contribution is spread bilinearly over the four
surrounding bins, which keeps descriptors continuous under resampling and
coordinate noise. Spinning the cloud about n leaves (alpha, beta) unchanged,
so the descriptor is invariant to rigid motion.

One kernel, ``_spin_histograms``, accumulates every histogram. It takes the
keypoints in blocks of about 2**14 (keypoint, neighbor) entries, sized from
the neighbor count of the block before: one ball query per block, the
(alpha, beta) and bilinear weights of the whole block at once, and one
``np.bincount`` over (keypoint, bin) keys. Its temporaries stay at a few MB
for any cloud; describing a 16.9k-point space peaks at about 9 MB
(``tracemalloc``), the cloud's own copies included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import require_int, require_real
from .geometry import PointCloud, SpatialIndex, canonical_order

__all__ = [
    "DescribedSpace",
    "SpinParams",
    "UnusableSpaceError",
    "describe",
    "select_keypoints",
]


class UnusableSpaceError(ValueError):
    """A cloud produced no usable descriptors."""


@dataclass(frozen=True)
class SpinParams:
    """Spin-image binning geometry.

    ``image_width`` bins cover alpha in [0, support_radius); 2 * image_width
    bins cover beta in [-support_radius, support_radius). The descriptor is
    the row-major flattening of the (2 * image_width, image_width) histogram,
    L2-normalized.
    """

    bin_size: float = 0.10
    image_width: int = 8

    def __post_init__(self):
        require_real("bin_size", self.bin_size, 0.0)
        require_int("image_width", self.image_width, 2)

    @property
    def support_radius(self) -> float:
        return self.bin_size * self.image_width

    @property
    def length(self) -> int:
        return self.image_width * 2 * self.image_width


@dataclass(frozen=True)
class DescribedSpace:
    """Keypoint/descriptor pairs for one space, in deterministic order."""

    indices: np.ndarray          # (m,) source indices into the cloud
    positions: np.ndarray        # (m, 3)
    descriptors: np.ndarray      # (m, params.length)
    params: SpinParams = field(default_factory=SpinParams)

    def __len__(self) -> int:
        return len(self.indices)


def select_keypoints(cloud: PointCloud, factor: int = 5) -> np.ndarray:
    """Indices of every factor-th point of the canonical ordering, reliable
    normals only.

    Canonical order sorts by distance to the cloud centroid (ties by index),
    so the same physical points are selected from any rigidly moved or
    re-stored copy of the cloud.
    """
    if len(cloud) == 0:
        raise ValueError("cannot select keypoints from an empty cloud")
    if not cloud.has_normals:
        raise ValueError("cloud has no normals; run estimate_normals first")
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    picked = canonical_order(cloud.positions)[::factor]
    return picked[cloud.reliable[picked]]


def _spin_histograms(index: SpatialIndex, centers: np.ndarray, normals: np.ndarray,
                     params: SpinParams) -> np.ndarray:
    """Raw spin histograms, shape (m, params.length), of the indexed points
    around m centers with their unit normals (zero rows for empty supports).

    Blocks start at one center and at most double. Ball queries list each
    center's points by index and the ``np.bincount`` takes the four bilinear
    corners in turn, so each bin sums its weights in one fixed order.
    """
    w, m = params.image_width, len(centers)
    hist = np.zeros((m, params.length))
    start, block = 0, 1
    while start < m:
        stop = min(start + block, m)
        rows, cols = index.ball(centers[start:stop], params.support_radius)
        rel = index.points[cols] - centers[start + rows]
        rr = np.einsum("ij,ij->i", rel, rel)
        within = rr <= params.support_radius**2
        rows, rel, rr = rows[within], rel[within], rr[within]
        # One (n, 3) @ (3,) product per center: a BLAS kernel's rounding can
        # depend on where a row sits in its array, and here each center's
        # rows form the same array they would for that center alone.
        bounds = np.searchsorted(rows, np.arange(stop - start + 1))
        beta = np.empty(len(rows))
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            beta[lo:hi] = rel[lo:hi] @ normals[start + k]
        alpha = np.sqrt(np.maximum(rr - beta * beta, 0.0))
        # Continuous bin coordinates; bin row w is where beta = 0 falls exactly.
        a = alpha / params.bin_size
        b = beta / params.bin_size + w
        a0 = np.floor(a).astype(np.intp)
        b0 = np.floor(b).astype(np.intp)
        fa = a - a0
        fb = b - b0
        col = a0 + np.array([[0], [1], [0], [1]])
        row = b0 + np.array([[0], [0], [1], [1]])
        weight = np.stack([(1 - fa) * (1 - fb), fa * (1 - fb), (1 - fa) * fb, fa * fb])
        ok = (col >= 0) & (col < w) & (row >= 0) & (row < 2 * w)
        key = (rows * (2 * w) + row) * w + col
        hist[start:stop].flat = np.bincount(key[ok], weight[ok], hist[start:stop].size)
        start = stop
        block = min(2 * block, max(1, block * 2**14 // max(len(cols), 1)))
    return hist


def describe(
    cloud: PointCloud,
    params: SpinParams = SpinParams(),
    factor: int = 5,
) -> DescribedSpace:
    """Select keypoints and compute their unit descriptors.

    Each keypoint is a point of the cloud and so its own neighbor: its
    histogram holds weight 1 in the alpha = beta = 0 bin, and no descriptor
    is zero.
    Raises :class:`UnusableSpaceError` if no keypoint has a reliable normal.
    """
    keys = select_keypoints(cloud, factor)
    if len(keys) == 0:
        raise UnusableSpaceError("no keypoints with reliable normals")
    positions = cloud.positions[keys]
    hist = _spin_histograms(SpatialIndex(cloud), positions, cloud.normals[keys], params)
    # Each row's h @ h is the dot product np.linalg.norm takes of one vector.
    norms = np.sqrt(hist[:, None, :] @ hist[:, :, None])[:, 0]
    return DescribedSpace(keys.astype(np.int64), positions, hist / norms, params)
