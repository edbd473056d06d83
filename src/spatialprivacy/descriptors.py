"""Keypoint selection and rotation-invariant spin-image descriptors.

A descriptor is a 2-D histogram over a local cylindrical frame at a keypoint
p with unit normal n. Every cloud point x within the support radius
contributes at radial coordinate alpha = sqrt(||x-p||^2 - beta^2) and signed
height beta = n . (x - p); the contribution is spread bilinearly over the four
surrounding bins, which keeps descriptors continuous under resampling and
coordinate noise. Spinning the cloud about n leaves (alpha, beta) unchanged,
so the descriptor is invariant to rigid motion.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud, SpatialIndex, canonical_order

__all__ = [
    "CacheFormatError",
    "DescribedSpace",
    "KeyPoint",
    "SpinParams",
    "UnusableSpaceError",
    "describe",
    "load_described",
    "save_described",
    "select_keypoints",
    "spin_image",
]


class UnusableSpaceError(ValueError):
    """A cloud produced no usable descriptors."""


class CacheFormatError(ValueError):
    """A cache file has the wrong magic or version, is cut short, or has
    bytes after its end."""


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
        if self.bin_size <= 0:
            raise ValueError("bin_size must be positive")
        if self.image_width < 2:
            raise ValueError("image_width must be >= 2")

    @property
    def support_radius(self) -> float:
        return self.bin_size * self.image_width

    @property
    def length(self) -> int:
        return self.image_width * 2 * self.image_width


@dataclass(frozen=True)
class KeyPoint:
    """A selected oriented point, remembering its index in the source cloud."""

    index: int
    position: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class DescribedSpace:
    """Keypoint/descriptor pairs for one space, in deterministic order."""

    label: str
    indices: np.ndarray          # (m,) source indices into the cloud
    positions: np.ndarray        # (m, 3)
    normals: np.ndarray          # (m, 3)
    descriptors: np.ndarray      # (m, params.length)
    params: SpinParams = field(default_factory=SpinParams)

    def __len__(self) -> int:
        return len(self.indices)


def select_keypoints(cloud: PointCloud, factor: int = 5) -> list[KeyPoint]:
    """Every factor-th point of the canonical ordering, reliable normals only.

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
    order = canonical_order(cloud.positions)
    picked = order[::factor]
    if cloud.reliable is not None:
        picked = picked[cloud.reliable[picked]]
    return [
        KeyPoint(int(i), cloud.positions[i], cloud.normals[i]) for i in picked
    ]


def _spin_accumulate(rel: np.ndarray, normal: np.ndarray, params: SpinParams) -> np.ndarray:
    """Raw (unnormalized) spin histogram for relative point offsets ``rel``."""
    w = params.image_width
    beta = rel @ normal
    alpha_sq = np.einsum("ij,ij->i", rel, rel) - beta * beta
    alpha = np.sqrt(np.maximum(alpha_sq, 0.0))
    # Continuous bin coordinates; row w is where beta = 0 falls exactly.
    a = alpha / params.bin_size
    b = beta / params.bin_size + w
    a0 = np.floor(a).astype(np.intp)
    b0 = np.floor(b).astype(np.intp)
    fa = a - a0
    fb = b - b0
    hist = np.zeros((2 * w, w), dtype=np.float64)
    flat = hist.ravel()
    for da, db, weight in (
        (0, 0, (1 - fa) * (1 - fb)),
        (1, 0, fa * (1 - fb)),
        (0, 1, (1 - fa) * fb),
        (1, 1, fa * fb),
    ):
        col = a0 + da
        row = b0 + db
        ok = (col >= 0) & (col < w) & (row >= 0) & (row < 2 * w) & (weight > 0)
        if np.any(ok):
            np.add.at(flat, row[ok] * w + col[ok], weight[ok])
    return hist


def _spin_vector(rel: np.ndarray, normal: np.ndarray, params: SpinParams) -> np.ndarray:
    """Unit descriptor over the offsets ``rel`` that lie in the support."""
    within = np.einsum("ij,ij->i", rel, rel) <= params.support_radius**2
    vec = _spin_accumulate(rel[within], normal, params).ravel()
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def spin_image(keypoint: KeyPoint, cloud: PointCloud, params: SpinParams = SpinParams()) -> np.ndarray:
    """Descriptor vector for one keypoint; zero vector if support is empty."""
    return _spin_vector(cloud.positions - keypoint.position,
                        np.asarray(keypoint.normal, float), params)


def describe(
    cloud: PointCloud,
    params: SpinParams = SpinParams(),
    factor: int = 5,
    label: str | None = None,
) -> DescribedSpace:
    """Select keypoints and compute their descriptors.

    Keypoints whose descriptor comes out all-zero are dropped; if nothing
    survives, the space is unusable and :class:`UnusableSpaceError` is raised.
    """
    keypoints = select_keypoints(cloud, factor)
    if not keypoints:
        raise UnusableSpaceError("no keypoints with reliable normals")
    index = SpatialIndex(cloud)
    descs = np.zeros((len(keypoints), params.length))
    for row, kp in enumerate(keypoints):
        neigh = index.ball(kp.position, params.support_radius)
        descs[row] = _spin_vector(cloud.positions[neigh] - kp.position, kp.normal, params)
    keep = np.flatnonzero(np.einsum("ij,ij->i", descs, descs) > 0)
    if len(keep) == 0:
        raise UnusableSpaceError("all descriptors are zero; cloud too sparse")
    return DescribedSpace(
        label=label if label is not None else (cloud.label or ""),
        indices=np.array([keypoints[i].index for i in keep], dtype=np.int64),
        positions=np.array([keypoints[i].position for i in keep]),
        normals=np.array([keypoints[i].normal for i in keep]),
        descriptors=descs[keep],
        params=params,
    )


_CACHE_MAGIC = b"SPDC"
_CACHE_VERSION = 1


def _write_array(fh, arr: np.ndarray, dtype: str) -> None:
    data = np.ascontiguousarray(arr, dtype=dtype)
    fh.write(struct.pack("<BI", len(data.shape), data.size))
    fh.write(struct.pack(f"<{len(data.shape)}I", *data.shape))
    fh.write(data.tobytes())


def _read(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CacheFormatError("cache file is cut short")
    return data


def _read_array(fh, dtype: str) -> np.ndarray:
    ndim, size = struct.unpack("<BI", _read(fh, 5))
    shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
    itemsize = np.dtype(dtype).itemsize
    data = np.frombuffer(_read(fh, size * itemsize), dtype=dtype, count=size)
    return data.reshape(shape).copy()


@contextmanager
def _cache_reader(path):
    """The open cache file; it must end where the reading ends."""
    with open(path, "rb") as fh:
        yield fh
        if fh.read(1):
            raise CacheFormatError("cache file has bytes after its end")


def save_described(space: DescribedSpace, path) -> None:
    """Write a described space to a little-endian binary cache file."""
    with open(path, "wb") as fh:
        _dump_described(space, fh)


def _dump_described(space: DescribedSpace, fh) -> None:
    fh.write(_CACHE_MAGIC)
    fh.write(struct.pack("<I", _CACHE_VERSION))
    label = space.label.encode("utf-8")
    fh.write(struct.pack("<I", len(label)))
    fh.write(label)
    fh.write(struct.pack("<dI", space.params.bin_size, space.params.image_width))
    _write_array(fh, space.indices, "<i8")
    _write_array(fh, space.positions, "<f8")
    _write_array(fh, space.normals, "<f8")
    _write_array(fh, space.descriptors, "<f8")


def load_described(path) -> DescribedSpace:
    with _cache_reader(path) as fh:
        return _load_described(fh)


def _load_described(fh) -> DescribedSpace:
    if _read(fh, 4) != _CACHE_MAGIC:
        raise CacheFormatError("not a descriptor cache file")
    (version,) = struct.unpack("<I", _read(fh, 4))
    if version != _CACHE_VERSION:
        raise CacheFormatError(f"unsupported descriptor cache version {version}")
    (label_len,) = struct.unpack("<I", _read(fh, 4))
    label = _read(fh, label_len).decode("utf-8")
    bin_size, image_width = struct.unpack("<dI", _read(fh, 12))
    return DescribedSpace(
        label=label,
        indices=_read_array(fh, "<i8"),
        positions=_read_array(fh, "<f8"),
        normals=_read_array(fh, "<f8"),
        descriptors=_read_array(fh, "<f8"),
        params=SpinParams(bin_size, image_width),
    )
