"""Synthetic indoor spaces with known ground-truth surfaces.

Each space is an axis-aligned room shell (floor, four walls, optional
ceiling) plus box and cylinder clutter, sampled uniformly at a configurable
surface density with true normals. Room and box faces are recorded as
ground-truth planes so fitting and projection can be checked exactly;
optional Gaussian noise displaces points along their normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud

__all__ = [
    "SpaceTruth",
    "SyntheticSpaceSpec",
    "default_space_specs",
    "generate_space",
    "generate_space_with_truth",
]


@dataclass(frozen=True)
class SyntheticSpaceSpec:
    extents: tuple[float, float, float] = (4.0, 5.0, 2.5)
    ceiling: bool = True
    clutter_count: tuple[int, int] = (3, 6)         # inclusive range
    clutter_size: tuple[float, float] = (0.7, 1.5)  # edge / diameter range, m
    density: float = 80.0                           # points per square meter
    noise_sigma: float = 0.0                        # along-normal noise, m
    seed: int = 0
    # Man-made interiors repeat furniture; objects come from a prototype
    # catalog shared by every space built with the same catalog seed, so
    # spaces differ in layout rather than in the shapes themselves.
    catalog_seed: int | None = None
    catalog_size: int = 8

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if min(self.extents) <= 0:
            raise ValueError("extents must be positive")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")


@dataclass(frozen=True)
class SpaceTruth:
    """Per-point surface bookkeeping for oracle tests."""

    plane_normals: np.ndarray     # (p, 3) unit normals of planar surfaces
    plane_offsets: np.ndarray     # (p,) with plane n . x = offset
    surface_id: np.ndarray        # (n,) id of the surface each point samples
    planar: np.ndarray            # (n,) True where surface_id is a plane
    n_room_planes: int


class _Builder:
    def __init__(self, rng: np.random.Generator, density: float):
        self.rng = rng
        self.density = density
        self.positions: list[np.ndarray] = []
        self.normals: list[np.ndarray] = []
        self.surface_id: list[np.ndarray] = []
        self.plane_normals: list[np.ndarray] = []
        self.plane_offsets: list[float] = []
        self.planar_flags: list[bool] = []
        self.next_id = 0

    def _count(self, area: float) -> int:
        return max(1, int(round(area * self.density)))

    def rect(self, origin, edge_u, edge_v, normal) -> int:
        origin = np.asarray(origin, float)
        edge_u = np.asarray(edge_u, float)
        edge_v = np.asarray(edge_v, float)
        normal = np.asarray(normal, float)
        area = np.linalg.norm(np.cross(edge_u, edge_v))
        n = self._count(area)
        uv = self.rng.random((n, 2))
        pts = origin + uv[:, :1] * edge_u + uv[:, 1:] * edge_v
        sid = self.next_id
        self.next_id += 1
        self.positions.append(pts)
        self.normals.append(np.tile(normal, (n, 1)))
        self.surface_id.append(np.full(n, sid))
        self.plane_normals.append(normal)
        self.plane_offsets.append(float(normal @ origin))
        self.planar_flags.append(True)
        return sid

    def cylinder_side(self, center_xy, radius, z0, z1) -> int:
        area = 2 * np.pi * radius * (z1 - z0)
        n = self._count(area)
        theta = self.rng.uniform(0, 2 * np.pi, n)
        z = self.rng.uniform(z0, z1, n)
        nx, ny = np.cos(theta), np.sin(theta)
        pts = np.column_stack(
            [center_xy[0] + radius * nx, center_xy[1] + radius * ny, z]
        )
        sid = self.next_id
        self.next_id += 1
        self.positions.append(pts)
        self.normals.append(np.column_stack([nx, ny, np.zeros(n)]))
        self.surface_id.append(np.full(n, sid))
        self.planar_flags.append(False)
        return sid

    def disk(self, center, radius, normal) -> int:
        center = np.asarray(center, float)
        normal = np.asarray(normal, float)
        n = self._count(np.pi * radius**2)
        r = radius * np.sqrt(self.rng.random(n))
        theta = self.rng.uniform(0, 2 * np.pi, n)
        pts = center + np.column_stack(
            [r * np.cos(theta), r * np.sin(theta), np.zeros(n)]
        )
        sid = self.next_id
        self.next_id += 1
        self.positions.append(pts)
        self.normals.append(np.tile(normal, (n, 1)))
        self.surface_id.append(np.full(n, sid))
        self.plane_normals.append(normal)
        self.plane_offsets.append(float(normal @ center))
        self.planar_flags.append(True)
        return sid


def _add_room(b: _Builder, lx: float, ly: float, h: float, ceiling: bool) -> int:
    # Normals face into the room, the side a headset would see.
    b.rect((0, 0, 0), (lx, 0, 0), (0, ly, 0), (0, 0, 1))            # floor
    b.rect((0, 0, 0), (lx, 0, 0), (0, 0, h), (0, 1, 0))             # wall y=0
    b.rect((0, ly, 0), (lx, 0, 0), (0, 0, h), (0, -1, 0))           # wall y=ly
    b.rect((0, 0, 0), (0, ly, 0), (0, 0, h), (1, 0, 0))             # wall x=0
    b.rect((lx, 0, 0), (0, ly, 0), (0, 0, h), (-1, 0, 0))           # wall x=lx
    count = 5
    if ceiling:
        b.rect((0, 0, h), (lx, 0, 0), (0, ly, 0), (0, 0, -1))       # ceiling
        count += 1
    return count


def _catalog(spec: SyntheticSpaceSpec) -> list[tuple]:
    """Prototype shapes shared by spaces with the same catalog seed."""
    rng = np.random.default_rng(spec.catalog_seed)
    lo, hi = spec.clutter_size
    shapes = []
    for _ in range(spec.catalog_size):
        if rng.random() < 0.5:
            shapes.append(("box", *rng.uniform(lo, hi, 3)))
        else:
            shapes.append(("cyl", 0.5 * rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return shapes


def _add_box(b: _Builder, rng: np.random.Generator, room, dims,
             aligned: bool = False) -> None:
    lx, ly, h = room
    sx, sy, sz = dims
    sz = min(sz, h * 0.8)
    # Aligned furniture snaps to the walls' axes and a coarse placement
    # grid, the repeating arrangement typical of man-made interiors.
    if aligned:
        yaw = 0.5 * np.pi * rng.integers(4)
    else:
        yaw = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(yaw), np.sin(yaw)
    ex = np.array([c * sx, s * sx, 0.0])
    ey = np.array([-s * sy, c * sy, 0.0])
    margin = max(sx, sy)
    cx = rng.uniform(margin, max(lx - margin, margin))
    cy = rng.uniform(margin, max(ly - margin, margin))
    if aligned:
        cx, cy = round(cx * 2) / 2, round(cy * 2) / 2
    base = np.array([cx, cy, 0.0]) - 0.5 * ex - 0.5 * ey
    ez = np.array([0.0, 0.0, sz])
    ux = ex / np.linalg.norm(ex)
    uy = ey / np.linalg.norm(ey)
    b.rect(base, ex, ez, -uy)                     # near side
    b.rect(base + ey, ex, ez, uy)                 # far side
    b.rect(base, ey, ez, -ux)                     # left side
    b.rect(base + ex, ey, ez, ux)                 # right side
    b.rect(base + ez, ex, ey, np.array([0, 0, 1.0]))  # top


def _add_cylinder(b: _Builder, rng: np.random.Generator, room, dims,
                  aligned: bool = False) -> None:
    lx, ly, h = room
    radius, height = dims
    height = min(height, h * 0.8)
    cx = rng.uniform(radius, max(lx - radius, radius))
    cy = rng.uniform(radius, max(ly - radius, radius))
    if aligned:
        cx, cy = round(cx * 2) / 2, round(cy * 2) / 2
    b.cylinder_side((cx, cy), radius, 0.0, height)
    b.disk((cx, cy, height), radius, np.array([0, 0, 1.0]))


def generate_space_with_truth(
    spec: SyntheticSpaceSpec, label: str
) -> tuple[PointCloud, SpaceTruth]:
    rng = np.random.default_rng(spec.seed)
    b = _Builder(rng, spec.density)
    lx, ly, h = spec.extents
    n_room = _add_room(b, lx, ly, h, spec.ceiling)
    n_clutter = int(rng.integers(spec.clutter_count[0], spec.clutter_count[1] + 1))
    if spec.catalog_seed is not None:
        catalog = _catalog(spec)
        for _ in range(n_clutter):
            shape = catalog[int(rng.integers(len(catalog)))]
            if shape[0] == "box":
                _add_box(b, rng, spec.extents, shape[1:], aligned=True)
            else:
                _add_cylinder(b, rng, spec.extents, shape[1:], aligned=True)
    else:
        lo, hi = spec.clutter_size
        for _ in range(n_clutter):
            if rng.random() < 0.5:
                _add_box(b, rng, spec.extents, rng.uniform(lo, hi, 3))
            else:
                _add_cylinder(
                    b, rng, spec.extents,
                    (0.5 * rng.uniform(lo, hi), rng.uniform(lo, hi)),
                )

    positions = np.vstack(b.positions)
    normals = np.vstack(b.normals)
    surface_id = np.concatenate(b.surface_id)
    if spec.noise_sigma > 0:
        positions = positions + normals * rng.normal(
            0.0, spec.noise_sigma, len(positions)
        )[:, None]

    planar_by_surface = np.asarray(b.planar_flags, dtype=bool)
    plane_rows = np.flatnonzero(planar_by_surface)
    # Re-index plane ids densely; nonplanar surfaces map to -1.
    remap = np.full(b.next_id, -1, dtype=np.intp)
    remap[plane_rows] = np.arange(len(plane_rows))
    truth = SpaceTruth(
        plane_normals=np.asarray(
            [b.plane_normals[i] for i in range(len(b.plane_normals))]
        ),
        plane_offsets=np.asarray(b.plane_offsets),
        surface_id=remap[surface_id],
        planar=planar_by_surface[surface_id],
        n_room_planes=n_room,
    )
    cloud = PointCloud(positions, normals, label)
    return cloud, truth


def generate_space(spec: SyntheticSpaceSpec, label: str) -> PointCloud:
    """Sampled space with true surface normals; deterministic per seed."""
    cloud, _ = generate_space_with_truth(spec, label)
    return cloud


def default_space_specs(
    seed: int, density: float, noise_sigma: float
) -> dict[str, SyntheticSpaceSpec]:
    """Seven room-scale spaces: near-uniform shells, shared furniture catalog.

    Man-made interiors repeat both architecture and furnishings, so the
    spaces differ mainly in how many catalog objects they hold and where;
    that is what makes partial views ambiguous and full layouts distinctive.
    """
    shapes = [
        ((6.0, 7.0, 2.6), (8, 12)),
        ((6.5, 6.5, 2.6), (9, 13)),
        ((7.0, 6.0, 2.6), (10, 14)),
        ((6.0, 6.5, 2.6), (7, 11)),
        ((6.5, 7.0, 2.6), (9, 13)),
        ((7.0, 6.5, 2.6), (8, 12)),
        ((6.5, 7.5, 2.6), (10, 14)),
    ]
    specs = {}
    for i, (extents, clutter) in enumerate(shapes):
        specs[f"space{i}"] = SyntheticSpaceSpec(
            extents=extents,
            clutter_count=clutter,
            density=density,
            noise_sigma=noise_sigma,
            seed=seed * 1009 + i,
            catalog_seed=seed,
        )
    return specs
