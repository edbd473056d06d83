"""PLY point-cloud files: ASCII and binary little-endian, vertices only.

Vertex properties x, y, z (and nx, ny, nz when normals are present) are
stored as 32-bit floats; any face elements are skipped on read since the
pipeline never uses mesh connectivity. A zero-length normal marks a point
whose normal is unreliable.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointCloud

__all__ = ["PlyFormatError", "load_ply", "save_ply"]

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


class PlyFormatError(ValueError):
    """Raised for malformed or unsupported PLY content."""


def _parse_header(fh):
    """Read the header, returning (format, vertex_count, vertex_dtype_fields)."""
    magic = fh.readline().strip()
    if magic != b"ply":
        raise PlyFormatError("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []  # (name, count, [(prop_name, type_code)])
    while True:
        line = fh.readline()
        if not line:
            raise PlyFormatError("unexpected end of file inside header")
        tokens = line.decode("ascii", errors="replace").strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in (
                "ascii",
                "binary_little_endian",
            ):
                raise PlyFormatError(f"unsupported PLY format: {line!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise PlyFormatError(f"bad element line: {line!r}")
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise PlyFormatError("property before any element")
            if len(tokens) != (5 if tokens[1:2] == ["list"] else 3):
                raise PlyFormatError(f"bad property line: {line!r}")
            if tokens[1] == "list":
                elements[-1][2].append((tokens[-1], "list", tokens[2], tokens[3]))
            else:
                if tokens[1] not in _PLY_TYPES:
                    raise PlyFormatError(f"unknown property type {tokens[1]!r}")
                elements[-1][2].append((tokens[2], _PLY_TYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            break
        else:
            raise PlyFormatError(f"unrecognized header line: {line!r}")
    if fmt is None:
        raise PlyFormatError("header missing format line")
    return fmt, elements


def load_ply(path) -> PointCloud:
    """Read a point cloud; normals are attached when nx, ny, nz are declared.

    Faces and unknown vertex properties are ignored. Zero-length normals are
    flagged unreliable. Raises :class:`PlyFormatError` on malformed input,
    non-finite coordinates, or an empty vertex list.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise PlyFormatError("no vertex element declared")
        if elements and elements[0][0] != "vertex":
            raise PlyFormatError("vertex element must come first")
        _, count, props = vertex
        if count == 0:
            raise PlyFormatError("empty vertex list")
        if any(p[1] == "list" for p in props):
            raise PlyFormatError("list properties on vertices are unsupported")
        names = [p[0] for p in props]
        for required in ("x", "y", "z"):
            if required not in names:
                raise PlyFormatError(f"vertex element lacks property {required!r}")
        if fmt == "binary_little_endian":
            dtype = np.dtype([(p[0], "<" + p[1]) for p in props])
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise PlyFormatError("truncated binary vertex data")
            data = np.frombuffer(raw, dtype=dtype, count=count)
        else:
            rows = []
            for _ in range(count):
                line = fh.readline()
                if not line:
                    raise PlyFormatError("truncated ASCII vertex data")
                parts = line.split()
                if len(parts) < len(props):
                    raise PlyFormatError("ASCII vertex line has too few values")
                try:
                    rows.append([float(v) for v in parts[: len(props)]])
                except ValueError:
                    raise PlyFormatError(f"bad ASCII vertex value in {line!r}") from None
            arr = np.asarray(rows, dtype=np.float64)
            data = {name: arr[:, i] for i, name in enumerate(names)}

    positions = np.column_stack(
        [np.asarray(data["x"], np.float64), np.asarray(data["y"], np.float64),
         np.asarray(data["z"], np.float64)]
    )
    if not np.all(np.isfinite(positions)):
        raise PlyFormatError("non-finite vertex coordinates")
    normals = None
    reliable = None
    if all(n in names for n in ("nx", "ny", "nz")):
        normals = np.column_stack(
            [np.asarray(data["nx"], np.float64), np.asarray(data["ny"], np.float64),
             np.asarray(data["nz"], np.float64)]
        )
        if not np.all(np.isfinite(normals)):
            raise PlyFormatError("non-finite normal components")
        lens = np.linalg.norm(normals, axis=1)
        reliable = lens > 0
        # Normalize only where needed; keeping already-unit float32 values
        # untouched makes load/save cycles bit-stable.
        fix = reliable & (np.abs(lens - 1.0) > 1e-6)
        normals = normals.copy()
        normals[fix] /= lens[fix, None]
        normals[~reliable] = np.array([0.0, 0.0, 1.0])
    return PointCloud(positions, normals, None, reliable)


def save_ply(cloud: PointCloud, path, format: str = "binary_little_endian") -> None:
    """Write a cloud with float32 vertex properties.

    Coordinates are quantized to float32, so a load/save/load cycle is
    bit-exact even though arbitrary float64 input is not. Unreliable normals
    are written as zero vectors. The cloud must be non-empty.
    """
    if format not in ("ascii", "binary_little_endian"):
        raise ValueError(f"unsupported format {format!r}")
    if len(cloud) == 0:
        raise ValueError("refusing to write an empty cloud")
    pos = cloud.positions.astype("<f4")
    has_normals = cloud.normals is not None
    if has_normals:
        nrm = cloud.normals.astype("<f4")
        if cloud.reliable is not None:
            nrm = np.where(cloud.reliable[:, None], nrm, np.float32(0.0))
    header = ["ply", f"format {format} 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {n}" for n in ("x", "y", "z")]
    if has_normals:
        header += [f"property float {n}" for n in ("nx", "ny", "nz")]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        columns = np.hstack([pos, nrm]) if has_normals else pos
        if format == "binary_little_endian":
            fh.write(np.ascontiguousarray(columns, dtype="<f4").tobytes())
        else:
            for row in columns:
                fh.write((" ".join(f"{v:.9g}" for v in row) + "\n").encode("ascii"))
