"""PLY reader/writer: parsing, round trips, error cases."""

import numpy as np
import pytest

from spatialprivacy.geometry import PointCloud
from spatialprivacy.ply_io import PlyFormatError, load_ply, save_ply


def write(tmp_path, text, name="f.ply"):
    path = tmp_path / name
    path.write_bytes(text.encode("ascii") if isinstance(text, str) else text)
    return path


ONE_VERTEX = """ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
0 0 0 0 0 1
"""


def test_single_ascii_vertex(tmp_path):
    cloud = load_ply(write(tmp_path, ONE_VERTEX))
    assert len(cloud) == 1
    assert np.array_equal(cloud.positions[0], [0, 0, 0])
    assert np.array_equal(cloud.normals[0], [0, 0, 1])


def test_missing_normals_flagged_absent(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0\n1 2 3\n"
    )
    cloud = load_ply(write(tmp_path, text))
    assert not cloud.has_normals


def test_zero_normal_marked_unreliable(tmp_path):
    text = ONE_VERTEX.replace("0 0 0 0 0 1", "0 0 0 0 0 0")
    cloud = load_ply(write(tmp_path, text))
    assert cloud.has_normals
    assert not cloud.reliable[0]


def test_extra_vertex_properties_skipped(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nend_header\n"
        "1 2 3 255\n"
    )
    cloud = load_ply(write(tmp_path, text))
    assert np.array_equal(cloud.positions[0], [1, 2, 3])


def test_faces_ignored(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "3 0 1 2\n"
    )
    cloud = load_ply(write(tmp_path, text))
    assert len(cloud) == 3


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("ply\n", "obj\n"),
        lambda t: t.replace("format ascii 1.0", "format big_endian 1.0"),
        lambda t: t.replace("property float y\n", ""),
        lambda t: t.replace("0 0 0 0 0 1", "0 nan 0 0 0 1"),
    ],
)
def test_malformed_inputs_rejected(tmp_path, mutation):
    with pytest.raises(PlyFormatError):
        load_ply(write(tmp_path, mutation(ONE_VERTEX)))


BINARY_HEADER = ONE_VERTEX.replace("ascii", "binary_little_endian").replace("0 0 0 0 0 1\n", "")


@pytest.mark.parametrize(
    "text",
    [
        ONE_VERTEX.replace("vertex 1", "vertex -2"),
        BINARY_HEADER.replace("vertex 1", "vertex -2") + "\0" * 24,
        ONE_VERTEX.replace("vertex 1", "vertex abc"),
        ONE_VERTEX.replace("property float nz", "property float"),
        ONE_VERTEX.replace("end_header", "element face 0\nproperty list uchar\nend_header"),
        ONE_VERTEX.replace("0 0 0 0 0 1", "1 2 zz 0 0 1"),
    ],
    ids=["ascii-negative-count", "binary-negative-count", "count-not-a-number",
         "property-without-name", "list-property-cut-short", "unparsable-value"],
)
def test_malformed_header_or_value_raises_ply_format_error(tmp_path, text):
    with pytest.raises(PlyFormatError):
        load_ply(write(tmp_path, text))


def test_empty_vertex_list_rejected(tmp_path):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    with pytest.raises(PlyFormatError):
        load_ply(write(tmp_path, text))


def test_save_empty_cloud_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_ply(PointCloud(np.zeros((0, 3))), tmp_path / "x.ply")


def test_save_writes_declared_vertex_count(tmp_path, rng):
    cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    path = tmp_path / "one.ply"
    save_ply(cloud, path, format="ascii")
    assert b"element vertex 1" in path.read_bytes()


def binary_roundtrip(cloud, tmp_path, name):
    path = tmp_path / name
    save_ply(cloud, path, format="binary_little_endian")
    return load_ply(path)


def test_binary_round_trip_bit_identical(tmp_path, rng):
    pts = rng.uniform(-10, 10, (100, 3))
    nrm = rng.normal(size=(100, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    # One save quantizes to float32; after that, round trips are bit-exact.
    first = binary_roundtrip(PointCloud(pts, nrm), tmp_path, "a.ply")
    second = binary_roundtrip(first, tmp_path, "b.ply")
    assert np.array_equal(first.positions, second.positions)
    assert np.array_equal(first.normals, second.normals)


def test_binary_round_trip_exact_for_float32_coords(tmp_path, rng):
    pts = rng.uniform(-10, 10, (1000, 3)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(pts)
    out = binary_roundtrip(cloud, tmp_path, "c.ply")
    assert np.max(np.abs(out.positions - pts)) == 0.0


def test_ascii_round_trip_close(tmp_path, rng):
    pts = rng.uniform(-10, 10, (50, 3))
    nrm = rng.normal(size=(50, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    path = tmp_path / "d.ply"
    save_ply(PointCloud(pts, nrm), path, format="ascii")
    out = load_ply(path)
    assert np.max(np.abs(out.positions - pts)) < 1e-6
    assert np.max(np.abs(out.normals - nrm)) < 1e-5


def test_binary_with_double_properties(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property double x\nproperty double y\nproperty double z\nend_header\n"
    )
    body = np.array([(1.5, 2.5, -3.0)], dtype="<f8,<f8,<f8").tobytes()
    cloud = load_ply(write(tmp_path, header + body, name="dbl.ply"))
    assert np.array_equal(cloud.positions[0], [1.5, 2.5, -3.0])


def test_truncated_binary_rejected(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    body = np.zeros(3, dtype="<f4").tobytes()  # only one vertex present
    with pytest.raises(PlyFormatError):
        load_ply(write(tmp_path, header + body, name="trunc.ply"))
