"""Command-line interface: each subcommand end to end on tiny data."""

import json

import numpy as np
import pytest

from spatialprivacy.cli import main
from spatialprivacy.descriptors import load_described
from spatialprivacy.attacker import load_ensemble
from spatialprivacy.ply_io import load_ply


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spaces")
    rc = main(
        ["gen", "--out", str(out), "--count", "2", "--density", "30",
         "--seed", "1"]
    )
    assert rc == 0
    return out


def test_gen_writes_loadable_plys(space_dir):
    files = sorted(space_dir.glob("*.ply"))
    assert len(files) == 2
    cloud = load_ply(files[0])
    assert cloud.has_normals
    assert len(cloud) > 500


def test_describe_writes_cache(space_dir, tmp_path):
    cache = tmp_path / "space0.spdc"
    rc = main(
        ["describe", "--cloud", str(space_dir / "space0.ply"), "--out", str(cache)]
    )
    assert rc == 0
    space = load_described(cache)
    assert len(space) > 50
    assert space.label == "space0"


@pytest.fixture(scope="module")
def ensemble_path(space_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ens") / "ref.spen"
    rc = main(
        ["reference", "--spaces", str(space_dir), "--out", str(path), "--seed", "0"]
    )
    assert rc == 0
    return path


def test_reference_builds_ensemble(ensemble_path):
    ensemble = load_ensemble(ensemble_path)
    assert ensemble.labels == ["space0", "space1"]
    assert all(len(v) == 2 for v in ensemble.variants_by_label.values())


def test_infer_self_query(space_dir, ensemble_path, tmp_path):
    out = tmp_path / "hyp.json"
    rc = main(
        ["infer", "--ensemble", str(ensemble_path),
         "--query", str(space_dir / "space1.ply"), "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["label"] == "space1"
    assert set(payload["scores"]) == {"space0", "space1"}


def test_release_generalize(space_dir, tmp_path):
    out = tmp_path / "gen.ply"
    rc = main(
        ["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out),
         "--mechanism", "generalize", "--seed", "2"]
    )
    assert rc == 0
    released = load_ply(out)
    assert len(released) > 100


def test_release_conservative_with_manifest(space_dir, tmp_path):
    out = tmp_path / "cons.ply"
    manifest = tmp_path / "manifest.json"
    rc = main(
        ["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out),
         "--mechanism", "conservative", "--radius", "1.0", "--releases", "4",
         "--max-planes", "2", "--manifest", str(manifest), "--seed", "5"]
    )
    assert rc == 0
    data = json.loads(manifest.read_text())
    assert len(data["releases"]) == 4
    assert data["max_planes"] == 2


def test_run_and_report(space_dir, tmp_path):
    config = {
        "mode": "one-time",
        "radii": [2.0, 10.0],  # metrics.json orders the keys "10" < "2"
        "samples": 3,
        "kinds": ["raw"],
        "seed": 2,
        "preflight": False,
        "dataset": {"type": "directory", "path": str(space_dir)},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "trials.jsonl").exists()

    rerun = tmp_path / "rereport"
    rc = main(
        ["report", "--metrics", str(out_dir / "metrics.json"), "--out", str(rerun)]
    )
    assert rc == 0
    assert (rerun / "summary.txt").exists()
    assert (rerun / "metrics.csv").read_bytes() == (out_dir / "metrics.csv").read_bytes()
