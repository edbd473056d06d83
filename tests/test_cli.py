"""Command-line interface: each subcommand end to end on tiny data."""

import json

import numpy as np
import pytest

from spatialprivacy.attacker import build_reference, load_ensemble
from spatialprivacy.cli import main
from spatialprivacy.descriptors import SpinParams
from spatialprivacy.harness import load_cloud
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


@pytest.fixture(scope="module")
def ensemble_path(space_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ens") / "ref.spen"
    rc = main(
        ["reference", "--spaces", str(space_dir), "--out", str(path), "--seed", "0"]
    )
    assert rc == 0
    return path


def test_reference_builds_ensemble(space_dir, ensemble_path):
    ensemble = load_ensemble(ensemble_path)
    assert ensemble.labels == ["space0", "space1"]
    assert ensemble.params == SpinParams()
    assert ensemble.factor == 5
    spaces = [load_cloud(p, 12) for p in sorted(space_dir.glob("*.ply"))]
    built = build_reference(spaces, seed=0)
    for label in built.labels:
        assert np.array_equal(ensemble.pool(label).descriptors,
                              built.pool(label).descriptors)
        assert np.array_equal(ensemble.pool(label).positions, built.pool(label).positions)


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


@pytest.mark.parametrize("command", [
    ["infer", "--ensemble", "e", "--query", "q"],
    ["release", "--cloud", "c", "--out", "o"],
], ids=["infer", "release"])
@pytest.mark.parametrize("flag", ["--bin-size", "--image-width", "--factor"])
def test_descriptor_settings_not_accepted(command, flag, capsys):
    with pytest.raises(SystemExit):
        main([*command, flag, "4"])
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {flag} 4\n")


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


@pytest.mark.parametrize("config", [
    {"mode": "one-time", "walk_step_max": 0.5},
    {"mode": "one-time", "releases": 2},
    {"mode": "one-time", "samples": "3"},
    {"mode": "one-time", "descriptor": {"bin_size": "0.1"}},
    {"mode": "one-time", "dataset": {"count": "2"}},
    {"mode": "one-time", "dataset": {"type": "bogus"}},
    {"mode": "one-time", "attack": {"t1": "x"}},
    {"mode": "one-time", "qos_alpha": "x"},
    {"mode": "one-time", "qos_alpha": 0.7},
], ids=["unknown-key", "rejected-combination", "wrong-type", "descriptor-type",
        "dataset-type", "dataset-kind", "attack-type", "qos-type", "qos-sum"])
def test_run_bad_config_is_one_line_error(config, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("spatialprivacy run: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset, message", [
    ({"count": 1, "density": 10}, "needs at least 2 spaces"),
    ({"type": "directory", "path": "{empty}"}, "no .ply files under"),
    ({"type": "directory", "path": "{garbage}"}, "not a PLY file"),
], ids=["one-space", "no-ply", "not-ply"])
def test_run_bad_dataset_is_one_line_error(dataset, message, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    (tmp_path / "garbage").mkdir()
    (tmp_path / "garbage" / "space0.ply").write_bytes(b"nope\n")
    if "path" in dataset:
        dataset = {**dataset, "path": str(tmp_path / dataset["path"].strip("{}"))}
    config = {"mode": "one-time", "samples": 1, "radii": [1.0], "dataset": dataset}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("spatialprivacy run: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
