"""Command-line interface: each subcommand end to end on tiny data."""

import json

import numpy as np
import pytest

from spatialprivacy import harness
from spatialprivacy.attacker import build_reference, load_ensemble
from spatialprivacy.cli import main
from spatialprivacy.descriptors import SpinParams
from spatialprivacy.harness import ExperimentConfig, load_cloud, run_experiment
from spatialprivacy.ply_io import load_ply, save_ply


def config_file(directory, config) -> str:
    """``config`` written as JSON into ``directory``; returns the path."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def directory_config(directory) -> dict:
    return {"dataset": {"type": "directory", "path": str(directory)}}


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spaces")
    config = config_file(tmp_path_factory.mktemp("gen"),
                         {"dataset": {"count": 2, "density": 30, "seed": 1}})
    rc = main(["gen", "--out", str(out), "--config", config])
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
    config = config_file(path.parent, directory_config(space_dir))
    rc = main(["reference", "--config", config, "--out", str(path)])
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
         "--mechanism", "generalize", "--config", config_file(tmp_path, {"seed": 2})]
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
         "--max-planes", "2", "--manifest", str(manifest),
         "--config", config_file(tmp_path, {"seed": 5})]
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
    None,
    [],
], ids=["unknown-key", "rejected-combination", "wrong-type", "descriptor-type",
        "dataset-type", "dataset-kind", "attack-type", "qos-type", "qos-sum", "null", "list"])
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


def write_bad_datasets(root):
    """Directories ``empty``, ``garbage`` (a non-PLY ``space0.ply``) and
    ``tiny`` (two 5-point PLYs without normals: too few for normals_k = 12)."""
    (root / "empty").mkdir()
    (root / "garbage").mkdir()
    (root / "garbage" / "space0.ply").write_bytes(b"nope\n")
    (root / "tiny").mkdir()
    header = ("ply\nformat ascii 1.0\nelement vertex 5\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")
    for i in range(2):
        rows = "".join(f"{j} {i} {j * j}\n" for j in range(5))
        (root / "tiny" / f"space{i}.ply").write_text(header + rows)


@pytest.mark.parametrize("dataset, message", [
    ({"count": 1, "density": 10}, "needs at least 2 spaces"),
    ({"type": "directory", "path": "{empty}"}, "no .ply files under"),
    ({"type": "directory", "path": "{garbage}"}, "not a PLY file"),
    ({"type": "directory", "path": "{tiny}"}, "estimating them needs normals_k + 1 = 13"),
], ids=["one-space", "no-ply", "not-ply", "too-few-points"])
def test_run_bad_dataset_is_one_line_error(dataset, message, tmp_path, capsys):
    write_bad_datasets(tmp_path)
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


BAD_PLY_MESSAGES = {"empty": "no .ply files under", "garbage": "not a PLY file",
                    "tiny": "estimating them needs normals_k + 1 = 13"}


@pytest.mark.parametrize("command, directory", [
    ("reference", "empty"), ("reference", "garbage"), ("reference", "tiny"),
    ("infer", "garbage"), ("infer", "tiny"), ("release", "garbage"), ("release", "tiny"),
])
def test_bad_ply_is_one_line_error(command, directory, ensemble_path, tmp_path, capsys):
    write_bad_datasets(tmp_path)
    data, out = tmp_path / directory, tmp_path / "out"
    argv = {
        "reference": ["reference", "--config", config_file(tmp_path, directory_config(data)),
                      "--out", str(out)],
        "infer": ["infer", "--ensemble", str(ensemble_path), "--query",
                  str(data / "space0.ply"), "--out", str(out)],
        "release": ["release", "--cloud", str(data / "space0.ply"), "--out", str(out),
                    "--mechanism", "generalize"],
    }[command]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ")
    assert BAD_PLY_MESSAGES[directory] in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, options, message", [
    ("release", ["--mechanism", "conservative", "--radius", "-1"], "radius must be"),
    ("release", ["--mechanism", "conservative", "--radius", "nan"], "radius must be"),
    ("release", ["--mechanism", "conservative", "--releases", "0"], "num_releases must be"),
    ("release", ["--mechanism", "conservative", "--max-planes", "0"], "max_planes must be"),
    ("release", ["--mechanism", "partial", "--radius", "-1"], "radius must be"),
    ("reference", {"generalization": {"min_inliers": 0}}, "min_inliers must be"),
    ("reference", {"factor": 0}, "factor must be"),
    ("reference", {"variants": -1}, "variants must be"),
    ("infer", [], "cache file does not start with b'SPEN'"),
], ids=["conservative-radius", "conservative-nan-radius", "releases", "max-planes",
        "partial-radius", "min-inliers", "factor", "variants", "not-an-ensemble"])
def test_bad_option_is_one_line_error(command, options, message, space_dir, tmp_path,
                                      capsys):
    """A bad option value, or a bad config value (given as a dict)."""
    out, not_spen = tmp_path / "out", tmp_path / "ref.spen"
    not_spen.write_bytes(b"SPDC" + bytes(16))
    if isinstance(options, dict):
        options = ["--config", config_file(tmp_path, {**directory_config(space_dir),
                                                      **options})]
    argv = {
        "reference": ["reference", "--out", str(out)],
        "infer": ["infer", "--ensemble", str(not_spen), "--query",
                  str(space_dir / "space0.ply"), "--out", str(out)],
        "release": ["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out)],
    }[command]
    rc = main([*argv, *options])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ")
    assert message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    ("infer", "ensemble"), ("infer", "query"), ("release", "cloud"), ("run", "config"),
    ("report", "metrics"),
])
def test_missing_input_is_one_line_error(command, missing, space_dir, ensemble_path,
                                         tmp_path, capsys):
    gone, out = tmp_path / "missing", tmp_path / "out"
    paths = {"ensemble": ensemble_path, "query": space_dir / "space0.ply",
             "cloud": space_dir / "space0.ply", missing: gone}
    options = {"infer": ["ensemble", "query"], "release": ["cloud"], "run": ["config"],
               "report": ["metrics"]}[command]
    argv = [command, *(arg for name in options for arg in (f"--{name}", str(paths[name])))]
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ") and str(gone) in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


ROW = {"space_count": 2, "release_idx": 0, "max_planes": None, "pi1": 1.0,
       "abstain_rate": 0.0, "q": None, "n_trials": 3, "pi2_m": None}


@pytest.mark.parametrize("text, message", [
    ("not json", "JSONDecodeError"),
    ("{}", "empty metrics grid"),
    (json.dumps({"one-time": {"1": [{k: v for k, v in ROW.items() if k != "pi1"}]}}),
     "KeyError('pi1')"),
    (json.dumps({"one-time": {"1": [{**ROW, "pi1": "x"}]}}), "pi1 must be a number"),
], ids=["not-json", "empty-grid", "row-without-pi1", "pi1-not-a-number"])
def test_unusable_metrics_is_one_line_error(text, message, tmp_path, capsys):
    metrics, out = tmp_path / "metrics.json", tmp_path / "out"
    metrics.write_text(text)
    rc = main(["report", "--metrics", str(metrics), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("spatialprivacy report: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("reference", ["--out", "{nodir}/ref.spen"]),
    ("infer", ["--ensemble", "{ensemble}", "--query", "{space0}", "--out", "{nodir}/h.json"]),
    ("release", ["--cloud", "{space0}", "--out", "{nodir}/r.ply"]),
    ("release", ["--cloud", "{space0}", "--out", "{tmp}/r.ply", "--mechanism",
                 "conservative", "--manifest", "{nodir}/m.json"]),
], ids=["reference-out", "infer-out", "release-out", "release-manifest"])
def test_output_in_a_missing_directory_fails_before_any_work(
        command, options, space_dir, ensemble_path, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an input was loaded")

    for loader in ("load_dataset", "load_cloud", "load_ensemble"):
        monkeypatch.setattr(f"spatialprivacy.cli.{loader}", fail)
    names = {"nodir": tmp_path / "nodir", "ensemble": ensemble_path,
             "space0": space_dir / "space0.ply", "tmp": tmp_path}
    config = config_file(tmp_path, directory_config(space_dir))
    argv = [command, "--config", config, *(o.format(**names) for o in options)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ") and "nodir" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "nodir").exists() and not (tmp_path / "r.ply").exists()


BAD_CONFIGS = {
    "unknown-key": ({"walk_step_max": 0.5}, "walk_step_max"),
    "factor": ({"factor": 0}, "factor must be"),
    "variants": ({"variants": -1}, "variants must be"),
    "normals-k": ({"dataset": {"normals_k": 0}}, "normals_k must be"),
    "min-inliers": ({"generalization": {"min_inliers": 0}}, "min_inliers must be"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
@pytest.mark.parametrize("command", ["gen", "reference", "infer", "release"])
def test_bad_config_is_one_line_error(command, case, space_dir, ensemble_path, tmp_path,
                                      capsys):
    config, message = BAD_CONFIGS[case]
    out = tmp_path / "out"
    argv = {
        "gen": ["gen"],
        "reference": ["reference"],
        "infer": ["infer", "--ensemble", str(ensemble_path), "--query",
                  str(space_dir / "space0.ply")],
        "release": ["release", "--cloud", str(space_dir / "space0.ply")],
    }[command]
    rc = main([*argv, "--config", config_file(tmp_path, config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_reference_writes_the_ensemble_run_attacks(space_dir, tmp_path, monkeypatch):
    """``a-b.ply`` sorts before ``a.ply`` by path, after it by label: both
    subcommands must seed the variants from the label order."""
    spaces = tmp_path / "spaces"
    spaces.mkdir()
    for src, stem in (("space0", "a"), ("space1", "a-b")):
        save_ply(load_ply(space_dir / f"{src}.ply"), spaces / f"{stem}.ply")
    config = {**directory_config(spaces), "samples": 1, "radii": [1.0]}
    cache = tmp_path / "ref.spen"
    assert main(["reference", "--config", config_file(tmp_path, config),
                 "--out", str(cache)]) == 0

    class Built(Exception):
        pass

    def capture(ensemble, *args, **kwargs):
        raise Built(ensemble)

    monkeypatch.setattr(harness, "self_query_check", capture)
    with pytest.raises(Built) as built:
        run_experiment(ExperimentConfig.from_dict(config))
    attacked, written = built.value.args[0], load_ensemble(cache)
    assert written.labels == attacked.labels == ["a", "a-b"]
    for label in attacked.labels:
        for name in ("descriptors", "positions"):
            got = getattr(written.pool(label), name)
            assert got.tobytes() == getattr(attacked.pool(label), name).tobytes()
