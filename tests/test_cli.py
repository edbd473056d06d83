"""Command-line interface: each subcommand end to end on tiny data."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spatialprivacy
from spatialprivacy import cli, harness
from spatialprivacy.attacker import build_reference, load_ensemble
from spatialprivacy.cli import main
from spatialprivacy.descriptors import SpinParams
from spatialprivacy.geometry import PointCloud
from spatialprivacy.harness import ExperimentConfig, load_cloud, run_experiment, trial_lines
from spatialprivacy.mechanisms import release_at, release_sequence
from spatialprivacy.metrics import TrialRecord
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
        assert np.array_equal(ensemble.pool(label).descriptors.dense(),
                              built.pool(label).descriptors.dense())
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
    """Whole-cloud generalization: one release whose ball holds the cloud."""
    out = tmp_path / "gen.ply"
    rc = main(
        ["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out),
         "--radius", "100", "--config", config_file(tmp_path, {"seed": 2})]
    )
    assert rc == 0
    released = load_ply(out)
    assert len(released) > 100


def test_release_conservative_with_manifest(space_dir, tmp_path):
    out = tmp_path / "cons.ply"
    manifest = tmp_path / "manifest.json"
    rc = main(
        ["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out),
         "--radius", "1.0", "--releases", "4",
         "--max-planes", "2", "--manifest", str(manifest),
         "--config", config_file(tmp_path, {"seed": 5})]
    )
    assert rc == 0
    data = json.loads(manifest.read_text())
    assert len(data["releases"]) == 4
    assert data["max_planes"] == 2
    assert data["kind"] == "generalized"


@pytest.mark.parametrize("kind, releases, max_planes", [
    ("raw", 4, None), ("generalized", 3, 2), ("generalized", 1, None),
])
def test_release_writes_the_walk_a_trial_runs(kind, releases, max_planes, space_dir,
                                               tmp_path):
    """``release`` writes ``release_at`` of the walk ``release_sequence`` runs
    for the same cloud, settings and seed, and lists every release of it."""
    config = {"seed": 7, "generalization": {"min_inliers": 20}}
    out, manifest = tmp_path / "out.ply", tmp_path / "m.json"
    cap = [] if max_planes is None else ["--max-planes", str(max_planes)]
    rc = main(["release", "--cloud", str(space_dir / "space0.ply"), "--out", str(out),
               "--kind", kind, "--radius", "1.5", "--releases", str(releases), *cap,
               "--manifest", str(manifest), "--config", config_file(tmp_path, config)])
    assert rc == 0
    cloud = load_cloud(space_dir / "space0.ply", 12)
    steps, state = release_sequence(cloud, 1.5, releases, 7,
                                    ExperimentConfig.from_dict(config).generalization,
                                    generalize=kind == "generalized")
    expected = tmp_path / "expected.ply"
    save_ply(release_at(state, steps[-1], max_planes), expected)
    assert out.read_bytes() == expected.read_bytes()
    data = json.loads(manifest.read_text())
    assert (data["kind"], data["max_planes"], data["radius"]) == (kind, max_planes, 1.5)
    assert [r["n_accumulated"] for r in data["releases"]] == [s.n_accumulated for s in steps]
    assert [r["n_planes"] for r in data["releases"]] == [s.n_planes for s in steps]
    if kind == "raw":
        assert all(r["n_planes"] == 0 for r in data["releases"])
    else:
        assert steps[-1].n_planes > (max_planes or 0)


def run_then_report(config: dict, tmp_path) -> None:
    """``run`` the config, then ``report --trials`` on its record alone: the
    three files derived from it are rebuilt byte for byte."""
    out_dir, rerun = tmp_path / "results", tmp_path / "rereport"
    assert main(["run", "--config", config_file(tmp_path, config), "--out", str(out_dir)]) == 0
    assert main(["report", "--trials", str(out_dir / "trials.jsonl"), "--out", str(rerun)]) == 0
    for name in ("metrics.csv", "metrics.json", "summary.txt"):
        assert (rerun / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_run_and_report(space_dir, tmp_path):
    run_then_report({
        "mode": "one-time",
        "radii": [2.0, 10.0],  # "10" sorts before "2" as text; cells order radii by value
        "samples": 3,
        "kinds": ["raw", "generalized"],
        "seed": 2,
        "preflight": False,
        **directory_config(space_dir),
    }, tmp_path)


def test_run_and_report_conservative(space_dir, tmp_path):
    run_then_report({
        "mode": "conservative",
        "radii": [1.0, 2.0],
        "samples": 2,
        "releases": 3,
        "max_planes": [1, None],
        "seed": 2,
        "workers": 2,
        **directory_config(space_dir),
    }, tmp_path)


def test_run_loads_no_scipy(tmp_path):
    """The program needs numpy alone: a whole run imports no scipy module.
    It runs in a fresh interpreter, since the tests load scipy as an oracle."""
    config = config_file(tmp_path, {"mode": "one-time", "radii": [1.0], "samples": 1,
                                    "dataset": {"count": 2, "density": 10}})
    code = ("import sys; from spatialprivacy import cli; "
            f"assert cli.main(['run', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}])"
            " == 0; assert 'scipy' not in sys.modules, sorted(sys.modules)")
    src = str(Path(spatialprivacy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)


def test_run_writes_trials_jsonl_as_it_makes_its_rows(tmp_path, monkeypatch):
    """Writing trials.jsonl holds one row at a time: 20k rows of about 300 B
    grow memory by under 50 B per trial (a list of the rows and their joined
    copy took about 700 B)."""
    trial = TrialRecord("space0", np.array([0.1, 1 / 3, 2.0]), "space1",
                        np.array([0.2, 0.5, 1.0]), False, 1.0, 3, 5, 0.25, "generalized", 4,
                        "conservative", 7)
    trials = [trial] * 20_000
    monkeypatch.setattr(cli, "run_experiment", lambda config: ([], trials))
    monkeypatch.setattr(cli, "report",
                        lambda cells, out: dict.fromkeys(("csv", "json", "summary"), out))
    config, out = config_file(tmp_path, {"mode": "conservative"}), tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * len(trials)
    assert (out / "trials.jsonl").read_text() == next(trial_lines([trial])) * len(trials)


@pytest.mark.parametrize("command", ["run", "reference"])
def test_space_without_planes_is_one_line_error(command, tmp_path, capsys):
    """At 0.4 points per square meter RANSAC fits no plane, so a space's
    generalized variant is empty and the reference cannot describe it."""
    config = {"mode": "one-time", "samples": 1, "radii": [1.0],
              "dataset": {"count": 2, "density": 0.4}}
    out = tmp_path / "out"
    rc = main([command, "--config", config_file(tmp_path, config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ")
    assert "no points to describe in space0" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"mode": "one-time", "walk_step_max": 0.5},
    {"mode": "one-time", "releases": 2},
    {"mode": "one-time", "samples": "3"},
    {"mode": "one-time", "descriptor": {"bin_size": "0.1"}},
    {"mode": "one-time", "dataset": {"count": "2"}},
    {"mode": "one-time", "dataset": {"type": "bogus"}},
    {"mode": "one-time", "attack": {"t1": "x"}},
    {"mode": "one-time", "qos_alpha": "x"},
    {"mode": "one-time", "qos_alpha": 0.7, "qos_beta": 0.3},
    {"mode": "one-time", "qos_symmetric": False},
    {"mode": "one-time", "attack": {"strict_nndr": True}},
    None,
    [],
    {"mode": "one-time", "radii": [1.0, 1.0], "samples": 2, "kinds": ["raw"]},
    {"mode": "one-time", "radii": [], "samples": 2},
], ids=["unknown-key", "rejected-combination", "wrong-type", "descriptor-type",
        "dataset-type", "dataset-kind", "attack-type", "qos-type", "qos-beta", "qos-symmetric",
        "strict-nndr", "null", "list",
        "repeated-radius", "empty-radii"])
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
    """Directories ``empty``, ``garbage`` (a non-PLY ``space0.ply``), ``tiny``
    (two 5-point PLYs without normals: too few for normals_k = 12) and
    ``unusable`` (two 50-point PLYs whose normals all have length zero, so
    none is reliable and no keypoint can be described)."""
    (root / "empty").mkdir()
    (root / "garbage").mkdir()
    (root / "garbage" / "space0.ply").write_bytes(b"nope\n")
    (root / "tiny").mkdir()
    header = ("ply\nformat ascii 1.0\nelement vertex 5\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")
    for i in range(2):
        rows = "".join(f"{j} {i} {j * j}\n" for j in range(5))
        (root / "tiny" / f"space{i}.ply").write_text(header + rows)
    (root / "unusable").mkdir()
    header = ("ply\nformat ascii 1.0\nelement vertex 50\n"
              + "".join(f"property float {p}\n" for p in ("x", "y", "z", "nx", "ny", "nz"))
              + "end_header\n")
    for i in range(2):
        rows = "".join(f"{j % 10} {j // 10} {i} 0 0 0\n" for j in range(50))
        (root / "unusable" / f"space{i}.ply").write_text(header + rows)


@pytest.mark.parametrize("dataset, message", [
    ({"count": 1, "density": 10}, "needs at least 2 spaces"),
    ({"count": 10, "density": 10}, "count must be at most 7"),
    ({"type": "directory", "path": "{empty}"}, "no .ply files under"),
    ({"type": "directory", "path": "{garbage}"}, "not a PLY file"),
    ({"type": "directory", "path": "{tiny}"}, "estimating them needs normals_k + 1 = 13"),
    ({"type": "directory", "path": "{unusable}"},
     "no keypoints with reliable normals in space0"),
], ids=["one-space", "more-spaces-than-rooms", "no-ply", "not-ply", "too-few-points", "unusable"])
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
                    "tiny": "estimating them needs normals_k + 1 = 13",
                    "unusable": "no keypoints with reliable normals in space0"}


@pytest.mark.parametrize("command, directory", [
    ("reference", "empty"), ("reference", "garbage"), ("reference", "tiny"),
    ("reference", "unusable"), ("infer", "garbage"), ("infer", "tiny"),
    ("infer", "unusable"), ("release", "garbage"), ("release", "tiny"),
])
def test_bad_ply_is_one_line_error(command, directory, ensemble_path, tmp_path, capsys):
    write_bad_datasets(tmp_path)
    data, out = tmp_path / directory, tmp_path / "out"
    argv = {
        "reference": ["reference", "--config", config_file(tmp_path, directory_config(data)),
                      "--out", str(out)],
        "infer": ["infer", "--ensemble", str(ensemble_path), "--query",
                  str(data / "space0.ply"), "--out", str(out)],
        "release": ["release", "--cloud", str(data / "space0.ply"), "--out", str(out)],
    }[command]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ")
    assert BAD_PLY_MESSAGES[directory] in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, options, message", [
    ("release", ["--max-planes", "2", "--radius", "-1"], "radius must be"),
    ("release", ["--max-planes", "2", "--radius", "nan"], "radius must be"),
    ("release", ["--max-planes", "2", "--releases", "0"], ": releases must be"),
    ("release", ["--max-planes", "0"], "max_planes must be"),
    ("release", ["--kind", "raw", "--radius", "-1"], "radius must be"),
    ("release", ["--kind", "raw", "--max-planes", "2"],
     "bounded plane caps apply only to generalized walks"),
    ("reference", {"generalization": {"min_inliers": 0}}, "min_inliers must be"),
    ("reference", {"factor": 0}, "factor must be"),
    ("reference", {"variants": -1}, "variants must be"),
    ("infer", [], "cache file does not start with b'SPEN'"),
], ids=["conservative-radius", "conservative-nan-radius", "releases", "max-planes",
        "partial-radius", "raw-max-planes", "min-inliers", "factor", "variants",
        "not-an-ensemble"])
def test_bad_option_is_one_line_error(command, options, message, space_dir, tmp_path,
                                      capsys, monkeypatch):
    """A bad option value, or a bad config value (given as a dict); ``release``
    rejects its options before it loads the cloud."""
    def fail(*args, **kwargs):
        raise AssertionError("the cloud was loaded")

    monkeypatch.setattr("spatialprivacy.cli.load_cloud", fail)
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


@pytest.mark.parametrize("oversized", ["ensemble", "query"])
def test_oversized_header_is_one_line_error(oversized, space_dir, ensemble_path, tmp_path,
                                            capsys):
    """A short ``.spen`` whose array header declares 2**31 values, or a short
    binary PLY whose header declares 2e9 vertices, fails ``infer`` with exit 2
    and one line, not a MemoryError."""
    spen, ply = tmp_path / "huge.spen", tmp_path / "huge.ply"
    spen.write_bytes(b"SPEN" + struct.pack("<IdIII", 2, 0.1, 16, 5, 1)
                     + struct.pack("<I", 1) + b"a" + struct.pack("<BII", 1, 2**31, 2**31)
                     + bytes(64))
    ply.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2000000000\n"
                    b"property float x\nproperty float y\nproperty float z\nend_header\n"
                    + bytes(24))
    paths = {"ensemble": ensemble_path, "query": space_dir / "space0.ply",
             oversized: spen if oversized == "ensemble" else ply}
    out = tmp_path / "out"
    rc = main(["infer", "--ensemble", str(paths["ensemble"]), "--query", str(paths["query"]),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("spatialprivacy infer: ")
    assert ("cut short" if oversized == "ensemble" else "truncated") in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    ("infer", "ensemble"), ("infer", "query"), ("release", "cloud"), ("run", "config"),
    ("report", "trials"),
])
def test_missing_input_is_one_line_error(command, missing, space_dir, ensemble_path,
                                         tmp_path, capsys):
    gone, out = tmp_path / "missing", tmp_path / "out"
    paths = {"ensemble": ensemble_path, "query": space_dir / "space0.ply",
             "cloud": space_dir / "space0.ply", missing: gone}
    options = {"infer": ["ensemble", "query"], "release": ["cloud"], "run": ["config"],
               "report": ["trials"]}[command]
    argv = [command, *(arg for name in options for arg in (f"--{name}", str(paths[name])))]
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ") and str(gone) in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


ROW = json.loads(next(trial_lines([TrialRecord("space0", np.zeros(3), "space0", np.zeros(3),
                                               radius=1.0, q=0.0)])))


@pytest.mark.parametrize("text, message", [
    ("not json", "line 1: not JSON"),
    (json.dumps({k: v for k, v in ROW.items() if k != "kind"}), "line 1: no key 'kind'"),
    (json.dumps({**ROW, "q": "0.1"}), "line 1: q must be a finite number >= 0, got '0.1'"),
    (json.dumps(ROW) + "\n" + json.dumps({**ROW, "mode": "successive"}),
     "line 2: mode 'successive' is not line 1's 'one-time'"),
    ("", "no trials"),
], ids=["not-json", "row-without-kind", "q-a-string", "rows-of-two-runs", "empty-file"])
def test_unusable_trials_is_one_line_error(text, message, tmp_path, capsys):
    trials, out = tmp_path / "trials.jsonl", tmp_path / "out"
    trials.write_text(text)
    rc = main(["report", "--trials", str(trials), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("spatialprivacy report: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


# Each command's file outputs, one of them under {nodir}.
file_outputs = pytest.mark.parametrize("command, options", [
    ("reference", ["--out", "{nodir}/ref.spen"]),
    ("infer", ["--ensemble", "{ensemble}", "--query", "{space0}", "--out", "{nodir}/h.json"]),
    ("release", ["--cloud", "{space0}", "--out", "{nodir}/r.ply"]),
    ("release", ["--cloud", "{space0}", "--out", "{tmp}/r.ply",
                 "--manifest", "{nodir}/m.json"]),
], ids=["reference-out", "infer-out", "release-out", "release-manifest"])


def run_without_inputs(command, options, space_dir, ensemble_path, tmp_path, monkeypatch):
    """``main`` on ``options`` with {nodir} at ``tmp_path / "nodir"``; any
    load of an input fails the test."""
    def fail(*args, **kwargs):
        raise AssertionError("an input was loaded")

    for loader in ("load_dataset", "load_cloud", "load_ensemble"):
        monkeypatch.setattr(f"spatialprivacy.cli.{loader}", fail)
    names = {"nodir": tmp_path / "nodir", "ensemble": ensemble_path,
             "space0": space_dir / "space0.ply", "tmp": tmp_path}
    config = config_file(tmp_path, directory_config(space_dir))
    return main([command, "--config", config, *(o.format(**names) for o in options)])


@file_outputs
def test_output_in_a_missing_directory_fails_before_any_work(
        command, options, space_dir, ensemble_path, tmp_path, capsys, monkeypatch):
    rc = run_without_inputs(command, options, space_dir, ensemble_path, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"spatialprivacy {command}: ") and "nodir" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "nodir").exists() and not (tmp_path / "r.ply").exists()


@file_outputs
def test_output_file_that_is_a_directory_fails_before_any_work(
        command, options, space_dir, ensemble_path, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "nodir" / options[-1].rsplit("/", 1)[1]
    taken.mkdir(parents=True)
    rc = run_without_inputs(command, options, space_dir, ensemble_path, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"spatialprivacy {command}: cannot write {taken}: it is a directory\n"
    assert list(taken.iterdir()) == [] and not (tmp_path / "r.ply").exists()


@pytest.mark.parametrize("command", ["gen", "run", "report"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_output_directory_on_a_file_fails_before_any_work(command, under, tmp_path, capsys,
                                                          monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an input was loaded")

    for loader in ("load_dataset", "run_experiment", "trials_from_jsonl"):
        monkeypatch.setattr(f"spatialprivacy.cli.{loader}", fail)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "sub" if under else taken
    options = (["--trials", str(tmp_path / "trials.jsonl")] if command == "report"
               else ["--config", config_file(tmp_path, {"dataset": {"count": 2}})])
    rc = main([command, *options, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"spatialprivacy {command}: cannot make directory {out}: "
                   f"{taken} is not a directory\n")
    assert taken.read_text() == "a file\n"


def test_reference_of_a_one_row_pool_is_one_line_error(tmp_path, capsys):
    """Spaces of fewer points than the keypoint factor describe to one row;
    with no generalized variant that row is the whole pool, too few to
    2-nn match."""
    spaces = tmp_path / "spaces"
    spaces.mkdir()
    r = np.random.default_rng(8)
    for i in range(2):
        save_ply(PointCloud(r.normal(size=(4, 3)), np.tile([0.0, 0.0, 1.0], (4, 1))),
                 spaces / f"space{i}.ply")
    config = config_file(tmp_path, {"variants": 0, **directory_config(spaces)})
    out = tmp_path / "ref.spen"
    rc = main(["reference", "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "spatialprivacy reference: one descriptor row in space0; " \
                  "2-nn matching needs at least 2\n"
    assert not out.exists()


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
        got, expected = written.pool(label), attacked.pool(label)
        assert got.descriptors.dense().tobytes() == expected.descriptors.dense().tobytes()
        assert got.positions.tobytes() == expected.positions.tobytes()
