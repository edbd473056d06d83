"""Experiment harness: configs, determinism, cells, reports."""

import json

import numpy as np
import pytest

from spatialprivacy import attacker, descriptors, harness
from spatialprivacy.attacker import AttackParams, build_reference
from spatialprivacy.descriptors import UnusableSpaceError
from spatialprivacy.geometry import PointCloud
from spatialprivacy.harness import (
    CellMetrics,
    DatasetSpec,
    ExperimentConfig,
    cells_to_csv,
    load_dataset,
    report,
    run_experiment,
    self_query_check,
    trials_to_jsonl,
)
from spatialprivacy.ply_io import save_ply
from spatialprivacy.synthetic import SyntheticSpaceSpec, generate_space

TINY = DatasetSpec(type="synthetic", count=3, density=40.0, noise_sigma=0.005)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        mode="one-time",
        radii=(1.5,),
        samples=6,
        kinds=("raw",),
        seed=3,
        dataset=TINY,
        preflight=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def one_time_result():
    return run_experiment(tiny_config())


class TestConfig:
    def test_paper_scale_defaults(self):
        cfg = ExperimentConfig(mode="one-time")
        assert cfg.resolved_samples() == 1000
        assert cfg.resolved_releases() == 1
        assert cfg.resolved_radii() == (0.5, 1.0, 2.0)
        succ = ExperimentConfig(mode="successive")
        assert succ.resolved_samples() == 100
        assert succ.resolved_releases() == 100
        cons = ExperimentConfig(mode="conservative")
        assert cons.resolved_caps() == tuple(range(1, 30, 2))
        assert cons.resolved_kinds() == ("generalized",)

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(mode="conservative", max_planes=(1, 3), releases=4)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == cfg

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="sideways")

    @pytest.mark.parametrize("field, value, message", [
        ("max_planes", (1, 0), "caps"), ("max_planes", (-3,), "caps"),
        ("radii", (1.0, 0.0), "radii"), ("radii", (-0.5,), "radii"),
        ("radii", (float("nan"),), "radii"), ("samples", 0, "samples"),
        ("releases", 0, "releases"), ("workers", 0, "workers"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(mode="conservative", **{field: value})

    def test_uncapped_and_unit_values_accepted(self):
        cfg = ExperimentConfig(mode="conservative", max_planes=(1, None), radii=(0.1,),
                               samples=1, releases=1, workers=1)
        assert cfg.resolved_caps() == (1, None)

    def test_max_planes_inf_token(self):
        cfg = ExperimentConfig.from_dict(
            {"mode": "conservative", "max_planes": [1, "inf"]}
        )
        assert cfg.resolved_caps() == (1, None)


class TestDatasets:
    def test_synthetic_dataset_labels(self):
        spaces = load_dataset(TINY)
        assert sorted(spaces) == ["space0", "space1", "space2"]
        assert all(cloud.label == label for label, cloud in spaces.items())

    def test_directory_dataset(self, tmp_path):
        for i in range(2):
            cloud = generate_space(
                SyntheticSpaceSpec(density=30, seed=i), f"room{i}"
            )
            save_ply(cloud, tmp_path / f"room{i}.ply")
        spaces = load_dataset(DatasetSpec(type="directory", path=str(tmp_path)))
        assert sorted(spaces) == ["room0", "room1"]
        assert all(c.has_normals for c in spaces.values())

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(DatasetSpec(type="directory", path=str(tmp_path)))

    def test_too_few_spaces_rejected(self):
        cfg = tiny_config(dataset=DatasetSpec(type="synthetic", count=1, density=30))
        with pytest.raises(ValueError):
            run_experiment(cfg)


class TestRunExperiment:
    def test_full_space_self_queries_have_zero_pi1(self):
        # Radius beyond any room diameter: every query is a whole raw space.
        cells, trials = run_experiment(
            tiny_config(radii=(50.0,), samples=8, preflight=True)
        )
        assert len(cells) == 1
        assert cells[0].pi1 == 0.0
        assert cells[0].n_trials == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(mode="conservative", radii=(0.8,), samples=3, releases=3,
                 max_planes=(1, 3), kinds=None),
            dict(mode="successive", radii=(0.8,), samples=3, releases=3,
                 kinds=("raw", "generalized")),
        ],
        ids=["one-time", "conservative", "successive"],
    )
    def test_deterministic_across_runs_and_workers(self, overrides):
        a = cells_to_csv(run_experiment(tiny_config(**overrides))[0])
        b = cells_to_csv(run_experiment(tiny_config(**overrides))[0])
        c = cells_to_csv(run_experiment(tiny_config(workers=3, **overrides))[0])
        assert a == b == c

    def test_sweep_cell_independence(self):
        both = run_experiment(
            tiny_config(mode="conservative", radii=(0.8,), samples=2,
                        releases=3, max_planes=(1, 3), kinds=None)
        )[0]
        only3 = run_experiment(
            tiny_config(mode="conservative", radii=(0.8,), samples=2,
                        releases=3, max_planes=(3,), kinds=None)
        )[0]
        cells3 = [c for c in both if c.max_planes == 3]
        assert [
            (c.radius, c.release_idx, c.pi1, c.pi2, c.q, c.n_trials)
            for c in cells3
        ] == [
            (c.radius, c.release_idx, c.pi1, c.pi2, c.q, c.n_trials)
            for c in only3
        ]

    def test_conservative_q_monotone_in_cap_per_release(self):
        cells, trials = run_experiment(
            tiny_config(mode="conservative", radii=(1.0,), samples=2,
                        releases=4, max_planes=(1, 3), kinds=None,
                        qos_symmetric=True)
        )
        by_key = {}
        for t in trials:
            by_key[(t.max_planes, t.release_idx, tuple(t.true_centroid))] = t.q
        for (cap, idx, center), q1 in by_key.items():
            if cap == 1:
                q3 = by_key.get((3, idx, center))
                if q1 is not None and q3 is not None:
                    assert q1 >= q3 - 1e-12

    def test_one_time_cells_shape(self, one_time_result):
        cells, trials = one_time_result
        assert len(cells) == 1
        cell = cells[0]
        assert cell.mode == "one-time-raw"
        assert cell.release_idx == 1
        assert cell.space_count == 3
        assert cell.n_trials == 6
        assert len(trials) == 6

    def test_raw_one_time_queries_have_zero_q(self, one_time_result):
        _, trials = one_time_result
        assert all(t.q == 0.0 for t in trials if t.q is not None)


class TestPreflight:
    @pytest.fixture(scope="class")
    def setup(self):
        spaces = load_dataset(TINY)
        return spaces, build_reference(list(spaces.values()), seed=3)

    def test_describes_each_space_once(self, setup, monkeypatch):
        spaces, ensemble = setup
        calls = []
        original = descriptors.describe

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (attacker, descriptors, harness):
            monkeypatch.setattr(module, "describe", counted, raising=False)
        self_query_check(ensemble, spaces, tiny_config())
        assert len(calls) == len(spaces)

    def test_wrong_label_raises(self, setup):
        spaces, ensemble = setup
        with pytest.raises(RuntimeError, match="classified as"):
            self_query_check(ensemble, {"space1": spaces["space0"]}, tiny_config())

    def test_abstention_raises(self, setup):
        spaces, ensemble = setup
        config = tiny_config(attack=AttackParams(t2=1.5))
        with pytest.raises(RuntimeError, match="abstained"):
            self_query_check(ensemble, spaces, config)


class TestInferOrAbstain:
    def test_unusable_query_abstains(self, monkeypatch):
        def unusable(*args, **kwargs):
            raise UnusableSpaceError("no keypoints")

        monkeypatch.setattr(harness, "infer", unusable)
        query = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        assert harness._infer_or_abstain(None, query, tiny_config()) == (None, None, True)

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not an unusable space")

        monkeypatch.setattr(harness, "infer", broken)
        query = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="a bug"):
            harness._infer_or_abstain(None, query, tiny_config())


class TestReporting:
    def make_cell(self, **overrides):
        base = dict(
            mode="one-time-gen", space_count=3, radius=1.0, release_idx=1,
            max_planes=None, pi1=0.6, pi2=2.5, abstain_rate=0.1, q=0.08,
            n_trials=50,
        )
        base.update(overrides)
        return CellMetrics(**base)

    def test_csv_columns_and_single_row(self):
        csv_text = cells_to_csv([self.make_cell()])
        lines = csv_text.strip().split("\n")
        assert lines[0] == (
            "mode,space_count,radius_m,release_idx,max_planes,pi1,pi2_m,"
            "abstain_rate,q,n_trials"
        )
        assert len(lines) == 2
        assert lines[1].startswith("one-time-gen,3,1,1,inf,0.6,2.5,")

    def test_report_files_and_band(self, tmp_path):
        paths = report([self.make_cell()], tmp_path)
        assert paths["csv"].exists() and paths["json"].exists()
        summary = paths["summary"].read_text()
        assert "band=medium" in summary
        nested = json.loads(paths["json"].read_text())
        assert nested["one-time-gen"]["1"][0]["privacy_band"] == "medium"

    def test_headline_cap_statistic(self, tmp_path):
        cells = [
            self.make_cell(mode="conservative-gen", max_planes=1, pi1=0.9),
            self.make_cell(mode="conservative-gen", max_planes=3, pi1=0.55),
            self.make_cell(mode="conservative-gen", max_planes=5, pi1=0.2),
        ]
        summary = report(cells, tmp_path)["summary"].read_text()
        assert "largest max_planes with mean pi1 >= 0.5: 3" in summary

    @pytest.mark.parametrize("overrides", [{}, dict(max_planes=3, pi2=None, q=None)])
    def test_metrics_json_row_round_trip(self, overrides):
        cell = self.make_cell(**overrides)
        row = json.loads(json.dumps(cell.to_row()))
        assert CellMetrics.from_row(cell.mode, cell.radius, row) == cell

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path)

    def test_none_metrics_serialize_as_empty(self):
        text = cells_to_csv([self.make_cell(pi2=None, q=None)])
        assert ",,," in text.split("\n")[1] or ",," in text.split("\n")[1]

    def test_trials_jsonl(self, one_time_result):
        _, trials = one_time_result
        lines = trials_to_jsonl(trials).strip().split("\n")
        assert len(lines) == len(trials)
        row = json.loads(lines[0])
        assert set(row) >= {"true_label", "hyp_label", "radius", "q"}
