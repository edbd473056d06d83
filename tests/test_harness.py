"""Experiment harness: configs, determinism, cells, reports."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from spatialprivacy import attacker, descriptors, harness, metrics
from spatialprivacy.attacker import AttackParams, ReferenceEnsemble, build_reference
from spatialprivacy.descriptors import SpinParams, UnusableSpaceError
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
    trial_lines,
    trials_from_jsonl,
)
from spatialprivacy.mechanisms import GeneralizationParams, release_at, release_sequence
from spatialprivacy.metrics import TrialRecord, privacy_band, qos
from spatialprivacy.ply_io import save_ply
from spatialprivacy.synthetic import DEFAULT_SPACE_COUNT, SyntheticSpaceSpec, generate_space

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
        assert cfg.samples == 1000
        assert cfg.releases == 1
        assert cfg.radii == (0.5, 1.0, 2.0)
        succ = ExperimentConfig(mode="successive")
        assert succ.samples == 100
        assert succ.releases == 100
        cons = ExperimentConfig(mode="conservative")
        assert cons.max_planes == tuple(range(1, 30, 2))
        assert cons.kinds == ("generalized",)

    def test_set_fields_win_over_the_preset(self):
        succ = ExperimentConfig(mode="successive", max_planes=(1, 3), samples=2)
        assert succ.max_planes == (1, 3)
        assert succ.samples == 2
        cons = ExperimentConfig(mode="conservative", kinds=("raw",), max_planes=(None,))
        assert cons.kinds == ("raw",)
        assert ExperimentConfig(mode="one-time", releases=1).releases == 1

    @pytest.mark.parametrize("mode", ["one-time", "successive", "conservative"])
    def test_to_dict_records_the_filled_sweep(self, mode):
        """The dict holds the sweep that runs, no unset field, and reads back
        equal through JSON."""
        cfg = ExperimentConfig(mode=mode)
        data = cfg.to_dict()
        for name in ("radii", "samples", "releases", "max_planes", "kinds"):
            assert data[name] is not None, name
        assert ExperimentConfig.from_dict(json.loads(json.dumps(data))) == cfg

    def test_equal_sweeps_make_equal_hashable_configs(self):
        assert ExperimentConfig(radii=[1.0]) == ExperimentConfig(radii=(1.0,))
        assert hash(ExperimentConfig(radii=[1.0])) == hash(ExperimentConfig(radii=(1.0,)))
        assert ExperimentConfig() == ExperimentConfig(samples=1000)
        assert ExperimentConfig(max_planes=[None], kinds=["raw"]).max_planes == (None,)

    @pytest.mark.parametrize("fields, message", [
        (dict(mode="conservative", kinds=("raw",)), "caps"),
        (dict(mode="successive", kinds=("raw", "generalized"), max_planes=(1, 3)), "caps"),
        (dict(mode="one-time", kinds=("generalized",), max_planes=(2,)), "caps"),
        (dict(mode="one-time", releases=5), "1 release"),
    ], ids=["conservative-raw", "successive-raw-caps", "one-time-caps", "one-time-releases"])
    def test_contradictory_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(mode="conservative", max_planes=(1, 3), releases=4, kinds=None)
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
        ("radii", (float("nan"),), "radii"), ("radii", (float("inf"),), "radii"),
        ("samples", 0, "samples"),
        ("releases", 0, "releases"), ("workers", 0, "workers"), ("factor", 0, "factor"),
        ("seed", -1, "seed"), ("variants", -1, "variants"),
        ("radii", (1.0, 1.0), "radii must not repeat"),
        ("radii", (1.0, 1.0000004), "radii must not repeat"),
        ("max_planes", (1, 3, 1), "max_planes must not repeat"),
        ("max_planes", (None, None), "max_planes must not repeat"),
        ("kinds", ("generalized", "generalized"), "kinds must not repeat"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(mode="conservative", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("samples", "3"), ("samples", 2.0), ("releases", True), ("workers", "2"),
        ("seed", 1.5), ("seed", None), ("variants", "1"), ("factor", 5.0),
        ("radii", ["1.0"]), ("radii", 1.0), ("radii", [True]),
        ("max_planes", [1, 2.5]), ("max_planes", ["3"]), ("max_planes", 3),
        ("kinds", "generalized"),
    ])
    def test_values_of_the_wrong_type_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentConfig.from_dict({"mode": "conservative", field: value})

    @pytest.mark.parametrize("field", ["radii", "max_planes", "kinds"])
    def test_empty_sweep_list_rejected_by_name(self, field):
        """An empty list would sweep nothing: no trial, no metrics."""
        with pytest.raises(ValueError, match=f"^{field} must not be empty"):
            ExperimentConfig.from_dict({"mode": "conservative", field: []})

    def test_uncapped_and_unit_values_accepted(self):
        cfg = ExperimentConfig(mode="conservative", max_planes=(1, None), radii=(0.1,),
                               samples=1, releases=1, workers=1)
        assert cfg.max_planes == (1, None)
        # Radii 2e-6 m apart keep distinct walks (see _radius_key).
        assert ExperimentConfig(radii=(1.0, 1.000002)).radii == (1.0, 1.000002)

    def test_max_planes_inf_token(self):
        cfg = ExperimentConfig.from_dict(
            {"mode": "conservative", "max_planes": [1, "inf"]}
        )
        assert cfg.max_planes == (1, None)

    @pytest.mark.parametrize("data, message", [
        ({"walk_step_max": 0.5}, "unknown config key.*walk_step_max"),
        ({"dataset": {"count": 2, "denisty": 9}}, "unknown dataset key.*denisty"),
        ({"descriptor": {"width": 4}}, "unknown descriptor key.*width"),
        ({"generalization": {"eps": 0.1}}, "unknown generalization key.*eps"),
        ({"attack": {"t3": 0.5, "t0": 1}}, "unknown attack key.*t0, t3"),
        ({"qos_alpha": 0.7, "qos_beta": 0.3}, "unknown config key.*qos_beta"),
        ({"qos_symmetric": False}, "unknown config key.*qos_symmetric"),
        ({"attack": {"strict_nndr": True}}, "unknown attack key.*strict_nndr"),
    ], ids=["top-level", "dataset", "descriptor", "generalization", "attack", "qos-beta",
            "qos-symmetric", "strict-nndr"])
    def test_unknown_keys_rejected_by_name(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"descriptor": {"bin_size": "0.1"}}, "descriptor: bin_size must be"),
        ({"descriptor": {"bin_size": float("inf")}}, "descriptor: bin_size must be"),
        ({"descriptor": {"image_width": 8.0}}, "descriptor: image_width must be"),
        ({"dataset": {"count": "2"}}, "dataset: count must be"),
        ({"dataset": {"type": "bogus"}}, "dataset: type must be one of"),
        ({"dataset": {"type": "directory"}}, "dataset: path must be"),
        ({"dataset": {"density": 0}}, "dataset: density must be"),
        ({"dataset": {"noise_sigma": -0.1}}, "dataset: noise_sigma must be"),
        ({"dataset": {"seed": 1.5}}, "dataset: seed must be"),
        ({"dataset": {"normals_k": 0}}, "dataset: normals_k must be"),
        ({"attack": {"t1": "x"}}, "attack: t1 must be"),
        ({"attack": {"t2": float("nan")}}, "attack: t2 must be"),
        ({"attack": {"nndr_threshold": -1}}, "attack: nndr_threshold must be"),
        ({"attack": {"nndr_threshold": True}}, "attack: nndr_threshold must be"),
        ({"generalization": {"dist_eps": "0.05"}}, "generalization: dist_eps must be"),
        ({"generalization": {"normal_angle_max": 0}}, "generalization: normal_angle_max"),
        ({"generalization": {"min_inliers": 2.5}}, "generalization: min_inliers must be"),
        ({"generalization": {"candidates_per_round": 0}}, "candidates_per_round must be"),
        ({"dataset": "synthetic"}, "dataset must be an object of DatasetSpec"),
        ({"attack": [0.9]}, "attack must be an object of AttackParams"),
        ({"qos_alpha": "x"}, "qos_alpha must be"),
        ({"qos_alpha": 1.5}, "qos_alpha must be"),
        ({"qos_alpha": -0.5}, "qos_alpha must be"),
        ({"attack": {"nndr_threshold": float("nan")}}, "attack: nndr_threshold must be"),
        ({"preflight": 0}, "preflight must be"),
        ({"mode": ["one-time"]}, "mode must be one of"),
        (json.loads('{"radii": [1.0, Infinity]}'), "radii must be a list of finite"),
    ])
    def test_bad_setting_values_rejected_by_name(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    def test_settings_classes_check_their_own_fields(self):
        with pytest.raises(ValueError, match="bin_size must be"):
            SpinParams(bin_size="0.1")
        with pytest.raises(ValueError, match="t1 must be"):
            AttackParams(t1=None)
        with pytest.raises(ValueError, match="min_inliers must be"):
            GeneralizationParams(min_inliers=True)
        with pytest.raises(ValueError, match="count must be"):
            DatasetSpec(count=0)
        with pytest.raises(ValueError, match=f"count must be at most {DEFAULT_SPACE_COUNT}"):
            DatasetSpec(count=DEFAULT_SPACE_COUNT + 1)
        DatasetSpec(type="directory", path="spaces", count=DEFAULT_SPACE_COUNT + 1)
        cfg = ExperimentConfig.from_dict({"qos_alpha": 0.25, "attack": {"t2": 1.5}})
        assert cfg.attack.t2 == 1.5
        assert cfg.attack.nndr_threshold is None


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
            dict(mode="conservative", radii=(0.8,), samples=3, releases=3,
                 max_planes=(1, 3), kinds=None, preflight=True),
        ],
        ids=["one-time", "conservative", "successive", "conservative-preflight"],
    )
    def test_deterministic_across_runs_and_workers(self, overrides, monkeypatch):
        def outputs(**more):
            cells, trials = run_experiment(tiny_config(**overrides, **more))
            return cells_to_csv(cells), "".join(trial_lines(trials))

        a = outputs()
        assert outputs() == a
        assert outputs(workers=3) == a
        # These walks' release clouds hold 10 to 30 rows. Batches of 1 row
        # split the caps of one release, batches of 30 rows span releases,
        # and one of 10**9 rows takes a whole walk.
        for rows in (1, 30, 10**9):
            monkeypatch.setattr(harness, "_BATCH_ROWS", rows)
            assert outputs() == a, rows
            assert outputs(workers=3) == a, rows

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

    def test_successive_with_caps_is_conservative(self):
        sweep = dict(radii=(0.8,), samples=2, releases=3, max_planes=(1, 3), kinds=None)
        succ = run_experiment(tiny_config(mode="successive", **sweep))[0]
        cons = run_experiment(tiny_config(mode="conservative", **sweep))[0]
        assert {c.mode for c in succ} == {"successive-gen"}
        assert {c.max_planes for c in succ} == {1, 3}
        assert [replace(c, mode="conservative-gen") for c in succ] == cons

    def test_one_time_cells_shape(self, one_time_result):
        cells, trials = one_time_result
        assert len(cells) == 1
        cell = cells[0]
        assert cell.mode == "one-time-raw"
        assert cell.release_idx == 1
        assert cell.space_count == 3
        assert cell.n_trials == 6
        assert len(trials) == 6

    def test_one_time_is_a_walk_of_one_release(self):
        sweep = dict(radii=(1.0, 1.5), samples=3, kinds=("raw", "generalized"))
        one_time = run_experiment(tiny_config(mode="one-time", **sweep))
        walk = run_experiment(tiny_config(mode="successive", releases=1, **sweep))
        assert (list(trial_lines([replace(t, mode="successive") for t in one_time[1]]))
                == list(trial_lines(walk[1])))
        assert (cells_to_csv(one_time[0]).replace("\none-time-", "\n")
                == cells_to_csv(walk[0]).replace("\nsuccessive-", "\n"))
        assert {c.mode for c in one_time[0]} == {"one-time-raw", "one-time-gen"}

    def test_raw_one_time_queries_have_zero_q(self, one_time_result):
        _, trials = one_time_result
        assert all(t.q == 0.0 for t in trials if t.q is not None)


def count_calls(monkeypatch, original, position) -> list[int]:
    """Wrap ``original`` wherever a ``spatialprivacy`` module looks it up, as
    the benchmark wraps its layers; collect the size of each call's
    argument at ``position``."""
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(len(args[position]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "spatialprivacy":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return sizes


def walk_of(config: ExperimentConfig, kind: str, radius: float, sample: int):
    """The steps and final state of one walk of the sweep, run again."""
    spaces = list(load_dataset(config.dataset).values())
    rng = harness._trial_rng(config.seed, (harness._WALK_FAMILY, harness._KINDS.index(kind),
                                           harness._radius_key(radius), sample))
    space = spaces[int(rng.integers(len(spaces)))]
    return release_sequence(space, radius, config.releases, rng, config.generalization,
                            generalize=kind == "generalized")


def distinct_release_sizes(config: ExperimentConfig) -> list[int]:
    """The size of every non-empty distinct release of the sweep's walks, in
    sweep order, derived from the walks themselves: a walk's release is fixed
    by its step's accumulated points and planes and its effective cap."""
    sizes = []
    for kind in config.kinds:
        for radius in config.radii:
            for sample in range(config.samples):
                steps, state = walk_of(config, kind, radius, sample)
                released = {}
                for step in steps:
                    for cap in config.max_planes:
                        effective = step.n_planes if cap is None else min(cap, step.n_planes)
                        released.setdefault((step.n_accumulated, step.n_planes, effective),
                                            len(release_at(state, step, cap)))
                sizes.extend(n for n in released.values() if n)
    return sizes


class TestStepQ:
    """A step's releases and Q errors are derived once, for every cap."""

    CONFIG = dict(mode="conservative", radii=(1.5,), samples=3, releases=6,
                  max_planes=(1, 3, 5, None), kinds=None)

    def test_each_cap_q_is_qos_of_its_release(self):
        """Walks of up to 10 and 22 planes: every trial's Q is, bitwise,
        ``qos`` of its release against the points revealed so far."""
        config = tiny_config(**self.CONFIG)
        spaces = load_dataset(config.dataset)
        ensemble = harness.build_ensemble(config, spaces)
        for sample in (1, 2):
            steps, state = walk_of(config, "generalized", 1.5, sample)
            assert steps[-1].n_planes >= 5
            trials = harness._sequence_trials(ensemble, list(spaces.values()), config,
                                              "generalized", 1.5, sample)
            assert len(trials) == len(steps) * len(config.max_planes)
            for trial in trials:
                step = steps[trial.release_idx - 1]
                expected = qos(release_at(state, step, trial.max_planes),
                               state.prefix(step.n_accumulated), config.qos_alpha)
                assert trial.q.hex() == expected.hex()

    def test_one_q_index_per_step_that_releases_new_points(self, monkeypatch):
        """Q indexes each step's truth once, whatever the number of caps; a
        step that reveals nothing new adds no index, and each index holds
        the points revealed by its step."""
        config = tiny_config(**self.CONFIG)
        indexed = []

        class Counted(metrics.SpatialIndex):
            def __init__(self, cloud):
                indexed.append(len(cloud))
                super().__init__(cloud)

        monkeypatch.setattr(metrics, "SpatialIndex", Counted)
        run_experiment(config)
        expected = []
        for sample in range(config.samples):
            steps, _ = walk_of(config, "generalized", 1.5, sample)
            seen = 0
            for step in steps:
                if step.n_accumulated > seen and step.n_planes:
                    expected.append(step.n_accumulated)
                seen = step.n_accumulated
        assert len(expected) < config.samples * config.releases
        assert indexed == expected


class TestBatchedSweep:
    CONSERVATIVE = dict(mode="conservative", radii=(0.8,), samples=3, releases=3,
                        max_planes=(1, 3), kinds=None)

    @pytest.mark.parametrize("rows", [1, 30, 512])
    def test_one_infer_call_per_distinct_release(self, rows, monkeypatch):
        monkeypatch.setattr(harness, "_BATCH_ROWS", rows)
        config = tiny_config(**self.CONSERVATIVE)
        sizes = count_calls(monkeypatch, attacker.infer, 1)
        run_experiment(config)
        assert sizes == distinct_release_sizes(config)

    @pytest.mark.parametrize("rows", [1, 30, 512])
    def test_each_distinct_release_described_once(self, rows, monkeypatch):
        monkeypatch.setattr(harness, "_BATCH_ROWS", rows)
        config = tiny_config(**self.CONSERVATIVE, preflight=True)
        ensemble = harness.build_ensemble(config, load_dataset(config.dataset))
        monkeypatch.setattr(harness, "build_ensemble", lambda *args, **kwargs: ensemble)
        sizes = count_calls(monkeypatch, descriptors.describe, 0)
        run_experiment(config)
        # Every release of these walks has a reliable keypoint, so none is
        # described again by its infer call.
        assert sizes == distinct_release_sizes(config)

    def test_a_step_with_no_new_point_is_not_attacked_again(self, monkeypatch):
        # A ball wider than any room reveals the whole space at the first
        # step; the two later steps reveal nothing and repeat its release.
        config = tiny_config(mode="successive", radii=(50.0,), samples=2, releases=3)
        sizes = count_calls(monkeypatch, attacker.infer, 1)
        cells, trials = run_experiment(config)
        assert len(sizes) == 2 and len(trials) == 6
        assert [c.release_idx for c in cells] == [1, 2, 3]
        assert len({(c.pi1, c.pi2, c.abstain_rate, c.q) for c in cells}) == 1

    def test_unusable_cloud_abstains_alone(self, monkeypatch):
        """A release on which ``describe`` raises ``UnusableSpaceError``
        abstains with its Q and makes no ``infer`` call; the walk's other
        releases are attacked as in a walk without it."""
        config = tiny_config(**self.CONSERVATIVE)
        spaces = load_dataset(config.dataset)
        ensemble = harness.build_ensemble(config, spaces)
        walk = (list(spaces.values()), config, "generalized", 0.8, 1)
        before = harness._sequence_trials(ensemble, *walk)
        original, described = descriptors.describe, []

        def second_unusable(cloud, *args):
            described.append(len(cloud))
            if len(described) == 2:
                raise UnusableSpaceError("no keypoints with reliable normals")
            return original(cloud, *args)

        monkeypatch.setattr(harness, "describe", second_unusable)
        inferred = count_calls(monkeypatch, attacker.infer, 1)
        after = harness._sequence_trials(ensemble, *walk)
        assert len(described) >= 3
        assert inferred == described[:1] + described[2:]
        changed = [(got, want) for got, want in zip(after, before)
                   if list(trial_lines([got])) != list(trial_lines([want]))]
        assert changed and len(after) == len(before)
        for got, want in changed:
            assert got.abstained and (got.hyp_label, got.hyp_centroid) == (None, None)
            assert want.hyp_label is not None
            assert got.q is not None and got.q == want.q

class TestPreflight:
    @pytest.fixture(scope="class")
    def setup(self):
        spaces = load_dataset(TINY)
        return spaces, build_reference(list(spaces.values()), seed=3)

    def test_describes_no_space(self, setup, monkeypatch):
        spaces, ensemble = setup
        calls = []
        original = descriptors.describe

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (attacker, descriptors, harness):
            monkeypatch.setattr(module, "describe", counted, raising=False)
        self_query_check(ensemble, spaces, tiny_config())
        assert calls == []

    def test_wrong_label_raises(self, setup):
        spaces, ensemble = setup
        with pytest.raises(RuntimeError, match="classified as"):
            self_query_check(ensemble, {"space1": spaces["space0"]}, tiny_config())

    def test_swapped_pools_fail(self, setup):
        spaces, ensemble = setup
        pools = {label: (ensemble.pool(label).descriptors, ensemble.pool(label).positions)
                 for label in ensemble.labels}
        pools["space0"], pools["space1"] = pools["space1"], pools["space0"]
        swapped = ReferenceEnsemble(pools, ensemble.params, ensemble.factor)
        with pytest.raises(RuntimeError, match="self-query intra check failed for 'space0'"):
            self_query_check(swapped, spaces, tiny_config())

    def test_first_label_fails_on_a_thread_pool(self, setup):
        spaces, ensemble = setup
        mislabelled = {"space1": spaces["space0"], "space2": spaces["space0"]}
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(RuntimeError, match="'space1' classified as 'space0'"):
                self_query_check(ensemble, mislabelled, tiny_config(), map_fn=pool.map)

    def test_abstention_raises(self, setup):
        spaces, ensemble = setup
        config = tiny_config(attack=AttackParams(t2=1.5))
        with pytest.raises(RuntimeError, match="abstained"):
            self_query_check(ensemble, spaces, config)


class TestInferOrAbstain:
    """Each distinct release of a walk is either attacked by ``infer`` or
    abstains; only ``UnusableSpaceError`` from ``describe`` makes it abstain."""

    def test_unusable_query_abstains(self, monkeypatch):
        """With no release describable, every trial abstains with no
        hypothesis and keeps its Q, and ``infer`` is never called."""
        config = tiny_config(**TestBatchedSweep.CONSERVATIVE)
        spaces = list(load_dataset(config.dataset).values())
        ensemble = build_reference(spaces, seed=3)
        walk = (spaces, config, "generalized", 0.8, 0)
        before = harness._sequence_trials(ensemble, *walk)

        def unusable(*args, **kwargs):
            raise UnusableSpaceError("no keypoints")

        monkeypatch.setattr(harness, "describe", unusable)
        inferred = count_calls(monkeypatch, attacker.infer, 1)
        after = harness._sequence_trials(ensemble, *walk)
        assert inferred == [] and len(after) == len(before) > 0
        for got, want in zip(after, before):
            assert got.abstained and (got.hyp_label, got.hyp_centroid) == (None, None)
            assert got.q == want.q

    def test_other_value_errors_propagate(self, monkeypatch):
        """Any other error from ``describe`` is a fault, and leaves the walk."""
        def broken(*args, **kwargs):
            raise ValueError("a bug, not an unusable space")

        monkeypatch.setattr(harness, "describe", broken)
        config = tiny_config(**TestBatchedSweep.CONSERVATIVE)
        spaces = list(load_dataset(config.dataset).values())
        ensemble = build_reference(spaces, seed=3)
        with pytest.raises(ValueError, match="a bug"):
            harness._sequence_trials(ensemble, spaces, config, "generalized", 0.8, 0)


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
    def test_metrics_json_row_round_trip(self, overrides, tmp_path):
        # A metrics.json row, keyed by mode and radius, holds every field of
        # its cell: nulls stay null and floats come back exactly.
        cell = self.make_cell(pi1=1 / 7, **overrides)
        nested = json.loads(report([cell], tmp_path)["json"].read_text())
        (mode, by_radius), = nested.items()
        (radius, rows), = by_radius.items()
        (row,) = rows
        assert row.pop("privacy_band") == privacy_band(cell.pi1)
        row["pi2"] = row.pop("pi2_m")
        assert CellMetrics(mode=mode, radius=float(radius), **row) == cell

    def test_trials_jsonl_round_trip(self, one_time_result):
        point = np.array([0.1, 1 / 3, -2e-17])
        made = [
            TrialRecord("space0", point, "space1", point * 7, False, 1.5, 2, 3, 1 / 7,
                        "generalized", 4, "successive", 3),
            TrialRecord("space2", -point, None, None, True, 1.5, 2, None, None, "raw", 0,
                        "successive", 3),
        ]
        for trials in (one_time_result[1], made):
            back = trials_from_jsonl("".join(trial_lines(trials)))
            assert len(back) == len(trials)
            for got, want in zip(back, trials):
                for f in fields(TrialRecord):
                    a, b = getattr(got, f.name), getattr(want, f.name)
                    if isinstance(b, np.ndarray):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                    else:
                        assert type(a) is type(b) and a == b, f.name

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path)

    def test_none_metrics_serialize_as_empty(self):
        text = cells_to_csv([self.make_cell(pi2=None, q=None)])
        assert ",,," in text.split("\n")[1] or ",," in text.split("\n")[1]

    def test_trials_jsonl(self, one_time_result):
        _, trials = one_time_result
        lines = "".join(trial_lines(trials)).strip().split("\n")
        assert len(lines) == len(trials)
        row = json.loads(lines[0])
        assert set(row) == {f.name for f in fields(TrialRecord)}
