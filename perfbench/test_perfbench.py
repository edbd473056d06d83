"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import run
from spans import LAYERS, layer_metrics, per_layer_units, self_times
from workloads import WORKLOADS, check_outputs, make_config, planned_trials

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))   # the program, for input generation


def _span(id, parent, start, end, name="x", items=1, useful=None):
    return {"id": id, "parent": parent, "name": name, "thread": 1, "start": start,
            "end": end, "items": items, "useful": useful}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),    # grandchild: counted against span 2, not span 1
        _span(4, 1, 5.0, 6.0),
        _span(5, None, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0})


def test_self_time_counts_overlapping_children_once():
    # Children from a span's own thread never overlap, but clipping and
    # overlap must still cover each instant once.
    spans = [_span(1, None, 0.0, 4.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 2.0, 5.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_layer_metrics_sums_per_layer_and_marks_absent_layers():
    spans = [
        _span(1, None, 0.0, 2.0, "attacker.infer", useful=True),
        _span(2, 1, 0.5, 1.5, "attacker.match_inter", items=30),
        _span(3, None, 3.0, 4.0, "attacker.infer", useful=False),
        _span(4, 3, 3.0, 3.5, "attacker.match_inter", items=12),
    ]
    trace = {"absent": ["mechanisms.subsume"], "setup_end": 2.5, "spans": spans}
    metrics = layer_metrics(trace)
    assert metrics["attacker.infer.calls"] == 2
    assert metrics["attacker.infer.self_s"] == pytest.approx(1.5)
    assert metrics["attacker.infer.sweep_self_s"] == pytest.approx(0.5)
    assert metrics["attacker.match_inter.sweep_self_s"] == pytest.approx(0.5)
    assert metrics["attacker.match_inter.items"] == 42
    assert metrics["attacker.infer.useful_frac"] == 0.5
    assert metrics["mechanisms.subsume.calls"] is None
    assert metrics["metrics.qos.calls"] == 0
    assert set(metrics) <= set(per_layer_units())


def test_per_layer_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == per_layer_units()
    assert len(LAYERS) * 4 + 7 == len(declared)


@pytest.mark.parametrize("workload, expected", [
    ("paper-setup", 3 * 2 * 12),          # radii x raw/generalized x samples
    ("conservative", 1 * 24 * 8 * 15),    # radii x walks x releases x caps
])
def test_planned_trials_match_the_programs_resolved_sweep(workload, expected):
    from spatialprivacy.harness import ExperimentConfig

    config = make_config(workload, seed=3, workers=2, ply_dir="spaces")
    assert planned_trials(config) == expected
    resolved = ExperimentConfig.from_dict(config)
    assert expected == (len(resolved.resolved_kinds()) * len(resolved.resolved_radii())
                        * resolved.resolved_samples() * resolved.resolved_releases()
                        * len(resolved.resolved_caps()))


def test_every_workload_is_known():
    assert WORKLOADS == ("paper-setup", "conservative")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert tuple(w["name"] for w in declared) == WORKLOADS


def _write_outputs(out: Path, rows: list[str], trials: int):
    out.mkdir()
    header = "mode,space_count,radius_m,release_idx,max_planes,pi1,pi2_m,abstain_rate,q,n_trials"
    (out / "metrics.csv").write_text("\n".join([header, *rows]) + "\n")
    (out / "metrics.json").write_text("{}")
    (out / "summary.txt").write_text("")
    (out / "trials.jsonl").write_text("{}\n" * trials)


def test_check_outputs_accepts_a_complete_grid(tmp_path):
    config = {"mode": "one-time", "radii": [2.0], "samples": 3, "kinds": ["raw"]}
    _write_outputs(tmp_path / "ok", ["one-time-raw,2,2,1,inf,0.5,,0,0.1,3"], 3)
    produced, digest, problems = check_outputs(tmp_path / "ok", config)
    assert (produced, problems) == (3, [])
    assert len(digest) == 64


def test_check_outputs_flags_missing_cells_and_bad_pi1(tmp_path):
    config = {"mode": "one-time", "radii": [1.0, 2.0], "samples": 3, "kinds": ["raw"]}
    _write_outputs(tmp_path / "bad", ["one-time-raw,2,2,1,inf,1.5,,0,0.1,3"], 3)
    produced, _, problems = check_outputs(tmp_path / "bad", config)
    assert produced == 3
    assert any("missing" in p for p in problems)
    assert any("pi1" in p for p in problems)
    assert any("planned 6" in p for p in problems)


def test_failed_trials_counts_a_raising_run_as_all_failed(tmp_path):
    # A directory dataset with no PLY files makes `run` raise before any trial.
    config = make_config("paper-setup", seed=0, workers=1, ply_dir=str(tmp_path / "none"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    planned = planned_trials(config)
    raised = run.invoke(ROOT, config_path, config, tmp_path / "out",
                        deadline=time.monotonic() + 60)
    assert raised["rc"] != 0 and raised["produced"] == 0 and raised["problems"]
    complete = {"problems": [], "produced": planned}
    short = {"problems": [], "produced": planned - 2}
    assert run.failed_trials([raised, complete], planned) == planned
    assert run.failed_trials([complete, short], planned) == 2
    assert run.failed_trials([complete], planned) == 0


def test_a_run_stopped_at_the_time_limit_is_slow_not_wrong(tmp_path):
    config = {"mode": "one-time", "radii": [1.0], "samples": 2, "kinds": ["raw"],
              "seed": 1, "dataset": {"count": 2, "density": 15.0, "noise_sigma": 0.005}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    stopped = run.invoke(ROOT, config_path, config, tmp_path / "out",
                         deadline=time.monotonic())   # the 1 s minimum applies
    assert stopped["timed_out"] and stopped["problems"] == []
    assert stopped["run_s"] >= 1.0 and stopped["produced"] == 0
    assert run.failed_trials([stopped], planned_trials(config)) == 2
    # Its set-up time is kept if the preflight had returned; here it had not.
    assert run.summarize([stopped]) == {}
    assert run.summarize([dict(stopped, setup_s=3.0)]) == {"setup_s": 3.0}


def test_traced_run_matches_untraced_and_records_every_lookup(tmp_path):
    config = {"mode": "one-time", "radii": [1.0], "samples": 2, "kinds": ["raw"],
              "seed": 1, "dataset": {"count": 2, "density": 15.0, "noise_sigma": 0.005}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    deadline = time.monotonic() + 120
    plain = run.invoke(ROOT, config_path, config, tmp_path / "plain", deadline)
    traced = run.invoke(ROOT, config_path, config, tmp_path / "traced", deadline,
                        spans=tmp_path / "spans.json")
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["absent"] == []
    metrics = layer_metrics(trace)
    # harness calls self_query_check and infer by its own imported names.
    assert metrics["harness.self_query_check.calls"] == 1
    assert metrics["attacker.infer.calls"] == 2 + 2   # two self-queries, two trials
    assert metrics["attacker.match_inter.calls"] == metrics["attacker.infer.calls"]
    assert metrics["mechanisms.subsume.calls"] == 0
    assert metrics["harness.report.items"] == 1
