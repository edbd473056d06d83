"""Workload inputs built from a seed, the trial plan, and the output check.

Each workload is one ``spatialprivacy run`` config. The benchmark writes the
config JSON (and, for ``paper-setup``, a directory of PLY files without
normals) before any timing starts; the program sees only those files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

PAPER_DENSITY = 80.0      # points per square meter, as in the paper's scans
REDUCED_DENSITY = 25.0    # about 5.3k points per space
NOISE_SIGMA = 0.005
PAPER_SPACES = 2          # paper-density spaces written as PLY for paper-setup
# The spaces are the same for every seed, so set-up work and peak memory do
# not depend on it; the seed drives every random choice of the sweep.
DATASET_SEED = 0
CAPS = tuple(range(1, 30, 2))
WALKS, RELEASES = 24, 8  # conservative: random walks per run, releases per walk

WORKLOADS = ("paper-setup", "conservative")


def make_config(workload: str, seed: int, workers: int, ply_dir: str | None = None) -> dict:
    """The run config of one workload; ``ply_dir`` is needed for paper-setup."""
    if workload == "paper-setup":
        return {"mode": "one-time", "radii": [0.5, 1.0, 2.0], "samples": 12,
                "kinds": ["raw", "generalized"], "seed": seed, "workers": 1,
                "dataset": {"type": "directory", "path": ply_dir, "normals_k": 12}}
    if workload == "conservative":
        return {"mode": "conservative", "radii": [1.0], "samples": WALKS, "releases": RELEASES,
                "max_planes": list(CAPS), "seed": seed, "workers": workers,
                "dataset": {"type": "synthetic", "count": 7, "density": REDUCED_DENSITY,
                            "noise_sigma": NOISE_SIGMA, "seed": DATASET_SEED}}
    raise ValueError(f"unknown workload {workload!r}")


def planned_cells(config: dict) -> dict[tuple, int]:
    """(mode, radius, release_idx, max_planes) -> trial records planned."""
    samples = config["samples"]
    if config["mode"] == "one-time":
        return {(f"one-time-{'gen' if kind == 'generalized' else 'raw'}",
                 float(r), 1, "inf"): samples
                for kind in config["kinds"] for r in config["radii"]}
    return {("conservative-gen", float(r), idx, str(cap)): samples
            for r in config["radii"]
            for idx in range(1, config["releases"] + 1)
            for cap in config["max_planes"]}


def planned_trials(config: dict) -> int:
    return sum(planned_cells(config).values())


def write_inputs(workload: str, seed: int, workers: int, work: Path) -> tuple[Path, dict]:
    """Write the config (and PLY files) under ``work``; return it and input sizes."""
    from spatialprivacy.geometry import PointCloud
    from spatialprivacy.ply_io import save_ply
    from spatialprivacy.synthetic import default_space_specs, generate_space

    work.mkdir(parents=True, exist_ok=True)
    ply_dir = work / "spaces"
    config = make_config(workload, seed, workers, str(ply_dir.resolve()))
    sizes: dict = {"ply_bytes": 0}
    if workload == "paper-setup":
        ply_dir.mkdir(exist_ok=True)
        specs = list(default_space_specs(DATASET_SEED, PAPER_DENSITY, NOISE_SIGMA).items())
        clouds = [generate_space(spec, label) for label, spec in specs[:PAPER_SPACES]]
        for cloud in clouds:
            path = ply_dir / f"{cloud.label}.ply"
            save_ply(PointCloud(cloud.positions, None, cloud.label), path)
            sizes["ply_bytes"] += path.stat().st_size
    else:
        ds = config["dataset"]
        specs = list(default_space_specs(ds["seed"], ds["density"], ds["noise_sigma"]).items())
        clouds = [generate_space(spec, label) for label, spec in specs[: ds["count"]]]
    sizes["points_per_space"] = [len(c) for c in clouds]
    sizes["planned_trials"] = planned_trials(config)
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path, sizes


def check_outputs(out: Path, config: dict) -> tuple[int, str | None, list[str]]:
    """Trial records produced, the metrics.csv sha256, and the problems found."""
    problems = []
    for name in ("metrics.csv", "metrics.json", "summary.txt", "trials.jsonl"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return 0, None, problems
    raw = (out / "metrics.csv").read_bytes()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    found = {(r["mode"], float(r["radius_m"]), int(r["release_idx"]), r["max_planes"]):
             int(r["n_trials"]) for r in rows}
    planned = planned_cells(config)
    missing = planned.keys() - found.keys()
    extra = found.keys() - planned.keys()
    if missing:
        problems.append(f"{len(missing)} planned cells missing from metrics.csv")
    if extra:
        problems.append(f"{len(extra)} unplanned cells in metrics.csv")
    produced = sum(found.values())
    if produced != sum(planned.values()):
        problems.append(f"n_trials sums to {produced}, planned {sum(planned.values())}")
    with open(out / "trials.jsonl") as fh:
        lines = sum(1 for _ in fh)
    if lines != produced:
        problems.append(f"trials.jsonl has {lines} records, metrics.csv counts {produced}")
    bad_pi1 = [r["pi1"] for r in rows if not 0.0 <= float(r["pi1"]) <= 1.0]
    if bad_pi1:
        problems.append(f"pi1 outside [0, 1]: {bad_pi1[:3]}")
    return min(produced, lines), hashlib.sha256(raw).hexdigest(), problems
