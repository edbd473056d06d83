"""Experiment orchestration: seeded Monte-Carlo sweeps over release settings.

Every trial is a random walk of accumulating releases, raw or generalized,
each derived under every plane cap of the sweep; a ``one-time`` trial is a
walk of one release, a single partial ball. Each release stands for the raw
points revealed so far, the prefix of the walk's final state. The mode only
presets the fields a config leaves unset (see :class:`ExperimentConfig`) and
labels the ``mode`` column. Every trial derives its RNG stream from the
master seed and stable cell coordinates, never from sweep position or
scheduling, so runs are reproducible byte-for-byte at any worker count and
removing one sweep cell leaves the others unchanged. One pool of ``workers``
threads builds the reference, runs the preflight and runs the sweep.

A walk attacks each of its distinct release clouds once (a step that
reveals no new point repeats an earlier release). Q is computed once per
step: the step's live planes are projected once, every projected point's
error against the step's truth is found on one index, and each plane cap's
release and Q take the rows of its top planes. Each is described once;
an empty or undescribable release abstains there, unmatched. The others are
queued until they hold ``_BATCH_ROWS`` descriptor rows, then 2-nn matched by
one ``attacker.two_nn`` call, which makes one large GEMM of many small ones
and ranks a row that several releases share once; ``infer`` is then called
once per release, with its cloud. ``_BATCH_ROWS`` bounds the memory a walk
holds for this; a batch never spans walks.
A run's record is its trials (:func:`trial_lines`, read back by
:func:`trials_from_jsonl`); its cells are :func:`aggregate` of them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ._checks import is_int, is_real, require, require_bool, require_int, require_real
from .attacker import (AttackParams, ReferenceEnsemble, build_reference, infer, raw_view,
                       two_nn)
from .descriptors import SpinParams, UnusableSpaceError, describe
from .geometry import PointCloud, apply_transform, centroid, estimate_normals
from .mechanisms import GeneralizationParams, release_sequence, step_release
from .metrics import (
    TrialRecord,
    abstention_rate,
    distance_error,
    inter_privacy,
    intra_privacy,
    privacy_band,
    qos_errors,
)
from .ply_io import load_ply
from .synthetic import DEFAULT_SPACE_COUNT, default_space_specs, generate_space

__all__ = [
    "CellMetrics",
    "DatasetError",
    "ExperimentConfig",
    "aggregate",
    "build_ensemble",
    "load_cloud",
    "load_dataset",
    "report",
    "run_experiment",
    "self_query_check",
    "trials_from_jsonl",
]

_KINDS = ("raw", "generalized")
_KIND_TAGS = {"raw": "raw", "generalized": "gen"}  # kind -> its suffix in a cell's mode
_BATCH_ROWS = 512  # descriptor rows of a walk's releases per two_nn call
_WALK_FAMILY = 2  # spawn-key family of every trial's walk, whatever the mode
_PRESETS = {  # mode -> the values of the sweep fields a config leaves unset
    "one-time": dict(radii=(0.5, 1.0, 2.0), samples=1000, releases=1, max_planes=(None,),
                     kinds=_KINDS),
    "successive": dict(radii=(0.5, 1.0, 2.0), samples=100, releases=100, max_planes=(None,),
                       kinds=("generalized",)),
    "conservative": dict(radii=(0.5, 1.0, 2.0), samples=100, releases=100,
                         max_planes=tuple(range(1, 30, 2)), kinds=("generalized",)),
}


_DATASET_TYPES = ("synthetic", "directory")


@dataclass(frozen=True)
class DatasetSpec:
    type: str = "synthetic"      # "synthetic" or "directory"
    path: str | None = None      # the directory of PLY files
    count: int = 7               # synthetic: at most DEFAULT_SPACE_COUNT
    density: float = 80.0
    noise_sigma: float = 0.0
    seed: int = 0
    normals_k: int = 12          # for PLY files lacking normals

    def __post_init__(self):
        require("type", self.type, self.type in _DATASET_TYPES, f"one of {_DATASET_TYPES}")
        require("path", self.path, isinstance(self.path, str)
                or (self.path is None and self.type != "directory"), "a directory path")
        require_int("count", self.count, 1)
        require("count", self.count, self.type != "synthetic" or self.count <= DEFAULT_SPACE_COUNT,
                f"at most {DEFAULT_SPACE_COUNT}, the number of synthetic rooms")
        require_real("density", self.density, 0.0)
        require_real("noise_sigma", self.noise_sigma, 0.0, closed=True)
        require_int("seed", self.seed, 0)
        require_int("normals_k", self.normals_k, 1)


# config key -> the settings class its JSON object describes
_SECTIONS = {"dataset": DatasetSpec, "descriptor": SpinParams,
             "generalization": GeneralizationParams, "attack": AttackParams}


def _known_fields(klass, data: dict, where: str) -> dict:
    unknown = set(data) - {f.name for f in fields(klass)}
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    return dict(data)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment description. Every mode runs random walks; a
    one-time trial is a walk of one release, so ``one-time`` runs exactly as
    ``successive`` with one release and no cap. A sweep field left unset is
    filled at construction with its mode's paper-scale preset, and lists are
    stored as tuples, so the fields hold the values that run, and
    ``dataclasses.replace(cfg, mode=...)`` keeps them. Fields that contradict
    each other are rejected: bounded plane caps on raw or one-time releases,
    or a one-time config with more than one release. So are empty lists of
    radii, caps or kinds, and repeated radii (equal to 1e-6 m), caps or kinds.

        mode          radii          samples  releases  max_planes      kinds
        one-time      0.5, 1.0, 2.0  1000     1         inf             raw, generalized
        successive    0.5, 1.0, 2.0  100      100       inf             generalized
        conservative  0.5, 1.0, 2.0  100      100       1, 3, ..., 29   generalized
    """

    mode: str = "one-time"
    radii: tuple[float, ...] | None = None
    samples: int | None = None
    releases: int | None = None
    max_planes: tuple[int | None, ...] | None = None
    kinds: tuple[str, ...] | None = None
    seed: int = 0
    workers: int = 1
    variants: int = 1
    preflight: bool = True
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    descriptor: SpinParams = field(default_factory=SpinParams)
    factor: int = 5
    generalization: GeneralizationParams = field(default_factory=GeneralizationParams)
    attack: AttackParams = field(default_factory=AttackParams)
    qos_alpha: float = 0.5

    def __post_init__(self):
        require("mode", self.mode, isinstance(self.mode, str) and self.mode in _PRESETS,
                f"one of {tuple(_PRESETS)}")
        for name, preset in _PRESETS[self.mode].items():
            value = getattr(self, name)
            if value is None or (isinstance(value, list) and isinstance(preset, tuple)):
                object.__setattr__(self, name, preset if value is None else tuple(value))
        # Rejected here by name, not as a TypeError from a comparison, and not
        # after the reference is built and a sweep task fails.
        for name, least in (("samples", 1), ("releases", 1), ("workers", 1),
                            ("factor", 1), ("seed", 0), ("variants", 0)):
            require_int(name, getattr(self, name), least)
        for name, klass in _SECTIONS.items():
            value = getattr(self, name)
            require(name, value, isinstance(value, klass), f"an object of {klass.__name__} fields")
        require_bool("preflight", self.preflight)
        require_real("qos_alpha", self.qos_alpha, 0.0, 1.0, closed=True)
        # A repeated value counts one walk's trials twice; radii equal to
        # 1e-6 m share their walks (_radius_key).
        for name, ok, entries, key in (
            ("radii", lambda v: is_real(v) and math.isfinite(v) and v > 0,
             "finite positive numbers", _radius_key),
            ("max_planes", lambda v: v is None or (is_int(v) and v >= 1),
             "plane caps >= 1 (integers, or null for no cap)", str),
            ("kinds", lambda v: v in _KINDS, f"release kinds {_KINDS}", str),
        ):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(map(ok, value))):
                raise ValueError(f"{name} must be a list of {entries}, got {value!r}")
            if len(value) == 0:
                raise ValueError(f"{name} must not be empty: a sweep needs at least one value")
            if len(set(map(key, value))) < len(value):
                raise ValueError(f"{name} must not repeat a value, got {value!r}")
        if self.mode == "one-time" and self.releases != 1:
            raise ValueError("a one-time config has exactly 1 release")
        if (any(c is not None for c in self.max_planes)
                and (self.mode == "one-time" or "raw" in self.kinds)):
            raise ValueError("bounded plane caps apply only to generalized walks")

    # perfbench/test_perfbench.py reads the sweep through these; each is its field.
    def resolved_radii(self) -> tuple[float, ...]:
        return self.radii

    def resolved_samples(self) -> int:
        return self.samples

    def resolved_releases(self) -> int:
        return self.releases

    def resolved_caps(self) -> tuple[int | None, ...]:
        return self.max_planes

    def resolved_kinds(self) -> tuple[str, ...]:
        return self.kinds

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config a JSON object describes; anything else, or unknown keys,
        raise ``ValueError``."""
        require("config", data, isinstance(data, dict), "a JSON object")
        data = _known_fields(cls, data, "config")
        for key, klass in _SECTIONS.items():
            if key in data and isinstance(data[key], dict):
                try:
                    data[key] = klass(**_known_fields(klass, data[key], key))
                except ValueError as err:
                    raise ValueError(f"{key}: {err}") from None
        if isinstance(data.get("max_planes"), list):
            data["max_planes"] = [None if v in (None, "inf") else v for v in data["max_planes"]]
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        """Every field, each sweep field filled: the config that runs."""
        return asdict(self)


@dataclass(frozen=True)
class CellMetrics:
    """Aggregated metrics for one sweep cell."""

    mode: str
    space_count: int
    radius: float
    release_idx: int
    max_planes: int | None
    pi1: float
    pi2: float | None
    abstain_rate: float
    q: float | None
    n_trials: int


class DatasetError(ValueError):
    """The dataset yields too few spaces to attack, or a space too few points
    to estimate its normals."""


def load_dataset(spec: DatasetSpec) -> dict[str, PointCloud]:
    """Labeled spaces, ordered by label; synthetic or a directory of PLYs."""
    if spec.type == "synthetic":
        specs = default_space_specs(spec.seed, spec.density, spec.noise_sigma)
        chosen = list(specs.items())[: spec.count]
        return {label: generate_space(s, label) for label, s in chosen}
    paths = sorted(Path(spec.path).glob("*.ply"), key=lambda p: p.stem)
    if not paths:
        raise DatasetError(f"no .ply files under {spec.path}")
    return {p.stem: load_cloud(p, spec.normals_k) for p in paths}


def load_cloud(path, normals_k: int) -> PointCloud:
    """A PLY file as a cloud labeled with the file's stem; normals are
    estimated from ``normals_k`` neighbors when the file has none, which
    needs ``normals_k + 1`` points (:class:`DatasetError` if it has fewer)."""
    cloud = load_ply(path)
    if not cloud.has_normals:
        if len(cloud) < normals_k + 1:
            raise DatasetError(f"{path}: {len(cloud)} points without normals; estimating "
                               f"them needs normals_k + 1 = {normals_k + 1}")
        cloud = estimate_normals(cloud, normals_k)
    return cloud.with_label(Path(path).stem)


def build_ensemble(config: ExperimentConfig, spaces: dict[str, PointCloud],
                   map_fn=map) -> ReferenceEnsemble:
    """The reference ensemble ``config`` describes, built from ``spaces`` in
    their order: the ``descriptor`` settings and ``factor``, and ``variants``
    generalized variants per space under ``generalization``, seeded from
    ``seed``. ``map_fn`` maps the per-space work (see :func:`build_reference`)."""
    return build_reference(list(spaces.values()),
                           variant_params=(config.generalization,) * config.variants,
                           desc_params=config.descriptor, factor=config.factor,
                           seed=config.seed, map_fn=map_fn)


def self_query_check(ensemble: ReferenceEnsemble, spaces: dict[str, PointCloud],
                     config: ExperimentConfig, map_fn=map) -> None:
    """Pre-flight sanity gate: each raw space must match itself perfectly.

    Each space is one :func:`infer` call that matches the pool's own raw
    rows (:func:`raw_view`), which are ``describe``'s description of the
    space if the ensemble was built from it; nothing is described again. The
    label must come back exactly, and because a self-query's surviving
    reference keypoints coincide with its own matched keypoints, the
    location hypothesis must sit on the centroid of those keypoints of the
    space itself to within 1e-6; a pool built from another cloud fails
    here. Those positions are identical, so :func:`match_intra` skips its
    O(n^2) kernel and the check costs its 2-nn matching. ``map_fn`` maps it
    over the spaces (see :func:`build_reference`); the first failure in
    ``spaces`` order is raised.
    """
    def failure(label: str, space: PointCloud) -> str | None:
        hyp = infer(ensemble, space, config.attack, raw_view(ensemble, space))
        if hyp.label != label:
            return f"self-query check failed: {label!r} classified as {hyp.label!r}"
        if hyp.abstained:
            return f"self-query intra check abstained for {label!r}"
        pairs = hyp.inter.pairs[label]
        gate = pairs.nndr < config.attack.t1
        matched = space.positions[hyp.query.indices[pairs.query_indices[gate]]]
        expected = matched[hyp.intra.survivor_mask].mean(axis=0)
        if distance_error(hyp.centroid, expected) > 1e-6:
            return f"self-query intra check failed for {label!r}"
        return None

    for message in map_fn(failure, spaces, spaces.values()):
        if message is not None:
            raise RuntimeError(message)


def _trial_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _radius_key(radius: float) -> int:
    return int(round(radius * 1_000_000))


def _sequence_trials(ensemble, spaces_list, config, kind, radius, sample):
    """Trials for one trajectory, shared across every cap in the sweep.

    Every mode's trial is such a walk; a one-time trial is a walk of one
    release under the single cap None. The generalization state never
    depends on the cap (the cap only filters which planes get projected at
    release time), so one walk is run and each release under each sweep cap
    is derived from its final state. Each release's truth, the raw points
    revealed so far, is the state's prefix, which Q compares it with; the
    attacker sees the release moved by the walk's one transform. A release is
    fixed by its step's ``(n_accumulated, n_planes, min(cap, n_planes))``, and
    the walk's trials with one such key share one outcome: caps at or above a
    plane count, and later steps that revealed no new point, run once. A
    step that releases something new projects its live planes once
    (:func:`step_release`) and computes every projected point's Q error
    once, on one index of its truth; each cap's release and Q are the rows
    of its top planes.

    Each distinct release, in walk order, is described once. One that is
    empty, or on which ``describe`` raises ``UnusableSpaceError`` (no
    reliable keypoint), abstains there, with its Q, and is never matched.
    The others are queued; once the queue holds ``_BATCH_ROWS`` descriptor
    rows, and at the walk's end, one :func:`two_nn` call ranks its
    bit-distinct rows and ``infer`` is called once per queued release, with
    its cloud, description and neighbours. The queue bounds the memory this
    holds and never spans walks; the exact kNN ranks each row on its own,
    so the trials do not depend on how the releases fall into batches.
    """
    rng = _trial_rng(
        config.seed, (_WALK_FAMILY, _KINDS.index(kind), _radius_key(radius), sample)
    )
    space = spaces_list[int(rng.integers(len(spaces_list)))]
    steps, state = release_sequence(space, radius, config.releases, rng,
                                    config.generalization, generalize=kind == "generalized")
    outcomes = {}   # release key -> (hyp_label, hyp_centroid, abstained, q)
    queued = {}     # release key -> (query, description, q), not yet attacked

    def attack_queued():
        neighbours = two_nn(ensemble, [described for _, described, _ in queued.values()])
        for (key, (query, described, q_value)), rows in zip(queued.items(), neighbours):
            hyp = infer(ensemble, query, config.attack, described, rows)
            outcomes[key] = (hyp.label, hyp.centroid, hyp.abstained, q_value)
        queued.clear()

    records = []    # per trial: (release_idx, cap, true_centroid, release key)
    for idx, step in enumerate(steps, start=1):
        accumulated = state.prefix(step.n_accumulated)
        true_centroid = centroid(accumulated)
        release = errors = None   # derived once per step, when a cap needs them
        for cap in config.max_planes:
            # Raw walks have no planes and no bounded cap: one key per release.
            effective = step.n_planes if cap is None else min(cap, step.n_planes)
            key = (step.n_accumulated, step.n_planes, effective)
            records.append((idx, cap, true_centroid, key))
            if key in outcomes or key in queued:
                continue
            if release is None:
                release = step_release(state, step)
                if len(release.cloud):
                    errors = qos_errors(release.cloud, accumulated, config.qos_alpha)
            rows = release.rows(cap)
            released = release.cloud.subset(rows)
            if len(released) == 0:
                outcomes[key] = (None, None, True, None)
                continue
            # Each point's error is its own: Q is qos(released, accumulated).
            q_value = float(np.mean(errors[rows]))
            query = apply_transform(released, step.transform)
            try:
                described = describe(query, ensemble.params, ensemble.factor)
            except UnusableSpaceError:
                outcomes[key] = (None, None, True, q_value)
                continue
            queued[key] = (query, described, q_value)
            if sum(len(d) for _, d, _ in queued.values()) >= _BATCH_ROWS:
                attack_queued()
    attack_queued()
    trials = []
    for idx, cap, true_centroid, key in records:
        hyp_label, hyp_centroid, abstained, q_value = outcomes[key]
        trials.append(TrialRecord(
            true_label=space.label, true_centroid=true_centroid, hyp_label=hyp_label,
            hyp_centroid=hyp_centroid, abstained=abstained, radius=radius, release_idx=idx,
            max_planes=cap, q=q_value, kind=kind, sample=sample, mode=config.mode,
            space_count=len(spaces_list)))
    return trials


def run_experiment(config: ExperimentConfig):
    """Build the reference ensemble, run every sweep cell, aggregate metrics.

    One pool of ``workers`` threads builds the reference (one task per
    space), runs the preflight (one self-query per space) and runs the
    sweep (one task per walk). Returns ``aggregate(trials), trials``, the
    trials in cell order and by walk within a cell. Deterministic for a
    given (config, seed) regardless of ``workers``.
    """
    spaces = load_dataset(config.dataset)
    if len(spaces) < 2:
        raise DatasetError("inter-space inference needs at least 2 spaces")
    spaces_list = list(spaces.values())

    tasks = [(kind, radius, sample) for kind in config.kinds
             for radius in config.radii
             for sample in range(config.samples)]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        ensemble = build_ensemble(config, spaces, map_fn=pool.map)
        if config.preflight:
            self_query_check(ensemble, spaces, config, map_fn=pool.map)
        results = list(pool.map(lambda t: _sequence_trials(ensemble, spaces_list, config, *t),
                                tasks))
    # A stable sort: the walks come in task order, so each cell keeps it.
    trials = sorted((t for walk in results for t in walk), key=_cell_key)
    return aggregate(trials), trials


def _cell_key(trial: TrialRecord) -> tuple:
    cap = -1 if trial.max_planes is None else trial.max_planes
    return trial.kind, trial.radius, cap, trial.release_idx


def aggregate(trials: list[TrialRecord]) -> list[CellMetrics]:
    """One cell per (kind, radius, plane cap, release) of ``trials``, in that
    order (no cap first), each over its trials in the order given."""
    by_cell: dict[tuple, list[TrialRecord]] = {}
    for trial in trials:
        by_cell.setdefault(_cell_key(trial), []).append(trial)
    cells = []
    for key in sorted(by_cell):
        cell = by_cell[key]
        first = cell[0]
        qs = [t.q for t in cell if t.q is not None]
        cells.append(CellMetrics(
            mode=f"{first.mode}-{_KIND_TAGS[first.kind]}", space_count=first.space_count,
            radius=first.radius, release_idx=first.release_idx, max_planes=first.max_planes,
            pi1=inter_privacy(cell), pi2=intra_privacy(cell), abstain_rate=abstention_rate(cell),
            q=float(np.mean(qs)) if qs else None, n_trials=len(cell)))
    return cells


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def cells_to_csv(cells: list[CellMetrics]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mode", "space_count", "radius_m", "release_idx", "max_planes",
                     "pi1", "pi2_m", "abstain_rate", "q", "n_trials"])
    for c in cells:
        writer.writerow([c.mode, c.space_count, _fmt(c.radius), c.release_idx,
                         "inf" if c.max_planes is None else c.max_planes, _fmt(c.pi1),
                         _fmt(c.pi2), _fmt(c.abstain_rate), _fmt(c.q), c.n_trials])
    return buf.getvalue()


def report(cells: list[CellMetrics], out_dir) -> dict[str, Path]:
    """Write metrics.csv, metrics.json, and a plain-text summary."""
    if not cells:
        raise ValueError("empty metrics grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out / "metrics.csv", "json": out / "metrics.json",
             "summary": out / "summary.txt"}
    paths["csv"].write_text(cells_to_csv(cells))

    nested: dict = {}   # mode -> radius -> the cells' rows
    for c in cells:
        row = {k: v for k, v in asdict(c).items() if k not in ("mode", "radius", "pi2")}
        nested.setdefault(c.mode, {}).setdefault(_fmt(c.radius), []).append(
            {**row, "pi2_m": c.pi2, "privacy_band": privacy_band(c.pi1)})
    paths["json"].write_text(json.dumps(nested, indent=2, sort_keys=True) + "\n")

    lines = [f"{c.mode} r={_fmt(c.radius)} release={c.release_idx} "
             f"max_planes={'inf' if c.max_planes is None else c.max_planes} "
             f"pi1={c.pi1:.4f} band={privacy_band(c.pi1)} pi2={_fmt(c.pi2) or 'n/a'} "
             f"q={_fmt(c.q) or 'n/a'} n={c.n_trials}" for c in cells]
    # Headline: the largest cap whose release-averaged pi1 is at least a coin flip's.
    by_mode_radius: dict = {}
    for c in cells:
        if c.max_planes is not None:
            by_mode_radius.setdefault((c.mode, c.radius), {}).setdefault(
                c.max_planes, []).append(c.pi1)
    for (mode, radius), caps in sorted(by_mode_radius.items()):
        safe = [cap for cap, values in caps.items() if np.mean(values) >= 0.5]
        lines.append(f"{mode} r={_fmt(radius)}: largest max_planes with mean pi1 >= 0.5: "
                     f"{max(safe) if safe else 'none'}")
    paths["summary"].write_text("\n".join(lines) + "\n")
    return paths


def trial_lines(trials: list[TrialRecord]) -> Iterator[str]:
    """One JSON object per trial, keyed by the :class:`TrialRecord` fields,
    and no header line: a run's record, which :func:`trials_from_jsonl` reads.
    The lines are made one at a time, as they are written."""
    names = [f.name for f in fields(TrialRecord)]
    for t in trials:
        row = {name: getattr(t, name) for name in names}
        for key in ("true_centroid", "hyp_centroid"):
            row[key] = None if row[key] is None else [float(v) for v in row[key]]
        yield json.dumps(row, sort_keys=True) + "\n"


# trials.jsonl key -> (its check, what it wants); a row holds exactly these keys
_TRIAL_KEYS = {
    **dict.fromkeys(("true_label", "hyp_label"), (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys(("true_centroid", "hyp_centroid"), (
        lambda v: isinstance(v, list) and len(v) == 3
        and all(is_real(x) and math.isfinite(x) for x in v), "a list of 3 finite numbers")),
    **dict.fromkeys(("radius", "q"), (lambda v: is_real(v) and math.isfinite(v) and v >= 0,
                                      "a finite number >= 0")),
    **dict.fromkeys(("release_idx", "max_planes"), (lambda v: is_int(v) and v >= 1,
                                                    "an integer >= 1")),
    "abstained": (lambda v: isinstance(v, bool), "true or false"),
    "kind": (lambda v: v in _KINDS, f"one of {_KINDS}"),
    "sample": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "mode": (lambda v: isinstance(v, str) and v in _PRESETS, f"one of {tuple(_PRESETS)}"),
    "space_count": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
}
_NULLABLE = ("hyp_label", "hyp_centroid", "max_planes", "q")


def trials_from_jsonl(text: str) -> list[TrialRecord]:
    """The trials that :func:`trial_lines` wrote, in file order. Each line
    must be a JSON object of exactly its keys, each value of its type, and of
    one run: line 1's ``mode`` and ``space_count``. Anything else, or no line,
    raises ``ValueError`` naming the line and the key."""
    trials = []
    for n, line in enumerate(text.splitlines(), start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {n}: not JSON ({err.msg} at column {err.colno})") from None
        require(f"line {n}", row, isinstance(row, dict), "a JSON object")
        for key in sorted(_TRIAL_KEYS.keys() ^ row.keys()):
            raise ValueError(f"line {n}: {'no' if key in _TRIAL_KEYS else 'unknown'} key {key!r}")
        for key, (ok, what) in _TRIAL_KEYS.items():
            if not (key in _NULLABLE and row[key] is None):
                require(f"line {n}: {key}", row[key], ok(row[key]), what)
        for key in ("mode", "space_count"):
            if trials and row[key] != getattr(trials[0], key):
                raise ValueError(f"line {n}: {key} {row[key]!r} is not line 1's "
                                 f"{getattr(trials[0], key)!r}; a file holds one run")
        for key in ("true_centroid", "hyp_centroid"):
            row[key] = None if row[key] is None else np.array(row[key], float)
        trials.append(TrialRecord(**row))
    if not trials:
        raise ValueError("no trials")
    return trials
