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
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ._checks import is_int, is_real, require, require_bool, require_int, require_real
from .attacker import (AttackParams, ReferenceEnsemble, build_reference, infer, match,
                       raw_view)
from .descriptors import SpinParams, UnusableSpaceError
from .geometry import PointCloud, apply_transform, centroid, estimate_normals
from .mechanisms import GeneralizationParams, ReleasePolicy, release_at, release_sequence
from .metrics import (
    TrialRecord,
    abstention_rate,
    distance_error,
    inter_privacy,
    intra_privacy,
    privacy_band,
    qos,
)
from .ply_io import load_ply
from .synthetic import default_space_specs, generate_space

__all__ = [
    "CellMetrics",
    "DatasetError",
    "ExperimentConfig",
    "build_ensemble",
    "load_cloud",
    "load_dataset",
    "report",
    "run_experiment",
    "self_query_check",
]

_KINDS = ("raw", "generalized")
_WALK_FAMILY = 2  # spawn-key family of every trial's walk, whatever the mode
_PRESETS = {  # mode -> the values of the sweep fields a config leaves unset
    "one-time": dict(samples=1000, releases=1, max_planes=(None,), kinds=_KINDS),
    "successive": dict(samples=100, releases=100, max_planes=(None,), kinds=("generalized",)),
    "conservative": dict(samples=100, releases=100, max_planes=tuple(range(1, 30, 2)),
                         kinds=("generalized",)),
}


_DATASET_TYPES = ("synthetic", "directory")


@dataclass(frozen=True)
class DatasetSpec:
    type: str = "synthetic"      # "synthetic" or "directory"
    path: str | None = None      # the directory of PLY files
    count: int = 7
    density: float = 80.0
    noise_sigma: float = 0.0
    seed: int = 0
    normals_k: int = 12          # for PLY files lacking normals

    def __post_init__(self):
        require("type", self.type, self.type in _DATASET_TYPES, f"one of {_DATASET_TYPES}")
        require("path", self.path, isinstance(self.path, str)
                or (self.path is None and self.type != "directory"), "a directory path")
        require_int("count", self.count, 1)
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
    ``successive`` with one release and no cap. A sweep field left unset
    takes its mode's paper-scale preset, and unset radii are 0.5/1.0/2.0; a
    set field always wins. Fields that contradict each other are rejected:
    bounded plane caps on raw or one-time releases, or a one-time config with
    more than one release.

        mode          samples  releases  max_planes      kinds
        one-time      1000     1         inf             raw, generalized
        successive    100      100       inf             generalized
        conservative  100      100       1, 3, ..., 29   generalized
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
    qos_beta: float = 0.5
    qos_symmetric: bool = False

    def __post_init__(self):
        require("mode", self.mode, isinstance(self.mode, str) and self.mode in _PRESETS,
                f"one of {tuple(_PRESETS)}")
        # Rejected here by name, not as a TypeError from a comparison, and not
        # after the reference is built and a sweep task fails.
        for name, least in (("samples", 1), ("releases", 1), ("workers", 1),
                            ("factor", 1), ("seed", 0), ("variants", 0)):
            value = getattr(self, name)
            if value is None and name in ("samples", "releases"):
                continue
            require_int(name, value, least)
        for name, klass in _SECTIONS.items():
            value = getattr(self, name)
            require(name, value, isinstance(value, klass), f"an object of {klass.__name__} fields")
        require_bool("preflight", self.preflight)
        require_bool("qos_symmetric", self.qos_symmetric)
        require_real("qos_alpha", self.qos_alpha, 0.0, 1.0, closed=True)
        require_real("qos_beta", self.qos_beta, 0.0, 1.0, closed=True)
        total = self.qos_alpha + self.qos_beta
        require("qos_alpha + qos_beta", total, abs(total - 1.0) <= 1e-12, "1")
        for name, ok, entries in (
            ("radii", lambda v: is_real(v) and math.isfinite(v) and v > 0,
             "finite positive numbers"),
            ("max_planes", lambda v: v is None or (is_int(v) and v >= 1),
             "plane caps >= 1 (integers, or null for no cap)"),
            ("kinds", lambda v: v in _KINDS, f"release kinds {_KINDS}"),
        ):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (tuple, list))
                                          and all(map(ok, value))):
                raise ValueError(f"{name} must be a list of {entries}, got {value!r}")
        if self.mode == "one-time" and self.resolved_releases() != 1:
            raise ValueError("a one-time config has exactly 1 release")
        if (any(c is not None for c in self.resolved_caps())
                and (self.mode == "one-time" or "raw" in self.resolved_kinds())):
            raise ValueError("bounded plane caps apply only to generalized walks")

    def _resolved(self, name: str):
        value = getattr(self, name)
        return _PRESETS[self.mode][name] if value is None else value

    def resolved_radii(self) -> tuple[float, ...]:
        return tuple(self.radii) if self.radii is not None else (0.5, 1.0, 2.0)

    def resolved_samples(self) -> int:
        return self._resolved("samples")

    def resolved_releases(self) -> int:
        return self._resolved("releases")

    def resolved_caps(self) -> tuple[int | None, ...]:
        return tuple(self._resolved("max_planes"))

    def resolved_kinds(self) -> tuple[str, ...]:
        return tuple(self._resolved("kinds"))

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
        for key in ("radii", "kinds"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        if isinstance(data.get("max_planes"), list):
            data["max_planes"] = tuple(
                None if v in (None, "inf") else v for v in data["max_planes"]
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


# metrics.json row key -> (its type check, what the check wants)
_ROW_TYPES = {
    **dict.fromkeys(("space_count", "release_idx", "n_trials"), (is_int, "an integer")),
    **dict.fromkeys(("pi1", "abstain_rate"), (is_real, "a number")),
    **dict.fromkeys(("pi2_m", "q"), (lambda v: v is None or is_real(v), "a number or null")),
    "max_planes": (lambda v: v is None or is_int(v), "an integer or null"),
}


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

    def to_row(self) -> dict:
        """The cell's ``metrics.json`` row, which sits under its mode and radius."""
        row = {k: v for k, v in asdict(self).items() if k not in ("mode", "radius", "pi2")}
        return {**row, "pi2_m": self.pi2, "privacy_band": privacy_band(self.pi1)}

    @classmethod
    def from_row(cls, mode: str, radius: float, row: dict) -> "CellMetrics":
        """The cell that :meth:`to_row` wrote under ``mode`` and ``radius``;
        a value of the wrong type raises ``ValueError`` naming its key."""
        for key, (ok, what) in _ROW_TYPES.items():
            require(key, row[key], ok(row[key]), what)
        fields = {k: row[k] for k in _ROW_TYPES if k != "pi2_m"}
        return cls(mode=mode, radius=radius, pi2=row["pi2_m"], **fields)


class DatasetError(ValueError):
    """The dataset yields too few spaces to attack, or a space too few points
    to estimate its normals."""


def load_dataset(spec: DatasetSpec) -> dict[str, PointCloud]:
    """Labeled spaces, ordered by label; synthetic or a directory of PLYs."""
    if spec.type == "synthetic":
        specs = default_space_specs(spec.seed, spec.density, spec.noise_sigma)
        chosen = dict(list(specs.items())[: spec.count])
        return {label: generate_space(s, label) for label, s in chosen.items()}
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

    It checks the ensemble and both matchers on the pool's own raw rows
    (:func:`raw_view`), which are ``describe``'s description of the space
    if the ensemble was built from it; nothing is described again. The
    label must come back exactly, and because a self-query's surviving
    reference keypoints coincide with its own matched keypoints, the
    location hypothesis must sit on the centroid of those keypoints of the
    space itself to within 1e-6; a pool built from another cloud fails
    here. ``map_fn`` maps the check over the spaces (see
    :func:`build_reference`); the first failure in ``spaces`` order is
    raised.
    """
    def failure(label: str, space: PointCloud) -> str | None:
        hyp = match(ensemble, raw_view(ensemble, space), config.attack)
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


def _kind_tag(kind: str) -> str:
    return "gen" if kind == "generalized" else "raw"


def _infer_or_abstain(ensemble, query, config) -> tuple[str | None, np.ndarray | None, bool]:
    if len(query) == 0:
        return None, None, True
    try:
        hyp = infer(ensemble, query, config.attack)
    except UnusableSpaceError:
        return None, None, True
    return hyp.label, hyp.centroid, hyp.abstained


def _cell_q(trials: list[TrialRecord]) -> float | None:
    values = [t.q for t in trials if t.q is not None]
    return float(np.mean(values)) if values else None


def _outcome(ensemble, config, released, truth, transform):
    """``(hyp_label, hyp_centroid, abstained, q)`` of one released cloud.

    ``truth`` is the raw cloud the release stands for, which Q compares it
    with; the attacker sees the release moved by ``transform``.
    """
    q_value = None
    if len(released) and len(truth):
        q_value = qos(released, truth, config.qos_alpha, config.qos_beta,
                      config.qos_symmetric)
    query = apply_transform(released, transform) if len(released) else released
    return (*_infer_or_abstain(ensemble, query, config), q_value)


def _sequence_trials(ensemble, spaces_list, config, kind, radius, sample):
    """Trials for one trajectory, shared across every cap in the sweep.

    Every mode's trial is such a walk; a one-time trial is a walk of one
    release under the single cap None. The generalization state never
    depends on the cap (the cap only filters which planes get projected at
    release time), so one walk is run and each release under each sweep cap
    is derived from its final state. Each release's truth, the raw points
    revealed so far, is the state's prefix. Caps at or above a release's
    plane count all emit the same cloud and share one inference result.
    """
    rng = _trial_rng(
        config.seed, (_WALK_FAMILY, _KINDS.index(kind), _radius_key(radius), sample)
    )
    space = spaces_list[int(rng.integers(len(spaces_list)))]
    policy = ReleasePolicy(radius=radius, num_releases=config.resolved_releases())
    generalize = kind == "generalized"
    steps, state = release_sequence(space, policy, rng, config.generalization,
                                    generalize=generalize)
    trials = []
    for idx, step in enumerate(steps, start=1):
        accumulated = state.prefix(step.n_accumulated)
        true_centroid = centroid(accumulated)
        shared: dict[int, tuple] = {}
        for cap in config.resolved_caps():
            # Raw walks have no planes and no bounded cap: one key per release.
            effective = step.n_planes if cap is None else min(cap, step.n_planes)
            if effective not in shared:
                released = release_at(state, step, cap) if generalize else accumulated
                shared[effective] = _outcome(ensemble, config, released, accumulated,
                                             step.transform)
            hyp_label, hyp_centroid, abstained, q_value = shared[effective]
            trials.append(
                TrialRecord(
                    true_label=space.label,
                    true_centroid=true_centroid,
                    hyp_label=hyp_label,
                    hyp_centroid=hyp_centroid,
                    abstained=abstained,
                    radius=radius,
                    release_idx=idx,
                    max_planes=cap,
                    q=q_value,
                )
            )
    return trials


def run_experiment(config: ExperimentConfig):
    """Build the reference ensemble, run every sweep cell, aggregate metrics.

    One pool of ``workers`` threads builds the reference (one task per
    space), runs the preflight (one self-query per space) and runs the
    sweep (one task per walk). Returns ``(cells, trials)``. Deterministic
    for a given (config, seed) regardless of ``workers``.
    """
    spaces = load_dataset(config.dataset)
    if len(spaces) < 2:
        raise DatasetError("inter-space inference needs at least 2 spaces")
    spaces_list = list(spaces.values())

    tasks = [(kind, radius, sample) for kind in config.resolved_kinds()
             for radius in config.resolved_radii()
             for sample in range(config.resolved_samples())]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        ensemble = build_ensemble(config, spaces, map_fn=pool.map)
        if config.preflight:
            self_query_check(ensemble, spaces, config, map_fn=pool.map)
        results = list(pool.map(lambda t: _sequence_trials(ensemble, spaces_list, config, *t),
                                tasks))

    by_cell: dict[tuple, list[TrialRecord]] = {}
    for (kind, radius, _sample), trial_list in zip(tasks, results):
        for trial in trial_list:
            key = (kind, radius, trial.max_planes, trial.release_idx)
            by_cell.setdefault(key, []).append(trial)

    cells = []
    all_trials = []
    for key in sorted(
        by_cell,
        key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2], k[3]),
    ):
        kind, radius, cap, release_idx = key
        trials = by_cell[key]
        all_trials.extend(trials)
        cells.append(
            CellMetrics(
                mode=f"{config.mode}-{_kind_tag(kind)}",
                space_count=len(spaces_list),
                radius=radius,
                release_idx=release_idx,
                max_planes=cap,
                pi1=inter_privacy(trials),
                pi2=intra_privacy(trials),
                abstain_rate=abstention_rate(trials),
                q=_cell_q(trials),
                n_trials=len(trials),
            )
        )
    return cells, all_trials


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def cells_to_csv(cells: list[CellMetrics]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["mode", "space_count", "radius_m", "release_idx", "max_planes",
         "pi1", "pi2_m", "abstain_rate", "q", "n_trials"]
    )
    for c in cells:
        writer.writerow(
            [c.mode, c.space_count, _fmt(c.radius), c.release_idx,
             "inf" if c.max_planes is None else c.max_planes,
             _fmt(c.pi1), _fmt(c.pi2), _fmt(c.abstain_rate), _fmt(c.q),
             c.n_trials]
        )
    return buf.getvalue()


def report(cells: list[CellMetrics], out_dir) -> dict[str, Path]:
    """Write metrics.csv, metrics.json, and a plain-text summary."""
    if not cells:
        raise ValueError("empty metrics grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / "metrics.csv",
        "json": out / "metrics.json",
        "summary": out / "summary.txt",
    }
    paths["csv"].write_text(cells_to_csv(cells))

    nested: dict = {}
    for c in cells:
        nested.setdefault(c.mode, {}).setdefault(_fmt(c.radius), []).append(c.to_row())
    paths["json"].write_text(json.dumps(nested, indent=2, sort_keys=True) + "\n")

    lines = []
    for c in cells:
        cap = "inf" if c.max_planes is None else c.max_planes
        lines.append(
            f"{c.mode} r={_fmt(c.radius)} release={c.release_idx} "
            f"max_planes={cap} pi1={c.pi1:.4f} band={privacy_band(c.pi1)} "
            f"pi2={_fmt(c.pi2) or 'n/a'} q={_fmt(c.q) or 'n/a'} n={c.n_trials}"
        )
    # Headline statistic: the largest cap whose release-averaged pi1 stays
    # at or above the coin-flip bound.
    by_mode_radius: dict = {}
    for c in cells:
        if c.max_planes is not None:
            by_mode_radius.setdefault((c.mode, c.radius), {}).setdefault(
                c.max_planes, []
            ).append(c.pi1)
    for (mode, radius), caps in sorted(by_mode_radius.items()):
        safe = [
            cap for cap, values in sorted(caps.items())
            if float(np.mean(values)) >= 0.5
        ]
        verdict = max(safe) if safe else "none"
        lines.append(
            f"{mode} r={_fmt(radius)}: largest max_planes with mean pi1 >= 0.5: {verdict}"
        )
    paths["summary"].write_text("\n".join(lines) + "\n")
    return paths


def trials_to_jsonl(trials: list[TrialRecord]) -> str:
    rows = []
    for t in trials:
        rows.append(json.dumps(
            {
                "true_label": t.true_label,
                "true_centroid": [float(v) for v in t.true_centroid],
                "hyp_label": t.hyp_label,
                "hyp_centroid": None if t.hyp_centroid is None
                else [float(v) for v in t.hyp_centroid],
                "abstained": t.abstained,
                "radius": t.radius,
                "release_idx": t.release_idx,
                "max_planes": t.max_planes,
                "q": t.q,
            },
            sort_keys=True,
        ))
    return "\n".join(rows) + ("\n" if rows else "")
