"""Command-line front end: gen, reference, infer, release, run, report.

Every subcommand but ``report`` reads its settings from ``--config``, the
:class:`~spatialprivacy.harness.ExperimentConfig` JSON; only ``run`` needs
one, the others use ``ExperimentConfig()`` without it. So ``reference
--config C`` writes exactly the ensemble that ``run --config C`` attacks.
The fields each reads:

    gen        dataset, written as PLY files
    reference  dataset, descriptor, factor, variants, generalization, seed, workers
    infer      dataset.normals_k, attack (descriptor and factor are the ensemble's)
    release    dataset.normals_k, generalization, seed
    run        every field

For example::

    {"dataset": {"type": "directory", "path": "spaces"},
     "variants": 2, "generalization": {"min_inliers": 50}, "workers": 2}

The other options name a command's inputs and outputs, or describe the one
release that ``release`` makes; ``infer`` reads the cache ``reference`` writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._checks import require_int
from .attacker import CacheFormatError, infer, load_ensemble, save_ensemble
from .geometry import extract_partial
from .harness import (CellMetrics, DatasetError, ExperimentConfig, build_ensemble, load_cloud,
                      load_dataset, report, run_experiment, trials_to_jsonl)
from .mechanisms import (ReleasePolicy, project_to_planes, ransac_planes, release_at,
                         release_sequence)
from .ply_io import PlyFormatError, save_ply

_LOAD_ERRORS = (DatasetError, PlyFormatError, OSError)


class _BadInput(Exception):
    """A bad config, option, dataset, cache or metrics file, an unreadable
    input or a missing output directory: the input is at fault, not the
    program. :func:`main` prints it on one line and exits 2."""


@contextmanager
def _input(*errors):
    """Report any of ``errors`` raised inside as :class:`_BadInput`."""
    try:
        yield
    except errors as err:
        raise _BadInput(err) from None


def _config(args) -> ExperimentConfig:
    """The config at ``--config``, or ``ExperimentConfig()`` without one."""
    if args.config is None:
        return ExperimentConfig()
    with _input(ValueError, OSError):
        return ExperimentConfig.from_json(args.config)


def _check_writable(*paths) -> None:
    """Fail before any work on an output path in a missing directory."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise _BadInput(f"cannot write {path}: no directory {Path(path).parent}")


def cmd_gen(args) -> int:
    config = _config(args)
    with _input(*_LOAD_ERRORS):
        spaces = load_dataset(config.dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, cloud in spaces.items():
        save_ply(cloud, out / f"{label}.ply", format=args.format)
        print(f"wrote {out / (label + '.ply')} ({len(cloud)} points)")
    return 0


def cmd_reference(args) -> int:
    config = _config(args)
    _check_writable(args.out)
    with _input(*_LOAD_ERRORS):
        spaces = load_dataset(config.dataset)
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        ensemble = build_ensemble(config, spaces, map_fn=pool.map)
    save_ensemble(ensemble, args.out)
    print(f"wrote {args.out} ({len(spaces)} labels)")
    return 0


def cmd_infer(args) -> int:
    config = _config(args)
    _check_writable(args.out)
    with _input(CacheFormatError, *_LOAD_ERRORS):
        ensemble = load_ensemble(args.ensemble)
        query = load_cloud(args.query, config.dataset.normals_k)
    hyp = infer(ensemble, query, config.attack)
    payload = {
        "label": hyp.label,
        "centroid": None if hyp.centroid is None else [float(v) for v in hyp.centroid],
        "abstained": hyp.abstained,
        "scores": {k: float(v) for k, v in hyp.inter.scores.items()},
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_release(args) -> int:
    config = _config(args)
    with _input(ValueError):
        policy = ReleasePolicy(radius=args.radius, num_releases=args.releases)
        if args.max_planes is not None:
            require_int("max_planes", args.max_planes, 1)
    _check_writable(args.out, args.manifest)
    with _input(*_LOAD_ERRORS):
        cloud = load_cloud(args.cloud, config.dataset.normals_k)
    if args.mechanism == "partial":
        rng = np.random.default_rng(config.seed)
        center = cloud.positions[int(rng.integers(len(cloud)))]
        released = extract_partial(cloud, center, args.radius)
    elif args.mechanism == "generalize":
        planes = ransac_planes(cloud, config.generalization, config.seed)
        released = project_to_planes(cloud, planes)
    elif args.mechanism == "conservative":
        steps, state = release_sequence(cloud, policy, config.seed, config.generalization)
        released = release_at(state, steps[-1], args.max_planes)
        manifest = {
            "releases": [
                {
                    "center": [float(v) for v in s.center],
                    "n_planes": s.n_planes,
                    "n_accumulated": s.n_accumulated,
                }
                for s in steps
            ],
            "max_planes": args.max_planes,
            "radius": args.radius,
        }
        if args.manifest:
            Path(args.manifest).write_text(json.dumps(manifest, indent=2) + "\n")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.mechanism)
    if len(released) == 0:
        print("nothing released (no planes accepted)", file=sys.stderr)
        return 1
    save_ply(released, args.out)
    print(f"wrote {args.out} ({len(released)} points)")
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    # Only the dataset's own errors: a fault in the sweep keeps its traceback.
    with _input(DatasetError, PlyFormatError):
        cells, trials = run_experiment(config)
    out = Path(args.out)
    paths = report(cells, out)
    (out / "trials.jsonl").write_text(trials_to_jsonl(trials))
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return 0


def cmd_report(args) -> int:
    # Only reading the file and building its cells: a fault while writing the
    # report keeps its traceback. metrics.json sorts radius keys as text; the
    # sweep orders them by value.
    try:
        with open(args.metrics) as fh:
            nested = json.load(fh)
        cells = [CellMetrics.from_row(mode, float(radius), row)
                 for mode, by_radius in nested.items()
                 for radius, rows in sorted(by_radius.items(), key=lambda kv: float(kv[0]))
                 for row in rows]
        if not cells:
            raise ValueError("empty metrics grid")
    except OSError as err:
        raise _BadInput(err) from None
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise _BadInput(f"{args.metrics} is not a metrics grid: {err!r}") from None
    paths = report(cells, args.out)
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return 0


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="an ExperimentConfig JSON file; "
                   "without one, the settings are ExperimentConfig()'s defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialprivacy",
        description="Spatial privacy mechanisms and inference experiments "
                    "for 3D point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write the config's dataset as PLY files")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["ascii", "binary_little_endian"],
                   default="binary_little_endian")
    _add_config_arg(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reference", help="build the adversary's reference ensemble "
                       "for the config's dataset")
    p.add_argument("--out", required=True)
    _add_config_arg(p)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("infer", help="run two-level inference for one query, "
                       "described with the ensemble's spin-image settings and factor")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out")
    _add_config_arg(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("release", help="apply a privacy mechanism to a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mechanism", choices=["partial", "generalize", "conservative"],
                   default="generalize")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--releases", type=int, default=ReleasePolicy.num_releases)
    p.add_argument("--max-planes", type=int, default=None, dest="max_planes")
    p.add_argument("--manifest", help="write a JSON manifest of the release sequence")
    _add_config_arg(p)
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True, help="an ExperimentConfig JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="regenerate report files from metrics.json")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as err:
        print(f"spatialprivacy {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
