"""Command-line front end: gen, reference, infer, release, run, report.

Every subcommand but ``report`` reads its settings from ``--config``, the
:class:`~spatialprivacy.harness.ExperimentConfig` JSON; only ``run`` needs
one, the others use ``ExperimentConfig()`` without it. So ``reference
--config C`` writes exactly the ensemble that ``run --config C`` attacks.
``run`` writes its record, ``trials.jsonl``, then the files ``report
--trials`` rebuilds from it alone: ``metrics.csv``, ``metrics.json`` and
``summary.txt``. The fields each reads:

    gen        dataset, written as PLY files
    reference  dataset, descriptor, factor, variants, generalization, seed, workers
    infer      dataset.normals_k, attack (descriptor and factor are the ensemble's)
    release    dataset.normals_k, generalization, seed
    run        every field

For example::

    {"dataset": {"type": "directory", "path": "spaces"},
     "variants": 2, "generalization": {"min_inliers": 50}, "workers": 2}

The other options name a command's inputs and outputs, or describe the one
walk that ``release`` runs as a sweep trial does: ``--releases`` balls of
``--radius``, ``--kind`` raw or generalized, whose last release it writes
under at most ``--max-planes`` planes; ``--manifest`` lists every release.
``infer`` reads the cache ``reference`` writes. An output that cannot be
written, such as a file path that is a directory, fails before any work.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from ._checks import require_int, require_real
from .attacker import CacheFormatError, infer, load_ensemble, save_ensemble
from .descriptors import UnusableSpaceError
from .harness import (DatasetError, ExperimentConfig, aggregate, build_ensemble, load_cloud,
                      load_dataset, report, run_experiment, trial_lines, trials_from_jsonl)
from .mechanisms import release_at, release_sequence
from .ply_io import PlyFormatError, save_ply

_LOAD_ERRORS = (DatasetError, PlyFormatError, OSError)


class _BadInput(Exception):
    """A bad config, option, dataset, cache or trials file, an unreadable
    input or an output path that cannot be written: the input is at fault,
    not the program. :func:`main` prints it on one line and exits 2."""


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
    """Fail before any work on an output file path that is a directory or in a missing one."""
    for path in paths:
        if path is not None and Path(path).is_dir():
            raise _BadInput(f"cannot write {path}: it is a directory")
        if path is not None and not Path(path).parent.is_dir():
            raise _BadInput(f"cannot write {path}: no directory {Path(path).parent}")


def _check_out_dir(path) -> None:
    """Fail before any work on an output directory that cannot be made:
    ``path``, or the nearest of its parents that exists, is not a directory."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise _BadInput(f"cannot make directory {path}: {existing} is not a directory")


def cmd_gen(args) -> int:
    config = _config(args)
    _check_out_dir(args.out)
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
    with ThreadPoolExecutor(max_workers=config.workers) as pool, _input(UnusableSpaceError):
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
    with _input(UnusableSpaceError):
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
        require_real("radius", args.radius, 0.0)
        require_int("releases", args.releases, 1)
        if args.max_planes is not None:
            require_int("max_planes", args.max_planes, 1)
            if args.kind == "raw":
                raise ValueError("bounded plane caps apply only to generalized walks")
    _check_writable(args.out, args.manifest)
    with _input(*_LOAD_ERRORS):
        cloud = load_cloud(args.cloud, config.dataset.normals_k)
    steps, state = release_sequence(cloud, args.radius, args.releases, config.seed,
                                    config.generalization, generalize=args.kind == "generalized")
    released = release_at(state, steps[-1], args.max_planes)
    if args.manifest:
        releases = [{"center": [float(v) for v in s.center], "n_planes": s.n_planes,
                     "n_accumulated": s.n_accumulated} for s in steps]
        manifest = {"releases": releases, "kind": args.kind,
                    "max_planes": args.max_planes, "radius": args.radius}
        Path(args.manifest).write_text(json.dumps(manifest, indent=2) + "\n")
    if len(released) == 0:
        print("nothing released (no planes accepted)", file=sys.stderr)
        return 1
    save_ply(released, args.out)
    print(f"wrote {args.out} ({len(released)} points)")
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    _check_out_dir(args.out)
    # Only the dataset's own errors, and an unusable space in the reference (trials
    # abstain on an unusable release): a fault in the sweep keeps its traceback.
    with _input(DatasetError, PlyFormatError, UnusableSpaceError):
        cells, trials = run_experiment(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.jsonl", "w") as fh:
        fh.writelines(trial_lines(trials))
    paths = report(cells, out)
    print(f"wrote {out / 'trials.jsonl'}, {paths['csv']}, {paths['json']}, {paths['summary']}")
    return 0


def cmd_report(args) -> int:
    _check_out_dir(args.out)
    # Only reading the record: a fault while aggregating or writing keeps its traceback.
    with _input(OSError, ValueError):
        trials = trials_from_jsonl(Path(args.trials).read_text())
    paths = report(aggregate(trials), args.out)
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

    about = "run one walk over a cloud, as a sweep trial does, and write its last release"
    p = sub.add_parser("release", help=about, description=about)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["raw", "generalized"], default="generalized",
                   help="release the revealed points raw or generalized into planes")
    p.add_argument("--radius", type=float, default=1.0, help="each ball's radius (m)")
    p.add_argument("--releases", type=int, default=1, help="the walk's release count")
    p.add_argument("--max-planes", type=int, default=None, dest="max_planes",
                   help="release at most this many planes (generalized walks only)")
    p.add_argument("--manifest", help="write a JSON manifest of every release of the walk")
    _add_config_arg(p)
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True, help="an ExperimentConfig JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="rebuild a run's metrics.csv, metrics.json and "
                       "summary.txt from its trials.jsonl")
    p.add_argument("--trials", required=True)
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
