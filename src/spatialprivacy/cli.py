"""Command-line front end: gen, reference, infer, release, run, report.

``reference`` writes the adversary's ensemble cache, which ``infer`` reads;
the other subcommands read and write PLY clouds, JSON configs and reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .attacker import AttackParams, build_reference, infer, load_ensemble
from .descriptors import SpinParams
from .geometry import extract_partial
from .harness import (CellMetrics, DatasetError, ExperimentConfig, load_cloud, report,
                      run_experiment, trials_to_jsonl)
from .mechanisms import (
    GeneralizationParams,
    ReleasePolicy,
    project_to_planes,
    ransac_planes,
    release_at,
    release_sequence,
)
from .ply_io import PlyFormatError, save_ply
from .synthetic import default_space_specs, generate_space


def _gen_params(args) -> GeneralizationParams:
    return GeneralizationParams(
        dist_eps=args.dist_eps,
        normal_angle_max=args.normal_angle_max,
        min_inliers=args.min_inliers,
        candidates_per_round=args.candidates,
    )


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    specs = default_space_specs(args.seed, args.density, args.noise_sigma)
    for label, spec in list(specs.items())[: args.count]:
        cloud = generate_space(spec, label)
        save_ply(cloud, out / f"{label}.ply", format=args.format)
        print(f"wrote {out / (label + '.ply')} ({len(cloud)} points)")
    return 0


def cmd_reference(args) -> int:
    paths = sorted(Path(args.spaces).glob("*.ply"))
    if not paths:
        print(f"no .ply files under {args.spaces}", file=sys.stderr)
        return 1
    spaces = [load_cloud(p, args.normals_k) for p in paths]
    build_reference(
        spaces,
        variant_params=(_gen_params(args),) * args.variants,
        desc_params=SpinParams(args.bin_size, args.image_width),
        factor=args.factor,
        seed=args.seed,
        cache_path=args.out,
    )
    print(f"wrote {args.out} ({len(spaces)} labels)")
    return 0


def cmd_infer(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    query = load_cloud(args.query, args.normals_k)
    hyp = infer(ensemble, query, AttackParams(strict_nndr=args.strict))
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
    cloud = load_cloud(args.cloud, args.normals_k)
    gen = _gen_params(args)
    if args.mechanism == "partial":
        rng = np.random.default_rng(args.seed)
        center = cloud.positions[int(rng.integers(len(cloud)))]
        released = extract_partial(cloud, center, args.radius)
    elif args.mechanism == "generalize":
        planes = ransac_planes(cloud, gen, args.seed)
        released = project_to_planes(cloud, planes)
    elif args.mechanism == "conservative":
        policy = ReleasePolicy(radius=args.radius, num_releases=args.releases)
        steps, state = release_sequence(cloud, policy, args.seed, gen)
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
    try:
        config = ExperimentConfig.from_json(args.config)
    except ValueError as err:
        print(f"spatialprivacy run: {err}", file=sys.stderr)
        return 2
    # Only the dataset's own errors: a fault in the sweep keeps its traceback.
    try:
        cells, trials = run_experiment(config)
    except (DatasetError, PlyFormatError) as err:
        print(f"spatialprivacy run: {err}", file=sys.stderr)
        return 2
    out = Path(args.out)
    paths = report(cells, out)
    (out / "trials.jsonl").write_text(trials_to_jsonl(trials))
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return 0


def cmd_report(args) -> int:
    with open(args.metrics) as fh:
        nested = json.load(fh)
    # metrics.json sorts radius keys as text; the sweep orders them by value.
    cells = [CellMetrics.from_row(mode, float(radius), row)
             for mode, by_radius in nested.items()
             for radius, rows in sorted(by_radius.items(), key=lambda kv: float(kv[0]))
             for row in rows]
    paths = report(cells, args.out)
    print(f"wrote {paths['csv']}, {paths['json']}, {paths['summary']}")
    return 0


def _add_normals_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--normals-k", type=int, default=12, dest="normals_k")


def _add_generalization_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist-eps", type=float, default=0.05, dest="dist_eps")
    p.add_argument("--normal-angle-max", type=float, default=30.0,
                   dest="normal_angle_max")
    p.add_argument("--min-inliers", type=int, default=30, dest="min_inliers")
    p.add_argument("--candidates", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialprivacy",
        description="Spatial privacy mechanisms and inference experiments "
                    "for 3D point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic spaces as PLY files")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=7)
    p.add_argument("--density", type=float, default=80.0)
    p.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["ascii", "binary_little_endian"],
                   default="binary_little_endian")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reference", help="build the adversary's reference ensemble")
    p.add_argument("--spaces", required=True, help="directory of labeled .ply files")
    p.add_argument("--out", required=True)
    p.add_argument("--variants", type=int, default=1,
                   help="generalized variants per space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bin-size", type=float, default=0.10, dest="bin_size")
    p.add_argument("--image-width", type=int, default=8, dest="image_width")
    p.add_argument("--factor", type=int, default=5)
    _add_normals_arg(p)
    _add_generalization_args(p)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("infer", help="run two-level inference for one query, "
                       "described with the ensemble's spin-image settings and factor")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true",
                   help="apply the strict NNDR pre-filter")
    _add_normals_arg(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("release", help="apply a privacy mechanism to a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mechanism", choices=["partial", "generalize", "conservative"],
                   default="generalize")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--releases", type=int, default=1)
    p.add_argument("--max-planes", type=int, default=None, dest="max_planes")
    p.add_argument("--manifest", help="write a JSON manifest of the release sequence")
    p.add_argument("--seed", type=int, default=0)
    _add_normals_arg(p)
    _add_generalization_args(p)
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="regenerate report files from metrics.json")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
