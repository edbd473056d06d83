"""End-to-end and per-layer benchmark of `spatialprivacy run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/``; outputs go under ``.bench_runs/``. Inputs are built from the seed
before timing starts. Each measurement is one ``spatialprivacy run`` in a
fresh process (``perfbench/child.py``), with BLAS pinned to one thread.

With ``--trace 0`` the command is run as many times as fit in ``--seconds``
(at least twice, unless a second run would not fit in the time limit), and
the medians of the end-to-end metrics are reported. With
``--trace 1`` it is run once untraced and once traced, and the per-layer
metrics of the traced run are reported. Every run's outputs
are checked, and all runs of one call must give the same metrics.csv.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)   # before numpy loads, here and in every child

from spans import layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS, check_outputs, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_RUNS = 2
# A call must exit within 180 s; runs end by this time after the call starts,
# which leaves 10 s to check and write the result.
TIME_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "query_pts_per_s": "pts/s", "peak_rss_mb": "MB"}


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_ENV,
        "git_sha": None,
        "git_dirty": None,
        "loadavg_start": os.getloadavg()[0],
    }
    if (root / ".git").exists():
        git = ["git", f"--git-dir={root / '.git'}", f"--work-tree={root}"]
        env["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                        text=True, check=True).stdout.strip()
        env["git_dirty"] = bool(subprocess.run(git + ["status", "--porcelain"],
                                               capture_output=True, text=True,
                                               check=True).stdout.strip())
    return env


def invoke(root: Path, config_path: Path, config: dict, out: Path, deadline: float,
           spans: Path | None = None) -> dict:
    """One `spatialprivacy run` in a fresh process, with its outputs checked."""
    cmd = [sys.executable, str(HERE / "child.py"), str(root / "src"), str(config_path), str(out)]
    if spans is not None:
        cmd.append(str(spans))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as stopped:
        # Too slow is a timing result, not wrong output: its trials count as
        # failed, and run_s is the time it had (a lower bound).
        elapsed = time.monotonic() - start
        record = {"rc": None, "timed_out": True, "process_s": elapsed, "run_s": elapsed,
                  "produced": 0, "digest": None, "problems": []}
        for line in (stopped.stdout or b"").decode(errors="replace").splitlines():
            if line.startswith("setup_s "):
                record["setup_s"] = float(line.split()[1])
        return record
    record = {"rc": proc.returncode, "process_s": time.monotonic() - start}
    if proc.returncode != 0:
        record.update(produced=0, digest=None,
                      problems=[f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"])
        return record
    record.update(json.loads((out / "bench_result.json").read_text()))
    record["produced"], record["digest"], record["problems"] = check_outputs(out, config)
    if record["setup_s"] is None:
        record["problems"].append("preflight never returned")
    elif record["query_pts"] == 0:
        record["problems"].append("no sweep query reached attacker.infer")
    elif record["run_s"] > record["setup_s"]:
        sweep_s = record["run_s"] - record["setup_s"]
        record["trials_per_s"] = record["produced"] / sweep_s
        record["query_pts_per_s"] = record["query_pts"] / sweep_s
    return record


def failed_trials(runs: list[dict], planned: int) -> int:
    """Planned trial records not produced; a run with problems counts as all failed."""
    return sum(planned if r["problems"] else planned - r["produced"] for r in runs)


def summarize(runs: list[dict]) -> dict[str, float]:
    """Median of each end-to-end metric over the runs that have it."""
    good = [r for r in runs if not r["problems"]]
    return {name: statistics.median(r[name] for r in good if r.get(name) is not None)
            for name in END_TO_END if any(r.get(name) is not None for r in good)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "spatialprivacy" / "__init__.py").is_file():
        print(f"no program source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    work = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment(root)
    config_path, inputs = write_inputs(args.workload, args.seed, env["nproc"], work)
    config = json.loads(config_path.read_text())
    deadline = t0 + TIME_LIMIT_S
    print(f"env {json.dumps(env)}")
    print(f"inputs {json.dumps(inputs)}")

    runs, notes = [], []
    start = time.monotonic()
    if args.trace:
        runs.append(invoke(root, config_path, config, work / "run0", deadline))
        runs.append(invoke(root, config_path, config, work / "run1", deadline,
                           spans=work / "spans.json"))
    else:
        while True:
            if runs:
                # Start another run only if one as long as the last would end
                # within --seconds (after MIN_RUNS) and before the time limit.
                last = runs[-1]["process_s"]
                if len(runs) >= MIN_RUNS and time.monotonic() + last > start + args.seconds:
                    break
                if time.monotonic() + 1.2 * last > deadline:
                    notes.append(f"too slow: {len(runs)} of {MIN_RUNS} runs fit in "
                                 f"{TIME_LIMIT_S:.0f} s")
                    break
            runs.append(invoke(root, config_path, config, work / f"run{len(runs)}", deadline))
    for i, r in enumerate(runs):
        shown = {k: (round(v, 4) if isinstance(v, float) else v) for k, v in r.items()}
        print(f"run {i} {json.dumps(shown)}")

    planned = inputs["planned_trials"]
    attempted, failed = planned * len(runs), failed_trials(runs, planned)
    finished = [r for r in runs if not r.get("timed_out")]
    digests = {r["digest"] for r in finished}
    correct = all(not r["problems"] for r in runs) and len(digests) == 1
    if len(digests) > 1:
        notes.append(f"metrics.csv differs between runs of one seed: {sorted(map(str, digests))}")
    if len(finished) < len(runs):
        notes.append(f"{len(runs) - len(finished)} run(s) stopped at the time limit"
                     + ("" if finished else "; no output to check"))
    for note in notes:
        print(note)
    e2e = summarize(runs[:1] if args.trace else runs)   # untraced runs only
    if args.trace:
        metrics = {}
        if correct and len(finished) == len(runs):
            trace = json.loads((work / "spans.json").read_text())
            metrics = layer_metrics(trace)
            metrics["trace.spans"] = len(trace["spans"])
            metrics["trace.setup_s"] = runs[1]["setup_s"]
            metrics["trace.run_s"] = runs[1]["run_s"]
            metrics["trace.overhead_s"] = runs[1]["run_s"] - runs[0]["run_s"]
            metrics["sweep.trials_per_s"] = runs[0]["trials_per_s"]
            metrics["sweep.query_pts"] = runs[0]["query_pts"]
            if trace["absent"]:
                print(f"absent layers {trace['absent']}")
        units = per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    digest = next(iter(digests), None)
    print(f"metrics.csv sha256 {digest}; failed_frac {failed / attempted:.4f}")
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "inputs": inputs, "config": config, "runs": runs, "digest": digest, "notes": notes,
         "end_to_end": e2e, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
