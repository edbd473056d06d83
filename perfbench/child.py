"""One `spatialprivacy run` in this process, timed and optionally traced.

    python3 perfbench/child.py SRC CONFIG OUT [SPANS]

Imports the program from SRC, calls ``cli.main(["run", ...])`` and writes
OUT/bench_result.json with the set-up time (until the preflight returns),
the wall time of the whole command, the points of every sweep query passed
to ``attacker.infer`` and the process's peak resident memory. The set-up
time is also printed when the preflight returns, so that a run stopped at
the time limit still has it. With SPANS, the program's public layers are
traced and the spans written there when the run ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def count_sweep_queries(marks: dict) -> list[int]:
    """Wrap ``attacker.infer`` wherever it is looked up; collect query sizes.

    Only calls made after the preflight returned (``"setup_s" in marks``)
    are counted: the sweep's queries, not the preflight's self-queries.
    """
    from spatialprivacy import attacker

    sizes: list[int] = []
    original = attacker.infer

    def counted(ensemble, query, *args, **kwargs):
        if "setup_s" in marks:
            sizes.append(len(query))   # list.append is atomic across worker threads
        return original(ensemble, query, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "spatialprivacy":
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, counted)
    return sizes


def main(argv: list[str]) -> int:
    src, config, out, *spans_path = argv
    sys.path.insert(0, src)
    import spatialprivacy
    from spatialprivacy import cli, harness

    if not Path(spatialprivacy.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"spatialprivacy imported from {spatialprivacy.__file__}, not {src}")
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    preflight = harness.self_query_check

    def timed_preflight(*args, **kwargs):
        result = preflight(*args, **kwargs)
        marks["setup_s"] = time.perf_counter() - t0
        print(f"setup_s {marks['setup_s']!r}", flush=True)
        return result

    harness.self_query_check = timed_preflight
    sizes = count_sweep_queries(marks)
    t0 = time.perf_counter()
    rc = cli.main(["run", "--config", config, "--out", out])
    run_s = time.perf_counter() - t0
    setup_s = marks.get("setup_s")
    if tracer is not None:
        tracer.dump(spans_path[0], None if setup_s is None else t0 + setup_s)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "query_pts": sum(sizes),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    (Path(out) / "bench_result.json").write_text(json.dumps(result) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
