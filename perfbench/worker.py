"""One repetition of a workload, in a fresh interpreter.

Started by run.py from the root of a daqec checkout. It imports daqec from
`src/`, drives every experiment of the workload through `daqec.cli.main`
and writes one JSON result: set-up time (from the parent's spawn stamp to
the first resolved config), execute wall and CPU time, peak RSS, the CLI
exit codes and the library versions. With --trace it also installs the
span tracer, writes the spans next to the outputs and adds the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _timed(fn, log: list):
    """Wrap fn so each call appends (monotonic start, end, process-CPU used)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0, c0 = time.monotonic(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            log.append((t0, time.monotonic(), time.process_time() - c0))
    return wrapper


def _versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for this repetition's files")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.monotonic()
    importlib.import_module("daqec.experiments")
    import_s = time.monotonic() - t0
    from daqec import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"daqec imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = tr.Tracer(args.run_id).install() if args.trace else None
    loads: list = []
    runs: list = []
    saved = (cli.load_config, cli.execute)
    cli.load_config, cli.execute = _timed(cli.load_config, loads), _timed(cli.execute, runs)
    codes = {}
    try:
        for experiment in workload.experiments:
            try:
                codes[experiment] = cli.main(workload.argv(experiment, args.seed, out, args.tiny))
            except Exception:
                # what `daqec` exits with on an uncaught exception; the checks count it
                traceback.print_exc()
                codes[experiment] = 1
    finally:
        cli.load_config, cli.execute = saved
        if tracer is not None:
            tracer.restore()

    result = {
        "setup_s": loads[0][1] - args.spawned,
        "wall_s": sum(end - start for start, end, _ in runs),
        "cpu_s": sum(cpu for _, _, cpu in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "load_config_s": sum(end - start for start, end, _ in loads),
        "exit_codes": codes,
        "versions": _versions(),
    }
    if tracer is not None:
        layers = tr.layer_metrics(tracer.spans, tracer.counters,
                                  result["wall_s"], result["cpu_s"])
        layers["cli.import_s"] = import_s
        layers["experiments.load_config_s"] = result["load_config_s"]
        result["layers"] = layers
        (out / "spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "run_id"],
             "spans": tracer.spans, "counters": tracer.counters}))
    (out / "worker.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
