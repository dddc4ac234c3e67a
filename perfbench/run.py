"""daqec benchmark: time to solution of full experiments, checked for correctness.

Run from the root of a daqec checkout:

    python3 perfbench/run.py --workload circuit-mc --seed 1 --seconds 40 --trace 0

Each repetition of the workload is a fresh Python process (worker.py) that
runs the workload's experiments through `daqec.cli.main`. Repetitions
continue until --seconds is spent (at least three). With --trace 0 the
end-to-end metrics are the medians over the repetitions; with --trace 1
untraced and traced repetitions alternate and the per-layer numbers are
the medians over the traced ones. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = Path(".perfbench_out")
MIN_REPS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, out_dir: Path, run_id: str, trace: bool,
               tiny: bool) -> dict:
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir), "--run-id", run_id,
           "--trace", str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    result_path = out_dir / "worker.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker for {run_id} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    result["trace"] = trace
    result["dir"] = out_dir
    return result


def run_dir(workload: str, seed: int, trace: bool) -> Path:
    """Where one run keeps its repetitions and result; each trace mode has its own."""
    return OUT_ROOT / workload / f"seed{seed}-trace{int(trace)}"


def run_reps(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list[dict]:
    """Repeat the workload until the time budget is spent.

    A repetition starts only if one more, as long as the slowest so far,
    still ends within the budget, but at least MIN_REPS always run. In a
    traced run untraced and traced repetitions alternate, starting untraced.
    """
    base = run_dir(workload, seed, trace)
    if base.exists():
        shutil.rmtree(base)
    start = time.monotonic()
    # An untimed tiny repetition first: the first process of a run was
    # measurably slower than the rest (cold caches), whatever the code did.
    run_worker(workload, seed, base / "warmup", f"{workload}-{seed}-warmup", False, True)
    reps: list[dict] = []
    slowest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + slowest > seconds:
            break
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        k = len(reps)
        reps.append(run_worker(workload, seed, base / f"rep{k}", f"{workload}-{seed}-{k}",
                               traced, tiny))
        slowest = max(slowest, time.monotonic() - t0)
    return reps


def run_checks(workload: str, reps: list[dict]) -> list[tuple[str, bool]]:
    """Every check of every repetition: exit codes, CSV bytes, workload checks."""
    wl = WORKLOADS[workload]
    checks = []

    def csv_bytes(rep, experiment):
        path = rep["dir"] / f"{experiment}.csv"
        return path.read_bytes() if path.exists() else None

    for k, rep in enumerate(reps):
        for experiment in wl.experiments:
            code = rep["exit_codes"].get(experiment)
            checks.append((f"rep{k} {experiment} exit code 0", code == 0))
            if k > 0:
                data = csv_bytes(rep, experiment)
                same = data is not None and data == csv_bytes(reps[0], experiment)
                checks.append((f"rep{k} {experiment} CSV bytes match rep0", same))
        try:
            checks += [(f"rep{k} {name}", ok) for name, ok in wl.check(rep["dir"], wl.experiments)]
        except (OSError, KeyError, ValueError) as e:
            checks.append((f"rep{k} outputs readable ({type(e).__name__}: {e})", False))
    return checks


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Hash of the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, reps: list[dict]) -> dict:
    wl = WORKLOADS[workload]
    first = reps[0]["dir"]
    threads, csvs = {}, {}
    for experiment in wl.experiments:
        summary = first / f"{experiment}_summary.json"
        if summary.exists():
            threads[experiment] = json.loads(summary.read_text())["config"]["threads"]
        csv_path = first / f"{experiment}.csv"
        if csv_path.exists():
            csvs[experiment] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return {"workload": workload, "seed": seed, "git_commit": git_commit(),
            "src_sha256": source_sha256(), "nproc": os.cpu_count(), **reps[0]["versions"],
            "threads": threads, "csv_sha256": csvs, "reps": len(reps),
            "traced_reps": sum(1 for r in reps if r["trace"])}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    reps = run_reps(workload, seed, seconds, trace, tiny)
    checks = run_checks(workload, reps)
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    if trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1.0)
    else:
        metrics = {name: median([r[name] for r in plain]) for name in END_TO_END}
    failed = sum(1 for _, ok in checks if not ok)
    result = {"workload": workload, "checks": checks, "attempted": len(checks),
              "failed": failed, "samples": len(traced if trace else plain),
              "metrics": metrics, "provenance": provenance(workload, seed, reps)}
    record = dict(result, checks=[c for c in checks if not c[1]])
    (run_dir(workload, seed, trace) / "result.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def print_report(result: dict):
    w = result["workload"]
    print(f"== {w}: {result['samples']} samples, median reported")
    for name, value in result["metrics"].items():
        print(f"  {name:58s} {value:14.6g} {unit_of(name)}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':58s} {frac:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for name, ok in result["checks"]:
        if not ok:
            print(f"  FAILED: {name}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src/daqec/cli.py").is_file() and Path("configs").is_dir()):
        print("run from the root of a daqec checkout (src/daqec and configs/ not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace)))
            print_report(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}/"
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
