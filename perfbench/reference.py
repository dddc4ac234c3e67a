"""Regenerate pnl_reference.json, the circuit-mc check's reference rates.

Runs `pnl-sweep` at its shipped config (configs/pnl-sweep.yaml, 100,000
trials) for several seeds through `daqec.cli.main` and pools the failure
counts of each (scheme, depth) point. From the root of a daqec checkout:

    python3 perfbench/reference.py

The circuit-mc check compares every benchmark row with these pooled rates,
so a frame engine that propagates the wrong noise fails it even when it
still shows a crossover.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "pnl_reference.json"
SEEDS = (9001, 9002, 9003, 9004)


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from daqec import cli

    pooled: dict = {}
    for seed in SEEDS:
        out = Path(".perfbench_out") / "reference" / f"seed{seed}"
        argv = ["pnl-sweep", "--config", "configs/pnl-sweep.yaml",
                "--seed", str(seed), "--out", str(out)]
        if cli.main(argv) != 0:
            return 1
        with (out / "pnl-sweep.csv").open(newline="") as f:
            for r in csv.DictReader(f):
                row = pooled.setdefault((r["scheme"], int(r["depth"])),
                                        {"scheme": r["scheme"], "depth": int(r["depth"]),
                                         "trials": 0, "failures": 0, "xflip_failures": 0})
                for key in ("trials", "failures", "xflip_failures"):
                    row[key] += int(r[key])
    REFERENCE.write_text(json.dumps(
        {"config": "configs/pnl-sweep.yaml", "seeds": list(SEEDS), "rows": list(pooled.values())},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
