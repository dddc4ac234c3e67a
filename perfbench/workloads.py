"""The benchmark's workloads and the checks that decide whether their outputs are correct.

Each workload is a list of daqec experiments run at their shipped config
(`configs/<experiment>.yaml`) in one fresh process. Only the seed and,
where a full-size run would not fit several times into one benchmark run,
the trial count are overridden. The checks read what the program wrote:
CLI exit codes, the CSV and the summary JSON, and for circuit-mc
reference rates pooled from the shipped config.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


# ---------------------------------------------------------------------------
# checks: each returns a list of (check name, passed)


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def read_summary(out_dir: Path, experiment: str) -> dict:
    return json.loads((out_dir / f"{experiment}_summary.json").read_text())


# pooled pnl-sweep rates of the shipped config (see reference.py)
PNL_REFERENCE = Path(__file__).resolve().parent / "pnl_reference.json"
# largest allowed distance of a rate from the reference, in standard errors
# of the difference: about 6e-7 to miss it by chance, per rate
MAX_Z = 5.0


def crossover_depth(success: dict, depths: list[int], trials: int):
    """First depth from which the distributed scheme stays ahead with
    disjoint 95% intervals, for success rates observed at `trials`."""
    def half(p):
        return 1.96 * math.sqrt(p * (1.0 - p) / trials)
    for i, d in enumerate(depths):
        if all(success[("dqec", e)] - half(success[("dqec", e)])
               > success[("lqec", e)] + half(success[("lqec", e)]) for e in depths[i:]):
            return d
    return None


def check_circuit_mc(out_dir: Path, experiments) -> list[tuple[str, bool]]:
    """Criterion-4 shape and every rate, judged against the reference rates.

    The crossover expected at this trial count comes from the reference, not
    from the program's own d*, so the checks can fail independently of it.
    """
    rows = read_csv(out_dir / "pnl-sweep.csv")
    ref = {(r["scheme"], r["depth"]): r for r in json.loads(PNL_REFERENCE.read_text())["rows"]}
    by = {(r["scheme"], int(r["depth"])): r for r in rows}
    depths = sorted({d for _, d in by})
    trials = int(rows[0]["trials"])
    ref_rate = {(k, col): 1.0 - r[key] / r["trials"] for k, r in ref.items()
                for col, key in (("success_rate", "failures"), ("fidelity", "xflip_failures"))}
    expected = crossover_depth({k: ref_rate[k, "success_rate"] for k in ref}, depths, trials)
    d_star = read_summary(out_dir, "pnl-sweep")["results"]["crossover_depth"]
    lq2, dq2 = by[("lqec", 2)], by[("dqec", 2)]
    checks = [("crossover_depth is set", d_star is not None),
              (f"crossover_depth within one depth step of the reference's {expected}",
               expected is not None and d_star in depths
               and abs(depths.index(d_star) - depths.index(expected)) <= 1),
              ("local >= distributed at depth 2",
               float(lq2["success_rate"]) >= float(dq2["success_rate"]))]
    for d in depths:
        if expected is not None and d >= 2 * expected:
            lq, dq = by[("lqec", d)], by[("dqec", d)]
            lo_dist = float(dq["success_rate"]) - float(dq["success_ci95"])
            hi_local = float(lq["success_rate"]) + float(lq["success_ci95"])
            checks.append((f"distributed ahead, disjoint CIs at depth {d}", lo_dist > hi_local))
    for (scheme, d), r in sorted(by.items()):
        for col in ("success_rate", "fidelity"):
            p, n_ref = ref_rate[(scheme, d), col], ref[(scheme, d)]["trials"]
            se = math.sqrt(p * (1.0 - p) * (1.0 / trials + 1.0 / n_ref))
            checks.append((f"{scheme} depth {d} {col} within {MAX_Z:g} s.e. of reference",
                           abs(float(r[col]) - p) <= MAX_Z * se))
    return checks


def check_code_capacity(out_dir: Path, experiments) -> list[tuple[str, bool]]:
    """Criterion-5 band: relative advantage in [0.08, 0.25], CI half-width < 0.02."""
    checks = []
    for r in read_csv(out_dir / "correlated-errors.csv"):
        adv, ci = float(r["relative_advantage"]), float(r["relative_advantage_ci95"])
        checks.append((f"advantage in band at {r['mean_rate']}", 0.08 <= adv <= 0.25))
        checks.append((f"advantage CI < 0.02 at {r['mean_rate']}", ci < 0.02))
    return checks


def check_exact(out_dir: Path, experiments) -> list[tuple[str, bool]]:
    """Every row that carries a `pass` column passed; every summary says ok."""
    checks = []
    for experiment in experiments:
        for i, r in enumerate(read_csv(out_dir / f"{experiment}.csv")):
            if "pass" in r:
                checks.append((f"{experiment} row {i} pass", r["pass"] == "true"))
        checks.append((f"{experiment} ok", read_summary(out_dir, experiment)["ok"] is True))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    trials: dict            # experiment -> trial override; absent = config value
    tiny_trials: dict       # the same for the quick self-test size
    check: Callable[[Path, tuple], list[tuple[str, bool]]]

    def argv(self, experiment: str, seed: int, out_dir: Path, tiny: bool = False) -> list[str]:
        argv = [experiment, "--config", f"configs/{experiment}.yaml",
                "--seed", str(seed), "--out", str(out_dir)]
        trials = (self.tiny_trials if tiny else self.trials).get(experiment)
        if trials is not None:
            argv += ["--trials", str(trials)]
        return argv


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        # two 8192-trial chunks per point, so both configured threads have work
        Workload("circuit-mc", ("pnl-sweep",),
                 {"pnl-sweep": 16384}, {"pnl-sweep": 1024}, check_circuit_mc),
        Workload("code-capacity", ("correlated-errors",),
                 {"correlated-errors": 2048}, {"correlated-errors": 256}, check_code_capacity),
        Workload("exact-checks",
                 ("wstate-verify", "allocation-report", "apples", "bound-validate"),
                 {}, {"bound-validate": 1000}, check_exact),
    )
}
