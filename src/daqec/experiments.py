"""Reproducible experiment orchestration.

Every experiment is declared once, by its entry in REGISTRY at the end of
this module: its runner, default trial count, whether it is Monte Carlo or
a verify mode, and each parameter's default and allowed range. A config
resolves file values over those defaults, CLI overrides over both, and is
checked against the entry; the run writes one CSV with a fixed column
order, the experiment name first and the seed last in every row,
plus a summary JSON carrying the fully resolved config, versions and wall
time. Randomness is split counter-style: the generator of chunk c of
parameter point i is default_rng(SeedSequence(seed, spawn_key=(i, c)))
with a fixed chunk size, so outputs are byte-identical at any thread count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
# numpy loads its random module on first use; every experiment draws from it,
# so load it here and keep that cost out of the first run's wall_time_s
import numpy.random  # noqa: F401
import yaml

from . import allocation as alc
from . import bounds_analytics as bnd
from . import stabilizer_steane as stn
from . import wstate_code as wsc
from .mixed_radix_sim import basis_sum_state, fidelity

DEFAULT_SEED = 20250811
# Version of the draws behind the Monte Carlo outputs, written into every
# summary. Scheme 1: pnl-sweep drew one uniform per trial for every noisy CNOT.
# Scheme 2: it drew geometric gaps over all (op, trial) positions at the largest
# rate and thinned them to each op's rate. Scheme 3: bound-validate's lemma
# checks draw each chunk's cases at once through the seeded chunk map. Scheme 4:
# pnl-sweep draws the gaps of each distinct nonzero rate, in ascending order,
# over that rate's positions only, its CNOTs by ASAP layer, then op order.
# Scheme 5: each rate's positions take its CNOTs in op order. A change of the
# draws bumps it.
RNG_SCHEME = 5
DEFAULT_CHUNK = 8192
MIN_MC_TRIALS = 100


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = DEFAULT_SEED
    trials: int = 0           # 0 = experiment default
    out: str = "results"
    threads: int = 1
    chunk_size: int = DEFAULT_CHUNK
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Param:
    """A setting's type, default and allowed closed range [lo, hi].

    A list setting declares `size`, the (min, max) bounds of its length;
    its type and range then apply to every element, and `increasing` asks
    its entries to strictly increase. None leaves a bound open.
    """

    type: type
    default: object
    lo: float | None = None
    hi: float | None = None
    size: tuple[int, int | None] | None = None
    increasing: bool = False


@dataclass(frozen=True)
class Experiment:
    """The one declaration of an experiment, as its REGISTRY entry."""

    runner: Callable
    trials: int                   # default trials per parameter point
    params: dict[str, Param]
    monte_carlo: bool = False     # estimates need at least MIN_MC_TRIALS trials
    verify: bool = False          # a failed check exits 3
    ordered: tuple[tuple[str, str], ...] = ()  # (a, b): params a <= b
    below: tuple[tuple[str, str], ...] = ()    # (a, b): some entry of list param a < param b


# settable top-level keys besides `experiment` and `params`
_TOP = {
    "seed": Param(int, DEFAULT_SEED, 0),
    # bound-validate keeps two ratios per trial until the median
    "trials": Param(int, 0, 0, 10**7),
    "out": Param(str, "results"),
    # the calling thread and up to threads - 1 pool threads share the chunks
    # of a map: one point's, or both layouts' of a pnl-sweep depth; the frame
    # engine holds the interpreter lock in short numpy calls, so the shipped
    # pnl-sweep is slower at two threads than at one and slower still at three
    # (medians 0.20-0.29, 0.31-0.37 and 0.38-0.40 s in three sets of nine runs
    # on a 2-core VM, OpenBLAS pinned to one thread)
    "threads": Param(int, 1, 1, 64),
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _within(name: str, value, lo, hi):
    # written as `not value >= lo` so that NaN fails too
    if lo is not None and not value >= lo:
        raise ConfigError(f"{name} must be at least {lo}")
    if hi is not None and not value <= hi:
        raise ConfigError(f"{name} must be at most {hi}")


def _check(name: str, spec: Param, value):
    items = [value]
    if spec.size is not None:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        _within(f"length of {name}", len(value), *spec.size)
        name, items = f"each entry of {name}", value
    accepted = (int, float) if spec.type is float else spec.type
    for v in items:
        if isinstance(v, bool) or not isinstance(v, accepted):
            raise ConfigError(f"{name} must be {_TYPE_NAMES[spec.type]}")
        _within(name, v, spec.lo, spec.hi)
    if spec.increasing and any(a >= b for a, b in zip(items, items[1:])):
        raise ConfigError(f"{name} must exceed the one before it")


def load_config(experiment: str | None = None, path: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config from defaults, an optional YAML file, and overrides.

    Unknown keys anywhere are errors; so are values of the wrong type or
    outside the range the experiment's REGISTRY entry declares.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = yaml.safe_load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except yaml.YAMLError as e:
            raise ConfigError(f"config file is not valid YAML: {e}") from e
        if data is None:  # an empty file gives nothing
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a mapping")
    unknown = set(data) - {"experiment", "params", *_TOP}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    exp = data.get("experiment", experiment)
    if experiment is not None and "experiment" in data and data["experiment"] != experiment:
        raise ConfigError(
            f"config file is for {data['experiment']!r}, requested {experiment!r}")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    entry = REGISTRY[exp]

    given = data.get("params")
    if given is None:  # no params, or a bare `params:`
        given = {}
    if not isinstance(given, dict):
        raise ConfigError("params must be a mapping")
    unknown = set(given) - set(entry.params)
    if unknown:
        raise ConfigError(f"unknown params for {exp}: {sorted(unknown, key=str)}")
    top = {key: data.get(key, spec.default) for key, spec in _TOP.items()}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _TOP:
            raise ConfigError(f"unknown override {key}")
        top[key] = value
    params = {key: given.get(key, spec.default) for key, spec in entry.params.items()}
    for key, spec in _TOP.items():
        _check(key, spec, top[key])
    for key, spec in entry.params.items():
        _check(f"param {key}", spec, params[key])
    for a, b in entry.ordered:
        if params[a] > params[b]:
            raise ConfigError(f"param {a} must not exceed {b}")
    for a, b in entry.below:
        if min(params[a]) >= params[b]:
            raise ConfigError(f"param {b} must exceed some entry of {a}")
    trials = top["trials"] or entry.trials
    if entry.monte_carlo and trials < MIN_MC_TRIALS:
        raise ConfigError(f"no estimate from fewer than {MIN_MC_TRIALS} trials")
    return ExperimentConfig(exp, **{**top, "trials": trials}, params=params)


# ---------------------------------------------------------------------------
# deterministic parallel plumbing


def point_rng(seed: int, point_index: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_index, chunk_index))
    return np.random.default_rng(ss)


def chunk_plan(total: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(i, min(chunk_size, total - i * chunk_size))
            for i in range((total + chunk_size - 1) // chunk_size)]


def _map_ordered(fn, tasks, threads: int) -> list:
    """Run tasks possibly in parallel but collect results in task order.

    The caller and min(threads, len(tasks)) - 1 pool threads take task
    indices from one range iterator, whose next() is atomic under the
    interpreter lock. After a failure no thread starts a task, and the
    error is raised once all have stopped.
    """
    workers = min(threads, len(tasks)) - 1
    if workers < 1:
        return [fn(t) for t in tasks]
    results = [None] * len(tasks)
    indices = iter(range(len(tasks)))

    def drain():
        try:
            for i in indices:
                results[i] = fn(tasks[i])
        except BaseException:
            for _ in indices:  # the other threads take no further task
                pass
            raise
    with ThreadPoolExecutor(workers) as ex:
        futures = [ex.submit(drain) for _ in range(workers)]
        drain()
        for future in futures:
            future.result()
    return results


def _seeded_chunks(cfg: ExperimentConfig, points: list[tuple[int, Callable]]) -> list[list]:
    """fn(rng, count) on every chunk of each (point_index, fn) pair, in one chunk map.

    Returns one list per pair, of its chunks' results in chunk order.
    Chunk c of point i draws from point_rng(cfg.seed, i, c), so the
    results depend neither on cfg.threads nor on which points share a map.
    """
    tasks, ends = [], []
    for point_index, fn in points:
        tasks += [(point_index, fn, chunk) for chunk in chunk_plan(cfg.trials, cfg.chunk_size)]
        ends.append(len(tasks))

    def task(item):
        point_index, fn, (chunk_index, count) = item
        return fn(point_rng(cfg.seed, point_index, chunk_index), count)
    results = _map_ordered(task, tasks, cfg.threads)
    return [results[lo:hi] for lo, hi in zip([0] + ends, ends)]


def binomial_ci95(successes: float, trials: int) -> float:
    """Normal-approximation half width 1.96*sqrt(p(1-p)/N)."""
    if trials <= 0:
        return 0.0
    p = successes / trials
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _fmt(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _json_default(v):
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def write_csv(path: Path, columns: list[str], rows: list[dict]):
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c, "")) for c in columns))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pnl-sweep (circuit-level depth sweep, local vs distributed layouts)

PNL_COLUMNS = ["scheme", "depth", "trials", "failures", "success_rate", "success_ci95",
               "xflip_failures", "fidelity", "fidelity_ci95"]


def _depth_grid(p: dict) -> list[int]:
    if p["depths"]:
        return [int(d) for d in p["depths"]]
    raw = np.geomspace(p["depth_min"], p["depth_max"], p["depth_points"])
    grid: list[int] = []
    for v in raw:
        d = max(1, int(round(v)))
        if not grid or d > grid[-1]:
            grid.append(d)
    return grid


def run_pnl_sweep(cfg: ExperimentConfig):
    p = cfg.params
    depths = _depth_grid(p)
    noise = stn.NoiseSpec(p_local=float(p["p_local"]), p_remote=float(p["p_remote"]))
    layouts = [stn.lqec_layout(p["n_blocks"]), stn.dqec_layout(p["n_blocks"])]
    rows = [None] * (len(layouts) * len(depths))
    # depth by depth, so both layouts of a depth and all their chunks share
    # one compile and one chunk map, and only one depth's table is alive;
    # points, and so their seeds and rows, stay numbered layout first
    for depth_index, depth in enumerate(depths):
        # the layouts differ only in where the qubits live, which the compile
        # does not read
        compiled = stn.compile_mirror(layouts[0], depth)

        def run_chunk(layout, rng, count):
            xf, zf = stn.run_circuit_trials(compiled, layout, noise, rng, count)
            return (int(np.count_nonzero(np.any(xf | zf, axis=0))),
                    int(np.count_nonzero(np.any(xf, axis=0))))
        points = [(layout_index * len(depths) + depth_index, functools.partial(run_chunk, layout))
                  for layout_index, layout in enumerate(layouts)]
        for layout, (point_index, _), chunks in zip(layouts, points, _seeded_chunks(cfg, points)):
            failures, x_failures = map(sum, zip(*chunks))
            rows[point_index] = {
                "scheme": layout.name, "depth": depth, "trials": cfg.trials,
                "failures": failures, "success_rate": 1.0 - failures / cfg.trials,
                "success_ci95": binomial_ci95(failures, cfg.trials),
                "xflip_failures": x_failures, "fidelity": 1.0 - x_failures / cfg.trials,
                "fidelity_ci95": binomial_ci95(x_failures, cfg.trials),
            }
    summary = {"depths": depths, "crossover_depth": _crossover_depth(rows, depths)}
    return rows, PNL_COLUMNS, summary, True


def _crossover_depth(rows: list[dict], depths: list[int]):
    """First tested depth from which the distributed scheme stays ahead
    with non-overlapping 95% intervals."""
    by = {(r["scheme"], r["depth"]): r for r in rows}
    crossover = None
    for d in reversed(depths):
        lq, dq = by["lqec", d], by["dqec", d]
        if dq["success_rate"] - dq["success_ci95"] <= lq["success_rate"] + lq["success_ci95"]:
            break
        crossover = d
    return crossover


# ---------------------------------------------------------------------------
# correlated-errors (code capacity, sampled processor rates)

CORR_COLUMNS = ["mean_rate", "trials", "ler_local", "ler_local_ci95", "ler_dist",
                "ler_dist_ci95", "relative_advantage", "relative_advantage_ci95"]


def run_correlated_errors(cfg: ExperimentConfig):
    """Code-capacity comparison of local vs. fully distributed blocks.

    Seven Steane blocks live on n_processors processors; rates are
    resampled every trial and the per-block failure probability given
    those rates is evaluated exactly, so the only Monte Carlo variance
    comes from the rate draws. Block b of the local allocation is uniform
    at rate eps[b mod n_p]; data qubit j of every distributed block sits
    on processor j mod n_p.
    """
    p = cfg.params
    n_proc = int(p["n_processors"])
    n_blocks = 7
    std_factor = float(p["std_factor"])
    clip_max = float(p["rate_clip_max"])
    grid = np.geomspace(p["mean_rate_min"], p["mean_rate_max"], p["rate_points"])
    local_procs = np.arange(n_blocks) % n_proc
    dist_procs = np.arange(stn.N_DATA) % n_proc
    rows = []
    for point_index, mean in enumerate(grid):
        def run_chunk(rng, count):
            eps = bnd.sample_profiles(n_proc, float(mean), std_factor * float(mean), rng,
                                      count, clip=(0.0, clip_max))
            # local blocks are uniform at their processor's rate
            f_local = stn.steane_failure_probabilities_uniform(eps[:, local_procs])
            ler_local = 1.0 - np.prod(1.0 - f_local, axis=1)
            # every distributed block sees the same cross-processor rate vector
            f_dist = stn.steane_failure_probabilities_batch(eps[:, dist_procs])
            ler_dist = 1.0 - (1.0 - f_dist) ** n_blocks
            return (float(ler_local.sum()), float(ler_dist.sum()),
                    float((ler_local**2).sum()), float((ler_dist**2).sum()),
                    float((ler_local * ler_dist).sum()), count)

        (chunks,) = _seeded_chunks(cfg, [(point_index, run_chunk)])
        s_l, s_d, s_ll, s_dd, s_ld, n = map(sum, zip(*chunks))
        mu_l, mu_d = s_l / n, s_d / n
        var_l = max(s_ll / n - mu_l**2, 0.0)
        var_d = max(s_dd / n - mu_d**2, 0.0)
        cov = s_ld / n - mu_l * mu_d
        advantage = 1.0 - mu_d / mu_l
        # delta method on the ratio of paired means
        var_ratio = (var_d / mu_l**2 + (mu_d**2 / mu_l**4) * var_l
                     - 2.0 * (mu_d / mu_l**3) * cov) / n
        rows.append({
            "mean_rate": float(mean), "trials": n,
            "ler_local": mu_l, "ler_local_ci95": 1.96 * math.sqrt(var_l / n),
            "ler_dist": mu_d, "ler_dist_ci95": 1.96 * math.sqrt(var_d / n),
            "relative_advantage": advantage,
            "relative_advantage_ci95": 1.96 * math.sqrt(max(var_ratio, 0.0)),
        })
    summary = {"mean_rates": [float(m) for m in grid],
               "advantage_range": [min(r["relative_advantage"] for r in rows),
                                   max(r["relative_advantage"] for r in rows)]}
    return rows, CORR_COLUMNS, summary, True


# ---------------------------------------------------------------------------
# bound-validate (distributed-advantage lower bound sweep)

BOUND_COLUMNS = ["kind", "n", "mean_rate", "trials", "mean_difference",
                 "mean_bound_exact", "mean_bound_approx", "frac_meeting_exact_bound",
                 "median_ratio_exact", "median_ratio_approx", "violations"]


def run_bound_validate(cfg: ExperimentConfig):
    p = cfg.params
    grid = np.geomspace(p["mean_rate_min"], p["mean_rate_max"], p["rate_points"])
    std_factor = float(p["std_factor"])
    clip_max = float(p["rate_clip_max"])
    rows = []
    point_index = 0
    for n in p["n_list"]:
        for mean in grid:
            def run_chunk(rng, count):
                eps = bnd.sample_profiles(n, float(mean), std_factor * float(mean),
                                          rng, count, clip=(0.0, clip_max))
                diff = bnd.success_dist(eps) - bnd.success_local(eps)
                sigma2, bound_exact, bound_approx = bnd.advantage_bounds(eps)
                # zero-spread profiles say nothing about the bound; rounding
                # noise in the variance would otherwise dominate them
                ok = sigma2 > 1e-30
                meets = int(np.count_nonzero(diff[ok] >= bound_exact[ok]) +
                            np.count_nonzero(~ok))
                # a processor at rate 1 zeroes the exact bound, and rates just
                # below 1 make it subnormal, where diff / bound overflows; both
                # are met, as diff >= 0, but have no ratio
                rated = ok & (bound_exact >= np.finfo(float).tiny)
                return (meets, count, diff.sum(), bound_exact.sum(), bound_approx.sum(),
                        diff[rated] / bound_exact[rated], diff[ok] / bound_approx[ok])

            chunks = list(zip(*_seeded_chunks(cfg, [(point_index, run_chunk)])[0]))
            meets, total, s_diff, s_exact, s_approx = map(sum, chunks[:5])
            re, ra = np.concatenate(chunks[5]), np.concatenate(chunks[6])
            rows.append({
                "kind": "sweep", "n": n,
                "mean_rate": float(mean), "trials": total,
                "mean_difference": s_diff / total,
                "mean_bound_exact": s_exact / total,
                "mean_bound_approx": s_approx / total,
                "frac_meeting_exact_bound": meets / total,
                "median_ratio_exact": _median(re) if re.size else 1.0,
                "median_ratio_approx": _median(ra) if ra.size else 1.0,
                "violations": total - meets,
            })
            point_index += 1

    lemma_cfg = dataclasses.replace(cfg, trials=int(p["lemma_cases"]))
    lemma1_viol, lemma2_viol = map(sum, _seeded_chunks(
        lemma_cfg, [(point_index, lemma1_violations), (point_index + 1, lemma2_violations)]))
    for kind, viol in (("lemma1", lemma1_viol), ("lemma2", lemma2_viol)):
        rows.append({
            "kind": kind, "n": "", "mean_rate": "", "trials": lemma_cfg.trials,
            "frac_meeting_exact_bound": "", "median_ratio_exact": "",
            "median_ratio_approx": "", "violations": viol,
        })
    summary = {"lemma1_violations": lemma1_viol, "lemma2_violations": lemma2_viol}
    return rows, BOUND_COLUMNS, summary, lemma1_viol == 0 and lemma2_viol == 0


def _median(values: np.ndarray) -> float:
    """np.median of a nonempty 1-D array without NaN, bit for bit: the same
    partition, and a sum from +0.0 as in np.mean. np.median itself would
    import numpy.ma, which no other experiment loads."""
    k = values.size // 2
    if values.size % 2:
        return float(0.0 + np.partition(values, (k, -1))[k])
    p = np.partition(values, (k - 1, k, -1))
    return float((0.0 + p[k - 1] + p[k]) / 2)


def lemma_violations(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """Cases whose left side falls below the right by more than rounding slack."""
    return int(np.count_nonzero(lhs < rhs - 1e-12))


def lemma1_violations(rng: np.random.Generator, count: int) -> int:
    """Lemma 1, mean(1 - eps)**n >= prod(1 - eps), on `count` profiles of n in
    [2, 20] rates uniform on [0, 1], drawn as one flat array."""
    n = rng.integers(2, 21, size=count)
    x = 1.0 - rng.uniform(0.0, 1.0, n.sum())
    starts = np.cumsum(n) - n
    return lemma_violations((np.add.reduceat(x, starts) / n) ** n,
                            np.multiply.reduceat(x, starts))


def lemma2_violations(rng: np.random.Generator, count: int) -> int:
    """Lemma 2 (bnd.nth_root_gap) on `count` cases 1e-6 <= b <= a <= 1, n in [1, 30]."""
    b = rng.uniform(1e-6, 1.0, count)
    a = rng.uniform(b, 1.0)
    n = rng.integers(1, 31, size=count)
    return lemma_violations(*bnd.nth_root_gap(a, b, n))


# ---------------------------------------------------------------------------
# wstate-verify (exact decoder and encoder checks)

WSTATE_COLUMNS = ["check", "n", "n_e", "expected", "measured", "tolerance", "pass"]


def _haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_logical(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def run_wstate_verify(cfg: ExperimentConfig):
    p = cfg.params
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rows = []

    def add(check, n, n_e, expected, measured, tol):
        rows.append({
            "check": check, "n": n, "n_e": n_e, "expected": expected,
            "measured": measured, "tolerance": tol,
            "pass": bool(abs(measured - expected) <= tol),
        })

    psi = np.array([0.6, 0.8j])
    for total in range(2, int(p["max_total_sites"]) + 1):
        word = wsc.encode(psi, total)
        for n_e in range(0, min(int(p["max_erasures"]), total - 1) + 1):
            n = total - n_e
            erased = range(total - n_e, total)
            expected = n / total
            outcome = wsc.decode_measure(word, erased)
            add("measure-decoder", n, n_e, expected, outcome.success_probability, 1e-9)
            post, _ = wsc.decode_elective(word, 0, erased)
            fid = wsc.ensemble_fidelity(post, _psi_at_site(psi, n, 0), erased)
            add("elective-decoder", n, n_e, expected, fid, 1e-9)

    worst = 1.0
    for n in (2, 3, 4):
        for _ in range(int(p["n_unitaries"]) // 3 + 1):
            u = _haar_unitary(rng)
            v = _random_logical(rng)
            f = fidelity(wsc.logical_unitary(wsc.encode(v, n), u),
                         wsc.codeword_vector(u @ v, n))
            worst = min(worst, f)
    add("transversality-min-fidelity", "", "", 1.0, worst, 1e-9)

    worst = 1.0
    for n in (2, 4, 8):
        for _ in range(int(p["n_random_logical"])):
            v = _random_logical(rng)
            f = fidelity(wsc.encode_alt(v, n), wsc.codeword_vector(v, n))
            worst = min(worst, f)
    add("alt-encoder-min-fidelity", "", "", 1.0, worst, 1e-9)

    for n in (2, 4, 8):
        for d in (2, 3):
            f = fidelity(wsc.prepare_w(n, d), wsc.w_state_vector(n, d))
            add("w-preparation", f"{n}", f"d={d}", 1.0, f, 1e-10)

    for n, expected in ((1, 0.0), (2, 0.5), (7, 6 / 7)):
        add("expected-swaps", n, "", expected, wsc.expected_swaps(n), 1e-12)

    ok = all(r["pass"] for r in rows)
    return rows, WSTATE_COLUMNS, {"checks": len(rows)}, ok


def _psi_at_site(psi, n: int, site: int):
    """Pure reference |2...psi...2> with the logical state at one site."""
    return basis_sum_state((3,) * n, ((tuple(level if k == site else wsc.BOT for k in range(n)),
                                       psi[level]) for level in (0, 1)))


# ---------------------------------------------------------------------------
# allocation-report

ALLOC_COLUMNS = ["ell_c", "n_p", "q", "s", "k", "t", "t_printed", "eta_formula",
                 "formula_valid", "eta_count", "eta_bound", "nonlocal_formula",
                 "nonlocal_count", "brute_force_min", "threshold_basic",
                 "threshold_general", "pass"]


def run_allocation_report(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for n_p in p["n_p_list"]:
        for ell in range(2, int(p["ell_c_max"]) + 1):
            if ell <= n_p:
                continue
            params = alc.AllocationParams(ell, n_p)
            count = alc.eta_count(alc.even_partition_allocation(params))
            eta_f = alc.eta_formula(params)
            eta_b = alc.eta_bound(params)
            n_formula = alc.nonlocal_count_formula(params)
            bf = ""
            if ell <= alc.BRUTE_FORCE_ELL_MAX and n_p <= alc.BRUTE_FORCE_N_P_MAX:
                bf, _ = alc.brute_force_optimal(ell, n_p)
            row_pass = ((not params.formula_valid or n_formula == count)
                        and eta_b >= eta_f - 1e-12 and bf in ("", count))
            rows.append({
                "ell_c": ell, "n_p": n_p, "q": params.q, "s": params.s, "k": params.k,
                "t": params.t,
                "t_printed": params.t_printed_variant,
                "eta_formula": eta_f, "formula_valid": params.formula_valid,
                "eta_count": count / params.total_pairwise_gates, "eta_bound": eta_b,
                "nonlocal_formula": n_formula, "nonlocal_count": count,
                "brute_force_min": bf,
                "threshold_basic": alc.advantage_threshold_basic(n_p, int(p["d_enc_dec"]), eta_f),
                "threshold_general": alc.advantage_threshold_general(params, int(p["d_enc_dec"])),
                "pass": row_pass,
            })
    return rows, ALLOC_COLUMNS, {"rows": len(rows)}, all(r["pass"] for r in rows)


# ---------------------------------------------------------------------------
# apples (appendix packing and cutoffs)

APPLES_COLUMNS = ["check", "value", "reference", "tolerance", "pass"]


def run_apples(cfg: ExperimentConfig):
    p = cfg.params
    bins = [float(v) for v in p["bin_probs"]]
    n = len(bins)
    rows = []

    def add(check, value, reference, tol):
        rows.append({"check": check, "value": value, "reference": reference,
                     "tolerance": tol, "pass": bool(abs(value - reference) <= tol)})

    matrix, best_success, odds = bnd.optimal_packing_bruteforce(bins)
    one_per_bin = math.prod(1.0 - bnd.barrel_ruin_two_or_more(np.array(bins))
                            for _ in range(n))
    add("one-per-bin-packing-optimal", best_success, one_per_bin, 1e-12)
    add("optimal-odds-spread", max(odds) - min(odds), 0.0, 1e-9)

    closed = bnd.contamination_cutoff_exact(bins)
    oracle = bnd.contamination_cutoff_exact_oracle(bins)
    add("cutoff-exact-closed-vs-oracle", closed, oracle, 1e-10)
    add("cutoff-exact-vs-anchor", closed, float(p["cutoff_anchor"]),
        float(p["cutoff_tolerance"]))
    approx = bnd.contamination_cutoff_approx(bins)
    add("cutoff-approx-closed-vs-oracle", approx, bnd.contamination_cutoff_approx_oracle(bins),
        1e-10)

    worst = 0.0
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    for _ in range(200):
        size = int(rng.integers(2, 5))
        probs = rng.uniform(0.0, 0.95, size)
        worst = max(worst, abs(bnd.barrel_ruin_two_or_more(probs)
                               - bnd.enumerate_ruin(probs)))
        worst = max(worst, abs(bnd.barrel_ruin_odds_form(probs)
                               - bnd.enumerate_ruin(probs)))
    add("closed-form-vs-enumeration-max-error", worst, 0.0, 1e-12)

    barrel_odds = bnd.diagnose_packing(bins, matrix)
    summary = {"best_packing_matrix": [[int(v) for v in row] for row in matrix],
               "per_barrel_odds_sums": list(barrel_odds),
               "total_odds": float(sum(barrel_odds)),
               "cutoff_exact": closed, "cutoff_approx": approx}
    return rows, APPLES_COLUMNS, summary, all(r["pass"] for r in rows)


# ---------------------------------------------------------------------------
# entry points

# Ranges keep every accepted config runnable: each bound marks where a run
# would divide by zero, index an empty layout, find nothing to check or
# outgrow memory or time. A W-code state keeps only its nonzero amplitudes,
# so memory does not cap max_total_sites; time does: both decoders over every
# erasure count of every word up to 18 sites (max_erasures: 17) take 0.47 to
# 0.71 s on a 2-core VM (the whole run 0.51 to 1.03 s), against 0.10 to 0.14 s
# up to 10 sites; a site adds about 20%.
# Far below 1e-6, a block's failure probability (about 19 eps^2) is lost
# in rounding 1 - f, and the relative advantage divides by the local rate.
_RATE = dict(lo=1e-6, hi=1.0)
_RATE_GRID = (("mean_rate_min", "mean_rate_max"),)
REGISTRY = {
    "pnl-sweep": Experiment(run_pnl_sweep, 100000, {
        "p_local": Param(float, 2e-4, 0.0, 1.0),
        "p_remote": Param(float, 2e-3, 0.0, 1.0),
        # one block has no CNOT chain, so its circuit never reaches a depth
        "n_blocks": Param(int, 7, 2, 100),
        "depth_min": Param(int, 2, 1, 10000),
        "depth_max": Param(int, 400, 1, 10000),
        "depth_points": Param(int, 14, 1, 1000),
        # an explicit grid overrides the geometric one; a repeated depth would
        # write two rows of which the crossover reads only the last
        "depths": Param(int, [], 1, 10000, size=(0, 1000), increasing=True),
    }, monte_carlo=True, ordered=(("depth_min", "depth_max"),)),
    "correlated-errors": Experiment(run_correlated_errors, 10000, {
        "mean_rate_min": Param(float, 2e-3, **_RATE),
        "mean_rate_max": Param(float, 5e-2, **_RATE),
        "rate_points": Param(int, 8, 1, 1000),
        "std_factor": Param(float, 0.5, 0.0, 10.0),
        "n_processors": Param(int, 7, 1, 100),
        "rate_clip_max": Param(float, 0.5, **_RATE),
    }, monte_carlo=True, ordered=_RATE_GRID),
    "bound-validate": Experiment(run_bound_validate, 10000, {
        "n_list": Param(int, [3, 7, 20], 1, 100, size=(1, None)),
        "mean_rate_min": Param(float, 1e-3, **_RATE),
        "mean_rate_max": Param(float, 5e-2, **_RATE),
        "rate_points": Param(int, 6, 1, 1000),
        "std_factor": Param(float, 0.5, 0.0, 10.0),
        "rate_clip_max": Param(float, 0.1, **_RATE),
        "lemma_cases": Param(int, 10000, 1, 10**7),
    }, monte_carlo=True, verify=True, ordered=_RATE_GRID),
    "wstate-verify": Experiment(run_wstate_verify, 1, {
        "max_total_sites": Param(int, 8, 2, 18),
        "max_erasures": Param(int, 3, 0, 17),
        "n_unitaries": Param(int, 100, 1, 10**5),
        "n_random_logical": Param(int, 20, 1, 10**4),
    }, verify=True),
    "allocation-report": Experiment(run_allocation_report, 1, {
        # only ell_c > n_p is reported, so ell_c_max must exceed some n_p for a row
        "ell_c_max": Param(int, 25, 3, 1000),
        # from n_p = 5 the even partition leaves unusable fragments and is undefined
        "n_p_list": Param(int, [2, 3, 4], 2, 4, size=(1, None)),
        "d_enc_dec": Param(int, 7, 0, 10**6),
    }, verify=True, below=(("n_p_list", "ell_c_max"),)),
    "apples": Experiment(run_apples, 1, {
        # the exhaustive packing search takes 2 to 4 bins; a bin certain to spoil
        # leaves no contamination cutoff
        "bin_probs": Param(float, [0.6, 0.2, 0.05], 0.0, math.nextafter(1.0, 0.0),
                           size=(2, 4)),
        "cutoff_anchor": Param(float, 0.073, 0.0, 1.0),
        "cutoff_tolerance": Param(float, 0.005, 0.0, 1.0),
    }, verify=True),
}
EXPERIMENTS = tuple(REGISTRY)


def run_experiment(cfg: ExperimentConfig):
    return REGISTRY[cfg.experiment].runner(cfg)


@contextlib.contextmanager
def _writing(path: Path):
    """Report an OSError while writing `path` as a config error naming it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


def execute(cfg: ExperimentConfig) -> int:
    """Run, write CSV + summary JSON, and return the process exit code."""
    from . import __version__
    start, cpu_start = time.perf_counter(), time.process_time()
    out = Path(cfg.out)
    try:  # before the run, so that a bad --out costs nothing
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e.strerror}") from e
    rows, columns, extra, ok = run_experiment(cfg)
    ok = ok and bool(rows)  # a run that checked nothing has not passed
    for row in rows:
        row.update(experiment=cfg.experiment, seed=cfg.seed)
    csv_path = out / f"{cfg.experiment}.csv"
    with _writing(csv_path):
        write_csv(csv_path, ["experiment", *columns, "seed"], rows)
    summary = {
        "experiment": cfg.experiment,
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "numpy_version": np.__version__,
        "rng_scheme": RNG_SCHEME,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "cpu_time_s": round(time.process_time() - cpu_start, 3),  # every thread's
        "rows": len(rows),
        "ok": ok,
        "results": extra,
    }
    summary_path = out / f"{cfg.experiment}_summary.json"
    with _writing(summary_path):
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=_json_default) + "\n")
    if REGISTRY[cfg.experiment].verify and not ok:
        return 3
    return 0
