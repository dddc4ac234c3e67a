import ast
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import daqec
from daqec import allocation as alc
from daqec import bounds_analytics as bnd
from daqec import experiments
from daqec import stabilizer_steane as stn
from daqec.cli import main
from daqec.experiments import (
    REGISTRY,
    RNG_SCHEME,
    ConfigError,
    binomial_ci95,
    chunk_plan,
    execute,
    lemma1_violations,
    lemma2_violations,
    lemma_violations,
    load_config,
    point_rng,
    run_correlated_errors,
    run_pnl_sweep,
    write_csv,
)


# ---------------------------------------------------------------------------
# config handling


def test_defaults_materialized():
    cfg = load_config("pnl-sweep")
    assert cfg.trials == 100000
    assert cfg.params["p_remote"] == 2e-3
    assert cfg.params["p_local"] == 2e-4
    echo = dataclasses.asdict(cfg)
    assert set(echo) == {"experiment", "seed", "trials", "out", "threads",
                         "chunk_size", "params"}


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        load_config("frobnicate")


def test_unknown_top_level_key(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: apples\nbogus: 1\n")
    with pytest.raises(ConfigError):
        load_config(path=str(p))


def test_unknown_param_key(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: apples\nparams:\n  no_such_knob: 2\n")
    with pytest.raises(ConfigError):
        load_config(path=str(p))


def test_param_type_checked(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: pnl-sweep\nparams:\n  depth_points: many\n")
    with pytest.raises(ConfigError):
        load_config(path=str(p))


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "experiment: correlated-errors\nseed: 7\ntrials: 400\n"
        "params:\n  rate_points: 2\n  n_processors: 3\n")
    cfg = load_config(path=str(p), overrides={"seed": 9, "trials": 500})
    assert cfg.seed == 9
    assert cfg.trials == 500
    assert cfg.params["rate_points"] == 2
    assert cfg.params["n_processors"] == 3


def test_experiment_mismatch_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: apples\n")
    with pytest.raises(ConfigError):
        load_config(experiment="pnl-sweep", path=str(p))


def test_minimum_trials_enforced(tmp_path):
    with pytest.raises(ConfigError):
        load_config("correlated-errors", overrides={"trials": 50})


def test_probability_ranges_checked(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("experiment: pnl-sweep\nparams:\n  p_remote: 1.5\n")
    with pytest.raises(ConfigError):
        load_config(path=str(p))


# ---------------------------------------------------------------------------
# deterministic plumbing


def test_chunk_plan_covers_total():
    plan = chunk_plan(10_000, 4096)
    assert plan == [(0, 4096), (1, 4096), (2, 1808)]


CHUNK_MAP_THREADS = [2, 3, 8]


@pytest.mark.parametrize("threads", CHUNK_MAP_THREADS)
def test_the_chunk_map_runs_every_task_once_in_order_and_the_caller_joins_in(threads):
    caller = threading.get_ident()
    for n_tasks in range(1, 21):
        before = set(threading.enumerate())
        lock, caller_ran = threading.Lock(), threading.Event()
        runs, runners, running, peak = [], set(), [0], [0]

        def task(t):
            with lock:
                runs.append(t)
                runners.add(threading.get_ident())
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            # a pool thread holds its first task until the caller has run
            # one, so the caller cannot find every task taken
            if threading.get_ident() == caller:
                caller_ran.set()
            else:
                assert caller_ran.wait(timeout=10)
            with lock:
                running[0] -= 1
            return 10 * t
        tasks = list(range(n_tasks))
        assert experiments._map_ordered(task, tasks, threads) == [10 * t for t in tasks]
        assert sorted(runs) == tasks
        assert caller in runners
        assert len(runners) <= threads and peak[0] <= threads
        assert set(threading.enumerate()) <= before  # every pool thread has ended


@pytest.mark.parametrize("threads", CHUNK_MAP_THREADS)
def test_an_exception_in_any_chunk_map_task_propagates(threads):
    for n_tasks in range(1, 21):
        for bad in range(n_tasks):
            before = set(threading.enumerate())

            def task(t):
                if t == bad:
                    raise KeyError(t)
                return t
            with pytest.raises(KeyError) as info:
                experiments._map_ordered(task, list(range(n_tasks)), threads)
            assert info.value.args == (bad,)
            assert set(threading.enumerate()) <= before


def test_a_failed_chunk_map_task_stops_the_other_threads_taking_more():
    runs = []

    def task(t):
        if t == 0:
            raise KeyError(t)
        runs.append(t)
        time.sleep(0.005)
    with pytest.raises(KeyError):
        experiments._map_ordered(task, list(range(20)), 2)
    assert len(runs) < 19


def _small_pnl_sweep(threads: int):
    cfg = load_config("pnl-sweep", overrides={"trials": 300, "threads": threads})
    cfg.chunk_size = 100  # three chunks per point
    cfg.params["depths"] = [2, 5, 9]
    return cfg


def test_pnl_sweep_maps_both_layouts_of_a_depth_in_one_chunk_map(monkeypatch):
    calls = []

    def recording_map(fn, tasks, threads):
        calls.append(len(tasks))
        return map_ordered(fn, tasks, threads)
    map_ordered = experiments._map_ordered
    monkeypatch.setattr(experiments, "_map_ordered", recording_map)
    rows, _, _, _ = run_pnl_sweep(_small_pnl_sweep(2))
    assert calls == [2 * 3] * 3  # one map per depth, of both layouts' three chunks
    assert [(r["scheme"], r["depth"]) for r in rows] == [
        (scheme, d) for scheme in ("lqec", "dqec") for d in (2, 5, 9)]


def test_points_sharing_a_chunk_map_draw_as_they_would_alone():
    cfg = experiments.ExperimentConfig("pnl-sweep", trials=250, threads=3, chunk_size=100)

    def draw(rng, count):
        return rng.integers(0, 2**62, count).tolist()
    points = [(4, draw), (0, draw), (7, lambda rng, count: count)]
    together = experiments._seeded_chunks(cfg, points)
    assert together == [experiments._seeded_chunks(cfg, [point])[0] for point in points]
    assert together[0] != together[1]
    assert together[2] == [100, 100, 50]


def test_a_pnl_sweep_leaves_no_chunk_map_thread_behind(monkeypatch):
    caller, pool_ran = threading.get_ident(), threading.Event()

    def recording_trials(circuit, layout, noise, rng, n_trials):
        # the caller holds its first chunk until a pool thread has run one
        if threading.get_ident() == caller:
            pool_ran.wait(timeout=10)
        else:
            pool_ran.set()
        return run_trials(circuit, layout, noise, rng, n_trials)
    run_trials = stn.run_circuit_trials
    monkeypatch.setattr(stn, "run_circuit_trials", recording_trials)
    before = set(threading.enumerate())
    run_pnl_sweep(_small_pnl_sweep(3))
    assert pool_ran.is_set()
    assert set(threading.enumerate()) <= before


def test_point_rng_reproducible():
    a = point_rng(42, 3, 1).random(5)
    b = point_rng(42, 3, 1).random(5)
    c = point_rng(42, 3, 2).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_binomial_ci():
    assert binomial_ci95(0, 100) == 0.0
    assert abs(binomial_ci95(50, 100) - 1.96 * 0.05) < 1e-12


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c"], [{"a": 1, "b": 0.5, "c": True}])
    assert path.read_text() == "a,b,c\n1,0.5,true\n"


# ---------------------------------------------------------------------------
# runners and CLI


def _tiny_corr_cfg(**kw):
    cfg = load_config("correlated-errors")
    cfg.trials = 300
    cfg.params["rate_points"] = 2
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_correlated_errors_rows_shape():
    rows, cols, summary, ok = run_correlated_errors(_tiny_corr_cfg())
    assert ok and len(rows) == 2
    for r in rows:
        assert set(cols) >= set(r)
        assert r["trials"] == 300
        assert 0 <= r["ler_local"] <= 1


def test_rerun_identical_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert execute(_tiny_corr_cfg(out=str(out1))) == 0
    assert execute(_tiny_corr_cfg(out=str(out2))) == 0
    assert (out1 / "correlated-errors.csv").read_bytes() == \
        (out2 / "correlated-errors.csv").read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    execute(_tiny_corr_cfg(out=str(out1), threads=1))
    execute(_tiny_corr_cfg(out=str(out2), threads=4))
    assert (out1 / "correlated-errors.csv").read_bytes() == \
        (out2 / "correlated-errors.csv").read_bytes()
    for experiment, params in (
            ("bound-validate", {"n_list": [3, 7], "rate_points": 2, "lemma_cases": 50}),
            ("pnl-sweep", {"depths": [2, 12]})):
        for threads, out in ((1, out1), (4, out2)):
            cfg = load_config(experiment, overrides={"trials": 300, "threads": threads,
                                                     "out": str(out)})
            cfg.chunk_size = 128  # three chunks per point, so the threads share each point
            cfg.params.update(params)
            assert execute(cfg) == 0
        assert (out1 / f"{experiment}.csv").read_bytes() == \
            (out2 / f"{experiment}.csv").read_bytes()


def test_correlated_errors_single_processor_degenerate():
    cfg = _tiny_corr_cfg()
    cfg.params["n_processors"] = 1
    rows, _, _, _ = run_correlated_errors(cfg)
    for r in rows:
        assert abs(r["relative_advantage"]) < 1e-12


def test_correlated_errors_uniform_rates_no_advantage():
    cfg = _tiny_corr_cfg()
    cfg.params["std_factor"] = 0.0
    rows, _, _, _ = run_correlated_errors(cfg)
    for r in rows:
        assert abs(r["relative_advantage"]) < 1e-12


def test_bound_validate_zero_spread_is_flat():
    from daqec.experiments import run_bound_validate
    cfg = load_config("bound-validate")
    cfg.trials = 200
    cfg.params["std_factor"] = 0.0
    cfg.params["rate_points"] = 2
    cfg.params["n_list"] = [3]
    cfg.params["lemma_cases"] = 200
    rows, _, _, ok = run_bound_validate(cfg)
    assert ok
    for r in rows:
        if r["kind"] == "sweep":
            assert abs(r["mean_difference"]) < 1e-15
            assert r["mean_bound_exact"] < 1e-30
            assert r["mean_bound_approx"] < 1e-30
            assert r["frac_meeting_exact_bound"] == 1.0


def test_bound_validate_means_ordered():
    from daqec.experiments import run_bound_validate
    cfg = load_config("bound-validate")
    cfg.trials = 2000
    cfg.params["rate_points"] = 2
    cfg.params["n_list"] = [7]
    cfg.params["lemma_cases"] = 200
    rows, _, _, _ = run_bound_validate(cfg)
    for r in rows:
        if r["kind"] == "sweep":
            assert r["mean_difference"] >= r["mean_bound_exact"] > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_validate_ratio_skips_subnormal_exact_bounds(monkeypatch):
    # inside the ranges (n_list: [100], rate_clip_max: 1.0): twenty rates a
    # hair below 1 make the exact bound n s_loc sigma^2 / 2 subnormal
    # (6.5e-322), and diff / bound would overflow to inf
    profile = np.array([1.0 - 2.0**-53] * 20 + [0.999] + [0.0] * 79)
    monkeypatch.setattr(bnd, "sample_profiles",
                        lambda n, mean, std, rng, size, clip: np.tile(profile, (size, 1)))
    cfg = load_config("bound-validate", overrides={"trials": 100})
    cfg.params.update(n_list=[100], rate_points=1, rate_clip_max=1.0, lemma_cases=10)
    _, bound_exact, _ = bnd.advantage_bounds(profile)
    assert 0.0 < bound_exact < np.finfo(float).tiny
    [row] = [r for r in experiments.run_bound_validate(cfg)[0] if r["kind"] == "sweep"]
    # no profile has a ratio, so the median is the empty default; the bound
    # is still met
    assert math.isfinite(row["median_ratio_exact"])
    assert row["frac_meeting_exact_bound"] == 1.0


def _sides_and_count(monkeypatch, chunk, seed, count):
    """A lemma chunk's violation count, and the two sides it compared."""
    seen = []

    def record(lhs, rhs):
        seen.append((lhs, rhs))
        return lemma_violations(lhs, rhs)
    monkeypatch.setattr(experiments, "lemma_violations", record)
    violations = chunk(np.random.default_rng(seed), count)
    [(lhs, rhs)] = seen
    return violations, lhs, rhs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma1_chunk_matches_scalar_recount(monkeypatch, seed):
    count = 400
    violations, dist, local = _sides_and_count(monkeypatch, lemma1_violations, seed, count)
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 21, size=count)
    eps = np.split(rng.uniform(0.0, 1.0, n.sum()), np.cumsum(n)[:-1])
    scalar_dist = np.array([(math.fsum(1.0 - e) / e.size) ** e.size for e in eps])
    scalar_local = np.array([math.prod(1.0 - e) for e in eps])
    np.testing.assert_allclose(dist, scalar_dist, rtol=1e-12, atol=0)
    np.testing.assert_allclose(local, scalar_local, rtol=1e-12, atol=0)
    assert violations == int(np.count_nonzero(scalar_dist < scalar_local - 1e-12)) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma2_chunk_matches_scalar_recount(monkeypatch, seed):
    count = 400
    violations, lhs, rhs = _sides_and_count(monkeypatch, lemma2_violations, seed, count)
    rng = np.random.default_rng(seed)
    b = rng.uniform(1e-6, 1.0, count)
    a = rng.uniform(b, 1.0)
    n = rng.integers(1, 31, size=count)
    scalar = np.array([bnd.nth_root_gap(float(a[i]), float(b[i]), int(n[i]))
                       for i in range(count)])
    np.testing.assert_array_equal(lhs, scalar[:, 0])
    np.testing.assert_allclose(rhs, scalar[:, 1], rtol=1e-12, atol=0)
    assert violations == int(np.count_nonzero(scalar[:, 0] < scalar[:, 1] - 1e-12)) == 0


def test_lemma_violations_counts_beyond_the_slack():
    lhs = np.array([0.5, 0.5, 0.5, 0.5])
    rhs = np.array([0.5 + 3e-12, 0.5 + 5e-13, 0.5, 0.4])
    assert lemma_violations(lhs, rhs) == 1
    assert lemma_violations(lhs[1:], rhs[1:]) == 0


def test_bound_validate_lemma_chunks_do_not_depend_on_threads(tmp_path):
    outs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        cfg = load_config("bound-validate", overrides={"trials": 200, "threads": threads,
                                                       "out": str(out)})
        cfg.chunk_size = 64  # the 500 lemma cases span eight chunks
        cfg.params.update({"n_list": [3], "rate_points": 1, "lemma_cases": 500})
        assert execute(cfg) == 0
        outs.append((out / "bound-validate.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_pnl_sweep_zero_noise_perfect_success(tmp_path):
    cfg = load_config("pnl-sweep")
    cfg.trials = 300
    cfg.params["p_local"] = 0.0
    cfg.params["p_remote"] = 0.0
    cfg.params["depths"] = [2, 30]
    rows, _, _, _ = run_pnl_sweep(cfg)
    assert all(r["success_rate"] == 1.0 for r in rows)


def test_pnl_sweep_small_run(tmp_path):
    cfg = load_config("pnl-sweep")
    cfg.trials = 200
    cfg.params["depths"] = [2, 8]
    cfg.out = str(tmp_path)
    rows, cols, summary, ok = run_pnl_sweep(cfg)
    assert len(rows) == 4  # two schemes x two depths
    schemes = {r["scheme"] for r in rows}
    assert schemes == {"lqec", "dqec"}


def crossover_depth_oracle(rows: list[dict], depths: list[int]):
    """First depth from which dqec stays ahead, by checking every later depth
    from every depth forward."""
    by = {(r["scheme"], r["depth"]): r for r in rows}
    for i, d in enumerate(depths):
        ahead = True
        for later in depths[i:]:
            lq, dq = by[("lqec", later)], by[("dqec", later)]
            if dq["success_rate"] - dq["success_ci95"] <= lq["success_rate"] + lq["success_ci95"]:
                ahead = False
                break
        if ahead:
            return d
    return None


def _pnl_rows(points, depths):
    """pnl-sweep rows, lqec first, of (lqec rate, lqec ci, dqec rate, dqec ci) per depth."""
    return [{"scheme": scheme, "depth": d, "success_rate": point[k], "success_ci95": point[k + 1]}
            for k, scheme in ((0, "lqec"), (2, "dqec")) for d, point in zip(depths, points)]


def test_crossover_depth_counts_a_tie_as_behind():
    depths = [2, 8, 30]
    ahead, tie = (0.5, 0.125, 1.0, 0.125), (0.5, 0.125, 0.75, 0.125)
    assert experiments._crossover_depth(_pnl_rows([tie, ahead, ahead], depths), depths) == 8
    assert experiments._crossover_depth(_pnl_rows([ahead, tie, ahead], depths), depths) == 30
    # a last depth that is behind leaves no crossover, whatever came before
    assert experiments._crossover_depth(_pnl_rows([ahead, ahead, tie], depths), depths) is None


# rates and intervals on a dyadic grid, so that the bounds compare exactly and tie often
_RATES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_CIS = st.sampled_from([0.0, 0.125, 0.25])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RATES, _CIS, _RATES, _CIS), min_size=1, max_size=8),
       st.lists(st.integers(1, 50), min_size=8, max_size=8))
def test_crossover_depth_matches_the_forward_scan(points, steps):
    depths = np.cumsum(steps[:len(points)]).tolist()
    rows = _pnl_rows(points, depths)
    assert experiments._crossover_depth(rows, depths) == crossover_depth_oracle(rows, depths)


def test_cli_runs_apples(tmp_path):
    assert main(["apples", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "apples.csv").read_text()
    assert csv.splitlines()[0].startswith("experiment,check,value")
    summary = json.loads((tmp_path / "apples_summary.json").read_text())
    assert summary["ok"] is True
    assert summary["config"]["params"]["bin_probs"] == [0.6, 0.2, 0.05]


def _fresh_python(script: str, **variables: str | None) -> str:
    """stdout of a script run in a new interpreter that imports this daqec.

    Each keyword sets that environment variable, or removes it if None."""
    src = os.path.dirname(os.path.dirname(daqec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **variables}
    env = {key: value for key, value in env.items() if value is not None}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_importing_daqec_pins_openblas_to_one_thread_unless_the_user_set_it(preset):
    # unpinned, OpenBLAS starts a pool worker at numpy's import that busy-waits
    # for about 0.1 s; no daqec product is large enough to hand it work
    script = ("import os, daqec, numpy\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n")
    value, threads = _fresh_python(script, OPENBLAS_NUM_THREADS=preset).split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"


def test_runs_do_not_import_scipy(tmp_path):
    # scipy's import was most of daqec's start-up; the package needs only numpy and
    # pyyaml, and its exact coefficient tables are built without fractions or decimal.
    # numpy.ma (which np.median imports) costs about 1.5 MB of memory
    config = tmp_path / "pnl.yaml"
    config.write_text("experiment: pnl-sweep\ntrials: 200\nparams:\n  depths: [2, 9]\n")
    script = (
        "import sys\n"
        "from daqec.cli import main\n"
        f"assert main(['apples', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['correlated-errors', '--trials', '100', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['pnl-sweep', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'fractions', 'decimal')\n"
        "             or m.split('.')[:2] == ['numpy', 'ma']))\n")
    assert _fresh_python(script) == "[]"
    assert (tmp_path / "correlated-errors.csv").exists()
    assert (tmp_path / "pnl-sweep.csv").exists()


def test_the_shipped_bound_validate_run_does_not_import_numpy_ma(tmp_path):
    # its medians go through np.partition; np.median would load numpy.ma
    script = (
        "import sys\n"
        "from daqec.cli import main\n"
        f"assert main(['bound-validate', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    assert _fresh_python(script) == "[]"
    assert (tmp_path / "bound-validate.csv").exists()


# functions in src/ that no run calls, each with why it stays
UNCALLED = {
    ("mixed_radix_sim", "partial_trace"):
        "perfbench's tracer tests patch wstate_code's binding of it",
    ("experiments", "_json_default"):
        "no summary holds a numpy scalar today; it keeps one from failing the write",
}
SHORT_TRIALS = ("pnl-sweep", "correlated-errors", "bound-validate")


def test_every_function_in_src_runs_in_the_shipped_configs(tmp_path):
    # a function that no run calls is code for a test, or for nobody, and
    # belongs in the tests or nowhere; the import is profiled too
    src = pathlib.Path(daqec.__file__).parent
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    runs = [[name, "--config", str(configs / f"{name}.yaml"),
             "--out", str(tmp_path), *(["--trials", "200"] if name in SHORT_TRIALS else [])]
            for name in REGISTRY]
    script = (
        "import cProfile, json, pathlib, pstats\n"
        "profile = cProfile.Profile()\n"
        "profile.enable()\n"
        "import daqec\n"
        "from daqec.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "profile.disable()\n"
        "src = pathlib.Path(daqec.__file__).parent\n"
        "print(json.dumps([codes, sorted({(pathlib.Path(f).stem, fn)\n"
        "                  for f, _, fn in pstats.Stats(profile).stats\n"
        "                  if pathlib.Path(f).parent == src})]))\n")
    codes, called = json.loads(_fresh_python(script))
    assert codes == [0] * len(REGISTRY)
    called = {tuple(key) for key in called}
    defined = {(path.stem, node.name) for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert set(UNCALLED) <= defined - called  # each exception is still needed
    assert defined - called - set(UNCALLED) == set()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)
       | st.lists(st.sampled_from((-1.0, -0.0, 0.0, 1.0)), min_size=1, max_size=40))
def test_median_is_np_median_bit_for_bit(values):
    a = np.array(values)
    before = a.copy()
    got, ref = experiments._median(a), float(np.median(a))
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    assert np.array_equal(a, before)  # the input is left as it was


def test_cli_config_error_exit_code(tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    (tmp_path / "blocked" / "apples.csv").mkdir(parents=True)
    for argv, message in (
            (["--config", str(tmp_path / "missing.yaml")], "cannot read config file"),
            (["--out", str(a_file)], "cannot create output directory"),  # a file
            (["--out", str(a_file / "sub")], "cannot create output directory"),  # under a file
            # the CSV path is a directory
            (["--out", str(tmp_path / "blocked")], f"cannot write {tmp_path / 'blocked' / 'apples.csv'}:"),
            (["--trials", "10000001"], "trials must be at most")):
        assert main(["apples"] + argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err, argv


# keys of mixed types once raised a TypeError, and a falsy non-mapping ran
# the defaults as if nothing were given
_NO_MAPPINGS = (("empty-list", "[]"), ("false", "false"), ("zero", "0"),
                ("empty-string", "''"), ("list", "[1]"))
MALFORMED = {
    "top-level": ("experiment: apples\n1: 2\nfoo: 3\n", "unknown config keys: [1, 'foo']"),
    "params": ("experiment: apples\nparams: {1: 2, foo: 3}\n",
               "unknown params for apples: [1, 'foo']"),
    **{f"file-{name}": (f"{value}\n", "config file must hold a mapping")
       for name, value in _NO_MAPPINGS},
    **{f"params-{name}": (f"experiment: apples\nparams: {value}\n", "params must be a mapping")
       for name, value in _NO_MAPPINGS},
}


@pytest.mark.parametrize("text,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_refuses_a_malformed_config_in_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["apples", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "apples.csv").exists()


@pytest.mark.parametrize("text", ["", "experiment: apples\nparams:\n"], ids=["empty", "bare"])
def test_an_empty_config_or_a_bare_params_runs_the_defaults(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert load_config("apples", path=str(path)) == load_config("apples")
    assert main(["apples", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: apples\nparams:\n  cutoff_anchor: 0.5\n  cutoff_tolerance: 0.001\n")
    assert main(["apples", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    # in range, but no instance has ell_c > n_p, so nothing would be checked
    cfg.write_text("experiment: allocation-report\nparams:\n  ell_c_max: 3\n  n_p_list: [4]\n")
    assert main(["allocation-report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    # a verify run that checked nothing has not passed
    entry = REGISTRY["apples"]
    monkeypatch.setitem(REGISTRY, "apples", dataclasses.replace(
        entry, runner=lambda cfg: ([], ["check"], {}, True)))
    assert main(["apples", "--out", str(tmp_path)]) == 3


def test_cli_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["correlated-errors", "--trials", "300", "--seed", "1", "--out", str(out1)])
    main(["correlated-errors", "--trials", "300", "--seed", "2", "--out", str(out2)])
    assert (out1 / "correlated-errors.csv").read_bytes() != \
        (out2 / "correlated-errors.csv").read_bytes()


def test_shipped_configs_parse_and_match_defaults():
    configs = sorted(pathlib.Path(__file__).parent.parent.glob("configs/*.yaml"))
    assert len(configs) == 6
    for path in configs:
        cfg = load_config(path=str(path))
        assert cfg.experiment == path.stem
        # shipped files spell out the standard settings
        defaults = load_config(cfg.experiment)
        assert cfg.params == defaults.params


def test_summary_echoes_resolved_config(tmp_path):
    main(["apples", "--out", str(tmp_path), "--seed", "77"])
    summary = json.loads((tmp_path / "apples_summary.json").read_text())
    assert summary["config"]["seed"] == 77
    assert "wall_time_s" in summary
    assert summary["cpu_time_s"] >= 0
    assert "version" in summary
    assert summary["rng_scheme"] == RNG_SCHEME


# ---------------------------------------------------------------------------
# parameter ranges

# each of these crashed, hung, ran out of memory or passed a verify mode
# having checked nothing before the ranges existed
OUT_OF_RANGE = [
    ("pnl-sweep", {"n_blocks": 1}),
    ("pnl-sweep", {"n_blocks": 0}),
    ("pnl-sweep", {"depths": [0]}),
    ("correlated-errors", {"rate_points": 0}),
    ("correlated-errors", {"n_processors": 0}),
    ("allocation-report", {"n_p_list": [1]}),
    ("allocation-report", {"ell_c_max": 1}),
    ("allocation-report", {"n_p_list": [5], "ell_c_max": 8}),
    # no n_p below ell_c_max, so no row to check: the run failed its verify mode
    ("allocation-report", {"n_p_list": [4], "ell_c_max": 4}),
    ("allocation-report", {"n_p_list": [3, 4], "ell_c_max": 3}),
    ("apples", {"bin_probs": []}),
    ("apples", {"bin_probs": [0.5]}),
    ("wstate-verify", {"max_total_sites": 19}),
    ("wstate-verify", {"max_total_sites": 20}),
    ("wstate-verify", {"max_erasures": 18}),
    ("wstate-verify", {"n_unitaries": -5}),
    ("wstate-verify", {"n_random_logical": 0}),
    ("wstate-verify", {"n_unitaries": 10**12}),
    ("wstate-verify", {"n_random_logical": 10**12}),
    ("bound-validate", {"n_list": [], "lemma_cases": -1}),
    ("bound-validate", {"lemma_cases": 10**12}),
    ("pnl-sweep", {"threads": 10**6}),
]


@pytest.mark.parametrize(
    "experiment,params", OUT_OF_RANGE,
    ids=[e + "-" + "-".join(f"{k}={v}" for k, v in p.items()) for e, p in OUT_OF_RANGE])
def test_cli_rejects_params_out_of_range(tmp_path, capsys, experiment, params):
    # a top-level setting goes beside `params`
    top = {key: value for key, value in params.items() if key in experiments._TOP}
    params = {key: value for key, value in params.items() if key not in top}
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": experiment, **top, "params": params}))
    with pytest.raises(ConfigError):  # so no circuit or state is ever built
        load_config(path=str(path))
    assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_an_allocation_report_with_no_row_to_check_names_both_params(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": "allocation-report",
                                    "params": {"n_p_list": [4], "ell_c_max": 4}}))
    assert main(["allocation-report", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ell_c_max" in err[0] and "n_p_list" in err[0]
    assert not (tmp_path / "allocation-report.csv").exists()
    # one n_p below ell_c_max gives the one row ell_c = 4, n_p = 3
    path.write_text(yaml.safe_dump({"experiment": "allocation-report",
                                    "params": {"n_p_list": [4, 3], "ell_c_max": 4}}))
    assert main(["allocation-report", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "allocation-report.csv") as f:
        assert [(r["ell_c"], r["n_p"]) for r in csv.DictReader(f)] == [("4", "3")]


def test_wall_time_is_not_negative_when_the_system_clock_steps_back(tmp_path, monkeypatch):
    ticks = iter(range(10**6))
    monkeypatch.setattr(time, "time", lambda: 1e9 - 3600.0 * next(ticks))
    assert main(["apples", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "apples_summary.json").read_text())
    assert summary["wall_time_s"] >= 0


def test_a_config_file_cannot_set_the_chunk_size(tmp_path, capsys):
    # every run uses DEFAULT_CHUNK; only code sets another on a loaded config
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": "correlated-errors", "chunk_size": 100}))
    with pytest.raises(ConfigError, match=r"unknown config keys: \['chunk_size'\]"):
        load_config(path=str(path))
    assert load_config("correlated-errors").chunk_size == experiments.DEFAULT_CHUNK
    assert main(["correlated-errors", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "chunk_size" in err
    assert not (tmp_path / "correlated-errors.csv").exists()


def test_an_override_of_an_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown override chunk_size"):
        load_config("apples", overrides={"chunk_size": 4})


@pytest.mark.parametrize("depths", [[400, 2, 400], [2, 2], [9, 3]])
def test_cli_rejects_a_depth_grid_that_does_not_strictly_increase(tmp_path, capsys, depths):
    # a repeated depth wrote two rows, of which the crossover read the last
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": "pnl-sweep", "trials": 2000,
                                    "params": {"depths": depths}}))
    assert main(["pnl-sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "depths" in err[0]
    assert not (tmp_path / "pnl-sweep.csv").exists()


# the cells of a row of each experiment's CSV that hold text, and those left
# blank; a text cell must be one lower-case word and every other cell must parse
# as a finite number, so a dropped, shifted or blank numeric column fails
CSV_TEXT = {
    "pnl-sweep": lambda row: {"experiment", "scheme"},
    "correlated-errors": lambda row: {"experiment"},
    "apples": lambda row: {"experiment", "check", "pass"},
    "allocation-report": lambda row: {"experiment", "formula_valid", "pass"},
    "bound-validate": lambda row: {"experiment", "kind"},
    # the W-preparation rows name the site dimension in n_e, as d=<d>
    "wstate-verify": lambda row: {"experiment", "check", "pass"} | (
        {"n_e"} if row["check"] == "w-preparation" else set()),
}
_SWEEP_ONLY = {"n", "mean_rate", "mean_difference", "mean_bound_exact", "mean_bound_approx",
               "frac_meeting_exact_bound", "median_ratio_exact", "median_ratio_approx"}
CSV_BLANK = {
    "pnl-sweep": lambda row, p: set(),
    "correlated-errors": lambda row, p: set(),
    "apples": lambda row, p: set(),
    # brute force runs only where the exhaustive search takes the instance
    "allocation-report": lambda row, p: (
        set() if int(row["ell_c"]) <= alc.BRUTE_FORCE_ELL_MAX
        and int(row["n_p"]) <= alc.BRUTE_FORCE_N_P_MAX else {"brute_force_min"}),
    "bound-validate": lambda row, p: set() if row["kind"] == "sweep" else _SWEEP_ONLY,
    # the minimum-fidelity rows pool every n; the expected-swaps rows have no erasures
    "wstate-verify": lambda row, p: (
        {"n", "n_e"} if row["check"].endswith("min-fidelity")
        else {"n_e"} if row["check"] == "expected-swaps" else set()),
}


def _assert_cells(experiment, params, rows):
    params = {name: spec.default for name, spec in REGISTRY[experiment].params.items()} | params
    for row in rows:
        blank, text = CSV_BLANK[experiment](row, params), CSV_TEXT[experiment](row)
        for key, value in row.items():
            if key in blank:
                assert value == "", (key, value)
            elif key in text:
                assert re.fullmatch(r"[a-z][a-z0-9=-]*", value), (key, value)
            else:
                assert math.isfinite(float(value)), (key, value)


# in range, and each crashed with a raw traceback or wrote a non-finite value;
# the anchor is set to each cutoff, so a run whose checks hold exits 0
IN_RANGE_EDGES = [
    # break-even exactly at p_c = 0
    pytest.param("apples", {"bin_probs": [0.6] * 4, "cutoff_anchor": 0.0}, 0, id="apples-0"),
    pytest.param("apples", {"bin_probs": [0.99] * 4, "cutoff_anchor": 0.0}, 0, id="apples-1"),
    # P(0) + P(1) of the mixed barrel is 9.3e-18, lost when taken as 1 - ruin; every
    # packing's success is 0.0, and the tie goes to the most nearly equal odds sums
    pytest.param("apples", {"bin_probs": [0.896, 1 - 2**-53, 0.596, 1 - 2**-53],
                            "cutoff_anchor": 0.941}, 0, id="apples-2"),
    # a processor at rate 1 zeroes the exact bound of its profile
    pytest.param("bound-validate", {"n_list": [3], "rate_points": 2, "mean_rate_min": 0.5,
                                    "mean_rate_max": 1.0, "std_factor": 1.0,
                                    "rate_clip_max": 1.0, "lemma_cases": 20},
                 0, id="bound-validate-3"),
    # the top of the range: an erased 18-site word stays one sparse pure state
    pytest.param("wstate-verify", {"max_total_sites": 18, "n_unitaries": 3,
                                   "n_random_logical": 1}, 0, id="wstate-verify-18"),
    # criterion 1 up to 17 erasures of an 18-site word, the top of both ranges
    pytest.param("wstate-verify", {"max_total_sites": 18, "max_erasures": 17, "n_unitaries": 3,
                                   "n_random_logical": 1}, 0, id="wstate-verify-18-17"),
    # the top of the pnl-sweep ranges: 100 blocks need 13 mask words, and the
    # circuit has over 74,000 ops
    pytest.param("pnl-sweep", {"n_blocks": 100, "depths": [10000]}, 0,
                 id="pnl-sweep-100-10000"),
    # 13 mask words at depths where some trials succeed (about 750 of 1,000
    # under lqec and 50 under dqec), so that the pin reads the bits of both
    # outcomes; at depth 10,000 every trial fails
    pytest.param("pnl-sweep", {"n_blocks": 100, "depths": [1, 2, 4]}, 0,
                 id="pnl-sweep-100-shallow"),
    # the top of the allocation-report ranges: 2,991 rows
    pytest.param("allocation-report", {"ell_c_max": 1000, "d_enc_dec": 1000000}, 0,
                 id="allocation-report-1000"),
]


# SHA-256 of the CSV of an edge case, at the default seed, as the golden CSVs
# of the shipped configs: 100 blocks are the only runs of 13 mask words
EDGE_CSV = {
    "pnl-sweep-100-10000": "87837a9ee6dc1343c2f3830df37c5903a5d488bb005e81c184ff255a179d067b",
    "pnl-sweep-100-shallow": "e29c487bf76e66dc2120aa4a69d4b9c1dc5f974af94ca451930d4688d0e50d47",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment,params,code", IN_RANGE_EDGES)
def test_cli_in_range_edge_cases_run(tmp_path, capsys, request, experiment, params, code):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": params}))
    trials = "1000" if REGISTRY[experiment].monte_carlo else "0"
    exit_code = main([experiment, "--config", str(path), "--out", str(tmp_path),
                      "--trials", trials])
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / f"{experiment}.csv") as f:
        _assert_cells(experiment, params, list(csv.DictReader(f)))
    assert exit_code == code
    if request.node.callspec.id in EDGE_CSV:
        digest = hashlib.sha256((tmp_path / f"{experiment}.csv").read_bytes()).hexdigest()
        assert digest == EDGE_CSV[request.node.callspec.id]


# small settings for the other parameters, so that the walk stays quick
WALK_BASE = {
    "pnl-sweep": {"depth_max": 8, "depth_points": 2},
    "correlated-errors": {"rate_points": 1},
    "bound-validate": {"n_list": [3], "rate_points": 1, "lemma_cases": 20},
    "wstate-verify": {"max_total_sites": 3, "n_unitaries": 3, "n_random_logical": 1},
    "allocation-report": {"ell_c_max": 5},
    "apples": {},
}


@pytest.mark.parametrize("experiment,name", [
    (e, name) for e, entry in REGISTRY.items()
    for name, spec in entry.params.items() if spec.lo is not None])
def test_registry_minimum_runs_and_one_step_below_is_rejected(tmp_path, experiment, name):
    entry = REGISTRY[experiment]
    spec = entry.params[name]
    below = spec.lo - 1 if spec.type is int else math.nextafter(spec.lo, -math.inf)
    argv = [experiment, "--out", str(tmp_path), "--config", str(tmp_path / "c.yaml")]
    if entry.monte_carlo:
        argv += ["--trials", "100"]
    for value, codes in ((spec.lo, (0, 3)), (below, (2,))):
        params = dict(WALK_BASE[experiment])
        params[name] = [value] * max(1, spec.size[0]) if spec.size else value
        for a, b in entry.ordered:
            if b == name:
                params[a] = entry.params[a].lo
        (tmp_path / "c.yaml").write_text(
            yaml.safe_dump({"experiment": experiment, "params": params}))
        assert main(argv) in codes, (name, value)


# ---------------------------------------------------------------------------
# config fuzz


# caps on drawn values, and on the length of list settings, so each example stays
# quick; a (length, value) pair caps both the length and the entries of a list
FUZZ_CAPS = {
    "pnl-sweep": {"n_blocks": 4, "depth_min": 30, "depth_max": 30, "depth_points": 4,
                  "depths": (3, 30)},
    "correlated-errors": {"rate_points": 3},
    "bound-validate": {"rate_points": 3, "lemma_cases": 50, "n_list": 3},
    "allocation-report": {"ell_c_max": 60, "n_p_list": 2},
    "apples": {},
    "wstate-verify": {"max_total_sites": 6, "n_unitaries": 3, "n_random_logical": 2},
}
# the number of CSV rows a run of the drawn params writes
FUZZ_ROWS = {
    # one row per (layout, depth); the geometric grid drops repeated depths
    "pnl-sweep": lambda p: 2 * (len(p["depths"]) or len(
        {max(1, round(v)) for v in np.geomspace(p["depth_min"], p["depth_max"],
                                                p["depth_points"])})),
    "correlated-errors": lambda p: p["rate_points"],
    "bound-validate": lambda p: len(p["n_list"]) * p["rate_points"] + 2,
    "allocation-report": lambda p: sum(max(0, p["ell_c_max"] - n_p) for n_p in p["n_p_list"]),
    "apples": lambda p: 6,
    # two decoder rows per (total sites, erasures), then 11 fixed checks
    "wstate-verify": lambda p: 11 + sum(
        2 * (min(p["max_erasures"], total - 1) + 1) for total in range(2, p["max_total_sites"] + 1)),
}


def _in_range(spec, hi=None):
    hi = spec.hi if hi is None else hi
    if spec.type is int:
        return st.integers(spec.lo, hi)
    return st.floats(spec.lo, hi)


@st.composite
def fuzz_params(draw, experiment):
    entry, caps = REGISTRY[experiment], FUZZ_CAPS[experiment]
    params = {}
    for name, spec in entry.params.items():
        if spec.size:
            length, value = caps[name] if isinstance(caps.get(name), tuple) else (
                caps.get(name), None)
            lo, hi = spec.size[0], min(n for n in (spec.size[1], length) if n is not None)
            entries = _in_range(spec, value)
            if spec.increasing:
                params[name] = sorted(draw(st.lists(entries, min_size=lo, max_size=hi,
                                                    unique=True)))
                continue
            # equal entries are an edge of their own: equal apple bins break even at 0
            params[name] = draw(st.lists(entries, min_size=lo, max_size=hi)
                                | st.builds(lambda v, k: [v] * k, entries, st.integers(lo, hi)))
        else:
            params[name] = draw(_in_range(spec, caps.get(name)))
    for a, b in entry.ordered:
        params[a], params[b] = sorted((params[a], params[b]))
    for a, b in entry.below:  # within the caps, since list entries stay small
        params[b] = max(params[b], min(params[a]) + 1)
    # one setting one step outside its range, below lo or above hi
    name = draw(st.sampled_from(sorted(entry.params)))
    spec = entry.params[name]
    ends = [(spec.lo, -math.inf)] + ([(spec.hi, math.inf)] if spec.hi is not None else [])
    edge, away = draw(st.sampled_from(ends))
    outside = edge + (1 if away > 0 else -1) if spec.type is int else math.nextafter(edge, away)
    if spec.size:  # a list with its first entry outside the range
        outside = [outside] + params[name][1:]
    return params, dict(params, **{name: outside})


@contextlib.contextmanager
def _bounded(seconds: float, memory_bytes: int):
    """Raise TimeoutError in the main thread once `seconds` of wall time pass,
    and MemoryError once the process maps `memory_bytes` more than it does now.

    A hang fails instead of hanging (a deadline alone waits for it to end),
    and one that allocates as it loops, as the mirror builder did for one
    block, cannot exhaust the machine's memory first.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    with open("/proc/self/statm") as f:
        mapped = int(f.read().split()[0]) * resource.getpagesize()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    previous = signal.signal(signal.SIGALRM, expire)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + memory_bytes, limits[1]))
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, limits)
        signal.signal(signal.SIGALRM, previous)


def test_bounds_stop_a_hang():
    with pytest.raises(TimeoutError), _bounded(0.05, 2**30):
        while True:
            pass
    grown = []
    with pytest.raises(MemoryError), _bounded(60.0, 2**28):
        while True:
            grown.append(bytearray(2**20))
    del grown


# the wstate-verify caps; a run of both decoders over every erasure count
# takes about 1 s there
WSTATE_TOP = {"max_total_sites": 18, "max_erasures": 17}


def test_wstate_verify_top_of_both_ranges_runs_bounded(tmp_path, capsys):
    params = REGISTRY["wstate-verify"].params
    assert {name: params[name].hi for name in WSTATE_TOP} == WSTATE_TOP
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": "wstate-verify", "params": WSTATE_TOP}))
    # 3^18 qutrits and 5 ancillas would be 198 GB as dense amplitudes
    with _bounded(10.0, 2**28):
        code = main(["wstate-verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "wstate-verify.csv") as f:
        rows = list(csv.DictReader(f))
    resolved = {name: spec.default for name, spec in params.items()} | WSTATE_TOP
    assert len(rows) == FUZZ_ROWS["wstate-verify"](resolved)
    _assert_cells("wstate-verify", resolved, rows)


@pytest.mark.parametrize("name", sorted(WSTATE_TOP))
def test_wstate_verify_cap_plus_one_is_a_config_error(tmp_path, capsys, name):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": "wstate-verify",
                                    "params": {**WSTATE_TOP, name: WSTATE_TOP[name] + 1}}))
    assert main(["wstate-verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and name in err[0]
    assert not (tmp_path / "wstate-verify.csv").exists()


@pytest.mark.parametrize("experiment", sorted(FUZZ_CAPS))
@settings(max_examples=100, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz(tmp_path, capsys, experiment, data):
    params, bad = data.draw(fuzz_params(experiment))
    entry = REGISTRY[experiment]
    path = tmp_path / "c.yaml"
    argv = [experiment, "--config", str(path), "--out", str(tmp_path)]
    if entry.monte_carlo:
        argv += ["--trials", "100"]
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": params}))
    with _bounded(10.0, 2**30):
        code = main(argv)
    assert code in ((0, 3) if entry.verify else (0,))
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / f"{experiment}.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == FUZZ_ROWS[experiment](params)
    _assert_cells(experiment, params, rows)
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": bad}))
    with _bounded(10.0, 2**30):
        assert main(argv) == 2


# ---------------------------------------------------------------------------
# names the benchmark's tracer patches


def test_every_traced_name_resolves(perfbench_tracer):
    # the tracer looks each name up when it installs, so a renamed or
    # deleted function would break only the benchmark run
    for module, attr in [*perfbench_tracer.SPANS.values(), perfbench_tracer.CHUNK_MAP]:
        assert callable(getattr(importlib.import_module(f"daqec.{module}"), attr)), (module, attr)


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_the_tracer_installs_and_its_observers_read_existing_arguments(perfbench_tracer):
    # the observers read arguments by position or by name, and the chunk-map
    # wrapper calls the map as (fn, tasks, threads); deleting or renaming any of
    # them would break only the traced benchmark run
    from daqec import mixed_radix_sim as mrs
    from daqec import wstate_code as wsc
    # the benchmark's own tests patch these re-bound names in wstate_code
    for name in ("apply_unitary", "measure_sites", "partial_trace", "fidelity"):
        assert getattr(wsc, name) is getattr(mrs, name), name
    original_map = experiments._map_ordered
    with perfbench_tracer.Tracer("guard"):  # looks up every traced name
        assert experiments._map_ordered is not original_map
        assert experiments._map_ordered(lambda x: 2 * x, [1, 2, 3], 2) == [2, 4, 6]
    assert experiments._map_ordered is original_map
    params = _parameters(stn.simulate_frames)
    assert (params[0], params[4]) == ("circuit", "n_trials")
    assert _parameters(stn.steane_failure_probabilities_batch)[0] == "eps_matrix"
    for fn in (mrs.apply_unitary, mrs.measure_sites, mrs.partial_trace, mrs.fidelity):
        assert _parameters(fn)[0] == "state", fn.__name__
    assert _parameters(experiments._map_ordered) == ["fn", "tasks", "threads"]
