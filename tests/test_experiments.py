import csv
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from daqec.cli import main
from daqec.experiments import (
    REGISTRY,
    ConfigError,
    binomial_ci95,
    chunk_plan,
    execute,
    load_config,
    point_rng,
    resolved_config,
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
    echo = resolved_config(cfg)
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
    assert cfg.master_seed == 9
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
    assert execute(_tiny_corr_cfg(out_dir=str(out1))) == 0
    assert execute(_tiny_corr_cfg(out_dir=str(out2))) == 0
    assert (out1 / "correlated-errors.csv").read_bytes() == \
        (out2 / "correlated-errors.csv").read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    execute(_tiny_corr_cfg(out_dir=str(out1), threads=1))
    execute(_tiny_corr_cfg(out_dir=str(out2), threads=4))
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
    cfg.out_dir = str(tmp_path)
    rows, cols, summary, ok = run_pnl_sweep(cfg)
    assert len(rows) == 4  # two schemes x two depths
    schemes = {r["scheme"] for r in rows}
    assert schemes == {"lqec", "dqec"}


def test_cli_runs_apples(tmp_path):
    assert main(["apples", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "apples.csv").read_text()
    assert csv.splitlines()[0].startswith("experiment,check,value")
    summary = json.loads((tmp_path / "apples_summary.json").read_text())
    assert summary["ok"] is True
    assert summary["config"]["params"]["bin_probs"] == [0.6, 0.2, 0.05]


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


def test_cli_verify_failure_exit_code(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: apples\nparams:\n  cutoff_anchor: 0.5\n  cutoff_tolerance: 0.001\n")
    assert main(["apples", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    # in range, but no instance has ell_c > n_p, so nothing was checked
    cfg.write_text("experiment: allocation-report\nparams:\n  ell_c_max: 3\n  n_p_list: [4]\n")
    assert main(["allocation-report", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_cli_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["correlated-errors", "--trials", "300", "--seed", "1", "--out", str(out1)])
    main(["correlated-errors", "--trials", "300", "--seed", "2", "--out", str(out2)])
    assert (out1 / "correlated-errors.csv").read_bytes() != \
        (out2 / "correlated-errors.csv").read_bytes()


def test_shipped_configs_parse_and_match_defaults():
    import pathlib
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
    assert "version" in summary


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
    ("apples", {"bin_probs": []}),
    ("apples", {"bin_probs": [0.5]}),
    ("wstate-verify", {"max_total_sites": 12}),
    ("wstate-verify", {"n_unitaries": -5}),
    ("wstate-verify", {"n_random_logical": 0}),
    ("bound-validate", {"n_list": [], "lemma_cases": -1}),
]


@pytest.mark.parametrize(
    "experiment,params", OUT_OF_RANGE,
    ids=[e + "-" + "-".join(f"{k}={v}" for k, v in p.items()) for e, p in OUT_OF_RANGE])
def test_cli_rejects_params_out_of_range(tmp_path, capsys, experiment, params):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": params}))
    with pytest.raises(ConfigError):  # so no circuit or state is ever built
        load_config(path=str(path))
    assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


# the cells of each experiment's CSV that hold text, and those left blank in a
# given row; every other cell must parse as a finite number, so a dropped or
# blank numeric column fails
CSV_TEXT = {
    "correlated-errors": {"experiment"},
    "apples": {"experiment", "check", "pass"},
    "allocation-report": {"experiment", "formula_valid", "pass"},
    "bound-validate": {"experiment", "kind"},
}
_SWEEP_ONLY = {"n", "mean_rate", "mean_difference", "mean_bound_exact", "mean_bound_approx",
               "frac_meeting_exact_bound", "median_ratio_exact", "median_ratio_approx"}
CSV_BLANK = {
    "correlated-errors": lambda row, p: set(),
    "apples": lambda row, p: set(),
    # brute force runs only up to brute_force_ell_max and n_p = 3
    "allocation-report": lambda row, p: (
        set() if int(row["ell_c"]) <= p["brute_force_ell_max"] and int(row["n_p"]) <= 3
        else {"brute_force_min"}),
    "bound-validate": lambda row, p: set() if row["kind"] == "sweep" else _SWEEP_ONLY,
}


def _assert_cells(experiment, params, rows):
    params = {name: spec.default for name, spec in REGISTRY[experiment].params.items()} | params
    for row in rows:
        blank = CSV_BLANK[experiment](row, params)
        for key, value in row.items():
            if key in blank:
                assert value == "", (key, value)
            elif key in CSV_TEXT[experiment]:
                assert value, key
            else:
                assert math.isfinite(float(value)), (key, value)


# in range, and each crashed with a raw traceback or wrote a non-finite value;
# the anchor is set to each cutoff, so a run whose checks hold exits 0
IN_RANGE_EDGES = [
    # break-even exactly at p_c = 0
    pytest.param("apples", {"bin_probs": [0.6] * 4, "cutoff_anchor": 0.0}, 0, id="apples-0"),
    pytest.param("apples", {"bin_probs": [0.99] * 4, "cutoff_anchor": 0.0}, 0, id="apples-1"),
    # P(0) + P(1) of the mixed barrel is 9.3e-18, lost when taken as 1 - ruin; every
    # packing's success is 0.0, so optimal_packing_bruteforce keeps the first one
    # and the optimal-odds-spread check fails (a FOUND line in CHANGES.md)
    pytest.param("apples", {"bin_probs": [0.896, 1 - 2**-53, 0.596, 1 - 2**-53],
                            "cutoff_anchor": 0.941}, 0, id="apples-2",
                 marks=pytest.mark.xfail(strict=True, reason="tie among zero-success packings")),
    # a processor at rate 1 zeroes the exact bound of its profile
    pytest.param("bound-validate", {"n_list": [3], "rate_points": 2, "mean_rate_min": 0.5,
                                    "mean_rate_max": 1.0, "std_factor": 1.0,
                                    "rate_clip_max": 1.0, "lemma_cases": 20},
                 0, id="bound-validate-3"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment,params,code", IN_RANGE_EDGES)
def test_cli_in_range_edge_cases_run(tmp_path, capsys, experiment, params, code):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": params}))
    trials = "1000" if REGISTRY[experiment].monte_carlo else "0"
    exit_code = main([experiment, "--config", str(path), "--out", str(tmp_path),
                      "--trials", trials])
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / f"{experiment}.csv") as f:
        _assert_cells(experiment, params, list(csv.DictReader(f)))
    assert exit_code == code


# small settings for the other parameters, so that the walk stays quick
WALK_BASE = {
    "pnl-sweep": {"depth_max": 8, "depth_points": 2},
    "correlated-errors": {"rate_points": 1},
    "bound-validate": {"n_list": [3], "rate_points": 1, "lemma_cases": 20},
    "wstate-verify": {"max_total_sites": 3, "n_unitaries": 3, "n_random_logical": 1},
    "allocation-report": {"ell_c_max": 5, "brute_force_ell_max": 5},
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


# caps on drawn values, and on the length of list settings, so each example stays quick
FUZZ_CAPS = {
    "correlated-errors": {"rate_points": 3},
    "bound-validate": {"rate_points": 3, "lemma_cases": 50, "n_list": 3},
    "allocation-report": {"ell_c_max": 60, "n_p_list": 2},
    "apples": {},
}
# the number of CSV rows a run of the drawn params writes
FUZZ_ROWS = {
    "correlated-errors": lambda p: p["rate_points"],
    "bound-validate": lambda p: len(p["n_list"]) * p["rate_points"] + 2,
    "allocation-report": lambda p: sum(max(0, p["ell_c_max"] - n_p) for n_p in p["n_p_list"]),
    "apples": lambda p: 6,
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
            lo, hi = spec.size[0], spec.size[1] or caps[name]
            entries = _in_range(spec)
            # equal entries are an edge of their own: equal apple bins break even at 0
            params[name] = draw(st.lists(entries, min_size=lo, max_size=hi)
                                | st.builds(lambda v, k: [v] * k, entries, st.integers(lo, hi)))
        else:
            params[name] = draw(_in_range(spec, caps.get(name)))
    for a, b in entry.ordered:
        params[a], params[b] = sorted((params[a], params[b]))
    # one setting one step outside its range, below lo or above hi
    name = draw(st.sampled_from(sorted(entry.params)))
    spec = entry.params[name]
    ends = [(spec.lo, -math.inf)] + ([(spec.hi, math.inf)] if spec.hi is not None else [])
    edge, away = draw(st.sampled_from(ends))
    outside = edge + (1 if away > 0 else -1) if spec.type is int else math.nextafter(edge, away)
    if spec.size:  # a list with its first entry outside the range
        outside = [outside] + params[name][1:]
    return params, dict(params, **{name: outside})


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
    assert main(argv) in ((0, 3) if entry.verify else (0,))
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / f"{experiment}.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == FUZZ_ROWS[experiment](params)
    _assert_cells(experiment, params, rows)
    path.write_text(yaml.safe_dump({"experiment": experiment, "params": bad}))
    assert main(argv) == 2
