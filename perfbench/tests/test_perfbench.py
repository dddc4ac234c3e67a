"""Tests of the benchmark itself: workloads, span arithmetic and the tracer.

Run from the root of the checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def in_root(monkeypatch, tmp_path):
    """Run from the checkout root, with benchmark outputs in a temp dir."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path / "out")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_tiny_and_its_checks_pass(in_root, workload):
    result = run.measure(workload, seed=7, seconds=0, trace=False, tiny=True)
    assert result["samples"] == run.MIN_REPS
    assert result["attempted"] > 0
    assert [name for name, ok in result["checks"] if not ok] == []
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())
    prov = result["provenance"]
    assert prov["seed"] == 7 and prov["threads"] and prov["numpy_blas"]
    assert set(prov["csv_sha256"]) == set(WORKLOADS[workload].experiments)


# where each workload's self time should concentrate
HEAVIEST = {
    "circuit-mc": ("stabilizer_steane.simulate_frames.busy_s",),
    "code-capacity": ("stabilizer_steane.failure_batch.busy_s",),
    "exact-checks": ("mixed_radix_sim.self_s", "wstate_code.self_s"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(in_root, workload):
    result = run.measure(workload, seed=7, seconds=0, trace=True, tiny=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert [name for name, ok in result["checks"] if not ok] == []
    m = result["metrics"]
    heavy_layers = {key.split(".")[0] for key in HEAVIEST[workload]}
    heaviest = sum(m[key] for key in HEAVIEST[workload])
    assert heaviest > max(m[f"{layer}.self_s"] for layer in tr.MODULES
                          if layer not in heavy_layers)
    if workload != "exact-checks":
        (layer,) = heavy_layers
        assert heaviest > 0.5 * m[f"{layer}.self_s"]
        assert m["trace.library_cover_frac"] >= 0.9


def test_declared_metrics_match_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert m["unit"] == tr.unit_of(m["name"]), m


def _write_pnl(out: Path, shift: float, d_star):
    """A pnl-sweep output at 16,384 trials whose rates are the reference's, the
    distributed ones moved down by `shift`."""
    import csv
    import math
    ref = json.loads(workloads.PNL_REFERENCE.read_text())["rows"]
    n = 16384
    out.mkdir()
    with (out / "pnl-sweep.csv").open("w", newline="") as f:
        w = csv.DictWriter(f, ["scheme", "depth", "trials", "success_rate", "success_ci95",
                               "fidelity"])
        w.writeheader()
        for r in ref:
            dq = shift if r["scheme"] == "dqec" else 0.0
            ok = 1.0 - r["failures"] / r["trials"] - dq
            w.writerow({"scheme": r["scheme"], "depth": r["depth"], "trials": n,
                        "success_rate": ok, "success_ci95": 1.96 * math.sqrt(ok * (1 - ok) / n),
                        "fidelity": 1.0 - r["xflip_failures"] / r["trials"] - dq})
    (out / "pnl-sweep_summary.json").write_text(
        json.dumps({"results": {"crossover_depth": d_star}}))


def test_circuit_mc_check_judges_rates_against_the_reference(tmp_path):
    _write_pnl(tmp_path / "right", 0.0, 78)
    assert [n for n, ok in workloads.check_circuit_mc(tmp_path / "right", ()) if not ok] == []
    # a 2% loss on the distributed layout keeps a crossover, but not the rates
    _write_pnl(tmp_path / "wrong", 0.02, 78)
    failed = [n for n, ok in workloads.check_circuit_mc(tmp_path / "wrong", ()) if not ok]
    assert failed and all(n.startswith("dqec") for n in failed)
    # a d* far from the reference's fails, whatever the program reports
    _write_pnl(tmp_path / "early", 0.0, 10)
    failed = [n for n, ok in workloads.check_circuit_mc(tmp_path / "early", ()) if not ok]
    assert len(failed) == 1 and "crossover_depth within" in failed[0]


# ---------------------------------------------------------------------------
# span arithmetic


def test_union_length_merges_overlaps_and_clips():
    assert tr.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tr.union_length([(0, 10)], 2, 4) == pytest.approx(2.0)
    assert tr.union_length([]) == 0.0


def test_self_time_subtracts_union_of_parallel_children():
    # a run span [0, 10] with two chunk spans running in parallel on two
    # threads, [1, 6] and [2, 8], each with a child of its own
    spans = [
        (1, "experiments.run_experiment", 0.0, 10.0, None, "r"),
        (2, "experiments.chunk", 1.0, 6.0, 1, "r"),
        (3, "experiments.chunk", 2.0, 8.0, 1, "r"),
        (4, "stabilizer_steane.simulate_frames", 1.5, 5.0, 2, "r"),
        (5, "stabilizer_steane.simulate_frames", 2.0, 7.0, 3, "r"),
        (6, "stabilizer_steane.build_ghz_mirror", 9.0, 9.5, 1, "r"),
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (7.0 + 0.5))   # union [1,8] and [9,9.5]
    assert selfs[2] == pytest.approx(5.0 - 3.5)
    assert selfs[3] == pytest.approx(6.0 - 5.0)
    assert selfs[4] == pytest.approx(3.5)
    assert selfs[6] == pytest.approx(0.5)


def test_group_busy_counts_nested_calls_once():
    spans = [
        (1, "bounds_analytics.optimal_packing_bruteforce", 0.0, 4.0, None, "r"),
        (2, "bounds_analytics.barrel_ruin_two_or_more", 1.0, 2.0, 1, "r"),
        (3, "bounds_analytics.barrel_ruin_two_or_more", 5.0, 6.0, None, "r"),
    ]
    m = tr.layer_metrics(spans, {}, 1.0, 1.0)
    assert m["bounds_analytics.packing.busy_s"] == pytest.approx(5.0)
    assert m["bounds_analytics.self_s"] == pytest.approx(3.0 + 1.0 + 1.0)


# ---------------------------------------------------------------------------
# the tracer


def _bindings():
    modules = [importlib.import_module(f"daqec.{m}") for m in tr.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_patches_rebound_names_and_restores_everything():
    before = _bindings()
    from daqec import experiments, wstate_code
    with tr.Tracer("t"):
        for name in ("apply_unitary", "measure_sites", "partial_trace", "fidelity"):
            assert getattr(wstate_code, name) is not before[("daqec.wstate_code", name)]
        assert experiments.fidelity is not before[("daqec.experiments", "fidelity")]
        assert experiments._map_ordered is not before[("daqec.experiments", "_map_ordered")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_chunk_spans_on_worker_threads_are_parented_to_run_experiment():
    from daqec import experiments
    cfg = experiments.load_config("pnl-sweep", overrides={"trials": 512, "threads": 2})
    cfg.chunk_size = 128
    cfg.params["depths"] = [2, 4]
    with tr.Tracer("t") as t:
        experiments.run_experiment(cfg)  # looked up after install, so traced
    by_id = {s[0]: s for s in t.spans}
    (run_span,) = [s for s in t.spans if s[1] == "experiments.run_experiment"]
    chunks = [s for s in t.spans if s[1] == tr.CHUNK_SPAN]
    assert len(chunks) == 2 * 2 * 4   # schemes x depths x chunks
    assert all(s[4] == run_span[0] for s in chunks)
    for s in t.spans:
        if s[1] == "stabilizer_steane.simulate_frames":
            assert by_id[by_id[s[4]][4]][1] == tr.CHUNK_SPAN
    assert t.counters["experiments.chunks"] == len(chunks)
    assert t.counters["stabilizer_steane.simulate_frames.gate_trials"] > 0
