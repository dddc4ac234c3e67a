"""Acceptance suite: one test per criterion, printed pass lines included.

Run with `pytest tests/test_acceptance.py -v -s` (or via
`daqec wstate-verify` etc. for the CLI-level checks). Tolerances and
trial counts are pinned here; the Monte Carlo criteria use the default
experiment configs.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from daqec import allocation as alc
from daqec import bounds_analytics as bnd
from daqec import wstate_code as wsc
from daqec.experiments import (
    load_config,
    execute,
    run_bound_validate,
    run_correlated_errors,
    run_pnl_sweep,
)
from daqec.mixed_radix_sim import fidelity, partial_trace

from allocation_oracle import milp_optimal

PSI = np.array([0.6, 0.8j])


def _psi_at(psi, n, site):
    from daqec.mixed_radix_sim import RadixVector, pure_state
    radix = RadixVector((3,) * n)
    amps = np.zeros(radix.total_dim, dtype=complex)
    levels = [wsc.BOT] * n
    for lv in (0, 1):
        levels[site] = lv
        amps[radix.index_of(levels)] = psi[lv]
    return pure_state(radix, amps)


def test_criterion_1_decoder_exactness():
    start = time.perf_counter()
    worst = 0.0
    for total in range(2, 9):
        word = wsc.encode(PSI, total)
        for n_e in range(0, min(3, total - 1) + 1):
            n = total - n_e
            erased = range(n, total)
            expected = n / total
            got_measure = wsc.decode_measure(word, erased).success_probability
            post, _ = wsc.decode_elective(word, 0, erased)
            got_elective = wsc.ensemble_fidelity(post, _psi_at(PSI, n, 0), erased)
            worst = max(worst, abs(got_measure - expected), abs(got_elective - expected))
            assert abs(got_measure - expected) <= 1e-9, (total, n_e, "measure")
            assert abs(got_elective - expected) <= 1e-9, (total, n_e, "elective")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS decoder success = n/(n+n_e) within 1e-9 "
          f"for all n+n_e <= 8, n_e <= 3, both decoders "
          f"(worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_transversality():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 1.0
    for n in (2, 3, 4):
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            f = fidelity(wsc.logical_unitary(wsc.encode(v, n), u),
                         wsc.codeword_vector(u @ v, n))
            worst = min(worst, f)
            assert f >= 1 - 1e-9
    print(f"\n[criterion 2] PASS transversal gates match re-encoding at "
          f"fidelity >= 1-1e-9 over 300 random unitaries "
          f"(worst {worst:.12f}, {time.perf_counter()-start:.1f}s)")


def test_criterion_3_w_preparation():
    start = time.perf_counter()
    worst = 1.0
    for n in (2, 4, 8):
        for d in (2, 3):
            f = fidelity(wsc.prepare_w(n, d), wsc.w_state_vector(n, d))
            worst = min(worst, f)
            assert f >= 1 - 1e-10, (n, d)
    for d in (2, 3):
        # scale_w's doubling stage, before its ancilla is dropped
        joint = wsc._doubling_stage(wsc.prepare_w2(d), 0, wsc.controlled_level_not(0, d))
        anc = partial_trace(joint, [joint.n_sites - 1])
        assert float(np.abs(anc - np.array([[1, 0], [0, 0]])).max()) <= 1e-9
    print(f"\n[criterion 3] PASS W preparation matches the direct vectors at "
          f"fidelity >= 1-1e-10 for n in {{2,4,8}}, d in {{2,3}}; scaling "
          f"ancilla ends in |0> within 1e-9 (worst {worst:.12f}, "
          f"{time.perf_counter()-start:.1f}s)")


@pytest.fixture(scope="module")
def pnl_rows():
    cfg = load_config("pnl-sweep")
    assert cfg.trials == 100000
    assert cfg.params["p_remote"] == 2e-3 and cfg.params["p_local"] == 2e-4
    start = time.perf_counter()
    rows, _, summary, _ = run_pnl_sweep(cfg)
    return rows, summary, time.perf_counter() - start


def test_criterion_4_circuit_level_crossover(pnl_rows):
    rows, summary, elapsed = pnl_rows
    assert elapsed < 600.0
    by = {(r["scheme"], r["depth"]): r for r in rows}
    depths = sorted({r["depth"] for r in rows})
    assert depths[0] == 2
    lq2, dq2 = by[("lqec", 2)], by[("dqec", 2)]
    assert lq2["success_rate"] >= dq2["success_rate"]
    d_star = summary["crossover_depth"]
    assert d_star is not None
    for d in depths:
        if d >= 2 * d_star:
            lq, dq = by[("lqec", d)], by[("dqec", d)]
            assert dq["success_rate"] - dq["success_ci95"] > \
                lq["success_rate"] + lq["success_ci95"], d
    print(f"\n[criterion 4] PASS circuit-level crossover at depth {d_star}: "
          f"distributed beats local with non-overlapping 95% CIs at every "
          f"tested depth >= {2*d_star}; local wins at depth 2 "
          f"({elapsed:.0f}s, 1e5 trials/point)")


def test_criterion_5_correlated_error_advantage():
    cfg = load_config("correlated-errors")  # std = 0.5 * mean
    start = time.perf_counter()
    rows, _, _, _ = run_correlated_errors(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    assert cfg.params["std_factor"] == 0.5
    advantages = []
    for r in rows:
        adv, ci = r["relative_advantage"], r["relative_advantage_ci95"]
        advantages.append(adv)
        assert 0.08 <= adv <= 0.25, (r["mean_rate"], adv)
        assert ci < 0.02, (r["mean_rate"], ci)
    print(f"\n[criterion 5] PASS distributed blocks reduce the logical error "
          f"rate by {min(advantages):.1%}..{max(advantages):.1%} across the "
          f"mean-rate grid (band [8%,25%], CI half-widths < 2%, {elapsed:.0f}s)")


def test_criterion_6_advantage_bound_validation():
    cfg = load_config("bound-validate")  # n in {3,7,20}, 1e4 profiles/point
    start = time.perf_counter()
    rows, _, _, ok = run_bound_validate(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert cfg.params["n_list"] == [3, 7, 20]
    assert cfg.params["rate_clip_max"] == 0.1
    for r in rows:
        if r["kind"] == "sweep":
            assert r["trials"] == 10000
            assert r["frac_meeting_exact_bound"] >= 0.999, r
            if r["mean_rate"] <= 0.01:
                # ratio against the exact bound n*(1-eps_local)*sigma^2/2;
                # the nsigma^2/2 form sits below by the (1-eps_local) factor
                assert 1.0 <= r["median_ratio_exact"] <= 1.5, r
        else:
            assert r["violations"] == 0, r
    assert ok
    print(f"\n[criterion 6] PASS advantage >= n(1-eps_local)sigma^2/2 on "
          f">=99.9% of profiles for n in {{3,7,20}}; median ratio to the "
          f"bound in [1.0,1.5] at mean rates <= 0.01; zero lemma violations "
          f"over 1e4 cases each ({elapsed:.0f}s)")


def test_criterion_7_nonlocality_consistency():
    start = time.perf_counter()
    checked = 0
    for n_p in (2, 3, 4):
        for ell in range(n_p + 1, 26):
            params = alc.AllocationParams(ell, n_p)
            if not params.formula_valid:
                continue
            count = alc.eta_count(alc.even_partition_allocation(params))
            assert alc.nonlocal_count_formula(params) == count, (ell, n_p)
            checked += 1
    for n_p in (2, 3):
        for ell in range(n_p + 1, 10):
            params = alc.AllocationParams(ell, n_p)
            constructed = alc.eta_count(alc.even_partition_allocation(params))
            optimal, _ = alc.brute_force_optimal(ell, n_p)
            assert optimal == constructed, (ell, n_p)
    # past the DP's reach, the integer program over row counts is the optimum
    optimal_checked = 0
    for n_p in (2, 3, 4):
        for ell in [*range(n_p + 1, 26), 50, 77, 100, 128, 200, 333, 500, 750, 999, 1000]:
            params = alc.AllocationParams(ell, n_p)
            constructed = alc.eta_count(alc.even_partition_allocation(params))
            assert milp_optimal(ell, n_p)[0] == constructed, (ell, n_p)
            optimal_checked += 1
    params = alc.AllocationParams(7, 3)
    count = alc.eta_count(alc.even_partition_allocation(params))
    assert (params.total_pairwise_gates, count) == (21, 3)
    eta, valid = alc.eta_formula(params)
    assert valid and abs(eta - 1 / 7) < 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[criterion 7] PASS closed-form nonlocality equals the direct "
          f"count on {checked} valid instances (ell_c <= 25); brute force "
          f"confirms the even partition up to ell_c = 9, and an integer "
          f"program on {optimal_checked} instances with n_p <= 4 and "
          f"ell_c <= 1000; the (7,3) case "
          f"gives 21 -> 3 nonlocal gates ({elapsed:.1f}s)")


def test_criterion_8_barrel_analysis():
    start = time.perf_counter()
    bins = [0.6, 0.2, 0.05]
    matrix, success, _ = bnd.optimal_packing_bruteforce(bins)
    assert np.array_equal(matrix, np.ones((3, 3), dtype=int))
    one_per_bin = (1 - bnd.barrel_ruin_two_or_more(bins)) ** 3
    assert abs(success - one_per_bin) < 1e-12
    closed = bnd.contamination_cutoff_exact(bins)
    oracle = bnd.contamination_cutoff_exact_oracle(bins)
    assert abs(closed - 0.073) <= 0.005
    assert abs(closed - oracle) < 1e-10
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(300):
        size = int(rng.integers(2, 5))
        p = rng.uniform(0.0, 0.95, size)
        worst = max(worst, abs(bnd.barrel_ruin_two_or_more(p)
                               - bnd.enumerate_ruin(p)))
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 8] PASS one-per-bin packing optimal for bins "
          f"(.6,.2,.05); contamination cutoff {closed:.4f} within 0.073+-0.005 "
          f"and matching the root-solve oracle; closed forms within 1e-12 of "
          f"enumeration ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for threads in (1, 3):
        for rep in range(2):
            cfg = load_config("correlated-errors")
            cfg.trials = 300
            cfg.threads = threads
            cfg.out = str(tmp_path / f"corr_t{threads}_r{rep}")
            assert execute(cfg) == 0
            outputs.append(
                (tmp_path / f"corr_t{threads}_r{rep}" / "correlated-errors.csv").read_bytes())
    assert len(set(outputs)) == 1
    outputs = []
    for threads, rep in ((1, 0), (2, 0), (3, 0), (1, 1)):
        cfg = load_config("pnl-sweep")
        cfg.trials = 640
        cfg.chunk_size = 128  # five chunks per point, so that the threads share them
        cfg.threads = threads
        # 30 is past two whole segments of 12 layers, so the compile folds one
        cfg.params["depths"] = [2, 10, 30]
        cfg.out = str(tmp_path / f"pnl_t{threads}_r{rep}")
        assert execute(cfg) == 0
        outputs.append((tmp_path / f"pnl_t{threads}_r{rep}" / "pnl-sweep.csv").read_bytes())
    assert len(set(outputs)) == 1
    print(f"\n[criterion 9] PASS reruns with identical config and seed are "
          f"byte-identical at thread counts 1, 2 and 3 "
          f"({time.perf_counter()-start:.1f}s)")


# SHA-256 of the CSV of each shipped config. A change that moves one of them
# changes the experiment's output and must say so, with a new RNG scheme if
# the draws changed.
GOLDEN_CSV = {
    "pnl-sweep": "95856e1ebbdb6b725bd0b9628f805128b5fb11d2004da5b8610205dcb98312f7",
    "correlated-errors": "4d55b4a1913c5c365ffdf9c94a35ca45bea9de85c2d45d0514ad5c4d0c711834",
    "bound-validate": "23ae7c5d3d60eafe7fd7c9d031013f1084338762e360667e65fda20e9323bf10",
    "wstate-verify": "4df449447226bddac885983ecff12133b89ade84829856b86932c97f8a3b418f",
    "allocation-report": "2863f4cf98a5251d66d9b6128037c7f04a8d6daa1f4a32e7c4163ba7b2cc881f",
    "apples": "a063224e2fc0520d48a345536791bd3c7cdb9ce30c2f8d35bed9b54b16dc6eca",
}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("experiment, threads", [*((e, None) for e in GOLDEN_CSV),
                                                 ("pnl-sweep", 1), ("pnl-sweep", 3)])
def test_shipped_configs_reproduce_their_golden_csvs(experiment, threads, tmp_path):
    # threads None keeps the config's own count
    cfg = load_config(experiment, path=str(CONFIGS / f"{experiment}.yaml"),
                      overrides={"out": str(tmp_path), "threads": threads})
    assert execute(cfg) == 0
    digest = hashlib.sha256((tmp_path / f"{experiment}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV[experiment]
