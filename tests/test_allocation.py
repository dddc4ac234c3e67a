from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daqec.allocation import (
    BRUTE_FORCE_ELL_MAX,
    BRUTE_FORCE_N_P_MAX,
    AllocationParams,
    advantage_threshold_basic,
    advantage_threshold_general,
    brute_force_optimal,
    eta_bound,
    eta_count,
    eta_formula,
    even_partition_allocation,
    nonlocal_count_formula,
)

from allocation_oracle import milp_optimal


# ---------------------------------------------------------------------------
# derived parameters


def test_params_clean_division():
    p = AllocationParams(6, 3)
    assert (p.q, p.s, p.k, p.t) == (2, 0, 0, 0)
    assert p.formula_valid


def test_params_seven_three():
    p = AllocationParams(7, 3)
    assert (p.q, p.s, p.k, p.t) == (2, 1, 3, 0)
    assert p.total_pairwise_gates == 21


def test_params_five_three_partition_identity():
    p = AllocationParams(5, 3)
    assert (p.q, p.s, p.k, p.t) == (1, 2, 1, 1)
    assert p.n_p == p.k * p.s + p.t
    # the printed variant n_p mod k disagrees here and is kept auditable
    assert p.t_printed_variant == 0
    assert p.formula_valid  # s mod t == 0


def test_params_validation():
    with pytest.raises(ValueError):
        AllocationParams(0, 3)


# ---------------------------------------------------------------------------
# even partition and counting


def test_even_partition_clean_case_all_local():
    assert eta_count(even_partition_allocation(AllocationParams(6, 3))) == 0


def test_even_partition_seven_three_case():
    p = AllocationParams(7, 3)
    assert (p.total_pairwise_gates, eta_count(even_partition_allocation(p))) == (21, 3)


def test_even_partition_five_three_case():
    p = AllocationParams(5, 3)
    assert (p.total_pairwise_gates, eta_count(even_partition_allocation(p))) == (15, 4)


def test_even_partition_respects_capacity():
    for ell in range(4, 26):
        for n_p in (2, 3, 4):
            if ell <= n_p:
                continue
            alloc = even_partition_allocation(AllocationParams(ell, n_p))
            assert alloc.shape == (n_p, ell) and alloc.dtype == np.int64
            assert np.bincount(alloc.ravel(), minlength=n_p).max() <= ell


def test_eta_count_single_processor_zero():
    # one block on one processor: no block pairs, so no gates at all
    assert eta_count(np.zeros((1, 4), dtype=np.int64)) == 0


def test_eta_count_slice_per_processor_zero():
    alloc = np.tile(np.arange(3), (3, 1))  # slice j whole on processor j
    assert eta_count(alloc) == 0


def test_eta_count_split_slice():
    # slice 0 whole on processor 0; slices 1 and 2 each split (2,1) between
    # processors 1 and 2, each contributing 2 nonlocal of 3; every load is 3
    alloc = np.array([[0, 1, 2], [0, 1, 2], [0, 2, 1]])
    assert eta_count(alloc) == 4


@pytest.mark.parametrize("row,col,proc", [
    (0, 0, 3),   # an id equal to n_p
    (0, 0, -1),  # a negative id
    (2, 2, 0),   # a qubit moved from processor 1 leaves processor 0 holding ell_c + 1
])
def test_eta_count_rejects_bad_ids_and_overfull_processors(row, col, proc):
    alloc = even_partition_allocation(AllocationParams(6, 3))  # rows [0, 0, 1, 1, 2, 2]
    alloc[row, col] = proc
    with pytest.raises(ValueError):
        eta_count(alloc)


# ---------------------------------------------------------------------------
# closed form, bound, thresholds


def test_eta_formula_seven_three():
    eta, valid = eta_formula(AllocationParams(7, 3))
    assert valid and abs(eta - 1 / 7) < 1e-15


def test_eta_formula_trivial_when_clean():
    eta, valid = eta_formula(AllocationParams(4, 2))
    assert valid and eta == 0.0


def test_eta_formula_five_three():
    eta, valid = eta_formula(AllocationParams(5, 3))
    assert valid and abs(eta - 4 / 15) < 1e-15


def test_eta_bound_values():
    assert abs(eta_bound(AllocationParams(7, 3)) - 1 / 7) < 1e-15  # saturated
    assert abs(eta_bound(AllocationParams(5, 3)) - 2 / 5) < 1e-15
    assert eta_bound(AllocationParams(6, 3)) == 0.0


def test_threshold_basic_values():
    assert advantage_threshold_basic(7, 10, 0.0) == 70
    assert advantage_threshold_basic(3, 7, 1 / 7) == 25  # ceil(21 / (6/7))
    assert advantage_threshold_basic(3, 0, 0.2) == 0
    with pytest.raises(ValueError):
        advantage_threshold_basic(3, 7, 1.0)


def test_threshold_general_seven_three():
    value, valid = advantage_threshold_general(AllocationParams(7, 3), 7)
    assert valid and value == 21


def test_threshold_general_reduces_to_basic_at_q_le_1():
    # q <= 1 zeroes the inner correction, recovering the basic threshold
    p = AllocationParams(5, 3)
    eta, _ = eta_formula(p)
    value, _ = advantage_threshold_general(p, 6)
    assert value == advantage_threshold_basic(3, 6, eta)


def test_threshold_general_flags_large_np():
    _, valid = advantage_threshold_general(AllocationParams(11, 5), 3)
    assert not valid


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_seven_three():
    best, alloc = brute_force_optimal(7, 3)
    assert best == 3
    assert eta_count(alloc) == 3


def test_brute_force_six_three():
    best, _ = brute_force_optimal(6, 3)
    assert best == 0


def test_brute_force_five_three():
    best, _ = brute_force_optimal(5, 3)
    assert best == 4


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_optimal(BRUTE_FORCE_ELL_MAX + 1, 3)
    with pytest.raises(ValueError):
        brute_force_optimal(5, BRUTE_FORCE_N_P_MAX + 1)


def enumerated_optimum(ell_c: int, n_p: int) -> int:
    """The least nonlocal count over every multiset of ell_c occupation rows
    that keeps each of the n_p processors within capacity ell_c."""
    rows = [r for r in product(range(n_p + 1), repeat=n_p) if sum(r) == n_p]
    pair_total = n_p * (n_p - 1) // 2
    best = None
    for combo in combinations_with_replacement(rows, ell_c):
        loads = [sum(r[p] for r in combo) for p in range(n_p)]
        if max(loads) > ell_c:
            continue
        cost = sum(pair_total - sum(m * (m - 1) // 2 for m in r) for r in combo)
        if best is None or cost < best:
            best = cost
    return best


def test_brute_force_matches_enumeration():
    for n_p in (2, 3):
        for ell in range(n_p + 1, 10):
            best, witness = brute_force_optimal(ell, n_p)
            assert best == enumerated_optimum(ell, n_p), (ell, n_p)
            assert witness.shape == (n_p, ell)
            assert eta_count(witness) == best


def test_brute_force_confirms_even_partition():
    for n_p in (2, 3):
        for ell in range(n_p + 1, 10):
            p = AllocationParams(ell, n_p)
            constructed = eta_count(even_partition_allocation(p))
            optimal, _ = brute_force_optimal(ell, n_p)
            assert optimal == constructed


def test_milp_optimum_equals_the_dp_wherever_the_dp_runs():
    # milp_optimal also checks that its witness has its count by eta_count
    for n_p in range(1, BRUTE_FORCE_N_P_MAX + 1):
        for ell in range(1, BRUTE_FORCE_ELL_MAX + 1):
            best, witness = milp_optimal(ell, n_p)
            assert best == brute_force_optimal(ell, n_p)[0], (ell, n_p)
            assert witness.shape == (n_p, ell)


# ---------------------------------------------------------------------------
# consistency sweeps


def test_formula_equals_count_on_valid_instances():
    for n_p in (2, 3, 4):
        for ell in range(n_p + 1, 26):
            p = AllocationParams(ell, n_p)
            if not p.formula_valid:
                continue
            count = eta_count(even_partition_allocation(p))
            assert nonlocal_count_formula(p) == count
            eta, valid = eta_formula(p)
            assert valid
            assert Fraction(count, p.total_pairwise_gates) == Fraction(eta).limit_denominator(10**6)


def test_formula_below_bound():
    for n_p in (2, 3, 4):
        for ell in range(n_p + 1, 26):
            p = AllocationParams(ell, n_p)
            eta, valid = eta_formula(p)
            if valid:
                assert eta <= eta_bound(p) + 1e-15


def count_remote_pairs(alloc: np.ndarray, block_a: int, block_b: int) -> int:
    """Nonlocal gates of one transversal block pair under this allocation."""
    return sum(1 for j in range(alloc.shape[1]) if alloc[block_a, j] != alloc[block_b, j])


def all_remote_pairs(alloc: np.ndarray) -> int:
    n_p = alloc.shape[0]
    return sum(count_remote_pairs(alloc, a, b) for a in range(n_p) for b in range(a + 1, n_p))


def test_count_remote_pairs_matches_eta_count():
    alloc = even_partition_allocation(AllocationParams(7, 3))
    assert all_remote_pairs(alloc) == eta_count(alloc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eta_count_matches_per_pair_oracle_on_any_full_allocation(data):
    n_p = data.draw(st.integers(2, 4))
    ell_c = data.draw(st.integers(n_p + 1, 12))
    sites = data.draw(st.permutations(np.repeat(np.arange(n_p), ell_c).tolist()))
    alloc = np.array(sites, dtype=np.int64).reshape(n_p, ell_c)
    assert eta_count(alloc) == all_remote_pairs(alloc)


def test_even_partition_five_three_layout():
    # q = 1 whole slice per processor; each of the s = 2 remainder slices
    # (indices 3 and 4) is cut into k = 1 group of 2 blocks and one of t = 1
    alloc = even_partition_allocation(AllocationParams(5, 3))
    assert np.array_equal(alloc, [[0, 1, 2, 0, 2], [0, 1, 2, 0, 2], [0, 1, 2, 1, 1]])
