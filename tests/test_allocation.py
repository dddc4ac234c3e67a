from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from daqec.allocation import (
    Allocation,
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


# ---------------------------------------------------------------------------
# derived parameters


def test_params_clean_division():
    p = AllocationParams(6, 3, 3)
    assert (p.q, p.s, p.k, p.t) == (2, 0, 0, 0)
    assert p.formula_valid


def test_params_seven_three():
    p = AllocationParams(7, 3, 3)
    assert (p.q, p.s, p.k, p.t) == (2, 1, 3, 0)
    assert p.total_pairwise_gates == 21


def test_params_five_three_partition_identity():
    p = AllocationParams(5, 3, 3)
    assert (p.q, p.s, p.k, p.t) == (1, 2, 1, 1)
    assert p.n_p == p.k * p.s + p.t
    # the printed variant n_p mod k disagrees here and is kept auditable
    assert p.t_printed_variant == 0
    assert p.formula_valid  # s mod t == 0


def test_params_validation():
    with pytest.raises(ValueError):
        AllocationParams(0, 3, 3)


# ---------------------------------------------------------------------------
# even partition and counting


def test_even_partition_clean_case_all_local():
    p = AllocationParams(6, 3, 3)
    report = eta_count(even_partition_allocation(p), 6, 3)
    assert report.nonlocal_gates == 0
    assert report.eta == 0.0


def test_even_partition_seven_three_case():
    p = AllocationParams(7, 3, 3)
    report = eta_count(even_partition_allocation(p), 7, 3)
    assert report.total_pairwise_gates == 21
    assert report.nonlocal_gates == 3


def test_even_partition_five_three_case():
    p = AllocationParams(5, 3, 3)
    report = eta_count(even_partition_allocation(p), 5, 3)
    assert report.total_pairwise_gates == 15
    assert report.nonlocal_gates == 4


def test_even_partition_respects_capacity():
    for ell in range(4, 26):
        for n_p in (2, 3, 4):
            if ell <= n_p:
                continue
            alloc = even_partition_allocation(AllocationParams(ell, n_p, n_p))
            loads = {}
            for proc in alloc.assign.values():
                loads[proc] = loads.get(proc, 0) + 1
            assert all(v <= ell for v in loads.values())


def test_even_partition_requires_square_regime():
    with pytest.raises(ValueError):
        even_partition_allocation(AllocationParams(7, 2, 3))


def test_eta_count_single_processor_zero():
    assign = {(b, j): 0 for b in range(3) for j in range(4)}
    report = eta_count(Allocation(assign, {0: 12}), 4, 3)
    assert report.nonlocal_gates == 0


def test_eta_count_slice_per_processor_zero():
    assign = {(b, j): j for b in range(3) for j in range(3)}
    report = eta_count(Allocation(assign, {p: 3 for p in range(3)}), 3, 3)
    assert report.nonlocal_gates == 0


def test_eta_count_split_slice():
    # one slice split (2,1) across processors contributes 2 nonlocal of 3
    assign = {(b, j): 0 for b in range(3) for j in range(2)}
    assign.update({(0, 2): 1, (1, 2): 1, (2, 2): 2})
    report = eta_count(Allocation(assign, {0: 9, 1: 9, 2: 9}), 3, 3)
    assert report.nonlocal_gates == 2


def test_eta_count_rejects_incomplete():
    with pytest.raises(ValueError):
        eta_count(Allocation({(0, 0): 0}, {0: 4}), 2, 2)


# ---------------------------------------------------------------------------
# closed form, bound, thresholds


def test_eta_formula_seven_three():
    eta, valid = eta_formula(AllocationParams(7, 3, 3))
    assert valid and abs(eta - 1 / 7) < 1e-15


def test_eta_formula_trivial_when_clean():
    eta, valid = eta_formula(AllocationParams(4, 2, 2))
    assert valid and eta == 0.0


def test_eta_formula_five_three():
    eta, valid = eta_formula(AllocationParams(5, 3, 3))
    assert valid and abs(eta - 4 / 15) < 1e-15


def test_eta_bound_values():
    assert abs(eta_bound(AllocationParams(7, 3, 3)) - 1 / 7) < 1e-15  # saturated
    assert abs(eta_bound(AllocationParams(5, 3, 3)) - 2 / 5) < 1e-15
    assert eta_bound(AllocationParams(6, 3, 3)) == 0.0


def test_threshold_basic_values():
    assert advantage_threshold_basic(7, 10, 0.0) == 70
    assert advantage_threshold_basic(3, 7, 1 / 7) == 25  # ceil(21 / (6/7))
    assert advantage_threshold_basic(3, 0, 0.2) == 0
    with pytest.raises(ValueError):
        advantage_threshold_basic(3, 7, 1.0)


def test_threshold_general_seven_three():
    value, valid = advantage_threshold_general(AllocationParams(7, 3, 3), 7)
    assert valid and value == 21


def test_threshold_general_reduces_to_basic_at_q_le_1():
    # q <= 1 zeroes the inner correction, recovering the basic threshold
    p = AllocationParams(5, 3, 3)
    eta, _ = eta_formula(p)
    value, _ = advantage_threshold_general(p, 6)
    assert value == advantage_threshold_basic(3, 6, eta)


def test_threshold_general_flags_large_np():
    _, valid = advantage_threshold_general(AllocationParams(11, 5, 5), 3)
    assert not valid


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_seven_three():
    best, alloc = brute_force_optimal(7, 3, 3)
    assert best == 3
    assert eta_count(alloc, 7, 3).nonlocal_gates == 3


def test_brute_force_six_three():
    best, _ = brute_force_optimal(6, 3, 3)
    assert best == 0


def test_brute_force_five_three():
    best, _ = brute_force_optimal(5, 3, 3)
    assert best == 4


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_optimal(10, 3, 3)


def enumerated_optimum(ell_c: int, n_p: int) -> int:
    """The least nonlocal count over every multiset of ell_c occupation rows
    that keeps each processor within capacity ell_c (n_L == n_p)."""
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
            best, witness = brute_force_optimal(ell, n_p, n_p)
            assert best == enumerated_optimum(ell, n_p), (ell, n_p)
            witness.validate(ell, n_p)
            assert eta_count(witness, ell, n_p).nonlocal_gates == best


def test_brute_force_confirms_even_partition():
    for n_p in (2, 3):
        for ell in range(n_p + 1, 10):
            p = AllocationParams(ell, n_p, n_p)
            constructed = eta_count(even_partition_allocation(p), ell, n_p).nonlocal_gates
            optimal, _ = brute_force_optimal(ell, n_p, n_p)
            assert optimal == constructed


# ---------------------------------------------------------------------------
# consistency sweeps


def test_formula_equals_count_on_valid_instances():
    for n_p in (2, 3, 4):
        for ell in range(n_p + 1, 26):
            p = AllocationParams(ell, n_p, n_p)
            if not p.formula_valid:
                continue
            count = eta_count(even_partition_allocation(p), ell, n_p).nonlocal_gates
            assert nonlocal_count_formula(p) == count
            eta, valid = eta_formula(p)
            assert valid
            assert Fraction(count, p.total_pairwise_gates) == Fraction(eta).limit_denominator(10**6)


def test_formula_below_bound():
    for n_p in (2, 3, 4):
        for ell in range(n_p + 1, 26):
            p = AllocationParams(ell, n_p, n_p)
            eta, valid = eta_formula(p)
            if valid:
                assert eta <= eta_bound(p) + 1e-15


def count_remote_pairs(alloc: Allocation, block_a: int, block_b: int, ell_c: int) -> int:
    """Nonlocal gates of one transversal block pair under this allocation."""
    return sum(1 for j in range(ell_c)
               if alloc.assign[(block_a, j)] != alloc.assign[(block_b, j)])


def test_count_remote_pairs_matches_eta_count():
    p = AllocationParams(7, 3, 3)
    alloc = even_partition_allocation(p)
    total = sum(count_remote_pairs(alloc, a, b, 7)
                for a in range(3) for b in range(a + 1, 3))
    assert total == eta_count(alloc, 7, 3).nonlocal_gates


def test_to_text_lines():
    # q = 1 whole slice per processor; each of the s = 2 remainder slices
    # (indices 3 and 4) is cut into k = 1 group of 2 blocks and one of t = 1
    alloc = even_partition_allocation(AllocationParams(5, 3, 3))
    assert alloc.to_text().splitlines() == [
        "0,0,0", "0,1,1", "0,2,2", "0,3,0", "0,4,2",
        "1,0,0", "1,1,1", "1,2,2", "1,3,0", "1,4,2",
        "2,0,0", "2,1,1", "2,2,2", "2,3,1", "2,4,1",
    ]
