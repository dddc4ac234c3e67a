"""An integer program over occupation-row counts: a second optimum oracle for
the allocation's nonlocal gate count, next to `brute_force_optimal`'s DP.

The count depends only on the multiset of per-slice occupation rows (how many
of a slice's n_p qubits each processor holds). So the optimum is one count per
row type, summing to ell_c, with every processor's load exactly ell_c (the
ell_c * n_p qubits fill the ell_c * n_p sites). HiGHS (Huangfu and Hall,
Math. Prog. Comp. 10, 2018, through `scipy.optimize.milp`) solves it in
milliseconds over the whole allocation-report range. scipy is a test
dependency only; no run imports it.
"""

from itertools import product

import numpy as np
from scipy.optimize import LinearConstraint, milp

from daqec.allocation import eta_count


def milp_optimal(ell_c: int, n_p: int) -> tuple[int, np.ndarray]:
    """(least nonlocal count, an allocation that reaches it), solved exactly.

    The allocation lays each chosen row out as one slice, blocks filling the
    processors in ascending order, and `eta_count` must give it the
    program's count.
    """
    rows = np.array([r for r in product(range(n_p + 1), repeat=n_p) if sum(r) == n_p])
    cost = n_p * (n_p - 1) // 2 - (rows * (rows - 1) // 2).sum(axis=1)
    equal = np.vstack([np.ones(len(rows)), rows.T])   # slice count, then each load
    target = np.full(n_p + 1, ell_c)
    res = milp(cost, integrality=np.ones(len(rows)), bounds=(0, ell_c),
               constraints=LinearConstraint(equal, target, target),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"milp failed at ell_c={ell_c}, n_p={n_p}: {res.message}")
    counts = np.rint(res.x).astype(np.int64)
    best = int(cost @ counts)
    assert abs(res.fun - best) < 1e-6 and (equal @ counts == target).all()
    alloc = np.stack([np.repeat(np.arange(n_p), r) for r in np.repeat(rows, counts, axis=0)],
                     axis=1)
    assert eta_count(alloc) == best
    return best, alloc
