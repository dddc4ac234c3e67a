"""Code-block-to-processor allocation and the nonlocality factor.

In the square regime that the closed forms are derived for, n_p logical
qubits encoded in length-ell_c blocks sit on n_p processors of ell_c
qubits each. An allocation is an int64 array `alloc[b, j]` of shape
(n_p, ell_c): the processor that holds transversal index j of block b.
Transversal two-qubit logical gates between every block pair need
ell_c * n_p * (n_p-1) / 2 physical gate pairs in total; a gate is
processor-nonlocal when its two endpoints (same transversal index,
different blocks) live on different processors. This module constructs
the even-partition allocation, evaluates the closed-form nonlocality
factor and its simple bound, counts nonlocal gates directly, finds the
exact optimum of small instances, and computes advantage-threshold circuit
depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the largest instance the exhaustive search takes: ell_c and n_p
BRUTE_FORCE_ELL_MAX = 9
BRUTE_FORCE_N_P_MAX = 3


@dataclass(frozen=True)
class AllocationParams:
    """Instance parameters plus the derived partition quantities.

    q full transversal slices fit on each processor; s slices remain and
    are split into k groups of size s plus one group of size t. The
    partition identity n_p = k*s + t fixes t = n_p mod s; the variant
    n_p mod k is retained separately for auditability since the two
    disagree whenever k divides n_p but s does not.
    """

    ell_c: int
    n_p: int

    def __post_init__(self):
        if self.n_p < 1 or self.ell_c < 1:
            raise ValueError("all parameters must be positive")

    @property
    def q(self) -> int:
        return self.ell_c // self.n_p

    @property
    def s(self) -> int:
        return self.ell_c % self.n_p

    @property
    def k(self) -> int:
        return self.n_p // self.s if self.s else 0

    @property
    def t(self) -> int:
        return self.n_p - self.k * self.s if self.s else 0

    @property
    def t_printed_variant(self) -> int:
        return self.n_p % self.k if self.s else 0

    @property
    def formula_valid(self) -> bool:
        """The closed form requires an exact remainder tiling: s mod t == 0."""
        if self.s == 0:
            return True  # trivially zero
        return self.t == 0 or self.s % self.t == 0

    @property
    def total_pairwise_gates(self) -> int:
        return self.ell_c * self.n_p * (self.n_p - 1) // 2


def _checked(alloc: np.ndarray) -> np.ndarray:
    """The allocation, after checking that every id is a processor in
    [0, n_p) and that no processor holds more than ell_c qubits."""
    n_p, ell_c = alloc.shape
    if alloc.min() < 0 or alloc.max() >= n_p:
        raise ValueError("processor id outside [0, n_p)")
    loads = np.bincount(alloc.ravel(), minlength=n_p)
    if loads.max() > ell_c:
        raise ValueError(f"processor {loads.argmax()} over capacity: {loads.max()}")
    return alloc


def even_partition_allocation(params: AllocationParams) -> np.ndarray:
    """Co-locate as many transversal slices as possible, split the rest evenly.

    Processor p receives q whole slices; each of the s remainder slices is
    cut into k groups of size s and one of size t, placed best-fit into
    the remaining capacity.
    """
    ell, n_p = params.ell_c, params.n_p
    q, s, k, t = params.q, params.s, params.k, params.t
    alloc = np.empty((n_p, ell), dtype=np.int64)
    alloc[:, :q * n_p] = np.repeat(np.arange(n_p), q)
    spare = [ell - q * n_p] * n_p
    groups = [s] * k + ([t] if t else [])
    for j in range(q * n_p, ell):
        block = 0
        for g in groups:
            candidates = [p for p in range(n_p) if spare[p] >= g]
            if not candidates:
                raise ValueError("capacity violated while placing remainder slices")
            proc = min(candidates, key=lambda p: (spare[p], p))
            alloc[block:block + g, j] = proc
            spare[proc] -= g
            block += g
    return _checked(alloc)


def eta_count(alloc: np.ndarray) -> int:
    """Direct count of nonlocal gate pairs; the oracle for the closed form.

    A processor that holds m of slice j's n_p qubits makes C(m, 2) of the
    slice's C(n_p, 2) gates local.
    """
    n_p, ell_c = _checked(alloc).shape
    m = np.bincount((alloc + n_p * np.arange(ell_c)).ravel(), minlength=n_p * ell_c)
    return ell_c * n_p * (n_p - 1) // 2 - int((m * (m - 1) // 2).sum())


def nonlocal_count_formula(params: AllocationParams) -> int:
    """Integer numerator of the closed form: s*(n_p^2 - k*s^2 - t^2)/2 gates."""
    s, k, t, n_p = params.s, params.k, params.t, params.n_p
    num = s * (n_p**2 - k * s**2 - t**2)
    assert num % 2 == 0
    return num // 2


def eta_formula(params: AllocationParams) -> float:
    """Closed-form nonlocality factor.

    eta = s*(n_p^2 - k*s^2 - t^2) / (ell_c * n_p * (n_p-1)), which holds
    where params.formula_valid does; s == 0 gives 0 (trivially local).
    """
    if params.s == 0:
        return 0.0
    return nonlocal_count_formula(params) / params.total_pairwise_gates


def eta_bound(params: AllocationParams) -> float:
    """Simple upper bound s*n_p*(n_p-1) / (ell_c*n_p*(n_p-1)) = s/ell_c."""
    return params.s / params.ell_c


def advantage_threshold_basic(n_p: int, d_enc_dec: int, eta: float) -> int:
    """Smallest circuit depth with d*(1-eta) >= n_p*d_enc_dec."""
    if eta >= 1.0:
        raise ValueError("nonlocality factor must be below 1")
    if d_enc_dec < 0:
        raise ValueError("encode/decode depth must be nonnegative")
    return math.ceil(n_p * d_enc_dec / (1.0 - eta))


def advantage_threshold_general(params: AllocationParams, d_enc_dec: int) -> int:
    """Smallest depth with d*(1-eta) >= d_enc_dec*n_p*(1 - n_p*q*(q-1)/(ell_c*(ell_c-1))).

    The closed form is established for n_p < 5 where params.formula_valid
    holds; outside that regime the value is still computed, unverified.
    """
    q, n_p, ell = params.q, params.n_p, params.ell_c
    rhs = d_enc_dec * n_p * (1.0 - n_p * q * (q - 1) / (ell * (ell - 1)))
    return math.ceil(rhs / (1.0 - eta_formula(params)))


def brute_force_optimal(ell_c: int, n_p: int) -> tuple[int, np.ndarray]:
    """Exact global minimum of the nonlocal gate count, by a DP over loads.

    Only the per-slice processor occupation row matters for the count, so
    slice by slice the search tracks each reachable vector of processor
    loads, capped at ell_c, with the least cost that reaches it and one
    row list that does. The n_p rows of every slice fill all ell_c * n_p
    sites, so the full load vector is the one end state. Returns
    (min count, witness allocation). Guarded to ell_c <= BRUTE_FORCE_ELL_MAX
    and n_p <= BRUTE_FORCE_N_P_MAX.
    """
    if ell_c > BRUTE_FORCE_ELL_MAX or n_p > BRUTE_FORCE_N_P_MAX:
        raise ValueError("instance too large for exhaustive search")
    pair_total = n_p * (n_p - 1) // 2
    row_cost = {r: pair_total - sum(m * (m - 1) // 2 for m in r)
                for r in _compositions(n_p, n_p)}
    states = {(0,) * n_p: (0, ())}
    for _ in range(ell_c):
        reached = {}
        for loads, (cost, chosen) in states.items():
            for r, c in row_cost.items():
                nxt = tuple(load + m for load, m in zip(loads, r))
                if max(nxt) > ell_c:
                    continue
                if nxt not in reached or cost + c < reached[nxt][0]:
                    reached[nxt] = (cost + c, chosen + (r,))
        states = reached
    [(best, best_rows)] = states.values()
    witness = np.stack([np.repeat(np.arange(n_p), r) for r in best_rows], axis=1)
    return best, _checked(witness)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _compositions(total - first, parts - 1))
    return out
