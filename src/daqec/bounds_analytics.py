"""Closed-form success bounds for distributed blocks, and the bad-apple analysis.

On a square machine (n processors of n qubits, n blocks of size n) with
per-processor error rates eps_p, the all-blocks decode success is
prod(1-eps_p) when blocks are processor-local and mean(1-eps_p)**n when
fully distributed; the distributed advantage admits the lower bound
n*(1-eps_local)*sigma^2/2 in terms of the rate variance. These take an
array of rate profiles and reduce its last axis, so one call evaluates a
single profile of shape (n,) or a batch of shape (m, n). The barrel
functions cover the packing analogy: bins with per-bin spoil rates,
barrels ruined by two or more spoiled items (or, in the proportional
variant, with probability k/n), and the contamination cutoffs at which
mixing bins stops paying off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np


def success_local(eps):
    """All-blocks success with one block per processor: prod of 1 - eps_p
    over the last axis."""
    return np.prod(1.0 - eps, axis=-1)


def success_dist(eps):
    """All-blocks success when fully distributed: mean(1 - eps_p) ** n over
    the last axis of length n."""
    return np.mean(1.0 - eps, axis=-1) ** eps.shape[-1]


def advantage_bounds(eps):
    """(sigma^2, n * s_loc * sigma^2 / 2, n * sigma^2 / 2) over the last axis:
    the population variance of the rates and the exact and approximate
    lower bounds on success_dist - success_local."""
    n = eps.shape[-1]
    sigma2 = np.var(eps, axis=-1)
    return sigma2, n * success_local(eps) * sigma2 / 2.0, n * sigma2 / 2.0


def nth_root_gap(a, b, n):
    """(a - b, n * b^((n-1)/n) * (a^(1/n) - b^(1/n))) of numbers or equal-shape arrays;
    the left never falls below the right."""
    if not np.all((a >= b) & (b > 0)):
        raise ValueError("requires a >= b > 0")
    lhs = a - b
    rhs = n * b ** ((n - 1) / n) * (a ** (1.0 / n) - b ** (1.0 / n))
    return lhs, rhs


def sample_profiles(n: int, mean: float, std: float, rng: np.random.Generator,
                    size: int, clip: tuple[float, float] = (0.0, 0.5)) -> np.ndarray:
    """Normal rate samples clipped into a valid range, shape (size, n)."""
    eps = rng.normal(mean, std, size=(size, n))
    return np.clip(eps, clip[0], clip[1])


# ---------------------------------------------------------------------------
# barrels


def enumerate_ruin(p, rule: str = "two-or-more") -> float:
    """Exhaustive ruin probability over all 2^n spoil patterns (the oracle)."""
    p = np.asarray(p, dtype=float)
    n = p.size
    total = 0.0
    for pattern in iter_product((0, 1), repeat=n):
        k = sum(pattern)
        w = math.prod(p[i] if b else 1.0 - p[i] for i, b in enumerate(pattern))
        if rule == "two-or-more":
            total += w if k >= 2 else 0.0
        elif rule == "linear-k-over-n":
            total += w * k / n
        else:
            raise ValueError(f"unknown ruin rule {rule!r}")
    return total


def _spoiled_none_and_one(p) -> tuple[float, float]:
    """P(0) and P(1): the probabilities that no item, or exactly one, of the
    barrel's items is spoiled."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    none = np.prod(1.0 - p)
    one = sum(p[i] * np.prod(np.delete(1.0 - p, i)) for i in range(p.size))
    return float(none), float(one)


def barrel_ruin_two_or_more(p) -> float:
    """Probability that at least two of the barrel's items are spoiled.

    Evaluated as 1 - P(0) - P(1), which stays defined at p_i = 1 where the
    odds-form closed expression breaks down.
    """
    none, one = _spoiled_none_and_one(p)
    return 1.0 - none - one


def barrel_ruin_odds_form(p) -> float:
    """Closed form 1 - prod(1-p_i) * (1 + sum p_i/(1-p_i)); requires p_i < 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p >= 1.0):
        raise ValueError("odds form undefined at p_i = 1")
    return float(1.0 - np.prod(1.0 - p) * (1.0 + np.sum(p / (1.0 - p))))


def barrel_odds_sum(p) -> float:
    """Diagnostic F = sum p_i/(1-p_i); optimal packings equalize it across barrels."""
    p = np.asarray(p, dtype=float)
    return float(np.sum(p / (1.0 - p)))


@dataclass(frozen=True)
class BarrelModel:
    """One packing diagnosis: per-barrel odds sums F_k and their total C."""

    F_k: tuple[float, ...]
    C: float


def diagnose_packing(bin_probs, matrix) -> BarrelModel:
    """Summarize a packing matrix (rows = bins, columns = barrels)."""
    probs = np.asarray(bin_probs, dtype=float)
    matrix = np.asarray(matrix, dtype=int)
    if matrix.shape[0] != probs.size:
        raise ValueError("one matrix row per bin expected")
    odds = tuple(barrel_odds_sum(np.repeat(probs, matrix[:, k]))
                 for k in range(matrix.shape[1]))
    return BarrelModel(F_k=odds, C=float(sum(odds)))


def optimal_packing_bruteforce(bin_probs):
    """Best split of n bins x n items into n barrels of n items.

    Items within a bin are interchangeable, so packings are matrices with
    rows (bins) and columns (barrels) summing to n; barrels are unordered.
    Maximizes the probability that no barrel has two or more spoiled
    items; among packings of equal success (all 0.0 when bins are nearly
    certain to spoil) keeps the one whose odds sums are most nearly equal.
    Returns (packing matrix, success probability, per-barrel odds sums).
    Guarded to n <= 4.
    """
    probs = np.asarray(bin_probs, dtype=float)
    n = probs.size
    if n > 4:
        raise ValueError("instance too large for exhaustive packing search")
    best = None
    for columns in _packings(n):
        barrels = [np.repeat(probs, col) for col in columns]
        success = math.prod(1.0 - barrel_ruin_two_or_more(b) for b in barrels)
        odds = tuple(barrel_odds_sum(b) for b in barrels)
        key = (success, min(odds) - max(odds))
        if best is None or key > best[0]:
            best = (key, columns, odds)
    (success, _), columns, odds = best
    matrix = np.array(columns).T  # rows = bins, columns = barrels
    return matrix, success, odds


def _packings(n: int):
    """All multisets of n column profiles (items per bin) with row sums n."""
    cols = [c for c in iter_product(range(n + 1), repeat=n) if sum(c) == n]

    def rec(remaining, start, chosen):
        if len(chosen) == n:
            if all(r == 0 for r in remaining):
                yield tuple(chosen)
            return
        for i in range(start, len(cols)):
            col = cols[i]
            if all(r >= c for r, c in zip(remaining, col)):
                yield from rec([r - c for r, c in zip(remaining, col)], i, chosen + [col])

    yield from rec([n] * n, 0, [])


# ---------------------------------------------------------------------------
# contamination cutoffs


def _uniform_barrel_success(pi: float, n: int) -> float:
    """P(at most one spoiled) for a barrel of n items all spoiling at rate pi."""
    return (1.0 - pi) ** n + n * pi * (1.0 - pi) ** (n - 1)


def _exact_terms(probs: np.ndarray) -> tuple[float, float, int]:
    """A, the success of a barrel with one item per bin; B, the product of
    the uniform-barrel successes; and the C(n, 2) pairs of the n bins."""
    n = probs.size
    a = sum(_spoiled_none_and_one(probs))
    b = math.prod(_uniform_barrel_success(float(pi), n) for pi in probs)
    return a, b, n * (n - 1) // 2


def contamination_cutoff_exact(p) -> float:
    """Break-even contamination rate under the two-or-more ruin rule.

    Mixed barrels pay a contamination factor (1-p_c)^C(n,2) on their
    success; the cutoff equates the total success of n mixed barrels with
    the product of the uniform-barrel successes:

        p_c* = 1 - ( B^(1/n) / A )^(1/C(n,2))

    with A the mixed-barrel success and B the product of uniform-barrel
    successes.
    """
    probs = np.asarray(p, dtype=float)
    a, b, pairs = _exact_terms(probs)
    return 1.0 - (b ** (1.0 / probs.size) / a) ** (1.0 / pairs)


def _bisect_root(gap, lo: float, hi: float) -> float:
    """Last float r in [lo, hi) with gap(r) > 0 >= gap(next float), for gap(lo) > 0.

    Halves the bracket until its midpoint rounds to one of its ends; raises
    ValueError, as a bracketing root solver does, when gap(hi) > 0 too.
    """
    if gap(hi) > 0.0:
        raise ValueError("gap does not change sign on the bracket")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _cutoff_root(gap) -> float:
    """Root of a cutoff's gap on [0, 1); equal bins break even at p_c = 0,
    where rounding can leave gap(0) <= 0."""
    return 0.0 if gap(0.0) <= 0.0 else _bisect_root(gap, 0.0, 1.0 - 1e-12)


def _exact_gap(probs: np.ndarray):
    """Mixed minus uniform total success at contamination p_c, two-or-more rule."""
    a, b, pairs = _exact_terms(probs)
    return lambda pc: ((1.0 - pc) ** pairs * a) ** probs.size - b


def _approx_terms(probs: np.ndarray) -> tuple[float, float]:
    """The sum and the product of the bins' 1 - p_i."""
    good = 1.0 - probs
    return float(np.sum(good)), float(np.prod(good))


def _approx_gap(probs: np.ndarray):
    """Mixed minus uniform total success at contamination p_c, k/n rule."""
    n = probs.size
    total, target = _approx_terms(probs)
    return lambda pc: ((1.0 - pc) ** (n - 1) * (total / n)) ** n - target


def contamination_cutoff_exact_oracle(p) -> float:
    """Same cutoff found by a numerical root solve instead of the closed form."""
    return _cutoff_root(_exact_gap(np.asarray(p, dtype=float)))


def contamination_cutoff_approx(p) -> float:
    """Break-even contamination under the proportional (k/n) ruin rule.

    Mixed-barrel success is (1-p_c)^(n-1) * mean(1-p_i); uniform-barrel
    total success is prod(1-p_i). The cutoff is

        p_c* = 1 - ( n * prod(1-p_i)^(1/n) / sum(1-p_i) )^(1/(n-1))

    and lower-bounds the actual cutoff when links are unevenly used.
    """
    probs = np.asarray(p, dtype=float)
    n = probs.size
    total, target = _approx_terms(probs)
    return 1.0 - (n * target ** (1.0 / n) / total) ** (1.0 / (n - 1))


def contamination_cutoff_approx_oracle(p) -> float:
    """Same cutoff found by a numerical root solve instead of the closed form."""
    return _cutoff_root(_approx_gap(np.asarray(p, dtype=float)))
