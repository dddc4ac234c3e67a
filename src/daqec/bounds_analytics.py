"""Closed-form success bounds for distributed blocks, and the bad-apple analysis.

On a square machine (n processors of n qubits, n blocks of size n) with
per-processor error rates eps_p, the all-blocks decode success is
prod(1-eps_p) when blocks are processor-local and mean(1-eps_p)**n when
fully distributed; the distributed advantage admits the lower bound
n*(1-eps_local)*sigma^2/2 in terms of the rate variance. The barrel
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
from scipy.optimize import brentq


@dataclass(frozen=True)
class ProcessorErrorProfile:
    """Per-processor error rates with the derived statistics."""

    eps: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if any(not 0.0 <= e <= 1.0 for e in eps):
            raise ValueError("error rates must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def x(self) -> np.ndarray:
        """Per-processor no-error probabilities 1 - eps_p."""
        return 1.0 - np.array(self.eps)

    @property
    def mean_eps(self) -> float:
        return float(np.mean(self.eps))

    @property
    def variance(self) -> float:
        """Population variance (divide by n) of the rates."""
        return float(np.var(self.eps))


@dataclass(frozen=True)
class AdvantageReport:
    eps_local: float
    eps_dist: float
    difference: float
    sigma2: float
    bound_exact: float   # n * (1 - eps_local) * sigma^2 / 2
    bound_approx: float  # n * sigma^2 / 2

    @property
    def meets_exact_bound(self) -> bool:
        return self.difference >= self.bound_exact


def success_local(profile: ProcessorErrorProfile) -> float:
    """All-blocks success with one block per processor: prod of 1 - eps_p."""
    return float(np.prod(profile.x))


def success_dist(profile: ProcessorErrorProfile) -> float:
    """All-blocks success when fully distributed: mean(1 - eps_p) ** n."""
    return float(np.mean(profile.x) ** profile.n)


def advantage_report(profile: ProcessorErrorProfile) -> AdvantageReport:
    s_loc = success_local(profile)
    s_dist = success_dist(profile)
    eps_local = 1.0 - s_loc
    eps_dist = 1.0 - s_dist
    sigma2 = profile.variance
    n = profile.n
    return AdvantageReport(
        eps_local=eps_local,
        eps_dist=eps_dist,
        difference=eps_local - eps_dist,
        sigma2=sigma2,
        bound_exact=n * s_loc * sigma2 / 2.0,
        bound_approx=n * sigma2 / 2.0,
    )


def nth_root_gap(a: float, b: float, n: int):
    """(a - b, n * b^((n-1)/n) * (a^(1/n) - b^(1/n))); the left never falls below the right."""
    if not a >= b > 0:
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

    bin_probs: tuple[float, ...]
    n: int
    p_c: float
    ruin_rule: str
    F_k: tuple[float, ...]
    C: float


def diagnose_packing(bin_probs, matrix, p_c: float = 0.0,
                     ruin_rule: str = "two-or-more") -> BarrelModel:
    """Summarize a packing matrix (rows = bins, columns = barrels)."""
    probs = np.asarray(bin_probs, dtype=float)
    matrix = np.asarray(matrix, dtype=int)
    if matrix.shape[0] != probs.size:
        raise ValueError("one matrix row per bin expected")
    odds = tuple(barrel_odds_sum(np.repeat(probs, matrix[:, k]))
                 for k in range(matrix.shape[1]))
    return BarrelModel(
        bin_probs=tuple(float(v) for v in probs),
        n=int(matrix.sum(axis=0)[0]),
        p_c=p_c,
        ruin_rule=ruin_rule,
        F_k=odds,
        C=float(sum(odds)),
    )


def optimal_packing_bruteforce(bin_probs):
    """Best split of n bins x n items into n barrels of n items.

    Items within a bin are interchangeable, so packings are matrices with
    rows (bins) and columns (barrels) summing to n; barrels are unordered.
    Maximizes the probability that no barrel has two or more spoiled
    items. Returns (packing matrix, success probability, per-barrel odds
    sums). Guarded to n <= 4.
    """
    probs = np.asarray(bin_probs, dtype=float)
    n = probs.size
    if n > 4:
        raise ValueError("instance too large for exhaustive packing search")
    best = None
    for columns in _packings(n):
        success = 1.0
        for col in columns:
            barrel = np.repeat(probs, col)
            success *= 1.0 - barrel_ruin_two_or_more(barrel)
        if best is None or success > best[1]:
            best = (columns, success)
    columns, success = best
    matrix = np.array(columns).T  # rows = bins, columns = barrels
    odds = tuple(barrel_odds_sum(np.repeat(probs, col)) for col in columns)
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


def contamination_cutoff_exact(p, n: int | None = None) -> float:
    """Break-even contamination rate under the two-or-more ruin rule.

    Mixed barrels pay a contamination factor (1-p_c)^C(n,2) on their
    success; the cutoff equates the total success of n mixed barrels with
    the product of the uniform-barrel successes:

        p_c* = 1 - ( B^(1/n) / A )^(1/C(n,2))

    with A the mixed-barrel success and B the product of uniform-barrel
    successes.
    """
    probs = np.asarray(p, dtype=float)
    n = probs.size if n is None else n
    if probs.size != n:
        raise ValueError("one spoil rate per bin expected")
    a = sum(_spoiled_none_and_one(probs))  # success of a barrel with one item per bin
    b = math.prod(_uniform_barrel_success(float(pi), n) for pi in probs)
    pairs = n * (n - 1) // 2
    return 1.0 - (b ** (1.0 / n) / a) ** (1.0 / pairs)


def contamination_cutoff_exact_oracle(p, n: int | None = None) -> float:
    """Same cutoff found by a numerical root solve instead of the closed form."""
    probs = np.asarray(p, dtype=float)
    n = probs.size if n is None else n
    a = sum(_spoiled_none_and_one(probs))
    b = math.prod(_uniform_barrel_success(float(pi), n) for pi in probs)
    pairs = n * (n - 1) // 2

    def gap(pc):
        return ((1.0 - pc) ** pairs * a) ** n - b

    # equal bins break even at p_c = 0, where rounding can leave gap(0) <= 0
    return 0.0 if gap(0.0) <= 0.0 else float(brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-14))


def contamination_cutoff_approx(p, n: int | None = None) -> float:
    """Break-even contamination under the proportional (k/n) ruin rule.

    Mixed-barrel success is (1-p_c)^(n-1) * mean(1-p_i); uniform-barrel
    total success is prod(1-p_i). The cutoff is

        p_c* = 1 - ( n * prod(1-p_i)^(1/n) / sum(1-p_i) )^(1/(n-1))

    and lower-bounds the actual cutoff when links are unevenly used.
    """
    probs = np.asarray(p, dtype=float)
    n = probs.size if n is None else n
    if probs.size != n:
        raise ValueError("one spoil rate per bin expected")
    good = 1.0 - probs
    return 1.0 - (n * np.prod(good) ** (1.0 / n) / np.sum(good)) ** (1.0 / (n - 1))


def contamination_cutoff_approx_oracle(p, n: int | None = None) -> float:
    probs = np.asarray(p, dtype=float)
    n = probs.size if n is None else n
    good = 1.0 - probs
    target = float(np.prod(good))

    def gap(pc):
        return ((1.0 - pc) ** (n - 1) * float(np.mean(good))) ** n - target

    return 0.0 if gap(0.0) <= 0.0 else float(brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-14))
