import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chi2

from daqec import experiments
from daqec.bounds_analytics import (
    _approx_gap,
    _bisect_root,
    _exact_gap,
    advantage_bounds,
    barrel_odds_sum,
    barrel_ruin_odds_form,
    barrel_ruin_two_or_more,
    contamination_cutoff_approx,
    contamination_cutoff_approx_oracle,
    contamination_cutoff_exact,
    contamination_cutoff_exact_oracle,
    enumerate_ruin,
    nth_root_gap,
    optimal_packing_bruteforce,
    sample_profiles,
    success_dist,
    success_local,
)

EXAMPLE = np.array([0.02, 0.01, 0.03])


# ---------------------------------------------------------------------------
# success probabilities and the advantage bound


def test_success_values_worked_example():
    assert abs(success_local(EXAMPLE) - 0.941094) < 1e-6
    assert abs(success_local(EXAMPLE) - 0.98 * 0.99 * 0.97) < 1e-15
    assert abs(success_dist(EXAMPLE) - 0.98**3) < 1e-15


def test_uniform_rates_give_equal_success():
    eps = np.full(5, 0.03)
    assert abs(success_local(eps) - success_dist(eps)) < 1e-15


def test_distributed_never_worse(rng):
    for n in range(2, 21):
        eps = rng.uniform(0, 1, (500, n))
        assert np.all(success_dist(eps) >= success_local(eps) - 1e-12)


def test_advantage_bounds_worked_example():
    sigma2, bound_exact, bound_approx = advantage_bounds(EXAMPLE)
    difference = success_dist(EXAMPLE) - success_local(EXAMPLE)
    assert abs(sigma2 - 6.666666666e-5) < 1e-12
    assert abs(difference - 9.8e-5) < 2e-9
    assert abs(bound_exact - 9.411e-5) < 1e-7
    assert abs(bound_approx - 1e-4) < 1e-12
    assert difference >= bound_exact > 0.0


def test_advantage_bounds_uniform_is_zero():
    eps = np.full(4, 0.02)
    assert success_dist(eps) - success_local(eps) == 0.0
    assert advantage_bounds(eps) == (0.0, 0.0, 0.0)


def test_advantage_large_n_profile_near_bound(rng):
    # sigma^2 = 1e-4 profiles at n=20 sit within [bound_exact, 3*bound_exact]
    eps = sample_profiles(20, 0.03, 0.01, rng, 50, clip=(0.0, 0.5))
    sigma2, bound_exact, _ = advantage_bounds(eps)
    difference = (success_dist(eps) - success_local(eps))[sigma2 > 0.0]
    bound_exact = bound_exact[sigma2 > 0.0]
    assert np.all((bound_exact <= difference) & (difference <= 3 * bound_exact))


def test_theorem_bound_statistical(rng):
    # exact-bound violations should be absent for low-rate profiles
    for n in (3, 7, 20):
        eps = sample_profiles(n, 0.02, 0.01, rng, 10_000, clip=(0.0, 0.1))
        diff = success_dist(eps) - success_local(eps)
        _, bound, _ = advantage_bounds(eps)
        assert np.mean(diff >= bound) >= 0.999


def _profile_oracle(e):
    """(s_loc, s_dist, sigma^2, exact bound, approximate bound) of one
    profile, with correctly rounded sums."""
    n = len(e)
    x = [1.0 - v for v in e]
    mean = math.fsum(e) / n
    sigma2 = math.fsum((v - mean) ** 2 for v in e) / n
    s_loc = math.prod(x)
    return s_loc, (math.fsum(x) / n) ** n, sigma2, n * s_loc * sigma2 / 2.0, n * sigma2 / 2.0


@settings(max_examples=200, deadline=None)
@given(eps=st.integers(1, 100).flatmap(lambda n: st.one_of(
    hnp.arrays(float, n, elements=st.floats(0.0, 1.0)),
    hnp.arrays(float, st.tuples(st.integers(1, 4), st.just(n)),
               elements=st.floats(0.0, 1.0)))))
def test_array_model_matches_per_profile_oracle(eps):
    n = eps.shape[-1]
    rows = [_profile_oracle(e.tolist()) for e in eps.reshape(-1, n)]
    want = np.array(rows).reshape(*eps.shape[:-1], 5)
    got = (success_local(eps), success_dist(eps), *advantage_bounds(eps))
    # the two-pass variance squares the rounding of the mean, at most
    # n * machine eps * max(eps): an absolute error that stays where the
    # spread is nil, as in a uniform profile
    slack = 2.0 * (n * np.finfo(float).eps * eps.max()) ** 2
    for k, (value, atol) in enumerate(zip(got, (0.0, 0.0, slack, n * slack / 2, n * slack / 2))):
        assert np.shape(value) == eps.shape[:-1]
        np.testing.assert_allclose(value, want[..., k], rtol=1e-12, atol=atol, err_msg=str(k))


def test_nth_root_gap_equal_inputs():
    lhs, rhs = nth_root_gap(0.7, 0.7, 5)
    assert lhs == 0.0 and abs(rhs) < 1e-15


def test_nth_root_gap_power_example():
    n = 6
    lhs, rhs = nth_root_gap(1.0, 2.0**-n, n)
    assert abs(lhs - (1 - 2.0**-n)) < 1e-15
    assert lhs >= rhs


def test_nth_root_gap_property_sweep(rng):
    for _ in range(10_000):
        b = float(rng.uniform(1e-6, 1.0))
        a = float(rng.uniform(b, 1.0))
        n = int(rng.integers(1, 40))
        lhs, rhs = nth_root_gap(a, b, n)
        assert lhs >= rhs - 1e-12


def test_nth_root_gap_domain():
    with pytest.raises(ValueError):
        nth_root_gap(0.5, 0.7, 3)
    # arrays: one case out of its domain rejects the lot
    with pytest.raises(ValueError):
        nth_root_gap(np.array([0.9, 0.5]), np.array([0.3, 0.7]), np.array([2, 3]))
    with pytest.raises(ValueError):
        nth_root_gap(np.array([0.9, 0.5]), np.array([0.3, 0.0]), np.array([2, 3]))
    lhs, rhs = nth_root_gap(np.array([0.9, 0.7]), np.array([0.3, 0.7]), np.array([2, 5]))
    assert lhs.shape == rhs.shape == (2,)


# ---------------------------------------------------------------------------
# barrels


def test_barrel_ruin_half_half_half():
    assert abs(barrel_ruin_two_or_more([0.5, 0.5, 0.5]) - 0.5) < 1e-15


def test_barrel_ruin_single_possible_spoil():
    assert barrel_ruin_two_or_more([0.7, 0.0, 0.0]) == 0.0


def test_barrel_ruin_symmetric_polynomial():
    p1, p2, p3 = 0.6, 0.2, 0.05
    ref = p1 * p2 + p1 * p3 + p2 * p3 - 2 * p1 * p2 * p3
    assert abs(barrel_ruin_two_or_more([p1, p2, p3]) - ref) < 1e-15
    assert abs(barrel_ruin_odds_form([p1, p2, p3]) - ref) < 1e-15


def test_barrel_ruin_handles_certain_spoil():
    # odds form breaks at p=1 but the complement form does not
    assert abs(barrel_ruin_two_or_more([1.0, 1.0, 0.0]) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        barrel_ruin_odds_form([1.0, 0.5])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_barrel_closed_forms_match_enumeration(n, rng):
    for _ in range(200):
        p = rng.uniform(0.0, 0.95, n)
        assert abs(barrel_ruin_two_or_more(p) - enumerate_ruin(p, "two-or-more")) < 1e-12
        assert abs(barrel_ruin_odds_form(p) - enumerate_ruin(p, "two-or-more")) < 1e-12


def test_packing_one_per_bin_optimal():
    matrix, success, odds = optimal_packing_bruteforce([0.6, 0.2, 0.05])
    one_per_bin = (1 - barrel_ruin_two_or_more([0.6, 0.2, 0.05])) ** 3
    assert abs(success - one_per_bin) < 1e-12
    np.testing.assert_array_equal(matrix, np.ones((3, 3), dtype=int))
    assert max(odds) - min(odds) < 1e-12  # equalized odds sums at the optimum


def test_packing_identical_bins_all_tie():
    matrix, success, _ = optimal_packing_bruteforce([0.3, 0.3, 0.3])
    homogeneous = (1 - barrel_ruin_two_or_more([0.3] * 3)) ** 3
    assert abs(success - homogeneous) < 1e-12


def test_packing_unbalanced_bins_equalize_odds():
    _, success, odds = optimal_packing_bruteforce([0.9, 0.1, 0.1])
    spread = max(odds) - min(odds)
    # equal up to the integrality of whole apples
    assert spread <= barrel_odds_sum([0.9]) + 1e-12
    assert success > 0


def test_packing_tie_keeps_most_equal_odds():
    # every packing's success underflows to 0.0; the one-per-bin barrels, and the
    # packings equal to them because bins 1 and 3 are the same, have equal odds
    bins = [0.896, 1 - 2**-53, 0.596, 1 - 2**-53]
    matrix, success, odds = optimal_packing_bruteforce(bins)
    assert success == 0.0
    assert max(odds) - min(odds) == 0.0
    one_per_bin = barrel_odds_sum(bins)
    assert all(o == one_per_bin for o in odds)
    np.testing.assert_array_equal(matrix[0], 1)
    np.testing.assert_array_equal(matrix[2], 1)
    np.testing.assert_array_equal(matrix[1] + matrix[3], 2)


def test_packing_guard():
    with pytest.raises(ValueError):
        optimal_packing_bruteforce([0.1] * 5)


def test_diagnose_packing_model():
    from daqec.bounds_analytics import diagnose_packing
    matrix, _, odds = optimal_packing_bruteforce([0.6, 0.2, 0.05])
    model = diagnose_packing([0.6, 0.2, 0.05], matrix)
    assert model.F_k == odds
    assert abs(model.C - sum(odds)) < 1e-12


# ---------------------------------------------------------------------------
# contamination cutoffs


def test_cutoff_exact_anchor_and_oracle():
    bins = [0.6, 0.2, 0.05]
    closed = contamination_cutoff_exact(bins)
    assert abs(closed - 0.073) < 0.005
    assert abs(closed - contamination_cutoff_exact_oracle(bins)) < 1e-10


def test_cutoff_exact_substitution_balances():
    bins = np.array([0.6, 0.2, 0.05])
    pc = contamination_cutoff_exact(bins)
    mixed = (1 - pc) ** 3 * (1 - barrel_ruin_two_or_more(bins))
    uniform = math.prod((1 - p) ** 3 + 3 * p * (1 - p) ** 2 for p in bins)
    assert abs(mixed**3 - uniform) < 1e-10


def test_cutoff_exact_identical_bins_zero():
    assert abs(contamination_cutoff_exact([0.2, 0.2, 0.2])) < 1e-12


def test_below_cutoff_mixing_wins():
    bins = np.array([0.6, 0.2, 0.05])
    pc_star = contamination_cutoff_exact(bins)
    for pc in (0.0, pc_star / 2):
        mixed_total = ((1 - pc) ** 3 * (1 - barrel_ruin_two_or_more(bins))) ** 3
        uniform_total = math.prod((1 - p) ** 3 + 3 * p * (1 - p) ** 2 for p in bins)
        assert mixed_total > uniform_total


def test_cutoff_approx_value_and_oracle():
    bins = [0.6, 0.2, 0.05]
    closed = contamination_cutoff_approx(bins)
    assert abs(closed - 0.031) < 0.002
    assert abs(closed - contamination_cutoff_approx_oracle(bins)) < 1e-10


ORACLES = [(contamination_cutoff_exact_oracle, _exact_gap),
           (contamination_cutoff_approx_oracle, _approx_gap)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 0.95, exclude_min=True, exclude_max=True),
                min_size=2, max_size=4))
def test_cutoff_oracles_bracket_the_root(bins):
    probs = np.asarray(bins)
    for oracle, make_gap in ORACLES:
        gap = make_gap(probs)
        root = oracle(bins)
        if gap(0.0) <= 0.0:  # break-even at p_c = 0
            assert root == 0.0
            continue
        # the last float with gap > 0: exact in floating point
        assert gap(root) > 0.0 >= gap(math.nextafter(root, 1.0))
        assert abs(root - brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-14)) <= 1e-13


def test_cutoff_oracles_raise_without_sign_change():
    # a bin certain to spoil: uniform barrels never succeed, so mixing pays at any p_c
    for oracle, make_gap in ORACLES:
        gap = make_gap(np.array([1.0, 0.0]))
        assert gap(0.0) > 0.0 and gap(1.0 - 1e-12) > 0.0
        with pytest.raises(ValueError):
            oracle([1.0, 0.0])
        with pytest.raises(ValueError):
            brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-14)
    with pytest.raises(ValueError):
        _bisect_root(lambda x: 1.0 - x, 0.0, 0.5)


def test_bisect_root_is_the_last_positive_float():
    r = _bisect_root(lambda x: 0.3 - x, 0.0, 1.0)
    assert r < 0.3 <= math.nextafter(r, 1.0)
    assert _bisect_root(lambda x: 0.3 - x, 0.0, 0.3) == math.nextafter(0.3, 0.0)


def test_cutoff_approx_identical_bins_zero():
    assert abs(contamination_cutoff_approx([0.4, 0.4, 0.4])) < 1e-12


def test_cutoff_approx_below_exact_for_reference_bins():
    # the proportional rule softens mixing's edge, giving a smaller cutoff here
    bins = [0.6, 0.2, 0.05]
    assert contamination_cutoff_approx(bins) < contamination_cutoff_exact(bins)


def test_linear_rule_enumeration_matches_mean():
    # ruin probability under the k/n rule is the mean spoil rate
    p = np.array([0.3, 0.1, 0.2])
    assert abs(enumerate_ruin(p, "linear-k-over-n") - p.mean()) < 1e-12


# ---------------------------------------------------------------------------
# bound-validate against its exact expectations
#
# With x = 1 - eps for n iid rates, the sweep's difference is
# D = mean(x)^n - prod(x). Its first two moments need only m_k = E[x^k]: with
# f(t) = sum_k m_k t^k / k! = E[e^{t x}], E[(sum x)^j] = j! [t^j] f(t)^n, and
# E[(sum x)^n prod x] = n! [t^n] g(t)^n with g(t) = E[x e^{t x}], whose
# coefficients are m_{k+1} / k!. All coefficients are positive.


def survival_moments(mean, std, clip, count):
    """m_k = E[(1 - eps)^k] for k < count, eps = clip(N(mean, std^2), 0, clip):
    quadrature over the body (12 standard deviations either side of the mean
    hold all of it in double precision) plus the atoms at 0 and at clip."""
    def pdf(e):
        return math.exp(-0.5 * ((e - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))

    def cdf(e):
        return 0.5 * math.erfc(-(e - mean) / (std * math.sqrt(2.0)))
    lo, hi = max(0.0, mean - 12.0 * std), min(clip, mean + 12.0 * std)
    return np.array([cdf(0.0) + (1.0 - cdf(clip)) * (1.0 - clip) ** k
                     + quad(lambda e: (1.0 - e) ** k * pdf(e), lo, hi, epsabs=0.0,
                            epsrel=1e-13, limit=200)[0]
                     for k in range(count)])


def _power_coefficient(series, n, j):
    """[t^j] of the power series with coefficients `series` (from t^0) raised to n."""
    out = np.zeros(j + 1)
    out[0] = 1.0
    for _ in range(n):
        out = np.convolve(out, series[:j + 1])[:j + 1]
    return out[j]


def difference_moments(m, n):
    """(E[D], Var[D]) of D = mean(x)^n - prod(x) for n iid x with E[x^k] = m[k], k <= 2n.

    E[mean^n] and E[prod] = m_1^n are each near 1 and D is small, so the
    subtractions cancel: at bound-validate's smallest rate E[D] keeps about
    10 significant digits and Var[D] about 3 (its relative error reached
    2e-3 against 50-digit arithmetic), which moves a z-score by about 0.1%.
    """
    fact = np.array([math.factorial(k) for k in range(2 * n + 1)], dtype=float)
    f, g = m[:2 * n + 1] / fact, m[1:n + 2] / fact[:n + 1]
    mean_n = math.factorial(n) * _power_coefficient(f, n, n) / n**n
    mean_2n = math.factorial(2 * n) * _power_coefficient(f, n, 2 * n) / n ** (2 * n)
    cross = math.factorial(n) * _power_coefficient(g, n, n) / n**n  # E[mean^n prod]
    e_d = mean_n - m[1] ** n
    return e_d, mean_2n - 2.0 * cross + m[2] ** n - e_d**2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_difference_moments_match_enumeration(n):
    # the series against every profile of a three-point rate distribution
    values, weights = np.array([0.0, 0.1, 0.35]), np.array([0.5, 0.3, 0.2])
    m = np.array([weights @ (1.0 - values) ** k for k in range(2 * n + 1)])
    e_d = e_d2 = 0.0
    for idx in itertools.product(range(3), repeat=n):
        eps = values[list(idx)]
        d = success_dist(eps) - success_local(eps)
        w = np.prod(weights[list(idx)])
        e_d, e_d2 = e_d + w * d, e_d2 + w * d * d
    want = (e_d, e_d2 - e_d**2)
    np.testing.assert_allclose(difference_moments(m, n), want, rtol=1e-9, atol=1e-15)


def test_survival_moments_match_sampling():
    rng = np.random.default_rng(5)
    mean, std, clip = 0.05, 0.025, 0.1  # both atoms carry weight
    eps = sample_profiles(1, mean, std, rng, 10**6, clip=(0.0, clip))[:, 0]
    m = survival_moments(mean, std, clip, 6)
    assert m[0] == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 6):
        x = (1.0 - eps) ** k
        assert abs(x.mean() - m[k]) < 5.0 * x.std() / math.sqrt(eps.size), k


def test_bound_validate_matches_its_exact_expectations():
    # the shipped run's mean_difference against E[D]: over the 18 points the
    # squared z-scores, from the exact Var[D], sum to at most the 0.999
    # quantile of chi-squared with 18 degrees of freedom
    cfg = experiments.load_config("bound-validate")
    p = cfg.params
    assert p["n_list"] == [3, 7, 20] and p["rate_points"] == 6
    rows, _, _, _ = experiments.run_bound_validate(cfg)
    sweep = [r for r in rows if r["kind"] == "sweep"]
    stat = 0.0
    for row in sweep:
        n, mean = row["n"], row["mean_rate"]
        m = survival_moments(mean, p["std_factor"] * mean, p["rate_clip_max"], 2 * n + 1)
        e_d, var = difference_moments(m, n)
        assert 0.0 < e_d and 0.0 < var
        stat += (row["mean_difference"] - e_d) ** 2 / (var / row["trials"])
    assert len(sweep) == 18
    assert stat <= chi2.ppf(0.999, len(sweep)), stat  # 42.3
