import itertools
import math

import numpy as np
import pytest
import scipy.stats

from xorlab.field import build_field
from xorlab.sparsemat import BudgetExceededError
from xorlab.theory import (
    F,
    K_MAX,
    Phi,
    Phi_prime,
    Phi_second,
    S,
    U,
    bin_ge2_pmf,
    check_poly,
    fixed_points,
    in_check_class,
    in_variable_class,
    phi,
    po_ge2_pmf,
    po_pmf,
    predicted_detail,
    predicted_detail_tables,
    predicted_node_stats,
    threshold_dk,
    threshold_dk_star,
    threshold_report,
)


# -- independent oracles ------------------------------------------------------


def dense_grid_dk(k, lo=0.5, hi=None, tol=1e-6):
    """Threshold via a dense alpha grid maximizing Phi at each d.

    Deliberately ignores fixed_points: pure grid maximization plus
    bisection on d.
    """
    hi = hi if hi is not None else float(k)
    grid = np.linspace(0.0, 1.0, 200_001)

    def above(d):
        lam = d * grid ** (k - 1)
        vals = np.exp(-lam) + lam - d * (k - 1) / k * grid**k - d / k
        return vals[1:].max() > vals[0] + 1e-12

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def brute_bin_ge2(n, p, j):
    """Conditional binomial mass by exhaustive enumeration over {0,1}^n."""
    total = 0.0
    hit = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        w = sum(bits)
        prob = p ** w * (1 - p) ** (n - w)
        if w >= 2:
            total += prob
            if w == j:
                hit += prob
    return hit / total if total else float(j == 2)


# -- phi / Phi ---------------------------------------------------------------


def test_phi_endpoints():
    for d, k in [(1.5, 3), (2.5, 4), (9.0, 5)]:
        assert phi(d, k, 0.0) == 0.0
        assert phi(d, k, 1.0) == pytest.approx(1.0 - math.exp(-d))


def test_Phi_at_zero():
    for d, k in [(0.5, 3), (2.7, 3), (3.3, 4), (10.0, 7)]:
        assert Phi(d, k, 0.0) == pytest.approx(1.0 - d / k, abs=1e-14)


def test_domain_violations_refused():
    with pytest.raises(ValueError):
        phi(2.0, 2, 0.5)
    with pytest.raises(ValueError):
        phi(0.0, 3, 0.5)
    with pytest.raises(ValueError):
        phi(25.0, 3, 0.5)
    with pytest.raises(ValueError):
        Phi(2.0, 3, 1.5)


@pytest.mark.parametrize("d,k", [(2.0, 3), (2.9, 3), (3.5, 4), (6.0, 6)])
def test_Phi_prime_matches_finite_differences(d, k):
    h = 1e-6
    for alpha in np.linspace(h, 1 - h, 100):
        fd = (Phi(d, k, alpha + h) - Phi(d, k, alpha - h)) / (2 * h)
        assert Phi_prime(d, k, alpha) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("d,k", [(2.0, 3), (2.9, 3), (3.5, 4)])
def test_Phi_second_matches_finite_differences(d, k):
    h = 1e-5
    for alpha in np.linspace(0.02, 1 - h, 60):  # band [0, 0.01] excluded
        fd = (Phi(d, k, alpha + h) - 2 * Phi(d, k, alpha) + Phi(d, k, alpha - h)) / h**2
        assert Phi_second(d, k, alpha) == pytest.approx(fd, abs=1e-4)


# -- fixed points -------------------------------------------------------------


def test_zero_always_fixed():
    for d, k in [(0.3, 3), (2.0, 3), (5.0, 4)]:
        a_u, _, _ = fixed_points(d, k)
        assert a_u == 0.0


def test_subcritical_all_zero():
    # k = 3 critical density is about 2.455; below it only alpha = 0
    assert fixed_points(2.0, 3) == (0.0, 0.0, 0.0)
    assert fixed_points(1.0, 4) == (0.0, 0.0, 0.0)


def test_supercritical_residuals():
    for k in range(3, K_MAX + 1):
        for d in np.linspace(1.001 * threshold_dk_star(k), 20.0, 50).tolist():
            a_u, a_s, a_f = fixed_points(d, k)
            assert 0.0 == a_u < a_s < a_f < 1.0, (d, k)
            for a in (a_s, a_f):
                assert abs(phi(d, k, a) - a) <= 1e-14, (d, k, a)
                assert abs(Phi_prime(d, k, a)) <= 1e-6, (d, k, a)


@pytest.mark.parametrize("k", range(3, K_MAX + 1))
def test_positive_fixed_points_appear_at_dk_star(k):
    dstar = threshold_dk_star(k)
    assert fixed_points(dstar * (1 - 1e-9), k) == (0.0, 0.0, 0.0)
    assert fixed_points(dstar * (1 + 1e-9), k)[2] > 0.0


def test_fixed_points_sorted_and_stationary():
    for d in np.linspace(0.5, 6.0, 23):
        a_u, a_s, a_f = fixed_points(float(d), 3)
        assert a_u <= a_s <= a_f


def test_double_root_near_critical():
    k = 3
    dstar = threshold_dk_star(k)
    a_u, a_s, a_f = fixed_points(dstar, k)
    assert a_u == 0.0
    assert 0 < a_s <= a_f < 1.0
    assert a_f - a_s <= 1e-3


# -- thresholds ---------------------------------------------------------------


def test_threshold_k3_value():
    dk = threshold_dk(3)
    assert abs(dk / 3 - 0.91794) <= 1e-4
    assert 0.9175 <= dk / 3 <= 0.9184


@pytest.mark.parametrize("k", range(3, K_MAX + 1))
def test_threshold_against_dense_grid_oracle(k):
    assert abs(threshold_dk(k) - dense_grid_dk(k)) <= 1e-5


def test_dk_star_below_dk():
    for k in [3, 4, 5, 8]:
        assert 0 < threshold_dk_star(k) < threshold_dk(k)


def test_defining_equation_at_threshold():
    for k in [3, 4]:
        dk = threshold_dk(k)
        _, _, a_f = fixed_points(dk, k)
        assert abs(Phi(dk, k, a_f) - (1 - dk / k)) <= 1e-6


def test_Phi_max_position_switches_at_dk():
    k = 3
    dk = threshold_dk(k)
    for d in [dk - 0.05, dk - 0.01]:
        _, _, a_f = fixed_points(d, k)
        assert Phi(d, k, a_f) <= Phi(d, k, 0.0)
    for d in [dk + 0.01, dk + 0.05]:
        _, _, a_f = fixed_points(d, k)
        assert Phi(d, k, a_f) > Phi(d, k, 0.0)


def test_threshold_report_regimes():
    assert threshold_report(2.0, 3).regime == "below_dk_star"
    assert threshold_report(2.6, 3).regime == "between_dk_star_and_dk"
    assert threshold_report(3.3, 3).regime == "above_dk"
    rep = threshold_report(2.9, 3)
    assert rep.alpha_u <= rep.alpha_s <= rep.alpha_f
    assert rep.d_k_star < rep.d_k
    assert rep.phi_at_alpha_u == pytest.approx(1 - 2.9 / 3)
    assert isinstance(rep.to_dict(), dict)


# -- predicted statistics ------------------------------------------------------


def test_node_stats_at_zero_and_one():
    delta, gamma = predicted_node_stats(2.5, 3, 0.0)
    assert delta == {U: 1.0, S: 0.0, F: 0.0}
    assert gamma[U] == pytest.approx(1.0)
    delta1, gamma1 = predicted_node_stats(2.5, 3, 1.0)
    assert gamma1[F] == pytest.approx(1.0)
    assert gamma1[S] == pytest.approx(0.0)


def test_node_stats_normalized_on_grid():
    for alpha in np.linspace(0, 1, 1000):
        delta, gamma = predicted_node_stats(2.9, 3, float(alpha))
        assert sum(delta.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(gamma.values()) == pytest.approx(1.0, abs=1e-12)


def test_po_ge2_pmf():
    assert po_ge2_pmf(1.3, 1) == 0.0
    assert po_ge2_pmf(1.3, 0) == 0.0
    total = sum(po_ge2_pmf(1.3, j) for j in range(2, 80))
    assert total == pytest.approx(1.0, abs=1e-12)
    # tiny-lambda limit: point mass at 2
    assert po_ge2_pmf(1e-9, 2) == pytest.approx(1.0, abs=1e-6)


def test_poisson_laws_match_scipy():
    # over the theory box; scipy's own pmf goes subnormal below 1e-290, so those points are skipped
    assert [po_pmf(0.0, j) for j in range(3)] == [1.0, 0.0, 0.0]
    assert [po_ge2_pmf(0.0, j) for j in range(4)] == [0.0, 0.0, 1.0, 0.0]
    js = np.arange(81)
    for lam in [*np.geomspace(1e-9, 1.0, 37), *np.linspace(0.05, 20.0, 120)]:
        pmf = scipy.stats.poisson.pmf(js, lam)
        ge2 = np.where(js >= 2, pmf / scipy.stats.poisson.sf(1, lam), 0.0)
        for j in js[pmf >= 1e-290].tolist():
            assert po_pmf(lam, j) == pytest.approx(pmf[j], rel=1e-12, abs=0)
            assert po_ge2_pmf(lam, j) == pytest.approx(ge2[j], rel=1e-12, abs=0)


def test_bin_ge2_matches_scipy():
    ps = [0.0, 1.0, *np.geomspace(1e-12, 1.0, 25), *np.linspace(0.0, 1.0, 41),
          *(1.0 - np.geomspace(1e-12, 0.5, 13))]
    for n in range(3, 17):
        js = np.arange(n + 2)
        for p in ps:
            pmf = scipy.stats.binom.pmf(js, n, p)
            if p > 0:
                expected = np.where(js >= 2, pmf / scipy.stats.binom.sf(1, n, p), 0.0)
            else:
                expected = (js == 2).astype(float)
            for j in js.tolist():
                assert bin_ge2_pmf(n, p, j) == pytest.approx(expected[j], rel=1e-12, abs=0)


@pytest.mark.parametrize("n,p", [(3, 0.4), (6, 0.15), (10, 0.7), (8, 0.01)])
def test_bin_ge2_matches_enumeration(n, p):
    for j in range(0, n + 1):
        assert bin_ge2_pmf(n, p, j) == pytest.approx(brute_bin_ge2(n, p, j), abs=1e-12)


def test_gamma_f_detail_is_point_mass():
    d, k, alpha = 2.9, 3, 0.7
    _, dc = predicted_detail(d, k, alpha, F, (0, 0, 0, k))
    assert dc == pytest.approx(alpha**k)
    _, dc2 = predicted_detail(d, k, alpha, F, (0, 0, 1, k - 1))
    assert dc2 == 0.0


def test_detail_sums_to_node_fractions():
    d, k, alpha = 2.9, 3, 0.83
    delta, gamma = predicted_node_stats(d, k, alpha)
    dvar, dchk = predicted_detail_tables(d, k, alpha, cutoff=1e-14)
    for z in (U, S, F):
        var_total = sum(v for (zz, _), v in dvar.items() if zz == z)
        chk_total = sum(v for (zz, _), v in dchk.items() if zz == z)
        assert var_total == pytest.approx(delta[z], abs=1e-10)
        assert chk_total == pytest.approx(gamma[z], abs=1e-10)


def test_detail_alpha_zero_is_poisson_on_u():
    d, k = 2.0, 3
    dvar, _ = predicted_detail_tables(d, k, 0.0)
    for (z, ell), v in dvar.items():
        assert z == U and ell[1] == ell[2] == ell[3] == 0
        assert v == pytest.approx(float(scipy.stats.poisson.pmf(ell[0], d)), abs=1e-12)


def test_class_sets():
    k = 3
    assert in_variable_class(U, (5, 0, 0, 0))
    assert not in_variable_class(U, (5, 1, 0, 0))
    assert in_variable_class(S, (0, 3, 1, 0))
    assert in_variable_class(F, (0, 2, 0, 2))
    assert not in_variable_class(F, (0, 0, 0, 1))
    assert in_check_class(U, (2, 0, 1, 0), k)
    assert not in_check_class(U, (1, 0, 2, 0), k)
    assert in_check_class(S, (0, 1, 2, 0), k)
    assert in_check_class(F, (0, 0, 0, 3), k)


def test_predicted_detail_matches_tables():
    d, k, alpha = 2.5, 4, 0.6
    dvar, dchk = predicted_detail_tables(d, k, alpha, cutoff=1e-9)
    for (z, ell), v in list(dvar.items())[:20]:
        dv, _ = predicted_detail(d, k, alpha, z, ell)
        assert dv == pytest.approx(v, abs=1e-12)
    for (z, ell), v in dchk.items():
        _, dc = predicted_detail(d, k, alpha, z, ell)
        assert dc == pytest.approx(v, abs=1e-12)


# -- check polynomial -----------------------------------------------------------


def test_check_poly_uniform_is_one_over_q():
    for q, k in [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]:
        f = build_field(q)
        chi = [1] * k
        r = np.full(q, 1.0 / q)
        assert check_poly(f, chi, r) == pytest.approx(1.0 / q, abs=1e-12)


def test_check_poly_gf2_parity_identity():
    # classical identity: sum over even-weight sigma of rho^w (1-rho)^(3-w)
    # equals (1 + (1-2 rho)^3) / 2 -- recomputed here by direct expansion
    f = build_field(2)
    for rho in [0.1, 0.35, 0.5, 0.8]:
        expected = 0.0
        for bits in itertools.product([0, 1], repeat=3):
            if sum(bits) % 2 == 0:
                w = sum(bits)
                expected += rho**w * (1 - rho) ** (3 - w)
        assert expected == pytest.approx((1 + (1 - 2 * rho) ** 3) / 2, abs=1e-12)
        got = check_poly(f, [1, 1, 1], [1 - rho, rho])
        assert got == pytest.approx(expected, abs=1e-12)


def test_check_poly_third_order_flatness():
    # |f(r_eps) - 1/q| = O(eps^3): successive ratios near 8 when eps halves
    for q, k in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        f = build_field(q)
        chi = [1] * k
        v = np.zeros(q)
        v[0], v[1] = 1.0, -1.0
        diffs = []
        for eps in (0.1, 0.05, 0.025):
            r = np.full(q, 1.0 / q) + eps * v / np.linalg.norm(v, 1) * 2
            r = r / r.sum()
            diffs.append(abs(check_poly(f, chi, r) - 1.0 / q))
        if all(x > 1e-14 for x in diffs):
            for a, b in zip(diffs, diffs[1:]):
                assert 2.0 <= a / b <= 32.0  # within factor 4 of 8


def test_check_poly_budget():
    f = build_field(4)
    with pytest.raises(BudgetExceededError):
        check_poly(f, [1] * 12, np.full(4, 0.25), budget=100)


def test_check_poly_respects_coefficients():
    # coefficients change the solution set but not the uniform value
    f = build_field(5)
    r = np.full(5, 0.2)
    assert check_poly(f, [2, 3, 4], r) == pytest.approx(0.2, abs=1e-12)
