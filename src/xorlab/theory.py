"""Closed-form threshold machinery for sparse random GF(q) matrices.

Everything is driven by the scalar map

    phi_{d,k}(a) = 1 - exp(-d a^(k-1))

and its potential

    Phi_{d,k}(a) = exp(-d a^(k-1)) + d a^(k-1) - d (k-1)/k a^k - d/k,

whose stationary points are exactly the fixed points of phi.  The
full-rank threshold d_k is the largest d at which the global maximum of
Phi on [0, 1] still sits at a = 0 (where Phi(0) = 1 - d/k); the smaller
critical density d_k^* is where a positive fixed point first appears.
A positive a is a fixed point exactly when d = d(a) = -ln(1-a)/a^(k-1),
so the fixed points, d_k^* and d_k are each one bisection in a.

The module also evaluates the predicted warning-propagation node
statistics: per-label node fractions, the per-(label, message-profile)
detail tables driven by conditional Poisson/Binomial laws, and the
check-satisfaction polynomial used in the near-uniform expansion.

Supported parameter box: 3 <= k <= 16 and 0 < d <= 20, where the
double-precision evaluation of a^(k-1) and the Poisson tails are
well-conditioned.  Calls outside the box are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np

from xorlab.field import Field
from xorlab.sparsemat import BudgetExceededError

D_MAX = 20.0
K_MAX = 16

# label symbols for variable / check classes
U, S, F = "u", "s", "f"
LABELS = (U, S, F)


def _check_box(d: float, k: int) -> None:
    if not isinstance(k, (int, np.integer)) or not 3 <= k <= K_MAX:
        raise ValueError(f"k must be an integer in [3, {K_MAX}], got {k}")
    if not 0.0 < d <= D_MAX:
        raise ValueError(f"d must lie in (0, {D_MAX}], got {d}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def phi(d: float, k: int, alpha: float) -> float:
    _check_box(d, k)
    _check_alpha(alpha)
    return 1.0 - math.exp(-d * alpha ** (k - 1))


def Phi(d: float, k: int, alpha: float) -> float:
    _check_box(d, k)
    _check_alpha(alpha)
    lam = d * alpha ** (k - 1)
    return math.exp(-lam) + lam - d * (k - 1) / k * alpha**k - d / k


def Phi_prime(d: float, k: int, alpha: float) -> float:
    _check_box(d, k)
    _check_alpha(alpha)
    return d * (k - 1) * alpha ** (k - 2) * (phi(d, k, alpha) - alpha)


def Phi_second(d: float, k: int, alpha: float) -> float:
    _check_box(d, k)
    _check_alpha(alpha)
    ph = phi(d, k, alpha)
    # phi'(a) = d (k-1) a^(k-2) exp(-d a^(k-1))
    php = d * (k - 1) * alpha ** (k - 2) * (1.0 - ph)
    # 0.0 ** 0 == 1.0 handles the k = 3, alpha = 0 corner
    first = d * (k - 1) * (k - 2) * alpha ** (k - 3) * (ph - alpha)
    return first - d * (k - 1) * alpha ** (k - 2) * (1.0 - php)


def _root(f, lo: float, hi: float) -> float:
    """Where f turns from negative to non-negative on (lo, hi), to adjacent doubles.

    The bisection evaluates only interior points, so f may be undefined
    at the ends.
    """
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _density_at(k: int, a: float) -> float:
    """d(a) = -ln(1 - a) / a^(k-1), the one density at which a in (0, 1) is a fixed point of phi."""
    return -math.log1p(-a) / a ** (k - 1)


def _critical_alpha(k: int) -> float:
    """The minimizer alpha_c of d(a) on (0, 1).

    d'(a) has the sign of a + (k-1)(1-a) ln(1-a), which is convex, zero at
    a = 0 with slope 2 - k < 0, and positive at a = 1.
    """
    return _root(lambda a: a + (k - 1) * (1.0 - a) * math.log1p(-a), 0.0, 1.0)


def fixed_points(d: float, k: int) -> tuple[float, float, float]:
    """All fixed points of phi in [0, 1], as (alpha_u, alpha_s, alpha_f).

    alpha = 0 is always a fixed point, and a in (0, 1) is one exactly when
    d = d(a).  d(a) falls from infinity to d_k^* = d(alpha_c) and rises
    back to infinity, so above d_k^* there is one positive root on each
    side of alpha_c.  Sub-critical densities report (0, 0, 0), and d_k^*
    itself the double root (0, alpha_c, alpha_c).
    """
    _check_box(d, k)
    a_c = _critical_alpha(k)
    d_star = _density_at(k, a_c)
    if d < d_star:
        return (0.0, 0.0, 0.0)
    if d == d_star:
        return (0.0, a_c, a_c)
    return (
        0.0,
        _root(lambda a: d - _density_at(k, a), 0.0, a_c),
        _root(lambda a: _density_at(k, a) - d, a_c, 1.0),
    )


def threshold_dk(k: int) -> float:
    """The full-rank threshold density d_k.

    Phi rises only on (alpha_s, alpha_f), so its maximum over (0, 1] sits
    at alpha_f.  At d = d(a) the gap Phi(a) - Phi(0) is
    -a - (1 - (k-1)a/k) ln(1-a): negative at alpha_c, unbounded as a -> 1,
    and increasing in d along alpha_f (its d-derivative is a^k / k).  So
    d_k is d(a) at the one root of the gap in (alpha_c, 1).
    """
    _check_box(1.0, k)
    a = _root(lambda a: -a - (1.0 - (k - 1) * a / k) * math.log1p(-a), _critical_alpha(k), 1.0)
    return _density_at(k, a)


def threshold_dk_star(k: int) -> float:
    """The critical density d_k^* = min d(a), where a positive fixed point first appears."""
    _check_box(1.0, k)
    return _density_at(k, _critical_alpha(k))


@dataclass(frozen=True)
class ThresholdReport:
    """Fixed points, thresholds and Phi values for one (d, k)."""

    d: float
    k: int
    alpha_u: float
    alpha_s: float
    alpha_f: float
    d_k: float
    d_k_star: float
    phi_at_alpha_u: float
    phi_at_alpha_s: float
    phi_at_alpha_f: float
    regime: str

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_report(d: float, k: int) -> ThresholdReport:
    dk = threshold_dk(k)
    dks = threshold_dk_star(k)
    a_u, a_s, a_f = fixed_points(d, k)
    if a_f == 0.0:
        regime = "below_dk_star"
    elif a_s == a_f:
        regime = "at_dk_star"
    elif d > dk:
        regime = "above_dk"
    else:
        regime = "between_dk_star_and_dk"
    return ThresholdReport(
        d=d,
        k=k,
        alpha_u=a_u,
        alpha_s=a_s,
        alpha_f=a_f,
        d_k=dk,
        d_k_star=dks,
        phi_at_alpha_u=Phi(d, k, a_u),
        phi_at_alpha_s=Phi(d, k, a_s),
        phi_at_alpha_f=Phi(d, k, a_f),
        regime=regime,
    )


# -- predicted WP statistics ---------------------------------------------


def predicted_node_stats(d: float, k: int, alpha: float):
    """Per-label node fractions (delta for variables, gamma for checks)."""
    _check_box(d, k)
    _check_alpha(alpha)
    lam = d * alpha ** (k - 1)
    delta = {
        U: math.exp(-lam),
        S: lam * math.exp(-lam),
        F: 1.0 - math.exp(-lam) * (1.0 + lam),
    }
    gamma = {
        U: 1.0 - k * (1.0 - alpha) * alpha ** (k - 1) - alpha**k,
        S: k * (1.0 - alpha) * alpha ** (k - 1),
        F: alpha**k,
    }
    return delta, gamma


def po_pmf(lam: float, j: int) -> float:
    """P[Po(lam) = j]; lam = 0 is the point mass at 0."""
    if lam <= 0:
        return float(j == 0)
    return math.exp(j * math.log(lam) - math.lgamma(j + 1) - lam)


def po_ge2_pmf(lam: float, j: int) -> float:
    """P[Po(lam) = j | Po(lam) >= 2]; the lam -> 0 limit is a point mass at 2."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if j < 2:
        return 0.0
    if lam >= 1.0:
        return po_pmf(lam, j) / (1.0 - math.exp(-lam) * (1.0 + lam))
    # series guard: 1 - e^-lam (1 + lam) cancels as lam -> 0 (2e-6 relative
    # error at lam = 1e-5), so divide 2 lam^(j-2) / j! by the positive series
    # sum_{i >= 2} 2 lam^(i-2) / i! = 1 + lam/3 + lam^2/12 + ...
    total, term, i = 0.0, 1.0, 2
    while total + term != total:
        total += term
        i += 1
        term *= lam / i
    return lam ** (j - 2) * math.exp(math.lgamma(3) - math.lgamma(j + 1)) / total


def bin_ge2_pmf(n: int, p: float, j: int) -> float:
    """P[Bin(n, p) = j | Bin(n, p) >= 2]; the p -> 0 limit is a point mass at 2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if j < 2 or j > n:
        return 0.0
    if p == 0.0:
        return float(j == 2)
    # the tail sums the i >= 2 terms rather than subtracting from 1, so small p does not cancel
    pmf = [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(2, n + 1)]
    tail = math.fsum(pmf)
    if tail <= 0.0:
        return float(j == 2)
    return pmf[j - 2] / tail


# message-profile vectors ell = (l_uu, l_uf, l_fu, l_ff); the first index
# is the incoming message, the second the outgoing one


def in_variable_class(z: str, ell) -> bool:
    luu, luf, lfu, lff = ell
    if min(ell) < 0:
        return False
    if z == U:
        return lfu == 0 and luf == 0 and lff == 0
    if z == S:
        return lfu == 1 and lff == 0 and luu == 0
    if z == F:
        return luu == 0 and lfu == 0 and lff >= 2
    raise ValueError(f"unknown label {z!r}")


def in_check_class(z: str, ell, k: int) -> bool:
    luu, luf, lfu, lff = ell
    if min(ell) < 0:
        return False
    if z == U:
        return luf == 0 and lff == 0 and luu >= 2 and lfu == k - luu
    if z == S:
        return luu == 0 and lff == 0 and luf == 1 and lfu == k - 1
    if z == F:
        return luu == 0 and luf == 0 and lfu == 0 and lff == k
    raise ValueError(f"unknown label {z!r}")


def predicted_detail(d: float, k: int, alpha: float, z: str, ell) -> tuple[float, float]:
    """(variable, check) detail masses for one label and message profile."""
    _check_box(d, k)
    _check_alpha(alpha)
    delta, gamma = predicted_node_stats(d, k, alpha)
    lam = d * alpha ** (k - 1)
    mu = d - lam
    luu, luf, lfu, lff = ell

    dv = 0.0
    if in_variable_class(z, ell):
        if z == U:
            dv = delta[U] * po_pmf(mu, luu)
        elif z == S:
            dv = delta[S] * po_pmf(mu, luf)
        else:
            dv = delta[F] * po_ge2_pmf(lam, lff) * po_pmf(mu, luf)

    dc = 0.0
    if in_check_class(z, ell, k):
        if z == U:
            dc = gamma[U] * bin_ge2_pmf(k, 1.0 - alpha, luu)
        elif z == S:
            dc = gamma[S]
        else:
            dc = gamma[F]
    return dv, dc


def predicted_detail_tables(d: float, k: int, alpha: float, cutoff: float = 1e-12):
    """All (z, ell) entries with mass >= cutoff, as two dicts.

    The profile space is infinite on the variable side; entries are
    enumerated out to where the Poisson factors fall below the cutoff.
    """
    _check_box(d, k)
    _check_alpha(alpha)
    delta, gamma = predicted_node_stats(d, k, alpha)
    lam = d * alpha ** (k - 1)
    mu = d - lam

    def po_range(rate: float, scale: float):
        out = []
        j = 0
        while True:
            p = po_pmf(rate, j)
            if scale * p >= cutoff:
                out.append((j, p))
            if j > rate and scale * p < cutoff:
                break
            j += 1
            if j > 500:  # pragma: no cover - inside the parameter box
                break
        return out

    dvar: dict[tuple[str, tuple[int, int, int, int]], float] = {}
    for j, p in po_range(mu, delta[U]):
        dvar[(U, (j, 0, 0, 0))] = delta[U] * p
    for j, p in po_range(mu, delta[S]):
        dvar[(S, (0, j, 1, 0))] = delta[S] * p
    if delta[F] >= cutoff:
        a = 2
        while True:
            pa = po_ge2_pmf(lam, a)
            if delta[F] * pa >= cutoff:
                for j, p in po_range(mu, delta[F] * pa):
                    dvar[(F, (0, j, 0, a))] = delta[F] * pa * p
            if a > lam + 2 and delta[F] * pa < cutoff:
                break
            a += 1
            if a > 500:  # pragma: no cover
                break

    dchk: dict[tuple[str, tuple[int, int, int, int]], float] = {}
    for j in range(2, k + 1):
        v = gamma[U] * bin_ge2_pmf(k, 1.0 - alpha, j)
        if v >= cutoff:
            dchk[(U, (j, 0, k - j, 0))] = v
    if gamma[S] >= cutoff:
        dchk[(S, (0, 1, k - 1, 0))] = gamma[S]
    if gamma[F] >= cutoff:
        dchk[(F, (0, 0, 0, k))] = gamma[F]
    return dvar, dchk


# -- check polynomial -------------------------------------------------------


def check_poly(field: Field, chi, r, *, budget: int = 1_000_000) -> float:
    """Sum over the solutions of one weight-k check of prod_s r_s^(count of s).

    ``chi`` is the coefficient vector (its support defines the check),
    ``r`` a probability vector over the field.  Enumerates the
    q^(k-1)-element solution space directly.
    """
    chi = list(chi)
    support = [j for j, c in enumerate(chi) if c]
    k = len(support)
    if k < 1:
        raise ValueError("check must have nonempty support")
    r = np.asarray(r, dtype=np.float64)
    if r.size != field.q or np.any(r < 0) or abs(r.sum() - 1.0) > 1e-9:
        raise ValueError("r must be a probability vector over the field")
    if field.q ** (k - 1) > budget:
        raise BudgetExceededError(
            f"check_poly needs q^(k-1) = {field.q ** (k - 1)} > budget {budget}"
        )
    coeff_last = chi[support[-1]]
    inv_last = field.inv(coeff_last)
    total = 0.0
    free = support[:-1]
    for assign in itertools.product(range(field.q), repeat=len(free)):
        acc = 0
        for sigma_j, j in zip(assign, free):
            acc = field.add(acc, field.mul(sigma_j, chi[j]))
        last = field.mul(field.neg(acc), inv_last)
        prod = r[last]
        for sigma_j in assign:
            prod *= r[sigma_j]
        total += prod
    return float(total)
