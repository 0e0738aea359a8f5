import math

import numpy as np
import pytest
import scipy.stats

from xorlab import ensemble
from xorlab.ensemble import (
    AllOnes,
    EnsembleParams,
    ExplicitTable,
    SeededNonzero,
    gen_base,
    gen_interpolated,
    gen_pinned,
    is_solvable,
    pin,
    pin_count_bound,
    xorsat_instance,
)
from xorlab.field import build_field
from xorlab.sparsemat import SparseMatrix, frozen_set, rank
from xorlab.theory import fixed_points

from tests import oracles


def params(**kw):
    base = dict(n=30, k=3, q=2, d=2.0, seed=42)
    base.update(kw)
    return EnsembleParams(**base)


def test_param_validation():
    with pytest.raises(ValueError):
        EnsembleParams(n=10, k=3, q=2)  # neither m nor d
    with pytest.raises(ValueError):
        EnsembleParams(n=10, k=3, q=2, m=5, d=1.0)  # both
    with pytest.raises(ValueError):
        EnsembleParams(n=2, k=3, q=2, m=1)  # k > n
    with pytest.raises(ValueError):
        EnsembleParams(n=10, k=2, q=2, m=1)  # k < 3


def test_density_roundtrip():
    p = EnsembleParams(n=100, k=4, q=2, d=2.0, seed=1)
    assert p.m_rows == 50
    p2 = EnsembleParams(n=100, k=4, q=2, m=50, seed=1)
    assert p2.density == pytest.approx(2.0)


def test_gen_base_row_weights():
    p = params(n=5, k=3, m=2, d=None)
    A = gen_base(p, p.make_rng())
    assert A.n_rows == 2 and A.n_cols == 5
    for row in A.rows:
        cols = [c for c, _ in row]
        assert len(cols) == 3 and len(set(cols)) == 3


def test_gen_base_empty():
    p = params(m=0, d=None)
    A = gen_base(p, p.make_rng())
    assert A.n_rows == 0
    from xorlab.sparsemat import nullity

    assert nullity(A) == p.n


def test_all_ones_scheme():
    p = params(q=2, scheme=AllOnes())
    A = gen_base(p, p.make_rng())
    assert all(v == 1 for row in A.rows for _, v in row)


def test_determinism_bit_identical():
    for scheme in [AllOnes(), SeededNonzero(7)]:
        p = params(q=4, scheme=scheme)
        A = gen_base(p, p.make_rng())
        B = gen_base(p, p.make_rng())
        assert A == B


def test_seeded_nonzero_is_nonzero_and_addressable():
    f = build_field(9)
    s = SeededNonzero(3)
    vals = [s.coefficient(f, i, j) for i in range(20) for j in range(5)]
    assert all(1 <= v < 9 for v in vals)
    # addressing is order-independent
    assert s.coefficient(f, 13, 2) == s.coefficient(f, 13, 2)


def test_explicit_table():
    f = build_field(5)
    t = ExplicitTable([[2, 3, 4], [1, 1, 1]])
    assert t.coefficient(f, 0, 1) == 3
    with pytest.raises(ValueError):
        t.coefficient(f, 0, 7)
    with pytest.raises(ValueError):
        ExplicitTable([[0, 1]])


def test_pin_basics():
    p = params()
    rng = p.make_rng()
    A = gen_base(p, rng)
    assert pin(A, 0, rng) == A
    B = pin(A, 5, rng)
    assert B.n_rows == A.n_rows + 5
    for row in B.rows[A.n_rows:]:
        assert len(row) == 1 and row[0][1] == 1


def test_pin_coupon_collector():
    # pinning a 0 x n matrix with 10n rows freezes everything almost surely
    n, trials, hits = 20, 200, 0
    f = build_field(2)
    empty = SparseMatrix.zero(f, 0, n)
    rng = np.random.default_rng(77)
    for _ in range(trials):
        B = pin(empty, 10 * n, rng)
        if frozen_set(B) == frozenset(range(n)):
            hits += 1
    assert hits >= trials - 2


def test_gen_pinned_t_range():
    with pytest.raises(ValueError):
        EnsembleParams(n=2, k=3, q=2, m=1)  # k > n rejected at construction
    p = EnsembleParams(n=3, k=3, q=2, m=1, seed=5)
    assert pin_count_bound(2) == 1  # ceil(ln 2) = 1
    for trial in range(10):
        A, t = gen_pinned(p, np.random.default_rng(trial))
        assert 1 <= t <= pin_count_bound(3)
        assert A.n_rows == 1 + t


def test_row_support_uniformity():
    # n=6, k=3: each of the 20 supports frequency 0.05 +- 0.01
    p = EnsembleParams(n=6, k=3, q=2, m=100_000, seed=11)
    A = gen_base(p, p.make_rng())
    counts: dict[tuple, int] = {}
    for row in A.rows:
        key = tuple(c for c, _ in row)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 20
    for c in counts.values():
        assert abs(c / p.m_rows - 0.05) <= 0.01


def test_column_degrees_near_poisson():
    # total variation between the empirical degree histogram and Po(d)
    p = EnsembleParams(n=10_000, k=3, q=2, d=2.5, seed=3)
    A = gen_base(p, p.make_rng())
    deg = np.zeros(p.n, dtype=int)
    for row in A.rows:
        for c, _ in row:
            deg[c] += 1
    hist = np.bincount(deg, minlength=30) / p.n
    pois = scipy.stats.poisson.pmf(np.arange(len(hist)), p.density)
    pois[-1] += 1.0 - pois.sum()
    tv = 0.5 * np.abs(hist - pois).sum()
    assert tv <= 0.05


def test_interpolated_theta_one_counts_zero_columns():
    p = EnsembleParams(n=2000, k=3, q=2, d=3.0, seed=9)
    alpha_f = fixed_points(3.0, 3)[2]
    A = gen_interpolated(p, 1.0, alpha_f, p.make_rng())
    # all rows unary
    assert all(len(r) == 1 for r in A.rows)
    touched = {c for row in A.rows for c, _ in row}
    from xorlab.sparsemat import nullity

    assert nullity(A) == p.n - len(touched)


def test_interpolated_theta_zero_has_weight_k_rows():
    p = EnsembleParams(n=200, k=3, q=2, d=2.0, seed=10)
    A = gen_interpolated(p, 0.0, 0.5, p.make_rng())
    weights = [len(r) for r in A.rows]
    assert set(weights) <= {1, 3}
    # unary rows here come from pinning only: at most ceil(ln n)
    assert weights.count(1) <= pin_count_bound(p.n)


def test_xorsat_solvability():
    p = EnsembleParams(n=40, k=3, q=3, d=1.5, seed=21)
    rng = p.make_rng()
    A, y = xorsat_instance(p, rng)
    assert len(y) == A.n_rows
    # m = 0 -> trivially solvable
    p0 = EnsembleParams(n=10, k=3, q=2, m=0, seed=1)
    A0, y0 = xorsat_instance(p0, p0.make_rng())
    assert y0.size == 0 and is_solvable(A0, y0)


def test_full_row_rank_implies_solvable_for_every_y():
    p = EnsembleParams(n=20, k=3, q=2, m=8, seed=33)
    rng = p.make_rng()
    A = gen_base(p, rng)
    if rank(A) == A.n_rows:
        for trial in range(10):
            y = np.random.default_rng(trial).integers(0, 2, size=A.n_rows)
            assert is_solvable(A, y)


def test_params_json_roundtrip():
    for scheme in [AllOnes(), SeededNonzero(5), ExplicitTable([[1, 2]])]:
        p = EnsembleParams(n=50, k=4, q=9, d=1.25, scheme=scheme, seed=99)
        assert EnsembleParams.from_json(p.to_json()) == p
    p2 = EnsembleParams(n=50, k=4, q=9, m=17, seed=99)
    assert EnsembleParams.from_json(p2.to_json()) == p2


def _random_params(rng) -> EnsembleParams:
    q = int(rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 27, 31, 32]))
    k = int(rng.integers(3, 7))
    n = int(rng.integers(k, 80))
    kind = rng.integers(3)
    if kind == 0:
        scheme = AllOnes()
    elif kind == 1:
        scheme = SeededNonzero(int(rng.integers(0, 2**63)) << int(rng.integers(0, 65)))
    else:
        scheme = ExplicitTable(rng.integers(1, q, size=(4 * n, n)).tolist())
    return EnsembleParams(n=n, k=k, q=q, d=float(rng.uniform(0.5, 3.5)),
                          scheme=scheme, seed=int(rng.integers(2**32)))


@pytest.mark.parametrize("generator", ["gen_base", "gen_pinned", "gen_interpolated"])
def test_generators_match_scalar_oracle(generator):
    draw = np.random.default_rng(["gen_base", "gen_pinned", "gen_interpolated"].index(generator))
    for _ in range(60):
        p = _random_params(draw)
        if generator == "gen_base":
            got, want = gen_base(p, p.make_rng()), oracles.reference_gen_base(p, p.make_rng())
        elif generator == "gen_pinned":
            got, want = gen_pinned(p, p.make_rng()), oracles.reference_gen_pinned(p, p.make_rng())
        else:
            theta, alpha_f = float(draw.uniform()), float(draw.uniform())
            got = gen_interpolated(p, theta, alpha_f, p.make_rng())
            want = oracles.reference_gen_interpolated(p, theta, alpha_f, p.make_rng())
        assert got == want, p


@pytest.mark.parametrize("key", [0, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_seeded_coefficients_match_numpy_philox(key):
    draw = np.random.default_rng(key % 997)
    # numpy's Philox clamps counter words given as ints at 2^63
    rows, cols = (
        np.concatenate([draw.integers(0, 5000, 60), draw.integers(0, 2**63, 20)])
        for _ in range(2)
    )
    scheme = SeededNonzero(key)
    # the prime 2^32 + 15 takes numpy's 64-bit bounded map, hence the scalar path
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 31, 32, 2**32 + 15):
        got = scheme.coefficients(build_field(q), rows, cols)
        want = [oracles.philox_coefficient(key, q, int(r), int(c)) for r, c in zip(rows, cols)]
        assert got.tolist() == want, q


def test_seeded_coefficients_rejected_draws_take_scalar_path(monkeypatch):
    # q = 7: numpy rejects a low word x when (6 x mod 2^32) < (2^32 - 6) mod 6 = 4,
    # so x = 0 is redrawn from the next 32 bits; x = 2^32 - 1 maps to 1 + 5
    f, scheme = build_field(7), SeededNonzero(2**64 + 5)
    rows, cols = np.arange(40), np.arange(40) % 7
    scalar = [scheme.coefficient(f, int(r), int(c)) for r, c in zip(rows, cols)]
    assert set(scalar) != {1}
    monkeypatch.setattr(ensemble, "_philox4x64_first_word",
                        lambda key, c2, c3: np.zeros(c2.shape, dtype=np.uint64))
    assert scheme.coefficients(f, rows, cols).tolist() == scalar
    monkeypatch.setattr(ensemble, "_philox4x64_first_word",
                        lambda key, c2, c3: np.full(c2.shape, 2**32 - 1, dtype=np.uint64))
    assert scheme.coefficients(f, rows, cols).tolist() == [6] * 40


def test_seeded_seed_range():
    SeededNonzero(2**128 - 1)
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match="2\\^128"):
            SeededNonzero(bad)
