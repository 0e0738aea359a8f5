import math

import numpy as np
import pytest

from xorlab.ensemble import AllOnes, EnsembleParams, SeededNonzero, gen_base, gen_interpolated
from xorlab.field import build_field
from xorlab.peel import _MERGE_CAP, _reduce, has_full_row_rank, rank_via_core, two_core
from xorlab.sparsemat import SparseMatrix, rank
from xorlab.theory import threshold_dk_star

from tests.oracles import random_sparse

GF2 = build_field(2)


def mat(rows, n):
    return SparseMatrix.from_rows(GF2, n, rows)


def shuffled_order_core(A, rng):
    """Reference peeling that removes a RANDOM eligible column each step."""
    degree = [0] * A.n_cols
    col_rows = [[] for _ in range(A.n_cols)]
    for i, row in enumerate(A.rows):
        for c, _ in row:
            degree[c] += 1
            col_rows[c].append(i)
    row_alive = [True] * A.n_rows
    col_alive = [True] * A.n_cols
    while True:
        eligible = [j for j in range(A.n_cols) if col_alive[j] and degree[j] <= 1]
        if not eligible:
            break
        j = eligible[int(rng.integers(0, len(eligible)))]
        col_alive[j] = False
        if degree[j] == 1:
            i = next(r for r in col_rows[j] if row_alive[r])
            row_alive[i] = False
            for c, _ in A.rows[i]:
                if col_alive[c]:
                    degree[c] -= 1
    return (
        frozenset(i for i in range(A.n_rows) if row_alive[i]),
        frozenset(j for j in range(A.n_cols) if col_alive[j]),
    )


def test_single_row_peels_to_empty():
    A = mat([[(0, 1), (1, 1), (2, 1)]], 3)
    res = two_core(A)
    assert res.core_rows == 0 and res.core_cols == 0
    assert set(res.removed_cols) == {0, 1, 2}
    assert res.removed_rows == (0,)


def test_identity_peels_to_empty():
    A = SparseMatrix.identity(GF2, 2)
    res = two_core(A)
    assert res.core_rows == 0 and res.core_cols == 0


def test_triangle_is_its_own_core():
    A = mat([[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, 1), (2, 1)]], 3)
    res = two_core(A)
    assert res.core.matrix == A
    assert res.excess == 0


def test_degree_zero_column_removed_without_row():
    A = mat([[(0, 1), (1, 1)], [(0, 1), (1, 1)]], 3)  # column 2 untouched
    res = two_core(A)
    assert 2 in res.removed_cols
    assert res.core_cols == 2 and res.core_rows == 2


def test_excess_empty_core_is_zero():
    assert two_core(SparseMatrix.identity(GF2, 3)).excess == 0


@pytest.mark.parametrize("q", [2, 3])
def test_confluence_against_shuffled_order(q):
    f = build_field(q)
    rng = np.random.default_rng(123)
    for trial in range(100):
        n = int(rng.integers(5, 30))
        p = EnsembleParams(n=n, k=3, q=q, d=float(rng.uniform(1.0, 3.5)), seed=trial)
        A = gen_base(p, p.make_rng())
        res = two_core(A)
        det = (frozenset(res.core.kept_rows), frozenset(res.core.kept_cols))
        assert det == shuffled_order_core(A, rng)
        for removed, kept, size in ((res.removed_rows, res.core.kept_rows, A.n_rows),
                                    (res.removed_cols, res.core.kept_cols, A.n_cols)):
            assert list(removed) == sorted(set(removed))  # strictly increasing
            assert set(removed) == set(range(size)) - set(kept)


def test_rank_via_core_matches_direct_rank():
    rng = np.random.default_rng(7)
    for q in [2, 3, 4]:
        f = build_field(q)
        for trial in range(15):
            A = random_sparse(f, int(rng.integers(1, 15)), int(rng.integers(2, 15)), rng, density=0.25)
            check_reduction(A)


def column_degrees(M):
    return np.bincount(M.cols, minlength=M.n_cols)


def row_lengths(M):
    return np.diff(M.indptr)


def check_reduction(A):
    """rank through the merges equals direct elimination; R is peeled and capped."""
    deleted, R = _reduce(A)
    rk = rank(A)
    assert deleted + rank(R) == rk
    assert rank_via_core(A) == rk
    assert has_full_row_rank(A) == (rk == A.n_rows)
    assert R.n_rows == A.n_rows - deleted
    assert np.all(column_degrees(R) >= 2)  # nothing left to peel
    assert row_lengths(R).max(initial=0) <= max(_MERGE_CAP, row_lengths(A).max(initial=0))
    return deleted, R


def test_reduction_matches_direct_rank_on_the_ensemble():
    rng = np.random.default_rng(20)
    merged = 0
    for trial in range(600):
        q = (2, 3, 4, 5, 9)[trial % 5]
        n = round(math.exp(rng.uniform(math.log(10), math.log(200))))  # log-uniform: most are small
        k = int(rng.integers(3, 6))
        m = round(n * float(rng.uniform(0.6, 1.1)))
        scheme = SeededNonzero(trial) if trial % 2 else AllOnes()
        p = EnsembleParams(n=n, k=k, q=q, m=m, scheme=scheme, seed=trial)
        deleted, _ = check_reduction(gen_base(p, p.make_rng()))
        merged += deleted > 0
    assert merged > 300  # most instances are reduced, not only checked


def test_reduction_of_empty_matrices():
    for shape in [(0, 0), (0, 4), (3, 0), (3, 4)]:
        A = SparseMatrix.zero(GF2, *shape)
        deleted, R = check_reduction(A)
        assert deleted == 0 and R.n_rows == shape[0] and R.n_cols == 0


def test_merging_a_duplicated_row_leaves_a_zero_row():
    A = mat([[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 1), (2, 1)]], 4)
    deleted, R = check_reduction(A)
    assert deleted == 1 and (R.n_rows, R.n_cols, R.nnz) == (1, 0, 0)


def test_merging_twice_a_row_over_gf3_leaves_a_zero_row():
    A = SparseMatrix.from_rows(build_field(3), 2, [[(0, 1), (1, 1)], [(0, 2), (1, 2)]])
    deleted, R = check_reduction(A)
    assert deleted == 1 and (R.n_rows, R.n_cols, R.nnz) == (1, 0, 0)


def capped_chain(s):
    """Rows a = {0} + S0 and b = {0} + S1 with |S0| + |S1| = s; two rows over
    S0 + S1 keep every other column at degree 3, so column 0 is the only
    candidate and merging it leaves a row of s entries."""
    S0, S1 = range(1, s // 2 + 1), range(s // 2 + 1, s + 1)
    rest = [(j, 1) for j in [*S0, *S1]]
    return mat([[(0, 1), *((j, 1) for j in S0)], [(0, 1), *((j, 1) for j in S1)], rest, rest],
               s + 1)


def test_merge_up_to_the_cap():
    deleted, R = check_reduction(capped_chain(_MERGE_CAP))
    assert deleted == 1 and R.n_rows == 3 and row_lengths(R).tolist() == [_MERGE_CAP] * 3


def test_merge_past_the_cap_is_skipped():
    A = capped_chain(_MERGE_CAP + 1)
    deleted, R = check_reduction(A)
    assert deleted == 0 and R == A


def test_reduction_with_unary_rows():
    A = mat([[(0, 1)], [(0, 1), (1, 1), (2, 1)], [(0, 1)], [(1, 1), (2, 1), (3, 1)],
             [(2, 1), (3, 1)], [(1, 1), (3, 1)]], 4)
    check_reduction(A)
    for trial in range(40):
        q = (2, 3, 4, 5, 9)[trial % 5]
        p = EnsembleParams(n=60, k=3, q=q, d=2.8, scheme=SeededNonzero(trial), seed=trial)
        check_reduction(gen_interpolated(p, 0.5, 0.8, np.random.default_rng(trial)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_reduction_matches_core_rank_at_n5000(q):
    for rho in (0.90, 0.915):
        p = EnsembleParams(n=5000, k=3, q=q, m=round(rho * 5000), seed=q)
        A = gen_base(p, p.make_rng())
        res = two_core(A)
        rk = len(res.removed_rows) + rank(res.core.matrix)
        assert rank_via_core(A) == rk
        assert has_full_row_rank(A) == (rk == A.n_rows)


def test_positive_excess_implies_rank_deficiency():
    rng = np.random.default_rng(99)
    found = 0
    for trial in range(200):
        n = int(rng.integers(5, 40))
        p = EnsembleParams(n=n, k=3, q=2, d=float(rng.uniform(2.5, 4.5)), seed=1000 + trial)
        A = gen_base(p, p.make_rng())
        if two_core(A).excess > 0:
            found += 1
            assert rank(A) < A.n_rows
    assert found > 0  # the regime above d_k produces positive excess


def test_nonempty_core_probability_monotone_in_d():
    # shared base randomness: same per-trial seed across the d grid
    n, trials = 200, 50
    grid = [1.5, 2.0, 2.5, 3.0]
    fracs = []
    for d in grid:
        hits = 0
        for trial in range(trials):
            p = EnsembleParams(n=n, k=3, q=2, d=d, seed=trial)
            A = gen_base(p, p.make_rng())
            if two_core(A).core_rows > 0:
                hits += 1
        fracs.append(hits / trials)
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))


def test_core_emergence_threshold_near_dk_star():
    # bisect the empty-core probability crossing 1/2 at large n (peeling
    # only, no elimination) and compare with the analytic critical density
    n, trials = 50_000, 9
    lo, hi = 2.2, 2.7
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        nonempty = 0
        for trial in range(trials):
            p = EnsembleParams(n=n, k=3, q=2, d=mid, seed=5000 + trial)
            if two_core(gen_base(p, p.make_rng())).core_rows > 0:
                nonempty += 1
        if nonempty > trials / 2:
            hi = mid
        else:
            lo = mid
    estimate = 0.5 * (lo + hi)
    assert abs(estimate - threshold_dk_star(3)) <= 0.05
