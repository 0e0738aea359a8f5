import copy
import pickle

import numpy as np
import pytest
import scipy.stats

from xorlab.field import build_field
from xorlab.sparsemat import (
    BudgetExceededError,
    SparseMatrix,
    augmented_rref,
    balance_distance,
    balance_profile,
    freeness_audit,
    frozen_set,
    is_proper_relation,
    is_relation,
    kernel_basis,
    minor,
    nullity,
    rank,
    rref,
    sample_kernel,
    stack_rows,
)

from tests.oracles import (
    brute_frozen_set,
    brute_is_relation,
    brute_proper_relation_counts,
    enumerate_kernel,
    enumerate_kernel_from_basis,
    random_sparse,
    reference_kernel_sample,
    reference_minor,
    reference_rref,
    reference_stack_rows,
)

GF2 = build_field(2)
GF3 = build_field(3)
GF9 = build_field(9)


def mat(field, n_cols, rows):
    return SparseMatrix.from_rows(field, n_cols, rows)


# -- rref -------------------------------------------------------------------


def test_rref_identity():
    A = SparseMatrix.identity(GF2, 3)
    res = rref(A)
    assert res.rank == 3
    assert res.pivot_cols == (0, 1, 2)


def test_rref_single_row():
    A = mat(GF2, 3, [[(0, 1), (1, 1), (2, 1)]])
    res = rref(A)
    assert res.rank == 1
    assert res.pivot_cols == (0,)


def test_rref_zero_matrix():
    A = SparseMatrix.zero(GF2, 2, 2)
    assert rref(A).rank == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_rref_matches_reference_on_random(q):
    f = build_field(q)
    rng = np.random.default_rng(100 + q)
    for _ in range(25):
        A = random_sparse(f, int(rng.integers(0, 7)), int(rng.integers(1, 7)), rng)
        ref_mat, ref_rank, ref_pivots = reference_rref(A)
        res = rref(A)
        assert res.rank == ref_rank
        assert list(res.pivot_cols) == ref_pivots
        assert np.array_equal(res.matrix.to_dense(), ref_mat[:ref_rank])


def test_fallback_engine_used_for_exotic_field():
    # GF(37): odd characteristic beyond the one-hot limit -> python fallback
    f = build_field(37)
    rng = np.random.default_rng(5)
    A = random_sparse(f, 5, 6, rng)
    ref_mat, ref_rank, _ = reference_rref(A)
    assert rref(A).rank == ref_rank


# -- nullity / kernel -------------------------------------------------------


def test_kernel_of_all_ones_row():
    A = mat(GF2, 3, [[(0, 1), (1, 1), (2, 1)]])
    assert nullity(A) == 2
    kernel = set(enumerate_kernel(A))
    assert kernel == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(enumerate_kernel_from_basis(A)) == kernel


def test_kernel_identity_empty_basis():
    A = SparseMatrix.identity(GF3, 4)
    kb = kernel_basis(A)
    assert kb.dimension == 0 and nullity(A) == 0


def test_kernel_zero_by_n():
    A = SparseMatrix.zero(GF2, 0, 5)
    assert nullity(A) == 5
    assert kernel_basis(A).dimension == 5


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_nullity_and_kernel_membership(q):
    f = build_field(q)
    rng = np.random.default_rng(40 + q)
    for _ in range(20):
        A = random_sparse(f, int(rng.integers(1, 8)), int(rng.integers(1, 8)), rng)
        assert rank(A) + nullity(A) == A.n_cols
        kb = kernel_basis(A)
        for vec in kb.basis:
            assert not A.matvec(vec).any()


def test_adding_row_moves_rank_by_at_most_one():
    rng = np.random.default_rng(11)
    for q in [2, 3]:
        f = build_field(q)
        for _ in range(20):
            A = random_sparse(f, 5, 6, rng)
            extra = [
                (j, int(rng.integers(1, q))) for j in range(6) if rng.random() < 0.5
            ]
            B = stack_rows(A, [extra])
            assert rank(B) - rank(A) in (0, 1)
            assert nullity(B) - nullity(A) in (0, -1)


# -- frozen set --------------------------------------------------------------


def test_frozen_examples():
    A = mat(GF2, 2, [[(0, 1)], []])
    assert frozen_set(A) == {0}
    assert frozen_set(SparseMatrix.zero(GF2, 2, 3)) == frozenset()
    assert frozen_set(SparseMatrix.identity(GF2, 3)) == {0, 1, 2}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_frozen_matches_brute_force(q):
    f = build_field(q)
    rng = np.random.default_rng(60 + q)
    for _ in range(15):
        A = random_sparse(f, int(rng.integers(0, 6)), int(rng.integers(1, 5)), rng)
        if f.q ** nullity(A) > 4096:
            continue
        assert frozen_set(A) == brute_frozen_set(A)


# -- relations ---------------------------------------------------------------


def test_relation_examples():
    A = mat(GF2, 3, [[(0, 1), (1, 1)]])
    assert is_relation(A, {0, 1})
    assert not is_relation(A, {0})
    B = mat(GF2, 2, [[(0, 1)]])
    assert is_relation(B, {0})
    assert 0 in frozen_set(B)
    assert not is_proper_relation(B, {0})


def test_relation_of_everything_iff_nonzero_rowspace():
    assert is_relation(mat(GF2, 3, [[(1, 1)]]), range(3))
    with_zero_rows = SparseMatrix.zero(GF3, 4, 3)
    assert not is_relation(with_zero_rows, range(3))


def test_empty_relation_query_rejected():
    A = SparseMatrix.identity(GF2, 2)
    with pytest.raises(ValueError):
        is_relation(A, set())


@pytest.mark.parametrize("q", [2, 3])
def test_relation_matches_brute_force(q):
    f = build_field(q)
    rng = np.random.default_rng(80 + q)
    for _ in range(12):
        A = random_sparse(f, int(rng.integers(1, 5)), 4, rng)
        for size in (1, 2, 3):
            J = set(int(x) for x in rng.choice(4, size=size, replace=False))
            assert is_relation(A, J) == brute_is_relation(A, J)


# -- freeness audit ----------------------------------------------------------


def test_freeness_zero_matrix_and_identity():
    assert freeness_audit(SparseMatrix.zero(GF2, 3, 6), 0.1, 3).is_free
    audit = freeness_audit(SparseMatrix.identity(GF2, 6), 0.1, 3)
    assert audit.is_free
    assert audit.counts == {2: 0, 3: 0}


def test_freeness_derived_example():
    # {0,1} is a proper relation; 1 >= 0.1 * C(3,2) so not free
    A = mat(GF2, 3, [[(0, 1), (1, 1)], []])
    audit = freeness_audit(A, 0.1, 2)
    assert audit.counts[2] == brute_proper_relation_counts(A, 2)[2] == 1
    assert not audit.is_free


@pytest.mark.parametrize("q", [2, 3, 4])
def test_freeness_counts_match_brute_force(q):
    f = build_field(q)
    rng = np.random.default_rng(90 + q)
    for _ in range(10):
        A = random_sparse(f, int(rng.integers(1, 6)), int(rng.integers(2, 6)), rng)
        lib = freeness_audit(A, 0.5, 3).counts
        brute = brute_proper_relation_counts(A, 3)
        assert lib == brute


def test_freeness_h4_matches_brute_force():
    rng = np.random.default_rng(17)
    for q in [2, 3]:
        f = build_field(q)
        A = random_sparse(f, 4, 6, rng)
        assert freeness_audit(A, 0.5, 4).counts == brute_proper_relation_counts(A, 4)


def test_freeness_budget_guard():
    A = SparseMatrix.zero(GF2, 2, 300)
    with pytest.raises(BudgetExceededError):
        freeness_audit(A, 0.1, 3, budget=10_000)


def test_freeness_pinning_only_control_passes():
    # unary rows covering every column freeze everything: no proper relations
    A = mat(GF2, 6, [[(j, 1)] for j in range(6)] + [[(0, 1)], [(3, 1)]])
    audit = freeness_audit(A, 0.1, 3)
    assert audit.is_free and audit.counts == {2: 0, 3: 0}


def test_freeness_duplicate_row_control_fails():
    # at small N a single duplicated weight-3 row already clears the
    # delta * C(N, 3) bar: its support is a proper size-3 relation
    row = [(0, 1), (2, 1), (4, 1)]
    A = mat(GF2, 5, [row, row])
    audit = freeness_audit(A, 0.1, 3)
    assert audit.counts[3] >= 1
    assert not audit.is_free
    assert brute_proper_relation_counts(A, 3) == audit.counts


# -- kernel sampling ---------------------------------------------------------


def test_sample_kernel_identity_always_zero():
    A = SparseMatrix.identity(GF2, 4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert not sample_kernel(A, rng).any()


def test_sample_kernel_frozen_coordinates_zero():
    A = mat(GF2, 3, [[(0, 1)], [(1, 1), (2, 1)]])
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert sample_kernel(A, rng)[0] == 0


@pytest.mark.parametrize(
    "q,rows,n",
    [
        (2, [[(0, 1), (1, 1), (2, 1)]], 3),  # |ker| = 4
        (2, [[(0, 1), (1, 1)], [(2, 1), (3, 1)]], 4),  # |ker| = 4
        (3, [[(0, 1), (1, 2)]], 2),  # |ker| = 3
        (4, [[(0, 1), (1, 3)]], 2),  # |ker| = 4
    ],
)
def test_sample_kernel_chi_squared(q, rows, n):
    f = build_field(q)
    A = mat(f, n, rows)
    kernel = enumerate_kernel(A)
    assert len(kernel) <= 16
    index = {sigma: i for i, sigma in enumerate(kernel)}
    rng = np.random.default_rng(12345)
    kb = kernel_basis(A)
    counts = np.zeros(len(kernel))
    draws = 10_000
    for _ in range(draws):
        sigma = tuple(int(x) for x in kb.sample(rng))
        counts[index[sigma]] += 1
    assert counts.sum() == draws  # every draw lands in the kernel
    p_value = scipy.stats.chisquare(counts).pvalue
    assert p_value > 1e-3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 37])
def test_kernel_sample_matches_per_vector_reference(q):
    f = build_field(q)
    rng = np.random.default_rng(q)
    for _ in range(6):
        A = random_sparse(f, int(rng.integers(0, 12)), int(rng.integers(1, 30)), rng, 0.2)
        kb = kernel_basis(A)
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(5):
            assert np.array_equal(kb.sample(ours), reference_kernel_sample(kb, ref))
        assert ours.integers(0, 2**62) == ref.integers(0, 2**62)  # same draws consumed


def _left_mul(f, y, A):
    """y A over the field, through the transpose's matvec."""
    return SparseMatrix.from_dense(f, A.to_dense().T).matvec(y)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 37])
def test_augmented_rref_against_definitions(q):
    f = build_field(q)
    rng = np.random.default_rng(100 + q)
    for trial in range(12):
        A = random_sparse(f, int(rng.integers(0, 9)), int(rng.integers(1, 9)), rng)
        if trial % 3 == 0 and A.n_rows >= 2:  # a duplicated row
            A = stack_rows(A, [A.rows[0]])
        aug = augmented_rref(A)
        expected, rk, pivots = reference_rref(A)
        assert aug.pivot_cols.tolist() == pivots
        assert np.array_equal(aug.rows, expected[:rk])
        for y, row in zip(aug.transform, aug.rows):
            assert np.array_equal(_left_mul(f, y, A), row)
        assert aug.left_kernel.shape == (A.n_rows - rk, A.n_rows)
        for y in aug.left_kernel:
            assert not _left_mul(f, y, A).any()
        redundant = [rank(minor(A, {i}, ()).matrix) == rk for i in range(A.n_rows)]
        assert aug.redundant_rows.tolist() == redundant


def test_augmented_rref_empty():
    aug = augmented_rref(SparseMatrix.zero(GF3, 0, 4))
    assert aug.rows.shape == (0, 4) and aug.transform.shape == (0, 0)
    assert aug.left_kernel.shape == (0, 0) and aug.redundant_rows.size == 0


# -- balance profile ---------------------------------------------------------


def test_balance_examples():
    prof = balance_profile([0, 1], 2)
    assert np.allclose(prof.freqs, [0.5, 0.5])
    assert balance_distance([0, 1], 2) == 0.0
    assert balance_distance([0, 0, 0, 0], 2, norm="l1") == 1.0
    assert balance_distance([0, 1, 2], 3) == 0.0


def test_balance_profile_counts_are_integers():
    prof = balance_profile([0, 0, 1, 2, 2], 4)
    assert np.allclose(prof.freqs * prof.n, np.round(prof.freqs * prof.n))
    assert prof.freqs.sum() == pytest.approx(1.0)


# -- stack / minor ------------------------------------------------------------


def test_minor_identity_and_empty():
    A = random_sparse(GF3, 4, 5, np.random.default_rng(2))
    m0 = minor(A, (), ())
    assert m0.matrix == A
    assert m0.kept_cols == tuple(range(5))


def test_stack_then_minor_roundtrip():
    A = random_sparse(GF2, 3, 5, np.random.default_rng(3))
    B = stack_rows(A, [[(0, 1), (4, 1)]])
    assert minor(B, {3}, ()).matrix == A


def test_minor_and_stack_match_row_walk():
    rng = np.random.default_rng(21)
    for field in (GF2, GF3, GF9):
        for density in (0.0, 0.15, 0.5):
            A = random_sparse(field, 6, 7, rng, density)
            for removed_rows, removed_cols in [
                ((), ()),
                (range(6), range(7)),
                (range(6), ()),
                ((), range(7)),
                *(
                    (np.flatnonzero(rng.random(6) < 0.4), np.flatnonzero(rng.random(7) < 0.4))
                    for _ in range(10)
                ),
            ]:
                m = minor(A, removed_rows, removed_cols)
                rows, n_cols, kept_rows, kept_cols = reference_minor(A, removed_rows, removed_cols)
                assert m.matrix.rows == rows and m.matrix.n_cols == n_cols
                assert (m.kept_rows, m.kept_cols) == (kept_rows, kept_cols)
            for n_extra in (0, 1, 3):
                extra = random_sparse(field, n_extra, 7, rng, density).rows
                assert stack_rows(A, extra).rows == reference_stack_rows(A, extra)


def test_minor_of_identity():
    A = SparseMatrix.identity(GF2, 3)
    m = minor(A, {0}, {0})
    assert m.matrix == SparseMatrix.identity(GF2, 2)
    assert m.kept_cols == (1, 2)


def test_minor_out_of_range():
    A = SparseMatrix.identity(GF2, 3)
    with pytest.raises(ValueError):
        minor(A, {5}, ())
    with pytest.raises(ValueError):
        minor(A, (), {3})


# -- serialization -------------------------------------------------------------


def test_dump_load_roundtrip():
    rng = np.random.default_rng(9)
    for q in [2, 9]:
        A = random_sparse(build_field(q), 4, 6, rng)
        assert SparseMatrix.loads(A.dumps()) == A


def test_from_rows_validation():
    with pytest.raises(ValueError):
        mat(GF2, 3, [[(1, 1), (0, 1)]])  # out of order
    with pytest.raises(ValueError):
        mat(GF2, 3, [[(0, 0)]])  # zero coefficient
    with pytest.raises(ValueError):
        mat(GF2, 3, [[(3, 1)]])  # column out of range
    with pytest.raises(ValueError):
        mat(GF2, 3, [[(0, 1)], [(1, 1), (1, 1)]])  # duplicate column in a row
    with pytest.raises(ValueError):
        mat(GF2, 3, [[(-1, 1)]])  # negative column
    for indptr in ([1, 2], [0, 2, 1, 2], [0, 1], [0, 3]):  # start, decrease, end
        with pytest.raises(ValueError, match="indptr"):
            SparseMatrix(GF2, 3, indptr, [0, 1], [1, 1])
    assert SparseMatrix(GF2, 3, [0, 1, 1, 2], [2, 0], [1, 1]).rows == (((2, 1),), (), ((0, 1),))


def test_arrays_are_read_only():
    A = random_sparse(GF3, 4, 5, np.random.default_rng(5))
    for B in (A, copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert B == A
        for name in ("indptr", "cols", "vals"):
            with pytest.raises(ValueError):
                getattr(B, name)[0] = 0
    cols = np.array([0, 2])
    B = SparseMatrix(GF2, 3, [0, 2], cols, [1, 1])
    cols[0] = 1  # the matrix holds its own copy
    assert B.rows == (((0, 1), (2, 1)),)


def test_rows_roundtrip_through_from_rows():
    rng = np.random.default_rng(6)
    for field in (GF2, GF3, GF9):
        for density in (0.0, 0.3, 1.0):
            A = random_sparse(field, 5, 4, rng, density)
            assert SparseMatrix.from_rows(field, 4, A.rows) == A
            assert SparseMatrix.from_dense(field, A.to_dense()) == A
