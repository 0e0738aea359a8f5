"""Row-sparse matrices over GF(q) with exact elimination.

A :class:`SparseMatrix` is an immutable value in compressed sparse row
(CSR) layout: ``indptr`` (n_rows + 1 offsets), ``cols`` and ``vals``
(one int64 entry per nonzero, columns strictly increasing within each
row, values in [1, q)), plus ``n_cols`` and a field reference.  Its
constructor validates the arrays once and freezes them; generation,
peeling, elimination and warning propagation read them directly, and
``rows`` gives the (column, value) pairs per row for callers that want
them.  On top of the canonical reduced row echelon form (unique, so
independent of the elimination engine) this module derives ranks,
kernel bases, the row combinations and left kernel read off [A | I],
exact uniform kernel sampling, frozen variables, relation tests, the
(delta, ell)-freeness audit, and balance profiles of kernel vectors.

Everything here is pure; matrices can be shared freely across threads
and worker processes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dfield
from functools import cached_property

import numpy as np

from xorlab._bitslice import eliminate
from xorlab.field import Field, build_field


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed its configured budget."""


_ARRAYS = ("indptr", "cols", "vals")


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix over GF(q).

    Row i holds the entries ``cols[indptr[i]:indptr[i + 1]]`` with values
    ``vals[indptr[i]:indptr[i + 1]]``; columns strictly increase within a
    row and values are nonzero.  The constructor is the one place that
    checks this, and it stores read-only int64 copies of the arrays.
    """

    field: Field
    n_cols: int
    indptr: np.ndarray  # (n_rows + 1,)
    cols: np.ndarray  # (nnz,)
    vals: np.ndarray  # (nnz,)

    def __post_init__(self):
        for name in _ARRAYS:
            a = np.array(getattr(self, name), np.int64).reshape(-1)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n_cols", int(self.n_cols))
        q, n_cols, indptr, cols = self.field.q, self.n_cols, self.indptr, self.cols
        if not (indptr.size and indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
                and indptr[-1] == cols.size == self.vals.size):
            raise ValueError("indptr must start at 0, never decrease and end at nnz")
        if n_cols < 0 or np.any((cols < 0) | (cols >= n_cols)):
            raise ValueError(f"columns must lie in [0, {n_cols})")
        # rows never decrease, so (row, column) keys increase iff columns do within rows
        if np.any(np.diff(self.entry_rows * n_cols + cols) <= 0):
            raise ValueError("row columns must be strictly increasing")
        if np.any((self.vals < 1) | (self.vals >= q)):
            raise ValueError(f"values must be nonzero elements of GF({q})")

    @classmethod
    def from_rows(cls, field: Field, n_cols: int, rows) -> "SparseMatrix":
        """From per-row sequences of (column, value) pairs."""
        return stack_rows(cls.zero(field, 0, n_cols), rows)

    @classmethod
    def from_dense(cls, field: Field, dense) -> "SparseMatrix":
        dense = np.asarray(dense, dtype=np.int64)
        r, c = np.nonzero(dense)
        indptr = np.append(0, np.cumsum(np.bincount(r, minlength=dense.shape[0])))
        return cls(field, dense.shape[1], indptr, c, dense[r, c])

    @classmethod
    def identity(cls, field: Field, n: int) -> "SparseMatrix":
        return cls(field, n, np.arange(n + 1), np.arange(n), np.ones(n))

    @classmethod
    def zero(cls, field: Field, n_rows: int, n_cols: int) -> "SparseMatrix":
        return cls(field, n_cols, np.zeros(n_rows + 1), (), ())

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.cols.size

    @property
    def entry_rows(self) -> np.ndarray:
        """The row index of every stored entry, (nnz,)."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i as a tuple of (column, value) pairs (built on first use)."""
        entries = list(zip(self.cols.tolist(), self.vals.tolist()))
        bounds = self.indptr.tolist()
        return tuple(tuple(entries[a:b]) for a, b in zip(bounds, bounds[1:]))

    def _key(self) -> tuple:
        return (self.field, self.n_cols, *(getattr(self, a).tobytes() for a in _ARRAYS))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # copies and unpickled matrices pass the constructor too
        return type(self), (self.field, self.n_cols, *(getattr(self, a) for a in _ARRAYS))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.entry_rows, self.cols] = self.vals
        return out

    def matvec(self, sigma) -> np.ndarray:
        """A @ sigma over the field, sigma integer-encoded."""
        f, sigma = self.field, np.asarray(sigma)[self.cols].tolist()
        prod = np.array([f.mul(v, s) for v, s in zip(self.vals.tolist(), sigma)], np.int64)
        lengths = np.diff(self.indptr)
        out = np.zeros(self.n_rows, dtype=np.int64)
        for t in range(lengths.max(initial=0)):  # add the t-th entry of every row that has one
            rows = np.flatnonzero(lengths > t)
            out[rows] = f.add_arrays(out[rows], prod[self.indptr[rows] + t])
        return out

    # -- text serialization: header "M N q", then "row col value" lines --

    def dumps(self) -> str:
        lines = [f"{self.n_rows} {self.n_cols} {self.field.q}"]
        for i, c, v in zip(self.entry_rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            lines.append(f"{i} {c} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "SparseMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        m, n, q = (int(x) for x in lines[0].split())
        i, c, v = np.array(
            [[int(x) for x in ln.split()] for ln in lines[1:]], dtype=np.int64
        ).reshape(-1, 3).T
        if np.any((i < 0) | (i >= m)):
            raise ValueError(f"row index {i[(i < 0) | (i >= m)][0]} out of range")
        order = np.lexsort((v, c, i))
        indptr = np.append(0, np.cumsum(np.bincount(i, minlength=m)))
        return cls(build_field(q), n, indptr, c[order], v[order])


@dataclass(frozen=True)
class RrefResult:
    matrix: SparseMatrix
    rank: int
    pivot_cols: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Basis of {sigma : A sigma = 0} from the reduced echelon form.

    ``basis[i]`` has a 1 in ``free_cols[i]`` and zeros in all other free
    columns, so independence is immediate and uniform kernel sampling is
    a uniform choice of coefficients.
    """

    dimension: int
    basis: np.ndarray  # (dimension, n_cols) integer-encoded values
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    field: Field = dfield(repr=False, default=None)

    @property
    def frozen(self) -> np.ndarray:
        """(n_cols,) mask of the columns where every basis vector is zero (all, if dimension 0)."""
        return ~np.any(self.basis != 0, axis=0)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One exactly-uniform kernel vector.

        Consumes ``dimension`` uniform draws from ``rng`` (one per free
        column, in increasing column order) and returns the combination
        of basis vectors they give: the basis rows are grouped by their
        nonzero coefficient, each group is summed at once, and each sum
        is scaled by its coefficient.
        """
        f = self.field
        coeffs = rng.integers(0, f.q, size=self.dimension)
        sigma = np.zeros(self.basis.shape[1], dtype=np.int64)
        order = np.argsort(coeffs)
        values, starts = np.unique(coeffs[order], return_index=True)
        for c, group in zip(values.tolist(), np.split(order, starts[1:])):
            if c:
                sigma = f.add_arrays(sigma, f.mul_scalar_array(c, _field_sum(f, self.basis[group])))
        return sigma


def _field_sum(field: Field, rows: np.ndarray) -> np.ndarray:
    """Sum over GF(q) of integer-encoded rows: digit-wise mod p, which is XOR for p = 2."""
    if field.p == 2:
        return np.bitwise_xor.reduce(rows, axis=0)
    if field.e == 1:
        return rows.sum(axis=0) % field.p
    out, weight, elements = 0, 1, np.arange(field.q)
    for _ in range(field.e):
        out = out + (elements // weight % field.p)[rows].sum(axis=0) % field.p * weight
        weight *= field.p
    return out


def _elim(A: SparseMatrix, *, reduced: bool):
    entries = (A.entry_rows, A.cols, A.vals)
    return eliminate(A.field, entries, A.n_rows, A.n_cols, reduced=reduced)


def rref(A: SparseMatrix) -> RrefResult:
    """Canonical reduced row echelon form with unit pivots.

    Deterministic: pivots take the smallest eligible column, ties on the
    smallest row index; the RREF itself is unique either way.  Zero rows
    are dropped from the returned matrix.
    """
    res = _elim(A, reduced=True)
    mat = SparseMatrix.from_dense(A.field, res.pivot_values)
    return RrefResult(mat, res.rank, res.pivot_cols)


@dataclass(frozen=True, eq=False)
class AugmentedRref:
    """The RREF of [A | I], split into what it says about A.

    ``rows[r]`` is the RREF row of A with pivot ``pivot_cols[r]`` and
    ``transform[r]`` the row combination giving it
    (``transform[r] @ A == rows[r]``); the rows of ``left_kernel`` are a
    basis of {y : y A = 0}.  All values are integer-encoded.
    """

    pivot_cols: np.ndarray  # (rank,)
    rows: np.ndarray  # (rank, n_cols)
    transform: np.ndarray  # (rank, n_rows)
    left_kernel: np.ndarray  # (n_rows - rank, n_rows)

    @property
    def redundant_rows(self) -> np.ndarray:
        """(n_rows,) mask of the rows in the span of the other rows (zero rows too)."""
        return np.any(self.left_kernel != 0, axis=0)


def augmented_rref(A: SparseMatrix) -> AugmentedRref:
    """One reduced elimination of [A | I_{n_rows}].

    Its pivots in the A block are A's pivots and its rows there carry
    A's RREF in the A block and the combination that made them in the
    identity block; the rows whose pivot lies in the identity block are
    zero on A, so their identity part spans the left kernel.
    """
    m, n = A.n_rows, A.n_cols
    entries = (np.concatenate([A.entry_rows, np.arange(m)]),
               np.concatenate([A.cols, n + np.arange(m)]),
               np.concatenate([A.vals, np.ones(m, dtype=np.int64)]))
    res = eliminate(A.field, entries, m, n + m, reduced=True)
    pivot_cols = np.array(res.pivot_cols, dtype=np.int64)
    in_a = pivot_cols < n
    values = res.pivot_values
    return AugmentedRref(pivot_cols[in_a], values[in_a, :n], values[in_a, n:],
                         values[~in_a, n:])


def rank(A: SparseMatrix) -> int:
    return _elim(A, reduced=False).rank


def nullity(A: SparseMatrix) -> int:
    return A.n_cols - rank(A)


def kernel_basis(A: SparseMatrix) -> KernelBasis:
    """Basis of the right kernel; dimension = n_cols - rank."""
    res = _elim(A, reduced=True)
    n = A.n_cols
    pivot_cols = np.array(res.pivot_cols, dtype=np.int64)
    free_mask = np.ones(n, dtype=bool)
    free_mask[pivot_cols] = False
    free_cols = np.flatnonzero(free_mask)
    dim = free_cols.size
    basis = np.zeros((dim, n), dtype=np.int64)
    if dim:
        basis[np.arange(dim), free_cols] = 1
        if pivot_cols.size:
            # sigma_pivot = -sum(R[pivot_row, free] * sigma_free)
            coeffs = res.pivot_values[:, free_cols]  # (rank, dim)
            basis[:, pivot_cols] = A.field.neg_array(coeffs).T
    return KernelBasis(dim, basis, tuple(res.pivot_cols), tuple(int(c) for c in free_cols), A.field)


def frozen_set(A: SparseMatrix) -> frozenset[int]:
    """Columns j with sigma_j = 0 for every kernel vector sigma.

    Equivalently the complement of the union of supports of the kernel
    basis vectors.
    """
    return frozenset(np.flatnonzero(kernel_basis(A).frozen).tolist())


def sample_kernel(A: SparseMatrix, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random element of ker A (see :meth:`KernelBasis.sample`)."""
    return kernel_basis(A).sample(rng)


def is_relation(A: SparseMatrix, J) -> bool:
    """True iff some nonzero row-space combination has support inside J.

    Computed by comparing left-kernel dimensions, i.e. checking whether
    deleting the J columns lowers the rank.
    """
    J = frozenset(int(j) for j in J)
    if not J:
        raise ValueError("the empty set is not an admissible relation query")
    if not J <= set(range(A.n_cols)):
        raise ValueError("relation columns out of range")
    reduced_rank = rank(minor(A, (), J).matrix)
    return reduced_rank < rank(A)


def is_proper_relation(A: SparseMatrix, J) -> bool:
    """True iff J minus the frozen set is still a relation of A."""
    J = frozenset(int(j) for j in J)
    if not J:
        raise ValueError("the empty set is not an admissible relation query")
    rest = J - frozen_set(A)
    if not rest:
        return False
    return is_relation(A, rest)


@dataclass(frozen=True)
class FreenessAudit:
    is_free: bool
    counts: dict[int, int]  # proper-relation count per size h
    thresholds: dict[int, float]  # delta * C(N, h)


def _projective_rep(field: Field, col: np.ndarray) -> tuple[int, ...]:
    lead = int(col[np.flatnonzero(col)[0]])
    return tuple(int(x) for x in field.mul_scalar_array(field.inv(lead), col))


def freeness_audit(
    A: SparseMatrix, delta: float, ell: int, *, budget: int = 20_000_000
) -> FreenessAudit:
    """Count proper relations of every size h in [2, ell].

    The count for size h equals the number of column sets J, |J| = h,
    such that J minus the frozen set supports a nonzero row-space
    vector.  Sizes 2 and 3 are counted through the projective classes of
    the kernel-basis columns (a set is a relation iff its unfrozen
    kernel columns are linearly dependent), which reproduces the
    exhaustive count exactly; larger sizes enumerate subsets directly.
    The audit refuses (rather than truncating) when N^ell exceeds the
    budget.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    n = A.n_cols
    if n**ell > budget:
        raise BudgetExceededError(
            f"freeness audit needs N^ell = {n**ell} > budget {budget}"
        )
    f = A.field
    kb = kernel_basis(A)
    K = kb.basis  # (dim, n); column j is the kernel profile of variable j
    frozen = kb.frozen
    n_frozen = int(frozen.sum())
    unfrozen = np.flatnonzero(~frozen)

    # group unfrozen columns by projective class
    class_sizes = Counter(_projective_rep(f, K[:, j]) for j in unfrozen)
    reps, sizes = list(class_sizes), list(class_sizes.values())
    class_of = {rep: cid for cid, rep in enumerate(reps)}

    counts: dict[int, int] = {}
    # h = 2: proportional unfrozen pairs
    prop_pairs = sum(s * (s - 1) // 2 for s in sizes)
    if ell >= 2:
        counts[2] = prop_pairs
    # h = 3: (a) one frozen + proportional pair, (b) dependent unfrozen triples
    if ell >= 3:
        total = prop_pairs * n_frozen
        # triples inside one class, and exactly-two-in-class triples
        u = len(unfrozen)
        for s in sizes:
            total += s * (s - 1) * (s - 2) // 6
            total += s * (s - 1) // 2 * (u - s)
        # pairwise-independent collinear class triples
        rep_arr = {cid: np.array(reps[cid], dtype=np.int64) for cid in range(len(reps))}
        for c1, c2 in itertools.combinations(range(len(reps)), 2):
            v1, v2 = rep_arr[c1], rep_arr[c2]
            for lam in f.nonzero_elements():
                comb = f.add_arrays(v1, f.mul_scalar_array(lam, v2))
                c3 = class_of.get(_projective_rep(f, comb))
                if c3 is not None and c3 > c2:
                    total += sizes[c1] * sizes[c2] * sizes[c3]
        counts[3] = total
    # h >= 4: direct subset enumeration (budget keeps N tiny here)
    for h in range(4, ell + 1):
        c = 0
        for J in itertools.combinations(range(n), h):
            rest = [j for j in J if not frozen[j]]
            if rest and _columns_dependent(f, K[:, rest]):
                c += 1
        counts[h] = c

    thresholds = {h: delta * math.comb(n, h) for h in counts}
    is_free = all(counts[h] < thresholds[h] for h in counts)
    return FreenessAudit(is_free, counts, thresholds)


def _columns_dependent(field: Field, cols: np.ndarray) -> bool:
    sub = SparseMatrix.from_dense(field, cols)
    return rank(sub) < cols.shape[1]


@dataclass(frozen=True, eq=False)
class BalanceProfile:
    """Per-value frequency vector rho(sigma) of a vector over GF(q)."""

    freqs: np.ndarray  # (q,) with freqs[s] = |{i: sigma_i = s}| / n
    n: int


def balance_profile(sigma, q: int) -> BalanceProfile:
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.size < 1:
        raise ValueError("balance profile needs a nonempty vector")
    counts = np.bincount(sigma, minlength=q).astype(np.float64)
    return BalanceProfile(counts / sigma.size, sigma.size)


def balance_distance(sigma, q: int, norm: str = "l2") -> float:
    """Distance of rho(sigma) from the uniform profile, in l1 or l2."""
    dev = balance_profile(sigma, q).freqs - 1.0 / q
    if norm == "l2":
        return float(np.sqrt(np.sum(dev * dev)))
    if norm == "l1":
        return float(np.sum(np.abs(dev)))
    raise ValueError(f"unknown norm {norm!r}")


def stack_rows(A: SparseMatrix, extra_rows) -> SparseMatrix:
    """A with ``extra_rows`` (sequences of (column, value) pairs) appended."""
    extra_rows = [list(row) for row in extra_rows]
    ends = A.nnz + np.cumsum([len(row) for row in extra_rows], dtype=np.int64)
    pairs = np.array([e for row in extra_rows for e in row], dtype=np.int64).reshape(-1, 2)
    cols, vals = pairs.T
    return SparseMatrix(A.field, A.n_cols, np.concatenate([A.indptr, ends]),
                        np.concatenate([A.cols, cols]), np.concatenate([A.vals, vals]))


@dataclass(frozen=True)
class Minor:
    matrix: SparseMatrix
    kept_rows: tuple[int, ...]  # new row index -> original row index
    kept_cols: tuple[int, ...]  # new col index -> original col index


def _keep_mask(size: int, removed, what: str) -> np.ndarray:
    removed = np.array(list(removed), dtype=np.int64)
    if np.any((removed < 0) | (removed >= size)):
        raise ValueError(f"{what} index out of range [0, {size})")
    keep = np.ones(size, dtype=bool)
    keep[removed] = False
    return keep


def minor(A: SparseMatrix, removed_rows, removed_cols) -> Minor:
    """Delete the given rows and columns, preserving the remaining order.

    The returned maps translate the minor's indices back to the
    original ones (needed because columns are re-indexed).
    """
    row_keep = _keep_mask(A.n_rows, removed_rows, "row")
    col_keep = _keep_mask(A.n_cols, removed_cols, "column")
    entry_rows = A.entry_rows
    keep = col_keep[A.cols] & row_keep[entry_rows]
    indptr = np.append(0, np.cumsum(np.bincount(entry_rows[keep], minlength=A.n_rows)[row_keep]))
    new_col = np.cumsum(col_keep) - 1
    mat = SparseMatrix(A.field, int(col_keep.sum()), indptr,
                       new_col[A.cols[keep]], A.vals[keep])
    return Minor(mat, tuple(np.flatnonzero(row_keep).tolist()),
                 tuple(np.flatnonzero(col_keep).tolist()))
