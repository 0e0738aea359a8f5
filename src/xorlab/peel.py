"""2-core pruning of a sparse matrix and the rank-deficiency witness.

The process repeatedly removes a column with at most one nonzero entry,
together with its row when it has one, until every remaining column has
degree >= 2.  The surviving minor (the "core") is independent of the
removal order, so peeling runs in array rounds: each round counts the
live entries per column and removes every column of degree <= 1 at
once, with the live row of each degree-1 column.

Each (column, row) removal step peels a row that is linearly
independent of the remaining ones, so

    rank(A) = number of removed rows + rank(core),

and a core with more rows than columns certifies rank(A) < n_rows.

Before the core is eliminated, the doubleton step of structured Gaussian
elimination (LaMacchia & Odlyzko, CRYPTO '90) shrinks it further: a
column c of degree 2 with rows a < b is cleared from b by the invertible
row operation b <- b - (b_c / a_c) a, after which c has degree 1 and
peels with row a.  Each deleted row again adds exactly 1 to the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xorlab.sparsemat import Minor, SparseMatrix, minor, rank


@dataclass(frozen=True)
class PeelResult:
    """Core minor plus the removed rows and columns, in increasing order."""

    core: Minor
    removed_cols: tuple[int, ...]
    removed_rows: tuple[int, ...]  # degree-0 columns remove no row

    @property
    def core_rows(self) -> int:
        return self.core.matrix.n_rows

    @property
    def core_cols(self) -> int:
        return self.core.matrix.n_cols

    @property
    def excess(self) -> int:
        return self.core_rows - self.core_cols

    def rank(self) -> int:
        """rank(A): the peeled rows, the core rows merged away, and the rank of the rest."""
        deleted, R = _reduce(self.core.matrix)
        return len(self.removed_rows) + deleted + rank(R)


def two_core(A: SparseMatrix) -> PeelResult:
    """Peel degree-<=-1 columns (with their rows) in rounds until none remain."""
    rows, cols = A.entry_rows, A.cols  # the live entries
    row_alive = np.ones(A.n_rows, dtype=bool)
    col_alive = np.ones(A.n_cols, dtype=bool)
    while True:
        peel = col_alive & (np.bincount(cols, minlength=A.n_cols) <= 1)
        if not peel.any():
            break
        col_alive &= ~peel
        row_alive[rows[peel[cols]]] = False
        # a peeled column's one entry lies in a removed row, so every
        # entry of a live row also lies in a live column
        live = row_alive[rows]
        rows, cols = rows[live], cols[live]
    removed_rows, removed_cols = np.flatnonzero(~row_alive), np.flatnonzero(~col_alive)
    core = minor(A, removed_rows, removed_cols)
    return PeelResult(core, tuple(removed_cols.tolist()), tuple(removed_rows.tolist()))


# longest row a merge may leave; longer rows would fill in the matrix
_MERGE_CAP = 16


def _reduce(M: SparseMatrix) -> tuple[int, SparseMatrix]:
    """Peel and merge M down to R with rank(M) = deleted + rank(R).

    Columns of degree <= 2 wait on a worklist.  Degree 0: the column
    goes.  Degree 1: it goes with its row.  Degree 2 with rows a < b:
    unless the merged row could exceed ``_MERGE_CAP`` entries, b becomes
    b - (b_c / a_c) a and row a and column c go.  R keeps the surviving
    rows and the columns that still have an entry, in their order in M.
    """
    f = M.field
    ptr, cols, vals = M.indptr.tolist(), M.cols.tolist(), M.vals.tolist()
    rows: list[dict | None] = [dict(zip(cols[s:e], vals[s:e])) for s, e in zip(ptr, ptr[1:])]
    col_rows: list[set[int]] = [set() for _ in range(M.n_cols)]
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    work = [c for c in range(M.n_cols) if len(col_rows[c]) <= 2]
    deleted = 0
    while work:
        c = work.pop()
        if len(col_rows[c]) == 2:
            a, b = sorted(col_rows[c])
            ra, rb = rows[a], rows[b]
            if len(ra) + len(rb) - 2 > _MERGE_CAP:
                continue
            factor = f.mul(rb[c], f.inv(ra[c]))
            for j, v in ra.items():
                new = f.sub(rb.get(j, 0), f.mul(factor, v))
                if new:
                    rb[j] = new
                    col_rows[j].add(b)
                elif j in rb:
                    del rb[j]
                    col_rows[j].discard(b)
        if len(col_rows[c]) == 1:
            (a,) = col_rows[c]
            for j in rows[a]:
                col_rows[j].discard(a)
                if len(col_rows[j]) <= 2:
                    work.append(j)
            rows[a] = None
            deleted += 1
    kept = [sorted(row.items()) for row in rows if row is not None]
    col_keep = np.array([bool(rs) for rs in col_rows], dtype=bool)
    pairs = np.array([e for row in kept for e in row], dtype=np.int64).reshape(-1, 2)
    R = SparseMatrix(f, int(col_keep.sum()),
                     np.append(0, np.cumsum([len(row) for row in kept], dtype=np.int64)),
                     (np.cumsum(col_keep) - 1)[pairs[:, 0]], pairs[:, 1])
    return deleted, R


def rank_via_core(A: SparseMatrix) -> int:
    """Exact rank computed as removed rows plus the rank of the core.

    Equivalent to eliminating A directly, but much cheaper when peeling
    and merging remove a large fraction of the matrix.
    """
    return two_core(A).rank()


def has_full_row_rank(A: SparseMatrix) -> bool:
    """rank(A) == n_rows, with the peeled core as a shortcut.

    A positive excess answers negatively without any elimination; an
    empty core answers positively.
    """
    res = two_core(A)
    if res.excess > 0:
        return False
    if res.core_rows == 0:
        return True
    return res.rank() == A.n_rows
