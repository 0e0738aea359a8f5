"""2-core pruning of a sparse matrix and the rank-deficiency witness.

The process repeatedly removes a column with at most one nonzero entry,
together with its row when it has one, until every remaining column has
degree >= 2.  The surviving minor (the "core") is independent of the
removal order; the implementation uses the canonical deterministic
order (smallest-index eligible column first) with a pending heap, O(nnz)
overall.

Each (column, row) removal step peels a row that is linearly
independent of the remaining ones, so

    rank(A) = number of removed rows + rank(core),

and a core with more rows than columns certifies rank(A) < n_rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from xorlab.sparsemat import Minor, SparseMatrix, minor, rank


@dataclass(frozen=True)
class PeelResult:
    """Core minor plus the ordered removal traces."""

    core: Minor
    removed_cols: tuple[int, ...]  # in removal order
    removed_rows: tuple[int, ...]  # in removal order (degree-0 columns add none)

    @property
    def core_rows(self) -> int:
        return self.core.matrix.n_rows

    @property
    def core_cols(self) -> int:
        return self.core.matrix.n_cols

    @property
    def excess(self) -> int:
        return self.core_rows - self.core_cols


def two_core(A: SparseMatrix) -> PeelResult:
    """Peel degree-<=-1 columns (with their rows) until none remain."""
    n = A.n_cols
    col_count = np.bincount(A.cols, minlength=n)
    degree = col_count.tolist()
    col_ptr = np.append(0, np.cumsum(col_count)).tolist()
    col_rows = A.entry_rows[np.argsort(A.cols, kind="stable")].tolist()
    row_ptr, cols = A.indptr.tolist(), A.cols.tolist()
    row_alive = [True] * A.n_rows
    col_alive = [True] * n
    heap = [j for j in range(n) if degree[j] <= 1]
    heapq.heapify(heap)
    removed_cols: list[int] = []
    removed_rows: list[int] = []
    while heap:
        j = heapq.heappop(heap)
        if not col_alive[j] or degree[j] > 1:
            continue
        col_alive[j] = False
        removed_cols.append(j)
        if degree[j] == 1:
            i = next(r for r in col_rows[col_ptr[j] : col_ptr[j + 1]] if row_alive[r])
            row_alive[i] = False
            removed_rows.append(i)
            for c in cols[row_ptr[i] : row_ptr[i + 1]]:
                if col_alive[c]:
                    degree[c] -= 1
                    if degree[c] <= 1:
                        heapq.heappush(heap, c)
    core = minor(A, removed_rows, removed_cols)
    return PeelResult(core, tuple(removed_cols), tuple(removed_rows))


def core_excess(A: SparseMatrix) -> int:
    """core rows minus core columns; positive certifies rank(A) < n_rows."""
    return two_core(A).excess


def rank_via_core(A: SparseMatrix) -> int:
    """Exact rank computed as removed rows plus the rank of the core.

    Equivalent to eliminating A directly, but much cheaper when peeling
    removes a large fraction of the matrix.
    """
    res = two_core(A)
    return len(res.removed_rows) + rank(res.core.matrix)


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
    return rank(res.core.matrix) == res.core_rows
