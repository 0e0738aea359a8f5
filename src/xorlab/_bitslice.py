"""Bit-sliced Gaussian elimination over GF(q) on numpy uint64 planes.

This is the engine behind the public operations in :mod:`xorlab.sparsemat`.
Rows are stored column-packed, 64 columns per machine word, in one or more
"planes" per row:

- characteristic 2 (q = 2^e): e planes holding the coefficient bits of
  each entry, so row addition is e XORs and scaling by a constant is a
  GF(2)-linear recombination of planes;
- odd characteristic (q <= 32): q - 1 one-hot planes, plane s flagging
  the positions holding value s, so scaling is a plane permutation and
  addition is a short AND/OR formula driven by the field's addition
  table.

Exotic fields (odd-characteristic q > 32, e.g. GF(37)) fall back to a
plain dense elimination in Python; results are identical, only slower.

Elimination is pivot-major and deterministic: columns are visited in
increasing order and the pivot is the smallest-index row with a nonzero
entry in the column.  Since the reduced row echelon form is unique, any
consumer sees the canonical RREF regardless of engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from xorlab.field import Field

_ONE = np.uint64(1)
_ONEHOT_LIMIT = 32


@dataclass
class ElimResult:
    """Outcome of one elimination run.

    ``pivot_values`` is only present for reduced runs: row i holds the
    full RREF row whose pivot is ``pivot_cols[i]`` (values are
    integer-encoded field elements).
    """

    rank: int
    pivot_cols: tuple[int, ...]
    pivot_values: np.ndarray | None  # (rank, n_cols) int64, or None


def _n_words(n_cols: int) -> int:
    return max((n_cols + 63) >> 6, 1)


class _Engine:
    """Packing and decoding shared by both engines.

    A value v sets its bit in plane p when ``member[v, p]``; a position
    decodes as the sum of ``weight[p]`` over the planes with its bit set.
    Both layouts give plane 0 the weight 1.
    """

    def __init__(self, field: Field, weight: list[int], member: np.ndarray):
        self.field = field
        self.n_planes = len(weight)
        self.weight = weight
        self.member = member

    def pack(self, entries, n_rows: int, n_cols: int) -> np.ndarray:
        rows, cols, vals = entries
        planes = np.zeros((self.n_planes, n_rows, _n_words(n_cols)), dtype=np.uint64)
        bit = _ONE << (cols & 63).astype(np.uint64)
        for p in range(self.n_planes):
            on = self.member[vals, p]
            np.bitwise_or.at(planes[p], (rows[on], cols[on] >> 6), bit[on])
        return planes

    def coeffs_at(self, planes: np.ndarray, j: int) -> np.ndarray:
        w, b = j >> 6, np.uint64(j & 63)
        vals = ((planes[0, :, w] >> b) & _ONE).astype(np.int64)
        for p in range(1, self.n_planes):
            vals += ((planes[p, :, w] >> b) & _ONE).astype(np.int64) * self.weight[p]
        return vals

    def scale_row(self, planes: np.ndarray, r: int, c: int) -> None:
        planes[:, r] = self.scaled_pivot(planes, r, c)

    def decode(self, planes: np.ndarray, rows_idx, n_cols: int) -> np.ndarray:
        bits = _unpack_bits(planes[:, rows_idx], n_cols)
        vals = bits[0].astype(np.int64)
        for p in range(1, self.n_planes):
            vals += bits[p].astype(np.int64) * self.weight[p]
        return vals


class _XorEngine(_Engine):
    """Planes are coefficient bitplanes; char-2 addition is XOR."""

    def __init__(self, field: Field):
        bits = range(field.e)
        member = (np.arange(field.q)[:, None] >> np.array(bits)) & 1 == 1
        super().__init__(field, [1 << i for i in bits], member)
        # For each scalar c, output plane i is the XOR of the input
        # planes j with bit i set in c * x^j.
        self._scale_terms = [
            [[j for j in bits if (field.mul(c, 1 << j) >> i) & 1] for i in bits]
            for c in range(field.q)
        ]

    def scaled_pivot(self, planes: np.ndarray, piv: int, c: int) -> np.ndarray:
        out = np.zeros((self.n_planes, planes.shape[2]), dtype=np.uint64)
        for i, terms in enumerate(self._scale_terms[c]):
            for j in terms:
                out[i] ^= planes[j, piv]
        return out

    def submul_rows(self, planes, idx, piv: int, value: int) -> None:
        # char 2: subtracting equals adding
        scaled = self.scaled_pivot(planes, piv, value)
        for i in range(self.n_planes):
            planes[i, idx] ^= scaled[i]


class _OneHotEngine(_Engine):
    """Plane s - 1 flags positions holding value s (odd characteristic)."""

    def __init__(self, field: Field):
        q = field.q
        nonzero = list(range(1, q))
        super().__init__(field, nonzero, np.arange(q)[:, None] == np.array(nonzero))
        # nonzero pairs (u, v) with u + v == s, grouped by s
        self._pairs = [
            [(u, v) for u in nonzero for v in nonzero if field.add(u, v) == s] for s in range(q)
        ]
        # scaling by c permutes planes: value s moves to plane c*s
        self._perm = [[field.mul(c, s) for s in nonzero] for c in range(q)]

    def scaled_pivot(self, planes: np.ndarray, piv: int, c: int) -> np.ndarray:
        out = np.zeros((self.n_planes, planes.shape[2]), dtype=np.uint64)
        perm = self._perm[c]
        for s in range(1, self.field.q):
            out[perm[s - 1] - 1] = planes[s - 1, piv]
        return out

    def submul_rows(self, planes, idx, piv: int, value: int) -> None:
        b = self.scaled_pivot(planes, piv, self.field.neg(value))
        a = planes[:, idx]
        keep_a = ~np.bitwise_or.reduce(b, axis=0)  # positions where b is zero
        keep_b = ~np.bitwise_or.reduce(a, axis=0)
        for s in range(1, self.field.q):
            acc = (a[s - 1] & keep_a) | (b[s - 1] & keep_b)
            for u, v in self._pairs[s]:
                acc |= a[u - 1] & b[v - 1]
            planes[s - 1, idx] = acc


def _unpack_bits(planes: np.ndarray, n_cols: int) -> np.ndarray:
    """(P, R, W) uint64 words -> (P, R, n_cols) 0/1 bytes."""
    p, r, w = planes.shape
    as_bytes = planes.view(np.uint8).reshape(p, r, w * 8)
    bits = np.unpackbits(as_bytes, axis=2, bitorder="little")
    return bits[:, :, :n_cols]


@lru_cache(maxsize=None)
def _engine_for(field: Field):
    if field.p == 2:
        return _XorEngine(field)
    if field.q <= _ONEHOT_LIMIT:
        return _OneHotEngine(field)
    return None


def eliminate(field: Field, entries, n_rows: int, n_cols: int, *, reduced: bool) -> ElimResult:
    """Row-reduce an n_rows x n_cols matrix over ``field``.

    ``entries`` is the (rows, cols, vals) triple of int64 arrays holding
    the row, column and nonzero value of every stored entry.
    With ``reduced=True`` performs full Gauss-Jordan and returns the
    decoded pivot rows; otherwise stops at row echelon (rank and pivot
    columns only).
    """
    engine = _engine_for(field)
    if engine is None:
        return _eliminate_python(field, entries, n_rows, n_cols, reduced=reduced)
    if n_rows == 0 or n_cols == 0:
        vals = np.zeros((0, n_cols), dtype=np.int64) if reduced else None
        return ElimResult(0, (), vals)

    planes = engine.pack(entries, n_rows, n_cols)
    alive = np.ones(n_rows, dtype=bool)
    pivot_cols: list[int] = []
    pivot_rows: list[int] = []
    for j in range(n_cols):
        coeffs = engine.coeffs_at(planes, j)
        nz = coeffs != 0
        cand = np.flatnonzero(nz & alive)
        if cand.size == 0:
            continue
        piv = int(cand[0])
        cp = int(coeffs[piv])
        if cp != 1:
            engine.scale_row(planes, piv, field.inv(cp))
        alive[piv] = False
        if reduced:
            targets = nz
            targets[piv] = False
        else:
            targets = nz & alive
        idx = np.flatnonzero(targets)
        if idx.size:
            cvals = coeffs[idx]
            for value in np.unique(cvals):
                sel = idx[cvals == value]
                engine.submul_rows(planes, sel, piv, int(value))
        pivot_cols.append(j)
        pivot_rows.append(piv)
        if len(pivot_cols) == n_rows:
            break

    pivot_values = engine.decode(planes, pivot_rows, n_cols) if reduced else None
    return ElimResult(len(pivot_cols), tuple(pivot_cols), pivot_values)


def _eliminate_python(field: Field, entries, n_rows: int, n_cols: int, *, reduced: bool):
    """Dense schoolbook elimination; correctness reference and fallback."""
    rows, cols, vals = entries
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    dense[rows, cols] = vals
    dense = dense.tolist()
    alive = [True] * n_rows
    pivot_cols: list[int] = []
    pivot_rows: list[int] = []
    for j in range(n_cols):
        piv = next((r for r in range(n_rows) if alive[r] and dense[r][j] != 0), None)
        if piv is None:
            continue
        cp = dense[piv][j]
        if cp != 1:
            f = field.inv(cp)
            dense[piv] = [field.mul(f, x) for x in dense[piv]]
        alive[piv] = False
        for r in range(n_rows) if reduced else [r for r in range(n_rows) if alive[r]]:
            if r == piv or dense[r][j] == 0:
                continue
            c = field.neg(dense[r][j])
            dense[r] = [field.add(x, field.mul(c, y)) for x, y in zip(dense[r], dense[piv])]
        pivot_cols.append(j)
        pivot_rows.append(piv)
        if len(pivot_cols) == n_rows:
            break
    pivot_values = None
    if reduced:
        pivot_values = np.array(
            [dense[r] for r in pivot_rows], dtype=np.int64
        ).reshape(len(pivot_rows), n_cols)
    return ElimResult(len(pivot_cols), tuple(pivot_cols), pivot_values)
