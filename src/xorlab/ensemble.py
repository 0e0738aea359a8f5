"""Random instance generators for sparse matrices over GF(q).

The base ensemble draws m rows whose supports are independent uniform
k-subsets of the n columns; the nonzero entries come from a coefficient
scheme (all ones, a seeded i.i.d. stream, or an explicit table).
Pinning appends unary rows with a single 1 in a random column; the
pinned ensemble draws the pin count uniformly from {1, ..., ceil(ln n)}.
The interpolation family mixes Poisson numbers of weight-k and unary
rows.

Reproducibility contract: every generator is a pure function of
(params, rng state).  Row supports are sampled with Floyd's
rejection-free algorithm, consuming exactly k integer draws per row;
the draw order within each generator is documented in its docstring, so
identical (params, seed) produce bit-identical matrices.

The generators work on whole arrays.  The supports of all m rows come
from one ``rng.integers`` call with an array of upper bounds, which
consumes the stream exactly like m k scalar calls in row order; Floyd's
draws do not depend on earlier outcomes, so its collisions are resolved
afterwards, one column at a time.  Seeded coefficients come from a
numpy implementation of Philox4x64-10 and of ``Generator.integers``'
bounded map (Lemire's method) that matches numpy's own bit generator
entry for entry; the rare entries that the bounded map would reject
and redraw go to the scalar ``SeededNonzero.coefficient``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from xorlab.field import Field, build_field
from xorlab.sparsemat import SparseMatrix, rank, stack_rows

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC 2011)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _scalar_coefficients(scheme, field: Field, rows, cols) -> np.ndarray:
    """``scheme.coefficient`` at every broadcast (row, col) pair."""
    rows, cols = np.broadcast_arrays(rows, cols)
    out = [scheme.coefficient(field, int(r), int(c)) for r, c in zip(rows.flat, cols.flat)]
    return np.array(out, dtype=np.int64).reshape(rows.shape)


class AllOnes:
    """Every nonzero entry is the field's 1 (XORSAT when q = 2)."""

    kind = "all_ones"

    def coefficient(self, field: Field, row: int, col: int) -> int:
        return 1

    def coefficients(self, field: Field, rows, cols) -> np.ndarray:
        return np.ones(np.broadcast_shapes(np.shape(rows), np.shape(cols)), dtype=np.int64)

    def to_dict(self):
        return {"kind": self.kind}

    def __eq__(self, other):
        return isinstance(other, AllOnes)

    def __hash__(self):
        return hash(self.kind)


class SeededNonzero:
    """Entries drawn i.i.d. uniform from GF(q) \\ {0}.

    The entry at (row, col) comes from a counter-based stream keyed by
    the scheme seed with the (row, col) pair as the counter, so the
    scheme behaves like a fixed infinite coefficient matrix that can be
    addressed in any order.
    """

    kind = "seeded_nonzero"

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed < 1 << 128:
            raise ValueError(f"seeded_nonzero seed must lie in [0, 2^128), got {seed}")

    def coefficient(self, field: Field, row: int, col: int) -> int:
        bitgen = np.random.Philox(key=self.seed, counter=[0, 0, row, col])
        return int(np.random.Generator(bitgen).integers(1, field.q))

    def coefficients(self, field: Field, rows, cols) -> np.ndarray:
        """``coefficient`` at every broadcast (row, col) pair, in array passes.

        Philox increments its counter before the first block, so the entry
        is numpy's first draw from block [1, 0, row, col].
        ``Generator.integers(1, q)`` maps the low 32 bits x of the block's
        first word to 1 + (x (q - 1) >> 32) and redraws when the low half
        of the product falls below (2^32 - (q - 1)) mod (q - 1); those
        entries take the scalar path.
        """
        rows, cols = np.broadcast_arrays(
            np.asarray(rows, dtype=np.uint64), np.asarray(cols, dtype=np.uint64)
        )
        q = field.q
        if q == 2:  # a one-element range draws nothing
            return np.ones(rows.shape, dtype=np.int64)
        if q - 1 > _MASK32:  # numpy bounds such ranges with 64-bit words
            return _scalar_coefficients(self, field, rows, cols)
        word = _philox4x64_first_word(self.seed, rows, cols)
        product = (word & _MASK32) * np.uint64(q - 1)
        out = (product >> 32).astype(np.int64) + 1
        rejected = np.flatnonzero((product & _MASK32) < (_MASK32 + 1 - (q - 1)) % (q - 1))
        for i in rejected:
            out.flat[i] = self.coefficient(field, int(rows.flat[i]), int(cols.flat[i]))
        return out

    def to_dict(self):
        return {"kind": self.kind, "seed": self.seed}

    def __eq__(self, other):
        return isinstance(other, SeededNonzero) and other.seed == self.seed

    def __hash__(self):
        return hash((self.kind, self.seed))


class ExplicitTableError(ValueError):
    """An explicit table cannot supply a nonzero GF(q) entry at an address the run draws."""


class ExplicitTable:
    """A finite prefix of the coefficient matrix, indexed [row][col].

    Rows may prescribe different nonzero entries; sampling a support
    column beyond a row's stored prefix is an error.
    """

    kind = "explicit"

    def __init__(self, rows):
        self.rows = tuple(tuple(int(v) for v in r) for r in rows)
        if any(v == 0 for r in self.rows for v in r):
            raise ValueError("explicit coefficient tables must be nonzero")

    def coefficient(self, field: Field, row: int, col: int) -> int:
        try:
            v = self.rows[row][col]
        except IndexError:
            raise ExplicitTableError(f"explicit table has no entry at ({row}, {col})") from None
        if not 1 <= v < field.q:
            raise ExplicitTableError(f"{v} is not a nonzero element of GF({field.q})")
        return v

    def coefficients(self, field: Field, rows, cols) -> np.ndarray:
        return _scalar_coefficients(self, field, rows, cols)

    def to_dict(self):
        return {"kind": self.kind, "rows": [list(r) for r in self.rows]}

    def __eq__(self, other):
        return isinstance(other, ExplicitTable) and other.rows == self.rows

    def __hash__(self):
        return hash((self.kind, self.rows))


def scheme_from_dict(d) -> AllOnes | SeededNonzero | ExplicitTable:
    """The scheme a ``to_dict`` output describes; ValueError on a bad one."""
    try:
        kind = d["kind"]
        if kind == AllOnes.kind:
            return AllOnes()
        if kind == SeededNonzero.kind:
            return SeededNonzero(d["seed"])
        if kind == ExplicitTable.kind:
            return ExplicitTable(d["rows"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad coefficient scheme {d!r}") from exc
    raise ValueError(f"unknown coefficient scheme {kind!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Size, density and coefficient scheme of one random ensemble.

    Exactly one of ``m`` (row count) and ``d`` (average variable degree,
    m = round(d n / k)) must be given.
    """

    n: int
    k: int
    q: int
    m: int | None = None
    d: float | None = None
    scheme: AllOnes | SeededNonzero | ExplicitTable = AllOnes()
    seed: int = 0

    def __post_init__(self):
        if (self.m is None) == (self.d is None):
            raise ValueError("give exactly one of m and d")
        if self.k < 3:
            raise ValueError("row weight k must be >= 3")
        if self.k > self.n:
            raise ValueError("row weight k cannot exceed n")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be >= 0")
        if self.d is not None and self.d <= 0:
            raise ValueError("d must be > 0")

    @property
    def m_rows(self) -> int:
        if self.m is not None:
            return self.m
        return round(self.d * self.n / self.k)

    @property
    def density(self) -> float:
        if self.d is not None:
            return self.d
        return self.k * self.m / self.n

    @property
    def field(self) -> Field:
        return build_field(self.q)

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))

    def to_dict(self) -> dict:
        out = {"n": self.n, "k": self.k, "q": self.q, "seed": self.seed,
               "scheme": self.scheme.to_dict()}
        if self.m is not None:
            out["m"] = self.m
        else:
            out["d"] = self.d
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleParams":
        return cls(
            n=d["n"],
            k=d["k"],
            q=d["q"],
            m=d.get("m"),
            d=d.get("d"),
            scheme=scheme_from_dict(d.get("scheme", {"kind": "all_ones"})),
            seed=d.get("seed", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleParams":
        return cls.from_dict(json.loads(text))


def _mulhilo64(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * b, the high word from 32-bit limbs."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    carry = ((lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)) >> 32
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + carry, np.uint64(a) * b


def _philox4x64_first_word(key: int, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """First output word of Philox4x64-10 on counters [1, 0, c2, c3] (uint64 arrays)."""
    k0, k1 = key & _MASK64, key >> 64
    c0 = np.ones(c2.shape, dtype=np.uint64)
    c1 = np.zeros(c2.shape, dtype=np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo64(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo64(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    return c0


def _supports(n: int, k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform k-subsets of range(n) as sorted (m, k) rows; exactly m k draws.

    Floyd's algorithm: column c draws x uniform in [0, t], t = n - k + c,
    and takes t instead when x is already in the row.  All draws come
    from one call, in the order of m k scalar calls.
    """
    t = np.arange(n - k, n, dtype=np.int64)
    out = rng.integers(0, np.broadcast_to(t + 1, (m, k)))
    for c in range(1, k):
        hit = (out[:, :c] == out[:, c : c + 1]).any(axis=1)
        out[hit, c] = t[c]
    out.sort(axis=1)
    return out


def _weight_k_matrix(params: EnsembleParams, m: int, rng: np.random.Generator) -> SparseMatrix:
    """m rows of weight k: Floyd supports with the scheme's coefficients."""
    cols = _supports(params.n, params.k, m, rng)
    vals = params.scheme.coefficients(params.field, np.arange(m)[:, None], cols)
    indptr = np.arange(0, m * params.k + 1, params.k)
    return SparseMatrix(params.field, params.n, indptr, cols.ravel(), vals.ravel())


def gen_base(params: EnsembleParams, rng: np.random.Generator) -> SparseMatrix:
    """The base ensemble: m weight-k rows with scheme coefficients.

    Draw order: row 0's support (k draws), row 1's support, ...
    Coefficients come from the scheme, not from ``rng``.
    """
    return _weight_k_matrix(params, params.m_rows, rng)


def pin(A: SparseMatrix, t: int, rng: np.random.Generator) -> SparseMatrix:
    """Append t unary rows, each a single 1 in an independent uniform column."""
    if t < 0:
        raise ValueError("pin count must be >= 0")
    return stack_rows(A, [[(c, 1)] for c in rng.integers(0, A.n_cols, size=t).tolist()])


def pin_count_bound(n: int) -> int:
    """T = ceil(ln n): the upper end of the pin-count range."""
    return math.ceil(math.log(n))


def gen_pinned(params: EnsembleParams, rng: np.random.Generator) -> tuple[SparseMatrix, int]:
    """Base ensemble plus t pinning rows, t uniform in {1, ..., ceil(ln n)}.

    Draw order: t first, then the base rows, then the pin columns.
    Requires n >= 2 so the range is nonempty.
    """
    if params.n < 2:
        raise ValueError("pinned ensemble needs n >= 2")
    T = pin_count_bound(params.n)
    t = int(rng.integers(1, T + 1))
    A = gen_base(params, rng)
    return pin(A, t, rng), t


def gen_interpolated(
    params: EnsembleParams,
    theta: float,
    alpha_f: float,
    rng: np.random.Generator,
) -> SparseMatrix:
    """The interpolation family between the pinned ensemble and unary rows.

    Poisson((1 - theta) d n / k) weight-k rows, then
    Poisson(d theta alpha_f^(k-1) n) unary rows, then the usual pinning
    block.  Draw order: m_theta, its rows, m'_theta, its columns, t,
    pin columns.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not 0.0 <= alpha_f <= 1.0:
        raise ValueError("alpha_f must lie in [0, 1]")
    d, n, k = params.density, params.n, params.k
    m_theta = int(rng.poisson((1.0 - theta) * d * n / k))
    A = _weight_k_matrix(params, m_theta, rng)
    m_unary = int(rng.poisson(d * theta * alpha_f ** (k - 1) * n))
    A = stack_rows(A, [[(c, 1)] for c in rng.integers(0, n, size=m_unary).tolist()])
    T = pin_count_bound(n)
    t = int(rng.integers(1, T + 1))
    return pin(A, t, rng)


def xorsat_instance(
    params: EnsembleParams, rng: np.random.Generator
) -> tuple[SparseMatrix, np.ndarray]:
    """A base matrix together with an independent uniform right-hand side.

    Draw order: the matrix first, then the m entries of y.  Solvability
    of A sigma = y is the satisfiability proxy.
    """
    A = gen_base(params, rng)
    y = rng.integers(0, params.q, size=params.m_rows)
    return A, y


def is_solvable(A: SparseMatrix, y) -> bool:
    """rank(A) == rank(A | y), via one elimination of the augmented matrix."""
    y = np.asarray(y, dtype=np.int64)
    extra = np.flatnonzero(y)
    order = np.argsort(np.append(A.entry_rows, extra), kind="stable")  # y_i ends row i
    aug = SparseMatrix(A.field, A.n_cols + 1, A.indptr + np.append(0, np.cumsum(y != 0)),
                       np.append(A.cols, np.full(extra.size, A.n_cols))[order],
                       np.append(A.vals, y[extra])[order])
    return rank(aug) == rank(A)
