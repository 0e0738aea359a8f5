"""Exact arithmetic in the finite field GF(q) for prime powers q = p^e.

Field elements are plain Python integers in [0, q).  The integer encodes
the coefficient vector of the residue polynomial in base p, low-order
digit first: the element a_0 + a_1 x + ... + a_{e-1} x^{e-1} is stored
as a_0 + a_1 p + ... + a_{e-1} p^{e-1}.  For e = 1 this is just the
integer mod p.  The encoding makes 0 the additive and 1 the
multiplicative identity, and lets elements serialize as bare integers.

The reduction modulus is the lexicographically smallest monic
irreducible polynomial of degree e over GF(p) (smallest base-p integer
encoding), found by exhaustive search and verified by trial division by
every monic polynomial of degree <= e/2.  This makes `build_field(q)`
deterministic: two runs, or two machines, always agree on the element
encoding.

Extension fields keep exp/log tables over a generator of the
multiplicative group, so mul/inv are table lookups.  Extension fields
are capped at q <= 2**16 (the table limit); prime fields have no tables
and no such cap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest supported extension-field order; exp/log tables are built up to
# this size.  Prime fields (e = 1) are exempt.
TABLE_LIMIT = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise ValueError; p, the smallest divisor, is prime."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1  # q itself is prime
    e = 0
    r = q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


# -- polynomial helpers over GF(p), coefficient tuples low-order first --


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...], p: int):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quo = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            f = c * inv_lead % p
            quo[i - dd] = f
            for j, dc in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * dc) % p
    while num and num[-1] % p == 0:
        num.pop()
    return tuple(quo), tuple(c % p for c in num)


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    _, rem = _poly_divmod(tuple(prod), mod, p)
    return rem


def _int_to_poly(v: int, p: int) -> tuple[int, ...]:
    coeffs = []
    while v:
        v, r = divmod(v, p)
        coeffs.append(r)
    return tuple(coeffs)


def _poly_to_int(coeffs, p: int) -> int:
    v = 0
    for c in reversed(tuple(coeffs)):
        v = v * p + c
    return v


def _is_irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    e = len(candidate) - 1
    for deg in range(1, e // 2 + 1):
        for enc in range(p**deg, 2 * p**deg):
            den = _int_to_poly(enc, p)
            _, rem = _poly_divmod(candidate, den, p)
            if not rem:
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # Monic degree-e polynomials ordered by the base-p encoding of their
    # non-leading coefficients; the first irreducible one wins.
    for low in range(p**e):
        candidate = _int_to_poly(low + p**e, p)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(q) with elements encoded as integers in [0, q).

    Instances are immutable after construction and safe to share across
    threads; every operation is a pure function of its arguments.
    Use :func:`build_field` rather than calling this directly, so that
    field instances are cached and shared.
    """

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        if e > 1 and q > TABLE_LIMIT:
            raise ValueError(
                f"extension field GF({q}) exceeds the table limit {TABLE_LIMIT}"
            )
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            # Arithmetic is plain integers mod p; the modulus slot is the
            # polynomial x, recorded only for uniformity.
            self.modulus: tuple[int, ...] = (0, 1)
            self._exp = None
            self._log = None
        else:
            self.modulus = _smallest_irreducible(p, e)
            self._build_tables()
        if q <= TABLE_LIMIT:
            self._neg_table = np.array([self.neg(a) for a in range(q)], dtype=np.int64)
        else:
            self._neg_table = None

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        # Find a generator of the multiplicative group.
        factors = []
        r = q - 1
        f = 2
        while f * f <= r:
            if r % f == 0:
                factors.append(f)
                while r % f == 0:
                    r //= f
            f += 1
        if r > 1:
            factors.append(r)
        one = (1,)
        for g in range(2, q):
            gp = _int_to_poly(g, p)
            if all(
                self._poly_pow(gp, (q - 1) // f) != one for f in factors
            ):
                gen = gp
                break
        else:
            raise AssertionError("no generator found")  # unreachable
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = one
        for i in range(q - 1):
            v = _poly_to_int(acc, p)
            exp[i] = v
            exp[i + q - 1] = v
            log[v] = i
            acc = _poly_mulmod(acc, gen, self.modulus, p)
        self._exp = exp
        self._log = log

    def _poly_pow(self, base: tuple[int, ...], n: int) -> tuple[int, ...]:
        result = (1,)
        while n:
            if n & 1:
                result = _poly_mulmod(result, base, self.modulus, self.p)
            base = _poly_mulmod(base, base, self.modulus, self.p)
            n >>= 1
        return result

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mul = self.p, 0, 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += (ra + rb) % p * mul
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mul = self.p, 0, 1
        while a:
            a, ra = divmod(a, p)
            out += (-ra) % p * mul
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return a * b % self.p
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[self.q - 1 - self._log[a]])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        if self.e == 1:
            return pow(a, n, self.p)
        return int(self._exp[self._log[a] * n % (self.q - 1)])

    # -- vectorized helpers on integer-encoded numpy arrays ----------------

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pa, pb, mul = np.asarray(a), np.asarray(b), 1
        for _ in range(self.e):
            pa, ra = np.divmod(pa, self.p)
            pb, rb = np.divmod(pb, self.p)
            out += (ra + rb) % self.p * mul
            mul *= self.p
        return out

    def neg_array(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self._neg_table is not None:
            return self._neg_table[a]
        return (-a) % self.p  # large prime field, no table

    def mul_scalar_array(self, c: int, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if c == 0:
            return np.zeros_like(a)
        if c == 1:
            return a.copy()
        if self.e == 1:
            return c * a % self.p
        out = np.zeros_like(a)
        nz = a != 0
        out[nz] = self._exp[self._log[a[nz]] + self._log[c]]
        return out

    # -- iteration and misc -------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"Field(q={self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))


@lru_cache(maxsize=None)
def build_field(q: int) -> Field:
    """Construct (or fetch the cached) GF(q).

    Rejects q that is not a prime power, q = 1, and extension fields
    beyond the table limit.  Deterministic: the modulus is the
    lexicographically smallest monic irreducible of the right degree.
    """
    return Field(q)
