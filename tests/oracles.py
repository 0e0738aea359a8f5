"""Independent brute-force oracles used across the test suite.

Everything here is written against the definitions, not against the
library's elimination path: kernels by exhaustive enumeration, relations
by enumerating row combinations, echelon forms by textbook dense
elimination.  Deliberately slow and only usable on tiny instances.
"""

from __future__ import annotations

import itertools

import numpy as np


def enumerate_kernel(A) -> list[tuple[int, ...]]:
    """All sigma with A sigma = 0, by trying every vector in F_q^n."""
    f, n = A.field, A.n_cols
    out = []
    for sigma in itertools.product(range(f.q), repeat=n):
        if not any(A.matvec(np.array(sigma, dtype=np.int64))):
            out.append(sigma)
    return out


def enumerate_kernel_from_basis(A) -> list[tuple[int, ...]]:
    """All kernel vectors as combinations of the library basis."""
    from xorlab.sparsemat import kernel_basis

    f = A.field
    kb = kernel_basis(A)
    out = []
    for coeffs in itertools.product(range(f.q), repeat=kb.dimension):
        sigma = np.zeros(A.n_cols, dtype=np.int64)
        for c, vec in zip(coeffs, kb.basis):
            sigma = f.add_arrays(sigma, f.mul_scalar_array(c, vec))
        out.append(tuple(int(x) for x in sigma))
    return out


def brute_frozen_set(A) -> frozenset[int]:
    kernel = enumerate_kernel(A)
    return frozenset(
        j for j in range(A.n_cols) if all(sigma[j] == 0 for sigma in kernel)
    )


def brute_is_relation(A, J) -> bool:
    """Enumerate every left combination y and test supp(y^T A) subset J."""
    f = A.field
    J = set(J)
    dense = A.to_dense()
    for y in itertools.product(range(f.q), repeat=A.n_rows):
        comb = np.zeros(A.n_cols, dtype=np.int64)
        for yi, row in zip(y, dense):
            comb = f.add_arrays(comb, f.mul_scalar_array(yi, row))
        supp = {int(j) for j in np.flatnonzero(comb)}
        if supp and supp <= J:
            return True
    return False


def brute_proper_relation_counts(A, ell: int) -> dict[int, int]:
    frozen = brute_frozen_set(A)
    counts = {}
    for h in range(2, ell + 1):
        c = 0
        for J in itertools.combinations(range(A.n_cols), h):
            rest = set(J) - frozen
            if rest and brute_is_relation(A, rest):
                c += 1
        counts[h] = c
    return counts


def reference_rref(A) -> tuple[np.ndarray, int, list[int]]:
    """Textbook dense Gauss-Jordan; returns (matrix, rank, pivot cols)."""
    f = A.field
    M = [[int(v) for v in row] for row in A.to_dense()]
    n_rows, n_cols = A.n_rows, A.n_cols
    r = 0
    pivots = []
    for j in range(n_cols):
        sel = next((i for i in range(r, n_rows) if M[i][j]), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = f.inv(M[r][j])
        M[r] = [f.mul(inv, x) for x in M[r]]
        for i in range(n_rows):
            if i != r and M[i][j]:
                c = f.neg(M[i][j])
                M[i] = [f.add(x, f.mul(c, y)) for x, y in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
        if r == n_rows:
            break
    return np.array(M, dtype=np.int64).reshape(n_rows, n_cols), r, pivots


def random_sparse(field, n_rows, n_cols, rng, density=0.4):
    from xorlab.sparsemat import SparseMatrix

    rows = []
    for _ in range(n_rows):
        row = [
            (j, int(rng.integers(1, field.q)))
            for j in range(n_cols)
            if rng.random() < density
        ]
        rows.append(row)
    return SparseMatrix.from_rows(field, n_cols, rows)


def random_acyclic_pinned(field, n, k, m, n_pins, rng, max_attempts=500):
    """A pinned instance whose Tanner graph is a forest.

    Weight-k rows are rejection-sampled so that no row closes a cycle
    (union-find on the variables); unary pinning rows are leaf checks
    and never create cycles.
    """
    from xorlab.sparsemat import SparseMatrix

    parent = None

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _ in range(max_attempts):
        parent = list(range(n))
        rows = []
        ok = True
        for _ in range(m):
            support = sorted(rng.choice(n, size=k, replace=False))
            roots = [find(v) for v in support]
            if len(set(roots)) < k:
                ok = False
                break
            for r in roots[1:]:
                parent[r] = roots[0]
            rows.append([(int(v), int(rng.integers(1, field.q))) for v in support])
        if not ok:
            continue
        for _ in range(n_pins):
            rows.append([(int(rng.integers(0, n)), 1)])
        return SparseMatrix.from_rows(field, n, rows)
    raise RuntimeError("no acyclic instance found; lower m")


# -- scalar ensemble generators ---------------------------------------------------
#
# The generators as first written: one Floyd draw per call and one Philox
# generator per seeded entry.  ``xorlab.ensemble`` must give the same
# matrices for every (params, rng state).


def philox_coefficient(seed: int, q: int, row: int, col: int) -> int:
    """The seeded_nonzero entry at (row, col): numpy's own Philox4x64-10."""
    bitgen = np.random.Philox(key=seed, counter=[0, 0, row, col])
    return int(np.random.Generator(bitgen).integers(1, q))


def floyd_ksubset(n: int, k: int, rng) -> list[int]:
    """Uniform k-subset of range(n); exactly k scalar draws from rng."""
    chosen: set[int] = set()
    for t in range(n - k, n):
        x = int(rng.integers(0, t + 1))
        chosen.add(t if x in chosen else x)
    return sorted(chosen)


def _reference_coefficient(params, field, row, col):
    if params.scheme.kind == "seeded_nonzero":
        return philox_coefficient(params.scheme.seed, field.q, row, col)
    return params.scheme.coefficient(field, row, col)


def _reference_weight_k_rows(params, field, m, rng):
    rows = []
    for i in range(m):
        support = floyd_ksubset(params.n, params.k, rng)
        rows.append([(j, _reference_coefficient(params, field, i, j)) for j in support])
    return rows


def reference_gen_base(params, rng):
    from xorlab.sparsemat import SparseMatrix

    f = params.field
    return SparseMatrix.from_rows(
        f, params.n, _reference_weight_k_rows(params, f, params.m_rows, rng)
    )


def reference_pin(A, t, rng):
    from xorlab.sparsemat import SparseMatrix

    extra = [[(int(rng.integers(0, A.n_cols)), 1)] for _ in range(t)]
    return SparseMatrix.from_rows(A.field, A.n_cols, list(A.rows) + extra)


def reference_gen_pinned(params, rng):
    from xorlab.ensemble import pin_count_bound

    t = int(rng.integers(1, pin_count_bound(params.n) + 1))
    return reference_pin(reference_gen_base(params, rng), t, rng), t


def reference_gen_interpolated(params, theta, alpha_f, rng):
    from xorlab.ensemble import pin_count_bound
    from xorlab.sparsemat import SparseMatrix

    f = params.field
    d, n, k = params.density, params.n, params.k
    m_theta = int(rng.poisson((1.0 - theta) * d * n / k))
    rows = _reference_weight_k_rows(params, f, m_theta, rng)
    m_unary = int(rng.poisson(d * theta * alpha_f ** (k - 1) * n))
    rows += [[(int(rng.integers(0, n)), 1)] for _ in range(m_unary)]
    A = SparseMatrix.from_rows(f, n, rows)
    t = int(rng.integers(1, pin_count_bound(n) + 1))
    return reference_pin(A, t, rng)


def reference_wp_stats(G, msgs, k):
    """``wp.stats`` as first written: one dict update per node, in node order."""
    from xorlab import theory
    from xorlab.wp import labels

    lab = labels(G, msgs)
    out = []
    for node_of_edge, n_nodes, incoming, outgoing, node_label, in_class in (
        (G.edge_var, G.n_vars, msgs.check_to_var, msgs.var_to_check, lab.var_label,
         theory.in_variable_class),
        (G.edge_check, G.n_checks, msgs.var_to_check, msgs.check_to_var, lab.check_label,
         lambda z, ell: theory.in_check_class(z, ell, k)),
    ):
        table, off = {}, 0
        for node in range(n_nodes):
            edges = node_of_edge == node
            ell = tuple(
                int(np.sum(edges & (incoming == s_in) & (outgoing == s_out)))
                for s_in in (False, True) for s_out in (False, True)
            )
            z = "usf"[node_label[node]]
            table[(z, ell)] = table.get((z, ell), 0) + 1
            off += not in_class(z, ell)
        out += [table, off]
    return out


# -- row-tuple reference for the CSR matrix operations ------------------------------


def reference_minor(A, removed_rows, removed_cols):
    """``minor`` by walking ``A.rows``: (rows, n_cols, kept_rows, kept_cols)."""
    removed_rows = {int(i) for i in removed_rows}
    removed_cols = {int(j) for j in removed_cols}
    kept_rows = [i for i in range(A.n_rows) if i not in removed_rows]
    kept_cols = [j for j in range(A.n_cols) if j not in removed_cols]
    col_map = {j: new for new, j in enumerate(kept_cols)}
    old_rows = A.rows
    rows = tuple(
        tuple((col_map[c], v) for c, v in old_rows[i] if c in col_map) for i in kept_rows
    )
    return rows, len(kept_cols), tuple(kept_rows), tuple(kept_cols)


def reference_stack_rows(A, extra_rows):
    """``stack_rows`` as row tuples: A's rows, then the extra rows."""
    return A.rows + tuple(tuple((int(c), int(v)) for c, v in row) for row in extra_rows)


# -- per-minor standard messages and per-vector kernel samples -------------------


def reference_standard_messages(A):
    """``wp.standard_messages`` as first written: one frozen set per row and per edge."""
    from xorlab.sparsemat import frozen_set, minor
    from xorlab.wp import MessageSet, TannerGraph

    G = TannerGraph(A)
    vc = np.zeros(G.n_edges, dtype=bool)
    cv = np.zeros(G.n_edges, dtype=bool)
    for i in range(A.n_rows):
        frozen = frozen_set(minor(A, {i}, ()).matrix)
        for e in G.check_edges(i):
            vc[e] = int(G.edge_var[e]) in frozen
    for j in range(A.n_cols):
        incident = np.flatnonzero(G.edge_var == j)
        for e in incident:
            i = int(G.edge_check[e])
            others = {int(G.edge_check[e2]) for e2 in incident} - {i}
            frozen = frozen_set(minor(A, others, ()).matrix)
            cv[e] = j in frozen
    return MessageSet(vc, cv)


def reference_kernel_sample(kb, rng):
    """``KernelBasis.sample`` as first written: one add and one scale per basis vector."""
    f = kb.field
    coeffs = rng.integers(0, f.q, size=kb.dimension)
    sigma = np.zeros(kb.basis.shape[1], dtype=np.int64)
    for c, vec in zip(coeffs, kb.basis):
        if c:
            sigma = f.add_arrays(sigma, f.mul_scalar_array(int(c), vec))
    return sigma
