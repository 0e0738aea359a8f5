"""Warning propagation on the Tanner graph of a sparse GF(q) matrix.

Messages live on directed edges and take the two symbolic values
'unfrozen'/'frozen', stored as booleans (True = frozen).  The module
provides the exact standard messages (frozen sets of row minors), the
one-step synchronous update, iteration to a fixed point, label
extraction (with the intermediate "slush" label), per-node message
statistics, and the checkable predicates for approximate fixed points
and kernel-vector extensions.

Every row minor's frozen set comes from one elimination of [A | I]: its
left kernel and e_j's row combination span all y with y A in span(e_j).

Update conventions at empty quantifiers: a degree-1 variable sends
'unfrozen' to its only check (empty existential), a degree-1 check sends
'frozen' to its only variable (empty universal).  This makes pinning
rows act as permanent freezers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xorlab import theory
from xorlab.sparsemat import BudgetExceededError, SparseMatrix, augmented_rref

LABEL_U, LABEL_S, LABEL_F = 0, 1, 2

# size guard for the exact standard messages: standard_messages refuses
# when (rows + edges) * rows * cols exceeds it
STANDARD_BUDGET = 2_000_000_000


class TannerGraph:
    """Bipartite variable/check adjacency of a sparse matrix.

    Edges are numbered row-major (by check, then by ascending column),
    which fixes the layout of every message array.
    """

    def __init__(self, A: SparseMatrix):
        self.matrix = A
        self.n_vars = A.n_cols
        self.n_checks = A.n_rows
        self.edge_var = A.cols
        self.edge_check = A.entry_rows
        self.row_ptr = A.indptr
        self.n_edges = A.nnz
        self.var_degree = np.bincount(self.edge_var, minlength=self.n_vars).astype(np.int64)
        self.check_degree = np.bincount(self.edge_check, minlength=self.n_checks).astype(np.int64)

    def check_edges(self, i: int) -> range:
        return range(int(self.row_ptr[i]), int(self.row_ptr[i + 1]))

    def edge_id(self, i: int, j: int) -> int:
        for e in self.check_edges(i):
            if self.edge_var[e] == j:
                return e
        raise KeyError(f"no edge between check {i} and variable {j}")


@dataclass
class MessageSet:
    """Boolean message tables over the directed edges (True = frozen).

    ``frozen`` is the exact (n_cols,) frozen-variable mask, set only by
    :func:`standard_messages`; equality ignores it.
    """

    var_to_check: np.ndarray
    check_to_var: np.ndarray
    frozen: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MessageSet)
            and np.array_equal(self.var_to_check, other.var_to_check)
            and np.array_equal(self.check_to_var, other.check_to_var)
        )

    def copy(self) -> "MessageSet":
        return MessageSet(self.var_to_check.copy(), self.check_to_var.copy())

    @property
    def frozen_fraction(self) -> float:
        """Fraction of frozen var-to-check messages (the empirical alpha)."""
        if self.var_to_check.size == 0:
            return 0.0
        return float(self.var_to_check.mean())


def all_f_messages(G: TannerGraph) -> MessageSet:
    return MessageSet(
        np.ones(G.n_edges, dtype=bool), np.ones(G.n_edges, dtype=bool)
    )


def all_u_messages(G: TannerGraph) -> MessageSet:
    return MessageSet(
        np.zeros(G.n_edges, dtype=bool), np.zeros(G.n_edges, dtype=bool)
    )


def standard_messages(A: SparseMatrix, *, budget: int = STANDARD_BUDGET) -> MessageSet:
    """The exact messages defined through frozen sets of row minors.

    Variable j tells check i whether j is frozen once row i is deleted;
    check i tells variable j whether j is frozen once all of j's other
    rows are deleted.  Both are read off one elimination of [A | I]
    (:func:`~xorlab.sparsemat.augmented_rref`):

    - e_j survives deleting row i iff it lies in the row space and row i
      is redundant or has coefficient 0 in e_j's combination;
    - e_j survives deleting j's other rows iff some y with y A in
      span(e_j) is nonzero at i and zero on those rows, which one small
      elimination per variable decides.

    The same elimination gives the frozen set of A itself, returned as
    the result's ``frozen`` mask.  The guard refuses when
    (rows + edges) * rows * cols exceeds the budget.
    """
    G = TannerGraph(A)
    cost = (A.n_rows + G.n_edges + 1) * max(A.n_rows, 1) * max(A.n_cols, 1)
    if cost > budget:
        raise BudgetExceededError(
            f"standard messages would cost ~{cost} elementary operations"
            f" (budget {budget}); intended for small instances"
        )
    aug = augmented_rref(A)
    # j is frozen iff its RREF row is e_j; rep[j] indexes that row, -1 if none
    rep = np.full(A.n_cols, -1, dtype=np.int64)
    unit = np.count_nonzero(aug.rows, axis=1) == 1
    rep[aug.pivot_cols[unit]] = np.flatnonzero(unit)
    # every y with y A = e_j has the same value at a non-redundant row
    r, checks = rep[G.edge_var], G.edge_check
    vc = r >= 0
    vc[vc] = aug.redundant_rows[checks[vc]] | (aug.transform[r[vc], checks[vc]] == 0)
    # y A in span(e_j) iff y lies in the span of W_j: the left kernel, plus
    # e_j's combination when j is frozen; check i freezes j iff, with W_j
    # cut to j's checks and transposed, i's row is outside the others' span
    cv = np.zeros(G.n_edges, dtype=bool)
    by_var = np.argsort(G.edge_var, kind="stable")
    bounds = np.append(0, np.cumsum(G.var_degree))
    for j in np.flatnonzero(G.var_degree).tolist():
        edges = by_var[bounds[j]:bounds[j + 1]]
        W = aug.left_kernel[:, checks[edges]]
        if rep[j] >= 0:
            W = np.vstack([W, aug.transform[rep[j], checks[edges]]])
        if W.any():
            cv[edges] = ~augmented_rref(SparseMatrix.from_dense(A.field, W.T)).redundant_rows
    return MessageSet(vc, cv, rep >= 0)


def wp_update(G: TannerGraph, msgs: MessageSet) -> MessageSet:
    """One synchronous application of both update rules (input untouched)."""
    cv = msgs.check_to_var.astype(np.int64)
    vc = msgs.var_to_check.astype(np.int64)
    f_into_var = np.bincount(G.edge_var, weights=cv, minlength=G.n_vars)
    new_vc = (f_into_var[G.edge_var] - cv) >= 1
    f_into_check = np.bincount(G.edge_check, weights=vc, minlength=G.n_checks)
    new_cv = (f_into_check[G.edge_check] - vc) == (G.check_degree[G.edge_check] - 1)
    return MessageSet(new_vc, new_cv)


def wp_iterate(
    G: TannerGraph,
    init: str | MessageSet = "all_f",
    max_iter: int | None = None,
) -> tuple[MessageSet, bool, int]:
    """Iterate the update until no message changes or max_iter is hit.

    From the all-frozen start the frozen sets shrink monotonically, so
    the iteration reaches the greatest fixed point of the update within
    n_edges + 1 rounds; the default max_iter leaves slack beyond that.
    """
    if isinstance(init, MessageSet):
        msgs = init.copy()
        monotone = False
    elif init == "all_f":
        msgs = all_f_messages(G)
        monotone = True
    elif init == "all_u":
        msgs = all_u_messages(G)
        monotone = False
    else:
        raise ValueError(f"unknown init {init!r}")
    if max_iter is None:
        max_iter = 2 * G.n_edges + 4
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    for it in range(1, max_iter + 1):
        new = wp_update(G, msgs)
        if monotone and (
            np.any(new.var_to_check & ~msgs.var_to_check)
            or np.any(new.check_to_var & ~msgs.check_to_var)
        ):
            raise RuntimeError(f"WP from all-frozen grew a frozen set in round {it}")
        if new == msgs:
            return new, True, it
        msgs = new
    return msgs, False, max_iter


@dataclass(eq=False)
class Labels:
    """Per-node labels in {u, s, f} extracted from a message set."""

    var_label: np.ndarray  # int8 codes LABEL_U/S/F
    check_label: np.ndarray


def labels(G: TannerGraph, msgs: MessageSet) -> Labels:
    """Variables: f on >= 2 incoming frozen, s on exactly one, else u.

    Checks: f when every incoming message is frozen, s when all but
    exactly one, else u (a degree-0 check is vacuously f).
    """
    f_into_var = np.bincount(
        G.edge_var, weights=msgs.check_to_var.astype(np.int64), minlength=G.n_vars
    ).astype(np.int64)
    var_label = np.full(G.n_vars, LABEL_U, dtype=np.int8)
    var_label[f_into_var == 1] = LABEL_S
    var_label[f_into_var >= 2] = LABEL_F
    f_into_check = np.bincount(
        G.edge_check, weights=msgs.var_to_check.astype(np.int64), minlength=G.n_checks
    ).astype(np.int64)
    check_label = np.full(G.n_checks, LABEL_U, dtype=np.int8)
    check_label[f_into_check == G.check_degree - 1] = LABEL_S
    check_label[f_into_check == G.check_degree] = LABEL_F
    return Labels(var_label, check_label)


@dataclass
class WPStats:
    """Counts of nodes per (label, message profile).

    Profiles are (l_uu, l_uf, l_fu, l_ff): the number of incident edges
    with incoming message s and outgoing message t for each pair st.
    ``off_class_vars``/``off_class_checks`` count nodes whose profile
    falls outside the conceivable class of their label (for checks,
    measured against the ensemble row weight k); they are flagged here
    rather than dropped.
    """

    delta: dict[tuple[str, tuple[int, int, int, int]], int]
    gamma: dict[tuple[str, tuple[int, int, int, int]], int]
    n_vars: int
    n_checks: int
    off_class_vars: int
    off_class_checks: int


def _profile_counts(node_of_edge, n_nodes, incoming, outgoing) -> np.ndarray:
    code = 2 * incoming.astype(np.int64) + outgoing.astype(np.int64)
    flat = np.bincount(node_of_edge * 4 + code, minlength=4 * n_nodes)
    return flat.reshape(n_nodes, 4)  # columns: uu, uf, fu, ff


def stats(G: TannerGraph, msgs: MessageSet, k: int | None = None) -> WPStats:
    """Bucket nodes by label and incoming/outgoing message profile."""
    if k is None:
        k = (
            int(np.argmax(np.bincount(G.check_degree)))
            if G.n_checks
            else 0
        )
    lab = labels(G, msgs)
    var_prof = _profile_counts(G.edge_var, G.n_vars, msgs.check_to_var, msgs.var_to_check)
    chk_prof = _profile_counts(G.edge_check, G.n_checks, msgs.var_to_check, msgs.check_to_var)
    delta, off_vars = _bucket(lab.var_label, var_prof, theory.in_variable_class)
    gamma, off_checks = _bucket(
        lab.check_label, chk_prof, lambda z, ell: theory.in_check_class(z, ell, k)
    )
    return WPStats(delta, gamma, G.n_vars, G.n_checks, off_vars, off_checks)


def _bucket(label, prof, in_class) -> tuple[dict, int]:
    """Node counts per distinct (label, profile), and the count outside ``in_class``.

    Each node's (label, l_uu, l_uf, l_fu, l_ff) is one mixed-radix code
    with base max(profile) + 1 below the label digit, so sorting the
    codes sorts the keys; int64 holds it for node degrees below 40000.
    """
    base = int(prof.max(initial=0)) + 1
    code = label.astype(np.int64)
    for column in prof.T:
        code = code * base + column
    codes, counts = np.unique(code, return_counts=True)
    keys = np.column_stack([codes // base**4, *(codes // base**p % base for p in (3, 2, 1, 0))])
    table: dict = {}
    off = 0
    for (z, *ell), c in zip(keys.tolist(), counts.tolist()):
        key = ("usf"[z], tuple(ell))
        table[key] = c
        if not in_class(*key):
            off += c
    return table, off


def fixed_point_violations(G: TannerGraph, msgs: MessageSet) -> int:
    """Number of directed-edge messages changed by one update."""
    new = wp_update(G, msgs)
    return int(
        np.sum(new.var_to_check != msgs.var_to_check)
        + np.sum(new.check_to_var != msgs.check_to_var)
    )


def stats_distance_by_label(
    G: TannerGraph, msgs: MessageSet, alpha: float, d: float, k: int
) -> dict[str, float]:
    """Per-label l1 distance between empirical and predicted statistics.

    For each label z sums |Delta - n Delta_bar(alpha)| + |Gamma -
    m Gamma_bar(alpha)| over the union of observed profiles and
    predictions of mass at least 1e-12; m is the number of weight-k
    checks.  Unnormalized.
    """
    emp = stats(G, msgs, k)
    m = int(np.sum(G.check_degree == k))
    return tables_distance_by_label(emp.delta, emp.gamma, G.n_vars, m, alpha, d, k)


def tables_distance_by_label(
    delta: dict, gamma: dict, n: float, m: float, alpha: float, d: float, k: int
) -> dict[str, float]:
    """Per-label l1 distance of (label, profile) count tables from the prediction.

    Sums |delta - n Delta_bar(alpha)| + |gamma - m Gamma_bar(alpha)|
    over the union of table keys and predictions of mass at least
    1e-12.  The union is visited in sorted order, so the float sums do
    not depend on the interpreter's string hash seed.
    """
    pred_var, pred_chk = theory.predicted_detail_tables(d, k, alpha)
    dist = {theory.U: 0.0, theory.S: 0.0, theory.F: 0.0}
    for emp, pred, size in ((delta, pred_var, n), (gamma, pred_chk, m)):
        for key in sorted(emp.keys() | pred.keys()):
            dist[key[0]] += abs(emp.get(key, 0) - size * pred.get(key, 0.0))
    return dist


def stats_distance(G: TannerGraph, msgs: MessageSet, alpha: float, d: float, k: int) -> float:
    """Total l1 statistics distance (sum of the per-label parts)."""
    return sum(stats_distance_by_label(G, msgs, alpha, d, k).values())


def is_alpha_fixed_point(
    G: TannerGraph,
    msgs: MessageSet,
    alpha: float,
    d: float,
    k: int,
    tol_fp: float = 0.1,
    tol_stats: float = 0.1,
) -> bool:
    """Approximate fixed point with statistics matching the alpha prediction.

    True iff the update changes at most tol_fp * n messages and the
    statistics distance is at most tol_stats * n.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if tol_fp <= 0 or tol_stats <= 0:
        raise ValueError("tolerances must be positive")
    n = max(G.n_vars, 1)
    if fixed_point_violations(G, msgs) > tol_fp * n:
        return False
    return stats_distance(G, msgs, alpha, d, k) <= tol_stats * n


def extension_defect(G: TannerGraph, lab: Labels, sigma, q: int) -> float:
    """Unnormalized defect of sigma as an extension of the labelling.

    First part: coordinates labelled non-u that are nonzero.  Second
    part: for each nonzero value s and each variable degree, the
    absolute imbalance of s among u-labelled variables of that degree.
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape[0] != G.n_vars:
        raise ValueError("sigma length must equal the number of variables")
    non_u = lab.var_label != LABEL_U
    first = int(np.sum(non_u & (sigma != 0)))
    return first + degree_imbalance(sigma, G.var_degree, ~non_u, q)


def degree_imbalance(sigma: np.ndarray, degree: np.ndarray, mask: np.ndarray, q: int) -> float:
    """Sum of |#{sigma = s} - size / q| over nonzero s and the degree classes of ``mask``.

    The terms of one degree class are summed first, then the classes in
    increasing degree.
    """
    total = 0.0
    for deg in np.unique(degree[mask]):
        sel = mask & (degree == deg)
        n_sel = sel.sum()
        counts = np.bincount(sigma[sel], minlength=q)
        total += sum(abs(counts[s] - n_sel / q) for s in range(1, q))
    return total


def is_extension(G: TannerGraph, lab: Labels, sigma, q: int, tol: float = 0.1) -> bool:
    return extension_defect(G, lab, sigma, q) <= tol * max(G.n_vars, 1)


# -- dumps -------------------------------------------------------------------


def messages_to_csv(G: TannerGraph, msgs: MessageSet) -> str:
    """One line per directed message: check,var,direction,value."""
    lines = ["check,var,direction,value"]
    for e in range(G.n_edges):
        i, j = int(G.edge_check[e]), int(G.edge_var[e])
        lines.append(f"{i},{j},v_to_c,{'f' if msgs.var_to_check[e] else 'u'}")
        lines.append(f"{i},{j},c_to_v,{'f' if msgs.check_to_var[e] else 'u'}")
    return "\n".join(lines) + "\n"


def stats_to_json_dict(st: WPStats) -> dict:
    """JSON-ready dict keyed by "z/luu-luf-lfu-lff"."""

    def keyfmt(z, ell):
        return f"{z}/{ell[0]}-{ell[1]}-{ell[2]}-{ell[3]}"

    return {
        "delta": {keyfmt(z, ell): c for (z, ell), c in sorted(st.delta.items())},
        "gamma": {keyfmt(z, ell): c for (z, ell), c in sorted(st.gamma.items())},
        "n_vars": st.n_vars,
        "n_checks": st.n_checks,
        "off_class_vars": st.off_class_vars,
        "off_class_checks": st.off_class_checks,
    }
