import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xorlab.ensemble import EnsembleParams, SeededNonzero, gen_base, gen_pinned
from xorlab.field import build_field
from xorlab.sparsemat import BudgetExceededError, SparseMatrix, frozen_set
from xorlab.wp import (
    LABEL_F,
    LABEL_S,
    LABEL_U,
    MessageSet,
    TannerGraph,
    all_f_messages,
    all_u_messages,
    extension_defect,
    fixed_point_violations,
    is_alpha_fixed_point,
    is_extension,
    labels,
    messages_to_csv,
    standard_messages,
    stats,
    stats_distance,
    stats_to_json_dict,
    wp_iterate,
    wp_update,
)

from tests.oracles import (
    random_acyclic_pinned,
    reference_standard_messages,
    reference_wp_stats,
)

GF2 = build_field(2)


def mat(rows, n, q=2):
    return SparseMatrix.from_rows(build_field(q), n, rows)


PINNED_TRIANGLE = mat([[(0, 1), (1, 1), (2, 1)], [(1, 1)], [(2, 1)]], 3)


def test_graph_shape():
    G = TannerGraph(PINNED_TRIANGLE)
    assert G.n_vars == 3 and G.n_checks == 3 and G.n_edges == 5
    assert list(G.var_degree) == [1, 2, 2]
    assert list(G.check_degree) == [3, 1, 1]


def test_standard_messages_two_variable_path():
    # single row (1 1): removing the row unfreezes both; the full kernel
    # {00, 11} freezes neither, so all four messages are u
    A = mat([[(0, 1), (1, 1)]], 2)
    msgs = standard_messages(A)
    assert not msgs.var_to_check.any()
    assert not msgs.check_to_var.any()


def test_standard_messages_pinned_triangle():
    # exact oracle worked out by hand on the 3x3 instance
    A = PINNED_TRIANGLE
    G = TannerGraph(A)
    msgs = standard_messages(A)
    e_v1_a0 = G.edge_id(0, 1)
    e_v2_a0 = G.edge_id(0, 2)
    e_v0_a0 = G.edge_id(0, 0)
    assert msgs.var_to_check[e_v1_a0] and msgs.var_to_check[e_v2_a0]
    assert not msgs.var_to_check[e_v0_a0]
    assert msgs.check_to_var[e_v0_a0]  # a0 freezes v0
    lab = labels(G, msgs)
    assert lab.var_label[0] == LABEL_S
    st = stats(G, msgs, k=3)
    assert st.delta.get(("s", (0, 0, 1, 0)), 0) >= 1  # v0's bucket


def test_standard_messages_empty_matrix():
    A = SparseMatrix.zero(GF2, 0, 4)
    msgs = standard_messages(A)
    assert msgs.var_to_check.size == 0


def test_standard_messages_budget():
    p = EnsembleParams(n=4000, k=3, q=2, d=2.0, seed=0)
    A = gen_base(p, p.make_rng())
    with pytest.raises(BudgetExceededError):
        standard_messages(A)


def test_standard_messages_match_reference_on_pinned_instances():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        q = (2, 3, 4, 5, 9)[trial % 5]
        n = int(rng.integers(3, 21))
        p = EnsembleParams(n=n, k=3, q=q, d=float(rng.uniform(0.5, 3.5)),
                           scheme=SeededNonzero(trial), seed=trial)
        A, _ = gen_pinned(p, np.random.default_rng(trial))
        msgs = standard_messages(A)
        assert msgs == reference_standard_messages(A), (q, n)
        assert set(np.flatnonzero(msgs.frozen).tolist()) == frozen_set(A), (q, n)


DENSE_CASES = {
    "no-rows": np.zeros((0, 4), dtype=np.int64),
    "empty-row": [[1, 1, 0], [0, 0, 0], [0, 1, 1]],
    "duplicated-row": [[1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 1, 0]],
    "degree-0-variable": [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]],
    "full-column-rank": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1]],
}


@pytest.mark.parametrize("q", [8, 27, 37])
@pytest.mark.parametrize("case", DENSE_CASES)
def test_standard_messages_match_reference_on_dense_cases(q, case):
    f = build_field(q)
    rng = np.random.default_rng(q)
    dense = np.asarray(DENSE_CASES[case], dtype=np.int64)
    # each row times a nonzero scalar: the same pattern and row space, other values
    scaled = np.array([f.mul_scalar_array(int(c), row)
                       for c, row in zip(rng.integers(1, q, size=len(dense)), dense)],
                      dtype=np.int64).reshape(dense.shape)
    for D in (dense, scaled):
        A = SparseMatrix.from_dense(f, D)
        msgs = standard_messages(A)
        assert msgs == reference_standard_messages(A)
        assert set(np.flatnonzero(msgs.frozen).tolist()) == frozen_set(A)
    if case == "full-column-rank":
        msgs = standard_messages(A)
        assert frozen_set(A) == {0, 1, 2} and msgs.var_to_check.any()
    for _ in range(4):  # random dense patterns of the same shape
        D = rng.integers(0, q, size=dense.shape) * (rng.random(dense.shape) < 0.6)
        A = SparseMatrix.from_dense(f, D)
        assert standard_messages(A) == reference_standard_messages(A)


def test_all_u_is_fixed_point_when_check_degrees_ge2():
    A = mat([[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, 1), (2, 1)]], 3)
    G = TannerGraph(A)
    out = wp_update(G, all_u_messages(G))
    assert out == all_u_messages(G)
    assert fixed_point_violations(G, all_u_messages(G)) == 0


def test_unary_check_always_sends_f():
    A = mat([[(0, 1)]], 2)
    G = TannerGraph(A)
    for init in (all_u_messages(G), all_f_messages(G)):
        assert wp_update(G, init).check_to_var[0]


def test_all_f_on_isolated_check_flips_var_messages():
    # one k=3 check with degree-1 variables: no other checks exist, so all
    # three var-to-check messages flip to u in one update
    A = mat([[(0, 1), (1, 1), (2, 1)]], 3)
    G = TannerGraph(A)
    assert fixed_point_violations(G, all_f_messages(G)) == 3


def test_degree_one_variable_sends_u():
    A = mat([[(0, 1), (1, 1), (2, 1)]], 3)
    G = TannerGraph(A)
    out = wp_update(G, all_f_messages(G))
    assert not out.var_to_check.any()


def test_iterate_all_u_converges_immediately():
    A = mat([[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, 1), (2, 1)]], 3)
    G = TannerGraph(A)
    msgs, converged, iters = wp_iterate(G, "all_u")
    assert converged and iters == 1


def test_iterate_monotone_and_converges():
    p = EnsembleParams(n=300, k=3, q=2, d=2.5, seed=4)
    A, _ = gen_pinned(p, p.make_rng())
    G = TannerGraph(A)
    msgs, converged, iters = wp_iterate(G, "all_f")
    assert converged
    assert fixed_point_violations(G, msgs) == 0


def test_iterate_raises_when_all_f_start_is_not_monotone(monkeypatch):
    # a faulty update that unfreezes every message, then freezes them again
    import xorlab.wp

    G = TannerGraph(PINNED_TRIANGLE)
    rounds = iter([all_u_messages(G), all_f_messages(G)])
    monkeypatch.setattr(xorlab.wp, "wp_update", lambda G, msgs: next(rounds))
    with pytest.raises(RuntimeError, match="grew a frozen set in round 2"):
        wp_iterate(G, "all_f")


def test_tree_exactness_standard_equals_iterate():
    # acyclic pinned instances: the standard messages are an exact fixed
    # point and the all-f iteration reproduces them message-for-message
    rng = np.random.default_rng(42)
    for q in (2, 3):
        f = build_field(q)
        for trial in range(25):
            n = int(rng.integers(8, 41))
            m = int(rng.integers(1, max(2, n // 4)))
            A = random_acyclic_pinned(f, n, 3, m, int(rng.integers(1, 5)), rng)
            G = TannerGraph(A)
            std = standard_messages(A)
            assert fixed_point_violations(G, std) == 0
            it, converged, _ = wp_iterate(G, "all_f")
            assert converged and it == std


def test_labels_isolated_variable_u():
    A = mat([[(0, 1), (1, 1)]], 3)  # variable 2 isolated
    G = TannerGraph(A)
    lab = labels(G, all_u_messages(G))
    assert lab.var_label[2] == LABEL_U


def test_labels_degree_one_check_edge_cases():
    A = mat([[(0, 1)]], 1)
    G = TannerGraph(A)
    lab_f = labels(G, MessageSet(np.array([True]), np.array([False])))
    assert lab_f.check_label[0] == LABEL_F
    lab_u = labels(G, MessageSet(np.array([False]), np.array([False])))
    assert lab_u.check_label[0] == LABEL_S  # "all but one" of one message


def test_stats_totals_and_all_u_profile():
    p = EnsembleParams(n=100, k=3, q=2, d=2.0, seed=8)
    A = gen_base(p, p.make_rng())
    G = TannerGraph(A)
    st = stats(G, all_u_messages(G), k=3)
    assert sum(st.delta.values()) == G.n_vars
    assert sum(st.gamma.values()) == G.n_checks
    for (z, ell), c in st.delta.items():
        assert z == "u" and ell[1] == ell[2] == ell[3] == 0
    # every variable of degree c lands in profile (c, 0, 0, 0)
    deg_counts = np.bincount(G.var_degree)
    for deg, count in enumerate(deg_counts):
        if count:
            assert st.delta.get(("u", (deg, 0, 0, 0)), 0) == count


def test_stats_match_per_node_reference():
    draw = np.random.default_rng(4)
    for seed in range(6):
        p = EnsembleParams(n=60, k=3 + seed % 2, q=2, d=2.6, seed=seed)
        A, _ = gen_pinned(p, p.make_rng())
        G = TannerGraph(A)
        converged = wp_iterate(G, "all_f")[0]
        noisy = MessageSet(draw.random(G.n_edges) < 0.5, draw.random(G.n_edges) < 0.5)
        for msgs in (converged, all_u_messages(G), noisy):
            st = stats(G, msgs, k=p.k)
            delta, off_vars, gamma, off_checks = reference_wp_stats(G, msgs, p.k)
            assert (st.delta, st.off_class_vars) == (delta, off_vars)
            assert (st.gamma, st.off_class_checks) == (gamma, off_checks)
            if msgs is noisy:  # random messages put some nodes outside their class
                assert off_vars + off_checks > 0
            assert all(type(c) is int for c in [*st.delta.values(), *st.gamma.values()])


def test_alpha_fixed_point_unpinned_subcritical():
    p = EnsembleParams(n=1500, k=3, q=2, d=2.0, seed=15)
    A = gen_base(p, p.make_rng())
    G = TannerGraph(A)
    msgs = all_u_messages(G)
    assert is_alpha_fixed_point(G, msgs, 0.0, 2.0, 3, 0.1, 0.1)
    assert not is_alpha_fixed_point(G, msgs, 0.7, 2.0, 3, 0.1, 0.1)


def test_alpha_fixed_point_supercritical_iterate():
    from xorlab.theory import fixed_points

    p = EnsembleParams(n=4000, k=3, q=2, d=2.9, seed=16)
    A, _ = gen_pinned(p, p.make_rng())
    G = TannerGraph(A)
    msgs, converged, _ = wp_iterate(G, "all_f")
    assert converged
    alpha_hat = msgs.frozen_fraction
    a_f = fixed_points(2.9, 3)[2]
    assert abs(alpha_hat - a_f) < 0.05
    assert is_alpha_fixed_point(G, msgs, alpha_hat, 2.9, 3, 0.1, 0.1)


def test_extension_predicates():
    p = EnsembleParams(n=200, k=3, q=2, d=2.0, seed=23)
    A = gen_base(p, p.make_rng())
    G = TannerGraph(A)
    # all labels f: the zero vector extends at any tolerance
    from xorlab.wp import Labels

    lab_all_f = Labels(
        np.full(G.n_vars, LABEL_F, dtype=np.int8),
        np.full(G.n_checks, LABEL_F, dtype=np.int8),
    )
    zero = np.zeros(G.n_vars, dtype=np.int64)
    assert extension_defect(G, lab_all_f, zero, 2) <= 1e-9
    # all-u labelling: a balanced vector extends
    lab_all_u = labels(G, all_u_messages(G))
    balanced = np.arange(G.n_vars) % 2
    assert is_extension(G, lab_all_u, balanced, 2, tol=0.1)
    # all-ones vector against a half-frozen labelling fails for tol < 1/2
    half = labels(G, all_u_messages(G))
    half.var_label[: G.n_vars // 2] = LABEL_F
    ones = np.ones(G.n_vars, dtype=np.int64)
    assert not is_extension(G, half, ones, 2, tol=0.4)


def test_frozen_label_agreement_small():
    # on small pinned instances the label-based frozen set tracks the
    # exact one (Prop-style symmetric difference small)
    rng_seeds = range(12)
    total_sym = 0
    for seed in rng_seeds:
        p = EnsembleParams(n=60, k=3, q=2, d=2.0, seed=seed)
        A, _ = gen_pinned(p, p.make_rng())
        G = TannerGraph(A)
        std = standard_messages(A)
        lab = labels(G, std)
        by_labels = {j for j in range(G.n_vars) if lab.var_label[j] != LABEL_U}
        exact = set(frozen_set(A))
        total_sym += len(by_labels ^ exact)
    assert total_sym <= 0.1 * 60 * len(rng_seeds)


def test_message_csv_and_stats_json():
    A = PINNED_TRIANGLE
    G = TannerGraph(A)
    msgs = standard_messages(A)
    csv = messages_to_csv(G, msgs)
    assert csv.startswith("check,var,direction,value")
    assert len(csv.strip().splitlines()) == 1 + 2 * G.n_edges
    blob = stats_to_json_dict(stats(G, msgs, k=3))
    assert set(blob) == {
        "delta", "gamma", "n_vars", "n_checks", "off_class_vars", "off_class_checks",
    }
    for key in blob["delta"]:
        z, ell = key.split("/")
        assert z in "usf" and len(ell.split("-")) == 4


def run_demo(name: str) -> str:
    """The stdout of ``demos/<name>.py``, run in a subprocess on this checkout's sources."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_warning_propagation_demo_runs():
    assert "exact standard messages" in run_demo("05_warning_propagation")


# a line each demo prints; demos 06 and 07 take seconds each and stay out of the suite
DEMO_OUTPUT = {
    "01_field_arithmetic": "Frobenius in GF(9)",
    "02_threshold_theory": "global max at alpha_f",
    "03_rank_threshold_scan": "bisection scan for the crossing",
    "04_two_core_peeling": "core appears at d_k* = 2.4554",
}


@pytest.mark.parametrize("demo", sorted(DEMO_OUTPUT))
def test_demo_runs(demo):
    assert DEMO_OUTPUT[demo] in run_demo(demo)
