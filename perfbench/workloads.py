"""The benchmark's workloads: CLI invocations derived from a workload seed,
and the output checks that mirror the acceptance tolerances.

This module uses only the standard library, so the parent process (``run.py``)
can import it without importing xorlab.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

THRESHOLD_TOL = 0.02  # |estimate - d_k/k| and the pairwise gap (criteria 01-02)
WP_STATS_TOL = 0.05  # agg_dist_alpha_theory (criterion 06)
SYMDIFF_TOL = 0.1  # mean_symdiff_per_n (criterion 05)


@dataclass(frozen=True)
class Invocation:
    """One ``xorlab <command> --config <config>`` call of a workload pass."""

    name: str
    command: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[int, ...]  # the GF(q) the workload builds, timed by setup_s
    trials: int  # trials per grid point, sized so a pass takes seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threshold-scan",
            "the paper's headline experiment: five n=5000 bisection scans over"
            " (q, scheme); time goes to generation, peeling and elimination",
            (2, 3, 4),
            1,
        ),
        Workload(
            "wp-iterate",
            "wp-stats at n=10^4 runs no elimination, so it is the control for"
            " every sparsemat change; stresses wp, ensemble and theory",
            (2,),
            6,  # with fewer, sampling noise brings agg_dist near its 0.05 tolerance
        ),
        Workload(
            "wp-exact",
            "exact standard messages at n=150: hundreds of tiny reduced"
            " eliminations per trial, the opposite use of sparsemat to the scan",
            (2,),
            2,
        ),
    )
}

# (q, scheme kind) of the five scans of criteria 01-02
_SCANS = ((2, "all_ones"), (3, "all_ones"), (3, "seeded_nonzero"),
          (4, "all_ones"), (4, "seeded_nonzero"))


def invocations(workload: str, seed: int, inputs: int) -> list[Invocation]:
    """The invocations of one pass over input set ``inputs``.

    Master seeds derive from the workload seed and the input set, so
    each pass of a run can draw fresh instances.
    """
    rng = random.Random(f"{workload}/{seed}/{inputs}")

    def draw() -> int:
        return rng.randrange(1 << 31)

    trials = WORKLOADS[workload].trials
    if workload == "threshold-scan":
        out = []
        for q, kind in _SCANS:
            scheme = {"kind": kind}
            if kind == "seeded_nonzero":
                scheme["seed"] = draw()
            out.append(Invocation(
                f"q{q}-{kind}", "threshold-scan",
                {"experiment": "threshold-scan", "n": 5000, "k": 3, "q": q,
                 "d": 2.0, "scheme": scheme, "trials": trials, "seed": draw(),
                 "workers": 1, "bracket": [0.85, 0.98], "resolution": 0.005},
            ))
        return out
    if workload in ("wp-iterate", "wp-exact"):
        n, ds, mode = (
            (10_000, (2.0, 2.9), "iterate") if workload == "wp-iterate"
            else (150, (2.0, 2.5), "exact")
        )
        return [
            Invocation(
                f"d{d}", "wp-stats",
                {"experiment": "wp-stats", "n": n, "k": 3, "q": 2, "d": d,
                 "trials": trials, "seed": draw(), "workers": 1,
                 "wp_mode": mode, "pinned": True},
            )
            for d in ds
        ]
    raise KeyError(workload)


def _num(row: dict, key: str) -> float:
    value = row.get(key, "")
    return float(value) if value != "" else math.nan


def check(workload: str, inv: Invocation, summary: list[dict], expect) -> list[str]:
    """Problems with one invocation's summary rows; empty when correct.

    ``expect`` holds the reference values computed from the theory:
    ``dk_over_k`` and ``alpha_theory`` (a dict keyed by d).
    """
    if not summary:
        return ["empty summary"]
    problems = []
    if workload == "threshold-scan":
        est = _num(summary[-1], "estimate")
        if not abs(est - expect["dk_over_k"]) <= THRESHOLD_TOL:
            problems.append(f"estimate {est} is not within {THRESHOLD_TOL}"
                            f" of d_k/k = {expect['dk_over_k']}")
        return problems
    row = summary[0]
    if workload == "wp-iterate":
        if _num(row, "mean_violations_per_n") != 0:
            problems.append("fixed-point violations are not zero")
        if not _num(row, "agg_dist_alpha_theory") <= WP_STATS_TOL:
            problems.append(f"agg_dist_alpha_theory {row['agg_dist_alpha_theory']}"
                            f" > {WP_STATS_TOL}")
        want = expect["alpha_theory"][inv.config["d"]]
        if not math.isclose(_num(row, "alpha_theory"), want, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"alpha_theory {row['alpha_theory']} != {want}")
    elif workload == "wp-exact":
        if not _num(row, "mean_symdiff_per_n") <= SYMDIFF_TOL:
            problems.append(f"mean_symdiff_per_n {row['mean_symdiff_per_n']}"
                            f" > {SYMDIFF_TOL}")
    return problems


def check_pass(workload: str, summaries: dict[str, list[dict]]) -> list[str]:
    """Checks across the invocations of one pass (criterion 02's gap)."""
    if workload != "threshold-scan":
        return []
    estimates = [_num(rows[-1], "estimate") for rows in summaries.values() if rows]
    gap = max((abs(a - b) for a, b in itertools.combinations(estimates, 2)),
              default=math.nan)
    if len(estimates) != len(_SCANS) or not gap <= THRESHOLD_TOL:
        return [f"largest pairwise gap {gap} of {len(estimates)} scans"
                f" exceeds {THRESHOLD_TOL}"]
    return []
