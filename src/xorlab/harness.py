"""Seeded Monte Carlo experiment runner with CSV/JSON reporting.

Every experiment runs through one grid x trials runner,
:func:`run_grid`: it calls the experiment's ``measure(config, value,
rng)`` for each trial at each grid value, fans the trials out over
worker processes, and returns the per-trial records grouped by grid
point index.  The experiment builds its summary table from those
records alone (no hidden state), so a repeated grid value gives one
summary row per grid entry.

Reproducibility: the stream for trial ``t`` of grid point ``g`` is
``numpy.random.default_rng(SeedSequence(entropy=master_seed,
spawn_key=(g, t)))``.  The worker count never changes results, only
wall time; per-trial rows are emitted in trial order.  Trial runtimes
are kept in memory but excluded from the CSV bodies so that identical
(config, seed) runs produce byte-identical files, whatever the string
hash seed; wall time goes to the run manifest instead.
"""

from __future__ import annotations

import csv
import json
import math
import time
import types
import typing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dfield, fields as dfields
from pathlib import Path

import numpy as np

from xorlab import __version__
from xorlab.ensemble import (
    EnsembleParams,
    ExplicitTable,
    gen_base,
    gen_interpolated,
    gen_pinned,
    scheme_from_dict,
)
from xorlab.field import build_field
from xorlab.peel import has_full_row_rank, rank_via_core, two_core
from xorlab.sparsemat import (
    balance_distance,
    freeness_audit,
    kernel_basis,
    rank,
)
from xorlab.theory import D_MAX, K_MAX, Phi, fixed_points, threshold_dk, threshold_dk_star
from xorlab.wp import (
    LABEL_U,
    TannerGraph,
    degree_imbalance,
    fixed_point_violations,
    labels,
    standard_messages,
    stats,
    tables_distance_by_label,
    wp_iterate,
)


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration (exit code 2)."""


class BracketError(RuntimeError):
    """A scan's bracketing precondition failed."""


# experiments that evaluate the closed-form theory at k, and those that also take d
_THEORY_AT_K = ("threshold-scan", "peel", "wp-stats", "interpolate")
_THEORY_AT_D = ("wp-stats", "interpolate")


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the annotated type; a bool is neither an int nor a float.

    A ``list[T]`` accepts a list or tuple of T values, and a
    ``tuple[A, B]`` one of exactly two values.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_conforms(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_types(obj) -> None:
    """ConfigError unless every field of the dataclass ``obj`` has its annotated type."""
    hints = typing.get_type_hints(type(obj))
    for f in dfields(obj):
        value = getattr(obj, f.name)
        if not _conforms(value, hints[f.name]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")


def _check_explicit_table(params: EnsembleParams) -> None:
    """An explicit table must hold the m_rows x n block that the base rows address."""
    if isinstance(params.scheme, ExplicitTable):
        m, n, q = params.m_rows, params.n, params.q
        block = [row[:n] for row in params.scheme.rows[:m]]
        if len(block) < m or any(len(row) < n or not all(0 < v < q for v in row) for row in block):
            raise ConfigError(f"explicit table needs {m} rows of {n} values in [1, {q})")


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on; JSON round-trippable."""

    experiment: str
    n: int = 1000
    k: int = 3
    q: int = 2
    m: int | None = None
    d: float | None = None
    scheme: dict = dfield(default_factory=lambda: {"kind": "all_ones"})
    trials: int = 10
    seed: int = 0
    workers: int = 1
    wp_mode: str = "iterate"
    d_grid: list[float] | None = None
    n_grid: list[int] | None = None
    theta_grid: list[float] | None = None
    bracket: tuple[float, float] = (0.85, 0.98)
    resolution: float = 0.005
    kernel_samples: int = 100
    pinned: bool = True
    out: str | None = None

    def __post_init__(self):
        _check_types(self)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.wp_mode not in ("exact", "iterate"):
            raise ConfigError(f"unknown wp_mode {self.wp_mode!r}")
        for grid_name in ("d_grid", "n_grid", "theta_grid"):
            grid = getattr(self, grid_name)
            if grid is not None and (not grid or list(grid) != sorted(grid)):
                raise ConfigError(f"{grid_name} must be nonempty and sorted")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.resolution <= 0:
            raise ConfigError("resolution must be > 0")
        if not self.bracket[0] < self.bracket[1]:
            raise ConfigError("bracket must be (lo, hi) with lo < hi")
        if self.kernel_samples < 1:
            raise ConfigError("kernel_samples must be >= 1")
        try:
            build_field(self.q)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"q: {exc}") from exc
        for point in self._ensemble_points():
            _check_explicit_table(self.ensemble(**point))
        if self.experiment in _THEORY_AT_K and self.k > K_MAX:
            raise ConfigError(f"{self.experiment} needs the theory, which supports k <= {K_MAX}")
        if self.experiment in _THEORY_AT_D and not 0 < self.ensemble().density <= D_MAX:
            raise ConfigError(
                f"{self.experiment} needs the theory, which supports d in (0, {D_MAX}]"
            )

    def _ensemble_points(self) -> list[dict]:
        """``ensemble`` overrides that cover the experiment's grid.

        These are every d_grid or n_grid point, or a scan's two bracket
        ends, between which its bisection points lie.
        """
        if self.experiment == "threshold-scan":
            return [{"m": round(rho * self.n), "d": None} for rho in self.bracket]
        if self.experiment in ("rank-profile", "peel") and self.d_grid is not None:
            return [{"d": d} for d in self.d_grid]
        if self.experiment == "audit-freeness":
            return [{"n": n} for n in self.n_grid or _FREENESS_N_GRID]
        return [{}]

    def ensemble(self, *, n=None, m=None, d=None) -> EnsembleParams:
        n = self.n if n is None else n
        if m is None and d is None:
            m, d = self.m, self.d
        if d is not None and d == 0:
            m, d = 0, None  # density zero means the empty matrix
        try:
            return EnsembleParams(
                n=n, k=self.k, q=self.q, m=m, d=d,
                scheme=scheme_from_dict(self.scheme), seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        """JSON-ready field values; fields left at None are omitted."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
            if value is not None
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in dfields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        kwargs = dict(raw)
        try:
            if "bracket" in kwargs:
                kwargs["bracket"] = tuple(kwargs["bracket"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class TrialRecord:
    """Measured outcomes of one trial; unused fields stay None."""

    trial: int
    seed_key: str
    n: int
    m: int
    t: int | None
    k: int
    q: int
    d: float
    rank: int | None = None
    nullity: int | None = None
    full_row_rank: bool | None = None
    alpha_hat: float | None = None
    core_rows: int | None = None
    core_cols: int | None = None
    excess: int | None = None
    wp_iterations: int | None = None
    violations: int | None = None
    stats_dist_alpha_hat: float | None = None
    stats_dist_u: float | None = None
    stats_dist_s: float | None = None
    stats_dist_f: float | None = None
    stats_dist_alpha_theory: float | None = None
    alpha_theory: float | None = None
    label_frozen_symdiff: int | None = None
    balance_l2: float | None = None
    balance_l1: float | None = None
    degree_imbalance: float | None = None
    theta: float | None = None
    freeness_pass: bool | None = None
    runtime_ms: float | None = None

    def to_row(self) -> dict:
        row = asdict(self)
        row.pop("runtime_ms")  # keeps CSV bodies reproducible
        return row


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """The documented (master seed, indices) -> stream mixing function."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


@dataclass
class SummaryTable:
    rows: list[dict]


@dataclass
class ExperimentResult:
    name: str
    trials: list[dict]
    summary: SummaryTable


def _parallel(fn, args_list, workers: int):
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=1))


def _mean(xs) -> float:
    xs = list(xs)
    return float(sum(xs) / len(xs)) if xs else float("nan")


# -- the grid x trials runner ----------------------------------------------------


def _trial(args):
    config, measure, point, trial, value = args
    rng = derive_rng(config.seed, point, trial)
    t0 = time.perf_counter()
    params, measured, *extra = measure(config, value, rng)
    shared = {
        "n": params.n,
        "m": params.m_rows,
        "t": 0,
        "k": params.k,
        "q": params.q,
        "d": params.density,
    }
    record = TrialRecord(
        trial=trial,
        seed_key=f"{point}/{trial}",
        **{**shared, **measured},
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )
    return (record.to_row(), *extra) if extra else record.to_row()


def run_grid(config: ExperimentConfig, measure, values, first_point: int = 0) -> list[list]:
    """``config.trials`` trials of ``measure`` at each value, one list per point.

    Trial ``t`` at ``values[i]`` is point ``first_point + i`` and draws
    from ``derive_rng(config.seed, first_point + i, t)``.
    ``measure(config, value, rng)`` returns the :class:`EnsembleParams`
    it sampled from, which give the shared record fields (n, m, t = 0,
    k, q, d), and a dict of further :class:`TrialRecord` fields, which
    may override them.  A third returned item travels next to the row:
    the trial's output is then ``(row, item)`` instead of ``row``.
    """
    args = [
        (config, measure, first_point + i, t, value)
        for i, value in enumerate(values)
        for t in range(config.trials)
    ]
    outputs = _parallel(_trial, args, config.workers)
    return [outputs[i : i + config.trials] for i in range(0, len(outputs), config.trials)]


def _flat(by_point: list[list]) -> list:
    return [row for rows in by_point for row in rows]


# -- rank profile ------------------------------------------------------------


def _measure_rank(config, d, rng):
    params = config.ensemble(d=d)
    peel = two_core(gen_base(params, rng))
    rk = peel.rank()
    return params, {
        "rank": rk,
        "nullity": params.n - rk,
        "full_row_rank": rk == params.m_rows,
        "core_rows": peel.core_rows,
        "core_cols": peel.core_cols,
        "excess": peel.excess,
    }


def exp_rank_profile(config: ExperimentConfig) -> ExperimentResult:
    """Full-row-rank fraction of the base ensemble on a density grid."""
    grid = config.d_grid if config.d_grid is not None else [config.ensemble().density]
    by_point = run_grid(config, _measure_rank, grid)
    summary = [
        {
            "d": d,
            "n": config.n,
            "trials": len(rows),
            "full_rank_frac": _mean(1.0 * r["full_row_rank"] for r in rows),
            "mean_nullity": _mean(r["nullity"] for r in rows),
        }
        for d, rows in zip(grid, by_point)
    ]
    return ExperimentResult("rank-profile", _flat(by_point), SummaryTable(summary))


# -- threshold scan ------------------------------------------------------------


def _measure_full_rank(config, m, rng):
    params = config.ensemble(m=m, d=None)
    return params, {"full_row_rank": has_full_row_rank(gen_base(params, rng))}


def exp_threshold_scan(config: ExperimentConfig) -> ExperimentResult:
    """Bisection on the density where the full-rank probability crosses 1/2.

    Densities are row ratios m/n.  The endpoints must bracket the
    crossing (fraction > 1/2 at the low end, < 1/2 at the high end).
    """
    lo, hi = config.bracket
    trials_all: list[dict] = []
    summary: list[dict] = []

    def frac_at(rho: float) -> float:
        m = round(rho * config.n)
        [rows] = run_grid(config, _measure_full_rank, [m], first_point=len(summary))
        trials_all.extend(rows)
        frac = _mean(1.0 * r["full_row_rank"] for r in rows)
        summary.append(
            {"rho": rho, "m": m, "n": config.n, "trials": len(rows),
             "full_rank_frac": frac}
        )
        return frac

    if frac_at(lo) <= 0.5:
        raise BracketError(f"full-rank fraction at rho={lo} is not above 1/2")
    if frac_at(hi) >= 0.5:
        raise BracketError(f"full-rank fraction at rho={hi} is not below 1/2")
    while hi - lo > config.resolution:
        mid = 0.5 * (lo + hi)
        if frac_at(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    reference = threshold_dk(config.k) / config.k
    summary.append(
        {
            "rho": estimate,
            "m": round(estimate * config.n),
            "n": config.n,
            "trials": 0,
            "full_rank_frac": None,
            "estimate": estimate,
            "half_width": config.resolution / 2,
            "dk_over_k": reference,
        }
    )
    return ExperimentResult("threshold-scan", trials_all, SummaryTable(summary))


# -- WP statistics ---------------------------------------------------------------


def _measure_wp(config, alpha_th, rng):
    """One WP trial; its (delta, gamma, weight-k checks) tables travel with the row."""
    params = config.ensemble()
    A, t_pins = gen_pinned(params, rng)
    G = TannerGraph(A)
    d, k, n = params.density, params.k, params.n
    if config.wp_mode == "exact":
        msgs = standard_messages(A)
        alpha_hat = float(msgs.frozen.mean())
        symdiff = int(np.count_nonzero((labels(G, msgs).var_label != LABEL_U) != msgs.frozen))
        iters = 0
    else:
        msgs, converged, iters = wp_iterate(G, "all_f")
        alpha_hat = msgs.frozen_fraction
        symdiff = None
    violations = fixed_point_violations(G, msgs)
    st = stats(G, msgs, k)
    m_weight_k = int(np.sum(G.check_degree == k))
    by_label = tables_distance_by_label(st.delta, st.gamma, n, m_weight_k, alpha_hat, d, k)
    dist_theory = sum(
        tables_distance_by_label(st.delta, st.gamma, n, m_weight_k, alpha_th, d, k).values()
    ) / n
    return params, {
        "t": t_pins,
        "alpha_hat": alpha_hat,
        "wp_iterations": iters,
        "violations": violations,
        "stats_dist_alpha_hat": sum(by_label.values()) / n,
        "stats_dist_u": by_label["u"] / n,
        "stats_dist_s": by_label["s"] / n,
        "stats_dist_f": by_label["f"] / n,
        "stats_dist_alpha_theory": dist_theory,
        "alpha_theory": alpha_th,
        "label_frozen_symdiff": symdiff,
    }, (st.delta, st.gamma, m_weight_k)


def _aggregate_stats_distance(tables, alpha: float, d: float, k: int, n: int) -> float:
    """Distance of the trial-averaged tables from the alpha prediction.

    Averaging the empirical counts across trials before taking absolute
    differences removes the per-instance sampling noise and measures the
    systematic deviation from the predicted values.
    """
    trials = len(tables)
    sum_delta: Counter = Counter()
    sum_gamma: Counter = Counter()
    m_mean = 0.0
    for dtab, gtab, m_wk in tables:
        sum_delta.update(dtab)
        sum_gamma.update(gtab)
        m_mean += m_wk / trials
    dist = tables_distance_by_label(
        {key: c / trials for key, c in sum_delta.items()},
        {key: c / trials for key, c in sum_gamma.items()},
        n, m_mean, alpha, d, k,
    )
    return sum(dist.values()) / n


def exp_wp_stats(config: ExperimentConfig) -> ExperimentResult:
    """WP statistics against predictions, exact or iterate mode.

    The summary carries both the mean per-trial distance (which includes
    the per-instance sampling fluctuation) and the distance of the
    trial-averaged statistics (the systematic part).
    """
    d = config.ensemble().density
    alpha_th = fixed_points(d, config.k)[2]
    [outputs] = run_grid(config, _measure_wp, [alpha_th])
    trials = [row for row, _ in outputs]
    summary = [
        {
            "n": config.n,
            "d": d,
            "mode": config.wp_mode,
            "trials": len(trials),
            "alpha_theory": alpha_th,
            "mean_alpha_hat": _mean(r["alpha_hat"] for r in trials),
            "mean_violations_per_n": _mean(r["violations"] / r["n"] for r in trials),
            "mean_dist_alpha_hat": _mean(r["stats_dist_alpha_hat"] for r in trials),
            "mean_dist_alpha_theory": _mean(
                r["stats_dist_alpha_theory"] for r in trials
            ),
            "agg_dist_alpha_theory": _aggregate_stats_distance(
                [tables for _, tables in outputs], alpha_th, d, config.k, config.n
            ),
            "mean_symdiff_per_n": (
                _mean(r["label_frozen_symdiff"] / r["n"] for r in trials)
                if config.wp_mode == "exact"
                else None
            ),
        }
    ]
    return ExperimentResult("wp-stats", trials, SummaryTable(summary))


# -- kernel balance ---------------------------------------------------------------


def _measure_balance(config, _, rng):
    params = config.ensemble()
    A, t_pins = gen_pinned(params, rng)
    kb = kernel_basis(A)
    n, q = params.n, params.q
    unfrozen = ~kb.frozen
    alpha_hat = 1.0 - unfrozen.mean()
    deg = np.bincount(A.cols, minlength=n)
    l2s, l1s, imbalances = [], [], []
    for _ in range(config.kernel_samples):
        sigma = kb.sample(rng)
        l2s.append(balance_distance(sigma, q, "l2"))
        l1s.append(balance_distance(sigma, q, "l1"))
        imbalances.append(degree_imbalance(sigma, deg, unfrozen, q) / n)
    return params, {
        "t": t_pins,
        "nullity": kb.dimension,
        "rank": n - kb.dimension,
        "alpha_hat": float(alpha_hat),
        "balance_l2": _mean(l2s),
        "balance_l1": _mean(l1s),
        "degree_imbalance": _mean(imbalances),
    }


def exp_balance(config: ExperimentConfig) -> ExperimentResult:
    """Balance of uniform kernel samples of the pinned ensemble.

    The degree-resolved imbalance restricts to the exactly-unfrozen
    coordinates (the kernel support) rather than label-derived ones,
    which is what the kernel basis gives directly at this scale.
    """
    [trials] = run_grid(config, _measure_balance, [None])
    summary = [
        {
            "n": config.n,
            "q": config.q,
            "d": config.ensemble().density,
            "trials": len(trials),
            "samples_per_trial": config.kernel_samples,
            "mean_balance_l2": _mean(r["balance_l2"] for r in trials),
            "mean_balance_l1": _mean(r["balance_l1"] for r in trials),
            "mean_degree_imbalance": _mean(r["degree_imbalance"] for r in trials),
            "mean_alpha_hat": _mean(r["alpha_hat"] for r in trials),
        }
    ]
    return ExperimentResult("balance", trials, SummaryTable(summary))


# -- peeling ------------------------------------------------------------------


def _measure_peel(config, d, rng):
    params = config.ensemble(d=d)
    A = gen_base(params, rng)
    res = two_core(A)
    rk = None
    if params.n <= 500:
        rk = rank(A)  # exact cross-check of the excess witness at small n
    return params, {
        "d": d,  # the grid value as given, also at d = 0
        "rank": rk,
        "nullity": None if rk is None else params.n - rk,
        "core_rows": res.core_rows,
        "core_cols": res.core_cols,
        "excess": res.excess,
    }


def exp_peel(config: ExperimentConfig) -> ExperimentResult:
    """Empty-core fraction and core excess across a density grid."""
    grid = config.d_grid if config.d_grid is not None else [config.ensemble().density]
    by_point = run_grid(config, _measure_peel, grid)
    dk = threshold_dk(config.k)
    dks = threshold_dk_star(config.k)
    summary = [
        {
            "d": d,
            "n": config.n,
            "trials": len(rows),
            "empty_core_frac": _mean(
                1.0 * (r["core_rows"] == 0 and r["core_cols"] == 0) for r in rows
            ),
            "pos_excess_frac": _mean(1.0 * (r["excess"] > 0) for r in rows),
            "mean_excess_over_n": _mean(r["excess"] / r["n"] for r in rows),
            "d_k": dk,
            "d_k_star": dks,
        }
        for d, rows in zip(grid, by_point)
    ]
    return ExperimentResult("peel", _flat(by_point), SummaryTable(summary))


# -- interpolation ---------------------------------------------------------------


def _measure_interp(config, theta_alpha_f, rng):
    theta, alpha_f = theta_alpha_f
    params = config.ensemble()
    if theta is None:  # baseline: the pinned ensemble itself
        A, t_pins = gen_pinned(params, rng)
    else:
        A = gen_interpolated(params, theta, alpha_f, rng)
        t_pins = None
    rk = rank_via_core(A)
    return params, {
        "m": A.n_rows,
        "t": t_pins,
        "rank": rk,
        "nullity": params.n - rk,
        "theta": theta,
    }


def exp_interpolation(config: ExperimentConfig) -> ExperimentResult:
    """Nullity of the interpolation family at a theta grid, plus baselines."""
    d, k = config.ensemble().density, config.k
    alpha_f = fixed_points(d, k)[2]
    if alpha_f == 0.0:
        raise ConfigError(
            "interpolation needs d above the critical density so alpha_f > 0"
        )
    thetas = config.theta_grid if config.theta_grid is not None else [0.0, 0.5, 1.0]
    # the last point is the baseline pinned ensemble
    by_point = run_grid(
        config, _measure_interp, [(theta, alpha_f) for theta in [*thetas, None]]
    )
    dk = threshold_dk(k)
    base_nullity = _mean(r["nullity"] / r["n"] for r in by_point[-1])
    summary = []
    for theta, rows in zip(thetas, by_point):
        entry = {
            "theta": theta,
            "n": config.n,
            "d": d,
            "trials": len(rows),
            "alpha_f": alpha_f,
            "mean_nullity_over_n": _mean(r["nullity"] / r["n"] for r in rows),
            "pinned_nullity_over_n": base_nullity,
        }
        if theta == 1.0:
            entry["predicted_zero_col_frac"] = math.exp(-d * alpha_f ** (k - 1))
        if d > dk:
            entry["phi_lower_bound"] = Phi(d, k, alpha_f)
        summary.append(entry)
    return ExperimentResult("interpolate", _flat(by_point), SummaryTable(summary))


# -- freeness audit ---------------------------------------------------------------


_FREENESS_N_GRID = (50, 100, 200)  # n_grid when the config gives none


def _measure_freeness(config, n, rng):
    params = config.ensemble(n=n)
    A, t_pins = gen_pinned(params, rng)
    return params, {"t": t_pins, "freeness_pass": freeness_audit(A, 0.1, 3).is_free}


def exp_freeness_audit(config: ExperimentConfig) -> ExperimentResult:
    """Fraction of pinned instances passing the (0.1, 3)-freeness audit."""
    grid = config.n_grid or _FREENESS_N_GRID
    d = config.ensemble().density
    by_point = run_grid(config, _measure_freeness, grid)
    summary = [
        {
            "n": n,
            "d": d,
            "trials": len(rows),
            "pass_frac": _mean(1.0 * r["freeness_pass"] for r in rows),
        }
        for n, rows in zip(grid, by_point)
    ]
    return ExperimentResult("audit-freeness", _flat(by_point), SummaryTable(summary))


# -- dispatch and reporting ---------------------------------------------------


_DISPATCH = {
    "rank-profile": exp_rank_profile,
    "threshold-scan": exp_threshold_scan,
    "wp-stats": exp_wp_stats,
    "balance": exp_balance,
    "peel": exp_peel,
    "interpolate": exp_interpolation,
    "audit-freeness": exp_freeness_audit,
}


EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if config.experiment not in _DISPATCH:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    return _DISPATCH[config.experiment](config)


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    fieldnames: list[str] = []
    for row in rows:  # union of keys, in first-appearance order
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def _write_json(path: Path, rows: list[dict]) -> None:
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def write_result(
    config: ExperimentConfig,
    result: ExperimentResult,
    out_dir,
    wall_time_s: float,
    fmt: str = "csv",
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    writer = _write_csv if fmt == "csv" else _write_json
    ext = "csv" if fmt == "csv" else "json"
    paths = [
        out / f"{result.name}_trials.{ext}",
        out / f"{result.name}_summary.{ext}",
        out / "run.json",
    ]
    writer(paths[0], result.trials)
    writer(paths[1], result.summary.rows)
    manifest = {
        "schema_version": "1",
        "library_version": __version__,
        "experiment": result.name,
        "config": config.to_dict(),
        "master_seed": config.seed,
        "seed_mixing": "default_rng(SeedSequence(entropy=master, spawn_key=(point, trial)))",
        "wall_time_s": wall_time_s,
    }
    paths[2].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return paths


def run(config: ExperimentConfig, fmt: str = "csv") -> int:
    """Run one experiment end to end and write its reports; returns 0."""
    t0 = time.perf_counter()
    result = run_experiment(config)
    write_result(config, result, config.out or ".", time.perf_counter() - t0, fmt)
    return 0
