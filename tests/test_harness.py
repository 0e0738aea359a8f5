import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xorlab.harness import (
    BracketError,
    ConfigError,
    ExperimentConfig,
    derive_rng,
    exp_balance,
    exp_freeness_audit,
    exp_peel,
    exp_rank_profile,
    exp_threshold_scan,
    exp_wp_stats,
    exp_interpolation,
    run,
    run_experiment,
    write_result,
)
import xorlab
from xorlab.cli import main as cli_main


def small_config(**kw):
    base = dict(
        experiment="rank-profile",
        n=100,
        k=3,
        q=2,
        d=2.0,
        trials=3,
        seed=7,
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- config ---------------------------------------------------------------


def test_config_roundtrip():
    cfg = small_config(
        d_grid=[1.0, 2.0],
        theta_grid=[0.0, 1.0],
        scheme={"kind": "seeded_nonzero", "seed": 3},
        out="somewhere",
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(wp_mode="bogus")
    with pytest.raises(ConfigError):
        small_config(d_grid=[2.0, 1.0])
    with pytest.raises(ConfigError, match="resolution"):
        small_config(experiment="threshold-scan", resolution=-0.01)
    with pytest.raises(ConfigError, match="bracket"):
        small_config(experiment="threshold-scan", bracket=(1.2, 0.5))
    with pytest.raises(ConfigError, match="bracket"):
        small_config(experiment="threshold-scan", bracket=(0.9, 0.9))
    with pytest.raises(ConfigError, match="kernel_samples"):
        small_config(experiment="balance", kernel_samples=-5)
    with pytest.raises(ConfigError, match="trails"):
        ExperimentConfig.from_dict({"experiment": "peel", "trails": 3})


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(tmp_path / "nope.json")


def test_derive_rng_independent_of_worker_count():
    a = derive_rng(5, 0, 3).integers(0, 1000, size=4)
    b = derive_rng(5, 0, 3).integers(0, 1000, size=4)
    c = derive_rng(5, 0, 4).integers(0, 1000, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- experiments at smoke scale ------------------------------------------


def test_rank_profile_smoke():
    res = exp_rank_profile(small_config(d_grid=[1.0, 2.5]))
    assert len(res.summary.rows) == 2
    for row in res.summary.rows:
        assert 0.0 <= row["full_rank_frac"] <= 1.0
    for trial in res.trials:
        assert trial["rank"] + trial["nullity"] == trial["n"]


def test_rank_profile_d_zeroish_full_rank():
    res = exp_rank_profile(small_config(d=0.3, trials=5))
    assert res.summary.rows[0]["full_rank_frac"] == 1.0


def test_rank_profile_empty_matrix_full_rank():
    res = exp_rank_profile(small_config(d=None, m=0, trials=3))
    row = res.summary.rows[0]
    assert row["full_rank_frac"] == 1.0
    assert row["mean_nullity"] == 100.0


def test_balance_pinning_only():
    # m = 0: the kernel is uniform on every unpinned coordinate
    cfg = small_config(
        experiment="balance", d=None, m=0, n=500, trials=2, kernel_samples=20
    )
    res = exp_balance(cfg)
    assert res.summary.rows[0]["mean_balance_l2"] <= 0.05


def test_smoke_every_experiment_under_60s(tmp_path):
    t0 = __import__("time").time()
    cases = [
        small_config(experiment="rank-profile", trials=1),
        small_config(
            experiment="threshold-scan", trials=1, bracket=(0.5, 1.3), resolution=0.1
        ),
        small_config(experiment="wp-stats", trials=1, wp_mode="exact"),
        small_config(experiment="wp-stats", trials=1, wp_mode="iterate"),
        small_config(experiment="balance", trials=1, kernel_samples=10),
        small_config(experiment="peel", trials=1),
        small_config(experiment="interpolate", d=3.0, trials=1),
        small_config(experiment="audit-freeness", trials=1, n_grid=[100]),
    ]
    for cfg in cases:
        cfg.out = str(tmp_path / cfg.experiment.replace("-", "_"))
        assert run(cfg) == 0
    assert __import__("time").time() - t0 < 60


def test_threshold_scan_smoke():
    cfg = small_config(
        experiment="threshold-scan",
        n=300,
        trials=10,
        bracket=(0.70, 1.05),
        resolution=0.05,
    )
    res = exp_threshold_scan(cfg)
    est = res.summary.rows[-1]["estimate"]
    assert 0.70 <= est <= 1.05


def test_threshold_scan_bracket_failure():
    cfg = small_config(
        experiment="threshold-scan", n=200, trials=4, bracket=(1.2, 1.4)
    )
    with pytest.raises(BracketError):
        exp_threshold_scan(cfg)


def test_wp_stats_exact_smoke():
    cfg = small_config(experiment="wp-stats", n=60, d=2.0, trials=3, wp_mode="exact")
    res = exp_wp_stats(cfg)
    row = res.summary.rows[0]
    assert row["mode"] == "exact"
    assert row["mean_symdiff_per_n"] is not None
    for trial in res.trials:
        assert trial["violations"] >= 0


def test_wp_stats_iterate_smoke():
    cfg = small_config(experiment="wp-stats", n=400, d=2.0, trials=3)
    res = exp_wp_stats(cfg)
    row = res.summary.rows[0]
    assert row["alpha_theory"] == 0.0
    assert row["mean_violations_per_n"] == 0.0  # converged iterates


def test_balance_smoke():
    cfg = small_config(experiment="balance", n=200, d=1.5, trials=2, kernel_samples=10)
    res = exp_balance(cfg)
    row = res.summary.rows[0]
    assert row["mean_balance_l2"] >= 0.0
    assert row["mean_degree_imbalance"] >= 0.0


def test_peel_smoke():
    cfg = small_config(experiment="peel", n=300, d_grid=[1.5, 3.3], trials=5)
    res = exp_peel(cfg)
    low, high = res.summary.rows
    assert low["empty_core_frac"] >= high["empty_core_frac"]
    # excess > 0 in a record implies rank < m there (verified exactly, n <= 500)
    for trial in res.trials:
        if trial["excess"] > 0:
            assert trial["rank"] < trial["m"]


def test_interpolation_smoke():
    cfg = small_config(
        experiment="interpolate", n=400, d=3.0, trials=2, theta_grid=[0.0, 1.0]
    )
    res = exp_interpolation(cfg)
    assert [r["theta"] for r in res.summary.rows] == [0.0, 1.0]
    assert "predicted_zero_col_frac" in res.summary.rows[-1]


def test_interpolation_requires_supercritical():
    with pytest.raises(ConfigError):
        exp_interpolation(small_config(experiment="interpolate", d=1.0))


def test_freeness_smoke():
    cfg = small_config(experiment="audit-freeness", d=2.0, trials=2, n_grid=[30, 50])
    res = exp_freeness_audit(cfg)
    assert [r["n"] for r in res.summary.rows] == [30, 50]


@pytest.mark.parametrize(
    "experiment, grid",
    [
        ("rank-profile", {"d_grid": [2.0, 2.0]}),
        ("peel", {"d_grid": [2.0, 2.0]}),
        ("interpolate", {"d": 3.0, "theta_grid": [0.5, 0.5]}),
        ("audit-freeness", {"n_grid": [30, 30]}),
    ],
)
def test_duplicate_grid_points_get_one_row_each(experiment, grid):
    res = run_experiment(small_config(experiment=experiment, trials=2, **grid))
    assert [row["trials"] for row in res.summary.rows] == [2, 2]
    seed_keys = [trial["seed_key"] for trial in res.trials]
    assert len(set(seed_keys)) == len(seed_keys)


def test_workers_do_not_change_results():
    cfg1 = small_config(d_grid=[2.0], trials=6, workers=1)
    cfg2 = small_config(d_grid=[2.0], trials=6, workers=2)
    r1 = exp_rank_profile(cfg1)
    r2 = exp_rank_profile(cfg2)
    assert r1.trials == r2.trials


# -- reporting ---------------------------------------------------------------


def test_run_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = small_config(d_grid=[2.0], trials=4, out=str(out))
        assert run(cfg) == 0
    for name in ("rank-profile_trials.csv", "rank-profile_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "run.json").read_text())
    assert manifest["experiment"] == "rank-profile"
    assert manifest["config"]["seed"] == 7
    assert "wall_time_s" in manifest


def test_summary_recomputable_from_trials(tmp_path):
    cfg = small_config(d_grid=[2.0], trials=5, out=str(tmp_path))
    res = run_experiment(cfg)
    write_result(cfg, res, tmp_path, 0.0)
    import csv as csvmod

    with (tmp_path / "rank-profile_trials.csv").open() as fh:
        rows = list(csvmod.DictReader(fh))
    frac = sum(r["full_row_rank"] == "True" for r in rows) / len(rows)
    assert frac == pytest.approx(res.summary.rows[0]["full_rank_frac"])


def test_json_format(tmp_path):
    cfg = small_config(d_grid=[2.0], trials=2, out=str(tmp_path))
    assert run(cfg, fmt="json") == 0
    rows = json.loads((tmp_path / "rank-profile_trials.json").read_text())
    assert len(rows) == 2


# -- CLI ---------------------------------------------------------------------


def write_config(tmp_path, **kw):
    base = dict(experiment="rank-profile", n=80, k=3, q=2, d=1.5, trials=2, seed=3)
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_cli_threshold_subcommand(capsys):
    assert cli_main(["threshold", "--k", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert abs(blob["d_k"] / 3 - 0.91794) < 1e-3
    assert cli_main(["threshold", "--k", "3", "--d", "2.6"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["regime"] == "between_dk_star_and_dk"


def test_cli_experiment_and_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "results"
    code = cli_main(["rank-profile", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "rank-profile_trials.csv").exists()
    assert (out / "run.json").exists()


def test_cli_missing_config_exit_2(tmp_path, capsys):
    code = cli_main(["peel", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_cli_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, trails=3)
    code = cli_main(["rank-profile", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "trails" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override, message",
    [
        ({"d": None}, "exactly one of m and d"),
        ({"k": 2}, "row weight k must be >= 3"),
        ({"scheme": {"kind": "bogus"}}, "unknown coefficient scheme"),
        ({"scheme": {"kind": "seeded_nonzero", "seed": 2**128}}, "[0, 2^128)"),
    ],
    ids=["no-m-or-d", "k2", "unknown-scheme", "wide-scheme-seed"],
)
def test_cli_bad_ensemble_exit_2(tmp_path, capsys, override, message):
    cfg = write_config(tmp_path, **override)
    code = cli_main(["rank-profile", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override, message",
    [
        ({"q": 6}, "6 is not a prime power"),
        ({"experiment": "wp-stats", "d": 25}, "d in (0, 20.0]"),
        ({"experiment": "wp-stats", "k": 17}, "k <= 16"),
        ({"experiment": "threshold-scan", "d": None, "k": 17}, "k <= 16"),
    ],
    ids=["q6", "wp-stats-d25", "wp-stats-k17", "threshold-scan-k17"],
)
def test_cli_outside_field_or_theory_exit_2(tmp_path, capsys, override, message):
    cfg = write_config(tmp_path, **override)
    command = override.get("experiment", "rank-profile")
    code = cli_main([command, "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override, message",
    [
        ({"trials": 1.5}, "trials must be int, got 1.5"),
        ({"trials": True}, "trials must be int, got True"),
        ({"n": "50"}, "n must be int, got '50'"),
        ({"experiment": "threshold-scan", "bracket": [0.9]}, "bracket must be tuple[float, float]"),
        ({"tolerances": {"tol_fp": 0.1}}, "unknown config key(s): tolerances"),
        ({"experiment": "balance", "kernel_samples": 0}, "kernel_samples must be >= 1"),
    ],
    ids=["trials-float", "trials-bool", "n-string", "bracket-one-value", "tolerances-unknown",
         "balance-kernel-samples-0"],
)
def test_cli_wrong_type_exit_2(tmp_path, capsys, override, message):
    cfg = write_config(tmp_path, **override)
    command = override.get("experiment", "rank-profile")
    code = cli_main([command, "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1


def test_config_types_accept_ints_as_floats_and_tuples_as_lists():
    small_config(d=2, d_grid=(1, 2.5), bracket=[0.8, 1])
    with pytest.raises(ConfigError, match="pinned must be bool"):
        small_config(pinned=1)


def test_rank_profile_accepts_k_beyond_theory():
    # only experiments that evaluate the theory are held to its k range
    ExperimentConfig(experiment="rank-profile", n=40, k=17, d=2.0, trials=1)


def test_cli_short_explicit_table_exit_2(tmp_path, capsys):
    config = {"experiment": "rank-profile", "n": 10, "k": 3, "q": 3, "d": 1.5, "trials": 1,
              "seed": 1, "scheme": {"kind": "explicit", "rows": [[1, 2]]}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli_main(["rank-profile", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "explicit table" in err
    assert err.count("\n") == 1


def test_cli_explicit_table_overrun_exit_2(tmp_path, capsys):
    # the table holds the m_rows = 12 rows the config addresses, but the
    # theta = 0 family draws Po(12) weight-3 rows, more than 12 here
    rows = [[1 + (i + j) % 2 for j in range(12)] for i in range(12)]
    cfg = write_config(tmp_path, experiment="interpolate", n=12, q=3, d=3.0, trials=8, seed=1,
                       theta_grid=[0.0], scheme={"kind": "explicit", "rows": rows})
    code = cli_main(["interpolate", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: explicit table has no entry at (12, 0)\n"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("rank-profile", ["--seed", "-1"], "seed must be >= 0"),
        ("dump-matrix", ["--seed", "-1"], "seed must be >= 0"),
        ("rank-profile", ["--workers", "0"], "workers must be >= 1"),
    ],
)
def test_cli_bad_override_exit_2(tmp_path, capsys, command, flags, message):
    cfg = write_config(tmp_path)
    code = cli_main([command, "--config", str(cfg), "--out", str(tmp_path), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1


def test_cli_bracket_failure_exit_5(tmp_path, capsys):
    cfg = write_config(
        tmp_path, experiment="threshold-scan", n=200, trials=4, bracket=[1.2, 1.4]
    )
    code = cli_main(["threshold-scan", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("bracket error:") and err.count("\n") == 1


def test_cli_io_error_exit_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path)
    code = cli_main(["rank-profile", "--config", str(cfg), "--out", str(blocker)])
    assert code == 4


def test_cli_budget_refusal_exit_3(tmp_path):
    # exact-mode WP on a huge instance must refuse, not truncate
    cfg = write_config(
        tmp_path, experiment="wp-stats", n=5000, d=2.0, wp_mode="exact", trials=1
    )
    code = cli_main(["wp-stats", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3


def test_cli_dump_matrix_roundtrip(tmp_path, capsys):
    from xorlab.sparsemat import SparseMatrix

    cfg = write_config(tmp_path, pinned=False)
    assert cli_main(["dump-matrix", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    A = SparseMatrix.loads(text)
    assert A.n_cols == 80
    # deterministic: dumping again gives the same matrix
    assert cli_main(["dump-matrix", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == text


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, pinned=False)
    assert cli_main(["dump-matrix", "--config", str(cfg), "--seed", "99"]) == 0
    a = capsys.readouterr().out
    assert cli_main(["dump-matrix", "--config", str(cfg), "--seed", "3"]) == 0
    b = capsys.readouterr().out
    assert a != b


def test_cli_loads_no_scipy():
    code = ("import json, sys, xorlab.cli; xorlab.cli.main(['threshold', '--k', '3']); "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(xorlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "xorlab.cli", "threshold", "--k", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "d_k" in proc.stdout
