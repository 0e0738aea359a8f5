"""Golden digests: (config, seed) fixes every byte of the CSVs and matrices.

``golden.json`` has two maps.  ``csv`` maps a case name to a tiny
experiment config and the sha256 of the two CSVs it writes.
``matrices`` maps a case name to a generator, its ``EnsembleParams``
(the rng is ``params.make_rng()``) and the sha256 of
``SparseMatrix.dumps()``; a scheme given as ``{"kind": "explicit"}``
stands for the table built by :func:`explicit_rows`.  A change that
moves a digest changes the published random stream or the reported
numbers; such a change updates the fixture on purpose and says so in
CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xorlab
from xorlab.ensemble import EnsembleParams, gen_base, gen_interpolated, gen_pinned
from xorlab.harness import ExperimentConfig, run

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["csv"]))
def test_golden_csv_digests(name, tmp_path):
    case = GOLDEN["csv"][name]
    config = ExperimentConfig.from_dict({**case["config"], "out": str(tmp_path)})
    assert run(config) == 0
    for part in ("trials", "summary"):
        data = (tmp_path / f"{config.experiment}_{part}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == case[part], part


def test_wp_stats_bytes_independent_of_hash_seed(tmp_path):
    config = tmp_path / "wp-stats.json"
    config.write_text(json.dumps(GOLDEN["csv"]["wp-stats-iterate"]["config"]))
    src = str(Path(xorlab.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "xorlab.cli", "wp-stats",
             "--config", str(config), "--out", str(out)],
            env=env, check=True,
        )
        outputs.append([(out / f"wp-stats_{part}.csv").read_bytes()
                        for part in ("trials", "summary")])
    assert outputs[0] == outputs[1]


def explicit_rows(q: int, n: int, n_rows: int) -> list[list[int]]:
    return [[1 + (3 * i + j) % (q - 1) for j in range(n)] for i in range(n_rows)]


def golden_matrix(case):
    raw = dict(case["params"])
    if raw["scheme"] == {"kind": "explicit"}:
        # twice the rows gen_base needs: gen_interpolated's Poisson count stays below
        n_rows = 2 * round(raw["d"] * raw["n"] / raw["k"])
        raw["scheme"] = {"kind": "explicit", "rows": explicit_rows(raw["q"], raw["n"], n_rows)}
    params = EnsembleParams.from_dict(raw)
    rng = params.make_rng()
    if case["generator"] == "gen_base":
        return gen_base(params, rng)
    if case["generator"] == "gen_pinned":
        return gen_pinned(params, rng)[0]
    return gen_interpolated(params, case["theta"], case["alpha_f"], rng)


@pytest.mark.parametrize("name", sorted(GOLDEN["matrices"]))
def test_golden_matrix_digests(name):
    case = GOLDEN["matrices"][name]
    text = golden_matrix(case).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]
