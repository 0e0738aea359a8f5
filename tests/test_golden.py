"""Golden digests: (config, seed) fixes every byte of the trial and summary CSVs.

``golden.json`` maps a case name to a tiny experiment config and the
sha256 of the two CSVs it writes.  A change that moves a digest changes
the published random stream or the reported numbers; such a change
updates the fixture on purpose and says so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xorlab
from xorlab.harness import ExperimentConfig, run

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_digests(name, tmp_path):
    case = GOLDEN[name]
    config = ExperimentConfig.from_dict({**case["config"], "out": str(tmp_path)})
    assert run(config) == 0
    for part in ("trials", "summary"):
        data = (tmp_path / f"{config.experiment}_{part}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == case[part], part


def test_wp_stats_bytes_independent_of_hash_seed(tmp_path):
    config = tmp_path / "wp-stats.json"
    config.write_text(json.dumps(GOLDEN["wp-stats-iterate"]["config"]))
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
