"""The benchmark's child process: the only place xorlab is imported.

    python3 perfbench/child.py setup <q> [<q> ...]
        fresh-interpreter set-up: import xorlab.cli, then build the
        fields GF(q) and their elimination engines; prints JSON timings.

    python3 perfbench/child.py run <workload> <seed> <seconds> <trace> <workdir>
        runs passes of the workload through ``xorlab.cli.main`` with
        workers = 1 and writes ``<workdir>/result.json``.

A pass runs every invocation of the workload once, on one input set.
With trace = 0, passes over input sets 0, 1, ... run untraced while
``seconds`` allow (at least two), then input set 0 is replayed to check
that the CSV bytes repeat.  With trace = 1, input set 0 runs untraced,
then traced (the replay, which also shows whether tracing changed
behaviour and what it costs), then further input sets run traced while
``seconds`` allow.

Run from the root of a checkout with ``src`` on PYTHONPATH; ``run.py``
does both.
"""

from __future__ import annotations

import sys
import time


def setup(fields: list[int]) -> None:
    t0 = time.perf_counter()
    import xorlab.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from xorlab.field import build_field
    from xorlab.sparsemat import SparseMatrix, rank

    for q in fields:
        rank(SparseMatrix.identity(build_field(q), 1))  # builds the engine too
    t2 = time.perf_counter()

    import json
    import numpy
    import scipy

    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "xorlab_file": xorlab.cli.__file__}))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir) -> None:
    import csv
    import hashlib
    import json
    import resource
    import shutil
    import statistics
    from pathlib import Path

    import xorlab.cli
    from xorlab.theory import fixed_points, threshold_dk

    import tracer as tr
    from workloads import check, check_pass, invocations

    workdir = Path(workdir)
    # computed before any tracing, so that every traced span lies inside cli.main
    expect = {"dk_over_k": threshold_dk(3) / 3,
              "alpha_theory": {inv.config["d"]: fixed_points(inv.config["d"], 3)[2]
                               for inv in invocations(workload, seed, 0)}}
    reference: dict[tuple, dict] = {}  # (input set, invocation) -> CSV digests

    def run_pass(inputs: int, traced: bool) -> dict:
        wall = cpu = 0.0
        ops, summaries, trials = [], {}, 0
        pass_dir = workdir / f"pass{len(passes)}"
        pass_dir.mkdir()
        for inv in invocations(workload, seed, inputs):
            config = pass_dir / f"{inv.name}.json"
            config.write_text(json.dumps(inv.config, indent=2))
            out = pass_dir / inv.name
            argv = [inv.command, "--config", str(config), "--out", str(out), "--workers", "1"]
            problems = []
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = xorlab.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crash of the run
                code = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if code not in (0, None):
                problems.append(f"exit code {code}")
            digests = {}
            for part in ("trials", "summary"):
                path = out / f"{inv.command}_{part}.csv"
                if path.is_file():
                    digests[part] = hashlib.sha256(path.read_bytes()).hexdigest()
            if not problems and len(digests) < 2:
                problems.append("trials or summary CSV missing")
            if not problems:
                with (out / f"{inv.command}_summary.csv").open(newline="") as fh:
                    summaries[inv.name] = list(csv.DictReader(fh))
                with (out / f"{inv.command}_trials.csv").open(newline="") as fh:
                    trials += sum(1 for _ in csv.DictReader(fh))
                problems += check(workload, inv, summaries[inv.name], expect)
                first = reference.setdefault((inputs, inv.name), digests)
                if digests != first:
                    problems.append("CSV bytes differ from the first run of this config"
                                    + (" (tracing changed behaviour)" if traced else ""))
            ops.append({"name": f"{inputs}/{inv.name}", "problems": problems,
                        "digests": digests})
        for problem in check_pass(workload, summaries):
            for op in ops:
                op["problems"].append(problem)
        shutil.rmtree(pass_dir, ignore_errors=True)
        replay = any(p["inputs"] == inputs for p in passes)
        return {"inputs": inputs, "replay": replay, "traced": traced, "wall_s": wall,
                "cpu_s": cpu, "trials": trials, "ops": ops}

    tracer = None
    passes, lengths = [], []
    start = time.perf_counter()

    def timed_pass(inputs: int, traced: bool) -> None:
        t0 = time.perf_counter()
        passes.append(run_pass(inputs, traced))
        lengths.append(time.perf_counter() - t0)

    def time_for(n_passes: int) -> bool:
        """Whether n more passes are expected to end within ``seconds``."""
        elapsed = time.perf_counter() - start
        return elapsed + n_passes * statistics.median(lengths) <= seconds

    timed_pass(0, False)
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer)
        timed_pass(0, True)
        while time_for(1):
            timed_pass(len(passes) - 1, True)
    else:
        timed_pass(1, False)
        while time_for(2):  # one more input set, then the replay
            timed_pass(len(passes), False)
        timed_pass(0, False)

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        result["trace"] = {
            "layer_metrics": tr.layer_metrics(tracer, len(traced)),
            "layer_self_s": {k: v / len(traced) for k, v in tracer.layer_self_s.items()},
            "per_call": tracer.per_call(),
            "spans": {name: {"calls": tracer.calls[name] / len(traced),
                             "incl_s": tracer.incl_s[name] / len(traced),
                             "self_s": tracer.self_s[name] / len(traced)}
                      for name in sorted(tracer.calls)},
        }
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup([int(q) for q in sys.argv[2:]])
    else:
        _, _, workload, seed, seconds, trace, workdir = sys.argv
        run(workload, int(seed), float(seconds), trace == "1", workdir)
