"""xorlab benchmark: acceptance-shaped workloads driven through ``xorlab.cli``.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the directory holding ``src/xorlab``).
Each run

1. starts a fresh interpreter several times to time set-up (import
   ``xorlab.cli``, build the workload's fields and engines);
2. starts one child process (``child.py``) that runs passes of the
   workload's invocations through ``xorlab.cli.main`` with workers = 1,
   each pass on a fresh input set, for ``--seconds`` seconds or two
   input sets, whichever is longer, and then replays the first input
   set; it checks every output against the acceptance tolerances and
   checks that the replay writes identical CSV bytes;
3. prints the environment, a table of every metric with its unit, and
   as the last line one JSON object: with ``--trace 0`` the end-to-end
   metrics of untraced passes, with ``--trace 1`` the per-layer metrics
   of traced passes (the first pass stays untraced, as the reference
   for the digests and for the tracing overhead).

``--workload all`` runs every workload in turn.  Reports are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
RUN_LIMIT_S = 170  # a run of one workload must end within 180 s

# name, unit, meaning
END_TO_END = (
    ("wall_s", "s", "median over passes of the time for all invocations of one pass"),
    ("cpu_s", "s", "median over passes of the child's user + sys CPU time for one pass"),
    ("peak_rss_mb", "MB", "peak RSS of the child process"),
    ("setup_s", "s", "median over fresh interpreters of importing xorlab.cli and"
                     " building the workload's fields and engines"),
)
_SCAN, _ITER, _EXACT = "threshold-scan", "wp-iterate", "wp-exact"
# name, unit, the end-to-end metric and workload it should move
PER_LAYER = (
    ("ensemble.gen_s", "s", f"wall_s on {_SCAN} (seeded) and {_ITER}; nothing on {_EXACT}"),
    ("ensemble.gen_s.all_ones", "s", f"wall_s on {_SCAN} and {_ITER}"),
    ("ensemble.gen_s.seeded_nonzero", "s", f"wall_s on {_SCAN}"),
    ("ensemble.rows", "count", f"wall_s on {_SCAN} and {_ITER}"),
    ("ensemble.rows_per_s", "1/s", f"wall_s on {_SCAN} (seeded) and {_ITER}"),
    ("sparsemat.from_rows_s", "s", f"wall_s on {_SCAN}, {_ITER} and {_EXACT}"),
    ("sparsemat.minor_s", "s", f"wall_s on {_SCAN} (the peeled core) and {_EXACT}"),
    ("sparsemat.rank_s.q2", "s", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.rank_s.q3", "s", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.rank_s.q4", "s", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.elim_calls", "count", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.elim_cells", "count", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.elim_cells_per_s", "1/s", f"wall_s on {_SCAN}; zero on {_ITER}"),
    ("sparsemat.frozen_set_s", "s", f"wall_s on {_EXACT}"),
    ("sparsemat.kernel_basis.calls", "count", f"wall_s on {_EXACT}"),
    ("peel.two_core_s", "s", f"wall_s on {_SCAN}"),
    ("peel.calls", "count", f"wall_s on {_SCAN}"),
    ("peel.core_row_frac", "fraction", f"wall_s on {_SCAN}"),
    ("peel.shortcut_frac", "fraction", f"wall_s on {_SCAN}"),
    ("wp.tanner_s", "s", f"wall_s on {_ITER}"),
    ("wp.iterate_s", "s", f"wall_s on {_ITER}"),
    ("wp.rounds", "count", f"wall_s on {_ITER}"),
    ("wp.stats_s", "s", f"wall_s on {_ITER}"),
    ("wp.stats.calls", "count", f"wall_s on {_ITER}"),
    ("wp.standard_messages_s", "s", f"wall_s on {_EXACT}"),
    ("wp.standard_messages.elims", "count", f"wall_s on {_EXACT}"),
    ("theory.s", "s", f"wall_s on {_ITER} and {_SCAN} (d_k per scan)"),
    ("field.build_s", "s", "setup_s on all"),
    ("setup.import_s", "s", "setup_s on all"),
    ("harness.self_s", "s", "wall_s on all"),
    ("harness.write_s", "s", "wall_s on all"),
    ("harness.trials", "count", "wall_s on all"),
    ("trace.overhead_frac", "fraction", "none; the cost of tracing"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child(args: list[str], root: Path, deadline: float) -> subprocess.CompletedProcess:
    """Runs child.py; on timeout the child is killed and waited for."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "child.py"), *args],
        cwd=root, env=env, timeout=max(deadline - time.monotonic(), 1.0),
        stdout=subprocess.PIPE, text=True,
    )


def measure_setup(workload: str, root: Path, deadline: float) -> list[dict]:
    """Times SETUP_RUNS fresh interpreters from spawn to exit."""
    fields = [str(q) for q in WORKLOADS[workload].fields]
    probes = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = _child(["setup", *fields], root, deadline)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["xorlab_file"]).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"xorlab was imported from {probe['xorlab_file']},"
                               " not from this checkout")
        probe["wall_s"] = wall
        probes.append(probe)
    return probes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out_root = root / ".perfbench_out"
    workdir = out_root / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = measure_setup(workload, root, deadline)
        proc = _child(["run", workload, str(seed), str(seconds), "1" if trace else "0",
                       str(workdir)], root, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed with exit code {proc.returncode}")
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"] and not p["replay"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(p["wall_s"] for p in probes),
    }
    report = {
        "workload": workload, "why": WORKLOADS[workload].why, "seed": seed,
        "environment": {
            "python": probes[0]["python"], "numpy": probes[0]["numpy"],
            "scipy": probes[0]["scipy"], "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "workload_seed": seed, "workers": 1,
        },
        "passes": {"untraced": len(plain), "traced": sum(p["traced"] for p in passes),
                   "replays": sum(p["replay"] for p in passes),
                   "wall_s": [p["wall_s"] for p in passes]},
        "end_to_end": e2e,
        "failures": [f"{op['name']}: {problem}" for op in failed for problem in op["problems"]],
        "digests": {op["name"]: op["digests"] for op in passes[0]["ops"]},
    }
    coverage_ok = True
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_wall = statistics.fmean(p["wall_s"] for p in traced)  # layer metrics are means too
        layer = dict(result["trace"]["layer_metrics"])
        layer["field.build_s"] = statistics.median(p["build_s"] for p in probes)
        layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layer["harness.trials"] = statistics.median(p["trials"] for p in traced)
        # the same input set, untraced and traced
        layer["trace.overhead_frac"] = traced[0]["wall_s"] / passes[0]["wall_s"] - 1.0
        self_times = result["trace"]["layer_self_s"]
        covered = sum(self_times.values())
        coverage_ok = covered <= traced_wall and layer["harness.self_s"] >= 0
        report.update(
            per_layer=layer,
            coverage={"sum_layer_self_s": covered, "traced_wall_s": traced_wall,
                      "layer_self_s": self_times, "ok": coverage_ok},
            per_call=result["trace"]["per_call"],
            spans=result["trace"]["spans"],
        )
        if not coverage_ok:
            report["failures"].append("coverage: layer self times exceed the traced wall time")
    values, table = (report["per_layer"], PER_LAYER) if trace else (e2e, END_TO_END)
    report["result"] = {
        "correct": not failed and coverage_ok,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    out_root.mkdir(exist_ok=True)
    path = out_root / f"report-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2))
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']} (seed {report['seed']}): {report['why']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {report['passes']['untraced']} untraced, {report['passes']['traced']} traced,"
          f" {report['passes']['replays']} replaying input set 0"
          f" (wall s: {', '.join(f'{w:.3f}' for w in report['passes']['wall_s'])});"
          f" ops {report['result']['attempted']} attempted, {report['result']['failed']} failed")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print("end-to-end (untraced passes):")
    for name, unit, meaning in END_TO_END:
        print(f"  {name:32s} {report['end_to_end'][name]:14.6g} {unit:8s} {meaning}")
    if "per_layer" not in report:
        return
    print("per-layer (traced passes, per pass):")
    for name, unit, moves in PER_LAYER:
        print(f"  {name:32s} {report['per_layer'][name]:14.6g} {unit:8s} should move {moves}")
    cov = report["coverage"]
    print(f"coverage: sum of layer self times {cov['sum_layer_self_s']:.4f} s <= traced wall"
          f" {cov['traced_wall_s']:.4f} s: {'ok' if cov['ok'] else 'FAILED'}; self s by layer: "
          + ", ".join(f"{k}={v:.4f}" for k, v in sorted(cov["layer_self_s"].items())))
    print("per-call times (median, highest percentile with >= 10 samples beyond it, samples):")
    for name, pc in report["per_call"].items():
        tail = f"{pc['tail']}={pc['tail_s']:.6g} s" if pc["tail"] else "no p90 (< 100 samples)"
        print(f"  {name:36s} median={pc['median_s']:.6g} s  {tail:24s} n={pc['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "xorlab" / "cli.py").is_file():
        print(f"error: no xorlab source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace), root)
                   for w in names]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    results = [r["result"] for r in reports]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rep['workload']}/{name}": m for rep in reports
                        for name, m in rep["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
