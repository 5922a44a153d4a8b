#!/usr/bin/env python3
"""Benchmark of the uoslearn CLI stages, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process and one client run a workload's CLI stages one after another
(a closed loop) by calling `uoslearn.cli.cli_main` in-process on inputs
generated from --seed. After set-up the stages are run pass after pass for
about --seconds seconds, at least twice. Every stage invocation is checked:
exit code 0, its output checks, and stdout byte-identical to the stage's
first invocation in this run.

With --trace 0 the end-to-end metrics are reported. With --trace 1 the
passes alternate untraced and traced, and the per-layer metrics of the
traced passes are reported together with the tracing overhead.

Human-readable lines (environment, stdout sha256 of every stage, all
metrics by name and unit) come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. A run writes its
inputs, a result record and, when traced, its spans as JSON lines under
.bench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

# One BLAS thread: the N=300 solve took 7.15-7.41 s with one thread and
# 7.9-8.6 s with two on a 2-vCPU machine. Pinned before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import uoslearn.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy": "fraction",
}
# Also printed by name, but not in the JSON result: a workload without a
# solver or without open-set classification has no value for them.
OTHER_UNITS = {
    "solver_iters": "count",
    "new_recall": "fraction",
    "ops_total": "count",
    "ops_failed": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs, for the benchmark's own smoke test",
    )
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time to import uoslearn.cli in a fresh interpreter (numpy and scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class StageRunner:
    """Runs CLI stages in-process and counts every invocation and failure."""

    def __init__(self, cli_main, parse_records):
        self.cli_main = cli_main
        self.parse_records = parse_records
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_stdout: dict[str, str] = {}
        self.records: dict[str, list[dict]] = {}

    def run(self, stage, tracer=None) -> float:
        """Run one stage; returns its wall time in seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        problems = []
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(stage.argv)
                else:
                    with tracer.span(f"cli.{stage.name}"):
                        code = self.cli_main(stage.argv)
            except Exception:  # a crash is a counted failure, not the end of the run
                code = None
                problems.append("raised:\n" + traceback.format_exc())
            wall = time.perf_counter() - start
        stdout = out.getvalue()
        if code not in (0, None):
            problems.append(f"exit code {code}: {err.getvalue().strip()}")
        first = self.first_stdout.setdefault(stage.name, stdout)
        if stdout != first:
            problems.append("stdout differs from the stage's first invocation")
        if code == 0:
            try:
                records = self.parse_records(stdout)
            except json.JSONDecodeError as exc:
                problems.append(f"stdout is not JSON lines: {exc}")
            else:
                problems.extend(stage.check(records))
                self.records.setdefault(stage.name, records)
        if problems:
            self.failed += 1
            self.problems.extend(f"{stage.name}: {p}" for p in problems)
        return wall


def set_up(workload, work: Path, seed: int, tiny: bool, runner) -> tuple[list, list]:
    """Prepare the inputs SETUP_REPEATS times; returns (stages, set-up seconds)."""
    samples = []
    stages = []
    for _ in range(SETUP_REPEATS):
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        imported = import_seconds()
        start = time.perf_counter()
        stages = workload.prepare(work, seed, tiny, runner.run)
        samples.append(imported + time.perf_counter() - start)
    return stages, samples


def timed_passes(stages, runner, seconds: float, tracer, label: str):
    """Run passes for about `seconds`, at least two; with a tracer every second pass is traced.

    Returns (untraced passes, traced passes, traced run ids); a pass is the
    list of its stages' wall times.
    """
    passes = {False: [], True: []}
    runs = []
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.run = f"{label}/pass{n}"
            runs.append(tracer.run)
            with tracer.installed():
                walls = [runner.run(s, tracer) for s in stages]
        else:
            walls = [runner.run(s) for s in stages]
        passes[traced].append(walls)
        n += 1
        elapsed = time.perf_counter() - start
        # Stop when another pass would overrun by more than half a pass.
        if n >= 2 and elapsed + elapsed / n / 2 > seconds:
            return passes[False], passes[True], runs


def best_pass(passes: list[list[float]]) -> float:
    """Sum over stages of each stage's fastest invocation.

    Other tenants of a shared host only ever add time. On a 2-vCPU machine
    one 240 s series of classify-seq passes ran from 3.8 to 8.6 s, with
    episodes of 30-40 s at up to twice the usual time; over its 30 s
    windows the median pass ranged from 4.0 to 6.5 s, the fastest from
    3.8 to 4.8 s.
    """
    return sum(min(stage) for stage in zip(*passes))


def per_layer(tracer, runs, untraced, traced) -> dict[str, float]:
    """Layer metrics of the fastest traced pass, plus the tracing overhead.

    One pass, not a median per metric, so that sums such as the solver
    steps plus solver.self_s still equal solver.solve_s.
    """
    fastest = min(zip(traced, runs), key=lambda pair: sum(pair[0]))[1]
    metrics = tr.layer_metrics([s for s in tracer.spans if s.run == fastest])
    metrics["trace.overhead_s"] = best_pass(traced) - best_pass(untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uoslearn" / "cli.py").is_file():
        print(f"error: no uoslearn sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    from uoslearn.cli import cli_main

    from workloads import WORKLOADS, parse_records

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = WORK / label
    runner = StageRunner(cli_main, parse_records)

    stages, setup_samples = set_up(workload, work, args.seed, tiny, runner)
    if runner.failed:
        print("error: set-up failed:\n" + "\n".join(runner.problems), file=sys.stderr)
        return 1
    tracer = tr.Tracer() if args.trace else None
    untraced, traced, runs = timed_passes(stages, runner, args.seconds, tracer, label)
    os.chdir(ROOT)

    have_outputs = all(s.name in runner.records for s in stages)
    quality = workload.quality(runner.records, work) if have_outputs else {}
    e2e = {
        "wall_s": best_pass(untraced),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    reported = per_layer(tracer, runs, untraced, traced) if args.trace else e2e
    units = tr.PER_LAYER if args.trace else END_TO_END
    env = environment()
    hashes = {
        name: hashlib.sha256(out.encode()).hexdigest()
        for name, out in runner.first_stdout.items()
    }

    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, digest in hashes.items():
        print(f"stdout sha256 {name}: {digest}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up repeats: {len(setup_samples)}")
    table = {**e2e, "ops_total": runner.attempted, "ops_failed": runner.failed}
    if args.trace:
        table.update(reported)
    all_units = {**END_TO_END, **OTHER_UNITS, **tr.PER_LAYER}
    for key, value in table.items():
        print(f"{key:32s} {value!r:>24} {all_units[key]}")
    for problem, times in Counter(runner.problems).items():
        print(f"FAILED ({times}x) {problem}", file=sys.stderr)

    correct = runner.failed == 0 and all(k in reported for k in units)
    metrics = {
        k: {"value": reported[k], "unit": unit}
        for k, unit in units.items()
        if k in reported
    }
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "env": env,
        "stdout_sha256": hashes,
        "end_to_end": e2e,
        "pass_walls_s": {"untraced": untraced, "traced": traced},
        "setup_s_samples": setup_samples,
        "problems": runner.problems,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tr.write_spans(tracer.spans, work / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
