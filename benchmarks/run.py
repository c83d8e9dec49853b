"""The dadecheck benchmark: fresh ``dadecheck verify`` processes, one at a time.

    python3 benchmarks/run.py --workload identity --seed 1 --seconds 15 --trace 0

Run it from the repository root; it needs nothing but ``src/`` and Python.

``--trace 0`` measures the end-to-end metrics.  It runs the workload's
``verify`` command as a fresh process again and again, one at a time (a
closed loop with one client), until ``--seconds`` have passed, and times
set-up (import and model load in a fresh interpreter) several times between
those processes.  Every process goes through the correctness gate.

``--trace 1`` measures the per-layer metrics.  It runs the workload once plain
and once under the span recorder of ``tracing.py``, again until ``--seconds``
have passed, and reports the layer metrics of the traced runs and the tracing
overhead.

The seed only shuffles the order of the ``--n`` flags; the program sees only
the generated command line.  Lines before the last say what ran; the last
line of standard output is one JSON object with the metrics declared in
``BENCHMARK.json``, by name and unit.  ``--workload all`` runs every workload
in turn and prefixes each metric with the workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Each workload: the verify arguments, the n values whose --n flags the seed
# shuffles, and arguments after them.  Why each exists is in BENCHMARK.json.
WORKLOADS = {
    "identity": (["verify", "dade", "--mode", "both"], [1, 2, 3, 4], []),
    "census": (["verify", "params"], [1, 2, 3, 4], []),
    "torus": (["verify", "weyl"], [1, 2], []),
    "all_pool": (["verify", "all"], [1], ["--workers", "2"]),
}

# Set-up is sampled in batches spread over the run (before each verify process,
# and once more at the end), because this machine's speed drifts within a run.
SETUP_BATCH = 4
SETUP_MIN = 12
SETUP_CODE = ("import time; t0 = time.perf_counter(); import dadecheck; "
              "dadecheck.load_model(); print(time.perf_counter() - t0)")
# Every workload must end well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0

# The check kinds and n of every cli.task.<kind>.n<N>_s metric.
TASK_METRICS = [("dade", n) for n in (1, 2, 3, 4)] + [("params", n) for n in (1, 2, 3, 4)] \
    + [("weyl", 1), ("weyl", 2)] + [(k, 1) for k in ("lemmas", "fixrows", "classes", "relations")]


def verify_argv(workload: str, seed: int) -> List[str]:
    head, ns, tail = WORKLOADS[workload]
    ns = list(ns)
    random.Random(seed).shuffle(ns)
    argv = list(head)
    for n in ns:
        argv += ["--n", str(n)]
    return argv + tail


# ---- correctness gate -----------------------------------------------------------


def gate(returncode: int, records: Optional[list], expected: int) -> Tuple[int, List[str]]:
    """Failed records of one verify process, with the reasons.

    A process that exits non-zero, or leaves no report, fails all the records
    expected of it.  Otherwise every record that is not ``pass`` fails, and so
    does every record missing below the seed count.
    """
    if returncode != 0 or records is None:
        return expected, [f"exit status {returncode}"]
    bad = sum(1 for r in records if r.get("status") != "pass")
    missing = max(0, expected - len(records))
    problems = []
    if bad:
        problems.append(f"{bad} records not pass")
    if missing:
        problems.append(f"{missing} records missing below the seed count {expected}")
    return bad + missing, problems


def report_digest(records: list) -> str:
    """sha256 of the report as the CLI writes it, with every ``millis`` set to 0.

    ``millis`` is a running total since each task started, so it is never used
    for timing here.
    """
    zeroed = [dict(r, millis=0) for r in records]
    return hashlib.sha256((json.dumps(zeroed, indent=1) + "\n").encode()).hexdigest()


# ---- one process ------------------------------------------------------------------


@dataclass
class Run:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    start: float
    end: float
    records: Optional[list]


def _env(seed: int) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("DADE_DATA_DIR", None)
    return env


def run_verify(argv: List[str], seed: int, timeout: float,
               spans_dir: Optional[str] = None) -> Run:
    """Run one verify process to its end; CPU and peak RSS cover its workers."""
    report = os.path.join(OUT, "report.json")
    if os.path.exists(report):
        os.remove(report)
    if spans_dir is None:
        cmd = [sys.executable, "-m", "dadecheck.cli"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_verify.py"), spans_dir]
    cmd += argv + ["--report", report]
    with open(os.path.join(OUT, "verify.log"), "w") as log:
        start = time.perf_counter()
        # its own process group, so a timeout also stops the pool workers
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(seed), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    _wait_group_gone(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    records = None
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            records = json.load(fh)
    return Run(proc.returncode, end - start, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, start, end, records)


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (workers of a killed run)."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < limit_s:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure_setup(seed: int, reps: int) -> List[float]:
    """Seconds from before ``import dadecheck`` to a loaded model, fresh interpreters."""
    out = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(seed),
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


# ---- per-layer metrics ----------------------------------------------------------------


def layer_metrics(merged: dict, report: list, run: Run) -> Dict[str, float]:
    """Per-layer metrics of one traced run, from its merged spans and its report."""
    stats, counters, spans = merged["stats"], merged["counters"], merged["spans"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    m: Dict[str, float] = {}
    for name in ("tabledsl.build_env", "tabledsl.eval", "exactnum.QPoly.eval",
                 "paramsets.enumerate_classes", "paramsets.family_class_count",
                 "autfix.fixed_count_formula", "autfix.fixed_count_bruteforce",
                 "dadeverify.k_fixed", "rootdatum.f_centralizer"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    # Inclusive times of the layers whose work is mostly in their children:
    # build_env in its QPoly.eval calls, the torus checks in tabledsl.eval.
    for name in ("tabledsl.build_env", "rootdatum.torus_param_checks",
                 "rootdatum.dual_torus_check"):
        m[name + ".total_s"] = stats.get(name, [0, 0.0, 0.0])[1]
    for name in ("autfix.verify_mobius_layer", "autfix.verify_gcd_lemmas",
                 "dadeverify.verify_dade", "dadeverify.verify_dade_exact_level",
                 "dadeverify.ledger_consistency", "rootdatum.torus_param_checks",
                 "rootdatum.dual_torus_check", "rootdatum.weyl_table_checks",
                 "chartables.class_equation", "chartables.f_relations_check",
                 "chartables.exponent_integrality", "chartables.f_norm_check",
                 "chartables.degree_identity_check"):
        m[name + ".self_s"] = self_s(name)
    m["tabledsl.load_model_s"] = stats.get("dadecheck.load_model", [0, 0.0, 0.0])[1]
    m["paramsets.tuples"] = counters.get("paramsets.tuples", 0)
    m["paramsets.budget_skips"] = counters.get("paramsets.budget_skips", 0)
    doubling = counters.get("via.autfix.fixed_classes_doubling", 0)
    enum_misses = counters.get("via.autfix.enumerate_classes", 0)
    m["autfix.enum_cache.hit_ratio"] = 1.0 - enum_misses / doubling if doubling else 0.0
    checks = [r["check"] for r in report]
    m["rootdatum.enumerate_limit_skips"] = (checks.count("torus_param_count")
                                            - checks.count("torus_param_fixed"))

    tasks = [s for s in spans if s[0] == "cli.run_task"]
    by_task: Dict[Tuple[str, int], float] = {}
    for _, start, end, attrs in tasks:
        key = (attrs["kind"], attrs["n"])
        by_task[key] = by_task.get(key, 0.0) + (end - start)
    for kind, n in TASK_METRICS:
        m[f"cli.task.{kind}.n{n}_s"] = by_task.get((kind, n), 0.0)
    task_ms = [1000.0 * (end - start) for _, start, end, _ in tasks]
    m["cli.run_task.ms_p50"] = statistics.median(task_ms) if task_ms else 0.0
    m["cli.run_task.ms_max"] = max(task_ms, default=0.0)
    returned = sum(attrs["records"] for _, _, _, attrs in tasks)
    m["cli.emit.unique_ratio"] = len(report) / returned if returned else 0.0
    busy = [(s[1], s[2]) for s in spans if s[0] in ("cli.run_task", "dadecheck.load_model")]
    m["cli.driver_s"] = run.wall_s - tracing.union_length(busy, run.start, run.end)
    return m


# ---- one workload ---------------------------------------------------------------------


def say(line: str) -> None:
    print(line, flush=True)


def _median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(workload: str, seed: int, seconds: int, trace: bool,
            seed_info: dict) -> Tuple[Dict[str, float], int, int]:
    """Metrics of one workload, and the expected and failed record counts."""
    argv = verify_argv(workload, seed)
    expected = seed_info["records"]
    deadline = time.monotonic() + RUN_LIMIT_S
    say(f"workload {workload}, seed {seed}: dadecheck {' '.join(argv)}")
    attempted = failed = 0
    digests = set()

    def checked(run: Run, label: str) -> Run:
        nonlocal attempted, failed
        bad, problems = gate(run.returncode, run.records, expected)
        attempted += expected
        failed += bad
        n_rec = len(run.records) if run.records is not None else 0
        say(f"  {label}: exit {run.returncode}, {n_rec} records, {bad} failed, "
            f"wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, rss {run.peak_rss_mb:.1f} MB"
            + ("; " + "; ".join(problems) if problems else ""))
        if run.records is not None:
            digests.add(report_digest(run.records))
        return run

    metrics: Dict[str, float] = {}
    if not trace:
        setups: List[float] = []
        runs: List[Run] = []
        t0 = time.monotonic()
        while not runs or time.monotonic() - t0 < seconds:
            setups += measure_setup(seed, SETUP_BATCH)
            runs.append(checked(run_verify(argv, seed, deadline - time.monotonic()),
                                f"run {len(runs) + 1}"))
        setups += measure_setup(seed, max(SETUP_BATCH, SETUP_MIN - len(setups)))
        say("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        records = min(len(r.records) if r.records is not None else 0 for r in runs)
        wall = statistics.median(r.wall_s for r in runs)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "records_per_s": records / wall,
            "records": records,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
    else:
        spans_dir = os.path.join(OUT, "spans")
        plain: List[Run] = []
        traced: List[Dict[str, float]] = []
        traced_walls: List[float] = []
        t0 = time.monotonic()
        while not traced or time.monotonic() - t0 < seconds:
            plain.append(checked(run_verify(argv, seed, deadline - time.monotonic()),
                                 f"plain run {len(plain) + 1}"))
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            run = checked(run_verify(argv, seed, deadline - time.monotonic(), spans_dir),
                          f"traced run {len(traced) + 1}")
            merged = tracing.merge(tracing.load_dumps(spans_dir))
            traced.append(layer_metrics(merged, run.records or [], run))
            traced_walls.append(run.wall_s)
        metrics = _median_metrics(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(r.wall_s for r in plain))

    for d in sorted(digests):
        same = "same as seed" if d == seed_info["report_digest"] else "CHANGED from seed"
        say(f"  report_digest {d} ({same})")
    say(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} expected records)")
    return metrics, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dadecheck", "cli.py")):
        print(f"error: no dadecheck sources in {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        seed_info = json.load(fh)["workloads"]
    os.makedirs(OUT, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out: Dict[str, dict] = {}
    attempted = failed = 0
    for wl in names:
        metrics, a, f = measure(wl, args.seed, args.seconds, bool(args.trace), seed_info[wl])
        attempted += a
        failed += f
        prefix = f"{wl}." if args.workload == "all" else ""
        for d in declared:
            value = metrics[d["name"]]
            say(f"  {prefix}{d['name']} = {value:.6g} {d['unit']}")
            out[prefix + d["name"]] = {"value": value, "unit": d["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
