"""Self-tests of the benchmark.

    python3 -m pytest benchmarks -q

They are not part of the repository's test suite (``testpaths`` is ``tests``).
"""

import json
import os
import subprocess
import sys

import run
import tracing


def _record(status="pass", millis=1.0, name="x"):
    return {"schema": 1, "check": "c", "name": name, "n": 1, "expected": "1",
            "actual": "1", "status": status, "millis": millis}


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3], which holds c [1.5, 2], and d [4, 5]
    rec = tracing.Recorder(FakeClock([0, 1, 1.5, 2, 3, 4, 5, 10]))
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("d")
    rec.exit()
    rec.exit()
    assert rec.stats == {"c": [1, 0.5, 0.5], "b": [1, 2, 1.5], "d": [1, 1, 1],
                         "a": [1, 10, 7]}
    assert rec.depth() == 0


def test_self_time_sums_over_calls_and_merges_over_processes():
    rec = tracing.Recorder(FakeClock([0, 1, 2, 3, 4, 6]))
    rec.enter("a")
    rec.enter("b")
    rec.exit()
    rec.enter("b")
    rec.exit()
    rec.exit(attrs=None)
    assert rec.stats["b"] == [2, 2, 2]
    assert rec.stats["a"] == [1, 6, 4]
    merged = tracing.merge([rec.dump(), rec.dump()])
    assert merged["stats"]["a"] == [2, 12, 8]


def test_union_length():
    spans = [(0, 2), (1, 3), (5, 6), (5.5, 5.7), (8, 20)]
    assert tracing.union_length(spans, 0, 10) == 3 + 1 + 2
    assert tracing.union_length(spans, 2.5, 5.5) == 0.5 + 0.5
    assert tracing.union_length([], 0, 1) == 0


def test_gate_passes_a_clean_report():
    assert run.gate(0, [_record(), _record(name="y")], 2) == (0, [])


def test_gate_catches_a_fail_record():
    failed, problems = run.gate(0, [_record(), _record("fail", name="y")], 2)
    assert failed == 1 and problems


def test_gate_catches_missing_records():
    failed, problems = run.gate(0, [_record()], 3)
    assert failed == 2 and "missing" in problems[0]


def test_gate_fails_everything_on_nonzero_exit():
    assert run.gate(1, [_record(), _record()], 2)[0] == 2
    assert run.gate(-9, None, 5)[0] == 5


def test_digest_ignores_millis_only():
    a = [_record(millis=1.5), _record(name="y", millis=7)]
    b = [_record(millis=99), _record(name="y", millis=0)]
    assert run.report_digest(a) == run.report_digest(b)
    assert run.report_digest(a) != run.report_digest([a[1], a[0]])


def test_seed_only_shuffles_the_n_flags():
    argv = run.verify_argv("identity", 3)
    assert argv == run.verify_argv("identity", 3)
    assert argv[:4] == ["verify", "dade", "--mode", "both"]
    assert sorted(argv[5::2]) == ["1", "2", "3", "4"]
    orders = {tuple(run.verify_argv("identity", s)) for s in range(20)}
    assert len(orders) > 1


def test_traced_run_wraps_every_binding(tmp_path):
    env = dict(os.environ, PYTHONPATH=run.SRC)
    spans = tmp_path / "spans"
    spans.mkdir()
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "traced_verify.py"), str(spans),
         "verify", "lemmas", "--n", "1", "--report", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    merged = tracing.merge(tracing.load_dumps(str(spans)))
    assert merged["stats"]["autfix.verify_gcd_lemmas"][0] == 1
    assert merged["counters"]["via.cli.load_model"] == 1
    (task,) = [s for s in merged["spans"] if s[0] == "cli.run_task"]
    assert task[3]["kind"] == "lemmas"
    report = json.loads((tmp_path / "r.json").read_text())
    assert task[3]["records"] == len(report)


def test_benchmark_metrics_match_the_declaration():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        decl = json.load(fh)
    assert {w["name"] for w in decl["workloads"]} == set(run.WORKLOADS)
    fake = tracing.merge([])
    empty = run.Run(0, 1.0, 1.0, 1.0, 0.0, 1.0, [])
    layer = run.layer_metrics(fake, [], empty)
    layer["trace.overhead_s"] = 0.0
    assert set(layer) == {m["name"] for m in decl["per_layer"]}


def test_traced_run_collects_pool_worker_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=run.SRC)
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "traced_verify.py"), str(tmp_path),
         "verify", "classes", "--n", "1", "--n", "2", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dumps = tracing.load_dumps(str(tmp_path))
    (main,) = [d for d in dumps if "cli.main" in d["stats"]]
    workers = [d for d in dumps if d is not main]
    assert workers and "cli.run_task" not in main["stats"]
    tasks = [s for d in workers for s in d["spans"] if s[0] == "cli.run_task"]
    assert sorted(t[3]["n"] for t in tasks) == [1, 2]
    assert sum(d["stats"]["chartables.class_equation"][0] for d in workers) == 2
