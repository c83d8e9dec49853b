"""The command-line surface: subcommands, exit codes, report format."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import dadecheck
from dadecheck.cli import main
from dadecheck.record import Record
from dadecheck.tabledsl import REPEATED


def test_verify_dade_n1(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(["verify", "dade", "--n", "1", "--report", str(report)])
    assert rc == 0
    records = json.loads(report.read_text())
    assert isinstance(records, list)
    assert all(r["schema"] == 1 for r in records)
    assert all(r["status"] == "pass" for r in records)
    dade = [r for r in records if r["check"] == "dade" and not r["name"].startswith("combined")]
    assert len(dade) == 28  # 14 defects x 2 divisors of 3


def test_verify_mode_both(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["verify", "dade", "--n", "1", "--mode", "both", "--report", str(report)])
    assert rc == 0
    records = json.loads(report.read_text())
    assert any(r["check"] == "dade_mode_agreement" for r in records)


def test_params_listing(capsys):
    rc = main(["params", "--n", "1", "--set", "GI_27", "--list"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["1", "2", "3"]


def test_unknown_set_is_config_error(capsys):
    assert main(["params", "--n", "1", "--set", "NOPE"]) == 2


def test_set_without_index_structure_is_config_error(capsys):
    assert main(["params", "--n", "1", "--set", "GI_ss"]) == 2
    err = capsys.readouterr().err
    assert err == "error: GI_ss has no index structure\n"


def test_budget_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "lemmas", "--budget", "4194304"])
    assert e.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("mod = both", "unknown config key 'mod'"),
    ("budget = 65536", "unknown config key 'budget'"),
    ("mode = brute", "mode must be one of formula, bruteforce, both, not 'brute'"),
])
def test_bad_config_line_is_config_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "dade.cfg"
    cfg.write_text(f"n = 1\n{line}\n")
    assert main(["verify", "lemmas", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("args, message", [
    (["verify", "weyl", "--n", "0"], "n must be >= 1, not 0"),
    (["verify", "params", "--n", "0"], "n must be >= 1, not 0"),
    (["verify", "dade", "--n", "2", "--n", "-1"], "n must be >= 1, not -1"),
    (["verify", "all", "--max-n", "0"], "max_n must be >= 1, not 0"),
    (["verify", "classes", "--n", "1", "--workers", "0"], "workers must be >= 1, not 0"),
    (["params", "--set", "GI_27", "--n", "0"], "n must be >= 1, not 0"),
])
def test_bad_n_or_workers_is_config_error(capsys, args, message):
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("n = 1,0", "n must be >= 1, not 0"),
    ("max_n = 0", "max_n must be >= 1, not 0"),
    ("workers = -2", "workers must be >= 1, not -2"),
])
def test_bad_n_or_workers_in_config_is_config_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "dade.cfg"
    cfg.write_text(f"{line}\n")
    assert main(["verify", "lemmas", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_roundtrip(tmp_path, capsys):
    report = tmp_path / "r.json"
    main(["verify", "lemmas", "--max-n", "3", "--report", str(report)])
    rc = main(["report", str(report)])
    assert rc == 0
    assert "0 failures" in capsys.readouterr().out


def test_report_counts_and_times_each_kind(tmp_path, capsys):
    report = tmp_path / "r.json"
    records = [
        {"check": "a", "status": "pass", "millis": 1.5},
        {"check": "a", "status": "fail", "millis": 2.0},
        {"check": "a", "status": "skip", "reason": "limit", "millis": 0.25},
        {"check": "b", "status": "skip", "reason": "limit", "millis": 4.0},
    ]
    report.write_text(json.dumps(records))
    assert main(["report", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["a", "1", "passed", "1", "failed", "1", "skipped", "3.750", "ms"]
    assert lines[1].split() == ["b", "0", "passed", "0", "failed", "1", "skipped", "4.000", "ms"]


@pytest.mark.parametrize("content, message", [
    ([{"check": "a", "status": "pass", "millis": 1.0}, {"check": "b", "name": "x", "millis": 2.0}],
     "record 1 (b x) has no status"),
    ({"check": "a", "status": "pass", "millis": 1.0},
     "a report is a JSON list of records, not a dict"),
    ([{"check": "a", "status": "done", "millis": 1.0}],
     "record 0 (a None) has a bad check, status or millis"),
    ([["a", "pass"]], "record 0 is a list, not an object"),
], ids=["no-status", "object", "bad-status", "list-record"])
def test_malformed_report_exits_two(tmp_path, capsys, content, message):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(content))
    assert main(["report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {report}: {message}\n"


def test_non_utf8_table_exits_two(tmp_path, capsys):
    data = _data_copy(tmp_path, "weyl.def", "", "")
    path = os.path.join(data, "weyl.def")
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    assert main(["verify", "weyl", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    lines = open(path, "rb").read().count(b"\n") + 1
    assert err.startswith(f"error: {path}: line {lines}: byte 0xff is not UTF-8")
    assert "Traceback" not in err


def test_skips_carry_reason_and_exit_zero(tmp_path, capsys, monkeypatch):
    # no verify checker skips now, so a checker patched to skip two families
    # stands in: the skips carry their reasons, and a run with no failure exits 0
    from dadecheck import paramsets

    real = paramsets.cardinality_check

    def skipping(model, n):
        return [Record(r.check, r.name, r.n, r.expected, None, f"{r.name}: not counted")
                if r.name in ("g5", "h5") else r for r in real(model, n)]

    monkeypatch.setattr(paramsets, "cardinality_check", skipping)
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "8", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    skips = [r for r in records if r["status"] == "skip"]
    assert sorted((r["check"], r["name"]) for r in skips) == [("family_count", "g5"),
                                                              ("family_count", "h5")]
    assert all(r["reason"] == f"{r['name']}: not counted" for r in skips)
    assert all("reason" not in r for r in records if r["status"] != "skip")
    assert "123 passed, 0 failed, 2 skipped of 125 checks" in capsys.readouterr().out


def test_params_lists_no_tuple(tmp_path, capsys, monkeypatch):
    # every family is counted with no member listed: with no tuple allowed,
    # nothing is skipped (g5 and h5 were, while their single points were listed)
    from dadecheck import paramsets

    monkeypatch.setattr(paramsets, "_LISTED_TUPLES", 0)
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "8", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == 125 and all(r["status"] == "pass" for r in records)
    assert "125 passed, 0 failed, 0 skipped of 125 checks" in capsys.readouterr().out


@pytest.mark.parametrize("n", [5, 8, 20, 60])
def test_params_passes_every_record_at_large_n(tmp_path, capsys, n):
    # every set and family is counted on Python ints: at n = 8 fourteen family
    # counts and from n = 20 on thirty-two were skips while they needed int64
    report = tmp_path / "r.json"
    main(["verify", "params", "--n", "1", "--report", str(report)])  # tables and W loaded
    t0 = time.perf_counter()
    assert main(["verify", "params", "--n", str(n), "--report", str(report)]) == 0
    assert time.perf_counter() - t0 < 1.0
    records = json.loads(report.read_text())
    assert len(records) == 125 and all(r["status"] == "pass" for r in records)
    assert "125 passed, 0 failed, 0 skipped of 125 checks" in capsys.readouterr().out


def test_verify_all_n5_coverage(tmp_path, capsys):
    # every check runs and passes at n = 5, the 4096 norms included
    from collections import Counter

    report = tmp_path / "r.json"
    assert main(["verify", "all", "--n", "5", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    other = Counter((r["check"], r["status"]) for r in records if r["status"] != "pass")
    assert other == {}
    assert sum(r["check"] == "f_norm" for r in records) == 4096
    weyl = {"torus_param_count", "torus_param_fixed", "torus_param_distinct",
            "dual_torus_fixed", "dual_torus_distinct"}
    assert sum(r["check"] in weyl for r in records) == 55
    assert all(r["status"] == "pass" for r in records if r["check"] in weyl)


def test_params_n4_drops_no_family(tmp_path):
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "4", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == 125  # 111 while 14 families were dropped
    assert all(r["status"] == "pass" for r in records)
    assert sum(r["check"] == "family_count" for r in records) == 36


def test_report_deterministic(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    for path in (r1, r2):
        assert main(["verify", "weyl", "--n", "1", "--report", str(path)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for rec in a + b:
        rec["millis"] = 0
    assert a == b


# sha256 of the report with every millis set to 0, as the CLI writes it.  Any
# change to an expected or actual value, a status or a record name shows here.
@pytest.mark.parametrize("argv, count, digest", [
    (["verify", "all", "--n", "1"], 1424,
     "9a8550457d0301cf6ee65a8a47ad969459da9bfb91c95b26081e1c61148043d8"),
    (["verify", "dade", "--mode", "both", "--n", "2"], 385,
     "127328022c826b8d4ded4f86f9df5eedd349b7b960ac2918e1817647d0bb4e62"),
    (["verify", "weyl", "--n", "1", "--n", "2", "--n", "3"], 325,
     "6e62133a46662eaf8be564b573c4b48e690fbeb32dd8971c34da7102db58dea0"),
    (["verify", "params", "--n", "1", "--n", "2", "--n", "3"], 369,
     "9bd03715f4d4373a3473e7216e893395583c62cb55e5f761c768a5bed711b5dd"),
    (["verify", "all", "--max-n", "4"], 5705,
     "afed789580c860e0c4203ed7147cd194f81bb267fd8bbd1a523431eb0f665bad"),
    (["verify", "dade", "--mode", "both", "--n", "1", "--n", "2", "--n", "3", "--n", "4"], 1602,
     "2a97e3048d0de02641661c090aa39b0d053c9aba1c5971a32cd7383f4f711b59"),
    (["verify", "fixrows", "--n", "1", "--n", "2", "--n", "3", "--n", "4"], 1458,
     "96dabd1ac9af9758e199aa7ff1dda9afd7382ece84a5c93ba5296920b6ebbd9c"),
    (["verify", "relations", "--n", "3", "--n", "4"], 1373,
     "5dff4d6f8311a20f4a29c3eb64b6dbca2fccbb89789f6a5a2b32c47993c7add8"),
    # the family counts beyond n = 4: 144 of the records are family_count
    (["verify", "params", "--n", "5", "--n", "8", "--n", "20", "--n", "60"], 491,
     "e6472d4d1b1b3f269e06ac7521f1a908f9d63dc7e2f42fcd87dbdf4bcc7f03ff"),
], ids=["all-n1", "dade-both-n2", "weyl-n123", "params-n123", "all-max-n4", "dade-both-n1234",
        "fixrows-n1234", "relations-n34", "params-n5-8-20-60"])
def test_report_matches_golden_digest(tmp_path, argv, count, digest):
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == 0
    zeroed = [dict(r, millis=0) for r in json.loads(report.read_text())]
    assert len(zeroed) == count
    text = json.dumps(zeroed, indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "dade.cfg"
    cfg.write_text("n = 2\nmode = formula\n")
    report = tmp_path / "r.json"
    rc = main(["verify", "classes", "--config", str(cfg), "--n", "1",
               "--report", str(report)])
    assert rc == 0
    records = json.loads(report.read_text())
    assert {r["n"] for r in records} == {1}


def test_workers_match_serial(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert main(["verify", "classes", "--n", "1", "--n", "2", "--report", str(r1)]) == 0
    assert main(["verify", "classes", "--n", "1", "--n", "2", "--workers", "2",
                 "--report", str(r2)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for rec in a + b:
        rec["millis"] = 0
    assert a == b


def _zeroed_report(tmp_path, argv):
    """The records of a passing run of argv, with millis 0."""
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == 0
    return [dict(r, millis=0) for r in json.loads(report.read_text())]


def test_workers_match_serial_past_256_tasks(tmp_path):
    # 260 tasks: indices above one byte, and more results than one pipe buffer holds
    argv = ["verify", "classes", "--max-n", "260"]
    serial = _zeroed_report(tmp_path, argv)
    assert len(serial) == 520
    assert _zeroed_report(tmp_path, argv + ["--workers", "2"]) == serial


def test_pool_forks_at_most_one_worker_per_task(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    assert main(["verify", "classes", "--n", "1", "--n", "2", "--workers", "8"]) == 0
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_workers_without_fork_run_serially(tmp_path, monkeypatch):
    argv = ["verify", "classes", "--n", "1", "--n", "2"]
    serial = _zeroed_report(tmp_path, argv)
    monkeypatch.delattr(os, "fork")
    assert _zeroed_report(tmp_path, argv + ["--workers", "2"]) == serial


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(dadecheck.__file__)))


def _run_with_class_equation_failing_at_n2(failure, workers):
    """(exit status, stderr) of verify classes --n 1..3 in a fresh process whose
    class_equation fails at n = 2; the process also prints whether a child is left."""
    code = (
        "import os, sys\n"
        "from dadecheck import chartables, counting\n"
        "from dadecheck.cli import main\n"
        "real = chartables.class_equation\n"
        "def failing(model, n):\n"
        "    if n == 2:\n"
        f"        {failure}\n"
        "    return real(model, n)\n"
        "chartables.class_equation = failing\n"
        f"rc = main(['verify', 'classes', '--n', '1', '--n', '2', '--n', '3', "
        f"'--workers', '{workers}'])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    print('a child is left')\n"
        "except ChildProcessError:\n"
        "    print('no child is left')\n"
        "sys.exit(rc)\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "no child is left"
    return done.returncode, done.stderr


def test_error_in_a_worker_exits_two_like_a_serial_run():
    failure = "raise counting.NonIntegralModulus('X: modulus q/3 is not an integer')"
    serial = _run_with_class_equation_failing_at_n2(failure, 1)
    pooled = _run_with_class_equation_failing_at_n2(failure, 2)
    assert serial == pooled == (2, "error: X: modulus q/3 is not an integer\n")


def test_worker_that_dies_exits_two():
    rc, err = _run_with_class_equation_failing_at_n2("os._exit(3)", 2)
    assert rc == 2
    (line,) = err.splitlines()
    assert line.startswith("error: worker process ") and line.endswith(
        " exited 3 before sending its results")


def test_group_order_past_4300_digits_is_written_exactly(tmp_path):
    # |G| = q^24 (q^2-1)(q^6+1)(q^8-1)(q^12+1) with q^2 = 2^(2n+1): 4391 digits at n = 280
    report = tmp_path / "r.json"
    assert main(["verify", "classes", "--n", "280", "--report", str(report)]) == 0
    q2 = 2 ** 561
    order = q2 ** 12 * (q2 - 1) * (q2 ** 3 + 1) * (q2 ** 4 - 1) * (q2 ** 6 + 1)
    (rec,) = [r for r in json.loads(report.read_text()) if r["check"] == "class_equation"]
    assert len(rec["expected"]) == 4391
    assert rec["expected"] == rec["actual"] == str(order)


def test_data_dir_flag(tmp_path, monkeypatch):
    from importlib import resources
    import dadecheck

    src = resources.files("dadecheck") / "data"
    dest = tmp_path / "data"
    dest.mkdir()
    for fname in dadecheck.DATA_FILES:
        (dest / fname).write_text((src / fname).read_text())
    assert main(["verify", "classes", "--n", "1", "--data-dir", str(dest)]) == 0
    # the environment variable supplies the same default
    monkeypatch.setenv("DADE_DATA_DIR", str(dest))
    dadecheck._MODEL_CACHE.clear()
    assert main(["verify", "classes", "--n", "1"]) == 0
    monkeypatch.delenv("DADE_DATA_DIR")
    dadecheck._MODEL_CACHE.clear()


def test_failed_check_exits_one(tmp_path, capsys):
    from importlib import resources
    import dadecheck

    src = resources.files("dadecheck") / "data"
    dest = tmp_path / "data"
    dest.mkdir()
    for fname in dadecheck.DATA_FILES:
        text = (src / fname).read_text()
        if fname == "fixrows.def":
            # sabotage one closed form; brute force must now disagree
            text = text.replace("fix: 2^t-2", "fix: 2^t-1", 1)
        (dest / fname).write_text(text)
    rc = main(["verify", "fixrows", "--n", "1", "--data-dir", str(dest)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_millis_is_per_record_not_running_total():
    import time

    from dadecheck import cli

    cli._model()  # load outside the timed region
    records = []
    for n in (None, 1):  # the weyl checks that do not depend on n, then those at n = 1
        t0 = time.perf_counter()
        task = cli.run_task(("weyl", n, {"max_n": 1, "mode": "formula"}))
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        assert sum(r["millis"] for r in task) <= wall_ms + 1.0
        records += task
    assert len(records) > 100


def test_millis_is_each_records_own_time(monkeypatch):
    import time

    from dadecheck import cli
    from dadecheck.record import Record

    def slow_checker(model, n, cfg):  # finishes its list before run_task sees it
        out = []
        for i in range(4):
            time.sleep(0.05)
            out.append(Record("slow", str(i), n, 1, 1))
        return out

    cli._model()  # load outside the timed region
    monkeypatch.setitem(cli.REGISTRY, "slow",
                        ("record", [(False, lambda mod, m, n, c: slow_checker(m, n, c))]))
    task = cli.run_task(("slow", 1, {"max_n": 1, "mode": "formula"}))
    assert [r["name"] for r in task] == ["0", "1", "2", "3"]
    assert all(45.0 <= r["millis"] < 150.0 for r in task), [r["millis"] for r in task]


def test_weyl_census_runs_once_per_run(tmp_path, monkeypatch):
    from dadecheck import rootdatum

    calls = {"f_conjugacy_classes": 0, "subsystem_checks": 0}
    for name in calls:
        fn = getattr(rootdatum, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(rootdatum, name, counted)
    report = tmp_path / "r.json"
    assert main(["verify", "weyl", "--n", "1", "--n", "2", "--n", "3",
                 "--report", str(report)]) == 0
    assert calls == {"f_conjugacy_classes": 1, "subsystem_checks": 1}
    records = json.loads(report.read_text())
    assert sum(r["check"] == "centralizer_order" for r in records) == 11
    assert sum(r["check"] == "torus_order_det" for r in records) == 33


def _data_copy(tmp_path, fname, old, new):
    from importlib import resources
    import dadecheck

    src = resources.files("dadecheck") / "data"
    dest = tmp_path / "data"
    dest.mkdir()
    for f in dadecheck.DATA_FILES:
        text = (src / f).read_text()
        if f == fname:
            assert old in text
            text = text.replace(old, new, 1)
        (dest / f).write_text(text)
    return str(dest)


R4 = "matrix: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, -1]]"


@pytest.mark.parametrize("r4, message", [
    # an infinite group: the closure passes its bound
    ("matrix: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, -1]]", "exceeded"),
    # r1 again: a finite group that the twist does not normalize
    ("matrix: [[-1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]", "normalize"),
    # a projection: a finite monoid, not a group
    ("matrix: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]", "singular"),
])
@pytest.mark.parametrize("command", [["verify", "weyl"], ["verify", "params"]])
def test_bad_weyl_generators_exit_two(tmp_path, capsys, r4, message, command):
    data = _data_copy(tmp_path, "weyl.def", R4, r4)
    assert main(command + ["--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert "Weyl generator data" in err and message in err


def test_pool_builds_w_once_before_forking(monkeypatch):
    from dadecheck import rootdatum

    monkeypatch.setattr(rootdatum, "_WEYL_GROUPS", {})
    assert main(["verify", "weyl", "--n", "1", "--workers", "2"]) == 0
    assert len(rootdatum._WEYL_GROUPS) == 1  # the driver's, which the workers inherited


def test_bad_weyl_generators_exit_two_pooled_as_serial(tmp_path, capsys):
    # the driver's W build fails quietly; the task that reads W raises, as in a serial run
    infinite = "matrix: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, -1]]"
    argv = ["verify", "all", "--n", "1", "--data-dir", _data_copy(tmp_path, "weyl.def", R4,
                                                                  infinite)]
    assert main(argv) == 2
    serial = capsys.readouterr().err
    assert main(argv + ["--workers", "2"]) == 2
    assert capsys.readouterr().err == serial and "exceeded" in serial


M0 = "matrix: [[0, 0, 0, 2], [0, 0, 2, 0], [0, 1, 0, 0], [1, 0, 0, 0]]"


@pytest.mark.parametrize("old, new, message", [
    (R4, "matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "weylgen r4: matrix is not 4 x 4"),
    ("frobenius m0 {\n  " + M0 + "\n}\n", "", "no frobenius block"),
    (M0, "matrix: [[0, 0, 0, 2], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]]",
     "frobenius m0: m0 m0 is not 2 I"),
], ids=["r4-3x3", "no-frobenius", "m0-squared"])
@pytest.mark.parametrize("command", [["verify", "weyl"], ["verify", "params"]])
def test_bad_weyl_tables_exit_two(tmp_path, capsys, old, new, message, command):
    data = _data_copy(tmp_path, "weyl.def", old, new)
    assert main(command + ["--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_negative_exact_count_fails_mobius_records(tmp_path, capsys):
    # fix(t = 1) = 8 > fix(t = 3) = 2: exact(1) = 2 - 8 < 0
    data = _data_copy(tmp_path, "fixrows.def", "sets: [GI_2, GI_3]\n  fix: 2\n",
                      "sets: [GI_2, GI_3]\n  fix: 2^(4-t)\n")
    report = tmp_path / "r.json"
    assert main(["verify", "fixrows", "--n", "1", "--data-dir", data,
                 "--report", str(report)]) == 1
    failed = {(r["check"], r["name"], r["t"]): r["actual"]
              for r in json.loads(report.read_text()) if r["status"] == "fail"}
    assert failed[("mobius", "R_G_2_3", 3)] == "'exact(1) = -6 < 0'"
    assert "Traceback" not in capsys.readouterr().err


def test_params_budget_overflow_is_skip(tmp_path, capsys):
    # once a skip at int64 (index map values up to 590291306690359066626),
    # now counted on Python ints and equal to the formula
    report = tmp_path / "r.json"
    assert main(["params", "--n", "8", "--set", "PaI_4", "--report", str(report)]) == 0
    (rec,) = json.loads(report.read_text())
    assert rec["status"] == "pass" and "reason" not in rec
    assert rec["actual"] == rec["expected"] == str((2 ** 34 - 2 ** 17) // 2)
    assert "1 passed, 0 failed, 0 skipped of 1 checks" in capsys.readouterr().out


def test_params_listing_past_the_listed_tuples_is_error(capsys):
    # the count needs no listing; the representatives of 67092481 tuples are not listed
    assert main(["params", "--n", "6", "--set", "BI_1", "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot list the classes of BI_1 at n = 6: "
                            "grid: 67092481 tuples, more than 4194304\n")


def test_norms_pass_one_record_per_k(tmp_path, model):
    # the norms are exact at every n: n = 3 passes like n = 2, no skip
    from dadecheck import chartables

    report = tmp_path / "r.json"
    assert main(["verify", "relations", "--n", "2", "--n", "3", "--report", str(report)]) == 0
    norms = [r for r in json.loads(report.read_text()) if r["check"] == "f_norm"]
    for n, count in ((2, 64), (3, 256)):
        got = [r for r in norms if r["n"] == n]
        ks = [f"{w}(k={k})" for w in ("f8", "f10")
              for k in chartables.admissible_norm_parameters(model, n, w)]
        assert sorted(r["name"] for r in got) == sorted(ks)
        assert len(got) == count
        assert all(r["status"] == "pass" and r["actual"] == "True" and "reason" not in r
                   for r in got)


_C_8_2 = "term: [s2*q, 1, th*i*k, -(th*i*k), (th-1)*i*k, -((th-1)*i*k)]"
# the relation records that a changed f8 value on c_8_2 must fail besides the norms
_C_8_2_RELATIONS = {("difference", "diff_f8/c_8_2"), ("difference_numeric", "diff_f8/c_8_2"),
                    ("relation", "f8_anti_c8_3"), ("relation_numeric", "f8_anti_c8_3")}


@pytest.mark.parametrize("fname, old, new, n, message, others", [
    # one index orbit at n = 1, against a family count of 2
    ("classes.def", "count: (q^2-s2*q)/4\n", "count: (q^2-s2*q)/4+1\n", 1,
     "c_8_2: 1 index orbits vs family count 2", set()),
    # the slopes th, -th, th-3, 1-th are not closed under negation mod p8b
    ("relations.def", _C_8_2, _C_8_2.replace("(th-1)*i*k,", "(th-3)*i*k,"), 3,
     "c_8_2: root slopes not closed under negation mod 113", _C_8_2_RELATIONS),
    # 1, -1, 1, -1 are, but q^2 = 3 mod 5 sends 1 to 3
    ("relations.def", _C_8_2, "term: [s2*q, 1, i*k, -(i*k), i*k, -(i*k)]", 1,
     "c_8_2: root slopes not closed under x q^2 mod 5", _C_8_2_RELATIONS),
    ("relations.def", _C_8_2, _C_8_2.replace("1, th*i*k,", "1, th*i*k+1,"), 1,
     "c_8_2: root exponent ((th*i)*k)+1 is not an integer multiple of i*k", _C_8_2_RELATIONS),
], ids=["family-count", "slopes-not-negation-closed", "slopes-not-q2-closed",
        "exponent-constant"])
def test_broken_norm_data_fails_records(tmp_path, capsys, fname, old, new, n, message, others):
    data = _data_copy(tmp_path, fname, old, new)
    report = tmp_path / "r.json"
    assert main(["verify", "relations", "--n", str(n), "--data-dir", data,
                 "--report", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads(report.read_text())
    f8 = [r for r in records if r["check"] == "f_norm" and r["name"].startswith("f8(")]
    assert f8 and all(r["status"] == "fail" and r["actual"] == repr(message) for r in f8)
    failed = {(r["check"], r["name"]) for r in records
              if r["status"] != "pass" and r["check"] != "f_norm"}
    assert failed == others
    assert all(r["status"] == "pass" for r in records if r["name"].startswith("f10("))


def test_n_free_records_carry_null_n(tmp_path):
    from collections import Counter

    report = tmp_path / "r.json"
    assert main(["verify", "weyl", "--n", "1", "--n", "2", "--report", str(report)]) == 0
    counts = Counter((r["check"], r["n"]) for r in json.loads(report.read_text()))
    n_free = {"weyl_order": 1, "f_class_count": 1, "f_class_partition": 1,
              "f_class_distinct": 11, "centralizer_order": 11,
              "subsystem_type": 18, "subsystem_stable": 18}
    for check, count in n_free.items():
        assert counts[(check, None)] == count, check
    assert not any(n == 0 for _, n in counts)
    for n in (1, 2):
        assert counts[("torus_order_det", n)] == 11


def test_centralizer_not_dividing_fails_record(tmp_path, capsys):
    data = _data_copy(tmp_path, "classes.def", "  cent: q^20*(q^4-1)\n",
                      "  cent: q^30*(q^4-1)\n")
    assert main(["verify", "classes", "--n", "1", "--data-dir", data]) == 1
    err = capsys.readouterr().err
    assert "FAIL centralizer_divisibility all n=1 expected True got ['c_1_2']" in err
    assert "Traceback" not in err


def test_trusted_input_flags_run_once_per_run(tmp_path, monkeypatch):
    from dadecheck import paramsets

    calls = []
    real = paramsets.trusted_input_flags
    monkeypatch.setattr(paramsets, "trusted_input_flags",
                        lambda model: calls.append(1) or real(model))
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "1", "--n", "2", "--report", str(report)]) == 0
    assert len(calls) == 1
    flags = [r for r in json.loads(report.read_text()) if r["check"] == "trusted_input"]
    assert len(flags) == 3 and all(r["n"] is None for r in flags)


def test_budget_overflow_in_fixrows_and_dade_is_skip(tmp_path, capsys):
    # at n = 8 the set PaI_4, a member of R_Pa_3_4, needs values past int64:
    # its cells were skips, and are now counted and pass
    report = tmp_path / "r.json"
    assert main(["verify", "fixrows", "--n", "8", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == 324 and all(r["status"] == "pass" for r in records)
    cells = {r["t"]: r for r in records if r["check"] == "fixrow" and r["name"] == "R_Pa_3_4"}
    assert sorted(cells) == [1, 17] and all(r["actual"] == r["expected"] for r in cells.values())
    assert main(["verify", "dade", "--n", "8", "--mode", "both", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == 385 and all(r["status"] == "pass" for r in records)
    cells = [r for r in records if r["name"] == "d_24n_12"
             and r["check"] in ("dade_bruteforce", "dade_mode_agreement")]
    assert sorted((r["check"], r["u"]) for r in cells) == [
        (check, u) for check in ("dade_bruteforce", "dade_mode_agreement") for u in (1, 17)]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "params"], ["verify", "fixrows"],
                                     ["verify", "dade", "--mode", "both"]])
def test_n6_runs_with_no_skips(tmp_path, command):
    report = tmp_path / "r.json"
    assert main(command + ["--n", "6", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert records and all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("command, count", [(["verify", "fixrows"], 324),
                                            (["verify", "dade", "--mode", "both"], 385)])
def test_n20_runs_with_no_skips(tmp_path, command, count):
    # every set count is exact on Python ints: nothing is skipped at n = 20
    report = tmp_path / "r.json"
    assert main(command + ["--n", "20", "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == count and all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("n", [8, 40])
def test_weyl_large_n_passes(tmp_path, n):
    # at n = 8 the charts have D = 2^34 + 1, where an int64 change of basis wraps
    # around; at n = 40 D is past int64 itself
    report = tmp_path / "r.json"
    assert main(["verify", "weyl", "--n", str(n), "--report", str(report)]) == 0
    records = json.loads(report.read_text())
    assert len(records) == 149 and all(r["status"] == "pass" for r in records)


def test_mobius_records_named_by_row(tmp_path, model):
    report = tmp_path / "r.json"
    assert main(["verify", "fixrows", "--n", "1", "--report", str(report)]) == 0
    mobius = [r for r in json.loads(report.read_text()) if r["check"] == "mobius"]
    assert len(mobius) == 162
    assert sorted((r["name"], r["t"]) for r in mobius) == sorted(
        (rid, t) for rid in model.fixrows for t in (1, 3))
    assert all(r["status"] == "pass" for r in mobius)


def test_no_duplicate_records_reach_emit(tmp_path, monkeypatch):
    from dadecheck import cli
    from dadecheck.record import Record

    returned = []
    real = cli.run_task

    def counted(task):
        out = real(task)
        returned.append(len(out))
        return out

    monkeypatch.setattr(cli, "run_task", counted)
    report = tmp_path / "r.json"
    for what in ("relations", "fixrows"):
        returned.clear()
        assert main(["verify", what, "--n", "1", "--n", "2", "--report", str(report)]) == 0
        records = json.loads(report.read_text())
        assert sum(returned) == len(records)
        if what == "relations":
            n_free = [r for r in records
                      if r["check"] in ("relation", "difference", "degree_poly")]
            assert len(n_free) == 29 and all(r["n"] is None for r in n_free)
    rec = Record("c", "x", 1, 1, 1, t=3).as_json(0.0)
    with pytest.raises(ValueError, match="two records"):
        cli._emit([rec, dict(rec, millis=2.0)], {})


def test_record_compares_without_its_stamp():
    from dadecheck.record import Record

    a = Record("c", "x", 1, 2, 2, t=3)
    b = Record("c", "x", 1, 2, 2, t=3, stamp=a.stamp + 1.0)
    assert a == b and a.ok and a.stamp != b.stamp
    assert a != Record("c", "x", 1, 2, 2, t=5) and a != Record("c", "x", 1, 2, 2, "why", t=3)
    assert "stamp" not in repr(a) and "t=3" in repr(a)
    with pytest.raises(TypeError):
        Record("c", "x", 1, 2, 2, None, 3)  # t, d and u are keyword-only
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.other = 1


def test_report_file_is_json_dumps_indent_one(tmp_path):
    from dadecheck import cli
    from dadecheck.record import Record

    records = [r.as_json(m) for r, m in [
        (Record("cardinality", "BI_1", 5, None, None, "BI_1: grid \u00e9 too large"), 0.5),
        (Record("fixrow", "R_1", 4, 12, 12, t=3), 1.25),
        (Record("dade", "L1", 2, (3, True, True), (3, True, True), d=17, u=5), 0.0),
        (Record("dade_exact", "L2", 1, 0, -1, d=3, u=1), 12.0),
        (Record("weyl_order", "W", None, 1152, 1152), 3e-05),
    ]]
    report = tmp_path / "r.json"
    for recs in (records, []):
        assert cli._emit(recs, {"report": str(report)}) == (1 if recs else 0)
        assert report.read_text() == json.dumps(recs, indent=1) + "\n"
    assert {"reason", "t", "d", "u"} <= {key for r in records for key in r}


def test_bad_equivalence_map_exits_two(tmp_path, capsys):
    # at n = 1, k -> 8k+1 sends k = 1 to 9 = p4, which is excluded
    data = _data_copy(tmp_path, "paramsets.def", "equiv: [k -> q^2*k]\n  card: (q^4-q^2)/2",
                      "equiv: [k -> q^2*k+1]\n  card: (q^4-q^2)/2")
    assert main(["verify", "params", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PaI_4: ") and "Traceback" not in err


@pytest.mark.parametrize("fix, message", [
    ("2*zz", "unknown symbol zz"),
    ("2/(t-t)", "division by zero in Q(sqrt2)"),
    ("2^t*q", "fix uses q; only t is allowed"),
    ("2*k", "unbound symbol k"),
    ("2^(t/2)", "1/2 is not an integer"),
])
def test_bad_fixrow_expression_exits_two(tmp_path, capsys, fix, message):
    data = _data_copy(tmp_path, "fixrows.def", "sets: [GI_2, GI_3]\n  fix: 2\n",
                      f"sets: [GI_2, GI_3]\n  fix: {fix}\n")
    assert main(["verify", "dade", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixrow R_G_2_3: {message}") and "Traceback" not in err


@pytest.mark.parametrize("fname, old, new, message", [
    ("paramsets.def", "exclude: k = 0", "exclude: k = zz", "GI_22: unknown symbol zz"),
    # the modulus of a div atom is evaluated without the indices
    ("paramsets.def", "exclude: ((q^2+1)/3) div k", "exclude: k div k",
     "GI_32: unknown symbol k"),
    # h2 has the one index i
    ("classes.def", "exclude: i = 0\n", "exclude: i = 0 or j = 1\n",
     "classfam h2: unknown symbol j"),
], ids=["set-unknown", "set-div-modulus-index", "family-other-index"])
def test_bad_exclusion_atom_exits_two(tmp_path, capsys, fname, old, new, message):
    data = _data_copy(tmp_path, fname, old, new)
    assert main(["verify", "params", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ("term: [-s2*q^2*(2*q+s2), 1, 0]", "term: [-s2*q^2*(2*q+zz), 1, 0]",
     "chvalue f8_c_1_11: unknown symbol zz"),
    # a value coefficient is a polynomial in q, free of n and of the indices
    ("term: [-s2*q^2*(2*q+s2), 1, 0]", "term: [-s2*q^2*(2*q+n), 1, 0]",
     "chvalue f8_c_1_11: unknown symbol n"),
    # a root exponent may use th and the indices i, k only
    ("term: [s2*q, 1, th*i*k,", "term: [s2*q, 1, th*i*j,", "chvalue f8_c_8_2: unknown symbol j"),
    ("order: p8b\n  term: [s2*q,", "order: p8b*zz\n  term: [s2*q,",
     "chvalue f8_c_8_2: unknown symbol zz"),
    ("phi: p1*p2*p4^2*p12*p24*p8a", "phi: n*p1*p2*p4^2*p12*p24*p8a",
     "degrel deg_chi42: unknown symbol n"),
    ("defect: 24*n+12", "defect: 24*n+zz", "degrel deg_chi42: unknown symbol zz"),
], ids=["coeff-unknown", "coeff-n", "exponent-index", "order", "degree-phi", "degree-defect"])
def test_bad_relations_symbol_exits_two(tmp_path, capsys, old, new, message):
    data = _data_copy(tmp_path, "relations.def", old, new)
    assert main(["verify", "relations", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("fname, old, new, message", [
    ("classes.def", "coords: [(2*th+1)*(k+l)/(q^2-1)", "coords: [(2*th+1)*(zz+l)/(q^2-1)",
     "classfam g4: unknown symbol zz"),
    # a range is evaluated without the indices
    ("classes.def", "ranges: [q^2-1, q^2-1]\n  exclude: k = 0 or l = 0 or k = l",
     "ranges: [q^2-1, q^2-k]\n  exclude: k = 0 or l = 0 or k = l", "classfam g4: unknown symbol k"),
    ("paramsets.def", "moduli: [q^2+1]", "moduli: [q^2+zz]", "GI_32: unknown symbol zz"),
    ("paramsets.def", "equiv: [k -> q^2*k]", "equiv: [k -> q^2*l]", "PaI_4: unknown symbol l"),
    ("weyl.def", "tcoords: [a/(q^2-1)", "tcoords: [zz/(q^2-1)", "weylclass T1: unknown symbol zz"),
    # a torus index in a dual coordinate
    ("weyl.def", "scoords: [(2*th+1)*(k+l)/(q^2-1)", "scoords: [(2*th+1)*(a+l)/(q^2-1)",
     "weylclass T1: unknown symbol a"),
    ("weyl.def", "tranges: [q^2-1, q^2-1]", "tranges: [q^2-1, a]", "weylclass T1: unknown symbol a"),
], ids=["family-coords", "family-range", "set-modulus", "map-target", "torus-coords",
        "dual-coords", "torus-range"])
def test_bad_index_field_symbol_exits_two(tmp_path, capsys, fname, old, new, message):
    data = _data_copy(tmp_path, fname, old, new)
    assert main(["verify", "all", "--n", "1", "--data-dir", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


M1 = "matrix: [[0, 0, 0, -2], [0, 0, 2, 2], [1, 1, 0, 0], [-1, 0, 0, 0]]"  # r1 m0 r1

# A point field with other than 4 coordinates, a torus with other than one
# range per index, and a pairing whose change under a range has a sqrt2 part.
_T1_PAIRING = "pairing: ((k+l)*a+(k-l)*b)/(q^2-1)"
_SHAPE_ERRORS = [
    ("classes.def", "coords: [0, 0, i/(q^2-1),", "coords: [0, i/(q^2-1),",
     "classes.def: classfam h2: coords: 3 for 4 coordinates"),
    ("classes.def", "coords: [0, (2*th+2)*k/(q^2-1), (4*th+2)*k/(q^2-1), 0]",
     "coords: [0, (2*th+2)*k/(q^2-1), (4*th+2)*k/(q^2-1)]",
     "classes.def: classfam g2: coords: 3 for 4 coordinates"),
    ("weyl.def", "  tranges: [q^2-1, q^2-1]\n", "  tranges: [q^2-1]\n",
     "weyl.def: weylclass T1: tranges: 1 for 2 tvars"),
    ("weyl.def", "  sranges: [q^2-1, q^2-1]\n", "  sranges: [q^2-1]\n",
     "weyl.def: weylclass T1: sranges: 1 for 2 svars"),
    ("weyl.def", "b/(q^2-1), (2*th-1)*b/(q^2-1)]", "b/(q^2-1)]",
     "weyl.def: weylclass T1: tcoords: 3 for 4 coordinates"),
    ("weyl.def", "(2*th+2)*(k+l)/(q^2-1)]", "(2*th+2)*(k+l)/(q^2-1), 0]",
     "weyl.def: weylclass T1: scoords: 5 for 4 coordinates"),
    ("weyl.def", _T1_PAIRING, _T1_PAIRING.replace(": ", ": s2*"),
     "T1: (s2*(((k+l)*a)+((k-l)*b)))/((q^2)-1) at n = 1: 1*s2 has a sqrt2 part"),
]
_SHAPE_IDS = ["family-three-coords-torus", "family-three-coords-dual", "torus-fewer-tranges",
              "torus-fewer-sranges", "torus-three-tcoords", "torus-five-scoords",
              "pairing-sqrt2"]

# A ledger degree, the group order and a centralizer with a symbol they may
# not use, a power whose exponent is no integer (at n = 1, or with q free),
# and a doubling with no indices to act on.
_GI_19 = "R_G_19_20, (q^13/s2)*p1*p2*p4^2*p12]"
_BI_34 = "BI_34, paired, P4, left, q^4*p1^2*p2^2]"
_ORDER = "q^24*(q^12+1)*(q^8-1)*(q^6+1)*(q^2-1)\n"
_LOAD_ERRORS = [
    ("defects.def", _GI_19, _GI_19.replace("p12", "zz"),
     "defects.def: defect d_11n_6: entry GI_19: degree (((((q^13)/s2)*p1)*p2)*(p4^2))*zz: "
     "unknown symbol zz"),
    ("defects.def", _GI_19, _GI_19.replace("p12", "j"),
     "defects.def: defect d_11n_6: entry GI_19: degree (((((q^13)/s2)*p1)*p2)*(p4^2))*j: "
     "unknown symbol j"),
    ("classes.def", "  order: " + _ORDER, "  order: " + _ORDER.replace("(q^2-1)", "(q^2-zz)"),
     "classes.def: grouporder ree: order ((((q^24)*((q^12)+1))*((q^8)-1))*((q^6)+1))*((q^2)-zz): "
     "unknown symbol zz"),
    ("classes.def", "  family: h1\n  cent: q^24", "  family: h1\n  cent: zz*q^24",
     "classes.def: classrow c_1_0: cent ((((zz*(q^24))*((q^12)+1))*((q^8)-1))*((q^6)+1))*((q^2)-1): "
     "unknown symbol zz"),
    ("defects.def", _BI_34, _BI_34.replace("q^4*p1", "q^4^p1"),
     "defects.def: defect d_20n_10: entry BI_34: degree (q^(4^(p1^2)))*(p2^2): "
     "9+-4*s2 has a nonzero sqrt2 part"),
    ("relations.def", "term: [s2*q^3+q^2, 1, 0]", "term: [s2*q^3^q^2, 1, 0]",
     "relations.def: chvalue chi44_c_1_11: coefficient s2*(q^(3^(q^2))) is not a polynomial in q"),
    # a degree relation's table and phi are polynomials in q too
    ("relations.def", "  phi: p1*p2*p4^2*p12*p24*p8a\n", "  phi: p1^q*p2*p4^2*p12*p24*p8a\n",
     "relations.def: degrel deg_chi42: phi (((((p1^q)*p2)*(p4^2))*p12)*p24)*p8a is not a "
     "polynomial in q"),
    ("relations.def", "  table: (q-1)*(q+1)*(q^2+1)^2*(q^4-q^2+1)*(q^8-q^4+1)*(q^2+s2*q+1)\n",
     "  table: 1/q\n", "relations.def: degrel deg_chi42: table 1/q is not a polynomial in q"),
    ("paramsets.def", "paramset PbI_4 {\n  group: Pb\n  action: doubling\n  moduli: [q^2-1]\n",
     "paramset PbI_4 {\n  group: Pb\n  action: doubling\n",
     "paramsets.def: paramset PbI_4: action doubling with no moduli"),
]
_LOAD_IDS = ["entry-degree-unknown", "entry-degree-index", "group-order-unknown",
             "cent-unknown", "entry-degree-sqrt2-exponent", "coefficient-exponent-in-q",
             "phi-exponent-in-q", "table-negative-power", "doubling-no-moduli"]


@pytest.mark.parametrize("fname, old, new, message", [
    ("weyl.def", "  cent: 16\n", "", "weyl.def: weylclass T1: missing field cent"),
    ("weyl.def", "  pairing: ((k+l)*a", "  paring: ((k+l)*a",
     "weyl.def: weylclass T1: unknown field 'paring'"),
    ("defects.def", "  value: 11*n+6\n", "  value: 11*n+6\n  value: 11*n+7\n",
     "defects.def: defect d_11n_6: field 'value' given twice"),
    ("paramsets.def", "paramset GI_2 {", "paramset GI_1 {\n  group: G\n  action: none\n"
     "  card: 1\n}\nparamset GI_2 {", "paramsets.def: paramset GI_1: a second paramset block"),
    ("weyl.def", "weylclass T1 {", "frobenius m1 {\n  " + M1 + "\n}\nweylclass T1 {",
     "weyl.def: frobenius m1: a second frobenius block after m0"),
    ("paramsets.def", "  card: (q^2-2)/2\n  note: semisimple_member\n}\nparamset GI_23",
     "  crad: (q^2-2)/2\n  note: semisimple_member\n}\nparamset GI_23",
     "paramsets.def: paramset GI_22: unknown field 'crad'"),
    # an expression where a predicate belongs, and a predicate where an expression does
    ("paramsets.def", "  exclude: k = 0\n  equiv: [k -> -k]\n  card: (q^2-2)/2\n",
     "  exclude: 3\n  equiv: [k -> -k]\n  card: (q^2-2)/2\n",
     "paramsets.def: paramset GI_22: exclude has 3 where a predicate belongs"),
    ("paramsets.def", "  equiv: [k -> -k]\n  card: (q^2-2)/2\n", "  equiv: [k -> -k]\n  card: k = 0\n",
     "paramsets.def: paramset GI_22: card has k = 0 where an expression belongs"),
    # an equiv item is read as a map when the table loads
    ("paramsets.def", "  equiv: [k -> -k]\n  card: (q^2-2)/2\n", "  equiv: [k+1]\n  card: (q^2-2)/2\n",
     "paramsets.def: paramset GI_22: equiv has k+1 where an affine map belongs"),
    ("paramsets.def", "  equiv: [k -> -k]\n  card: (q^2-2)/2\n", "  equiv: [k]\n  card: (q^2-2)/2\n",
     "paramsets.def: paramset GI_22: equiv has k where an affine map belongs"),
    # a map sends the set's indices, in order, to one target each
    ("paramsets.def", "equiv: [(k,l) -> (k,-l)]\n  card: (q^4-3*q^2+2)/2",
     "equiv: [(k,l) -> (l)]\n  card: (q^4-3*q^2+2)/2",
     "PbI_5: equiv map (k,l) -> l must map (k,l) to one target per index"),
    ("paramsets.def", "equiv: [(k,l) -> (k,-l)]\n  card: (q^4-3*q^2+2)/2",
     "equiv: [(k,l) -> (k,-l,k)]\n  card: (q^4-3*q^2+2)/2",
     "PbI_5: equiv map (k,l) -> (k, -l, k) must map (k,l) to one target per index"),
    ("paramsets.def", "equiv: [(k,l) -> (k,-l)]\n  card: (q^4-3*q^2+2)/2",
     "equiv: [(l,k) -> (k,-l)]\n  card: (q^4-3*q^2+2)/2",
     "PbI_5: equiv map (l,k) -> (k, -l) must map (k,l) to one target per index"),
    # every weylclass field is read by a Weyl check: none may be left out
    ("weyl.def", "  pairing: ((k+l)*a+(k-l)*b)/(q^2-1)\n", "",
     "weyl.def: weylclass T1: missing field pairing"),
    # a root exponent is a polynomial in th, i and k: no division by an index
    ("relations.def", "term: [s2*q, 1, th*i*k,", "term: [s2*q, 1, th*k/i,",
     "relations.def: chvalue f8_c_8_2: root exponent (th*k)/i is not a polynomial in th, i, k"),
    # a family's pi is a basis of roots (the first such pi is h2's)
    ("classes.def", "  pi: [[0,1,0,0], [0,0,1,0]]", "  pi: [[0,1,0,0], [0,0,1,5]]",
     "classes.def: classfam h2: pi row (0, 0, 1, 5) is not a root of F4"),
    ("classes.def", "  pi: [[0,1,0,0], [0,0,1,0]]", "  pi: [[0,1,0,0], [0,-1,0,0]]",
     "classes.def: classfam h2: pi row (0, -1, 0, 0) is linearly dependent on the rows "
     "before it"),
    # a value that is no integer, or a division by zero, at n = 1 (the first h2 is the
    # family's, the first equiv [k -> -k] GI_22's)
    ("classes.def", "exclude: ((q^2+1)/3) div i", "exclude: ((q^2)/3) div i",
     "h6: (q^2)/3 at n = 1: 8/3 is not an integer"),
    ("weyl.def", "order: (q^2-1)^2\n", "order: (q^2-1)^2/3\n",
     "T1: (((q^2)-1)^2)/3 at n = 1: 49/3 is not an integer"),
    ("paramsets.def", "action: none\n  card: 1\n", "action: none\n  card: 1/3\n",
     "GI_1: 1/3 at n = 1: 1/3 is not an integer"),
    ("classes.def", "exclude: i = 0\n  count: (q^2-2)/2", "exclude: i = 0\n  count: (q^2-2)/4",
     "h2: ((q^2)-2)/4 at n = 1: 3/2 is not an integer"),
    ("fixrows.def", "sets: [GI_2, GI_3]\n  fix: 2\n", "sets: [GI_2, GI_3]\n  fix: 2/3\n",
     "fixrow R_G_2_3: 2/3 at n = 1, t = 1: 2/3 is not an integer"),
    ("classes.def", "coords: [0, 0, i/(q^2-1),", "coords: [0, 0, i/(th-th),",
     "h2: i/(th-th) at n = 1: division by the zero polynomial"),
    ("classes.def", "i/(q^2-1)]\n  ranges: [q^2-1]\n  exclude: i = 0",
     "i/(q^2-1)]\n  ranges: [(q^2-1)/(th-th)]\n  exclude: i = 0",
     "h2: modulus ((q^2)-1)/(th-th) at n = 1: division by zero in Q(sqrt2)"),
    ("paramsets.def", "equiv: [k -> -k]", "equiv: [k -> k/(th-th)]",
     "GI_22: k/(th-th) at n = 1: division by the zero polynomial"),
    # a division by zero in a pairing, a character value's coefficient, a
    # degree's cyclotomic factors and the coordinates of a family with no index
    ("weyl.def", "pairing: ((k+l)*a+(k-l)*b)/(q^2-1)", "pairing: ((k+l)*a+(k-l)*b)/(th-th)",
     "T1: (((k+l)*a)+((k-l)*b))/(th-th) at n = 1: division by zero in Q(sqrt2)"),
    ("relations.def", "term: [-s2*q^2*(2*q+s2), 1, 0]",
     "term: [-s2*q^2*(2*q+s2)/(th-th), 1, 0]",
     "f8_c_1_11: (((-s2)*(q^2))*((2*q)+s2))/(th-th): division by the zero polynomial"),
    ("relations.def", "  phi: p1*p2*p4^2*p12*p24*p8a\n", "  phi: p1*p2*p4^2*p12*p24*p8a/(th-th)\n",
     "deg_chi42: (((((p1*p2)*(p4^2))*p12)*p24)*p8a)/(th-th): division by the zero polynomial"),
    ("classes.def", "coords: [1/3, 0, 0, th/3]", "coords: [1/3, 0, 0, th/(th-th)]",
     "g5: th/(th-th) at n = 1: division by zero in Q(sqrt2)"),
    # a family with no index has no modulus to compare in
    ("classes.def", "coords: [1/3, 0, 0, th/3]", "coords: [1/3, 0, 0, th/3]\n  exclude: th = 2",
     "g5: atom th = 2 compares modulo an index range, and there is no index"),
    # an affine coefficient with a sqrt2 part, in an exclusion atom, a family's
    # coordinates and a torus chart
    ("classes.def", "exclude: i = 0\n  count: (q^2-2)/2", "exclude: i = q\n  count: (q^2-2)/2",
     "h2: q at n = 1: 2*s2 has a sqrt2 part"),
    ("classes.def", "coords: [0, 0, i/(q^2-1),", "coords: [0, 0, q*i/(q^2-1),",
     "h2: (q*i)/((q^2)-1) at n = 1: 2/7*s2 has a sqrt2 part"),
    ("weyl.def", "tcoords: [a/(q^2-1),", "tcoords: [q*a/(q^2-1),",
     "T1: (q*a)/((q^2)-1) at n = 1: 2/7*s2 has a sqrt2 part"),
    # a degree is a positive integer at n, in a degree relation and a ledger entry
    ("relations.def", "  table: (q-1)*(q+1)*(q^2+1)^2*(q^4-q^2+1)*(q^8-q^4+1)*(q^2+s2*q+1)\n",
     "  table: 0\n", "deg_chi42: 0 at n = 1: degree 0 is not positive"),
    ("relations.def", "  table: (q-1)*(q+1)*(q^2+1)^2*(q^4-q^2+1)*(q^8-q^4+1)*(q^2+s2*q+1)\n",
     "  table: 1/3\n", "deg_chi42: 1/3 at n = 1: 1/3 is not an integer"),
    ("relations.def", "  table: (q-1)*(q+1)*(q^2+1)^2*(q^4-q^2+1)*(q^8-q^4+1)*(q^2+s2*q+1)\n",
     "  table: s2\n", "deg_chi42: s2 at n = 1: 1*s2 has a nonzero sqrt2 part"),
    ("defects.def", "R_G_19_20, (q^13/s2)*p1*p2*p4^2*p12]", "R_G_19_20, q-q]",
     "d_11n_6/GI_19: q-q at n = 1: degree 0 is not positive"),
    ("defects.def", "R_G_19_20, (q^13/s2)*p1*p2*p4^2*p12]", "R_G_19_20, 1-q^2]",
     "d_11n_6/GI_19: 1-(q^2) at n = 1: degree -7 is not positive"),
    ("defects.def", "R_G_19_20, (q^13/s2)*p1*p2*p4^2*p12]", "R_G_19_20, q]",
     "d_11n_6/GI_19: q at n = 1: 2*s2 has a nonzero sqrt2 part"),
    # an order that a check divides by is not 0
    ("classes.def", "  cent: q^24*(q^12+1)*(q^8-1)*(q^6+1)*(q^2-1)\n", "  cent: 0\n",
     "c_1_0: 0 at n = 1: the order is 0"),
    ("classes.def", "  cent: q^24*(q^12+1)*(q^8-1)*(q^6+1)*(q^2-1)\n", "  cent: q-q\n",
     "c_1_0: q-q at n = 1: the order is 0"),
    ("relations.def", "  order: p8b\n", "  order: 0\n", "f8_c_8_2: 0 at n = 1: the order is 0"),
    # a set has at most two indices, and a family one range per index
    ("paramsets.def", "paramset GI_23 {\n  group: G\n  action: doubling\n  moduli: [q^2-1]\n",
     "paramset GI_23 {\n  group: G\n  action: doubling\n  moduli: [q^2-1, 3, 3]\n",
     "paramset GI_23: moduli: 3 moduli, more than 2"),
    ("classes.def", "  ranges: [p8b, p8a]\n", "  ranges: [p8b]\n",
     "classes.def: classfam h12: ranges: 1 for 2 vars"),
] + _SHAPE_ERRORS + _LOAD_ERRORS, ids=[
        "missing", "misspelt", "repeated-field", "repeated-block", "second-frobenius",
        "misspelt-card", "exclude-expression", "card-predicate", "equiv-expression",
        "equiv-symbol", "map-too-few-targets", "map-too-many-targets", "map-other-order",
        "missing-pairing",
        "exponent-not-polynomial", "pi-not-a-root", "pi-dependent",
        "div-modulus-not-integer", "order-not-integer", "card-not-integer",
        "count-not-integer", "fix-not-integer", "coords-by-zero", "range-by-zero",
        "equiv-by-zero", "pairing-by-zero", "coefficient-by-zero", "degree-by-zero",
        "point-coords-by-zero", "point-exclusion-atom", "exclusion-sqrt2-coefficient",
        "coords-sqrt2-coefficient", "tcoords-sqrt2-coefficient", "degree-zero",
        "degree-not-integer", "degree-sqrt2", "entry-degree-zero", "entry-degree-negative",
        "entry-degree-sqrt2", "cent-zero", "cent-zero-polynomial", "order-zero",
        "three-moduli", "fewer-ranges-than-vars"] + _SHAPE_IDS + _LOAD_IDS)
def test_bad_table_fields_exit_two(tmp_path, capsys, fname, old, new, message):
    # serially and in a pool of two workers, one error line and no traceback
    data = _data_copy(tmp_path, fname, old, new)
    for workers in ([], ["--workers", "2"]):
        assert main(["verify", "all", "--n", "1", "--data-dir", data] + workers) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("error:") == 1
        assert "Traceback" not in err


def _in_first_atom(p, wrap):
    if p[0] == "atom":
        return p[:3] + (wrap(p[3]),)
    return (p[0], _in_first_atom(p[1], wrap), p[2])


# Each codec whose values hold expressions -> (value, wrap) -> the value with
# its first expression e replaced by wrap(e) (None: an item that holds none),
# and the codecs that hold none.  A new codec must be sorted into one of the two.
_IN_FIRST_EXPRESSION = {
    "expr": lambda v, wrap: wrap(v),
    "exprs": lambda v, wrap: (wrap(v[0]),) + v[1:],
    "pred": _in_first_atom,
    "maps": lambda v, wrap: ((v[0][0], (wrap(v[0][1][0]),) + v[0][1][1:]),) + v[1:],
    "entry": lambda e, wrap: None if e.degree is None else e._replace(degree=wrap(e.degree)),
    "term": lambda t, wrap: t._replace(coeff=wrap(t.coeff)),
}
_NO_EXPRESSION = {"sym", "syms", "int", "ints", "matrix", "yesno", "sum"}
# the verify kind that reads the expressions of each block kind
_READER = {"paramset": "params", "fixrow": "fixrows", "defect": "dade", "weylclass": "weyl",
           "grouporder": "classes", "classfam": "params", "classrow": "classes",
           "chvalue": "relations", "degrel": "relations"}


def _wrap_first_occurrence(model, bkind, kind, f, wrap):
    """The model with wrap applied in the first shipped occurrence of field f, and its file."""
    def edit(v):
        return _IN_FIRST_EXPRESSION[f.codec](v, wrap)

    for (k, name), fname in model.sources.items():
        if k != bkind:
            continue
        slot = getattr(model, kind.attr)
        obj = slot[name] if isinstance(slot, dict) else slot
        v = getattr(obj, f.attr) if kind.record else obj
        if f.arity == REPEATED:
            new = next(((v[:i] + (x,) + v[i + 1:]) for i, x in enumerate(map(edit, v))
                        if x is not None), None)
        else:
            new = edit(v) if v else None
        if new is None:
            continue
        new_obj = obj._replace(**{f.attr: new}) if kind.record else new
        return model._replace(**{kind.attr: {**slot, name: new_obj}
                                 if isinstance(slot, dict) else new_obj}), fname
    raise AssertionError(f"no shipped {bkind} has an expression in {f.table}")


# wrap, and a text the error shows: an unknown symbol is named, while an
# exponent's error shows its value or the whole expression, as the check has it
@pytest.mark.parametrize("wrap, shown", [
    (lambda e: ("add", e, ("sym", "zz")), "zz"),
    # a power whose exponent is no integer: 1/2, and q (2*s2 at n = 1, a variable
    # where q is free)
    (lambda e: ("pow", e, ("div", ("int", 1), ("int", 2))), ""),
    (lambda e: ("pow", e, ("sym", "q")), ""),
], ids=["unknown-symbol", "half-exponent", "q-exponent"])
def test_every_expression_field_with_a_bad_token_exits_two(tmp_path, capsys, wrap, shown):
    # driven by the schema: a new expression field is covered when it is added
    from dadecheck.tabledsl import _CODECS, _SCHEMA, serialize_model

    assert set(_CODECS) == set(_IN_FIRST_EXPRESSION) | _NO_EXPRESSION
    model = dadecheck.load_model()
    fields = [(bkind, kind, f) for bkind, kind in _SCHEMA.items() for f in kind.fields
              if f.codec in _IN_FIRST_EXPRESSION]
    assert len(fields) >= 24  # 24 in the schema as written
    for bkind, kind, f in fields:
        bad, fname = _wrap_first_occurrence(model, bkind, kind, f, wrap)
        case = tmp_path / f"{bkind}_{f.table}"
        case.mkdir()
        data = _data_copy(case, fname, "", "")
        text = serialize_model(bad._replace(sources={key: src for key, src in bad.sources.items()
                                                     if src == fname}))
        (case / "data" / fname).write_text(text)
        status = main(["verify", _READER[bkind], "--n", "1", "--data-dir", data,
                       "--report", os.devnull])
        err = capsys.readouterr().err
        assert status == 2, (bkind, f.table, err)
        assert err.startswith("error: ") and err.count("error:") == 1, (bkind, f.table, err)
        assert shown in err and "Traceback" not in err, (bkind, f.table, err)


def test_set_exclusion_off_the_union_kernel(tmp_path, capsys, monkeypatch):
    # k != 0 and k != 1 and k != -1 is no union of lines and points: GI_23's
    # classes are counted by inclusion-exclusion, 2 against the table's 3 and
    # 15, and its doubling is found to leave the class set
    from dadecheck import counting

    old = _GI_23 + "  exclude: k = 0\n"
    data = _data_copy(tmp_path, "paramsets.def", old,
                      old.replace("k = 0", "k != 0 and k != 1 and k != -1"))
    calls = []
    real = counting._count_in
    monkeypatch.setattr(counting, "_count_in", lambda *a: calls.append(a) or real(*a))
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "1", "--n", "2", "--data-dir", data,
                 "--report", str(report)]) == 1
    assert [(r["n"], r["expected"], r["actual"], r["status"])
            for r in json.loads(report.read_text()) if r["name"] == "GI_23"] == [
        (1, "3", "2", "fail"), (2, "15", "2", "fail")]
    assert calls
    capsys.readouterr()
    assert main(["verify", "fixrows", "--n", "1", "--data-dir", data,
                 "--report", os.devnull]) == 2
    assert capsys.readouterr().err == "error: GI_23: doubling leaves the class set\n"


# One numeric field of the shipped tables each: the text around it, the same
# text with {v} for the field, and the verify kinds that read the field.
_GI_23 = "paramset GI_23 {\n  group: G\n  action: doubling\n  moduli: [q^2-1]\n"
_H2 = "  coords: [0, 0, i/(q^2-1), (2*th-1)*i/(q^2-1)]\n  ranges: [q^2-1]\n"
_SWEPT_FIELDS = [
    ("paramsets.def", "  equiv: [k -> -k]\n  card: (q^2-2)/2\n}",
     "  equiv: [k -> -k]\n  card: {v}\n}", ("params", "dade")),
    ("paramsets.def", _GI_23, _GI_23.replace("[q^2-1]", "[{v}]"), ("params",)),
    ("fixrows.def", "sets: [GI_2, GI_3]\n  fix: 2\n", "sets: [GI_2, GI_3]\n  fix: {v}\n",
     ("fixrows", "dade")),
    ("defects.def", "  value: 11*n+6\n", "  value: {v}\n", ("dade",)),
    ("defects.def", "R_G_19_20, (q^13/s2)*p1*p2*p4^2*p12]", "R_G_19_20, {v}]", ("dade",)),
    ("weyl.def", "  order: (q^2-1)^2\n", "  order: {v}\n", ("weyl",)),
    ("weyl.def", "  tranges: [q^2-1, q^2-1]\n", "  tranges: [{v}, q^2-1]\n", ("weyl",)),
    ("weyl.def", "  sranges: [q^2-1, q^2-1]\n", "  sranges: [q^2-1, {v}]\n", ("weyl",)),
    ("classes.def", "exclude: i = 0\n  count: (q^2-2)/2", "exclude: i = 0\n  count: {v}",
     ("params", "classes")),
    ("classes.def", _H2, _H2.replace("[q^2-1]", "[{v}]"), ("params",)),
    ("classes.def", _H2, _H2.replace("[0, 0, i/(q^2-1),", "[0, 0, {v},"), ("params",)),
    ("classes.def", "  cent: q^24*(q^12+1)*(q^8-1)*(q^6+1)*(q^2-1)\n", "  cent: {v}\n",
     ("classes", "relations")),
    ("classes.def", "  order: q^24*(q^12+1)*(q^8-1)*(q^6+1)*(q^2-1)\n", "  order: {v}\n",
     ("classes",)),
    ("relations.def", "  order: p8b\n", "  order: {v}\n", ("relations",)),
    ("relations.def", "  table: (q-1)*(q+1)*(q^2+1)^2*(q^4-q^2+1)*(q^8-q^4+1)*(q^2+s2*q+1)\n",
     "  table: {v}\n", ("relations",)),
    ("relations.def", "  phi: p1*p2*p4^2*p12*p24*p8a\n", "  phi: {v}\n", ("relations",)),
    ("relations.def", "  defect: 24*n+12\n  odd: yes\n", "  defect: {v}\n  odd: yes\n",
     ("relations",)),
]


def test_numeric_field_mutants_end_in_an_exit_status(tmp_path, capsys):
    # each field set to 0, 1/3 or s2: every run ends in 0, 1 or 2 and no
    # exception escapes; an exit 2 prints one error line and no traceback
    runs = 0
    for i, (fname, old, new, kinds) in enumerate(_SWEPT_FIELDS):
        for j, v in enumerate(("0", "1/3", "s2")):
            case = tmp_path / f"{i}_{j}"
            case.mkdir()
            data = _data_copy(case, fname, old, new.replace("{v}", v))
            for kind in kinds:
                status = main(["verify", kind, "--n", "1", "--data-dir", data,
                               "--report", os.devnull])
                err = capsys.readouterr().err
                assert status in (0, 1, 2), (fname, new, v, kind)
                if status == 2:
                    assert err.count("error:") == 1 and "Traceback" not in err, err
                runs += 1
    assert runs == 3 * 21
