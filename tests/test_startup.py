"""What a fresh dadecheck process loads and starts, each case in its own interpreter."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import dadecheck

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dadecheck.__file__)))


# one run of each check kind, the class count and listing of one set, and a pooled run
RUNS = [
    ["verify", "dade", "--mode", "both", "--n", "1"],
    ["verify", "fixrows", "--n", "1"],
    ["verify", "lemmas", "--n", "1"],
    ["verify", "classes", "--n", "1"],
    ["verify", "relations", "--n", "1"],
    ["params", "--set", "PaI_4", "--n", "1"],
    ["verify", "weyl", "--n", "1"],
    ["verify", "params", "--n", "1"],
    ["verify", "all", "--n", "1", "--workers", "2"],
    ["params", "--set", "PaI_4", "--n", "1", "--list"],
]
RUN_IDS = ["dade", "fixrows", "lemmas", "classes", "relations", "params-count", "weyl", "params",
           "all-pool", "params-list"]


def _run(code):
    """Standard output of python -c code, with src importable."""
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_package_loads_no_numpy():
    assert _run("import sys, dadecheck; dadecheck.load_model(); "
                "print('numpy' in sys.modules)") == ["False"]


def test_model_load_imports_no_dataclasses():
    # dataclasses would bring inspect, ast, dis, tokenize, linecache and copy
    assert _run("import sys, dadecheck; dadecheck.load_model(); "
                "print('dataclasses' in sys.modules, 'inspect' in sys.modules)") == [
        "False", "False"]


@pytest.mark.parametrize("argv", RUNS, ids=RUN_IDS)
def test_runs_import_no_dataclasses(argv):
    code = ("import sys; from dadecheck.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, 'dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert _run(code)[-3:] == ["0", "False", "False"]


def test_import_rootdatum_loads_no_numpy():
    assert _run("import sys, dadecheck.rootdatum; "
                "print('numpy' in sys.modules)") == ["False"]


def test_import_cli_loads_no_pool():
    assert _run("import sys, dadecheck.cli; "
                "print('concurrent.futures.process' in sys.modules, "
                "'multiprocessing' in sys.modules)") == ["False", "False"]


@pytest.mark.parametrize("argv", RUNS, ids=RUN_IDS)
def test_check_kinds_without_arrays_load_no_numpy(argv):
    # no check kind, and no listing, needs numpy
    code = ("import sys; from dadecheck.cli import main; "
            f"rc = main({argv!r}); print(rc, 'numpy' in sys.modules)")
    assert _run(code)[-2:] == ["0", "False"]


def test_pool_workers_inherit_the_model(tmp_path):
    # the tables are parsed once, in the parent, before the pool forks
    log = tmp_path / "parses"
    code = ("import os, sys, dadecheck; from dadecheck.cli import main; "
            "real = dadecheck.parse_model_files\n"
            "def parse(texts):\n"
            f"    open({str(log)!r}, 'a').write(str(os.getpid()) + '\\n')\n"
            "    return real(texts)\n"
            "dadecheck.parse_model_files = parse\n"
            "rc = main(['verify', 'all', '--n', '1', '--workers', '2'])\n"
            "print(rc, os.getpid())")
    rc, pid = _run(code)[-2:]
    assert rc == "0" and log.read_text().split() == [pid]


@pytest.mark.parametrize("kind", ["weyl", "params"])
def test_verify_imports_no_numpy_ma(kind):
    code = ("import sys; from dadecheck.cli import main; "
            f"rc = main(['verify', '{kind}', '--n', '1']); "
            "print(rc, 'numpy.ma' in sys.modules)")
    assert _run(code)[-2:] == ["0", "False"]


def test_no_module_imports_numpy():
    # read from the source, so an import that no test reaches shows too
    import ast
    import pathlib

    found = []
    for path in sorted(pathlib.Path(dadecheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [(path.name, name) for name in names if name.split(".")[0] == "numpy"]
    assert found == []


def test_pool_run_matches_golden_digest(tmp_path):
    # the digest of verify all --n 1 pinned in test_cli.py
    report = tmp_path / "r.json"
    code = ("import sys; from dadecheck.cli import main; "
            f"sys.exit(main(['verify', 'all', '--n', '1', '--workers', '2', "
            f"'--report', {str(report)!r}]))")
    _run(code)
    zeroed = [dict(r, millis=0) for r in json.loads(report.read_text())]
    text = json.dumps(zeroed, indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9a8550457d0301cf6ee65a8a47ad969459da9bfb91c95b26081e1c61148043d8")


def test_model_records_are_immutable_tuples(model):
    # the records are NamedTuples, which a module body defines at little cost
    from dadecheck import tabledsl

    def one(records):
        return next(iter(records.values()))

    led, cv = one(model.ledgers), one(model.chvalues)
    instances = [one(model.paramsets), one(model.fixrows), led.entries[0], led,
                 one(model.weylclasses), one(model.classfams), one(model.classrows),
                 cv.terms[0], cv, one(model.relations), one(model.degrels), one(model.pairs)]
    names = ["ParamSetSpec", "FixRow", "LedgerEntry", "DefectLedger", "WeylClass", "ClassFam",
             "ClassRow", "ValueTerm", "ChValue", "Relation", "DegRel", "Pair"]
    for name, rec in zip(names, instances):
        cls = getattr(tabledsl, name)
        assert issubclass(cls, tuple) and type(rec) is cls, name
        assert hash(rec) == hash(cls(*rec)), name
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], None)
    kinds = {kind.record for kind in tabledsl._SCHEMA.values() if kind.record is not None}
    assert kinds <= {getattr(tabledsl, name) for name in names}
