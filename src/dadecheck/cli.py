"""Command-line driver.

    dadecheck verify {dade|lemmas|fixrows|weyl|classes|relations|all} [options]
    dadecheck params --n N --set ID [--list]
    dadecheck report FILE

Options shared by the verify subcommands: --n (repeatable), --max-n, --mode
{formula,bruteforce,both}, --workers, --data-dir, --report PATH, --config
FILE ("key = value" lines, keys mode, data_dir, report, workers, max_n and n,
overridden by flags).  The data directory
defaults to the packaged tables, or $DADE_DATA_DIR.

--workers K spreads a verify run's tasks (one per check kind and n, and one
per kind for its n-free checks) over min(K, tasks) processes forked from the
driver after it has parsed the tables (and built W, where the kinds read it);
where os.fork does not exist, the run is serial.  A worker that ends without
sending its results ends the run with exit status 2.

Every check instance becomes one JSON record
    {"schema": 1, "check": ..., "name": ..., "n": ..., "expected": ...,
     "actual": ..., "status": "pass"|"fail"|"skip", "millis": ...}
where a skipped record also carries its "reason", and the process exits 0
only if no record failed (2 on usage/parse errors).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import marshal
import os
import sys
import time
from typing import Dict, List, Optional

from . import counting, load_model
from .record import Record
from .tabledsl import DanglingReference, TableSyntaxError, TableValueError, WeylDataError

# ---- check runners -----------------------------------------------------------

_MODEL = None
_DATA_DIR = None


def _model():
    global _MODEL
    if _MODEL is None:
        _MODEL = load_model(_DATA_DIR)
    return _MODEL


# kind -> (module, [(n_free, checker)]).  The module is imported when the kind
# first runs, so a run loads only what its kinds need.  The n-free checkers
# of a kind run once per run, in its task with n None; the others run in its
# task at every n.  A checker is called as
# checker(module, model, n, cfg) and reaches its function through the module
# attribute at call time, so a patched or wrapped function is the one that runs.
REGISTRY = {
    "lemmas": ("autfix", [(True, lambda mod, m, n, c: mod.verify_gcd_lemmas(c["max_n"]))]),
    "params": ("paramsets", [
        (True, lambda mod, m, n, c: mod.trusted_input_flags(m)),
        (False, lambda mod, m, n, c: mod.cardinality_check(m, n)),
        (False, lambda mod, m, n, c: mod.semisimple_sum_checks(m, n)),
    ]),
    "fixrows": ("autfix", [
        (False, lambda mod, m, n, c: mod.verify_fixrows(m, n)),
        (False, lambda mod, m, n, c: mod.verify_mobius_layer(m, n)),
    ]),
    "dade": ("dadeverify", [
        (False, lambda mod, m, n, c: mod.verify_dade(m, n, c["mode"])),
        (False, lambda mod, m, n, c: mod.verify_dade_exact_level(m, n)),
        (False, lambda mod, m, n, c: mod.ledger_consistency(m, n)),
    ]),
    "weyl": ("rootdatum", [
        (True, lambda mod, m, n, c: mod.weyl_table_checks(m)),
        (True, lambda mod, m, n, c: mod.subsystem_checks(m)),
        (False, lambda mod, m, n, c: mod.torus_order_checks(m, n)),
        (False, lambda mod, m, n, c: mod.torus_param_checks(m, n)),
        (False, lambda mod, m, n, c: mod.dual_torus_check(m, n)),
        (False, lambda mod, m, n, c: mod.pairing_checks(m, n)),
    ]),
    "classes": ("chartables", [(False, lambda mod, m, n, c: mod.class_equation(m, n))]),
    "relations": ("chartables", [
        (True, lambda mod, m, n, c: mod.f_relations_check(m)),
        (True, lambda mod, m, n, c: mod.degree_polynomials(m)),
        (False, lambda mod, m, n, c: mod.f_relations_numeric(m, n)),
        (False, lambda mod, m, n, c: mod.exponent_integrality(m, n)),
        (False, lambda mod, m, n, c: mod.f_norm_check(m, n, "f8")),
        (False, lambda mod, m, n, c: mod.f_norm_check(m, n, "f10")),
        (False, lambda mod, m, n, c: mod.degree_identity_check(m, n)),
    ]),
}
ALL_CHECKS = tuple(REGISTRY)


def _module(kind):
    """The module of a check kind's checkers, imported on first use."""
    return importlib.import_module("." + REGISTRY[kind][0], __package__)


def run_task(task) -> List[dict]:
    """JSON records of one task: a kind's n-free checks (n None) or its checks at n.

    Each record's millis is the time from the making of the previous record
    of the task (or its start) to its own, read from the records' stamps, so
    a checker that returns a finished list still times each record; a record
    made before the one ahead of it counts 0.
    """
    kind, n, cfg = task
    model = _model()
    mod = _module(kind)
    out: List[dict] = []
    last = time.perf_counter()
    for n_free, checker in REGISTRY[kind][1]:
        if n_free != (n is None):
            continue
        for r in checker(mod, model, n, cfg):
            out.append(r.as_json(1000.0 * max(0.0, r.stamp - last)))
            last = max(last, r.stamp)
    return out


# ---- argument handling ---------------------------------------------------------


def _read_config(path) -> Dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dadecheck", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", action="append", type=int, default=None,
                        help="instance size n (repeatable); q^2 = 2^(2n+1)")
        sp.add_argument("--max-n", type=int, default=None,
                        help="run every n from 1 to this bound")
        sp.add_argument("--mode", choices=_MODES, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--data-dir", default=None)
        sp.add_argument("--report", default=None, help="write the JSON report here")
        sp.add_argument("--config", default=None, help="key = value defaults file")

    pv = sub.add_parser("verify", help="run a checker suite")
    pv.add_argument("what", choices=ALL_CHECKS + ("all",))
    common(pv)

    pp = sub.add_parser("params", help="count the classes of one parameter set")
    pp.add_argument("--set", required=True, dest="set_id")
    pp.add_argument("--list", action="store_true", help="print class representatives")
    common(pp)

    pr = sub.add_parser("report", help="summarize a previously written report")
    pr.add_argument("file")
    return p


_DEFAULTS = {"mode": "formula", "workers": 1}
_MODES = ("formula", "bruteforce", "both")
# config file key -> (option, parser of its value)
_CONFIG_KEYS = {"mode": ("mode", str), "data_dir": ("data_dir", str), "report": ("report", str),
                "workers": ("workers", int), "max_n": ("max_n", int),
                "n": ("n_list", lambda v: [int(x) for x in v.split(",")])}


def _resolve_options(args) -> Dict[str, object]:
    cfg = dict(_DEFAULTS)
    if args.config:
        for key, val in _read_config(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            option, parse = _CONFIG_KEYS[key]
            cfg[option] = parse(val)
    for key in ("mode", "workers", "report"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "data_dir", None) is not None:
        cfg["data_dir"] = args.data_dir
    if getattr(args, "max_n", None) is not None:
        cfg["max_n"] = args.max_n
        cfg["n_list"] = list(range(1, args.max_n + 1))
    if getattr(args, "n", None):
        cfg["n_list"] = list(args.n)
    cfg.setdefault("n_list", [1])
    for key, values in (("max_n", [cfg.get("max_n", 1)]), ("n", cfg["n_list"]),
                        ("workers", [cfg["workers"]])):
        for v in values:
            if v < 1:
                raise ValueError(f"{key} must be >= 1, not {v}")
    cfg.setdefault("max_n", max(cfg["n_list"]))
    cfg.setdefault("data_dir", None)
    cfg.setdefault("report", None)
    if cfg["mode"] not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(_MODES)}, not {cfg['mode']!r}")
    return cfg


# One record's fields, a line each, at the depth json.dumps(..., indent=1) puts them.
_RECORD_ENCODER = json.JSONEncoder(separators=(",\n  ", ": "))


def _report_text(records: List[dict]) -> str:
    """The report file: json.dumps(records, indent=1) and a newline, by the C encoder.

    The indenting encoder is pure Python.  Every value of a record is a
    scalar (Record.as_json), so each record is one flat object, which the
    C encoder writes with the separators of that layout.
    """
    if not records:
        return "[]\n"
    return "[\n" + ",\n".join(" {\n  " + _RECORD_ENCODER.encode(r)[1:-1] + "\n }"
                              for r in records) + "\n]\n"


def _emit(records: List[dict], cfg) -> int:
    records.sort(key=lambda r: (r["check"], str(r.get("n")), r["name"],
                                str(r.get("t", "")), str(r.get("u", ""))))
    # every check instance is run by exactly one task
    seen = set()
    for r in records:
        key = (r["check"], r["name"], r["n"], r.get("t"), r.get("d"), r.get("u"))
        if key in seen:
            raise ValueError(f"two records of one check instance {key}")
        seen.add(key)
    if cfg.get("report"):
        with open(cfg["report"], "w", encoding="utf-8") as fh:
            fh.write(_report_text(records))
    failures = [r for r in records if r["status"] == "fail"]
    skips = sum(1 for r in records if r["status"] == "skip")
    passes = len(records) - len(failures) - skips
    for r in failures[:40]:
        print(f"FAIL {r['check']} {r['name']} n={r.get('n')} "
              f"expected {r['expected']} got {r['actual']}", file=sys.stderr)
    print(f"{passes} passed, {len(failures)} failed, {skips} skipped of {len(records)} checks")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # a record writes its values with repr, and |G| has over 4300 digits from n = 275
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args.file)
        cfg = _resolve_options(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    global _DATA_DIR, _MODEL
    _DATA_DIR = cfg["data_dir"]
    _MODEL = None
    try:
        if args.command == "params":
            return _cmd_params(args, cfg)
        return _cmd_verify(args, cfg)
    except (TableSyntaxError, TableValueError, DanglingReference, counting.MapClosureError,
            counting.NonIntegralModulus, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WeylDataError as e:
        print(f"error: Weyl generator data or twist (weylgen, frobenius in weyl.def): {e}",
              file=sys.stderr)
        return 2


def _cmd_params(args, cfg) -> int:
    model = _model()
    if args.set_id not in model.paramsets:
        print(f"error: unknown set {args.set_id}", file=sys.stderr)
        return 2
    spec = model.paramsets[args.set_id]
    if not counting.has_index_structure(spec):
        print(f"error: {spec.id} has no index structure", file=sys.stderr)
        return 2
    records = []
    for n in cfg["n_list"]:
        t0 = time.perf_counter()
        count = counting.class_count(spec, n)
        millis = 1000.0 * (time.perf_counter() - t0)
        expected = counting.formula_count(spec, n)
        records.append(Record("cardinality", spec.id, n, expected, count).as_json(millis))
        if args.list:
            from . import paramsets

            try:
                reps = paramsets.class_representatives(spec, n)
            except paramsets.BudgetExceeded as e:
                print(f"error: cannot list the classes of {spec.id} at n = {n}: {e}",
                      file=sys.stderr)
                return 2
            for rep in reps:
                print(" ".join(str(x) for x in rep))
    return _emit(records, cfg)


def _cmd_verify(args, cfg) -> int:
    kinds = ALL_CHECKS if args.what == "all" else (args.what,)
    opts = {"max_n": cfg["max_n"], "mode": cfg["mode"]}
    tasks = []
    for kind in kinds:
        _module(kind)  # imported once here, before any worker is forked: the workers inherit it
        n_free = {free for free, _ in REGISTRY[kind][1]}
        if True in n_free:
            tasks.append((kind, None, opts))
        if False in n_free:
            tasks.extend((kind, n, opts) for n in cfg["n_list"])
    workers = min(cfg["workers"], len(tasks))
    records: List[dict] = []
    if workers > 1 and hasattr(os, "fork"):
        model = _model()  # parsed once, here: the forked workers inherit it
        if {"weyl", "params"} & set(kinds):
            # W too, once rather than in each worker that reads it; bad Weyl
            # data raise in the first task that reads W, as in a serial run
            try:
                _module("weyl").weyl_group(model)
            except WeylDataError:
                pass
        for batch in _run_forked(tasks, workers):
            records.extend(batch)
    else:
        for task in tasks:
            records.extend(run_task(task))
    return _emit(records, cfg)


# ---- the forked workers ----------------------------------------------------------

# A task index crosses the task pipe as 4 bytes, written at most 512 bytes at a
# time: POSIX makes a pipe write of up to PIPE_BUF (at least 512) bytes atomic,
# so the pipe holds whole indices only and each 4-byte read takes one.
_INDEX_BYTES = 4
_WRITE_BYTES = 512


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker: its cause in the driver."""


def _run_forked(tasks, workers) -> List[List[dict]]:
    """The records of each task, in task order, run by `workers` forked processes.

    The workers take task indices from one shared pipe, the next as they finish
    the last, until it runs dry; each sends its results back by marshal on a
    pipe of its own and ends with os._exit.  Every worker is reaped before this
    returns or raises.  The first task in task order that raised raises here,
    as in a serial run; a worker that ended without sending its results raises
    ChildProcessError.
    """
    task_r, task_w = os.pipe()
    readers: Dict[int, int] = {}  # pid of each worker -> the read end of its result pipe
    # Frozen, the objects the workers inherit are never scanned by a collection
    # in a worker, which would write to each and so copy every page it shares.
    gc.freeze()
    try:
        try:
            for _ in range(workers):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        for fd in (task_w, r, *readers.values()):
                            os.close(fd)
                        _work(tasks, task_r, w)
                except OSError:
                    os.close(r)
                    raise
                finally:
                    os.close(w)
                readers[pid] = r
        finally:
            gc.unfreeze()
            # the parent holds no read end, so a write after every worker ended fails
            os.close(task_r)
        order = b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(tasks)))
        try:
            for at in range(0, len(order), _WRITE_BYTES):
                os.write(task_w, order[at:at + _WRITE_BYTES])
        except BrokenPipeError:
            pass  # every worker has ended; what each sent shows below
    finally:
        os.close(task_w)
        sent = []
        for pid, r in readers.items():
            with open(r, "rb") as fh:
                data = fh.read()
            sent.append((pid, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    done = {}
    for pid, data, code in sent:
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited {code}"
            raise ChildProcessError(f"worker process {pid} {how} before sending its results")
        done.update(marshal.loads(data))
    out = []
    for i in range(len(tasks)):
        if isinstance(done[i], tuple):
            import pickle  # only a failed run reads an exception

            error, trace = done[i]
            raise pickle.loads(error) from WorkerTraceback(trace)
        out.append(done[i])
    return out


def _work(tasks, task_r, result_w) -> None:
    """A forked worker: run the tasks whose indices it reads, send the results, exit.

    It sends {index: records} by marshal, or for the task that raised,
    {index: (pickled exception, traceback text)}; after that task it only
    drains the indices, so the driver's writes finish.  It exits 0 only
    once its results are sent, and never returns.
    """
    status = 1
    try:
        done = {}
        failed = False
        while True:
            got = os.read(task_r, _INDEX_BYTES)
            if not got:
                break
            if failed:
                continue
            i = int.from_bytes(got, "little")
            try:
                done[i] = run_task(tasks[i])  # the module global: a wrapped run_task runs
            except Exception as e:
                import pickle
                import traceback

                done[i] = (pickle.dumps(e), "".join(traceback.format_exception(e)))
                failed = True
        with open(result_w, "wb") as fh:
            marshal.dump(done, fh)
        status = 0
    finally:
        os._exit(status)


def _check_report(path, records) -> None:
    """A ValueError naming the first record the summary cannot read, if there is one."""
    if not isinstance(records, list):
        raise ValueError(f"{path}: a report is a JSON list of records, "
                         f"not a {type(records).__name__}")
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise ValueError(f"{path}: record {i} is a {type(r).__name__}, not an object")
        where = f"{path}: record {i} ({r.get('check')} {r.get('name')})"
        for key in ("check", "status", "millis"):
            if key not in r:
                raise ValueError(f"{where} has no {key}")
        if not isinstance(r["check"], str) or r["status"] not in ("pass", "fail", "skip") \
                or not isinstance(r["millis"], (int, float)):
            raise ValueError(f"{where} has a bad check, status or millis")


def _cmd_report(path) -> int:
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    _check_report(path, records)
    by_check: Dict[str, List[dict]] = {}
    for r in records:
        by_check.setdefault(r["check"], []).append(r)
    failures = 0
    for check in sorted(by_check):
        recs = by_check[check]
        counts = {s: sum(1 for r in recs if r["status"] == s) for s in ("pass", "fail", "skip")}
        millis = sum(r["millis"] for r in recs)
        failures += counts["fail"]
        print(f"{check:28s} {counts['pass']:6d} passed {counts['fail']:4d} failed "
              f"{counts['skip']:4d} skipped {millis:12.3f} ms")
    print(f"total: {len(records)} records, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
