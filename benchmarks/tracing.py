"""Span recorder for the traced benchmark run.

Every public function of the dadecheck modules is wrapped from outside the
program: in the module that defines it and at every binding another module
made with ``from ... import``.  Nothing under ``src/`` is edited.  Spans are
aggregated in memory per name (calls, total time, self time), and the
coarse ones (``cli.run_task``, ``dadecheck.load_model``) are also kept
whole with their start and end, so the benchmark can lay tasks out on a
time line.  Self time is a span's duration minus the time its child spans
cover; children of one span run one after another, so that is the sum of
their durations.

Pool workers are forked, so the wrappers come with them.  A fork hook resets
the copied state in the child, and a worker writes its spans out each time a
top-level span (one ``run_task``) closes, because a pool worker ends without
running ``atexit`` handlers.  The main process writes at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from typing import Callable, Dict, List, Optional

# Functions counted together under one metric name.
GROUPS = {
    "tabledsl.eval_expr": "tabledsl.eval",
    "tabledsl.eval_expr_int": "tabledsl.eval",
    "tabledsl.eval_int": "tabledsl.eval",
    "tabledsl.eval_qpoly": "tabledsl.eval",
}

# Spans kept whole, with their start and end, for the task time line.
WHOLE = ("cli.run_task", "dadecheck.load_model")

MODULES = ("dadecheck", "tabledsl", "exactnum", "paramsets", "autfix",
           "dadeverify", "rootdatum", "chartables", "cli")


class Recorder:
    """Nested spans of one process, aggregated per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.spans: List[list] = []  # [name, start, end, attrs] of WHOLE spans
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []  # [name, start, child_s]

    def top(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, attrs: Optional[dict] = None) -> None:
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name in WHOLE:
            self.spans.append([name, start, end, attrs or {}])

    def depth(self) -> int:
        return len(self._stack)

    def reset(self) -> None:
        self.stats, self.spans, self.counters, self._stack = {}, [], {}, []

    def dump(self) -> dict:
        return {"pid": os.getpid(), "stats": self.stats, "spans": self.spans,
                "counters": self.counters}


def _observe(rec: Recorder, name: str, args, result) -> Optional[dict]:
    """Counts taken from a call's arguments and result, at the layer boundary."""
    if name == "paramsets.admissible_arrays":
        rec.count("paramsets.tuples", len(result[1][0]))
    elif name == "paramsets.family_elements":
        rec.count("paramsets.tuples", len(result[1]))
    elif name == "cli.run_task":
        kind, n, cfg = args[0]
        return {"kind": kind, "n": cfg["max_n"] if n is None else n,
                "records": len(result)}
    return None


def _wrap(rec: Recorder, fn, name: str, binding: str, on_close, budget_error):
    via = "via." + binding

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(via)
        if rec.top() == name:  # a recursive call stays inside its caller's span
            return fn(*args, **kwargs)
        rec.enter(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            attrs = _observe(rec, name, args, result)
            return result
        except budget_error as e:
            if not getattr(e, "_bench_seen", False):  # count it where it first escapes
                e._bench_seen = True
                rec.count("paramsets.budget_skips")
            raise
        finally:
            rec.exit(attrs)
            if not rec.depth():
                on_close()
    return wrapper


def install(spans_dir: str) -> Recorder:
    """Wrap every public dadecheck function; spans go to ``spans_dir/<pid>.json``."""
    rec = Recorder()
    mods = {m: importlib.import_module("dadecheck" if m == "dadecheck" else "dadecheck." + m)
            for m in MODULES}
    main_pid = os.getpid()
    budget_error = mods["paramsets"].BudgetExceeded

    def on_close():
        if os.getpid() != main_pid:
            write(rec, spans_dir)

    # original function -> metric name, for functions defined in these modules
    names = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                full = f"{short}.{attr}"
                names[obj] = GROUPS.get(full, full)
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in names:
                binding = f"{short}.{attr}"
                setattr(mod, attr, _wrap(rec, obj, names[obj], binding, on_close,
                                         budget_error))
    qpoly = mods["exactnum"].QPoly
    qpoly.eval = _wrap(rec, qpoly.eval, "exactnum.QPoly.eval", "exactnum.QPoly.eval",
                       on_close, budget_error)

    os.register_at_fork(after_in_child=rec.reset)
    return rec


def write(rec: Recorder, spans_dir: str) -> None:
    path = os.path.join(spans_dir, f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh)


def load_dumps(spans_dir: str) -> List[dict]:
    out = []
    for fname in sorted(os.listdir(spans_dir)):
        if fname.endswith(".json"):
            with open(os.path.join(spans_dir, fname), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def merge(dumps: List[dict]) -> dict:
    """Sum the per-process stats and counters; concatenate the whole spans."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    spans: List[list] = []
    for d in dumps:
        for name, (calls, total, self_s) in d["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
        spans.extend(d["spans"])
    return {"stats": stats, "counters": counters, "spans": spans}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end] intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
