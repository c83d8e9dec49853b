"""The one record type every check returns, and its JSON form."""

from __future__ import annotations

import time
from typing import Optional

SCHEMA = 1


class Record:
    """One check instance: it passes when expected == actual.

    n is None for a check that does not depend on n, and reason is set when
    the check was skipped, saying why.  t (a divisor of 2n+1), d (a defect)
    and u (a stabilizer order) locate the instance further where it has them.
    stamp is the time.perf_counter reading when the record was made; it
    times the record and is neither compared nor written out.
    """

    __slots__ = ("check", "name", "n", "expected", "actual", "reason", "t", "d", "u", "stamp")
    __hash__ = None  # records compare by value and may hold lists

    def __init__(self, check: str, name: str, n: Optional[int], expected: object,
                 actual: object, reason: Optional[str] = None, *, t: Optional[int] = None,
                 d: Optional[int] = None, u: Optional[int] = None,
                 stamp: Optional[float] = None):
        self.check = check
        self.name = name
        self.n = n
        self.expected = expected
        self.actual = actual
        self.reason = reason
        self.t = t
        self.d = d
        self.u = u
        self.stamp = time.perf_counter() if stamp is None else stamp

    def _key(self) -> tuple:
        return (self.check, self.name, self.n, self.expected, self.actual, self.reason,
                self.t, self.d, self.u)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"Record({fields})"

    @property
    def ok(self) -> bool:
        return self.reason is None and self.expected == self.actual

    def as_json(self, millis: float) -> dict:
        rec = {
            "schema": SCHEMA,
            "check": self.check,
            "name": str(self.name),
            "n": self.n,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "status": "skip" if self.reason is not None else "pass" if self.ok else "fail",
        }
        if self.reason is not None:
            rec["reason"] = self.reason
        rec["millis"] = round(millis, 3)
        for index in ("t", "d", "u"):
            if getattr(self, index) is not None:
                rec[index] = getattr(self, index)
        return rec
