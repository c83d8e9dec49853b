"""The one record type every check returns, and its JSON form."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

SCHEMA = 1


@dataclass
class Record:
    """One check instance: it passes when expected == actual.

    n is None for a check that does not depend on n, and reason is set when
    the check was skipped, saying why.  t (a divisor of 2n+1), d (a defect)
    and u (a stabilizer order) locate the instance further where it has them.
    stamp is the time.perf_counter reading when the record was made; it
    times the record and is neither compared nor written out.
    """

    check: str
    name: str
    n: Optional[int]
    expected: object
    actual: object
    reason: Optional[str] = None
    t: Optional[int] = field(default=None, kw_only=True)
    d: Optional[int] = field(default=None, kw_only=True)
    u: Optional[int] = field(default=None, kw_only=True)
    stamp: float = field(default_factory=time.perf_counter, kw_only=True, compare=False,
                         repr=False)

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
