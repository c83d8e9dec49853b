"""Floating-point reference for the norms (f, f) of the exceptional class functions.

Independent of chartables: every value is evaluated at one (n, i, k) in
complex floats, with eps4 the imaginary unit and zeta = exp(2 pi i / m), and
|value|^2 / |C| is summed over the class rows, on an indexed row over one
representative i of each orbit {+-i, +-q^2 i} of nonzero indices.  Only the
table evaluator (int_value, value) and the family count are shared.
Good to about 1e-9 for n <= 2.
"""

import cmath
import math

from dadecheck.counting import family_formula_count
from dadecheck.exactnum import as_integer
from dadecheck.tabledsl import int_value
from dadecheck.tabledsl import value as table_value


def to_float(x) -> float:
    """a + b*sqrt2 as a float."""
    return float(x.a) + float(x.b) * math.sqrt(2)


def value(cv, n: int, i: int = 0, k: int = 0) -> complex:
    if cv is None or not cv.terms:
        return 0j
    ik = {"i": i, "k": k}
    order = int_value(cv.order, n) if cv.order is not None else 1
    total = 0j
    for term in cv.terms:
        roots = sum(cmath.exp(2j * cmath.pi * (as_integer(table_value(e, n, ik)) % order) / order)
                    for e in term.exps)
        total += to_float(table_value(term.coeff, n, ik)) * (1j ** (term.eps4 % 4)) * roots
    return total


def orbit_reps(order: int, q2: int):
    """One representative of each orbit {+-i, +-q^2 i} on the nonzero residues."""
    seen = set()
    reps = []
    for i in range(1, order):
        if i not in seen:
            seen |= {i, -i % order, q2 * i % order, -q2 * i % order}
            reps.append(i)
    return reps


def norm_parts(model, n: int, which: str, k: int):
    """{|C|: the sum of |value|^2 / |C| over the classes of the rows with that centralizer}."""
    q2 = 2 ** (2 * n + 1)
    out = {}
    for rid in sorted(model.classrows):
        cv = model.chvalues.get(f"{which}_{rid}")
        if cv is None or not cv.terms:
            continue
        row = model.classrows[rid]
        cent = int_value(row.cent, n)
        fam = model.classfams[row.family]
        if fam.vars:
            reps = orbit_reps(int_value(cv.order, n), q2)
            assert len(reps) == family_formula_count(fam, n), rid
            total = sum(abs(value(cv, n, i=i, k=k)) ** 2 for i in reps) / cent
        else:
            total = abs(value(cv, n, k=k)) ** 2 / cent
        out[cent] = out.get(cent, 0.0) + total
    return out


def norm(model, n: int, which: str, k: int) -> float:
    return sum(norm_parts(model, n, which, k).values())
