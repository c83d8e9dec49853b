"""Floating-point reference for the norms (f, f) of the exceptional class functions.

Independent of chartables: every value is evaluated at one (n, i, k) in
complex floats, with eps4 the imaginary unit and zeta = exp(2 pi i / m), and
|value|^2 / |C| is summed over the class rows, on an indexed row over one
representative i of each orbit {+-i, +-q^2 i} of nonzero indices.  Only the
table evaluator (build_env, eval_expr) and the family count are shared.
Good to about 1e-9 for n <= 2.
"""

import cmath
import math

from dadecheck.counting import family_formula_count
from dadecheck.tabledsl import build_env, eval_expr, eval_expr_int


def to_float(x) -> float:
    """a + b*sqrt2 as a float."""
    return float(x.a) + float(x.b) * math.sqrt(2)


def value(cv, n: int, i: int = 0, k: int = 0) -> complex:
    if cv is None or not cv.terms:
        return 0j
    env = build_env(n, i=i, k=k)
    order = eval_expr_int(cv.order, env) if cv.order is not None else 1
    total = 0j
    for term in cv.terms:
        roots = sum(cmath.exp(2j * cmath.pi * (eval_expr_int(e, env) % order) / order)
                    for e in term.exps)
        total += to_float(eval_expr(term.coeff, env)) * (1j ** (term.eps4 % 4)) * roots
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
    env = build_env(n)
    q2 = 2 ** (2 * n + 1)
    out = {}
    for rid in sorted(model.classrows):
        cv = model.chvalues.get(f"{which}_{rid}")
        if cv is None or not cv.terms:
            continue
        row = model.classrows[rid]
        cent = eval_expr_int(row.cent, env)
        fam = model.classfams[row.family]
        if fam.vars:
            reps = orbit_reps(eval_expr_int(cv.order, env), q2)
            assert len(reps) == family_formula_count(fam, n), rid
            total = sum(abs(value(cv, n, i=i, k=k)) ** 2 for i in reps) / cent
        else:
            total = abs(value(cv, n, k=k)) ** 2 / cent
        out[cent] = out.get(cent, 0.0) + total
    return out


def norm(model, n: int, which: str, k: int) -> float:
    return sum(norm_parts(model, n, which, k).values())
