"""Class data and character-value checks.

Covers the class equation (sum over classes of |G|/|C| = |G|), the linear
relations and norm (f, f) = 2 of the two exceptional class functions, the
difference identities tying them to the four non-uniform irreducibles, and
the degree identities.  Symbolic checks canonicalize each value as a sum of
terms  coeff(q) * eps4^e * sum_j zeta^(e_j(i,k));  numeric checks evaluate
with eps4 = i and zeta a principal root of unity.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactnum import NotRationalInteger, QPoly, as_integer, val2
from .counting import family_formula_count
from .record import Record
from .tabledsl import (
    EXPONENT_SYMBOLS,
    ChValue,
    Model,
    _eval,
    build_env,
    eval_expr,
    eval_expr_int,
    eval_qpoly,
    exponent_poly,
)
from .dadeverify import two_part_exponent


# --- class equation -----------------------------------------------------------


def class_equation(model: Model, n: int) -> List[Record]:
    """Sum over class rows of |G|/|C| = |G|, and every |C| dividing |G|.

    A row whose centralizer does not divide |G| (a transcription error) is
    left out of the sum and named in the failed divisibility record.
    """
    env = build_env(n)
    order = eval_expr_int(model.order_expr, env)
    total = 0
    not_dividing = []
    for rid in sorted(model.classrows):
        row = model.classrows[rid]
        cent = eval_expr_int(row.cent, env)
        if order % cent:
            not_dividing.append(rid)
            continue
        mult = family_formula_count(model.classfams[row.family], n)
        total += mult * (order // cent)
    return [
        Record("class_equation", "sum", n, order, total),
        # True when every centralizer divides, else the rows whose do not divide
        Record("centralizer_divisibility", "all", n, True, not_dividing or True),
    ]


# --- root exponents ------------------------------------------------------------

def _exp_poly(expr) -> tuple:
    """A root exponent as its terms ((powers of th, i, k), rational coefficient), sorted."""
    poly = exponent_poly(expr)
    return tuple(sorted(
        (tuple(dict(m).get(s, 0) for s in EXPONENT_SYMBOLS), Fraction(c.as_fraction()))
        for m, c in poly.terms.items()))


def canonical_value(cv: Optional[ChValue]) -> Dict[tuple, QPoly]:
    """Value as a map (eps4 power, root-exponent multiset) -> q-polynomial."""
    out: Dict[tuple, QPoly] = {}
    if cv is None:
        return out
    for term in cv.terms:
        coeff = eval_qpoly(term.coeff)
        exps = tuple(sorted(_exp_poly(e) for e in term.exps))
        key = (term.eps4 % 4, exps)
        cur = out.get(key, QPoly())
        new = cur + coeff
        if new.is_zero():
            out.pop(key, None)
        else:
            out[key] = new
    return out


def _combine(values: List[Tuple[int, Dict[tuple, QPoly]]]) -> Dict[tuple, QPoly]:
    out: Dict[tuple, QPoly] = {}
    for c, val in values:
        for key, poly in val.items():
            cur = out.get(key, QPoly())
            new = cur + QPoly.const(c) * poly
            if new.is_zero():
                out.pop(key, None)
            else:
                out[key] = new
    return out


def _chvalue(model: Model, func: str, cls: str) -> Optional[ChValue]:
    return model.chvalues.get(f"{func}_{cls}")


def eval_value_numeric(
    model: Model, cv: Optional[ChValue], n: int, i: int = 0, k: int = 0
) -> complex:
    """Complex value with eps4 the principal fourth root of unity."""
    if cv is None or not cv.terms:
        return 0j
    env = build_env(n, i=i, k=k)
    order = eval_expr_int(cv.order, env) if cv.order is not None else 1
    total = 0j
    for term in cv.terms:
        coeff = eval_expr(term.coeff, env).to_float()
        rs = 0j
        for e in term.exps:
            ev = eval_expr_int(e, env)
            rs += cmath.exp(2j * cmath.pi * (ev % order) / order)
        total += coeff * (1j ** (term.eps4 % 4)) * rs
    return total


# --- relations -----------------------------------------------------------------


def f_relations_check(model: Model) -> List[Record]:
    """Linear relations and the difference identities, symbolically (n-free)."""
    records = []
    for rid in sorted(model.relations):
        rel = model.relations[rid]
        if rel.sum:
            combined = _combine(
                [(c, canonical_value(_chvalue(model, rel.func, cls)))
                 for c, cls in rel.sum]
            )
            records.append(Record("relation", rid, None, {}, combined))
        elif rel.equals:
            for cls in rel.classes:
                lhs = _combine(
                    [
                        (1, canonical_value(_chvalue(model, rel.left, cls))),
                        (-1, canonical_value(_chvalue(model, rel.right, cls))),
                    ]
                )
                rhs = canonical_value(_chvalue(model, rel.equals, cls))
                records.append(Record("difference", f"{rid}/{cls}", None, rhs, lhs))
    return records


def f_relations_numeric(model: Model, n: int) -> List[Record]:
    """Numeric spot check of the same relations at one n."""
    records = []
    for rid in sorted(model.relations):
        rel = model.relations[rid]
        ik = {"i": 1, "k": 1}
        if rel.sum:
            z = sum(
                c * eval_value_numeric(model, _chvalue(model, rel.func, cls), n, **ik)
                for c, cls in rel.sum
            )
            records.append(
                Record("relation_numeric", rid, n, True, abs(z) < 1e-9)
            )
        elif rel.equals:
            for cls in rel.classes:
                z = (
                    eval_value_numeric(model, _chvalue(model, rel.left, cls), n, **ik)
                    - eval_value_numeric(model, _chvalue(model, rel.right, cls), n, **ik)
                    - eval_value_numeric(model, _chvalue(model, rel.equals, cls), n, **ik)
                )
                records.append(
                    Record("difference_numeric", f"{rid}/{cls}", n, True, abs(z) < 1e-9)
                )
    return records


def exponent_integrality(model: Model, n: int) -> List[Record]:
    """Every root exponent is an integer at every index value.

    Evaluated at n with i and k left as variables, an exponent is a
    polynomial in i and k; with integer coefficients (and no negative
    power) it is an integer at every integer i and k.  Every shipped
    exponent has degree at most 1 in each of i and k, and for those that is
    also necessary.
    """
    env = build_env(n)
    env.update(i=QPoly.var("i"), k=QPoly.var("k"))
    ok = all(_integral(QPoly.coerce(_eval(e, env)))
             for cv in model.chvalues.values() if cv.order is not None
             for term in cv.terms for e in term.exps)
    return [Record("exponent_integrality", "all", n, True, ok)]


def _integral(poly: QPoly) -> bool:
    """Whether poly has integer coefficients and no negative power."""
    try:
        for c in poly.terms.values():
            as_integer(c)
    except NotRationalInteger:
        return False
    return all(p > 0 for m in poly.terms for _, p in m)


# --- norms ---------------------------------------------------------------------


def _orbit_reps(order: int, q2: int) -> List[int]:
    """Representatives of the orbits {+-i, +-q^2 i} on nonzero residues."""
    seen = set()
    reps = []
    for i in range(1, order):
        if i in seen:
            continue
        orbit = {i, (-i) % order, (q2 * i) % order, (-q2 * i) % order}
        seen |= orbit
        reps.append(i)
    return reps


_NORM_FAMILY = {"f8": ("p8b", "h8"), "f10": ("p8a", "h10")}


def f_norm(model: Model, n: int, which: str, k: int) -> float:
    """(f(k), f(k)) as a sum over classes of |value|^2 / |centralizer|."""
    contributions = f_norm_contributions(model, n, which, k)
    return sum(contributions.values())


def f_norm_contributions(model: Model, n: int, which: str, k: int) -> Dict[str, float]:
    """Per-centralizer-size breakdown of the norm (the class-equation weights)."""
    env = build_env(n)
    q2 = eval_expr_int(("pow", ("sym", "q"), ("int", 2)), env)
    out: Dict[str, float] = {}
    for rid in sorted(model.classrows):
        row = model.classrows[rid]
        cv = _chvalue(model, which, rid)
        if cv is None or not cv.terms:
            continue
        cent = eval_expr_int(row.cent, env)
        fam = model.classfams[row.family]
        if fam.vars:
            order = eval_expr_int(cv.order, env)
            reps = _orbit_reps(order, q2)
            if len(reps) != family_formula_count(fam, n):
                raise ValueError(
                    f"{rid}: {len(reps)} index orbits vs family count"
                )
            total = 0.0
            for i in reps:
                total += abs(eval_value_numeric(model, cv, n, i=i, k=k)) ** 2 / cent
        else:
            total = abs(eval_value_numeric(model, cv, n, k=k)) ** 2 / cent
        key = f"cent_{cent}"
        out[key] = out.get(key, 0.0) + total
    return out


def admissible_norm_parameters(model: Model, n: int, which: str) -> List[int]:
    order_name, _ = _NORM_FAMILY[which]
    order = eval_expr_int(("sym", order_name), build_env(n))
    return list(range(1, order))


# The norm is summed in floating point and checked to a tolerance, which is
# trusted only this far; above it every parameter gets a skip record.
NORM_MAX_N = 2


def f_norm_check(
    model: Model, n: int, which: str, tol: float = 1e-9
) -> List[Record]:
    records = []
    for k in admissible_norm_parameters(model, n, which):
        name = f"{which}(k={k})"
        if n > NORM_MAX_N:
            records.append(Record("f_norm", name, n, True, None, reason=(
                f"the floating-point norm is checked only for n <= {NORM_MAX_N}")))
            continue
        got = f_norm(model, n, which, k)
        records.append(Record("f_norm", name, n, True, abs(got - 2.0) < tol))
    return records


# --- degrees -------------------------------------------------------------------


def degree_polynomials(model: Model) -> List[Record]:
    """Each table degree equals its product of cyclotomic factors (n-free)."""
    return [
        Record("degree_poly", rid, None, eval_qpoly(dr.phi), eval_qpoly(dr.table))
        for rid, dr in sorted(model.degrels.items())
    ]


def degree_identity_check(model: Model, n: int) -> List[Record]:
    """The 2-defect of each degree, and its parity where the table says odd."""
    records = []
    env = build_env(n)
    for rid in sorted(model.degrels):
        dr = model.degrels[rid]
        deg = as_integer(eval_qpoly(dr.table).eval(n))
        d = two_part_exponent(n) - val2(deg)
        records.append(Record("degree_defect", rid, n, eval_expr_int(dr.defect, env), d))
        if dr.odd:
            records.append(Record("degree_odd", rid, n, 1, deg % 2))
    return records
