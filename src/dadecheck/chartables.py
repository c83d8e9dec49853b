"""Class data and character-value checks.

Covers the class equation (sum over classes of |G|/|C| = |G|), the linear
relations and norm (f, f) = 2 of the two exceptional class functions, the
difference identities tying them to the four non-uniform irreducibles, and
the degree identities.  A value is a sum of terms
coeff(q) * eps4^e * sum_j zeta^(e_j(i,k)), zeta of the value's order.  The
n-free checks canonicalize it symbolically; the checks at n stay exact too:
a value at one (i, k) is a sum of roots of unity with coefficients in
Q(sqrt2), and a norm is summed over a whole class family in closed form.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .exactnum import ZERO, NotRationalInteger, QPoly, SqrtTwoRat, as_integer
from .counting import family_formula_count
from .record import Record
from .tabledsl import (
    EXPONENT_SYMBOLS,
    ChValue,
    Model,
    _eval,
    build_env,
    eval_expr,
    eval_qpoly,
    exponent_poly,
    expr_to_str,
    int_value,
    no_value,
)
from .dadeverify import defect_of, two_part_exponent


# --- class equation -----------------------------------------------------------


def _divisor(node, n: int, owner: str) -> int:
    """A centralizer or root-of-unity order at n, which checks divide by: 0 is a TableValueError."""
    v = int_value(node, n, owner=owner)
    if v == 0:
        raise no_value(owner, node, n, ZeroDivisionError("the order is 0"))
    return v


def class_equation(model: Model, n: int) -> List[Record]:
    """Sum over class rows of |G|/|C| = |G|, and every |C| dividing |G|.

    A row whose centralizer does not divide |G| (a transcription error) is
    left out of the sum and named in the failed divisibility record.
    """
    order = int_value(model.order_expr, n)
    total = 0
    not_dividing = []
    for rid in sorted(model.classrows):
        row = model.classrows[rid]
        cent = _divisor(row.cent, n, rid)
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


def _add(out: dict, key, value) -> None:
    """out[key] += value, a key whose sum is zero dropped."""
    value = out[key] + value if key in out else value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


def canonical_value(cv: Optional[ChValue]) -> Dict[tuple, QPoly]:
    """Value as a map (eps4 power, root-exponent multiset) -> q-polynomial."""
    out: Dict[tuple, QPoly] = {}
    for term in cv.terms if cv is not None else ():
        exps = tuple(sorted(_exp_poly(e) for e in term.exps))
        _add(out, (term.eps4 % 4, exps), eval_qpoly(term.coeff, cv.id))
    return out


def _chvalue(model: Model, func: str, cls: str) -> Optional[ChValue]:
    return model.chvalues.get(f"{func}_{cls}")


# --- relations -----------------------------------------------------------------


def _relation_instances(model: Model) -> Iterator[Tuple[str, str, list, list]]:
    """(check, name, left, right) of every relation instance, where left and
    right list (coefficient, func, cls) whose sums of values should be equal."""
    for rid in sorted(model.relations):
        rel = model.relations[rid]
        if rel.sum:
            yield "relation", rid, [(c, rel.func, cls) for c, cls in rel.sum], []
        elif rel.equals:
            for cls in rel.classes:
                yield ("difference", f"{rid}/{cls}", [(1, rel.left, cls), (-1, rel.right, cls)],
                       [(1, rel.equals, cls)])


def f_relations_check(model: Model) -> List[Record]:
    """Linear relations and the difference identities, symbolically (n-free)."""
    def side(terms):
        out: Dict[tuple, QPoly] = {}
        for c, func, cls in terms:
            for key, poly in canonical_value(_chvalue(model, func, cls)).items():
                _add(out, key, QPoly.const(c) * poly)
        return out

    return [Record(check, name, None, side(right), side(left))
            for check, name, left, right in _relation_instances(model)]


def f_relations_numeric(model: Model, n: int) -> List[Record]:
    """The same relations at n and i = k = 1, exactly, reading each value's order.

    left - right is kept as a map from each root of unity's angle (a Fraction
    mod 1; eps4 has angle 1/4) to its coefficient in Q(sqrt2); it passes when
    all cancel.  A true relation could fail so, a false one cannot pass.
    """
    env = build_env(n, i=1, k=1)
    records = []
    for check, name, left, right in _relation_instances(model):
        sums: Dict[Fraction, SqrtTwoRat] = {}
        for c, func, cls in left + [(-c, func, cls) for c, func, cls in right]:
            cv = _chvalue(model, func, cls)
            order = _divisor(cv.order, n, cv.id) if cv and cv.order is not None else 1
            for term in cv.terms if cv else ():
                coeff = c * eval_expr(term.coeff, env, cv.id)
                for e in term.exps:
                    slope = eval_expr(e, env, cv.id).as_fraction()
                    angle = Fraction(term.eps4, 4) + slope / order
                    _add(sums, angle % 1, coeff)
        records.append(Record(check + "_numeric", name, n, True, not sums))
    return records


def exponent_integrality(model: Model, n: int) -> List[Record]:
    """Every root exponent is an integer at every index value.

    Evaluated at n with i and k left as variables, an exponent is a
    polynomial in i and k; with integer coefficients (and no negative
    power) it is an integer at every integer i and k.  Every shipped
    exponent has degree at most 1 in each of i and k, and for those that is
    also necessary.
    """
    env = dict(build_env(n), i=QPoly.var("i"), k=QPoly.var("k"))
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


class _NotProved(ValueError):
    """A step of the closed-form norm does not hold for a class row; the message names it."""


class _NormRow(NamedTuple):
    """A row's value at n: sum over terms (c, e, slopes) of c * eps4^e * sum_s zeta_m^(s*i*k)."""
    name: str
    cent: int
    m: int
    terms: List[Tuple[SqrtTwoRat, int, List[int]]]
    indexed: bool


def _slope(owner: str, expr, env) -> int:
    """s with the root exponent expr = s*i*k in env; _NotProved for any other form."""
    poly, ik = QPoly.coerce(_eval(expr, env)), (("i", 1), ("k", 1))
    s = poly.terms.get(ik, ZERO)
    if poly.terms.keys() - {ik} or s.b or s.a.denominator != 1:
        raise _NotProved(f"{owner}: root exponent {expr_to_str(expr)} is not an integer "
                         f"multiple of i*k")
    return s.a


def _norm_rows(model: Model, n: int, which: str) -> List[_NormRow]:
    """The class rows where which has a value, each proved fit for the closed-form sum.

    An indexed row's classes are the orbits of {+-1, +-q^2} on the nonzero
    i mod m, and its share is a quarter of the sum over all of them once
    (else _NotProved names the row) each term's slopes are closed mod m
    under negation and x q^2, so v is constant on orbits, and every orbit
    has 4 elements: q^4 = +-1 mod m makes the four a group and m odd, and m
    prime to q^4 - 1 leaves no nonzero i fixed.  (m - 1)/4 is then the
    family count.
    """
    env = dict(build_env(n), i=QPoly.var("i"), k=QPoly.var("k"))
    q2 = as_integer(env["q"] ** 2)
    rows = []
    for rid in sorted(model.classrows):
        cv = _chvalue(model, which, rid)
        if cv is None or not cv.terms:
            continue
        row = model.classrows[rid]
        m = _divisor(cv.order, n, cv.id) if cv.order is not None else 1
        terms = [(eval_expr(t.coeff, env, cv.id), t.eps4 % 4,
                  [_slope(rid, e, env) % m for e in t.exps])
                 for t in cv.terms]
        fam = model.classfams[row.family]
        if fam.vars:
            for (_, _, slopes), (how, g) in product(terms, (("negation", -1), ("x q^2", q2))):
                if Counter(g * s % m for s in slopes) != Counter(slopes):
                    raise _NotProved(f"{rid}: root slopes not closed under {how} mod {m}")
            if q2 * q2 % m not in (1 % m, m - 1) or gcd(m, q2 * q2 - 1) != 1:
                raise _NotProved(f"{rid}: the orbits of +-1, +-q^2 mod {m} are not all of size 4")
            count = family_formula_count(fam, n)
            if m - 1 != 4 * count:
                raise _NotProved(f"{rid}: {(m - 1) // 4} index orbits vs family count {count}")
        rows.append(_NormRow(rid, _divisor(row.cent, n, rid), m, terms, bool(fam.vars)))
    return rows


def _square_sum(terms, d: int) -> SqrtTwoRat:
    """The sum over residues r mod d of |w(r)|^2, w(r) = sum over terms of
    coefficient * eps4^e * #{slopes = r mod d}: the sum over pairs of slopes
    s = s' mod d of c * c' * Re(eps4^(e - e')).  At d = 1 it is |v(0)|^2."""
    parts: Dict[Tuple[int, int], SqrtTwoRat] = {}  # (real or imaginary, r) -> part of w(r)
    for c, e, slopes in terms:
        for s in slopes:
            _add(parts, (e % 2, s % d), c if e < 2 else -c)
    return sum((v * v for v in parts.values()), ZERO)


def _share(row: _NormRow, k: int) -> SqrtTwoRat:
    """The row's share of (f(k), f(k)): the sum over its classes of |v|^2 / |C|.

    Over all i mod m, zeta^((s - s')*i*k) sums to m where s = s' mod
    m / gcd(k, m), else to 0.  A row without an index is its value at i = 0.
    """
    at_zero = _square_sum(row.terms, 1)
    if not row.indexed:
        return at_zero / row.cent
    total = row.m * _square_sum(row.terms, row.m // gcd(k, row.m))
    return (total - at_zero) / (4 * row.cent)


_NORM_ORDER = {"f8": "p8b", "f10": "p8a"}


def admissible_norm_parameters(model: Model, n: int, which: str) -> List[int]:
    order = int_value(("sym", _NORM_ORDER[which]), n)
    return list(range(1, order))


def f_norm_check(model: Model, n: int, which: str) -> List[Record]:
    """(f(k), f(k)) = 2 for every admissible k, summed exactly in Q(sqrt2).

    Shares depend on k only through gcd(k, m), a divisor of g = gcd(k, L)
    for L the lcm of the m, so each g is summed once.  A failed record names
    the norm, or the row and the step of the closed form that does not hold.
    """
    ks = admissible_norm_parameters(model, n, which)
    try:
        rows = _norm_rows(model, n, which)
    except _NotProved as e:
        return [Record("f_norm", f"{which}(k={k})", n, True, str(e)) for k in ks]
    lcm_m = lcm(*(row.m for row in rows if row.indexed))
    norms: Dict[int, object] = {}
    records = []
    for k in ks:
        g = gcd(k, lcm_m)
        if g not in norms:
            norm = sum((_share(row, k) for row in rows), ZERO)
            norms[g] = True if norm == 2 else f"(f, f) = {norm}"
        records.append(Record("f_norm", f"{which}(k={k})", n, True, norms[g]))
    return records


# --- degrees -------------------------------------------------------------------


def degree_polynomials(model: Model) -> List[Record]:
    """Each table degree equals its product of cyclotomic factors (n-free)."""
    return [
        Record("degree_poly", rid, None, eval_qpoly(dr.phi, rid), eval_qpoly(dr.table, rid))
        for rid, dr in sorted(model.degrels.items())
    ]


def degree_identity_check(model: Model, n: int) -> List[Record]:
    """The 2-defect of each degree, and its parity where the table says odd."""
    records = []
    for rid in sorted(model.degrels):
        dr = model.degrels[rid]
        d = defect_of(dr.table, n, rid)
        records.append(Record("degree_defect", rid, n, int_value(dr.defect, n, owner=rid), d))
        if dr.odd:  # an odd degree has the whole 2-part of |G| as its 2-defect
            records.append(Record("degree_odd", rid, n, 1, int(d == two_part_exponent(n))))
    return records
