"""Exact counts on index grids, on Python ints: the parameter sets' classes.

The kernel, count, counts the tuples of a grid Z_r1 x ... x Z_rv that solve
a system of congruences, from a triangular basis of its lattice; no tuple
is listed and no value is bounded.  Each Burnside sum of the package, over
the classes of a parameter set or of a class family (paramsets), adds the
admissible tuples, those outside a compiled exclusion E, that maps h fix.
_admissible_fixed counts them for both: Fix(h) by the kernel, and
Fix(h) ∩ E on the shape of E, a union of lines and points (_Union), or by
inclusion-exclusion.  _stable is the one rule for whether a map keeps E.
A parameter set is Z_m or Z_m1 x Z_m2 minus excluded tuples, modulo the
group generated by its affine equivalence maps.  Its classes, and those
fixed by the doubling x -> 2^t x, are counted by Burnside's lemma.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exactnum import ZERO, NotPolynomial, NotRationalInteger, Rat
from .tabledsl import (
    ClassFam,
    ParamSetSpec,
    expr_to_str,
    int_value,
    no_value,
    poly,
    pred_to_str,
    value_to_str,
)


class NonIntegralModulus(ValueError):
    pass


class MapClosureError(ValueError):
    pass


class NotHomomorphism(ValueError):
    """A congruence row that is not well defined on the grid: its solutions are not counted."""


# --- the counting kernel ---------------------------------------------------------


def triangle(gens, dim: int) -> List[List[int]]:
    """A triangular basis of the lattice that the integer vectors gens span in Z^dim.

    Row i is zero before coordinate i, and its entry i, the pivot, is >= 0;
    the rows come from gens by extended-gcd row operations, which keep the
    lattice.  A zero pivot (then a zero row) means that no vector reaches
    coordinate i past the earlier ones: the lattice has rank below dim.
    Otherwise the product of the pivots is its index in Z^dim.
    """
    rows = []
    gens = [list(v) for v in gens if any(v)]
    for i in range(dim):
        pivot, rest = None, []
        for v in gens:
            if not v[i]:
                rest.append(v)
            elif pivot is None:
                pivot = v
            else:
                # (pivot, v) -> (x pivot + y v, b pivot - a v), a unimodular step
                # that leaves g = gcd(pivot_i, v_i) at i in the first and 0 in the second
                g, x, y = _xgcd(pivot[i], v[i])
                a, b = pivot[i] // g, v[i] // g
                pivot, v = ([x * p + y * w for p, w in zip(pivot, v)],
                            [b * p - a * w for p, w in zip(pivot, v)])
                if any(v):
                    rest.append(v)
        if pivot is None:
            pivot = [0] * dim
        elif pivot[i] < 0:
            pivot = [-p for p in pivot]
        rows.append(pivot)
        gens = rest
    return rows


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        qq, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - qq * x1, y0 - qq * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def lattice_index(rows) -> int:
    """The product of the pivots of triangle's rows: the lattice's index, 0 if its rank is short."""
    return math.prod(row[i] for i, row in enumerate(rows))


def count(rows, mods, ranges) -> int:
    """#{a in Z_r1 x ... x Z_rv : c_k . a = b_k mod m_k for every k}.

    rows[k] is (c_k1, ..., c_kv, b_k) in integers and mods[k] = m_k >= 1;
    each row is reduced mod its m_k.  Each must be well defined on the grid,
    m_k | c_kj r_j for every j, else NotHomomorphism is raised: then
    phi(a) = (c_k . a mod m_k)_k is a homomorphism of finite abelian groups
    and the tuples sought are a coset of its kernel, or none.  The columns
    of A = [C | diag(m)] span phi's image lifted to Z^K.  With d(A) the
    index of their lattice, read from its triangle, |im phi| = prod m / d(A),
    and b is in the image exactly when back-substitution on the triangle
    clears it.  So the count is prod r * d(A) / prod m, or 0.
    """
    nv = len(ranges)
    system = []
    for row, m in zip(rows, mods):
        row = [int(x) % m for x in row]
        if any(c * r % m for c, r in zip(row, ranges)):
            raise NotHomomorphism(f"{row[:nv]} . a = {row[nv]} mod {m} is not well defined "
                                  f"on the grid of ranges {tuple(ranges)}")
        if any(row):  # 0 = 0 holds everywhere
            system.append((row, m))
    if any(not any(row[:nv]) for row, _ in system):  # 0 = b with b != 0 nowhere
        return 0
    if not system:
        return math.prod(ranges)
    dim = len(system)
    tri = triangle([[row[j] for row, _ in system] for j in range(nv)]
                   + [[m * (i == k) for i in range(dim)] for k, (_, m) in enumerate(system)], dim)
    b = [row[nv] for row, _ in system]
    for i, pivot in enumerate(tri):
        qq, rest = divmod(b[i], pivot[i])
        if rest:
            return 0
        b = [x - qq * p for x, p in zip(b, pivot)]
    return math.prod(ranges) * lattice_index(tri) // math.prod(m for _, m in system)


def _fixed_rows(lin, shift) -> List[List[int]]:
    """The rows (lin - I) a = -shift of the fixed points of a -> lin a + shift."""
    nv = len(shift)
    return [[int(lin[k][j]) - (j == k) for j in range(nv)] + [-int(shift[k])]
            for k in range(nv)]


def fixed_point_count(lin, shift, ranges) -> int:
    """Grid tuples a with lin a + shift = a, row k mod ranges[k], counted by count.

    On one or two indices no triangle is needed.  The fixed points solve
    (lin - I) a = -shift, and the columns of [lin - I | diag(ranges)] span a
    lattice whose index d is the gcd of their maximal minors; with m = r,
    count's prod r * d / prod m is d.  -shift is in the lattice exactly when
    the minors with it as a column leave the gcd d.  On one index that reads:
    gcd(l - 1, r) solutions where it divides t, none otherwise.  A map not
    well defined on the grid goes to count, which refuses it.
    """
    rows = _fixed_rows(lin, shift)
    if len(ranges) == 1:
        ((a, y),), (r,) = rows, ranges
        d = math.gcd(a, r)
        return 0 if y % d else d
    if len(ranges) == 2:
        (a, b, y1), (c, e, y2) = rows
        r1, r2 = ranges
        if not (b * r2 % r1 or c * r1 % r2):
            d = math.gcd(a * e - b * c, r1 * c, r2 * a, r1 * e, r2 * b, r1 * r2)
            return d if math.gcd(d, a * y2 - c * y1, b * y2 - e * y1, r1 * y2, r2 * y1) == d else 0
    return count(rows, ranges, ranges)


# --- affine compilation ------------------------------------------------------


# (expressions, n, index names) -> (D, rows) of _affine.  That is the whole
# key: the rows depend on nothing else (poly's symbols at n are a function of
# n), and they are tuples, so no caller can change a cached entry.  Errors are
# raised afresh on every call, naming the caller's owner.
_AFFINE_CACHE: Dict[tuple, Tuple[int, Tuple[Tuple[Rat, ...], ...]]] = {}


def _affine(owner: str, exprs, n: int, varnames) -> Tuple[int, Tuple[Tuple[Rat, ...], ...]]:
    """Compile expressions affine in the named indices to exact coefficients at n.

    Returns (D, rows): row j is (a_1, ..., a_v, c) with expression j equal to
    a_1*var_1 + ... + a_v*var_v + c, and D is the least common denominator of
    every entry.  Each expression is evaluated at n with the indices bound
    to variables, and is affine when every monomial of its value is 1 or
    one index; so a*b - a*b + a is affine and a*b is not.  Every coefficient
    must be rational: one with a sqrt2 part, like a division by zero, is a
    TableValueError.  Errors name owner, the set, family or class the
    expressions belong to.
    """
    key = (tuple(exprs), n, tuple(varnames))
    if key in _AFFINE_CACHE:
        return _AFFINE_CACHE[key]
    monomials = [((v, 1),) for v in varnames] + [()]  # a row's terms, in its order
    affine = set(monomials)
    rows = []
    for expr in exprs:
        try:
            terms = poly(expr, varnames, n, owner).terms
        except NotPolynomial:
            terms = None
        if terms is None or not terms.keys() <= affine:
            raise MapClosureError(f"{owner}: expression {expr_to_str(expr)} is not affine "
                                  f"in {', '.join(varnames)}")
        try:
            rows.append(tuple(terms.get(m, ZERO).as_fraction() for m in monomials))
        except NotRationalInteger as e:  # a coefficient with a sqrt2 part
            raise no_value(owner, expr, n, e) from None
    result = math.lcm(*(f.denominator for row in rows for f in row)), tuple(rows)
    _AFFINE_CACHE[key] = result
    return result


def _ranges(owner: str, range_exprs, n: int) -> Tuple[int, ...]:
    """The index ranges of a set, family or torus at n, each a positive integer."""
    ranges = []
    for expr in range_exprs:
        try:
            r = int_value(expr, n)
        except NotRationalInteger as e:
            raise NonIntegralModulus(f"{owner}: modulus {e}") from e
        if r <= 0:
            raise NonIntegralModulus(f"{owner}: modulus {r} <= 0")
        ranges.append(r)
    return tuple(ranges)


# --- exclusions --------------------------------------------------------------


def _atom_row(owner: str, atom, n: int, varnames, ranges) -> Tuple[List[int], int]:
    """An exclusion atom as one congruence row (c_1, ..., c_v, b) and its modulus m.

    The atom holds on a exactly when c . a = b mod m.  An atom compares two
    affine forms modulo the common modulus of the indices it uses (where
    there is no index, it is a MapClosureError), and "m div e" tests e mod
    m.  A "!=" atom gives the row of its "=".
    """
    _, op, e1, e2 = atom
    if op == "div":
        m = abs(int_value(e1, n, owner=owner))  # m and -m divide the same e
        if m == 0:
            raise MapClosureError(f"{owner}: modulus 0 in {pred_to_str(atom)} at n = {n}")
        denom, (row,) = _affine(owner, [e2], n, varnames)
    else:
        if not ranges:
            raise MapClosureError(f"{owner}: atom {pred_to_str(atom)} compares modulo an "
                                  "index range, and there is no index")
        denom, (r1, r2) = _affine(owner, [e1, e2], n, varnames)
        row = [a - b for a, b in zip(r1, r2)]
        mods = {ranges[i] for i, a in enumerate(row[:-1]) if a} or {ranges[0]}
        if len(mods) != 1:
            raise MapClosureError(
                f"{owner}: atom {pred_to_str(atom)} mixes indices with different moduli"
            )
        (m,) = mods
    if denom != 1:
        raise MapClosureError(f"{owner}: non-integral coefficient in {pred_to_str(atom)}")
    return [int(a) for a in row[:-1]] + [-int(row[-1])], m


def _exclusion(owner: str, pred, n: int, varnames, ranges):
    """An exclusion predicate with each atom compiled to ("atom", negated, row, m).

    The row is _atom_row's, and it must be well defined on the grid, so that
    count can count it; an atom whose row is not is a MapClosureError.
    """
    if pred[0] != "atom":
        return (pred[0], _exclusion(owner, pred[1], n, varnames, ranges),
                _exclusion(owner, pred[2], n, varnames, ranges))
    row, m = _atom_row(owner, pred, n, varnames, ranges)
    if any(c * r % m for c, r in zip(row, ranges)):
        raise MapClosureError(f"{owner}: atom {pred_to_str(pred)} is not well defined "
                              f"mod {ranges}")
    return ("atom", pred[1] == "!=", tuple(row), m)


def _count_in(rows, mods, ranges, preds) -> int:
    """Grid tuples that solve the rows and satisfy every compiled predicate of preds.

    "and" adds its sides to preds, "or" is counted by inclusion-exclusion,
    an atom adds its row, and a negated atom is the complement of its row.
    """
    if not preds:
        return count(rows, mods, ranges)
    pred, rest = preds[0], preds[1:]
    if pred[0] == "and":
        return _count_in(rows, mods, ranges, (pred[1], pred[2]) + rest)
    if pred[0] == "or":
        return (_count_in(rows, mods, ranges, (pred[1],) + rest)
                + _count_in(rows, mods, ranges, (pred[2],) + rest)
                - _count_in(rows, mods, ranges, (pred[1], pred[2]) + rest))
    _, negated, row, m = pred
    hit = _count_in(rows + [row], mods + [m], ranges, rest)
    return _count_in(rows, mods, ranges, rest) - hit if negated else hit


def _pullback(pred, lin, shift):
    """The compiled predicate P(lin a + shift) as a compiled predicate in a.

    c . (lin a + shift) = b reads (c lin) . a = b - c . shift.  With lin well
    defined on the grid, the new row is as well defined as the old one.
    """
    if pred[0] != "atom":
        return (pred[0], _pullback(pred[1], lin, shift), _pullback(pred[2], lin, shift))
    _, negated, row, m = pred
    nv = len(shift)
    coeffs = tuple(sum(row[i] * lin[i][j] for i in range(nv)) for j in range(nv))
    return ("atom", negated, coeffs + (row[nv] - sum(c * s for c, s in zip(row, shift)),), m)


def _keeps(exclude, g, moduli) -> bool:
    """Whether a permutation g = (rows (a..., c)) of the grid maps the excluded set onto itself.

    For a permutation that is |E ∩ g^-1 E| = |E|: g^-1 E has |E| tuples.
    """
    lin, shift = _split(g)
    size = _count_in([], [], moduli, (exclude,))
    return _count_in([], [], moduli, (exclude, _pullback(exclude, lin, shift))) == size


# --- admissible fixed points: unions of lines and points ---------------------


def _holds(pred, a) -> bool:
    """Whether a compiled predicate (_exclusion) holds on the index tuple a."""
    if pred[0] == "atom":
        _, negated, row, m = pred
        return ((sum(map(mul, row, a)) - row[-1]) % m == 0) != negated
    if pred[0] == "and":
        return _holds(pred[1], a) and _holds(pred[2], a)
    return _holds(pred[1], a) or _holds(pred[2], a)


def _image(lin, shift, a, ranges) -> Tuple[int, ...]:
    """lin a + shift, row k mod ranges[k]."""
    return tuple((sum(map(mul, row, a)) + t) % r for row, t, r in zip(lin, shift, ranges))


def _order(v, ranges) -> int:
    """The order of v in Z_r1 x ... x Z_rk."""
    return math.lcm(*(r // math.gcd(x, r) for x, r in zip(v, ranges)))


def _span(a, b, ranges) -> int:
    """|<a, b>| in Z_r1 x ... x Z_rk, from the maximal minors.

    <a, b> is L / R, with R the lattice of the r_i e_i and L that of a, b and
    the r_i e_i.  The index of L is the gcd of its k x k minors: prod r, each
    a_i or b_i times the r_j with j != i, and each a_i b_j - a_j b_i times the
    r_l with l not i or j.  So |<a, b>| = prod r / that gcd.
    """
    total = math.prod(ranges)
    g = total
    for i, r in enumerate(ranges):
        rest = total // r
        g = math.gcd(g, a[i] * rest, b[i] * rest)
        for j in range(i + 1, len(ranges)):
            g = math.gcd(g, (a[i] * b[j] - a[j] * b[i]) * (rest // ranges[j]))
    return total // g


class _Union(NamedTuple):
    """A union of cyclic subgroups <v_i> and single points of a grid Z_r1 x ... x Z_rk.

    lines holds one generator of each distinct subgroup and orders their
    orders; meets holds (i, j, |<v_i> ∩ <v_j>|) for i < j; points holds the
    points that no line holds, each once.  congruences holds, for a union
    made from an exclusion, the (row, m) of the atoms its lines came from:
    the solutions of c . a = 0 mod m make up a line.
    """

    ranges: Tuple[int, ...]
    lines: Tuple[Tuple[int, ...], ...]
    orders: Tuple[int, ...]
    meets: Tuple[Tuple[int, int, int], ...]
    points: Tuple[Tuple[int, ...], ...] = ()
    congruences: Tuple[Tuple[Tuple[int, ...], int], ...] = ()


def _union(ranges, lines) -> _Union:
    """The _Union of the subgroups the vectors of lines generate.

    <v_i> ∩ <v_j> has |<v_i>| |<v_j>| / |<v_i, v_j>| elements, and the two
    are one subgroup when that is both orders.
    """
    ranges = tuple(ranges)
    gens, orders, meets = [], [], []
    for v in lines:
        v = tuple(x % r for x, r in zip(v, ranges))
        o = _order(v, ranges)
        spans = [_span(w, v, ranges) for w in gens]
        if any(s == o == p for s, p in zip(spans, orders)):
            continue
        meets.extend((i, len(gens), p * o // s) for i, (s, p) in enumerate(zip(spans, orders)))
        gens.append(v)
        orders.append(o)
    return _Union(ranges, tuple(gens), tuple(orders), tuple(meets))


def _union_fixed(u: _Union, lin) -> int:
    """|Fix ∩ E| for E = u and the linear map a -> lin a of the grid, row k mod ranges[k].

    Fix ∩ <v_i> is cyclic of order s_i = ord(v_i) / ord((lin - I) v_i).  An
    element of their union generates a cyclic subgroup of some order d; the
    Fix ∩ <v_i> with d | s_i have one each, and those of i and j are one
    when d | t_ij = gcd(s_i, s_j, |<v_i> ∩ <v_j>|).  So the union has
    sum_d phi(d) N(d) elements, with N(d) the number of classes of
    {i : d | s_i} under d | t_ij.  N(d) depends on d only through c(d), the
    gcd of the members of the gcd closure S of the s_i and t_ij that d
    divides; and the phi(d) with c(d) = g sum to psi(g) = g - sum of psi(g')
    over the g' in S that properly divide g (P. Hall's Möbius recursion for
    the Eulerian functions of a group, 1936).  No divisor is listed.
    """
    ranges = u.ranges
    moved = [[x - (j == k) for j, x in enumerate(row)] for k, row in enumerate(lin)]  # lin - I
    fixed = sum(not any(sum(map(mul, row, p)) % r for row, r in zip(moved, ranges))
                for p in u.points)
    s = [o // math.lcm(*(r // math.gcd(sum(map(mul, row, v)), r)
                         for row, r in zip(moved, ranges))) if o > 1 else 1
         for v, o in zip(u.lines, u.orders)]
    if not s or max(s) == 1:  # only 0, if any line
        return fixed + bool(s)
    # d = 1 is 0, one class; a larger d divides only s_i > 1, and t_ij only if i and j have one
    pairs = [(i, j, math.gcd(t, s[i], s[j])) for i, j, t in u.meets if s[i] > 1 < s[j]]
    closure = {x for x in s if x > 1} | {t for _, _, t in pairs}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in list(closure):
            z = math.gcd(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    psi: Dict[int, int] = {1: 1}
    fixed += 1
    for g in sorted(closure - {1}):  # a proper divisor comes first
        psi[g] = g - sum(p for h, p in psi.items() if g % h == 0)
        members = [i for i, x in enumerate(s) if x % g == 0]
        if members:
            fixed += psi[g] * _classes(members, [(i, j) for i, j, t in pairs if t % g == 0])
    return fixed


def _classes(members, edges) -> int:
    """The number of classes of members under the equivalence the edges generate."""
    parent = {i: i for i in members}

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    classes = len(members)
    for i, j in edges:
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            classes -= 1
    return classes


def _on_lines(u: _Union, x) -> bool:
    """Whether the reduced tuple x lies on a line of u, which is made from an exclusion."""
    return any(sum(map(mul, row, x)) % m == 0 for row, m in u.congruences)


def _terms(pred, op: str):
    """The operands of a tree of op nodes."""
    if pred[0] == op:
        return _terms(pred[1], op) + _terms(pred[2], op)
    return [pred]


def _line(atom, ranges) -> Optional[Tuple[int, ...]]:
    """A generator of the solutions of the atom c . a = 0 mod m, or None where it finds none.

    The solutions are the kernel of a -> c . a mod m, whose image is the
    subgroup of Z_m that gcd(c, m) generates: there are prod r gcd(c, m) / m
    of them.  The candidates are r / |H| on one index, and on more a vector
    with a 1 at one index and, at an index whose coefficient is a unit mod
    m, what solves the atom.  A candidate generates the solutions when it
    solves the atom and its order is their number.
    """
    _, _, row, m = atom
    nv = len(ranges)
    if row[nv] % m:
        return None
    size = math.prod(ranges) * math.gcd(*row[:nv], m) // m
    if nv == 1:
        candidates = [(ranges[0] // size,)]
    else:
        candidates = []
        for j, l in itertools.permutations(range(nv), 2):
            if math.gcd(row[j], m) == 1:
                v = [0] * nv
                v[l] = 1
                v[j] = -row[l] * pow(row[j], -1, m) % m
                candidates.append(tuple(v))
    for v in candidates:
        if sum(c * x for c, x in zip(row, v)) % m == 0 and _order(v, ranges) == size:
            return v
    return None


def _pinned(atoms, ranges) -> Optional[Tuple[int, ...]]:
    """The one tuple the atoms can hold on, each index pinned by a unit coefficient, or None.

    An index of range 1 is pinned to 0.
    """
    nv = len(ranges)
    point: List[Optional[int]] = [0 if r == 1 else None for r in ranges]
    for _, _, row, m in atoms:
        used = [j for j in range(nv) if row[j] % m]
        if len(used) == 1 and m == ranges[used[0]] and math.gcd(row[used[0]], m) == 1:
            point[used[0]] = row[nv] * pow(row[used[0]], -1, m) % m
    return None if None in point else tuple(point)


# (compiled exclusion, ranges) -> what _union_of makes of it.  That is the
# whole key: the union is made from nothing else, and the owner's name is not
# in the compiled exclusion.  So owners whose exclusions compile alike, such
# as g13 and h13, share one entry: the 128 indexed families and 48 set grids
# with an exclusion of verify params --n 1..4 have 92 distinct ones.
_UNION_CACHE: Dict[tuple, Optional[_Union]] = {}


def _union_of(exclude, ranges) -> Optional[_Union]:
    """A compiled exclusion as a _Union, or None where it is not an "or" of lines and points.

    A line is an atom whose solutions _line finds a generator of; a point an
    atom, or an "and" of atoms, that _pinned pins to one tuple (a term that
    does not hold there holds nowhere).
    """
    key = exclude, tuple(ranges)
    if key not in _UNION_CACHE:
        _UNION_CACHE[key] = _make_union(exclude, key[1])
    return _UNION_CACHE[key]


def _one_line(exclude, ranges) -> Optional[Tuple[int, ...]]:
    """The generator of the one subgroup that the exclusion is, or None where it is not one."""
    u = _union_of(exclude, ranges)
    return u.lines[0] if u is not None and not u.points and len(u.lines) == 1 else None


def _make_union(exclude, ranges) -> Optional[_Union]:
    lines, congruences, points = [], [], []
    for term in _terms(exclude, "or"):
        atoms = _terms(term, "and")
        if any(a[0] != "atom" or a[1] for a in atoms):
            return None
        line = _line(atoms[0], ranges) if len(atoms) == 1 else None
        if line is not None:
            lines.append(line)
            congruences.append((atoms[0][2], atoms[0][3]))
            continue
        point = _pinned(atoms, ranges)
        if point is None:
            return None
        if all(_holds(a, point) for a in atoms):
            points.append(point)
    u = _union(ranges, lines)._replace(congruences=tuple(congruences))
    # _pinned reduces each index mod its range, so equal points are equal tuples
    return u._replace(points=tuple(p for p in dict.fromkeys(points) if not _on_lines(u, p)))


# The most atoms of an exclusion counted by inclusion-exclusion, which makes
# up to about 2^atoms calls of count per fixed-point count.
_FEW_ATOMS = 4


def _atoms(pred) -> int:
    return 1 if pred[0] == "atom" else _atoms(pred[1]) + _atoms(pred[2])


def _admissible_fixed(h, ranges, exclude) -> int:
    """Admissible tuples that the map h, rows (a..., c), fixes: |Fix(h)| - |Fix(h) ∩ E|.

    Fix(h) is a coset, counted by fixed_point_count.  Its excluded tuples are
    counted by _union_fixed where h is linear and the exclusion a union of
    lines and points, else by inclusion-exclusion, which _stable admits on at
    most _FEW_ATOMS atoms.  A linear map that fixes one tuple fixes only 0.
    """
    lin, shift = _split(h)
    fixed = fixed_point_count(lin, shift, ranges)
    if not fixed or exclude is None:
        return fixed
    linear = not any(shift)
    if fixed == 1 and linear:
        return int(not _holds(exclude, (0,) * len(ranges)))
    union = _union_of(exclude, ranges) if linear else None
    if union is not None:
        return fixed - _union_fixed(union, lin)
    return fixed - _count_in(_fixed_rows(lin, shift), list(ranges), ranges, (exclude,))


def _stable(exclude, ranges, g) -> bool:
    """Whether the permutation g of the grid, rows (a..., c), is shown to keep the excluded set.

    A linear g keeps a union of lines and points if it sends each v_i into
    some <v_j> and each point into the union, each image tested on the
    congruences of the lines, one dot product each.  That is enough, not
    necessary; where it does not show stability, _keeps decides, exactly,
    on at most _FEW_ATOMS atoms, and a larger exclusion is not shown stable.
    For a permutation, keeping the excluded set is keeping the admissible one.
    """
    if exclude is None:
        return True
    lin, shift = _split(g)
    u = None if any(shift) else _union_of(exclude, ranges)
    if u is not None and (all(_on_lines(u, _image(lin, shift, v, ranges)) for v in u.lines)
                          and all(x in u.points or _on_lines(u, x)
                                  for x in (_image(lin, shift, p, ranges) for p in u.points))):
        return True
    return _atoms(exclude) <= _FEW_ATOMS and _keeps(exclude, g, ranges)


# --- parameter sets ----------------------------------------------------------


class AffineGroup(NamedTuple):
    """Closed group of affine maps on Z_m1 (x Z_m2).

    Row i of each map is reduced mod m_i, and every map is well defined, so
    two maps are equal tuples exactly when they act alike on the grid
    (compare the images of 0 and of each unit tuple).  gens holds the
    indices in maps of the table's maps, which generate it.
    """

    moduli: Tuple[int, ...]
    maps: Tuple[Tuple[Tuple[int, ...], ...], ...]  # each map: rows (a..., c) per coord
    gens: Tuple[int, ...]


def _split(g):
    """(lin, shift) of a map given as rows (a..., c)."""
    return [row[:-1] for row in g], [row[-1] for row in g]


def _scaling(factors, moduli):
    """The map a -> (f_1 a_1, ..., f_v a_v), row i reduced mod m_i."""
    nv = len(moduli)
    return tuple(tuple(f * (i == j) % m for j in range(nv)) + (0,)
                 for i, (f, m) in enumerate(zip(factors, moduli)))


def _compose(f, g, moduli):
    """(f o g): apply g first, then f.  On one and two indices the products are written out."""
    nv = len(moduli)
    if nv == 1:
        ((a, c),), ((b, d),), (m,) = f, g, moduli
        return ((a * b % m, (a * d + c) % m),)
    if nv == 2:
        (a, b, c), (d, e, h) = f
        (p, q, r), (s, t, u) = g
        m1, m2 = moduli
        return (((a * p + b * s) % m1, (a * q + b * t) % m1, (a * r + b * u + c) % m1),
                ((d * p + e * s) % m2, (d * q + e * t) % m2, (d * r + e * u + h) % m2))
    rows = []
    for i in range(nv):
        arow = f[i][:nv]
        c = f[i][nv]
        new = [0] * (nv + 1)
        for j in range(nv):
            for kk in range(nv):
                new[kk] += arow[j] * g[j][kk]
            new[nv] += arow[j] * g[j][nv]
        new[nv] += c
        rows.append(tuple(x % moduli[i] for x in new))
    return tuple(rows)


def _well_defined(rows, moduli) -> bool:
    nv = len(moduli)
    for i in range(nv):
        for j in range(nv):
            if (rows[i][j] * moduli[j]) % moduli[i]:
                return False
    return True


# An equivalence group of more maps than this is taken for bad map data.
_GROUP_LIMIT = 512


def equivalence_group(spec: ParamSetSpec, n: int, moduli: Tuple[int, ...]) -> AffineGroup:
    """The group generated by the set's equivalence maps on its grid of moduli."""
    ident = _scaling([1] * len(moduli), moduli)
    gens = []
    for item in spec.equiv:  # validate_model: each maps the indices, one target each
        denom, rows = _affine(spec.id, item[1], n, spec.indices)
        if denom != 1:
            raise MapClosureError(f"{spec.id}: map {value_to_str(item)} has non-integral "
                                  "coefficients")
        g = tuple(
            tuple(int(x) % moduli[i] for x in row) for i, row in enumerate(rows)
        )
        if not _well_defined(g, moduli):
            raise MapClosureError(f"{spec.id}: map {value_to_str(item)} is not well defined "
                                  f"mod {moduli}")
        gens.append(g)
    group = {ident}
    frontier = [ident]
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = _compose(f, g, moduli)
            if h not in group:
                if len(group) >= _GROUP_LIMIT:
                    raise MapClosureError(f"{spec.id}: equivalence group exceeds {_GROUP_LIMIT}")
                group.add(h)
                frontier.append(h)
    maps = tuple(sorted(group))
    return AffineGroup(moduli, maps, tuple(maps.index(g) for g in gens))


def _permutes(group: AffineGroup) -> bool:
    """Whether each generator has an inverse among the maps.

    Then every element has one, so the group permutes the grid.
    """
    one = _scaling([1] * len(group.moduli), group.moduli)
    return all(any(_compose(h, group.maps[g], group.moduli) == one for h in group.maps)
               for g in group.gens)


def has_index_structure(spec: ParamSetSpec) -> bool:
    """Whether a set is given on an index grid, so its classes can be counted."""
    return spec.action != "formula_only" and bool(spec.moduli)


class _SetGrid(NamedTuple):
    """An indexed set at n: its moduli, compiled exclusion (or None) and equivalence group."""

    moduli: Tuple[int, ...]
    exclude: Optional[tuple]
    group: AffineGroup


# (moduli, exclusion, equivalence maps, n) -> the set's _SetGrid, made once
# the group is known to permute the admissible tuples.  That is everything a
# grid is built from: the number of moduli names the indices, and the set's id
# appears only in errors, which are raised afresh on every call, naming the
# caller.  So sets that differ only in name share one grid: the 83 indexed
# sets of the shipped tables have 18 distinct grids at each n.
_SET_CACHE: Dict[tuple, _SetGrid] = {}

# (grid, t) -> the classes of the grid fixed by the doubling by 2^t, kept once
# the doubling's checks pass; a failing count is never kept.
_FIXED_CACHE: Dict[Tuple[_SetGrid, int], int] = {}


def _set_grid(spec: ParamSetSpec, n: int) -> _SetGrid:
    """The set's grid at n, once its equivalence group is checked to act on the classes.

    Every generator has an inverse in the group, so the group permutes the
    grid, and every generator is shown to keep the excluded tuples
    (_stable); for a permutation that is keeping the admissible ones.  A
    failure is a MapClosureError naming the set.  Neither check depends on a
    doubling, so each runs once per distinct grid and n.
    """
    if not has_index_structure(spec):
        raise ValueError(f"{spec.id} has no index structure")
    key = (spec.moduli, spec.exclude, spec.equiv, n)
    if key in _SET_CACHE:
        return _SET_CACHE[key]
    moduli = _ranges(spec.id, spec.moduli, n)
    exclude = (None if spec.exclude is None
               else _exclusion(spec.id, spec.exclude, n, spec.indices, moduli))
    group = equivalence_group(spec, n, moduli)
    if not _permutes(group):
        raise MapClosureError(f"{spec.id}: an equivalence map is not invertible mod {moduli}")
    if not all(_stable(exclude, moduli, group.maps[g]) for g in group.gens):
        raise MapClosureError(f"{spec.id}: equivalence map leaves the admissible set")
    grid = _SET_CACHE[key] = _SetGrid(moduli, exclude, group)
    return grid


def fixed_class_count(spec: ParamSetSpec, n: int, t: int = 0) -> int:
    """Classes of an indexed set fixed by the doubling s: a -> 2^t a (t = 0: every class).

    With G the equivalence group, s fixes (1/|G|) sum over g in G of
    |Fix(s o g)| classes, counting admissible fixed points only (Burnside's
    lemma twisted by s; at t = 0, Burnside's lemma), each term counted by
    _admissible_fixed.  That holds when G and s permute the admissible tuples and s
    permutes the classes.  _set_grid checks G once per distinct grid and n;
    the doubling is checked here, once per grid and t, and a failure is a
    MapClosureError naming the set:
    - 2^t is a unit mod every modulus, so s is a bijection;
    - s normalizes G, s g s^-1 in G for each generator g, so s sends classes
      to classes;
    - s is shown to keep the excluded tuples (_stable).
    """
    grid = _set_grid(spec, n)
    key = (grid, t)
    if key in _FIXED_CACHE:
        return _FIXED_CACHE[key]
    moduli, group = grid.moduli, grid.group
    if any(math.gcd(2 ** t, m) != 1 for m in moduli):
        raise MapClosureError(f"{spec.id}: doubling by 2^{t} is not invertible mod {moduli}")
    double = _scaling([pow(2, t, m) for m in moduli], moduli)
    halve = _scaling([pow(2, -t, m) for m in moduli], moduli)
    members = set(group.maps)
    if any(_compose(_compose(double, group.maps[g], moduli), halve, moduli) not in members
           for g in group.gens):
        raise MapClosureError(f"{spec.id}: doubling does not normalize the equivalence group")
    if not _stable(grid.exclude, moduli, double):
        raise MapClosureError(f"{spec.id}: doubling leaves the class set")
    total = sum(_admissible_fixed(_compose(double, g, moduli), moduli, grid.exclude)
                for g in group.maps)
    fixed = _FIXED_CACHE[key] = _orbits(spec.id, total, len(group.maps))
    return fixed


def class_count(spec: ParamSetSpec, n: int) -> int:
    return fixed_class_count(spec, n, 0)


def formula_count(spec: ParamSetSpec, n: int) -> int:
    return int_value(spec.card, n, owner=spec.id)


def family_formula_count(fam: ClassFam, n: int) -> int:
    return int_value(fam.count, n, owner=fam.id)


def _orbits(owner: str, total: int, order: int) -> int:
    """A Burnside sum divided by the group order, which must divide it."""
    orbits, rest = divmod(total, order)
    if rest:
        raise ArithmeticError(f"{owner}: Burnside sum {total} is not divisible by "
                              f"the group order {order}")
    return orbits
