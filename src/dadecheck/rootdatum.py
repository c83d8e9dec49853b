"""F4 root datum with the very-twisted Frobenius.

Matrices act on the character lattice X = Z^4 in the basis of simple roots,
row convention: a lattice vector x maps to x @ M, and the image of basis
vector e_i is row i of M.  The twist is carried by m0 = sqrt2 * F0 with
m0^2 = 2, so the Frobenius on X is the integer matrix 2^n * m0.  The
generators of W and m0 are read from the model (the weylgen and frobenius
blocks of weyl.def) and reach the code that uses them through a WeylGroup,
which holds W as tables of element indices.  Every finite group the package
walks is built by one routine, _group: W from its generators and each
F-centralizer from its own; _orbits finds both W's F-classes and the
centralizers' conjugacy classes.  One integer constant describes
Phi: the simple roots on the eps basis, doubled (_TWICE_ROOTS).  The Gram
matrix, the 48 roots (the orbit of the simple roots under the simple
reflections) and the torus charts' change from the eps basis to the
simple-root basis (_chart) are derived from it.  All of it is on Python
ints: this module loads no numpy and computes with no Fraction.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter, mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .counting import _affine, _ranges, lattice_index, triangle
from .exactnum import NotRationalInteger
from .record import Record
from .tabledsl import TableSyntaxError, WeylDataError, int_value, no_value, value

Matrix = Tuple[Tuple[int, ...], ...]


class ClosureOverflow(WeylDataError):
    """Generator closure exceeded the sanity bound (bad generator data)."""


class SingularMatrix(ValueError):
    pass


class NotLinearlyIndependent(ValueError):
    pass


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def mat_vec(v: Sequence, m: Matrix):
    # row vector times matrix
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def mat_identity(n: int = 4) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_scale(m: Matrix, c: int) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_det(m: Matrix) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    det = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        det += (-1) ** j * m[0][j] * mat_det(minor)
    return det


_IDENT = mat_identity(4)


def word_matrix(weyl: WeylGroup, word: Iterable[str]) -> Matrix:
    """Product of W's generators in the written order."""
    m = _IDENT
    for g in word:
        m = mat_mul(m, weyl.gens[g])
    return m


def _closure(gmats: Sequence[Matrix], limit: int):
    """The monoid the generators generate, breadth first, with its right multiplications.

    Returns (elements in the order found, right, tree): right[g][x] is the
    index of elements[x] gmats[g], and tree holds (x, g, p) with
    elements[x] = elements[p] gmats[g] for every element but the identity
    (index 0), each after its p.  Row i of x g is row i of x times g, and
    the rows of W's elements are the images of the simple roots, so the rows
    are interned: an element is keyed on the ids of its four rows, and a
    row's image under a generator is computed once, when an element with
    that row is first multiplied by it.  A finite monoid need not be a
    group: _group looks for the generators' inverses.
    """
    rows = list(_IDENT)  # row id -> row
    row_ids = {row: i for i, row in enumerate(rows)}
    keys = [tuple(range(4))]  # element -> the ids of its rows
    index = {keys[0]: 0}
    right: List[List[int]] = [[] for _ in gmats]
    tree = []
    cols = [tuple(zip(*gm)) for gm in gmats]
    acts: List[Dict[int, int]] = [{} for _ in gmats]  # row id -> id of row g
    for x, key in enumerate(keys):  # keys grows while it is walked
        pick = itemgetter(*key)
        for g, (gc, act) in enumerate(zip(cols, acts)):
            try:
                prod = pick(act)
            except KeyError:  # a row this generator has not yet moved
                for i in key:
                    if i not in act:
                        row = tuple(sum(map(mul, rows[i], c)) for c in gc)
                        j = act[i] = row_ids.setdefault(row, len(rows))
                        if j == len(rows):
                            rows.append(row)
                prod = pick(act)
            y = index.get(prod)
            if y is None:
                y = index[prod] = len(keys)
                keys.append(prod)
                tree.append((y, g, x))
                if len(keys) > limit:
                    raise ClosureOverflow(f"Weyl closure exceeded {limit} elements")
            right[g].append(y)
    return [itemgetter(*key)(rows) for key in keys], right, tree


class WeylGroup(NamedTuple):
    """W and the F-action on it as tables of ints, built once per root datum by ``weyl_group``.

    gens and m0 are the generator matrices and the twist (m0 m0 = 2) of the
    model's weylgen and frobenius blocks.  elems, index, right, tree and
    inverses are _group's tables of the generators, so g in right[g] and in
    tree is the position of a generator in gens.  move[g][x] is g^-1 x F(g),
    with F(v) = m0^-1 v m0, and labels and classes are _orbits' of the
    moves: the F-classes.  The tables hold elements as indices into elems.
    """

    gens: Dict[str, Matrix]
    m0: Matrix
    elems: Tuple[Matrix, ...]
    index: Dict[Matrix, int]
    right: Tuple[Tuple[int, ...], ...]
    tree: Tuple[Tuple[int, int, int], ...]
    move: Tuple[Tuple[int, ...], ...]
    inverses: Tuple[int, ...]
    labels: Tuple[int, ...]
    classes: Tuple[Tuple[int, int], ...]


def _times_left(right, tree, h: int) -> List[int]:
    """h x for every element x of a group, down its tree: h (p g) = (h p) g.

    right and tree are the group's tables (_group); h and the entries are element indices.
    """
    out = [h] * (len(tree) + 1)
    for x, g, p in tree:
        out[x] = right[g][out[p]]
    return out


def _group(found, right, tree):
    """The group _closure found, as tables of ints: (elems, index, right, tree, inverses).

    The elements are renumbered in sorted order (as the matrices sort as
    tuples), and index numbers them.  With gmats the generators that
    _closure closed: right[g][x] is x gmats[g]; tree holds (x, g, p) with
    x = p gmats[g] for every element but 1, each after its p, so a walk
    down it meets every element; inverses[x] is x^-1.
    """
    order = sorted(range(len(found)), key=found.__getitem__)
    pos = [0] * len(found)
    for i, x in enumerate(order):
        pos[x] = i
    elems = tuple(found[x] for x in order)
    right = tuple(tuple(pos[r[x]] for x in order) for r in right)
    tree = tuple((pos[x], g, pos[p]) for x, g, p in tree)
    index = {m: i for i, m in enumerate(elems)}
    one = index[_IDENT]
    # a generator's inverse is the element y with y g = 1; the closure is a
    # group once every generator has one
    try:
        left_inv = [_times_left(right, tree, r.index(one)) for r in right]  # g^-1 x
    except ValueError:
        raise WeylDataError("a Weyl generator is singular: no element of the closure "
                            "is its inverse") from None
    inverses = [one] * len(elems)
    for x, g, p in tree:  # (p g)^-1 = g^-1 p^-1
        inverses[x] = left_inv[g][inverses[p]]
    return elems, index, right, tree, tuple(inverses)


def _orbits(size: int, moves) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """The orbits of the elements 0..size-1 under the maps moves, each a table: (labels, classes).

    labels numbers the orbits in the order of their least elements, and
    classes gives each one's least element and its size.
    """
    labels = [-1] * size
    classes = []
    for x in range(size):
        if labels[x] < 0:
            labels[x] = len(classes)
            orbit = [x]
            for u in orbit:  # orbit grows while it is walked
                for mv in moves:
                    v = mv[u]
                    if labels[v] < 0:
                        labels[v] = len(classes)
                        orbit.append(v)
            classes.append((x, len(orbit)))
    return tuple(labels), tuple(classes)


def _build_weyl(gens: Dict[str, Matrix], m0: Matrix) -> WeylGroup:
    # |W(F4)| = 1152
    elems, index, right, tree, inverses = _group(*_closure(list(gens.values()), 2000))
    # F(v) = m0 v m0 / 2 is multiplicative, so F(W) = W once every F(g) lies in W
    move = []
    for gm, by_g in zip(gens.values(), right):
        twisted = mat_mul(mat_mul(m0, gm), m0)
        if any(x % 2 for row in twisted for x in row):
            raise WeylDataError("twist left the lattice; generators not in W?")
        f = index.get(tuple(tuple(x // 2 for x in row) for row in twisted))
        if f is None:
            raise WeylDataError("the F-twist of W is not W: m0 does not normalize W")
        by_f_inv = _times_left(right, tree, inverses[f])
        # g^-1 x F(g) = (F(g)^-1 x^-1 g)^-1
        move.append(tuple(inverses[by_f_inv[by_g[inverses[x]]]] for x in range(len(elems))))
    # the F-class of w is its orbit under the moves
    labels, classes = _orbits(len(elems), move)
    return WeylGroup(gens, m0, elems, index, right, tree, tuple(move), inverses, labels, classes)


def _datum_key(model) -> tuple:
    """What W and F are built from: the generator matrices and the twist m0."""
    return tuple(sorted(model.weylgens.items())), model.frobenius


# Keyed on _datum_key.
_WEYL_GROUPS: Dict[tuple, WeylGroup] = {}


def weyl_group(model) -> WeylGroup:
    """W of the model's weylgen blocks, with F from its frobenius block."""
    key = _datum_key(model)
    if key not in _WEYL_GROUPS:
        _WEYL_GROUPS[key] = _build_weyl(dict(model.weylgens), model.frobenius)
    return _WEYL_GROUPS[key]


def f_conjugacy_classes(weyl: WeylGroup):
    """Orbits of w ~ v^-1 w F(v); returns (representative, size, centralizer order).

    The representative is the least element of its class, and the classes
    come in the order of their representatives.
    """
    return [(weyl.elems[rep], size, len(weyl.elems) // size) for rep, size in weyl.classes]


def f_centralizer(weyl: WeylGroup, w: Matrix) -> Tuple[Matrix, ...]:
    """All v in W with v^-1 w F(v) = w, sorted as the matrices sort as tuples.

    image[v] = v^-1 w F(v) is filled down W's tree, image[p g] =
    move[g][image[p]], so no matrix is multiplied.  The number of elements
    is the centralizer order of the F-class of w.
    """
    target = weyl.index[w]
    image = [target] * len(weyl.elems)
    for x, g, p in weyl.tree:
        image[x] = weyl.move[g][image[p]]
    return tuple(v for v, u in zip(weyl.elems, image) if u == target)


def frobenius_matrix(weyl: WeylGroup, n: int) -> Matrix:
    """The Frobenius q*F0 on X as the integer matrix 2^n * m0."""
    return mat_scale(weyl.m0, 1 << n)


def torus_matrix(weyl: WeylGroup, w: Matrix, n: int) -> Matrix:
    """2^n * m0 @ w - 1; its cokernel on X is the character group of T^(F w^-1)."""
    return mat_sub(mat_mul(frobenius_matrix(weyl, n), w), _IDENT)


def torus_order(weyl: WeylGroup, w: Matrix, n: int) -> int:
    """|T^(F w^-1)| as |det(2^n m0 w - 1)|."""
    return abs(mat_det(torus_matrix(weyl, w, n)))


def torus_fixed_count(weyl: WeylGroup, w: Matrix, n: int) -> int:
    """Cokernel size of (2^n m0 w - 1): the independent oracle for torus_order.

    It is the index of the lattice of the matrix's rows, from their triangle.
    """
    d = lattice_index(triangle(torus_matrix(weyl, w, n), 4))
    if d == 0:
        raise SingularMatrix("torus matrix is singular")
    return d


# --- roots ------------------------------------------------------------------

# The simple roots r_1..r_4 doubled, on eps_1..eps_4: the one description of
# Phi here.  r_1, r_2 are long (e2 - e3, e3 - e4), r_3, r_4 short (e4 and
# (e1 - e2 - e3 - e4) / 2).
_TWICE_ROOTS = ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))

# 2 (r_i, r_j) = (2 r_i . 2 r_j) / 2 for the simple roots: integral, so
# inner products stay on ints
if any(sum(map(mul, a, b)) % 2 for a in _TWICE_ROOTS for b in _TWICE_ROOTS):
    raise ValueError("the Gram matrix of the simple roots is not integral")
_GRAM = tuple(tuple(sum(map(mul, a, b)) // 2 for b in _TWICE_ROOTS) for a in _TWICE_ROOTS)


def _eps_to_x(a: Sequence[int], m: int) -> List[int]:
    """A value on eps_1..eps_4 -> the value on the simple-root basis (odd order m), exactly.

    Its coordinate i is the pairing <a, r_i>, which is <a, 2 r_i> / 2 and 2 is a unit mod m.
    """
    half = pow(2, -1, m)
    return [sum(x * y for x, y in zip(a, r)) * half % m for r in _TWICE_ROOTS]


@functools.cache
def roots_in_x() -> frozenset:
    """The 48 roots of F4 as integer row vectors on the simple-root basis of X.

    Phi is the orbit of the simple roots under the simple reflections
    (Humphreys, Introduction to Lie Algebras, 10.3): s_i(x) = x - c e_i with
    the Cartan integer c = 2 (x, r_i) / (r_i, r_i), read from _GRAM.
    """
    found = list(_IDENT)
    seen = set(found)
    for x in found:  # found grows while it is walked
        for i, row in enumerate(_GRAM):
            c, rest = divmod(2 * sum(map(mul, x, row)), row[i])
            if rest:
                raise ValueError(f"{x} has no integral Cartan integer at r{i + 1}")
            y = x[:i] + (x[i] - c,) + x[i + 1:]
            if y not in seen:
                seen.add(y)
                found.append(y)
    if len(seen) != 48:
        raise ValueError(f"expected 48 roots, got {len(seen)}")
    return frozenset(seen)


def _rank(tri) -> int:
    """The rank of the lattice whose counting.triangle is tri: its nonzero pivots."""
    return sum(1 for i, row in enumerate(tri) if row[i])


def _in_lattice(v, tri) -> bool:
    """Whether v lies in the lattice whose counting.triangle is tri.

    Back-substitution, as in counting.count: v is in it exactly when each
    pivot divides what is left of v at its coordinate, and a zero pivot
    (a zero row) finds 0 there.
    """
    v = list(v)
    for i, row in enumerate(tri):
        if row[i]:
            qq, rest = divmod(v[i], row[i])
            if rest:
                return False
            if qq:
                v = [x - qq * p for x, p in zip(v, row)]
        elif v[i]:
            return False
    return True


# Keyed on pi as a tuple of rows.
_CLOSED: Dict[tuple, frozenset] = {}


def closed_subsystem(pi: Sequence[Tuple[int, ...]]) -> frozenset:
    """Z pi intersect Phi: the roots that are integer combinations of pi.

    Z pi is read from its counting.triangle, once per pi, and a root is in
    it when _in_lattice clears it; pi is dependent when the triangle has
    fewer nonzero pivots than pi has rows.
    """
    key = tuple(map(tuple, pi))
    if key not in _CLOSED:
        roots = roots_in_x()
        for r in key:
            if r not in roots:
                raise ValueError(f"{r} is not a root")
        tri = triangle(key, 4)
        if _rank(tri) < len(key):
            raise NotLinearlyIndependent("pi is linearly dependent")
        _CLOSED[key] = frozenset(r for r in roots if _in_lattice(r, tri))
    return _CLOSED[key]


# (rank, number of roots) -> the type of an irreducible root system in F4;
# B3 and B4 become C3 and C4 when fewer of their roots are long than short
_TYPES = {(1, 2): "A1", (2, 6): "A2", (2, 8): "B2", (3, 12): "A3", (3, 18): "B3",
          (4, 24): "D4", (4, 32): "B4", (4, 48): "F4"}


def subsystem_type(pi: Sequence[Tuple[int, ...]]) -> str:
    """Cartan type of the closure Z pi intersect Phi, e.g. 'B2' or 'A1xA1'.

    The closure splits into irreducible components, two roots joined where
    they are not orthogonal.  An irreducible root system is fixed by its rank
    and its number of roots, and B against C by how many of them are long
    (Humphreys, 11.4).
    """
    if not pi:
        return "A0"
    # each root's row of 2 ( , ), so a pairing is a 4-term dot product
    gram = {r: mat_vec(r, _GRAM) for r in closed_subsystem(pi)}
    left = set(gram)
    labels = []
    while left:
        comp = [left.pop()]
        for a in comp:  # comp grows while it is walked
            joined = [b for b in left if sum(map(mul, gram[a], b))]
            left.difference_update(joined)
            comp += joined
        rank = _rank(triangle(comp, 4))
        label = _TYPES.get((rank, len(comp)))
        if label is None:
            raise ValueError(f"no irreducible root system of rank {rank} has {len(comp)} roots")
        norms = [sum(map(mul, gram[r], r)) for r in comp]
        if 2 * norms.count(max(norms)) < len(comp):
            label = "C" + label[1:]
        labels.append(label)
    return "x".join(sorted(labels))


def subsystem_stable_under(pi, composite: Matrix) -> bool:
    """Does the map send every root direction of the closure into the closure?

    composite is an integer matrix on X (a multiple of an isometry), so
    stability is checked on lines: each image must be a rational multiple of
    a root of the subsystem.
    """
    psi = closed_subsystem(pi) if pi else frozenset()
    dirs = {_direction(r) for r in psi}
    return all(_direction(mat_vec(r, composite)) in dirs for r in psi)


def _direction(v):
    g = math.gcd(*v)
    if g == 0:
        return v
    w = tuple(x // g for x in v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    return w


# --- table-driven verification ------------------------------------------------


def weyl_table_checks(model):
    """|W|, the F-class census and the centralizer orders of the table."""
    weyl = weyl_group(model)
    classes = f_conjugacy_classes(weyl)
    records = [
        Record("weyl_order", "W", None, 1152, len(weyl.elems)),
        Record("f_class_count", "W", None, len(model.weylclasses), len(classes)),
        Record("f_class_partition", "W", None, len(weyl.elems),
               sum(s for _, s, _ in classes)),
    ]
    seen = set()
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        label = weyl.labels[weyl.index[word_matrix(weyl, wc.word)]]
        records.append(Record("f_class_distinct", wid, None, False, label in seen))
        seen.add(label)
        records.append(Record("centralizer_order", wid, None, wc.cent, classes[label][2]))
    return records


def torus_order_checks(model, n: int):
    """Each class's torus order from the table against det and the cokernel size."""
    records = []
    weyl = weyl_group(model)
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        w = word_matrix(weyl, wc.word)
        expected = int_value(wc.order, n, owner=wid)
        records.append(Record("torus_order_det", wid, n, expected, torus_order(weyl, w, n)))
        records.append(Record("torus_order_snf", wid, n, expected,
                              torus_fixed_count(weyl, w, n)))
    return records


def _chart(owner: str, exprs, varnames, n: int, side: str) -> Tuple[int, List[List[int]]]:
    """Coordinates affine in the indices as (D, nv + 1 rows of 4 integers mod D).

    Row k < nv is the D-scaled coefficient vector of index k and row nv the
    constant, so the point at index tuple a is sum_k a_k R_k + R_nv mod D.
    Torus-side values are on the eps basis; the change to the simple-root
    basis of X is linear mod D, so it is applied to the rows.  The rows are
    Python ints, exact at every D.
    """
    denom, rows = _affine(owner, exprs, n, varnames)
    chart = [[int(row[k] * denom) % denom for row in rows] for k in range(len(varnames) + 1)]
    if side == "torus":
        chart = [_eps_to_x(v, denom) for v in chart]
    return denom, chart


def torus_param_checks(model, n: int):
    """Table of torus parameterizations: range products, fixed points, distinct points."""
    return _torus_checks(model, n, "torus")


def dual_torus_check(model, n: int):
    """Every listed dual-torus element is (wF*)-fixed; counts match the order."""
    return _torus_checks(model, n, "dual")


def _torus_checks(model, n: int, side: str):
    """Each class's torus (or dual torus) from its chart, no point listed.

    The chart a -> sum_k a_k R_k + C mod D of _chart is affine on
    the index grid, so every point is fixed by (w . 2^n m0) exactly when C
    and each R_k with r_k > 1 are.  Where the chart is well defined on the
    grid, r_k R_k = 0 mod D, its linear part is a homomorphism, so there are
    as many distinct points as the subgroup of (Z_D)^4 that the R_k generate
    has elements: D^4 over the index of the lattice that the R_k and D I_4
    span.  Where it is not, the distinct-point record fails.
    """
    prefix = "torus_param" if side == "torus" else "dual_torus"
    records = []
    weyl = weyl_group(model)
    mf = frobenius_matrix(weyl, n)
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        if side == "torus":
            varnames, range_exprs, coords = wc.tvars, wc.tranges, wc.tcoords
        else:
            varnames, range_exprs, coords = wc.svars, wc.sranges, wc.scoords
        order = int_value(wc.order, n, owner=wid)
        ranges = _ranges(wid, range_exprs, n)
        prod = math.prod(ranges)
        if side == "torus":
            records.append(Record("torus_param_count", wid, n, order, prod))
        composite = mat_mul(word_matrix(weyl, wc.word), mf)
        denom, chart = _chart(wid, coords, varnames, n, side)
        nv = len(ranges)
        # dual points are row vectors (v M), torus points columns (M v)
        act = composite if side == "dual" else tuple(zip(*composite))
        fixed = all([x % denom for x in mat_vec(v, act)] == v
                    for k, v in enumerate(chart) if k == nv or ranges[k] > 1)
        records.append(Record(prefix + "_fixed", wid, n, True, fixed))
        lin = chart[:nv]
        if any(r * x % denom for r, row in zip(ranges, lin) for x in row):
            distinct = f"chart not well defined mod {denom}"
        else:
            lattice = lin + [[denom * (i == j) for j in range(4)] for i in range(4)]
            distinct = denom ** 4 // lattice_index(triangle(lattice, 4))
        records.append(Record(prefix + "_distinct", wid, n, order, distinct))
    return records


def pairing_checks(model, n: int):
    """The exponent pairings vanish on the torus index relations.

    The pairing is bilinear, so shifting a torus index a_r by its declared
    range must change the value by an integer for every dual basis index;
    bilinearity reduces this to the dual basis vectors.
    """
    records = []
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        tranges = [int_value(r, n, owner=wid) for r in wc.tranges]
        ok = True
        for tvar, mod in zip(wc.tvars, tranges):
            for basis in wc.svars:
                dual = {name: int(name == basis) for name in wc.svars}
                lo = {**dict.fromkeys(wc.tvars, 0), **dual}
                hi = {**dict.fromkeys(wc.tvars, 0), tvar: mod, **dual}
                delta = value(wc.pairing, n, hi, wid) - value(wc.pairing, n, lo, wid)
                try:
                    fr = delta.as_fraction()
                except NotRationalInteger as e:  # a value with a sqrt2 part
                    raise no_value(wid, wc.pairing, n, e) from None
                ok = ok and fr.denominator == 1
        records.append(Record("pairing_integral", wid, n, True, ok))
    return records


def _check_pi(model, fid: str, pi) -> None:
    """Raise TableSyntaxError naming the file, the family and the row where pi is no basis of roots."""
    where = f"{model.sources['classfam', fid]}: classfam {fid}: pi row"
    roots = roots_in_x()
    for r in pi:
        if r not in roots:
            raise TableSyntaxError(f"{where} {r} is not a root of F4")
    try:
        closed_subsystem(pi)
    except NotLinearlyIndependent:
        k = next(k for k in range(len(pi)) if _rank(triangle(pi[:k + 1], 4)) <= k)
        raise TableSyntaxError(f"{where} {pi[k]} is linearly dependent on the rows "
                               "before it") from None


def subsystem_checks(model):
    """Class-type subsystem data: Cartan type and (F w^-1)-direction stability."""
    records = []
    weyl = weyl_group(model)
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        if fam.pitype is None or fam.side != "torus":
            continue
        pi = fam.pi
        _check_pi(model, fid, pi)
        got = subsystem_type(pi)
        records.append(
            Record("subsystem_type", fid, None, fam.pitype, got)
        )
        w_inv = weyl.elems[weyl.inverses[weyl.index[word_matrix(weyl, fam.word)]]]
        composite = mat_mul(w_inv, weyl.m0)
        records.append(
            Record("subsystem_stable", fid, None, True,
                   subsystem_stable_under(pi, composite))
        )
    return records
