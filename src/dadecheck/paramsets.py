"""Class counts of semisimple class families, and the listing of set classes.

A family's classes are the orbits of the F-centralizer C of its torus
(rootdatum.f_centralizer) on its admissible members.  A family with no index
is one point, so one orbit, or none where its exclusion holds.  For any
other, C's conjugacy classes and generators come from W's index tables
(_group_structure), with no matrix product, and the orbits are counted by
Burnside's lemma on Python ints, with no member listed, on one of two paths:

- the chart path, where the family's chart (rootdatum._chart, shared with
  the torus checks) carries the action: each g in C acts on the index grid
  as a map a_g, |Fix(a_g)| comes from counting.fixed_point_count, and the
  excluded tuples among the fixed ones are counted on the shape of the
  exclusion, a union of cyclic subgroups and points (_Union), or by
  inclusion-exclusion (counting._count_in) where it has a few atoms;
- the orbit path, for a one-index family whose orbits leave its chart: the
  orbits on the union of the cyclic subgroups h phi(Z_r), h in C, less those
  on the union of the h phi(E).

A family that neither path takes has no count: its record fails and names
what each path found.  The parameter sets are counted in counting.py;
class_representatives lists their classes for ``dadecheck params --list``,
up to _LISTED_TUPLES index tuples.  Counts are checked against the
closed-form cardinality column of the tables.  Nothing here needs numpy.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import rootdatum
from .counting import (
    _count_in,
    _exclusion,
    _fixed_rows,
    _keeps,
    _orbits,
    _ranges,
    _scaling,
    _set_grid,
    _split,
    _well_defined,
    class_count,
    count,
    family_formula_count,
    fixed_point_count,
    formula_count,
    has_index_structure,
)
from .record import Record
from .rootdatum import Matrix, _chart
from .tabledsl import ClassFam, Model, ParamSetSpec, int_value


class BudgetExceeded(OverflowError):
    """A grid of more than _LISTED_TUPLES index tuples that a listing would need.

    Its message does not name the set; the caller says which.
    """


# The most index tuples listed by one listing: the grid of a set listed by
# class_representatives.
_LISTED_TUPLES = 1 << 22

# The most atoms of an exclusion counted by inclusion-exclusion, which makes
# up to about 2^atoms calls of counting.count per fixed-point count.
_FEW_ATOMS = 4


# --- listing -----------------------------------------------------------------


def _holds(pred, a) -> bool:
    """Whether a compiled predicate (counting._exclusion) holds on the index tuple a."""
    if pred[0] == "atom":
        _, negated, row, m = pred
        return ((sum(map(mul, row, a)) - row[-1]) % m == 0) != negated
    if pred[0] == "and":
        return _holds(pred[1], a) and _holds(pred[2], a)
    return _holds(pred[1], a) or _holds(pred[2], a)


def _grid(ranges: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every tuple of Z_r1 x ... x Z_rk in lexicographic order, if at most _LISTED_TUPLES."""
    size = math.prod(ranges)
    if size > _LISTED_TUPLES:
        raise BudgetExceeded(f"grid: {size} tuples, more than {_LISTED_TUPLES}")
    return itertools.product(*map(range, ranges))


def _image(lin, shift, a, ranges) -> Tuple[int, ...]:
    """lin a + shift, row k mod ranges[k]."""
    return tuple((sum(map(mul, row, a)) + t) % r for row, t, r in zip(lin, shift, ranges))


def class_representatives(spec: ParamSetSpec, n: int) -> Iterator[Tuple[int, ...]]:
    """The least admissible tuple of each class of an indexed set, in increasing order.

    counting._set_grid checks that the equivalence group permutes the
    admissible tuples, so the classes are its orbits on them.  The grid is
    walked in order, and an admissible tuple that no earlier class holds
    is the least of a new class, whose tuples, its images under the group,
    are then marked.  The set and the size of its grid are checked here;
    the tuples are listed as the result is read, and what is kept is one
    byte per grid tuple, the marks.
    """
    grid = _set_grid(spec, n)
    one = _scaling([1] * len(grid.moduli), grid.moduli)
    maps = [_split(g) for g in grid.group.maps if g != one]  # a's own mark is never read
    return _least_of_orbits(grid.moduli, grid.exclude, maps, _grid(grid.moduli))


def _least_of_orbits(moduli, exclude, maps, tuples) -> Iterator[Tuple[int, ...]]:
    """The least admissible tuple of each class, tuples being the grid in order.

    maps are the group's maps but the identity, as (lin, shift).  _grid checks the size of
    the grid when it is called, before the marks are made.
    """
    marked = bytearray(math.prod(moduli))
    strides = [math.prod(moduli[k + 1:]) for k in range(len(moduli))]
    for i, a in enumerate(tuples):  # i is a's place in the grid
        if marked[i] or (exclude is not None and _holds(exclude, a)):
            continue
        yield a
        for lin, shift in maps:
            marked[sum(map(mul, _image(lin, shift, a, moduli), strides))] = 1


# --- unions of cyclic subgroups ------------------------------------------------


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
    points that no line holds, each once.
    """

    ranges: Tuple[int, ...]
    lines: Tuple[Tuple[int, ...], ...]
    orders: Tuple[int, ...]
    meets: Tuple[Tuple[int, int, int], ...]
    points: Tuple[Tuple[int, ...], ...]

    def __contains__(self, x) -> bool:
        return x in self.points or any(_span(v, x, self.ranges) == o
                                       for v, o in zip(self.lines, self.orders))


def _union(ranges, lines, points) -> _Union:
    """The _Union of the subgroups the vectors of lines generate and of points.

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
    u = _Union(ranges, tuple(gens), tuple(orders), tuple(meets), ())
    rest = []
    for p in points:
        p = tuple(x % r for x, r in zip(p, ranges))
        if p not in u and p not in rest:
            rest.append(p)
    return _Union(ranges, u.lines, u.orders, u.meets, tuple(rest))


def _union_fixed(u: _Union, image) -> int:
    """|Fix ∩ E| for E = u and a linear map of the grid, given as image(v) on reduced tuples.

    Fix ∩ <v_i> is cyclic of order s_i = ord(v_i) / ord(image(v_i) - v_i).  An
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
    fixed = sum(image(p) == p for p in u.points)
    s = [o // _order([x - y for x, y in zip(image(v), v)], ranges)
         for v, o in zip(u.lines, u.orders)]
    if not s or max(s) == 1:  # only 0, if any line
        return fixed + bool(s)
    pairs = [(i, j, math.gcd(t, s[i], s[j])) for i, j, t in u.meets]
    closure = set(s) | {t for _, _, t in pairs}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in list(closure):
            z = math.gcd(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    psi: Dict[int, int] = {}
    for g in sorted(closure):  # a proper divisor comes first
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


def _union_keeps(u: _Union, image) -> bool:
    """Whether a linear map sends each v_i into some <v_j> and each point into E.

    That is enough for it to send E into itself, not necessary.
    """
    return all(image(v) in u for v in u.lines) and all(image(p) in u for p in u.points)


def _terms(pred, op: str):
    """The operands of a tree of op nodes."""
    if pred[0] == op:
        return _terms(pred[1], op) + _terms(pred[2], op)
    return [pred]


def _line(atom, ranges) -> Optional[Tuple[int, ...]]:
    """A generator of the solutions of the atom c . a = 0 mod m, or None where it finds none.

    The candidates are r / |H| on one index, and on more a vector with a 1 at
    one index and, at an index whose coefficient is a unit mod m, what solves
    the atom.  A candidate generates the solutions when it solves the atom
    and its order is their number.
    """
    _, _, row, m = atom
    nv = len(ranges)
    if row[nv] % m:
        return None
    size = count([row], [m], ranges)
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


def _union_of(exclude, ranges) -> Optional[_Union]:
    """A compiled exclusion as a _Union, or None where it is not an "or" of lines and points.

    A line is an atom whose solutions _line finds a generator of; a point an
    atom, or an "and" of atoms, that _pinned pins to one tuple (a term that
    does not hold there holds nowhere).
    """
    lines, points = [], []
    for term in _terms(exclude, "or"):
        atoms = _terms(term, "and")
        if any(a[0] != "atom" or a[1] for a in atoms):
            return None
        line = _line(atoms[0], ranges) if len(atoms) == 1 else None
        if line is not None:
            lines.append(line)
            continue
        point = _pinned(atoms, ranges)
        if point is None:
            return None
        if all(_holds(a, point) for a in atoms):
            points.append(point)
    return _union(ranges, lines, points)


# --- the F-centralizers --------------------------------------------------------


class Centralizer(NamedTuple):
    """A finite matrix group with its conjugacy classes and a generating set.

    mats holds the elements as 4 x 4 integer matrices; classes holds
    (representative, class size) and gens the generators, both as indices
    into mats.
    """

    mats: Tuple[Matrix, ...]
    classes: Tuple[Tuple[int, int], ...]
    gens: Tuple[int, ...]


def _group_structure(weyl: rootdatum.WeylGroup, mats: Sequence[Matrix]) -> Centralizer:
    """Conjugacy classes and generators of a subgroup of W, on W's index tables.

    The generators are greedy: each is the first element outside the
    subgroup so far.  Products are read from each generator's table of
    left multiplications (rootdatum._times_left), and the class of x is its
    orbit under x -> g x g^-1 = left_g[(left_g[x^-1])^-1] for the generators
    g, with the inverses from weyl.inverses.  Every product is looked up
    among the elements; none outside raises ValueError.
    """
    mats = tuple(mats)
    members = [weyl.index[m] for m in mats]  # W index of each element
    pos = {x: i for i, x in enumerate(members)}

    def at(x):
        try:
            return pos[x]
        except KeyError:
            raise ValueError("the matrices are not closed under products") from None

    gens: List[int] = []
    lefts: List[List[int]] = []  # g y for every y in W, one table per generator g
    inside = {weyl.index[rootdatum.mat_identity()]}
    for x, w in enumerate(members):
        if w in inside:
            continue
        gens.append(x)
        lefts.append(rootdatum._times_left(weyl.right, weyl.tree, w))
        frontier = list(inside)
        while frontier:
            frontier = [z for z in {left[y] for y in frontier for left in lefts}
                        if z not in inside]
            inside.update(frontier)
    if not inside <= pos.keys():
        raise ValueError("the matrices are not closed under products")
    inv = weyl.inverses
    label = [False] * len(mats)
    classes = []
    for x in range(len(mats)):
        if label[x]:
            continue
        label[x] = True
        orbit = [members[x]]
        for y in orbit:  # orbit grows while it is walked
            for left in lefts:
                z = left[inv[left[inv[y]]]]
                i = at(z)
                if not label[i]:
                    label[i] = True
                    orbit.append(z)
        classes.append((x, len(orbit)))
    return Centralizer(mats, tuple(classes), tuple(gens))


# Keyed on the word and the root datum: the generator matrices it is spelled
# in, which also generate the Weyl group, and the twist m0 that defines F.
_CENT_CACHE: Dict[tuple, Centralizer] = {}


def _centralizer(model: Model, word: Tuple[str, ...]) -> Centralizer:
    key = (word, rootdatum._datum_key(model))
    if key not in _CENT_CACHE:
        weyl = rootdatum.weyl_group(model)
        cent = rootdatum.f_centralizer(weyl, rootdatum.word_matrix(weyl, word))
        _CENT_CACHE[key] = _group_structure(weyl, cent)
    return _CENT_CACHE[key]


def _moved(v, cols, denom: int) -> Tuple[int, ...]:
    """The image of a member's D-scaled row v mod D under the element whose _columns are cols."""
    return tuple(sum(map(mul, v, c)) % denom for c in cols)


def _columns(mat: Matrix, side: str) -> Matrix:
    """The columns of the matrix that acts on members' rows.

    Dual-side points are rows (v M), torus-side points columns (M v), which
    as a row is v M^T: the columns of M^T are the rows of M.
    """
    return tuple(zip(*mat)) if side == "dual" else mat


# --- semisimple class families (group side and dual side) --------------------


def family_class_count(fam: ClassFam, model: Model, n: int) -> Union[int, str]:
    """Orbits of the F-centralizer of the family's torus that meet its admissible members.

    A family with no index counts 1, or 0 where its exclusion holds; any
    other is counted by the chart path where the chart carries the action,
    else by the orbit path (see the module docstring).  Where neither path
    applies, the result is no count but the family id and what each path
    found.
    """
    ranges = _ranges(fam.id, fam.ranges, n)
    exclude = None if fam.exclude is None else _exclusion(fam.id, fam.exclude, n, fam.vars,
                                                          ranges)
    if not ranges:
        _chart(fam.id, fam.coords, fam.vars, n, fam.side)  # raises where a coordinate does
        return 0 if exclude is not None and _holds(exclude, ()) else 1
    cent = _centralizer(model, fam.word)
    chart = _chart_count(fam, n, cent, ranges, exclude)
    if isinstance(chart, int):
        return chart
    orbit = _orbit_family_count(fam, n, cent, ranges, exclude)
    if isinstance(orbit, int):
        return orbit
    return f"{fam.id}: no Burnside path: chart path: {chart}; orbit path: {orbit}"


def _left_inverse(rows, ranges: Sequence[int], denom: int) -> Optional[List[List[int]]]:
    """Functionals l_k on (Z_D)^4 with l_k(R_m) = [k == m] mod r_k, as rows, or None.

    l_k is read off one coordinate whose entry in R_k is a unit mod r_k, or
    solved on a pair of coordinates whose 2 x 2 minor is a unit; either way it
    is then checked on every row.  It is well defined mod D only if r_k | D.
    """
    nv = len(ranges)
    lam = []
    pairs = list(itertools.combinations(range(4), 2)) if nv == 2 else []
    for k, r in enumerate(ranges):
        if denom % r or any(r * x % denom for x in rows[k]):
            return None
        for cols in [(j,) for j in range(4)] + pairs:
            minor = [[rows[m][j] for j in cols] for m in range(nv)]
            if len(cols) == 1:
                det, sol = minor[k][0], [1]
            else:
                (a, b), (c, d) = minor
                det, sol = a * d - b * c, ([d, -c] if k == 0 else [-b, a])
            if math.gcd(det, r) != 1:
                continue
            cand = [0] * 4
            for j, x in zip(cols, sol):
                cand[j] = x * pow(det, -1, r) % r
            if all(sum(x * y for x, y in zip(rows[m], cand)) % r == int(m == k)
                   for m in range(nv)):
                lam.append(cand)
                break
        else:
            return None
    return lam


def _induced_map(chart, lam, cols: Matrix, ranges, denom: int):
    """A group element, given by its _columns, as an affine map a -> L a + t of the index grid.

    Returns (L, t), or None unless phi(L a + t) = g phi(a), which is checked
    exactly on the chart's rows: each image of a row must be the
    combination of the index rows that its coefficients name.
    """
    nv = len(ranges)
    img = [list(_moved(row, cols, denom)) for row in chart]  # R_m g and R_nv g
    img[nv] = [(x - c) % denom for x, c in zip(img[nv], chart[nv])]  # the translation part
    coef = [[sum(x * y for x, y in zip(row, l)) % r for l, r in zip(lam, ranges)] for row in img]
    for c, row in zip(coef, img):
        if [sum(a * rk[j] for a, rk in zip(c, chart)) % denom for j in range(4)] != row:
            return None
    return [[coef[m][k] for m in range(nv)] for k in range(nv)], coef[nv]


def _chart_count(fam: ClassFam, n: int, cent: Centralizer, ranges,
                 exclude) -> Union[int, str]:
    """Orbits of the centralizer on the admissible members, on the index grid, or why not.

    Burnside's lemma: orbits = (1/|C|) sum over classes of |class| times
    the admissible tuples a_g fixes, with a_g the map g induces on the grid.
    a_g is read for the class representatives and the generators only.  The
    path does not apply, and says which of these it found, where the chart
    has no exact left inverse, an element leaves the chart, the linear part
    of some a_g is not well defined on the grid (the exact count needs it),
    or the excluded set is not shown stable under the generators, so under
    the group.

    The tuples a_g fixes are a coset of a subgroup, counted by
    fixed_point_count, and the excluded ones among them by _excluded_fixed.
    Stability is enough on the excluded set: phi a_g = g phi with phi
    injective on the grid (it has the left inverse) and g invertible, so
    a_g permutes the finite grid, and a permutation maps the admissible set
    into itself exactly when it maps the excluded set into itself.
    """
    nv = len(ranges)
    denom, chart = _chart(fam.id, fam.coords, fam.vars, n, fam.side)
    lam = _left_inverse(chart[:nv], ranges, denom)
    if lam is None:
        return "the chart has no exact left inverse"
    maps = {}
    for g in {*cent.gens, *(rep for rep, _ in cent.classes)}:
        a_g = _induced_map(chart, lam, _columns(cent.mats[g], fam.side), ranges, denom)
        if a_g is None:
            return "an element of the centralizer leaves the chart"
        if not _well_defined(a_g[0], ranges):
            return "the map an element induces is not well defined on the grid"
        maps[g] = a_g
    excluded = _excluded_fixed(exclude, ranges, list(maps.values()),
                               [maps[g] for g in cent.gens])
    if excluded is None:
        return "the exclusion is not shown stable"
    total = 0
    for rep, size in cent.classes:
        lin, shift = maps[rep]
        fixed = fixed_point_count(lin, shift, ranges)
        total += size * (fixed - excluded(lin, shift) if fixed else 0)
    return _orbits(fam.id, total, len(cent.mats))


def _excluded_fixed(exclude, ranges, maps, gens):
    """A function of (L, t) that counts the excluded tuples a -> L a + t fixes, or None.

    None unless the excluded set is shown stable under the maps gens.  The
    count is _union_fixed where the exclusion is a union of lines and
    points and every map of maps is linear, else counting._count_in where
    the exclusion has at most _FEW_ATOMS atoms; the stability check goes
    with it, _union_keeps or counting._keeps.
    """
    if exclude is None:
        return lambda lin, shift: 0

    def image(lin, shift):
        return lambda v: _image(lin, shift, v, ranges)

    union = _union_of(exclude, ranges)
    if union is not None and not any(any(shift) for _, shift in maps):
        if all(_union_keeps(union, image(*g)) for g in gens):
            return lambda lin, shift: _union_fixed(union, image(lin, shift))
    elif _atoms(exclude) <= _FEW_ATOMS:
        if all(_keeps(exclude, [row + [t] for row, t in zip(*g)], ranges) for g in gens):
            return lambda lin, shift: _count_in(_fixed_rows(lin, shift), list(ranges), ranges,
                                                (exclude,))
    return None


def _atoms(pred) -> int:
    return 1 if pred[0] == "atom" else _atoms(pred[1]) + _atoms(pred[2])


def _orbit_family_count(fam: ClassFam, n: int, cent: Centralizer, ranges,
                        exclude) -> Union[int, str]:
    """Orbits meeting the admissible members of a one-index linear family, or why not.

    The members phi(Z_r) form the cyclic subgroup <v> of (Z_D)^4, with v
    the chart's index row; phi must be injective (v of order r) and the
    excluded tuples E a subgroup of Z_r, of order e (none: e = 0).  The
    orbits of C on C <v> = union of the <h v>, h in C, are counted by
    Burnside's lemma with _union_fixed, and so are those on C phi(E), the
    union of the <h w> with w a generator of phi(E).  An element of C keeps
    orders, so C phi(E) holds the points of C <v> whose order divides e and
    C phi(Z_r - E) the others: the orbits that meet the admissible members
    are the orbits on C <v> less those on C phi(E).
    """
    if len(ranges) != 1:
        return "more than one index"
    denom, (v, const) = _chart(fam.id, fam.coords, fam.vars, n, fam.side)
    space = (denom,) * 4
    if any(const):
        return "the chart is not linear"
    if _order(v, space) != ranges[0]:
        return "the chart is not injective"
    if exclude is None:
        subgroup = None
    else:
        union = _union_of(exclude, ranges)
        if union is None or union.points or len(union.lines) != 1:
            return "the exclusion is not one cyclic subgroup"
        ((x,),) = union.lines
        subgroup = tuple(x * c % denom for c in v)
    cols = [_columns(m, fam.side) for m in cent.mats]

    def orbits_on_lines(w) -> int:
        union = _union(space, [_moved(w, c, denom) for c in cols], [])
        total = sum(size * _union_fixed(union, lambda p: _moved(p, cols[rep], denom))
                    for rep, size in cent.classes)
        return _orbits(fam.id, total, len(cols))

    return orbits_on_lines(v) - (0 if subgroup is None else orbits_on_lines(subgroup))


# --- reports -----------------------------------------------------------------


def cardinality_check(model: Model, n: int) -> List[Record]:
    """Class counts of every indexed set and every family against the table formulas.

    A family that no Burnside path counts fails, its actual naming why.
    """
    records = []
    for sid in sorted(model.paramsets):
        spec = model.paramsets[sid]
        if not has_index_structure(spec):
            continue
        got = class_count(spec, n)
        records.append(Record("cardinality", sid, n, formula_count(spec, n), got))
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        records.append(Record("family_count", fid, n, family_formula_count(fam, n),
                              family_class_count(fam, model, n)))
    return records


def trusted_input_flags(model: Model) -> List[Record]:
    """Surface the table cells taken on trust rather than recomputed.

    The two blank character counts are identified with the regular dual-series
    class counts, and the semisimple fixed-point formula comes from an
    external source; reports carry these as informational records.
    """
    out = []
    for sid in sorted(model.paramsets):
        spec = model.paramsets[sid]
        if spec.note and (
            spec.note.startswith("count_taken_from") or "external" in spec.note
        ):
            out.append(Record("trusted_input", f"{sid}:{spec.note}", None,
                              "flagged", "flagged"))
    return out


def semisimple_sum_checks(model: Model, n: int) -> List[Record]:
    """Class counts on each side, and the semisimple member counts, sum to q^4."""
    q4 = int_value(("pow", ("sym", "q"), ("int", 4)), n)
    out = []
    for side, tag in (("torus", "classes_side_sum"), ("dual", "dual_side_sum")):
        total = 0
        for fam in model.classfams.values():
            if fam.side == side:
                total += family_formula_count(fam, n)
        out.append(Record(tag, side, n, q4, total))
    ss = model.paramsets.get("GI_ss")
    if ss is not None and ss.members:
        total = sum(
            formula_count(model.paramsets[m], n) for m in ss.members
        )
        out.append(Record("ss_member_sum", "GI_ss", n, q4, total))
    return out
