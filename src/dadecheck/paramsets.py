"""Class counts of semisimple class families, and the listing of set classes.

A family's classes are the orbits of the F-centralizer C of its torus
(rootdatum.f_centralizer) on its admissible members.  A family with no index
is one point, so one orbit, or none where its exclusion holds.  For any
other, C is built as W is, by rootdatum._group from greedy generators, so
its tree spells every element as a word in the generators, and its
conjugacy classes are found as W's F-classes are (_centralizer).  The
orbits are counted by Burnside's lemma on Python ints, with no member
listed, on one of two paths:

- the chart path, where the family's chart (rootdatum._chart, shared with
  the torus checks) carries the action: each g in C acts on the index grid
  as a map a_g.  Only the generators' maps are read off the chart and
  checked; a class representative's map is composed from theirs down C's
  tree, and classes whose maps coincide are counted once.  The
  admissible tuples each map fixes, and whether the generators keep the
  exclusion, come from the kernel the parameter sets use too,
  counting._admissible_fixed and counting._stable;
- the orbit path, for a one-index family whose orbits leave its chart: the
  orbits on the union of the cyclic subgroups h phi(Z_r), h in C, less those
  on the union of the h phi(E), each union made from C's listed elements
  and counted by counting._union_fixed.

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
    _admissible_fixed,
    _compose,
    _exclusion,
    _holds,
    _image,
    _one_line,
    _order,
    _orbits,
    _ranges,
    _scaling,
    _set_grid,
    _split,
    _stable,
    _union,
    _union_fixed,
    _well_defined,
    class_count,
    family_formula_count,
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


# --- listing -----------------------------------------------------------------


def _grid(ranges: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every tuple of Z_r1 x ... x Z_rk in lexicographic order, if at most _LISTED_TUPLES."""
    size = math.prod(ranges)
    if size > _LISTED_TUPLES:
        raise BudgetExceeded(f"grid: {size} tuples, more than {_LISTED_TUPLES}")
    return itertools.product(*map(range, ranges))


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


# --- the F-centralizers --------------------------------------------------------


class Centralizer(NamedTuple):
    """A subgroup of W as tables of ints, with its conjugacy classes and a generating set.

    mats holds the elements as 4 x 4 integer matrices, sorted as tuples;
    gens holds the generators g_k as indices into mats, and right, tree and
    inverses are rootdatum._group's tables of them: right[k][x] is x g_k,
    tree holds (x, k, p) with x = p g_k for every element but 1, each after
    its p, so every element is a word in the generators, read down the tree;
    inverses[x] is x^-1.  classes holds (least element, size) of each
    conjugacy class, in the order of their least elements.
    """

    mats: Tuple[Matrix, ...]
    right: Tuple[Tuple[int, ...], ...]
    tree: Tuple[Tuple[int, int, int], ...]
    inverses: Tuple[int, ...]
    classes: Tuple[Tuple[int, int], ...]
    gens: Tuple[int, ...]


# Keyed on the word and the root datum: the generator matrices it is spelled
# in, which also generate the Weyl group, and the twist m0 that defines F.
_CENT_CACHE: Dict[tuple, Centralizer] = {}


def _centralizer(model: Model, word: Tuple[str, ...]) -> Centralizer:
    """The F-centralizer of the word's element, built as W is (rootdatum._group).

    The generators are greedy: each is the first element, in sorted order,
    outside the subgroup the ones before it generate.  The class of x is
    its orbit under x -> g^-1 x g = (g^-1 x^-1 g)^-1 for the generators g,
    found by the routine that finds W's F-classes (rootdatum._orbits).
    """
    key = (word, rootdatum._datum_key(model))
    if key not in _CENT_CACHE:
        weyl = rootdatum.weyl_group(model)
        listed = rootdatum.f_centralizer(weyl, rootdatum.word_matrix(weyl, word))
        gmats: List[Matrix] = []
        closed = rootdatum._closure(gmats, 1)  # the identity alone
        inside = set(closed[0])
        for m in listed:
            if m not in inside:
                gmats.append(m)
                closed = rootdatum._closure(gmats, len(listed))
                inside = set(closed[0])
        mats, index, right, tree, inv = rootdatum._group(*closed)
        conj = [[inv[r[inv[r[x]]]] for x in range(len(mats))] for r in right]
        classes = rootdatum._orbits(len(mats), conj)[1]
        _CENT_CACHE[key] = Centralizer(mats, right, tree, inv, classes,
                                       tuple(index[m] for m in gmats))
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
    coef = [[sum(map(mul, row, l)) % r for l, r in zip(lam, ranges)] for row in img]
    index_cols = list(zip(*chart[:nv]))  # coordinate j of each index row
    for c, row in zip(coef, img):
        if [sum(map(mul, c, col)) % denom for col in index_cols] != row:
            return None
    return [[coef[m][k] for m in range(nv)] for k in range(nv)], coef[nv]


def _chart_count(fam: ClassFam, n: int, cent: Centralizer, ranges,
                 exclude) -> Union[int, str]:
    """Orbits of the centralizer on the admissible members, on the index grid, or why not.

    Burnside's lemma: orbits = (1/|C|) sum over classes of |class| times
    the admissible tuples a_g fixes, with a_g the map g induces on the grid.
    a_g is read off the chart, and checked exactly, for the generators only;
    a class representative's map is composed from theirs along its spelling
    (_composed_maps), and classes whose maps coincide are counted once, their
    sizes summed.  The path does not apply, and says which of these it found
    at the first generator that shows it, where the chart has no exact left
    inverse, a generator leaves the chart, the linear part of its map is not
    well defined on the grid (the exact count needs it), or the excluded set
    is not shown stable under the generators, so under the group.

    A composite keeps what its factors were checked for: from phi a_h =
    h phi and phi a_g = g phi, phi a_h a_g = h g phi where C acts on
    columns (the torus side), and phi a_g a_h = phi h g where it acts on
    rows (the dual side); and a product of maps well defined on the grid is
    well defined.  Stability is enough on the excluded set: phi a_g = g phi
    with phi injective on the grid (it has the left inverse) and g
    invertible, so a_g permutes the finite grid, and a permutation maps the
    admissible set into itself exactly when it maps the excluded set into
    itself.
    """
    nv = len(ranges)
    denom, chart = _chart(fam.id, fam.coords, fam.vars, n, fam.side)
    lam = _left_inverse(chart[:nv], ranges, denom)
    if lam is None:
        return "the chart has no exact left inverse"
    gens = []
    for g in cent.gens:
        a_g = _induced_map(chart, lam, _columns(cent.mats[g], fam.side), ranges, denom)
        if a_g is None:
            return "an element of the centralizer leaves the chart"
        if not _well_defined(a_g[0], ranges):
            return "the map an element induces is not well defined on the grid"
        gens.append(tuple(tuple(row) + (t,) for row, t in zip(*a_g)))
    if not all(_stable(exclude, ranges, g) for g in gens):
        return "the exclusion is not shown stable"
    maps = _composed_maps(cent, gens, fam.side, ranges, [rep for rep, _ in cent.classes])
    sizes: Dict[tuple, int] = {}
    for rep, size in cent.classes:
        sizes[maps[rep]] = sizes.get(maps[rep], 0) + size
    total = sum(size * _admissible_fixed(h, ranges, exclude) for h, size in sizes.items())
    return _orbits(fam.id, total, len(cent.mats))


def _composed_maps(cent: Centralizer, gens, side: str, ranges, elements) -> Dict[int, tuple]:
    """The grid map of each of the elements, composed from the generators' maps gens.

    A map is the rows (L_k1, ..., L_kv, t_k) of a -> L a + t, row k reduced
    mod ranges[k], as counting._compose takes it.  x = p g_k (cent.tree)
    acts on dual points, rows v M, as v p g_k, so a_x = a_k a_p, and on
    torus points, columns M v, as p g_k v, so a_x = a_p a_k.  Each element's
    map is composed once, from the nearest element whose map is known.
    """
    one = _scaling([1] * len(ranges), ranges)
    up = {x: (k, p) for x, k, p in cent.tree}  # the identity has no entry
    maps: Dict[int, tuple] = {}
    for x in elements:
        path = []
        while x not in maps and x in up:
            path.append(x)
            x = up[x][1]
        h = maps.setdefault(x, one)  # x is known, or the identity
        for x in reversed(path):
            a_k = gens[up[x][0]]
            h = maps[x] = _compose(a_k, h, ranges) if side == "dual" else _compose(h, a_k, ranges)
    return maps


def _orbit_family_count(fam: ClassFam, n: int, cent: Centralizer, ranges,
                        exclude) -> Union[int, str]:
    """Orbits meeting the admissible members of a one-index linear family, or why not.

    The members phi(Z_r) form the cyclic subgroup <v> of (Z_D)^4, with v
    the chart's index row; phi must be injective (v of order r) and the
    excluded tuples E a subgroup of Z_r, of order e (none: e = 0).  The
    orbits of C on C <v> = union of the <h v>, h in C, are counted by
    Burnside's lemma with _union_fixed, and so are those on C phi(E), the
    union of the <h w> with w a generator of phi(E).  Each union is made
    from the lines h<v> of every listed h, and counting._union drops the
    repeats.  An element of C keeps orders, so C phi(E) holds the points of
    C <v> whose order divides e and C phi(Z_r - E) the others: the orbits
    that meet the admissible members are the orbits on C <v> less those on
    C phi(E).
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
        line = _one_line(exclude, ranges)
        if line is None:
            return "the exclusion is not one cyclic subgroup"
        (x,) = line
        subgroup = tuple(x * c % denom for c in v)
    cols = [_columns(m, fam.side) for m in cent.mats]

    def orbits_on_lines(w) -> int:
        # the elements that move w alike give one vector, offered to _union once
        union = _union(space, dict.fromkeys(_moved(w, c, denom) for c in cols))
        total = sum(size * _union_fixed(union, cols[rep]) for rep, size in cent.classes)
        return _orbits(fam.id, total, len(cent.mats))

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
