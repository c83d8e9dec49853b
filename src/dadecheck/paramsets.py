"""Class counts of character parameter sets and semisimple class families.

A parameter set is Z_m or Z_m1 x Z_m2 minus excluded tuples, modulo the
group generated by its affine equivalence maps.  Its classes, and those
fixed by the doubling x -> 2^t x, are counted exactly on the index grid by
Burnside's lemma: each term is a count of solutions of congruences, solved
for by _solve, so no tuple is listed.  A family is counted the same way
under the F-centralizer of its torus where its chart carries the action.
Counts are checked against the closed-form cardinality column of the
tables.  enumerate_classes still lists the classes, for ``dadecheck params
--list``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rootdatum
from .exactnum import NotRationalInteger, Rat, SqrtTwoRat
from .record import Record
from .tabledsl import (
    ClassFam,
    Model,
    ParamSetSpec,
    build_env,
    eval_expr,
    eval_expr_int,
    eval_int,
    expr_symbols,
    expr_to_str,
    pred_to_str,
)


class BudgetExceeded(OverflowError):
    """An int64 or exact-double bound, or _LISTED_TUPLES, that a count would pass.

    Its message does not name the set or family; where it becomes a skip,
    the reason is prefixed with that.
    """


class NonIntegralModulus(ValueError):
    pass


class MapClosureError(ValueError):
    pass


class _NotAffine(Exception):
    """A product or power of indices met while compiling an affine form."""


# --- affine compilation ------------------------------------------------------


# (expressions, n, index names) -> (D, rows) of _affine.  That is the whole
# key: the rows depend on nothing else (build_env(n) is a function of n), and
# they are tuples, so no caller can change a cached entry.  Errors are raised
# afresh on every call, naming the caller's owner.
_AFFINE_CACHE: Dict[tuple, Tuple[int, Tuple[Tuple[Rat, ...], ...]]] = {}


def _affine(owner: str, exprs, n: int, varnames) -> Tuple[int, Tuple[Tuple[Rat, ...], ...]]:
    """Compile expressions affine in the named indices to exact coefficients at n.

    Returns (D, rows): row j is (a_1, ..., a_v, c) with expression j equal to
    a_1*var_1 + ... + a_v*var_v + c, and D is the least common denominator of
    every entry.  One walk of the expression tree builds each row, so a
    product or power of indices is rejected whatever values it takes;
    subtrees free of indices are evaluated once, in Q(sqrt2).  Errors name
    owner, the set, family or class the expressions belong to.
    """
    key = (tuple(exprs), n, tuple(varnames))
    if key in _AFFINE_CACHE:
        return _AFFINE_CACHE[key]
    env = build_env(n)
    index = {v: i for i, v in enumerate(varnames)}
    zero = [SqrtTwoRat(0)] * len(varnames)

    def walk(node):
        """(index coefficients, or None for an index-free node; constant part)."""
        op = node[0]
        if op == "sym" and node[1] in index:
            return ([SqrtTwoRat(int(i == index[node[1]])) for i in range(len(zero))],
                    SqrtTwoRat(0))
        if op in ("int", "sym"):
            return None, eval_expr(node, env)
        if op == "neg":
            row, c = walk(node[1])
            return (None if row is None else [-a for a in row]), -c
        if op == "pow":
            if expr_symbols(node[2]) & index.keys():
                raise _NotAffine
            row, c = walk(node[1])
            e = eval_int(node[2], env)
            if row is None:
                return None, c ** e
            if e != 1:
                raise _NotAffine
            return row, c
        (ra, ca), (rb, cb) = walk(node[1]), walk(node[2])
        if op in ("add", "sub"):
            sign = 1 if op == "add" else -1
            if ra is None and rb is None:
                return None, ca + sign * cb
            return ([a + sign * b for a, b in zip(ra or zero, rb or zero)],
                    ca + sign * cb)
        if op == "mul":
            if ra is not None and rb is not None:
                raise _NotAffine
            if ra is None:
                ra, ca, cb = rb, cb, ca
            return (None if ra is None else [a * cb for a in ra]), ca * cb
        if rb is not None:  # div
            raise _NotAffine
        return (None if ra is None else [a / cb for a in ra]), ca / cb

    rows = []
    for expr in exprs:
        try:
            row, c = walk(expr)
        except _NotAffine:
            raise MapClosureError(f"{owner}: expression {expr_to_str(expr)} is not affine "
                                  f"in {', '.join(varnames)}") from None
        rows.append(tuple(a.as_fraction() for a in (row or zero) + [c]))
    result = math.lcm(*(f.denominator for row in rows for f in row)), tuple(rows)
    _AFFINE_CACHE[key] = result
    return result


_INT64_MAX = int(np.iinfo(np.int64).max)


def _fits_int64(bound: int, what: str) -> None:
    if bound > _INT64_MAX:
        raise BudgetExceeded(f"{what}: intermediate values up to {bound} overflow int64")


# The most index tuples listed at once, by _admissible, _excluded or as the
# candidates of _solve: 32 MB for each int64 array of them.  It bounds the
# memory of a count at every n; no count at n <= 8 lists more than 2^21.
_LISTED_TUPLES = 1 << 22


def _listable(size: int, what: str) -> None:
    if size > _LISTED_TUPLES:
        raise BudgetExceeded(f"{what}: {size} tuples, more than {_LISTED_TUPLES}")


def _chart(owner: str, exprs, varnames, n: int, side: str) -> Tuple[int, List[List[int]]]:
    """Coordinates affine in the indices as (D, nv + 1 rows of 4 integers mod D).

    Row k < nv is the D-scaled coefficient vector of index k and row nv the
    constant, so the point at index tuple a is sum_k a_k R_k + R_nv mod D.
    Torus-side values are on the eps basis; the change to the simple-root
    basis of X is linear mod D, so it is applied to the rows.  The rows are
    Python ints, exact at every D; callers guard their int64 arithmetic.
    """
    denom, rows = _affine(owner, exprs, n, varnames)
    chart = [[int(row[k] * denom) % denom for row in rows] for k in range(len(varnames) + 1)]
    if side == "torus":
        chart = [_eps_to_x(v, denom) for v in chart]
    return denom, chart


def _points(owner: str, exprs, varnames, arrays, n: int, side: str) -> Tuple[int, np.ndarray]:
    """Points of a parameterized family as (D, N x 4 int64 array of D * value mod D).

    arrays hold the index tuples (none for a single point).
    """
    denom, chart = _chart(owner, exprs, varnames, n, side)
    top = max((int(arr.max()) for arr in arrays if arr.size), default=0)
    _fits_int64(denom * max(denom, top + 1), "torus points")
    chart = np.array(chart, dtype=np.int64)
    npts = len(arrays[0]) if arrays else 1
    vecs = np.repeat(chart[-1:], npts, axis=0)
    for arr, row in zip(arrays, chart):
        vecs = (vecs + arr[:, None] * row) % denom
    return denom, vecs


# Twice the simple roots on eps_1..eps_4: integral rows.
_TWICE_ROOTS = tuple(tuple(int(2 * x) for x in r) for r in rootdatum._R_IN_EPS)


def _eps_to_x(a: Sequence[int], m: int) -> List[int]:
    """A value on eps_1..eps_4 -> the value on the simple-root basis (odd order m), exactly.

    Its coordinate i is the pairing <a, r_i>, which is <a, 2 r_i> / 2 and 2 is a unit mod m.
    """
    half = pow(2, -1, m)
    return [sum(x * y for x, y in zip(a, r)) * half % m for r in _TWICE_ROOTS]


# --- index grids and affine maps on them --------------------------------------


def _ranges(owner: str, range_exprs, n: int) -> Tuple[int, ...]:
    """The index ranges of a set, family or torus at n, each a positive integer."""
    env = build_env(n)
    ranges = []
    for expr in range_exprs:
        try:
            r = eval_expr_int(expr, env)
        except NotRationalInteger as e:
            raise NonIntegralModulus(f"{owner}: modulus {e}") from e
        if r <= 0:
            raise NonIntegralModulus(f"{owner}: modulus {r} <= 0")
        ranges.append(r)
    return tuple(ranges)


def _index_grid(owner: str, range_exprs, varnames, exclude, n: int):
    """The index grid Z_r1 x ... x Z_rk of a set or family at n.

    Returns (ranges, excluded): the ranges from _ranges and the sorted flat
    grid indices of the excluded tuples, solved for by _excluded (none if
    exclude is None).  The counts read nothing else of the grid.  A flat
    index must fit in int64.
    """
    ranges = _ranges(owner, range_exprs, n)
    _fits_int64(math.prod(ranges), "flat grid index")
    if exclude is None:
        return ranges, np.zeros(0, dtype=np.int64)
    return ranges, _excluded(owner, exclude, n, varnames, ranges)


def _admissible(ranges, excluded):
    """(admissible mask over the grid, admissible tuples as int64 arrays, one per index)."""
    size = math.prod(ranges)
    _listable(size, "grid")
    keep = np.ones(size, dtype=bool)
    keep[excluded] = False
    return keep, [a.ravel()[keep] for a in np.indices(ranges, dtype=np.int64)]


def _apply(lin, shift, arrays, ranges) -> List[np.ndarray]:
    """Images of the index tuples under a -> lin a + shift, mod each range.

    Row k of lin and shift[k] are reduced mod ranges[k] first, which leaves
    image k unchanged; every partial sum is then below (nv + 1) * r * (top + 1),
    with top the largest index, and that bound must fit in int64.
    """
    top = max((int(a.max()) for a in arrays if a.size), default=0)
    _fits_int64((len(arrays) + 1) * max(ranges) * (top + 1), "index map")
    return [(sum((int(c) % r) * a for c, a in zip(lin[k], arrays)) + int(shift[k]) % r) % r
            for k, r in enumerate(ranges)]


def _stable(keep, maps, arrays, ranges) -> bool:
    """Whether each (lin, shift) of maps sends a set of index tuples into itself.

    The set is given as its mask over the grid, keep, and as its tuples,
    arrays.  Checking generators suffices: a set that each generator maps
    into itself is mapped into itself by every composite, invertible or not.
    """
    return all(keep[np.ravel_multi_index(_apply(lin, shift, arrays, ranges), ranges)].all()
               for lin, shift in maps)


def _keeps_excluded(excluded, maps, ranges) -> bool:
    """Whether each (lin, shift) of maps, permutations of the grid, keeps the excluded tuples.

    excluded holds their sorted flat grid indices, and a permutation keeps
    them exactly when their images, sorted, are them again.  That is the
    same as keeping the admissible tuples, which are far more.
    """
    if not len(excluded):
        return True
    arrays = np.unravel_index(excluded, ranges)
    return all(np.array_equal(np.sort(np.ravel_multi_index(_apply(lin, shift, arrays, ranges),
                                                           ranges)), excluded)
               for lin, shift in maps)


def _solve(rows, mods, ranges) -> List[np.ndarray]:
    """The grid tuples a with c_k . a = b_k mod mods[k] for every row k.

    rows[k] is (c_k1, ..., c_kv, b_k) in integers, and a runs over the
    representatives 0 <= a_j < ranges[j].  The indices fall into blocks that
    share no row (an index in no row is a block of its own, with every value
    a solution); each block is solved alone by _solve_block, and the
    solutions are their product, listed only up to _LISTED_TUPLES.  Returns
    the solutions as int64 arrays, one per index, each tuple once.
    """
    nv = len(ranges)
    rows = [[int(x) % m for x in row] for row, m in zip(rows, mods)]
    # each index's block, by merging the blocks of the indices of each row
    block = list(range(nv))
    for row in rows:
        used = [j for j in range(nv) if row[j]]
        for j in used[1:]:
            old, new = block[j], block[used[0]]
            block = [new if b == old else b for b in block]
    if len(set(block)) == 1:
        return _solve_block(rows, mods, ranges)
    if any(row[nv] and not any(row[:nv]) for row in rows):
        return [np.zeros(0, dtype=np.int64) for _ in ranges]  # a row 0 = b with b != 0
    sols = []
    for label in sorted(set(block)):
        idx = [j for j in range(nv) if block[j] == label]
        sub = [([row[j] for j in idx] + [row[nv]], m)
               for row, m in zip(rows, mods) if any(row[j] for j in idx)]
        sols.append((idx, _solve_block([r for r, _ in sub], [m for _, m in sub],
                                       [ranges[j] for j in idx]) if sub else None))
    counts = [ranges[idx[0]] if sol is None else len(sol[0]) for idx, sol in sols]
    _listable(math.prod(counts), "congruence solver")
    out: List[Optional[np.ndarray]] = [None] * nv
    picks = np.unravel_index(np.arange(math.prod(counts), dtype=np.int64), counts)
    for (idx, sol), pick in zip(sols, picks):
        if sol is None:  # an index in no row takes every value
            out[idx[0]] = pick
        else:
            for j, x in zip(idx, sol):
                out[j] = x[pick]
    return out


def _solve_block(rows, mods, ranges) -> List[np.ndarray]:
    """_solve for rows, reduced mod mods, that do not split the indices into blocks.

    One index s is solved for from one row k while the other indices run
    over their values: for each of those, c_ks a_s = c mod m (m = mods[k])
    has, with g = gcd(c_ks, m), no solution unless g | c, and otherwise the
    solutions a_0 + j m/g, of which those below r_s are kept (m need not
    divide r_s).  (k, s) is the pair with the fewest candidates,
    (prod r / r_s) * ceil(r_s g / m), never more than the grid and listed
    only up to _LISTED_TUPLES.  The other rows are checked on the
    candidates.
    """
    nv = len(ranges)
    size = math.prod(ranges)
    # entries below m, indices and candidates below r + 2m, g * step = m
    _fits_int64((nv + 1) * max(mods) * (max(ranges) + 2 * max(mods)), "congruence solver")

    def per_tuple(k, s):
        return -(-ranges[s] * math.gcd(rows[k][s], mods[k]) // mods[k])

    k, s = min(itertools.product(range(len(rows)), range(nv)),
               key=lambda ks: size // ranges[ks[1]] * per_tuple(*ks))
    row, m, r = rows[k], mods[k], ranges[s]
    g = math.gcd(row[s], m)
    step = m // g
    count = -(-r * g // m)
    _listable(size // r * count, "congruence solver")
    others = [j for j in range(nv) if j != s]
    free = (np.unravel_index(np.arange(size // r, dtype=np.int64), [ranges[j] for j in others])
            if others else ())
    rhs = (row[nv] - sum((row[j] * a for j, a in zip(others, free)),
                         np.zeros(size // r, dtype=np.int64))) % m
    ok = rhs % g == 0
    a = [None] * nv
    for j, values in zip(others, free):
        a[j] = np.repeat(values[ok], count)
    a[s] = ((rhs[ok] // g * pow(row[s] // g, -1, step) % step)[:, None]
            + step * np.arange(count, dtype=np.int64)).ravel()
    hit = a[s] < r
    for kk, other in enumerate(rows):
        if kk != k:
            hit &= (sum(c * x for c, x in zip(other, a)) - other[nv]) % mods[kk] == 0
    return [x[hit] for x in a]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The first of each run of equal keys in a sorted array.

    With a sort, this is far faster than numpy's hashed np.unique on int64
    keys of these sizes.
    """
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _excluded(owner: str, pred, n: int, varnames, ranges) -> np.ndarray:
    """Sorted flat grid indices of the tuples an exclusion predicate holds on.

    An atom compares two affine forms modulo the common modulus of the indices
    it uses, and "m div e" tests e mod m: either way it is one congruence row,
    solved by _solve.  and / or are the intersection / union, != the
    complement in the grid.
    """
    if pred[0] != "atom":
        a = _excluded(owner, pred[1], n, varnames, ranges)
        b = _excluded(owner, pred[2], n, varnames, ranges)
        if pred[0] == "and":
            return np.intersect1d(a, b, assume_unique=True)
        # a stable sort merges the two sorted runs in linear time
        union = _distinct(np.sort(np.concatenate((a, b)), kind="stable"))
        _listable(len(union), "excluded")
        return union
    _, op, e1, e2 = pred
    if op == "div":
        m = abs(eval_expr_int(e1, build_env(n)))  # m and -m divide the same e
        if m == 0:
            raise MapClosureError(f"{owner}: modulus 0 in {pred_to_str(pred)} at n = {n}")
        denom, (row,) = _affine(owner, [e2], n, varnames)
    else:
        denom, (r1, r2) = _affine(owner, [e1, e2], n, varnames)
        row = [a - b for a, b in zip(r1, r2)]
        mods = {ranges[i] for i, a in enumerate(row[:-1]) if a} or {ranges[0]}
        if len(mods) != 1:
            raise MapClosureError(
                f"{owner}: atom {pred_to_str(pred)} mixes indices with different moduli"
            )
        (m,) = mods
    if denom != 1:
        raise MapClosureError(f"{owner}: non-integral coefficient in {pred_to_str(pred)}")
    hit = np.sort(np.ravel_multi_index(_solve([[*row[:-1], -row[-1]]], [m], ranges), ranges))
    if op == "!=":
        _listable(math.prod(ranges), "grid")
        return np.setdiff1d(np.arange(math.prod(ranges)), hit, assume_unique=True)
    return hit


# --- parameter sets ----------------------------------------------------------


@dataclass(frozen=True)
class AffineGroup:
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
    """(f o g): apply g first, then f."""
    nv = len(moduli)
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


def equivalence_group(spec: ParamSetSpec, n: int, moduli: Tuple[int, ...],
                      limit: int = 512) -> AffineGroup:
    """The group generated by the set's equivalence maps on its grid of moduli."""
    ident = _scaling([1] * len(moduli), moduli)
    gens = []
    for vars_, targets in spec.equiv:
        if tuple(vars_) != spec.indices:
            raise MapClosureError(f"{spec.id}: map variables must be {spec.indices}")
        denom, rows = _affine(spec.id, targets, n, spec.indices)
        if denom != 1:
            raise MapClosureError(f"{spec.id}: map {vars_}->... has non-integral coefficients")
        g = tuple(
            tuple(int(x) % moduli[i] for x in row) for i, row in enumerate(rows)
        )
        if not _well_defined(g, moduli):
            raise MapClosureError(f"{spec.id}: map {vars_}->... not well-defined mod {moduli}")
        gens.append(g)
    group = {ident}
    frontier = [ident]
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = _compose(f, g, moduli)
            if h not in group:
                if len(group) >= limit:
                    raise MapClosureError(f"{spec.id}: equivalence group exceeds {limit}")
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


def _set_grid(spec: ParamSetSpec, n: int):
    """(moduli, excluded) of an indexed set, as _index_grid gives them."""
    if not has_index_structure(spec):
        raise ValueError(f"{spec.id} has no index structure")
    return _index_grid(spec.id, spec.moduli, spec.indices, spec.exclude, n)


def _canonical_keys(arrays, group: AffineGroup):
    """Lexicographically least orbit member of each tuple, as its grid index."""
    best = None
    for g in group.maps:
        key = np.ravel_multi_index(_apply(*_split(g), arrays, group.moduli), group.moduli)
        best = key if best is None else np.minimum(best, key)
    return best


@dataclass
class Enumeration:
    spec_id: str
    moduli: Tuple[int, ...]
    canonical: np.ndarray  # sorted grid indices of the canonical representatives
    group: AffineGroup
    n_admissible: int

    @property
    def count(self) -> int:
        return len(self.canonical)

    def representatives(self) -> List[Tuple[int, ...]]:
        return list(zip(*(a.tolist() for a in np.unravel_index(self.canonical, self.moduli))))


def enumerate_classes(spec: ParamSetSpec, n: int) -> Enumeration:
    """Canonical representatives of the equivalence classes of an indexed set, listed."""
    moduli, excluded = _set_grid(spec, n)
    keep, arrays = _admissible(moduli, excluded)
    group = equivalence_group(spec, n, moduli)
    if not _stable(keep, [_split(group.maps[g]) for g in group.gens], arrays, moduli):
        raise MapClosureError(f"{spec.id}: equivalence map leaves the admissible set")
    if not _permutes(group):
        raise MapClosureError(f"{spec.id}: an equivalence map is not invertible mod {moduli}")
    return Enumeration(spec.id, moduli, _distinct(np.sort(_canonical_keys(arrays, group))), group,
                       len(arrays[0]))


def fixed_class_count(spec: ParamSetSpec, n: int, t: int = 0) -> int:
    """Classes of an indexed set fixed by the doubling s: a -> 2^t a (t = 0: every class).

    With G the equivalence group, s fixes (1/|G|) sum over g in G of
    |Fix(s o g)| classes, counting admissible fixed points only, each solved
    for by _fixed_count (Burnside's lemma twisted by s; at t = 0, Burnside's
    lemma); of the grid, only the excluded tuples are read.  That holds when
    G and s permute the admissible tuples and s permutes the classes, so
    each of these is checked first, and a failure is a MapClosureError
    naming the set:
    - every generator of G has an inverse in G, so G permutes the grid;
    - every generator keeps the excluded tuples; for a permutation that is
      keeping the admissible ones, which are far more;
    - 2^t is a unit mod every modulus, so s is a bijection;
    - s normalizes G, s g s^-1 in G for each generator g, so s sends classes
      to classes;
    - s keeps the excluded tuples.
    """
    moduli, excluded = _set_grid(spec, n)
    group = equivalence_group(spec, n, moduli)
    if not _permutes(group):
        raise MapClosureError(f"{spec.id}: an equivalence map is not invertible mod {moduli}")
    if not _keeps_excluded(excluded, [_split(group.maps[g]) for g in group.gens], moduli):
        raise MapClosureError(f"{spec.id}: equivalence map leaves the admissible set")
    if any(math.gcd(2 ** t, m) != 1 for m in moduli):
        raise MapClosureError(f"{spec.id}: doubling by 2^{t} is not invertible mod {moduli}")
    double = _scaling([pow(2, t, m) for m in moduli], moduli)
    halve = _scaling([pow(2, -t, m) for m in moduli], moduli)
    members = set(group.maps)
    if any(_compose(_compose(double, group.maps[g], moduli), halve, moduli) not in members
           for g in group.gens):
        raise MapClosureError(f"{spec.id}: doubling does not normalize the equivalence group")
    if not _keeps_excluded(excluded, [_split(double)], moduli):
        raise MapClosureError(f"{spec.id}: doubling leaves the class set")
    total = sum(_fixed_count(*_split(_compose(double, g, moduli)), moduli, excluded)
                for g in group.maps)
    return _orbits(spec.id, total, len(group.maps))


def class_count(spec: ParamSetSpec, n: int) -> int:
    return fixed_class_count(spec, n, 0)


def formula_count(spec: ParamSetSpec, n: int) -> int:
    return eval_expr_int(spec.card, build_env(n))


# --- semisimple class families (group side and dual side) --------------------


def family_elements(fam: ClassFam, n: int):
    """Admissible family members as (denominator, N x 4 integer array mod it)."""
    _, arrays = _admissible(*_index_grid(fam.id, fam.ranges, fam.vars, fam.exclude, n))
    return _points(fam.id, fam.coords, fam.vars, arrays, n, fam.side)


@dataclass(frozen=True)
class Centralizer:
    """A finite matrix group with its conjugacy classes and a generating set.

    mats is (|C|, 4, 4) int64; classes holds (representative, class size)
    and gens the generators, both as indices into mats.
    """

    mats: np.ndarray
    classes: Tuple[Tuple[int, int], ...]
    gens: Tuple[int, ...]


def _group_structure(mats: np.ndarray) -> Centralizer:
    """Conjugacy classes and generators of a finite matrix group, exactly.

    Every product is looked up among the elements, so the inverse of g is
    the element h with g h = 1; no inverse is computed in floating point.
    """
    size = len(mats)
    keys = rootdatum._void_rows(mats)
    order = np.argsort(keys)
    keys = keys[order]

    def index(m):
        want = rootdatum._void_rows(m)
        pos = np.minimum(np.searchsorted(keys, want), size - 1)
        if not np.array_equal(keys[pos], want):
            raise ValueError("the matrices are not closed under products")
        return order[pos]

    table = index((mats[:, None] @ mats[None]).reshape(-1, 4, 4)).reshape(size, size)  # g h
    one = int(index(np.eye(4, dtype=np.int64)[None])[0])
    inverse = np.argmax(table == one, axis=1)
    if not np.all(table[np.arange(size), inverse] == one):
        raise ValueError("an element has no inverse among the matrices")
    conj = table[table, inverse[:, None]]  # conj[g, x] is g x g^-1
    labels = np.full(size, -1)
    classes = []
    for x in range(size):
        if labels[x] < 0:
            members = np.flatnonzero(np.bincount(conj[:, x], minlength=size))
            labels[members] = len(classes)
            classes.append((x, len(members)))
    # greedy generators: each one is the first element outside the subgroup so far
    gens: List[int] = []
    inside = np.zeros(size, dtype=bool)
    inside[one] = True
    for x in range(size):
        if inside[x]:
            continue
        gens.append(x)
        frontier = np.flatnonzero(inside)
        while frontier.size:
            img = table[np.ix_(frontier, gens)].ravel()
            frontier = np.flatnonzero(np.bincount(img[~inside[img]], minlength=size))
            inside[frontier] = True
    return Centralizer(mats, tuple(classes), tuple(gens))


# Keyed on the word and the root datum: the generator matrices it is spelled
# in, which also generate the Weyl group, and the twist m0 that defines F.
_CENT_CACHE: Dict[tuple, Centralizer] = {}


def _centralizer(model: Model, word: Tuple[str, ...]) -> Centralizer:
    key = (word, rootdatum._datum_key(model))
    if key not in _CENT_CACHE:
        weyl = rootdatum.weyl_group(model)
        _CENT_CACHE[key] = _group_structure(
            rootdatum.f_centralizer(weyl, rootdatum.word_matrix(weyl, word)))
    return _CENT_CACHE[key]


def family_class_count(fam: ClassFam, model: Model, n: int) -> int:
    """Orbits of the F-centralizer of the family's torus on its admissible members.

    Counted on the index grid by Burnside's lemma where the chart carries the
    action (_burnside_count), else by the orbit kernel on the member points,
    whose orbits may pass through coordinates outside the chart.
    """
    ranges, excluded = _index_grid(fam.id, fam.ranges, fam.vars, fam.exclude, n)
    cent = _centralizer(model, fam.word)
    count = _burnside_count(fam, n, cent, ranges, excluded)
    if count is None:
        _, arrays = _admissible(ranges, excluded)
        denom, vecs = _points(fam.id, fam.coords, fam.vars, arrays, n, fam.side)
        count = _orbit_count(vecs, cent.mats, denom, fam.side)
    return count


def _left_inverse(rows, ranges: Sequence[int], denom: int) -> Optional[np.ndarray]:
    """Functionals l_k on (Z_D)^4 with l_k(R_m) = [k == m] mod r_k, as rows, or None.

    l_k is read off one coordinate whose entry in R_k is a unit mod r_k, or
    solved on a pair of coordinates whose 2 x 2 minor is a unit; either way it
    is then checked on every row.  It is well defined mod D only if r_k | D.
    """
    nv = len(ranges)
    lam = np.zeros((nv, 4), dtype=np.int64)
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
                lam[k] = cand
                break
        else:
            return None
    return lam


def _induced_maps(chart, lam, mats, ranges, denom: int, side: str):
    """Each group element g as an affine map a -> L_g a + t_g on the index grid.

    Returns (L, t) stacked over the group, or None unless phi(L_g a + t_g) =
    g phi(a) for every g, which is checked exactly on the chart's rows: each
    image of a row must be the combination of the index rows that its
    coefficients name.  Dual-side points are row vectors (v M), torus-side
    points columns (M v).
    """
    nv = len(ranges)
    act = mats if side == "dual" else mats.transpose(0, 2, 1)
    _fits_int64(max(4, nv) * denom * max(denom, int(np.abs(act).max())), "chart action")
    chart = np.array(chart, dtype=np.int64)
    img = (chart @ act) % denom  # (|C|, nv + 1, 4): R_m g and R_nv g
    img[:, nv] = (img[:, nv] - chart[nv]) % denom  # the translation part
    coef = (img @ lam.T) % np.array(ranges, dtype=np.int64)  # coef[g, m, k] = l_k(row m)
    if not np.array_equal((coef @ chart[:nv]) % denom, img):
        return None
    return coef[:, :nv].transpose(0, 2, 1), coef[:, nv]


def _fixed_count(lin, shift, ranges, excluded) -> int:
    """Admissible index tuples a with lin a + shift = a, row k mod ranges[k].

    Solved exactly by _solve, on the representatives 0 <= a_j < r_j that
    _apply acts on: row k reads m_k . a = b_k mod r_k, with m = lin - I and
    b = -shift.  The fixed tuples found in excluded, the sorted flat grid
    indices of the excluded tuples, are then taken off.  A map that is the
    identity mod r fixes every admissible tuple.
    """
    nv = len(ranges)
    rows = [[int(lin[k][j]) - (j == k) for j in range(nv)] + [-int(shift[k])]
            for k in range(nv)]
    if all(x % r == 0 for row, r in zip(rows, ranges) for x in row):
        return math.prod(ranges) - len(excluded)
    fixed = _solve(rows, ranges, ranges)
    if not len(excluded):
        return len(fixed[0])
    keys = np.ravel_multi_index(fixed, ranges)
    # sorted first, the keys' binary searches in excluded stay in cache: at a
    # million keys that saves far more time than the sort takes
    keys.sort()
    found = excluded[np.minimum(excluded.searchsorted(keys), len(excluded) - 1)] == keys
    return len(keys) - int(np.count_nonzero(found))


def _burnside_count(fam: ClassFam, n: int, cent: Centralizer, ranges, excluded) -> Optional[int]:
    """Orbits of the centralizer on the admissible members, on the index grid.

    Burnside's lemma: orbits = (1/|C|) sum over classes of |class| * |Fix(a_g)|,
    with a_g the map g induces on the index grid, and each |Fix(a_g)| solved
    by _fixed_count.  None when that does not apply: the family has no index,
    the chart has no exact left inverse, some element leaves the chart, or
    the admissible set is not stable under a generator of the centralizer
    (so under the group).

    Stability is checked on the excluded tuples, far fewer than the
    admissible ones and all that is read of the grid.  That is enough:
    phi a_g = g phi with phi injective on the grid (it has the left inverse)
    and g invertible, so a_g is injective and permutes the finite grid, and
    a permutation maps the admissible set into itself exactly when it maps
    the excluded set into itself.
    """
    if not ranges:
        return None
    nv = len(ranges)
    denom, chart = _chart(fam.id, fam.coords, fam.vars, n, fam.side)
    lam = _left_inverse(chart[:nv], ranges, denom)
    if lam is None:
        return None
    maps = _induced_maps(chart, lam, cent.mats, ranges, denom, fam.side)
    if maps is None:
        return None
    lin, shift = maps
    if not _keeps_excluded(excluded, [(lin[g], shift[g]) for g in cent.gens], ranges):
        return None
    total = sum(size * _fixed_count(lin[rep], shift[rep], ranges, excluded)
                for rep, size in cent.classes)
    return _orbits(fam.id, total, len(cent.mats))


def _orbits(owner: str, total: int, order: int) -> int:
    """A Burnside sum divided by the group order, which must divide it."""
    orbits, rest = divmod(total, order)
    if rest:
        raise ArithmeticError(f"{owner}: Burnside sum {total} is not divisible by "
                              f"the group order {order}")
    return orbits


# Points per block of the orbit kernel.  Under the largest F-centralizer (96
# elements) a point has 4 * 96 float64 images, so a block's images and their
# quotients take 3 MB and stay cache-resident.  On a 2-vCPU Xeon, blocks of
# 4096 made the n = 4 family counts about 1.5x slower; 256 to 1024 ran alike.
_ORBIT_BLOCK = 512

_EXACT_DOUBLE = 1 << 53


def _orbit_count(vecs: np.ndarray, mats: np.ndarray, denom: int, side: str) -> int:
    """Number of orbits of a matrix group on D-scaled points mod D.

    mats is the whole group, so the orbit of v is {v . M}; its canonical form
    is its lexicographically least image.  One float64 product with every
    element stacked side by side gives all images of a block of points; the
    least image is taken on two exact keys, hi = x0*D + x1 and lo = x2*D + x3.
    Sides act as in _induced_maps.

    Exactness: images x are integers with |x| < 4*D*max|M| < 2^53, so the
    product is exact.  The rounded x/D can reach the next integer only if
    x + D > 2^53, and x + D <= max(4*D*max|M|, D*D) < 2^53, so
    x - D*floor(x/D) is exact.  Both keys are below D*D.
    """
    if len(vecs) == 0:
        return 0
    mats = np.asarray(mats, dtype=np.int64)
    if side == "torus":
        mats = mats.transpose(0, 2, 1)
    if 4 * denom * int(np.abs(mats).max()) >= _EXACT_DOUBLE or denom * denom >= _EXACT_DOUBLE:
        raise BudgetExceeded(f"orbit kernel: denominator {denom} too large for exact doubles")
    size = len(mats)
    # column j*size + i is coordinate j of the image under element i
    stack = mats.transpose(1, 2, 0).reshape(4, 4 * size).astype(np.float64)
    d = float(denom)
    hi = np.empty(len(vecs))
    lo = np.empty(len(vecs))
    for start in range(0, len(vecs), _ORBIT_BLOCK):
        img = vecs[start:start + _ORBIT_BLOCK].astype(np.float64) @ stack
        quot = np.divide(img, d)
        np.floor(quot, out=quot)
        quot *= d
        img -= quot
        x = img.reshape(-1, 4, size)
        h = x[:, 0] * d + x[:, 1]
        low = x[:, 2] * d + x[:, 3]
        least = h.min(axis=1)
        hi[start:start + len(h)] = least
        lo[start:start + len(h)] = np.where(h == least[:, None], low, np.inf).min(axis=1)
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    return 1 + int(np.count_nonzero((hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])))


def family_formula_count(fam: ClassFam, n: int) -> int:
    return eval_expr_int(fam.count, build_env(n))


# --- reports -----------------------------------------------------------------


def cardinality_check(model: Model, n: int) -> List[Record]:
    """Class counts of every indexed set and every family against the table formulas.

    A count beyond the implementation's reach is a skip with the reason.
    """
    records = []
    for sid in sorted(model.paramsets):
        spec = model.paramsets[sid]
        if not has_index_structure(spec):
            continue
        try:
            got, reason = class_count(spec, n), None
        except BudgetExceeded as e:
            got, reason = None, f"{sid}: {e}"
        records.append(Record("cardinality", sid, n, formula_count(spec, n), got, reason))
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        try:
            got, reason = family_class_count(fam, model, n), None
        except BudgetExceeded as e:
            got, reason = None, f"{fid}: {e}"
        records.append(Record("family_count", fid, n, family_formula_count(fam, n), got, reason))
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
    env = build_env(n)
    q4 = eval_expr_int(("pow", ("sym", "q"), ("int", 4)), env)
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
