"""Class counts of semisimple class families, and the listing of set classes.

A family is counted on its index grid by Burnside's lemma under the
F-centralizer of its torus (listed by rootdatum.f_centralizer, held here as
an int64 array), where its chart (rootdatum._chart, shared with the torus
checks) carries the action: each |Fix(a_g)| comes from the exact kernel of
counting.py, and the excluded tuples among the fixed points are found by
applying a_g to the listed excluded tuples.  Where the chart does not carry
the action, the orbit kernel counts the listed members.  The parameter sets
are counted in counting.py; enumerate_classes still lists their classes,
for ``dadecheck params --list`` and as a test oracle.  Counts are checked
against the closed-form cardinality column of the tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rootdatum
from .counting import (
    AffineGroup,
    MapClosureError,
    _atom_row,
    _orbits,
    _permutes,
    _ranges,
    _split,
    _well_defined,
    class_count,
    equivalence_group,
    family_formula_count,
    fixed_point_count,
    formula_count,
    has_index_structure,
)
from .record import Record
from .rootdatum import _chart
from .tabledsl import ClassFam, Model, ParamSetSpec, build_env, eval_expr_int


class BudgetExceeded(OverflowError):
    """An int64 or exact-double bound, or _LISTED_TUPLES, that a count would pass.

    Its message does not name the family or set; where it becomes a skip,
    the reason is prefixed with that.
    """


_INT64_MAX = (1 << 63) - 1


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


# --- index grids and affine maps on them --------------------------------------


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


def _solve(row, m: int, ranges) -> List[np.ndarray]:
    """The grid tuples a with c . a = b mod m, row = (c_1, ..., c_v, b) in integers.

    a runs over the representatives 0 <= a_j < ranges[j].  One index s is
    solved for while the other indices run over their values: for each of
    those, c_s a_s = c mod m has, with g = gcd(c_s, m), no solution unless
    g | c, and otherwise the solutions a_0 + j m/g, of which those below r_s
    are kept (m need not divide r_s).  s is the index with the fewest
    candidates, (prod r / r_s) * ceil(r_s g / m), never more than the grid
    and listed only up to _LISTED_TUPLES.  Returns the solutions as int64
    arrays, one per index, each tuple once.
    """
    nv = len(ranges)
    row = [int(x) % m for x in row]
    size = math.prod(ranges)
    # entries below m, indices and candidates below r + 2m, g * step = m
    _fits_int64((nv + 1) * m * (max(ranges) + 2 * m), "congruence solver")

    def candidates(s):
        return size // ranges[s] * -(-ranges[s] * math.gcd(row[s], m) // m)

    s = min(range(nv), key=candidates)
    r = ranges[s]
    g = math.gcd(row[s], m)
    step = m // g
    count = -(-r * g // m)
    _listable(candidates(s), "congruence solver")
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

    Each atom is one congruence row, read by counting._atom_row and solved
    by _solve.  and / or are the intersection / union, != the complement in
    the grid.
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
    row, m = _atom_row(owner, pred, n, varnames, ranges)
    hit = np.sort(np.ravel_multi_index(_solve(row, m, ranges), ranges))
    if pred[1] == "!=":
        _listable(math.prod(ranges), "grid")
        return np.setdiff1d(np.arange(math.prod(ranges)), hit, assume_unique=True)
    return hit


# --- listing the classes of a parameter set ---------------------------------------


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
    if not has_index_structure(spec):
        raise ValueError(f"{spec.id} has no index structure")
    moduli, excluded = _index_grid(spec.id, spec.moduli, spec.indices, spec.exclude, n)
    keep, arrays = _admissible(moduli, excluded)
    group = equivalence_group(spec, n, moduli)
    if not _stable(keep, [_split(group.maps[g]) for g in group.gens], arrays, moduli):
        raise MapClosureError(f"{spec.id}: equivalence map leaves the admissible set")
    if not _permutes(group):
        raise MapClosureError(f"{spec.id}: an equivalence map is not invertible mod {moduli}")
    return Enumeration(spec.id, moduli, _distinct(np.sort(_canonical_keys(arrays, group))), group,
                       len(arrays[0]))


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


def _void_rows(a: np.ndarray) -> np.ndarray:
    """Each int64 row (or matrix) of a as one opaque value: equal rows, equal bytes."""
    flat = np.ascontiguousarray(a, dtype=np.int64).reshape(len(a), -1)
    return flat.view(np.dtype((np.void, 8 * flat.shape[1]))).ravel()


def _group_structure(mats: np.ndarray) -> Centralizer:
    """Conjugacy classes and generators of a finite matrix group, exactly.

    Every product is looked up among the elements, so the inverse of g is
    the element h with g h = 1; no inverse is computed in floating point.
    """
    size = len(mats)
    keys = _void_rows(mats)
    order = np.argsort(keys)
    keys = keys[order]

    def index(m):
        want = _void_rows(m)
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
        cent = rootdatum.f_centralizer(weyl, rootdatum.word_matrix(weyl, word))
        _CENT_CACHE[key] = _group_structure(np.array(cent, dtype=np.int64))
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

    The fixed tuples of the grid are counted by counting.fixed_point_count,
    which raises unless lin is well defined on the grid.  Those among the
    excluded tuples, given as int64 arrays one per index, are found by
    applying the map to them one coordinate at a time, each to the tuples
    the coordinates before it kept, and taken off.  Where every tuple of
    the grid is fixed, every excluded one is.
    """
    fixed = fixed_point_count(lin, shift, ranges)
    if fixed in (0, math.prod(ranges)):
        return fixed - len(excluded[0]) if fixed else 0
    arrays = excluded
    for k, r in enumerate(ranges):
        (img,) = _apply([lin[k]], [shift[k]], arrays, (r,))
        kept = img == arrays[k]
        arrays = [a[kept] for a in arrays]
    return fixed - len(arrays[0])


def _burnside_count(fam: ClassFam, n: int, cent: Centralizer, ranges, excluded) -> Optional[int]:
    """Orbits of the centralizer on the admissible members, on the index grid.

    Burnside's lemma: orbits = (1/|C|) sum over classes of |class| * |Fix(a_g)|,
    with a_g the map g induces on the index grid, and each |Fix(a_g)| counted
    by _fixed_count.  None when that does not apply: the family has no index,
    the chart has no exact left inverse, some element leaves the chart, the
    admissible set is not stable under a generator of the centralizer (so
    under the group), or the linear part of some class representative's a_g
    is not well defined on the grid, which the exact count needs.

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
    reps = [(lin[rep].tolist(), shift[rep].tolist(), size) for rep, size in cent.classes]
    if not all(_well_defined(rep_lin, ranges) for rep_lin, _, _ in reps):
        return None
    tuples = np.unravel_index(excluded, ranges)
    total = sum(size * _fixed_count(rep_lin, rep_shift, ranges, tuples)
                for rep_lin, rep_shift, size in reps)
    return _orbits(fam.id, total, len(cent.mats))


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


# --- reports -----------------------------------------------------------------


def cardinality_check(model: Model, n: int) -> List[Record]:
    """Class counts of every indexed set and every family against the table formulas.

    A family count beyond the implementation's reach is a skip with the reason.
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
