"""F4 root datum with the very-twisted Frobenius.

Matrices act on the character lattice X = Z^4 in the basis of simple roots,
row convention: a lattice vector x maps to x @ M, and the image of basis
vector e_i is row i of M.  The twist is carried by m0 = sqrt2 * F0 with
m0^2 = 2, so the Frobenius on X is the integer matrix 2^n * m0.  The
generators of W and m0 are read from the model (the weylgen and frobenius
blocks of weyl.def) and reach the code that uses them through a WeylGroup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .counting import lattice_index, triangle
from .record import Record
from .tabledsl import WeylDataError

Matrix = Tuple[Tuple[int, ...], ...]


class ClosureOverflow(WeylDataError):
    """Generator closure exceeded the sanity bound (bad generator data)."""


class SingularMatrix(ValueError):
    pass


class NotLinearlyIndependent(ValueError):
    pass


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def mat_vec(v: Sequence, m: Matrix):
    # row vector times matrix
    n = len(v)
    return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))


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


def _void_rows(a: np.ndarray) -> np.ndarray:
    """Each int64 row (or matrix) of a as one opaque value: equal rows, equal bytes."""
    flat = np.ascontiguousarray(a, dtype=np.int64).reshape(len(a), -1)
    return flat.view(np.dtype((np.void, 8 * flat.shape[1]))).ravel()


# Bound on the entries met while closing up the generators: it keeps every
# int64 product of two of them exact.
_ENTRY_BOUND = 1 << 20


def _closure(gmats: Sequence[Matrix], limit: int) -> np.ndarray:
    """The group the generators generate, sorted as the matrices sort as tuples.

    Breadth first: each layer is the previous layer's new elements times every
    generator.  The monoid this closes is finite only if it is a group.
    """
    gens = np.array(gmats, dtype=np.int64)
    elems = np.eye(4, dtype=np.int64)[None]
    frontier = elems
    while len(frontier):
        if np.abs(frontier).max() > _ENTRY_BOUND:
            raise ClosureOverflow(f"Weyl closure met an entry above {_ENTRY_BOUND}")
        pool = np.concatenate([elems, (frontier[:, None] @ gens).reshape(-1, 4, 4)])
        # the first of each run of equal matrices, by a stable sort (no np.unique,
        # which imports numpy.ma)
        keys = _void_rows(pool)
        order = np.argsort(keys, kind="stable")
        first = np.ones(len(pool), dtype=bool)
        first[1:] = keys[order[1:]] != keys[order[:-1]]
        first = order[first]
        frontier = pool[first[first >= len(elems)]]
        elems = np.concatenate([elems, frontier])
        if len(elems) > limit:
            raise ClosureOverflow(f"Weyl closure exceeded {limit} elements")
    return elems[np.lexsort(elems.reshape(len(elems), -1).T[::-1])]


@dataclass(frozen=True)
class WeylGroup:
    """W and the F-action on it as int64 arrays, built once per root datum by ``weyl_group``.

    gens and m0 are the generator matrices and the twist (m0 m0 = 2) of the
    model's weylgen and frobenius blocks.  elems is sorted as the matrices
    sort as tuples; twisted and inverses hold m0^-1 w m0 and w^-1 element by
    element.  labels numbers the F-classes in the order of their least
    elements, and classes gives each one's least element (an index into
    elems) and its size.
    """

    gens: Dict[str, Matrix]
    m0: Matrix
    elems: np.ndarray
    twisted: np.ndarray
    inverses: np.ndarray
    labels: np.ndarray
    classes: Tuple[Tuple[int, int], ...]
    keys: np.ndarray  # _void_rows(elems) in byte order, for _lookup
    order: np.ndarray  # positions in elems of keys


def _lookup(keys: np.ndarray, order: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Positions in elems of the given (k, 4, 4) matrices, which must lie in W."""
    want = _void_rows(mats)
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if not np.array_equal(keys[pos], want):
        raise WeylDataError("the F-twist of W is not W: m0 does not normalize W")
    return order[pos]


def _position(weyl: WeylGroup, w: Matrix) -> int:
    """The index in weyl.elems of an element of W."""
    return int(_lookup(weyl.keys, weyl.order, np.array([w], dtype=np.int64))[0])


def _build_weyl(gens: Dict[str, Matrix], m0: Matrix) -> WeylGroup:
    elems = _closure(list(gens.values()), 2000)  # |W(F4)| = 1152
    m0_arr = np.array(m0, dtype=np.int64)
    twisted = m0_arr @ elems @ m0_arr
    if np.any(twisted % 2):
        raise WeylDataError("twist left the lattice; generators not in W?")
    twisted //= 2
    try:
        inverses = np.rint(np.linalg.inv(elems)).astype(np.int64)
    except np.linalg.LinAlgError:
        raise WeylDataError("a Weyl generator is singular") from None
    if not np.all(elems @ inverses == np.eye(4, dtype=np.int64)):
        raise WeylDataError("a Weyl generator has no integral inverse")
    keys = _void_rows(elems)
    order = np.argsort(keys)
    keys = keys[order]
    # the F-class of w is {v^-1 w F(v)}: one batched product per class, its
    # representative the least element no earlier class holds
    labels = np.full(len(elems), -1)
    classes = []
    while (free := np.flatnonzero(labels < 0)).size:
        orbit = _lookup(keys, order, inverses @ elems[free[0]] @ twisted)
        labels[orbit] = len(classes)
        classes.append((int(free[0]), int(np.count_nonzero(np.bincount(orbit)))))
    return WeylGroup(gens, m0, elems, twisted, inverses, labels, tuple(classes), keys, order)


def _datum_key(model) -> tuple:
    """What W and F are built from: the generator matrices and the twist m0."""
    return tuple(sorted(model.weylgens.items())), model.frobenius


# Keyed on _datum_key.
_WEYL_ARRAYS: Dict[tuple, WeylGroup] = {}


def weyl_group(model) -> WeylGroup:
    """W of the model's weylgen blocks, with F from its frobenius block."""
    key = _datum_key(model)
    if key not in _WEYL_ARRAYS:
        _WEYL_ARRAYS[key] = _build_weyl(dict(model.weylgens), model.frobenius)
    return _WEYL_ARRAYS[key]


def _as_matrix(a: np.ndarray) -> Matrix:
    return tuple(map(tuple, a.tolist()))


def f_conjugacy_classes(weyl: WeylGroup):
    """Orbits of w ~ v^-1 w F(v); returns (representative, size, centralizer order).

    The representative is the least element of its class, and the classes
    come in the order of their representatives.
    """
    return [(_as_matrix(weyl.elems[rep]), size, len(weyl.elems) // size)
            for rep, size in weyl.classes]


def f_centralizer(weyl: WeylGroup, w: Matrix) -> np.ndarray:
    """All v in W with v^-1 w F(v) = w, as a (k, 4, 4) int64 array.

    The number of elements is the centralizer order of the F-class of w.
    """
    wm = np.array(w, dtype=np.int64)
    return weyl.elems[np.all(wm @ weyl.twisted == weyl.elems @ wm, axis=(1, 2))]


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

# rows of the eps -> simple-root change of basis: r_i written in eps coords
_R_IN_EPS = (
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),
)

# 2 (r_i, r_j) for the simple roots: integral, so inner products stay on ints
_GRAM = tuple(tuple(int(2 * sum(x * y for x, y in zip(a, b))) for b in _R_IN_EPS)
              for a in _R_IN_EPS)


def _eps_roots_doubled() -> List[Tuple[int, ...]]:
    """Twice each root of F4 on the eps basis: 2(+-e_i), 2(+-e_i +- e_j), (+-1, +-1, +-1, +-1)."""
    roots = []
    for i in range(4):
        for s in (2, -2):
            v = [0] * 4
            v[i] = s
            roots.append(tuple(v))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 4
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    roots.extend(itertools.product((1, -1), repeat=4))
    return roots


def _solve_in_basis(x, basis_rows):
    """Coordinates c with x = sum c_i * basis_rows[i] (exact)."""
    n = len(basis_rows)
    aug = [[Fraction(basis_rows[i][j]) for i in range(n)] + [Fraction(x[j])]
           for j in range(len(x))]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    if r < n:
        raise NotLinearlyIndependent("basis rows are dependent")
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            raise ValueError("vector outside the span")
    sol = [Fraction(0)] * n
    for row_idx, c in enumerate(piv_cols):
        sol[c] = aug[row_idx][n]
    return tuple(sol)


_ROOTS_X: Optional[frozenset] = None


def roots_in_x() -> frozenset:
    """The 48 roots of F4 as integer row vectors on the simple-root basis of X."""
    global _ROOTS_X
    if _ROOTS_X is None:
        # e_j on the simple-root basis, one exact solve each
        eps = [_solve_in_basis(e, _R_IN_EPS) for e in _IDENT]
        if any(x.denominator != 1 for row in eps for x in row):
            raise ValueError("root has non-integral simple-root coordinates")
        eps = tuple(tuple(int(x) for x in row) for row in eps)
        out = set()
        for v in _eps_roots_doubled():
            c = mat_vec(v, eps)
            if any(x % 2 for x in c):
                raise ValueError("root has non-integral simple-root coordinates")
            out.add(tuple(x // 2 for x in c))
        if len(out) != 48:
            raise ValueError(f"expected 48 roots, got {len(out)}")
        _ROOTS_X = frozenset(out)
    return _ROOTS_X


def _inner2(a, b) -> int:
    """2 (a, b) for vectors on the simple-root basis."""
    return sum(a[i] * g * b[j] for i, row in enumerate(_GRAM) for j, g in enumerate(row))


def closed_subsystem(pi: Sequence[Tuple[int, ...]]) -> frozenset:
    """Z pi intersect Phi: the roots that are integer combinations of pi.

    One |pi| x |pi| minor of pi is inverted exactly, once, as A / d with A
    integral.  A root's only candidate coefficients are its entries on those
    columns times A / d; rounded down, they rebuild the root on every
    coordinate exactly when it is an integer combination of pi.
    """
    if not pi:
        return frozenset()
    for r in pi:
        if r not in roots_in_x():
            raise ValueError(f"{r} is not a root")
    k = len(pi)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for cols in itertools.combinations(range(4), k):
        minor = [[r[c] for c in cols] for r in pi]
        try:
            inv = [_solve_in_basis(e, minor) for e in units]
        except NotLinearlyIndependent:
            continue
        break
    else:
        raise NotLinearlyIndependent("pi is linearly dependent")
    d = math.lcm(*(x.denominator for row in inv for x in row))
    scaled = np.array([[int(x * d) for x in row] for row in inv], dtype=np.int64)
    roots = sorted(roots_in_x())
    vecs = np.array(roots, dtype=np.int64)
    coeffs = (vecs[:, list(cols)] @ scaled) // d
    keep = np.all(coeffs @ np.array(pi) == vecs, axis=1)
    return frozenset(r for r, kept in zip(roots, keep) if kept)


def subsystem_type(pi: Sequence[Tuple[int, ...]]) -> str:
    """Cartan type of the closure Z pi intersect Phi, e.g. 'B2' or 'A1xA1'."""
    if not pi:
        return "A0"
    psi = closed_subsystem(pi)
    # choose a simple system: positives w.r.t. a generic functional
    weights = (1, 10, 100, 1000)
    pos = [r for r in psi if sum(w * x for w, x in zip(weights, r)) > 0]
    simples = []
    for r in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(r, s)) in pos for s in pos if s != r
        )
        if not decomposable:
            simples.append(r)
    # simples i and j are joined where the Cartan integer n_ij = 2 (ri, rj) / (rj, rj) is not 0
    k = len(simples)
    adj = {i: [] for i in range(k)}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if _inner2(simples[i], simples[j]) != 0:
                adj[i].append(j)
    comps = []
    unvisited = set(range(k))
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y in unvisited:
                    unvisited.remove(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append(sorted(comp))
    labels = []
    for comp in comps:
        labels.append(_component_type([simples[i] for i in comp]))
    return "x".join(sorted(labels))


def _component_type(simples) -> str:
    k = len(simples)
    if k == 1:
        return "A1"
    # bond strengths n_ij * n_ji = 4 (ri, rj)^2 / ((ri, ri) (rj, rj)), rounded down
    bonds = []
    for i in range(k):
        for j in range(i + 1, k):
            gij = _inner2(simples[i], simples[j])
            if gij:
                bonds.append(4 * gij * gij // (_inner2(simples[i], simples[i])
                                               * _inner2(simples[j], simples[j])))
    if k == 2:
        if bonds == [1]:
            return "A2"
        if bonds == [2]:
            return "B2"
        if bonds == [3]:
            return "G2"
        raise ValueError(f"unrecognised rank-2 bond {bonds}")
    if k == 3:
        if sorted(bonds) == [1, 1]:
            return "A3"
        if sorted(bonds) == [1, 2]:
            return "B3"
        raise ValueError(f"unrecognised rank-3 bonds {bonds}")
    if k == 4:
        if sorted(bonds) == [1, 1, 2]:
            return "F4"
        if sorted(bonds) == [1, 1, 1]:
            return "A4" if _is_path(simples) else "D4"
    raise ValueError(f"unrecognised component of rank {k}")


def _is_path(simples) -> bool:
    deg = []
    k = len(simples)
    for i in range(k):
        d = 0
        for j in range(k):
            if i != j and _inner2(simples[i], simples[j]) != 0:
                d += 1
        deg.append(d)
    return max(deg) <= 2


def subsystem_stable_under(pi, composite: Matrix) -> bool:
    """Does the map send every root direction of the closure into the closure?

    composite is an integer matrix on X (a multiple of an isometry), so
    stability is checked on lines: each image must be a rational multiple of
    a root of the subsystem.
    """
    psi = closed_subsystem(pi) if pi else frozenset()
    if not psi:
        return True
    dirs = {}
    for r in psi:
        dirs[_direction(r)] = True
    for r in psi:
        img = mat_vec(r, composite)
        if _direction(img) not in dirs:
            return False
    return True


def _direction(v):
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, abs(x))
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
        label = int(weyl.labels[_position(weyl, word_matrix(weyl, wc.word))])
        records.append(Record("f_class_distinct", wid, None, False, label in seen))
        seen.add(label)
        records.append(Record("centralizer_order", wid, None, wc.cent, classes[label][2]))
    return records


def torus_order_checks(model, n: int):
    """Each class's torus order from the table against det and the cokernel size."""
    from .tabledsl import build_env, eval_expr_int

    records = []
    env = build_env(n)
    weyl = weyl_group(model)
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        w = word_matrix(weyl, wc.word)
        expected = eval_expr_int(wc.order, env)
        records.append(Record("torus_order_det", wid, n, expected, torus_order(weyl, w, n)))
        records.append(Record("torus_order_snf", wid, n, expected,
                              torus_fixed_count(weyl, w, n)))
    return records


def torus_param_checks(model, n: int):
    """Table of torus parameterizations: range products, fixed points, distinct points."""
    return _torus_checks(model, n, "torus")


def dual_torus_check(model, n: int):
    """Every listed dual-torus element is (wF*)-fixed; counts match the order."""
    return _torus_checks(model, n, "dual")


def _torus_checks(model, n: int, side: str):
    """Each class's torus (or dual torus) from its chart, no point listed.

    The chart a -> sum_k a_k R_k + C mod D of paramsets._chart is affine on
    the index grid, so every point is fixed by (w . 2^n m0) exactly when C
    and each R_k with r_k > 1 are.  Where the chart is well defined on the
    grid, r_k R_k = 0 mod D, its linear part is a homomorphism, so there are
    as many distinct points as the subgroup of (Z_D)^4 that the R_k generate
    has elements: D^4 over the index of the lattice that the R_k and D I_4
    span.  Where it is not, the distinct-point record fails.
    """
    from .counting import _ranges
    from .paramsets import _chart
    from .tabledsl import build_env, eval_expr_int

    prefix = "torus_param" if side == "torus" else "dual_torus"
    records = []
    env0 = build_env(n)
    weyl = weyl_group(model)
    mf = frobenius_matrix(weyl, n)
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        if side == "torus":
            varnames, range_exprs, coords = wc.tvars, wc.tranges, wc.tcoords
        else:
            varnames, range_exprs, coords = wc.svars, wc.sranges, wc.scoords
        order = eval_expr_int(wc.order, env0)
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
    from .tabledsl import build_env, eval_expr, eval_expr_int

    records = []
    env0 = build_env(n)
    for wid in sorted(model.weylclasses):
        wc = model.weylclasses[wid]
        tranges = [eval_expr_int(r, env0) for r in wc.tranges]
        ok = True
        for r, (tvar, mod) in enumerate(zip(wc.tvars, tranges)):
            for sbasis in range(len(wc.svars)):
                env_lo = dict(env0)
                env_hi = dict(env0)
                for name in wc.tvars:
                    env_lo[name] = 0
                    env_hi[name] = 0
                env_hi[tvar] = mod
                for bi, name in enumerate(wc.svars):
                    env_lo[name] = int(bi == sbasis)
                    env_hi[name] = int(bi == sbasis)
                delta = eval_expr(wc.pairing, env_hi) - eval_expr(wc.pairing, env_lo)
                fr = delta.as_fraction()
                if fr.denominator != 1:
                    ok = False
        records.append(Record("pairing_integral", wid, n, True, ok))
    return records


def subsystem_checks(model):
    """Class-type subsystem data: Cartan type and (F w^-1)-direction stability."""
    records = []
    weyl = weyl_group(model)
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        if fam.pitype is None or fam.side != "torus":
            continue
        pi = fam.pi
        got = subsystem_type(pi)
        records.append(
            Record("subsystem_type", fid, None, fam.pitype, got)
        )
        w_inv = _as_matrix(weyl.inverses[_position(weyl, word_matrix(weyl, fam.word))])
        composite = mat_mul(w_inv, weyl.m0)
        records.append(
            Record("subsystem_stable", fid, None, True,
                   subsystem_stable_under(pi, composite))
        )
    return records
