"""Reference for the Weyl layer and the roots, independent of the package's tables.

Only rootdatum's matrix arithmetic is shared; its closure, move table and
centralizer walk are not called, and group_structure finds a subgroup's
classes, generators, right multiplications and inverses with matrix
products, not with the package's group tables; spells_by_tree checks a
spanning tree of such a subgroup by matrix products too.  W
is the breadth-first closure of the generators on tuple matrices, and the
F-class of w is the closure of w under the generator moves
v -> g^-1 v F(g): F-conjugation by a product composes from generator
conjugations.  F(v) is m0^-1 v m0 for the twist m0 (m0 m0 = 2) of the
table's frobenius block.

The roots have their own description here: the listed roots of F4 on the
eps basis, each solved for on the simple roots in Fractions, and
dynkin_type names a subsystem from the Dynkin diagram of a base of it.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

from dadecheck import rootdatum as rd


def mat_inv_int(m):
    """Inverse of an integer matrix whose inverse is again integral."""
    n = len(m)
    if rd.mat_det(m) == 0:
        raise rd.SingularMatrix("matrix is singular")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(v.denominator != 1 for v in vals):
            raise rd.SingularMatrix("inverse is not integral")
        out.append(tuple(int(v) for v in vals))
    return tuple(out)


def frobenius_twist(v, m0):
    """F-conjugate of a Weyl element: m0^-1 v m0 = m0 v m0 / 2."""
    m = rd.mat_mul(rd.mat_mul(m0, v), m0)
    out = []
    for row in m:
        if any(x % 2 for x in row):
            raise ValueError("twist left the lattice; element not in W?")
        out.append(tuple(x // 2 for x in row))
    return tuple(out)


def weyl_closure(gens, limit=2000):
    """The group generated by gens, as a frozenset of tuple matrices."""
    ident = rd.mat_identity()
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens.values():
                p = rd.mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > limit:
                        raise rd.ClosureOverflow(f"Weyl closure exceeded {limit} elements")
        frontier = nxt
    return frozenset(seen)


def f_class(w, gens, m0):
    """F-conjugacy class of w, with the moves taken from gens."""
    moves = [(mat_inv_int(g), frobenius_twist(g, m0)) for g in gens.values()]
    orbit = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for ginv, gtw in moves:
            x = rd.mat_mul(rd.mat_mul(ginv, u), gtw)
            if x not in orbit:
                orbit.add(x)
                frontier.append(x)
    return frozenset(orbit)


def f_classes(gens, m0):
    """(least element, size, centralizer order) of each F-class, least first."""
    weyl = weyl_closure(gens)
    remaining = set(weyl)
    classes = []
    while remaining:
        rep = min(remaining)
        orbit = f_class(rep, gens, m0)
        remaining -= orbit
        classes.append((rep, len(orbit), len(weyl) // len(orbit)))
    return classes


class Structure(NamedTuple):
    """The fields of paramsets.Centralizer that have one right value, by matrix products."""

    mats: tuple
    right: tuple
    inverses: tuple
    classes: tuple
    gens: tuple


def group_structure(mats):
    """Structure of a subgroup of W by matrix products.

    Greedy generators, each the first element outside the subgroup so far,
    and the class of x its orbit under x -> g x g^-1 for the generators g;
    right[k][x] is x g_k and inverses[x] is x^-1, each looked up among the
    elements.  No table of the package is read.
    """
    mats = tuple(mats)
    pos = {m: i for i, m in enumerate(mats)}

    def times(x, y):
        return pos[rd.mat_mul(mats[x], mats[y])]

    one = pos[rd.mat_identity()]
    gens = []
    inside = {one}
    for x in range(len(mats)):
        if x in inside:
            continue
        gens.append(x)
        frontier = list(inside)
        while frontier:
            frontier = [z for z in {times(y, g) for y in frontier for g in gens}
                        if z not in inside]
            inside.update(frontier)
    inverse = {g: pos[mat_inv_int(mats[g])] for g in gens}
    label = [False] * len(mats)
    classes = []
    for x in range(len(mats)):
        if label[x]:
            continue
        label[x] = True
        orbit = [x]
        for y in orbit:
            for g in gens:
                z = times(times(g, y), inverse[g])
                if not label[z]:
                    label[z] = True
                    orbit.append(z)
        classes.append((x, len(orbit)))
    right = tuple(tuple(times(x, g) for x in range(len(mats))) for g in gens)
    inverses = tuple(pos[mat_inv_int(m)] for m in mats)
    return Structure(mats, right, inverses, tuple(classes), tuple(gens))


def spells_by_tree(mats, gens, tree) -> bool:
    """Whether tree holds (x, k, p) with mats[x] = mats[p] mats[gens[k]] for every element but 1.

    Each p must be 1 or come earlier in the tree, so that every element is
    a word in the generators; each product is a matrix product.
    """
    met = {mats.index(rd.mat_identity())}
    for x, k, p in tree:
        if p not in met or x in met or mats[x] != rd.mat_mul(mats[p], mats[gens[k]]):
            return False
        met.add(x)
    return len(met) == len(mats)


# rows of the eps -> simple-root change of basis: r_i written in eps coords
_R_IN_EPS = (
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),
)


def _eps_roots_doubled():
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
        raise rd.NotLinearlyIndependent("basis rows are dependent")
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            raise ValueError("vector outside the span")
    sol = [Fraction(0)] * n
    for row_idx, c in enumerate(piv_cols):
        sol[c] = aug[row_idx][n]
    return tuple(sol)


def _inner2(a, b) -> int:
    """2 (a, b) for vectors on the simple-root basis, from rootdatum's Gram matrix."""
    return sum(a[i] * g * b[j] for i, row in enumerate(rd._GRAM) for j, g in enumerate(row))


def dynkin_type(psi):
    """Cartan type of the root system psi, e.g. 'B2' or 'A1xA1', from the Dynkin diagram of a base.

    The base is the positive roots, for a generic functional, that are no
    sum of two positive roots.  Nodes i and j are bonded n_ij n_ji times,
    with the Cartan integer n_ij = 2 (r_i, r_j) / (r_j, r_j).  A component
    with no double bond is A or, with a node of degree 3, D.  With a double
    bond it is a path: F4 where neither end of the double bond is an end of
    the path, else B where the single node beyond the double bond is short
    and C where it is long (B2 where both ends are).
    """
    weights = (1000, 100, 10, 1)  # no root of F4 pairs to 0: its coordinates lie in -4..4
    pos = [r for r in psi if sum(w * x for w, x in zip(weights, r)) > 0]
    pos_set = set(pos)
    simples = [r for r in pos
               if not any(tuple(x - y for x, y in zip(r, s)) in pos_set for s in pos)]
    k = len(simples)
    norm = [_inner2(r, r) for r in simples]
    cartan = []
    for a in simples:
        row = []
        for b, nb in zip(simples, norm):
            c, rest = divmod(2 * _inner2(a, b), nb)
            assert not rest, (a, b)
            row.append(c)
        cartan.append(row)
    labels = []
    unseen = set(range(k))
    while unseen:
        comp = [unseen.pop()]
        for i in comp:
            for j in sorted(unseen):
                if cartan[i][j]:
                    unseen.remove(j)
                    comp.append(j)
        bonds = {(i, j): cartan[i][j] * cartan[j][i] for i in comp for j in comp
                 if i < j and cartan[i][j]}
        assert len(bonds) == len(comp) - 1 and max(bonds.values(), default=1) <= 2, bonds
        degree = {i: sum(i in e for e in bonds) for i in comp}
        double = [e for e, b in bonds.items() if b == 2]
        m = len(comp)
        if not double:
            labels.append(("D" if 3 in degree.values() else "A") + str(m))
        elif m == 2:
            labels.append("B2")
        else:
            ((i, j),) = double
            if degree[i] > 1 and degree[j] > 1:
                assert m == 4
                labels.append("F4")
            else:
                end, other = (i, j) if degree[i] == 1 else (j, i)
                labels.append(("B" if norm[end] < norm[other] else "C") + str(m))
    return "x".join(sorted(labels))
