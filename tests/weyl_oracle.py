"""Reference for the Weyl layer, independent of the package's tables.

Only rootdatum's matrix arithmetic is shared; its closure, move table and
centralizer walk are not called, and group_structure finds a subgroup's
classes and generators with matrix products, not with W's index tables.  W
is the breadth-first closure of the generators on tuple matrices, and the
F-class of w is the closure of w under the generator moves
v -> g^-1 v F(g): F-conjugation by a product composes from generator
conjugations.  F(v) is m0^-1 v m0 for the twist m0 (m0 m0 = 2) of the
table's frobenius block.
"""

from fractions import Fraction

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


def group_structure(mats):
    """paramsets.Centralizer of a subgroup of W by matrix products.

    Greedy generators, each the first element outside the subgroup so far,
    and the class of x its orbit under x -> g x g^-1 for the generators g;
    products are looked up among the elements.  W's tables are not read.
    """
    from dadecheck.paramsets import Centralizer

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
    return Centralizer(mats, tuple(classes), tuple(gens))
