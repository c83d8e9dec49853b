"""Pure-Python reference for the Weyl layer, independent of its array code.

W is the breadth-first closure of the generators on tuple matrices, and the
F-class of w is the closure of w under the generator moves v -> g^-1 v F(g):
F-conjugation by a product composes from generator conjugations.
"""

from dadecheck import rootdatum as rd


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


def f_class(w, gens):
    """F-conjugacy class of w, with the moves taken from gens."""
    moves = [(rd.mat_inv_int(g), rd.frobenius_twist(g)) for g in gens.values()]
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


def f_classes(gens):
    """(least element, size, centralizer order) of each F-class, least first."""
    weyl = weyl_closure(gens)
    remaining = set(weyl)
    classes = []
    while remaining:
        rep = min(remaining)
        orbit = f_class(rep, gens)
        remaining -= orbit
        classes.append((rep, len(orbit), len(weyl) // len(orbit)))
    return classes
