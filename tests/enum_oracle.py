"""Reference counts by listing, independent of the Burnside and kernel counts.

fixed_classes_doubling doubles the listed classes of a parameter set, and
torus_by_listing lists every point of each torus chart; neither solves a
congruence.
"""

import math

import numpy as np

from dadecheck import rootdatum as rd
from dadecheck.paramsets import (MapClosureError, _apply, _canonical_keys, _points, _ranges,
                                 _split)


def fixed_classes_doubling(enum, t):
    """Number of classes of an enumeration fixed by x -> 2^t x, on canonical keys.

    Raises MapClosureError where the doubling does not act on the classes:
    it is not a bijection of the grid, it does not normalize the group
    (compared as maps on the whole grid), or it sends a class outside the
    class set.
    """
    moduli = enum.moduli
    nv = len(moduli)
    scale = [[pow(2, t, math.lcm(*moduli)) * (i == j) for j in range(nv)] for i in range(nv)]
    grid = [a.ravel() for a in np.indices(moduli, dtype=np.int64)]

    def images(lin, shift):
        return np.ravel_multi_index(_apply(lin, shift, grid, moduli), moduli)

    double = images(scale, [0] * nv)
    if len(np.unique(double)) != len(double):
        raise MapClosureError(f"{enum.spec_id}: doubling is not a bijection")
    halve = np.empty_like(double)
    halve[double] = np.arange(len(double))
    elements = {images(*_split(g)).tobytes() for g in enum.group.maps}
    for g in enum.group.gens:
        if double[images(*_split(enum.group.maps[g]))[halve]].tobytes() not in elements:
            raise MapClosureError(f"{enum.spec_id}: doubling does not normalize the group")
    doubled = _apply(scale, [0] * nv, np.unravel_index(enum.canonical, moduli), moduli)
    img = _canonical_keys(doubled, enum.group)
    if not np.all(np.isin(img, enum.canonical)):
        raise MapClosureError(f"{enum.spec_id}: doubling leaves the class set")
    return int(np.count_nonzero(img == enum.canonical))


def torus_by_listing(model, n, side):
    """{class id: (every point fixed by w . 2^n m0, number of distinct points)}."""
    out = {}
    weyl = rd.weyl_group(model)
    for wid, wc in model.weylclasses.items():
        if side == "torus":
            varnames, range_exprs, coords = wc.tvars, wc.tranges, wc.tcoords
        else:
            varnames, range_exprs, coords = wc.svars, wc.sranges, wc.scoords
        arrays = [a.ravel() for a in np.indices(_ranges(wid, range_exprs, n), dtype=np.int64)]
        denom, vecs = _points(wid, coords, varnames, arrays, n, side)
        m = np.array(rd.mat_mul(rd.word_matrix(weyl, wc.word), rd.frobenius_matrix(weyl, n)),
                     dtype=np.int64)
        img = (vecs @ m if side == "dual" else vecs @ m.T) % denom
        out[wid] = (bool(np.array_equal(img, vecs)), len(np.unique(vecs, axis=0)))
    return out
