"""Reference counts by listing, on numpy arrays, independent of the Burnside and kernel counts.

Every tuple of an index grid is listed, the excluded ones found by the
reference scan of pred_oracle.  enumerate_classes lists the classes of a
parameter set by their least members, and fixed_classes_doubling doubles
them; family_elements and family_members list the members of a class
family, and orbit_count counts the orbits of a matrix group that meet them;
torus_by_listing lists every point of each torus chart.  None of them
solves a congruence.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from dadecheck import rootdatum as rd
from dadecheck.counting import (AffineGroup, MapClosureError, _permutes, _ranges, _split,
                                equivalence_group, has_index_structure)
from pred_oracle import apply_map, pred_mask

_INT64_MAX = (1 << 63) - 1


def points(owner, exprs, varnames, arrays, n, side):
    """Points of a parameterized family as (D, N x 4 int64 array of D * value mod D).

    arrays hold the index tuples (none for a single point).
    """
    denom, chart = rd._chart(owner, exprs, varnames, n, side)
    top = max((int(arr.max()) for arr in arrays if arr.size), default=0)
    assert denom * max(denom, top + 1) <= _INT64_MAX
    chart = np.array(chart, dtype=np.int64)
    npts = len(arrays[0]) if arrays else 1
    vecs = np.repeat(chart[-1:], npts, axis=0)
    for arr, row in zip(arrays, chart):
        vecs = (vecs + arr[:, None] * row) % denom
    return denom, vecs


def admissible(owner, range_exprs, varnames, exclude, n):
    """(ranges, admissible mask over the grid, admissible tuples as int64 arrays, one per index)."""
    ranges = _ranges(owner, range_exprs, n)
    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    keep = np.ones(math.prod(ranges), dtype=bool)
    if exclude is not None:
        keep &= ~pred_mask(owner, exclude, n, varnames, grid, ranges)
    return ranges, keep, [a[keep] for a in grid]


def _canonical_keys(arrays, group: AffineGroup):
    """Lexicographically least orbit member of each tuple, as its grid index."""
    best = None
    for g in group.maps:
        key = np.ravel_multi_index(apply_map(*_split(g), arrays, group.moduli), group.moduli)
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

    def representatives(self):
        return list(zip(*(a.tolist() for a in np.unravel_index(self.canonical, self.moduli))))


def enumerate_classes(spec, n):
    """Canonical representatives of the equivalence classes of an indexed set, listed.

    Raises MapClosureError naming the set where an equivalence map leaves
    the admissible set, and then where one is not invertible.
    """
    if not has_index_structure(spec):
        raise ValueError(f"{spec.id} has no index structure")
    moduli, keep, arrays = admissible(spec.id, spec.moduli, spec.indices, spec.exclude, n)
    group = equivalence_group(spec, n, moduli)
    for g in group.gens:
        img = np.ravel_multi_index(apply_map(*_split(group.maps[g]), arrays, moduli), moduli)
        if not keep[img].all():
            raise MapClosureError(f"{spec.id}: equivalence map leaves the admissible set")
    if not _permutes(group):
        raise MapClosureError(f"{spec.id}: an equivalence map is not invertible mod {moduli}")
    return Enumeration(spec.id, moduli, np.unique(_canonical_keys(arrays, group)), group,
                       len(arrays[0]))


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
        return np.ravel_multi_index(apply_map(lin, shift, grid, moduli), moduli)

    double = images(scale, [0] * nv)
    if len(np.unique(double)) != len(double):
        raise MapClosureError(f"{enum.spec_id}: doubling is not a bijection")
    halve = np.empty_like(double)
    halve[double] = np.arange(len(double))
    elements = {images(*_split(g)).tobytes() for g in enum.group.maps}
    for g in enum.group.gens:
        if double[images(*_split(enum.group.maps[g]))[halve]].tobytes() not in elements:
            raise MapClosureError(f"{enum.spec_id}: doubling does not normalize the group")
    doubled = apply_map(scale, [0] * nv, np.unravel_index(enum.canonical, moduli), moduli)
    img = _canonical_keys(doubled, enum.group)
    if not np.all(np.isin(img, enum.canonical)):
        raise MapClosureError(f"{enum.spec_id}: doubling leaves the class set")
    return int(np.count_nonzero(img == enum.canonical))


def family_elements(fam, n):
    """Admissible family members as (denominator, N x 4 integer array mod it)."""
    _, _, arrays = admissible(fam.id, fam.ranges, fam.vars, fam.exclude, n)
    return points(fam.id, fam.coords, fam.vars, arrays, n, fam.side)


def family_members(fam, n):
    """Every member of a family's grid as (denominator, N x 4 array mod it, admissible mask)."""
    ranges, keep, _ = admissible(fam.id, fam.ranges, fam.vars, fam.exclude, n)
    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    denom, vecs = points(fam.id, fam.coords, fam.vars, grid, n, fam.side)
    return denom, vecs, keep


def orbit_count(vecs, mats, denom, side):
    """Orbits of a matrix group, given whole as mats, that meet the D-scaled points vecs mod D.

    The orbit of v is {v . M}, and its key is its lexicographically least
    image, taken on two exact keys, hi = x0*D + x1 and lo = x2*D + x3; the
    orbits met are the distinct keys.  One float64 product with every element
    stacked side by side gives all images of a block of points.  Dual-side
    points are rows (v M), torus-side points columns (M v).

    Exactness: images x are integers with |x| < 4*D*max|M| < 2^53, so the
    product is exact.  The rounded x/D can reach the next integer only if
    x + D > 2^53, and x + D <= max(4*D*max|M|, D*D) < 2^53, so
    x - D*floor(x/D) is exact.  Both keys are below D*D.
    """
    if len(vecs) == 0:
        return 0
    mats = np.array(mats, dtype=np.int64)
    if side == "torus":
        mats = mats.transpose(0, 2, 1)
    assert 4 * denom * max(denom, int(np.abs(mats).max())) < 2 ** 53
    size = len(mats)
    # column j*size + i is coordinate j of the image under element i
    stack = mats.transpose(1, 2, 0).reshape(4, 4 * size).astype(np.float64)
    d = float(denom)
    hi = np.empty(len(vecs))
    lo = np.empty(len(vecs))
    for start in range(0, len(vecs), 512):
        img = vecs[start:start + 512].astype(np.float64) @ stack
        img -= np.floor(img / d) * d
        x = img.reshape(-1, 4, size)
        h = x[:, 0] * d + x[:, 1]
        low = x[:, 2] * d + x[:, 3]
        least = h.min(axis=1)
        hi[start:start + len(h)] = least
        lo[start:start + len(h)] = np.where(h == least[:, None], low, np.inf).min(axis=1)
    return len(np.unique(np.stack([hi, lo], axis=1), axis=0))


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
        denom, vecs = points(wid, coords, varnames, arrays, n, side)
        m = np.array(rd.mat_mul(rd.word_matrix(weyl, wc.word), rd.frobenius_matrix(weyl, n)),
                     dtype=np.int64)
        img = (vecs @ m if side == "dual" else vecs @ m.T) % denom
        out[wid] = (bool(np.array_equal(img, vecs)), len(np.unique(vecs, axis=0)))
    return out
