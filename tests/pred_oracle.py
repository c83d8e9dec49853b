"""Reference scan for exclusion predicates, independent of the counting kernel.

Every atom is evaluated on every tuple of the index grid with one affine
image; and / or / != are the mask operations.
"""

from dadecheck.counting import MapClosureError, _affine
from dadecheck.tabledsl import build_env, eval_expr_int, pred_to_str

_INT64_MAX = (1 << 63) - 1


def apply_map(lin, shift, arrays, ranges):
    """Images of index tuples, int64 arrays one per index, under a -> lin a + shift, mod each range.

    Row k of lin and shift[k] are reduced mod ranges[k] first; every partial
    sum is then below (nv + 1) * r * (top + 1), asserted to fit in int64.
    """
    top = max((int(a.max()) for a in arrays if a.size), default=0)
    assert (len(arrays) + 1) * max(ranges) * (top + 1) <= _INT64_MAX
    return [(sum((int(c) % r) * a for c, a in zip(lin[k], arrays)) + int(shift[k]) % r) % r
            for k, r in enumerate(ranges)]


def pred_mask(owner, pred, n, varnames, arrays, moduli):
    """The predicate as a boolean mask over the tuples given as index arrays.

    An atom compares two affine forms modulo the common modulus of the indices
    it uses; "m div e" tests e mod m.
    """
    if pred[0] != "atom":
        a = pred_mask(owner, pred[1], n, varnames, arrays, moduli)
        b = pred_mask(owner, pred[2], n, varnames, arrays, moduli)
        return (a & b) if pred[0] == "and" else (a | b)
    _, op, e1, e2 = pred
    if op == "div":
        m = eval_expr_int(e1, build_env(n))
        denom, (row,) = _affine(owner, [e2], n, varnames)
    else:
        denom, (r1, r2) = _affine(owner, [e1, e2], n, varnames)
        row = [a - b for a, b in zip(r1, r2)]
        mods = {moduli[i] for i, a in enumerate(row[:-1]) if a} or {moduli[0]}
        if len(mods) != 1:
            raise MapClosureError(
                f"{owner}: atom {pred_to_str(pred)} mixes indices with different moduli"
            )
        (m,) = mods
    if denom != 1:
        raise MapClosureError(f"{owner}: non-integral coefficient in {pred_to_str(pred)}")
    (val,) = apply_map([row[:-1]], row[-1:], arrays, (m,))
    hit = val == 0
    return ~hit if op == "!=" else hit
