"""Reference scan for exclusion predicates, independent of the congruence solver.

Every atom is evaluated on every tuple of the index grid with one affine
image; and / or / != are the mask operations.
"""

from dadecheck.counting import MapClosureError, _affine
from dadecheck.paramsets import _apply
from dadecheck.tabledsl import build_env, eval_expr_int, pred_to_str


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
    (val,) = _apply([row[:-1]], row[-1:], arrays, (m,))
    hit = val == 0
    return ~hit if op == "!=" else hit
