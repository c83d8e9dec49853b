"""Fixed points of the field-automorphism powers on the parameter sets.

The generator alpha of the outer automorphism group has odd order 2n+1 and
acts on every indexed parameter set as multiplication by 2.  For each row of
the fixed-point table this module counts the classes fixed by <alpha^t> two
ways: from the member sets' index structure, by the twisted Burnside count
of counting.fixed_class_count (the "bruteforce" mode), and by the row's
closed form in t.  A Mobius inversion over the divisor lattice of 2n+1 turns
"fixed by H" counts into "stabilizer exactly U" counts.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .exactnum import PHI_POLYS, as_integer
from .counting import fixed_class_count, formula_count
from .record import Record
from .tabledsl import FixRow, Model, int_value


class FormulaOnlyRow(ValueError):
    """Row whose member sets have no index structure cannot be brute-forced."""


def divisors(f: int) -> List[int]:
    return [d for d in range(1, f + 1) if f % d == 0]


def mobius(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def fixed_count_formula(row: FixRow, t: int) -> int:
    """The row's closed form at t; validate_model lets it use no n, so it is taken at n = 1."""
    return int_value(row.formula, 1, t, owner=f"fixrow {row.id}")


def fixed_count_bruteforce(row: FixRow, model: Model, n: int, t: int) -> int:
    """Classes of the row's member sets fixed by x -> 2^t x, from their index structure."""
    if (2 * n + 1) % t:
        raise ValueError(f"t={t} does not divide 2n+1={2 * n + 1}")
    total = 0
    for sid in row.sets:
        spec = model.paramsets[sid]
        if spec.action == "identity":
            total += formula_count(spec, n)
        elif spec.action == "doubling":
            total += fixed_class_count(spec, n, t)
        else:
            raise FormulaOnlyRow(f"{row.id}: member {sid} has action {spec.action}")
    return total


def row_is_enumerable(row: FixRow, model: Model) -> bool:
    return all(
        model.paramsets[s].action in ("identity", "doubling") for s in row.sets
    )


def exact_stabilizer_counts(fix: Dict[int, int], f: int) -> Dict[int, int]:
    """Invert H-fixed counts to exact-stabilizer counts on the divisor lattice.

    fix maps each divisor t | f to the number of classes fixed by <alpha^t>
    (a subgroup of order f/t); the result maps u | f to the number of classes
    whose full stabilizer has order exactly u.  Inconsistent fixed counts
    give a negative count, which is returned as it is.
    """
    divs = divisors(f)
    for t in divs:
        if t not in fix:
            raise ValueError(f"fix count for t={t} missing")
    exact = {}
    for u in divs:
        # stabilizer order v ranges over multiples of u dividing f
        total = 0
        for v in divs:
            if v % u == 0:
                total += mobius(v // u) * fix[f // v]
        exact[u] = total
    return exact


def fix_counts_for_row(row: FixRow, n: int) -> Dict[int, int]:
    """fix[t] for every divisor t of 2n+1, from the row's closed form."""
    return {t: fixed_count_formula(row, t) for t in divisors(2 * n + 1)}


# --- the gcd lemmas ----------------------------------------------------------


def _phi8(n: int, eps: int) -> int:
    """q^2 + eps*sqrt2*q + 1 at n."""
    return as_integer(PHI_POLYS["p8a" if eps == 1 else "p8b"].eval(n))


def _lemma(lemma: str, params: tuple, expected: int, actual: int) -> Record:
    return Record("lemma_" + lemma, str(params), None, expected, actual)


# Lemma 1 is checked for 1 <= a, b <= _PAIR_BOUND.
_PAIR_BOUND = 20


def verify_gcd_lemmas(n_max: int) -> List[Record]:
    """Every instance of the three gcd identities up to n_max.

    Lemma 1: gcd(2^a - 1, 2^b - 1) = 2^gcd(a,b) - 1 over a small grid.
    Lemma 2: gcd(2^t +- 1, q^2 -+ 1) for t | 2n+1.
    Lemma 3: gcd(2^(f-t) -+ 1, q^2 + eps sqrt2 q + 1) with the 4t | f-t split.
    """
    records = []
    for a in range(1, _PAIR_BOUND + 1):
        for b in range(1, _PAIR_BOUND + 1):
            got = math.gcd(2 ** a - 1, 2 ** b - 1)
            exp = 2 ** math.gcd(a, b) - 1
            records.append(_lemma("gcd_2m1", (a, b), exp, got))
    for n in range(1, n_max + 1):
        f = 2 * n + 1
        q2 = 2 ** f
        for t in divisors(f):
            records.append(
                _lemma("gcd_i", (n, t), 2 ** t - 1, math.gcd(2 ** t - 1, q2 - 1))
            )
            records.append(
                _lemma("gcd_ii", (n, t), 1, math.gcd(2 ** t - 1, q2 + 1))
            )
            records.append(
                _lemma("gcd_iii", (n, t), 1, math.gcd(2 ** t + 1, q2 - 1))
            )
            records.append(
                _lemma("gcd_iv", (n, t), 2 ** t + 1, math.gcd(2 ** t + 1, q2 + 1))
            )
            # the sqrt2-cyclotomic lemma; f - t is a multiple of 2t
            for eps in (1, -1):
                phi = _phi8(n, eps)
                half = 2 ** ((t + 1) // 2)
                ft = f - t
                if ft % (4 * t) == 0:
                    m = ft // (4 * t)
                    exp_minus = 2 ** t + eps * (-1) ** m * half + 1
                    exp_plus = 1
                else:
                    m = (ft // (2 * t) - 1) // 2
                    exp_minus = 1
                    exp_plus = 2 ** t + eps * (-1) ** (m + 1) * half + 1
                records.append(
                    _lemma(
                        "gcd_tw_minus", (n, t, eps), exp_minus,
                        math.gcd(2 ** ft - 1, phi),
                    )
                )
                records.append(
                    _lemma(
                        "gcd_tw_plus", (n, t, eps), exp_plus,
                        math.gcd(2 ** ft + 1, phi),
                    )
                )
    return records


# --- per-row oracle equivalence ------------------------------------------------


def verify_fixrows(model: Model, n: int) -> List[Record]:
    """Brute force = closed form for every enumerable row, every t | 2n+1.

    A row that cannot be brute-forced passes on its closed form alone.
    """
    f = 2 * n + 1
    out = []
    for rid in sorted(model.fixrows):
        row = model.fixrows[rid]
        enumerable = row_is_enumerable(row, model)
        for t in divisors(f):
            formula = fixed_count_formula(row, t)
            got = fixed_count_bruteforce(row, model, n, t) if enumerable else formula
            out.append(Record("fixrow", rid, n, formula, got, t=t))
    return out


def verify_mobius_layer(model: Model, n: int) -> List[Record]:
    """Exact-stabilizer counts are nonnegative.

    The record at t sums the exact counts of the stabilizer orders u with
    f/t | u.  Inversion makes that sum fix[t] whatever the fixed counts, so
    what the record checks is that none of them is negative: a negative one
    is named as its actual value.
    """
    f = 2 * n + 1
    records = []
    for rid in sorted(model.fixrows):
        row = model.fixrows[rid]
        fix = fix_counts_for_row(row, n)
        exact = exact_stabilizer_counts(fix, f)
        for t in divisors(f):
            parts = {u: c for u, c in exact.items() if u % (f // t) == 0}
            negative = [f"exact({u}) = {c} < 0" for u, c in parts.items() if c < 0]
            actual = ", ".join(negative) if negative else sum(parts.values())
            records.append(Record("mobius", rid, n, fix[t], actual, t=t))
    return records
