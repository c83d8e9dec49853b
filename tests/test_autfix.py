"""Automorphism fixed points: brute force, closed forms, gcd lemmas, Mobius."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadecheck.autfix import (
    FormulaOnlyRow,
    divisors,
    exact_stabilizer_counts,
    fix_counts_for_row,
    fixed_count_bruteforce,
    fixed_count_formula,
    mobius,
    row_is_enumerable,
    verify_fixrows,
    verify_gcd_lemmas,
)
from dadecheck.paramsets import formula_count


def test_brute_examples(model):
    # only (0,0) solves 2k = k, 2l = l mod 31
    assert fixed_count_bruteforce(model.fixrows["R_B_1"], model, 2, 1) == 1
    # 3k = 0 forces excluded k in both member sets
    assert fixed_count_bruteforce(model.fixrows["R_G_27_33"], model, 1, 1) == 0
    # trivial acting group: total cardinality 3 + 1 + 3
    assert fixed_count_bruteforce(model.fixrows["R_Pb_47_48_49"], model, 1, 3) == 7


def test_formula_examples(model):
    assert fixed_count_formula(model.fixrows["R_G_ss"], 2) == 16
    assert fixed_count_formula(model.fixrows["R_Pa_3_4"], 1) == 1
    for t in (1, 3, 5):
        assert fixed_count_formula(model.fixrows["R_G_19_20"], t) == 2


def test_formula_only_row(model):
    with pytest.raises(FormulaOnlyRow):
        fixed_count_bruteforce(model.fixrows["R_G_ss"], model, 1, 1)


def test_rows_match_formulas(model):
    for n in (1, 2):
        for rec in verify_fixrows(model, n):
            assert rec.ok, (rec.name, rec.n, rec.t, rec.expected, rec.actual)


def test_trivial_group_gives_cardinality(model):
    # t = 2n+1: every class is fixed
    for n in (1, 2):
        t = 2 * n + 1
        for row in model.fixrows.values():
            if not row_is_enumerable(row, model):
                continue
            total = sum(
                formula_count(model.paramsets[s], n) for s in row.sets
            )
            assert fixed_count_bruteforce(row, model, n, t) == total, row.id


def test_gcd_lemma_instances():
    assert math.gcd(2 ** 1 + 1, 9) == 3  # 2^t + 1 divides q^2 + 1
    assert math.gcd(2 ** 4 - 1, 25) == 5  # n=2, t=1, eps=-1: 2 + 2 + 1
    assert math.gcd(2 ** 6 - 1, 2 ** 4 - 1) == 3


def test_gcd_lemmas_all(model):
    recs = verify_gcd_lemmas(8)
    assert len(recs) > 400
    for r in recs:
        assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_mobius_function():
    assert [mobius(k) for k in (1, 2, 3, 4, 6, 9, 30)] == [1, -1, -1, 0, 1, 0, -1]


def test_exact_counts_power_row():
    f = 9
    fix = {t: 2 ** t - 1 for t in divisors(f)}
    exact = exact_stabilizer_counts(fix, f)
    assert exact[1] == (2 ** 9 - 1) - (2 ** 3 - 1)
    assert exact[1] == 504
    assert sum(exact.values()) == fix[f]


def test_exact_counts_constant_row():
    f = 15
    fix = {t: 7 for t in divisors(f)}
    exact = exact_stabilizer_counts(fix, f)
    assert exact[f] == 7
    assert all(v == 0 for u, v in exact.items() if u != f)


def test_exact_counts_bi1_n1(model):
    fix = fix_counts_for_row(model.fixrows["R_B_1"], 1)
    assert fix == {1: 1, 3: 49}
    exact = exact_stabilizer_counts(fix, 3)
    assert exact == {1: 48, 3: 1}


def test_negative_exact_is_returned():
    # fix(t=1) > fix(t=3) is impossible: the inversion says so with a negative count
    assert exact_stabilizer_counts({1: 5, 3: 0}, 3) == {1: -5, 3: 5}


@given(st.integers(1, 8), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_mobius_roundtrip_property(n, seed):
    # random monotone fixed-count profiles invert and re-sum consistently
    import random

    rng = random.Random(seed)
    f = 2 * n + 1
    divs = divisors(f)
    # build a consistent profile: assign exact counts, derive fix
    exact = {u: rng.randrange(0, 9) for u in divs}
    fix = {
        t: sum(c for u, c in exact.items() if u % (f // t) == 0) for t in divs
    }
    assert exact_stabilizer_counts(fix, f) == exact


def test_enum_cache_keyed_on_spec(model):
    # two models in one process that differ in one parameter set
    row = model.fixrows["R_G_27_33"]
    spec = model.paramsets["GI_27"]
    edited = model._replace(paramsets=dict(model.paramsets, GI_27=spec._replace(equiv=())))
    assert fixed_count_bruteforce(row, model, 1, 3) == 6
    assert fixed_count_bruteforce(row, edited, 1, 3) == 9
