"""Acceptance suite: the eleven headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest -s to see them all);
tolerances and instance ranges are fixed here, not configurable.
"""

import time

import pytest

from dadecheck import chartables, dadeverify, rootdatum
from dadecheck.autfix import (
    exact_stabilizer_counts,
    fix_counts_for_row,
    row_is_enumerable,
    verify_fixrows,
    verify_gcd_lemmas,
    verify_mobius_layer,
)
from dadecheck.paramsets import (
    cardinality_check,
    family_class_count,
    semisimple_sum_checks,
)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {label}{(' (' + detail + ')') if detail else ''}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_dade_identity(model):
    ok = True
    detail = []
    for n in (1, 2, 3, 4):
        t0 = time.perf_counter()
        recs = dadeverify.verify_dade(model, n, mode="formula")
        elapsed = time.perf_counter() - t0
        ok &= all(r.ok for r in recs) and elapsed < 5.0
        detail.append(f"n={n}: {len(recs)} cells {elapsed:.2f}s")
    _report(1, "counting identity holds for all 14 defects, all u | 2n+1, n=1..4",
            ok, "; ".join(detail))


def test_criterion_02_fixed_point_oracle(model):
    t0 = time.perf_counter()
    ok = True
    cells = 0
    for n in (1, 2, 3, 4):
        recs = verify_fixrows(model, n)
        cells += sum(1 for r in recs if row_is_enumerable(model.fixrows[r.name], model))
        ok &= all(r.ok for r in recs)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    _report(2, "brute-force fixed counts equal the closed forms, n=1..4",
            ok, f"{cells} brute cells in {elapsed:.1f}s")


def test_criterion_03_cardinalities(model):
    ok = True
    checked = 0
    for n in (1, 2):
        recs = cardinality_check(model, n)
        checked += len(recs)
        ok &= all(r.ok for r in recs)
    recs = cardinality_check(model, 3)
    checked += len(recs)
    ok &= all(r.ok for r in recs)
    ok &= family_class_count(model.classfams["h4"], model, 1) == 0
    ok &= family_class_count(model.classfams["g4"], model, 1) == 0
    _report(3, "enumerated cardinalities equal the table formulas "
               "(n=1,2,3 all sets and families; degenerate h4/g4 = 0)",
            ok, f"{checked} set/family counts")


def test_criterion_04_gcd_lemmas():
    recs = verify_gcd_lemmas(8)
    ok = all(r.ok for r in recs) and len(recs) > 400
    _report(4, "gcd identities hold for all n <= 8, t | 2n+1, both signs",
            ok, f"{len(recs)} instances")


def test_criterion_05_weyl_and_tori(model):
    recs = rootdatum.weyl_table_checks(model)
    for n in (1, 2, 3, 4, 5):
        recs += rootdatum.torus_order_checks(model, n)
    ok = all(r.ok for r in recs)
    _report(5, "|W| = 1152, 11 F-classes, centralizer and torus orders "
               "(det = SNF = table) for n <= 5",
            ok, f"{len(recs)} records")


def test_criterion_06_semisimple_totals(model):
    ok = True
    for n in (1, 2, 3, 4):
        recs = semisimple_sum_checks(model, n)
        ok &= all(r.ok for r in recs)
    _report(6, "semisimple class totals on both sides sum to q^4 for n <= 4", ok)


def test_criterion_07_class_equation(model):
    ok = True
    detail = []
    for n in (1, 2, 3):
        t0 = time.perf_counter()
        recs = chartables.class_equation(model, n)
        elapsed = time.perf_counter() - t0
        ok &= all(r.ok for r in recs) and elapsed < 1.0
        detail.append(f"n={n}: {elapsed * 1000:.0f}ms")
    _report(7, "class equation holds exactly for n = 1, 2, 3", ok, "; ".join(detail))


def test_criterion_08_f_norms(model):
    from fractions import Fraction

    ok = True
    count = 0
    for n in (1, 2, 3, 4):
        for which in ("f8", "f10"):
            recs = chartables.f_norm_check(model, n, which)
            count += len(recs)
            ok &= all(r.ok and r.actual is True for r in recs)
    parts = {}
    for row in chartables._norm_rows(model, 1, "f8"):
        parts[row.cent] = parts.get(row.cent, 0) + chartables._share(row, 1)
    ok &= sorted(v.as_fraction() for v in parts.values()) == [
        Fraction(1, 4), Fraction(2, 5), Fraction(91, 160), Fraction(25, 32)]
    _report(8, "(f8,f8) = (f10,f10) = 2 exactly for all k at n = 1..4; "
               "n=1 decomposition 91/160+25/32+1/4+2/5 reproduced",
            ok, f"{count} norms")


def test_criterion_09_symbolic_identities(model):
    recs = chartables.f_relations_check(model)
    recs += chartables.degree_polynomials(model)
    for n in (1, 2, 3, 4):
        recs += chartables.degree_identity_check(model, n)
    for n in (1, 2):
        recs += chartables.exponent_integrality(model, n)
    ok = all(r.ok for r in recs)
    _report(9, "degree identities, chi-difference identities and value "
               "antisymmetries hold symbolically",
            ok, f"{len(recs)} records")


def test_criterion_10_ledger_completeness(model):
    ok = True
    for n in (1, 2, 3, 4):
        recs = dadeverify.ledger_consistency(model, n)
        ok &= all(r.ok for r in recs)
    _report(10, "ledgers cover B/Pa/Pb sets 58/40/56 exactly once, defects "
                "match headings, raw balance holds at every defect for n <= 4",
            ok)


def test_criterion_11_mobius_layer(model):
    ok = True
    for n in (1, 2, 3, 4):
        f = 2 * n + 1
        for row in model.fixrows.values():
            fix = fix_counts_for_row(row, n)
            exact = exact_stabilizer_counts(fix, f)
            ok &= all(c >= 0 for c in exact.values())
        ok &= all(r.ok for r in verify_mobius_layer(model, n))
        ok &= all(r.ok for r in dadeverify.verify_dade_exact_level(model, n))
    _report(11, "exact-stabilizer counts are nonnegative and the exact-level "
                "identity balances for every u, n <= 4",
            ok)
