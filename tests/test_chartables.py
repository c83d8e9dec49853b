"""Class equation, value relations, norms and degree identities."""

import copy
import math

import pytest

from dadecheck import chartables as ct
from dadecheck.exactnum import as_integer
from dadecheck.tabledsl import ValueTerm, build_env, eval_expr_int


def test_class_equation(model):
    for n in (1, 2, 3):
        for r in ct.class_equation(model, n):
            assert r.ok, (r.check, n, r.expected, r.actual)


def test_identity_class_contributes_one(model):
    env = build_env(1)
    order = eval_expr_int(model.order_expr, env)
    cent = eval_expr_int(model.classrows["c_1_0"].cent, env)
    assert order == cent


def test_centralizers_divide_group_order(model):
    for n in (1, 2, 3):
        env = build_env(n)
        order = eval_expr_int(model.order_expr, env)
        for row in model.classrows.values():
            assert order % eval_expr_int(row.cent, env) == 0, row.id


def test_relations_symbolic_and_numeric(model):
    recs = ct.f_relations_check(model) + ct.f_relations_numeric(model, 1)
    for r in recs + ct.f_relations_numeric(model, 2):
        assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_difference_equals_f8_at_c_1_11(model):
    # chi43 - chi44 on the mixed 4q^8 class is -2 sqrt2 q^3 eps4 - 2 q^2 eps4
    diff = ct._combine(
        [
            (1, ct.canonical_value(model.chvalues["chi43_c_1_11"])),
            (-1, ct.canonical_value(model.chvalues["chi44_c_1_11"])),
        ]
    )
    f8 = ct.canonical_value(model.chvalues["f8_c_1_11"])
    assert diff == f8
    ((key, poly),) = list(f8.items())
    assert key[0] == 1  # a pure eps4 multiple
    from dadecheck.tabledsl import eval_qpoly

    assert poly == eval_qpoly(_expr("-2*s2*q^3-2*q^2"))


def _expr(text):
    from dadecheck.tabledsl import _Parser

    return _Parser(text).parse_expr()


def test_f10_vanishes_on_first_series_classes(model):
    assert "f10_c_8_2" not in model.chvalues
    assert abs(ct.eval_value_numeric(model, model.chvalues.get("f10_c_8_2"), 1)) == 0.0


def test_root_sum_example_n1():
    # zeta^2 + zeta^-2 + zeta + zeta^-1 = -1 for zeta of order 5
    z = sum(
        complex(math.cos(2 * math.pi * e / 5), math.sin(2 * math.pi * e / 5))
        for e in (2, -2, 1, -1)
    )
    assert abs(z - (-1)) < 1e-12


def test_norm_decomposition_n1(model):
    parts = ct.f_norm_contributions(model, 1, "f8", 1)
    got = sorted(round(v, 6) for v in parts.values())
    assert got == [0.25, 0.4, 0.56875, 0.78125]
    assert abs(sum(parts.values()) - 2.0) < 1e-9


def test_norms_all_k(model):
    for n in (1, 2):
        for which in ("f8", "f10"):
            for r in ct.f_norm_check(model, n, which):
                assert r.ok, (which, n, r.name)


def test_norm_sign_invariance(model):
    # flipping the sign of every f8 value leaves the norm at 2
    flipped = copy.copy(model)
    flipped.chvalues = dict(model.chvalues)
    for key, cv in model.chvalues.items():
        if cv.func == "f8":
            terms = tuple(
                ValueTerm(("neg", t.coeff), t.eps4, t.exps) for t in cv.terms
            )
            flipped.chvalues[key] = type(cv)(cv.id, cv.func, cv.cls, cv.order, terms)
    assert abs(ct.f_norm(flipped, 1, "f8", 1) - 2.0) < 1e-9


def test_exponent_integrality(model):
    import dataclasses

    # an exponent that is not an integer at some (i, k) fails the record
    cv = next(cv for cv in model.chvalues.values() if cv.order is not None and cv.terms[0].exps)
    term = cv.terms[0]
    for n in (1, 2, 4, 9):
        (r,) = ct.exponent_integrality(model, n)
        assert r.ok
        for bad in ("i*k/2", "k/i", "th*i/3"):
            broken = copy.copy(model)
            broken.chvalues = dict(model.chvalues)
            broken.chvalues[cv.id] = dataclasses.replace(cv, terms=(
                ValueTerm(term.coeff, term.eps4, (_expr(bad),) + term.exps[1:]),) + cv.terms[1:])
            assert not ct.exponent_integrality(broken, n)[0].ok, (bad, n)


def test_degree_identities(model):
    recs = ct.degree_polynomials(model)
    for n in (1, 2, 3, 4):
        recs += ct.degree_identity_check(model, n)
    for r in recs:
        assert r.ok, (r.check, r.name, r.n, r.expected, r.actual)


def test_chi42_degree_odd_n1(model):
    # 7 * 81 * 57 * 4033 * 13: the semisimple degree is odd
    from dadecheck.tabledsl import eval_qpoly

    deg = as_integer(eval_qpoly(model.degrels["deg_chi42"].table).eval(1))
    assert deg == 7 * 81 * 57 * 4033 * 13
    assert deg % 2 == 1


def test_chi45_defect(model):
    from dadecheck.dadeverify import defect_of

    for n in (1, 2, 3, 4):
        assert defect_of(model.degrels["deg_chi45"].table, n) == 20 * n + 10


def test_non_integral_index_detected(model):
    from dadecheck.paramsets import family_formula_count
    from dadecheck.tabledsl import parse_model_files, serialize_model

    broken = parse_model_files({"m.def": serialize_model(model)})
    row = broken.classrows["c_1_1"]
    broken.classrows["c_1_1"] = type(row)(row.id, row.family, _expr("(q^2-1)^3"))
    equation, divisibility = ct.class_equation(broken, 1)
    assert divisibility.check == "centralizer_divisibility" and not divisibility.ok
    assert divisibility.actual == ["c_1_1"]
    # the row is left out of the sum, which therefore falls short of |G|
    good, _ = ct.class_equation(model, 1)
    assert good.ok and not equation.ok
    lost = family_formula_count(model.classfams[row.family], 1) * (
        good.expected // eval_expr_int(row.cent, build_env(1)))
    assert equation.actual == good.actual - lost


def test_group_order_factorizes(model):
    # |G| = q^24 phi1^2 phi2^2 phi4^2 phi8^2 phi12 phi24 as polynomials
    from dadecheck.exactnum import PHI_POLYS, QPoly
    from dadecheck.tabledsl import eval_qpoly

    phi = (
        QPoly.q(24)
        * PHI_POLYS["p1"] ** 2 * PHI_POLYS["p2"] ** 2 * PHI_POLYS["p4"] ** 2
        * PHI_POLYS["p8"] ** 2 * PHI_POLYS["p12"] * PHI_POLYS["p24"]
    )
    assert eval_qpoly(model.order_expr) == phi


def test_torus_orders_divide_group_order(model):
    from dadecheck import rootdatum as rd

    weyl = rd.weyl_group(model)
    for n in (1, 2, 3):
        env = build_env(n)
        order = eval_expr_int(model.order_expr, env)
        for wc in model.weylclasses.values():
            w = rd.word_matrix(weyl, wc.word)
            assert order % rd.torus_order(weyl, w, n) == 0, wc.id
