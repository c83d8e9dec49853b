"""Class equation, value relations, norms and degree identities."""

import math
from fractions import Fraction

import pytest

import norm_oracle
from dadecheck import chartables as ct
from dadecheck.exactnum import as_integer
from dadecheck.tabledsl import ValueTerm, int_value, poly


def test_class_equation(model):
    for n in (1, 2, 3):
        for r in ct.class_equation(model, n):
            assert r.ok, (r.check, n, r.expected, r.actual)


def test_identity_class_contributes_one(model):
    order = int_value(model.order_expr, 1)
    cent = int_value(model.classrows["c_1_0"].cent, 1)
    assert order == cent


def test_centralizers_divide_group_order(model):
    for n in (1, 2, 3):
        order = int_value(model.order_expr, n)
        for row in model.classrows.values():
            assert order % int_value(row.cent, n) == 0, row.id


def test_relations_symbolic_and_numeric(model):
    recs = ct.f_relations_check(model) + ct.f_relations_numeric(model, 1)
    for r in recs + ct.f_relations_numeric(model, 2):
        assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_difference_equals_f8_at_c_1_11(model):
    # chi43 - chi44 on the mixed 4q^8 class is -2 sqrt2 q^3 eps4 - 2 q^2 eps4
    (rec,) = [r for r in ct.f_relations_check(model) if r.name == "diff_f8/c_1_11"]
    f8 = ct.canonical_value(model.chvalues["f8_c_1_11"])
    assert rec.actual == rec.expected == f8
    assert ct.canonical_value(model.chvalues["chi43_c_1_11"]) != f8
    ((key, value),) = list(f8.items())
    assert key[0] == 1  # a pure eps4 multiple
    assert value == poly(_expr("-2*s2*q^3-2*q^2"))


def _expr(text):
    from dadecheck.tabledsl import _Parser

    return _Parser(text).parse_expr()


def test_f10_vanishes_on_first_series_classes(model):
    assert "f10_c_8_2" not in model.chvalues
    assert "c_8_2" not in {row.name for row in ct._norm_rows(model, 1, "f10")}
    assert norm_oracle.value(model.chvalues.get("f10_c_8_2"), 1) == 0j


def test_root_sum_example_n1():
    # zeta^2 + zeta^-2 + zeta + zeta^-1 = -1 for zeta of order 5
    z = sum(
        complex(math.cos(2 * math.pi * e / 5), math.sin(2 * math.pi * e / 5))
        for e in (2, -2, 1, -1)
    )
    assert abs(z - (-1)) < 1e-12


def _shares_by_centralizer(model, n, which, k):
    out = {}
    for row in ct._norm_rows(model, n, which):
        out[row.cent] = out.get(row.cent, 0) + ct._share(row, k)
    return out


def test_norm_decomposition_n1(model):
    parts = _shares_by_centralizer(model, 1, "f8", 1)
    got = sorted(v.as_fraction() for v in parts.values())
    assert got == [Fraction(1, 4), Fraction(2, 5), Fraction(91, 160), Fraction(25, 32)]
    assert sum(got) == 2


def test_norms_all_k(model):
    for n in (1, 2, 3, 4):
        for which in ("f8", "f10"):
            recs = ct.f_norm_check(model, n, which)
            assert len(recs) == len(ct.admissible_norm_parameters(model, n, which))
            for r in recs:
                assert r.ok and r.actual is True, (which, n, r.name, r.actual)


def test_exact_norm_matches_float_oracle(model):
    # the closed form against the per-class float sum, part by part, for every k
    for n in (1, 2):
        for which in ("f8", "f10"):
            for k in ct.admissible_norm_parameters(model, n, which):
                exact = _shares_by_centralizer(model, n, which, k)
                floats = norm_oracle.norm_parts(model, n, which, k)
                assert exact.keys() == floats.keys()
                for cent, part in exact.items():
                    assert abs(norm_oracle.to_float(part) - floats[cent]) < 1e-9, (which, n, k)
                assert sum(exact.values()) == 2
                assert abs(norm_oracle.norm(model, n, which, k) - 2.0) < 1e-9


def test_norm_sign_invariance(model):
    # flipping the sign of every f8 value leaves the norm at 2
    flipped = model._replace(chvalues=dict(model.chvalues))
    for key, cv in model.chvalues.items():
        if cv.func == "f8":
            terms = tuple(
                ValueTerm(("neg", t.coeff), t.eps4, t.exps) for t in cv.terms
            )
            flipped.chvalues[key] = type(cv)(cv.id, cv.func, cv.cls, cv.order, terms)
    assert flipped.chvalues["f8_c_8_2"] != model.chvalues["f8_c_8_2"]
    for n in (1, 3):
        assert all(r.ok for r in ct.f_norm_check(flipped, n, "f8"))


def test_norm_of_a_scaled_value_fails_naming_it(model):
    # doubling f8 on c_1_15 adds 3 |v|^2 / |C| to every norm
    scaled = model._replace(chvalues=dict(model.chvalues))
    cv = model.chvalues["f8_c_1_15"]
    scaled.chvalues[cv.id] = cv._replace(terms=tuple(
        ValueTerm(("mul", ("int", 2), t.coeff), t.eps4, t.exps) for t in cv.terms))
    recs = ct.f_norm_check(scaled, 1, "f8")
    row = next(r for r in ct._norm_rows(model, 1, "f8") if r.name == "c_1_15")
    wrong = 2 + 3 * ct._share(row, 1)
    assert recs and all(not r.ok and r.actual == f"(f, f) = {wrong}" for r in recs)


@pytest.mark.parametrize("m", [10, 11, 7, 9])
def test_norm_needs_orbits_of_four(model, m):
    # with every slope 0 the values are closed under the orbit maps, but at
    # n = 1 (q^2 = 8) the orbit of 1 is not {+-1, +-8} of size 4: q^4 = 64 is
    # not +-1 mod 10 or 11, and 7 divides q^2 - 1, 9 divides q^2 + 1
    broken = model._replace(chvalues=dict(model.chvalues))
    cv = model.chvalues["f8_c_8_2"]
    broken.chvalues[cv.id] = cv._replace(
        order=("int", m),
        terms=tuple(ValueTerm(t.coeff, t.eps4, (("int", 0),) * len(t.exps)) for t in cv.terms))
    message = f"c_8_2: the orbits of +-1, +-q^2 mod {m} are not all of size 4"
    assert all(not r.ok and r.actual == message for r in ct.f_norm_check(broken, 1, "f8"))


def test_norm_depends_on_k_only_through_gcd(model):
    # at n = 4, m = p8b = 481 = 13 * 37 and q^2 = 31 mod m.  The orbits of the
    # slopes 1, 14 and 27 agree mod 13 (not mod 37), so the share of c_8_2
    # differs where 37 divides k: the first two terms are imaginary, the
    # third real, and a fourth (the orbit of 2) has eps4^3 = -eps4.  The
    # oracle sums over the classes
    broken = model._replace(chvalues=dict(model.chvalues))
    cv = model.chvalues["f8_c_8_2"]
    coeff = cv.terms[0].coeff
    broken.chvalues[cv.id] = cv._replace(terms=tuple(
        ValueTerm(coeff, eps4, tuple(_expr(f"{c}*i*k") for c in (s, -s, 31 * s, -31 * s)))
        for eps4, s in ((1, 1), (1, 14), (0, 27), (3, 2))))
    records = {r.name: r.actual for r in ct.f_norm_check(broken, 4, "f8")}
    rows = ct._norm_rows(broken, 4, "f8")
    norms = {}
    for k in (1, 2, 13, 26, 37, 74):
        exact = sum(ct._share(row, k) for row in rows)
        assert records[f"f8(k={k})"] == (True if exact == 2 else f"(f, f) = {exact}")
        assert abs(norm_oracle.to_float(exact) - norm_oracle.norm(broken, 4, "f8", k)) < 1e-9
        norms.setdefault(exact, []).append(k)
    assert sorted(norms.values()) == [[1, 2, 13, 26], [37, 74]]


def test_numeric_relations_read_eps4(model):
    # eps4^3 = -eps4: f8 on c_1_12 negated breaks c_1_12 + 2 c_1_10 + c_1_11 = 0
    broken = model._replace(chvalues=dict(model.chvalues))
    cv = model.chvalues["f8_c_1_12"]
    broken.chvalues[cv.id] = cv._replace(
        terms=tuple(ValueTerm(t.coeff, 3, t.exps) for t in cv.terms))
    for n in (1, 2):
        failed = [r.name for r in ct.f_relations_numeric(broken, n) if not r.ok]
        assert failed == ["f8_rel_c1_12"]


def test_exponent_integrality(model):
    # an exponent that is not an integer at some (i, k) fails the record
    cv = next(cv for cv in model.chvalues.values() if cv.order is not None and cv.terms[0].exps)
    term = cv.terms[0]
    for n in (1, 2, 4, 9):
        (r,) = ct.exponent_integrality(model, n)
        assert r.ok
        for bad in ("i*k/2", "k/i", "th*i/3"):
            broken = model._replace(chvalues=dict(model.chvalues))
            broken.chvalues[cv.id] = cv._replace(terms=(
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
    deg = as_integer(poly(model.degrels["deg_chi42"].table).eval(1))
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
        good.expected // int_value(row.cent, 1))
    assert equation.actual == good.actual - lost


def test_group_order_factorizes(model):
    # |G| = q^24 phi1^2 phi2^2 phi4^2 phi8^2 phi12 phi24 as polynomials
    from dadecheck.exactnum import PHI_POLYS, QPoly

    phi = (
        QPoly.q(24)
        * PHI_POLYS["p1"] ** 2 * PHI_POLYS["p2"] ** 2 * PHI_POLYS["p4"] ** 2
        * PHI_POLYS["p8"] ** 2 * PHI_POLYS["p12"] * PHI_POLYS["p24"]
    )
    assert poly(model.order_expr) == phi


def test_torus_orders_divide_group_order(model):
    from dadecheck import rootdatum as rd

    weyl = rd.weyl_group(model)
    for n in (1, 2, 3):
        order = int_value(model.order_expr, n)
        for wc in model.weylclasses.values():
            w = rd.word_matrix(weyl, wc.word)
            assert order % rd.torus_order(weyl, w, n) == 0, wc.id
