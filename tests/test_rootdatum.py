"""Weyl group, twisted Frobenius, torus orders and subsystem classification."""

import pytest

from dadecheck import rootdatum as rd
from weyl_oracle import (_R_IN_EPS, _eps_roots_doubled, _inner2, _solve_in_basis, dynkin_type,
                         f_classes, frobenius_twist, mat_inv_int, weyl_closure)


def test_weyl_order(model):
    assert len(rd.weyl_group(model).elems) == len(weyl_closure(model.weylgens)) == 1152


def test_generators_are_reflections(model):
    for name, g in model.weylgens.items():
        assert rd.mat_mul(g, g) == rd.mat_identity(), name
        assert rd.mat_det(g) == -1


def test_generators_permute_roots(model):
    roots = rd.roots_in_x()
    assert len(roots) == 48
    for g in model.weylgens.values():
        assert {rd.mat_vec(r, g) for r in roots} == roots


def test_roots_and_inner_products_match_eps_coordinates():
    # reference: every root solved for on its own, and inner products taken on
    # the eps basis in Fractions
    from fractions import Fraction

    def eps(v):
        return [sum(Fraction(v[i]) * _R_IN_EPS[i][j] for i in range(4)) for j in range(4)]

    solved = set()
    for v in _eps_roots_doubled():
        c = _solve_in_basis([Fraction(x, 2) for x in v], _R_IN_EPS)
        assert all(x.denominator == 1 for x in c)
        solved.add(tuple(int(x) for x in c))
    roots = sorted(rd.roots_in_x())
    assert set(roots) == solved
    for a in roots:
        for b in roots:
            assert _inner2(a, b) == 2 * sum(x * y for x, y in zip(eps(a), eps(b)))


def test_m0_squares_to_two(model):
    assert rd.mat_mul(model.frobenius, model.frobenius) == rd.mat_scale(rd.mat_identity(), 2)


def test_twist_normalizes_weyl(model):
    weyl = weyl_closure(model.weylgens)
    for g in model.weylgens.values():
        assert frobenius_twist(g, model.frobenius) in weyl


def test_eleven_f_classes(model):
    classes = rd.f_conjugacy_classes(rd.weyl_group(model))
    assert len(classes) == 11
    assert sum(size for _, size, _ in classes) == 1152
    assert sorted(c for _, _, c in classes) == [4, 6, 8, 8, 12, 12, 16, 16, 48, 96, 96]
    # class equation of the F-action: sum of 1152/|C| over classes
    assert sum(1152 // c for _, _, c in classes) == 1152


def test_weyl_arrays_match_tuple_oracle(model):
    # the packaged reflections, then a second set in the same process with
    # r4 replaced by the reflection r3 r4 r3: same W, another cache entry
    gens = model.weylgens
    conj = dict(gens, r4=rd.mat_mul(rd.mat_mul(gens["r3"], gens["r4"]), gens["r3"]))
    m0 = model.frobenius
    for g in (gens, conj):
        weyl = rd.weyl_group(model._replace(weylgens=g))
        ref = sorted(weyl_closure(g))
        assert list(weyl.elems) == ref
        assert all(weyl.index[v] == i for i, v in enumerate(ref))
        gmats = list(g.values())
        for gm, right, move in zip(gmats, weyl.right, weyl.move, strict=True):
            ginv, gtw = mat_inv_int(gm), frobenius_twist(gm, m0)
            assert [ref[y] for y in right] == [rd.mat_mul(v, gm) for v in ref]
            assert [ref[y] for y in move] == [rd.mat_mul(rd.mat_mul(ginv, v), gtw) for v in ref]
        assert all(rd.mat_mul(v, ref[vi]) == rd.mat_identity()
                   for v, vi in zip(ref, weyl.inverses, strict=True))
        # the tree reaches every element but 1, each after its parent
        reached = {ref.index(rd.mat_identity())}
        for x, k, p in weyl.tree:
            assert p in reached and x not in reached
            assert ref[x] == rd.mat_mul(ref[p], gmats[k])
            reached.add(x)
        assert len(reached) == len(ref)
        assert rd.f_conjugacy_classes(weyl) == f_classes(g, m0)
    assert (rd.weyl_group(model._replace(weylgens=conj))
            is not rd.weyl_group(model))


def test_f_centralizers_match_definition(model):
    # v in W with w F(v) = v w, one element of the oracle's closure at a time,
    # for the least element of every F-class
    weyl = rd.weyl_group(model)
    elems = sorted(weyl_closure(model.weylgens))
    classes = f_classes(model.weylgens, model.frobenius)
    assert len(classes) == 11
    for w, _, cent in classes:
        want = [v for v in elems
                if rd.mat_mul(w, frobenius_twist(v, model.frobenius)) == rd.mat_mul(v, w)]
        assert list(rd.f_centralizer(weyl, w)) == want and len(want) == cent


def test_twist_off_the_lattice_is_weyl_data_error(model):
    # swapping e2 and e4 is a finite group whose m0-twist has odd entries
    swap = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))
    with pytest.raises(rd.WeylDataError, match="twist left the lattice"):
        rd.weyl_group(model._replace(weylgens={"s": swap}))


def test_torus_order_examples(model):
    weyl = rd.weyl_group(model)
    ident = rd.mat_identity()
    assert rd.torus_order(weyl, ident, 1) == 49
    w6 = rd.word_matrix(weyl, model.weylclasses["T6"].word)
    assert rd.torus_order(weyl, w6, 1) == 25
    w10 = rd.word_matrix(weyl, model.weylclasses["T10"].word)
    assert rd.torus_order(weyl, w10, 1) == 37
    w8 = rd.word_matrix(weyl, model.weylclasses["T8"].word)
    assert rd.torus_fixed_count(weyl, w8, 1) == 81


def test_snf_cokernel_matches_det(model):
    weyl = rd.weyl_group(model)
    for wc in model.weylclasses.values():
        w = rd.word_matrix(weyl, wc.word)
        for n in (1, 2, 3):
            assert rd.torus_order(weyl, w, n) == rd.torus_fixed_count(weyl, w, n)


def test_triangle_index_basic():
    from dadecheck.counting import lattice_index, triangle

    assert lattice_index(triangle(((2, 0), (0, 3)), 2)) == 6
    assert triangle(((1, 0), (0, 0)), 2) == [[1, 0], [0, 0]]  # a missing pivot: rank 1
    assert lattice_index(triangle(((1, 0), (0, 0)), 2)) == 0
    assert lattice_index(triangle(((4, 2), (2, 4)), 2)) == 12


def test_weyl_table_checks(model):
    recs = rd.weyl_table_checks(model)
    for n in (1, 2, 3, 4, 5):
        recs += rd.torus_order_checks(model, n)
    for r in recs:
        assert r.ok, (r.check, r.name, r.n, r.expected, r.actual)


def test_torus_parameterizations(model):
    for n in (1, 2):
        for r in rd.torus_param_checks(model, n):
            assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_dual_torus(model):
    for n in (1, 2):
        recs = rd.dual_torus_check(model, n)
        assert recs
        for r in recs:
            assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_dual_torus_t6_n1_distinct(model):
    recs = {r.name: r for r in rd.dual_torus_check(model, 1) if r.check == "dual_torus_distinct"}
    assert recs["T6"].actual == 25
    assert recs["T8"].actual == 81


def test_pairings(model):
    for n in (1, 2):
        for r in rd.pairing_checks(model, n):
            assert r.ok, (r.name, n)


def test_param_count_invariant_n3(model):
    # the declared index ranges multiply out to the determinant at n = 3, and
    # every torus is fixed with the table's number of distinct points
    recs = rd.torus_param_checks(model, 3)
    assert sorted(r.check for r in recs) == sorted(
        ["torus_param_count", "torus_param_distinct", "torus_param_fixed"] * 11)
    for r in recs:
        assert r.ok, (r.check, r.name, r.expected, r.actual)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tori_match_listing(model, n):
    from enum_oracle import torus_by_listing

    for side, prefix, check in (("torus", "torus_param", rd.torus_param_checks),
                                ("dual", "dual_torus", rd.dual_torus_check)):
        listed = torus_by_listing(model, n, side)
        got = {(r.name, r.check): r.actual for r in check(model, n)}
        assert len(listed) == 11
        for wid, (fixed, distinct) in listed.items():
            assert got[(wid, prefix + "_fixed")] is fixed, (side, wid)
            assert got[(wid, prefix + "_distinct")] == distinct, (side, wid)


def test_subsystem_type_examples():
    assert rd.subsystem_type([]) == "A0"
    # two orthogonal roots
    assert rd.subsystem_type([(1, 0, 0, 0), (0, 0, 0, 1)]) == "A1xA1"
    # adjacent long/short simple pair generates B2
    assert rd.subsystem_type([(0, 1, 0, 0), (0, 0, 1, 0)]) == "B2"
    assert (
        rd.subsystem_type([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        == "F4"
    )
    # {e1-e2, e2-e3, e3-e4, e4} on the eps basis spans B4, 32 of the 48 roots
    assert rd.subsystem_type([(0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]) == "B4"
    # r2, r3, r4: 6 long and 12 short roots
    assert rd.subsystem_type([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == "C3"


def test_subsystem_type_matches_dynkin_oracle():
    # about 500 independent pi of 1-4 distinct roots, each named from the
    # Dynkin diagram of a base of its closure
    import random

    rng = random.Random(1949)
    roots = sorted(rd.roots_in_x())
    met = set()
    for _ in range(600):
        pi = rng.sample(roots, rng.randint(1, 4))
        try:
            psi = rd.closed_subsystem(pi)
        except rd.NotLinearlyIndependent:
            continue
        want = dynkin_type(psi)
        assert rd.subsystem_type(pi) == want, pi
        met.update(want.split("x"))
    assert {"B3", "C3", "B4", "F4"} <= met, met


def test_subsystem_closure_is_closed():
    psi = rd.closed_subsystem([(0, 1, 0, 0), (0, 0, 1, 0)])
    assert len(psi) == 8  # a B2 system
    for a in psi:
        for b in psi:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rd.roots_in_x():
                assert s in psi


def test_closed_subsystem_matches_per_root_solve(model):
    # reference: one exact elimination per root, as closed_subsystem once did
    # B2 = [r2, r3] solves on a minor other than the first columns
    for pi in [fam.pi for fam in model.classfams.values() if fam.pi]:
        want = set()
        for r in rd.roots_in_x():
            try:
                coeffs = _solve_in_basis(r, pi)
            except ValueError:  # outside the span
                continue
            if all(c.denominator == 1 for c in coeffs):
                want.add(r)
        assert rd.closed_subsystem(pi) == want, pi


def _solved_closure(pi):
    """Z pi intersect Phi by one exact elimination per root; NotLinearlyIndependent if pi is."""
    want = set()
    for r in rd.roots_in_x():
        try:
            coeffs = _solve_in_basis(r, pi)
        except rd.NotLinearlyIndependent:
            raise
        except ValueError:  # outside the span
            continue
        if all(c.denominator == 1 for c in coeffs):
            want.add(r)
    return want


def test_closed_subsystem_matches_per_root_solve_on_drawn_roots():
    # 100 pairs and 100 triples of distinct roots, beyond the table's pi;
    # -r next to r and three roots in one plane are dependent
    import random

    rng = random.Random(2010)
    roots = sorted(rd.roots_in_x())
    dependent = 0
    for k in (2, 3):
        for _ in range(100):
            pi = rng.sample(roots, k)
            try:
                want = _solved_closure(pi)
            except rd.NotLinearlyIndependent:
                dependent += 1
                with pytest.raises(rd.NotLinearlyIndependent):
                    rd.closed_subsystem(pi)
            else:
                assert rd.closed_subsystem(pi) == want, pi
    assert 0 < dependent < 200


def test_not_linearly_independent():
    with pytest.raises(rd.NotLinearlyIndependent):
        rd.subsystem_type([(1, 0, 0, 0), (-1, 0, 0, 0)])


def test_closure_overflow():
    bad = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    with pytest.raises(rd.ClosureOverflow):
        rd._closure([bad], 40)


def test_shipped_subsystems(model):
    recs = rd.subsystem_checks(model)
    assert len(recs) == 36  # 18 type + 18 stability records
    for r in recs:
        assert r.ok, (r.check, r.name, r.expected, r.actual)
    # rows labelled A1 in the class-type table carry the computed closure
    # type A1xA1, recorded side by side without asserting equality
    assert model.classfams["h3"].pitype == "A1xA1"
    assert model.classfams["h3"].pilabel == "A1"


def test_singular_matrix_detected():
    # 2^n m0 w - 1 is odd-determinant for every integer w, so the singular
    # branch is only reachable through degenerate matrices directly
    with pytest.raises(rd.SingularMatrix):
        mat_inv_int(((0,) * 4,) * 4)


def test_torus_enumeration_n3_covers_every_class(model):
    torus = [r for r in rd.torus_param_checks(model, 3) if r.check != "torus_param_count"]
    dual = rd.dual_torus_check(model, 3)
    assert len(torus) + len(model.weylclasses) == 33
    assert len(dual) == 22
    for r in torus + dual:
        assert r.ok, (r.check, r.name, r.expected, r.actual)


def test_transposed_action_is_not_fixed(model, monkeypatch):
    # v M in place of M v on the torus side, and M v in place of v M on the dual side
    mat_vec = rd.mat_vec
    monkeypatch.setattr(rd, "mat_vec", lambda v, m: mat_vec(v, tuple(zip(*m))))
    for check, recs in (("torus_param_fixed", rd.torus_param_checks(model, 1)),
                        ("dual_torus_fixed", rd.dual_torus_check(model, 1))):
        fixed = [r for r in recs if r.check == check]
        assert len(fixed) == len(model.weylclasses)
        assert not any(r.actual for r in fixed), check


def _edit_class(model, wid, **fields):
    wc = model.weylclasses[wid]._replace(**fields)
    return model._replace(weylclasses=dict(model.weylclasses, **{wid: wc}))


@pytest.mark.parametrize("side, field", [("torus", "tranges"), ("dual", "sranges")])
def test_chart_not_well_defined_fails_distinct(model, side, field):
    # one point short of the period: (r - 1) R != 0 mod D
    short = (("sub", getattr(model.weylclasses["T3"], field)[0], ("int", 1)),)
    edited = _edit_class(model, "T3", **{field: short})
    check, prefix = ((rd.torus_param_checks, "torus_param") if side == "torus"
                     else (rd.dual_torus_check, "dual_torus"))
    recs = {r.check: r for r in check(edited, 1) if r.name == "T3"}
    distinct = recs[prefix + "_distinct"]
    assert distinct.reason is None and not distinct.ok
    assert distinct.actual.startswith("chart not well defined mod ")
    assert recs[prefix + "_fixed"].ok


def test_edited_charts_match_listing(model):
    from enum_oracle import torus_by_listing

    wc = model.weylclasses["T3"]
    (order,) = wc.tranges
    edits = [
        # every point twice: a kernel of order 2, half of prod r distinct points
        {"tranges": (("mul", ("int", 2), order),)},
        # a constant shift that w . 2^n m0 does not fix
        {"tcoords": (("add", wc.tcoords[0], ("div", ("int", 1), order)),) + wc.tcoords[1:]},
    ]
    results = []
    for fields in edits:
        edited = _edit_class(model, "T3", **fields)
        got = {r.check: r.actual for r in rd.torus_param_checks(edited, 1) if r.name == "T3"}
        listed = torus_by_listing(edited, 1, "torus")["T3"]
        assert (got["torus_param_fixed"], got["torus_param_distinct"]) == listed
        results.append(listed)
    assert results == [(True, 35), (False, 35)]  # 35 = (q^2-1) p8b at n = 1


@pytest.mark.parametrize("field", ["tcoords", "scoords"])
def test_perturbed_coordinate_row_fails(model, field):
    wc = model.weylclasses["T3"]
    rows = list(getattr(wc, field))
    rows[1] = ("add", rows[1], rows[0])
    edited = model._replace(
        weylclasses=dict(model.weylclasses, T3=wc._replace(**{field: tuple(rows)})))
    recs = rd.torus_param_checks(edited, 1) + rd.dual_torus_check(edited, 1)
    assert any(not r.ok for r in recs)


@pytest.mark.parametrize("n", [1, 8, 9])
def test_chart_change_of_basis_is_exact(model, n):
    # the value on the simple-root basis is x_i = <v, r_i>, with r_i the simple roots on eps
    from dadecheck.counting import _affine
    from dadecheck.rootdatum import _chart

    twice = [[int(2 * c) for c in r] for r in _R_IN_EPS]  # 2 r_i is integral, D is odd
    for wid, wc in sorted(model.weylclasses.items()):
        denom, chart = _chart(wid, wc.tcoords, wc.tvars, n, "torus")
        _, rows = _affine(wid, wc.tcoords, n, wc.tvars)
        for k, x in enumerate(chart):
            eps = [int(row[k] * denom) for row in rows]
            assert all((2 * x[i] - sum(eps[j] * twice[i][j] for j in range(4))) % denom == 0
                       for i in range(4)), (wid, k)
    if n == 8:
        denom, chart = _chart("T5", model.weylclasses["T5"].tcoords,
                              model.weylclasses["T5"].tvars, 8, "torus")
        assert denom == 2 ** 34 + 1 and chart[1][3] == 17146315008
