"""Parameter set enumeration against the cardinality formulas."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadecheck.paramsets import (
    BudgetExceeded,
    cardinality_check,
    class_count,
    class_representatives,
    family_class_count,
    family_formula_count,
    formula_count,
    semisimple_sum_checks,
)
from enum_oracle import enumerate_classes, family_elements, orbit_count


def test_gi27_representatives(model):
    assert list(class_representatives(model.paramsets["GI_27"], 1)) == [(1,), (2,), (3,)]
    assert enumerate_classes(model.paramsets["GI_27"], 1).representatives() == [(1,), (2,), (3,)]


def test_pai4_n1(model):
    # Z_63 minus multiples of 9, modulo k ~ 8k: orbits of size 2
    enum = enumerate_classes(model.paramsets["PaI_4"], 1)
    assert enum.count == 28
    assert formula_count(model.paramsets["PaI_4"], 1) == 28
    assert enum.n_admissible == 2 * enum.count


def test_pai3_n1(model):
    assert class_count(model.paramsets["PaI_3"], 1) == 21
    assert formula_count(model.paramsets["PaI_3"], 1) == 21


def test_pbi6_via_pair_form(model):
    # brute force over Z_7 x Z_13 with orbits of size 4
    enum = enumerate_classes(model.paramsets["PbI_6J"], 1)
    assert enum.count == 21
    assert enum.n_admissible == 84


def test_classes_partition_admissible(model):
    # orbit sizes sum to the number of admissible tuples
    for sid in ("GI_27", "GI_43", "PaI_3", "PaI_4", "PbI_5", "PbI_6J"):
        enum = enumerate_classes(model.paramsets[sid], 2)
        sizes = 0
        group = enum.group
        moduli = enum.moduli
        for rep in enum.representatives():
            orbit = set()
            for g in group.maps:
                if len(moduli) == 1:
                    orbit.add((g[0][0] * rep[0] + g[0][1]) % moduli[0])
                else:
                    orbit.add((
                        (g[0][0] * rep[0] + g[0][1] * rep[1] + g[0][2]) % moduli[0],
                        (g[1][0] * rep[0] + g[1][1] * rep[1] + g[1][2]) % moduli[1],
                    ))
            sizes += len(orbit)
        assert sizes == enum.n_admissible, sid


def test_dual_encodings_match(model):
    for n in (1, 2):
        for a1, j in (("PbI_6", "PbI_6J"), ("PbI_7", "PbI_7J")):
            assert class_count(model.paramsets[a1], n) == class_count(
                model.paramsets[j], n
            )
            assert model.paramsets[j].alias_of == a1


def test_degenerate_h4_and_g4(model):
    assert family_class_count(model.classfams["h4"], model, 1) == 0
    assert family_class_count(model.classfams["g4"], model, 1) == 0
    assert family_formula_count(model.classfams["h4"], 1) == 0


def test_family_h8_counts(model):
    assert family_class_count(model.classfams["h8"], model, 1) == 1
    assert family_class_count(model.classfams["h8"], model, 2) == 6


def test_cardinalities_n1_n2(model):
    for n in (1, 2):
        recs = cardinality_check(model, n)
        assert recs, "no records"
        for r in recs:
            assert r.ok, (r.name, r.expected, r.actual)


def test_cardinalities_n3(model):
    recs = cardinality_check(model, 3)
    assert sum(1 for r in recs if r.check == "cardinality") > 50
    for r in recs:
        assert r.ok, (r.name, r.expected, r.actual)


def test_semisimple_sums(model):
    for n in (1, 2, 3, 4):
        q4 = 2 ** (2 * (2 * n + 1))
        for r in semisimple_sum_checks(model, n):
            assert r.expected == q4
            assert r.ok, (r.check, n, r.actual)


def test_budget_exceeded(model):
    # at n = 6 BI_1 has (2^13 - 1)^2 tuples, more than are ever listed
    with pytest.raises(BudgetExceeded, match="^grid: 67092481 tuples, more than 4194304$"):
        class_representatives(model.paramsets["BI_1"], 6)
    assert class_count(model.paramsets["BI_1"], 6) == formula_count(model.paramsets["BI_1"], 6)


def test_budget_allows_n4_pairs(model):
    assert sum(1 for _ in class_representatives(model.paramsets["BI_1"], 4)) == (2 ** 9 - 1) ** 2


def test_non_integral_modulus():
    from dadecheck.counting import NonIntegralModulus
    from table_text import parse_model

    m = parse_model(
        "paramset X { group: G action: doubling moduli: [q] card: 1 }"
    )
    with pytest.raises(NonIntegralModulus):
        class_representatives(m.paramsets["X"], 1)


def _one_set(body):
    from table_text import parse_model

    return parse_model("paramset X {\n  group: G\n  action: doubling\n" + body + "}\n").paramsets["X"]


@pytest.mark.parametrize("body", [
    # 6 -> 0 leaves Z_7 minus {0}
    "  moduli: [7]\n  exclude: k = 0\n  equiv: [k -> k+1]\n  card: 1\n",
    # not invertible: 4 -> 0 leaves Z_8 minus {0}
    "  moduli: [8]\n  exclude: k = 0\n  equiv: [k -> 2*k]\n  card: 1\n",
    # only the second generator leaves Z_7 x Z_7 minus the line l = 0
    "  moduli: [7, 7]\n  exclude: l = 0\n  equiv: [(k, l) -> (k, 2*l), (k, l) -> (l, k)]\n"
    "  card: 1\n",
])
def test_map_leaving_admissible_set_names_the_set(body):
    from dadecheck.counting import MapClosureError

    with pytest.raises(MapClosureError, match="^X: equivalence map leaves the admissible set"):
        enumerate_classes(_one_set(body), 1)
    # the package checks invertibility first: the map k -> 2 k on Z_8 fails that
    with pytest.raises(MapClosureError, match="^X: (equivalence map leaves the admissible set"
                                              "|an equivalence map is not invertible)"):
        class_representatives(_one_set(body), 1)


def test_doubling_leaving_class_set_names_the_set():
    from dadecheck.counting import MapClosureError, fixed_class_count
    from enum_oracle import fixed_classes_doubling

    spec = _one_set("  moduli: [7]\n  exclude: k = 3\n  card: 6\n")
    assert class_count(spec, 1) == enumerate_classes(spec, 1).count == 6
    with pytest.raises(MapClosureError, match="^X: doubling leaves the class set"):
        fixed_class_count(spec, 1, 1)  # 5 -> 3
    with pytest.raises(MapClosureError, match="^X: doubling leaves the class set"):
        fixed_classes_doubling(enumerate_classes(spec, 1), 1)


@pytest.mark.parametrize("body, message", [
    # 2 k -> 4 k is not in the group {k, 2 k + 1}: the doubling permutes no classes
    ("  moduli: [3]\n  equiv: [k -> 2*k+1]\n  card: 1\n", "doubling does not normalize"),
    # 2 is no unit mod 6
    ("  moduli: [6]\n  equiv: [k -> -k]\n  card: 1\n", "doubling by 2^1 is not invertible"),
    # k -> 3 k has no inverse mod 9, though it keeps the admissible set
    ("  moduli: [9]\n  equiv: [k -> 3*k]\n  card: 1\n", "an equivalence map is not invertible"),
], ids=["not-normalized", "even-modulus", "map-not-invertible"])
def test_doubling_preconditions_name_the_set(body, message):
    import re

    from dadecheck.counting import MapClosureError, fixed_class_count

    with pytest.raises(MapClosureError, match="^X: " + re.escape(message)):
        fixed_class_count(_one_set(body), 1, 1)


@pytest.mark.parametrize("body, message", [
    ("  moduli: [7]\n  equiv: [k -> k/2]\n", "map k -> k/2 has non-integral coefficients"),
    # l = k is no function on Z_7 x Z_3: k = 0 and k = 7 are one tuple
    ("  moduli: [7, 3]\n  equiv: [(k,l) -> (k, k)]\n",
     "map (k,l) -> (k, k) is not well defined mod (7, 3)"),
], ids=["non-integral", "not-well-defined"])
def test_bad_map_names_the_set_and_the_map(body, message):
    import re

    from dadecheck.counting import MapClosureError

    with pytest.raises(MapClosureError, match="^X: " + re.escape(message)):
        class_count(_one_set(body + "  card: 1\n"), 1)


def test_div_modulus_zero_names_the_set():
    from dadecheck.counting import MapClosureError

    with pytest.raises(MapClosureError, match="^X: modulus 0 in"):
        class_count(_one_set("  moduli: [7]\n  exclude: (q-q) div k\n  card: 6\n"), 1)


def test_div_atom_not_well_defined_names_the_set():
    # 5 | k is no congruence on Z_7: k = 5 and k = 12 = 5 are one tuple
    from dadecheck.counting import MapClosureError

    spec = _one_set("  moduli: [7]\n  exclude: 5 div k\n  card: 5\n")
    with pytest.raises(MapClosureError, match=r"^X: atom 5 div k is not well defined mod \(7,\)"):
        class_count(spec, 1)
    assert enumerate_classes(spec, 1).count == 5  # the listing reads 5 | k on 0..6


def test_set_checks_run_once_per_set_and_n(model, monkeypatch):
    # the generators are checked once per (set, n); the doubling at each t
    from dadecheck import counting

    calls = []
    real = counting._stable
    monkeypatch.setattr(counting, "_stable", lambda e, r, g: calls.append(g) or real(e, r, g))
    monkeypatch.setattr(counting, "_SET_CACHE", {})
    monkeypatch.setattr(counting, "_FIXED_CACHE", {})
    spec = model.paramsets["PaI_4"]
    for t in (1, 3, 9):
        assert counting.fixed_class_count(spec, 4, t) >= 0
    assert len(spec.equiv) == 1 and len(calls) == 1 + 3


def test_union_test_not_enough_falls_back_to_the_exact_check():
    # the swap keeps l = 0 or (k, l) = (0, 1) on Z_2 x Z_2, but sends the line
    # <(1, 0)> onto <(0, 1)>, no line: the exact check shows it stable
    from dadecheck import counting

    spec = _one_set("  moduli: [2, 2]\n  exclude: l = 0 or k = 0 and l = 1\n"
                    "  equiv: [(k,l) -> (l,k)]\n  card: 1\n")
    grid = counting._set_grid(spec, 1)
    assert counting._union_of(grid.exclude, grid.moduli).points == ((0, 1),)
    assert class_count(spec, 1) == enumerate_classes(spec, 1).count == 1


def test_set_cache_keyed_on_the_spec():
    # two sets named X at one n: Z_7 minus {0} is kept by k -> 2k, minus {1} is not
    from dadecheck.counting import MapClosureError

    kept = _one_set("  moduli: [7]\n  exclude: k = 0\n  equiv: [k -> 2*k]\n  card: 2\n")
    moved = _one_set("  moduli: [7]\n  exclude: k = 1\n  equiv: [k -> 2*k]\n  card: 2\n")
    assert class_count(kept, 1) == 2
    with pytest.raises(MapClosureError, match="^X: equivalence map leaves the admissible set"):
        class_count(moved, 1)
    assert class_count(kept, 1) == 2


def _sets(**bodies):
    """Sets parsed together, each named by its keyword, with the body given."""
    from table_text import parse_model

    text = "".join(f"paramset {name} {{\n  group: G\n  action: doubling\n{body}  card: 1\n}}\n"
                   for name, body in bodies.items())
    return parse_model(text).paramsets


_BASE = "  moduli: [7]\n  exclude: k = 0\n  equiv: [k -> -k]\n"


def _counting_calls(monkeypatch):
    """Fresh count caches, and a list that gets one item per _admissible_fixed call."""
    from dadecheck import counting

    calls = []
    real = counting._admissible_fixed
    monkeypatch.setattr(counting, "_admissible_fixed",
                        lambda h, r, e: calls.append(h) or real(h, r, e))
    monkeypatch.setattr(counting, "_SET_CACHE", {})
    monkeypatch.setattr(counting, "_FIXED_CACHE", {})
    return calls


def test_sets_with_equal_grids_share_their_counts(monkeypatch):
    # X and Y differ only in name: one grid, and one Burnside sum (|G| = 2 terms) per t
    from dadecheck import counting

    calls = _counting_calls(monkeypatch)
    sets = _sets(X=_BASE, Y=_BASE)
    assert counting._set_grid(sets["X"], 1) is counting._set_grid(sets["Y"], 1)
    # the classes {1, 6}, {2, 5}, {3, 4}: k -> 2k moves each, k -> 8k = k fixes each
    for t, fixed in ((0, 3), (1, 0), (3, 3)):
        before = len(calls)
        assert counting.fixed_class_count(sets["X"], 1, t) == fixed
        assert counting.fixed_class_count(sets["Y"], 1, t) == fixed
        assert len(calls) == before + 2
    assert len(counting._SET_CACHE) == 1


@pytest.mark.parametrize("body", [
    _BASE.replace("[7]", "[9]"),
    _BASE.replace("  exclude: k = 0\n", ""),
    _BASE.replace("k -> -k", "k -> 2*k"),
], ids=["moduli", "exclude", "equiv"])
def test_sets_differing_in_one_grid_field_do_not_share(monkeypatch, body):
    from dadecheck import counting

    calls = _counting_calls(monkeypatch)
    sets = _sets(X=_BASE, Y=body)
    assert class_count(sets["X"], 1) == 3
    before = len(calls)
    assert class_count(sets["Y"], 1) == enumerate_classes(sets["Y"], 1).count
    assert len(calls) > before
    assert counting._set_grid(sets["X"], 1) != counting._set_grid(sets["Y"], 1)
    assert len(counting._SET_CACHE) == 2


def test_failing_counts_are_not_kept(monkeypatch):
    # 2 is no unit mod 6, and k -> 2k leaves Z_7 minus {1}: each call raises naming its set
    from dadecheck import counting
    from dadecheck.counting import MapClosureError

    _counting_calls(monkeypatch)
    even = "  moduli: [6]\n  equiv: [k -> -k]\n"
    moved = "  moduli: [7]\n  exclude: k = 1\n  equiv: [k -> 2*k]\n"
    sets = _sets(X=even, Y=even, U=moved, V=moved)
    assert class_count(sets["X"], 1) == class_count(sets["Y"], 1) == 4
    for name in ("X", "Y", "X"):
        with pytest.raises(MapClosureError, match=f"^{name}: doubling by 2\\^1 is not invertible"):
            counting.fixed_class_count(sets[name], 1, 1)
    for name in ("U", "V", "U"):
        with pytest.raises(MapClosureError,
                           match=f"^{name}: equivalence map leaves the admissible set"):
            class_count(sets[name], 1)
    assert len(counting._FIXED_CACHE) == 1 and len(counting._SET_CACHE) == 1


def test_shipped_sets_build_18_grids_per_n(model, monkeypatch):
    # the 83 indexed sets repeat a few grids: one of them is shared by 34 sets
    from dadecheck import counting

    built = []
    real = counting.equivalence_group
    monkeypatch.setattr(counting, "equivalence_group",
                        lambda spec, n, moduli: built.append(n) or real(spec, n, moduli))
    monkeypatch.setattr(counting, "_SET_CACHE", {})
    monkeypatch.setattr(counting, "_FIXED_CACHE", {})
    sets = _enumerable_sets(model)
    assert len(sets) == 83
    for n in (1, 2, 3, 4):
        for spec in sets:
            class_count(spec, n)
        assert built.count(n) == 18, n


@pytest.mark.parametrize("n", [8, 9, 12, 20, 30])
def test_set_counts_past_int64(model, n):
    # q^2 - 1 = 2^61 - 1 at n = 30: no listing and no int64 bound
    sets = _enumerable_sets(model)
    assert len(sets) == 83
    for spec in sets:
        assert class_count(spec, n) == formula_count(spec, n), spec.id


def test_trusted_inputs_flagged(model):
    from dadecheck.paramsets import trusted_input_flags

    names = {r.name.split(":")[0] for r in trusted_input_flags(model)}
    assert names == {"GI_50", "GI_51", "GI_ss"}


def _expr(text):
    from dadecheck.tabledsl import _Parser

    return _Parser(text).parse_expr()


@pytest.mark.parametrize("text, varnames", [
    ("a^2/(q^2-1)", ("a",)),
    ("k^2", ("k",)),
    ("a*b", ("a", "b")),
    ("(th+a)*(1-b)/p8", ("a", "b")),
    ("2^a", ("a",)),
    ("a^b", ("a", "b")),
    ("a/b", ("a", "b")),
    ("a/(b+1)", ("a", "b")),
])
def test_affine_compiler_rejects_non_affine(text, varnames):
    from dadecheck.counting import MapClosureError, _affine

    with pytest.raises(MapClosureError, match="^X: "):
        _affine("X", [_expr(text)], 1, varnames)


def test_affine_cache_keyed_on_expressions(model, tmp_path):
    from dadecheck.counting import MapClosureError, _affine

    # a second model whose h8 has the torus coordinates 3 and 4 swapped
    other = _family_data_copy(tmp_path, "h8", [("coords: [0, 0, i/p8b, -q^2*i/p8b]",
                                                "coords: [0, 0, -q^2*i/p8b, i/p8b]")])
    ours, theirs = model.classfams["h8"], other.classfams["h8"]
    for _ in range(2):  # the second round reads the cache
        _, first = _affine("h8", ours.coords, 1, ours.vars)
        _, second = _affine("h8", theirs.coords, 1, theirs.vars)
        assert (first[2], first[3]) == (second[3], second[2]) and first[2] != second[2]
    assert family_elements(ours, 1)[1].tolist() != family_elements(theirs, 1)[1].tolist()
    for owner in ("X", "Y"):  # errors are not cached: each names its own owner
        with pytest.raises(MapClosureError, match=f"^{owner}: "):
            _affine(owner, [_expr("k^2")], 1, ("k",))


def test_affine_compiler_coefficients():
    from fractions import Fraction

    from dadecheck.counting import _affine

    exprs = [_expr("(2*th-1)*a/(q^2-1) + b/7"), _expr("-(a-3*b)^1 + th^2")]
    denom, rows = _affine("X", exprs, 1, ("a", "b"))
    assert rows == ((Fraction(3, 7), Fraction(1, 7), 0), (-1, 3, 4))
    assert denom == 7
    # affine is judged by the value: products of indices that cancel are accepted
    denom, rows = _affine("X", [_expr("a*b - a*b + a"), _expr("b^0")], 1, ("a", "b"))
    assert (denom, rows) == (1, ((1, 0, 0), (0, 0, 1)))


@st.composite
def _affine_trees(draw):
    """An expression tree affine in the indices a and b by its construction.

    Constants are integers, th, n and p8b with sums, products and powers;
    an index term may be added, negated, multiplied by a constant, divided
    by a nonzero integer or raised to the first power.
    """
    const = st.recursive(
        st.integers(-9, 9).map(lambda v: ("int", v))
        | st.sampled_from(["th", "n", "p8b"]).map(lambda s: ("sym", s)),
        lambda sub: st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub)
        | st.tuples(st.just("pow"), sub, st.integers(0, 3).map(lambda v: ("int", v))),
        max_leaves=4)
    return draw(st.recursive(
        const | st.sampled_from(["a", "b"]).map(lambda s: ("sym", s)),
        lambda sub: st.tuples(st.sampled_from(["add", "sub"]), sub, sub)
        | sub.map(lambda e: ("neg", e))
        | st.tuples(st.just("mul"), const, sub)
        | st.tuples(st.just("div"), sub, st.integers(1, 9).map(lambda v: ("int", v)))
        | st.tuples(st.just("pow"), sub, st.just(("int", 1))),
        max_leaves=8))


@given(_affine_trees(), st.integers(1, 3), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=150, deadline=None)
def test_affine_rows_match_evaluation(expr, n, a, b):
    from fractions import Fraction

    from dadecheck.exactnum import SqrtTwoRat
    from dadecheck.counting import _affine
    from dadecheck.tabledsl import build_env, eval_expr

    denom, ((ca, cb, c),) = _affine("X", [expr], n, ("a", "b"))
    assert all((denom * Fraction(x)).denominator == 1 for x in (ca, cb, c))
    assert SqrtTwoRat(ca * a + cb * b + c) == eval_expr(expr, build_env(n, a=a, b=b))


def _centralizer_by_definition(word, model):
    """v in W with v^-1 w F(v) = w, i.e. w F(v) = v w, one element at a time."""
    from dadecheck import rootdatum as rd
    from weyl_oracle import frobenius_twist, weyl_closure

    w = rd.word_matrix(rd.weyl_group(model), word)
    return {v for v in weyl_closure(model.weylgens)
            if rd.mat_mul(w, frobenius_twist(v, model.frobenius)) == rd.mat_mul(v, w)}


def test_centralizer_cache_keyed_on_generators(model):
    from dadecheck.paramsets import _centralizer

    gens = dict(model.weylgens)
    gens["r1"], gens["r2"] = gens["r2"], gens["r1"]
    swapped = model._replace(weylgens=gens)
    first = _centralizer(model, ("r1", "r3")).mats
    second = _centralizer(swapped, ("r1", "r3")).mats
    assert set(first) == _centralizer_by_definition(("r1", "r3"), model)
    assert set(second) == _centralizer_by_definition(("r1", "r3"), swapped)
    assert set(first) != set(second)


def test_caches_keyed_on_the_twist(model, tmp_path):
    # the r1-conjugate of m0 also squares to 2 but gives another F: a data copy
    # with it and the shipped tables in one process, each against the oracle
    from importlib import resources

    import dadecheck
    from dadecheck import rootdatum as rd
    from weyl_oracle import f_classes

    r1, m0 = model.weylgens["r1"], model.frobenius
    twist = rd.mat_mul(rd.mat_mul(r1, m0), r1)
    src = resources.files("dadecheck") / "data"
    for fname in dadecheck.DATA_FILES:
        text = (src / fname).read_text()
        if fname == "weyl.def":
            old, new = (str([list(row) for row in m]) for m in (m0, twist))
            assert old in text
            text = text.replace(old, new)
        (tmp_path / fname).write_text(text)
    conjugated = dadecheck.load_model(str(tmp_path))
    assert conjugated.frobenius == twist
    classes, counts = [], []
    for m in (model, conjugated):
        classes.append(rd.f_conjugacy_classes(rd.weyl_group(m)))
        assert classes[-1] == f_classes(m.weylgens, m.frobenius)
        fam = m.classfams["g8"]
        counts.append(family_class_count(fam, m, 1))
        oracle = _centralizer_by_definition(fam.word, m)
        assert counts[-1] == _orbit_count_reference(fam, m, 1, oracle)
    assert classes[0] != classes[1]
    assert counts == [1, 2]


def test_centralizer_orders_match_table(model):
    from dadecheck.paramsets import _centralizer

    for wc in model.weylclasses.values():
        assert len(_centralizer(model, wc.word).mats) == wc.cent, wc.word


def _orbit_count_reference(fam, model, n, mats=None):
    """Orbits on the family members by closing each point, on tuples of ints.

    mats is the F-centralizer of the family's word, by default the package's.
    """
    from dadecheck.paramsets import _centralizer

    denom, vecs = family_elements(fam, n)
    if mats is None:
        mats = _centralizer(model, fam.word).mats
    if fam.side == "torus":  # columns: v -> M v
        mats = [list(zip(*m)) for m in mats]
    seen, orbits = set(), 0
    for v in map(tuple, vecs.tolist()):
        if v in seen:
            continue
        orbits += 1
        seen |= {tuple(sum(v[i] * m[i][j] for i in range(4)) % denom for j in range(4))
                 for m in mats}
    return orbits


# The paths family_class_count takes on the shipped tables at every n: g1,
# g5, h1 and h5 have no index (each is one point, so one orbit), the orbits
# of g2, g3, h2, h3 and h6 leave their charts, and every other family is
# charted.
NO_INDEX = {"g1", "g5", "h1", "h5"}
ORBIT_PATH = {"g2", "g3", "h2", "h3", "h6"}


def _grid_and_exclusion(fam, n):
    """The family's ranges at n and its compiled exclusion (or None)."""
    from dadecheck.counting import _exclusion, _ranges

    ranges = _ranges(fam.id, fam.ranges, n)
    return ranges, (None if fam.exclude is None
                    else _exclusion(fam.id, fam.exclude, n, fam.vars, ranges))


def _path(fam, model, n, cent=None):
    """(name of the path that counts the family, its count), as family_class_count tries them.

    None where no Burnside path counts it.
    """
    from dadecheck import paramsets as ps

    if cent is None:
        cent = ps._centralizer(model, fam.word)
    ranges, exclude = _grid_and_exclusion(fam, n)
    if not ranges:
        return "no_index", family_class_count(fam, model, n)
    for path in (ps._chart_count, ps._orbit_family_count):
        got = path(fam, n, cent, ranges, exclude)
        if isinstance(got, int):
            return path.__name__.strip("_"), got
    return None


def _expected_path(fid):
    return ("orbit_family_count" if fid in ORBIT_PATH
            else "no_index" if fid in NO_INDEX else "chart_count")


def _both_paths(fam, model, n, cent=None):
    """((path, count) of the package, orbit count of the listing oracle) of one family."""
    from dadecheck.paramsets import _centralizer

    if cent is None:
        cent = _centralizer(model, fam.word)
    denom, vecs = family_elements(fam, n)
    return _path(fam, model, n, cent), orbit_count(vecs, cent.mats, denom, fam.side)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_kernel_matches_reference(model, n):
    # the oracle also counts g2/g3/h5/h6, whose orbits leave the member set
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        (path, got), listed = _both_paths(fam, model, n)
        ref = _orbit_count_reference(fam, model, n)
        assert listed == ref == got, fid
        assert path == _expected_path(fid), fid
        assert family_class_count(fam, model, n) == ref, fid


@pytest.mark.parametrize("fid", ["g13", "g14", "h13", "h14"])
def test_burnside_n4_largest_centralizers_match_formula(model, fid):
    from dadecheck.paramsets import _centralizer

    fam = model.classfams[fid]
    assert len(_centralizer(model, fam.word).mats) == 96
    (path, got), listed = _both_paths(fam, model, 4)
    assert path == "chart_count"
    assert got == listed == family_formula_count(fam, 4)


def _family_data_copy(tmp_path, fid, edits):
    """The packaged model with text replaced inside one family's block."""
    from importlib import resources

    import dadecheck

    src = resources.files("dadecheck") / "data"
    for fname in dadecheck.DATA_FILES:
        text = (src / fname).read_text()
        if fname == "classes.def":
            head, rest = text.split(f"classfam {fid} {{", 1)
            block, tail = rest.split("}", 1)
            for old, new in edits:
                assert old in block
                block = block.replace(old, new)
            text = head + f"classfam {fid} {{" + block + "}" + tail
        (tmp_path / fname).write_text(text)
    return dadecheck.load_model(str(tmp_path))


# What each Burnside path finds on the broken families below, by family and edit.
CHART_FAILURES = {
    ("h13", "or i = -j"): ("the exclusion is not shown stable", "more than one index"),
    ("h8", "ranges: [p8b]"): ("the chart has no exact left inverse",
                              "the chart is not injective"),
    ("h8", "exclude: i = 0"): ("the exclusion is not shown stable",
                               "the exclusion is not one cyclic subgroup"),
}


@pytest.mark.parametrize("fid, edits", [
    # the i = -j tuples come back, and the centralizer moves them off it:
    # the admissible set is no longer stable
    ("h13", [(" or i = -j", ""), (" or j = -i", "")]),
    # every member twice: the chart has no left inverse (and with nothing
    # excluded, no stability check stands in for that)
    ("h8", [("ranges: [p8b]", "ranges: [2*p8b]"), ("  exclude: i = 0\n", "")]),
    # one more tuple excluded, i = 1: the centralizer carries it onto the
    # admissible i = -1, so the instability shows on the excluded side
    ("h8", [("exclude: i = 0", "exclude: i = 0 or i = 1")]),
])
def test_chart_failures_fall_back(model, tmp_path, fid, edits, capsys):
    # both Burnside paths refuse each broken family, so it has no count: its
    # family_count record fails, naming the family and what each path found,
    # and verify exits 1 with no traceback
    from dadecheck import paramsets as ps
    from dadecheck.cli import main

    chart, orbit = CHART_FAILURES[fid, edits[0][0].strip()]
    broken = _family_data_copy(tmp_path, fid, edits)
    fam = broken.classfams[fid]
    for n in (1, 2):
        assert _path(model.classfams[fid], model, n)[0] == "chart_count"
        cent = ps._centralizer(broken, fam.word)
        assert ps._chart_count(fam, n, cent, *_grid_and_exclusion(fam, n)) == chart
        assert ps._orbit_family_count(fam, n, cent, *_grid_and_exclusion(fam, n)) == orbit
        assert _path(fam, broken, n) is None
        why = f"{fid}: no Burnside path: chart path: {chart}; orbit path: {orbit}"
        assert family_class_count(fam, broken, n) == why
        (rec,) = [r for r in cardinality_check(broken, n) if r.name == fid]
        assert not rec.ok and rec.reason is None and rec.actual == why
    assert main(["verify", "params", "--n", "1", "--data-dir", str(tmp_path),
                 "--report", str(tmp_path / "r.json")]) == 1
    out, err = capsys.readouterr()
    assert f"FAIL family_count {fid} n=1 expected " in err and f"got {why!r}" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("exclude, count", [("3 div q^2+1", 0), ("3 div q^2", 1)])
def test_family_with_no_index_is_one_orbit_or_none(model, tmp_path, exclude, count):
    # g5 is one point, so one orbit, or none where its exclusion holds: 3
    # divides q^2 + 1 = 2^(2n+1) + 1 at every n, and q^2 at none
    broken = _family_data_copy(tmp_path, "g5", [("count: 1", f"exclude: {exclude}\n  count: 1")])
    fam = broken.classfams["g5"]
    for n in (1, 2, 3):
        assert _path(fam, broken, n) == ("no_index", count)
        (rec,) = [r for r in cardinality_check(broken, n) if r.name == "g5"]
        assert rec.actual == count and rec.ok == (count == 1)


def _oracle_outcome(fam, model, n, mats):
    """The listing oracle's orbits meeting the admissible members, or "mixed".

    "mixed" where an orbit meets admissible and excluded members: then the
    orbits meeting either set outnumber those meeting all members.
    """
    from enum_oracle import family_members

    denom, vecs, keep = family_members(fam, n)
    admissible = orbit_count(vecs[keep], mats, denom, fam.side)
    excluded = orbit_count(vecs[~keep], mats, denom, fam.side)
    if admissible + excluded > orbit_count(vecs, mats, denom, fam.side):
        return "mixed"
    return admissible


def test_orbit_kernel_runs_only_for_uncharted_families(model):
    # the paths of the families of verify params --n 1..4
    for n in (1, 2, 3, 4):
        for fid in sorted(model.classfams):
            fam = model.classfams[fid]
            path, got = _path(fam, model, n)
            assert path == _expected_path(fid), (fid, n)
            assert got == family_class_count(fam, model, n) == family_formula_count(fam, n), fid


# The Burnside path of each family at every n: ROADMAP item 8 asks for it
# recorded, so a change that moves a family between paths shows here.
PATHS = {"no_index": {"g1", "g5", "h1", "h5"},
         "orbit_family_count": {"g2", "g3", "h2", "h3", "h6"}}


def test_path_per_family_is_pinned(model):
    fids = set(model.classfams)
    chart = fids - PATHS["no_index"] - PATHS["orbit_family_count"]
    assert len(fids) == 36 and len(chart) == 27
    for n in (1, 2, 3, 4):
        for fid in sorted(fids):
            path = next((p for p, members in PATHS.items() if fid in members), "chart_count")
            assert _path(model.classfams[fid], model, n)[0] == path, (fid, n)


def test_chart_path_reads_only_the_generators_off_the_chart(model, monkeypatch):
    # verify params --n 1 checks at most |gens| maps exactly per family: the
    # class representatives' maps are composed, and the orbit-path families
    # leave the chart path at their first generator
    from dadecheck import paramsets as ps
    from dadecheck.cli import main

    calls, current = {}, []
    induced, count = ps._induced_map, ps.family_class_count

    def counted_induced(*args):
        calls[current[-1]] = calls.get(current[-1], 0) + 1
        return induced(*args)

    def counted_count(fam, *args):
        current.append(fam.id)
        return count(fam, *args)

    monkeypatch.setattr(ps, "_induced_map", counted_induced)
    monkeypatch.setattr(ps, "family_class_count", counted_count)
    assert main(["verify", "params", "--n", "1", "--report", "/dev/null"]) == 0
    assert set(current) == set(model.classfams)
    for fid, fam in model.classfams.items():
        gens = len(ps._centralizer(model, fam.word).gens)
        if fid in PATHS["no_index"]:
            assert fid not in calls
        elif fid in PATHS["orbit_family_count"]:
            assert 1 <= calls[fid] <= gens, fid
        else:
            assert calls[fid] == gens, fid


def _rows(a_g):
    """A map (L, t) of _induced_map as the rows (L_k..., t_k) that _composed_maps gives."""
    return tuple(tuple(row) + (t,) for row, t in zip(*a_g))


def test_composed_maps_equal_the_maps_read_off_the_chart(model):
    # the oracle is _induced_map read for every element of C, not only the
    # generators; and the Burnside sum over the distinct maps of the class
    # representatives is the sum over the classes
    from dadecheck import paramsets as ps
    from dadecheck.counting import _admissible_fixed, _stable

    checked = 0
    for n in (1, 2, 3):
        for fid in sorted(model.classfams):
            fam = model.classfams[fid]
            if _path(fam, model, n)[0] != "chart_count":
                continue
            cent = ps._centralizer(model, fam.word)
            ranges, exclude = _grid_and_exclusion(fam, n)
            denom, chart = ps._chart(fam.id, fam.coords, fam.vars, n, fam.side)
            lam = ps._left_inverse(chart[:len(ranges)], ranges, denom)
            direct = [_rows(ps._induced_map(chart, lam, ps._columns(m, fam.side), ranges, denom))
                      for m in cent.mats]
            gens = [direct[g] for g in cent.gens]
            composed = ps._composed_maps(cent, gens, fam.side, ranges, range(len(cent.mats)))
            assert [composed[x] for x in range(len(cent.mats))] == direct, (fid, n)
            assert all(_stable(exclude, ranges, g) for g in gens), (fid, n)
            per_class = sum(size * _admissible_fixed(direct[rep], ranges, exclude)
                            for rep, size in cent.classes)
            assert per_class == len(cent.mats) * ps._chart_count(fam, n, cent, ranges, exclude)
            checked += len(cent.mats)
    assert checked > 2000


def test_union_cache_keyed_on_exclusion_and_ranges(model, monkeypatch, tmp_path):
    # one entry per compiled exclusion and ranges: the same exclusion on
    # another grid, or with one atom changed, is made afresh, and a mutated
    # exclusion that is not stable fails as it does with no cache
    from dadecheck import counting
    from dadecheck.counting import _exclusion

    monkeypatch.setattr(counting, "_UNION_CACHE", {})
    three = _exclusion("X", ("atom", "div", ("int", 3), ("sym", "k")), 1, ("k",), (9,))
    four = _exclusion("X", ("atom", "div", ("int", 4), ("sym", "k")), 1, ("k",), (12,))
    assert counting._union_of(three, (9,)).orders == (3,)
    assert counting._union_of(three, (12,)).orders == (4,)
    assert counting._union_of(four, (12,)).orders == (3,)
    assert counting._union_of(three, (9,)) is counting._union_of(three, (9,))
    assert len(counting._UNION_CACHE) == 3
    fam = model.classfams["h13"]
    counts = [family_class_count(fam, model, n) for n in (1, 2)]
    assert len(counting._UNION_CACHE) == 5
    # j = -i is i = -j: one atom fewer, the same union and count, its own entry
    same = _family_data_copy(tmp_path, "h13", [(" or i = -j", "")]).classfams["h13"]
    assert [family_class_count(same, model, n) for n in (1, 2)] == counts
    assert len(counting._UNION_CACHE) == 7
    broken = _family_data_copy(tmp_path, "h13", [(" or i = -j", ""), (" or j = -i", "")])
    chart, orbit = CHART_FAILURES["h13", "or i = -j"]
    for n in (1, 2):
        assert family_class_count(broken.classfams["h13"], broken, n) == (
            f"h13: no Burnside path: chart path: {chart}; orbit path: {orbit}")
    assert len(counting._UNION_CACHE) == 9


def test_transposed_centralizer_same_count_on_both_paths(model, monkeypatch, tmp_path, capsys):
    # the transposes form a group with the same classes and generators, which
    # acts otherwise: each count a Burnside path makes agrees with the oracle,
    # and a family that neither path counts has a failing record naming why
    from dadecheck import paramsets
    from dadecheck.cli import main

    real = paramsets._centralizer

    def transposed(m, word):
        cent = real(m, word)
        return cent._replace(mats=tuple(tuple(zip(*x)) for x in cent.mats))

    monkeypatch.setattr(paramsets, "_centralizer", transposed)
    wrong, uncounted = 0, set()
    for n in (1, 2):
        for fid in sorted(model.classfams):
            fam = model.classfams[fid]
            got = family_class_count(fam, model, n)
            if isinstance(got, str):
                assert got.startswith(f"{fid}: no Burnside path: chart path: "), got
                assert "; orbit path: " in got, got
                uncounted.add((fid, n))
            else:
                assert got == _oracle_outcome(fam, model, n, transposed(model, fam.word).mats), fid
                wrong += got != family_formula_count(fam, n)
    assert wrong  # the transposed action is not the centralizer's
    assert uncounted
    report = tmp_path / "r.json"
    assert main(["verify", "params", "--n", "1", "--n", "2", "--report", str(report)]) == 1
    assert "Traceback" not in "".join(capsys.readouterr())
    records = json.loads(report.read_text())
    failed = {(r["name"], r["n"]) for r in records
              if r["check"] == "family_count" and "no Burnside path" in r["actual"]}
    assert failed == uncounted
    assert all(r["status"] == "fail" for r in records if (r["name"], r["n"]) in failed)


def test_burnside_sum_must_divide(model):
    from dadecheck import rootdatum as rd
    from dadecheck.paramsets import _centralizer

    fam = model.classfams["g8"]
    cent = _centralizer(model, fam.word)
    one = cent.mats.index(rd.mat_identity())
    _, vecs = family_elements(fam, 2)
    assert len(vecs) % len(cent.mats)  # the identity class alone sums to N
    with pytest.raises(ArithmeticError, match="not divisible"):
        _path(fam, model, 2, cent._replace(classes=((one, 1),)))


def test_centralizer_classes_and_generators(model):
    from dadecheck import rootdatum as rd
    from dadecheck.paramsets import _centralizer
    from weyl_oracle import mat_inv_int

    for wc in model.weylclasses.values():
        cent = _centralizer(model, wc.word)
        elems = list(cent.mats)
        classes = set()
        for rep, size in cent.classes:
            x = elems[rep]
            conj = frozenset(rd.mat_mul(rd.mat_mul(g, x), mat_inv_int(g)) for g in elems)
            assert len(conj) == size, wc.id
            classes.add(conj)
        assert len(classes) == len(cent.classes)
        assert sum(len(c) for c in classes) == len(elems) == len(set().union(*classes))
        group, frontier = {rd.mat_identity()}, [rd.mat_identity()]
        while frontier:
            new = {rd.mat_mul(h, elems[g]) for h in frontier for g in cent.gens} - group
            group |= new
            frontier = list(new)
        assert group == set(elems), wc.id
        # the spelling: x = g_k y for each element but 1, and every walk down it ends at 1
        for x, spelt in enumerate(cent.spelling):
            if spelt is None:
                assert elems[x] == rd.mat_identity(), wc.id
                continue
            k, y = spelt
            assert elems[x] == rd.mat_mul(elems[cent.gens[k]], elems[y]), wc.id
            for _ in elems:
                if cent.spelling[y] is None:
                    break
                y = cent.spelling[y][1]
            assert cent.spelling[y] is None, wc.id


def test_centralizer_structure_matches_matrix_oracle(model):
    # the Centralizer built on W's index tables equals the one matrix products
    # give, field by field and in order, for every family word
    from dadecheck import rootdatum as rd
    from dadecheck.paramsets import _centralizer
    from weyl_oracle import group_structure

    weyl = rd.weyl_group(model)
    words = sorted({fam.word for fam in model.classfams.values()})
    assert len(words) == 11
    for word in words:
        want = group_structure(rd.f_centralizer(weyl, rd.word_matrix(weyl, word)))
        got = _centralizer(model, word)
        assert got.mats == want.mats, word
        assert got.classes == want.classes, word
        assert got.gens == want.gens, word


def test_centralizers_multiply_no_matrices_once_w_is_built(model, monkeypatch):
    # W's tables give every product: the only matrix products left are those
    # that spell each word
    from dadecheck import paramsets
    from dadecheck import rootdatum as rd

    rd.weyl_group(model)
    calls = []
    mat_mul = rd.mat_mul

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(rd, "mat_mul", counted)
    monkeypatch.setattr(paramsets, "mat_mul", counted, raising=False)
    monkeypatch.setattr(paramsets, "_CENT_CACHE", {})
    words = sorted({fam.word for fam in model.classfams.values()})
    assert len(words) == 11
    for word in words:
        paramsets._centralizer(model, word)
    assert len(calls) <= sum(map(len, words))


# Dropped at n = 4 until the orbit key stopped packing four coordinates into
# one int64 (denominator^4 >= 2^62).
N4_FAMILIES = [f"{side}{i}" for side in "gh" for i in (7, 9, 11, 12, 16, 17, 18)]


def test_formerly_dropped_n4_families_match_formula(model):
    for fid in N4_FAMILIES:
        fam = model.classfams[fid]
        assert family_class_count(fam, model, 4) == family_formula_count(fam, 4), fid


def test_orbit_kernel_exactness_bound():
    # members move on Python ints: a coordinate far below the last bit of a
    # double at 2^89 stays exact
    from dadecheck.paramsets import _moved

    denom = 2 ** 89 - 1
    negation = tuple(tuple(-(i == j) for j in range(4)) for i in range(4))
    assert _moved((0, 0, 0, 2 ** 88 + 1), negation, denom) == (0, 0, 0, 2 ** 88 - 2)


def test_index_map_bound():
    from dadecheck.paramsets import _image

    # coefficients are reduced mod the range: 7 * 3 + 9 = 30 = 0 mod 6
    assert [_image([[7]], [9], (a,), (6,)) for a in (0, 3)] == [(3,), (0,)]
    top = 1 << 30
    assert _image([[1]], [0], (top,), (1 << 31,)) == (top,)
    assert _image([[1]], [0], (top,), (1 << 32,)) == (top,)  # once past the int64 guard
    big = (1 << 100) + 3
    assert _image([[big, 1]], [1], (big - 1, 5), (big * big,)) == (big * (big - 1) + 6,)


def test_budget_skip_is_a_record(model, monkeypatch):
    # no count lists a tuple: with none allowed, no record is a skip and every
    # one passes, while listing a set's classes still exceeds the budget
    from dadecheck import paramsets

    monkeypatch.setattr(paramsets, "_LISTED_TUPLES", 0)
    recs = cardinality_check(model, 1)
    assert len(recs) == 119 and all(r.reason is None and r.ok for r in recs)
    with pytest.raises(BudgetExceeded, match="^grid: 7 tuples, more than 0$"):
        class_representatives(model.paramsets["GI_27"], 1)


def _fixed_by_scan(lin, shift, ranges):
    """Fixed points of a -> lin a + shift by scanning the whole grid."""
    from pred_oracle import apply_map

    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    img = apply_map(lin, shift, grid, ranges)
    return int(np.count_nonzero(np.logical_and.reduce([i == a for i, a in zip(img, grid)])))


def _fixed_or_rejected(lin, shift, ranges):
    """fixed_point_count, or "rejected" where it refuses a map not well defined on the grid."""
    from dadecheck.counting import NotHomomorphism, fixed_point_count

    try:
        return fixed_point_count(lin, shift, ranges)
    except NotHomomorphism:
        return "rejected"


def _fixed_by_scan_or_rejected(lin, shift, ranges):
    """What _fixed_or_rejected must give: "rejected" unless r_k | lin_kj r_j, else the scan."""
    if any(lin[k][j] * rj % rk for k, rk in enumerate(ranges) for j, rj in enumerate(ranges)
           if j != k):
        return "rejected"
    return _fixed_by_scan(lin, shift, ranges)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_points_solved_match_grid_scan(model, n):
    """Every element of every indexed charted family's centralizer, not only class representatives.

    Each induced map is linear and well defined on the grid, and the
    admissible tuples it fixes, fixed_point_count less _union_fixed, are
    those a scan of the grid finds.
    """
    from dadecheck import paramsets as ps
    from dadecheck.counting import _union_fixed, _union_of, fixed_point_count
    from enum_oracle import admissible
    from pred_oracle import apply_map

    uncharted, elements = set(), 0
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        if not fam.vars:
            continue
        ranges, keep, _ = admissible(fam.id, fam.ranges, fam.vars, fam.exclude, n)
        denom, chart = ps._chart(fam.id, fam.coords, fam.vars, n, fam.side)
        lam = ps._left_inverse(chart[:len(ranges)], ranges, denom)
        maps = [None] if lam is None else [
            ps._induced_map(chart, lam, ps._columns(m, fam.side), ranges, denom)
            for m in ps._centralizer(model, fam.word).mats]
        if None in maps:
            uncharted.add(fid)
            continue
        union = _union_of(_grid_and_exclusion(fam, n)[1], ranges)
        grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
        for lin, shift in maps:
            assert not any(shift) and ps._well_defined(lin, ranges), fid
            img = apply_map(lin, shift, grid, ranges)
            fixed = np.logical_and.reduce([i == a for i, a in zip(img, grid)])
            got = fixed_point_count(lin, shift, ranges) - _union_fixed(union, lin)
            assert got == np.count_nonzero(fixed & keep), fid
            elements += 1
    assert uncharted == ORBIT_PATH and elements > 100


@pytest.mark.parametrize("lin, shift, ranges", [
    ([[5]], [-2], (12,)),  # 4 a = 2 mod 12: gcd 4 does not divide 2, no solution
    ([[5]], [-8], (12,)),  # 4 a = 8 mod 12: four solutions, 3 apart
    ([[1]], [0], (12,)),  # the identity
    ([[13]], [12], (12,)),  # ... and a map that is the identity mod 12
    ([[1, 0], [0, 1]], [0, 0], (6, 10)),
    ([[1, 1], [0, 1]], [0, 0], (6, 10)),  # a shear: its candidates fill the grid
    ([[1, 1], [0, 1]], [3, 4], (6, 10)),
    ([[0, 6], [4, 1]], [1, 5], (7, 8)),
    ([[14, 3], [5, 110]], [7, 20], (481, 545)),  # mixed moduli, non-unit diagonals 13, 109
    ([[14, 37], [109, 110]], [0, 0], (481, 545)),
    ([[2, 5], [3, 1]], [-4, 0], (481, 545)),
    # well defined on the grid: r_k | lin_kj r_j
    ([[1, 3], [4, 1]], [2, 6], (6, 12)),
    ([[1, 1], [0, 1]], [3, 4], (6, 6)),  # a shear on equal ranges
    ([[5, 2], [3, 7]], [0, 0], (12, 12)),
    ([[14, 481], [545, 110]], [7, 20], (481, 545)),  # coprime ranges
])
def test_fixed_points_hand_made(lin, shift, ranges):
    # the shear on (6, 10) and the maps on (7, 8) and (481, 545) with small
    # off-diagonal entries are not well defined on their grids: refused
    assert _fixed_or_rejected(lin, shift, ranges) == _fixed_by_scan_or_rejected(lin, shift, ranges)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=2),
       st.lists(st.integers(-100, 100), min_size=6, max_size=6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_fixed_points_random_maps(ranges, entries, well_defined):
    # half the maps are made well defined on the grid, entry kj a multiple of r_k / gcd(r_k, r_j)
    nv = len(ranges)
    lin = [[x * (ranges[k] // math.gcd(ranges[k], ranges[j]) if well_defined else 1)
            for j, x in enumerate(entries[2 * k:2 * k + nv])] for k in range(nv)]
    shift = entries[4:4 + nv]
    assert (_fixed_or_rejected(lin, shift, tuple(ranges))
            == _fixed_by_scan_or_rejected(lin, shift, tuple(ranges)))


def _scan_excluded(owner, pred, n, varnames, ranges):
    """The excluded tuples, by the reference scan."""
    from pred_oracle import pred_mask

    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    hit = pred_mask(owner, pred, n, varnames, grid, ranges)
    return set(zip(*(a[hit].tolist() for a in grid)))


def _union_elements(union):
    """Every tuple of a _Union, listed."""
    ranges = union.ranges
    return set(union.points) | {tuple(k * x % r for x, r in zip(v, ranges))
                                for v, o in zip(union.lines, union.orders) for k in range(o)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exclusions_solved_match_scan(model, n):
    # a set's excluded tuples are counted by the kernel; a family's are its
    # union of lines and points, listed
    from dadecheck.counting import _count_in, _exclusion, _ranges, _union_of

    owners = ([(s.id, s.moduli, s.indices, s.exclude, False) for s in model.paramsets.values()
               if s.exclude is not None]
              + [(f.id, f.ranges, f.vars, f.exclude, True) for f in model.classfams.values()
                 if f.exclude is not None])
    assert len(owners) == 64
    for owner, range_exprs, varnames, exclude, family in owners:
        ranges = _ranges(owner, range_exprs, n)
        compiled = _exclusion(owner, exclude, n, varnames, ranges)
        scanned = _scan_excluded(owner, exclude, n, varnames, ranges)
        if family:
            assert _union_elements(_union_of(compiled, ranges)) == scanned, owner
        else:
            assert _count_in([], [], ranges, (compiled,)) == len(scanned), owner


def _affine_expr(coeffs, const):
    """const + sum of c * index as an expression, indices named k and l."""
    node = ("int", const)
    for c, v in zip(coeffs, ("k", "l")):
        node = ("add", node, ("mul", ("int", c), ("sym", v)))
    return node


_coeff = st.sampled_from([0, 0, 1, -1, 2, 3, 4, 6, -9, 12]) | st.integers(-60, 60)


@st.composite
def _grids_and_predicates(draw):
    """A grid of one or two indices (equal ranges half the time) and a predicate on it.

    Atoms are =, != and div (whose modulus, of either sign, need not divide a
    range) on affine forms with zero, unit and non-unit coefficients, constant
    atoms among them, nested in and / or.
    """
    nv = draw(st.integers(1, 2))
    r = draw(st.integers(1, 30))
    ranges = draw(st.just((r,) * nv)
                  | st.lists(st.integers(1, 30), min_size=nv, max_size=nv).map(tuple))

    @st.composite
    def atoms(draw):
        coeffs = draw(st.just([0] * nv) | st.lists(_coeff, min_size=nv, max_size=nv))
        form = _affine_expr(coeffs, draw(st.integers(-40, 40)))
        op = draw(st.sampled_from(["=", "=", "!=", "div", "div"]))
        if op == "div":
            m = draw(st.integers(1, 45) | st.integers(-45, -1))
            return ("atom", op, ("int", m), form)
        return ("atom", op, form, ("int", draw(st.integers(-40, 40))))

    pred = draw(st.recursive(atoms(), lambda sub: st.tuples(st.sampled_from(["and", "or"]),
                                                            sub, sub), max_leaves=6))
    return ranges, ("k", "l")[:nv], pred


@given(_grids_and_predicates())
@settings(max_examples=300, deadline=None)
def test_exclusions_solved_match_scan_random(case):
    # the kernel's count of the compiled predicate, and its union of lines and
    # points where it has that shape, against the scan; an atom whose value
    # is not well defined on the grid, m | c_j r_j for every index j, is refused
    from dadecheck.counting import MapClosureError, _atom_row, _count_in, _exclusion, _union_of

    ranges, varnames, pred = case
    try:
        scanned = _scan_excluded("X", pred, 1, varnames, ranges)
    except MapClosureError:  # mixed moduli: the package refuses the predicate too
        with pytest.raises(MapClosureError, match="^X: "):
            _exclusion("X", pred, 1, varnames, ranges)
        return
    rows = [_atom_row("X", atom, 1, varnames, ranges) for atom in _atoms_of(pred)]
    if any(c * r % m for row, m in rows for c, r in zip(row, ranges)):
        with pytest.raises(MapClosureError, match="is not well defined"):
            _exclusion("X", pred, 1, varnames, ranges)
        return
    compiled = _exclusion("X", pred, 1, varnames, ranges)
    assert _count_in([], [], ranges, (compiled,)) == len(scanned)
    union = _union_of(compiled, ranges)
    if union is not None:
        assert _union_elements(union) == scanned


def _atoms_of(pred):
    return [pred] if pred[0] == "atom" else _atoms_of(pred[1]) + _atoms_of(pred[2])


@st.composite
def _unions_and_maps(draw):
    """A grid Z_r or Z_r x Z_r, an "or" of lines and points on it, and an integer matrix.

    The lines are k = c l, l = c k and k = 0, and on Z_r k = 0 and d div k
    with d | r; a point pins each index, mostly inside the grid's
    representatives.  On a grid of equal ranges every integer matrix is
    well defined.
    """
    nv = draw(st.integers(1, 2))
    r = draw(st.integers(1, 40))
    k, l = ("sym", "k"), ("sym", "l")
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        pinned = [("atom", "=", v, ("int", draw(st.integers(-r, 2 * r)))) for v in (k, l)[:nv]]
        if nv == 1:
            d = draw(st.sampled_from([d for d in range(1, r + 1) if r % d == 0]))
            lines = [("atom", "=", k, ("int", 0)), ("atom", "div", ("int", d), k)]
        else:
            c = ("int", draw(st.integers(-r, r)))
            lines = [("atom", "=", k, ("mul", c, l)), ("atom", "=", l, ("mul", c, k)),
                     ("atom", "=", k, ("int", 0))]
        point = pinned[0] if nv == 1 else ("and", pinned[0], pinned[1])
        terms.append(draw(st.sampled_from(lines + [point])))
    pred = terms[0]
    for term in terms[1:]:
        pred = ("or", pred, term)
    lin = [[draw(st.integers(-50, 50)) for _ in range(nv)] for _ in range(nv)]
    return (r,) * nv, ("k", "l")[:nv], pred, lin


@given(_unions_and_maps())
@settings(max_examples=300, deadline=None)
def test_union_fixed_matches_listing_random(case):
    from dadecheck.counting import _exclusion, _union_fixed, _union_of
    from pred_oracle import apply_map, pred_mask

    ranges, varnames, pred, lin = case
    shift = [0] * len(ranges)
    union = _union_of(_exclusion("X", pred, 1, varnames, ranges), ranges)
    assert union is not None
    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    excluded = pred_mask("X", pred, 1, varnames, grid, ranges)
    assert _union_elements(union) == set(zip(*(a[excluded].tolist() for a in grid)))
    img = apply_map(lin, shift, grid, ranges)
    fixed = np.logical_and.reduce([i == a for i, a in zip(img, grid)])
    assert _union_fixed(union, lin) == np.count_nonzero(fixed & excluded)


def test_other_exclusions_counted_by_inclusion_exclusion(model, tmp_path, monkeypatch):
    # i != 0 is no union of lines and points: the chart path counts it with _count_in
    from dadecheck import counting
    from dadecheck import paramsets as ps

    broken = _family_data_copy(tmp_path, "h8", [("exclude: i = 0", "exclude: i != 0")])
    fam = broken.classfams["h8"]
    calls = []
    real = counting._count_in
    monkeypatch.setattr(counting, "_count_in", lambda *a: calls.append(a) or real(*a))
    for n in (1, 2):
        cent = ps._centralizer(broken, fam.word)
        assert counting._union_of(*reversed(_grid_and_exclusion(fam, n))) is None
        assert _path(fam, broken, n) == ("chart_count", 1)
        assert family_class_count(fam, broken, n) == _oracle_outcome(fam, broken, n, cent.mats)
    assert calls


def test_union_count_only_for_linear_maps(monkeypatch):
    # the union count assumes that a_g fixes 0; a -> a + t with t != 0 does not,
    # and its excluded fixed tuples are counted by inclusion-exclusion
    from dadecheck import counting
    from dadecheck.counting import _admissible_fixed, _exclusion, _stable

    ranges = (7, 7)
    exclude = _exclusion("X", ("atom", "=", ("sym", "k"), ("int", 0)), 1, ("k", "l"), ranges)
    calls = []
    real = counting._count_in
    monkeypatch.setattr(counting, "_count_in", lambda *a: calls.append(a) or real(*a))
    # keeps k = 0 and fixes (6, l), none excluded; its linear part fixes (0, l), all excluded
    shift = ((1, 0, 0), (1, 1, 1))
    assert _stable(exclude, ranges, shift)
    calls.clear()
    assert _admissible_fixed(shift, ranges, exclude) == 7 and calls
    double = ((1, 0, 0), (0, 2, 0))  # keeps k = 0, fixes (0, 0) on it, and (k, 0) off it
    assert _stable(exclude, ranges, double) and _admissible_fixed(double, ranges, exclude) == 6


def test_burnside_path_builds_no_admissible_arrays(model, monkeypatch):
    """No family and no set lists its grid."""
    from dadecheck import paramsets

    calls = []
    grid = paramsets._grid
    monkeypatch.setattr(paramsets, "_grid", lambda ranges: calls.append(ranges) or grid(ranges))
    sets = [s for s in model.paramsets.values() if s.moduli and s.action != "formula_only"]
    for n in (1, 2, 3, 4):
        before = len(calls)
        for spec in sets:
            class_count(spec, n)
        assert len(calls) == before, n
        builders = set()
        for fid, fam in model.classfams.items():
            before = len(calls)
            family_class_count(fam, model, n)
            if len(calls) > before:
                builders.add(fid)
        assert builders == set(), n


def _enumerable_sets(model):
    return [s for s in model.paramsets.values() if s.moduli and s.action != "formula_only"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_set_counts_match_listing(model, n):
    sets = _enumerable_sets(model)
    assert len(sets) == 83
    for spec in sets:
        assert class_count(spec, n) == enumerate_classes(spec, n).count, spec.id


@pytest.mark.parametrize("n", [1, 2, 3])
def test_doubling_counts_match_listing(model, n):
    from dadecheck.autfix import divisors
    from dadecheck.counting import fixed_class_count
    from enum_oracle import fixed_classes_doubling

    cells = 0
    for spec in _enumerable_sets(model):
        if spec.action != "doubling":
            continue
        enum = enumerate_classes(spec, n)
        for t in divisors(2 * n + 1):
            assert fixed_class_count(spec, n, t) == fixed_classes_doubling(enum, t), (spec.id, t)
            cells += 1
    assert cells > 100


def test_shipped_tables_count_on_the_union_kernel(monkeypatch):
    # every shipped set and family exclusion is a union of lines and points
    # and every map linear, so no count or stability check falls back to
    # inclusion-exclusion
    from dadecheck import counting
    from dadecheck.cli import main

    calls = {"_count_in": 0, "_union_fixed": 0}
    for name in calls:
        real = getattr(counting, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(counting, name, counted)
    monkeypatch.setattr(counting, "_SET_CACHE", {})
    monkeypatch.setattr(counting, "_FIXED_CACHE", {})
    ns = ["--n", "1", "--n", "2", "--n", "3", "--n", "4", "--report", "/dev/null"]
    assert main(["verify", "dade", "--mode", "both", *ns]) == 0
    assert main(["verify", "params", *ns]) == 0
    assert calls["_count_in"] == 0 and calls["_union_fixed"] > 0


def test_stable_agrees_with_keeps_on_shipped_sets(model):
    # the rule the counts use against the exact check, for every generator
    # and every doubling of every shipped set with an exclusion
    from dadecheck import counting
    from dadecheck.autfix import divisors

    checked = 0
    for n in (1, 2, 3, 4):
        for spec in _enumerable_sets(model):
            grid = counting._set_grid(spec, n)
            if grid.exclude is None:
                continue
            moduli = grid.moduli
            maps = [grid.group.maps[g] for g in grid.group.gens]
            if spec.action == "doubling":
                maps += [counting._scaling([pow(2, t, m) for m in moduli], moduli)
                         for t in divisors(2 * n + 1)]
            for g in maps:
                assert (counting._stable(grid.exclude, moduli, g)
                        == counting._keeps(grid.exclude, g, moduli)), (spec.id, n, g)
                checked += 1
    assert checked > 400


@st.composite
def _random_sets(draw):
    """A set of one or two indices with moduli up to 15, its maps, an exclusion and a t.

    The exclusion is an = or != atom, or two of them under "or" or "and".

    Map coefficients across two different moduli are multiples of m_i /
    gcd(m_i, m_j), so every map is well defined; maps need not be
    invertible, and need not keep the admissible set.
    """
    from dadecheck.tabledsl import ParamSetSpec

    nv = draw(st.integers(1, 2))
    moduli = draw(st.lists(st.integers(1, 15), min_size=nv, max_size=nv)
                  | st.integers(1, 15).map(lambda m: [m] * nv))
    names = ("k", "l")[:nv]

    def target(i):
        coeffs = [draw(st.integers(-15, 15)) * (1 if i == j else mi // math.gcd(mi, mj))
                  for j, (mi, mj) in enumerate(zip([moduli[i]] * nv, moduli))]
        return _affine_expr(coeffs, draw(st.integers(-15, 15)))

    equiv = tuple((names, tuple(target(i) for i in range(nv)))
                  for _ in range(draw(st.integers(0, 2))))
    atom = st.builds(lambda k, c, op: ("atom", op, _affine_expr([k] + [0] * (nv - 1), 0),
                                       ("int", c)),
                     st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(["=", "!="]))
    exclude = draw(st.none() | atom | st.tuples(st.sampled_from(["or", "and"]), atom, atom))
    spec = ParamSetSpec("X", "G", "doubling", tuple(("int", m) for m in moduli), exclude, equiv)
    return spec, draw(st.integers(0, 4))


@given(_random_sets())
@settings(max_examples=300, deadline=None)
def test_burnside_matches_listing_random(case):
    from dadecheck.counting import MapClosureError, fixed_class_count
    from enum_oracle import fixed_classes_doubling

    spec, t = case

    def outcome(f):
        try:
            return f()
        except MapClosureError:
            return "raises"

    assert outcome(lambda: class_count(spec, 1)) == outcome(lambda: enumerate_classes(spec, 1).count)
    assert (outcome(lambda: fixed_class_count(spec, 1, t))
            == outcome(lambda: fixed_classes_doubling(enumerate_classes(spec, 1), t)))


# --- the counting kernel against a scan, on systems whose rows split the indices into blocks


def _solve_by_scan(rows, mods, ranges):
    """Sorted solution tuples of the congruence rows, by scanning the whole grid."""
    grid = [a.ravel() for a in np.indices(ranges, dtype=np.int64)]
    ok = np.ones(math.prod(ranges), dtype=bool)
    for row, m in zip(rows, mods):
        ok &= (sum(c * a for c, a in zip(row, grid)) - row[-1]) % m == 0
    return sorted(zip(*(a[ok].tolist() for a in grid)))


def _counted(rows, mods, ranges):
    """count(rows, mods, ranges), or "rejected" where it refuses the system."""
    from dadecheck.counting import NotHomomorphism, count

    try:
        return count(rows, mods, ranges)
    except NotHomomorphism:
        return "rejected"


def _scanned(rows, mods, ranges):
    """What _counted must give: "rejected" unless m_k | c_kj r_j for all k, j, else the scan."""
    if any(c * r % m for row, m in zip(rows, mods) for c, r in zip(row, ranges)):
        return "rejected"
    return len(_solve_by_scan(rows, mods, ranges))


@pytest.mark.parametrize("rows, mods, ranges", [
    ([[3, 0, 0], [0, 3, 0]], [9, 9], (9, 9)),  # diagonal: each index alone
    ([[3, 0, 1], [0, 3, 0]], [9, 9], (9, 9)),  # no solution in the first block
    ([[2, 0, 0]], [8], (8, 5)),  # the second index is in no row
    ([[1, 0, 0, 0], [0, 1, 1, 2]], [4, 6], (4, 6, 6)),  # blocks {k} and {l, m}
    ([[0, 0, 0], [1, 0, 0]], [5, 3], (3, 4)),  # a row 0 = 0, always true
    ([[0, 0, 2], [1, 0, 0]], [5, 3], (3, 4)),  # a row 0 = 2, never true
    ([[6, 0, 3], [0, 10, 5]], [9, 15], (12, 20)),  # 15 does not divide 10 * 20: refused
])
def test_solve_blocks_hand_made(rows, mods, ranges):
    assert _counted(rows, mods, ranges) == _scanned(rows, mods, ranges)


@st.composite
def _block_systems(draw):
    nv = draw(st.integers(1, 3))
    ranges = tuple(draw(st.lists(st.integers(1, 12), min_size=nv, max_size=nv)))
    rows, mods = [], []
    for _ in range(draw(st.integers(1, 3))):
        used = draw(st.lists(st.booleans(), min_size=nv, max_size=nv))
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=nv, max_size=nv))
        rows.append([c if u else 0 for c, u in zip(coeffs, used)] + [draw(st.integers(-20, 20))])
        mods.append(draw(st.integers(1, 15)))
    return rows, mods, ranges


@given(_block_systems())
@settings(max_examples=300, deadline=None)
def test_solve_blocks_match_scan_random(system):
    assert _counted(*system) == _scanned(*system)


@st.composite
def _congruence_systems(draw):
    """1 to 3 rows over 1 or 2 indices with moduli up to 15.

    Half the rows are well defined on the grid by construction (c_j a
    multiple of m / gcd(m, r_j)); the others mostly are not.
    """
    nv = draw(st.integers(1, 2))
    ranges = tuple(draw(st.lists(st.integers(1, 15), min_size=nv, max_size=nv)))
    rows, mods = [], []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 15))
        steps = [m // math.gcd(m, r) for r in ranges] if draw(st.booleans()) else [1] * nv
        rows.append([draw(st.integers(-15, 15)) * step for step in steps]
                    + [draw(st.integers(-20, 20))])
        mods.append(m)
    return rows, mods, ranges


@given(_congruence_systems())
@settings(max_examples=500, deadline=None)
def test_count_matches_scan_random(system):
    assert _counted(*system) == _scanned(*system)


def test_solve_blocks_past_the_listing_limit_raise():
    from dadecheck.counting import count
    from dadecheck.paramsets import BudgetExceeded, _grid

    # 2 a = 0 mod 8 has 2 solutions and the free index 2^40 values: listing the grid raises
    with pytest.raises(BudgetExceeded, match="^grid: 8796093022208 tuples, more than 4194304$"):
        _grid((8, 2 ** 40))
    assert count([[2, 0, 0]], [8], (8, 2 ** 40)) == 2 * 2 ** 40  # counted, never listed


def test_solve_doubling_rows_solved_per_index():
    # sigma = 2^7 on a two-index set at n = 10: (2^7 - 1) a = 0 mod 2^21 - 1 for
    # each index, 127 solutions apiece, 127^2 together; no tuple is listed
    from dadecheck.counting import count

    m = 2 ** 21 - 1
    assert count([[127, 0, 0], [0, 127, 0]], [m, m], (m, m)) == 127 ** 2
    assert count([[127, 0, 1], [0, 127, 0]], [m, m], (m, m)) == 0  # 127 does not divide 1
    assert count([[127, 127, 0]], [m], (m, m)) == 127 * m  # one row: k + l in a subgroup
