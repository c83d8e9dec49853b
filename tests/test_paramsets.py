"""Parameter set enumeration against the cardinality formulas."""

import numpy as np
import pytest

from dadecheck.paramsets import (
    BudgetExceeded,
    cardinality_check,
    class_count,
    enumerate_classes,
    family_class_count,
    family_formula_count,
    formula_count,
    semisimple_sum_checks,
)


def test_gi27_representatives(model):
    enum = enumerate_classes(model.paramsets["GI_27"], 1)
    assert enum.representatives() == [(1,), (2,), (3,)]


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


def test_single_index_n3(model):
    recs = cardinality_check(model, 3, max_arity=1)
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
    with pytest.raises(BudgetExceeded):
        enumerate_classes(model.paramsets["BI_1"], 4, budget=1 << 16)


def test_budget_allows_n4_pairs(model):
    enum = enumerate_classes(model.paramsets["BI_1"], 4)
    assert enum.count == (2 ** 9 - 1) ** 2


def test_non_integral_modulus():
    from dadecheck.tabledsl import parse_model
    from dadecheck.paramsets import NonIntegralModulus

    m = parse_model(
        "paramset X { group: G action: doubling moduli: [q] card: 1 }"
    )
    with pytest.raises(NonIntegralModulus):
        enumerate_classes(m.paramsets["X"], 1)


def test_trusted_inputs_flagged(model):
    from dadecheck.paramsets import trusted_input_flags

    names = {r.name.split(":")[0] for r in trusted_input_flags(model)}
    assert names == {"GI_50", "GI_51", "GI_ss"}


def _expr(text):
    from dadecheck.tabledsl import _Parser, tokenize

    return _Parser(tokenize(text)).parse_expr()


@pytest.mark.parametrize("text, varnames", [
    ("a^2/(q^2-1)", ("a",)),
    ("k^2", ("k",)),
    ("a*b", ("a", "b")),
    ("(th+a)*(1-b)/p8", ("a", "b")),
])
def test_affine_compiler_rejects_non_affine(text, varnames):
    from dadecheck.paramsets import MapClosureError, _affine
    from dadecheck.tabledsl import build_env

    with pytest.raises(MapClosureError):
        _affine([_expr(text)], build_env(1), varnames)


def test_affine_compiler_coefficients():
    from fractions import Fraction

    from dadecheck.paramsets import _affine
    from dadecheck.tabledsl import build_env

    exprs = [_expr("(2*th-1)*a/(q^2-1) + b/7"), _expr("-(a-3*b)^1 + th^2")]
    denom, rows = _affine(exprs, build_env(1), ("a", "b"))
    assert rows == [[Fraction(3, 7), Fraction(1, 7), 0], [-1, 3, 4]]
    assert denom == 7


def _centralizer_by_definition(word, gens):
    """v in W with v^-1 w F(v) = w, i.e. w F(v) = v w, one element at a time."""
    from dadecheck import rootdatum as rd
    from weyl_oracle import weyl_closure

    w = rd.word_matrix(word, gens)
    return {v for v in weyl_closure(gens)
            if rd.mat_mul(w, rd.frobenius_twist(v)) == rd.mat_mul(v, w)}


def _as_tuples(mats):
    return {tuple(map(tuple, m.tolist())) for m in mats}


def test_centralizer_cache_keyed_on_generators(model):
    import dataclasses

    from dadecheck.paramsets import _centralizer_mats

    gens = dict(model.weylgens)
    gens["r1"], gens["r2"] = gens["r2"], gens["r1"]
    swapped = dataclasses.replace(model, weylgens=gens)
    first = _centralizer_mats(model, ("r1", "r3"))
    second = _centralizer_mats(swapped, ("r1", "r3"))
    assert _as_tuples(first) == _centralizer_by_definition(("r1", "r3"), model.weylgens)
    assert _as_tuples(second) == _centralizer_by_definition(("r1", "r3"), gens)
    assert _as_tuples(first) != _as_tuples(second)


def test_centralizer_orders_match_table(model):
    from dadecheck.paramsets import _centralizer_mats

    for wc in model.weylclasses.values():
        assert len(_centralizer_mats(model, wc.word)) == wc.cent, wc.word


def _orbit_count_reference(fam, model, n):
    """Orbits on the family members by closing each point, on tuples of ints."""
    from dadecheck.paramsets import _centralizer_mats, family_elements

    denom, vecs = family_elements(fam, n)
    mats = [m.tolist() for m in _centralizer_mats(model, fam.word)]
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


@pytest.mark.parametrize("n", [1, 2])
def test_orbit_kernel_matches_reference(model, n):
    # includes g2/g3/h5/h6, whose orbits leave the member set
    for fid in sorted(model.classfams):
        fam = model.classfams[fid]
        assert family_class_count(fam, model, n) == _orbit_count_reference(fam, model, n), fid


# Dropped at n = 4 until the orbit key stopped packing four coordinates into
# one int64 (denominator^4 >= 2^62).
N4_FAMILIES = [f"{side}{i}" for side in "gh" for i in (7, 9, 11, 12, 16, 17, 18)]


def test_formerly_dropped_n4_families_match_formula(model):
    for fid in N4_FAMILIES:
        fam = model.classfams[fid]
        assert family_class_count(fam, model, 4) == family_formula_count(fam, 4), fid


def test_orbit_kernel_exactness_bound():
    from dadecheck.paramsets import _orbit_count

    ident = np.eye(4, dtype=np.int64)[None]
    vecs = np.zeros((1, 4), dtype=np.int64)
    assert _orbit_count(vecs, ident, 94906265, "dual") == 1  # D*D just below 2^53
    with pytest.raises(OverflowError):
        _orbit_count(vecs, ident, 94906266, "dual")  # D*D above 2^53
    with pytest.raises(OverflowError):
        _orbit_count(vecs, ident * (1 << 40), 1 << 11, "torus")  # 4*D*max|M| = 2^53


def test_budget_skip_is_a_record(model):
    recs = cardinality_check(model, 1, budget=0, include_families=False)
    assert recs and all(r.reason and "exceeds budget" in r.reason for r in recs)
    assert not any(r.ok for r in recs)
