"""The table file grammar, evaluation, cross references and round-tripping."""

import re
from importlib import resources
from pathlib import Path

import pytest

import dadecheck
from dadecheck.autfix import divisors
from dadecheck.tabledsl import (
    _SCHEMA,
    OPTIONAL,
    REPEATED,
    REQUIRED,
    DanglingReference,
    TableSyntaxError,
    _ModelBuilder,
    UnboundSymbol,
    build_env,
    eval_expr,
    eval_expr_int,
    parse_blocks,
    parse_model_files,
    serialize_model,
)
from table_text import parse_model


def test_minimal_paramset_block():
    m = parse_model(
        "paramset GI_27 { group: G action: doubling "
        "moduli:[q^2-1] exclude: k=0 equiv:[k->-k] card:(q^2-2)/2 }"
    )
    assert list(m.paramsets) == ["GI_27"]
    spec = m.paramsets["GI_27"]
    assert spec.arity == 1
    assert spec.exclude[0] == "atom"


def test_dangling_reference():
    with pytest.raises(DanglingReference):
        parse_model(
            "fixrow R { group: G sets: [NOPE] fix: 1 }"
        )


def test_syntax_error_coordinates():
    with pytest.raises(TableSyntaxError) as exc:
        parse_blocks("paramset X {\n  group ~ G\n}")
    assert exc.value.line == 2


def test_unbound_t():
    env = build_env(1)  # no t supplied
    with pytest.raises(UnboundSymbol):
        eval_expr_int(_expr("2^t-2"), env)


def _expr(text):
    from dadecheck.tabledsl import _Parser

    return _Parser(text).parse_expr()


def test_expr_examples():
    assert eval_expr_int(_expr("2^t-2"), build_env(1, t=1)) == 0
    assert eval_expr_int(_expr("p8b"), build_env(1)) == 5
    assert eval_expr_int(_expr("(2^t-1)^2"), build_env(1, t=3)) == 49


def test_and_binds_tighter_than_or():
    p = parse_model(
        "paramset X { group: G action: none moduli: [q^2-1] "
        "exclude: k = 1 and k = 2 or k = 3 card: 1 }"
    ).paramsets["X"].exclude
    assert p[0] == "or"
    assert p[1][0] == "and"


def test_shipped_model_counts(model):
    assert len(model.paramsets) > 100
    assert len(model.fixrows) == 81
    assert len(model.ledgers) == 14
    assert len(model.classfams) == 36
    assert len(model.weylclasses) == 11
    assert len(model.pairs) == 7


def test_roundtrip_serialize_parse(model):
    text = serialize_model(model)
    again = parse_model_files({"all.def": text})
    assert again.paramsets == model.paramsets
    assert again.fixrows == model.fixrows
    assert again.ledgers == model.ledgers
    assert again.weylgens == model.weylgens
    assert again.frobenius == model.frobenius
    assert again.weylclasses == model.weylclasses
    assert again.classfams == model.classfams
    assert again.classrows == model.classrows
    assert again.chvalues == model.chvalues
    assert again.relations == model.relations
    assert again.degrels == model.degrels
    assert again.pairs == model.pairs
    assert again.order_expr == model.order_expr
    assert serialize_model(again) == text  # a textual fixed point


def test_all_cardinalities_integral_and_nonnegative(model):
    # every shipped cardinality expression is a nonnegative integer for
    # n <= 4 and, where t appears, for every divisor t of 2n+1
    for n in range(1, 5):
        env = build_env(n)
        for spec in model.paramsets.values():
            if spec.card is not None:
                assert eval_expr_int(spec.card, env) >= 0, spec.id
        for t in divisors(2 * n + 1):
            envt = build_env(n, t=t)
            for row in model.fixrows.values():
                assert eval_expr_int(row.formula, envt) >= 0, row.id


def test_unknown_symbol():
    from dadecheck.tabledsl import UnknownSymbol

    with pytest.raises(UnknownSymbol):
        eval_expr_int(_expr("nosuchthing+1"), build_env(1))


from hypothesis import given, settings
from hypothesis import strategies as st


def _expr_strategy(symbols=("q", "s2", "th", "n", "k", "p8a")):
    atoms = st.one_of(
        st.integers(0, 99).map(lambda v: ("int", v)),
        st.sampled_from(symbols).map(lambda s: ("sym", s)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
            children.map(lambda e: ("neg", e)),
            st.tuples(st.just("pow"), children, st.integers(0, 5).map(lambda v: ("int", v))),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(_expr_strategy())
@settings(max_examples=150, deadline=None)
def test_expr_serialize_roundtrip(e):
    from dadecheck.tabledsl import expr_to_str

    assert _expr(expr_to_str(e)) == e


@given(_expr_strategy(("q", "s2", "th", "p8a")))
@settings(max_examples=150, deadline=None)
def test_symbolic_and_numeric_environments_agree(e):
    # each symbol is defined once: as a polynomial in q, evaluated at n
    from dadecheck.tabledsl import eval_qpoly

    poly = eval_qpoly(e)
    for n in (1, 2, 3, 4):
        assert poly.eval(n) == eval_expr(e, build_env(n))


def test_build_env_returns_fresh_copies():
    from dadecheck.exactnum import SqrtTwoRat

    env = build_env(2, t=1, k=3)
    env["q"] = SqrtTwoRat(0)
    env["p8"] = SqrtTwoRat(0)
    again = build_env(2)
    assert again["q"] == SqrtTwoRat(0, 4)
    assert eval_expr_int(_expr("p8"), again) == 1025
    assert "t" not in again and "k" not in again


# --- the one-regex tokenizer against the positional one in token_oracle.py ---


def _oracle_pairs(text):
    from token_oracle import tokenize as oracle

    return [(kind, v) for kind, v, _, _ in oracle(text)]


def _kinded(toks):
    """The token strings with the oracle's names for the kinds the parser reads from them."""
    return [("ident" if v.isidentifier() else "int" if v.isdecimal()
             else {"->": "arrow", "!=": "ne", "": "eof"}.get(v, "op"), v) for v in toks]


def test_tokenizer_matches_oracle_on_shipped_tables():
    from dadecheck.tabledsl import tokenize

    for fname in dadecheck.DATA_FILES:
        text = _shipped_text(fname)
        toks = tokenize(text)
        assert all(type(v) is str for v in toks), fname
        assert len(toks) > 1000 and _kinded(toks) == _oracle_pairs(text), fname


# letters, digits (one non-ASCII), every operator, the pieces of -> and !=,
# comments, several kinds of whitespace and characters the language lacks
_TEXT_ALPHABET = "ab_Zk09٣ \t\n\r\x0c#-!=>+*/^(){}[]:,~é."


@given(st.text(alphabet=_TEXT_ALPHABET, max_size=60))
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_oracle_random(text):
    from token_oracle import tokenize as oracle

    from dadecheck.tabledsl import _position, tokenize

    try:
        want = oracle(text)
    except TableSyntaxError as e:
        with pytest.raises(TableSyntaxError) as got:
            tokenize(text)
        assert (str(got.value), got.value.line, got.value.col) == (str(e), e.line, e.col)
        return
    assert _kinded(tokenize(text)) == [(kind, v) for kind, v, _, _ in want]
    for i, (_, _, line, col) in enumerate(want):  # the last is the end of the text
        assert _position(text, i) == (line, col)


# sha256 of repr(parse_blocks(text)) for each shipped table, taken with the
# parser over (kind, value) token pairs that the string-token parser replaced
_PARSE_DIGESTS = {
    "paramsets.def": "fdcf37db9d1fbdd7542c01934c03925cf90c6564c45a11e53f6e610446f7a0b4",
    "fixrows.def": "f9c27e756560aa197eb35b2c093aaaf39037b8f01bf4eeb22e13d6c3e4a5343a",
    "defects.def": "85abaaed0ef263036ff0d0cb533b37069456587861973a16097cd8aeaf99e6c8",
    "weyl.def": "ee543e2d0850283c7e5bc476b91047234d3f909a67853f62cc72e8dbc159c425",
    "classes.def": "a986eef0eaf8a55d84ee76f268d5773a3a5222685706d79321798a4e2ac57ca7",
    "relations.def": "fd463f1be33635ff73c7e4b54929e7535f709fcef17b0c997a72ba039bec0b4b",
}


@pytest.mark.parametrize("fname", list(_PARSE_DIGESTS))
def test_parse_trees_match_golden_digest(fname):
    import hashlib

    digest = hashlib.sha256(repr(parse_blocks(_shipped_text(fname))).encode()).hexdigest()
    assert digest == _PARSE_DIGESTS[fname]


# Messages as the positional tokenizer and parser gave them.
@pytest.mark.parametrize("text, message", [
    ("paramset X {\n  group ~ G\n}", "line 2, col 9: unexpected character '~'"),
    ("paramset X { card: ٣ + é }", "line 1, col 24: unexpected character 'é'"),
    ("paramset X { exclude: k ! 0 }", "line 1, col 25: unexpected character '!'"),
    ("paramset X {\n  group: G\n  moduli: [q^2 -, 1]\n}",
     "line 3, col 17: expected expression, got ','"),
    ("# c\nparamset X { # x\n group: (q+ }", "line 3, col 13: expected expression, got '}'"),
    ("paramset X {\n equiv: [k+1 -> k] }",
     "line 2, col 14: map source must be an index symbol (at '->')"),
    ("paramset X {\n\texclude: k=0 and l }", "line 2, col 21: expected =, != or div, got '}'"),
    ("paramset X { moduli: [q^2-1] equiv: [(k,l) -> (k, l] }",
     "line 1, col 40: expected ')', got ','"),
    ("paramset X { group: G }\n\n  3 Y { }", "line 3, col 3: expected block kind, got '3'"),
    ("paramset 3 { }", "line 1, col 10: expected block name, got '3'"),
    ("paramset X {\n  group: G\n  2: 1\n}", "line 3, col 3: expected field name, got '2'"),
    ("paramset X {\n  group: G\n", "line 3, col 1: expected field name, got ''"),
    ("\r\n\x0cparamset\x0b X { a: b -> }", "line 2, col 21: expected field name, got '->'"),
])
def test_syntax_error_messages(text, message):
    with pytest.raises(TableSyntaxError) as exc:
        parse_blocks(text)
    assert str(exc.value) == message
    if "unexpected character" not in message:  # a parser error: it is at a token
        from token_oracle import tokenize as oracle

        assert (exc.value.line, exc.value.col) in {(line, col) for *_, line, col in oracle(text)}


# --- the schema: one table drives the builder, the serializer and references ---


def _shipped_text(fname):
    return (resources.files(dadecheck) / "data" / fname).read_text(encoding="utf-8")


def _first_block(bkind):
    for fname in dadecheck.DATA_FILES:
        for block in parse_blocks(_shipped_text(fname)):
            if block[0] == bkind:
                return block
    raise AssertionError(f"no shipped {bkind} block")


@pytest.mark.parametrize("bkind", list(_SCHEMA))
def test_schema_rejects_bad_blocks(bkind):
    _, name, fields = _first_block(bkind)
    kind = _SCHEMA[bkind]

    def error(*blocks):
        with pytest.raises(TableSyntaxError) as exc:
            _ModelBuilder().add_blocks(blocks)
        assert str(exc.value).startswith(f"{bkind} {name}: ")
        return str(exc.value)

    _ModelBuilder().add_blocks([(bkind, name, fields)])
    for f in kind.fields:
        if f.arity == REQUIRED:
            dropped = [x for x in fields if x[0] != f.table]
            assert error((bkind, name, dropped)).endswith(f"missing field {f.table}")
    assert error((bkind, name, fields + [("zz", ("int", 1))])).endswith("unknown field 'zz'")
    for fname, v in fields:
        if not kind.index[fname][2]:  # not repeated
            assert error((bkind, name, fields + [(fname, v)])).endswith(
                f"field {fname!r} given twice")
    assert f"a second {bkind} block" in error((bkind, name, fields), (bkind, name, fields))


def test_schema_follows_the_record_fields():
    # the builder constructs records positionally, in schema order
    for kind in _SCHEMA.values():
        if kind.record is not None:
            assert [f.attr for f in kind.fields] == list(kind.record._fields)[1:], kind.attr


@pytest.mark.parametrize("text, message", [
    ("fixrow R { group: [G] sets: [] fix: 1 }", "fixrow R: group has [G] where an identifier"),
    ("fixrow R { group: G sets: GI_1 fix: 1 }", "fixrow R: sets has GI_1 where a list"),
    ("fixrow R { group: G sets: [] fix: [1] }", "fixrow R: fix has [1] where an expression"),
    ("classrow c { family: h1 cent: 1 } classrow c { family: h1 cent: 2 }",
     "classrow c: a second classrow block named c"),
    ("degrel d { func: f table: 1 phi: 1 defect: 1 odd: maybe }",
     "degrel d: odd has maybe where yes or no"),
    ("weylclass T { cent: q order: 1 }", "weylclass T: cent has q where an integer literal"),
    ("defect d { value: 1 entry: [G, GI_1, fixed, 1] }", "defect d: entry has [G, GI_1, fixed, 1]"),
    ("defect d { value: 1 entry: [G, GI_1, fixd, R, 1] }",
     "defect d: entry has fixd where fixed or paired"),
    ("chvalue v { func: f cls: c term: [1] }", "chvalue v: term has [1] where"),
    ("paramset X { group: G action: none moduli: [[7]] card: 1 }",
     "paramset X: moduli has [7] where an expression belongs"),
    ("paramset X { group: G action: none moduli: [k -> k] card: 1 }",
     "paramset X: moduli has k -> k where an expression belongs"),
    ("paramset X { group: G action: none moduli: [7] equiv: [k+1] card: 1 }",
     "paramset X: equiv has k+1 where an affine map belongs"),
    ("chvalue v { func: f cls: c term: [1, 0, [k]] }",
     "chvalue v: term has [k] where an expression belongs"),
    ("chvalue v { func: f cls: c term: [[1], 0] }",
     "chvalue v: term has [1] where an expression belongs"),
    ("relation r { sum: [1, c, 2] }", "relation r: sum has [1, c, 2] where"),
    ("grouporder g { order: 1 } grouporder h { order: 2 }",
     "grouporder h: a second grouporder block after g"),
    ("weylgen r1 { matrix: [[1, 0], [0, 1]] }", "weylgen r1: matrix is not 4 x 4"),
    ("pi p { left: [] }", "pi p: unknown block kind 'pi'"),
])
def test_bad_field_values(text, message):
    with pytest.raises(TableSyntaxError) as exc:
        parse_model(text)
    assert str(exc.value).startswith(f"<text>: {message}")


def test_references_are_checked_through_the_schema():
    with pytest.raises(DanglingReference, match="pair P: right: unknown paramset GI_9"):
        parse_model("paramset GI_1 { group: G action: none card: 1 } "
                    "pair P { left: [GI_1] right: [GI_9] }")
    with pytest.raises(DanglingReference, match="paramset X: alias_of: unknown paramset Y"):
        parse_model("paramset X { group: G action: none card: 1 alias_of: Y }")


def test_readme_lists_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^\| `(\w+)` \|", readme, re.M) == list(_SCHEMA)
    for bkind, kind in _SCHEMA.items():
        cells = [", ".join(f"`{f.table}`" for f in kind.fields if f.arity == arity)
                 for arity in (REQUIRED, OPTIONAL, REPEATED)]
        assert f"| `{bkind}` | {' | '.join(cells)} |" in readme, bkind


def test_load_model_rereads_edited_tables(tmp_path):
    for fname in dadecheck.DATA_FILES:
        (tmp_path / fname).write_text(_shipped_text(fname))
    first = dadecheck.load_model(str(tmp_path))
    path = tmp_path / "paramsets.def"
    old = "card: (q^2-2)/2\n  note: semisimple_member\n}\nparamset GI_23"
    path.write_text(path.read_text().replace(old, old.replace("q^2-2", "q^2-4")))
    again = dadecheck.load_model(str(tmp_path))
    assert eval_expr_int(again.paramsets["GI_22"].card, build_env(1)) == 2
    assert eval_expr_int(first.paramsets["GI_22"].card, build_env(1)) == 3
    assert dadecheck.load_model(str(tmp_path)) is again


# --- int_value: each index-free value evaluated once per (expression, n, t) ---


_EXPR_OPS = frozenset({"int", "sym", "neg", "add", "sub", "mul", "div", "pow"})


def _table_exprs(value):
    """The expressions a model record holds, predicates' operands included."""
    if isinstance(value, tuple) and value and value[0] in _EXPR_OPS:
        yield value
    elif isinstance(value, tuple) and value and value[0] == "atom":
        yield from value[2:]
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _table_exprs(item)


def _result(f):
    """f()'s value, or its exception's type and message."""
    try:
        return f()
    except Exception as e:  # compared, not hidden: each side must fail alike
        return type(e), str(e)


def test_int_value_equals_a_fresh_evaluation(model, monkeypatch):
    from dadecheck import tabledsl

    monkeypatch.setattr(tabledsl, "_INT_VALUES", {})
    free = set(tabledsl._base_env(1)) | {"t"}
    exprs = {e for kind in _SCHEMA.values() if kind.record is not None
             for rec in getattr(model, kind.attr).values() for e in _table_exprs(rec)
             if tabledsl.expr_symbols(e) <= free}
    assert len(exprs) >= 200  # 220 in the shipped tables
    for n in range(1, 7):
        for t in [None] + divisors(2 * n + 1):
            env = build_env(n, t=t)
            for e in exprs:
                fresh = _result(lambda: eval_expr_int(e, env))
                assert _result(lambda: tabledsl.int_value(e, n, t)) == fresh, (e, n, t)
                assert _result(lambda: tabledsl.int_value(e, n, t)) == fresh, (e, n, t)


def test_int_value_raises_again_and_keeps_no_error(monkeypatch):
    from dadecheck import tabledsl
    from dadecheck.exactnum import NotRationalInteger

    monkeypatch.setattr(tabledsl, "_INT_VALUES", {})
    half, unknown = _expr("th/4"), _expr("zz + 1")
    for _ in range(2):
        with pytest.raises(NotRationalInteger):
            tabledsl.int_value(half, 1)
        with pytest.raises(KeyError, match="zz"):
            tabledsl.int_value(unknown, 1)
    assert tabledsl._INT_VALUES == {}
    assert tabledsl.int_value(half, 2) == 1  # th = 4 at n = 2


def test_int_value_keys_on_n_and_t(monkeypatch):
    from dadecheck import tabledsl

    monkeypatch.setattr(tabledsl, "_INT_VALUES", {})
    th, t = _expr("th"), _expr("t*n")
    assert [tabledsl.int_value(th, n) for n in (1, 2, 3)] == [2, 4, 8]
    assert [tabledsl.int_value(t, 4, s) for s in (1, 3, 9)] == [4, 12, 36]
    with pytest.raises(UnboundSymbol):
        tabledsl.int_value(t, 4)
    assert sorted(tabledsl._INT_VALUES, key=str) == sorted(
        [(th, 1, None), (th, 2, None), (th, 3, None), (t, 4, 1), (t, 4, 3), (t, 4, 9)], key=str)
