"""Parser for the declarative table files under data/.

The files transcribe the reference tables (parameter sets, fixed-point rows,
defect ledgers, Weyl/torus data, class families, character values) into a
small block language:

    kind IDENT { field: value ... }

Values are expressions over q, s2 (sqrt2), th (2^n), n, t and index symbols,
bracketed lists, predicates (atoms joined by and/or, and binding tighter),
or affine maps like (k,l) -> (th*(k+l), th*(k-l)).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exactnum import (NotPolynomial, NotRationalInteger, PHI_POLYS, Q, QPoly, SQRT2, SqrtTwoRat,
                       as_integer)


class TableSyntaxError(ValueError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


class WeylDataError(ValueError):
    """The Weyl generators give no finite lattice group that the twist normalizes."""


class UnknownSymbol(KeyError):
    pass


class UnboundSymbol(KeyError):
    pass


# symbols that are legal but must be bound by the consumer (parameters and
# index variables); anything else outside the built-in constants is unknown
INDEX_SYMBOLS = frozenset("ntijklab") | {"th", "q", "s2"}


class DanglingReference(ValueError):
    pass


# ---------------------------------------------------------------------------
# tokens

# One match per token, comment or stray character; whitespace is what no
# alternative matches, which findall skips.
_TOKEN_RE = re.compile(r"->|!=|\d+|[A-Za-z_][A-Za-z0-9_]*|#[^\n]*|\S")

# token kind by the whole token, else by its first character
_KIND_OF = {"->": "arrow", "!=": "ne"}
_KIND_OF_FIRST = {
    **{c: "op" for c in "-+*/^(){}[]:,="},
    **{c: "int" for c in "0123456789"},
    **{c: "ident" for c in "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"},
}


def tokenize(text: str) -> List[Tuple[str, str]]:
    """Tokens as (kind, value), ending with ("eof", "").

    Positions are not kept: _position finds the line and column of a token
    when an error needs them.
    """
    toks = []
    for v in _TOKEN_RE.findall(text):
        kind = _KIND_OF.get(v) or _KIND_OF_FIRST.get(v[0])
        if kind is None:
            if v[0] == "#":
                continue
            if not v.isdecimal():  # \d+ also matches the other Unicode digits
                raise TableSyntaxError(f"unexpected character {v!r}", *_position(text, len(toks)))
            kind = "int"
        toks.append((kind, v))
    toks.append(("eof", ""))
    return toks


def _position(text: str, i: int) -> Tuple[int, int]:
    """(line, col) of token i of text, or of the end of the text if it has no token i."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m.group()[0] != "#")
    pos = next(itertools.islice(starts, i, None), len(text))
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# Expression AST nodes are plain tuples:
#   ("int", v) ("sym", name) ("neg", e)
#   ("add"|"sub"|"mul"|"div"|"pow", a, b)
# Predicates:
#   ("atom", op, e1, e2) with op in {"=", "!=", "div"}; ("and", a, b); ("or", a, b)
Expr = tuple
Predicate = tuple
AffineMap = Tuple[Tuple[str, ...], Tuple[Expr, ...]]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val):
        v = self.peek()[1]
        if v != val:
            raise self.error(f"expected {val!r}, got {v!r}")
        self.i += 1

    def error(self, msg) -> TableSyntaxError:
        """A syntax error at the next token, placed by line and column."""
        return TableSyntaxError(msg, *_position(self.text, self.i))

    def ident(self, what) -> str:
        kind, v = self.peek()
        if kind != "ident":
            raise self.error(f"expected {what}, got {v!r}")
        self.i += 1
        return v

    # --- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.parse_factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            return ("neg", self.parse_factor())
        node = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            exp = self.parse_factor()
            node = ("pow", node, exp)
        return node

    def parse_atom(self) -> Expr:
        kind, v = self.peek()
        if kind == "int":
            self.next()
            return ("int", int(v))
        if kind == "ident" and v not in ("and", "or", "div"):
            self.next()
            return ("sym", v)
        if v == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise self.error(f"expected expression, got {v!r}")

    # --- predicates ------------------------------------------------------

    def parse_predicate_from(self, first: Expr) -> Predicate:
        node = self.parse_and_chain(self.parse_atom_pred_from(first))
        while self.peek()[1] == "or":
            self.next()
            rhs = self.parse_and_chain(self.parse_atom_pred())
            node = ("or", node, rhs)
        return node

    def parse_and_chain(self, first: Predicate) -> Predicate:
        node = first
        while self.peek()[1] == "and":
            self.next()
            node = ("and", node, self.parse_atom_pred())
        return node

    def parse_atom_pred(self) -> Predicate:
        return self.parse_atom_pred_from(self.parse_expr())

    def parse_atom_pred_from(self, lhs: Expr) -> Predicate:
        v = self.peek()[1]
        if v in ("=", "!=", "div"):
            self.next()
            rhs = self.parse_expr()
            return ("atom", v, lhs, rhs)
        raise self.error(f"expected =, != or div, got {v!r}")

    # --- field values ----------------------------------------------------

    def parse_value(self):
        if self.peek()[1] == "[":
            return self.parse_list()
        start = self.i
        node = self.parse_expr()
        nxt = self.peek()[1]
        if nxt in ("=", "!=", "div", "and", "or"):
            self.i = start
            first = self.parse_expr()
            return self.parse_predicate_from(first)
        return node

    def parse_list(self):
        self.expect("[")
        items = []
        if self.peek()[1] == "]":
            self.next()
            return items
        while True:
            items.append(self.parse_list_item())
            if self.peek()[1] == ",":
                self.next()
                continue
            self.expect("]")
            return items

    def parse_list_item(self):
        # A list item is a nested list, an affine map, or an expression.
        if self.peek()[1] == "[":
            return self.parse_list()
        start = self.i
        if self.peek()[1] == "(":
            # could be a parenthesised tuple heading a map
            try:
                vars_ = self.try_parse_tuple_of_syms()
                if vars_ is not None and self.peek()[1] == "->":
                    self.next()
                    targets = self.parse_map_targets(len(vars_))
                    return (tuple(vars_), tuple(targets))
            except TableSyntaxError:
                pass
            self.i = start
        node = self.parse_expr()
        if self.peek()[1] == "->":
            if node[0] != "sym":
                raise self.error(f"map source must be an index symbol (at {self.peek()[1]!r})")
            self.next()
            targets = self.parse_map_targets(1)
            return ((node[1],), tuple(targets))
        return node

    def try_parse_tuple_of_syms(self) -> Optional[List[str]]:
        if self.peek()[1] != "(":
            return None
        save = self.i
        self.next()
        syms = []
        while True:
            kind, v = self.next()
            if kind != "ident":
                self.i = save
                return None
            syms.append(v)
            v = self.next()[1]
            if v == ")":
                return syms
            if v != ",":
                self.i = save
                return None

    def parse_map_targets(self, arity: int) -> List[Expr]:
        if self.peek()[1] == "(":
            save = self.i
            self.next()
            targets = [self.parse_expr()]
            while self.peek()[1] == ",":
                self.next()
                targets.append(self.parse_expr())
            if self.peek()[1] == ")" and len(targets) > 1:
                self.next()
                return targets
            # single parenthesised expression
            self.i = save
            return [self.parse_expr()]
        return [self.parse_expr()]

    # --- blocks ------------------------------------------------------------

    def parse_blocks(self):
        blocks = []
        while self.peek()[0] != "eof":
            bkind = self.ident("block kind")
            name = self.ident("block name")
            self.expect("{")
            fields: List[Tuple[str, object]] = []
            while self.peek()[1] != "}":
                fname = self.ident("field name")
                self.expect(":")
                fields.append((fname, self.parse_value()))
            self.next()  # }
            blocks.append((bkind, name, fields))
        return blocks


def parse_blocks(text: str):
    return _Parser(text).parse_blocks()


# ---------------------------------------------------------------------------
# expression evaluation


# The symbols every table expression may use but n, t and the indices, as
# polynomials in q.  Each is defined here once: _base_env evaluates them at n.
_QPOLY_ENV: Dict[str, QPoly] = {"q": Q, "s2": QPoly.const(SQRT2),
                                "th": Q / QPoly.const(SQRT2), **PHI_POLYS}

# n -> the environment of build_env(n) without t and indices.  n is the whole
# key: _QPOLY_ENV is a module constant and every value is an immutable
# SqrtTwoRat.  Filled on first use, so loading a model evaluates nothing.
_BASE_ENV: Dict[int, Dict[str, object]] = {}


def _base_env(n: int) -> Dict[str, object]:
    env = _BASE_ENV.get(n)
    if env is None:
        env = {"n": SqrtTwoRat(n), **{name: p.eval(n) for name, p in _QPOLY_ENV.items()}}
        _BASE_ENV[n] = env
    return env


def build_env(n: int, t: Optional[int] = None, **indices) -> Dict[str, object]:
    """Numeric environment: q = 2^n sqrt2, th = 2^n, plus the named phi values.

    Each call returns a fresh dict; the phi values are evaluated once per n.
    """
    env = dict(_base_env(n))
    if t is not None:
        env["t"] = SqrtTwoRat(t)
    for k, v in indices.items():
        env[k] = SqrtTwoRat.coerce(v)
    return env


def eval_int(node: Expr, env) -> int:
    """Evaluate a subexpression that must be a plain integer (exponents).

    A value with a variable in it raises NotPolynomial.
    """
    v = _eval(node, env)
    return as_integer(v.constant() if isinstance(v, QPoly) else v)


def _eval(node: Expr, env):
    """The value of an expression tree in env: a number, or a QPoly where env binds one.

    Integer literals are SqrtTwoRat; an operation with a QPoly is a QPoly.
    This is the one evaluator of expression trees.
    """
    op = node[0]
    if op == "int":
        return SqrtTwoRat(node[1])
    if op == "sym":
        name = node[1]
        if name not in env:
            if name in INDEX_SYMBOLS:
                raise UnboundSymbol(name)
            raise UnknownSymbol(name)
        return env[name]
    if op == "neg":
        return -_eval(node[1], env)
    if op == "pow":
        base = _eval(node[1], env)
        exp = eval_int(node[2], env)
        return base ** exp
    a = _eval(node[1], env)
    b_node = node[2]
    if op == "add":
        return a + _eval(b_node, env)
    if op == "sub":
        return a - _eval(b_node, env)
    if op == "mul":
        return a * _eval(b_node, env)
    if op == "div":
        return a / _eval(b_node, env)
    raise ValueError(f"bad expression node {node!r}")


def eval_expr(node: Expr, env) -> SqrtTwoRat:
    """Exact evaluation against a numeric environment from build_env."""
    v = _eval(node, env)
    return SqrtTwoRat.coerce(v)


def eval_expr_int(node: Expr, env) -> int:
    return as_integer(eval_expr(node, env))


# (expression, n, t) -> the value int_value returns.  That is the whole key:
# build_env(n, t=t) is a function of n and t, and the value an int.  Only
# values are kept, so an expression that fails raises afresh on every call.
_INT_VALUES: Dict[tuple, int] = {}


def int_value(node: Expr, n: int, t: Optional[int] = None) -> int:
    """The integer value of an index-free expression at n (and t), evaluated once.

    Raises what eval_expr_int(node, build_env(n, t=t)) raises, e.g.
    NotRationalInteger where the value is no integer.
    """
    key = (node, n, t)
    v = _INT_VALUES.get(key)
    if v is None:
        v = _INT_VALUES[key] = eval_expr_int(node, build_env(n, t=t))
    return v


def eval_qpoly(node: Expr) -> QPoly:
    """Evaluate an n-free expression into a symbolic polynomial in q."""
    return QPoly.coerce(_eval(node, _QPOLY_ENV))


def expr_symbols(node) -> set:
    if node[0] == "sym":
        return {node[1]}
    if node[0] == "int":
        return set()
    out = set()
    for sub in node[1:]:
        if isinstance(sub, tuple):
            out |= expr_symbols(sub)
    return out


# ---------------------------------------------------------------------------
# expression / predicate serialization (round-trip support)


def expr_to_str(node) -> str:
    op = node[0]
    if op == "int":
        return str(node[1])
    if op == "sym":
        return node[1]
    if op == "neg":
        return f"-{_paren(node[1])}"
    if op == "pow":
        return f"{_paren(node[1])}^{_paren(node[2])}"
    sign = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"{_paren(node[1])}{sign}{_paren(node[2])}"


def _paren(node) -> str:
    if node[0] in ("int", "sym"):
        return expr_to_str(node)
    return f"({expr_to_str(node)})"


def pred_to_str(node) -> str:
    op = node[0]
    if op == "atom":
        return f"{expr_to_str(node[2])} {node[1]} {expr_to_str(node[3])}"
    joiner = " and " if op == "and" else " or "
    return joiner.join(
        _pred_operand(sub, op) for sub in (node[1], node[2])
    )


def _pred_operand(node, parent_op) -> str:
    # "and" binds tighter than "or"; emit only when reparse would differ.
    if parent_op == "and" and node[0] == "or":
        raise ValueError("or under and is not expressible in the flat grammar")
    return pred_to_str(node)


def value_to_str(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(value_to_str(x) for x in v) + "]"
    if isinstance(v, tuple) and v and isinstance(v[0], tuple) and all(
        isinstance(s, str) for s in v[0]
    ):
        vars_, targets = v
        lhs = vars_[0] if len(vars_) == 1 else "(" + ",".join(vars_) + ")"
        rhs = (
            expr_to_str(targets[0])
            if len(targets) == 1
            else "(" + ", ".join(expr_to_str(e) for e in targets) + ")"
        )
        return f"{lhs} -> {rhs}"
    if _is_pred(v):
        return pred_to_str(v)
    return expr_to_str(v)


# ---------------------------------------------------------------------------
# model records: immutable tuples with named fields; Model holds them by name


class ParamSetSpec(NamedTuple):
    id: str
    group: str
    action: str  # doubling | identity | formula_only | none
    moduli: Tuple[Expr, ...] = ()
    exclude: Optional[Predicate] = None
    equiv: Tuple[AffineMap, ...] = ()
    card: Optional[Expr] = None
    members: Tuple[str, ...] = ()
    alias_of: Optional[str] = None
    note: Optional[str] = None

    @property
    def arity(self) -> int:
        return len(self.moduli)

    @property
    def indices(self) -> Tuple[str, ...]:
        """The names of the indices of a tuple: k, then l."""
        return ("k", "l")[:self.arity]


class FixRow(NamedTuple):
    id: str
    group: str
    sets: Tuple[str, ...]
    formula: Expr


class LedgerEntry(NamedTuple):
    group: str
    set_id: str
    tag: str  # "fixed" | "paired"
    ref: str  # fixrow id or pair id
    side: Optional[str]  # "left" | "right" for paired entries
    degree: Optional[Expr]


class DefectLedger(NamedTuple):
    id: str
    value: Expr
    entries: Tuple[LedgerEntry, ...]


class WeylClass(NamedTuple):
    id: str
    word: Tuple[str, ...]
    cent: int
    order: Expr
    tranges: Tuple[Expr, ...]
    tcoords: Tuple[Expr, ...]
    sranges: Tuple[Expr, ...]
    scoords: Tuple[Expr, ...]
    svars: Tuple[str, ...]
    tvars: Tuple[str, ...]
    pairing: Expr


class ClassFam(NamedTuple):
    id: str
    side: str  # "torus" (values on eps basis) | "dual" (X tensor Q/Z coords)
    word: Tuple[str, ...]
    vars: Tuple[str, ...]
    coords: Tuple[Expr, ...]
    ranges: Tuple[Expr, ...]
    count: Expr
    exclude: Optional[Predicate] = None
    pi: Tuple[Tuple[int, ...], ...] = ()
    pitype: Optional[str] = None
    pilabel: Optional[str] = None


class ClassRow(NamedTuple):
    id: str
    family: str
    cent: Expr


class ValueTerm(NamedTuple):
    coeff: Expr
    eps4: int
    exps: Tuple[Expr, ...]


class ChValue(NamedTuple):
    id: str
    func: str
    cls: str
    order: Optional[Expr]
    terms: Tuple[ValueTerm, ...]


class Relation(NamedTuple):
    id: str
    func: Optional[str] = None
    sum: Tuple[Tuple[int, str], ...] = ()  # (coefficient, class id) terms
    left: Optional[str] = None
    right: Optional[str] = None
    equals: Optional[str] = None
    classes: Tuple[str, ...] = ()


class DegRel(NamedTuple):
    id: str
    func: str
    table: Expr
    phi: Expr
    defect: Expr
    odd: bool


class Pair(NamedTuple):
    id: str
    left: Tuple[str, ...] = ()
    right: Tuple[str, ...] = ()


@dataclass
class Model:
    paramsets: Dict[str, ParamSetSpec] = field(default_factory=dict)
    fixrows: Dict[str, FixRow] = field(default_factory=dict)
    ledgers: Dict[str, DefectLedger] = field(default_factory=dict)
    weylgens: Dict[str, Tuple[Tuple[int, ...], ...]] = field(default_factory=dict)
    frobenius: Optional[Tuple[Tuple[int, ...], ...]] = None
    weylclasses: Dict[str, WeylClass] = field(default_factory=dict)
    classfams: Dict[str, ClassFam] = field(default_factory=dict)
    classrows: Dict[str, ClassRow] = field(default_factory=dict)
    chvalues: Dict[str, ChValue] = field(default_factory=dict)
    relations: Dict[str, Relation] = field(default_factory=dict)
    degrels: Dict[str, DegRel] = field(default_factory=dict)
    pairs: Dict[str, Pair] = field(default_factory=dict)
    order_expr: Optional[Expr] = None  # |G| as shipped in classes.def
    block_order: List[Tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the table schema: one entry per block kind drives loading, serializing and
# the reference checks


def _where(v, what: str) -> TableSyntaxError:
    return TableSyntaxError(f"has {value_to_str(v)} where {what} belongs")


def _read_sym(v) -> str:
    if isinstance(v, tuple) and v[0] == "sym":
        return v[1]
    raise _where(v, "an identifier")


def _read_list(v) -> list:
    if isinstance(v, list):
        return v
    raise _where(v, "a list")


def _is_pred(v) -> bool:
    return isinstance(v, tuple) and v[0] in ("atom", "and", "or")


def _read_expr(v) -> Expr:
    if isinstance(v, list) or _is_pred(v):
        raise _where(v, "an expression")
    return v


def _read_pred(v) -> Predicate:
    if not _is_pred(v):
        raise _where(v, "a predicate")
    return v


def _read_int(v) -> int:
    if isinstance(v, tuple) and v[0] == "int":
        return v[1]
    if isinstance(v, tuple) and v[0] == "neg" and v[1][0] == "int":
        return -v[1][1]
    raise _where(v, "an integer literal")


def _read_ints(v) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(map(_read_int, _read_list(row))) for row in _read_list(v))


def _read_matrix(v) -> Tuple[Tuple[int, ...], ...]:
    m = _read_ints(v)
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise TableSyntaxError("is not 4 x 4")
    return m


def _read_yesno(v) -> bool:
    if v in (("sym", "yes"), ("sym", "no")):
        return v[1] == "yes"
    raise _where(v, "yes or no")


def _read_entry(v) -> LedgerEntry:
    """[group, set, fixed, fixrow, degree] or [group, set, paired, pair, side, degree]."""
    v = _read_list(v)
    if len(v) != (6 if v[2:3] == [("sym", "paired")] else 5):
        raise _where(v, "[group, set, tag, ref, degree] or [group, set, paired, ref, side, degree]")
    group, set_id, tag, ref, *side = map(_read_sym, v[:-1])
    if tag not in ("fixed", "paired"):
        raise _where(v[2], "fixed or paired")
    degree = None if v[-1] == ("sym", "none") else v[-1]
    return LedgerEntry(group, set_id, tag, ref, side[0] if side else None, degree)


def _write_entry(e: LedgerEntry) -> list:
    syms = (e.group, e.set_id, e.tag, e.ref) + ((e.side,) if e.tag == "paired" else ())
    return [("sym", x) for x in syms] + [("sym", "none") if e.degree is None else e.degree]


def _read_term(v) -> ValueTerm:
    v = _read_list(v)
    if len(v) < 2:
        raise _where(v, "[coefficient, eps4 power, exponents...]")
    return ValueTerm(v[0], _read_int(v[1]), tuple(v[2:]))


def _read_sum(v) -> Tuple[Tuple[int, str], ...]:
    v = _read_list(v)
    if len(v) % 2:
        raise _where(v, "[coefficient, class, ...]")
    return tuple((_read_int(v[i]), _read_sym(v[i + 1])) for i in range(0, len(v), 2))


def _write_ints(v) -> list:
    return [[("int", x) for x in row] for row in v]


# codec -> (read, write, value of an absent field).  read turns a parsed field
# value into the model's value, or raises a TableSyntaxError whose message
# follows the field name; write turns it back into a parsed value.
_CODECS = {
    "sym": (_read_sym, lambda v: ("sym", v), None),
    "syms": (lambda v: tuple(map(_read_sym, _read_list(v))),
             lambda v: [("sym", x) for x in v], ()),
    "expr": (_read_expr, lambda v: v, None),
    "pred": (_read_pred, lambda v: v, None),
    "exprs": (lambda v: tuple(_read_list(v)), list, ()),
    "int": (_read_int, lambda v: ("int", v), None),
    "ints": (_read_ints, _write_ints, ()),
    "matrix": (_read_matrix, _write_ints, None),
    "yesno": (_read_yesno, lambda v: ("sym", "yes" if v else "no"), False),
    "entry": (_read_entry, _write_entry, None),
    "term": (_read_term, lambda t: [t.coeff, ("int", t.eps4), *t.exps], None),
    "sum": (_read_sum, lambda v: [x for c, cls in v for x in (("int", c), ("sym", cls))], ()),
}

REQUIRED, OPTIONAL, REPEATED = "required", "optional", "repeated"


class _Field(NamedTuple):
    table: str  # the field's name in a .def file
    codec: str  # a key of _CODECS
    arity: str = REQUIRED  # or OPTIONAL, or REPEATED: a tuple with one item per occurrence
    refers: Optional[str] = None  # the block kind whose names the field holds
    attr: Optional[str] = None  # the record attribute it fills; _kind sets table if None


class _Kind(NamedTuple):
    attr: str  # the Model attribute: a dict by block name, or one value
    record: Optional[type]  # built as record(name, *values); None: the one field's value
    fields: Tuple[_Field, ...]  # in the order of the record's fields after id
    index: Dict[str, Tuple[int, object, bool]]  # table name -> (position, read, repeated)
    empty: tuple  # the values of absent fields
    required: frozenset  # positions of the required fields


def _kind(attr, record, *fields) -> _Kind:
    fields = tuple(f._replace(attr=f.attr or f.table) for f in fields)
    return _Kind(attr, record, fields,
                 {f.table: (i, _CODECS[f.codec][0], f.arity == REPEATED)
                  for i, f in enumerate(fields)},
                 tuple(() if f.arity == REPEATED else _CODECS[f.codec][2] for f in fields),
                 frozenset(i for i, f in enumerate(fields) if f.arity == REQUIRED))


_SCHEMA: Dict[str, _Kind] = {
    "paramset": _kind(
        "paramsets", ParamSetSpec,
        _Field("group", "sym"), _Field("action", "sym"), _Field("moduli", "exprs", OPTIONAL),
        _Field("exclude", "pred", OPTIONAL), _Field("equiv", "exprs", OPTIONAL),
        _Field("card", "expr"), _Field("members", "syms", OPTIONAL, "paramset"),
        _Field("alias_of", "sym", OPTIONAL, "paramset"), _Field("note", "sym", OPTIONAL)),
    "fixrow": _kind(
        "fixrows", FixRow,
        _Field("group", "sym"), _Field("sets", "syms", REQUIRED, "paramset"),
        _Field("fix", "expr", attr="formula")),
    "defect": _kind(
        "ledgers", DefectLedger,
        _Field("value", "expr"), _Field("entry", "entry", REPEATED, attr="entries")),
    "pair": _kind(
        "pairs", Pair,
        _Field("left", "syms", REQUIRED, "paramset"),
        _Field("right", "syms", REQUIRED, "paramset")),
    "weylgen": _kind("weylgens", None, _Field("matrix", "matrix")),
    "frobenius": _kind("frobenius", None, _Field("matrix", "matrix")),
    # every field is read by the Weyl checks, so none may be left out
    "weylclass": _kind(
        "weylclasses", WeylClass,
        _Field("word", "syms", REQUIRED, "weylgen"), _Field("cent", "int"),
        _Field("order", "expr"), _Field("tranges", "exprs"), _Field("tcoords", "exprs"),
        _Field("sranges", "exprs"), _Field("scoords", "exprs"), _Field("svars", "syms"),
        _Field("tvars", "syms"), _Field("pairing", "expr")),
    "grouporder": _kind("order_expr", None, _Field("order", "expr")),
    "classfam": _kind(
        "classfams", ClassFam,
        _Field("side", "sym"), _Field("word", "syms", OPTIONAL, "weylgen"),
        _Field("vars", "syms", OPTIONAL), _Field("coords", "exprs"),
        _Field("ranges", "exprs", OPTIONAL), _Field("count", "expr"),
        _Field("exclude", "pred", OPTIONAL), _Field("pi", "ints", OPTIONAL),
        _Field("pitype", "sym", OPTIONAL), _Field("pilabel", "sym", OPTIONAL)),
    "classrow": _kind(
        "classrows", ClassRow,
        _Field("family", "sym", REQUIRED, "classfam"), _Field("cent", "expr")),
    "chvalue": _kind(
        "chvalues", ChValue,
        _Field("func", "sym"), _Field("cls", "sym", REQUIRED, "classrow"),
        _Field("order", "expr", OPTIONAL), _Field("term", "term", REPEATED, attr="terms")),
    "relation": _kind(
        "relations", Relation,
        _Field("func", "sym", OPTIONAL), _Field("sum", "sum", OPTIONAL),
        _Field("left", "sym", OPTIONAL), _Field("right", "sym", OPTIONAL),
        _Field("equals", "sym", OPTIONAL), _Field("classes", "syms", OPTIONAL, "classrow")),
    "degrel": _kind(
        "degrels", DegRel,
        _Field("func", "sym"), _Field("table", "expr"), _Field("phi", "expr"),
        _Field("defect", "expr"), _Field("odd", "yesno", OPTIONAL)),
}


class _ModelBuilder:
    def __init__(self):
        self.model = Model()

    def add_blocks(self, blocks):
        model = self.model
        for bkind, name, fields in blocks:
            kind = _SCHEMA.get(bkind)
            if kind is None:
                raise TableSyntaxError(f"{bkind} {name}: unknown block kind {bkind!r}")
            values = list(kind.empty)
            given = set()
            for fname, raw in fields:
                try:
                    i, read, repeated = kind.index[fname]
                except KeyError:
                    raise TableSyntaxError(f"{bkind} {name}: unknown field {fname!r}") from None
                try:
                    v = read(raw)
                except TableSyntaxError as e:
                    raise TableSyntaxError(f"{bkind} {name}: {fname} {e}") from None
                if repeated:
                    values[i] += (v,)
                elif i in given:
                    raise TableSyntaxError(f"{bkind} {name}: field {fname!r} given twice")
                else:
                    values[i] = v
                    given.add(i)
            if not kind.required <= given:
                missing = [kind.fields[i].table for i in sorted(kind.required - given)]
                raise TableSyntaxError(f"{bkind} {name}: missing field {', '.join(missing)}")
            obj = kind.record(name, *values) if kind.record else values[0]
            slot = getattr(model, kind.attr)
            if isinstance(slot, dict):
                if name in slot:
                    raise TableSyntaxError(f"{bkind} {name}: a second {bkind} block named {name}")
                slot[name] = obj
            elif slot is not None:
                first = next(n for k, n in model.block_order if k == bkind)
                raise TableSyntaxError(f"{bkind} {name}: a second {bkind} block after {first}")
            else:
                setattr(model, kind.attr, obj)
            model.block_order.append((bkind, name))


def parse_model(text: str) -> Model:
    """Parse one source string into a cross-checked Model."""
    return parse_model_files({"<text>": text})


def parse_model_files(texts: Dict[str, str]) -> Model:
    b = _ModelBuilder()
    for fname in sorted(texts):
        try:
            b.add_blocks(parse_blocks(texts[fname]))
        except TableSyntaxError as e:
            raise TableSyntaxError(f"{fname}: {e}") from e
    validate_model(b.model)
    return b.model


def _check_expr(owner: str, node: Expr, env) -> None:
    """Evaluate node in env; a table error naming owner if that fails."""
    try:
        eval_expr(node, env)
    except UnknownSymbol as e:
        raise TableSyntaxError(f"{owner}: unknown symbol {e.args[0]}") from None
    except UnboundSymbol as e:
        raise TableSyntaxError(f"{owner}: unbound symbol {e.args[0]}") from None
    except (ZeroDivisionError, NotRationalInteger) as e:
        raise TableSyntaxError(f"{owner}: {e}") from None


def _check_symbols(owner: str, names, *nodes) -> None:
    """A table error naming owner if a node uses a symbol outside names."""
    unknown = sorted(set().union(*map(expr_symbols, nodes)).difference(names))
    if unknown:
        raise TableSyntaxError(f"{owner}: unknown symbol {', '.join(unknown)}")


def _check_exclusion(owner: str, pred: Predicate, names, indices) -> None:
    """The atoms of an exclusion use known symbols and the owner's own indices.

    The modulus m of "m div e" is evaluated without the indices.
    """
    if pred[0] != "atom":
        for sub in pred[1:]:
            _check_exclusion(owner, sub, names, indices)
        return
    _, op, e1, e2 = pred
    _check_symbols(owner, names if op == "div" else names | set(indices), e1)
    _check_symbols(owner, names | set(indices), e2)


# The symbols a root exponent of a character value may use: th, the class
# index i and the character index k (in this order, chartables' exponent
# monomials are keyed on them).
EXPONENT_SYMBOLS = ("th", "i", "k")
_EXPONENT_ENV = {s: QPoly.var(s) for s in EXPONENT_SYMBOLS}


def exponent_poly(node: Expr) -> QPoly:
    """A root exponent as a polynomial in th, i and k, the three as variables."""
    return QPoly.coerce(_eval(node, _EXPONENT_ENV))


def validate_model(model: Model) -> None:
    """Resolve every cross reference and type-check expressions at n = 1.

    A root exponent must be a polynomial in th, i and k (no division by one
    of them and no power in one); whether its coefficients are integers at
    n is left to the exponent_integrality check.  The Weyl data is checked
    here too: a model with Weyl classes or class families has weylgen and
    frobenius blocks, and m0 m0 = 2 I.
    """
    if model.weylclasses or model.classfams:
        # their words are products of W's generators, and their checks read the twist
        if not model.weylgens:
            raise TableSyntaxError("no weylgen block: the Weyl classes need W's generators")
        if model.frobenius is None:
            raise TableSyntaxError("no frobenius block: the Weyl classes need the twist m0")
    if model.frobenius is not None:
        m0 = model.frobenius
        if any(sum(m0[i][k] * m0[k][j] for k in range(4)) != 2 * (i == j)
               for i in range(4) for j in range(4)):
            name = next(name for kind, name in model.block_order if kind == "frobenius")
            raise TableSyntaxError(f"frobenius {name}: m0 m0 is not 2 I")
    for bkind, kind in _SCHEMA.items():
        refs = [f for f in kind.fields if f.refers]
        for obj in getattr(model, kind.attr).values() if refs else ():
            for f in refs:
                targets = getattr(model, _SCHEMA[f.refers].attr)
                v = getattr(obj, f.attr)
                for ref in (v,) if f.codec == "sym" and v is not None else v or ():
                    if ref not in targets:
                        raise DanglingReference(
                            f"{bkind} {obj.id}: {f.table}: unknown {f.refers} {ref}")
    env1 = build_env(1, t=1)
    names = set(_base_env(1))  # n, q, s2, th and the phi values
    poly_names = names - {"n"}  # those of _QPOLY_ENV: polynomials in q
    for row in model.fixrows.values():
        _check_expr(f"fixrow {row.id}", row.formula, env1)
        # fixed_count_formula evaluates every row at n = 1, so only t may vary
        others = sorted(expr_symbols(row.formula) - {"t"})
        if others:
            raise TableSyntaxError(f"fixrow {row.id}: fix uses {', '.join(others)}; "
                                   "only t is allowed")
    for spec in model.paramsets.values():
        _check_expr(spec.id, spec.card, env1)
        if spec.exclude is not None:
            _check_exclusion(spec.id, spec.exclude, names, spec.indices)
        _check_symbols(spec.id, names, *spec.moduli)
        for vars_, targets in spec.equiv:
            _check_symbols(spec.id, names | set(vars_), *targets)
    for led in model.ledgers.values():
        _check_expr(f"ledger {led.id}", led.value, env1)
        for e in led.entries:
            if e.set_id not in model.paramsets:
                raise DanglingReference(f"ledger {led.id}: unknown set {e.set_id}")
            rows, what = (model.fixrows, "fixrow") if e.tag == "fixed" else (model.pairs, "pair")
            if e.ref not in rows:
                raise DanglingReference(f"ledger {led.id}: unknown {what} {e.ref}")
    for wc in model.weylclasses.values():
        _check_expr(f"weylclass {wc.id}", wc.order, env1)
        _check_symbols(f"weylclass {wc.id}", names, *wc.tranges, *wc.sranges)
        _check_symbols(f"weylclass {wc.id}", names | set(wc.tvars), *wc.tcoords)
        _check_symbols(f"weylclass {wc.id}", names | set(wc.svars), *wc.scoords)
        _check_symbols(f"weylclass {wc.id}", names | set(wc.tvars) | set(wc.svars), wc.pairing)
    for fam in model.classfams.values():
        _check_expr(f"classfam {fam.id}", fam.count, env1)
        if fam.exclude is not None:
            _check_exclusion(f"classfam {fam.id}", fam.exclude, names, fam.vars)
        _check_symbols(f"classfam {fam.id}", names, *fam.ranges)
        _check_symbols(f"classfam {fam.id}", names | set(fam.vars), *fam.coords)
    for cv in model.chvalues.values():
        if cv.order is not None:
            _check_symbols(f"chvalue {cv.id}", names, cv.order)
        _check_symbols(f"chvalue {cv.id}", poly_names, *(t.coeff for t in cv.terms))
        exps = [e for t in cv.terms for e in t.exps]
        _check_symbols(f"chvalue {cv.id}", EXPONENT_SYMBOLS, *exps)
        for e in exps:
            try:
                poly = exponent_poly(e)
            except (NotPolynomial, ZeroDivisionError):
                poly = None
            if poly is None or any(p < 0 for m in poly.terms for _, p in m):
                raise TableSyntaxError(f"relations.def: chvalue {cv.id}: root exponent "
                                       f"{expr_to_str(e)} is not a polynomial in th, i, k")
    for dr in model.degrels.values():
        _check_symbols(f"degrel {dr.id}", poly_names, dr.table, dr.phi)
        _check_symbols(f"degrel {dr.id}", names, dr.defect)
    for rel in model.relations.values():
        for _, cls in rel.sum:
            if cls not in model.classrows:
                raise DanglingReference(f"relation {rel.id}: unknown class {cls}")

# ---------------------------------------------------------------------------
# serialization (the round-trip property is tested against the shipped files)


def serialize_model(model: Model) -> str:
    """The model as table text, its blocks in the order they were read."""
    chunks = []
    for bkind, name in model.block_order:
        kind = _SCHEMA[bkind]
        slot = getattr(model, kind.attr)
        obj = slot[name] if isinstance(slot, dict) else slot
        lines = [f"{bkind} {name} {{"]
        for f in kind.fields:
            v = getattr(obj, f.attr) if kind.record else obj
            items = v if f.arity == REPEATED else (v,) if f.arity == REQUIRED or v else ()
            write = _CODECS[f.codec][1]
            lines += [f"  {f.table}: {value_to_str(write(x))}" for x in items]
        chunks.append("\n".join(lines + ["}"]))
    return "\n".join(chunks) + "\n"
