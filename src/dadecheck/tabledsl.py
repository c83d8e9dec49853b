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
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactnum import NotRationalInteger, PHI_POLYS, QPoly, SQRT2, SqrtTwoRat, as_integer


class TableSyntaxError(ValueError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


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


# n -> the environment of build_env(n) without t and indices.  n is the whole
# key: PHI_POLYS is a module constant and every value is an immutable
# SqrtTwoRat.  Filled on first use, so loading a model evaluates nothing.
_BASE_ENV: Dict[int, Dict[str, object]] = {}


def _base_env(n: int) -> Dict[str, object]:
    env = _BASE_ENV.get(n)
    if env is None:
        env = {
            "n": SqrtTwoRat(n),
            "q": SqrtTwoRat(0, 1 << n),
            "s2": SQRT2,
            "th": SqrtTwoRat(1 << n),
        }
        for name, poly in PHI_POLYS.items():
            env[name] = poly.eval(n)
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


_QPOLY_ENV = None


def qpoly_env() -> Dict[str, object]:
    """Symbolic environment mapping q to the polynomial generator."""
    global _QPOLY_ENV
    if _QPOLY_ENV is None:
        env = {"q": QPoly.q(1), "s2": QPoly.const(SQRT2)}
        env["th"] = env["q"] * QPoly.const(SqrtTwoRat(0, Fraction(1, 2)))  # q/sqrt2
        env.update(PHI_POLYS)
        _QPOLY_ENV = env
    return dict(_QPOLY_ENV)


def eval_int(node: Expr, env) -> int:
    """Evaluate a subexpression that must be a plain integer (exponents)."""
    return as_integer(SqrtTwoRat.coerce(_eval(node, env, scalar=True)))


def _eval(node: Expr, env, scalar=False):
    op = node[0]
    if op == "int":
        return SqrtTwoRat(node[1]) if scalar else _lift_int(node[1], env)
    if op == "sym":
        name = node[1]
        if name not in env:
            if name in INDEX_SYMBOLS:
                raise UnboundSymbol(name)
            raise UnknownSymbol(name)
        return env[name]
    if op == "neg":
        return -_eval(node[1], env, scalar)
    if op == "pow":
        base = _eval(node[1], env, scalar)
        exp = eval_int(node[2], env)
        return base ** exp
    a = _eval(node[1], env, scalar)
    b_node = node[2]
    if op == "add":
        return a + _eval(b_node, env, scalar)
    if op == "sub":
        return a - _eval(b_node, env, scalar)
    if op == "mul":
        return a * _eval(b_node, env, scalar)
    if op == "div":
        return a / _eval(b_node, env, scalar)
    raise ValueError(f"bad expression node {node!r}")


def _lift_int(v: int, env):
    # Integers must live in whatever domain the environment's q lives in.
    q = env.get("q")
    if isinstance(q, QPoly):
        return QPoly.const(v)
    return SqrtTwoRat(v)


def eval_expr(node: Expr, env) -> SqrtTwoRat:
    """Exact evaluation against a numeric environment from build_env."""
    v = _eval(node, env)
    return SqrtTwoRat.coerce(v)


def eval_expr_int(node: Expr, env) -> int:
    return as_integer(eval_expr(node, env))


def eval_qpoly(node: Expr, extra: Optional[Dict[str, QPoly]] = None) -> QPoly:
    """Evaluate an n-free expression into a symbolic polynomial in q."""
    env = qpoly_env()
    if extra:
        env.update(extra)
    v = _eval(node, env)
    return QPoly.coerce(v)


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
    if isinstance(v, tuple) and v[0] in ("atom", "and", "or"):
        return pred_to_str(v)
    return expr_to_str(v)


# ---------------------------------------------------------------------------
# model dataclasses


@dataclass(frozen=True)
class ParamSetSpec:
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


@dataclass(frozen=True)
class FixRow:
    id: str
    group: str
    sets: Tuple[str, ...]
    formula: Expr


@dataclass(frozen=True)
class LedgerEntry:
    group: str
    set_id: str
    tag: str  # "fixed" | "paired"
    ref: str  # fixrow id or pair id
    side: Optional[str]  # "left" | "right" for paired entries
    degree: Optional[Expr]


@dataclass(frozen=True)
class DefectLedger:
    id: str
    value: Expr
    entries: Tuple[LedgerEntry, ...]


@dataclass(frozen=True)
class WeylClass:
    id: str
    word: Tuple[str, ...]
    cent: int
    order: Expr
    tranges: Tuple[Expr, ...] = ()
    tcoords: Tuple[Expr, ...] = ()
    sranges: Tuple[Expr, ...] = ()
    scoords: Tuple[Expr, ...] = ()
    svars: Tuple[str, ...] = ()
    tvars: Tuple[str, ...] = ()
    pairing: Optional[Expr] = None


@dataclass(frozen=True)
class ClassFam:
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


@dataclass(frozen=True)
class ClassRow:
    id: str
    family: str
    cent: Expr


@dataclass(frozen=True)
class ValueTerm:
    coeff: Expr
    eps4: int
    exps: Tuple[Expr, ...]


@dataclass(frozen=True)
class ChValue:
    id: str
    func: str
    cls: str
    order: Optional[Expr]
    terms: Tuple[ValueTerm, ...]


@dataclass(frozen=True)
class Relation:
    id: str
    func: Optional[str] = None
    sum: Tuple[Tuple[int, str], ...] = ()  # (coefficient, class id) terms
    left: Optional[str] = None
    right: Optional[str] = None
    equals: Optional[str] = None
    classes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DegRel:
    id: str
    func: str
    table: Expr
    phi: Expr
    defect: Expr
    odd: bool


@dataclass(frozen=True)
class Pair:
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

    def paramset(self, set_id: str) -> ParamSetSpec:
        try:
            return self.paramsets[set_id]
        except KeyError:
            raise DanglingReference(f"unknown parameter set {set_id!r}")


def _sym_name(v) -> str:
    if isinstance(v, tuple) and v[0] == "sym":
        return v[1]
    raise TableSyntaxError(f"expected identifier, got {v!r}")


def _sym_list(v) -> Tuple[str, ...]:
    return tuple(_sym_name(x) for x in v)


def _int_value(v) -> int:
    if isinstance(v, tuple) and v[0] == "int":
        return v[1]
    if isinstance(v, tuple) and v[0] == "neg":
        return -_int_value(v[1])
    raise TableSyntaxError(f"expected integer literal, got {v!r}")


def _matrix(owner: str, v) -> Tuple[Tuple[int, ...], ...]:
    """A 4 x 4 matrix of integer literals, else a table error naming owner."""
    if not (isinstance(v, list) and len(v) == 4
            and all(isinstance(row, list) and len(row) == 4 for row in v)):
        raise TableSyntaxError(f"{owner}: matrix is not 4 x 4")
    try:
        return tuple(tuple(_int_value(x) for x in row) for row in v)
    except TableSyntaxError as e:
        raise TableSyntaxError(f"{owner}: {e}") from None


class _ModelBuilder:
    def __init__(self):
        self.model = Model()

    def add_blocks(self, blocks):
        for bkind, name, fields in blocks:
            handler = getattr(self, f"_on_{bkind}", None)
            if handler is None:
                raise TableSyntaxError(f"unknown block kind {bkind!r}")
            f = dict(fields)
            if len(f) != len(fields) and bkind not in ("defect", "chvalue"):
                raise TableSyntaxError(f"duplicate field in {bkind} {name}")
            handler(name, fields)
            self.model.block_order.append((bkind, name))

    # -- block handlers ----------------------------------------------------

    def _on_paramset(self, name, fields):
        f = dict(fields)
        equiv = tuple(f.get("equiv", ()))
        spec = ParamSetSpec(
            id=name,
            group=_sym_name(f["group"]),
            action=_sym_name(f["action"]),
            moduli=tuple(f.get("moduli", ())),
            exclude=f.get("exclude"),
            equiv=equiv,
            card=f.get("card"),
            members=_sym_list(f.get("members", ())),
            alias_of=_sym_name(f["alias_of"]) if "alias_of" in f else None,
            note=_sym_name(f["note"]) if "note" in f else None,
        )
        self.model.paramsets[name] = spec

    def _on_fixrow(self, name, fields):
        f = dict(fields)
        self.model.fixrows[name] = FixRow(
            id=name,
            group=_sym_name(f["group"]),
            sets=_sym_list(f["sets"]),
            formula=f["fix"],
        )

    def _on_defect(self, name, fields):
        value = None
        entries = []
        for fname, v in fields:
            if fname == "value":
                value = v
            elif fname == "entry":
                entries.append(self._entry(v))
            else:
                raise TableSyntaxError(f"unknown defect field {fname!r}")
        if value is None:
            raise TableSyntaxError(f"defect {name} lacks a value")
        self.model.ledgers[name] = DefectLedger(name, value, tuple(entries))

    @staticmethod
    def _entry(v) -> LedgerEntry:
        group = _sym_name(v[0])
        set_id = _sym_name(v[1])
        tag = _sym_name(v[2])
        ref = _sym_name(v[3])
        if tag == "paired":
            side = _sym_name(v[4])
            deg = v[5]
        else:
            side = None
            deg = v[4]
        if isinstance(deg, tuple) and deg[0] == "sym" and deg[1] == "none":
            deg = None
        return LedgerEntry(group, set_id, tag, ref, side, deg)

    def _on_weylgen(self, name, fields):
        f = dict(fields)
        self.model.weylgens[name] = _matrix(f"weylgen {name}", f.get("matrix"))

    def _on_frobenius(self, name, fields):
        f = dict(fields)
        self.model.frobenius = _matrix(f"frobenius {name}", f.get("matrix"))

    def _on_weylclass(self, name, fields):
        f = dict(fields)
        self.model.weylclasses[name] = WeylClass(
            id=name,
            word=_sym_list(f.get("word", ())),
            cent=_int_value(f["cent"]),
            order=f["order"],
            tranges=tuple(f.get("tranges", ())),
            tcoords=tuple(f.get("tcoords", ())),
            sranges=tuple(f.get("sranges", ())),
            scoords=tuple(f.get("scoords", ())),
            svars=_sym_list(f.get("svars", ())),
            tvars=_sym_list(f.get("tvars", ())),
            pairing=f.get("pairing"),
        )

    def _on_classfam(self, name, fields):
        f = dict(fields)
        self.model.classfams[name] = ClassFam(
            id=name,
            side=_sym_name(f["side"]),
            word=_sym_list(f.get("word", ())),
            vars=_sym_list(f.get("vars", ())),
            coords=tuple(f["coords"]),
            ranges=tuple(f.get("ranges", ())),
            count=f["count"],
            exclude=f.get("exclude"),
            pi=tuple(tuple(_int_value(x) for x in row) for row in f.get("pi", ())),
            pitype=_sym_name(f["pitype"]) if "pitype" in f else None,
            pilabel=_sym_name(f["pilabel"]) if "pilabel" in f else None,
        )

    def _on_classrow(self, name, fields):
        f = dict(fields)
        self.model.classrows[name] = ClassRow(
            id=name, family=_sym_name(f["family"]), cent=f["cent"]
        )

    def _on_grouporder(self, name, fields):
        f = dict(fields)
        self.model.order_expr = f["order"]

    def _on_chvalue(self, name, fields):
        func = cls = None
        order = None
        terms = []
        for fname, v in fields:
            if fname == "func":
                func = _sym_name(v)
            elif fname == "cls":
                cls = _sym_name(v)
            elif fname == "order":
                order = v
            elif fname == "term":
                coeff = v[0]
                eps4 = _int_value(v[1])
                exps = tuple(v[2:])
                terms.append(ValueTerm(coeff, eps4, exps))
            else:
                raise TableSyntaxError(f"unknown chvalue field {fname!r}")
        self.model.chvalues[name] = ChValue(name, func, cls, order, tuple(terms))

    def _on_relation(self, name, fields):
        f = dict(fields)
        rel = Relation(
            id=name,
            func=_sym_name(f["func"]) if "func" in f else None,
            sum=tuple(
                (_int_value(f["sum"][i]), _sym_name(f["sum"][i + 1]))
                for i in range(0, len(f.get("sum", ())), 2)
            ),
            left=_sym_name(f["left"]) if "left" in f else None,
            right=_sym_name(f["right"]) if "right" in f else None,
            equals=_sym_name(f["equals"]) if "equals" in f else None,
            classes=_sym_list(f.get("classes", ())),
        )
        self.model.relations[name] = rel

    def _on_degrel(self, name, fields):
        f = dict(fields)
        self.model.degrels[name] = DegRel(
            id=name,
            func=_sym_name(f["func"]),
            table=f["table"],
            phi=f["phi"],
            defect=f["defect"],
            odd=_sym_name(f.get("odd", ("sym", "no"))) == "yes",
        )

    def _on_pair(self, name, fields):
        f = dict(fields)
        self.model.pairs[name] = Pair(
            id=name, left=_sym_list(f["left"]), right=_sym_list(f["right"])
        )


def build_model(blocks) -> Model:
    b = _ModelBuilder()
    b.add_blocks(blocks)
    return b.model


def parse_model(text: str) -> Model:
    """Parse one source string into a cross-checked Model."""
    model = build_model(parse_blocks(text))
    validate_model(model)
    return model


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


def validate_model(model: Model) -> None:
    """Resolve every cross reference and type-check expressions at n = 1.

    The Weyl data is checked here too: a model with Weyl classes or class
    families has weylgen and frobenius blocks, and m0 m0 = 2 I.
    """
    env1 = build_env(1, t=1)
    names = set(_base_env(1))  # n, q, s2, th and the phi values
    poly_names = names - {"n"}  # those of qpoly_env: polynomials in q
    for row in model.fixrows.values():
        for sid in row.sets:
            if sid not in model.paramsets:
                raise DanglingReference(f"fixrow {row.id}: unknown set {sid}")
        _check_expr(f"fixrow {row.id}", row.formula, env1)
        # fixed_count_formula evaluates every row at n = 1, so only t may vary
        others = sorted(expr_symbols(row.formula) - {"t"})
        if others:
            raise TableSyntaxError(f"fixrow {row.id}: fix uses {', '.join(others)}; "
                                   "only t is allowed")
    for spec in model.paramsets.values():
        if spec.alias_of and spec.alias_of not in model.paramsets:
            raise DanglingReference(f"{spec.id}: unknown alias target {spec.alias_of}")
        for m in spec.members:
            if m not in model.paramsets:
                raise DanglingReference(f"{spec.id}: unknown member {m}")
        if spec.card is not None:
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
            if e.tag == "fixed":
                if e.ref not in model.fixrows:
                    raise DanglingReference(f"ledger {led.id}: unknown fixrow {e.ref}")
            elif e.tag == "paired":
                if e.ref not in model.pairs:
                    raise DanglingReference(f"ledger {led.id}: unknown pair {e.ref}")
            else:
                raise DanglingReference(f"ledger {led.id}: bad tag {e.tag}")
    for pair in model.pairs.values():
        for sid in pair.left + pair.right:
            if sid not in model.paramsets:
                raise DanglingReference(f"pair {pair.id}: unknown set {sid}")
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
            name = [name for kind, name in model.block_order if kind == "frobenius"][-1]
            raise TableSyntaxError(f"frobenius {name}: m0 m0 is not 2 I")
    for wc in model.weylclasses.values():
        for g in wc.word:
            if g not in model.weylgens:
                raise DanglingReference(f"weylclass {wc.id}: unknown generator {g}")
        _check_expr(f"weylclass {wc.id}", wc.order, env1)
        _check_symbols(f"weylclass {wc.id}", names, *wc.tranges, *wc.sranges)
        _check_symbols(f"weylclass {wc.id}", names | set(wc.tvars), *wc.tcoords)
        _check_symbols(f"weylclass {wc.id}", names | set(wc.svars), *wc.scoords)
        if wc.pairing is not None:
            _check_symbols(f"weylclass {wc.id}", names | set(wc.tvars) | set(wc.svars),
                           wc.pairing)
    for fam in model.classfams.values():
        for g in fam.word:
            if g not in model.weylgens:
                raise DanglingReference(f"classfam {fam.id}: unknown generator {g}")
        _check_expr(f"classfam {fam.id}", fam.count, env1)
        if fam.exclude is not None:
            _check_exclusion(f"classfam {fam.id}", fam.exclude, names, fam.vars)
        _check_symbols(f"classfam {fam.id}", names, *fam.ranges)
        _check_symbols(f"classfam {fam.id}", names | set(fam.vars), *fam.coords)
    for row in model.classrows.values():
        if row.family not in model.classfams:
            raise DanglingReference(f"classrow {row.id}: unknown family {row.family}")
    for cv in model.chvalues.values():
        if cv.cls not in model.classrows:
            raise DanglingReference(f"chvalue {cv.id}: unknown class {cv.cls}")
        if cv.order is not None:
            _check_symbols(f"chvalue {cv.id}", names, cv.order)
        _check_symbols(f"chvalue {cv.id}", poly_names, *(t.coeff for t in cv.terms))
        _check_symbols(f"chvalue {cv.id}", EXPONENT_SYMBOLS,
                       *(e for t in cv.terms for e in t.exps))
    for dr in model.degrels.values():
        _check_symbols(f"degrel {dr.id}", poly_names, dr.table, dr.phi)
        _check_symbols(f"degrel {dr.id}", names, dr.defect)
    for rel in model.relations.values():
        for _, cls in rel.sum:
            if cls not in model.classrows:
                raise DanglingReference(f"relation {rel.id}: unknown class {cls}")
        for cls in rel.classes:
            if cls not in model.classrows:
                raise DanglingReference(f"relation {rel.id}: unknown class {cls}")


# ---------------------------------------------------------------------------
# serialization (the round-trip property is tested against the shipped files)


def serialize_model(model: Model) -> str:
    chunks = []
    emitted = set()
    for bkind, name in model.block_order:
        key = (bkind, name)
        if key in emitted:
            continue
        emitted.add(key)
        chunks.append(_serialize_block(model, bkind, name))
    return "\n".join(chunks) + "\n"


def _serialize_block(model: Model, bkind: str, name: str) -> str:
    lines = [f"{bkind} {name} {{"]

    def emit(fname, value):
        lines.append(f"  {fname}: {value_to_str(value)}")

    if bkind == "paramset":
        s = model.paramsets[name]
        emit("group", ("sym", s.group))
        emit("action", ("sym", s.action))
        if s.moduli:
            emit("moduli", list(s.moduli))
        if s.exclude is not None:
            emit("exclude", s.exclude)
        if s.equiv:
            emit("equiv", list(s.equiv))
        if s.card is not None:
            emit("card", s.card)
        if s.members:
            emit("members", [("sym", m) for m in s.members])
        if s.alias_of:
            emit("alias_of", ("sym", s.alias_of))
        if s.note:
            emit("note", ("sym", s.note))
    elif bkind == "fixrow":
        r = model.fixrows[name]
        emit("group", ("sym", r.group))
        emit("sets", [("sym", x) for x in r.sets])
        emit("fix", r.formula)
    elif bkind == "defect":
        led = model.ledgers[name]
        emit("value", led.value)
        for e in led.entries:
            item = [("sym", e.group), ("sym", e.set_id), ("sym", e.tag), ("sym", e.ref)]
            if e.tag == "paired":
                item.append(("sym", e.side))
            item.append(e.degree if e.degree is not None else ("sym", "none"))
            emit("entry", item)
    elif bkind == "weylgen":
        emit("matrix", [[("int", x) for x in row] for row in model.weylgens[name]])
    elif bkind == "frobenius":
        emit("matrix", [[("int", x) for x in row] for row in model.frobenius])
    elif bkind == "weylclass":
        wc = model.weylclasses[name]
        emit("word", [("sym", g) for g in wc.word])
        emit("cent", ("int", wc.cent))
        emit("order", wc.order)
        if wc.tvars:
            emit("tvars", [("sym", v) for v in wc.tvars])
        if wc.tranges:
            emit("tranges", list(wc.tranges))
        if wc.tcoords:
            emit("tcoords", list(wc.tcoords))
        if wc.svars:
            emit("svars", [("sym", v) for v in wc.svars])
        if wc.sranges:
            emit("sranges", list(wc.sranges))
        if wc.scoords:
            emit("scoords", list(wc.scoords))
        if wc.pairing is not None:
            emit("pairing", wc.pairing)
    elif bkind == "classfam":
        fam = model.classfams[name]
        emit("side", ("sym", fam.side))
        if fam.word:
            emit("word", [("sym", g) for g in fam.word])
        if fam.vars:
            emit("vars", [("sym", v) for v in fam.vars])
        emit("coords", list(fam.coords))
        if fam.ranges:
            emit("ranges", list(fam.ranges))
        if fam.exclude is not None:
            emit("exclude", fam.exclude)
        emit("count", fam.count)
        if fam.pi:
            emit("pi", [[("int", x) for x in row] for row in fam.pi])
        if fam.pitype:
            emit("pitype", ("sym", fam.pitype))
        if fam.pilabel:
            emit("pilabel", ("sym", fam.pilabel))
    elif bkind == "classrow":
        row = model.classrows[name]
        emit("family", ("sym", row.family))
        emit("cent", row.cent)
    elif bkind == "grouporder":
        emit("order", model.order_expr)
    elif bkind == "chvalue":
        cv = model.chvalues[name]
        emit("func", ("sym", cv.func))
        emit("cls", ("sym", cv.cls))
        if cv.order is not None:
            emit("order", cv.order)
        for t in cv.terms:
            emit("term", [t.coeff, ("int", t.eps4)] + list(t.exps))
    elif bkind == "relation":
        rel = model.relations[name]
        if rel.func:
            emit("func", ("sym", rel.func))
        if rel.sum:
            flat = []
            for c, cls in rel.sum:
                flat += [("int", c), ("sym", cls)]
            emit("sum", flat)
        if rel.left:
            emit("left", ("sym", rel.left))
        if rel.right:
            emit("right", ("sym", rel.right))
        if rel.equals:
            emit("equals", ("sym", rel.equals))
        if rel.classes:
            emit("classes", [("sym", c) for c in rel.classes])
    elif bkind == "degrel":
        dr = model.degrels[name]
        emit("func", ("sym", dr.func))
        emit("table", dr.table)
        emit("phi", dr.phi)
        emit("defect", dr.defect)
        emit("odd", ("sym", "yes" if dr.odd else "no"))
    elif bkind == "pair":
        p = model.pairs[name]
        emit("left", [("sym", x) for x in p.left])
        emit("right", [("sym", x) for x in p.right])
    else:
        raise ValueError(f"cannot serialize block kind {bkind}")
    lines.append("}")
    return "\n".join(lines)
