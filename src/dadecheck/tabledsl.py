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


class TableValueError(NotRationalInteger):
    """A table expression with no value where an integer or an exact value is needed.

    The message names the expression as written and the n (and t) it was
    evaluated at, after the set, family or row it belongs to where that is
    known (see no_value).
    """


class SymbolError(ValueError):
    """A symbol an evaluation does not bind: an unknown one, or an index left unbound."""


# symbols that are legal but must be bound by the consumer (parameters and
# index variables); anything else outside the built-in constants is unknown
INDEX_SYMBOLS = frozenset("ntijklab") | {"th", "q", "s2"}


class DanglingReference(ValueError):
    pass


# ---------------------------------------------------------------------------
# tokens

# One match per token, comment or stray character, after the whitespace before
# it; group 1 is the token.
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|->|!=|#[^\n]*|\S)")
_COMMENT_RE = re.compile(r"#[^\n]*")
# A character outside every token, once comments are gone: one the language
# lacks, a > that does not end ->, or a ! that does not start !=.  The pattern
# opens with a character class, which the regex engine scans for quickly.
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_+*/^(){}\[\]:,=-](?<!->)(?!(?<=!)=)")


def tokenize(text: str) -> List[str]:
    """The tokens of text as strings, ending with "" at the end of the text.

    The parser reads a token's kind from the token: an identifier where
    str.isidentifier holds, an integer where str.isdecimal does (\\d matches
    every Unicode decimal digit, and int() reads them all), else an operator.
    Positions are not kept: _position finds the line and column of a token
    when an error needs them.
    """
    code = _COMMENT_RE.sub("", text)
    stray = _STRAY_RE.search(code)
    if stray:
        # no token runs across a stray character, so the ones before it end before it
        i = len(_TOKEN_RE.findall(code, 0, stray.start()))
        raise TableSyntaxError(f"unexpected character {stray.group()!r}", *_position(text, i))
    toks = _TOKEN_RE.findall(code)
    toks.append("")
    return toks


def _position(text: str, i: int) -> Tuple[int, int]:
    """(line, col) of token i of text, or of the end of the text if it has no token i."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(text) if m.group(1)[0] != "#")
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

_SUM_OPS = {"+": "add", "-": "sub"}
_PRODUCT_OPS = {"*": "mul", "/": "div"}
_KEYWORDS = ("and", "or", "div")
_PREDICATE_OPS = ("=", "!=", "div")


class _Parser:
    """Recursive descent over the token strings; self.i indexes the next token."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.leaves: Dict[str, Expr] = {}  # one ("int", v) or ("sym", v) per token, shared

    def expect(self, val):
        v = self.toks[self.i]
        if v != val:
            raise self.error(f"expected {val!r}, got {v!r}")
        self.i += 1

    def error(self, msg) -> TableSyntaxError:
        """A syntax error at the next token, placed by line and column."""
        return TableSyntaxError(msg, *_position(self.text, self.i))

    def ident(self, what) -> str:
        v = self.toks[self.i]
        if not v.isidentifier():
            raise self.error(f"expected {what}, got {v!r}")
        self.i += 1
        return v

    # --- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        """A sum of products of factors, each operator associating to the left."""
        toks = self.toks
        total = op = None  # the sum before the current product, and the operator after it
        node = self.parse_factor()
        while True:
            v = toks[self.i]
            if v in _PRODUCT_OPS:
                self.i += 1
                node = (_PRODUCT_OPS[v], node, self.parse_factor())
            elif v in _SUM_OPS:
                self.i += 1
                total = node if total is None else (op, total, node)
                op = _SUM_OPS[v]
                node = self.parse_factor()
            else:
                return node if total is None else (op, total, node)

    def parse_factor(self) -> Expr:
        """A negated factor, or an atom and a power: an integer, a symbol or (expression)."""
        v = self.toks[self.i]
        node = self.leaves.get(v)
        if node is not None:
            self.i += 1
        elif v.isdecimal():
            self.i += 1
            node = self.leaves[v] = ("int", int(v))
        elif v.isidentifier() and v not in _KEYWORDS:
            self.i += 1
            node = self.leaves[v] = ("sym", v)
        elif v == "-":
            self.i += 1
            return ("neg", self.parse_factor())
        elif v == "(":
            self.i += 1
            node = self.parse_expr()
            self.expect(")")
        else:
            raise self.error(f"expected expression, got {v!r}")
        if self.toks[self.i] == "^":
            self.i += 1
            node = ("pow", node, self.parse_factor())
        return node

    # --- predicates ------------------------------------------------------

    def parse_predicate_from(self, first: Expr) -> Predicate:
        node = self.parse_and_chain(self.parse_atom_pred_from(first))
        while self.toks[self.i] == "or":
            self.i += 1
            rhs = self.parse_and_chain(self.parse_atom_pred_from(self.parse_expr()))
            node = ("or", node, rhs)
        return node

    def parse_and_chain(self, first: Predicate) -> Predicate:
        node = first
        while self.toks[self.i] == "and":
            self.i += 1
            node = ("and", node, self.parse_atom_pred_from(self.parse_expr()))
        return node

    def parse_atom_pred_from(self, lhs: Expr) -> Predicate:
        v = self.toks[self.i]
        if v in _PREDICATE_OPS:
            self.i += 1
            return ("atom", v, lhs, self.parse_expr())
        raise self.error(f"expected =, != or div, got {v!r}")

    # --- field values ----------------------------------------------------

    def parse_value(self):
        if self.toks[self.i] == "[":
            return self.parse_list()
        node = self.parse_expr()
        if self.toks[self.i] in ("=", "!=", "div", "and", "or"):
            return self.parse_predicate_from(node)
        return node

    def parse_list(self):
        self.expect("[")
        items = []
        if self.toks[self.i] == "]":
            self.i += 1
            return items
        while True:
            items.append(self.parse_list_item())
            if self.toks[self.i] == ",":
                self.i += 1
                continue
            self.expect("]")
            return items

    def parse_list_item(self):
        # A list item is a nested list, an affine map, or an expression.
        v = self.toks[self.i]
        if v == "[":
            return self.parse_list()
        start = self.i
        if v == "(":
            # could be a parenthesised tuple heading a map
            try:
                vars_ = self.try_parse_tuple_of_syms()
                if vars_ is not None and self.toks[self.i] == "->":
                    self.i += 1
                    targets = self.parse_map_targets(len(vars_))
                    return (tuple(vars_), tuple(targets))
            except TableSyntaxError:
                pass
            self.i = start
        node = self.parse_expr()
        if self.toks[self.i] == "->":
            if node[0] != "sym":
                raise self.error(f"map source must be an index symbol (at {self.toks[self.i]!r})")
            self.i += 1
            targets = self.parse_map_targets(1)
            return ((node[1],), tuple(targets))
        return node

    def try_parse_tuple_of_syms(self) -> Optional[List[str]]:
        toks, i = self.toks, self.i + 1  # past the (
        syms = []
        while toks[i].isidentifier():
            syms.append(toks[i])
            if toks[i + 1] == ")":
                self.i = i + 2
                return syms
            if toks[i + 1] != ",":
                return None
            i += 2
        return None

    def parse_map_targets(self, arity: int) -> List[Expr]:
        if self.toks[self.i] == "(":
            save = self.i
            self.i += 1
            targets = [self.parse_expr()]
            while self.toks[self.i] == ",":
                self.i += 1
                targets.append(self.parse_expr())
            if self.toks[self.i] == ")" and len(targets) > 1:
                self.i += 1
                return targets
            # single parenthesised expression
            self.i = save
        return [self.parse_expr()]

    # --- blocks ------------------------------------------------------------

    def parse_blocks(self):
        toks = self.toks
        blocks = []
        while toks[self.i]:
            bkind = self.ident("block kind")
            name = self.ident("block name")
            self.expect("{")
            fields: List[Tuple[str, object]] = []
            while toks[self.i] != "}":
                fname = self.ident("field name")
                self.expect(":")
                fields.append((fname, self.parse_value()))
            self.i += 1  # }
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

# n -> the symbols of _QPOLY_ENV and n, evaluated at n.  n is the whole key:
# _QPOLY_ENV is a module constant and every value is an immutable SqrtTwoRat.
# Filled on first use, so loading a model evaluates nothing.
_BASE_ENV: Dict[int, Dict[str, object]] = {}


def _base_env(n: int) -> Dict[str, object]:
    env = _BASE_ENV.get(n)
    if env is None:
        env = {"n": SqrtTwoRat(n), **{name: p.eval(n) for name, p in _QPOLY_ENV.items()}}
        _BASE_ENV[n] = env
    return env


def _eval(node: Expr, env):
    """The value of an expression tree in env: a number, or a QPoly where env binds one.

    Integer literals are SqrtTwoRat; an operation with a QPoly is a QPoly.
    The one evaluator of expression trees: int_value, value and poly call it.
    """
    op = node[0]
    if op == "int":
        return SqrtTwoRat(node[1])
    if op == "sym":
        name = node[1]
        if name not in env:
            raise SymbolError(f"{'unbound' if name in INDEX_SYMBOLS else 'unknown'} symbol {name}")
        return env[name]
    if op == "neg":
        return -_eval(node[1], env)
    if op == "pow":  # an exponent with a variable in it is NotPolynomial
        base, exp = _eval(node[1], env), _eval(node[2], env)
        return base ** as_integer(exp.constant() if isinstance(exp, QPoly) else exp)
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


def _evaluate(convert, node: Expr, env, owner: Optional[str], n, t=None):
    """convert(the value of node in env): as_integer, SqrtTwoRat.coerce or QPoly.coerce.

    Every failure but NotPolynomial (a symbol not bound, a power or value
    that is no integer, a division by zero) is no_value's TableValueError.
    """
    try:
        return convert(_eval(node, env))
    except (SymbolError, ZeroDivisionError, NotRationalInteger) as e:
        raise no_value(owner, node, n, e, t) from None


def no_value(owner: Optional[str], node: Expr, n, error: Exception, t=None) -> TableValueError:
    """The TableValueError for node, which raised error at n (and t), after owner if given.

    n is None for an n-free expression.
    """
    where = (expr_to_str(node) + ("" if n is None else f" at n = {n}")
             + ("" if t is None else f", t = {t}"))
    return TableValueError(f"{owner}: {where}: {error}" if owner else f"{where}: {error}")


# (expression, n, t) -> the value int_value returns.  That is the whole key:
# it is evaluated in _base_env(n) and t, and the value is an int.  Only values
# are kept, so an expression that fails raises afresh on every call.
_INT_VALUES: Dict[tuple, int] = {}


def int_value(node: Expr, n: int, t: Optional[int] = None, owner: Optional[str] = None) -> int:
    """The integer value of an index-free expression at n (and t), evaluated once.

    owner, where given, is the set, family or row the expression belongs to.
    """
    key = (node, n, t)
    v = _INT_VALUES.get(key)
    if v is None:
        env = _base_env(n) if t is None else {**_base_env(n), "t": SqrtTwoRat(t)}
        v = _INT_VALUES[key] = _evaluate(as_integer, node, env, owner, n, t)
    return v


def value(node: Expr, n: int, indices: Optional[Dict[str, object]] = None,
          owner: Optional[str] = None) -> SqrtTwoRat:
    """The exact value of an expression at n, each index in indices bound to its number."""
    env = _base_env(n)
    if indices:
        env = {**env, **{name: SqrtTwoRat.coerce(v) for name, v in indices.items()}}
    return _evaluate(SqrtTwoRat.coerce, node, env, owner, n)


def poly(node: Expr, variables=(), n: Optional[int] = None,
         owner: Optional[str] = None) -> QPoly:
    """An expression as a polynomial in the named variables at n, or in q too if n is None.

    A value that is no polynomial raises NotPolynomial, which the caller
    words; poly(e, EXPONENT_SYMBOLS) is a root exponent in th, i and k.
    """
    env = _QPOLY_ENV if n is None else _base_env(n)
    if variables:
        env = {**env, **{name: QPoly.var(name) for name in variables}}
    return _evaluate(QPoly.coerce, node, env, owner, n)


def expr_symbols(node) -> set:
    """The symbols an expression tree uses, gathered into one set."""
    out = set()
    _add_symbols(node, out)
    return out


def _add_symbols(node, out: set) -> None:
    op = node[0]
    if op == "sym":
        out.add(node[1])
    elif op != "int":
        for sub in node[1:]:
            if isinstance(sub, tuple):
                _add_symbols(sub, out)


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
    if _is_map(v):
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


class Model(NamedTuple):
    """Every record of the tables by block name; _ModelBuilder makes it once all are read."""

    paramsets: Dict[str, ParamSetSpec]
    fixrows: Dict[str, FixRow]
    ledgers: Dict[str, DefectLedger]
    weylgens: Dict[str, Tuple[Tuple[int, ...], ...]]
    frobenius: Optional[Tuple[Tuple[int, ...], ...]]
    weylclasses: Dict[str, WeylClass]
    classfams: Dict[str, ClassFam]
    classrows: Dict[str, ClassRow]
    chvalues: Dict[str, ChValue]
    relations: Dict[str, Relation]
    degrels: Dict[str, DegRel]
    pairs: Dict[str, Pair]
    order_expr: Optional[Expr]  # |G| as shipped in classes.def
    # (block kind, name) -> the file it was read from, in the order the blocks were read
    sources: Dict[Tuple[str, str], str]


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


def _is_map(v) -> bool:
    """Whether v is an affine map as the parser makes it: (index names, targets)."""
    return (isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], tuple)
            and all(isinstance(s, str) for s in v[0]))


def _read_expr(v) -> Expr:
    if isinstance(v, list) or _is_pred(v) or _is_map(v):
        raise _where(v, "an expression")
    return v


def _read_map(v) -> AffineMap:
    if not _is_map(v):
        raise _where(v, "an affine map")
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
    return ValueTerm(_read_expr(v[0]), _read_int(v[1]), tuple(map(_read_expr, v[2:])))


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
    "exprs": (lambda v: tuple(map(_read_expr, _read_list(v))), list, ()),
    "maps": (lambda v: tuple(map(_read_map, _read_list(v))), list, ()),
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
        _Field("exclude", "pred", OPTIONAL), _Field("equiv", "maps", OPTIONAL),
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


# the Model fields one block sets whole; every other block kind fills a dict by name
_SINGLE = frozenset({"frobenius", "order_expr"})


class _ModelBuilder:
    def __init__(self):
        self.slots = {kind.attr: None if kind.attr in _SINGLE else {}
                      for kind in _SCHEMA.values()}
        self.sources: Dict[Tuple[str, str], str] = {}

    def model(self) -> Model:
        return Model(sources=self.sources, **self.slots)

    def add_blocks(self, blocks, source: str = "<text>"):
        slots = self.slots
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
            slot = slots[kind.attr]
            if kind.attr not in _SINGLE:
                if name in slot:
                    raise TableSyntaxError(f"{bkind} {name}: a second {bkind} block named {name}")
                slot[name] = obj
            elif slot is not None:
                first = next(n for k, n in self.sources if k == bkind)
                raise TableSyntaxError(f"{bkind} {name}: a second {bkind} block after {first}")
            else:
                slots[kind.attr] = obj
            self.sources[bkind, name] = source


def parse_model_files(texts: Dict[str, str]) -> Model:
    b = _ModelBuilder()
    for fname in sorted(texts):
        try:
            b.add_blocks(parse_blocks(texts[fname]), fname)
        except TableSyntaxError as e:
            raise TableSyntaxError(f"{fname}: {e}") from e
    model = b.model()
    validate_model(model)
    return model


# The symbols a root exponent of a character value may use: th, the class
# index i and the character index k (in this order, chartables' exponent
# monomials are keyed on them).
EXPONENT_SYMBOLS = ("th", "i", "k")


class _ExprChecks:
    """The expression checks of validate_model, for one validate_model call.

    What they find depends on the expression alone: its symbols, whether it
    evaluates at n = 1 with t = 1, and whether it is a polynomial in q or
    in th, i and k.  A table repeats many expressions (1267 symbol checks of
    the shipped tables cover 389 distinct ones), so the symbols and the
    evaluations are kept here, once per distinct expression.
    """

    def __init__(self):
        self.env1 = {**_base_env(1), "t": SqrtTwoRat(1)}
        self.symbols_of: Dict[Expr, frozenset] = {}
        self.evaluated = set()

    def evaluate(self, owner: str, node: Expr) -> None:
        """Evaluate node at n = 1; a table error naming owner if that fails.

        A polynomial by its shape in symbols that are all bound always has a
        value, so it is not evaluated.
        """
        if node in self.evaluated or (self.uses(node) <= self.env1.keys()
                                      and _polynomial_by_shape(node)):
            return
        try:
            _eval(node, self.env1)
        except (SymbolError, ZeroDivisionError, NotRationalInteger) as e:
            raise TableSyntaxError(f"{owner}: {e}") from None
        self.evaluated.add(node)

    def uses(self, node: Expr) -> frozenset:
        """The symbols of node, collected once per distinct expression."""
        syms = self.symbols_of.get(node)
        if syms is None:
            syms = self.symbols_of[node] = frozenset(expr_symbols(node))
        return syms

    def symbols(self, owner: str, names, *nodes) -> None:
        """A table error naming owner if a node uses a symbol outside names."""
        unknown = sorted(set().union(*map(self.uses, nodes)).difference(names))
        if unknown:
            raise TableSyntaxError(f"{owner}: unknown symbol {', '.join(unknown)}")

    def exclusion(self, owner: str, pred: Predicate, names, indices) -> None:
        """The atoms of an exclusion use known symbols and the owner's own indices.

        The modulus m of "m div e" is evaluated without the indices.
        """
        if pred[0] != "atom":
            for sub in pred[1:]:
                self.exclusion(owner, sub, names, indices)
            return
        _, op, e1, e2 = pred
        self.symbols(owner, names if op == "div" else names | set(indices), e1)
        self.symbols(owner, names | set(indices), e2)

    def polynomial(self, where: str, owner: str, what: str, e: Expr, variables=()) -> None:
        """A table error naming where unless e is a polynomial in q, or in variables if given.

        Past _polynomial_by_shape, poly decides; its TableValueError names owner.
        """
        if _polynomial_by_shape(e):
            return
        try:
            p = poly(e, variables, owner=owner)
        except NotPolynomial:
            p = None
        if p is None or any(power < 0 for m in p.terms for _, power in m):
            raise TableSyntaxError(f"{where}: {what} {expr_to_str(e)} is not a polynomial "
                                   f"in {', '.join(variables or ('q',))}")


def _polynomial_by_shape(node: Expr) -> bool:
    """Whether node is a polynomial in its symbols by its shape: every exponent an
    integer literal, and every divisor s2 or a nonzero integer literal.

    Every symbol a checked expression may use is one, so validate_model need
    not multiply out the factors of each degree, which is slower than loading,
    nor evaluate such an expression at n = 1 to know that it has a value.
    """
    op = node[0]
    if op in ("int", "sym"):
        return True
    if op == "pow":
        return node[2][0] == "int" and _polynomial_by_shape(node[1])
    if op == "div" and node[2] != ("sym", "s2") and not (node[2][0] == "int" and node[2][1]):
        return False
    return all(_polynomial_by_shape(sub) for sub in node[1:])


def _check_count(where: str, field: str, entries, want: int, what: str) -> None:
    """Raise TableSyntaxError naming where and the field unless it has want entries.

    A point of X has 4 coordinates, since X has rank 4, and an index one range.
    """
    if len(entries) != want:
        raise TableSyntaxError(f"{where}: {field}: {len(entries)} for {want} {what}")


def validate_model(model: Model) -> None:
    """Resolve every cross reference and type-check expressions at n = 1.

    A root exponent must be a polynomial in th, i and k (no division by one
    of them and no power in one), and a value's coefficients and a degree
    relation's table and phi polynomials in q; whether an exponent's
    coefficients are integers at n is left to the exponent_integrality
    check.  The Weyl data is checked here too: a model with Weyl classes or
    class families has weylgen and frobenius blocks, and m0 m0 = 2 I; and
    every point field has 4 coordinates and every index one range.
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
            name = next(name for kind, name in model.sources if kind == "frobenius")
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
    check = _ExprChecks()
    names = set(_base_env(1))  # n, q, s2, th and the phi values
    poly_names = names - {"n"}  # those of _QPOLY_ENV: polynomials in q
    for row in model.fixrows.values():
        check.evaluate(f"fixrow {row.id}", row.formula)
        # fixed_count_formula evaluates every row at n = 1, so only t may vary
        others = sorted(check.uses(row.formula) - {"t"})
        if others:
            raise TableSyntaxError(f"fixrow {row.id}: fix uses {', '.join(others)}; "
                                   "only t is allowed")
    for spec in model.paramsets.values():
        if spec.arity > 2:  # a set's indices are k and l
            raise TableSyntaxError(f"paramset {spec.id}: moduli: {spec.arity} moduli, more than 2")
        if spec.action == "doubling" and not spec.moduli:  # the doubling acts on the indices
            raise TableSyntaxError(f"{model.sources['paramset', spec.id]}: paramset {spec.id}: "
                                   "action doubling with no moduli")
        check.evaluate(spec.id, spec.card)
        if spec.exclude is not None:
            check.exclusion(spec.id, spec.exclude, names, spec.indices)
        check.symbols(spec.id, names, *spec.moduli)
        for item in spec.equiv:
            vars_, targets = item
            if vars_ != spec.indices or len(targets) != len(vars_):
                raise TableSyntaxError(f"{spec.id}: equiv map {value_to_str(item)} must map "
                                       f"({','.join(spec.indices)}) to one target per index")
            check.symbols(spec.id, names | set(vars_), *targets)
    for led in model.ledgers.values():
        check.evaluate(f"ledger {led.id}", led.value)
        for e in led.entries:
            if e.set_id not in model.paramsets:
                raise DanglingReference(f"ledger {led.id}: unknown set {e.set_id}")
            rows, what = (model.fixrows, "fixrow") if e.tag == "fixed" else (model.pairs, "pair")
            if e.ref not in rows:
                raise DanglingReference(f"ledger {led.id}: unknown {what} {e.ref}")
            if e.degree is not None:
                where = (f"{model.sources['defect', led.id]}: defect {led.id}: "
                         f"entry {e.set_id}: degree {expr_to_str(e.degree)}")
                check.symbols(where, names, e.degree)
                check.evaluate(where, e.degree)
    for wc in model.weylclasses.values():
        where = f"{model.sources['weylclass', wc.id]}: weylclass {wc.id}"
        _check_count(where, "tcoords", wc.tcoords, 4, "coordinates")
        _check_count(where, "scoords", wc.scoords, 4, "coordinates")
        _check_count(where, "tranges", wc.tranges, len(wc.tvars), "tvars")
        _check_count(where, "sranges", wc.sranges, len(wc.svars), "svars")
        check.evaluate(f"weylclass {wc.id}", wc.order)
        check.symbols(f"weylclass {wc.id}", names, *wc.tranges, *wc.sranges)
        check.symbols(f"weylclass {wc.id}", names | set(wc.tvars), *wc.tcoords)
        check.symbols(f"weylclass {wc.id}", names | set(wc.svars), *wc.scoords)
        check.symbols(f"weylclass {wc.id}", names | set(wc.tvars) | set(wc.svars), wc.pairing)
    if model.order_expr is not None:
        name = next(name for kind, name in model.sources if kind == "grouporder")
        where = (f"{model.sources['grouporder', name]}: grouporder {name}: "
                 f"order {expr_to_str(model.order_expr)}")
        check.symbols(where, names, model.order_expr)
        check.evaluate(where, model.order_expr)
    for row in model.classrows.values():
        where = (f"{model.sources['classrow', row.id]}: classrow {row.id}: "
                 f"cent {expr_to_str(row.cent)}")
        check.symbols(where, names, row.cent)
        check.evaluate(where, row.cent)
    for fam in model.classfams.values():
        where = f"{model.sources['classfam', fam.id]}: classfam {fam.id}"
        _check_count(where, "coords", fam.coords, 4, "coordinates")
        _check_count(where, "ranges", fam.ranges, len(fam.vars), "vars")
        check.evaluate(f"classfam {fam.id}", fam.count)
        if fam.exclude is not None:
            check.exclusion(f"classfam {fam.id}", fam.exclude, names, fam.vars)
        check.symbols(f"classfam {fam.id}", names, *fam.ranges)
        check.symbols(f"classfam {fam.id}", names | set(fam.vars), *fam.coords)
    for cv in model.chvalues.values():
        if cv.order is not None:
            check.symbols(f"chvalue {cv.id}", names, cv.order)
        check.symbols(f"chvalue {cv.id}", poly_names, *(t.coeff for t in cv.terms))
        exps = [e for t in cv.terms for e in t.exps]
        check.symbols(f"chvalue {cv.id}", EXPONENT_SYMBOLS, *exps)
        where = f"{model.sources['chvalue', cv.id]}: chvalue {cv.id}"
        for t in cv.terms:
            check.polynomial(where, cv.id, "coefficient", t.coeff)
        for e in exps:
            check.polynomial(where, cv.id, "root exponent", e, EXPONENT_SYMBOLS)
    for dr in model.degrels.values():
        check.symbols(f"degrel {dr.id}", poly_names, dr.table, dr.phi)
        check.symbols(f"degrel {dr.id}", names, dr.defect)
        where = f"{model.sources['degrel', dr.id]}: degrel {dr.id}"
        check.polynomial(where, dr.id, "table", dr.table)
        check.polynomial(where, dr.id, "phi", dr.phi)
    for rel in model.relations.values():
        for _, cls in rel.sum:
            if cls not in model.classrows:
                raise DanglingReference(f"relation {rel.id}: unknown class {cls}")

# ---------------------------------------------------------------------------
# serialization (the round-trip property is tested against the shipped files)


def serialize_model(model: Model) -> str:
    """The model as table text, its blocks in the order they were read."""
    chunks = []
    for bkind, name in model.sources:
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
