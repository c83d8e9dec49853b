"""Exact arithmetic in Q(sqrt2), and polynomials over it in named variables.

The variable q stands for 2^n * sqrt2.

All table data evaluates through this module; nothing here ever rounds.
Orders of the groups involved reach ~2^180.  Values are kept on Python big
ints, with a Fraction only for a coordinate whose denominator is above 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple, Union

Rat = Union[int, Fraction]


def _rat(x: Rat) -> Rat:
    """x in normal form: an int if x is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = x if type(x) is Fraction else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class NotRationalInteger(ValueError):
    """Value expected to be a plain integer has a sqrt2 part or a denominator."""


class ZeroInput(ValueError):
    """2-adic valuation of zero requested."""


class SqrtTwoRat:
    """Number a + b*sqrt2 with rational a, b.

    Immutable value type; arithmetic is closed (Q(sqrt2) is a field).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rat = 0, b: Rat = 0):
        object.__setattr__(self, "a", _rat(a))
        object.__setattr__(self, "b", _rat(b))

    def __setattr__(self, *args):
        raise AttributeError("SqrtTwoRat is immutable")

    @staticmethod
    def coerce(x) -> "SqrtTwoRat":
        if isinstance(x, SqrtTwoRat):
            return x
        if isinstance(x, (int, Fraction)):
            return SqrtTwoRat(x)
        raise TypeError(f"cannot coerce {x!r} to SqrtTwoRat")

    def __add__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return SqrtTwoRat(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return SqrtTwoRat(-self.a, -self.b)

    def __sub__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return SqrtTwoRat(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return SqrtTwoRat(other.a - self.a, other.b - self.b)

    def __mul__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        if not (self.b or other.b):  # two rationals
            return SqrtTwoRat(self.a * other.a)
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + 2 b1 b2 + (a1 b2 + a2 b1) s
        return SqrtTwoRat(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "SqrtTwoRat":
        # 1/(a + b s) = (a - b s)/(a^2 - 2 b^2), in Fraction: int / int is a float.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if not self.b:
            return SqrtTwoRat(1 / Fraction(self.a))
        return SqrtTwoRat(Fraction(self.a) / norm, Fraction(-self.b) / norm)

    def __truediv__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        base = self
        if e < 0:
            base, e = self.inverse(), -e
        out = SqrtTwoRat(1)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        other = _num(other)
        if other is NotImplemented:
            return other
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_fraction(self) -> Rat:
        if self.b != 0:
            raise NotRationalInteger(f"{self} has a sqrt2 part")
        return self.a

    def __repr__(self):
        if self.b == 0:
            return f"SqrtTwoRat({self.a})"
        return f"SqrtTwoRat({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*s2"
        return f"{self.a}+{self.b}*s2"


def _num(x):
    """x as a SqrtTwoRat, or NotImplemented for any other type.

    The operators return that, so an operation with a QPoly is done by the QPoly.
    """
    if type(x) is SqrtTwoRat:
        return x
    if isinstance(x, (int, Fraction)):
        return SqrtTwoRat(x)
    return NotImplemented


ZERO = SqrtTwoRat(0)
ONE = SqrtTwoRat(1)
SQRT2 = SqrtTwoRat(0, 1)


def as_integer(v: SqrtTwoRat) -> int:
    """Return v as a plain int; NotRationalInteger if it is not one.

    A failure here almost always means a malformed table expression.
    """
    v = SqrtTwoRat.coerce(v)
    if v.b != 0:
        raise NotRationalInteger(f"{v} has a nonzero sqrt2 part")
    if v.a.denominator != 1:
        raise NotRationalInteger(f"{v} is not an integer")
    return v.a.numerator


def val2(x: int) -> int:
    """Largest e with 2^e dividing x; the 2-part of a character degree."""
    if x == 0:
        raise ZeroInput("val2(0) is undefined")
    x = abs(x)
    return (x & -x).bit_length() - 1


def q_value(n: int) -> SqrtTwoRat:
    """q = 2^n * sqrt2, so q^2 = 2^(2n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SqrtTwoRat(0, 1 << n)


class NotPolynomial(ValueError):
    """A division by a polynomial that is not a monomial, or a power whose exponent is not constant."""


# A monomial: sorted (name, power) pairs with nonzero powers; () is the constant one.
Monomial = Tuple[Tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials, a power that cancels dropped."""
    if not m1 or not m2:
        return m1 or m2
    powers = dict(m1)
    for v, p in m2:
        powers[v] = powers.get(v, 0) + p
    return tuple(sorted((v, p) for v, p in powers.items() if p))


class QPoly:
    """Polynomial over Q(sqrt2) in named variables, q the one that eval substitutes.

    A power is negative only after a division by a monomial.  Terms like
    q^13/sqrt2 are carried as a sqrt2-rational coefficient
    (q^13/sqrt2 = (s2/2)*q^13), which keeps sums of integer-power and
    half-twisted terms in one ring.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, SqrtTwoRat] = None):
        clean: Dict[Monomial, SqrtTwoRat] = {}
        for m, c in (terms or {}).items():
            c = SqrtTwoRat.coerce(c)
            if not c.is_zero():
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly({(): SqrtTwoRat.coerce(c)})

    @staticmethod
    def q(power: int = 1) -> "QPoly":
        return QPoly({(("q", power),) if power else (): ONE})

    @staticmethod
    def var(name: str) -> "QPoly":
        return QPoly({((name, 1),): ONE})

    @staticmethod
    def coerce(x) -> "QPoly":
        if isinstance(x, QPoly):
            return x
        return QPoly.const(SqrtTwoRat.coerce(x))

    def constant(self) -> SqrtTwoRat:
        """The value of a constant polynomial; NotPolynomial if a variable occurs."""
        if self.terms.keys() - {()}:
            raise NotPolynomial(f"{self!r} is not a constant")
        return self.terms.get((), ZERO)

    def __add__(self, other):
        other = QPoly.coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-QPoly.coerce(other))

    def __rsub__(self, other):
        return QPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = QPoly.coerce(other)
        out: Dict[Monomial, SqrtTwoRat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QPoly):  # a number: one inverse for every coefficient
            other = SqrtTwoRat.coerce(other)
            if other.is_zero():
                raise ZeroDivisionError("division by the zero polynomial")
            inv = other.inverse()
            return QPoly({m: c * inv for m, c in self.terms.items()})
        if not other.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(other.terms) > 1:
            raise NotPolynomial(f"division by {other!r}, which is not a monomial")
        (m, c), = other.terms.items()
        inv, m_inv = c.inverse(), tuple((v, -p) for v, p in m)
        return QPoly({_mono_mul(mm, m_inv): cc * inv for mm, cc in self.terms.items()})

    def __rtruediv__(self, other):
        return QPoly.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (QPoly.const(1) / self) ** (-e)
        out = QPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, n: int):
        """Exact substitution q -> 2^n sqrt2: a SqrtTwoRat, or a QPoly in the other variables."""
        q = q_value(n)
        out = ZERO
        for m, c in self.terms.items():
            powers = dict(m)
            c = c * q ** powers.pop("q", 0)
            out = out + (QPoly({tuple(powers.items()): c}) if powers else c)
        return out

    def __repr__(self):
        # q^p first in each term, the terms in order of p: a polynomial in q
        # prints as (c)*q^p + ..., constant term included
        terms = sorted(((dict(m).get("q", 0), "".join(f"*{v}^{e}" for v, e in m if v != "q")), c)
                       for m, c in self.terms.items())
        items = " + ".join(f"({c})*q^{p}{rest}" for (p, rest), c in terms)
        return f"QPoly[{items or '0'}]"


Q = QPoly.q(1)
_S2 = QPoly.const(SQRT2)

# The cyclotomic-style factors of the group order, named as in the data files.
PHI_POLYS: Dict[str, QPoly] = {
    "p1": Q - 1,
    "p2": Q + 1,
    "p3": Q * Q + Q + 1,
    "p4": Q * Q + 1,
    "p6": Q * Q - Q + 1,
    "p8": Q ** 4 + 1,
    "p12": Q ** 4 - Q * Q + 1,
    "p24": Q ** 8 - Q ** 4 + 1,
    "p8a": Q * Q + _S2 * Q + 1,
    "p8b": Q * Q - _S2 * Q + 1,
    "p24a": Q ** 4 + _S2 * Q ** 3 + Q * Q + _S2 * Q + 1,
    "p24b": Q ** 4 - _S2 * Q ** 3 + Q * Q - _S2 * Q + 1,
}
