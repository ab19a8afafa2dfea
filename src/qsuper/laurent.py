"""Exact arithmetic in Z[q, q^-1].

Everything downstream (straightening, bar involution, basis solving) runs
over this ring; coefficients are arbitrary-precision integers and no
floating point ever enters.
"""

from __future__ import annotations

from enum import Enum


class BarEquationUnsolvable(Exception):
    """Raised when h - bar(h) = k has no solution in the requested target.

    This signals a bug upstream (a bar matrix that is not unitriangular or
    not involutive), never a legitimate runtime condition.
    """


class Variant(Enum):
    """Which coefficient target a triangular basis solve aims for."""

    PLUS_Q = "q"        # off-leading coefficients in q.Z[q]
    MINUS_Q = "q^-1"    # off-leading coefficients in q^-1.Z[q^-1]


class LaurentPoly:
    """A sparse Laurent polynomial in q with integer coefficients.

    Immutable. ``terms`` maps exponent -> coefficient; zero coefficients
    are never stored.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                if c:
                    cleaned[int(e)] = int(c)
        self.terms = cleaned
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * q^k."""
        return cls({k: coeff})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms or not other.terms:
            return LaurentPoly()
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        out._hash = None
        return out

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: c * n for e, c in self.terms.items()}
        out._hash = None
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if k == 0:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e + k: c for e, c in self.terms.items()}
        out._hash = None
        return out

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1 (exponent negation)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        out._hash = None
        return out

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def is_unit(self) -> bool:
        """self = +-q^k, the units of Z[q, q^-1]; the inverse is bar(self)."""
        if len(self.terms) != 1:
            return False
        (c,) = self.terms.values()
        return c == 1 or c == -1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def positive_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.terms.items() if e > 0})

    def negative_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.terms.items() if e < 0})

    # -- exact division ------------------------------------------------

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError if the division is not exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        rem = dict(self.terms)
        dtop = divisor.max_exp()
        dlead = divisor.terms[dtop]
        # an exact quotient cannot reach below this exponent
        efloor = self.min_exp() - divisor.min_exp()
        quo: dict = {}
        while rem:
            rtop = max(rem)
            rlead = rem[rtop]
            if rlead % dlead:
                raise ValueError("non-exact Laurent division")
            c = rlead // dlead
            e = rtop - dtop
            if e < efloor:
                raise ValueError("non-exact Laurent division")
            quo[e] = quo.get(e, 0) + c
            for de, dc in divisor.terms.items():
                k = de + e
                s = rem.get(k, 0) - c * dc
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return LaurentPoly(quo)

    # -- dunder plumbing ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                mono = str(abs(c))
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                mono = qpart if abs(c) == 1 else f"{abs(c)}*{qpart}"
            parts.append(("- " if c < 0 else "+ ") + mono)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Object mapping exponent string to integer, keys sorted."""
        return {str(e): self.terms[e] for e in sorted(self.terms)}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        """Inverse of to_json; ValueError unless every key is an exponent as
        to_json writes it and every coefficient is an int."""
        if not isinstance(obj, dict) or any(
                type(c) is not int or e != str(int(e)) for e, c in obj.items()):
            raise ValueError(f"coefficient {obj!r} must map exponents to integers")
        return cls({int(e): c for e, c in obj.items()})


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def q_integer(s: int, base: int = 2) -> LaurentPoly:
    """1 + q^base + ... + q^(base*(s-1)); q_integer(0) = 0."""
    if s < 0:
        raise ValueError("q_integer needs s >= 0")
    return LaurentPoly({base * i: 1 for i in range(s)})


def q_binom(s: int, r: int, base: int = 2) -> LaurentPoly:
    """Gaussian binomial coefficient in q^base; exact division asserted."""
    if not 0 <= r <= s:
        raise ValueError("q_binom needs 0 <= r <= s")
    num = ONE
    den = ONE
    for i in range(r):
        num = num * q_integer(s - i, base)
        den = den * q_integer(i + 1, base)
    return num.divexact(den)


def solve_bar_equation(k: LaurentPoly, variant: Variant) -> LaurentPoly:
    """Solve h - bar(h) = k with h in the variant's target.

    Requires bar(k) = -k and k to have zero constant term; the solution is
    the strictly positive-degree (PLUS_Q) or strictly negative-degree
    (MINUS_Q) part of k.
    """
    if k.bar() != -k or k.coeff(0) != 0:
        raise BarEquationUnsolvable(f"not antisymmetric with zero constant term: {k}")
    if variant is Variant.PLUS_Q:
        return k.positive_part()
    return k.negative_part()
