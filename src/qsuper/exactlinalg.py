"""Exact linear algebra over Z[q, q^-1], fraction-free.

Used to express products over constrained spanning families and to cut
out invariant subspaces.  A system is held sparsely: one row per vector
key, each a dict column -> LaurentPoly, with a column -> rows index so no
step scans every row.  Gauss-Jordan elimination takes the columns left to
right and prefers a unit pivot +-q^k, which eliminates with ring
arithmetic; a non-unit pivot cross-multiplies the rows it clears, which
are then divided by their integer content and lowest power of q
(fraction-free elimination, cf. Bareiss, Math. Comp. 22, 1968).  No
fraction enters the elimination: each returned coordinate is one Frac,
right-hand side over pivot.  The pivot columns are the leftmost
independent set, so the results are those of elimination over the
fraction field.
"""

from __future__ import annotations

from math import gcd

from qsuper.laurent import LaurentPoly, ONE


class LinearSolveFailure(Exception):
    """A vector expected to lie in a span (or in the base ring) does not."""


def _int_content(p: LaurentPoly) -> int:
    g = 0
    for c in p.terms.values():
        g = gcd(g, abs(c))
    return g or 1


class Frac:
    """num/den with Laurent polynomial parts; den never zero.

    Normalization strips the common monomial and integer content and
    cancels den into num when the division happens to be exact.  There is
    no polynomial gcd, so equal fractions may differ in representation;
    hence no hash agrees with ``==`` and Frac is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = LaurentPoly.zero(), ONE
        elif not den.is_one():
            try:
                num = num.divexact(den)
                den = ONE
            except ValueError:
                shift = den.min_exp()
                den = den.shift(-shift)
                num = num.shift(-shift)
                g = gcd(_int_content(num), _int_content(den))
                lead = den.terms[den.max_exp()]
                if lead < 0:
                    g = -g
                if g != 1:
                    num = LaurentPoly({e: c // g for e, c in num.terms.items()})
                    den = LaurentPoly({e: c // g for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, n: int) -> "Frac":
        return cls(LaurentPoly.from_int(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Frac") -> "Frac":
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Frac":
        out = Frac.__new__(Frac)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other: "Frac") -> "Frac":
        return self + (-other)

    def __mul__(self, other: "Frac") -> "Frac":
        return Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Frac") -> "Frac":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return Frac(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, Frac) and self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"Frac({self.num}, {self.den})"

    def to_laurent(self) -> LaurentPoly:
        if self.den.is_one():
            return self.num
        try:
            return self.num.divexact(self.den)
        except ValueError:
            raise LinearSolveFailure(f"coefficient {self!r} is not a Laurent polynomial")


FRAC_ZERO = Frac(LaurentPoly.zero())
FRAC_ONE = Frac(ONE)


def _is_unit(p: LaurentPoly) -> bool:
    """p = +-q^k, the units of Z[q, q^-1]."""
    if len(p.terms) != 1:
        return False
    (c,) = p.terms.values()
    return c == 1 or c == -1


def _strip_content(row: dict) -> dict:
    """The row divided by its integer content and its lowest power of q."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, _int_content(v))
    low = min(v.min_exp() for v in row.values())
    if g == 1 and low == 0:
        return row
    return {
        col: LaurentPoly({e - low: c // g for e, c in v.terms.items()})
        for col, v in row.items()
    }


def _eliminate(columns, target=None):
    """Sparse fraction-free Gauss-Jordan elimination of the system.

    Rows are keyed by the vectors' keys in order of first appearance; each
    is a dict column -> LaurentPoly, the target being column
    ``len(columns)``.  Returns ``(rows, pivots, index)``: the reduced rows,
    a dict pivot column -> row in column order, and the column -> rows
    index.  Rows that hold no pivot are zero in every column of the
    system, so only a target entry can remain in them.
    """
    pos = {}
    rows = []
    vectors = list(columns) if target is None else [*columns, target]
    for c, vec in enumerate(vectors):
        for k, v in vec.items():
            if v.terms:
                r = pos.get(k)
                if r is None:
                    r = pos[k] = len(rows)
                    rows.append({})
                rows[r][c] = v
    index = [set() for _ in vectors]
    for r, row in enumerate(rows):
        for c in row:
            index[c].add(r)

    pivots = {}
    used = [False] * len(rows)
    for c in range(len(columns)):
        cands = [r for r in index[c] if not used[r]]
        if not cands:
            continue
        p = min(cands, key=lambda r: (not _is_unit(rows[r][c]), len(rows[r]), r))
        used[p] = True
        pivots[c] = p
        prow = rows[p]
        a = prow[c]
        if _is_unit(a):
            if not a.is_one():
                ((k, s),) = a.terms.items()
                for cc, v in prow.items():
                    prow[cc] = v.shift(-k).scale(s)
            a = None
        for r in [r for r in index[c] if r != p]:
            row = rows[r]
            f = row[c]
            if a is not None:
                row = {cc: a * v for cc, v in row.items()}
            for cc, v in prow.items():
                old = row.get(cc)
                new = -(f * v) if old is None else old - f * v
                if new.terms:
                    row[cc] = new
                    if old is None:
                        index[cc].add(r)
                else:
                    del row[cc]
                    index[cc].discard(r)
            rows[r] = row if a is None else _strip_content(row)
    return rows, pivots, index


def solve_in_span(columns, target):
    """Coefficients c with sum(c_i * columns_i) = target, or None.

    ``columns`` is a list of sparse vectors (dict key -> LaurentPoly),
    ``target`` one such vector.  Free coordinates are set to zero.  The
    coefficients are returned as Frac.
    """
    if not columns:
        return [] if all(v.is_zero() for v in target.values()) else None
    n = len(columns)
    rows, pivots, _ = _eliminate(columns, target)
    pivot_rows = set(pivots.values())
    if any(row for r, row in enumerate(rows) if r not in pivot_rows):
        return None
    out = [FRAC_ZERO] * n
    for c, r in pivots.items():
        rhs = rows[r].get(n)
        if rhs is not None:
            out[c] = Frac(rhs, rows[r][c])
    return out


def solve_in_span_laurent(columns, target):
    """As solve_in_span but coefficients must be Laurent polynomials."""
    sol = solve_in_span(columns, target)
    if sol is None:
        raise LinearSolveFailure("target vector is outside the span")
    return [f.to_laurent() for f in sol]


def nullspace(columns):
    """Basis of {c : sum(c_i * columns_i) = 0}, one vector per free column.

    Vectors are lists of Frac, normalized so the free coordinate is 1.
    """
    if not columns:
        return []
    rows, pivots, index = _eliminate(columns)
    pivot_of = {r: c for c, r in pivots.items()}
    basis = []
    for c in range(len(columns)):
        if c in pivots:
            continue
        vec = [FRAC_ZERO] * len(columns)
        vec[c] = FRAC_ONE
        for r in index[c]:
            pc = pivot_of[r]
            vec[pc] = Frac(-rows[r][c], rows[r][pc])
        basis.append(vec)
    return basis


def rank(columns) -> int:
    if not columns:
        return 0
    return len(_eliminate(columns)[1])


def in_span(columns, target) -> bool:
    return solve_in_span(columns, target) is not None
