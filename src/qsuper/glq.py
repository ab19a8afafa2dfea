"""The determinant localization of the supermatrix algebra, in mixed coordinates.

Elements live in the mixed normal form: monomials in the generators x_ij
(i <= m or j <= m) and the Schur-complement entries y_uv, times
detA^a * detD'^d, where the even diagonal blocks of the exponent matrix
each keep at least one zero diagonal entry.  Products and bar straighten
mixed words on the polynomial rewrites, less the corrections of y_uv past
the A block, and stay in mixed letters: a word with a full A or D diagonal
is peeled as detA or detD' times the word less that diagonal, a unit at it
plus lex-lower words, so no linear system is solved.  A letter's image is
its mixed word, less constrained words over detA for a y-letter.  Only
from_mixed and the letter actions' numerators compute on polynomials:
y_uv detA is the quantum minor of the dual superspace on rows 1..m, u and
columns 1..m, v, so a mixed word with r y-letters times detA^r is a
polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from qsuper.laurent import LaurentPoly, ONE
from qsuper.algebra import (
    _put,
    AlgebraElement,
    LinearElement,
    Shape,
    col_sums,
    enumerate_block,
    format_terms,
    mat_from_json,
    mat_rows,
    matrix_codes,
    matrix_to_word,
    row_sums,
    straighten_word,
    unit_matrix,
    word_to_matrix,
    zero_matrix,
)
from qsuper.superspace import det_q_A, det_qinv_D, interval, minor_star
# solve_in_span is unused here; qbench/tracing.py hooks this binding
from qsuper.exactlinalg import LinearSolveFailure, solve_in_span


class TriangularityViolation(Exception):
    """A family member is not a unit at its leading term plus strictly
    lower terms, so peeling leading terms cannot expand over it."""


# -- polynomials over a power of detA ----------------------------------------


@lru_cache(maxsize=None)
def _detA_power_alg(shape: Shape, p: int) -> AlgebraElement:
    if p == 0:
        return AlgebraElement.one(shape)
    return _detA_power_alg(shape, p - 1) * det_q_A(shape)


def y_times_detA(shape: Shape, mu: int, nu: int) -> AlgebraElement:
    """y_uv detA for the Schur complement entry y_uv: the starred minor on
    rows 1..m, u and columns 1..m, v.

    y_uv is that minor over detA; it commutes with detA and is fixed by the
    bar involution.
    """
    if shape.block(mu, nu) != "D":
        raise IndexError(f"y index ({mu},{nu}) outside the lower block")
    block = interval(1, shape.m)
    return minor_star(shape, block + [mu], block + [nu])


# Bounds of word_poly, _member, _reduce_pair and express_in_basis: the
# degree-3 invariant window at (2|2) (left E_i and F_i, a in [-1, 1],
# d in [-1, 0]) fills them with 17, 0, 4,949 and 226 entries; word_poly and
# _member serve only from_mixed and the numerators of the letter actions.
@lru_cache(maxsize=1 << 13)
def word_poly(shape: Shape, M) -> AlgebraElement:
    """W(M) detA^r, with W(M) the mixed word of M and r = y_degree(M).

    W(M) has x-letters for the first three blocks and y-letters for the
    lower-right block, in lexicographic order.  Each y-letter takes one
    detA (y commutes with detA); a mixed x-letter after s y-letters picks
    up q^(-2s), because x detA = q^-2 detA x.  A run of x-letters between
    y-letters is already an ordered monomial.
    """
    N = shape.size
    out, run, r, power = AlgebraElement.one(shape), [], 0, 0
    for (i, j) in matrix_to_word(M, N):
        if shape.block(i, j) == "D":
            out = out * AlgebraElement(shape, {word_to_matrix(run, N): ONE})
            out = out * y_times_detA(shape, i, j)
            run, r = [], r + 1
        else:
            run.append((i, j))
            power -= 2 * r * shape.gen_parity(i, j)
    out = out * AlgebraElement(shape, {word_to_matrix(run, N): ONE})
    return out.scale(LaurentPoly.q_power(power))


@lru_cache(maxsize=None)
def detDprime_poly(shape: Shape, p: int) -> AlgebraElement:
    """(detD' detA^n)^p for p >= 0.

    detD' is the q^-1-determinant of the y-matrix.  The y_uv keep the
    relations of the D block's x_uv, so (detD' detA^n)^p is the p-th
    power of the D-block minor read in y-letters, each of which takes one
    detA.
    """
    out = AlgebraElement.zero(shape)
    for M, c in (det_qinv_D(shape) ** p).terms.items():
        out = out + word_poly(shape, M).scale(c)
    return out


# -- mixed monomials --------------------------------------------------------


def y_degree(shape: Shape, M) -> int:
    """Number of y-letters of the mixed word of M (its D-block degree)."""
    return sum(compress(M, shape.mask("D")))


def _shift_diagonal(shape: Shape, M, a: int, d: int):
    """M plus a on each diagonal cell of A and d on each of D; the key
    (M, a, d) has the biweight of this matrix."""
    out = list(M)
    for diag, shift in zip(shape.diagonals, (a, d)):
        out[diag] = [v + shift for v in out[diag]]
    return tuple(out)


def is_constrained(shape: Shape, M) -> bool:
    """At least one zero diagonal entry in each even diagonal block."""
    return all(0 in M[diag] for diag in shape.diagonals)


def _candidates(shape: Shape, rows, cols, a_lo: int, d_lo: int):
    """Constrained triples (M, alpha, delta) of biweight rows/cols with
    alpha >= a_lo and delta >= d_lo, largest powers first (used by the
    test oracles of the peeling; qbench/tracing.py hooks it)."""
    par = [shape.parity(i) for i in range(1, shape.size + 1)] * 2
    a_hi = min(v for v, p in zip(rows + cols, par) if not p)
    d_hi = min(v for v, p in zip(rows + cols, par) if p)
    out = []
    for alpha in range(a_hi, a_lo - 1, -1):
        for delta in range(d_hi, d_lo - 1, -1):
            ro = tuple(r - (delta if p else alpha) for r, p in zip(rows, par))
            co = tuple(c - (delta if p else alpha) for c, p in zip(cols, par))
            if any(v < 0 for v in ro + co):
                continue
            for Mt in enumerate_block(shape, ro, co):
                if is_constrained(shape, Mt):
                    out.append((Mt, alpha, delta))
    return out


@lru_cache(maxsize=1 << 13)
def _member(shape: Shape, Mt, delta: int, e: int) -> AlgebraElement:
    """W(Mt) detD'^delta detA^(e + y_degree(Mt) + n delta) as a polynomial:
    word_poly(Mt) detDprime_poly(delta) detA^e."""
    return word_poly(shape, Mt) * detDprime_poly(shape, delta) * _detA_power_alg(shape, e)


@lru_cache(maxsize=1 << 12)
def express_in_basis(shape: Shape, T):
    """Constrained expansion of the ordered mixed word W(T) of an
    unconstrained T, as (key, coefficient) pairs, by peeling the words of
    its biweight in lex order.  A constrained S is its own key (S, 0, 0).
    An unconstrained S stands for det W(S'), a unit at S plus lex-lower
    words on shape.local_rewrites: det is detA (det_q_A) if S's A diagonal
    is full, else detD' (det_qinv_D in y-letters), and S' is S less one on
    that diagonal.  Its keys are those of W(S') with that det power raised
    by one, times q^(2 odd_degree(S)), as det passes W(S') in a product.
    """
    factors = {}  # unconstrained S -> (0 for detA or 1 for detD', S')

    def column(S):
        if is_constrained(shape, S):
            return LinearElement(shape, {S: ONE})
        which = int(0 in S[shape.diagonals[0]])
        Sp = _shift_diagonal(shape, S, which - 1, -which)
        factors[S], out = (which, Sp), {}
        for D, c in (det_q_A, det_qinv_D)[which](shape).terms.items():
            for W, b in straighten_word(shape, matrix_codes(D) + matrix_codes(Sp), c,
                                        shape.local_rewrites).items():
                _put(out, W, b)
        return LinearElement(shape, out)

    out: dict = {}
    for S, c in peel(LinearElement(shape, {T: ONE}), column, max, lambda U, S: U < S).items():
        if S not in factors:
            _put(out, (S, 0, 0), c)
            continue
        which, Sp = factors[S]
        c = c.shift(2 * shape.odd_degree(S))
        sub = (((Sp, 0, 0), ONE),) if is_constrained(shape, Sp) else express_in_basis(shape, Sp)
        for (Mt, alpha, delta), b in sub:
            _put(out, (Mt, alpha + 1 - which, delta + which), b * c)
    return tuple(out.items())


@lru_cache(maxsize=1 << 14)
def _reduce_pair(shape: Shape, codes):
    """Constrained expansion of the mixed word of flat cell codes, a D-block
    code read as y_uv, straightened on shape.local_rewrites.

    That search ends because the polynomial one does: where the polynomial
    search pushes the swapped word with (e, s) = (0, 1) and goes on with a
    y-A correction, the mixed search goes on with the swapped word alone, so
    it visits a subset of the polynomial states.  A finished W(T) is its own
    key (T, 0, 0) when T is constrained, else express_in_basis expands it.
    """
    out: dict = {}
    for T, c in straighten_word(shape, codes, table=shape.local_rewrites).items():
        if is_constrained(shape, T):
            _put(out, (T, 0, 0), c)
        else:
            for key, b in express_in_basis(shape, T):
                _put(out, key, b * c)
    return tuple(out.items())


# -- public elements ---------------------------------------------------------


class LocalElement(LinearElement):
    """Finite sum of constrained mixed monomials W(M) detA^a detD'^d."""

    __slots__ = ()

    @classmethod
    def one(cls, shape: Shape) -> "LocalElement":
        return cls(shape, {(zero_matrix(shape.size), 0, 0): ONE})

    @classmethod
    def monomial(cls, shape: Shape, M, a: int = 0, d: int = 0,
                 coeff: LaurentPoly = ONE) -> "LocalElement":
        """Reduced form of W(M) detA^a detD'^d (M need not be constrained)."""
        M = tuple(M)
        if is_constrained(shape, M):
            return cls(shape, {(M, a, d): coeff})
        return cls(shape, {(Mt, alpha + a, delta + d): c * coeff
                           for (Mt, alpha, delta), c in _reduce_pair(shape, matrix_codes(M))})

    @classmethod
    def x_gen(cls, shape: Shape, i: int, j: int) -> "LocalElement":
        if shape.block(i, j) == "D":
            raise ValueError("lower-block x is not a mixed coordinate; "
                             "use to_mixed on the polynomial element")
        return cls.monomial(shape, unit_matrix(shape.size, i, j))

    @classmethod
    def y_gen(cls, shape: Shape, mu: int, nu: int) -> "LocalElement":
        if shape.block(mu, nu) != "D":
            raise IndexError("y indices must lie in the lower block")
        return cls.monomial(shape, unit_matrix(shape.size, mu, nu))

    # -- products ----------------------------------------------------------

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        """Term by term: detA^a detD'^d passes W(M2) with q^(2 (a + d) k2),
        k2 = odd_degree(M2), and W(M1) W(M2) is the mixed word of the
        concatenated codes, expanded by _reduce_pair."""
        self._check(other)
        shape = self.shape
        right = [(matrix_codes(M2), a2, d2, c2, shape.odd_degree(M2))
                 for (M2, a2, d2), c2 in other.terms.items()]
        out: dict = {}
        for (M1, a, d), c1 in self.terms.items():
            w1 = matrix_codes(M1)
            for w2, a2, d2, c2, k2 in right:
                c = (c1 * c2).shift(2 * (a + d) * k2)
                for (Mt, alpha, delta), r in _reduce_pair(shape, w1 + w2):
                    _put(out, (Mt, alpha + a + a2, delta + d + d2), r * c)
        return LocalElement(shape, out)

    def __repr__(self):
        return f"LocalElement({format_local(self)})"

    def key_biweight(self, key):
        """detA^a adds a to the even row and column sums, detD'^d adds d
        to the odd ones."""
        S, N = _shift_diagonal(self.shape, *key), self.shape.size
        return row_sums(S, N), col_sums(S, N)

    def to_json(self) -> dict:
        N = self.shape.size
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "coords": "mixed",
            "terms": [
                {
                    "matrix": mat_rows(M, N),
                    "a": a,
                    "d": d,
                    "coeff": self.terms[(M, a, d)].to_json(),
                }
                for (M, a, d) in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LocalElement":
        return cls.from_terms(*cls.parse_json(obj))

    @staticmethod
    def parse_json(obj: dict):
        """(shape, [(M, a, d, coeff)]) with every term validated and none
        reduced yet."""
        shape = Shape.from_json(obj)
        terms = []
        for t in obj["terms"]:
            M = mat_from_json(shape, t["matrix"])
            if type(t["a"]) is not int or type(t["d"]) is not int:
                raise TypeError("det powers must be integers")
            terms.append((M, t["a"], t["d"], LaurentPoly.from_json(t["coeff"])))
        return shape, terms

    @classmethod
    def from_terms(cls, shape: Shape, terms) -> "LocalElement":
        """Reduced sum of the monomials coeff * W(M) detA^a detD'^d."""
        return sum((cls.monomial(shape, *t) for t in terms), cls.zero(shape))


# one entry per (shape, cell): N^2 letters per shape
@lru_cache(maxsize=1 << 9)
def _letter_image(shape: Shape, k: int) -> LocalElement:
    """Mixed image of the generator at flat cell k: its mixed word, less
    R detA^-1 with R = y_uv detA - x_uv detA for a D-block cell (u, v).
    Every word of R has one B, one C and m - 1 A letters: its own key."""
    i, j = divmod(k, shape.size)
    image = LocalElement.monomial(shape, unit_matrix(shape.size, i + 1, j + 1))
    if shape.block(i + 1, j + 1) != "D":
        return image
    x = AlgebraElement.generator(shape, i + 1, j + 1)
    R = y_times_detA(shape, i + 1, j + 1) - x * det_q_A(shape)
    return image - LocalElement(shape, {(M, -1, 0): c for M, c in R.terms.items()})


def to_mixed(f: AlgebraElement) -> LocalElement:
    """Rewrite a polynomial element over the mixed constrained family.

    x^M is the ordered product of its letters, so its image is the
    word-order product of their mixed images, multiplied in the
    localization.  A constrained M without a D-block letter is already
    the mixed word W(M), its own key (M, 0, 0).
    """
    shape = f.shape
    lower = shape.mask("D")
    out: dict = {}
    for M, c in f.terms.items():
        if is_constrained(shape, M) and not any(compress(M, lower)):
            _put(out, (M, 0, 0), c)
            continue
        term = LocalElement.one(shape)
        for k in matrix_codes(M):
            term = term * _letter_image(shape, k)
        for key, b in term.terms.items():
            _put(out, key, b * c)
    return LocalElement(shape, out)


def peel(f, column, pick_max, strictly_lower) -> dict:
    """Coordinates of f over a family that is unitriangular at its indices.

    column(S) is the member indexed by S: a unit at S plus terms strictly
    lower than S.  The residual is cancelled at a maximal index until it
    is zero, so the coordinates are exact; a member that is not of that
    form raises TriangularityViolation.
    """
    rest = dict(f.terms)
    coords = {}
    while rest:
        S = pick_max(rest.keys())
        col = column(S).terms
        u = col.get(S)
        if u is None or not u.is_unit():
            raise TriangularityViolation(f"the member at {S} is not a unit there")
        c = rest[S] * u.bar()
        for T, b in col.items():
            if T != S and not strictly_lower(T, S):
                raise TriangularityViolation(f"the member at {S} has a term at {T} not below it")
            _put(rest, T, -(c * b))
        coords[S] = c
    return coords


def from_mixed(f: LocalElement) -> AlgebraElement:
    """Inverse of to_mixed; LinearSolveFailure if f is not polynomial.

    g = f detA^K is a polynomial, and x^M detA is a unit at M + diag(A)
    plus lex-lower monomials, so g / detA peels off g, K times over (one
    detA at a time keeps each member short)."""
    shape, n = f.shape, f.shape.n
    if any(d < 0 for (_, _, d) in f.terms):
        raise ValueError("negative detD' power has no polynomial form")
    # W(M) detA^a detD'^d = word_poly(M) detDprime_poly(d) detA^(a - r - n d)
    lows = {key: key[1] - y_degree(shape, key[0]) - n * key[2] for key in f.terms}
    K = max(0, -min(lows.values(), default=0))
    g = AlgebraElement.zero(shape)
    for (M, a, d), c in f.terms.items():
        g = g + _member(shape, M, d, lows[(M, a, d)] + K).scale(c)
    dA = _detA_power_alg(shape, 1)

    def quotient(S):
        M = _shift_diagonal(shape, S, -1, 0)
        if min(M) < 0:
            raise LinearSolveFailure("element is not divisible by detA")
        return M

    for _ in range(K):
        coords = peel(g, lambda S: AlgebraElement.monomial(shape, quotient(S)) * dA,
                      max, lambda T, S: T < S)
        g = AlgebraElement(shape, {quotient(S): c for S, c in coords.items()})
    return g


def bar_local(f: LocalElement) -> LocalElement:
    """Bar involution: the super anti-automorphism fixing every x- and
    y-letter, detA and detD'.

    Both determinants are even and commute, so with k = odd_degree(M)
    odd letters, bar(c W(M) detA^a detD'^d) = bar(c) (-1)^(k(k-1)/2)
    detA^a detD'^d times the letters of M in reverse order; the determinants
    pass each reduced key (T, alpha, delta) with q^(2 (a + d) odd_degree(T)).
    """
    shape = f.shape
    out: dict = {}
    for (M, a, d), c in f.terms.items():
        k = shape.odd_degree(M)
        cb = c.bar().scale((-1) ** (k * (k - 1) // 2))
        for (T, alpha, delta), r in _reduce_pair(shape, matrix_codes(M)[::-1]):
            _put(out, (T, alpha + a, delta + d),
                 (r * cb).shift(2 * (a + d) * shape.odd_degree(T)))
    return LocalElement(shape, out)


def berezinian(shape: Shape) -> LocalElement:
    return LocalElement(shape, {(zero_matrix(shape.size), 1, -1): ONE})


def times_ber(key, k: int):
    """The key of W(M) detA^a detD'^d times Ber^k, with coefficient 1:
    Ber = detA detD'^-1 is central and even, so only the det powers move."""
    M, a, d = key
    return M, a + k, d - k


def det_a_local(shape: Shape) -> LocalElement:
    return LocalElement(shape, {(zero_matrix(shape.size), 1, 0): ONE})


def det_dprime_local(shape: Shape) -> LocalElement:
    return LocalElement(shape, {(zero_matrix(shape.size), 0, 1): ONE})


def sl_project(f: LocalElement) -> LocalElement:
    """Normal form modulo Ber = 1: each key goes to the member of its Ber
    orbit with no detD' power, (M, a + d, 0)."""
    out: dict = {}
    for key, c in f.terms.items():
        _put(out, times_ber(key, key[2]), c)
    return LocalElement(f.shape, out)


def format_local(f: LocalElement) -> str:
    shape = f.shape
    pairs = []
    for key in sorted(f.terms):
        M, a, d = key
        factors = [f"{'y' if shape.block(i, j) == 'D' else 'x'}[{i},{j}]"
                   for (i, j) in matrix_to_word(M, shape.size)]
        if a:
            factors.append("detA" if a == 1 else f"detA^{a}")
        if d:
            factors.append("detD'" if d == 1 else f"detD'^{d}")
        pairs.append((f.terms[key], "*".join(factors) or "1"))
    return format_terms(pairs)
