"""Dual canonical bases via Lusztig's lemma.

The basis elements are the unique bar-invariant elements equal to a
normalized leading monomial plus strictly smaller terms whose
coefficients lie in qZ[q] (PLUS_Q) or q^-1 Z[q^-1] (MINUS_Q).  The
construction is staged: the row subalgebra (A and B entries), the
lower-left block, their combination, the Schur-complement block, and
finally the full localization with determinant powers.  Index matrices
are ordered by dominance of their corner sums (_corner_sums), which the
tests certify equal to the order the 2x2 moves generate.  Each staged
sub-block element (block_element) and each global element (omega_global)
is one cached Lusztig element per index, built only when an index above it
needs it: no block is solved as a whole.  The N family and the global
basis are built at d = 0 only: (M, a, d) is the member (M, a + d, 0) of
its orbit under the central Berezinian, re-keyed by Ber^-d (times_ber).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from operator import le

from qsuper.laurent import LaurentPoly, Variant, solve_bar_equation
from qsuper.algebra import (
    AlgebraElement,
    Shape,
    col_sums,
    mat_entry,
    row_sums,
    x_norm,
    zero_matrix,
)
from qsuper.superspace import covariant_minor, covariant_minor_star
from qsuper.glq import (
    LocalElement,
    TriangularityViolation,
    # unused here; qbench/tracing.py hooks this binding
    _candidates as _global_candidates,
    bar_local,
    is_constrained,
    peel,
    times_ber,
    to_mixed,
)


class NotConstrained(ValueError):
    """The index is not constrained, so it names no basis element."""


class NoMatch(Exception):
    """A product did not land on a basis element up to a q-power."""


@dataclass(frozen=True)
class CBElement:
    index: tuple  # (M, a, d)
    variant: Variant
    expansion: object  # AlgebraElement or LocalElement


# -- the corner-sum order ------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _corner_sums(shape: Shape, M) -> tuple:
    """The sums of M over its north-west corners [1..a] x [1..b], flat and
    row-major.

    The kernel's order on exponent matrices is entrywise dominance of these
    sums (_below).  A 2x2 move, one unit from (i,j) and (s,t) to (i,t) and
    (s,j) for i < s and j < t, lowers by one the corners with i <= a < s and
    j <= b < t and keeps the others, so the total of the corner sums falls
    strictly along every move.  On permutation matrices the dominance is the
    tableau criterion for the Bruhat order (Bjorner-Brenti, GTM 231,
    Thm 2.1.5), reversed, and the moves generate it.  With odd cells capped
    at 1 no theorem is assumed: the tests certify that the dominance equals
    the order the moves generate on every block of small degree and on the
    blocks with equal margins up to (3|3).
    """
    N = shape.size
    out, above = [], [0] * N
    for r in range(0, N * N, N):
        run = 0
        for j in range(N):
            run += M[r + j]
            above[j] += run
        out += above
    return tuple(out)


def _below(shape: Shape, S, T) -> bool:
    """S is strictly below T: S != T, no corner sum of S exceeds T's, and
    the corners of whole rows and columns agree, so that, as with the moves,
    S has T's biweight and a term of another biweight is never lower."""
    N, cs, ct = shape.size, _corner_sums(shape, S), _corner_sums(shape, T)
    return (S != T and cs[N - 1::N] == ct[N - 1::N] and cs[-N:] == ct[-N:]
            and all(map(le, cs, ct)))


def _pick_maximal(shape: Shape, indices):
    """A maximal index of the support: one of greatest corner-sum total,
    since whatever lies above an index has a greater total."""
    return max(indices, key=lambda M: (sum(_corner_sums(shape, M)), M))


# -- Lusztig's lemma ----------------------------------------------------------


def lusztig_element(T, column, element, bar, variant: Variant, pick_max, strictly_lower):
    """The bar-invariant element column(T) + sum of p_S element(S) (Lusztig's
    lemma): bar(column(T)) - column(T) is peeled over the basis elements
    element(S) below T, and each coordinate a_S gives p_S - bar(p_S) = a_S
    with p_S in the variant's target.  An index not strictly below T raises
    before element(S) is built, so a fault in the order never recurses."""
    lower = {}

    def below(S):
        if not strictly_lower(S, T) or strictly_lower(T, S):
            raise TriangularityViolation(f"coordinate at {S} is not strictly below {T}")
        lower[S] = element(S)
        return lower[S]

    col = column(T)
    coords = peel(bar(col) - col, below, pick_max, strictly_lower)
    terms = [lower[S].scale(solve_bar_equation(a, variant)) for S, a in sorted(coords.items())]
    return sum(terms, col)


# -- staged sub-block bases ---------------------------------------------------


@lru_cache(maxsize=None)
def block_element(shape: Shape, M, blocks: str, variant: Variant, monomial) -> AlgebraElement:
    """The basis element at M of the subalgebra on the named blocks, led by
    monomial(shape, M).  The elements below M are the indices supported on
    the blocks and strictly below M in the corner-sum order (bar keeps the
    biweight, so they share M's), each built by this function when M's bar
    residual first reaches it."""
    return lusztig_element(
        M, lambda S: monomial(shape, S),
        lambda S: block_element(shape, S, blocks, variant, monomial),
        AlgebraElement.bar, variant, lambda sup: _pick_maximal(shape, sup),
        lambda S, T: _below(shape, S, T) and shape.restrict(S, blocks) == S)


def _omega(shape: Shape, M, region: str, wrong_support: str) -> CBElement:
    """The region's basis element at M; ValueError(wrong_support) when M is
    not supported on the region."""
    M = tuple(M)
    if shape.restrict(M, region) != M:
        raise ValueError(wrong_support)
    variant, monomial = _REGIONS[region]
    return CBElement((M, 0, 0), variant, block_element(shape, M, region, variant, monomial))


def omega_H(shape: Shape, M) -> CBElement:
    """Basis element of the subalgebra generated by rows 1..m."""
    return _omega(shape, M, "AB", "index must be supported on the first m rows")


def omega_C(shape: Shape, M) -> CBElement:
    """Basis element of the lower-left block subalgebra."""
    return _omega(shape, M, "C", "index must be supported on the lower-left block")


def omega_Dprime(shape: Shape, M) -> CBElement:
    """Basis element of the Schur-complement subalgebra.

    The y-entries satisfy the same relations as the lower-right x-block
    and are individually bar-fixed, so the block is solved in the
    x-representation; the expansion is returned over y-words as a
    LocalElement via the substitution x_uv -> y_uv.
    """
    cb = _omega(shape, M, "D", "index must be supported on the lower-right block")
    return replace(cb, expansion=y_substitute(cb.expansion))


def y_substitute(f: AlgebraElement) -> LocalElement:
    """Reinterpret a lower-right-block x-element as a word in y-entries."""
    return LocalElement.from_terms(f.shape, [(M, 0, 0, c) for M, c in f.terms.items()])


def _cross(shape: Shape, M, x: str, y: str, sums) -> int:
    """Dot product of the row (sums=row_sums) or column (col_sums) sums of
    M on the blocks x and on the blocks y."""
    N = shape.size
    return sum(p * q for p, q in zip(sums(shape.restrict(M, x), N),
                                     sums(shape.restrict(M, y), N)))


def n_abc(shape: Shape, M) -> AlgebraElement:
    """The product monomial for the three-block stage, with prefactor
    q^-(c(A).c(C)) over the column sums of the A and C blocks."""
    top, low = shape.restrict(M, "AB"), shape.restrict(M, "C")
    f = omega_H(shape, top).expansion * block_element(shape, low, "C", *_REGIONS["C"])
    return f.scale(LaurentPoly.q_power(-_cross(shape, M, "A", "C", col_sums)))


# region, the blocks its indices are supported on -> (the variant of its
# basis, the monomial of an index); block_element(shape, M, region,
# *_REGIONS[region]) is the region's basis element at M, cached per index
# and built only when asked for or reached from an index above it
_REGIONS = {
    "AB": (Variant.PLUS_Q, x_norm),
    "C": (Variant.MINUS_Q, x_norm),
    "D": (Variant.MINUS_Q, x_norm),
    "ABC": (Variant.PLUS_Q, n_abc),
}


def omega_ABC(shape: Shape, M) -> CBElement:
    """Basis element of the subalgebra generated by the first three blocks."""
    return _omega(shape, M, "ABC", "index must have an empty lower-right block")


# -- the full localized basis -------------------------------------------------


def psi_power(shape: Shape, M, a: int, d: int) -> int:
    """Psi with bar(q^Psi P) = q^Psi P modulo p-lower terms, for
    P = detA^a X Y detD'^d with X = Omega_ABC and Y = Omega_D' bar-invariant.

    bar(q^Psi P) = q^-Psi detD'^d Y X detA^a, and reordering that to P
    gives q^(2 Psi): detA and detD' pass each of the k odd letters with q^2,
    2(d - a)k in all; y_uv passes x_iv (i <= m, its column) and x_uj (j <= m,
    its row) with q^2 each, since it keeps the relations of x_uv in the odd
    row u and odd column v (x_uv x_uj = q^2 x_uj x_uv; an even row would give
    q^-2), 2 c(B).c(D) + 2 r(C).r(D) in all, for the column sums c and row
    sums r of the blocks; other pairs commute modulo lower terms.

    When X or Y is 1 and d = 0, the bar is exact: each term c (T, alpha,
    delta) of q^Psi P becomes c q^(-2 Psi - 2a k(T)), k = odd_degree (n_bar).
    """
    return (_cross(shape, M, "B", "D", col_sums) + _cross(shape, M, "C", "D", row_sums)
            + (d - a) * shape.odd_degree(M))


@lru_cache(maxsize=None)
def n_ad(shape: Shape, M, a: int, d: int) -> LocalElement:
    """q^Psi detA^a Omega_ABC Omega_D' detD'^d as a reduced element, built
    at d = 0 only: Ber is central, and detD'^d passing the k odd letters of
    M gives q^(2dk) = q^(Psi(M, a, d) - Psi(M, a + d, 0)), so it is
    Ber^-d n_ad(M, a + d, 0), every key moved by times_ber(key, -d)."""
    if d:
        rep = n_ad(shape, M, a + d, 0)
        return LocalElement(shape, {times_ber(k, -d): c for k, c in rep.terms.items()})
    if not is_constrained(shape, M):
        raise NotConstrained("even diagonal blocks each need a zero diagonal entry")
    zero = zero_matrix(shape.size)
    out = LocalElement(shape, {(zero, a, 0): LaurentPoly.q_power(psi_power(shape, M, a, 0))})
    out = out * to_mixed(omega_ABC(shape, shape.restrict(M, "ABC")).expansion)
    return out * y_substitute(block_element(shape, shape.restrict(M, "D"), "D", *_REGIONS["D"]))


def express_in_n(shape: Shape, f: LocalElement) -> dict:
    """Coordinates of f over the N family: each n_ad(T, a, d) is a unit at
    (T, a, d) plus strictly p-lower terms."""
    return peel(
        f,
        lambda k: n_ad(shape, *k),
        lambda keys: _pick_maximal_global(shape, keys),
        lambda S, T: p_strictly_lower(shape, S, T),
    )


def p_strictly_lower(shape: Shape, key, ref) -> bool:
    """(T,a',d') strictly below (M,a,d): a'>a, or d'>d at equal a, or a
    strictly smaller matrix at equal det powers."""
    T, ap, dp = key
    M, a, d = ref
    if ap != a:
        return ap > a
    if dp != d:
        return dp > d
    return _below(shape, T, M)


def _pick_maximal_global(shape: Shape, keys):
    """A maximal key under p_strictly_lower: least a, then least d, then
    greatest corner-sum total."""
    return max(keys, key=lambda k: (-k[1], -k[2], sum(_corner_sums(shape, k[0])), k[0]))


def n_bar(shape: Shape, M, a: int):
    """The bar of n_ad(M, a, 0) = q^Psi detA^a X Y, X = Omega_ABC and
    Y = Omega_D'.  When M has an empty ABC or D part, one factor is 1 and
    the other, Z, is bar-invariant, so the bar is q^-Psi Z detA^a; detA^a
    passes a term W(T) of Z with q^(2a k(T)), k = odd_degree, so each term
    c (T, alpha, delta) becomes c q^(-2 Psi - 2a k(T)) at the same key.
    Else bar_local reverses every word."""
    if shape.restrict(M, "ABC") != M and shape.restrict(M, "D") != M:
        return bar_local
    shift = -2 * psi_power(shape, M, a, 0)
    return lambda f: LocalElement(shape, {
        k: c.shift(shift - 2 * a * shape.odd_degree(k[0])) for k, c in f.terms.items()})


@lru_cache(maxsize=None)
def omega_global(shape: Shape, M, a: int, d: int, variant: Variant) -> CBElement:
    """Dual canonical basis element of the localization: Ber^-d times the
    element at (M, a + d, 0), so only d = 0 runs Lusztig's lemma.  That run
    ends: n_ad(M, a, 0), its bar and the elements below have no negative
    detD' power (to_mixed, y_substitute, products and bar_local make none),
    so a key (S, a', d') below (M, a, 0) has d' >= 0, and the member
    (S, a' + d', 0) of its orbit, built in its place, is below (M, a, 0).

    The bar of n_ad(M, a, 0) is n_bar: a q-power per term, c (T, alpha,
    delta) to c q^(-2 Psi - 2a k(T)), when M has an empty ABC or D part,
    else bar_local, which reverses every word."""
    M = tuple(M)
    key = (M, a, d)
    if d:
        rep = omega_global(shape, M, a + d, 0, variant).expansion
        return CBElement(key, variant, LocalElement(
            shape, {times_ber(k, -d): c for k, c in rep.terms.items()}))
    elem = lusztig_element(key, lambda k: n_ad(shape, *k),
                           lambda k: omega_global(shape, *k, variant).expansion,
                           n_bar(shape, M, a), variant,
                           lambda sup: _pick_maximal_global(shape, sup),
                           lambda S, T: p_strictly_lower(shape, S, T))
    return CBElement(key, variant, elem)


# -- covariant minor shifts ---------------------------------------------------


def covariant_shift_check(shape: Shape, omega: CBElement, r: int = None, s: int = None):
    """Multiply a global basis element by a covariant corner minor and
    match the result against a basis element up to a q-power.

    Returns (index, power).  Requires the anti-diagonal zero condition
    on the index matrix.
    """
    if (r is None) == (s is None):
        raise ValueError("give exactly one of r (upper-right) or s (lower-left)")
    M, a, d = omega.index
    N = shape.size
    if r is not None:
        for i in range(1, r + 1):
            if mat_entry(M, N, i, N - i + 1) != 0:
                raise ValueError(f"entry ({i},{N - i + 1}) must vanish")
        minor_elem = covariant_minor_star(shape, r)
    else:
        for j in range(1, s + 1):
            if mat_entry(M, N, N - j + 1, j) != 0:
                raise ValueError(f"entry ({N - j + 1},{j}) must vanish")
        minor_elem = covariant_minor(shape, s)
    product = omega.expansion * to_mixed(minor_elem)
    coords = express_in_n(shape, product)
    lead = _pick_maximal_global(shape, coords.keys())
    c = coords[lead]
    if len(c.terms) != 1 or set(c.terms.values()) != {1}:
        raise NoMatch(f"leading coefficient {c} is not a power of q")
    power = next(iter(c.terms))
    target = omega_global(shape, lead[0], lead[1], lead[2], omega.variant)
    if product != target.expansion.scale(LaurentPoly.q_power(power)):
        raise NoMatch("product is not a basis element up to a q-power")
    return lead, power
