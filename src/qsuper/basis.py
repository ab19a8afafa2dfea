"""Dual canonical bases via Lusztig's lemma.

The basis elements are the unique bar-invariant elements equal to a
normalized leading monomial plus strictly smaller terms whose
coefficients lie in qZ[q] (PLUS_Q) or q^-1 Z[q^-1] (MINUS_Q).  The
construction is staged: the row subalgebra (A and B entries), the
lower-left block, their combination, the Schur-complement block, and
finally the full localization with determinant powers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from qsuper.laurent import LaurentPoly, ONE, Variant, solve_bar_equation
from qsuper.algebra import (
    AlgebraElement,
    Shape,
    col_sums,
    enumerate_block,
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


# -- the 2x2-move partial order ---------------------------------------------


def submatrix_moves(shape: Shape, M) -> set:
    """All results of one 2x2 move: pick i<s, j<t with mass at (i,j) and
    (s,t); move one unit to (i,t) and (s,j).  Odd entries stay <= 1."""
    N, odd = shape.size, shape.odd
    out = set()
    for i in range(N):
        for s in range(i + 1, N):
            for j in range(N):
                for t in range(j + 1, N):
                    ij, st, it, sj = i * N + j, s * N + t, i * N + t, s * N + j
                    if M[ij] < 1 or M[st] < 1 or (odd[it] and M[it] > 0) or (
                            odd[sj] and M[sj] > 0):
                        continue
                    Mp = list(M)
                    Mp[ij] -= 1
                    Mp[st] -= 1
                    Mp[it] += 1
                    Mp[sj] += 1
                    out.add(tuple(Mp))
    return out


@lru_cache(maxsize=None)
def _downset(shape: Shape, M) -> frozenset:
    """M together with everything reachable by downward moves."""
    out = {M}
    for Mp in submatrix_moves(shape, M):
        out |= _downset(shape, Mp)
    return frozenset(out)


def leq(shape: Shape, M, N) -> bool:
    """M <= N in the 2x2-move order (same row and column sums required)."""
    M, N = tuple(M), tuple(N)
    sz = shape.size
    if row_sums(M, sz) != row_sums(N, sz) or col_sums(M, sz) != col_sums(N, sz):
        raise ValueError("comparable matrices must share row and column sums")
    return M in _downset(shape, N)


def _pick_maximal(shape: Shape, indices):
    """A maximal element of the support under the move order; a support
    without one means the order has a cycle, a kernel fault."""
    indices = sorted(indices)
    for S in indices:
        if not any(T != S and S in _downset(shape, T) for T in indices):
            return S
    raise TriangularityViolation(f"no maximal element among {indices}")


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


def solve_block(shape: Shape, indices, monomials, variant: Variant):
    """All basis elements of one finite block.

    indices: matrices sharing (ro, co); monomials: index -> element.
    Returns dict index -> element.
    """
    indices = [tuple(M) for M in indices]
    index_set = set(indices)
    columns = {M: monomials(M) for M in indices}
    memo = {}

    def lower(S, T):
        return S != T and S in _downset(shape, T) and S in index_set

    def element(T):
        if T not in memo:
            memo[T] = lusztig_element(T, columns.__getitem__, element, lambda f: f.bar(),
                                      variant, lambda sup: _pick_maximal(shape, sup), lower)
        return memo[T]

    return {T: element(T) for T in indices}


# -- staged sub-block bases ---------------------------------------------------


def _block_key(shape: Shape, M):
    N = shape.size
    return row_sums(M, N), col_sums(M, N)


def _block_element(shape: Shape, M, region: str):
    """The sub-block basis element of the region at the index M."""
    M = tuple(M)
    return _block(shape, *_block_key(shape, M), region)[M]


def _omega(shape: Shape, M, region: str, wrong_support: str) -> CBElement:
    """The region's basis element at M; ValueError(wrong_support) when M is
    not supported on the region."""
    M = tuple(M)
    if shape.restrict(M, region) != M:
        raise ValueError(wrong_support)
    return CBElement((M, 0, 0), _REGIONS[region][0], _block_element(shape, M, region))


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
    f = omega_H(shape, top).expansion * _block_element(shape, low, "C")
    return f.scale(LaurentPoly.q_power(-_cross(shape, M, "A", "C", col_sums)))


# region, the blocks its indices are supported on -> (the variant of its
# basis, the monomial of an index)
_REGIONS = {
    "AB": (Variant.PLUS_Q, x_norm),
    "C": (Variant.MINUS_Q, x_norm),
    "D": (Variant.MINUS_Q, x_norm),
    "ABC": (Variant.PLUS_Q, n_abc),
}


@lru_cache(maxsize=None)
def _block(shape: Shape, ro, co, region: str):
    """Every basis element of the region with row sums ro, column sums co."""
    variant, monomial = _REGIONS[region]
    indices = [M for M in enumerate_block(shape, ro, co) if shape.restrict(M, region) == M]
    return solve_block(shape, indices, lambda M: monomial(shape, M), variant)


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
    """
    return (_cross(shape, M, "B", "D", col_sums) + _cross(shape, M, "C", "D", row_sums)
            + (d - a) * shape.odd_degree(M))


@lru_cache(maxsize=None)
def n_ad(shape: Shape, M, a: int, d: int) -> LocalElement:
    """q^Psi detA^a Omega_ABC Omega_D' detD'^d as a reduced element."""
    M = tuple(M)
    if not is_constrained(shape, M):
        raise NotConstrained("even diagonal blocks each need a zero diagonal entry")
    zero = zero_matrix(shape.size)
    out = LocalElement(shape, {(zero, a, 0): LaurentPoly.q_power(psi_power(shape, M, a, d))})
    out = out * to_mixed(omega_ABC(shape, shape.restrict(M, "ABC")).expansion)
    out = out * y_substitute(_block_element(shape, shape.restrict(M, "D"), "D"))
    return out * LocalElement(shape, {(zero, 0, d): ONE})


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
    return T != M and T in _downset(shape, M)


def _pick_maximal_global(shape: Shape, keys):
    amin = min(a for (_, a, _) in keys)
    keys = [k for k in keys if k[1] == amin]
    dmin = min(d for (_, _, d) in keys)
    keys = [k for k in keys if k[2] == dmin]
    mats = [T for (T, _, _) in keys]
    return (_pick_maximal(shape, mats), amin, dmin)


@lru_cache(maxsize=None)
def omega_global(shape: Shape, M, a: int, d: int, variant: Variant) -> CBElement:
    """Dual canonical basis element of the localization."""
    key = (tuple(M), a, d)
    elem = lusztig_element(key, lambda k: n_ad(shape, *k),
                           lambda k: omega_global(shape, *k, variant).expansion,
                           bar_local, variant, lambda sup: _pick_maximal_global(shape, sup),
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
