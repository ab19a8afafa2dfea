"""Dual canonical bases via the Lusztig triangular recursion.

The basis elements are the unique bar-invariant elements equal to a
normalized leading monomial plus strictly smaller terms whose
coefficients lie in qZ[q] (PLUS_Q) or q^-1 Z[q^-1] (MINUS_Q).  The
construction is staged: the row subalgebra (A and B entries), the
lower-left block, their combination, the Schur-complement block, and
finally the full localization with determinant powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from qsuper.laurent import LaurentPoly, ONE, Variant, solve_bar_equation
from qsuper.algebra import (
    AlgebraElement,
    Shape,
    col_sums,
    enumerate_block,
    mat_entry,
    norm_exponent,
    row_sums,
    x_norm,
    zero_matrix,
)
from qsuper.exactlinalg import LinearSolveFailure, solve_in_span_laurent
from qsuper.glq import (
    LocalElement,
    bar_local,
    is_constrained,
    to_mixed,
)


class TriangularityViolation(Exception):
    """The bar expansion left the expected lower-order cone."""


class NotConstrained(ValueError):
    """The index is not constrained, so it names no basis element."""


class NoMatch(Exception):
    """A product did not land on a basis element up to a q-power."""


@dataclass(frozen=True)
class CBElement:
    index: tuple  # (M, a, d)
    variant: Variant
    expansion: object  # AlgebraElement or LocalElement
    stage: str


# -- the 2x2-move partial order ---------------------------------------------


def submatrix_moves(shape: Shape, M) -> set:
    """All results of one 2x2 move: pick i<s, j<t with mass at (i,j) and
    (s,t); move one unit to (i,t) and (s,j).  Odd entries stay <= 1."""
    N = shape.size
    out = set()
    for i in range(1, N + 1):
        for s in range(i + 1, N + 1):
            for j in range(1, N + 1):
                for t in range(j + 1, N + 1):
                    if mat_entry(M, N, i, j) < 1 or mat_entry(M, N, s, t) < 1:
                        continue
                    Mp = list(M)
                    Mp[(i - 1) * N + (j - 1)] -= 1
                    Mp[(s - 1) * N + (t - 1)] -= 1
                    Mp[(i - 1) * N + (t - 1)] += 1
                    Mp[(s - 1) * N + (j - 1)] += 1
                    if shape.gen_parity(i, t) and mat_entry(Mp, N, i, t) > 1:
                        continue
                    if shape.gen_parity(s, j) and mat_entry(Mp, N, s, j) > 1:
                        continue
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


def corner_sums(M, N: int):
    """North-west partial sums, the fast dominance proxy for the order."""
    out = []
    for i in range(1, N + 1):
        acc = 0
        for j in range(1, N + 1):
            acc = sum(
                mat_entry(M, N, u, v)
                for u in range(1, i + 1)
                for v in range(1, j + 1)
            )
            out.append(acc)
    return tuple(out)


def corner_dominates(M, N, size: int) -> bool:
    """Entrywise corner-sum comparison: necessary for M <= N."""
    return all(a <= b for a, b in zip(corner_sums(M, size), corner_sums(N, size)))


def _pick_maximal(shape: Shape, indices):
    """A maximal element of the support under the move order."""
    indices = sorted(indices)
    for S in indices:
        if not any(T != S and S in _downset(shape, T) for T in indices):
            return S
    return indices[-1]


# -- the generic triangular solver ------------------------------------------


def lusztig_solve_one(T, expand_bar, variant: Variant, pick_max, strictly_lower):
    """Coordinates of the unique bar-invariant element with leading T.

    expand_bar(S) gives the coordinates of bar(monomial S) over the
    family; the residual is repeatedly cancelled at its maximal index
    with a coefficient from the variant's target.
    """
    coords = {T: ONE}
    while True:
        barc: dict = {}
        for S, c in coords.items():
            for U, b in expand_bar(S).items():
                s = barc.get(U, LaurentPoly.zero()) + c.bar() * b
                if s.is_zero():
                    barc.pop(U, None)
                else:
                    barc[U] = s
        residual = dict(barc)
        for S, c in coords.items():
            s = residual.get(S, LaurentPoly.zero()) - c
            if s.is_zero():
                residual.pop(S, None)
            else:
                residual[S] = s
        if not residual:
            return coords
        S = pick_max(residual.keys())
        if not strictly_lower(S, T):
            raise TriangularityViolation(f"residual at {S} is not below {T}")
        h = solve_bar_equation(residual[S], variant)
        acc = coords.get(S, LaurentPoly.zero()) + h
        coords[S] = acc


def solve_block(shape: Shape, indices, monomials, bar_fn, variant: Variant):
    """All basis elements of one finite block.

    indices: matrices sharing (ro, co); monomials: index -> element;
    bar_fn: element -> element.  Returns dict index -> element.
    """
    indices = [tuple(M) for M in indices]
    index_set = set(indices)
    columns = {M: monomials(M) for M in indices}

    @lru_cache(maxsize=None)
    def expand_bar(S):
        f = bar_fn(columns[S])
        return _express_over(shape, f, indices, columns)

    def pick(support):
        return _pick_maximal(shape, support)

    def lower(S, T):
        return S != T and S in _downset(shape, T) and S in index_set

    out = {}
    for M in indices:
        coords = lusztig_solve_one(M, expand_bar, variant, pick, lower)
        elem = None
        for S, c in sorted(coords.items()):
            term = columns[S].scale(c)
            elem = term if elem is None else elem + term
        out[M] = elem
    return out


def _express_over(shape: Shape, f, indices, columns):
    """Coordinates of f over the given monomial family (exact, unique)."""
    cols = [columns[M].terms for M in indices]
    sol = solve_in_span_laurent(cols, f.terms)
    return {M: c for M, c in zip(indices, sol) if not c.is_zero()}


# -- staged sub-block bases ---------------------------------------------------


def _support_ok(shape: Shape, M, region: str) -> bool:
    N = shape.size
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if mat_entry(M, N, i, j) == 0:
                continue
            if region == "H" and i > shape.m:
                return False
            if region == "C" and not (i > shape.m and j <= shape.m):
                return False
            if region == "D" and not (i > shape.m and j > shape.m):
                return False
            if region == "ABC" and (i > shape.m and j > shape.m):
                return False
    return True


@lru_cache(maxsize=None)
def _x_block(shape: Shape, ro, co, region: str, variant: Variant):
    indices = [
        M for M in enumerate_block(shape, ro, co) if _support_ok(shape, M, region)
    ]
    return solve_block(
        shape, indices, lambda M: x_norm(shape, M), lambda f: f.bar(), variant
    )


def _block_key(shape: Shape, M):
    N = shape.size
    return row_sums(M, N), col_sums(M, N)


def omega_H(shape: Shape, M) -> CBElement:
    """Basis element of the subalgebra generated by rows 1..m."""
    M = tuple(M)
    if not _support_ok(shape, M, "H"):
        raise ValueError("index must be supported on the first m rows")
    ro, co = _block_key(shape, M)
    elem = _x_block(shape, ro, co, "H", Variant.PLUS_Q)[M]
    return CBElement((M, 0, 0), Variant.PLUS_Q, elem, "H")


def omega_C(shape: Shape, M) -> CBElement:
    """Basis element of the lower-left block subalgebra."""
    M = tuple(M)
    if not _support_ok(shape, M, "C"):
        raise ValueError("index must be supported on the lower-left block")
    ro, co = _block_key(shape, M)
    elem = _x_block(shape, ro, co, "C", Variant.MINUS_Q)[M]
    return CBElement((M, 0, 0), Variant.MINUS_Q, elem, "C")


def omega_Dprime(shape: Shape, M) -> CBElement:
    """Basis element of the Schur-complement subalgebra.

    The y-entries satisfy the same relations as the lower-right x-block
    and are individually bar-fixed, so the block is solved in the
    x-representation; the expansion is returned over y-words as a
    LocalElement via the substitution x_uv -> y_uv.
    """
    M = tuple(M)
    if not _support_ok(shape, M, "D"):
        raise ValueError("index must be supported on the lower-right block")
    ro, co = _block_key(shape, M)
    elem = _x_block(shape, ro, co, "D", Variant.MINUS_Q)[M]
    return CBElement((M, 0, 0), Variant.MINUS_Q, y_substitute(elem), "Dprime")


def y_substitute(f: AlgebraElement) -> LocalElement:
    """Reinterpret a lower-right-block x-element as a word in y-entries."""
    out = LocalElement.zero(f.shape)
    for M, c in f.terms.items():
        out = out + LocalElement.monomial(f.shape, M, 0, 0, c)
    return out


def _dprime_x_expansion(shape: Shape, M) -> AlgebraElement:
    ro, co = _block_key(shape, M)
    return _x_block(shape, ro, co, "D", Variant.MINUS_Q)[tuple(M)]


def _abc_prefactor(shape: Shape, M) -> int:
    """-sum_i c_i(M1) c_i(M3) over the first m columns."""
    N = shape.size
    total = 0
    for i in range(1, shape.m + 1):
        c1 = sum(mat_entry(M, N, r, i) for r in range(1, shape.m + 1))
        c3 = sum(mat_entry(M, N, r, i) for r in range(shape.m + 1, N + 1))
        total += c1 * c3
    return -total


def _split_regions(shape: Shape, M):
    """(rows <= m part, lower-left part) as full-size matrices."""
    N = shape.size
    top = [0] * (N * N)
    low = [0] * (N * N)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            v = mat_entry(M, N, i, j)
            if i <= shape.m:
                top[(i - 1) * N + (j - 1)] = v
            else:
                low[(i - 1) * N + (j - 1)] = v
    return tuple(top), tuple(low)


def n_abc(shape: Shape, M) -> AlgebraElement:
    """The product monomial for the three-block stage."""
    top, low = _split_regions(shape, M)
    f = omega_H(shape, top).expansion * _x_block(
        shape, *_block_key(shape, low), "C", Variant.MINUS_Q
    )[low]
    return f.scale(LaurentPoly.q_power(_abc_prefactor(shape, M)))


@lru_cache(maxsize=None)
def _abc_block(shape: Shape, ro, co):
    indices = [
        M for M in enumerate_block(shape, ro, co) if _support_ok(shape, M, "ABC")
    ]
    return solve_block(
        shape, indices, lambda M: n_abc(shape, M), lambda f: f.bar(), Variant.PLUS_Q
    )


def omega_ABC(shape: Shape, M) -> CBElement:
    """Basis element of the subalgebra generated by the first three blocks."""
    M = tuple(M)
    if not _support_ok(shape, M, "ABC"):
        raise ValueError("index must have an empty lower-right block")
    ro, co = _block_key(shape, M)
    elem = _abc_block(shape, ro, co)[M]
    return CBElement((M, 0, 0), Variant.PLUS_Q, elem, "ABC")


# -- the full localized basis -------------------------------------------------


def _region_sums(shape: Shape, M):
    """(S(M2), S(M3), columns of M2, columns of M4, rows of M3, rows of M4)."""
    N, m = shape.size, shape.m
    s2 = sum(
        mat_entry(M, N, i, j) for i in range(1, m + 1) for j in range(m + 1, N + 1)
    )
    s3 = sum(
        mat_entry(M, N, i, j) for i in range(m + 1, N + 1) for j in range(1, m + 1)
    )
    c2 = [
        sum(mat_entry(M, N, i, j) for i in range(1, m + 1))
        for j in range(m + 1, N + 1)
    ]
    c4 = [
        sum(mat_entry(M, N, i, j) for i in range(m + 1, N + 1))
        for j in range(m + 1, N + 1)
    ]
    r3 = [
        sum(mat_entry(M, N, i, j) for j in range(1, m + 1))
        for i in range(m + 1, N + 1)
    ]
    r4 = [
        sum(mat_entry(M, N, i, j) for j in range(m + 1, N + 1))
        for i in range(m + 1, N + 1)
    ]
    return s2, s3, c2, c4, r3, r4


def psi_power(shape: Shape, M, a: int, d: int) -> int:
    s2, s3, c2, c4, r3, r4 = _region_sums(shape, M)
    return (
        sum(x * y for x, y in zip(c2, c4))
        - sum(x * y for x, y in zip(r3, r4))
        + (d - a) * (s2 + s3)
    )


@lru_cache(maxsize=None)
def n_ad(shape: Shape, M, a: int, d: int) -> LocalElement:
    """q^Psi detA^a Omega_ABC Omega_D' detD'^d as a reduced element."""
    M = tuple(M)
    if not is_constrained(shape, M):
        raise NotConstrained("even diagonal blocks each need a zero diagonal entry")
    N = shape.size
    abc = [0] * (N * N)
    low = [0] * (N * N)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            v = mat_entry(M, N, i, j)
            if i > shape.m and j > shape.m:
                low[(i - 1) * N + (j - 1)] = v
            else:
                abc[(i - 1) * N + (j - 1)] = v
    zero = zero_matrix(N)
    out = LocalElement(shape, {(zero, a, 0): LaurentPoly.q_power(psi_power(shape, M, a, d))})
    out = out * to_mixed(omega_ABC(shape, tuple(abc)).expansion)
    out = out * y_substitute(_dprime_x_expansion(shape, tuple(low)))
    return out * LocalElement(shape, {(zero, 0, d): ONE})


def _global_candidates(shape: Shape, rows, cols, a_lo, d_lo):
    m = shape.m
    a_hi = min(min(rows[:m]), min(cols[:m]))
    d_hi = min(min(rows[m:]), min(cols[m:]))
    out = []
    for alpha in range(a_hi, a_lo - 1, -1):
        for delta in range(d_hi, d_lo - 1, -1):
            ro = tuple(r - alpha for r in rows[:m]) + tuple(r - delta for r in rows[m:])
            co = tuple(c - alpha for c in cols[:m]) + tuple(c - delta for c in cols[m:])
            if any(v < 0 for v in ro + co):
                continue
            for T in enumerate_block(shape, ro, co):
                if is_constrained(shape, T):
                    out.append((T, alpha, delta))
    return out


def express_in_n(shape: Shape, f: LocalElement) -> dict:
    """Coordinates of f over the N family of its biweight block."""
    if f.is_zero():
        return {}
    rows, cols = f.biweight()
    a_keys = [a for (_, a, _) in f.terms]
    d_keys = [d for (_, _, d) in f.terms]
    for widen in (0, 1, 2):
        cands = _global_candidates(
            shape, rows, cols, min(a_keys) - widen, min(d_keys) - widen
        )
        if not cands:
            continue
        try:
            columns = [n_ad(shape, T, alpha, delta).terms for T, alpha, delta in cands]
            sol = solve_in_span_laurent(columns, f.terms)
        except LinearSolveFailure:
            continue
        return {key: c for key, c in zip(cands, sol) if not c.is_zero()}
    raise LinearSolveFailure("element is not expressible over the N family")


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
    M = tuple(M)
    key = (M, a, d)

    @lru_cache(maxsize=None)
    def expand_bar(k):
        T, alpha, delta = k
        return _freeze(express_in_n(shape, bar_local(n_ad(shape, T, alpha, delta))))

    coords = lusztig_solve_one(
        key,
        lambda k: dict(expand_bar(k)),
        variant,
        lambda sup: _pick_maximal_global(shape, sup),
        lambda S, T: p_strictly_lower(shape, S, T),
    )
    elem = LocalElement.zero(shape)
    for (T, alpha, delta), c in sorted(coords.items()):
        elem = elem + n_ad(shape, T, alpha, delta).scale(c)
    return CBElement(key, variant, elem, "GLOBAL")


def _freeze(d):
    return tuple(sorted(d.items()))


# -- covariant minor shifts ---------------------------------------------------


def covariant_shift_check(shape: Shape, omega: CBElement, r: int = None, s: int = None):
    """Multiply a global basis element by a covariant corner minor and
    match the result against a basis element up to a q-power.

    Returns (index, power).  Requires the anti-diagonal zero condition
    on the index matrix.
    """
    from qsuper.superspace import covariant_minor, covariant_minor_star

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
