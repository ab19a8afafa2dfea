"""Quantum superspaces, their coactions, and quantum minors.

The row space A_q (variables x_i) and column space A_q* (variables xi_i,
with flipped parity) are comodule algebras over the supermatrix algebra;
quantum minors are the coaction coefficients; the localization takes
y_uv detA, for its Schur-complement entries y_uv, from the dual space's.
The determinants of the diagonal blocks are minors too: detA is the dual
space's on rows and columns 1..m, detD the row space's on the rest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from qsuper.laurent import LaurentPoly, ONE
from qsuper.algebra import AlgebraElement, Shape, _put, straighten_word


# -- superspace monomials ------------------------------------------------
#
# Both spaces have ordered-monomial bases v_1^{a_1} ... v_N^{a_N}.  The
# only data that differ are the variable parities (flipped for the dual
# side) and the q-power picked up when two variables are swapped.


def var_parity(shape: Shape, i: int, star: bool) -> int:
    p = shape.parity(i)
    return (1 - p) if star else p


def valid_vector(shape: Shape, a, star: bool) -> bool:
    if len(a) != shape.size:
        return False
    for i, v in enumerate(a, start=1):
        if v < 0:
            return False
        if v > 1 and var_parity(shape, i, star):
            return False
    return True


def vector_parity(shape: Shape, a, star: bool) -> int:
    """[a] (unstarred) or {a} (starred): sum of variable parities."""
    return sum(v * var_parity(shape, i, star) for i, v in enumerate(a, start=1)) % 2


def evec(shape: Shape, indices) -> tuple:
    """Exponent vector with one unit per listed index (with multiplicity);
    IndexError for an index outside 1..N."""
    a = [0] * shape.size
    for i in indices:
        if not 1 <= i <= shape.size:
            raise IndexError(f"index {i} out of range for shape {shape}")
        a[i - 1] += 1
    return tuple(a)


def interval(lo: int, hi: int):
    return list(range(lo, hi + 1))


def reorder_factor(shape: Shape, u, v, star: bool) -> LaurentPoly:
    """Monomial f with v^u * v^v = f * v^(u+v) in the superspace.

    Every crossing pair i > j (i from u, j from v) contributes the swap
    factor of the defining relations: sign from the variable parities
    and q^-2 (row space) or q^2 (dual space).
    """
    sign = 0
    cross = 0
    N = shape.size
    for i in range(2, N + 1):
        if not u[i - 1]:
            continue
        pi = var_parity(shape, i, star)
        for j in range(1, i):
            if v[j - 1]:
                cross += u[i - 1] * v[j - 1]
                sign += pi * var_parity(shape, j, star) * u[i - 1] * v[j - 1]
    base = 2 if star else -2
    return LaurentPoly.q_power(base * cross, (-1) ** (sign % 2))


def _times_gen(shape: Shape, b, j: int, star: bool):
    """(factor, b + e_j) for v^b * v_j, or None when the square vanishes."""
    if var_parity(shape, j, star) and b[j - 1] >= 1:
        return None
    ej = evec(shape, (j,))
    return reorder_factor(shape, b, ej, star), tuple(u + v for u, v in zip(b, ej))


# -- coactions and minors -------------------------------------------------


def _path_sums(shape: Shape, a, star: bool, cols=None) -> dict:
    """Normal-form terms of the coaction of v^a, by component: b -> terms.

    The coaction of v_i is sum_j v_j (x) x_ij, so the coaction of
    v^a = v_i1 ... v_ir sums one path j1 ... jr per choice of columns: its
    word x_i1j1 ... x_irjr, on flat cell codes, is straightened once, with
    the reorder factors of v_j1 ... v_jr into v^b and the tensor signs,
    each the space part so far passing the next matrix generator, as its
    coefficient, and its terms go to the component b of its columns.
    Given cols, only the paths whose columns make up cols are walked;
    paths that square an odd variable vanish.
    """
    N = shape.size
    rows = [i for i in range(1, N + 1) for _ in range(a[i - 1])]
    comps: dict = {}
    if not valid_vector(shape, a, star) or (cols is not None and sum(cols) != len(rows)):
        return comps
    vp = [var_parity(shape, j, star) for j in range(1, N + 1)]
    stack = [((0,) * N, 0, (), ONE)]  # (b, parity of v^b, word, coefficient)
    while stack:
        b, pb, word, coeff = stack.pop()
        t = len(word)
        if t == len(rows):
            terms = comps.setdefault(b, {})
            for M, c in straighten_word(shape, word, coeff).items():
                _put(terms, M, c)
            continue
        i = rows[t]
        for j in range(1, N + 1):
            if cols is not None and b[j - 1] == cols[j - 1]:
                continue
            hit = _times_gen(shape, b, j, star)
            if hit is not None:
                factor, nb = hit
                if pb and shape.gen_parity(i, j):
                    factor = -factor
                stack.append((nb, pb ^ vp[j - 1], word + ((i - 1) * N + j - 1,),
                              coeff * factor))
    return comps


@lru_cache(maxsize=1 << 12)
def _minor_cached(shape: Shape, a, b, star: bool) -> AlgebraElement:
    return AlgebraElement(shape, _path_sums(shape, a, star, b).get(b))


def index_vectors(shape: Shape, deg: int, star: bool):
    """Exponent vectors of degree deg in the row (or dual) superspace."""
    combos = combinations_with_replacement(range(1, shape.size + 1), deg)
    vectors = (evec(shape, combo) for combo in combos)
    return [a for a in vectors if valid_vector(shape, a, star)]


# Bound: the laplace suite at (3|2) reads 107 coactions, of degree <= 3.
@lru_cache(maxsize=1 << 10)
def _coact_cached(shape: Shape, a, star: bool) -> tuple:
    """Nonzero (b, minor) components of the coaction of v^a, from one walk
    of its paths, in index_vectors order: descending column vectors."""
    comps = _path_sums(shape, a, star)
    minors = ((b, AlgebraElement(shape, comps[b])) for b in sorted(comps, reverse=True))
    return tuple((b, f) for b, f in minors if not f.is_zero())


def _components(shape: Shape, a, star: bool) -> dict:
    """Nonzero components b -> minor of the coaction of v^a."""
    return dict(_coact_cached(shape, tuple(a), star))


def coact(shape: Shape, a) -> dict:
    """Components of the coaction of x^a: map b -> minor element."""
    return _components(shape, a, False)


def coact_star(shape: Shape, a) -> dict:
    """Components of the coaction of xi^a: map b -> starred minor."""
    return _components(shape, a, True)


def minor(shape: Shape, rows, cols) -> AlgebraElement:
    """Quantum minor: coefficient of x^cols in the coaction of x^rows."""
    return _minor_cached(shape, evec(shape, rows), evec(shape, cols), False)


def minor_star(shape: Shape, rows, cols) -> AlgebraElement:
    return _minor_cached(shape, evec(shape, rows), evec(shape, cols), True)


def det_q_A(shape: Shape) -> AlgebraElement:
    """The q-determinant of the A block: the dual minor on 1..m."""
    block = interval(1, shape.m)
    return minor_star(shape, block, block)


def det_qinv_D(shape: Shape) -> AlgebraElement:
    """The q^-1-determinant of the D block: the minor on m+1..N."""
    block = interval(shape.m + 1, shape.size)
    return minor(shape, block, block)


def covariant_minor_star(shape: Shape, r: int) -> AlgebraElement:
    """Starred minor on rows 1..r against the last r columns."""
    N = shape.size
    return minor_star(shape, interval(1, r), interval(N - r + 1, N))


def covariant_minor(shape: Shape, s: int) -> AlgebraElement:
    """Unstarred minor on the last s rows against columns 1..s."""
    N = shape.size
    return minor(shape, interval(N - s + 1, N), interval(1, s))


# -- Laplace expansion ------------------------------------------------------


def laplace_expand(shape: Shape, a, a2, star: bool) -> dict:
    """Right-hand side of the Laplace expansion of the minors of a + a2.

    Expands each component of the product coaction with the explicit
    crossing prefactor reorder_factor(c, c2) / reorder_factor(a, a2) and
    the super sign from the space part passing the second minor.
    """
    a, a2 = tuple(a), tuple(a2)
    global_factor = reorder_factor(shape, a, a2, star)
    ((ge, gc),) = global_factor.terms.items()
    inv_global = LaurentPoly.q_power(-ge, gc)
    left = _components(shape, a, star)
    right = _components(shape, a2, star)
    pa2 = vector_parity(shape, a2, star)
    out: dict = {}
    for c, F in left.items():
        pc = vector_parity(shape, c, star)
        for c2, G in right.items():
            b = tuple(x + y for x, y in zip(c, c2))
            if not valid_vector(shape, b, star):
                continue
            sgn = (-1) ** (pc * ((pa2 + vector_parity(shape, c2, star)) % 2))
            factor = (reorder_factor(shape, c, c2, star) * inv_global).scale(sgn)
            _put(out, b, (F * G).scale(factor))
    return out


def laplace_verify(shape: Shape, a, a2, star: bool) -> bool:
    """Minor-of-a-sum against the expanded product form; exact equality."""
    ab = tuple(x + y for x, y in zip(a, a2))
    return laplace_expand(shape, a, a2, star) == _components(shape, ab, star)
