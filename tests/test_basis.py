from functools import lru_cache

import pytest

from qsuper import basis, clear_caches, exactlinalg, glq
from qsuper.laurent import LaurentPoly, ONE, Variant, solve_bar_equation
from qsuper.algebra import (
    _put,
    AlgebraElement,
    Shape,
    col_sums,
    degree_matrices,
    enumerate_block,
    row_sums,
    x_norm,
    zero_matrix,
)
from qsuper.superspace import det_q_A, det_qinv_D, minor_star
from qsuper.glq import LocalElement, bar_local, berezinian, det_dprime_local, is_constrained
from qsuper.basis import (
    NotConstrained,
    TriangularityViolation,
    covariant_shift_check,
    express_in_n,
    n_abc,
    n_ad,
    omega_ABC,
    omega_C,
    omega_Dprime,
    omega_H,
    omega_global,
    p_strictly_lower,
    peel,
    psi_power,
    block_element,
    y_substitute,
)
from test_superspace import c_block_minor

S11 = Shape(1, 1)
S21 = Shape(2, 1)
S22 = Shape(2, 2)


def lp(d):
    return LaurentPoly(d)


def gen(shape, i, j):
    return AlgebraElement.generator(shape, i, j)


DIAG = (1, 0, 0, 1)
ANTI = (0, 1, 1, 0)


def corner_sums(M, N: int):
    """North-west corner sums, summed cell by cell."""
    return tuple(
        sum(M[(u - 1) * N + (v - 1)] for u in range(1, i + 1) for v in range(1, j + 1))
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    )


# -- the 2x2-move order, the independent reference for the kernel's order ----


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
def downset(shape: Shape, M) -> frozenset:
    """M together with everything reachable by downward moves."""
    out = {M}
    for Mp in submatrix_moves(shape, M):
        out |= downset(shape, Mp)
    return frozenset(out)


def ref_below(shape: Shape, S, T) -> bool:
    """S strictly below T in the move order."""
    return S != T and S in downset(shape, T)


def ref_pick_maximal(shape: Shape, indices):
    """The least index of the support with nothing above it in the move order."""
    indices = sorted(indices)
    for S in indices:
        if not any(ref_below(shape, S, T) for T in indices):
            return S
    raise AssertionError(f"no maximal element among {indices}")


def ref_p_strictly_lower(shape: Shape, key, ref) -> bool:
    """p_strictly_lower on the move order: a'>a, or d'>d at equal a, or a
    matrix strictly below at equal det powers."""
    (T, ap, dp), (M, a, d) = key, ref
    return ap > a if ap != a else dp > d if dp != d else ref_below(shape, T, M)


def ref_pick_maximal_global(shape: Shape, keys):
    """A maximal key: least a, then least d, then ref_pick_maximal."""
    amin = min(a for (_, a, _) in keys)
    dmin = min(d for (_, a, d) in keys if a == amin)
    return (ref_pick_maximal(shape, [T for (T, a, d) in keys if (a, d) == (amin, dmin)]),
            amin, dmin)


def leq(shape: Shape, M, N) -> bool:
    """M <= N in the 2x2-move order (same row and column sums required)."""
    M, N = tuple(M), tuple(N)
    sz = shape.size
    if row_sums(M, sz) != row_sums(N, sz) or col_sums(M, sz) != col_sums(N, sz):
        raise ValueError("comparable matrices must share row and column sums")
    return M in downset(shape, N)


def certify_corner_order(shape: Shape, block):
    """On one block: the kernel's corner sums are the direct sums, its order
    is the move order, every move lowers the corner-sum total, and
    _pick_maximal picks an index with nothing above it, both on the block
    and on each downset, whose only maximal index is its top."""
    N = shape.size
    height = {}
    for M in block:
        assert basis._corner_sums(shape, M) == corner_sums(M, N), M
        height[M] = sum(corner_sums(M, N))
    for T in block:
        below = downset(shape, T)
        for S in block:
            assert basis._below(shape, S, T) == (S != T and S in below), (S, T)
        assert all(height[S] < height[T] for S in submatrix_moves(shape, T)), T
        assert basis._pick_maximal(shape, below) == T
    top = basis._pick_maximal(shape, block)
    assert not any(ref_below(shape, top, T) for T in block)


class TestMoves:
    def test_unique_move(self):
        assert submatrix_moves(S11, DIAG) == {ANTI}

    def test_no_move(self):
        assert submatrix_moves(S11, ANTI) == set()

    def test_even_block_move(self):
        M = (2, 0, 0, 0, 2, 0, 0, 0, 0)
        assert submatrix_moves(S21, M) == {(1, 1, 0, 1, 1, 0, 0, 0, 0)}

    def test_odd_cap_blocks_move(self):
        # moving into a filled odd cell is not allowed
        M = (1, 1, 0, 1, 0, 1, 0, 1, 0)
        for Mp in submatrix_moves(S21, M):
            for idx in (2, 5, 6, 7):  # odd cells of the 3x3 shape
                assert Mp[idx] <= 1


class TestOrder:
    def test_reflexive(self):
        assert leq(S11, DIAG, DIAG)

    def test_one_move(self):
        assert leq(S11, ANTI, DIAG)
        assert not leq(S11, DIAG, ANTI)

    def test_biweight_mismatch(self):
        with pytest.raises(ValueError):
            leq(S11, DIAG, (1, 0, 1, 0))

    # the diagonal-margin blocks after the first four: (2|2) w = 2 and 3,
    # (3|1) and (1|3) w = 2, (3|2) and (2|3) w = 1, (3|3) w = 1; they hold
    # 162, 440, 183, 183, 120, 120 and 720 matrices
    @pytest.mark.parametrize("shape,ro,co", [
        (S11, (1, 1), (1, 1)),
        (S21, (1, 1, 1), (1, 1, 1)),
        (S21, (2, 1, 1), (1, 2, 1)),
        (S22, (1, 1, 1, 1), (1, 1, 1, 1)),
        *[(shape, (w,) * shape.size, (w,) * shape.size) for shape, w in [
            (S22, 2), (S22, 3), (Shape(3, 1), 2), (Shape(1, 3), 2),
            (Shape(3, 2), 1), (Shape(2, 3), 1), (Shape(3, 3), 1)]],
    ])
    def test_corner_dominance_agrees(self, shape, ro, co):
        certify_corner_order(shape, enumerate_block(shape, ro, co))

    def test_other_biweight_is_never_below(self):
        # x22^2 has every corner sum at most x11 x22's, but no move joins
        # them: a member with a term of another biweight is not triangular
        low = (0, 0, 0, 2)
        assert all(a <= b for a, b in zip(corner_sums(low, 2), corner_sums(DIAG, 2)))
        assert not basis._below(S11, low, DIAG)
        assert not p_strictly_lower(S11, (low, 0, 0), (DIAG, 0, 0))
        with pytest.raises(TriangularityViolation, match="not below"):
            peel(x_norm(S11, DIAG), lambda S: x_norm(S11, S) + x_norm(S11, low),
                 lambda sup: basis._pick_maximal(S11, sup),
                 lambda S, T: basis._below(S11, S, T))

    @pytest.mark.parametrize("shape,degree", [
        (S11, 4), (S21, 4), (Shape(1, 2), 4), (S22, 4), (Shape(3, 1), 4), (Shape(1, 3), 4),
        (Shape(3, 2), 3), (Shape(2, 3), 3),
    ], ids=str)
    def test_corner_order_on_every_small_block(self, shape, degree):
        for block in all_blocks(shape, degree):
            certify_corner_order(shape, block)


def full_block_element(shape, M, variant=Variant.PLUS_Q):
    """The basis element of the whole polynomial algebra at M."""
    return block_element(shape, M, "ABCD", variant, x_norm)


class TestSolveBlock:
    def test_rank_one_block(self):
        expect_diag = gen(S11, 1, 1) * gen(S11, 2, 2) + (
            gen(S11, 1, 2) * gen(S11, 2, 1)
        ).scale(lp({2: 1}))
        assert full_block_element(S11, DIAG) == expect_diag
        assert full_block_element(S11, ANTI) == gen(S11, 1, 2) * gen(S11, 2, 1)

    def test_zero_matrix(self):
        assert full_block_element(S11, zero_matrix(2)) == AlgebraElement.one(S11)

    def test_order_independence(self):
        # the elements do not depend on the order in which they are asked for
        block = enumerate_block(S21, (1, 1, 0), (1, 1, 0))
        clear_caches()
        fwd = [full_block_element(S21, M) for M in block]
        clear_caches()
        rev = [full_block_element(S21, M) for M in reversed(block)]
        assert fwd == rev[::-1]

    def test_minus_variant(self):
        expect_diag = gen(S11, 1, 1) * gen(S11, 2, 2) + (
            gen(S11, 1, 2) * gen(S11, 2, 1)
        ).scale(lp({-2: -1}))
        assert full_block_element(S11, DIAG, Variant.MINUS_Q) == expect_diag


class TestOmegaH:
    def test_single_generator(self):
        M = (0, 1, 0, 0)
        assert omega_H(S11, M).expansion == gen(S11, 1, 2)

    def test_det_is_basis_element(self):
        M = (1, 0, 0, 0, 1, 0, 0, 0, 0)
        assert omega_H(S21, M).expansion == det_q_A(S21)

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_star_minors_are_basis_elements(self, r, s):
        if s + r - 1 > 3:
            return
        rows = list(range(1, r + 1))
        cols = list(range(s, s + r))
        f = minor_star(S21, rows, cols)
        if f.is_zero():
            return
        M = [0] * 9
        for i, j in zip(rows, cols):
            M[(i - 1) * 3 + (j - 1)] = 1
        M = tuple(M)
        # equal to the basis element up to a unit (sign times q-power)
        c = f.coeff(M).divexact(x_norm(S21, M).terms[M])
        assert c.is_monomial() and abs(next(iter(c.terms.values()))) == 1
        assert omega_H(S21, M).expansion.scale(c) == f

    def test_det_shift(self):
        # detA * Omega(M1, M2) = q^S(M2) * Omega(M1 + I, M2)
        for M, s2 in [((0, 1, 0, 0, 0, 0, 0, 0, 0), 0),
                      ((0, 0, 1, 0, 0, 0, 0, 0, 0), 1),
                      ((0, 0, 1, 0, 0, 1, 0, 0, 0), 2),
                      ((0, 1, 0, 1, 0, 1, 0, 0, 0), 1)]:
            shifted = list(M)
            shifted[0] += 1
            shifted[4] += 1
            lhs = det_q_A(S21) * omega_H(S21, M).expansion
            rhs = omega_H(S21, tuple(shifted)).expansion.scale(LaurentPoly.q_power(s2))
            assert lhs == rhs, M

    def test_support_check(self):
        with pytest.raises(ValueError):
            omega_H(S11, (0, 0, 1, 0))

    def test_bar_invariance_and_target(self):
        for M in enumerate_block(S21, (1, 1, 0), (0, 1, 1)):
            cb = omega_H(S21, M)
            f = cb.expansion
            assert f.bar() == f
            rest = f - x_norm(S21, M)
            for c in rest.terms.values():
                assert c.negative_part().is_zero() and c.coeff(0) == 0


class TestOmegaC:
    def test_rank_one_monomials(self):
        # with one odd row the lower-left entries q-commute: no correction
        M = (0, 0, 0, 0, 0, 0, 1, 1, 0)
        cb = omega_C(S21, M)
        assert cb.expansion == x_norm(S21, M)
        assert cb.expansion.bar() == cb.expansion

    def test_c_minor_is_basis_element(self):
        M = [0] * 16
        M[2 * 4 + 0] = 1  # x_{3,1}
        M[3 * 4 + 1] = 1  # x_{4,2}
        assert omega_C(S22, tuple(M)).expansion == c_block_minor(S22, 2)

    def test_zero(self):
        Z = zero_matrix(2)
        assert omega_C(S11, Z).expansion == AlgebraElement.one(S11)


def d_block_element(M):
    """The Schur-complement block's element at M in the x-picture."""
    return block_element(S22, tuple(M), "D", *basis._REGIONS["D"])


class TestOmegaDprime:
    def test_rank_one_power(self):
        M = (0, 0, 0, 2)
        cb = omega_Dprime(S11, M)
        assert cb.expansion.terms == {(zero_matrix(2), 0, 2): ONE}

    def test_bar_invariance(self):
        # checked in the lower-block polynomial picture, where bar agrees
        # with the localized bar on the commuting subalgebra of y-entries
        M = [0] * 16
        M[2 * 4 + 2] = 1
        M[3 * 4 + 3] = 1
        f = d_block_element(M)
        assert f.bar() == f
        lead = x_norm(S22, tuple(M))
        for c in (f - lead).terms.values():
            assert c.positive_part().is_zero() and c.coeff(0) == 0

    def test_det_shift(self):
        # detD' * Omega(M4) = Omega(M4 + I), checked in the x-picture
        M = [0] * 16
        M[2 * 4 + 3] = 1  # one off-diagonal entry
        f = d_block_element(M)
        lhs = det_qinv_D(S22) * f
        shifted = list(M)
        shifted[2 * 4 + 2] += 1
        shifted[3 * 4 + 3] += 1
        assert lhs == d_block_element(shifted)

    def test_dprime_det_is_basis_element(self):
        M = [0] * 16
        M[2 * 4 + 2] = 1
        M[3 * 4 + 3] = 1
        f = d_block_element(M)
        assert f == det_qinv_D(S22)


@pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2), S22, Shape(3, 1), Shape(1, 3)],
                         ids=str)
def test_detD_in_y_letters_is_detDprime(shape):
    # the y_uv keep the relations of the D block's x_uv
    assert y_substitute(det_qinv_D(shape)) == det_dprime_local(shape)


class TestOmegaABC:
    def test_reduces_to_H(self):
        M = (1, 1, 0, 0, 0, 0, 0, 0, 0)
        assert omega_ABC(S21, M).expansion == omega_H(S21, M).expansion

    def test_reduces_to_C(self):
        M = (0, 0, 0, 0, 0, 0, 1, 0, 0)
        assert omega_ABC(S21, M).expansion == omega_C(S21, M).expansion

    def test_mixed_index(self):
        M = (0, 1, 1, 0)  # x_12 x_21 at (1,1)
        cb = omega_ABC(S11, M)
        assert cb.expansion.bar() == cb.expansion
        # leading term is the product monomial
        lead = n_abc(S11, M)
        rest = cb.expansion - lead
        for c in rest.terms.values():
            assert c.negative_part().is_zero() and c.coeff(0) == 0

    def test_det_shift_abc(self):
        M = (0, 0, 1, 0, 0, 0, 1, 0, 0)  # B and C entry at (2,1)
        shifted = (1, 0, 1, 0, 1, 0, 1, 0, 0)
        lhs = det_q_A(S21) * omega_ABC(S21, M).expansion
        rhs = omega_ABC(S21, shifted).expansion.scale(LaurentPoly.q_power(2))
        assert lhs == rhs


def ref_cross(shape, M, x: str, y: str, sums) -> int:
    """Dot product of the row (sums=row_sums) or column (col_sums) sums of
    M on the blocks x and on the blocks y."""
    N = shape.size
    return sum(p * q for p, q in zip(sums(shape.restrict(M, x), N),
                                     sums(shape.restrict(M, y), N)))


def ref_psi_power(shape, M, a, d) -> int:
    """Psi from the block sums: c(B).c(D) + r(C).r(D) + (d - a) k(M)."""
    return (ref_cross(shape, M, "B", "D", col_sums) + ref_cross(shape, M, "C", "D", row_sums)
            + (d - a) * shape.odd_degree(M))


@lru_cache(maxsize=None)
def direct_n_ad(shape, M, a, d):
    """q^Psi(M,a,d) detA^a Omega_ABC Omega_D' detD'^d, built at every d by
    products from the unit: the independent reference for the kernel's
    n_ad, which re-keys its factors."""
    zero = zero_matrix(shape.size)
    out = LocalElement(shape, {(zero, a, 0): LaurentPoly.q_power(ref_psi_power(shape, M, a, d))})
    out = out * glq.to_mixed(omega_ABC(shape, shape.restrict(M, "ABC")).expansion)
    out = out * omega_Dprime(shape, shape.restrict(M, "D")).expansion
    return out * LocalElement(shape, {(zero, 0, d): ONE})


class TestNad:
    def test_psi_example(self):
        M = (0, 1, 1, 0)
        assert psi_power(S11, M, 0, 1) == 2
        assert psi_power(S11, M, 1, 0) == -2
        # the power shifts by -2(S2+S3) under (a,d) -> (a+1,d-1)
        assert psi_power(S11, M, 1, 0) == psi_power(S11, M, 0, 1) - 4

    def test_zero_index(self):
        f = n_ad(S11, zero_matrix(2), 2, 1)
        assert f.terms == {(zero_matrix(2), 2, 1): ONE}

    def test_constraint(self):
        with pytest.raises(NotConstrained):
            n_ad(S11, (1, 0, 0, 0), 0, 0)
        assert issubclass(NotConstrained, ValueError)

    @pytest.mark.parametrize("M,a,d", [
        ((0, 0, 0, 0), 0, 0),
        ((0, 1, 1, 0), 0, 0),
        ((0, 1, 1, 0), -1, 1),
        ((0, 1, 0, 0), 1, -1),
    ])
    def test_berezinian_shift(self, M, a, d):
        # the kernel re-keys d != 0 from its orbit's d = 0 member; the
        # reference multiplies by detD'^d
        assert n_ad(S11, M, a, d) == direct_n_ad(S11, M, a, d)
        lhs = n_ad(S11, M, a, d) * berezinian(S11)
        assert lhs == direct_n_ad(S11, M, a + 1, d - 1)

    def test_berezinian_shift_rank_two(self):
        M = (0, 0, 1, 0, 0, 0, 0, 1, 0)
        lhs = n_ad(S21, M, 0, 0) * berezinian(S21)
        assert lhs == direct_n_ad(S21, M, 1, -1)
        assert n_ad(S21, M, 1, -1) == direct_n_ad(S21, M, 1, -1)

    def test_psi_row_term(self):
        # x_21 y_22 at (1|2): a C-letter and a y-letter share the odd row 2,
        # and y_22 x_21 = q^2 x_21 y_22 adds 1 to Psi
        M = (0, 0, 0, 1, 1, 0, 0, 0, 0)
        assert psi_power(Shape(1, 2), M, 0, 0) == 1


# shapes and the degree up to which every matrix is checked
N_FAMILY_RANGE = [(S11, 3), (S21, 3), (Shape(1, 2), 3), (S22, 2), (Shape(3, 1), 2),
                  (Shape(1, 3), 2)]


@pytest.mark.parametrize("shape,degree", N_FAMILY_RANGE, ids=str)
def test_psi_power_matches_the_block_sums(shape, degree):
    for deg in range(degree + 1):
        for M in degree_matrices(shape, deg):
            for a in range(-2, 3):
                for d in range(-2, 3):
                    assert psi_power(shape, M, a, d) == ref_psi_power(shape, M, a, d), (M, a, d)


@pytest.mark.parametrize("shape,degree", N_FAMILY_RANGE, ids=str)
def test_n_ad_matches_the_direct_product(shape, degree):
    # the kernel re-keys X Y; the reference multiplies q^Psi detA^a, X and Y
    for deg in range(degree + 1):
        for M in degree_matrices(shape, deg):
            if is_constrained(shape, M):
                for a in range(-2, 3):
                    assert n_ad(shape, M, a, 0) == direct_n_ad(shape, M, a, 0), (M, a)


@pytest.mark.parametrize("shape", [
    S11, S21, Shape(1, 2), S22, Shape(3, 1), Shape(1, 3),
], ids=str)
def test_n_family_bar_certificate(shape):
    # bar(n_ad(K)) is n_ad(K) plus strictly p-lower members of the N family,
    # for every constrained key of degree <= 2 in three det sectors; at
    # d = 0 none has a negative detD' power, so the member of its Ber orbit
    # that omega_global builds in its place is also below K
    for deg in range(3):
        for M in degree_matrices(shape, deg):
            if not is_constrained(shape, M):
                continue
            for a, d in [(0, 0), (-1, 1), (1, -1)]:
                key = (M, a, d)
                coords = express_in_n(shape, bar_local(n_ad(shape, *key)))
                assert coords.get(key) == ONE, key
                for T in coords:
                    assert T == key or p_strictly_lower(shape, T, key), (key, T)
                    assert d or T[2] >= 0, (key, T)


class TestOmegaGlobal:
    def test_unit(self):
        cb = omega_global(S11, zero_matrix(2), 0, 0, Variant.PLUS_Q)
        assert cb.expansion == LocalElement.one(S11)

    @pytest.mark.parametrize("M,a,d", [
        ((0, 1, 1, 0), 0, 0),
        ((0, 1, 0, 0), 0, 1),
        ((0, 0, 1, 0), 1, 0),
        ((0, 1, 1, 0), -1, 1),
    ])
    @pytest.mark.parametrize("variant", [Variant.PLUS_Q, Variant.MINUS_Q])
    def test_bar_invariant(self, M, a, d, variant):
        cb = omega_global(S11, M, a, d, variant)
        assert bar_local(cb.expansion) == cb.expansion

    def test_variant_targets(self):
        M = (0, 1, 1, 0)
        for variant, keep in [
            (Variant.PLUS_Q, lambda c: c.negative_part().is_zero() and c.coeff(0) == 0),
            (Variant.MINUS_Q, lambda c: c.positive_part().is_zero() and c.coeff(0) == 0),
        ]:
            cb = omega_global(S11, M, 0, 0, variant)
            coords = express_in_n(S11, cb.expansion)
            assert coords.pop((M, 0, 0)) == ONE
            for c in coords.values():
                assert keep(c), (variant, c)

    def test_berezinian_shift(self):
        M = (0, 1, 1, 0)
        lhs = omega_global(S11, M, 0, 0, Variant.PLUS_Q).expansion * berezinian(S11)
        rhs = omega_global(S11, M, 1, -1, Variant.PLUS_Q).expansion
        assert lhs == rhs

    @pytest.mark.parametrize("shape,degree", [
        (S11, 3), (S21, 2), (Shape(1, 2), 2), (Shape(3, 1), 2), (S22, 1),
    ], ids=str)
    def test_berezinian_invariance(self, shape, degree):
        # the basis is invariant under the quantum Berezinian: Ber times the
        # element at (M, a, d) is the element at (M, a + 1, d - 1)
        ber = berezinian(shape)
        for deg in range(degree + 1):
            for M in degree_matrices(shape, deg):
                if not is_constrained(shape, M):
                    continue
                for a, d in [(0, 0), (-1, 1), (0, -1), (1, -1)]:
                    for variant in Variant:
                        lhs = omega_global(shape, M, a, d, variant).expansion * ber
                        rhs = omega_global(shape, M, a + 1, d - 1, variant).expansion
                        assert lhs == rhs, (M, a, d, variant)

    def test_rank_two_mixed(self):
        M = (0, 0, 1, 0, 0, 0, 0, 1, 0)
        cb = omega_global(S21, M, 0, 0, Variant.PLUS_Q)
        assert bar_local(cb.expansion) == cb.expansion


class TestCovariantShift:
    def test_unit_times_corner(self):
        cb = omega_global(S11, zero_matrix(2), 0, 0, Variant.PLUS_Q)
        index, power = covariant_shift_check(S11, cb, r=1)
        assert index == ((0, 1, 0, 0), 0, 0)
        assert power == 0

    def test_rank_two_lower_corner(self):
        M = [0] * 9
        M[1 * 3 + 0] = 1  # x_21
        cb = omega_global(S21, tuple(M), 0, 0, Variant.PLUS_Q)
        index, power = covariant_shift_check(S21, cb, s=1)
        assert index[0][2 * 3 + 0] == 1  # gained the x_31 corner entry

    def test_precondition(self):
        M = (0, 1, 0, 0)
        cb = omega_global(S11, M, 0, 0, Variant.PLUS_Q)
        with pytest.raises(ValueError):
            covariant_shift_check(S11, cb, r=1)

    @pytest.mark.parametrize("corners", [{"r": 1, "s": 1}, {}], ids=["both", "neither"])
    def test_exactly_one_corner(self, corners):
        cb = omega_global(S11, zero_matrix(2), 0, 0, Variant.PLUS_Q)
        with pytest.raises(ValueError, match="exactly one of r"):
            covariant_shift_check(S11, cb, **corners)

    def test_lower_precondition(self):
        M = (0, 0, 1, 0)  # x_21, the (N - j + 1, j) entry for j = 1
        cb = omega_global(S11, M, 0, 0, Variant.PLUS_Q)
        with pytest.raises(ValueError, match=r"entry \(2,1\) must vanish"):
            covariant_shift_check(S11, cb, s=1)


class TestExpressInN:
    def test_roundtrip(self):
        f = n_ad(S11, (0, 1, 1, 0), 0, 0) + n_ad(S11, (0, 0, 0, 0), 1, 1).scale(
            lp({3: 2})
        )
        coords = express_in_n(S11, f)
        assert coords == {
            ((0, 1, 1, 0), 0, 0): ONE,
            ((0, 0, 0, 0), 1, 1): lp({3: 2}),
        }


# -- the candidate-window solver, as the reference for the peeling ------------


def window_express_in_n(shape, f):
    """The solver that express_in_n replaced, kept as its reference.

    It enumerates the constrained triples of f's biweight in a window of
    det powers, solves over their N family members, and widens the window
    up to three times, also when a solve raises.
    """
    if f.is_zero():
        return {}
    rows, cols = f.biweight()
    a_keys = [a for (_, a, _) in f.terms]
    d_keys = [d for (_, _, d) in f.terms]
    for widen in (0, 1, 2):
        cands = glq._candidates(
            shape, rows, cols, min(a_keys) - widen, min(d_keys) - widen
        )
        if not cands:
            continue
        try:
            columns = [n_ad(shape, T, alpha, delta).terms for T, alpha, delta in cands]
            sol = exactlinalg.solve_in_span(columns, f.terms)
        except exactlinalg.LinearSolveFailure:
            continue
        if sol is None:
            continue
        return {key: c for key, c in zip(cands, sol) if not c.is_zero()}
    raise exactlinalg.LinearSolveFailure("element is not expressible over the N family")


@pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2)])
def test_express_in_n_matches_window_solver(shape):
    for deg in range(3):
        for M in degree_matrices(shape, deg):
            if not is_constrained(shape, M):
                continue
            for a, d in [(0, 0), (-1, 1), (1, -1)]:
                f = bar_local(n_ad(shape, M, a, d))
                assert express_in_n(shape, f) == window_express_in_n(shape, f), (M, a, d)


class TestPeel:
    """A family that is not unitriangular raises instead of looping."""

    def test_member_not_below_raises(self):
        # each member holds the other's leading monomial, so cancelling one
        # brings the other back
        both = x_norm(S11, DIAG) + x_norm(S11, ANTI)
        with pytest.raises(TriangularityViolation):
            peel(x_norm(S11, DIAG), lambda S: both, max, lambda T, S: T < S)

    def test_non_unit_leading_coefficient_raises(self):
        with pytest.raises(TriangularityViolation):
            peel(x_norm(S11, DIAG), lambda S: x_norm(S11, S).scale(lp({0: 2})),
                 max, lambda T, S: T < S)

    def test_unitriangular_family(self):
        lead = x_norm(S11, DIAG) + x_norm(S11, ANTI).scale(lp({1: 3}))
        column = {DIAG: lead.scale(lp({-2: -1})), ANTI: x_norm(S11, ANTI)}
        f = lead + x_norm(S11, ANTI)
        coords = peel(f, column.__getitem__, max, lambda T, S: T < S)
        assert coords == {DIAG: lp({2: -1}), ANTI: ONE}


@pytest.mark.parametrize("shape,size", [(S22, 21), (Shape(3, 1), 18)])
def test_frontier_block_1111(shape, size):
    # every element of the block ro = co = (1, 1, 1, 1) is bar-invariant
    # with leading coefficient 1 over the N family
    count = 0
    for M in enumerate_block(shape, (1, 1, 1, 1), (1, 1, 1, 1)):
        if not is_constrained(shape, M):
            continue
        f = omega_global(shape, M, 0, 0, Variant.PLUS_Q).expansion
        assert bar_local(f) == f, M
        assert express_in_n(shape, f).get((M, 0, 0)) == ONE, M
        count += 1
    assert count == size


# -- the residual recursion that lusztig_element replaced, as a reference -----


def reference_solve_one(T, expand_bar, variant, pick_max, strictly_lower):
    """Coordinates over the family of the bar-invariant element led by T.

    expand_bar(S) gives the coordinates of bar(member S) over the family;
    the residual bar(sum) - sum is rebuilt from them and cancelled at its
    maximal index until it vanishes.
    """
    coords = {T: ONE}
    while True:
        residual = {}
        for S, c in coords.items():
            for U, b in expand_bar(S).items():
                _put(residual, U, c.bar() * b)
        for S, c in coords.items():
            _put(residual, S, -c)
        if not residual:
            return coords
        S = pick_max(residual.keys())
        if not strictly_lower(S, T):
            raise TriangularityViolation(f"residual at {S} is not below {T}")
        coords[S] = coords.get(S, LaurentPoly.zero()) + solve_bar_equation(residual[S], variant)


def reference_elements(targets, column, bar, variant, pick_max, strictly_lower):
    """Dict T -> the bar-invariant element led by T, sharing each member's
    bar expansion between the targets."""
    @lru_cache(maxsize=None)
    def expand_bar(S):
        return peel(bar(column(S)), column, pick_max, strictly_lower)

    out = {}
    for T in targets:
        coords = reference_solve_one(T, expand_bar, variant, pick_max, strictly_lower)
        terms = [column(S).scale(c) for S, c in sorted(coords.items())]
        out[T] = sum(terms[1:], terms[0])
    return out


def all_blocks(shape, max_degree):
    N = shape.size
    sums = {(row_sums(M, N), col_sums(M, N)): None
            for deg in range(max_degree + 1) for M in degree_matrices(shape, deg)}
    return [enumerate_block(shape, ro, co) for ro, co in sums]


@pytest.mark.parametrize("shape,degree", [
    (S11, 3), (S21, 3), (Shape(1, 2), 3), (S22, 3), (Shape(3, 1), 3), (Shape(1, 3), 2),
], ids=str)
def test_solve_block_matches_the_residual_recursion(shape, degree):
    # the full blocks in both variants, and each staged region in its own
    regions = [("ABCD", variant, x_norm) for variant in Variant]
    regions += [(region, *spec) for region, spec in basis._REGIONS.items()]
    for block in all_blocks(shape, degree):
        for blocks, variant, monomial in regions:
            indices = [M for M in block if shape.restrict(M, blocks) == M]
            index_set = set(indices)
            want = reference_elements(
                indices, lambda M: monomial(shape, M), lambda f: f.bar(), variant,
                lambda sup: ref_pick_maximal(shape, sup),
                lambda S, T: ref_below(shape, S, T) and S in index_set)
            got = {M: block_element(shape, M, blocks, variant, monomial) for M in indices}
            assert got == want, (block, blocks, variant)


def test_block_element_builds_only_the_downset():
    # one "ABC" element at (2|2) builds that region's elements below it and
    # no other index of its biweight
    M = (0, 1, 1, 0,
         0, 0, 0, 1,
         1, 0, 0, 0,
         0, 0, 0, 0)
    requested = []
    clear_caches()
    cached = basis.block_element

    def recording(shape, T, blocks, variant, monomial):
        requested.append((shape, T, blocks, variant, monomial))
        return cached(shape, T, blocks, variant, monomial)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "block_element", recording)
        omega_ABC(S22, M)
    # every call made an entry or hit one, so the calls name every entry
    assert cached.cache_info().currsize == len(set(requested))
    built = {T for _, T, blocks, _, _ in requested if blocks == "ABC"}
    assert M in built and built <= downset(S22, M)
    N = S22.size
    region = [T for T in enumerate_block(S22, row_sums(M, N), col_sums(M, N))
              if S22.restrict(T, "ABC") == T]
    assert len(built) < len(region)


@pytest.mark.parametrize("shape,degree", [
    (S21, 3), (Shape(1, 2), 3), (S22, 2), (Shape(3, 1), 2),
], ids=str)
def test_omega_global_matches_the_residual_recursion(shape, degree):
    # from empty caches, so omega_global builds every lower element itself
    clear_caches()
    for deg in range(degree + 1):
        for M in degree_matrices(shape, deg):
            if not is_constrained(shape, M):
                continue
            for a, d in [(0, 0), (-1, 1), (1, -1)]:
                key = (M, a, d)
                for variant in Variant:
                    want = reference_elements(
                        [key], lambda k: direct_n_ad(shape, *k), bar_local, variant,
                        lambda sup: ref_pick_maximal_global(shape, sup),
                        lambda S, T: ref_p_strictly_lower(shape, S, T))[key]
                    assert omega_global(shape, M, a, d, variant).expansion == want, (
                        key, variant)


def test_one_lusztig_run_per_ber_orbit():
    # the elements at (M, -1, 1) and (M, 1, -1) re-key the one at (M, 0, 0)
    # and run no Lusztig recursion of their own
    M = (0, 0, 1, 0, 0, 0, 0, 1, 0)
    runs = []
    clear_caches()
    traced = basis.lusztig_element

    def counting(T, *args):
        runs.append(T)
        return traced(T, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "lusztig_element", counting)
        for variant in Variant:
            omega_global(S21, M, 0, 0, variant)
        before = len(runs)
        assert (M, 0, 0) in runs
        for variant in Variant:
            for a, d in [(-1, 1), (1, -1)]:
                cb = omega_global(S21, M, a, d, variant)
                assert cb.index == (M, a, d)
                assert cb.expansion * berezinian(S21) == omega_global(
                    S21, M, a + 1, d - 1, variant).expansion
    assert len(runs) == before


@pytest.mark.parametrize("shape,degree,one_factor,constrained", [
    (S11, 3, 4, 4), (S21, 3, 120, 120), (Shape(1, 2), 3, 44, 120),
    (S22, 2, 95, 143), (Shape(3, 1), 2, 130, 130), (Shape(1, 3), 2, 76, 130),
], ids=str)
def test_one_factor_bar_is_a_rescale(shape, degree, one_factor, constrained):
    # omega_global reads the bar of n_ad(M, a, 0) off its factors in the
    # other order (n_bar); bar_local, which reverses every word, is the
    # reference at every index.  When M has an empty ABC or an empty D part,
    # that bar is also a q-power per term of n_ad.  At n = 1 a constrained M
    # leaves the 1x1 D block empty, so every index has one factor.
    indices = [M for deg in range(degree + 1) for M in degree_matrices(shape, deg)
               if is_constrained(shape, M)]
    ones = [M for M in indices
            if shape.restrict(M, "ABC") == M or shape.restrict(M, "D") == M]
    assert (len(ones), len(indices)) == (one_factor, constrained)
    for M in indices:
        for a in range(-2, 3):
            f = n_ad(shape, M, a, 0)
            bar = basis.n_bar(shape, M, a)
            assert bar == bar_local(f), (M, a)
            if M in ones:
                shift = -2 * ref_psi_power(shape, M, a, 0)
                assert bar == LocalElement(shape, {
                    k: c.shift(shift - 2 * a * shape.odd_degree(k[0]))
                    for k, c in f.terms.items()}), (M, a)


def test_one_factor_indices_never_reverse_words():
    def refuse(f):
        raise AssertionError("bar_local called on a one-factor index")

    S31 = Shape(3, 1)
    block = [M for M in enumerate_block(S31, (2,) * 4, (2,) * 4) if is_constrained(S31, M)]
    assert len(block) == 54
    small = [M for deg in range(3) for M in degree_matrices(S21, deg)
             if is_constrained(S21, M)]
    clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "bar_local", refuse)
        for variant in Variant:
            for M in block:
                omega_global(S31, M, 0, 0, variant)
            for M in small:
                for a in (-1, 0):
                    omega_global(S21, M, a, 0, variant)


def test_two_factor_blocks_never_reverse_words():
    # at an index with both an ABC and a D part, omega_global builds the bar
    # of n_ad from its factors too, so no word is reversed: x12 y34 at
    # (2|2), and the (2,2,2,2) blocks at (2|2), where all indices but one
    # have both parts, and at (1|3), where every index has both
    def refuse(f):
        raise AssertionError("bar_local called by omega_global")

    S13 = Shape(1, 3)
    x12_y34 = (0, 1, 0, 0,
               0, 0, 0, 0,
               0, 0, 0, 1,
               0, 0, 0, 0)
    blocks = {shape: [M for M in enumerate_block(shape, (2,) * 4, (2,) * 4)
                      if is_constrained(shape, M)] for shape in (S22, S13)}
    two = {shape: sum(shape.restrict(M, "ABC") != M and shape.restrict(M, "D") != M
                      for M in block) for shape, block in blocks.items()}
    assert [(len(blocks[s]), two[s]) for s in (S22, S13)] == [(70, 69), (54, 54)]
    blocks[S22].append(x12_y34)
    clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "bar_local", refuse)
        patch.setattr(glq, "bar_local", refuse)
        built = [omega_global(shape, M, 0, 0, Variant.PLUS_Q).expansion
                 for shape, block in blocks.items() for M in block]
    assert all(bar_local(f) == f for f in built)
