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
from qsuper.glq import LocalElement, bar_local, berezinian, is_constrained
from qsuper.basis import (
    NotConstrained,
    TriangularityViolation,
    covariant_shift_check,
    express_in_n,
    leq,
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
    solve_block,
    submatrix_moves,
    _block_element,
)

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
    """North-west partial sums, a dominance proxy for the move order."""
    return tuple(
        sum(M[(u - 1) * N + (v - 1)] for u in range(1, i + 1) for v in range(1, j + 1))
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    )


def corner_dominates(M, N, size: int) -> bool:
    """Entrywise corner-sum comparison, the reference for ``leq``."""
    return all(a <= b for a, b in zip(corner_sums(M, size), corner_sums(N, size)))


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

    @pytest.mark.parametrize("shape,ro,co", [
        (S11, (1, 1), (1, 1)),
        (S21, (1, 1, 1), (1, 1, 1)),
        (S21, (2, 1, 1), (1, 2, 1)),
        (S22, (1, 1, 1, 1), (1, 1, 1, 1)),
    ])
    def test_corner_dominance_agrees(self, shape, ro, co):
        block = enumerate_block(shape, ro, co)
        assert len(block) <= 200
        for M in block:
            for N in block:
                assert leq(shape, M, N) == corner_dominates(M, N, shape.size)


class TestSolveBlock:
    def test_rank_one_block(self):
        block = enumerate_block(S11, (1, 1), (1, 1))
        out = solve_block(S11, block, lambda M: x_norm(S11, M), Variant.PLUS_Q)
        expect_diag = gen(S11, 1, 1) * gen(S11, 2, 2) + (
            gen(S11, 1, 2) * gen(S11, 2, 1)
        ).scale(lp({2: 1}))
        assert out[DIAG] == expect_diag
        assert out[ANTI] == gen(S11, 1, 2) * gen(S11, 2, 1)

    def test_zero_matrix(self):
        Z = zero_matrix(2)
        out = solve_block(S11, [Z], lambda M: x_norm(S11, M), Variant.PLUS_Q)
        assert out[Z] == AlgebraElement.one(S11)

    def test_order_independence(self):
        block = enumerate_block(S21, (1, 1, 0), (1, 1, 0))
        fwd = solve_block(S21, block, lambda M: x_norm(S21, M), Variant.PLUS_Q)
        rev = solve_block(
            S21, list(reversed(block)), lambda M: x_norm(S21, M), Variant.PLUS_Q
        )
        assert fwd == rev

    def test_order_cycle_raises(self, monkeypatch):
        # a move order in which DIAG and ANTI lie below each other has no
        # maximal element, a kernel fault rather than a choice
        monkeypatch.setattr(basis, "_downset", lambda shape, M: frozenset({DIAG, ANTI}))
        block = enumerate_block(S11, (1, 1), (1, 1))
        with pytest.raises(TriangularityViolation, match="no maximal element"):
            basis._pick_maximal(S11, block)
        with pytest.raises(TriangularityViolation):
            solve_block(S11, block, lambda M: x_norm(S11, M), Variant.PLUS_Q)

    def test_minus_variant(self):
        block = enumerate_block(S11, (1, 1), (1, 1))
        out = solve_block(S11, block, lambda M: x_norm(S11, M), Variant.MINUS_Q)
        assert out[DIAG] == gen(S11, 1, 1) * gen(S11, 2, 2) + (
            gen(S11, 1, 2) * gen(S11, 2, 1)
        ).scale(lp({-2: -1}))


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
        from qsuper.superspace import c_block_minor

        assert omega_C(S22, tuple(M)).expansion == c_block_minor(S22, 2)

    def test_zero(self):
        Z = zero_matrix(2)
        assert omega_C(S11, Z).expansion == AlgebraElement.one(S11)


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
        f = _block_element(S22, tuple(M), "D")
        assert f.bar() == f
        lead = x_norm(S22, tuple(M))
        for c in (f - lead).terms.values():
            assert c.positive_part().is_zero() and c.coeff(0) == 0

    def test_det_shift(self):
        # detD' * Omega(M4) = Omega(M4 + I), checked in the x-picture
        M = [0] * 16
        M[2 * 4 + 3] = 1  # one off-diagonal entry
        f = _block_element(S22, tuple(M), "D")
        lhs = det_qinv_D(S22) * f
        shifted = list(M)
        shifted[2 * 4 + 2] += 1
        shifted[3 * 4 + 3] += 1
        assert lhs == _block_element(S22, tuple(shifted), "D")

    def test_dprime_det_is_basis_element(self):
        M = [0] * 16
        M[2 * 4 + 2] = 1
        M[3 * 4 + 3] = 1
        f = _block_element(S22, tuple(M), "D")
        assert f == det_qinv_D(S22)


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
        lhs = n_ad(S11, M, a, d) * berezinian(S11)
        assert lhs == n_ad(S11, M, a + 1, d - 1)

    def test_berezinian_shift_rank_two(self):
        M = (0, 0, 1, 0, 0, 0, 0, 1, 0)
        lhs = n_ad(S21, M, 0, 0) * berezinian(S21)
        assert lhs == n_ad(S21, M, 1, -1)

    def test_psi_row_term(self):
        # x_21 y_22 at (1|2): a C-letter and a y-letter share the odd row 2,
        # and y_22 x_21 = q^2 x_21 y_22 adds 1 to Psi
        M = (0, 0, 0, 1, 1, 0, 0, 0, 0)
        assert psi_power(Shape(1, 2), M, 0, 0) == 1


@pytest.mark.parametrize("shape", [
    S11, S21, Shape(1, 2), S22, Shape(3, 1), Shape(1, 3),
], ids=str)
def test_n_family_bar_certificate(shape):
    # bar(n_ad(K)) is n_ad(K) plus strictly p-lower members of the N family,
    # for every constrained key of degree <= 2 in three det sectors
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
    for block in all_blocks(shape, degree):
        columns = {M: x_norm(shape, M) for M in block}
        index_set = set(block)
        for variant in Variant:
            want = reference_elements(
                block, columns.__getitem__, lambda f: f.bar(), variant,
                lambda sup: basis._pick_maximal(shape, sup),
                lambda S, T: S != T and S in basis._downset(shape, T) and S in index_set)
            got = solve_block(shape, block, lambda M: x_norm(shape, M), variant)
            assert list(got) == list(want) and got == want, (block, variant)


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
                        [key], lambda k: n_ad(shape, *k), bar_local, variant,
                        lambda sup: basis._pick_maximal_global(shape, sup),
                        lambda S, T: p_strictly_lower(shape, S, T))[key]
                    assert omega_global(shape, M, a, d, variant).expansion == want, (
                        key, variant)
