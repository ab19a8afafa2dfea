import itertools

import pytest

from qsuper.laurent import LaurentPoly
from qsuper.algebra import AlgebraElement, Shape, _put
from qsuper.superspace import (
    _times_gen,
    coact,
    coact_star,
    covariant_minor,
    covariant_minor_star,
    det_q_A,
    det_qinv_D,
    evec,
    interval,
    laplace_verify,
    minor,
    minor_star,
    valid_vector,
    var_parity,
    vector_parity,
)

S11 = Shape(1, 1)
S21 = Shape(2, 1)
S22 = Shape(2, 2)


SMALL_SHAPES = [Shape(m, n) for m in range(1, 6) for n in range(1, 7 - m)]


def lp(d):
    return LaurentPoly(d)


def _inversions(sigma) -> int:
    return sum(
        1 for s in range(len(sigma)) for t in range(s + 1, len(sigma)) if sigma[s] > sigma[t]
    )


def perm_coefficients(n: int, base: int, sign: int = -1):
    """(sigma, (sign * q^base)^inversions(sigma)) for each permutation of
    range(n): the coefficient rule of the q-determinants."""
    for sigma in itertools.permutations(range(n)):
        l = _inversions(sigma)
        yield sigma, LaurentPoly.q_power(base * l, sign**l)


def _perm_sum(shape: Shape, rows, cols, base: int, sign: int = -1) -> AlgebraElement:
    """Sum over bijections of (sign * q^base)^inversions, rows in order: an
    independent code path for the determinants and block minors.

    Even-block determinants use sign -1; for the odd blocks the super
    swap cancels the -1 and each inversion contributes +q^base.
    """
    total = AlgebraElement.zero(shape)
    for sigma, coeff in perm_coefficients(len(cols), base, sign):
        word = [(rows[t], cols[sigma[t]]) for t in range(len(rows))]
        total = total + AlgebraElement.from_word(shape, word, coeff)
    return total


def sub_minor_A(shape: Shape, l: int, k: int) -> AlgebraElement:
    """Determinant of the even q-block with row l and column k removed."""
    if not (1 <= l <= shape.m and 1 <= k <= shape.m):
        raise IndexError(f"sub-minor index ({l},{k}) outside the q-block")
    rows = [i for i in interval(1, shape.m) if i != l]
    cols = [j for j in interval(1, shape.m) if j != k]
    return _perm_sum(shape, rows, cols, 2)


def c_block_minor(shape: Shape, r: int) -> AlgebraElement:
    """Explicit q^-2-permutation sum for the lower-left block minor.

    The entries here are odd, so an inversion contributes +q^-2: the
    super sign of the swap absorbs the -1 of the even-block formula.
    """
    return _perm_sum(shape, interval(shape.m + 1, shape.m + r), interval(1, r), -2, sign=1)


def b_block_minor_star(shape: Shape, r: int) -> AlgebraElement:
    """Explicit q^2-permutation sum for the upper-right block minor."""
    return _perm_sum(shape, interval(1, r), interval(shape.m + 1, shape.m + r), 2, sign=1)


def gen(shape, i, j):
    return AlgebraElement.generator(shape, i, j)


class TestCoact:
    def test_generator(self):
        comps = coact(S21, (1, 0, 0))
        assert comps == {
            (1, 0, 0): gen(S21, 1, 1),
            (0, 1, 0): gen(S21, 1, 2),
            (0, 0, 1): gen(S21, 1, 3),
        }

    def test_empty(self):
        assert coact(S11, (0, 0)) == {(0, 0): AlgebraElement.one(S11)}

    def test_degree_two_component(self):
        comps = coact(S11, (1, 1))
        expect = gen(S11, 1, 1) * gen(S11, 2, 2) - (
            gen(S11, 1, 2) * gen(S11, 2, 1)
        ).scale(lp({-2: 1}))
        assert comps[(1, 1)] == expect

    def test_invalid_vector_is_zero(self):
        assert coact(S11, (0, 2)) == {}
        assert not valid_vector(S11, (0, 2), False)

    @pytest.mark.parametrize("a", [(1,), (1, 0, 0), (-1, 1), (1, -1)])
    def test_wrong_length_or_negative_entry_is_invalid(self, a):
        for star in (False, True):
            assert not valid_vector(S11, a, star)

    def test_star_generator(self):
        comps = coact_star(S11, (1, 0))
        assert comps == {(1, 0): gen(S11, 1, 1), (0, 1): gen(S11, 1, 2)}

    def test_star_determinant_component(self):
        comps = coact_star(S21, (1, 1, 0))
        expect = gen(S21, 1, 1) * gen(S21, 2, 2) - (
            gen(S21, 1, 2) * gen(S21, 2, 1)
        ).scale(lp({2: 1}))
        assert comps[(1, 1, 0)] == expect

    def test_degrees_match(self):
        for b in coact(S22, (1, 0, 1, 0)):
            assert sum(b) == 2


def crossing_times_gen(shape, b, j, star):
    """v^b * v_j counted directly: v_j crosses every variable k > j of b,
    each crossing a q^-2 (row space) or q^2 (dual space), and a sign for
    each odd one when v_j is odd."""
    pj = var_parity(shape, j, star)
    if pj and b[j - 1] >= 1:
        return None
    cross = sum(b[j:])
    oddcross = sum(b[k - 1] for k in range(j + 1, shape.size + 1) if var_parity(shape, k, star))
    factor = LaurentPoly.q_power((2 if star else -2) * cross, (-1) ** (pj * oddcross))
    return factor, tuple(v + (k == j) for k, v in enumerate(b, start=1))


@pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2), S22, Shape(3, 1), Shape(1, 3)], ids=str)
def test_times_gen_is_the_reorder_factor_of_one_variable(shape):
    # _times_gen reads its factor from reorder_factor(b, e_j)
    N = shape.size
    cases = 0
    for star in (False, True):
        for b in itertools.product(range(3), repeat=N):
            for j in range(1, N + 1):
                assert _times_gen(shape, b, j, star) == crossing_times_gen(shape, b, j, star)
                cases += 1
    assert cases == 2 * N * 3 ** N


def ref_coact(shape, a, star):
    """The coaction of v^a as products: each component F at b is carried
    to F x_ij times the factor of v^b v_j, for every letter v_i of v^a in
    turn; the reference for the kernel's path walk."""
    N = shape.size
    if not valid_vector(shape, a, star):
        return {}
    comps = {(0,) * N: AlgebraElement.one(shape)}
    for i in (i for i in range(1, N + 1) for _ in range(a[i - 1])):
        nxt: dict = {}
        for b, F in comps.items():
            pb = vector_parity(shape, b, star)
            for j in range(1, N + 1):
                hit = crossing_times_gen(shape, b, j, star)
                if hit is not None:
                    factor, nb = hit
                    sgn = (-1) ** (pb * shape.gen_parity(i, j))
                    _put(nxt, nb, (F * gen(shape, i, j)).scale(factor.scale(sgn)))
        comps = nxt
    return comps


@pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2), S22, Shape(3, 1)], ids=str)
def test_minors_are_the_components_of_the_product_coaction(shape):
    # every row and column vector of degree <= 3, odd squares and degree
    # mismatches included: minor reads only the paths that reach cols
    N = shape.size
    indices = [c for k in range(4) for c in itertools.combinations_with_replacement(
        range(1, N + 1), k)]
    zero = AlgebraElement.zero(shape)
    for star, fn, full in ((False, minor, coact), (True, minor_star, coact_star)):
        seen = set()
        for rows in indices:
            a = evec(shape, rows)
            expect = ref_coact(shape, a, star)
            assert full(shape, a) == expect, (rows, star)
            for cols in indices:
                got = fn(shape, rows, cols)
                assert got == expect.get(evec(shape, cols), zero), (rows, cols, star)
                seen.add((valid_vector(shape, a, star), got.is_zero()))
        # valid and invalid rows, zero and nonzero minors all occur
        assert seen == {(True, True), (True, False), (False, True)}


class TestMinorIndices:
    # an index outside 1..N names no row or column; it must not wrap
    # around to the last rows or fail inside the exponent vector

    def test_index_zero(self):
        with pytest.raises(IndexError, match="index 0"):
            minor(S21, (0,), (1,))

    def test_negative_index(self):
        with pytest.raises(IndexError, match="index -1"):
            minor_star(S21, (1, -1), (1, 2))

    def test_index_past_the_end(self):
        with pytest.raises(IndexError, match="index 4"):
            minor_star(S21, (1, 4), (1, 2))
        with pytest.raises(IndexError, match="index 4"):
            minor(S21, (1,), (4,))


class TestDeterminants:
    def test_det_A_rank_one(self):
        assert det_q_A(S11) == gen(S11, 1, 1)

    def test_det_A_rank_two(self):
        expect = gen(S21, 1, 1) * gen(S21, 2, 2) - (
            gen(S21, 1, 2) * gen(S21, 2, 1)
        ).scale(lp({2: 1}))
        assert det_q_A(S21) == expect

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_det_A_matches_coaction(self, shape):
        rows = interval(1, shape.m)
        assert det_q_A(shape) == _perm_sum(shape, rows, rows, 2)

    def test_det_D_rank_one(self):
        assert det_qinv_D(S21) == gen(S21, 3, 3)

    def test_det_D_rank_two(self):
        expect = gen(S22, 3, 3) * gen(S22, 4, 4) - (
            gen(S22, 3, 4) * gen(S22, 4, 3)
        ).scale(lp({-2: 1}))
        assert det_qinv_D(S22) == expect

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_det_D_matches_coaction(self, shape):
        rows = interval(shape.m + 1, shape.size)
        assert det_qinv_D(shape) == _perm_sum(shape, rows, rows, -2)


class TestSubMinors:
    def test_rank_one_empty(self):
        assert sub_minor_A(S11, 1, 1) == AlgebraElement.one(S11)

    def test_rank_two(self):
        assert sub_minor_A(S21, 1, 1) == gen(S21, 2, 2)
        assert sub_minor_A(S21, 1, 2) == gen(S21, 2, 1)
        assert sub_minor_A(S21, 2, 2) == gen(S21, 1, 1)

    def test_rank_three(self):
        s31 = Shape(3, 1)
        expect = gen(s31, 2, 1) * gen(s31, 3, 3) - (
            gen(s31, 2, 3) * gen(s31, 3, 1)
        ).scale(lp({2: 1}))
        assert sub_minor_A(s31, 1, 2) == expect

    def test_out_of_block(self):
        with pytest.raises(IndexError):
            sub_minor_A(S11, 1, 2)


class TestBlockMinors:
    @pytest.mark.parametrize("shape,r", [(S11, 1), (S21, 1), (S22, 1), (S22, 2)])
    def test_c_block_against_coaction(self, shape, r):
        rows = interval(shape.m + 1, shape.m + r)
        assert c_block_minor(shape, r) == minor(shape, rows, interval(1, r))

    @pytest.mark.parametrize("shape,r", [(S11, 1), (S21, 1), (S22, 1), (S22, 2)])
    def test_b_block_against_coaction(self, shape, r):
        cols = interval(shape.m + 1, shape.m + r)
        assert b_block_minor_star(shape, r) == minor_star(shape, interval(1, r), cols)

    def test_covariant_edges(self):
        assert covariant_minor_star(S21, 1) == gen(S21, 1, 3)
        assert covariant_minor(S21, 1) == gen(S21, 3, 1)
        assert not covariant_minor_star(S22, 2).is_zero()


class TestBarInvariance:
    @pytest.mark.parametrize("shape", [S21, S22, Shape(3, 1)])
    def test_consecutive_star_minors(self, shape):
        N = shape.size
        for r in range(1, N + 1):
            for s in range(1, N - r + 2):
                f = minor_star(shape, interval(1, r), interval(s, s + r - 1))
                if f.is_zero():
                    continue
                assert f.bar() == f, (shape, r, s)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_determinants(self, shape):
        assert det_q_A(shape).bar() == det_q_A(shape)
        assert det_qinv_D(shape).bar() == det_qinv_D(shape)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_c_block(self, shape):
        for r in range(1, min(shape.m, shape.n) + 1):
            f = c_block_minor(shape, r)
            assert f.bar() == f


def _vectors(shape, deg, star):
    N = shape.size
    caps = [
        1 if (shape.parity(i) == (0 if star else 1)) else deg
        for i in range(1, N + 1)
    ]
    for a in itertools.product(*(range(min(c, deg) + 1) for c in caps)):
        if sum(a) == deg:
            yield a


class TestLaplace:
    def test_basic_pair(self):
        assert laplace_verify(S11, (1, 0), (0, 1), star=False)
        assert laplace_verify(S11, (1, 0), (0, 1), star=True)

    def test_trivial_factor(self):
        assert laplace_verify(S21, (1, 1, 0), (0, 0, 0), star=False)

    def test_three_rows(self):
        assert laplace_verify(S21, (1, 0, 0), (0, 1, 1), star=False)
        assert laplace_verify(S21, (1, 0, 0), (0, 1, 1), star=True)

    @pytest.mark.parametrize("shape", [S11, S21])
    @pytest.mark.parametrize("star", [False, True])
    def test_low_degree_sweep(self, shape, star):
        for d1 in range(3):
            for d2 in range(3 - d1):
                for a in _vectors(shape, d1, star):
                    for a2 in _vectors(shape, d2, star):
                        assert laplace_verify(shape, a, a2, star), (a, a2)
