import itertools
from functools import lru_cache

import pytest

import qsuper
from qsuper import actions, exactlinalg, glq, superspace
from qsuper.laurent import LaurentPoly, ONE
from qsuper.algebra import (
    _put,
    AlgebraElement,
    LinearElement,
    NonHomogeneous,
    Shape,
    col_sums,
    degree_matrices,
    enumerate_block,
    matrix_codes,
    matrix_to_word,
    row_sums,
    unit_matrix,
    word_to_matrix,
    zero_matrix,
)
from qsuper.superspace import det_q_A
from qsuper.glq import (
    LocalElement,
    bar_local,
    berezinian,
    det_a_local,
    det_dprime_local,
    TriangularityViolation,
    detDprime_poly,
    format_local,
    from_mixed,
    sl_project,
    to_mixed,
    word_poly,
    y_times_detA,
)
from test_algebra import QSQ_DIFF
from test_superspace import perm_coefficients, sub_minor_A


# -- the raw form, as the reference for the polynomial builders ---------------
#
# The kernel once computed in a second element algebra: sums of ordered
# x-monomials with a power of detA at the far right, multiplied letter by
# letter.  It is kept here as the reference that word_poly, detDprime_poly
# and y_times_detA are pinned against, and that the oracles below run on.
# Its lower-block letters use the cofactor sum T_uv of the detA commutator,
# a formula for y_uv detA independent of the kernel's quantum minor.


@lru_cache(maxsize=None)
def t_correction(shape, mu, nu):
    """T_uv with detA * x_uv = x_uv * detA + (q^2 - q^-2) T_uv:
    sum_{k,l} (-q^2)^(k-l) x_uk A_lk x_lv over the q-block, with A_lk the
    sub-determinant deleting row l and column k."""
    m = shape.m
    out = AlgebraElement.zero(shape)
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            coeff = LaurentPoly.q_power(2 * (k - l), (-1) ** (k - l))
            term = (
                AlgebraElement.generator(shape, mu, k)
                * sub_minor_A(shape, l, k)
                * AlgebraElement.generator(shape, l, nu)
            ).scale(coeff)
            out = out + term
    return out


class RawElement(LinearElement):
    """Finite sum of c * x^M detA^e with x^M an ordered x-monomial; keys (M, e).

    A raw form is not a normal form: one element has many raw forms (a
    factor detA may sit inside x^M or in the exponent e), so == compares
    formal sums only.  Compare elements through expand_raw.
    """

    __slots__ = ()

    @classmethod
    def one(cls, shape):
        return cls(shape, {(zero_matrix(shape.size), 0): ONE})

    @classmethod
    def from_alg(cls, f):
        return cls(f.shape, {(N, 0): c for N, c in f.terms.items()})

    def shift_det(self, k):
        """self * detA^k."""
        if k == 0:
            return self
        return RawElement(self.shape, {(N, e + k): c for (N, e), c in self.terms.items()})

    def times_detDprime(self, p):
        """self * detD'^p for p >= 0."""
        if p == 0:
            return self
        return self * detDprime_power(self.shape, p)

    def __mul__(self, other):
        self._check(other)
        shape = self.shape
        out = {}
        for (M, e), c in other.terms.items():
            cur = self.scale(c)
            for letter in matrix_to_word(M, shape.size):
                cur = raw_times_gen(shape, cur, *letter)
            for (N, e1), c1 in cur.terms.items():
                _put(out, (N, e1 + e), c1)
        return RawElement(shape, out)


def _det_push_series(e):
    """(q^(4e) - 1)/(q^4 - 1): the geometric factor when detA^e passes a
    lower-block generator."""
    if e >= 0:
        return LaurentPoly({4 * t: 1 for t in range(e)})
    return LaurentPoly({-4 * t: -1 for t in range(1, -e + 1)})


def raw_times_gen(shape, raw, i, j):
    """Right-multiply a raw element by the generator x_ij."""
    m = shape.m
    gen = AlgebraElement.generator(shape, i, j)
    out = {}
    for (N, e), c in raw.terms.items():
        base = AlgebraElement(shape, {N: c}) * gen
        if e == 0 or (i <= m and j <= m):
            for N2, c2 in base.terms.items():
                _put(out, (N2, e), c2)
        elif i <= m or j <= m:
            # mixed entry: detA^e x_ij = q^(2e) x_ij detA^e
            for N2, c2 in base.terms.items():
                _put(out, (N2, e), c2.shift(2 * e))
        else:
            # lower-block entry: correction term drops one detA power
            for N2, c2 in base.terms.items():
                _put(out, (N2, e), c2)
            corr = AlgebraElement(shape, {N: c}) * t_correction(shape, i, j)
            factor = QSQ_DIFF * _det_push_series(e)
            for N2, c2 in corr.scale(factor).terms.items():
                _put(out, (N2, e - 1), c2)
    return RawElement(shape, out)


@lru_cache(maxsize=None)
def y_entry(shape, mu, nu):
    """Raw form of the Schur complement entry y_uv = x_uv - q^-2 T_uv detA^-1."""
    if not (shape.m < mu <= shape.size and shape.m < nu <= shape.size):
        raise IndexError(f"y index ({mu},{nu}) outside the lower block")
    corr = t_correction(shape, mu, nu).scale(LaurentPoly.q_power(-2, -1))
    return raw_times_gen(shape, RawElement.one(shape), mu, nu) + (
        RawElement.from_alg(corr).shift_det(-1)
    )


@lru_cache(maxsize=None)
def detDprime_raw(shape):
    """Raw form of the q^-1-determinant of the y-matrix."""
    m, n = shape.m, shape.n
    out = RawElement.zero(shape)
    for tau, c in perm_coefficients(n, -2):
        cur = RawElement.one(shape).scale(c)
        for t in range(n):
            cur = cur * y_entry(shape, m + 1 + t, m + 1 + tau[t])
        out = out + cur
    return out


@lru_cache(maxsize=None)
def detDprime_power(shape, p):
    if p < 0:
        raise ValueError("raw form only supports nonnegative detD' powers")
    if p == 0:
        return RawElement.one(shape)
    return detDprime_power(shape, p - 1) * detDprime_raw(shape)


def expand_raw(shape, raw, K):
    """Polynomial form of raw * detA^K; every detA power must clear."""
    out = AlgebraElement.zero(shape)
    for (N, e), c in raw.terms.items():
        if e + K < 0:
            raise ValueError("detA power still negative; increase K")
        out = out + AlgebraElement(shape, {N: c}) * glq._detA_power_alg(shape, e + K)
    return out


@lru_cache(maxsize=None)
def rho(shape, M):
    """Raw form of the mixed word of M: x-letters for the first three
    blocks, y-letters for the lower-right block, in lexicographic order."""
    raw = RawElement.one(shape)
    for (i, j) in matrix_to_word(M, shape.size):
        if i > shape.m and j > shape.m:
            raw = raw * y_entry(shape, i, j)
        else:
            raw = raw_times_gen(shape, raw, i, j)
    return raw


S11 = Shape(1, 1)
S21 = Shape(2, 1)
S22 = Shape(2, 2)
S12 = Shape(1, 2)
S31 = Shape(3, 1)

QSQ = LaurentPoly({2: 1, -2: -1})


def lp(d):
    return LaurentPoly(d)


def gen(shape, i, j):
    return AlgebraElement.generator(shape, i, j)


def mixed_generators(shape: Shape):
    """All x-generators of the first three blocks plus all y-generators."""
    return [LocalElement.y_gen(shape, i, j) if shape.block(i, j) == "D"
            else LocalElement.x_gen(shape, i, j) for i, j in shape.generators()]


def is_central(f: LocalElement) -> bool:
    return all(f * g == g * f for g in mixed_generators(f.shape))


def raw_eq(shape, r1, r2):
    """Equality of raw elements via a common polynomial embedding."""
    exps = [e for (_, e) in r1.terms] + [e for (_, e) in r2.terms]
    K = max(0, -min(exps, default=0))
    return expand_raw(shape, r1, K) == expand_raw(shape, r2, K)


def lower_pairs(shape):
    N = shape.size
    return [
        (mu, nu)
        for mu in range(shape.m + 1, N + 1)
        for nu in range(shape.m + 1, N + 1)
    ]


class TestDetPush:
    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_lower_block_commutator(self, shape):
        dA = det_q_A(shape)
        for mu, nu in lower_pairs(shape):
            x = gen(shape, mu, nu)
            assert dA * x == x * dA + t_correction(shape, mu, nu).scale(QSQ)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_mixed_q_commutation(self, shape):
        dA = det_q_A(shape)
        for i in range(1, shape.m + 1):
            for nu in range(shape.m + 1, shape.size + 1):
                for x in (gen(shape, i, nu), gen(shape, nu, i)):
                    assert dA * x == (x * dA).scale(lp({2: 1}))

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_det_t_q4_commutation(self, shape):
        dA = det_q_A(shape)
        for mu, nu in lower_pairs(shape):
            t = t_correction(shape, mu, nu)
            assert dA * t == (t * dA).scale(lp({4: 1}))


class TestYEntries:
    def test_rank_one_oracle(self):
        raw = y_entry(S11, 2, 2)
        assert raw.terms == {
            ((0, 0, 0, 1), 0): ONE,
            ((0, 1, 1, 0), -1): lp({-2: 1}),
        }

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_bar_invariance(self, shape):
        # bar(y) = y iff bar(y detA) = y detA, a polynomial statement
        for mu, nu in lower_pairs(shape):
            h = expand_raw(shape, y_entry(shape, mu, nu), 1)
            assert h.bar() == h

    def test_out_of_block(self):
        with pytest.raises(IndexError):
            y_entry(S21, 1, 3)

    def test_qinv_matrix_row_relation(self):
        # same-row entries of the Schur complement q^-2-commute
        y33 = y_entry(S22, 3, 3)
        y34 = y_entry(S22, 3, 4)
        lhs = y33 * y34
        rhs = (y34 * y33).scale(lp({-2: 1}))
        assert raw_eq(S22, lhs, rhs)

    def test_qinv_matrix_diagonal_relation(self):
        y33 = y_entry(S22, 3, 3)
        y34 = y_entry(S22, 3, 4)
        y43 = y_entry(S22, 4, 3)
        y44 = y_entry(S22, 4, 4)
        lhs = y33 * y44
        rhs = y44 * y33 + (y34 * y43).scale(lp({-2: 1, 2: -1}))
        assert raw_eq(S22, lhs, rhs)


class TestCommutationProposition:
    """The eight determinant commutation identities, checked raw."""

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_detA_commutes_with_upper_block(self, shape):
        dA = det_q_A(shape)
        for i in range(1, shape.m + 1):
            for j in range(1, shape.m + 1):
                x = gen(shape, i, j)
                assert dA * x == x * dA

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_detA_commutes_with_y(self, shape):
        dA = RawElement.from_alg(det_q_A(shape))
        for mu, nu in lower_pairs(shape):
            y = y_entry(shape, mu, nu)
            assert raw_eq(shape, dA * y, y * dA)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_detDprime_commutes_with_upper_block(self, shape):
        dD = detDprime_raw(shape)
        for i in range(1, shape.m + 1):
            for j in range(1, shape.m + 1):
                x = RawElement.from_alg(gen(shape, i, j))
                assert raw_eq(shape, dD * x, x * dD)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_detDprime_q_commutes_with_mixed(self, shape):
        dD = detDprime_raw(shape)
        for i in range(1, shape.m + 1):
            for nu in range(shape.m + 1, shape.size + 1):
                for g in ((i, nu), (nu, i)):
                    x = RawElement.from_alg(gen(shape, *g))
                    lhs = dD * x
                    rhs = (x * dD).scale(lp({2: 1}))
                    assert raw_eq(shape, lhs, rhs), g

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_detDprime_commutes_with_y(self, shape):
        dD = detDprime_raw(shape)
        for mu, nu in lower_pairs(shape):
            y = y_entry(shape, mu, nu)
            assert raw_eq(shape, dD * y, y * dD)

    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_berezinian_central_raw(self, shape):
        # Ber g = g Ber <=> detA g detD' = detD' g detA
        dA = RawElement.from_alg(det_q_A(shape))
        dD = detDprime_raw(shape)
        gens = [RawElement.from_alg(gen(shape, i, j)) for i, j in shape.generators()]
        for g in gens:
            lhs = dA * g * dD
            rhs = dD * g * dA
            assert raw_eq(shape, lhs, rhs)

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_berezinian_central_local(self, shape):
        assert is_central(berezinian(shape))


class TestPolynomialBuilders:
    """The kernel's polynomials over a power of detA against the raw form."""

    @pytest.mark.parametrize("shape,degree", [
        (S11, 3), (S21, 3), (S12, 3), (S22, 2), (S31, 2),
    ])
    def test_word_poly_matches_raw(self, shape, degree):
        for deg in range(degree + 1):
            for M in degree_matrices(shape, deg):
                r = glq.y_degree(shape, M)
                assert word_poly(shape, M) == expand_raw(shape, rho(shape, M), r), M

    @pytest.mark.parametrize("shape", [S11, S21, S12, S22, S31])
    def test_y_times_detA_matches_raw(self, shape):
        for mu, nu in lower_pairs(shape):
            assert y_times_detA(shape, mu, nu) == expand_raw(shape, y_entry(shape, mu, nu), 1)

    @pytest.mark.parametrize("shape,top", [
        (S11, 2), (S21, 2), (S12, 2), (S22, 1), (S31, 2),
    ])
    def test_detDprime_poly_matches_raw(self, shape, top):
        # the raw detD'^2 at (2|2) takes 11 s to expand
        n = shape.n
        for p in range(top + 1):
            raw = detDprime_power(shape, p)
            assert detDprime_poly(shape, p) == expand_raw(shape, raw, n * p), p
        # p = top + 1 against the power of the checked p = 1
        assert detDprime_poly(shape, top + 1) == detDprime_poly(shape, 1) ** (top + 1)

    @pytest.mark.parametrize("shape", [Shape(m, n) for m in range(1, 5)
                                       for n in range(1, 6 - m)], ids=str)
    def test_detDprime_poly_is_the_permutation_sum(self, shape):
        # the D-block minor read in y-letters against the q^-1-determinant
        # of the y-matrix by its permutation rule, to n = 4
        m, n = shape.m, shape.n
        expect = AlgebraElement.zero(shape)
        for tau, c in perm_coefficients(n, -2):
            cur = AlgebraElement.one(shape).scale(c)
            for t in range(n):
                cur = cur * y_times_detA(shape, m + 1 + t, m + 1 + tau[t])
            expect = expect + cur
        assert detDprime_poly(shape, 1) == expect

    def test_out_of_block(self):
        for mu, nu in ((1, 3), (3, 1), (1, 1)):
            with pytest.raises(IndexError):
                y_times_detA(S21, mu, nu)

    def test_negative_detDprime_power(self):
        with pytest.raises(ValueError):
            detDprime_poly(S21, -1)


class TestMixedForm:
    def test_x22_rank_one(self):
        f = to_mixed(gen(S11, 2, 2))
        assert f.terms == {
            (zero_matrix(2), 0, 1): ONE,
            ((0, 1, 1, 0), -1, 0): lp({-2: -1}),
        }

    def test_x11_rank_one_is_detA(self):
        f = to_mixed(gen(S11, 1, 1))
        assert f.terms == {(zero_matrix(2), 1, 0): ONE}

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_roundtrip(self, shape):
        N = shape.size
        f = AlgebraElement.one(shape)
        for i in range(1, N + 1):
            f = f * (gen(shape, i, i) + gen(shape, 1, N))
        assert from_mixed(to_mixed(f)) == f

    def test_roundtrip_rank_two_lower(self):
        f = gen(S22, 3, 3) * gen(S22, 4, 4)
        assert from_mixed(to_mixed(f)) == f

    def test_roundtrip_rank_three_lower(self):
        f = gen(S22, 3, 3) * gen(S22, 3, 4) * gen(S22, 4, 4)
        assert from_mixed(to_mixed(f)) == f

    @pytest.mark.parametrize("shape,degree", [
        (S11, 4), (S21, 3), (S12, 3), (S22, 3), (S31, 2),
    ], ids=str)
    def test_letter_product_matches_peeling(self, shape, degree):
        # to_mixed(x^M) is the word-order product of its letters' mixed
        # images; on every monomial it equals peeling x^M whole, and
        # from_mixed inverts it (degree 3 at (3|1) passes too, in 3 s)
        for deg in range(degree + 1):
            for M in degree_matrices(shape, deg):
                f = AlgebraElement.monomial(shape, M)
                image = to_mixed(f)
                assert image == LocalElement(shape, ref_express_in_basis(shape, f, 0)), M
                assert from_mixed(image) == f, M

    def test_x_gen_lower_block_rejected(self):
        with pytest.raises(ValueError):
            LocalElement.x_gen(S11, 2, 2)

    @pytest.mark.parametrize("cell", [(1, 4), (0, 1), (2, 0), (-1, 1), (4, 1)])
    def test_generators_outside_the_matrix_raise(self, cell):
        with pytest.raises(IndexError):
            LocalElement.x_gen(S21, *cell)
        with pytest.raises(IndexError):
            LocalElement.y_gen(S21, *cell)

    @pytest.mark.parametrize("cell", [(1, 1), (1, 3), (3, 2)])
    def test_y_outside_the_lower_block_raises(self, cell):
        with pytest.raises(IndexError, match="lower block"):
            LocalElement.y_gen(S21, *cell)


class TestLocalArithmetic:
    def test_detA_q_commutes_with_mixed_gen(self):
        dA = det_a_local(S11)
        x12 = LocalElement.x_gen(S11, 1, 2)
        assert dA * x12 == (x12 * dA).scale(lp({2: 1}))

    def test_odd_square_zero(self):
        x12 = LocalElement.x_gen(S11, 1, 2)
        assert (x12 * x12).is_zero()

    def test_y_square_is_det_power(self):
        y = LocalElement.y_gen(S11, 2, 2)
        assert (y * y).terms == {(zero_matrix(2), 0, 2): ONE}

    def test_det_product_orders(self):
        dA = det_a_local(S21)
        dD = det_dprime_local(S21)
        assert dA * dD == dD * dA
        assert (dA * dD).terms == {(zero_matrix(3), 1, 1): ONE}

    def test_berezinian_inverse(self):
        ber = berezinian(S21)
        inv = LocalElement(S21, {(zero_matrix(3), -1, 1): ONE})
        assert ber * inv == LocalElement.one(S21)

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_associativity_with_inverses(self, shape):
        ber = berezinian(shape)
        y = LocalElement.y_gen(shape, shape.m + 1, shape.m + 1)
        x = LocalElement.x_gen(shape, 1, shape.size)
        assert (ber * y) * x == ber * (y * x)

    @pytest.mark.parametrize("shape", [S12, S22])
    def test_y_q_commutes_with_its_row_and_column(self, shape):
        # y_uv x_uj = q^2 x_uj y_uv and y_uv x_iv = q^2 x_iv y_uv for i, j <= m:
        # the two relations behind the positive terms of basis.psi_power
        for mu, nu in lower_pairs(shape):
            y = LocalElement.y_gen(shape, mu, nu)
            for k in range(1, shape.m + 1):
                for x in (LocalElement.x_gen(shape, mu, k), LocalElement.x_gen(shape, k, nu)):
                    assert y * x == (x * y).scale(lp({2: 1}))

    def test_biweight(self):
        assert det_a_local(S21).biweight() == ((1, 1, 0), (1, 1, 0))
        assert berezinian(S21).biweight() == ((1, 1, -1), (1, 1, -1))
        y = LocalElement.y_gen(S21, 3, 3)
        assert y.biweight() == ((0, 0, 1), (0, 0, 1))
        assert LocalElement.zero(S21).biweight() == ((0, 0, 0), (0, 0, 0))

    def test_two_det_sectors_are_not_homogeneous(self):
        # detA and detD' add to different row and column sums
        f = det_a_local(S21) + det_dprime_local(S21)
        with pytest.raises(NonHomogeneous):
            f.biweight()


@pytest.mark.parametrize("shape, degree, keys", [(S21, 3, 120), (S12, 3, 120), (S31, 2, 130),
                                                 (S22, 2, 143)], ids=str)
def test_pure_det_factors_re_key(shape, degree, keys):
    # W(T) detA^a detD'^d times detA^a2 detD'^d2, on either side, is the key
    # (T, a + a2, d + d2) with q^(2 (a + d) k) for k odd letters in front:
    # the reducer keeps the ordered word W(T) of a constrained T as its own
    # key, as the round trip does
    zero = zero_matrix(shape.size)
    window = actions._window_matrices(shape, degree)
    for T in window:
        codes = matrix_codes(T)
        assert glq._reduce_pair(shape, codes + ()) == glq._reduce_pair(shape, () + codes) == (
            ((T, 0, 0), ONE),)
        assert ref_reduce_pair(shape, T, zero) == ref_reduce_pair(shape, zero, T) == {
            (T, 0, 0): ONE}
        f = LocalElement(shape, {(T, 1, -1): lp({1: 2})})
        g = LocalElement(shape, {(zero, -2, 1): lp({-1: 1})})
        k = shape.odd_degree(T)
        assert (f * g).terms == {(T, -1, 0): lp({0: 2})}
        assert (g * f).terms == {(T, -1, 0): lp({-2 * k: 2})}
    assert len(window) == keys


def ref_express_in_basis(shape, g, K):
    """Coordinates of g detA^-K over the constrained mixed family, by the
    polynomial peel: the reference of glq.express_in_basis and of the
    letter images.

    The lex-largest monomial S of the residual names one member: lo_a and
    delta are the least diagonal entries of the A and D blocks of S, and
    Mt is S minus both diagonal shifts.  The member W(Mt) detD'^delta
    detA^lo_a = word_poly(Mt) detDprime_poly(delta) detA^e, e = lo_a -
    y_degree(Mt) - n delta, is a unit at S plus lex-lower monomials; when
    e < 0, the residual is multiplied by detA^-e and K grows.
    """
    n = shape.n
    rest = dict(g.terms)
    out = {}
    while rest:
        S = max(rest)
        lo_a, delta = (min(S[diag]) for diag in shape.diagonals)
        Mt = glq._shift_diagonal(shape, S, -lo_a, -delta)
        e = lo_a - glq.y_degree(shape, Mt) - n * delta
        if e < 0:
            rest = dict((AlgebraElement(shape, rest) * glq._detA_power_alg(shape, -e)).terms)
            K -= e
            continue
        col = glq._member(shape, Mt, delta, e).terms
        u = col.get(S)
        assert u is not None and u.is_unit() and max(col) == S, (Mt, S)
        c = rest[S] * u.bar()
        for T, b in col.items():
            _put(rest, T, -(c * b))
        out[(Mt, lo_a - K, delta)] = c
    return out


def ref_det_rule(shape, T):
    """W(T) detA^r = word_poly(T), r = y_degree(T), peeled as a polynomial."""
    return ref_express_in_basis(shape, word_poly(shape, T), glq.y_degree(shape, T))


@pytest.mark.parametrize("shape, degree, count", [
    (S11, 4, 37), (S21, 4, 221), (S12, 3, 60), (S22, 3, 34), (S31, 3, 148), (Shape(1, 3), 3, 148),
], ids=str)
def test_det_rule_matches_polynomial_peel(shape, degree, count):
    # the mixed det rule against the polynomial round trip on every
    # unconstrained matrix up to the degree
    words = [M for deg in range(degree + 1) for M in degree_matrices(shape, deg)
             if not glq.is_constrained(shape, M)]
    for T in words:
        assert dict(glq.express_in_basis(shape, T)) == ref_det_rule(shape, T), T
    assert len(words) == count


@pytest.mark.parametrize("shape", [Shape(m, n) for m in (1, 2, 3) for n in (1, 2, 3)], ids=str)
def test_letter_images_match_polynomial_peel(shape):
    # the closed form of every letter's mixed image against peeling the
    # generator as a polynomial
    for k, (i, j) in enumerate(shape.generators()):
        expect = ref_express_in_basis(shape, gen(shape, i, j), 0)
        assert glq._letter_image(shape, k) == LocalElement(shape, expect), (i, j)


def ref_reduce_pair(shape, M1, M2):
    """Constrained expansion of W(M1) W(M2) by the polynomial round trip,
    the reference of the mixed-word reducer.

    detA^r1 W(M2) = q^(2 r1 k2) W(M2) detA^r1 with r1 = y_degree(M1) and
    k2 = shape.odd_degree(M2), so W(M1) W(M2) detA^(r1 + r2) is
    q^(-2 r1 k2) word_poly(M1) word_poly(M2), peeled with K = r1 + r2.
    """
    r1, r2 = glq.y_degree(shape, M1), glq.y_degree(shape, M2)
    g = (word_poly(shape, M1) * word_poly(shape, M2)).scale(
        LaurentPoly.q_power(-2 * r1 * shape.odd_degree(M2)))
    return ref_express_in_basis(shape, g, r1 + r2)


def ref_local_mul(f, g):
    """The product that sends every pair of words through the polynomial
    round trip: the reference of LocalElement.__mul__."""
    shape = f.shape
    out = {}
    for (M1, a, d), c1 in f.terms.items():
        for (M2, a2, d2), c2 in g.terms.items():
            c = (c1 * c2).shift(2 * (a + d) * shape.odd_degree(M2))
            for (Mt, alpha, delta), r in ref_reduce_pair(shape, M1, M2).items():
                _put(out, (Mt, alpha + a + a2, delta + d + d2), r * c)
    return LocalElement(shape, out)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2),
                                  (2, 3)])
def test_letter_descents_reduce_as_the_round_trip(m, n):
    # every descent of two single letters, the only words the mixed rewrite
    # table rewrites in one step, against the polynomial round trip
    shape = Shape(m, n)
    N, N2 = shape.size, shape.size ** 2
    letters = [unit_matrix(N, k // N + 1, k % N + 1) for k in range(N2)]
    for k1 in range(N2):
        for k2 in range(k1):
            got = dict(glq._reduce_pair(shape, (k1, k2)))
            assert got == ref_reduce_pair(shape, letters[k1], letters[k2]), (k1, k2)


@pytest.mark.parametrize("shape", [S11, S21, S12, S22, S31, Shape(1, 3)], ids=str)
def test_letter_triples_are_associative(shape):
    # every overlap of two rewrites on mixed letters resolves: for all
    # letters a, b, c, (a b) c = a (b c) = the reducer on the word a b c
    N = shape.size
    letters = [LocalElement.monomial(shape, unit_matrix(N, k // N + 1, k % N + 1))
               for k in range(N * N)]
    for (ka, la), (kb, lb) in itertools.product(enumerate(letters), repeat=2):
        ab = la * lb
        for kc, lc in enumerate(letters):
            word = LocalElement(shape, dict(glq._reduce_pair(shape, (ka, kb, kc))))
            assert ab * lc == la * (lb * lc) == word, (ka, kb, kc)


@pytest.mark.parametrize("shape, degree, counts", [
    (S21, 2, (40, 430, 58, 36)), (S12, 2, (40, 430, 58, 36)),
    (S31, 2, (130, 3891, 242, 17)), (S22, 1, (17, 159, 8, 2))], ids=str)
def test_ordered_products_re_key(shape, degree, counts):
    # every pair of constrained window matrices, the i-th carrying
    # detA^a detD'^d with (a, d) the i-th of the nine pairs in [-1, 1]^2:
    # W(M1) W(M2) is re-keyed when no letter of M1 comes after one of M2,
    # no odd letter is in both and M1 + M2 is constrained, and the product
    # equals the reference either way
    window = actions._window_matrices(shape, degree)
    elements = [LocalElement(shape, {(M, i % 3 - 1, i // 3 % 3 - 1): lp({i % 5: 1})})
                for i, M in enumerate(window)]
    odd = shape.odd
    re_keyed = odd_shared = unconstrained = 0
    for M1, f in zip(window, elements):
        last = max((k for k, v in enumerate(M1) if v), default=-1)
        for M2, g in zip(window, elements):
            first = min((k for k, v in enumerate(M2) if v), default=len(M2))
            if last <= first:
                T = tuple(u + v for u, v in zip(M1, M2))
                if last == first and odd[last]:
                    odd_shared += 1
                elif not glq.is_constrained(shape, T):
                    unconstrained += 1
                else:
                    re_keyed += 1
            assert f * g == ref_local_mul(f, g)
    # the grid reaches both guards: pairs that share an odd letter, and
    # ordered pairs whose sum is not constrained
    assert (len(window), re_keyed, odd_shared, unconstrained) == counts


class TestBarLocal:
    @pytest.mark.parametrize("shape", [S11, S21, S22])
    def test_y_fixed(self, shape):
        for mu, nu in lower_pairs(shape):
            y = LocalElement.y_gen(shape, mu, nu)
            assert bar_local(y) == y

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_determinants_fixed(self, shape):
        assert bar_local(det_a_local(shape)) == det_a_local(shape)
        assert bar_local(det_dprime_local(shape)) == det_dprime_local(shape)
        assert bar_local(berezinian(shape)) == berezinian(shape)

    def test_involution(self):
        f = to_mixed(gen(S11, 2, 2) * gen(S11, 1, 2)) * berezinian(S11)
        assert bar_local(bar_local(f)) == f


class TestSlProjection:
    def test_berezinian_collapses(self):
        assert sl_project(berezinian(S21)) == LocalElement.one(S21)

    def test_fold(self):
        f = LocalElement(S11, {((0, 1, 1, 0), 2, -1): ONE})
        assert sl_project(f).terms == {((0, 1, 1, 0), 1, 0): ONE}

    def test_compatible_with_ber_multiplication(self):
        y = LocalElement.y_gen(S21, 3, 3)
        assert sl_project(y * berezinian(S21)) == sl_project(y)


class TestSerialization:
    def test_roundtrip(self):
        f = to_mixed(gen(S11, 2, 2)) * berezinian(S11)
        assert LocalElement.from_json(f.to_json()) == f

    def test_sorted_terms(self):
        f = to_mixed(gen(S11, 2, 2))
        obj = f.to_json()
        assert obj["coords"] == "mixed"
        mats = [tuple(v for row in t["matrix"] for v in row) for t in obj["terms"]]
        assert mats == sorted(mats)

    def test_format(self):
        y = LocalElement.y_gen(S11, 2, 2)
        assert format_local(y) == "detD'"
        assert "y[3,3]" in format_local(LocalElement.y_gen(S22, 3, 3))
        assert format_local(berezinian(S11)) == "detA*detD'^-1"


class TestGenerators:
    def test_count(self):
        assert len(mixed_generators(S11)) == 4
        assert len(mixed_generators(S22)) == 16


def _cached_values(shape):
    """Cached elements that every caller shares, keyed by a label."""
    m, N = shape.m, shape.size
    mats = (unit_matrix(N, 1, N), unit_matrix(N, N, N),
            word_to_matrix(((1, N), (N, 1), (N, N)), N))
    block = superspace.interval(1, m)
    out = {"y": superspace.minor_star(shape, block + [N], block + [N]),
           "detA": det_q_A(shape), "detD": superspace.det_qinv_D(shape),
           "detD'": detDprime_poly(shape, 1)}
    for M in mats:
        out[("word", M)] = word_poly(shape, M)
    out["member"] = glq._member(shape, mats[1], 0, 0)
    out["letter"] = glq._letter_image(shape, shape.cell(N, N))
    # the images of the letters y_NN and detA are _act_key entries
    out["y act"] = actions._act_key(shape, "F", m, "L", mats[1], 0)
    out["detA act"] = actions._act_key(shape, "F", m, "L", zero_matrix(N), 1)
    return out


CACHES = (superspace._minor_cached, glq.word_poly, glq.detDprime_poly,
          glq._member, glq._reduce_pair, glq.express_in_basis, glq._letter_image,
          actions._act_key)


@pytest.mark.parametrize("shape", [S21, S22])
def test_cached_elements_are_never_mutated(shape):
    # cached elements are returned as they are, not copied, so no caller
    # may write to their terms
    before = _cached_values(shape)
    snapshot = {k: dict(v.terms) for k, v in before.items()}
    assert all(snapshot.values())
    N = shape.size
    # y_times_detA hands out the bounded minor cache's entry
    assert y_times_detA(shape, N, N) is before["y"]
    f = to_mixed(gen(shape, N, N) * gen(shape, 1, N)) * berezinian(shape)
    bar_local(f)
    f * LocalElement.y_gen(shape, N, N)
    # F_m on x_mN y_NN detA reaches the cached y-letter and detA-letter
    # actions, behind an odd letter that gives them a sign and a q-power
    h = (LocalElement.x_gen(shape, shape.m, N) * LocalElement.y_gen(shape, N, N)
         * det_a_local(shape))
    actions.act_left(actions.GenSymbol("F", shape.m), h)
    after = _cached_values(shape)
    for k, v in after.items():
        assert v is before[k] and v.terms == snapshot[k], k
    for cache in CACHES:
        cache.cache_clear()
    fresh = _cached_values(shape)
    for k, v in fresh.items():
        assert v is not before[k] and v.terms == snapshot[k], k


@pytest.mark.parametrize("cache", [glq._member, glq._reduce_pair, glq.express_in_basis,
                                   glq.word_poly, glq._letter_image],
                         ids=lambda f: f.__name__)
def test_clear_caches_empties_the_bounded_memo(cache):
    def warm():
        # x11 x22 has a full A diagonal, so its product runs the det rule
        f = to_mixed(gen(S22, 4, 4) * gen(S22, 1, 4))
        x11, x22 = LocalElement.x_gen(S22, 1, 1), LocalElement.x_gen(S22, 2, 2)
        return f * LocalElement.y_gen(S22, 4, 3), from_mixed(f), x11 * x22

    first = warm()
    assert cache.cache_info().maxsize is not None
    assert cache.cache_info().currsize > 0
    qsuper.clear_caches()
    assert cache.cache_info().currsize == 0
    assert warm() == first


# -- the candidate-window solver, as the reference for the peeling ------------


def window_express_in_basis(shape, raw, rows, cols):
    """The solver that express_in_basis replaced, kept as its reference.

    It enumerates the constrained triples of the target biweight (rows,
    cols) in a window of detA and detD' powers, expands every candidate
    with both determinants cleared, solves one linear system, and widens
    the window up to three times.
    """
    if raw.is_zero():
        return {}
    rows, cols = tuple(rows), tuple(cols)
    s_lower = min(sum(rows[shape.m:]), sum(cols[shape.m:]))
    for widen in (0, 1, 2):
        cands = glq._candidates(shape, rows, cols, -s_lower - 2 * widen, -widen)
        if not cands:
            continue
        L = max(0, -min(delta for _, _, delta in cands))
        cand_raws = [
            rho(shape, Mt).times_detDprime(delta + L).shift_det(alpha)
            for Mt, alpha, delta in cands
        ]
        target_raw = raw.times_detDprime(L)
        K = max(0, -min(e for r in (target_raw, *cand_raws) for (_, e) in r.terms))
        target = expand_raw(shape, target_raw, K)
        columns = [expand_raw(shape, cr, K).terms for cr in cand_raws]
        sol = exactlinalg.solve_in_span(columns, target.terms)
        if sol is None:
            continue
        return {key: c for key, c in zip(cands, sol) if not c.is_zero()}
    raise exactlinalg.LinearSolveFailure(f"no expansion (biweight {rows}|{cols})")


@pytest.mark.parametrize("shape,degree", [
    (S11, 2), (S22, 2), (S21, 3), (Shape(1, 2), 3),
])
def test_to_mixed_matches_window_solver(shape, degree):
    N = shape.size
    for deg in range(degree + 1):
        for M in degree_matrices(shape, deg):
            raw = RawElement(shape, {(M, 0): ONE})
            expect = window_express_in_basis(shape, raw, row_sums(M, N), col_sums(M, N))
            assert to_mixed(AlgebraElement.monomial(shape, M)).terms == expect, M


@pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2), S22, Shape(3, 1)])
def test_reduce_pair_matches_window_solver(shape):
    N = shape.size
    letters = [unit_matrix(N, i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    if shape == Shape(3, 1):
        # the window solver spends 90 s on y_44 * y_44 and 4 s on the
        # other pairs with a y letter; the frontier tests cover those
        letters = [M for M in letters if not M[-1]]
    for M1 in letters:
        for M2 in letters:
            rows = tuple(a + b for a, b in zip(row_sums(M1, N), row_sums(M2, N)))
            cols = tuple(a + b for a, b in zip(col_sums(M1, N), col_sums(M2, N)))
            raw = rho(shape, M1) * rho(shape, M2)
            expect = window_express_in_basis(shape, raw, rows, cols)
            codes = matrix_codes(M1) + matrix_codes(M2)
            assert dict(glq._reduce_pair(shape, codes)) == expect, (M1, M2)


@pytest.fixture
def fresh_caches():
    # a patched kernel function leaves its results in the memos that call
    # it, so the test runs from empty caches and leaves none behind
    qsuper.clear_caches()
    yield
    qsuper.clear_caches()


@pytest.mark.parametrize("corrupt", [
    lambda r: r.scale(LaurentPoly({0: 1, 2: 1})),
    lambda r: r.scale(LaurentPoly({0: 2})),
    lambda r: r + AlgebraElement.monomial(r.shape, (2, 0, 0, 0)),
], ids=["lead_1_plus_q2", "lead_2", "term_above_lead"])
def test_non_triangular_member_raises(fresh_caches, monkeypatch, corrupt):
    # a det column that is not a unit at its leading word, or that has a
    # word above it, cannot be peeled; the loop must raise, never spin
    monkeypatch.setattr(glq, "det_q_A", lambda shape: corrupt(det_q_A(shape)))
    with pytest.raises(TriangularityViolation):
        # x11 y22 at (1|1): a full A diagonal, so its column is detA y22
        glq.express_in_basis(S11, (1, 0, 0, 1))


# -- the clearing bar and the blockwise division, as references ---------------


def _cleared_raw(f, L):
    """Raw form of f * detD'^L; every d + L must be nonnegative."""
    raw: dict = {}
    for (M, a, d), c in f.terms.items():
        for (N, e), c1 in rho(f.shape, M).times_detDprime(d + L).terms.items():
            _put(raw, (N, e + a), c1 * c)
    return RawElement(f.shape, raw)


def clearing_bar_local(f):
    """The bar_local that the word reversal replaced, kept as its reference.

    Both determinants are bar-invariant and even, so for g = f detA^K
    detD'^L it bars the polynomial g and restores detA^-K detD'^-L.
    """
    shape = f.shape
    if f.is_zero():
        return f
    L = max(0, -min(d for (_, _, d) in f.terms))
    raw = _cleared_raw(f, L)
    K = max(0, -min(e for (_, e) in raw.terms))
    g = expand_raw(shape, raw, K).bar()
    return LocalElement.monomial(shape, zero_matrix(shape.size), -K, -L) * to_mixed(g)


def blockwise_from_mixed(f):
    """The from_mixed that peeling replaced, kept as its reference: it
    solves g = h * detA^K for h over every biweight block of g."""
    shape, N = f.shape, f.shape.size
    raw = _cleared_raw(f, 0)
    K = max(0, -min((e for (_, e) in raw.terms), default=0))
    g = expand_raw(shape, raw, K)
    if K == 0:
        return g
    blocks: dict = {}
    for M, c in g.terms.items():
        blocks.setdefault((row_sums(M, N), col_sums(M, N)), {})[M] = c
    dK = det_q_A(shape)
    for _ in range(K - 1):
        dK = dK * det_q_A(shape)
    out: dict = {}
    for (rows, cols), part in blocks.items():
        ro = tuple(r - K if i < shape.m else r for i, r in enumerate(rows))
        co = tuple(c - K if j < shape.m else c for j, c in enumerate(cols))
        if any(v < 0 for v in ro + co):
            raise exactlinalg.LinearSolveFailure("element is not divisible by detA")
        cands = enumerate_block(shape, ro, co)
        columns = [(AlgebraElement.monomial(shape, M) * dK).terms for M in cands]
        sol = exactlinalg.solve_in_span(columns, part)
        if sol is None:
            raise exactlinalg.LinearSolveFailure("element is not divisible by detA")
        out.update(zip(cands, sol))
    return AlgebraElement(shape, out)


def constrained_monomials(shape, degree):
    for deg in range(degree + 1):
        for M in degree_matrices(shape, deg):
            if glq.is_constrained(shape, M):
                yield M


Q = lp({1: 1})


@pytest.mark.parametrize("shape,degree,sectors", [
    (S11, 2, [(0, 0), (-1, 1), (1, -1), (2, -1)]),
    (S21, 2, [(0, 0), (-1, 1), (1, -1), (2, -1)]),
    (S12, 2, [(0, 0), (-1, 1), (1, -1), (2, -1)]),
    (S22, 1, [(0, 0)]),
    (S31, 1, [(0, 0)]),
])
def test_bar_local_matches_clearing_bar(shape, degree, sectors):
    for M in constrained_monomials(shape, degree):
        for a, d in sectors:
            f = LocalElement(shape, {(M, a, d): Q})
            assert bar_local(f) == clearing_bar_local(f), (M, a, d)


@pytest.mark.parametrize("shape", [S11, S21, S12])
def test_from_mixed_matches_blockwise_division(shape):
    for M in constrained_monomials(shape, 2):
        for a in (-1, 0, 1, 2):
            for d in (0, 1):
                f = LocalElement(shape, {(M, a, d): Q})
                try:
                    expect = blockwise_from_mixed(f)
                except exactlinalg.LinearSolveFailure:
                    with pytest.raises(exactlinalg.LinearSolveFailure):
                        from_mixed(f)
                    continue
                assert from_mixed(f) == expect, (M, a, d)


def _letters_with_parity(shape):
    """Every mixed generator and detA^+-1, detD'^+-1, with its parity."""
    parities = [shape.gen_parity(i, j) for i, j in shape.generators()]
    out = list(zip(mixed_generators(shape), parities))
    for a, d in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        out.append((LocalElement(shape, {(zero_matrix(shape.size), a, d): ONE}), 0))
    return out


@pytest.mark.parametrize("shape", [S21, S12, S22])
def test_bar_local_is_super_anti_automorphism(shape):
    letters = _letters_with_parity(shape)
    for f, pf in letters:
        for g, pg in letters:
            lhs = bar_local(f * g)
            rhs = (bar_local(g) * bar_local(f)).scale((-1) ** (pf * pg))
            assert lhs == rhs, (f, g)


class TestFromMixedFailures:
    """from_mixed rejects every element that has no polynomial form."""

    @pytest.mark.parametrize("f", [
        LocalElement(S21, {(zero_matrix(3), -1, 0): ONE}),
        LocalElement.y_gen(S21, 3, 3),
        LocalElement(S21, {(unit_matrix(3, 1, 1), -1, 0): ONE}),
    ], ids=["detA^-1", "y33", "x11*detA^-1"])
    def test_not_polynomial(self, f):
        with pytest.raises(exactlinalg.LinearSolveFailure):
            from_mixed(f)

    def test_negative_detDprime_power(self):
        with pytest.raises(ValueError):
            from_mixed(LocalElement(S21, {(zero_matrix(3), 0, -1): ONE}))
