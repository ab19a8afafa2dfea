import pytest
from hypothesis import given, strategies as st

from qsuper.laurent import (
    LaurentPoly,
    Variant,
    BarEquationUnsolvable,
    q_binom,
    q_integer,
    solve_bar_equation,
)


def lp(d):
    return LaurentPoly(d)


laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


class TestArithmetic:
    def test_add_cancels(self):
        assert lp({2: 1}) + lp({2: -1}) == LaurentPoly.zero()

    def test_add_merges(self):
        assert lp({0: 1, 1: 1}) + lp({1: 1}) == lp({0: 1, 1: 2})

    def test_add_partial_cancel(self):
        assert lp({2: 1, -2: -1}) + lp({-2: 1}) == lp({2: 1})

    def test_mul_units(self):
        assert lp({1: 1}) * lp({-1: 1}) == LaurentPoly.one()

    def test_mul_difference_of_squares(self):
        a = lp({2: 1, -2: -1})
        b = lp({2: 1, -2: 1})
        assert a * b == lp({4: 1, -4: -1})

    def test_mul_zero(self):
        assert LaurentPoly.zero() * lp({3: 5, -1: 2}) == LaurentPoly.zero()

    @given(laurents, laurents, laurents)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_divexact(self):
        a = lp({2: 1, 0: 2, -2: 1})
        b = lp({1: 1, -1: 1})
        assert a.divexact(b) == b
        with pytest.raises(ValueError):
            lp({1: 1, 0: 1}).divexact(lp({2: 1, 0: -1}))

    def test_divexact_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            lp({1: 1}).divexact(LaurentPoly.zero())


class TestBar:
    def test_bar_flips_exponents(self):
        assert lp({2: 1, -2: -1}).bar() == lp({-2: 1, 2: -1})

    def test_bar_fixes_one(self):
        assert LaurentPoly.one().bar() == LaurentPoly.one()

    @given(laurents)
    def test_bar_involutive(self, p):
        assert p.bar().bar() == p

    @given(laurents, laurents)
    def test_bar_multiplicative(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()


class TestQCombinatorics:
    def test_q_integer_small(self):
        assert q_integer(0) == LaurentPoly.zero()
        assert q_integer(1) == LaurentPoly.one()
        assert q_integer(2, 2) == lp({0: 1, 2: 1})
        assert q_integer(3, 4) == lp({0: 1, 4: 1, 8: 1})

    def test_q_binom_edges(self):
        for n in range(5):
            assert q_binom(n, 0) == LaurentPoly.one()
            assert q_binom(n, n) == LaurentPoly.one()
        assert q_binom(2, 1, 2) == lp({0: 1, 2: 1})

    def test_out_of_range_arguments(self):
        with pytest.raises(ValueError, match="s >= 0"):
            q_integer(-1)
        with pytest.raises(ValueError, match="0 <= r <= s"):
            q_binom(2, 3)

    @pytest.mark.parametrize("base", [2, 4])
    def test_q_binom_pascal(self, base):
        # independent oracle: (s r) = (s-1 r) + q^(base*(s-r)) (s-1 r-1)
        for s in range(1, 9):
            for r in range(1, s + 1):
                lhs = q_binom(s, r, base)
                rhs = (LaurentPoly.zero() if r > s - 1 else q_binom(s - 1, r, base)) + q_binom(
                    s - 1, r - 1, base
                ).shift(base * (s - r))
                assert lhs == rhs


class TestSolveBarEquation:
    def test_simple(self):
        k = lp({2: 1, -2: -1})
        h = solve_bar_equation(k, Variant.PLUS_Q)
        assert h == lp({2: 1})
        assert h - h.bar() == k

    def test_zero(self):
        assert solve_bar_equation(LaurentPoly.zero(), Variant.PLUS_Q) == LaurentPoly.zero()

    def test_two_terms(self):
        k = lp({3: 1, -3: -1, 1: 1, -1: -1})
        assert solve_bar_equation(k, Variant.PLUS_Q) == lp({3: 1, 1: 1})

    def test_minus_variant(self):
        k = lp({2: 1, -2: -1})
        h = solve_bar_equation(k, Variant.MINUS_Q)
        assert h == lp({-2: -1})
        assert h - h.bar() == k

    def test_rejects_bad_input(self):
        with pytest.raises(BarEquationUnsolvable):
            solve_bar_equation(lp({2: 1}), Variant.PLUS_Q)
        with pytest.raises(BarEquationUnsolvable):
            solve_bar_equation(lp({0: 1}), Variant.PLUS_Q)

    @given(laurents, st.sampled_from([Variant.PLUS_Q, Variant.MINUS_Q]))
    def test_solves_for_antisymmetrized_input(self, p, variant):
        k = p - p.bar()
        h = solve_bar_equation(k, variant)
        assert h - h.bar() == k
        if variant is Variant.PLUS_Q:
            assert all(e > 0 for e in h.terms)
        else:
            assert all(e < 0 for e in h.terms)


def test_json_roundtrip():
    p = lp({-2: -1, 2: 1})
    assert p.to_json() == {"-2": -1, "2": 1}
    assert LaurentPoly.from_json(p.to_json()) == p
