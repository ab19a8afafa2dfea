import copy
import hashlib
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsuper import algebra
from qsuper.laurent import LaurentPoly, ONE
from qsuper.algebra import (
    _put,
    _rewrite_table,
    AlgebraElement,
    NonHomogeneous,
    Shape,
    count_monomials,
    degree_matrices,
    enumerate_block,
    mat_entry,
    matrix_to_word,
    straighten_word,
    validate_matrix,
    word_to_matrix,
    x_norm,
)

S11 = Shape(1, 1)
S21 = Shape(2, 1)
S22 = Shape(2, 2)


def lp(d):
    return LaurentPoly(d)


QSQ_DIFF = LaurentPoly({2: 1, -2: -1})  # q^2 - q^-2


def _pair_rule(shape: Shape, g1, g2):
    """Expansion of x_g1 * x_g2 over ordered two-letter words, for g1 > g2:
    a tuple of (two-letter word, LaurentPoly) pairs, the swap first.  The
    four relation families, written apart from the kernel's rewrite table."""
    i, j = g1
    k, l = g2
    par = shape.parity
    if i == k:  # same row, j > l
        s = (-1) ** ((par(i) + par(l)) % 2 * ((par(i) + par(j)) % 2))
        c = LaurentPoly.q_power(-2 * (-1) ** par(i), s)
        return (((g2, g1), c),)
    if j == l:  # same column, i > k
        s = (-1) ** ((par(k) + par(j)) % 2 * ((par(i) + par(j)) % 2))
        c = LaurentPoly.q_power(-2 * (-1) ** par(j), s)
        return (((g2, g1), c),)
    s1 = (-1) ** (((par(i) + par(j)) % 2) * ((par(k) + par(l)) % 2))
    if j < l:  # i > k, j < l: sign-commute, no correction
        return (((g2, g1), LaurentPoly.from_int(s1)),)
    # i > k, j > l: commute plus a lower correction x_kj x_il
    s2 = (-1) ** ((par(i) * par(l) + par(i) * par(j) + par(l) * par(j)) % 2)
    corr = QSQ_DIFF.scale(-s1 * s2)
    return (((g2, g1), LaurentPoly.from_int(s1)), (((k, j), (i, l)), corr))


def straighten_pair(shape: Shape, g1, g2) -> AlgebraElement:
    """Normal form of the two-letter product x_g1 * x_g2."""
    return AlgebraElement.from_word(shape, (tuple(g1), tuple(g2)))


def gen(shape, i, j):
    return AlgebraElement.generator(shape, i, j)


class TestShape:
    def test_parity(self):
        assert S21.parity(1) == 0
        assert S21.parity(2) == 0
        assert S21.parity(3) == 1
        with pytest.raises(IndexError):
            S21.parity(4)

    def test_gen_parity(self):
        assert S11.gen_parity(1, 2) == 1
        assert S11.gen_parity(2, 2) == 0
        assert S11.gen_parity(1, 1) == 0


@pytest.mark.parametrize("shape", [S21, S22], ids=str)
def test_matrix_to_word_matches_the_cell_loop(shape):
    """The one-pass word equals the old N^2 loop over every cell."""
    N = shape.size
    for deg in range(4):
        for M in degree_matrices(shape, deg):
            word = []
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    word.extend([(i, j)] * mat_entry(M, N, i, j))
            assert matrix_to_word(M, N) == tuple(word)


TABLE_SHAPES = [Shape(1, 1), Shape(2, 1), Shape(1, 2), Shape(2, 2), Shape(3, 1), Shape(3, 2)]


@pytest.mark.parametrize("shape", TABLE_SHAPES, ids=str)
class TestCellTable:
    def test_blocks_follow_the_index_definition(self, shape):
        m, N = shape.m, shape.size
        for i in range(1, N + 1):
            assert shape.parity(i) == (0 if i <= m else 1)
            for j in range(1, N + 1):
                want = {(True, True): "A", (True, False): "B",
                        (False, True): "C", (False, False): "D"}[(i <= m, j <= m)]
                assert shape.block(i, j) == shape.blocks[shape.cell(i, j)] == want
                assert shape.gen_parity(i, j) == (1 if (i <= m) != (j <= m) else 0)

    def test_odd_degree_is_the_monomial_parity(self, shape):
        m, N = shape.m, shape.size
        for deg in range(3):
            for M in degree_matrices(shape, deg):
                odd = sum(v for k, v in enumerate(M) if (k // N < m) != (k % N < m))
                assert shape.odd_degree(M) == odd
                assert shape.odd_degree(M) % 2 == AlgebraElement.monomial(shape, M).parity()

    def test_indices_outside_the_matrix_raise(self, shape):
        # a flat table read at -1 would wrap to the last cell
        for i in (0, -1, shape.size + 1):
            with pytest.raises(IndexError):
                shape.parity(i)
            with pytest.raises(IndexError):
                shape.gen_parity(i, 1)
            with pytest.raises(IndexError):
                shape.gen_parity(1, i)

    def test_equal_shapes_share_cache_entries(self, shape, monkeypatch):
        assert Shape(shape.m, shape.n) is Shape(shape.m, shape.n) is shape
        built = []

        def counted(s, mixed=False):
            built.append((s, mixed))
            return _rewrite_table(s, mixed)

        monkeypatch.setattr(algebra, "_rewrite_table", counted)
        for name in ("blocks", "odd", "rewrites", "local_rewrites"):
            monkeypatch.delitem(vars(shape), name, raising=False)
        tables = [(s.blocks, s.odd, s.rewrites, s.local_rewrites)
                  for s in (Shape(shape.m, shape.n),) * 2]
        # the polynomial and the mixed rewrite tables are built once each
        assert built == [(shape, False), (shape, True)]
        assert all(t is u for t, u in zip(*tables))
        word = (shape.cell(shape.size, shape.size), shape.cell(1, 1))
        AlgebraElement.from_word(shape, ((shape.size, 1), (1, shape.size)))
        straighten_word(shape, word, table=shape.local_rewrites)
        assert built == [(shape, False), (shape, True)]
        assert shape.rewrites is tables[0][2] and shape.local_rewrites is tables[0][3]


class TestInterning:
    @pytest.mark.parametrize("m, n", [(2.0, 1), (2, 1.0), (True, 1), (1, False), ("2", 1)])
    def test_non_integer_sizes_raise_type_error(self, m, n):
        # 2.0 and True hash like 2 and 1: they must not reach the interned (2|1)
        with pytest.raises(TypeError):
            Shape(m, n)
        assert type(Shape(2, 1).m) is int and type(Shape(2, 1).n) is int

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (-1, 2)])
    def test_sizes_below_one_raise_value_error(self, m, n):
        with pytest.raises(ValueError):
            Shape(m, n)

    def test_copies_and_pickles_are_the_interned_shape(self):
        for shape in TABLE_SHAPES:
            assert copy.copy(shape) is shape
            assert copy.deepcopy(shape) is shape
            assert pickle.loads(pickle.dumps(shape)) is shape
        f = AlgebraElement.generator(S21, 1, 3)
        assert copy.deepcopy(f).shape is S21
        assert copy.deepcopy({S21: 1}) == {S21: 1}

    def test_fields_are_frozen(self):
        with pytest.raises(AttributeError):
            S21.m = 3
        assert repr(S21) == "Shape(m=2, n=1)" and hash(S21) == hash(Shape(2, 1))


def ref_straighten_word(shape: Shape, word, coeff=None):
    """The straightening loop on (i, j) letters and LaurentPoly
    coefficients that rescans each rewritten word from its first letter:
    the reference for the kernel's rewrite table on flat cell codes."""
    out: dict = {}
    stack = [(tuple(word), coeff if coeff is not None else ONE)]
    N, odd = shape.size, shape.odd
    while stack:
        w, c = stack.pop()
        if c.is_zero():
            continue
        pos = -1
        for t in range(len(w) - 1):
            g = w[t]
            if g > w[t + 1] or (g == w[t + 1] and odd[(g[0] - 1) * N + g[1] - 1]):
                pos = t
                break
        if pos < 0:
            _put(out, word_to_matrix(w, N), c)
            continue
        if w[pos] == w[pos + 1]:  # an odd square
            continue
        head, tail = w[:pos], w[pos + 2:]
        for pair, pc in _pair_rule(shape, w[pos], w[pos + 1]):
            stack.append((head + pair + tail, c * pc))
    return out


COEFF_KINDS = (None, lp({3: 2, -1: -1}), QSQ_DIFF, LaurentPoly.zero())


def codes(shape: Shape, word):
    return [shape.cell(i, j) for i, j in word]


@pytest.mark.parametrize("shape, length", [(S11, 4), (S21, 4), (Shape(1, 2), 4),
                                           (S22, 3), (Shape(3, 1), 3), (Shape(3, 2), 3)],
                         ids=str)
def test_straighten_word_matches_the_reference(shape, length):
    # every word up to the length, so every overlap of two rewrites and
    # every resumed scan of a three-letter window is exercised
    gens = shape.generators()
    words = 0
    for size in range(length + 1):
        for word in itertools.product(gens, repeat=size):
            for c in COEFF_KINDS:
                assert straighten_word(shape, codes(shape, word), c) == ref_straighten_word(
                    shape, word, c), (word, c)
            words += 1
    assert words == sum(len(gens) ** k for k in range(length + 1))


@pytest.mark.parametrize("shape", TABLE_SHAPES, ids=str)
def test_long_words_match_the_reference(shape):
    # long words chain many in-place swaps between corrections
    rng = random.Random(10 * shape.m + shape.n)
    gens = shape.generators()
    for _ in range(200):
        word = [rng.choice(gens) for _ in range(rng.randint(5, 8))]
        for c in COEFF_KINDS:
            assert straighten_word(shape, codes(shape, word), c) == ref_straighten_word(
                shape, word, c), (word, c)


def key_order_digest(shape: Shape) -> str:
    """Digest of the term order of normal forms of descending words and of
    a product and a bar: window rows are numbered in order of first
    appearance, so the kernel's exploration order is part of its output."""
    rng = random.Random(10 * shape.m + shape.n)
    gens = shape.generators()
    words = [sorted(rng.sample(gens, k), reverse=True) for k in (4, 5, 6, 6, 7, 7)]
    f, g = (AlgebraElement.from_word(shape, w) for w in words[:2])
    keys = [list(AlgebraElement.from_word(shape, w).terms) for w in words]
    keys += [list((f * g).terms), list((g * f).bar().terms)]
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


@pytest.mark.parametrize("shape, digest", [(S22, "6f0ec4f35c25aba3"),
                                           (Shape(3, 1), "c3b25cb1fc0f5468"),
                                           (Shape(3, 2), "849ecf530360f78c")], ids=str)
def test_normal_form_term_order_is_pinned(shape, digest):
    assert key_order_digest(shape) == digest


def test_straighten_span_sees_exactly_the_cache_misses(monkeypatch):
    # the benchmark's straightening span wraps the module global that
    # _straighten_cached calls, so each call through it is one cache miss
    calls = []

    def counted(shape, word, coeff=None):
        calls.append(word)
        return straighten_word(shape, word, coeff)

    f = gen(S22, 4, 1) + gen(S22, 2, 3).scale(lp({1: 1})) + gen(S22, 1, 1)
    g = AlgebraElement.from_word(S22, ((3, 3), (1, 2)))
    monkeypatch.setattr(algebra, "straighten_word", counted)
    algebra._straighten_cached.cache_clear()
    for h in (f * g, g * f, f * f * g, (f * g).bar(), f.bar(), (g * f).bar()):
        assert not h.is_zero()
    info = algebra._straighten_cached.cache_info()
    assert info.hits > 0 and len(calls) == info.misses > 0


def test_rewrite_table_holds_every_descent_once():
    for shape in TABLE_SHAPES:
        N2 = shape.size ** 2
        table = shape.rewrites
        assert len(table) == N2 * N2
        for k1, k2 in itertools.product(range(N2), repeat=2):
            entry = table[k1 * N2 + k2]
            if k1 > k2:
                e, s, corr = entry
                assert s in (1, -1) and (corr is None or k2 < corr[0] < corr[1] < k1)
            else:  # ordered pairs and odd squares have no rewrite
                assert entry is None


@pytest.mark.parametrize("m, n", itertools.product((1, 2, 3), repeat=2))
def test_mixed_table_drops_only_the_y_a_corrections(m, n):
    # the mixed table is the polynomial one but at the m^2 n^2 descents of a
    # D-block code over an A-block code: there y_uv passes x_ij (i, j <= m)
    # by the pure swap, where x_uv leaves a correction; so the mixed search
    # visits a subset of the polynomial search's states and ends with it
    shape = Shape(m, n)
    N2, blocks = shape.size ** 2, shape.blocks
    poly, mixed = shape.rewrites, shape.local_rewrites
    dropped = 0
    for k1, k2 in itertools.product(range(N2), repeat=2):
        entry = poly[k1 * N2 + k2]
        if blocks[k1] == "D" and blocks[k2] == "A":
            assert entry[:2] == (0, 1) and entry[2] is not None
            assert mixed[k1 * N2 + k2] == (0, 1, None)
            dropped += 1
        else:
            assert mixed[k1 * N2 + k2] == entry
    assert dropped == m * m * n * n


def test_rewrite_table_matches_the_pair_rule():
    # each entry, read back into LaurentPoly pairs, is the relation itself
    for shape in TABLE_SHAPES:
        N = shape.size
        N2 = N * N
        cells = [(k // N + 1, k % N + 1) for k in range(N2)]
        for k1 in range(N2):
            for k2 in range(k1):
                e, s, corr = shape.rewrites[k1 * N2 + k2]
                want = [((cells[k2], cells[k1]), LaurentPoly.q_power(e, s))]
                if corr is not None:
                    c1, c2, sigma = corr
                    want.append(((cells[c1], cells[c2]), QSQ_DIFF.scale(sigma)))
                assert list(_pair_rule(shape, cells[k1], cells[k2])) == want, (shape, k1, k2)


@pytest.mark.parametrize("cell", [(1, 4), (0, 1), (2, 0), (-1, 1), (4, 1)])
def test_generators_outside_the_matrix_raise(cell):
    # the flat index (i-1)*N + (j-1) would wrap these onto other cells
    with pytest.raises(IndexError):
        AlgebraElement.generator(S21, *cell)
    with pytest.raises(IndexError):
        AlgebraElement.from_word(S21, [(1, 1), cell])


class TestStraightenPair:
    def test_odd_pair_anticommutes(self):
        got = straighten_pair(S11, (2, 1), (1, 2))
        assert got == AlgebraElement(S11, {(0, 1, 1, 0): lp({0: -1})})

    def test_lower_correction(self):
        got = straighten_pair(S11, (2, 2), (1, 1))
        assert got == AlgebraElement(
            S11, {(1, 0, 0, 1): ONE, (0, 1, 1, 0): lp({2: 1, -2: -1})}
        )

    def test_same_row_q_power(self):
        got = straighten_pair(S11, (1, 2), (1, 1))
        assert got == AlgebraElement(S11, {(1, 1, 0, 0): lp({-2: 1})})

    def test_same_column_q_power(self):
        # x_{11}x_{21} = q^2 x_{21}x_{11} at (1,1): column 1 is even
        got = straighten_pair(S11, (2, 1), (1, 1))
        assert got == AlgebraElement(S11, {(1, 0, 1, 0): lp({-2: 1})})

    def test_odd_square_vanishes(self):
        assert straighten_pair(S11, (1, 2), (1, 2)).is_zero()
        assert straighten_pair(S11, (2, 1), (2, 1)).is_zero()

    def test_ordered_pair_untouched(self):
        got = straighten_pair(S11, (1, 1), (2, 2))
        assert got == AlgebraElement(S11, {(1, 0, 0, 1): ONE})


class TestMultiply:
    def test_unit(self):
        f = gen(S11, 2, 2) * gen(S11, 1, 1)
        assert AlgebraElement.one(S11) * f == f
        assert f * AlgebraElement.one(S11) == f

    def test_odd_square(self):
        x12 = gen(S11, 1, 2)
        assert (x12 * x12).is_zero()

    def test_matches_pair_rule(self):
        assert gen(S11, 2, 2) * gen(S11, 1, 1) == straighten_pair(S11, (2, 2), (1, 1))

    def test_powers_are_repeated_products(self):
        f = gen(S21, 2, 3) + gen(S21, 3, 1).scale(lp({2: 1})) + gen(S21, 1, 1)
        assert f ** 0 == AlgebraElement.one(S21)
        assert f ** 1 is f  # no product, so nothing is straightened
        assert f ** 3 == (f * f) * f
        with pytest.raises(ValueError, match="negative"):
            f ** -1

    def test_shape_mismatch(self):
        from qsuper.algebra import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            gen(S11, 1, 1) * gen(S21, 1, 1)

    def test_relation_closure_three_letters(self):
        # every overlap resolves: (x_a x_b) x_c = x_a (x_b x_c) = the normal
        # form of the word abc, repeated odd letters included; at (1|1) this
        # covers (x22 x21) x12 = x22 (x21 x12)
        for shape in (S11, S21, Shape(1, 2), S22):
            gens = shape.generators()
            x = {g: gen(shape, *g) for g in gens}
            for a, b, c in itertools.product(gens, repeat=3):
                word = AlgebraElement.from_word(shape, (a, b, c))
                assert (x[a] * x[b]) * x[c] == x[a] * (x[b] * x[c]) == word, (
                    shape, a, b, c)


words = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=0, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(words, words, words, st.sampled_from([S11, S21, Shape(1, 2)]))
def test_multiply_associative(w1, w2, w3, shape):
    N = shape.size
    ws = [tuple((min(i, N), min(j, N)) for i, j in w) for w in (w1, w2, w3)]
    f, g, h = (AlgebraElement.from_word(shape, w) for w in ws)
    assert (f * g) * h == f * (g * h)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3),
)
def test_multiply_associative_2x2(w1, w2):
    f = AlgebraElement.from_word(S22, w1)
    g = AlgebraElement.from_word(S22, w2)
    h = AlgebraElement.from_word(S22, w2[::-1])
    assert (f * g) * h == f * (g * h)


class TestBar:
    def test_generator_fixed(self):
        f = gen(S11, 1, 1).scale(lp({1: 1}))
        assert f.bar() == gen(S11, 1, 1).scale(lp({-1: 1}))

    def test_odd_product_fixed(self):
        f = gen(S11, 1, 2) * gen(S11, 2, 1)
        assert f.bar() == f

    def test_diagonal_product(self):
        f = gen(S11, 1, 1) * gen(S11, 2, 2)
        expect = f + (gen(S11, 1, 2) * gen(S11, 2, 1)).scale(lp({2: 1, -2: -1}))
        assert f.bar() == expect

    @settings(max_examples=50, deadline=None)
    @given(words, st.sampled_from([S11, S21]))
    def test_involutive(self, w, shape):
        N = shape.size
        f = AlgebraElement.from_word(shape, [(min(i, N), min(j, N)) for i, j in w])
        assert f.bar().bar() == f

    @settings(max_examples=50, deadline=None)
    @given(words, words, st.sampled_from([S11, S21]))
    def test_anti_automorphism(self, w1, w2, shape):
        N = shape.size
        f = AlgebraElement.from_word(shape, [(min(i, N), min(j, N)) for i, j in w1])
        g = AlgebraElement.from_word(shape, [(min(i, N), min(j, N)) for i, j in w2])
        if f.is_zero() or g.is_zero():
            return
        sign = (-1) ** (f.parity() * g.parity())
        assert (f * g).bar() == (g.bar() * f.bar()).scale(sign)

    def test_diagonal_coefficient_bar_fixed(self):
        # the self-coefficient of bar(x(M)) equals that of x(M)
        for shape in (S11, S21):
            N = shape.size
            for k in range(3):
                for ro in _compositions(k, N):
                    for co in _compositions(k, N):
                        for M in enumerate_block(shape, ro, co):
                            f = x_norm(shape, M)
                            assert f.bar().coeff(M) == f.coeff(M)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class TestNormalizedMonomials:
    def test_square_no_pairs(self):
        assert x_norm(S11, (2, 0, 0, 0)) == AlgebraElement(S11, {(2, 0, 0, 0): ONE})

    def test_row_pair(self):
        assert x_norm(S11, (1, 1, 0, 0)) == AlgebraElement(
            S11, {(1, 1, 0, 0): lp({-1: 1})}
        )

    def test_diagonal_no_pairs(self):
        assert x_norm(S11, (1, 0, 0, 1)) == AlgebraElement(S11, {(1, 0, 0, 1): ONE})

    def test_odd_column_pair(self):
        # column 2 has parity 1, so its pair contributes with opposite sign
        assert x_norm(S11, (0, 1, 0, 1)) == AlgebraElement(
            S11, {(0, 1, 0, 1): lp({1: 1})}
        )

    def test_norm_exponent_matches_the_pair_loop(self):
        # the closed form over row and column sums against the loop over
        # every pair of letters in one row or one column: 11,598 matrices
        sweep = [(S11, 4), (S21, 4), (Shape(1, 2), 4), (S22, 4), (Shape(3, 1), 4),
                 (Shape(3, 2), 3)]
        count = 0
        for shape, max_degree in sweep:
            for deg in range(max_degree + 1):
                for M in degree_matrices(shape, deg):
                    assert algebra.norm_exponent(shape, M) == ref_norm_exponent(shape, M), M
                    count += 1
        assert count == 11598


def ref_norm_exponent(shape, M):
    """Minus the (-1)^[i]-signed count of the pairs of letters j < k in
    row i, and of those in column i."""
    N = shape.size
    expo = 0
    for i in range(1, N + 1):
        si = (-1) ** shape.parity(i)
        for j in range(1, N + 1):
            for k in range(j + 1, N + 1):
                expo += si * mat_entry(M, N, i, j) * mat_entry(M, N, i, k)
                expo += si * mat_entry(M, N, j, i) * mat_entry(M, N, k, i)
    return -expo


class TestBiweight:
    def test_monomials(self):
        f = gen(S11, 1, 1) * gen(S11, 2, 2)
        assert f.biweight() == ((1, 1), (1, 1))
        assert (gen(S11, 1, 2) * gen(S11, 2, 1)).biweight() == ((1, 1), (1, 1))
        assert AlgebraElement.one(S11).biweight() == ((0, 0), (0, 0))

    def test_rejects_mixed(self):
        with pytest.raises(NonHomogeneous):
            (gen(S11, 1, 1) + AlgebraElement.one(S11)).biweight()

    @settings(max_examples=50, deadline=None)
    @given(words, words)
    def test_additive(self, w1, w2):
        f = AlgebraElement.from_word(S21, [(min(i, 3), min(j, 3)) for i, j in w1])
        g = AlgebraElement.from_word(S21, [(min(i, 3), min(j, 3)) for i, j in w2])
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            return
        (r1, c1), (r2, c2) = f.biweight(), g.biweight()
        assert (f * g).biweight() == (
            tuple(a + b for a, b in zip(r1, r2)),
            tuple(a + b for a, b in zip(c1, c2)),
        )


class TestEnumerateBlock:
    def test_degree_one_block(self):
        assert enumerate_block(S11, (1, 1), (1, 1)) == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_empty_biweight(self):
        assert enumerate_block(S11, (0, 0), (0, 0)) == [(0, 0, 0, 0)]

    def test_odd_cap_excludes(self):
        assert enumerate_block(S11, (2, 0), (0, 2)) == []

    def test_mismatched_sums(self):
        assert enumerate_block(S11, (1, 0), (0, 0)) == []

    @pytest.mark.parametrize("ro,co", [((2, -1), (1, 0)), ((1, 0), (2, -1))])
    def test_negative_sum(self, ro, co):
        # equal totals, so only the sign check rules the block out
        assert enumerate_block(S11, ro, co) == []

    @pytest.mark.parametrize("ro,co", [((1, 0, 0), (1, 0)), ((1,), (1, 0))])
    def test_sums_of_the_wrong_length(self, ro, co):
        with pytest.raises(ValueError, match="length mismatch"):
            enumerate_block(S11, ro, co)


class TestValidateMatrix:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="does not match shape"):
            validate_matrix(S11, (0, 0, 0))

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            validate_matrix(S11, (1, 0, 0, -1))

    def test_odd_square(self):
        with pytest.raises(ValueError, match=r"odd generator x\[1,2\]"):
            validate_matrix(S11, (0, 2, 0, 0))


class TestCounting:
    @pytest.mark.parametrize("shape", [S11, S21, Shape(1, 2), S22])
    def test_dimension_formula(self, shape):
        m, n = shape.m, shape.n
        for k in range(7):
            expect = sum(
                math.comb(m * m + n * n + r - 1, r) * math.comb(2 * m * n, k - r)
                for r in range(k + 1)
                if k - r <= 2 * m * n
            )
            assert count_monomials(shape, k) == expect


class TestSerialization:
    def test_roundtrip_and_sorting(self):
        f = gen(S11, 2, 2) * gen(S11, 1, 1)
        obj = f.to_json()
        assert obj["m"] == 1 and obj["n"] == 1
        mats = [t["matrix"] for t in obj["terms"]]
        assert mats == sorted(mats)
        assert AlgebraElement.from_json(obj) == f

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            AlgebraElement.from_json(
                {"m": 1, "n": 1, "terms": [{"matrix": [[0, 2], [0, 0]], "coeff": {"0": 1}}]}
            )

    def test_duplicate_terms_add_up(self):
        def obj(*coeffs):
            return {"m": 1, "n": 1, "terms": [
                {"matrix": [[1, 0], [0, 0]], "coeff": {"0": c}} for c in coeffs]}
        assert AlgebraElement.from_json(obj(1, 2)) == gen(S11, 1, 1).scale(3)
        assert AlgebraElement.from_json(obj(1, -1)).is_zero()


def test_matrix_parity():
    assert S11.odd_degree((1, 0, 0, 1)) % 2 == 0
    assert S11.odd_degree((0, 1, 0, 0)) % 2 == 1
    assert S11.odd_degree((0, 1, 1, 0)) % 2 == 0


def test_mixed_parities_raise():
    f = gen(S11, 1, 1) + gen(S11, 1, 2)
    with pytest.raises(NonHomogeneous, match="mixed parities"):
        f.parity()
