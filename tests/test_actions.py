import collections
import functools
import itertools
import random

import pytest

import qsuper
from qsuper import actions, basis, exactlinalg
from qsuper.laurent import LaurentPoly, ONE, Variant
from qsuper.algebra import (
    AlgebraElement,
    Shape,
    enumerate_block,
    mat_entry,
    unit_matrix,
    word_to_matrix,
    x_norm,
)
from qsuper.superspace import det_q_A, minor_star
from qsuper.glq import (
    LocalElement,
    berezinian,
    det_a_local,
    det_dprime_local,
    to_mixed,
)
from qsuper.exactlinalg import nullspace, solve_in_span
from qsuper.actions import (
    AdaptedElement,
    GenSymbol,
    NotAdapted,
    SpanMismatch,
    SpanReport,
    act_left,
    act_right,
    adapted_basis_tworow,
    canonical_span_check,
    conventions,
    decompose_tworow,
    epsilon,
    invariants_window,
    kashiwara_e1,
    kashiwara_f1,
    minor_power_expansion,
    window_indices,
)
from test_exactlinalg import _dense, all_columns_nullspace, assert_laurent_multiples, dense_nullspace
from test_superspace import perm_coefficients

S11 = Shape(1, 1)
S21 = Shape(2, 1)
S12 = Shape(1, 2)
S22 = Shape(2, 2)


def E(i):
    return GenSymbol("E", i)


def F(i):
    return GenSymbol("F", i)


def K(i):
    return GenSymbol("K", i)


def Kinv(i):
    return GenSymbol("Kinv", i)


def xg(shape, i, j):
    return AlgebraElement.generator(shape, i, j)


def lp(d):
    return LaurentPoly(d)


def qp(e, c=1):
    return LaurentPoly.q_power(e, c)


def signed_pair_weight(shape, M, i, side):
    N = shape.size
    si = (-1) ** shape.parity(i)
    sj = (-1) ** shape.parity(i + 1)
    if side == "L":
        wi = sum(mat_entry(M, N, i, j) for j in range(1, N + 1))
        wj = sum(mat_entry(M, N, i + 1, j) for j in range(1, N + 1))
    else:
        wi = sum(mat_entry(M, N, k, i) for k in range(1, N + 1))
        wj = sum(mat_entry(M, N, k, i + 1) for k in range(1, N + 1))
    return si * wi - sj * wj


def balanced_qint(w):
    out = LaurentPoly.zero()
    s = 1 if w > 0 else -1
    for k in range(abs(w)):
        out = out + qp(s * (2 * abs(w) - 2 - 4 * k), s)
    return out


class TestGeneratorTables:
    def test_left_e_lowers_rows(self):
        for l in (1, 2, 3):
            assert act_left(E(1), xg(S21, 2, l)) == xg(S21, 1, l)
            assert act_left(E(2), xg(S21, 3, l)) == xg(S21, 2, l)
            assert act_left(E(1), xg(S21, 1, l)).is_zero()
            assert act_left(E(2), xg(S21, 1, l)).is_zero()

    def test_left_f_raises_rows(self):
        for l in (1, 2, 3):
            assert act_left(F(1), xg(S21, 1, l)) == xg(S21, 2, l)
            assert act_left(F(2), xg(S21, 2, l)) == xg(S21, 3, l)
            assert act_left(F(1), xg(S21, 3, l)).is_zero()

    def test_right_e_raises_columns(self):
        for k in (1, 2, 3):
            assert act_right(E(1), xg(S21, k, 1)) == xg(S21, k, 2)
            assert act_right(E(2), xg(S21, k, 2)) == xg(S21, k, 3)
            assert act_right(E(1), xg(S21, k, 3)).is_zero()

    def test_right_f_lowers_columns(self):
        for k in (1, 2, 3):
            assert act_right(F(1), xg(S21, k, 2)) == xg(S21, k, 1)
            assert act_right(F(2), xg(S21, k, 3)) == xg(S21, k, 2)
            assert act_right(F(2), xg(S21, k, 1)).is_zero()

    def test_k_acts_by_weight_power(self):
        f = xg(S21, 2, 3)
        assert act_left(K(2), f) == f.scale(qp(2))
        assert act_left(K(1), f) == f
        assert act_left(Kinv(2), f) == f.scale(qp(-2))
        assert act_right(K(3), f) == f.scale(qp(2))
        assert act_right(K(1), f) == f

    def test_epsilon(self):
        assert epsilon(E(1)).is_zero()
        assert epsilon(F(2)).is_zero()
        assert epsilon(K(1)) == ONE
        assert epsilon(Kinv(3)) == ONE

    def test_unit_is_fixed_up_to_counit(self):
        one = AlgebraElement.one(S21)
        for g in (E(1), F(2), K(1), Kinv(3)):
            assert act_left(g, one) == one.scale(epsilon(g))
            assert act_right(g, one) == one.scale(epsilon(g))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            act_left(E(3), xg(S21, 1, 1))
        with pytest.raises(ValueError):
            act_left(GenSymbol("Q", 1), xg(S21, 1, 1))
        with pytest.raises(ValueError):
            act_left(K(4), xg(S21, 1, 1))

    def test_conventions_record(self):
        rec = conventions()
        for key in ("L.E", "L.F", "R.E", "R.F", "K", "sign", "tables"):
            assert key in rec


class TestModuleAlgebraLaw:
    """The action on a product expands by the coproduct rule."""

    def kprime(self, shape, f, i, side, power_sign):
        out = AlgebraElement.zero(shape)
        for M, c in f.terms.items():
            w = signed_pair_weight(shape, M, i, side)
            out = out + AlgebraElement.monomial(
                shape, M, c * qp(2 * power_sign * w)
            )
        return out

    def parity(self, shape, f):
        # straightening preserves parity, so any term represents it
        M = next(iter(f.terms))
        N = shape.size
        return sum(
            mat_entry(M, N, i, j) * shape.gen_parity(i, j)
            for i in range(1, N + 1)
            for j in range(1, N + 1)
        ) % 2

    @pytest.mark.parametrize("shape", [S21, S12])
    def test_left_coproduct_rule(self, shape):
        rng = random.Random(11)
        N = shape.size
        words = [
            [(rng.randint(1, N), rng.randint(1, N)) for _ in range(k)]
            for k in (1, 2, 2, 3)
        ]
        for wf in words:
            for wh in words:
                f = AlgebraElement.from_word(shape, wf)
                h = AlgebraElement.from_word(shape, wh)
                if f.is_zero() or h.is_zero():
                    continue
                for i in range(1, N):
                    sgn = 1
                    if i == shape.m and self.parity(shape, f):
                        sgn = -1
                    # E: K-factor accompanies the tail with negative exponent
                    lhs = act_left(E(i), f * h)
                    rhs = act_left(E(i), f) * self.kprime(
                        shape, h, i, "L", -1
                    ) + (f * act_left(E(i), h)).scale(lp({0: sgn}))
                    assert lhs == rhs
                    # F: K-factor accompanies the head with positive exponent
                    lhs = act_left(F(i), f * h)
                    rhs = (act_left(F(i), f) * h) + (
                        self.kprime(shape, f, i, "L", 1) * act_left(F(i), h)
                    ).scale(lp({0: 1 if not (i == shape.m and self.parity(shape, f)) else -1}))
                    assert lhs == rhs


class TestDefiningRelation:
    """E_i F_i -+ F_i E_i acts as the balanced q-integer of the K'-weight."""

    @pytest.mark.parametrize("shape,words", [
        (S21, [[(1, 1)], [(2, 1), (1, 2)], [(2, 2), (3, 3)],
               [(1, 2), (2, 1), (3, 3)], [(1, 1), (1, 1), (2, 2)]]),
        (S12, [[(2, 2)], [(1, 2), (2, 1)], [(2, 3), (3, 2)],
               [(1, 1), (2, 2), (3, 3)]]),
    ])
    def test_commutator(self, shape, words):
        N = shape.size
        for side in ("L", "R"):
            act = act_left if side == "L" else act_right
            for w in words:
                f = AlgebraElement.from_word(shape, w)
                for i in range(1, N):
                    odd = i == shape.m
                    d_i = (-1) ** shape.parity(i)
                    if side == "L":
                        ef = act(E(i), act(F(i), f))
                        fe = act(F(i), act(E(i), f))
                    else:
                        # composing right actions reverses the word order
                        ef = act(F(i), act(E(i), f))
                        fe = act(E(i), act(F(i), f))
                    lhs = ef + fe if odd else ef - fe
                    rhs = AlgebraElement.zero(shape)
                    for M, c in f.terms.items():
                        pw = d_i * signed_pair_weight(shape, M, i, side)
                        if pw:
                            rhs = rhs + AlgebraElement.monomial(
                                shape, M, c * balanced_qint(pw)
                            )
                    assert lhs == rhs


class TestSchurEntryTables:
    """Entry tables on the Schur complement are theorems of the engine."""

    @pytest.mark.parametrize("shape", [S11, S21, S12])
    def test_tables(self, shape):
        m, N = shape.m, shape.size
        Y = LocalElement.y_gen
        zero = LocalElement.zero(shape)
        for i in range(m + 1, N):
            for k in range(m + 1, N + 1):
                for l in range(m + 1, N + 1):
                    y = Y(shape, k, l)
                    assert act_left(E(i), y) == (
                        Y(shape, i, l) if k == i + 1 else zero
                    )
                    assert act_left(F(i), y) == (
                        Y(shape, i + 1, l) if k == i else zero
                    )
                    assert act_right(E(i), y) == (
                        Y(shape, k, i + 1) if l == i else zero
                    )
                    assert act_right(F(i), y) == (
                        Y(shape, k, i) if l == i + 1 else zero
                    )

    @pytest.mark.parametrize("shape", [S11, S21, S12])
    def test_odd_raising_kills_first_lower_row(self, shape):
        m, N = shape.m, shape.size
        for nu in range(m + 1, N + 1):
            y = LocalElement.y_gen(shape, m + 1, nu)
            assert act_left(E(m), y).is_zero()


class TestKillIdentities:
    @pytest.mark.parametrize("shape", [S11, S21, S12])
    def test_upper_determinant(self, shape):
        dA = det_q_A(shape)
        for i in range(1, shape.size):
            assert act_left(E(i), dA).is_zero()
            assert act_right(F(i), dA).is_zero()

    @pytest.mark.parametrize("shape", [S11, S21, S12])
    def test_lower_determinant_and_berezinian(self, shape):
        dD = det_dprime_local(shape)
        ber = berezinian(shape)
        for i in range(1, shape.size):
            assert act_left(E(i), dD).is_zero()
            assert act_right(F(i), dD).is_zero()
            assert act_left(E(i), ber).is_zero()
            assert act_right(F(i), ber).is_zero()

    def test_principal_minors_are_two_sided_invariants(self):
        # quantum minors on the leading rows/columns, the lower determinant
        # and the Berezinian are joint highest/lowest weight vectors
        for shape in (S21, S22):
            gens = [
                to_mixed(minor_star(shape, tuple(range(1, r + 1)),
                                    tuple(range(1, r + 1))))
                for r in range(1, shape.m + 1)
            ]
            gens.append(det_dprime_local(shape))
            gens.append(berezinian(shape))
            for g in gens:
                for i in range(1, shape.size):
                    assert act_left(E(i), g).is_zero()
                    assert act_right(F(i), g).is_zero()


# The word loop that _act_key's product rule replaced, kept as its
# reference: a mixed word is a tuple of letters ("x", i, j), ("y", mu, nu)
# and ("dA", +-1), and the term of each position is prefix * image *
# suffix, each of prefix and suffix one monomial.  Its y-letter table is
# derived from the x-expansion by this loop too, so nothing here reads
# _act_key.


def ref_letter_weight(shape, L, i, side):
    """Parity-signed w_i - w_{i+1} of one letter; detA^s weighs s on the
    even rows and columns."""
    if L[0] == "dA":
        return L[1] * (shape.parity(i + 1) - shape.parity(i))
    idx = L[1] if side == "L" else L[2]
    if idx == i:
        return (-1) ** shape.parity(i)
    return -(-1) ** shape.parity(i + 1) if idx == i + 1 else 0


def ref_mixed_letters(shape, M, s):
    """The word of W(M) detA^s: x- and y-letters in lexicographic order,
    then the detA letters."""
    N = shape.size
    letters = [("y" if b == "D" else "x", k // N + 1, k % N + 1)
               for k, (v, b) in enumerate(zip(M, shape.blocks)) for _ in range(v)]
    return tuple(letters + [("dA", 1 if s >= 0 else -1)] * abs(s))


def ref_letters_local(shape, letters):
    """A run of a mixed word as one monomial."""
    M = word_to_matrix([L[1:] for L in letters if L[0] != "dA"], shape.size)
    return LocalElement.monomial(shape, M, sum(L[1] for L in letters if L[0] == "dA"))


@functools.lru_cache(maxsize=None)
def ref_y_letter_act(shape, kind, i, side, mu, nu):
    """y_{mu,nu} = x_{mu,nu} - corr: the loop on the letter x_{mu,nu} minus
    the loop on each word of corr."""
    corr = to_mixed(xg(shape, mu, nu)) - LocalElement.y_gen(shape, mu, nu)
    out = ref_act_word(shape, kind, i, side, (("x", mu, nu),))
    for (M, a, d), c in corr.terms.items():
        assert d == 0
        out = out - ref_act_word(shape, kind, i, side, ref_mixed_letters(shape, M, a)).scale(c)
    return out


@functools.lru_cache(maxsize=None)
def ref_det_act(shape, kind, i, side, s):
    """detA: to_mixed of the polynomial action on det_q_A.  detA^-1: from
    X.(u u^-1) = 0, X.u^-1 = -q^(-2 (c_head + c_tail) w(u)) u^-1 (X.u) u^-1
    with u = detA and w(u) its pair weight."""
    act = act_left if side == "L" else act_right
    hit = to_mixed(act(GenSymbol(kind, i), det_q_A(shape)))
    if s == 1 or hit.is_zero():
        return hit
    c_tail, c_head = actions.CONVENTIONS[kind]
    w = ref_letter_weight(shape, ("dA", 1), i, side)
    inv = LocalElement.monomial(shape, (0,) * shape.size ** 2, -1)
    return (inv * hit * inv).scale(qp(-2 * (c_tail + c_head) * w, -1))


def ref_letter_image(shape, kind, i, side, L):
    if L[0] == "y":
        return ref_y_letter_act(shape, kind, i, side, L[1], L[2])
    if L[0] == "dA":
        return ref_det_act(shape, kind, i, side, L[1])
    cell = actions._x_letter_act(kind, i, side, L[1], L[2])
    if cell is None:
        return LocalElement.zero(shape)
    return to_mixed(xg(shape, *cell))


def ref_act_word(shape, kind, i, side, letters):
    """E_i/F_i on a mixed word, summed over every letter position."""
    c_tail, c_head = actions.CONVENTIONS[kind]
    odd_gen = shape.parity(i) != shape.parity(i + 1)
    out = LocalElement.zero(shape)
    for p, L in enumerate(letters):
        head, tail = letters[:p], letters[p + 1:]
        image = ref_letter_image(shape, kind, i, side, L)
        if image.is_zero():
            continue
        w = (c_tail * sum(ref_letter_weight(shape, T, i, side) for T in tail)
             + c_head * sum(ref_letter_weight(shape, T, i, side) for T in head))
        run = head if side == "L" else tail
        par = sum(T[0] == "x" and shape.gen_parity(T[1], T[2]) for T in run)
        c = qp(2 * w, (-1) ** par if odd_gen else 1)
        out = out + (ref_letters_local(shape, head) * image
                     * ref_letters_local(shape, tail)).scale(c)
    return out


def permutation_detDprime_act(shape, kind, i, side):
    """The detD' action through its y-letters, the reference for the action
    through the Berezinian: the action on each product of n y-letters of
    the q^-1-determinant of the y-matrix."""
    m, n = shape.m, shape.n
    out = LocalElement.zero(shape)
    for tau, c in perm_coefficients(n, -2):
        letters = tuple(("y", m + 1 + r, m + 1 + tau[r]) for r in range(n))
        out = out + ref_act_word(shape, kind, i, side, letters).scale(c)
    return out


@pytest.mark.parametrize("shape", [S11, S21, S12, S22, Shape(3, 1), Shape(1, 3)])
def test_letter_act_matches_the_letter_rules(shape):
    # every lone letter's image from its numerator equals the generator
    # table on x_kl, the x-expansion loop on y_uv, to_mixed of the action on
    # det_q_A for detA and the inverse rule for detA^-1
    N = shape.size
    zero = (0,) * N ** 2
    letters = [(("y" if shape.block(k, l) == "D" else "x", k, l), unit_matrix(N, k, l), 0)
               for k in range(1, N + 1) for l in range(1, N + 1)]
    letters += [(("dA", 1), zero, 1), (("dA", -1), zero, -1)]
    for kind, i, side in itertools.product("EF", range(1, N), "LR"):
        for L, M, s in letters:
            got = actions._letter_act(shape, kind, i, side, M, s)
            assert got == ref_letter_image(shape, kind, i, side, L), (L, kind, i, side)


@pytest.mark.parametrize("shape", [S11, S21, S12, S22, Shape(3, 1), Shape(1, 3)])
def test_detDprime_action_matches_permutation_sum(shape):
    for kind in ("E", "F"):
        for i in range(1, shape.size):
            for side in ("L", "R"):
                act = act_left if side == "L" else act_right
                got = act(GenSymbol(kind, i), det_dprime_local(shape))
                assert got == permutation_detDprime_act(shape, kind, i, side), (kind, i, side)


class TestLeftRightCommute:
    def test_on_random_polynomials(self):
        rng = random.Random(23)
        shape = S21
        N = shape.size
        for _ in range(3):
            word = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(3)]
            f = AlgebraElement.from_word(shape, word)
            for i in range(1, N):
                for j in range(1, N):
                    for gl, gr in ((E(i), E(j)), (E(i), F(j)),
                                   (F(i), E(j)), (F(i), F(j)),
                                   (K(i), E(j)), (F(i), Kinv(j))):
                        assert act_right(gr, act_left(gl, f)) == act_left(
                            gl, act_right(gr, f)
                        )

    def test_on_localized_element(self):
        shape = S21
        f = to_mixed(AlgebraElement.from_word(shape, [(1, 2), (3, 1), (2, 3)]))
        inv = LocalElement(shape, {((0,) * 9, -1, 0): ONE})
        f = f * inv
        for i in range(1, shape.size):
            for gl, gr in ((E(i), F(i)), (F(i), E(i))):
                assert act_right(gr, act_left(gl, f)) == act_left(
                    gl, act_right(gr, f)
                )


class TestNaturality:
    """The localization embedding intertwines the two engines."""

    @pytest.mark.parametrize("shape", [S11, S21])
    def test_to_mixed_commutes_with_actions(self, shape):
        rng = random.Random(7)
        N = shape.size
        for _ in range(3):
            word = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(3)]
            f = AlgebraElement.from_word(shape, word)
            for i in range(1, N):
                for g in (E(i), F(i), K(i)):
                    for act in (act_left, act_right):
                        assert to_mixed(act(g, f)) == act(g, to_mixed(f))


class TestInvariantsWindow:
    def test_left_raising_invariants_contain_row_one(self):
        inv = invariants_window(S21, (E(1), E(2)), (), max_degree=1)
        span = [dict(f.terms) for f in inv]
        for j in (1, 2, 3):
            target = dict(to_mixed(xg(S21, 1, j)).terms)
            assert solve_in_span(span, target) is not None
        # unit is always invariant
        assert any(f == LocalElement.one(S21) for f in inv)

    def test_row_two_entry_is_not_invariant(self):
        inv = invariants_window(S21, (E(1), E(2)), (), max_degree=1)
        span = [dict(f.terms) for f in inv]
        assert solve_in_span(span, dict(to_mixed(xg(S21, 2, 1)).terms)) is None

    def test_weight_zero_subwindow_under_k(self):
        ks = tuple(K(i) for i in range(1, 4))
        inv = invariants_window(S21, ks, ks, max_degree=2)
        assert len(inv) == 1 and inv[0] == LocalElement.one(S21)

    def test_no_generators_returns_whole_window(self):
        inv = invariants_window(S21, (), (), max_degree=1)
        assert len(inv) == len(window_indices(S21, 1))

    def test_left_window_contains_listed_family(self):
        # the degree <= 2 invariants under the left raising operators:
        # row-one monomials, the odd column pair x13 x23, and the 2x2
        # minors w_k = x1k x23 - q^2 x13 x2k
        sh = S21
        x = lambda i, j: xg(sh, i, j)
        w1 = x(1, 1) * x(2, 3) - (x(1, 3) * x(2, 1)).scale(qp(2))
        w2 = x(1, 2) * x(2, 3) - (x(1, 3) * x(2, 2)).scale(qp(2))
        listed = [
            AlgebraElement.one(sh),
            x(1, 1), x(1, 2), x(1, 3),
            x(1, 1) * x(1, 1), x(1, 1) * x(1, 2), x(1, 1) * x(1, 3),
            x(1, 2) * x(1, 2), x(1, 2) * x(1, 3),
            x(1, 3) * x(2, 3), w1, w2,
        ]
        for f in listed:
            for i in (1, 2):
                assert act_left(E(i), f).is_zero()
        inv = invariants_window(sh, (E(1), E(2)), (), max_degree=2)
        assert len(inv) == len(listed)
        span = [dict(f.terms) for f in inv]
        for f in listed:
            assert solve_in_span(span, dict(to_mixed(f).terms)) is not None

    def test_two_sided_invariants_are_principal_monomials(self):
        # joint invariants under left raising and right lowering are
        # exactly the monomials x11^k (detA)^alpha (detD')^beta
        sh = S21
        inv = invariants_window(
            sh, (E(1), E(2)), (F(1), F(2)), max_degree=3,
            a_range=(-1, 1), d_range=(0, 1),
        )
        expected = set()
        for k in range(4):
            M = [0] * 9
            M[0] = k
            for a in (-1, 0, 1):
                for d in (0, 1):
                    expected.add((tuple(M), a, d))
        got = set()
        for f in inv:
            (key,) = f.terms
            got.add(key)
        assert got == expected
        # the generating invariants themselves sit in the window
        span = [dict(f.terms) for f in inv]
        for g in (to_mixed(det_q_A(sh)), det_dprime_local(sh),
                  to_mixed(xg(sh, 1, 1))):
            assert solve_in_span(span, dict(g.terms)) is not None


def reference_window(shape, left_gens, right_gens, max_degree, a_range, d_range):
    """The window's assembly before the per-key memo, kept as its reference:
    each column is act_left/act_right on a one-term LocalElement minus
    eps(g) times it, every column is eliminated, and every kernel vector is
    densified over the window."""
    keys = window_indices(shape, max_degree, a_range, d_range)
    if not keys:
        return []
    images = [[act(g, f) - f.scale(epsilon(g))
               for f in (LocalElement(shape, {key: ONE}) for key in keys)]
              for gens, act in ((left_gens, act_left), (right_gens, act_right))
              for g in gens]
    columns = [{(gi, k): c for gi, cols in enumerate(images) for k, c in cols[j].terms.items()}
               for j in range(len(keys))]
    return [LocalElement(shape, dict(zip(keys, [vec.get(j, LaurentPoly.zero())
                                                for j in range(len(keys))])))
            for vec in all_columns_nullspace(columns)]


def act_word_oracle(shape, kind, i, side, M, s):
    """E_i/F_i on W(M) detA^s by the reference word loop over every letter."""
    return ref_act_word(shape, kind, i, side, ref_mixed_letters(shape, M, s))


@pytest.mark.parametrize("shape,max_degree", [
    (S11, 2), (S21, 2), (S12, 2), (S22, 1), (Shape(3, 1), 1)], ids=str)
def test_act_key_split_at_the_determinant(shape, max_degree):
    # _act_key builds W(M) detA^s from the image of the key less its last
    # factor (detA^s, one detA^(+-1) or W(M)'s last letter) and the image of
    # that factor; from cleared caches every image equals the reference word
    # loop on the whole word
    qsuper.clear_caches()
    zero = (0,) * shape.size ** 2
    for M in actions._window_matrices(shape, max_degree):
        for s in range(-2, 3):
            for kind, i, side in itertools.product("EF", range(1, shape.size), "LR"):
                got = actions._act_key(shape, kind, i, side, M, s)
                assert got == act_word_oracle(shape, kind, i, side, M, s), (M, s, kind, i, side)
                if M == zero and s:
                    # detA^s is moved only by a left F_m and a right E_m
                    moves = i == shape.m and (kind, side) in (("F", "L"), ("E", "R"))
                    assert got.is_zero() != moves, (s, kind, i, side)


@pytest.mark.parametrize("shape,max_degree,count", [
    (S21, 3, 480), (S12, 2, 160), (S22, 2, 572)], ids=str)
def test_window_rows_stay_in_one_weight_space(shape, max_degree, count, monkeypatch):
    # E_i and F_i move every key's biweight by the same amount on their
    # side, so no row (generator position, image key) is shared by keys of
    # different biweights: the window's system is block diagonal by weight
    systems = []
    monkeypatch.setattr(actions, "nullspace", lambda cols: systems.append(cols) or [])
    gens = [GenSymbol(kind, i) for kind in "EF" for i in range(1, shape.size)]
    invariants_window(shape, gens, gens, max_degree, (-1, 0), (-1, 0))
    (columns,) = systems
    probe = LocalElement.zero(shape)
    weights = [probe.key_biweight(key)
               for key in window_indices(shape, max_degree, (-1, 0), (-1, 0))]
    assert len(columns) == len(weights) == count
    owner = {}
    for col, weight in zip(columns, weights):
        for row in col:
            assert owner.setdefault(row, weight) == weight, row
    assert owner


@pytest.mark.parametrize("det_range", [(0, 0), (-1, 0)], ids=["det0", "det-1:0"])
@pytest.mark.parametrize("shape,lefts,rights,counts", [
    (S21, (), (E(2),), (54, 95)), (S21, (), (E(1), E(2)), (13, 25)),
    (S12, (), (E(1),), (26, 120)), (S21, (F(2),), (), (54, 95)),
], ids=["21-right-E2", "21-right-E1E2", "12-right-E1", "21-left-F2"])
def test_window_with_pivots_that_do_not_divide(shape, lefts, rights, counts, det_range,
                                               monkeypatch):
    # degree-3 windows, a and d both in det_range, in which a pivot does not
    # divide an entry of a free column: every kernel vector is still
    # Laurent, the generators kill it, and it is a multiple of the fraction
    # field's kernel vector
    systems = []
    real = actions.nullspace
    monkeypatch.setattr(actions, "nullspace",
                        lambda cols: systems.append((cols, real(cols))) or systems[-1][1])
    inv = invariants_window(shape, lefts, rights, 3, det_range, det_range)
    assert len(inv) == counts[det_range != (0, 0)]
    for f in inv:
        assert all(act_left(g, f).is_zero() for g in lefts)
        assert all(act_right(g, f).is_zero() for g in rights)
    ((columns, vectors),) = systems
    assert_laurent_multiples([_dense(vec, len(columns)) for vec in vectors],
                             dense_nullspace(columns))
    assert any(not vec[max(vec)].is_one() for vec in vectors)


@pytest.mark.parametrize("shape,degree,vectors", [
    (S11, 3, 34), (S21, 3, 2032), (S12, 3, 2212), (S22, 2, 5030),
], ids=str)
def test_every_single_generator_window_is_solved(shape, degree, vectors):
    # each E_i and F_i alone, on each side, at a = d = 0 and at a, d in
    # [-1, 0]: every window has an exact kernel that the generator kills
    count = 0
    for g in [E(i) for i in range(1, shape.size)] + [F(i) for i in range(1, shape.size)]:
        for side, act in (("left", act_left), ("right", act_right)):
            for det in ((0, 0), (-1, 0)):
                gens = ((g,), ()) if side == "left" else ((), (g,))
                inv = invariants_window(shape, *gens, degree, det, det)
                assert all(act(g, f).is_zero() for f in inv), (g, side, det)
                count += len(inv)
    assert count == vectors


# the benchmark's four det windows, (a_range, d_range), at degree 2
DET_WINDOWS = [((-1, 0), (0, 0)), ((0, 0), (-1, 0)), ((-1, 0), (0, 1)), ((-1, 1), (-1, 0))]


class TestWindowAgainstReference:
    @pytest.mark.parametrize("shape", [S21, S12], ids=str)
    @pytest.mark.parametrize("a_range,d_range", DET_WINDOWS)
    def test_det_windows(self, shape, a_range, d_range):
        N = shape.size
        lefts = all_E(shape)
        for right in [()] + [(F(i),) for i in range(1, N)] + [tuple(F(i) for i in range(1, N))]:
            got = invariants_window(shape, lefts, right, 2, a_range, d_range)
            assert got == reference_window(shape, lefts, right, 2, a_range, d_range)

    @pytest.mark.parametrize("shape", [S21, S12], ids=str)
    def test_k_generators(self, shape):
        Kinv = lambda i: GenSymbol("Kinv", i)
        for lefts, rights in [((K(1), Kinv(2)), (K(3),)), ((E(1), K(2)), (Kinv(1), F(2)))]:
            for a_range, d_range in DET_WINDOWS[::3]:
                got = invariants_window(shape, lefts, rights, 2, a_range, d_range)
                assert got == reference_window(shape, lefts, rights, 2, a_range, d_range)

    @pytest.mark.parametrize("shape", [S21, S12], ids=str)
    def test_k_that_moves_every_key(self, shape, monkeypatch):
        # detA^1 puts 1 on row 1 of every key, so K_1 moves each one and
        # the window is empty before any column is built
        args = (shape, (K(1), E(1)), (F(1),), 2, (1, 1), (0, 0))
        assert reference_window(*args) == []
        monkeypatch.setattr(actions, "nullspace", lambda cols: pytest.fail("built a system"))
        assert invariants_window(*args) == []

    def test_window_keeps_only_the_keys_every_k_fixes(self, monkeypatch):
        systems = []
        real = actions.nullspace
        monkeypatch.setattr(actions, "nullspace", lambda cols: systems.append(cols) or real(cols))
        lefts, rights = (E(1), K(2)), (Kinv(1), F(2))
        got = invariants_window(S21, lefts, rights, 2, (-1, 0), (0, 0))
        assert got == reference_window(S21, lefts, rights, 2, (-1, 0), (0, 0))
        probe = LocalElement.zero(S21)
        fixed = [key for key in window_indices(S21, 2, (-1, 0), (0, 0))
                 if probe.key_biweight(key)[0][1] == probe.key_biweight(key)[1][0] == 0]
        (columns,) = systems
        assert 0 < len(columns) == len(fixed) < len(window_indices(S21, 2, (-1, 0), (0, 0)))
        # no K row: every row is an E/F image, at the generator's position
        assert {gi for col in columns for gi, _ in col} <= {0, 3}

    def test_act_key_matches_its_uncached_form(self):
        for M, a, d in window_indices(S22, 2, (-1, 0), (0, 1)):
            for kind, i, side in itertools.product("EF", (1, 2, 3), "LR"):
                assert (actions._act_key(S22, kind, i, side, M, a + d)
                        == act_word_oracle(S22, kind, i, side, M, a + d))

    def test_clear_caches_empties_the_bounded_memo(self):
        args = (S21, all_E(S21), (F(1),), 2, (-1, 0), (0, 1))
        warm = invariants_window(*args)
        assert actions._act_key.cache_info().maxsize is not None
        assert actions._act_key.cache_info().currsize > 0
        qsuper.clear_caches()
        assert actions._act_key.cache_info().currsize == 0
        assert invariants_window(*args) == warm

    def test_window_calls_nullspace_through_the_actions_binding(self, monkeypatch):
        # the benchmark's exactlinalg.nullspace span wraps this binding
        calls = []
        real = actions.nullspace
        monkeypatch.setattr(actions, "nullspace", lambda cols: calls.append(cols) or real(cols))
        for a_range, d_range in DET_WINDOWS:
            invariants_window(S12, all_E(S12), (F(1),), 2, a_range, d_range)
        assert [len(cols) for cols in calls] == [
            len(window_indices(S12, 2, a_range, d_range)) for a_range, d_range in DET_WINDOWS]

    def test_window_eliminates_only_the_columns_that_share_a_row(self, monkeypatch):
        systems, eliminated = [], []
        real_nullspace, real_eliminate = actions.nullspace, exactlinalg._eliminate
        monkeypatch.setattr(actions, "nullspace",
                            lambda cols: systems.append(cols) or real_nullspace(cols))
        monkeypatch.setattr(exactlinalg, "_eliminate",
                            lambda cols: eliminated.append(cols) or real_eliminate(cols))
        invariants_window(S12, all_E(S12), (F(1),), 2, (-1, 0), (0, 1))
        (columns,) = systems
        rows = [[k for k, v in col.items() if v.terms] for col in columns]
        uses = collections.Counter(k for keys in rows for k in keys)
        linked = [col for col, keys in zip(columns, rows) if any(uses[k] > 1 for k in keys)]
        assert eliminated == [linked]
        # 36 of the 160 columns are empty and 108 isolated
        assert (len(columns), len(linked)) == (160, 16)


def solve_span_check(shape, left_gens, max_degree, a_range=(0, 0)):
    """The solve-based check that canonical_span_check replaced, kept as its
    reference: every invariant must solve over the selected elements.
    Returns the report, or None where the span differs."""
    inv = invariants_window(shape, left_gens, (), max_degree, a_range)
    selected, cols = [], []
    for key in window_indices(shape, max_degree, a_range):
        f = basis.omega_global(shape, *key, Variant.PLUS_Q).expansion
        if all((act_left(g, f) - f.scale(epsilon(g))).is_zero() for g in left_gens):
            selected.append(key)
            cols.append(f.terms)
    if len(selected) != len(inv):
        return None
    if any(solve_in_span(cols, f.terms) is None for f in inv):
        return None
    return SpanReport(tuple(selected), len(inv), True)


def span_verdict(shape, left_gens, max_degree, a_range=(0, 0)):
    try:
        return canonical_span_check(shape, left_gens, max_degree, a_range)
    except SpanMismatch:
        return None


def all_E(shape):
    return tuple(E(i) for i in range(1, shape.size))


@pytest.fixture
def no_solver(monkeypatch):
    def refuse(columns, target):
        raise AssertionError("the span check solved a system")

    monkeypatch.setattr(exactlinalg, "solve_in_span", refuse)
    monkeypatch.setattr(actions, "solve_in_span", refuse)


@pytest.mark.usefixtures("no_solver")
class TestSpanCheck:
    """No span check solves a system, so each one here runs with the
    solvers patched to raise."""

    def test_rank_one_shape(self):
        rep = canonical_span_check(S11, (E(1),), max_degree=2)
        assert rep.passed and rep.invariant_dim == 2

    def test_two_one_shape(self):
        rep = canonical_span_check(S21, (E(1), E(2)), max_degree=2)
        assert rep.passed and rep.invariant_dim == 12
        # the leading index of the invariant minor x11 x23 - q^2 x13 x21
        # is among the selected basis indices
        assert ((1, 0, 0, 0, 0, 1, 0, 0, 0), 0, 0) in rep.selected

    def test_empty_invariant_window(self):
        rep = canonical_span_check(
            S21, (K(1),), max_degree=1, a_range=(1, 1), d_range=(1, 1)
        )
        assert rep.passed and rep.invariant_dim == 0

    def test_requires_one_odd_row(self):
        with pytest.raises(ValueError):
            canonical_span_check(S22, (E(1),), max_degree=1)

    # the paper's n = 1 theorem on the windows it is affordable on
    @pytest.mark.parametrize("shape,max_degree,a_range", [
        (Shape(3, 1), 2, (0, 0)),
        (Shape(3, 1), 1, (-1, 1)),
        (Shape(3, 1), 2, (-1, 1)),
        (S21, 2, (-1, 1)),
    ], ids=["(3|1)-deg2-a0", "(3|1)-deg1-a-1..1", "(3|1)-deg2-a-1..1", "(2|1)-deg2-a-1..1"])
    def test_agrees_with_solving(self, shape, max_degree, a_range):
        gens = all_E(shape)
        rep = span_verdict(shape, gens, max_degree, a_range)
        assert rep is not None and rep.passed
        assert rep == solve_span_check(shape, gens, max_degree, a_range)

    @pytest.mark.parametrize("shape", [S11, S21], ids=["(1|1)", "(2|1)"])
    def test_every_generator_set(self, shape):
        N = shape.size
        allowed = [E(i) for i in range(1, N)]
        allowed += [F(i) for i in range(1, N) if i != shape.m]
        allowed += [K(i) for i in range(1, N + 1)]
        for r in range(len(allowed) + 1):
            for gens in itertools.combinations(allowed, r):
                assert canonical_span_check(shape, gens, max_degree=2).passed, gens

    def test_count_mismatch(self, monkeypatch):
        # one invariant too few: the count alone decides
        window = actions.invariants_window
        monkeypatch.setattr(
            actions, "invariants_window", lambda *args: window(*args)[1:]
        )
        with pytest.raises(SpanMismatch, match="11 invariants vs 12"):
            canonical_span_check(S21, (E(1), E(2)), max_degree=2)

    def test_element_outside_the_window(self, monkeypatch):
        # adding the E-invariant detA^2 keeps every element's invariance and
        # the count, but puts a term outside the window
        omega = basis.omega_global
        dA2 = det_a_local(S21) * det_a_local(S21)

        def shifted(shape, M, a, d, variant):
            cb = omega(shape, M, a, d, variant)
            return basis.CBElement(cb.index, cb.variant, cb.expansion + dA2)

        # the check binds omega_global in actions, the reference reads basis
        monkeypatch.setattr(basis, "omega_global", shifted)
        monkeypatch.setattr(actions, "omega_global", shifted)
        with pytest.raises(SpanMismatch, match="outside the window"):
            canonical_span_check(S21, (E(1), E(2)), max_degree=1)
        assert solve_span_check(S21, (E(1), E(2)), 1) is None


class TestMinorPowerExpansion:
    @pytest.mark.parametrize("shape,idx", [
        (S21, (1, 1, 2, 2)),
        (Shape(3, 1), (1, 1, 2, 2)),
        (Shape(3, 1), (1, 1, 2, 3)),
        (Shape(3, 1), (1, 2, 2, 3)),
        (Shape(3, 1), (2, 2, 3, 3)),
    ])
    def test_even_minor_powers(self, shape, idx):
        i, j, k, l = idx
        M = xg(shape, i, j) * xg(shape, k, l) - (
            xg(shape, i, l) * xg(shape, k, j)
        ).scale(qp(2))
        direct = AlgebraElement.one(shape)
        for s in range(4):
            assert direct == minor_power_expansion(shape, i, j, k, l, s)
            direct = direct * M

    def test_odd_column_minor_squares_to_zero(self):
        M13 = xg(S21, 1, 1) * xg(S21, 2, 3) - (
            xg(S21, 1, 3) * xg(S21, 2, 1)
        ).scale(qp(2))
        assert (M13 * M13).is_zero()
        assert minor_power_expansion(S21, 1, 1, 2, 3, 1) == M13


def block_coords(shape, f, block):
    out = {}
    for M in block:
        c = f.coeff(M).divexact(x_norm(shape, M).terms[M])
        if not c.is_zero():
            out[M] = c
    return out


class TestAdaptedBasis:
    def test_single_monomial_window(self):
        els, trans = adapted_basis_tworow(S21, (1, 0, 0), (1, 0, 0))
        assert len(els) == 1
        el = els[0]
        assert el.power == 0 and el.minors == ()
        assert el.expansion() == xg(S21, 1, 1)

    def test_minor_is_its_own_adapted_element(self):
        els, _ = adapted_basis_tworow(S21, (1, 1, 0), (1, 0, 1))
        minors = [el for el in els if el.minors]
        assert len(minors) == 1
        el = minors[0]
        assert el.minors == (((1, 3), 1),)
        assert el.power == 0 and set(el.staircase) == {0}
        M13 = xg(S21, 1, 1) * xg(S21, 2, 3) - (
            xg(S21, 1, 3) * xg(S21, 2, 1)
        ).scale(qp(2))
        assert el.expansion() == M13

    @pytest.mark.parametrize("ro,co", [
        ((1, 1, 0), (1, 1, 0)),
        ((2, 1, 0), (1, 1, 1)),
        ((1, 1, 1), (1, 1, 1)),
        ((2, 2, 0), (2, 2, 0)),
        ((2, 2, 1), (2, 2, 1)),
        ((3, 2, 0), (2, 2, 1)),
    ])
    def test_unitriangular_with_positive_offdiagonal(self, ro, co):
        block = enumerate_block(S21, ro, co)
        els, trans = adapted_basis_tworow(S21, ro, co)
        assert len(els) == len(block)
        assert len({el.leading_matrix() for el in els}) == len(els)
        for el in els:
            row = trans[el]
            lead = el.leading_matrix()
            assert row[lead] == ONE
            for M, c in row.items():
                if M != lead:
                    assert c.negative_part().is_zero() and c.coeff(0) == 0

    def test_decomposition_round_trip(self):
        for ro, co in (((2, 1, 0), (1, 1, 1)), ((2, 2, 0), (2, 2, 0))):
            for M in enumerate_block(S21, ro, co):
                assert decompose_tworow(S21, M).leading_matrix() == M

    @pytest.mark.parametrize("ro,co", [((1, 0, 0), (0, 0, 0)), ((2, -1, 0), (1, 0, 0))])
    def test_empty_block(self, ro, co):
        # mismatched totals, and a negative row sum
        assert adapted_basis_tworow(S21, ro, co) == ([], {})

    @pytest.mark.parametrize("shape", [S21, Shape(3, 1)], ids=str)
    def test_two_row_blocks_are_the_upper_dual_canonical_basis(self, shape):
        # on a block with rows >= 3 empty, each adapted element is the
        # dual canonical element of the subalgebra on rows 1..m at its
        # leading matrix, degree <= 3
        N = shape.size
        for deg in range(4):
            for r1 in range(deg + 1):
                ro = (r1, deg - r1) + (0,) * (N - 2)
                for co in itertools.product(range(deg + 1), repeat=N):
                    if sum(co) != deg:
                        continue
                    for el in adapted_basis_tworow(shape, ro, co)[0]:
                        M = el.leading_matrix()
                        assert el.expansion() == basis.block_element(
                            shape, M, "AB", Variant.PLUS_Q, x_norm), M

    def test_shape_preconditions(self):
        with pytest.raises(ValueError):
            adapted_basis_tworow(S11, (1, 1), (1, 1))
        with pytest.raises(ValueError):
            adapted_basis_tworow(S22, (1, 1, 0, 0), (1, 1, 0, 0))


class TestKashiwara:
    def test_single_box_moves_down_with_unit_coefficient(self):
        el = AdaptedElement(S21, 0, (0, 1, 0, 0, 0, 0), (), (0, 0, 0))
        assert kashiwara_f1(el) == xg(S21, 2, 2)

    def test_raising_on_row_one_only_is_zero(self):
        el = AdaptedElement(S21, 0, (1, 1, 0, 0, 0, 0), (), (0, 0, 0))
        assert kashiwara_e1(el).is_zero()

    def test_raise_after_lower_is_identity_on_single_letters(self):
        for j in (1, 2, 3):
            stair = [0] * 6
            stair[j - 1] = 1
            el = AdaptedElement(S21, 0, tuple(stair), (), (0, 0, 0))
            down = kashiwara_f1(el)
            (M,) = down.terms
            assert down == x_norm(S21, M)
            back = kashiwara_e1(decompose_tworow(S21, M))
            assert back == el.expansion()

    def test_lowering_coefficient_counts_row_one_tail(self):
        # two boxes in row 1: the left one moves with q^{2 a_{1,later}}
        el = AdaptedElement(S21, 0, (1, 1, 0, 0, 0, 0), (), (0, 0, 0))
        out = kashiwara_f1(el)
        exp = x_norm(S21, (0, 1, 0, 1, 0, 0, 0, 0, 0)).scale(qp(2)) + x_norm(
            S21, (1, 0, 0, 0, 1, 0, 0, 0, 0)
        )
        assert out == exp

    def test_raising_coefficient_counts_row_two_head(self):
        el = AdaptedElement(S21, 0, (0, 0, 0, 1, 1, 0), (), (0, 0, 0))
        out = kashiwara_e1(el)
        exp = x_norm(S21, (1, 0, 0, 0, 1, 0, 0, 0, 0)) + x_norm(
            S21, (0, 1, 0, 1, 0, 0, 0, 0, 0)
        ).scale(qp(2))
        assert out == exp

    def test_odd_column_cap_blocks_the_move(self):
        # both rows already hold the odd column-3 letter
        el = AdaptedElement(S21, 0, (0, 0, 1, 0, 0, 1), (), (0, 0, 0))
        assert kashiwara_e1(el).is_zero()
        assert kashiwara_f1(el).is_zero()

    def test_not_adapted_error(self):
        with pytest.raises(NotAdapted):
            kashiwara_e1(xg(S21, 1, 1))

    @pytest.mark.parametrize("ro,co", [
        ((1, 1, 0), (1, 1, 0)),
        ((2, 1, 0), (1, 1, 1)),
        ((2, 2, 0), (2, 2, 0)),
        ((2, 1, 1), (2, 1, 1)),
    ])
    def test_kashiwara_kills_invariants(self, ro, co):
        """S-invariants are annihilated by the box operators of S."""
        sh = S21
        block = enumerate_block(sh, ro, co)
        els, trans = adapted_basis_tworow(sh, ro, co)
        cols = [block_coords(sh, el.expansion(), block) for el in els]
        for gen, kash in ((E(1), kashiwara_e1), (F(1), kashiwara_f1)):
            columns = [dict(act_left(gen, x_norm(sh, M)).terms)
                       for M in block]
            for vec in nullspace(columns):
                inv = AlgebraElement.zero(sh)
                coords = {}
                dense = [vec.get(j, LaurentPoly.zero()) for j in range(len(block))]
                for M, c in zip(block, dense):
                    if not c.is_zero():
                        inv = inv + x_norm(sh, M).scale(c)
                        coords[M] = coords.get(M, LaurentPoly.zero()) + c
                assert act_left(gen, inv).is_zero()
                coeffs = solve_in_span(cols, coords)
                assert coeffs is not None
                image = AlgebraElement.zero(sh)
                for el, c in zip(els, coeffs):
                    if not c.is_zero():
                        image = image + kash(el).scale(c)
                assert image.is_zero()
