"""Acceptance gate: the headline guarantees of the kernel, one line each.

Every check uses exact Laurent-polynomial arithmetic; there are no numeric
tolerances anywhere.  Each test prints a single pass/fail line (visible with
pytest -s or in the captured output of a failure).
"""

import itertools
import math
import random

from qsuper.laurent import LaurentPoly, ONE, Variant
from qsuper.algebra import (
    AlgebraElement,
    Shape,
    enumerate_block,
    x_norm,
    zero_matrix,
)
from qsuper.superspace import (
    det_q_A,
    det_qinv_D,
    laplace_verify,
    minor,
    minor_star,
)
from qsuper.glq import (
    LocalElement,
    bar_local,
    berezinian,
    det_a_local,
    det_dprime_local,
    to_mixed,
)
from qsuper.basis import (
    n_ad,
    omega_ABC,
    omega_H,
    omega_global,
    block_element,
    _REGIONS,
)
from qsuper.actions import (
    GenSymbol,
    act_left,
    act_right,
    adapted_basis_tworow,
    canonical_span_check,
    invariants_window,
    kashiwara_e1,
    kashiwara_f1,
    minor_power_expansion,
)
from qsuper.exactlinalg import nullspace, solve_in_span

SHAPES = (Shape(1, 1), Shape(2, 1), Shape(1, 2), Shape(2, 2))


def E(i):
    return GenSymbol("E", i)


def F(i):
    return GenSymbol("F", i)


def K(i):
    return GenSymbol("K", i)


def qp(e, c=1):
    return LaurentPoly.q_power(e, c)


def report(num, text, ok):
    line = f"acceptance {num:>2}: {text} ... {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def degree_matrices(shape, deg):
    """All exponent matrices of total degree deg (odd entries <= 1)."""
    N = shape.size
    cells = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]

    def rec(idx, left, acc):
        if idx == len(cells):
            if left == 0:
                yield tuple(acc)
            return
        i, j = cells[idx]
        cap = left if not shape.gen_parity(i, j) else min(left, 1)
        for v in range(cap + 1):
            acc.append(v)
            yield from rec(idx + 1, left - v, acc)
            acc.pop()

    yield from rec(0, deg, [])


def biweight_blocks(shape, max_degree, max_block):
    seen = set()
    N = shape.size
    for deg in range(max_degree + 1):
        for M in degree_matrices(shape, deg):
            ro = tuple(sum(M[r * N + c] for c in range(N)) for r in range(N))
            co = tuple(sum(M[r * N + c] for r in range(N)) for c in range(N))
            if (ro, co) in seen:
                continue
            seen.add((ro, co))
            block = enumerate_block(shape, ro, co)
            if len(block) <= max_block:
                yield block


def test_01_relations_and_dimensions():
    ok = True
    for shape in SHAPES:
        m, n = shape.m, shape.n
        for k in range(6):
            got = sum(1 for _ in degree_matrices(shape, k))
            want = sum(
                math.comb(m * m + n * n + r - 1, r)
                * math.comb(2 * m * n, k - r)
                for r in range(k + 1)
                if k - r <= 2 * m * n
            )
            ok = ok and got == want
    report(1, "normal-form monomial counts match the dimension formula "
              "for k <= 5 at four shapes", ok)


def index_vectors(shape, deg, star):
    N = shape.size
    caps = [
        1 if (shape.parity(i) == (0 if star else 1)) else deg
        for i in range(1, N + 1)
    ]
    for a in itertools.product(*(range(min(c, deg) + 1) for c in caps)):
        if sum(a) == deg:
            yield a


def test_02_laplace_expansions():
    ok = True
    checked = 0
    for shape in SHAPES:
        for star in (False, True):
            for d1 in range(5):
                for d2 in range(5 - d1):
                    for a in index_vectors(shape, d1, star):
                        for a2 in index_vectors(shape, d2, star):
                            checked += 1
                            if not laplace_verify(shape, a, a2, star):
                                ok = False
    report(2, f"quantum Laplace expansions hold for {checked} index pairs "
              "with |a|+|a'| <= 4", ok)


def test_03_bar_invariant_minors():
    ok = True
    count = 0
    for shape in SHAPES:
        m, n, N = shape.m, shape.n, shape.size
        fixed = [det_q_A(shape), det_qinv_D(shape)]
        for r in range(1, m + 1):
            for s in range(1, N - r + 2):
                f = minor_star(shape, tuple(range(1, r + 1)),
                               tuple(range(s, s + r)))
                if not f.is_zero():
                    fixed.append(f)
        for r in range(1, min(m, n) + 1):
            fixed.append(minor(shape, tuple(range(m + 1, m + r + 1)),
                               tuple(range(1, r + 1))))
        for f in fixed:
            count += 1
            if f.bar() != f:
                ok = False
        # Schur-complement minors: the entries and the principal determinants
        locs = [LocalElement.y_gen(shape, mu, nu)
                for mu in range(m + 1, N + 1) for nu in range(m + 1, N + 1)]
        if n == 1:
            locs.append(det_dprime_local(shape))
        for f in locs:
            count += 1
            if bar_local(f) != f:
                ok = False
        if n > 1:
            # the Schur entries obey the lower-right block relations, so
            # the determinant is checked in that polynomial picture
            Mdet = [0] * (N * N)
            for t in range(m, N):
                Mdet[t * N + t] = 1
            g = block_element(shape, tuple(Mdet), "D", *_REGIONS["D"])
            count += 1
            if g.bar() != g:
                ok = False
    report(3, f"{count} quantum minors and Schur entries fixed by bar", ok)


def test_04_commutation_proposition():
    ok = True
    for shape in (Shape(1, 1), Shape(2, 1), Shape(2, 2)):
        m, N = shape.m, shape.size
        dA = det_a_local(shape)
        dD = det_dprime_local(shape)
        ber = berezinian(shape)
        gens = [((i, j), to_mixed(AlgebraElement.generator(shape, i, j)))
                for i in range(1, N + 1) for j in range(1, N + 1)
                if i <= m or j <= m]
        ys = [LocalElement.y_gen(shape, mu, nu)
              for mu in range(m + 1, N + 1) for nu in range(m + 1, N + 1)]
        for D in (dA, dD):
            for (i, j), g in gens:
                if D * g != (g * D).scale(qp(2 * shape.gen_parity(i, j))):
                    ok = False
            for y in ys:
                if D * y != y * D:
                    ok = False
        if dA * dD != dD * dA:
            ok = False
        low = [to_mixed(AlgebraElement.generator(shape, i, j))
               for i in range(m + 1, N + 1) for j in range(m + 1, N + 1)]
        for g in [g for _, g in gens] + ys + low:
            if ber * g != g * ber:
                ok = False
    report(4, "determinant commutation identities and Berezinian "
              "centrality verified by direct products", ok)


def _check_block_solution(shape, block, out, variant):
    for M in block:
        f = out[M]
        if f.bar() != f:
            return False
        rest = f - x_norm(shape, M)
        if not rest.coeff(M).is_zero():
            return False
        # coordinates over the normalized monomials of the block
        for T in block:
            if rest.coeff(T).is_zero():
                continue
            c = rest.coeff(T).divexact(x_norm(shape, T).terms[T])
            tail = (c.negative_part() if variant is Variant.PLUS_Q
                    else c.positive_part())
            if not tail.is_zero() or c.coeff(0) != 0:
                return False
    return True


def test_05_canonical_basis_blocks():
    ok = True
    solved = 0
    caps = {(1, 1): 5, (2, 1): 4, (2, 2): 3}
    for shape in (Shape(1, 1), Shape(2, 1), Shape(2, 2)):
        cap = caps[(shape.m, shape.n)]
        for block in biweight_blocks(shape, cap, 60):
            if len(block) < 2:
                continue
            for variant in (Variant.PLUS_Q, Variant.MINUS_Q):
                out = {M: block_element(shape, M, "ABCD", variant, x_norm) for M in block}
                if not _check_block_solution(shape, block, out, variant):
                    ok = False
                solved += len(block)
    report(5, f"{solved} canonical-basis elements bar-invariant, "
              "unitriangular in qZ[q] (both variants)", ok)


def test_06_determinant_shifts():
    ok = True
    sh = Shape(2, 1)
    # upper-determinant shift on AB-supported indices: the power is the
    # total of the upper-right block
    for M in [(0, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0, 0),
              (0, 0, 1, 0, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 0, 0),
              (1, 1, 1, 0, 0, 1, 0, 0, 0)]:
        s2 = M[2] + M[5]
        shifted = list(M)
        shifted[0] += 1
        shifted[4] += 1
        lhs = det_q_A(sh) * omega_H(sh, M).expansion
        if lhs != omega_H(sh, tuple(shifted)).expansion.scale(qp(s2)):
            ok = False
    # with a lower-left block the power also counts its entries
    for M in [(0, 0, 1, 0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1, 1, 1, 0)]:
        s23 = M[2] + M[5] + M[6] + M[7]
        shifted = list(M)
        shifted[0] += 1
        shifted[4] += 1
        lhs = det_q_A(sh) * omega_ABC(sh, M).expansion
        if lhs != omega_ABC(sh, tuple(shifted)).expansion.scale(qp(s23)):
            ok = False
    # lower-determinant shift in the polynomial picture of the Schur block
    s22 = Shape(2, 2)
    for pos in (3, 2):
        M = [0] * 16
        M[2 * 4 + pos] = 1
        f = block_element(s22, tuple(M), "D", *_REGIONS["D"])
        shifted = list(M)
        shifted[2 * 4 + 2] += 1
        shifted[3 * 4 + 3] += 1
        if det_qinv_D(s22) * f != block_element(s22, tuple(shifted), "D", *_REGIONS["D"]):
            ok = False
    # Berezinian shift on normalized elements and on basis elements
    for M, a, d in [((0, 1, 1, 0), 0, 0), ((0, 1, 1, 0), -1, 1),
                    ((0, 1, 0, 0), 1, -1)]:
        if n_ad(Shape(1, 1), M, a, d) * berezinian(Shape(1, 1)) != n_ad(
            Shape(1, 1), M, a + 1, d - 1
        ):
            ok = False
    M = (0, 0, 1, 0, 0, 0, 0, 1, 0)
    if n_ad(sh, M, 0, 0) * berezinian(sh) != n_ad(sh, M, 1, -1):
        ok = False
    lhs = omega_global(Shape(1, 1), (0, 1, 1, 0), 0, 0,
                       Variant.PLUS_Q).expansion * berezinian(Shape(1, 1))
    rhs = omega_global(Shape(1, 1), (0, 1, 1, 0), 1, -1,
                       Variant.PLUS_Q).expansion
    if lhs != rhs:
        ok = False
    report(6, "determinant and Berezinian shift identities hold on "
              "computed elements", ok)


def test_07_rank_one_one_closed_family():
    sh = Shape(1, 1)
    x = lambda i, j: to_mixed(AlgebraElement.generator(sh, i, j))
    x11inv = LocalElement(sh, {((0, 0, 0, 0), -1, 0): ONE})
    corr = x(1, 2) * x11inv * x(2, 1)
    # determine the corner-entry coefficient from the bar-invariance oracle
    # rather than assuming one; the deviation is reported, not suppressed
    dev = None
    for e in range(-6, 7):
        if x(2, 2) + corr.scale(qp(e)) == LocalElement.y_gen(sh, 2, 2):
            dev = e
            break
    assert dev is not None
    w22 = x(2, 2) + corr.scale(qp(dev))
    ok = True
    checked = 0
    for a in (-2, -1, 0, 1, 2):
        for b in (0, 1):
            for c in (0, 1):
                for d in (-1, 0, 1, 2):
                    f = LocalElement(sh, {((0, 0, 0, 0), a, 0): ONE})
                    for _ in range(b):
                        f = f * x(1, 2)
                    for _ in range(c):
                        f = f * x(2, 1)
                    if d >= 0:
                        for _ in range(d):
                            f = f * w22
                    else:
                        f = f * LocalElement(sh, {((0, 0, 0, 0), 0, d): ONE})
                    f = f.scale(qp((d - a) * (b + c)))
                    el = omega_global(sh, (0, b, c, 0), a, d, Variant.PLUS_Q)
                    if el.expansion != f:
                        ok = False
                    if bar_local(el.expansion) != el.expansion:
                        ok = False
                    checked += 1
    report(7, f"rank-(1,1) basis matches the closed product family in "
              f"{checked} sectors (corner coefficient q^{dev}, printed "
              "form has q^2)", ok)


def test_08_action_identities_and_commutation():
    ok = True
    for shape in (Shape(1, 1), Shape(2, 1), Shape(1, 2)):
        m, N = shape.m, shape.size
        Y = LocalElement.y_gen
        zero = LocalElement.zero(shape)
        # Schur-entry tables
        for i in range(m + 1, N):
            for k in range(m + 1, N + 1):
                for l in range(m + 1, N + 1):
                    y = Y(shape, k, l)
                    if act_left(E(i), y) != (Y(shape, i, l) if k == i + 1
                                             else zero):
                        ok = False
                    if act_right(F(i), y) != (Y(shape, k, i) if l == i + 1
                                              else zero):
                        ok = False
        for nu in range(m + 1, N + 1):
            if not act_left(E(m), Y(shape, m + 1, nu)).is_zero():
                ok = False
        # kill identities
        dA = to_mixed(det_q_A(shape))
        dD = det_dprime_local(shape)
        ber = berezinian(shape)
        for i in range(1, N):
            for f in (dA, dD, ber):
                if not act_left(E(i), f).is_zero():
                    ok = False
                if not act_right(F(i), f).is_zero():
                    ok = False
    # left/right commutation on 100 random elements
    rng = random.Random(17)
    sh = Shape(2, 1)
    N = sh.size
    for _ in range(100):
        word = [(rng.randint(1, N), rng.randint(1, N))
                for _ in range(rng.randint(1, 4))]
        f = AlgebraElement.from_word(sh, word)
        i = rng.randint(1, N - 1)
        j = rng.randint(1, N - 1)
        kinds = [GenSymbol(k, idx) for k, idx in
                 (("E", i), ("F", i), ("K", j))]
        gl = rng.choice(kinds)
        gr = rng.choice(kinds)
        if act_right(gr, act_left(gl, f)) != act_left(gl, act_right(gr, f)):
            ok = False
    report(8, "generator action tables, kill identities, and "
              "left/right commutation on 100 random elements", ok)


def test_09_two_sided_invariants():
    sh = Shape(2, 1)
    ok = True
    inv = invariants_window(sh, (E(1), E(2)), (F(1), F(2)), max_degree=3,
                            a_range=(-1, 1), d_range=(0, 1))
    x11 = to_mixed(AlgebraElement.generator(sh, 1, 1))
    dA = det_a_local(sh)
    dAinv = LocalElement(sh, {(zero_matrix(3), -1, 0): ONE})
    dD = det_dprime_local(sh)
    for f in inv:
        (key,) = f.terms
        M, a, d = key
        if any(v for pos, v in enumerate(M) if pos != 0):
            ok = False
        # each invariant is (a unit multiple of) a monomial in the
        # generating invariants
        g = LocalElement.one(sh)
        for _ in range(M[0]):
            g = g * x11
        g = g * (dA if a >= 0 else dAinv) ** abs(a)
        g = g * dD ** d
        (gk,) = g.terms
        gc = g.terms[gk]
        if gk != key or not gc.is_monomial():
            ok = False
    # the generators themselves are invariant
    for g in (x11, dA, dAinv, dD, berezinian(sh)):
        for i in (1, 2):
            if not act_left(E(i), g).is_zero():
                ok = False
            if not act_right(F(i), g).is_zero():
                ok = False
    # the one-sided list of left invariants is contained in the left window
    x = lambda i, j: AlgebraElement.generator(sh, i, j)
    w1 = x(1, 1) * x(2, 3) - (x(1, 3) * x(2, 1)).scale(qp(2))
    listed = [AlgebraElement.one(sh), x(1, 1), x(1, 2), x(1, 3),
              x(1, 1) * x(1, 3), x(1, 2) * x(1, 3), x(1, 3) * x(2, 3), w1]
    left = invariants_window(sh, (E(1), E(2)), (), max_degree=2)
    span = [dict(f.terms) for f in left]
    for f in listed:
        coeffs = solve_in_span(span, dict(to_mixed(f).terms))
        if coeffs is None or not any(not c.is_zero() for c in coeffs):
            ok = False
    report(9, "two-sided invariant window equals the span of principal "
              "generator monomials; listed one-sided invariants contained",
           ok)


def test_10_span_of_basis_elements():
    ok = True
    windows = 0
    for shape in (Shape(1, 1), Shape(2, 1)):
        N = shape.size
        allowed = [E(i) for i in range(1, N)]
        allowed += [F(i) for i in range(1, N) if i != shape.m]
        allowed += [K(i) for i in range(1, N + 1)]
        for r in range(len(allowed) + 1):
            for combo in itertools.combinations(allowed, r):
                rep = canonical_span_check(shape, combo, max_degree=2)
                windows += 1
                if not rep.passed:
                    ok = False
    report(10, f"{windows} invariant windows each equal the span of the "
               "basis elements they contain", ok)


def test_11_kashiwara():
    ok = True
    # closed form of minor powers on fully even indices
    for shape, idx in [(Shape(2, 1), (1, 1, 2, 2)),
                       (Shape(3, 1), (1, 1, 2, 2)),
                       (Shape(3, 1), (1, 2, 2, 3))]:
        i, j, k, l = idx
        x = lambda a, b: AlgebraElement.generator(shape, a, b)
        Mjk = x(i, j) * x(k, l) - (x(i, l) * x(k, j)).scale(qp(2))
        direct = AlgebraElement.one(shape)
        for s in range(4):
            if direct != minor_power_expansion(shape, i, j, k, l, s):
                ok = False
            direct = direct * Mjk
    # box operators annihilate the invariants of their generator
    sh = Shape(2, 1)
    for ro, co in [((1, 1, 0), (1, 1, 0)), ((2, 1, 0), (1, 1, 1)),
                   ((2, 2, 0), (2, 2, 0)), ((2, 1, 1), (2, 1, 1))]:
        block = enumerate_block(sh, ro, co)
        els, _ = adapted_basis_tworow(sh, ro, co)
        cols = []
        for el in els:
            f = el.expansion()
            cols.append({M: f.coeff(M).divexact(x_norm(sh, M).terms[M])
                         for M in block if not f.coeff(M).is_zero()})
        for gen, kash in ((E(1), kashiwara_e1), (F(1), kashiwara_f1)):
            columns = [dict(act_left(gen, x_norm(sh, M)).terms)
                       for M in block]
            for vec in nullspace(columns):
                coords = {}
                inv = AlgebraElement.zero(sh)
                dense = [vec.get(j, LaurentPoly.zero()) for j in range(len(block))]
                for M, c in zip(block, dense):
                    if not c.is_zero():
                        coords[M] = c
                        inv = inv + x_norm(sh, M).scale(c)
                if not act_left(gen, inv).is_zero():
                    ok = False
                coeffs = solve_in_span(cols, coords)
                if coeffs is None:
                    ok = False
                    continue
                image = AlgebraElement.zero(sh)
                for el, c in zip(els, coeffs):
                    if not c.is_zero():
                        image = image + kash(el).scale(c)
                if not image.is_zero():
                    ok = False
    report(11, "minor-power expansions (s <= 3) and box-operator "
               "annihilation of invariant windows", ok)
