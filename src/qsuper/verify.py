"""Named verification suites shared by the command line and the test bed.

Each suite re-checks a family of structural identities of the kernel at a
given shape and reports human-readable pass/fail lines.  Suites return
``(ok, lines)`` where ``lines`` is a list of diagnostic strings.
"""

from __future__ import annotations

import itertools
import math
import os
import random

from .laurent import LaurentPoly, ONE, Variant
from .algebra import (
    AlgebraElement,
    Shape,
    enumerate_block,
    x_norm,
    zero_matrix,
)
from .superspace import (
    det_q_A,
    det_qinv_D,
    laplace_verify,
    minor,
    minor_star,
)
from .glq import (
    LocalElement,
    bar_local,
    berezinian,
    det_a_local,
    det_dprime_local,
    to_mixed,
)
from .basis import NotConstrained, n_ad, omega_global, express_in_n
from .actions import (
    GenSymbol,
    act_left,
    act_right,
    canonical_span_check,
    invariants_window,
)

__all__ = ["SUITES", "run_suite", "max_degree_cap"]


def max_degree_cap(default: int) -> int:
    """Window/degree cap, overridable via the QSUPER_MAX_DEGREE env var."""
    raw = os.environ.get("QSUPER_MAX_DEGREE")
    if raw is None:
        return default
    return min(default, max(0, int(raw)))


def _qp(e, c=1):
    return LaurentPoly.q_power(e, c)


def _count_monomials(shape: Shape, k: int) -> int:
    """Number of exponent matrices of total degree k (odd entries <= 1)."""
    N = shape.size
    odd = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)
           if shape.gen_parity(i, j)]
    n_even = N * N - len(odd)
    total = 0
    for r in range(0, k + 1):
        # r boxes in even entries, k - r among the odd entries (0/1 each)
        total += math.comb(n_even + r - 1, r) * math.comb(len(odd), k - r)
    return total


def suite_relations(shape: Shape):
    lines, ok = [], True
    kmax = max_degree_cap(4)
    m, n = shape.m, shape.n
    for k in range(kmax + 1):
        got = _count_monomials(shape, k)
        want = sum(
            math.comb(m * m + n * n + r - 1, r) * math.comb(2 * m * n, k - r)
            for r in range(k + 1)
            if k - r <= 2 * m * n
        )
        good = got == want
        ok = ok and good
        lines.append(f"degree {k}: {got} monomials (expected {want})"
                     f" {'ok' if good else 'FAIL'}")
    return ok, lines


def _index_vectors(shape: Shape, deg: int, star: bool):
    N = shape.size
    out = []
    for combo in itertools.combinations_with_replacement(range(1, N + 1), deg):
        counts = [combo.count(i) for i in range(1, N + 1)]
        # the even directions of each superspace admit exponents > 1,
        # the odd ones do not
        bad = False
        for i, c in enumerate(counts, start=1):
            odd = (i > shape.m) if not star else (i <= shape.m)
            if odd and c > 1:
                bad = True
        if not bad:
            out.append(tuple(counts))
    return out


def suite_laplace(shape: Shape):
    lines, ok = [], True
    cap = max_degree_cap(3)
    for star in (False, True):
        checked = 0
        good = True
        for d1 in range(cap + 1):
            for d2 in range(cap + 1 - d1):
                for a in _index_vectors(shape, d1, star):
                    for a2 in _index_vectors(shape, d2, star):
                        checked += 1
                        if not laplace_verify(shape, a, a2, star):
                            good = False
        ok = ok and good
        lines.append(f"{'dual ' if star else ''}expansion identities on "
                     f"{checked} index pairs {'ok' if good else 'FAIL'}")
    return ok, lines


def suite_commun(shape: Shape):
    lines, ok = [], True
    m, N = shape.m, shape.size
    dA = det_a_local(shape)
    dD = det_dprime_local(shape)
    ber = berezinian(shape)
    gens = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i <= m or j <= m:
                gens.append(((i, j), to_mixed(AlgebraElement.generator(shape, i, j))))
    ys = [LocalElement.y_gen(shape, mu, nu)
          for mu in range(m + 1, N + 1) for nu in range(m + 1, N + 1)]

    for name, D in (("detA", dA), ("detD'", dD)):
        good = True
        for (i, j), g in gens:
            e = 2 * shape.gen_parity(i, j)
            if D * g != (g * D).scale(_qp(e)):
                good = False
        for y in ys:
            if D * y != y * D:
                good = False
        ok = ok and good
        lines.append(f"{name} q-commutation with generators and Schur "
                     f"entries {'ok' if good else 'FAIL'}")

    good = all(ber * g == g * ber for _, g in gens)
    good = good and all(ber * y == y * ber for y in ys)
    low = [to_mixed(AlgebraElement.generator(shape, i, j))
           for i in range(m + 1, N + 1) for j in range(m + 1, N + 1)]
    good = good and all(ber * g == g * ber for g in low)
    ok = ok and good
    lines.append(f"Berezinian centrality {'ok' if good else 'FAIL'}")
    return ok, lines


def suite_bar_minors(shape: Shape):
    lines, ok = [], True
    m, n = shape.m, shape.n
    fixed = []
    for r in range(1, m + 1):
        for s in range(1, m + n - r + 2):
            fixed.append(minor_star(shape, tuple(range(1, r + 1)),
                                    tuple(range(s, s + r))))
    for r in range(1, min(m, n) + 1):
        fixed.append(minor(shape, tuple(range(m + 1, m + r + 1)),
                           tuple(range(1, r + 1))))
    fixed.append(det_q_A(shape))
    fixed.append(det_qinv_D(shape))
    good = all(f.bar() == f for f in fixed)
    ok = ok and good
    lines.append(f"{len(fixed)} polynomial minors fixed by bar "
                 f"{'ok' if good else 'FAIL'}")

    ys = [LocalElement.y_gen(shape, mu, nu)
          for mu in range(m + 1, m + n + 1) for nu in range(m + 1, m + n + 1)]
    ys += [det_dprime_local(shape), berezinian(shape)]
    good = all(bar_local(f) == f for f in ys)
    ok = ok and good
    lines.append(f"Schur-complement entries fixed by bar "
                 f"{'ok' if good else 'FAIL'}")
    return ok, lines


def _small_blocks(shape: Shape, max_degree: int, max_block: int):
    N = shape.size
    seen = set()
    for deg in range(max_degree + 1):
        for M in _degree_matrices(shape, deg):
            ro = tuple(sum(M[r * N + c] for c in range(N)) for r in range(N))
            co = tuple(sum(M[r * N + c] for r in range(N)) for c in range(N))
            if (ro, co) in seen:
                continue
            seen.add((ro, co))
            block = enumerate_block(shape, ro, co)
            if 1 < len(block) <= max_block:
                yield block


def _degree_matrices(shape: Shape, deg: int):
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

    flat = []
    for M in rec(0, deg, flat):
        yield M


def suite_cb_blocks(shape: Shape):
    lines, ok = [], True
    checked = 0
    good = True
    for block in itertools.islice(_small_blocks(shape, max_degree_cap(2), 8), 6):
        for M in block:
            for variant in (Variant.PLUS_Q, Variant.MINUS_Q):
                try:
                    el = omega_global(shape, M, 0, 0, variant)
                except NotConstrained:
                    continue
                coords = express_in_n(shape, el.expansion)
                lead = coords.pop((tuple(M), 0, 0))
                if lead != ONE:
                    good = False
                if bar_local(el.expansion) != el.expansion:
                    good = False
                for c in coords.values():
                    tail = (c.negative_part() if variant is Variant.PLUS_Q
                            else c.positive_part())
                    if not tail.is_zero() or c.coeff(0) != 0:
                        good = False
                checked += 1
    ok = ok and good
    lines.append(f"{checked} basis elements bar-invariant and unitriangular "
                 f"{'ok' if good else 'FAIL'}")
    return ok, lines


def suite_ber_shift(shape: Shape):
    lines, ok = [], True
    ber = berezinian(shape)
    good = True
    checked = 0
    for deg in range(max_degree_cap(2) + 1):
        for M in itertools.islice(_degree_matrices(shape, deg), 12):
            try:
                f = n_ad(shape, M, 0, 1)
            except NotConstrained:
                continue
            if f * ber != n_ad(shape, M, 1, 0):
                good = False
            checked += 1
    ok = ok and good
    lines.append(f"Berezinian shift on {checked} normalized elements "
                 f"{'ok' if good else 'FAIL'}")
    return ok, lines


def suite_actions(shape: Shape):
    lines, ok = [], True
    N = shape.size
    E = lambda i: GenSymbol("E", i)
    F = lambda i: GenSymbol("F", i)
    dA = det_q_A(shape)
    dD = det_dprime_local(shape)
    ber = berezinian(shape)
    good = all(
        act_left(E(i), f).is_zero() and act_right(F(i), f).is_zero()
        for i in range(1, N)
        for f in (to_mixed(dA), dD, ber)
    )
    ok = ok and good
    lines.append(f"raising/lowering kill the determinants and the "
                 f"Berezinian {'ok' if good else 'FAIL'}")

    rng = random.Random(5)
    good = True
    for _ in range(5):
        word = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(3)]
        f = AlgebraElement.from_word(shape, word)
        for i in range(1, N):
            for gl, gr in ((E(i), F(i)), (F(i), E(i))):
                if act_right(gr, act_left(gl, f)) != act_left(gl, act_right(gr, f)):
                    good = False
    ok = ok and good
    lines.append(f"left and right actions commute on random elements "
                 f"{'ok' if good else 'FAIL'}")
    return ok, lines


def suite_gl11(shape: Shape = None):
    """The rank-(1,1) dual canonical basis against its closed product form."""
    sh = Shape(1, 1)
    lines, ok = [], True
    x = lambda i, j: to_mixed(AlgebraElement.generator(sh, i, j))
    x11inv = LocalElement(sh, {((0, 0, 0, 0), -1, 0): ONE})
    corr = x(1, 2) * x11inv * x(2, 1)
    # the closed form's corner entry x22 + q^e x12 x11^-1 x21 is the
    # bar-invariant Schur entry; solve for the exponent e instead of
    # assuming one
    dev = None
    for e in range(-6, 7):
        if x(2, 2) + corr.scale(_qp(e)) == LocalElement.y_gen(sh, 2, 2):
            dev = e
            break
    lines.append(f"corner-entry correction coefficient: q^{dev}")
    if dev is None:
        return False, lines
    w22 = x(2, 2) + corr.scale(_qp(dev))
    good = True
    checked = 0
    for a in (-1, 0, 1, 2):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1, 2):
                    f = LocalElement(sh, {((0, 0, 0, 0), a, 0): ONE})
                    for _ in range(b):
                        f = f * x(1, 2)
                    for _ in range(c):
                        f = f * x(2, 1)
                    for _ in range(d):
                        f = f * w22
                    f = f.scale(_qp((d - a) * (b + c)))
                    el = omega_global(sh, (0, b, c, 0), a, d, Variant.PLUS_Q)
                    if el.expansion != f:
                        good = False
                    checked += 1
    ok = good
    lines.append(f"{checked} closed-family sectors match the computed basis "
                 f"{'ok' if good else 'FAIL'}")
    return ok, lines


def suite_gl21(shape: Shape = None):
    """Invariant subalgebras of the rank-(2,1) localization."""
    sh = Shape(2, 1)
    lines, ok = [], True
    E = lambda i: GenSymbol("E", i)
    F = lambda i: GenSymbol("F", i)

    inv = invariants_window(sh, (E(1), E(2)), (F(1), F(2)),
                            max_degree=max_degree_cap(3),
                            a_range=(-1, 1), d_range=(0, 1))
    good = True
    for f in inv:
        (key,) = f.terms
        M, a, d = key
        # principal monomials: x11 powers times determinant powers
        if any(v for pos, v in enumerate(M) if pos != 0):
            good = False
    ok = ok and good
    lines.append(f"two-sided invariants are principal monomials "
                 f"({len(inv)} found) {'ok' if good else 'FAIL'}")

    try:
        rep = canonical_span_check(sh, (E(1), E(2)),
                                   max_degree=max_degree_cap(2))
        good = rep.passed
        lines.append(f"invariant window spanned by {len(rep.selected)} basis "
                     f"elements {'ok' if good else 'FAIL'}")
    except Exception as exc:  # SpanMismatch or sizing errors
        good = False
        lines.append(f"span check FAILED: {exc}")
    ok = ok and good
    return ok, lines


SUITES = {
    "relations": suite_relations,
    "laplace": suite_laplace,
    "commun": suite_commun,
    "bar-minors": suite_bar_minors,
    "cb-blocks": suite_cb_blocks,
    "ber-shift": suite_ber_shift,
    "actions": suite_actions,
    "gl11": suite_gl11,
    "gl21": suite_gl21,
}


def run_suite(name: str, shape: Shape):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](shape)
