"""Named verification suites shared by the command line and the test bed.

Each suite re-checks a family of structural identities of the kernel at a
given shape and reports human-readable pass/fail lines.  Suites return
``(ok, lines)`` where ``lines`` is a list of diagnostic strings.
"""

from __future__ import annotations

import itertools
import math
import random

from .laurent import LaurentPoly, ONE, Variant
from .algebra import (
    AlgebraElement,
    Shape,
    col_sums,
    count_monomials,
    degree_matrices,
    enumerate_block,
    row_sums,
)
from .superspace import (
    det_q_A,
    det_qinv_D,
    index_vectors,
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
    is_constrained,
    to_mixed,
)
from .basis import n_ad, omega_global, express_in_n
from .actions import (
    GenSymbol,
    SpanMismatch,
    act_left,
    act_right,
    canonical_span_check,
    invariants_window,
)

__all__ = ["SUITES", "FIXED_SHAPES", "run_suite"]


def _qp(e, c=1):
    return LaurentPoly.q_power(e, c)


class _Report:
    """The pass/fail lines of one suite; ok while every check has passed."""

    def __init__(self):
        self.ok, self.lines = True, []

    def check(self, good: bool, text: str) -> None:
        self.ok = self.ok and good
        self.lines.append(f"{text} {'ok' if good else 'FAIL'}")

    def fail(self, text: str) -> None:
        """A failure whose line carries its own wording."""
        self.ok = False
        self.lines.append(text)

    def result(self):
        return self.ok, self.lines


def suite_relations(shape: Shape):
    report = _Report()
    m, n = shape.m, shape.n
    for k in range(5):
        got = count_monomials(shape, k)
        want = sum(
            math.comb(m * m + n * n + r - 1, r) * math.comb(2 * m * n, k - r)
            for r in range(k + 1)
            if k - r <= 2 * m * n
        )
        report.check(got == want, f"degree {k}: {got} monomials (expected {want})")
    # finite certificates: every overlap x_a x_b x_c resolves to one normal
    # form, and bar(x_a x_b) = (-1)^(p_a p_b) x_b x_a on every pair
    gens = shape.generators()
    x = {g: AlgebraElement.generator(shape, *g) for g in gens}
    report.check(all(
        (x[a] * x[b]) * x[c] == x[a] * (x[b] * x[c])
        == AlgebraElement.from_word(shape, (a, b, c))
        for a, b, c in itertools.product(gens, repeat=3)
    ), f"overlaps: {len(gens) ** 3} generator triples resolve")
    report.check(all(
        (x[a] * x[b]).bar()
        == (x[b] * x[a]).scale((-1) ** (shape.gen_parity(*a) * shape.gen_parity(*b)))
        for a, b in itertools.product(gens, repeat=2)
    ), f"bar: {len(gens) ** 2} generator pairs respect the relations")
    return report.result()


def suite_laplace(shape: Shape):
    report = _Report()
    cap = 3
    for star in (False, True):
        checked = 0
        good = True
        for d1 in range(cap + 1):
            for d2 in range(cap + 1 - d1):
                for a in index_vectors(shape, d1, star):
                    for a2 in index_vectors(shape, d2, star):
                        checked += 1
                        if not laplace_verify(shape, a, a2, star):
                            good = False
        # a check of nothing proves nothing
        report.check(good and checked > 0, f"{'dual ' if star else ''}expansion "
                     f"identities on {checked} index pairs")
    return report.result()


def suite_commun(shape: Shape):
    report = _Report()
    dA = det_a_local(shape)
    dD = det_dprime_local(shape)
    ber = berezinian(shape)
    gens, ys, low = [], [], []
    for i, j in shape.generators():
        x = to_mixed(AlgebraElement.generator(shape, i, j))
        if shape.block(i, j) == "D":
            ys.append(LocalElement.y_gen(shape, i, j))
            low.append(x)
        else:
            gens.append(((i, j), x))

    for name, D in (("detA", dA), ("detD'", dD)):
        good = True
        for (i, j), g in gens:
            e = 2 * shape.gen_parity(i, j)
            if D * g != (g * D).scale(_qp(e)):
                good = False
        for y in ys:
            if D * y != y * D:
                good = False
        report.check(good, f"{name} q-commutation with generators and Schur entries")

    good = all(ber * g == g * ber for _, g in gens)
    good = good and all(ber * y == y * ber for y in ys)
    good = good and all(ber * g == g * ber for g in low)
    report.check(good, "Berezinian centrality")
    return report.result()


def suite_bar_minors(shape: Shape):
    report = _Report()
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
    report.check(all(f.bar() == f for f in fixed),
                 f"{len(fixed)} polynomial minors fixed by bar")

    ys = [LocalElement.y_gen(shape, mu, nu)
          for mu in range(m + 1, m + n + 1) for nu in range(m + 1, m + n + 1)]
    ys += [det_dprime_local(shape), berezinian(shape)]
    report.check(all(bar_local(f) == f for f in ys), "Schur-complement entries fixed by bar")
    return report.result()


def _small_blocks(shape: Shape, max_degree: int, max_block: int):
    N = shape.size
    seen = set()
    for deg in range(max_degree + 1):
        for M in degree_matrices(shape, deg):
            ro, co = row_sums(M, N), col_sums(M, N)
            if (ro, co) in seen:
                continue
            seen.add((ro, co))
            block = enumerate_block(shape, ro, co)
            if 1 < len(block) <= max_block:
                yield block


def suite_cb_blocks(shape: Shape):
    report = _Report()
    checked = 0
    good = True
    for block in itertools.islice(_small_blocks(shape, 2, 8), 6):
        for M in block:
            if not is_constrained(shape, M):
                continue
            for variant in (Variant.PLUS_Q, Variant.MINUS_Q):
                el = omega_global(shape, M, 0, 0, variant)
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
    report.check(good and checked > 0,
                 f"{checked} basis elements bar-invariant and unitriangular")
    return report.result()


def suite_ber_shift(shape: Shape):
    report = _Report()
    ber = berezinian(shape)
    good = True
    checked = 0
    for deg in range(3):
        for M in itertools.islice(degree_matrices(shape, deg), 12):
            if not is_constrained(shape, M):
                continue
            if n_ad(shape, M, 0, 1) * ber != n_ad(shape, M, 1, 0):
                good = False
            checked += 1
    report.check(good and checked > 0, f"Berezinian shift on {checked} normalized elements")
    return report.result()


def suite_actions(shape: Shape):
    report = _Report()
    N = shape.size
    E = lambda i: GenSymbol("E", i)
    F = lambda i: GenSymbol("F", i)
    dA = det_q_A(shape)
    dD = det_dprime_local(shape)
    ber = berezinian(shape)
    report.check(all(
        act_left(E(i), f).is_zero() and act_right(F(i), f).is_zero()
        for i in range(1, N)
        for f in (to_mixed(dA), dD, ber)
    ), "raising/lowering kill the determinants and the Berezinian")

    rng = random.Random(5)
    good = True
    for _ in range(5):
        word = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(3)]
        f = AlgebraElement.from_word(shape, word)
        for i in range(1, N):
            for gl, gr in ((E(i), F(i)), (F(i), E(i))):
                if act_right(gr, act_left(gl, f)) != act_left(gl, act_right(gr, f)):
                    good = False
    report.check(good, "left and right actions commute on random elements")
    return report.result()


def suite_gl11(shape: Shape = None):
    """The rank-(1,1) dual canonical basis against its closed product form."""
    sh = FIXED_SHAPES["gl11"]
    report = _Report()
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
    report.lines.append(f"corner-entry correction coefficient: q^{dev}")
    if dev is None:
        return False, report.lines
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
    report.check(good, f"{checked} closed-family sectors match the computed basis")
    return report.result()


def suite_gl21(shape: Shape = None):
    """Invariant subalgebras of the rank-(2,1) localization."""
    sh = FIXED_SHAPES["gl21"]
    report = _Report()
    E = lambda i: GenSymbol("E", i)
    F = lambda i: GenSymbol("F", i)

    inv = invariants_window(sh, (E(1), E(2)), (F(1), F(2)),
                            max_degree=3,
                            a_range=(-1, 1), d_range=(0, 1))
    good = True
    for f in inv:
        (key,) = f.terms
        M, a, d = key
        # principal monomials: x11 powers times determinant powers
        if any(v for pos, v in enumerate(M) if pos != 0):
            good = False
    report.check(good, f"two-sided invariants are principal monomials ({len(inv)} found)")

    try:
        rep = canonical_span_check(sh, (E(1), E(2)),
                                   max_degree=2)
        report.check(rep.passed,
                     f"invariant window spanned by {len(rep.selected)} basis elements")
    except SpanMismatch as exc:
        report.fail(f"span check FAILED: {exc}")
    return report.result()


# suites stated for one shape, which ignore the shape they are given
FIXED_SHAPES = {"gl11": Shape(1, 1), "gl21": Shape(2, 1)}

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
    return SUITES[name](shape)
