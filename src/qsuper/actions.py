"""Left and right U_q(gl_{m|n}) actions on the quantum supergroup algebra.

The algebra of functions carries two commuting translation actions.  On
generators they are given by finite tables; on products they extend by the
coproduct rule, with the K-type factor acting diagonally by weight q-powers.
A polynomial word applies the rule letter by letter and straightens each
term.  A mixed word W(M) detA^s applies it once, at its last factor b:
detA^s when M and s are nonzero, else one detA^(+-1) or the last letter
of W(M).  The rest of the word and b are shorter keys, memoized like
the word; a lone letter or detA^(+-1) is the base case, whose image is
computed once as its own key's entry.  Every letter l has a polynomial
numerator P = l detA^r (a generator, detA, the minor y_uv detA, or 1 for
detA^-1), and its image is the polynomial action on P read back in the
localization, solved for X.l by the coproduct rule at P = l detA when
r = 1.  So the images of y_uv and detA^-1 are not postulated: they follow
from CONVENTIONS and the generator table alone.  Powers of detD' act
through the Berezinian: the key W(M) detA^a detD'^d is W(M) detA^(a+d)
times Ber^-d, and Ber is central, even, of weight zero and killed by
every E_i and F_i.

The module also computes invariant subalgebras on finite windows, checks
that n=1 invariant windows are spanned by dual canonical basis elements,
and implements the two-row Kashiwara operators.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .laurent import LaurentPoly, ONE, Variant, q_binom
from .algebra import (
    AlgebraElement,
    Shape,
    col_sums,
    degree_matrices,
    enumerate_block,
    mat_entry,
    matrix_to_word,
    row_sums,
    straighten_word,
    unit_matrix,
    x_norm,
    zero_matrix,
)
from .superspace import det_q_A
from .glq import LocalElement, is_constrained, times_ber, to_mixed, word_poly, y_degree
from .basis import omega_global
# solve_in_span is unused here; qbench/tracing.py hooks this binding
from .exactlinalg import nullspace, solve_in_span

__all__ = [
    "AdaptedElement",
    "GenSymbol",
    "act_left",
    "act_right",
    "epsilon",
    "invariants_window",
    "canonical_span_check",
    "adapted_basis_tworow",
    "decompose_tworow",
    "kashiwara_e1",
    "kashiwara_f1",
    "minor_power_expansion",
    "conventions",
    "SpanMismatch",
    "NotAdapted",
    "UniquenessFailure",
]


class SpanMismatch(Exception):
    """An invariant window is not spanned by the basis elements inside it."""


class NotAdapted(Exception):
    """Element is not in the two-row adapted form."""


class UniquenessFailure(Exception):
    """No single q-power normalizes an adapted element unitriangularly."""


class GenSymbol(NamedTuple):
    kind: str  # "E" | "F" | "K" | "Kinv"
    index: int

    def validate(self, shape: Shape) -> "GenSymbol":
        N = shape.size
        if self.kind in ("E", "F"):
            if not 1 <= self.index <= N - 1:
                raise ValueError(f"{self.kind}_{self.index} out of range")
        elif self.kind in ("K", "Kinv"):
            if not 1 <= self.index <= N:
                raise ValueError(f"K_{self.index} out of range")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        return self


def epsilon(gen: GenSymbol) -> LaurentPoly:
    """Counit value on a generator."""
    return ONE if gen.kind in ("K", "Kinv") else LaurentPoly.zero()


# ---------------------------------------------------------------------------
# product-rule conventions
#
# For X in {E_i, F_i} the action on a word extends by a coproduct rule: the
# K-weight factor accompanies either the factors to the right of the letter
# X acts on ("tail") or those to its left ("head"), with exponent
# 2*c*((-1)^{[i]} w_i - (-1)^{[i+1]} w_{i+1}) where w is the row-weight
# (left action) or column-weight (right action) vector.  Calibration facts,
# all enforced by tests:
#   * parity-signed weight functionals are the only well-defined choice;
#   * per side, E and F must carry the K-factor on opposite ends with
#     opposite exponent signs, or the operator relation
#     E_i F_i -+ F_i E_i = (K' - K'^{-1})/(q_i^2 - q_i^{-2}) fails;
#   * the remaining binary choice per side is a global unit on each weight
#     component (it never changes kernels or vanishing identities); we fix
#     E = K-factor on the tail, F = K-factor on the head, on both sides.
# ---------------------------------------------------------------------------

# kind -> (c_tail, c_head): the letter X hits acquires the K-weight factor
# q^{2 c_tail w(suffix) + 2 c_head w(prefix)} with w the parity-signed
# i-pair weight, on either side.
CONVENTIONS = {"E": (-1, 0), "F": (0, 1)}


def conventions() -> dict:
    """Human-readable record of the calibrated extension rules."""
    out = {}
    for side, w in (("L", "row"), ("R", "column")):
        for kind, (c_tail, c_head) in CONVENTIONS.items():
            out[f"{side}.{kind}"] = (
                f"q^{{2({c_tail} w(tail) + {c_head} w(head))}} with the "
                f"parity-signed {w}-weight pair w = w_i - w_{{i+1}}"
            )
    out["K"] = "K_i acts by q^{2 w_i} (row weight on the left, column on the right)"
    out["sign"] = (
        "an odd E_m/F_m picks up (-1)^{parity of the prefix} under the left "
        "action and (-1)^{parity of the suffix} under the right action"
    )
    out["tables"] = (
        "left E lowers rows and F raises them; right E raises columns and "
        "F lowers them (the unique well-defined direction assignment)"
    )
    return out


# ---------------------------------------------------------------------------
# pair weights and single-letter actions
# ---------------------------------------------------------------------------


def _pair_weight(shape: Shape, k: int, l: int, i: int, side: str) -> int:
    """Parity-signed w_i - w_{i+1} of the letter at cell (k, l), w its row
    weight (left) or column weight (right) with w_k signed by (-1)^{[k]}."""
    idx = k if side == "L" else l
    if idx == i:
        return (-1) ** shape.parity(i)
    return -(-1) ** shape.parity(i + 1) if idx == i + 1 else 0


def _key_weight(shape: Shape, M, s: int, i: int, side: str) -> int:
    """The pair weight of W(M) detA^s, from the row (left) or column
    (right) sums i and i+1 of M; detA weighs 1 on each even row and
    column, so its pair is 1 where i is even and i+1 odd, else 0."""
    N, p, p1 = shape.size, shape.parity(i), shape.parity(i + 1)
    if side == "L":
        wi, wj = sum(M[(i - 1) * N:i * N]), sum(M[i * N:(i + 1) * N])
    else:
        wi, wj = sum(M[i - 1::N]), sum(M[i::N])
    return (-1) ** p * wi - (-1) ** p1 * wj + s * (p1 - p)


def _x_letter_act(kind: str, i: int, side: str, k: int, l: int):
    """Action of E_i/F_i on the generator x_kl: the cell of its image, or
    None for zero.

    Left E lowers the row index, left F raises it.  On the right, E raises
    the column index and F lowers it: this is the unique direction
    assignment under which the extension to products is well defined on the
    defining relations and the determinant vanishing identities hold.
    """
    if side == "L":
        if kind == "E":
            return (i, l) if k == i + 1 else None
        return (i + 1, l) if k == i else None
    if kind == "E":
        return (k, i + 1) if l == i else None
    return (k, i) if l == i + 1 else None


def _letter_act(shape: Shape, kind: str, i: int, side: str, M, s: int):
    """E_i/F_i on one letter l of a mixed word, the key W(M) detA^s of one
    x_kl, y_uv or detA^(+-1), from its polynomial numerator P = l detA^r.

    P is det_q_A for detA (r = 0), else word_poly(M) = W(M) detA^r: the
    generator x_kl (r = 0), the starred minor y_uv detA (r = 1), or 1 for
    detA^-1 (r = 1).  X.P is the polynomial action, and at r = 0, X.l is
    to_mixed(X.P).  At r = 1 the coproduct rule at P = l detA gives
    X.P = (X.l) detA q^(2 c_tail w(detA)) + l (X.detA) q^(2 c_head w(l)),
    with no sign: l and detA are even.  So X.l is to_mixed(X.P) less the
    second term, times detA^-1 q^(-2 c_tail w(detA)).  X.detA is the
    _act_key entry of detA, whose numerator has r = 0.
    """
    P = det_q_A(shape) if s > 0 else word_poly(shape, M)
    out = to_mixed(_act_terms(shape, kind, i, side, P))
    r = y_degree(shape, M) + (s < 0)
    if not r:
        return out
    zero = zero_matrix(shape.size)
    c_tail, c_head = CONVENTIONS[kind]
    hit = _act_key(shape, kind, i, side, zero, 1)
    c = LaurentPoly.q_power(2 * c_head * _key_weight(shape, M, s, i, side))
    out = out - (LocalElement.monomial(shape, M, s) * hit).scale(c)
    c = LaurentPoly.q_power(-2 * c_tail * _key_weight(shape, zero, 1, i, side))
    return LocalElement(shape, {(T, a - 1, d): v * c for (T, a, d), v in out.terms.items()})


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def _act_word(shape, kind, i, side, word):
    """E_i/F_i on one polynomial word of cells (k, l) by the coproduct rule.

    Each letter's pair weight, parity and flat cell code are read once.
    The term of position p is the word with letter p replaced by its image,
    times q^(2 c_tail w(suffix) + 2 c_head w(prefix)), straightened; an odd
    E_m/F_m also gives (-1)^(parity of the prefix) on the left, of the
    suffix on the right.
    """
    c_tail, c_head = CONVENTIONS[kind]
    odd_gen = shape.parity(i) != shape.parity(i + 1)
    weights = [_pair_weight(shape, k, l, i, side) for k, l in word]
    parities = [shape.gen_parity(k, l) for k, l in word]
    codes = tuple(shape.cell(k, l) for k, l in word)
    head_w, tail_w, head_par, tail_par = 0, sum(weights), 0, sum(parities)
    out = AlgebraElement.zero(shape)
    for p, (k, l) in enumerate(word):
        tail_w -= weights[p]
        tail_par -= parities[p]
        image = _x_letter_act(kind, i, side, k, l)
        if image is not None:
            run = head_par if side == "L" else tail_par
            c = LaurentPoly.q_power(2 * (c_tail * tail_w + c_head * head_w),
                                    (-1) ** run if odd_gen else 1)
            word_p = codes[:p] + (shape.cell(*image),) + codes[p + 1:]
            out = out + AlgebraElement(shape, straighten_word(shape, word_p, c))
        head_w += weights[p]
        head_par += parities[p]
    return out


# Bound: a degree-3 window at (2|2) with its six E_i/F_i and four values of
# a + d holds 19,176 images (about 4 MiB), a qbench localize session 1,200.
# An image is built from those of two shorter keys, the key less its last
# factor (W(M) less its last letter, W(M) at s = 0, or detA^(s -+ 1)) and
# that factor (one letter or detA^s), which a window whose degrees and det
# range hold them computes anyway.
@lru_cache(maxsize=1 << 15)
def _act_key(shape, kind, i, side, M, s):
    """E_i/F_i on the mixed word W(M) detA^s, by the coproduct rule at
    its last factor b.

    With the word a b, X.(a b) = (X.a) b q^(2 c_tail w(b)) + a (X.b)
    q^(2 c_head w(a)), w the pair weight; an odd E_m/F_m also gives
    (-1)^[b] on the first term on the right and (-1)^[a] on the second
    on the left.  b is detA^s when M and s are nonzero, one detA^(+-1)
    when M is zero, and the last letter of W(M) when s is zero; a and b
    are shorter keys, and a lone letter or detA^(+-1) is the base case,
    _letter_act.
    detA^k on the right only raises each key's detA power.
    """
    if sum(M) + abs(s) == 1:
        return _letter_act(shape, kind, i, side, M, s)
    N = shape.size
    zero = zero_matrix(N)
    if s:
        step = s if any(M) else (1 if s > 0 else -1)
        aM, a_s = M, s - step
        b = zero, step
        w_b, p_b = _key_weight(shape, zero, step, i, side), 0
    elif any(M):
        k = max(p for p, v in enumerate(M) if v)
        cell, aM, a_s = (k // N + 1, k % N + 1), M[:k] + (M[k] - 1,) + M[k + 1:], 0
        b = unit_matrix(N, *cell), 0
        w_b, p_b = _pair_weight(shape, *cell, i, side), shape.gen_parity(*cell)
    else:
        return LocalElement.zero(shape)
    image = _act_key(shape, kind, i, side, *b)
    c_tail, c_head = CONVENTIONS[kind]
    odd = shape.parity(i) != shape.parity(i + 1)
    c = LaurentPoly.q_power(2 * c_tail * w_b, (-1) ** p_b if odd and side == "R" else 1)
    hit = _act_key(shape, kind, i, side, aM, a_s)
    if s:
        out = LocalElement(shape, {(T, al + step, de): v * c
                                   for (T, al, de), v in hit.terms.items()})
    else:
        out = (hit * LocalElement.monomial(shape, unit_matrix(N, *cell))).scale(c)
    if image.is_zero():
        return out
    sign = (-1) ** shape.odd_degree(aM) if odd and side == "L" else 1
    c = LaurentPoly.q_power(2 * c_head * _key_weight(shape, aM, a_s, i, side), sign)
    return out + (LocalElement.monomial(shape, aM, a_s) * image).scale(c)


def _k_exponent(gen, side, biweight):
    """K_i (Kinv_i) acts on a key of this biweight by q^(2 w_i)
    (q^(-2 w_i)), w its row (left) or column (right) sums."""
    w = biweight[0 if side == "L" else 1][gen.index - 1]
    return 2 * w if gen.kind == "K" else -2 * w


def _act_terms(shape, kind, i, side, f):
    """E_i/F_i on a polynomial or localized element, key by key."""
    cls = type(f)
    out = cls.zero(shape)
    for key, coeff in f.terms.items():
        if cls is AlgebraElement:
            word = matrix_to_word(key, shape.size)
            out = out + _act_word(shape, kind, i, side, word).scale(coeff)
        else:
            M, a, d = key
            image = _act_key(shape, kind, i, side, M, a + d)
            out = out + cls(shape, {times_ber(k, -d): c * coeff for k, c in image.terms.items()})
    return out


def _act(gen: GenSymbol, f, side: str):
    shape = f.shape
    if gen.validate(shape).kind in ("K", "Kinv"):
        return type(f)(shape, {
            key: c * LaurentPoly.q_power(_k_exponent(gen, side, f.key_biweight(key)))
            for key, c in f.terms.items()
        })
    return _act_terms(shape, gen.kind, gen.index, side, f)


def act_left(gen: GenSymbol, f):
    """Left translation action of a quantized enveloping algebra generator."""
    return _act(gen, f, "L")


def act_right(gen: GenSymbol, f):
    """Right translation action; commutes with the left one."""
    return _act(gen, f, "R")


# ---------------------------------------------------------------------------
# invariant windows
# ---------------------------------------------------------------------------


def window_indices(shape: Shape, max_degree: int, a_range=(0, 0), d_range=(0, 0)):
    """Constrained basis indices (M, a, d) within the window bounds."""
    return [(M, a, d) for a in range(a_range[0], a_range[1] + 1)
            for d in range(d_range[0], d_range[1] + 1)
            for M in _window_matrices(shape, max_degree)]


@lru_cache(maxsize=None)
def _window_matrices(shape: Shape, max_degree: int):
    """Constrained matrices by degree, then by (row sums, column sums),
    then lexicographically; one entry per (shape, degree)."""
    N = shape.size
    out = []
    for deg in range(max_degree + 1):
        block_order = sorted(
            degree_matrices(shape, deg),
            key=lambda M: (row_sums(M, N), col_sums(M, N), M),
        )
        out.extend(M for M in block_order if is_constrained(shape, M))
    return tuple(out)


def invariants_window(
    shape: Shape,
    left_gens,
    right_gens=(),
    max_degree: int = 2,
    a_range=(0, 0),
    d_range=(0, 0),
):
    """Basis of the joint invariant space on a finite window, exactly.

    K_i and Kinv_i act on a key by q^k, k read from its biweight, so a key
    that one of them moves has coefficient 0 in every invariant: only the
    keys that every K fixes are kept.  Column j holds the E_i/F_i images of
    key j at rows (generator's position, image key's id): each image key
    gets an integer id on first sight, so the elimination hashes pairs of
    ints, not matrices, and the rows keep their order of first appearance."""
    gens = [(g.validate(shape), side) for side, gs in (("L", left_gens), ("R", right_gens))
            for g in gs]
    ks = [(g, side) for g, side in gens if g.kind in ("K", "Kinv")]
    probe = LocalElement.zero(shape)  # reads the keys' biweights
    basis = [key for key in window_indices(shape, max_degree, a_range, d_range)
             if not any(_k_exponent(g, side, probe.key_biweight(key)) for g, side in ks)]
    if not basis:
        return []
    columns, ids = [], {}
    for M, a, d in basis:
        col = {}
        for gi, (g, side) in enumerate(gens):
            if g.kind in ("E", "F"):
                for T, c in _act_key(shape, g.kind, g.index, side, M, a + d).terms.items():
                    col[(gi, ids.setdefault(times_ber(T, -d), len(ids)))] = c
        columns.append(col)
    return [LocalElement(shape, {basis[j]: c for j, c in vec.items()})
            for vec in nullspace(columns)]


@dataclass(frozen=True)
class SpanReport:
    selected: tuple
    invariant_dim: int
    passed: bool


def canonical_span_check(
    shape: Shape,
    left_gens,
    max_degree: int = 2,
    a_range=(0, 0),
    d_range=(0, 0),
    variant=None,
) -> SpanReport:
    """n=1 check: the invariant window equals the span of the dual canonical
    basis elements lying in it; returns the selected indices.

    inv is a basis of the invariant space V of the window.  The selected
    elements are invariant, and distinct basis elements are independent,
    so with len(inv) of them their span is V exactly when every one lies
    in the window; a dimension count and a containment test decide it,
    and nothing is solved.  A solve could not fail on the Laurent ring
    either: each selected element is a unit at its own index plus p-lower
    terms, so its coordinates need only unit divisions.
    """
    if shape.n != 1:
        raise ValueError("span check is stated for one odd row")
    variant = variant or Variant.PLUS_Q
    inv = invariants_window(shape, left_gens, (), max_degree, a_range, d_range)
    window = window_indices(shape, max_degree, a_range, d_range)
    selected, omegas = [], []
    for key in window:
        f = omega_global(shape, *key, variant).expansion
        if all((_act(g, f, "L") - f.scale(epsilon(g))).is_zero() for g in left_gens):
            selected.append(key)
            omegas.append(f)
    if len(selected) != len(inv):
        raise SpanMismatch(f"{len(inv)} invariants vs {len(selected)} basis elements")
    window = set(window)
    if any(not window.issuperset(f.terms) for f in omegas):
        raise SpanMismatch("basis element outside the window")
    return SpanReport(tuple(selected), len(inv), True)


# ---------------------------------------------------------------------------
# n=1 two-row adapted basis and Kashiwara operators
# ---------------------------------------------------------------------------


def minor_power_expansion(shape: Shape, i, j, k, l, s: int) -> AlgebraElement:
    """Closed form of (x_ij x_kl - q^2 x_il x_kj)^s via q^4-binomials."""
    out = AlgebraElement.zero(shape)
    for t in range(s + 1):
        word = (
            [(i, j)] * (s - t) + [(i, l)] * t + [(k, j)] * t + [(k, l)] * (s - t)
        )
        coeff = q_binom(s, t, base=4) * LaurentPoly.q_power(
            2 * t + 4 * t * (t - s), (-1) ** t
        )
        out = out + AlgebraElement.from_word(shape, word).scale(coeff)
    return out


@dataclass(frozen=True)
class AdaptedElement:
    shape: Shape
    power: int  # the normalizing q-power l
    staircase: tuple  # two-row matrix (flat, rows 1..2 only, N columns)
    minors: tuple  # ((j, k), exponent) pairs, lex-sorted
    tail: tuple  # rows >= 3 flat matrix entries

    def leading_matrix(self):
        N = self.shape.size
        M = list(self.staircase) + list(self.tail)
        for (j, k), e in self.minors:
            M[j - 1] += e
            M[N + k - 1] += e
        return tuple(M)

    def inert(self) -> AlgebraElement:
        """The minors product times the tail, untouched by the two-row
        Kashiwara operators."""
        shape = self.shape
        f = AlgebraElement.one(shape)
        for (j, k), e in self.minors:
            for _ in range(e):
                f = f * minor_power_expansion(shape, 1, j, 2, k, 1)
        return f * x_norm(shape, (0,) * (2 * shape.size) + self.tail)

    def expansion(self) -> AlgebraElement:
        return _tworow_symbol(self.shape, self.staircase).scale(
            LaurentPoly.q_power(self.power)
        ) * self.inert()


def decompose_tworow(shape: Shape, M) -> AdaptedElement:
    """Canonical (staircase, minors, tail) decomposition of a monomial matrix.

    Scanning columns left to right, each row-2 box is matched to the most
    recent unmatched row-1 box in a strictly smaller column (bracket
    matching); matched pairs become 2x2 minors and the unmatched boxes form
    the staircase.  The matching invariant guarantees that every unmatched
    row-1 column is >= every unmatched row-2 column.
    """
    N = shape.size
    row1 = [mat_entry(M, N, 1, j) for j in range(1, N + 1)]
    row2 = [mat_entry(M, N, 2, j) for j in range(1, N + 1)]
    open1 = []  # unmatched row-1 boxes, as column indices (1-based)
    pairs = []
    stair2 = [0] * N
    for k in range(1, N + 1):
        for _ in range(row2[k - 1]):
            if open1:
                pairs.append((open1.pop(), k))
            else:
                stair2[k - 1] += 1
        open1.extend([k] * row1[k - 1])
    stair1 = [0] * N
    for j in open1:
        stair1[j - 1] += 1
    counts = {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    minors = tuple(sorted(counts.items()))
    tail = tuple(M[2 * N :])
    return AdaptedElement(shape, 0, tuple(stair1) + tuple(stair2), minors, tail)


def adapted_basis_tworow(shape: Shape, ro, co):
    """The two-row adapted basis of one biweight block, with transition data.

    ro = (r1, r2, tail row sums...); elements are staircase x minors x tail.
    Returns (elements, transition) where transition maps each element to its
    expansion coefficients over the block's normalized monomials.
    """
    if shape.n != 1 or shape.m < 2:
        raise ValueError(
            "adapted basis needs one odd row and two even rows to move "
            "boxes between"
        )
    block = enumerate_block(shape, ro, co)
    elements, expansions = [], []
    for M in block:
        cand = decompose_tworow(shape, M)
        assert cand.leading_matrix() == M
        f = cand.expansion()
        lead = f.coeff(M).divexact(x_norm(shape, M).terms[M])
        if lead.is_zero() or not lead.is_monomial():
            raise UniquenessFailure(f"leading coefficient {lead} at {M}")
        (exp, unit), = lead.terms.items()
        if unit != 1:
            raise UniquenessFailure(f"leading unit {unit} at {M}")
        elements.append(
            AdaptedElement(shape, -exp, cand.staircase, cand.minors, cand.tail)
        )
        # the element's expansion is the candidate's, rescaled by q^-exp
        expansions.append(f.scale(LaurentPoly.q_power(-exp)))
    transition = {}
    for el, f in zip(elements, expansions):
        row = {}
        for M in block:
            c = f.coeff(M).divexact(x_norm(shape, M).terms[M])
            if not c.is_zero():
                row[M] = c
        lead = el.leading_matrix()
        if row.get(lead) != ONE:
            raise UniquenessFailure(f"diagonal {row.get(lead)} is not 1")
        for M, c in row.items():
            if M != lead and not (
                c.negative_part().is_zero() and c.coeff(0) == 0
            ):
                raise UniquenessFailure(f"off-diagonal {c} not in qZ[q]")
        transition[el] = row
    return elements, transition


def _tworow_symbol(shape: Shape, stair) -> AlgebraElement:
    N = shape.size
    return x_norm(shape, tuple(stair) + (0,) * (N * (N - 2)))


def kashiwara_e1(el: AdaptedElement) -> AlgebraElement:
    """Box-raising operator on the two-row part; inert factors untouched."""
    return _kashiwara(el, raise_=True)


def kashiwara_f1(el: AdaptedElement) -> AlgebraElement:
    """Box-lowering operator on the two-row part; inert factors untouched."""
    return _kashiwara(el, raise_=False)


def _kashiwara(el: AdaptedElement, raise_: bool) -> AlgebraElement:
    if not isinstance(el, AdaptedElement):
        raise NotAdapted(f"{el!r}")
    shape = el.shape
    N = shape.size
    row1, row2 = el.staircase[:N], el.staircase[N:]
    out = AlgebraElement.zero(shape)
    for k in range(N):
        if raise_:
            if row2[k] == 0:
                continue
            if shape.gen_parity(1, k + 1) and row1[k] >= 1:
                continue
            power = 2 * sum(row2[:k])
            new = list(row1), list(row2)
            new[0][k] += 1
            new[1][k] -= 1
        else:
            if row1[k] == 0:
                continue
            if shape.gen_parity(2, k + 1) and row2[k] >= 1:
                continue
            power = 2 * sum(row1[k + 1 :])
            new = list(row1), list(row2)
            new[0][k] -= 1
            new[1][k] += 1
        stair = tuple(new[0]) + tuple(new[1])
        out = out + _tworow_symbol(shape, stair).scale(
            LaurentPoly.q_power(power)
        )
    return out.scale(LaurentPoly.q_power(el.power)) * el.inert()
