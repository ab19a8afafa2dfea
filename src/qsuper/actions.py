"""Left and right U_q(gl_{m|n}) actions on the quantum supergroup algebra.

The algebra of functions carries two commuting translation actions.  On
generators they are given by finite tables; on products they extend by the
coproduct rule, with the K-type factor acting diagonally by weight q-powers.
One word loop applies the rule to polynomial and localized words; the two
differ only in how a word with one letter replaced by its image multiplies
out.  Actions on localized letters (detA^-1, Schur-complement entries) are
derived from the generator tables and the derivation rule for inverses,
not postulated.  Powers of detD' act through the Berezinian: the key
W(M) detA^a detD'^d is W(M) detA^(a+d) times Ber^-d, and Ber is central,
even, of weight zero and killed by every E_i and F_i.  The coproduct rule
also splits a word at W(M) | detA^a, so the image of W(M) detA^a is the
image of W(M), re-keyed to detA^a, plus W(M) times the image of detA^a,
and each W(M) runs through the word loop once for all powers a.

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
    word_to_matrix,
    x_norm,
    zero_matrix,
)
from .superspace import det_q_A
from .glq import LocalElement, to_mixed, is_constrained
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
# letters
#
# A word is a tuple of letters:
#   ("x", i, j)   generator, any block for polynomials, upper blocks mixed
#   ("y", mu, nu) Schur-complement entry
#   ("dA", s) with s = +-1        a power of detA
# ---------------------------------------------------------------------------


def _pair_weight(shape: Shape, L, i: int, side: str) -> int:
    """Parity-signed w_i - w_{i+1} of one letter, w its row weight (left)
    or column weight (right) with w_k signed by (-1)^{[k]}; detA^s weighs s
    on the even rows and columns, so its pair is s where i is even and i+1
    odd, else 0."""
    if L[0] == "dA":
        return L[1] * (shape.parity(i + 1) - shape.parity(i))
    idx = L[1] if side == "L" else L[2]
    if idx == i:
        return (-1) ** shape.parity(i)
    return -(-1) ** shape.parity(i + 1) if idx == i + 1 else 0


def _mixed_letters(shape: Shape, M, a: int):
    """The word of W(M) detA^a: x- and y-letters in lexicographic order,
    then the detA letters, so each run of it is W(M_run) detA^(a_run)."""
    N = shape.size
    letters = [("y" if b == "D" else "x", k // N + 1, k % N + 1)
               for k, (v, b) in enumerate(zip(M, shape.blocks)) for _ in range(v)]
    return tuple(letters + [("dA", 1 if a >= 0 else -1)] * abs(a))


def _x_local(shape: Shape, i: int, j: int) -> LocalElement:
    if shape.block(i, j) == "D":
        return to_mixed(AlgebraElement.generator(shape, i, j))
    return LocalElement.x_gen(shape, i, j)


def _letters_local(shape: Shape, letters) -> LocalElement:
    """A run of a mixed word, W(M_run) detA^(a_run), as one monomial."""
    M = word_to_matrix([L[1:] for L in letters if L[0] != "dA"], shape.size)
    return LocalElement.monomial(shape, M, sum(L[1] for L in letters if L[0] == "dA"))


# ---------------------------------------------------------------------------
# single-letter actions: one cache entry per (shape, generator, side, letter)
# ---------------------------------------------------------------------------


def _x_letter_act(shape: Shape, kind: str, i: int, side: str, k: int, l: int):
    """Action of E_i/F_i on a generator; None encodes zero.

    Left E lowers the row index, left F raises it.  On the right, E raises
    the column index and F lowers it: this is the unique direction
    assignment under which the extension to products is well defined on the
    defining relations and the determinant vanishing identities hold.
    """
    if side == "L":
        if kind == "E":
            return ("x", i, l) if k == i + 1 else None
        return ("x", i + 1, l) if k == i else None
    if kind == "E":
        return ("x", k, i + 1) if l == i else None
    return ("x", k, i) if l == i + 1 else None


@lru_cache(maxsize=None)
def _y_letter_act(shape: Shape, kind: str, i: int, side: str, mu: int, nu: int):
    """Action on a Schur-complement entry, derived from its x-expansion.

    y_{mu,nu} = x_{mu,nu} - (correction in upper-block letters and detA^{-1});
    the action is computed on the right-hand side and re-expressed, so the
    entry tables are a theorem here, not an input.
    """
    f = to_mixed(AlgebraElement.generator(shape, mu, nu))
    corr = f - LocalElement.y_gen(shape, mu, nu)
    # y = x - corr, so the action is the table action on the letter x_{mu,nu}
    # minus the action on the correction (x letters + dA^{-1})
    head = _act_word(shape, kind, i, side, (("x", mu, nu),), LocalElement)
    tail = LocalElement.zero(shape)
    for (M, a, d), c in corr.terms.items():
        letters = _mixed_letters(shape, M, a)
        assert d == 0 and all(L[0] != "y" for L in letters)
        tail = tail + _act_word(shape, kind, i, side, letters, LocalElement).scale(c)
    return head - tail


@lru_cache(maxsize=None)
def _det_letter_act(shape: Shape, kind: str, i: int, side: str):
    """Action on detA, computed on the expanded determinant."""
    return to_mixed(_act_terms(shape, kind, i, side, det_q_A(shape)))


@lru_cache(maxsize=None)
def _det_inverse_act(shape: Shape, kind: str, i: int, side: str):
    """Action on detA^{-1} via the derivation rule.

    From X.(u u^{-1}) = 0:  X.u^{-1} = -q^{-2(c_head + c_tail) w(u)}
    u^{-1} (X.u) u^{-1}, with u = detA and w(u) its K-pair weight.
    """
    hit = _det_letter_act(shape, kind, i, side)
    if hit.is_zero():
        return hit
    c_tail, c_head = CONVENTIONS[kind]
    w = _pair_weight(shape, ("dA", 1), i, side)
    inv = LocalElement(shape, {(zero_matrix(shape.size), -1, 0): ONE})
    return (inv * hit * inv).scale(
        LaurentPoly.q_power(-2 * (c_tail + c_head) * w, -1)
    )


# ---------------------------------------------------------------------------
# word engine
# ---------------------------------------------------------------------------


def _act_word(shape, kind, i, side, letters, cls):
    """E_i/F_i on one word by the coproduct rule, as a cls element.

    Each letter's pair weight and parity are read once.  The term of
    position p is the word with letter p replaced by its image, times
    q^(2 c_tail w(suffix) + 2 c_head w(prefix)); an odd E_m/F_m also
    gives (-1)^(parity of the prefix) on the left, of the suffix on the
    right.  A polynomial term is one straightening; a localized one is
    the product prefix * image * suffix, with prefix and suffix one
    monomial each.
    """
    c_tail, c_head = CONVENTIONS[kind]
    local, odd_gen = cls is LocalElement, shape.parity(i) != shape.parity(i + 1)
    weights = [_pair_weight(shape, L, i, side) for L in letters]
    parities = [L[0] == "x" and shape.gen_parity(L[1], L[2]) for L in letters]
    head_w, tail_w, head_par, tail_par = 0, sum(weights), 0, sum(parities)
    out = cls.zero(shape)
    for p, L in enumerate(letters):
        tail_w -= weights[p]
        tail_par -= parities[p]
        if L[0] == "x":
            image = _x_letter_act(shape, kind, i, side, L[1], L[2])
            if local and image is not None:
                image = _x_local(shape, image[1], image[2])
        elif L[0] == "y":
            image = _y_letter_act(shape, kind, i, side, L[1], L[2])
        elif L[1] == 1:
            image = _det_letter_act(shape, kind, i, side)
        else:
            image = _det_inverse_act(shape, kind, i, side)
        if image is not None and not (local and image.is_zero()):
            run = head_par if side == "L" else tail_par
            c = LaurentPoly.q_power(2 * (c_tail * tail_w + c_head * head_w),
                                    (-1) ** run if odd_gen else 1)
            if local:
                term = (_letters_local(shape, letters[:p]) * image
                        * _letters_local(shape, letters[p + 1:])).scale(c)
            else:
                word = [T[1:] for T in letters[:p] + (image,) + letters[p + 1:]]
                term = AlgebraElement(shape, straighten_word(shape, word, c))
            out = out + term
        head_w += weights[p]
        head_par += parities[p]
    return out


# Bound: a degree-3 window at (2|2) with its six E_i/F_i and four values of
# a + d holds 19,176 images (about 4 MiB), a qbench localize session 1,200.
# An image at s != 0 is built from those at (M, 0) and (0, s), which a
# window whose det range holds 0 computes anyway.
@lru_cache(maxsize=1 << 15)
def _act_key(shape, kind, i, side, M, s):
    """E_i/F_i on the mixed word W(M) detA^s.

    With M and s both nonzero the word loop splits at W(M) | detA^s.  Its
    positions in W(M) give the image of W(M) times detA^s: detA^s on the
    right only raises each key's detA power, and the tail weight grows by
    s w, w the pair weight of detA.  Its positions in detA^s give W(M)
    times the image of detA^s, with the sign and head weight of W(M).
    The image of detA^s is zero except for a left F_m or a right E_m.
    """
    if not s or not any(M):
        return _act_word(shape, kind, i, side, _mixed_letters(shape, M, s), LocalElement)
    c_tail, c_head = CONVENTIONS[kind]
    shift = LaurentPoly.q_power(2 * c_tail * s * _pair_weight(shape, ("dA", 1), i, side))
    out = LocalElement(shape, {(T, a + s, d): c * shift for (T, a, d), c
                               in _act_key(shape, kind, i, side, M, 0).terms.items()})
    det = _act_key(shape, kind, i, side, zero_matrix(shape.size), s)
    if det.is_zero():
        return out
    head_w = sum(_pair_weight(shape, L, i, side) for L in _mixed_letters(shape, M, 0))
    odd = side == "L" and shape.parity(i) != shape.parity(i + 1)
    c = LaurentPoly.q_power(2 * c_head * head_w, (-1) ** shape.odd_degree(M) if odd else 1)
    return out + (LocalElement.monomial(shape, M) * det).scale(c)


def _times_ber(key, k):
    """The key of the basis element at key times Ber^k: Ber = detA detD'^-1
    is central and even, so it only moves the det powers."""
    T, alpha, delta = key
    return T, alpha + k, delta - k


def _k_exponent(gen, side, f, key):
    """K_i (Kinv_i) acts on f's key by q^(2 w_i) (q^(-2 w_i)), w its row
    (left) or column (right) sums."""
    w = f.key_biweight(key)[0 if side == "L" else 1][gen.index - 1]
    return 2 * w if gen.kind == "K" else -2 * w


def _act_terms(shape, kind, i, side, f):
    """E_i/F_i on a polynomial or localized element, key by key."""
    cls = type(f)
    out = cls.zero(shape)
    for key, coeff in f.terms.items():
        if cls is AlgebraElement:
            letters = tuple(("x", *g) for g in matrix_to_word(key, shape.size))
            out = out + _act_word(shape, kind, i, side, letters, cls).scale(coeff)
        else:
            M, a, d = key
            image = _act_key(shape, kind, i, side, M, a + d)
            out = out + cls(shape, {_times_ber(k, -d): c * coeff for k, c in image.terms.items()})
    return out


def _act(gen: GenSymbol, f, side: str):
    shape = f.shape
    if gen.validate(shape).kind in ("K", "Kinv"):
        return type(f)(shape, {
            key: c * LaurentPoly.q_power(_k_exponent(gen, side, f, key))
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
    Column j holds (g - eps(g)) on key j at rows (g's position, image key):
    the E_i/F_i image, or q^k - 1 at the key itself for K_i/Kinv_i."""
    basis = window_indices(shape, max_degree, a_range, d_range)
    if not basis:
        return []
    gens = [(g.validate(shape), side) for side, gs in (("L", left_gens), ("R", right_gens))
            for g in gs]
    probe = LocalElement.zero(shape)  # reads the keys' biweights
    columns = []
    for key in basis:
        M, a, d = key
        col = {}
        for gi, (g, side) in enumerate(gens):
            if g.kind in ("K", "Kinv"):
                k = _k_exponent(g, side, probe, key)
                if k:
                    col[(gi, key)] = LaurentPoly.q_power(k) - ONE
            else:
                for T, c in _act_key(shape, g.kind, g.index, side, M, a + d).terms.items():
                    col[(gi, _times_ber(T, -d))] = c
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


def _minor(shape: Shape, j: int, k: int) -> AlgebraElement:
    x = AlgebraElement.generator
    return x(shape, 1, j) * x(shape, 2, k) - (
        x(shape, 1, k) * x(shape, 2, j)
    ).scale(LaurentPoly.q_power(2))


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
                f = f * _minor(shape, j, k)
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
    if not block:
        return [], {}
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
