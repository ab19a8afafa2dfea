"""Normal-form arithmetic in the coordinate superalgebra of a quantum supermatrix.

Elements live over the basis of lexicographically ordered monomials in the
generators x_ij.  Multiplication straightens words with the four quadratic
relation families plus the square-zero rule for odd generators; the bar
anti-automorphism reverses words with the super sign and re-straightens.

Shape owns the 2x2 block layout of the supermatrix: which block A, B, C or
D a cell lies in, its parity, and the cap on its exponent.  Every module
reads the layout from Shape instead of comparing indices with m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress

from .laurent import LaurentPoly, ONE

QSQ_DIFF = LaurentPoly({2: 1, -2: -1})  # q^2 - q^-2


class ShapeMismatch(ValueError):
    pass


class NonHomogeneous(Exception):
    pass


@lru_cache(maxsize=None)
def _cell_table(m: int, n: int) -> tuple:
    """(block letters, odd flags) of the cells of the (m|n) layout, shared
    by every Shape(m, n)."""
    blocks = ("A" * m + "B" * n) * m + ("C" * m + "D" * n) * n
    return blocks, tuple(int(b in "BC") for b in blocks)


@dataclass(frozen=True)
class Shape:
    """Block sizes of the supermatrix: m even rows/columns, n odd ones.

    The cell table ``blocks`` names the block of every cell of a flat
    row-major exponent matrix: A (rows and columns 1..m) and D (rows and
    columns above m) are the even diagonal blocks, B (upper right) and C
    (lower left) the odd ones.  A cell's parity follows from its block, and
    so does its exponent cap: odd generators square to zero, so an odd
    cell's exponent is at most 1.  The table is built on first use, once
    per (m, n), so a Shape costs nothing to construct; equality and hash
    read only m and n.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need m >= 1 and n >= 1")

    @property
    def size(self) -> int:
        return self.m + self.n

    @cached_property
    def blocks(self) -> str:
        """The block letter of each cell, flat and row-major."""
        return _cell_table(self.m, self.n)[0]

    @cached_property
    def odd(self) -> tuple:
        """1 at each odd cell (blocks B and C, exponent cap 1), else 0."""
        return _cell_table(self.m, self.n)[1]

    @cached_property
    def diagonals(self) -> tuple:
        """Slices of a flat matrix onto the diagonal cells of A and of D."""
        step = self.size + 1
        return slice(0, self.m * step, step), slice(self.m * step, None, step)

    def cell(self, i: int, j: int) -> int:
        """Flat position of cell (i, j); IndexError outside 1..N."""
        N = self.size
        if not (1 <= i <= N and 1 <= j <= N):
            raise IndexError(f"cell ({i},{j}) out of range for shape {self}")
        return (i - 1) * N + (j - 1)

    def block(self, i: int, j: int) -> str:
        """The block letter of cell (i, j)."""
        return self.blocks[self.cell(i, j)]

    def parity(self, i: int) -> int:
        """0 for an even index, 1 for an odd one: the parity of the cell
        (1, i), as index 1 is even."""
        return self.odd[self.cell(1, i)]

    def gen_parity(self, i: int, j: int) -> int:
        return self.odd[self.cell(i, j)]

    def odd_degree(self, M) -> int:
        """Total exponent of M over the odd cells."""
        return sum(compress(M, self.odd))

    def restrict(self, M, letters: str) -> tuple:
        """M with every cell outside the named blocks set to 0."""
        return tuple(v if b in letters else 0 for v, b in zip(M, self.blocks))

    @classmethod
    def from_json(cls, obj: dict) -> "Shape":
        if type(obj["m"]) is not int or type(obj["n"]) is not int:
            raise ValueError("m and n must be integers")
        return cls(obj["m"], obj["n"])

    def generators(self):
        N = self.size
        return [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]


# -- exponent matrices (flat row-major tuples) --------------------------


def mat_entry(M, N, i, j):
    return M[(i - 1) * N + (j - 1)]


def mat_from_json(shape: Shape, rows):
    """The flat matrix of a JSON list of N rows of N integers, validated."""
    N = shape.size
    if not (isinstance(rows, list) and len(rows) == N and all(
            isinstance(r, list) and len(r) == N and all(type(v) is int for v in r)
            for r in rows)):
        raise ValueError(f"matrix must be {N} rows of {N} integers")
    M = tuple(v for row in rows for v in row)
    validate_matrix(shape, M)
    return M


def mat_rows(M, N):
    return [list(M[r * N : (r + 1) * N]) for r in range(N)]


def zero_matrix(N):
    return (0,) * (N * N)


def unit_matrix(N, i, j):
    """The exponent matrix of the single generator x_ij."""
    return word_to_matrix(((i, j),), N)


def validate_matrix(shape: Shape, M) -> None:
    N = shape.size
    if len(M) != N * N:
        raise ValueError("matrix size does not match shape")
    for k, (v, odd) in enumerate(zip(M, shape.odd)):
        if v < 0:
            raise ValueError("negative exponent")
        if odd and v > 1:
            raise ValueError(f"odd generator x[{k // N + 1},{k % N + 1}] with exponent {v}")


def row_sums(M, N):
    return tuple(sum(M[r * N : (r + 1) * N]) for r in range(N))


def col_sums(M, N):
    return tuple(sum(M[r * N + c] for r in range(N)) for c in range(N))


def matrix_to_word(M, N):
    """Letters (i, j) of the ordered monomial, in lexicographic order."""
    return tuple((k // N + 1, k % N + 1) for k, v in enumerate(M) if v for _ in range(v))


def word_to_matrix(word, N):
    M = [0] * (N * N)
    for (i, j) in word:
        M[(i - 1) * N + (j - 1)] += 1
    return tuple(M)


# -- the straightening kernel -------------------------------------------


@lru_cache(maxsize=None)
def _pair_rule(shape: Shape, g1, g2):
    """Expansion of x_g1 * x_g2 over ordered two-letter words, for g1 > g2
    or an odd g1 == g2.

    Returns a tuple of (two-letter word, LaurentPoly) pairs; the empty
    tuple encodes zero (odd square).
    """
    i, j = g1
    k, l = g2
    par = shape.parity
    if g1 == g2:  # straighten_word passes an equal pair only when it is odd
        return ()
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


def _put(terms, key, c):
    """terms[key] += c, dropping the key when the sum is zero; c is a
    LaurentPoly or an element."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s.terms:
        terms[key] = s
    else:
        terms.pop(key, None)


def straighten_word(shape: Shape, word, coeff: LaurentPoly | None = None):
    """Normal form of a generator word: dict matrix -> LaurentPoly."""
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
        head, tail = w[:pos], w[pos + 2 :]
        for pair, pc in _pair_rule(shape, w[pos], w[pos + 1]):
            stack.append((head + pair + tail, c * pc))
    return out


@lru_cache(maxsize=200000)
def _straighten_cached(shape: Shape, word):
    return tuple(sorted(straighten_word(shape, word).items()))


class LinearElement:
    """Finite map basis key -> nonzero LaurentPoly over one shape.

    The module structure shared by polynomial and localized elements;
    subclasses supply the keys, ``one`` and the product.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: Shape, terms=None):
        self.shape = shape
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    self.terms[key] = c

    @classmethod
    def zero(cls, shape: Shape):
        return cls(shape)

    def _check(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _put(terms, key, c)
        return type(self)(self.shape, terms)

    def __neg__(self):
        return type(self)(self.shape, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        if c.is_zero():
            return type(self)(self.shape)
        return type(self)(self.shape, {key: t * c for key, t in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not available")
        out = type(self).one(self.shape)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def key_biweight(self, key):
        """(row sums, column sums) of the basis element at key."""
        raise NotImplementedError

    def biweight(self):
        """(row sums, column sums), shared by every term."""
        bw = None
        for key in self.terms:
            cur = self.key_biweight(key)
            if bw is None:
                bw = cur
            elif bw != cur:
                raise NonHomogeneous(f"mixed biweights {bw} and {cur}")
        N = self.shape.size
        return bw if bw is not None else ((0,) * N, (0,) * N)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.terms.items()))))


class AlgebraElement(LinearElement):
    """A normal-form element: finite map exponent matrix -> LaurentPoly."""

    __slots__ = ()

    # -- constructors --------------------------------------------------

    @classmethod
    def one(cls, shape: Shape) -> "AlgebraElement":
        return cls(shape, {zero_matrix(shape.size): ONE})

    @classmethod
    def generator(cls, shape: Shape, i: int, j: int) -> "AlgebraElement":
        return cls.from_word(shape, ((i, j),))

    @classmethod
    def monomial(cls, shape: Shape, M, coeff: LaurentPoly = ONE) -> "AlgebraElement":
        validate_matrix(shape, M)
        return cls(shape, {tuple(M): coeff})

    @classmethod
    def from_word(cls, shape: Shape, word, coeff: LaurentPoly = ONE) -> "AlgebraElement":
        """Normal form of coeff times the word; IndexError for a letter
        outside the matrix."""
        for i, j in word:
            shape.cell(i, j)
        return cls(shape, straighten_word(shape, word, coeff))

    # -- products ----------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        N = self.shape.size
        terms: dict = {}
        right = [(matrix_to_word(M2, N), c2) for M2, c2 in other.terms.items()]
        for M1, c1 in self.terms.items():
            w1 = matrix_to_word(M1, N)
            for w2, c2 in right:
                c = c1 * c2
                for key, sc in _straighten_cached(self.shape, w1 + w2):
                    _put(terms, key, sc * c)
        return AlgebraElement(self.shape, terms)

    def bar(self) -> "AlgebraElement":
        """Coefficient-wise q -> q^-1, words reversed with the super sign."""
        N = self.shape.size
        terms: dict = {}
        for M, c in self.terms.items():
            odd = self.shape.odd_degree(M)
            sign = (-1) ** (odd * (odd - 1) // 2)
            cb = c.bar().scale(sign)
            for key, sc in _straighten_cached(self.shape, matrix_to_word(M, N)[::-1]):
                _put(terms, key, sc * cb)
        return AlgebraElement(self.shape, terms)

    # -- views ------------------------------------------------------------

    def coeff(self, M) -> LaurentPoly:
        return self.terms.get(tuple(M), LaurentPoly.zero())

    def __repr__(self):
        return f"AlgebraElement({format_element(self)})"

    def key_biweight(self, M):
        N = self.shape.size
        return row_sums(M, N), col_sums(M, N)

    def parity(self) -> int:
        pars = {self.shape.odd_degree(M) % 2 for M in self.terms}
        if len(pars) > 1:
            raise NonHomogeneous("mixed parities")
        return pars.pop() if pars else 0

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        N = self.shape.size
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "terms": [
                {"matrix": mat_rows(M, N), "coeff": self.terms[M].to_json()}
                for M in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraElement":
        shape = Shape.from_json(obj)
        terms: dict = {}
        for t in obj["terms"]:
            _put(terms, mat_from_json(shape, t["matrix"]), LaurentPoly.from_json(t["coeff"]))
        return cls(shape, terms)


def straighten_pair(shape: Shape, g1, g2) -> AlgebraElement:
    """Normal form of the two-letter product x_g1 * x_g2."""
    return AlgebraElement.from_word(shape, (tuple(g1), tuple(g2)))


# -- normalized monomials and block enumeration ---------------------------


def norm_exponent(shape: Shape, M) -> int:
    """q-exponent of the normalized monomial x(M)."""
    N = shape.size
    expo = 0
    for i in range(1, N + 1):
        si = (-1) ** shape.parity(i)
        for j in range(1, N + 1):
            for k in range(j + 1, N + 1):
                expo += si * mat_entry(M, N, i, j) * mat_entry(M, N, i, k)
    for l in range(1, N + 1):
        sl = (-1) ** shape.parity(l)
        for s in range(1, N + 1):
            for t in range(s + 1, N + 1):
                expo += sl * mat_entry(M, N, s, l) * mat_entry(M, N, t, l)
    return -expo


def x_norm(shape: Shape, M) -> AlgebraElement:
    """The normalized monomial x(M) = q^(norm exponent) x^M."""
    validate_matrix(shape, M)
    return AlgebraElement(shape, {tuple(M): LaurentPoly.q_power(norm_exponent(shape, M))})


def enumerate_block(shape: Shape, ro, co):
    """All exponent matrices with the given row/column sums.

    Odd-block entries are capped at 1.  Output is sorted lexicographically
    by flattened entries, so the order is deterministic.
    """
    N = shape.size
    ro = tuple(ro)
    co = tuple(co)
    if len(ro) != N or len(co) != N:
        raise ValueError("row/column sum length mismatch")
    if sum(ro) != sum(co):
        return []
    if any(v < 0 for v in ro + co):
        return []
    out, odd = [], shape.odd

    def fill_row(i, cols_left, acc):
        if i > N:
            if all(v == 0 for v in cols_left):
                out.append(tuple(acc))
            return
        target = ro[i - 1]

        def fill_cell(j, left, row_acc):
            if j > N:
                if left == 0:
                    fill_row(i + 1, cols_left, acc + row_acc)
                return
            cap = min(left, cols_left[j - 1])
            if mat_entry(odd, N, i, j):
                cap = min(cap, 1)
            # remaining cells must be able to absorb what is left
            for v in range(cap + 1):
                cols_left[j - 1] -= v
                fill_cell(j + 1, left - v, row_acc + [v])
                cols_left[j - 1] += v

        fill_cell(1, target, [])

    fill_row(1, list(co), [])
    return sorted(out)


def degree_matrices(shape: Shape, deg: int):
    """All exponent matrices of total degree deg, lexicographically.

    Odd entries are capped at 1.  A generator, so a caller that needs only
    the first few pays only for those.
    """
    odd = shape.odd

    def rec(idx, left, acc):
        if idx == len(odd):
            if left == 0:
                yield tuple(acc)
            return
        cap = min(left, 1) if odd[idx] else left
        for v in range(cap + 1):
            acc.append(v)
            yield from rec(idx + 1, left - v, acc)
            acc.pop()

    yield from rec(0, deg, [])


def count_monomials(shape: Shape, k: int) -> int:
    """Number of ordered monomials of total degree k, by direct counting.

    Computed as the degree-k coefficient of the product of cell series
    (geometric for even cells, 1 + t for odd cells).
    """
    dp = [0] * (k + 1)
    dp[0] = 1
    for odd in shape.odd:
        if odd:
            for d in range(k, 0, -1):
                dp[d] += dp[d - 1]
        else:
            for d in range(1, k + 1):
                dp[d] += dp[d - 1]
    return dp[k]


def format_terms(pairs) -> str:
    """Grep-friendly sum of (coefficient, monomial text) pairs; the
    monomial text of the unit is "1"."""
    parts = []
    for c, mono in pairs:
        cs = str(c)
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        elif len(c.terms) == 1:
            parts.append(f"{cs}*{mono}" if mono != "1" else cs)
        else:
            parts.append(f"({cs})*{mono}" if mono != "1" else f"({cs})")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def format_element(f: AlgebraElement) -> str:
    """Text form: sums of q-power coefficients times x[i,j] factors."""
    N = f.shape.size
    pairs = []
    for M in sorted(f.terms):
        mono = "*".join(f"x[{i},{j}]" for (i, j) in matrix_to_word(M, N))
        pairs.append((f.terms[M], mono or "1"))
    return format_terms(pairs)
