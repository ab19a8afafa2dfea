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
from math import comb
from operator import mul

from .laurent import LaurentPoly, ONE


class ShapeMismatch(ValueError):
    pass


class NonHomogeneous(Exception):
    pass


_SHAPES: dict = {}  # (m, n) -> the one Shape of that layout


@dataclass(frozen=True, eq=False, init=False)
class Shape:
    """Block sizes of the supermatrix: m even rows/columns, n odd ones.

    The cell table ``blocks`` names the block of every cell of a flat
    row-major exponent matrix: A (rows and columns 1..m) and D (rows and
    columns above m) are the even diagonal blocks, B (upper right) and C
    (lower left) the odd ones.  A cell's parity follows from its block, and
    so does its exponent cap: odd generators square to zero, so an odd
    cell's exponent is at most 1.

    Shapes are interned: Shape(m, n) returns the one instance of its
    layout, so equality and hashing are identity, and the cell and
    rewrite tables are cached properties built once per (m, n), on first
    use, as is each block mask.  Copies and unpickled shapes are that
    instance too.
    """

    m: int
    n: int

    def __new__(cls, m: int, n: int):
        # checked before the lookup: 2.0 or True would find the int key
        if type(m) is not int or type(n) is not int:
            raise TypeError("m and n must be integers")
        shape = _SHAPES.get((m, n))
        if shape is None:
            if m < 1 or n < 1:
                raise ValueError("need m >= 1 and n >= 1")
            shape = _SHAPES[(m, n)] = super().__new__(cls)
            object.__setattr__(shape, "m", m)
            object.__setattr__(shape, "n", n)
        return shape

    def __reduce__(self):
        return Shape, (self.m, self.n)

    @cached_property
    def size(self) -> int:
        return self.m + self.n

    @cached_property
    def parities(self) -> tuple:
        """The parity of each index 1..N, 0 for even and 1 for odd."""
        return (0,) * self.m + (1,) * self.n

    @cached_property
    def blocks(self) -> str:
        """The block letter of each cell, flat and row-major."""
        m, n = self.m, self.n
        return ("A" * m + "B" * n) * m + ("C" * m + "D" * n) * n

    @cached_property
    def odd(self) -> tuple:
        """1 at each odd cell (blocks B and C, exponent cap 1), else 0."""
        return self.mask("BC")

    @cached_property
    def _masks(self) -> dict:
        return {}

    @cached_property
    def rewrites(self) -> list:
        """The straightening rewrites on flat cell codes (_rewrite_table)."""
        return _rewrite_table(self)

    @cached_property
    def local_rewrites(self) -> list:
        """The rewrites of mixed words, D-block codes read as y_uv."""
        return _rewrite_table(self, mixed=True)

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
        """0 for an even index, 1 for an odd one; IndexError outside 1..N."""
        if not 1 <= i <= self.size:
            raise IndexError(f"index {i} out of range for shape {self}")
        return self.parities[i - 1]

    def gen_parity(self, i: int, j: int) -> int:
        return self.odd[self.cell(i, j)]

    def odd_degree(self, M) -> int:
        """Total exponent of M over the odd cells."""
        return sum(compress(M, self.odd))

    def mask(self, letters: str) -> tuple:
        """1 at each cell of the named blocks, else 0; built once per letters."""
        mask = self._masks.get(letters)
        if mask is None:
            mask = self._masks[letters] = tuple(int(b in letters) for b in self.blocks)
        return mask

    def restrict(self, M, letters: str) -> tuple:
        """M with every cell outside the named blocks set to 0."""
        return tuple(map(mul, M, self.mask(letters)))

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
    return tuple(sum(M[r:r + N]) for r in range(0, N * N, N))


def col_sums(M, N):
    return tuple(sum(M[c::N]) for c in range(N))


def matrix_codes(M):
    """Flat cell codes of the ordered monomial, in lexicographic order."""
    return tuple(k for k, v in enumerate(M) if v for _ in range(v))


def matrix_to_word(M, N):
    """Letters (i, j) of the ordered monomial, in lexicographic order."""
    return tuple((k // N + 1, k % N + 1) for k in matrix_codes(M))


def word_to_matrix(word, N):
    M = [0] * (N * N)
    for (i, j) in word:
        M[(i - 1) * N + (j - 1)] += 1
    return tuple(M)


# -- the straightening kernel -------------------------------------------


def _rewrite_table(shape: Shape, mixed: bool = False) -> list:
    """The straightening rewrite of every descent of the shape's layout, on
    flat cell codes.

    Entry k1 * N^2 + k2, for k1 > k2 or an odd k1 == k2, is None for an odd
    square (zero), else (e, s, corr): x_k1 x_k2 = s q^e x_k2 x_k1, plus
    sigma (q^2 - q^-2) x_c1 x_c2 when corr = (c1, c2, sigma).  For
    x_k1 = x_ij and x_k2 = x_kl, with index parities p, the sign s is -1
    when both letters are odd.  In one row (i = k, j > l) e = -2 (-1)^p(i),
    in one column (j = l, i > k) e = -2 (-1)^p(j); else e = 0, and for
    i > k, j > l the correction is x_kj x_il with
    sigma = -s (-1)^(p(i) p(l) + p(i) p(j) + p(l) p(j)).
    The mixed table reads a D-block code as y_uv, which commutes with the A
    block: there a D code over an A code is the pure swap (0, 1, None).
    """
    N, par, odd, blocks = shape.size, shape.parities, shape.odd, shape.blocks
    N2 = N * N
    table = [None] * (N2 * N2)
    for k1 in range(N2):
        i, j = divmod(k1, N)
        for k2 in range(k1):
            k, l = divmod(k2, N)
            s = -1 if odd[k1] and odd[k2] else 1
            e, corr = 0, None
            if i == k:
                e = 2 if par[i] else -2
            elif j == l:
                e = 2 if par[j] else -2
            elif j > l and not (mixed and blocks[k1] == "D" and blocks[k2] == "A"):
                sigma = -s * (-1) ** (par[i] * par[l] + par[i] * par[j] + par[l] * par[j])
                corr = (k * N + j, i * N + l, sigma)
            table[k1 * N2 + k2] = (e, s, corr)
    return table


def _put(terms, key, c):
    """terms[key] += c, dropping the key when the sum is zero; c is a
    LaurentPoly or an element."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s.terms:
        terms[key] = s
    else:
        terms.pop(key, None)


@lru_cache(maxsize=1 << 6)
def _qsq_diff_power(k: int) -> tuple:
    """(exponent, coefficient) pairs of (q^2 - q^-2)^k."""
    return tuple((2 * k - 4 * j, (-1) ** j * comb(k, j)) for j in range(k + 1))


def straighten_word(shape: Shape, word, coeff: LaurentPoly | None = None, table=None):
    """Normal form of coeff times a word of flat cell codes: dict matrix ->
    LaurentPoly.

    A letter x_ij is the code (i - 1) N + (j - 1), whose integer order is
    the lexicographic order of the letters.  The word is one list changed
    in place: the first descent is rewritten from one entry of the shape's
    table, and the scan resumes one letter before it, as the letters ahead
    are still ordered.  Every rewrite multiplies by a monomial s q^e, and a
    correction also by (q^2 - q^-2), so a word's coefficient is deferred as
    coeff s q^e (q^2 - q^-2)^k: a swap updates the running pair (e, s), and
    a correction pushes a copy of the swapped word, with its own pair, and
    goes on in place with the correction word and k + 1.  The coefficient
    is expanded once per finished word.  Finished words key the result in
    the order of this depth-first search, which takes the correction first.
    The table defaults to shape.rewrites (shape.local_rewrites: mixed words).
    """
    N2, odd, table = shape.size ** 2, shape.odd, table or shape.rewrites
    coeff = ONE if coeff is None else coeff
    if not coeff:
        return {}
    stack = [(list(word), 0, 1, 0, 0)]  # (word, e, s, k, scan start)
    out: dict = {}
    while stack:
        w, e, s, k, t = stack.pop()
        last = len(w) - 1
        while t < last:
            a, b = w[t], w[t + 1]
            if a < b or (a == b and not odd[a]):
                t += 1
                continue
            rule = table[a * N2 + b]
            if rule is None:  # an odd square
                break
            re, rs, corr = rule
            back = t - 1 if t else 0
            if corr is None:
                w[t], w[t + 1] = b, a
                e += re
                s *= rs
            else:
                v = w.copy()
                v[t], v[t + 1] = b, a
                stack.append((v, e + re, s * rs, k, back))
                w[t], w[t + 1] = corr[0], corr[1]
                s *= corr[2]
                k += 1
            t = back
        else:
            out.setdefault(tuple(w), []).append((e, s, k))
    terms = {}
    for w, cs in out.items():
        if cs == [(0, 1, 0)]:  # the word was ordered
            acc = coeff
        else:
            sums: dict = {}
            for e, s, k in cs:
                for x, y in _qsq_diff_power(k):
                    sums[x + e] = sums.get(x + e, 0) + s * y
            acc = LaurentPoly(sums)
            if coeff is not ONE:
                acc = acc * coeff
            if not acc.terms:
                continue
        M = [0] * N2
        for code in w:
            M[code] += 1
        terms[tuple(M)] = acc
    return terms


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
        if k == 0:
            return type(self).one(self.shape)
        out = self
        for _ in range(k - 1):
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
        codes = [shape.cell(i, j) for i, j in word]
        return cls(shape, straighten_word(shape, codes, coeff))

    # -- products ----------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms: dict = {}
        right = [(matrix_codes(M2), c2) for M2, c2 in other.terms.items()]
        for M1, c1 in self.terms.items():
            w1 = matrix_codes(M1)
            for w2, c2 in right:
                c = c1 * c2
                for key, sc in _straighten_cached(self.shape, w1 + w2):
                    _put(terms, key, sc * c)
        return AlgebraElement(self.shape, terms)

    def bar(self) -> "AlgebraElement":
        """Coefficient-wise q -> q^-1, words reversed with the super sign."""
        terms: dict = {}
        for M, c in self.terms.items():
            odd = self.shape.odd_degree(M)
            sign = (-1) ** (odd * (odd - 1) // 2)
            cb = c.bar().scale(sign)
            for key, sc in _straighten_cached(self.shape, matrix_codes(M)[::-1]):
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


# -- normalized monomials and block enumeration ---------------------------


def norm_exponent(shape: Shape, M) -> int:
    """q-exponent of the normalized monomial x(M): minus the sum over each
    index i, signed by (-1)^[i], of the pairs of letters in row i and in
    column i, a line with sum r and entries v holding (r^2 - sum v^2) / 2."""
    N, expo = shape.size, 0
    for i, p in enumerate(shape.parities):
        for line in (M[i * N:(i + 1) * N], M[i::N]):
            expo -= (-1) ** p * (sum(line) ** 2 - sum(v * v for v in line))
    return expo // 2


def x_norm(shape: Shape, M) -> AlgebraElement:
    """The normalized monomial x(M) = q^(norm exponent) x^M."""
    validate_matrix(shape, M)
    return AlgebraElement(shape, {tuple(M): LaurentPoly.q_power(norm_exponent(shape, M))})


def enumerate_block(shape: Shape, ro, co):
    """All exponent matrices with the given row/column sums, lexicographically.

    Odd entries are capped at 1.  The cells are filled in flat row-major
    order, each with its values in increasing order; the last cell of a row
    takes what its row has left, and each cell of the last row what its
    column has left, so every matrix found is complete and the list comes
    out sorted.
    """
    N = shape.size
    ro, co = tuple(ro), tuple(co)
    if len(ro) != N or len(co) != N:
        raise ValueError("row/column sum length mismatch")
    if sum(ro) != sum(co) or any(v < 0 for v in ro + co):
        return []
    odd, rows, cols = shape.odd, list(ro), list(co)
    out, acc = [], []

    def rec(idx):
        if idx == len(odd):
            out.append(tuple(acc))
            return
        i, j = divmod(idx, N)
        top = min(rows[i], cols[j], 1) if odd[idx] else min(rows[i], cols[j])
        if i == N - 1 or j == N - 1:
            left = cols[j] if i == N - 1 else rows[i]
            values = (left,) if left <= top else ()
        else:
            values = range(top + 1)
        for v in values:
            rows[i] -= v
            cols[j] -= v
            acc.append(v)
            rec(idx + 1)
            acc.pop()
            rows[i] += v
            cols[j] += v

    rec(0)
    return out


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
