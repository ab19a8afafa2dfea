from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qsuper.laurent import LaurentPoly, ONE
from qsuper import exactlinalg
from qsuper.exactlinalg import (
    LinearSolveFailure,
    _eliminate,
    _kernel_vector,
    nullspace,
    solve_in_span,
)


def lp(d):
    return LaurentPoly(d)


laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=4,
).map(LaurentPoly)

ZERO = LaurentPoly.zero()
Q = lp({1: 1})


def _combine(vectors, coeffs):
    out = {}
    for vec, c in zip(vectors, coeffs):
        for k, v in vec.items():
            out[k] = out.get(k, ZERO) + c * v
    return out


def _nonzero(vec):
    return {k: v for k, v in vec.items() if not v.is_zero()}


def _dense(vec, n):
    """A sparse kernel vector {column: coordinate} as a list of n."""
    return [vec.get(c, ZERO) for c in range(n)]


def all_columns_nullspace(columns):
    """nullspace before it set empty and isolated columns aside, kept as
    its reference: every column is eliminated, and each free column gives
    its kernel vector."""
    system = _eliminate(columns)
    pivot_cols = set(system[1].values())
    return [_kernel_vector(system, c) for c in range(len(columns)) if c not in pivot_cols]


def _items(vectors):
    """Kernel vectors as lists of (column, coordinate), so key order counts."""
    return [list(vec.items()) for vec in vectors]


class TestSolve:
    def test_simple(self):
        cols = [{"u": ONE, "v": lp({2: 1})}, {"v": ONE}]
        target = {"u": lp({1: 1}), "v": LaurentPoly.zero()}
        sol = solve_in_span(cols, target)
        assert sol[0] == lp({1: 1})
        assert sol[1] == lp({3: -1})

    def test_inconsistent(self):
        cols = [{"u": ONE}]
        assert solve_in_span(cols, {"w": ONE}) is None

    def test_non_laurent_coordinate_raises(self):
        # 1 = (1/2) * 2 lies in the span only over the fraction field
        with pytest.raises(LinearSolveFailure):
            solve_in_span([{"u": lp({0: 2})}], {"u": ONE})

    def test_dependent_columns(self):
        cols = [{"u": ONE}, {"u": lp({2: 1})}]
        sol = solve_in_span(cols, {"u": lp({2: 1})})
        assert sol is not None
        assert _nonzero(_combine(cols, sol)) == {"u": lp({2: 1})}

    def test_in_span(self):
        cols = [{"u": ONE, "v": ONE}, {"v": ONE}]
        assert solve_in_span(cols, {"u": lp({5: 2})}) is not None
        assert solve_in_span(cols, {"w": ONE}) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(laurents, min_size=2, max_size=2), laurents, laurents)
    def test_solution_reconstructs_target(self, coeffs, p, r):
        cols = [{"u": p, "v": r}, {"u": r, "v": p + ONE}]
        target = _combine(cols, coeffs)
        sol = solve_in_span(cols, target)
        assert sol is not None
        assert _nonzero(_combine(cols, sol)) == _nonzero(target)


class TestNullspaceRank:
    def test_independent(self):
        cols = [{"u": ONE}, {"v": ONE}]
        assert nullspace(cols) == []

    def test_dependent(self):
        cols = [{"u": ONE}, {"u": lp({2: 1})}]
        ns = nullspace(cols)
        assert len(ns) == 1
        assert not _nonzero(_combine(cols, _dense(ns[0], 2)))

    def test_zero_column(self):
        cols = [{"u": ONE}, {}]
        ns = nullspace(cols)
        assert len(ns) == 1
        assert ns[0][1] == ONE


# -- the reference's field: fractions of Laurent polynomials -------------------


def _content(p: LaurentPoly) -> int:
    g = 0
    for c in p.terms.values():
        g = gcd(g, abs(c))
    return g or 1


class Frac:
    """num/den with Laurent polynomial parts; den never zero.

    Normalization strips the common monomial and integer content and
    cancels den into num when the division happens to be exact.  There is
    no polynomial gcd, so equal fractions may differ in representation;
    hence no hash agrees with ``==`` and Frac is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = LaurentPoly.zero(), ONE
        elif not den.is_one():
            try:
                num = num.divexact(den)
                den = ONE
            except ValueError:
                shift = den.min_exp()
                den = den.shift(-shift)
                num = num.shift(-shift)
                g = gcd(_content(num), _content(den))
                if den.terms[den.max_exp()] < 0:
                    g = -g
                if g != 1:
                    num = LaurentPoly({e: c // g for e, c in num.terms.items()})
                    den = LaurentPoly({e: c // g for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, n: int) -> "Frac":
        return cls(LaurentPoly.from_int(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Frac") -> "Frac":
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Frac":
        return Frac(-self.num, self.den)

    def __sub__(self, other: "Frac") -> "Frac":
        return self + (-other)

    def __mul__(self, other: "Frac") -> "Frac":
        return Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Frac") -> "Frac":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return Frac(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, Frac) and self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self):
        return f"Frac({self.num}, {self.den})"

    def to_laurent(self) -> LaurentPoly:
        if self.den.is_one():
            return self.num
        try:
            return self.num.divexact(self.den)
        except ValueError:
            raise LinearSolveFailure(f"coefficient {self!r} is not a Laurent polynomial")


FRAC_ZERO = Frac(LaurentPoly.zero())
FRAC_ONE = Frac(ONE)


class TestFrac:
    def test_exact_cancel(self):
        f = Frac(lp({4: 1, 0: -1}), lp({2: 1, 0: -1}))
        assert f.den.is_one()
        assert f.num == lp({2: 1, 0: 1})

    def test_arith(self):
        half = Frac(ONE, lp({0: 2}))
        assert half + half == Frac(ONE)
        assert (half * Frac.from_int(2)).to_laurent() == ONE

    def test_nonexact_to_laurent_raises(self):
        f = Frac(ONE, lp({0: 2}))
        with pytest.raises(LinearSolveFailure):
            f.to_laurent()

    def test_unhashable(self):
        # equal fractions need not share a representation, so no hash can
        # agree with ==
        a = Frac(ONE, lp({0: 1, 2: 1}))
        b = Frac(lp({2: 1, 0: -1}), lp({4: 1, 0: -1}))
        assert a == b
        with pytest.raises(TypeError):
            hash(a)

    @settings(max_examples=50, deadline=None)
    @given(laurents, laurents)
    def test_roundtrip_product(self, a, b):
        if b.is_zero():
            return
        f = Frac(a * b, b)
        assert f.to_laurent() == a


# -- reference: dense Gauss-Jordan over the fraction field ---------------------


def _dense_assemble(columns, target=None):
    """Row-index the sparse columns; rows sorted for determinism."""
    keys = set()
    for col in columns:
        keys.update(col)
    if target is not None:
        keys.update(target)
    keys = sorted(keys)
    pos = {k: r for r, k in enumerate(keys)}
    rows = [[FRAC_ZERO] * len(columns) for _ in keys]
    for c, col in enumerate(columns):
        for k, v in col.items():
            if not v.is_zero():
                rows[pos[k]][c] = Frac(v)
    rhs = None
    if target is not None:
        rhs = [FRAC_ZERO] * len(keys)
        for k, v in target.items():
            if not v.is_zero():
                rhs[pos[k]] = Frac(v)
    return rows, rhs


def _dense_eliminate(rows, rhs=None):
    """In-place Gaussian elimination; returns list of (row, pivot col)."""
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for rr in range(r, len(rows)):
            if not rows[rr][c].is_zero():
                sel = rr
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        if rhs is not None:
            rhs[r], rhs[sel] = rhs[sel], rhs[r]
        piv = rows[r][c]
        for rr in range(len(rows)):
            if rr == r or rows[rr][c].is_zero():
                continue
            f = rows[rr][c] / piv
            for cc in range(c, ncols):
                if not rows[r][cc].is_zero():
                    rows[rr][cc] = rows[rr][cc] - f * rows[r][cc]
            if rhs is not None:
                rhs[rr] = rhs[rr] - f * rhs[r]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_solve(columns, target):
    if not columns:
        return [] if all(v.is_zero() for v in target.values()) else None
    rows, rhs = _dense_assemble(columns, target)
    pivots = _dense_eliminate(rows, rhs)
    pivot_rows = {r for r, _ in pivots}
    for r in range(len(rows)):
        if r not in pivot_rows and not rhs[r].is_zero():
            return None
    out = [FRAC_ZERO] * len(columns)
    for r, c in pivots:
        out[c] = rhs[r] / rows[r][c]
    return out


def dense_nullspace(columns):
    if not columns:
        return []
    rows, _ = _dense_assemble(columns)
    pivot_cols = {c: r for r, c in _dense_eliminate(rows)}
    basis = []
    for c in range(len(columns)):
        if c in pivot_cols:
            continue
        vec = [FRAC_ZERO] * len(columns)
        vec[c] = FRAC_ONE
        for pc, pr in pivot_cols.items():
            if not rows[pr][c].is_zero():
                vec[pc] = -(rows[pr][c] / rows[pr][pc])
        basis.append(vec)
    return basis


def dense_rank(columns):
    if not columns:
        return 0
    rows, _ = _dense_assemble(columns)
    return len(_dense_eliminate(rows))


# units, non-units (2, 1+q^2, q-q^-1, -3q^2), an explicit zero and, most
# often, no entry
ENTRIES = [
    None, None, None, ZERO,
    ONE, -ONE, lp({1: 1}), lp({-1: 1}),
    lp({0: 2}), lp({0: 1, 2: 1}), lp({1: 1, -1: -1}), lp({2: -3}),
]


@st.composite
def systems(draw):
    """Sparse systems of up to 6 x 6 with zero, dependent and isolated
    columns (whose rows no other column uses) and targets inside or
    (mostly) outside the span."""
    keys = range(draw(st.integers(1, 6)))
    coeff = st.sampled_from(ENTRIES[4:])

    def random_vector(keys=keys):
        vec = {}
        for k in keys:
            v = draw(st.sampled_from(ENTRIES))
            if v is not None:
                vec[k] = v
        return vec

    columns = []
    for c in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent", "isolated"]))
        if kind == "zero":
            columns.append({})
        elif kind == "isolated":
            columns.append(random_vector(range(10 * c + 10, 10 * c + 10 + len(keys))))
        elif kind == "dependent" and columns:
            picked = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2))
            columns.append(_combine(picked, [draw(coeff) for _ in picked]))
        else:
            columns.append(random_vector())
    kind = draw(st.sampled_from(["random", "inside", "zero"]))
    if kind == "inside":
        target = _combine(columns, [draw(coeff) for _ in columns])
    elif kind == "zero":
        target = {}
    else:
        target = random_vector()
    return columns, target


def _laurent(vectors):
    """The reference's Frac vectors as Laurent vectors; LinearSolveFailure
    if any coordinate is not a Laurent polynomial."""
    return [[f.to_laurent() for f in vec] for vec in vectors]


def _agrees(got, want):
    """``got()`` returns the Laurent form of the reference vectors ``want``,
    or raises LinearSolveFailure exactly when that form does not exist."""
    try:
        expected = _laurent(want)
    except LinearSolveFailure:
        with pytest.raises(LinearSolveFailure):
            got()
        return None
    result = got()
    assert result == expected
    return result


def assert_laurent_multiples(vectors, want):
    """Each dense Laurent kernel vector is its reference vector times the
    vector's own nonzero coordinate at the free column (where the reference
    holds 1, its last nonzero coordinate), and that coordinate is 1
    whenever the reference vector is Laurent."""
    assert len(vectors) == len(want)
    for got, ref in zip(vectors, want):
        c = max(k for k, f in enumerate(ref) if not f.is_zero())
        assert not got[c].is_zero()
        assert [Frac(v) for v in got] == [f * Frac(got[c]) for f in ref]
        try:
            laurent = [f.to_laurent() for f in ref]
        except LinearSolveFailure:
            continue
        assert got == laurent


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_solve_nullspace_rank(self, system):
        columns, target = system
        want = dense_solve(columns, target)
        if want is None:
            assert solve_in_span(columns, target) is None
        else:
            _agrees(lambda: [solve_in_span(columns, target)], [want])
        got_ns = [_dense(v, len(columns)) for v in nullspace(columns)]
        assert_laurent_multiples(got_ns, dense_nullspace(columns))
        assert len(columns) - len(got_ns) == dense_rank(columns)

    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_kernel_vectors_hold_free_and_pivot_columns(self, system):
        columns = system[0]
        pivots = {c for _, c in _dense_eliminate(_dense_assemble(columns)[0])}
        free = [c for c in range(len(columns)) if c not in pivots]
        vectors = nullspace(columns)
        assert len(vectors) == len(free)
        for c, vec in zip(free, vectors):
            assert not vec[c].is_zero()
            assert set(vec) <= pivots | {c}
            assert list(vec) == sorted(vec)
            assert all(not v.is_zero() for v in vec.values())

    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_nullspace_matches_all_columns_elimination(self, system):
        columns = system[0]
        assert _items(nullspace(columns)) == _items(all_columns_nullspace(columns))

    def test_non_unit_pivot(self):
        # the only pivot is 2: the second row is cross-multiplied and left
        # with content 4 and a factor q, which are divided out
        col = {"u": lp({0: 2}), "v": lp({0: 2, 2: 2})}
        assert solve_in_span([col], {"u": lp({1: 2}), "v": lp({1: 2, 3: 2})}) == [Q]
        outside = {"u": lp({1: 2}), "v": lp({1: 4})}
        assert solve_in_span([col], outside) is None
        assert dense_solve([col], outside) is None
        # 1/2 is a field coordinate only
        half = {"u": ONE, "v": lp({0: 1, 2: 1})}
        assert dense_solve([col], half)[0] == Frac(ONE, lp({0: 2}))
        with pytest.raises(LinearSolveFailure):
            solve_in_span([col], half)
        dep = {"u": lp({0: 1, 2: 1}), "v": lp({0: 1, 2: 2, 4: 1})}
        assert dense_nullspace([col, dep]) == [[Frac(lp({0: -1, 2: -1}), lp({0: 2})), FRAC_ONE]]
        # the kernel vector scaled by that pivot
        assert [_dense(v, 2) for v in nullspace([col, dep])] == [[lp({0: -1, 2: -1}), lp({0: 2})]]
        # through the same non-unit pivot, a Laurent kernel vector
        ns = nullspace([col, {k: Q * v for k, v in col.items()}])
        assert [_dense(v, 2) for v in ns] == [[-Q, ONE]]


K2 = lp({2: 1, 0: -1})  # q^2 - 1, a K generator's (g - eps(g)) on its key


class TestColumnsSetAside:
    """nullspace eliminates only the columns that share a row."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        calls = []

        def record(columns):
            calls.append(list(columns))
            return _eliminate(columns)

        monkeypatch.setattr(exactlinalg, "_eliminate", record)
        return calls

    @pytest.mark.parametrize("columns,want", [
        # an empty column is free by itself
        ([{"u": ONE}, {}], [{1: ONE}]),
        # an isolated column is a pivot no kernel vector reaches
        ([{"u": ONE}, {"w": Q}, {"u": Q}], [{0: -Q, 2: ONE}]),
        # a column of zeros counts as empty
        ([{"u": ZERO}, {"v": ONE}], [{0: ONE}]),
        # a K-style diagonal entry sits on a row of its own
        ([{("K", 0): K2}, {"u": ONE}, {"u": Q}], [{1: -Q, 2: ONE}]),
        # a linked pair through the non-unit pivot 2
        ([{"u": lp({0: 2})}, {"u": lp({1: 2})}], [{0: -Q, 1: ONE}]),
        # a pivot that does not divide scales the vector by itself, whose
        # integer content, then lowest power of q, are divided out
        ([{"u": lp({0: 4})}, {"u": lp({0: 2, 2: 2})}], [{0: lp({0: -1, 2: -1}), 1: lp({0: 2})}]),
        ([{"u": lp({2: 2})}, {"u": lp({3: 1, 5: 1})}], [{0: lp({1: -1, 3: -1}), 1: lp({0: 2})}]),
    ], ids=["empty", "isolated", "zeros", "k-diagonal", "non-unit-pair", "scaled-content",
            "scaled-q-power"])
    def test_deterministic_cases(self, columns, want):
        assert _items(nullspace(columns)) == _items(want)
        assert _items(all_columns_nullspace(columns)) == _items(want)

    def test_no_shared_row_eliminates_no_column(self, eliminated):
        columns = [{"u": ONE}, {}, {"v": Q, "w": K2}, {"x": ZERO}, {("K", 4): K2}]
        assert _items(nullspace(columns)) == _items([{1: ONE}, {3: ONE}])
        assert all(cols == [] for cols in eliminated)

    def test_only_linked_columns_are_eliminated(self, eliminated):
        columns = [{"u": ONE}, {"v": ONE, "w": Q}, {"w": ONE}, {}, {"u": Q}]
        assert _items(nullspace(columns)) == _items([{3: ONE}, {0: -Q, 4: ONE}])
        assert eliminated == [[columns[0], columns[1], columns[2], columns[4]]]
