import pytest
from hypothesis import given, settings, strategies as st

from qsuper.laurent import LaurentPoly, ONE
from qsuper.exactlinalg import (
    FRAC_ONE,
    FRAC_ZERO,
    Frac,
    LinearSolveFailure,
    in_span,
    nullspace,
    rank,
    solve_in_span,
    solve_in_span_laurent,
)


def lp(d):
    return LaurentPoly(d)


laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=4,
).map(LaurentPoly)


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


class TestSolve:
    def test_simple(self):
        cols = [{"u": ONE, "v": lp({2: 1})}, {"v": ONE}]
        target = {"u": lp({1: 1}), "v": LaurentPoly.zero()}
        sol = solve_in_span_laurent(cols, target)
        assert sol[0] == lp({1: 1})
        assert sol[1] == lp({3: -1})

    def test_inconsistent(self):
        cols = [{"u": ONE}]
        assert solve_in_span(cols, {"w": ONE}) is None
        with pytest.raises(LinearSolveFailure):
            solve_in_span_laurent(cols, {"w": ONE})

    def test_dependent_columns(self):
        cols = [{"u": ONE}, {"u": lp({2: 1})}]
        sol = solve_in_span(cols, {"u": lp({2: 1})})
        assert sol is not None
        acc = Frac(LaurentPoly.zero())
        for c, col in zip(sol, cols):
            acc = acc + c * Frac(col["u"])
        assert acc == Frac(lp({2: 1}))

    def test_in_span(self):
        cols = [{"u": ONE, "v": ONE}, {"v": ONE}]
        assert in_span(cols, {"u": lp({5: 2})})
        assert not in_span(cols, {"w": ONE})

    @settings(max_examples=40, deadline=None)
    @given(st.lists(laurents, min_size=2, max_size=2), laurents, laurents)
    def test_solution_reconstructs_target(self, coeffs, p, r):
        cols = [{"u": p, "v": r}, {"u": r, "v": p + ONE}]
        target = {}
        for key in ("u", "v"):
            acc = LaurentPoly.zero()
            for c, col in zip(coeffs, cols):
                acc = acc + c * col.get(key, LaurentPoly.zero())
            target[key] = acc
        sol = solve_in_span(cols, target)
        assert sol is not None
        for key in ("u", "v"):
            acc = Frac(LaurentPoly.zero())
            for c, col in zip(sol, cols):
                acc = acc + c * Frac(col.get(key, LaurentPoly.zero()))
            assert acc == Frac(target[key])


class TestNullspaceRank:
    def test_independent(self):
        cols = [{"u": ONE}, {"v": ONE}]
        assert nullspace(cols) == []
        assert rank(cols) == 2

    def test_dependent(self):
        cols = [{"u": ONE}, {"u": lp({2: 1})}]
        ns = nullspace(cols)
        assert len(ns) == 1
        v = ns[0]
        acc = v[0] * Frac(ONE) + v[1] * Frac(lp({2: 1}))
        assert acc.is_zero()
        assert rank(cols) == 1

    def test_zero_column(self):
        cols = [{"u": ONE}, {}]
        ns = nullspace(cols)
        assert len(ns) == 1
        assert ns[0][1] == Frac(ONE)


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


# units, non-units (2, 1+q^2, q-q^-1, -3q^2) and, most often, no entry
ENTRIES = [
    None, None, None,
    ONE, -ONE, lp({1: 1}), lp({-1: 1}),
    lp({0: 2}), lp({0: 1, 2: 1}), lp({1: 1, -1: -1}), lp({2: -3}),
]


def _combine(vectors, coeffs):
    out = {}
    for vec, c in zip(vectors, coeffs):
        for k, v in vec.items():
            out[k] = out.get(k, LaurentPoly.zero()) + c * v
    return out


@st.composite
def systems(draw):
    """Sparse systems of up to 6 x 6 with zero and dependent columns and
    targets inside or (mostly) outside the span."""
    keys = range(draw(st.integers(1, 6)))
    coeff = st.sampled_from(ENTRIES[3:])

    def random_vector():
        vec = {}
        for k in keys:
            v = draw(st.sampled_from(ENTRIES))
            if v is not None:
                vec[k] = v
        return vec

    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent"]))
        if kind == "zero":
            columns.append({})
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


def _same(xs, ys):
    return len(xs) == len(ys) and all(x == y for x, y in zip(xs, ys))


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_solve_nullspace_rank(self, system):
        columns, target = system
        got, want = solve_in_span(columns, target), dense_solve(columns, target)
        assert (got is None) == (want is None)
        if want is not None:
            assert _same(got, want)
        got_ns, want_ns = nullspace(columns), dense_nullspace(columns)
        assert len(got_ns) == len(want_ns)
        assert all(_same(g, w) for g, w in zip(got_ns, want_ns))
        assert rank(columns) == dense_rank(columns)

    def test_non_unit_pivot(self):
        # the only pivot is 2: the second row is cross-multiplied and left
        # with content 4 and a factor q, which are divided out
        q = lp({1: 1})
        col = {"u": lp({0: 2}), "v": lp({0: 2, 2: 2})}
        assert solve_in_span_laurent([col], {"u": lp({1: 2}), "v": lp({1: 2, 3: 2})}) == [q]
        outside = {"u": lp({1: 2}), "v": lp({1: 4})}
        assert solve_in_span([col], outside) is None
        assert dense_solve([col], outside) is None
        half = {"u": ONE, "v": lp({0: 1, 2: 1})}
        sol = solve_in_span([col], half)
        assert _same(sol, dense_solve([col], half))
        assert sol[0] == Frac(ONE, lp({0: 2}))
        dep = {"u": lp({0: 1, 2: 1}), "v": lp({0: 1, 2: 2, 4: 1})}
        (vec,) = nullspace([col, dep])
        assert _same(vec, dense_nullspace([col, dep])[0])
        assert vec == [Frac(lp({0: -1, 2: -1}), lp({0: 2})), FRAC_ONE]
        assert rank([col, dep]) == 1
