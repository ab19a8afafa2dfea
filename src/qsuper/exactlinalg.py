"""Exact linear algebra over Z[q, q^-1], fraction-free.

Used to cut out invariant subspaces and to check that a family spans a
space.  A system is held sparsely: one row per vector key, each a dict
column -> LaurentPoly, with a column -> rows index so no step scans
every row.  Gauss-Jordan elimination takes the columns left to right and
prefers a unit pivot +-q^k, which eliminates with ring arithmetic; a
non-unit pivot cross-multiplies the rows it clears, which are then
divided by their integer content and lowest power of q (fraction-free
elimination, cf. Bareiss, Math. Comp. 22, 1968).

Coordinates are Laurent polynomials: each is one exact division, a
right-hand side by its pivot, and a coordinate outside Z[q, q^-1] raises
LinearSolveFailure.  The pivot columns are the leftmost independent set,
so the coordinates are those that elimination over the fraction field
gives, whenever those lie in Z[q, q^-1].
"""

from __future__ import annotations

from math import gcd

from qsuper.laurent import LaurentPoly, ONE, ZERO


class LinearSolveFailure(Exception):
    """A vector expected to lie in a span (or in the base ring) does not."""


def _strip_content(row: dict) -> dict:
    """The row divided by its integer content and its lowest power of q."""
    if not row:
        return row
    g = 0
    for v in row.values():
        for c in v.terms.values():
            g = gcd(g, c)
    low = min(v.min_exp() for v in row.values())
    if g == 1 and low == 0:
        return row
    return {
        col: LaurentPoly({e - low: c // g for e, c in v.terms.items()})
        for col, v in row.items()
    }


def _eliminate(columns, target=None):
    """Sparse fraction-free Gauss-Jordan elimination of the system.

    Rows are keyed by the vectors' keys in order of first appearance; each
    is a dict column -> LaurentPoly, the target being column
    ``len(columns)``.  Returns ``(rows, pivots, index)``: the reduced rows,
    a dict pivot column -> row in column order, and the column -> rows
    index.  Rows that hold no pivot are zero in every column of the
    system, so only a target entry can remain in them.
    """
    pos = {}
    rows = []
    vectors = list(columns) if target is None else [*columns, target]
    for c, vec in enumerate(vectors):
        for k, v in vec.items():
            if v.terms:
                r = pos.get(k)
                if r is None:
                    r = pos[k] = len(rows)
                    rows.append({})
                rows[r][c] = v
    index = [set() for _ in vectors]
    for r, row in enumerate(rows):
        for c in row:
            index[c].add(r)

    pivots = {}
    used = [False] * len(rows)
    for c in range(len(columns)):
        cands = [r for r in index[c] if not used[r]]
        if not cands:
            continue
        p = min(cands, key=lambda r: (not rows[r][c].is_unit(), len(rows[r]), r))
        used[p] = True
        pivots[c] = p
        prow = rows[p]
        a = prow[c]
        if a.is_unit():
            if not a.is_one():
                ((k, s),) = a.terms.items()
                for cc, v in prow.items():
                    prow[cc] = v.shift(-k).scale(s)
            a = None
        for r in [r for r in index[c] if r != p]:
            row = rows[r]
            f = row[c]
            if a is not None:
                row = {cc: a * v for cc, v in row.items()}
            for cc, v in prow.items():
                old = row.get(cc)
                new = -(f * v) if old is None else old - f * v
                if new.terms:
                    row[cc] = new
                    if old is None:
                        index[cc].add(r)
                else:
                    del row[cc]
                    index[cc].discard(r)
            rows[r] = row if a is None else _strip_content(row)
    return rows, pivots, index


def _quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den, which must lie in Z[q, q^-1]."""
    if den.is_one():
        return num
    try:
        return num.divexact(den)
    except ValueError:
        raise LinearSolveFailure(
            f"coordinate ({num}) / ({den}) is not a Laurent polynomial"
        )


def solve_in_span(columns, target):
    """Coefficients c with sum(c_i * columns_i) = target, or None.

    ``columns`` is a list of sparse vectors (dict key -> LaurentPoly),
    ``target`` one such vector.  Free coordinates are set to zero.  The
    coefficients are Laurent polynomials; LinearSolveFailure is raised
    when the target lies in the span only over the fraction field.
    """
    if not columns:
        return [] if all(v.is_zero() for v in target.values()) else None
    n = len(columns)
    rows, pivots, _ = _eliminate(columns, target)
    pivot_rows = set(pivots.values())
    if any(row for r, row in enumerate(rows) if r not in pivot_rows):
        return None
    out = [ZERO] * n
    for c, r in pivots.items():
        rhs = rows[r].get(n)
        if rhs is not None:
            out[c] = _quotient(rhs, rows[r][c])
    return out


def nullspace(columns):
    """Basis of {c : sum(c_i * columns_i) = 0}, one vector per free column.

    Vectors are lists of Laurent polynomials with the free coordinate 1;
    LinearSolveFailure is raised when a pivot coordinate is not Laurent.
    """
    if not columns:
        return []
    rows, pivots, index = _eliminate(columns)
    pivot_of = {r: c for c, r in pivots.items()}
    basis = []
    for c in range(len(columns)):
        if c in pivots:
            continue
        vec = [ZERO] * len(columns)
        vec[c] = ONE
        for r in index[c]:
            pc = pivot_of[r]
            vec[pc] = _quotient(-rows[r][c], rows[r][pc])
        basis.append(vec)
    return basis
