"""Exact linear algebra over Z[q, q^-1], fraction-free.

Used to cut out invariant subspaces.  A system is held sparsely: one row
per vector key, each a dict column -> LaurentPoly, with a column -> rows
index so no step scans every row.  Gauss-Jordan elimination takes the
columns left to right and prefers a unit pivot +-q^k, which eliminates
with ring arithmetic; a non-unit pivot cross-multiplies the rows it
clears, which are then divided by their integer content and lowest power
of q (fraction-free elimination, cf. Bareiss, Math. Comp. 22, 1968).

Each free column gives one sparse kernel vector with Laurent coordinates,
so a nullspace always has a Laurent basis.  A pivot coordinate is a
free-column entry divided by its row's pivot: where the division is
exact, it is the coordinate over the fraction field (the pivot columns
are the leftmost independent set), and 1 stays at the free column; where
it is not, the vector is multiplied by that pivot and finally divided by
its integer content and lowest power of q (fraction-free back
substitution).  A target lies in a span when it is a free column after
the span's columns, and solve_in_span raises LinearSolveFailure when the
target's vector had to be scaled: its coordinates lie in the fraction
field only.

A nullspace eliminates only the columns that share a row with another.
An empty column is free, and its vector is 1 at itself.  A column whose
rows no other column uses is independent of the rest, so it is a pivot,
and no kernel vector reaches it: its rows would hold its coordinate
alone.  Setting both aside changes neither the other columns' pivots nor
their vectors, and most columns of an invariant window are one or the
other.
"""

from __future__ import annotations

from collections import Counter
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


def _eliminate(columns):
    """Sparse fraction-free Gauss-Jordan elimination of the system.

    Rows are keyed by the vectors' keys in order of first appearance; each
    is a dict column -> LaurentPoly.  Returns ``(rows, pivot_of, index)``:
    the reduced rows, a dict pivot row -> its column, and the column ->
    rows index.  Rows that hold no pivot are zero, so a free column has
    entries in pivot rows only.
    """
    pos = {}
    rows = []
    for c, vec in enumerate(columns):
        for k, v in vec.items():
            if v.terms:
                r = pos.get(k)
                if r is None:
                    r = pos[k] = len(rows)
                    rows.append({})
                rows[r][c] = v
    index = [set() for _ in columns]
    for r, row in enumerate(rows):
        for c in row:
            index[c].add(r)

    pivot_of = {}
    for c in range(len(columns)):
        cands = [r for r in index[c] if r not in pivot_of]
        if not cands:
            continue
        p = min(cands, key=lambda r: (not rows[r][c].is_unit(), len(rows[r]), r))
        pivot_of[p] = c
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
    return rows, pivot_of, index


def _kernel_vector(system, c):
    """The kernel vector of the free column c, {column: coordinate} in
    column order: c and the pivot columns of c's rows.  Its coordinate at c
    is 1 when every pivot divides its row's entry at c.  Otherwise, taking
    the rows in order, the vector built so far is multiplied by each pivot
    that does not divide, and the result is divided by its integer content
    and lowest power of q; its coordinate at c is then not a unit."""
    rows, pivot_of, index = system
    vec = {c: ONE}
    for r in sorted(index[c]):
        pc = pivot_of[r]
        num, den = -rows[r][c], rows[r][pc]
        if not vec[c].is_one():
            num = vec[c] * num
        try:
            vec[pc] = num if den.is_one() else num.divexact(den)
        except ValueError:
            vec = {k: den * v for k, v in vec.items()}
            vec[pc] = num
    if not vec[c].is_one():
        vec = _strip_content(vec)
    return dict(sorted(vec.items()))


def solve_in_span(columns, target):
    """Coefficients c with sum(c_i * columns_i) = target, or None.

    ``columns`` is a list of sparse vectors (dict key -> LaurentPoly),
    ``target`` one such vector.  Free coordinates are set to zero.  The
    coefficients are Laurent polynomials; LinearSolveFailure is raised
    when the target lies in the span only over the fraction field.
    """
    n = len(columns)
    system = _eliminate([*columns, target])
    if n in system[1].values():  # the target is a pivot: outside the span
        return None
    vec = _kernel_vector(system, n)
    if not vec[n].is_one():
        raise LinearSolveFailure("the target lies in the span only over the fraction field")
    return [-vec.get(k, ZERO) for k in range(n)]


def nullspace(columns):
    """Basis of {c : sum(c_i * columns_i) = 0}, one vector per free column.

    Vectors are sparse, {column: coordinate}: the free column, the pivot
    coordinates it reaches, no zeros.  Every coordinate is a Laurent
    polynomial: the free coordinate is 1 when the field's coordinates are
    Laurent, and otherwise the vector is their multiple by the pivots
    that did not divide, with its content and lowest q-power divided out.
    Only the columns that share a row with another column are
    eliminated: an empty column is free with the vector {c: 1}, and a
    column whose rows no other column uses is a pivot that no kernel
    vector reaches.
    """
    uses = Counter(k for vec in columns for k, v in vec.items() if v.terms)
    out, linked = {}, []
    for c, vec in enumerate(columns):
        counts = [uses[k] for k, v in vec.items() if v.terms]
        if not counts:
            out[c] = {c: ONE}
        elif max(counts) > 1:
            linked.append(c)
    system = _eliminate([columns[c] for c in linked])
    pivot_cols = set(system[1].values())
    for j, c in enumerate(linked):
        if j not in pivot_cols:
            out[c] = {linked[jj]: v for jj, v in _kernel_vector(system, j).items()}
    return [out[c] for c in sorted(out)]
