"""Seeded input generation for the qsuper benchmark (stdlib only).

Inputs are plain data: a shape is ``(m, n)``, an exponent matrix is a flat
row-major tuple of ints, a coefficient is a dict ``exponent -> int`` and an
element is a dict ``matrix -> coefficient``.  The worker turns them into
kernel objects with ``AlgebraElement(shape, terms)`` and
``LocalElement(shape, terms)`` only, so generating inputs straightens nothing.

Every op is a dict with an ``id``, a ``kind`` and the data that kind needs.
A session is the ordered op list one fresh worker process runs; it depends
only on (workload, seed, session index).
"""

import functools
import random

WORKLOADS = ("poly", "localize", "canonical")

POLY_SHAPES = ((2, 2), (3, 1), (3, 2))
LOCAL_SHAPES = ((2, 1), (1, 2), (2, 2))
CANON_SHAPES = ((2, 1), (1, 2), (2, 2), (3, 1))

# Repetitions of the op slots (below) per session.  A session is one
# cold-cache library session; several run back to back in one timed run, so
# each run averages over many inputs.
SESSION_REPS = {"poly": 25, "localize": 4, "canonical": 1}

# The (1|2) block with the known TriangularityViolation indices.
KNOWN_FAILING_BLOCK = ((1, 2), (1, 2, 1), (1, 1, 2))

# "Did not finish" rungs: each runs alone in its own process under its budget.
FRONTIER = {
    "poly": (),
    "localize": ("to_mixed_deg3_22",),
    "canonical": ("cb_first_1111_22", "cb_first_1111_31"),
}
FRONTIER_BUDGET_S = 2.0
# Any other op that runs longer is stopped and counted as failed (timeout),
# so that one pathological input cannot take over a run.
OP_BUDGET_S = 10.0

VARIANTS = ("PLUS_Q", "MINUS_Q")


def session_rng(workload, seed, session):
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"qbench/{workload}/{seed}/{session}")


def is_odd(m, i, j):
    """Parity of generator x_{i+1, j+1} (0-based indices)."""
    return (i < m) != (j < m)


def monomial(rng, shape, degree, max_lower=None, upper_rows=False):
    """Random monomial with at most ``max_lower`` letters of the lower-right
    (D) block and, with ``upper_rows``, letters of rows 1..m only.

    Products and reductions of two D-block letters run for up to seconds, so
    the workloads cap that count and keep the wall to the frontier rungs.
    """
    m, n = shape
    N = m + n
    M = [0] * (N * N)
    k = lower = 0
    while k < degree:
        i, j = rng.randrange(m if upper_rows else N), rng.randrange(N)
        if is_odd(m, i, j) and M[i * N + j]:
            continue  # odd generators square to zero
        in_d = i >= m and j >= m
        if in_d and max_lower is not None and lower >= max_lower:
            continue
        M[i * N + j] += 1
        k += 1
        lower += in_d
    return tuple(M)


def is_constrained(shape, M):
    """A zero diagonal entry in each even diagonal block (as in glq)."""
    m, n = shape
    N = m + n
    diag = [M[i * N + i] for i in range(N)]
    return 0 in diag[:m] and 0 in diag[m:]


def d_degree(shape, M):
    """Number of D-block (lower-right) letters in M."""
    m, n = shape
    N = m + n
    return sum(M[i * N + j] for i in range(m, N) for j in range(m, N))


def constrained_monomial(rng, shape, degree, max_lower=None, upper_rows=False):
    while True:
        M = monomial(rng, shape, degree, max_lower, upper_rows)
        if is_constrained(shape, M):
            return M


def coefficient(rng):
    out = {}
    for _ in range(rng.randint(1, 2)):
        out[rng.randint(-2, 2)] = rng.choice((-2, -1, 1, 2))
    return out


def element(rng, shape, degrees, nterms, max_lower=None):
    """Sum of up to ``nterms`` monomials, degrees drawn from ``degrees``."""
    terms = {}
    for _ in range(nterms):
        terms[monomial(rng, shape, rng.choice(degrees), max_lower)] = coefficient(rng)
    return terms


def local_element(rng, shape, degrees, nterms, a_range, d_range, max_lower=1):
    """Plain data for a LocalElement: (M, a, d) -> coefficient, M constrained.

    All terms share one det sector (a, d): clearing the powers of a sum that
    spans sectors multiplies its terms by det powers, up to degree-3 and
    higher reductions.  With ``max_lower=0`` no y-letter appears, so with
    a, d >= 0 the element is polynomial (x^M detA^a).
    """
    a, d = rng.randint(*a_range), rng.randint(*d_range)
    terms = {}
    for _ in range(nterms):
        M = constrained_monomial(rng, shape, rng.choice(degrees), max_lower)
        terms[(M, a, d)] = coefficient(rng)
    return terms


def block_matrices(shape, ro, co):
    """All exponent matrices with row sums ro and column sums co, sorted."""
    m, n = shape
    N = m + n
    out = []

    def fill(cell, M, rows, cols):
        if cell == N * N:
            if not any(rows) and not any(cols):
                out.append(tuple(M))
            return
        i, j = divmod(cell, N)
        top = min(rows[i], cols[j], 1 if is_odd(m, i, j) else rows[i])
        for v in range(top + 1):
            if j == N - 1 and rows[i] - v:
                continue  # the row must be complete at its last column
            M[cell] = v
            rows[i] -= v
            cols[j] -= v
            fill(cell + 1, M, rows, cols)
            rows[i] += v
            cols[j] += v
        M[cell] = 0

    fill(0, [0] * (N * N), list(ro), list(co))
    return sorted(out)


def _gens(rng, shape):
    """A random Chevalley generator E_i, F_i (i < N) or K_i (i <= N)."""
    N = sum(shape)
    kind = rng.choice(("E", "F", "K"))
    return (kind, rng.randint(1, N if kind == "K" else N - 1))


def _index_set(rng, shape, size):
    return tuple(sorted(rng.sample(range(1, sum(shape) + 1), size)))


# -- the three workloads ------------------------------------------------------
#
# A session is a fixed composition of op slots, (kind, shape, ...) tuples,
# repeated SESSION_REPS times and shuffled by the seed; only the monomials,
# coefficients and small choices inside each slot are random.  Every session
# therefore has the same mix, which keeps runs of different seeds comparable.


def poly_op(rng, kind, shape):
    op = {"kind": kind, "shape": shape}
    if kind in ("mul", "bar", "act"):
        op["a"] = element(rng, shape, (2, 3, 4), rng.randint(1, 3))
    if kind == "mul":
        op["b"] = element(rng, shape, (2, 3), rng.randint(1, 3))
    elif kind == "act":
        op["side"] = rng.choice(("L", "R"))
        op["gen"] = _gens(rng, shape)
        op["other"] = _gens(rng, shape)  # the commuting check acts with it
    elif kind in ("minor_mul", "minor_pow"):
        op["star"] = kind == "minor_mul" and rng.random() < 0.5
        op["rows"] = _index_set(rng, shape, 2)
        op["cols"] = _index_set(rng, shape, 2)
        if kind == "minor_mul":
            op["a"] = element(rng, shape, (1, 2), rng.randint(1, 2))
        else:
            op["k"] = rng.randint(2, 3)
    elif kind == "det_mul":
        op["which"] = rng.choice(("A", "D"))
        op["a"] = element(rng, shape, (1, 2), rng.randint(1, 2))
    return op


POLY_SLOTS = [
    (kind, shape)
    for shape in POLY_SHAPES
    for kind in ("mul", "mul", "act", "act", "bar", "minor_mul", "minor_pow", "det_mul")
]

INVARIANT_WINDOWS = (((-1, 0), (0, 0)), ((0, 0), (-1, 0)), ((-1, 0), (0, 1)), ((-1, 1), (-1, 0)))


def local_op(rng, kind, shape, window=None):
    op = {"kind": kind, "shape": shape}
    if kind == "invariants":
        N = sum(shape)
        op["left"] = tuple(("E", i) for i in range(1, N))
        op["right"] = () if rng.random() < 0.5 else (("F", rng.randint(1, N - 1)),)
        op["max_degree"] = 2
        op["a_range"], op["d_range"] = window
        return op
    big = shape == (2, 2)  # degree-3 reductions at (2|2) are the frontier
    if kind == "to_mixed":
        op["a"] = element(rng, shape, (1, 2), rng.randint(1, 2), max_lower=1)
    elif kind == "from_mixed":
        op["f"] = local_element(rng, shape, (1, 2), rng.randint(1, 2), (0, 1), (0, 0), 0)
    elif kind == "bar_local":
        if big:  # positive det powers clear to degree-3 reductions
            op["f"] = local_element(rng, shape, (1,), rng.randint(1, 2), (-1, 0), (-1, 0))
        else:  # so do degree-2 elements with a positive detD' power
            op["f"] = local_element(rng, shape, (1, 2), 1, (-1, 1), (-1, 0))
    elif kind == "mixed_product":
        # degree-1 factors, at most one of them in the D block
        a = monomial(rng, shape, 1, max_lower=0 if big else 1)
        b = monomial(rng, shape, 1, max_lower=0 if big or d_degree(shape, a) else 1)
        op["a"], op["b"] = {a: coefficient(rng)}, {b: {0: 1}}
    elif kind == "det_product":
        op["f"] = local_element(rng, shape, (1,) if big else (1, 2), rng.randint(1, 2),
                                (-1, 1), (-1, 1))
        op["g"] = rng.choice((("A", 1), ("A", -1), ("A", 2), ("D", 1), ("D", -1), ("Ber", 1),
                              ("Ber", -1)))
    return op


# One op in four is an invariant window, the slowest kind, so that the 90th
# percentile falls inside their latency range rather than at its edge.  Their
# cost depends mostly on the det window (up to 5x), so each window has a slot.
LOCAL_SLOTS = [
    (kind, shape)
    for shape in LOCAL_SHAPES
    for kind in ("to_mixed", "to_mixed", "bar_local", "bar_local", "det_product",
                 "det_product", "mixed_product", "from_mixed")
] + [("invariants", shape, w) for shape in ((2, 1), (1, 2)) for w in INVARIANT_WINDOWS]

NEG_SECTORS = ((-1, 1), (0, -1), (1, -1), (-1, 0))


def canon_degrees(shape, sector):
    """Index degrees of a slot's two copies: fixed, not drawn, so that every
    session has the same mix of degrees."""
    if shape in ((2, 1), (1, 2)):
        # degree-3 indices, and degree-2 ones in sector (-1, 1), take seconds
        return (1, 1) if sector == (-1, 1) else (1, 2)
    # so do degree-2 indices at (2|2) and (3|1) outside sector (0, 0), and
    # in it those with a letter below row m
    return (1, 2) if sector == (0, 0) else (1, 1)


def canon_op(rng, kind, shape, variant, sector=None, degree=None, seen=None):
    if kind == "span_check":
        a_range = rng.choice(((0, 0), (-1, 0)))
        return {"kind": kind, "shape": shape,
                "left": rng.choice(((("E", 1),), (("E", 2),), (("E", 1), ("E", 2)))),
                "max_degree": 1 if a_range != (0, 0) else rng.randint(1, 2),
                "a_range": a_range, "variant": variant}
    upper_rows = degree == 2 and shape not in ((2, 1), (1, 2))
    # A repeated index is an lru_cache hit; draw another while one is left.
    for _ in range(50):
        M = constrained_monomial(rng, shape, degree, upper_rows=upper_rows)
        if (shape, M, sector, variant) not in seen:
            break
    seen.add((shape, M, sector, variant))
    return {"kind": kind, "shape": shape, "M": M,
            "a": sector[0], "d": sector[1], "variant": variant}


# (-1, 1) indices at (2|2) and (3|1) already take seconds at degree 1.  At
# (2|1) and (1|2) they are the slowest kind with the span checks; together
# about one op in five, so that the 90th percentile falls inside their range.
CANON_SLOTS = [
    ("omega", shape, variant, sector, degree)
    for shape in CANON_SHAPES
    for sector in ((0, 0), (0, 0)) + (
        NEG_SECTORS + NEG_SECTORS[:1] if shape in ((2, 1), (1, 2)) else NEG_SECTORS[1:]
    )
    for variant in VARIANTS
    for degree in canon_degrees(shape, sector)
] + [("span_check", (2, 1), variant) for variant in VARIANTS for _ in range(4)]

WORKLOAD_SLOTS = {
    "poly": (POLY_SLOTS, poly_op),
    "localize": (LOCAL_SLOTS, local_op),
    "canonical": (CANON_SLOTS, canon_op),
}


def known_failing_ops():
    """Every constrained index of the (1|2) block, both variants."""
    shape, ro, co = KNOWN_FAILING_BLOCK
    return [
        {"kind": "omega", "shape": shape, "M": M, "a": 0, "d": 0, "variant": v}
        for v in VARIANTS
        for M in block_matrices(shape, ro, co)
        if is_constrained(shape, M)
    ]


def known_defect(op, status):
    """True when an op failed the way a known kernel limit makes it fail: a
    frontier rung overran its budget, or ``omega_global`` raised
    ``TriangularityViolation`` at (1|2), as it does for the known block and
    for other (1|2) indices.  Such ops are reported on their own, not as
    failed ops; any other failure of any op is a failed op."""
    if op["id"].startswith("frontier:"):
        return status == "timeout"
    return (op["kind"] == "omega" and tuple(op["shape"]) == KNOWN_FAILING_BLOCK[0]
            and status == "error:TriangularityViolation")


def frontier_op(name):
    if name == "to_mixed_deg3_22":
        shape = (2, 2)
        M = [0] * 16
        for i, j in ((3, 3), (3, 4), (4, 4)):
            M[(i - 1) * 4 + (j - 1)] += 1
        return {"id": f"frontier:{name}", "kind": "to_mixed", "shape": shape,
                "a": {tuple(M): {0: 1}}}
    shape = {"cb_first_1111_22": (2, 2), "cb_first_1111_31": (3, 1)}[name]
    first = next(M for M in block_matrices(shape, (1,) * 4, (1,) * 4) if is_constrained(shape, M))
    return {"id": f"frontier:{name}", "kind": "omega", "shape": shape, "M": first,
            "a": 0, "d": 0, "variant": "PLUS_Q"}


def session_ops(workload, seed, session):
    """The ordered op list of one session."""
    rng = session_rng(workload, seed, session)
    slots, make = WORKLOAD_SLOTS[workload]
    slots = slots * SESSION_REPS[workload]
    rng.shuffle(slots)
    if workload == "canonical":
        make = functools.partial(canon_op, seen=set())
    ops = [make(rng, *slot) for slot in slots]
    if workload == "canonical":
        at = rng.randrange(len(ops))
        ops[at:at] = known_failing_ops()
    for k, op in enumerate(ops):
        op["id"] = f"{session}:{k}"
    return ops
