"""Benchmark ops on the kernel: build inputs, run, check, digest.

``prepare(op)`` turns an op's plain data into kernel objects and returns
``(run, check)``: ``run()`` is the timed call into the kernel's public API;
``check(result)`` tests the result against an identity the tier-1 suite also
asserts, outside the timed interval.  Kernel functions are looked up on their
modules at call time, so the traced run's wrapped bindings are the ones used.
"""

import hashlib
import json

from qsuper import actions, algebra, basis, glq, laurent, superspace

ONE = laurent.ONE


def _poly(shape, terms):
    return algebra.AlgebraElement(shape, {M: laurent.LaurentPoly(c) for M, c in terms.items()})


def _local(shape, terms):
    return glq.LocalElement(shape, {k: laurent.LaurentPoly(c) for k, c in terms.items()})


def _gen(sym):
    return actions.GenSymbol(*sym)


def _bar_involutive(p):
    return p.bar().bar() == p


def _annihilated(f, left, right):
    """(g - eps(g)) f == 0 for every left and right generator."""
    return all(
        (act(g, f) - f.scale(actions.epsilon(g))).is_zero()
        for gens, act in ((left, actions.act_left), (right, actions.act_right))
        for g in gens
    )


def _det_power(shape, which, k):
    a, d = {"A": (k, 0), "D": (0, k), "Ber": (k, -k)}[which]
    return glq.LocalElement(shape, {(algebra.zero_matrix(shape.size), a, d): ONE})


def prepare(op):
    kind = op["kind"]
    shape = algebra.Shape(*op["shape"])

    if kind in ("mul", "bar", "act", "minor_mul", "det_mul"):
        a = _poly(shape, op["a"])
    if kind == "mul":
        b = _poly(shape, op["b"])
        return (lambda: a * b), _bar_involutive
    if kind == "bar":
        return a.bar, lambda p: p.bar() == a
    if kind == "act":
        acts = {"L": actions.act_left, "R": actions.act_right}
        this = acts[op["side"]]
        that = acts["R" if op["side"] == "L" else "L"]
        g, h = _gen(op["gen"]), _gen(op["other"])
        return (lambda: this(g, a)), lambda p: that(h, p) == this(g, that(h, a))
    if kind in ("minor_mul", "minor_pow"):
        fn = superspace.minor_star if op["star"] else superspace.minor
        if kind == "minor_mul":
            return (lambda: fn(shape, op["rows"], op["cols"]) * a), _bar_involutive
        return (lambda: fn(shape, op["rows"], op["cols"]) ** op["k"]), _bar_involutive
    if kind == "det_mul":
        det = superspace.det_q_A if op["which"] == "A" else superspace.det_qinv_D
        return (lambda: det(shape) * a), _bar_involutive

    if kind == "to_mixed":
        a = _poly(shape, op["a"])
        return (lambda: glq.to_mixed(a)), lambda f: glq.from_mixed(f) == a
    if kind == "from_mixed":
        f = _local(shape, op["f"])
        return (lambda: glq.from_mixed(f)), lambda p: glq.to_mixed(p) == f
    if kind == "bar_local":
        f = _local(shape, op["f"])
        return (lambda: glq.bar_local(f)), lambda g: glq.bar_local(g) == f
    if kind == "mixed_product":
        a, b = _poly(shape, op["a"]), _poly(shape, op["b"])
        return (lambda: glq.to_mixed(a) * glq.to_mixed(b)), lambda f: f == glq.to_mixed(a * b)
    if kind == "det_product":
        f = _local(shape, op["f"])
        which, k = op["g"]
        g, g_inv = _det_power(shape, which, k), _det_power(shape, which, -k)
        return (lambda: f * g), lambda h: h * g_inv == f
    if kind == "invariants":
        left = tuple(map(_gen, op["left"]))
        right = tuple(map(_gen, op["right"]))

        def run():
            return actions.invariants_window(
                shape, left, right, op["max_degree"], op["a_range"], op["d_range"]
            )

        return run, lambda fs: all(_annihilated(f, left, right) for f in fs)

    if kind == "omega":
        M, a, d = op["M"], op["a"], op["d"]
        variant = laurent.Variant[op["variant"]]

        def leading_one(cb):
            f = cb.expansion
            return glq.bar_local(f) == f and basis.express_in_n(shape, f).get((M, a, d)) == ONE

        return (lambda: basis.omega_global(shape, M, a, d, variant)), leading_one
    if kind == "span_check":
        left = tuple(map(_gen, op["left"]))
        variant = laurent.Variant[op["variant"]]

        def run():
            return actions.canonical_span_check(
                shape, left, op["max_degree"], op["a_range"], (0, 0), variant
            )

        def selected_invariant(rep):
            omegas = [basis.omega_global(shape, M, a, d, variant).expansion
                      for M, a, d in rep.selected]
            return rep.passed and len(omegas) == rep.invariant_dim and all(
                _annihilated(f, left, ()) for f in omegas
            )

        return run, selected_invariant
    raise ValueError(f"unknown op kind {kind!r}")


def _canonical(result):
    if isinstance(result, (algebra.AlgebraElement, glq.LocalElement)):
        return result.to_json()
    if isinstance(result, basis.CBElement):
        M, a, d = result.index
        return {"index": [list(M), a, d], "variant": result.variant.name,
                "expansion": result.expansion.to_json()}
    if isinstance(result, actions.SpanReport):
        return {"selected": [[list(M), a, d] for M, a, d in result.selected],
                "invariant_dim": result.invariant_dim}
    return [_canonical(r) for r in result]


def digest(result):
    """Short hash of the result's canonical JSON."""
    text = json.dumps(_canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
