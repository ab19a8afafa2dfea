"""Spans and counters recorded around calls into the kernel's layers.

The layers are the kernel modules.  A span wraps a module binding: where a
module imported a name from another layer (``glq`` imports ``solve_in_span``
from ``exactlinalg``), the binding in the importing module is wrapped too,
because that is the one its code calls.  The kernel source is not changed.

Two separate instrumentations exist, never installed together:

* ``install_spans``: a span (name, start, end, parent span, op id) per wrapped
  call, plus counts taken at the same boundaries.  Start and end are process
  CPU seconds, the clock of the end-to-end op times.  A layer's self time is
  its span durations minus the time covered by its child spans.
* ``install_laurent_counts``: exact call counts of ``LaurentPoly`` arithmetic.
  Those methods run 10^6-10^7 times, so timing them would swamp their
  callers' spans; they are only counted, in their own run.
"""

import functools
import time
from collections import Counter

from qsuper import actions, algebra, basis, exactlinalg, glq, laurent, superspace

# span name -> the (owner, attribute) bindings it wraps
SPAN_BINDINGS = {
    "algebra.mul": [(algebra.AlgebraElement, "__mul__")],
    "algebra.bar": [(algebra.AlgebraElement, "bar")],
    # _straighten_cached looks straighten_word up at call time, so this
    # span sees exactly the cache misses
    "algebra.straighten": [(algebra, "straighten_word")],
    "superspace.minor": [
        (superspace, "minor"), (superspace, "minor_star"),
        (superspace, "det_q_A"), (superspace, "det_qinv_D"),
        (glq, "det_q_A"), (actions, "det_q_A"),
    ],
    "glq.to_mixed": [(glq, "to_mixed"), (basis, "to_mixed"), (actions, "to_mixed")],
    "glq.express_in_basis": [(glq, "express_in_basis")],
    "glq.bar_local": [(glq, "bar_local"), (basis, "bar_local")],
    "glq.from_mixed": [(glq, "from_mixed")],
    "glq.local_mul": [(glq.LocalElement, "__mul__")],
    "exactlinalg.solve": [
        (exactlinalg, "solve_in_span"), (glq, "solve_in_span"), (actions, "solve_in_span"),
    ],
    "exactlinalg.nullspace": [(exactlinalg, "nullspace"), (actions, "nullspace")],
    "basis.omega_global": [(basis, "omega_global")],
    "basis.express_in_n": [(basis, "express_in_n")],
    "basis.n_ad": [(basis, "n_ad")],
    "actions.act": [(actions, "act_left"), (actions, "act_right")],
    "actions.invariants_window": [(actions, "invariants_window")],
}

# caches whose hit ratio and size the layers report, read at the end of a run
CACHES = {
    "algebra.straighten_cache": algebra._straighten_cached,
    "glq.reduce_pair_cache": glq._reduce_pair,
    "basis.n_ad_cache": basis.n_ad,
}


class Tracer:
    """In-memory spans and counters; records only while ``on`` is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, extra]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.on = False

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; ``before(args)`` runs outside the timed span
        and returns the span's extra data, ``after(extra, result)`` too."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            extra = before(args) if before else {}
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, extra]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.process_time()
                tracer.stack.pop()
            if after:
                after(extra, result)
            return result

        return wrapper

    def parent_extra(self, name):
        """Extra data of the innermost open span if it is called ``name``."""
        if self.stack:
            rec = self.spans[self.stack[-1]]
            if rec[0] == name:
                return rec[5]
        return None

    def hook(self, fn, after):
        """Wrap fn without a span: ``after(result)`` runs when tracing is on."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.on:
                after(result)
            return result

        return wrapper

    def self_times(self):
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = dict.fromkeys(SPAN_BINDINGS, (0, 0.0))
        for k, rec in enumerate(self.spans):
            calls, self_s = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, self_s + (rec[2] - rec[1]) - child[k])
        return out


def _solve_dims(args):
    columns = args[0]
    keys = set()
    for col in columns:
        keys.update(col)
    if len(args) > 1:
        keys.update(args[1])
    return {"rows": len(keys), "cols": len(columns)}


def install_spans(tracer):
    c = tracer.counts

    def solved(extra, result):
        c["exactlinalg.solve.rows_max"] = max(c["exactlinalg.solve.rows_max"], extra["rows"])
        c["exactlinalg.solve.cols_max"] = max(c["exactlinalg.solve.cols_max"], extra["cols"])
        c["exactlinalg.solve.cells_sum"] += extra["rows"] * extra["cols"]
        c["exactlinalg.solve.unsolvable"] += result is None

    def nulled(extra, result):
        c["exactlinalg.nullspace.cells_sum"] += extra["rows"] * extra["cols"]

    def windowed(extra, result):
        c["glq.express_in_basis.first_window"] += extra.get("rounds") == 1

    def retried(extra, result):
        c["basis.express_in_n.retries"] += extra.get("rounds", 1) - 1

    def round_of(span_name):
        def bump(result):
            extra = tracer.parent_extra(span_name)
            if extra is not None:
                extra["rounds"] = extra.get("rounds", 0) + 1
        return bump

    def window(result):
        if tracer.parent_extra("actions.invariants_window") is not None:
            c["actions.invariants_window.window_size_sum"] += len(result)

    def lusztig_step(result):
        c["basis.lusztig_steps"] += 1

    hooks = {
        "exactlinalg.solve": (_solve_dims, solved),
        "exactlinalg.nullspace": (_solve_dims, nulled),
        "glq.express_in_basis": (None, windowed),
        "basis.express_in_n": (None, retried),
    }
    for name, bindings in SPAN_BINDINGS.items():
        before, after = hooks.get(name, (None, None))
        for owner, attr in bindings:
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), before, after))
    # counted at the same boundaries, without spans of their own
    glq._candidates = tracer.hook(glq._candidates, round_of("glq.express_in_basis"))
    basis._global_candidates = tracer.hook(
        basis._global_candidates, round_of("basis.express_in_n")
    )
    actions.window_indices = tracer.hook(actions.window_indices, window)
    basis.solve_bar_equation = tracer.hook(basis.solve_bar_equation, lusztig_step)


def install_laurent_counts(tracer):
    c = tracer.counts
    P = laurent.LaurentPoly
    mul, add, divexact = P.__mul__, P.__add__, P.divexact

    def counted_mul(self, other):
        if tracer.on:
            c["laurent.mul_calls"] += 1
            c["laurent.mul_term_pairs"] += len(self.terms) * len(other.terms)
        return mul(self, other)

    def counted_add(self, other):
        if tracer.on:
            c["laurent.add_calls"] += 1
        return add(self, other)

    def counted_divexact(self, divisor):
        if tracer.on:
            c["laurent.divexact_calls"] += 1
        return divexact(self, divisor)

    P.__mul__, P.__add__, P.divexact = counted_mul, counted_add, counted_divexact


def cache_stats():
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out
