"""A fixed reference workload that measures the machine's current speed.

The benchmark's machine may run the same code 1.5-2x faster or slower from
one minute to the next, as other tenants load the host.  Every worker
process therefore times this workload before, between and after its ops,
and ``run.py`` scales each CPU time by ``REF_MS / measured``, the speed
measured around it: times are reported as if the reference workload took
``REF_MS``.  The workload is plain Python in the benchmark's own files, so
no change to the kernel changes it.  It does what the kernel spends its time
on: products of dicts of exponent tuples whose coefficients are small
Laurent polynomials, held in objects with arithmetic methods.
"""

import gc
import statistics
import time

# CPU time the workload is scaled to, in ms: a round figure near its time on
# the 2-core Xeon VM the benchmark was built on.
REF_MS = 5.0
# Timings per measurement; a measurement is their median.
REPS = 3
# A worker measures again after this much CPU time of ops, so that each op
# is scaled by the speed of the moment it ran.
EVERY_MS = 250.0


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __mul__(self, other):
        out = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                out[a + b] = out.get(a + b, 0) + x * y
        return _Poly(out)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _Poly(out)


def workload():
    elements = [
        {tuple((i * j + k) % 3 for k in range(6)): _Poly({e: (i + e) % 5 - 2 for e in range(-2, 3)})
         for j in range(8)}
        for i in range(8)
    ]
    acc = {}
    for x in elements:
        for y in elements:
            for ma, ca in x.items():
                for mb, cb in y.items():
                    m = tuple(p + q for p, q in zip(ma, mb))
                    c = ca * cb
                    acc[m] = acc[m] + c if m in acc else c
    return len(acc)


def measure():
    """CPU ms of one run of the workload, median of ``REPS`` timings.

    The cyclic garbage collector is off meanwhile: a collection would walk
    the kernel's heap, and a kernel that keeps more objects alive would then
    slow the reference down and so look faster itself.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REPS):
            start = time.process_time()
            workload()
            times.append((time.process_time() - start) * 1000.0)
    finally:
        gc.enable()
    return statistics.median(times)
