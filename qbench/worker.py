"""One benchmark session: a fresh single-threaded process with cold caches.

Run by ``run.py``, never by hand.  The process imports the kernel from the
checkout's ``src`` (set-up), times the reference workload (``reference.py``),
regenerates its op list from the seed and runs the ops in order, writing one
JSON line per op (status and CPU time) to stdout, and one per timing of the
reference workload, which it repeats after every ``reference.EVERY_MS`` of
op time.  When every op is timed it writes its peak RSS, in the traced modes
its layer counts and cache statistics, and a last reference timing.  Only then does
it check the results (with ``--check``) and digest them, one line per op, so
that the checks' kernel work warms no cache a timed op uses and shows in
none of the figures above.

Modes: ``plain`` (untraced), ``spans`` (layer spans), ``counts`` (Laurent
operation counts), ``setup`` (import the kernel and exit).  With
``--frontier NAME`` the process runs that one rung under its budget and
reports ``timeout`` when it overruns; any other op gets the larger
``OP_BUDGET_S``.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class BudgetExceeded(BaseException):
    """Raised by the timer; a BaseException so no kernel handler swallows it."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def timed(fn, budget):
    """(status, result, CPU ms) of fn() run under a wall-clock budget."""
    result = None
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.process_time()
    try:
        result = fn()
        status = "ok"
    except BudgetExceeded:
        status = "timeout"
    except Exception as exc:  # the op failed; record it and go on
        status = "error:" + type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        cpu_ms = (time.process_time() - start) * 1000.0
    return status, result, cpu_ms


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--session", type=int, default=0)
    p.add_argument("--mode", choices=("plain", "spans", "counts", "setup"), default="plain")
    p.add_argument("--check", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--frontier", default=None)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import qsuper
    from qsuper import actions, basis, exactlinalg, glq, superspace  # noqa: F401

    # Set-up is the CPU time of this process from its start until the kernel
    # is imported, as a CLI invocation pays it.
    setup_s = time.process_time()
    if not os.path.abspath(qsuper.__file__).startswith(SRC + os.sep):
        sys.exit(f"qsuper imported from {qsuper.__file__}, not from {SRC}")
    import reference

    emit({"setup_s": setup_s, "ref_ms": reference.measure()})
    if args.mode == "setup":
        return
    import gen
    import ops
    import tracing

    tracer = tracing.Tracer()
    if args.mode == "spans":
        tracing.install_spans(tracer)
    elif args.mode == "counts":
        tracing.install_laurent_counts(tracer)

    if args.frontier:
        todo = [gen.frontier_op(args.frontier)]
        budget = gen.FRONTIER_BUDGET_S
    else:
        todo = gen.session_ops(args.workload, args.seed, args.session)[: args.limit]
        budget = gen.OP_BUDGET_S
    signal.signal(signal.SIGALRM, _alarm)

    done = []
    since_ref = 0.0
    for op in todo:
        run, check = ops.prepare(op)
        tracer.op = op["id"]
        tracer.on = args.mode != "plain"
        status, result, cpu_ms = timed(run, budget)
        tracer.on = False
        # the key names the op's inputs too, so stored digests of a changed
        # generator are never compared with new ones
        key = op["id"] + "/" + hashlib.sha256(repr(op).encode()).hexdigest()[:12]
        emit({"op": key, "kind": op["kind"], "status": status, "cpu_ms": cpu_ms,
              "known": gen.known_defect(op, status)})
        if status == "ok":
            done.append((key, check, result))
        since_ref += cpu_ms
        if since_ref >= reference.EVERY_MS:
            emit({"ref_ms": reference.measure()})
            since_ref = 0.0

    end = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.mode != "plain":
        end["counts"] = dict(tracer.counts)
        end["caches"] = tracing.cache_stats()
    if args.mode == "spans":
        end["spans"] = {k: list(v) for k, v in tracer.self_times().items()}
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for rec in tracer.spans:
                    fh.write(json.dumps(rec[:5]) + "\n")
    end["ref_ms"] = reference.measure()
    emit(end)

    for key, check, result in done:
        status = "ok"
        if args.check:
            status, good, _ = timed(lambda: check(result), budget)
            if status.startswith("error") or (status == "ok" and not good):
                status = "wrong"
        emit({"check": key, "status": status, "digest": ops.digest(result)})


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
