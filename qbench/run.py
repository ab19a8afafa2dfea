"""The qsuper benchmark: one workload, one seed, one timed run.

    python3 qbench/run.py --workload poly --seed 1 --seconds 40 --trace 0

A run is a closed loop of sessions.  Each session is a fresh single-threaded
worker process (``worker.py``) that imports the kernel, runs a
seed-determined op list with cold caches, and then checks every result.
Whole sessions follow one another, in a fixed order, while the next one is
expected to end before ``--seconds`` is spent; the workload's frontier rungs
then run, each in its own process under a fixed budget.

Every process also times a fixed reference workload (``reference.py``), and
its CPU times are scaled to the reference speed, so that the machine's
changing speed cancels out of the figures.

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs each session untraced and with layer spans in turn, after two runs with
Laurent operation counts on a fixed op list (the counts must repeat
exactly).  It prints the per-layer metrics of session 0, a fixed op list,
and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when a
completed op fails its check, when an op's digest differs from an earlier
run of the same seed, or when the counts do not repeat.  Ops that raise or
overrun their budget are failed ops, not wrong answers, except those that
fail by a known kernel limit (frontier-rung timeouts, the (1|2)
``TriangularityViolation``): they are reported on their own line and count
in neither ``attempted`` nor ``failed``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".qbench_state")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import reference  # noqa: E402

# Every process of a run has ended this long after the run started.
HARD_LIMIT_S = 150.0
# Time a frontier process needs besides its budget (start-up, import), and
# the longest it may take before it is killed.
FRONTIER_SPAWN_S = 0.4
FRONTIER_GRACE_S = 5.0
# Ops of session 0 that the count-only run executes, and its time limit.
COUNT_OPS = {"poly": 120, "localize": 12, "canonical": 16}
COUNT_TIMEOUT_S = 30.0
# Hash seed of every worker, so that one seed always does the same work.
ENV = dict(os.environ, PYTHONHASHSEED="0")


class Session:
    """Parsed output of one worker process.  ``ops`` maps an op key to its
    record (kind, status, cpu_ms, digest).  ``ms`` in each record is cpu_ms
    at the reference speed (``reference.py``): scaled by the mean of the
    reference timings just before and just after the op.  ``setup_s`` is
    scaled by the first timing."""

    def __init__(self, lines, killed):
        self.setup_s = None
        self.ops = {}
        self.end = {}
        refs = []  # (number of ops before it, reference ms)
        for line in lines:
            rec = json.loads(line)
            if "op" in rec:
                self.ops[rec["op"]] = rec
            elif "check" in rec:
                op = self.ops[rec["check"]]
                op["digest"] = rec["digest"]
                if rec["status"] != "ok":
                    op["status"] = rec["status"]
            else:
                if "setup_s" in rec:
                    self.setup_s = rec["setup_s"]
                elif "rss_kb" in rec:
                    self.end = rec
                refs.append((len(self.ops), rec["ref_ms"]))
        if killed:
            # The op in flight and any result left unchecked are failed ops.
            for rec in self.ops.values():
                if rec["status"] == "ok" and "digest" not in rec:
                    rec["status"] = "overrun"
            if not self.end:
                key = f"killed:{len(self.ops)}"
                self.ops[key] = {"op": key, "kind": "?", "status": "overrun",
                                 "cpu_ms": 1000.0 * gen.OP_BUDGET_S}
        speeds = [reference.REF_MS / ms for _, ms in refs] or [1.0]
        self.speed = statistics.median(speeds)
        if self.setup_s is not None:
            self.setup_s *= speeds[0]
        k = 0
        for i, rec in enumerate(self.ops.values()):
            while k + 1 < len(refs) and refs[k + 1][0] <= i:
                k += 1
            after = speeds[k + 1] if k + 1 < len(refs) else speeds[k]
            rec["ms"] = rec["cpu_ms"] * (speeds[k] + after) / 2.0


def spawn(args, timeout):
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=ENV, text=True,
    )
    killed = False
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    if proc.returncode and not killed:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return Session(out.splitlines(), killed)


class Pass:
    """All sessions and frontier rungs of one mode in a run."""

    def __init__(self):
        self.sessions = []
        self.frontier = {}  # rung name -> op record
        self.extra_setups = []

    @property
    def ops(self):
        return [r for s in self.sessions for r in s.ops.values()]

    @property
    def setups(self):
        return [s for s in [x.setup_s for x in self.sessions] + self.extra_setups
                if s is not None]


def run_passes(workload, seed, seconds, modes, spans_dir=None, hard_s=HARD_LIMIT_S):
    """Sessions 0, 1, ... while the next one is expected to end in time, then
    the frontier rungs.  With several modes each session runs in every mode
    in turn, so that all modes see the machine in the same state."""
    start = time.monotonic()
    frontier = gen.FRONTIER[workload]
    reserve = len(frontier) * (gen.FRONTIER_BUDGET_S + FRONTIER_SPAWN_S)
    end = start + max(seconds - reserve, seconds / 2)
    limit = start + hard_s - len(frontier) * (gen.FRONTIER_BUDGET_S + FRONTIER_GRACE_S)
    base = ["--workload", workload, "--seed", str(seed)]
    passes = {mode: Pass() for mode in modes}
    session, took = 0, 0.0
    while session == 0 or time.monotonic() + took <= end:
        t0 = time.monotonic()
        for mode in modes:
            args = base + ["--mode", mode, "--session", str(session), "--check"]
            if mode == "spans" and session == 0:
                args += ["--spans-out", os.path.join(spans_dir, "spans-0.jsonl")]
            passes[mode].sessions.append(spawn(args, limit - time.monotonic()))
        # one more set-up sample per session, from a process that only imports
        setup = spawn(base + ["--mode", "setup"], limit - time.monotonic()).setup_s
        passes["plain"].extra_setups.append(setup)
        session += 1
        took = time.monotonic() - t0
    for name in frontier:
        args = base + ["--mode", "plain", "--frontier", name, "--check"]
        s = spawn(args, gen.FRONTIER_BUDGET_S + FRONTIER_GRACE_S)
        rec = next(iter(s.ops.values()), None)
        if rec is None:  # the process was killed; it ran its budget at least
            rec = {"op": "frontier:" + name, "kind": "frontier", "status": "timeout",
                   "cpu_ms": 1000.0 * gen.FRONTIER_BUDGET_S, "known": True}
        passes["plain"].frontier[name] = rec
        passes["plain"].extra_setups.append(s.setup_s)
    return [passes[mode] for mode in modes]


def rate(ops):
    """Completed ops per CPU second of all session ops, failed ones too."""
    return sum(r["status"] == "ok" for r in ops) / (sum(r["ms"] for r in ops) / 1000.0)


def end_to_end(p):
    """Figures over the session ops, at the reference speed (see README.md)."""
    ops = p.ops
    lat = sorted(r["ms"] for r in ops if r["status"] == "ok") or [0.0]
    every = ops + list(p.frontier.values())
    failed = sum(r["status"] != "ok" for r in every)
    return {
        "ops_per_s": (rate(ops), "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0], "ms"),
        "setup_s": (statistics.median(p.setups), "s"),
        "peak_rss_mb": (max(s.end.get("rss_kb", 0) for s in p.sessions) / 1024.0, "MiB"),
        "ops_failed_ratio": (failed / len(every), "fraction"),
    }


def tally(records):
    """(attempted, failed, known) for the JSON result line.  Ops that fail by
    a known kernel limit (``gen.known_defect``) are counted in ``known`` and
    in neither of the others, so that ``failed`` counts only new failures;
    the human lines report both."""
    known = sum(bool(r.get("known")) for r in records)
    failed = sum(r["status"] != "ok" and not r.get("known") for r in records)
    return len(records) - known, failed, known


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(s, count_session):
    """Layer metrics of one traced session, a fixed op list; self time at
    the reference speed."""
    spans = s.end.get("spans", {})
    counts = s.end.get("counts", {})
    g = counts.get
    out = {}
    for name in ("laurent.mul_calls", "laurent.mul_term_pairs", "laurent.add_calls",
                 "laurent.divexact_calls"):
        out[name] = (count_session.end["counts"].get(name, 0), "count")
    for name in sorted(spans):
        out[name + ".calls"] = (spans[name][0], "count")
        out[name + ".self_s"] = (spans[name][1] * s.speed, "s")
    for name, c in s.end.get("caches", {}).items():
        out[name + ".hit_ratio"] = (_ratio(c["hits"], c["hits"] + c["misses"]), "fraction")
        out[name + ".size"] = (c["size"], "count")
    calls = {name: n for name, (n, _) in spans.items()}
    out["glq.express_in_basis.first_window_ratio"] = (
        _ratio(g("glq.express_in_basis.first_window", 0), calls.get("glq.express_in_basis", 0)),
        "fraction")
    for k in ("rows_max", "cols_max", "cells_sum"):
        out["exactlinalg.solve." + k] = (g("exactlinalg.solve." + k, 0), "count")
    out["exactlinalg.solve.unsolvable_ratio"] = (
        _ratio(g("exactlinalg.solve.unsolvable", 0), calls.get("exactlinalg.solve", 0)),
        "fraction")
    out["exactlinalg.nullspace.cells_sum"] = (g("exactlinalg.nullspace.cells_sum", 0), "count")
    out["basis.lusztig_steps"] = (g("basis.lusztig_steps", 0), "count")
    out["basis.express_in_n.retries"] = (g("basis.express_in_n.retries", 0), "count")
    out["actions.invariants_window.window_size"] = (
        _ratio(g("actions.invariants_window.window_size_sum", 0),
               calls.get("actions.invariants_window", 0)),
        "count")
    return out


def check_digests(workload, seed, passes):
    """Digests of ops completed in this run against every earlier run of the
    seed; returns the ids that disagree and stores the union."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, f"digests-{workload}-{seed}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    bad = []
    for p in passes:
        for r in p.ops:
            if r["status"] == "ok":
                d = known.setdefault(r["op"], r["digest"])
                if d != r["digest"]:
                    bad.append(r["op"])
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, sort_keys=True)
    os.replace(tmp, path)
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsuper", "__init__.py")):
        sys.exit(f"no kernel source at {os.path.join(ROOT, 'src', 'qsuper')}")

    w, seed = args.workload, args.seed
    problems = []
    if args.trace:
        t0 = time.monotonic()
        count_args = ["--workload", w, "--seed", str(seed), "--mode", "counts",
                      "--limit", str(COUNT_OPS[w])]
        c1, c2 = (spawn(count_args, COUNT_TIMEOUT_S) for _ in range(2))
        if c1.end.get("counts") != c2.end.get("counts") or not c1.end or not c2.end:
            problems.append("Laurent operation counts did not repeat")
        spans_dir = os.path.join(ROOT, ".qbench_out", f"{w}-seed{seed}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        spent = time.monotonic() - t0
        passes = run_passes(w, seed, args.seconds - spent, ("plain", "spans"), spans_dir,
                            HARD_LIMIT_S - spent)
    else:
        passes = run_passes(w, seed, args.seconds, ("plain",))
    plain = passes[0]
    e2e = end_to_end(plain)

    completed = sum(r["status"] == "ok" for r in plain.ops)
    print(f"workload {w}  seed {seed}  sessions {len(plain.sessions)}  "
          f"session ops {len(plain.ops)}  completed (timed samples) {completed}  "
          f"frontier rungs {len(plain.frontier)}")
    speed = statistics.median(s.speed for s in plain.sessions)
    print(f"  times scaled to the reference speed; the machine ran at {speed:.3g} of it")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {value:12.6g} {unit}")
    for name, rec in plain.frontier.items():
        print(f"  frontier {name}: {rec['status']} (budget {gen.FRONTIER_BUDGET_S} s)")
    failures = {}
    for r in plain.ops + list(plain.frontier.values()):
        if r["status"] != "ok":
            key = (r["kind"], r["status"], bool(r.get("known")))
            failures[key] = failures.get(key, 0) + 1
    for (kind, status, known), n in sorted(failures.items()):
        label = "known defect" if known else "failed"
        print(f"  {label}: {n} x {kind} {status}")

    metrics = {k: v for k, v in e2e.items() if k != "ops_failed_ratio"}
    if args.trace:
        traced_rate = rate(passes[1].ops)
        overhead = 1.0 - traced_rate / e2e["ops_per_s"][0]
        metrics = per_layer(passes[1].sessions[0], c1)
        metrics["trace.overhead_ratio"] = (overhead, "fraction")
        print(f"tracing overhead: untraced {e2e['ops_per_s'][0]:.4g} ops/s, "
              f"traced {traced_rate:.4g} ops/s, overhead {overhead:.1%}; "
              f"spans of session 0 written to {os.path.relpath(spans_dir, ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:14.6g} {unit}")

    problems += [f"{r['op']} ({r['kind']}) gave a wrong result"
                 for p in passes for r in p.ops if r["status"] == "wrong"]
    problems += [f"{op}: digest differs from an earlier run of seed {seed}"
                 for op in check_digests(w, seed, passes)]
    for msg in problems:
        print("INCORRECT: " + msg, file=sys.stderr)
    attempted, failed, known = tally(
        [r for p in passes for r in p.ops] + list(plain.frontier.values()))
    print(f"ops attempted {attempted}, failed {failed}; "
          f"known defects, counted in neither: {known}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
