"""Self-tests of the benchmark (not of the kernel).

    python3 qbench/selftest.py

Runs tiny timed runs, so it takes about a minute.  The file is not named
test_*.py so that the repository's pytest run does not collect it.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, seed, seconds=1, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if out.returncode:
        raise AssertionError(f"run.py exited with {out.returncode}: {out.stderr}")
    return out.stdout.splitlines(), json.loads(out.stdout.splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in gen.WORKLOADS:
            self.assertEqual(gen.session_ops(w, 5, 0), gen.session_ops(w, 5, 0))
            self.assertEqual(gen.session_ops(w, 5, 3), gen.session_ops(w, 5, 3))

    def test_other_seed_other_inputs(self):
        for w in gen.WORKLOADS:
            self.assertNotEqual(gen.session_ops(w, 5, 0), gen.session_ops(w, 6, 0))
            self.assertNotEqual(gen.session_ops(w, 5, 0), gen.session_ops(w, 5, 1))

    def test_only_constrained_indices(self):
        for seed in range(3):
            for op in gen.session_ops("canonical", seed, 0):
                if op["kind"] == "omega":
                    self.assertTrue(gen.is_constrained(op["shape"], op["M"]))

    def test_known_failing_block(self):
        ops = gen.known_failing_ops()
        self.assertEqual(len(ops), 8)  # 4 constrained indices, 2 variants
        for seed in range(3):
            session = gen.session_ops("canonical", seed, 0)
            for op in ops:
                self.assertIn(op, [{k: v for k, v in o.items() if k != "id"} for o in session])


def session(ops, killed=False, end=True, ref_ms=reference.REF_MS):
    """Worker output: set-up, op records, end record, check records."""
    lines = [json.dumps({"setup_s": 0.1, "ref_ms": ref_ms})]
    lines += [json.dumps({"op": key, "kind": "omega", "status": status, "cpu_ms": ms})
              for key, status, ms, _ in ops]
    if end:
        lines.append(json.dumps({"rss_kb": 1024, "ref_ms": ref_ms}))
        lines += [json.dumps({"check": key, "status": "ok", "digest": d})
                  for key, status, _, d in ops if status == "ok"]
    return run.Session(lines, killed)


class Metrics(unittest.TestCase):
    def test_failed_op_is_counted(self):
        p = run.Pass()
        p.sessions = [
            session([("0:0", "ok", 1.0, "a"), ("0:1", "error:TriangularityViolation", 2.0, None),
                     ("0:2", "ok", 3.0, "b")]),
            session([("1:0", "ok", 4.0, "c")], killed=True, end=False),
        ]
        p.frontier = {"rung": {"op": "frontier:rung", "kind": "omega", "status": "timeout",
                               "cpu_ms": 2000.0}}
        # the killed session's in-flight op and unchecked result are kept, as failed
        self.assertEqual(len(p.ops), 5)
        e2e = run.end_to_end(p)
        self.assertAlmostEqual(e2e["ops_failed_ratio"][0], 4 / 6)
        # the frontier rung is not a session op
        busy_s = (1.0 + 2.0 + 3.0 + 4.0) / 1000 + gen.OP_BUDGET_S
        self.assertAlmostEqual(e2e["ops_per_s"][0], 2 / busy_s)
        self.assertAlmostEqual(e2e["op_p50_ms"][0], 2.0)
        # in the JSON line only the frontier timeout is a known defect here
        p.frontier["rung"]["known"] = True
        self.assertEqual(run.tally(p.ops + list(p.frontier.values())), (5, 3, 1))

    def test_known_defects(self):
        omega12 = {"id": "0:1", "kind": "omega", "shape": (1, 2)}
        omega21 = dict(omega12, shape=(2, 1))
        rung = {"id": "frontier:x", "kind": "to_mixed", "shape": (2, 2)}
        self.assertTrue(gen.known_defect(omega12, "error:TriangularityViolation"))
        self.assertTrue(gen.known_defect(rung, "timeout"))
        # the same failure anywhere else, or another failure, is not known
        self.assertFalse(gen.known_defect(omega21, "error:TriangularityViolation"))
        self.assertFalse(gen.known_defect(omega12, "timeout"))
        self.assertFalse(gen.known_defect(rung, "error:ValueError"))
        self.assertFalse(gen.known_defect(omega12, "ok"))

    def test_times_scale_to_reference_speed(self):
        # a machine at half the reference speed: the reference takes twice as long
        s = session([("0:0", "ok", 4.0, "a")], ref_ms=2 * reference.REF_MS)
        self.assertAlmostEqual(s.ops["0:0"]["ms"], 2.0)
        self.assertAlmostEqual(s.setup_s, 0.05)

    def test_each_op_scales_by_the_timings_around_it(self):
        lines = [json.dumps({"setup_s": 0.1, "ref_ms": reference.REF_MS}),
                 json.dumps({"op": "a", "kind": "k", "status": "ok", "cpu_ms": 1.0}),
                 json.dumps({"ref_ms": reference.REF_MS / 3}),
                 json.dumps({"op": "b", "kind": "k", "status": "ok", "cpu_ms": 1.0}),
                 json.dumps({"rss_kb": 1, "ref_ms": reference.REF_MS / 3})]
        s = run.Session(lines, killed=False)
        self.assertAlmostEqual(s.ops["a"]["ms"], 2.0)  # mean of speeds 1 and 3
        self.assertAlmostEqual(s.ops["b"]["ms"], 3.0)


class Smoke(unittest.TestCase):
    def check_names(self, result, kind):
        spec = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, spec)

    def test_each_workload(self):
        for w in gen.WORKLOADS:
            with self.subTest(workload=w):
                lines, result = bench(w, 1)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_names(result, "end_to_end")
                self.assertTrue(any("ops_failed_ratio" in line for line in lines))
                # frontier rungs overrun their budget: known defects, not failed ops
                self.assertEqual(result["failed"], 0)
                if gen.FRONTIER[w]:
                    self.assertTrue(any("known defect:" in line for line in lines))
                # the second run of the seed compares digests with the first
                self.assertTrue(bench(w, 1)[1]["correct"])

    def test_traced_metric_names(self):
        lines, result = bench("localize", 2, trace=1)
        self.assertTrue(result["correct"])
        self.check_names(result, "per_layer")
        self.assertTrue(any(line.startswith("tracing overhead") for line in lines))

    def test_bare_directory_fails(self):
        import shutil
        import tempfile

        scratch = os.path.join(ROOT, ".qbench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "qbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            out = subprocess.run(
                [sys.executable, "qbench/run.py", "--workload", "poly", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
