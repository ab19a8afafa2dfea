import io
import json
import sys

import pytest

from qsuper import basis, verify
from qsuper.algebra import AlgebraElement, Shape
from qsuper.glq import LocalElement, berezinian, to_mixed
from qsuper.cli import main

S11 = Shape(1, 1)
S21 = Shape(2, 1)


def run(argv, stdin=None, capsys=None):
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        rc = main(argv)
    finally:
        sys.stdin = old
    out = capsys.readouterr().out if capsys else None
    return rc, out


class TestElements:
    def test_det_a_text(self, capsys):
        rc, out = run(["det", "--shape", "2", "1", "--which", "A",
                       "--format", "text"], capsys=capsys)
        assert rc == 0
        assert out.strip() == "-q^2*x[1,2]*x[2,1] + x[1,1]*x[2,2]"

    def test_det_dprime_is_local(self, capsys):
        rc, out = run(["det", "--shape", "1", "1", "--which", "D'"],
                      capsys=capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["coords"] == "mixed"
        assert LocalElement.from_json(obj) == LocalElement.y_gen(S11, 2, 2)

    def test_ber(self, capsys):
        rc, out = run(["ber", "--shape", "2", "1"], capsys=capsys)
        assert rc == 0
        assert LocalElement.from_json(json.loads(out)) == berezinian(S21)

    def test_bar_adds_commutator_term(self, capsys):
        f = AlgebraElement.generator(S11, 1, 1) * AlgebraElement.generator(
            S11, 2, 2
        )
        rc, out = run(["bar", "--element", "-"],
                      stdin=json.dumps(f.to_json()), capsys=capsys)
        assert rc == 0
        g = AlgebraElement.from_json(json.loads(out))
        assert g == f.bar()
        assert len(g.terms) == 2  # the extra (q^2 - q^-2) x12 x21 term

    def test_mul(self, tmp_path, capsys):
        a = AlgebraElement.generator(S11, 1, 2)
        b = AlgebraElement.generator(S11, 2, 1)
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text(json.dumps(a.to_json()))
        pb.write_text(json.dumps(b.to_json()))
        rc, out = run(["mul", "--element", str(pa), "--element", str(pb)],
                      capsys=capsys)
        assert rc == 0
        assert AlgebraElement.from_json(json.loads(out)) == a * b

    def test_reduce_round_trip(self, capsys):
        f = AlgebraElement.generator(S11, 2, 2)
        rc, out = run(["reduce", "--element", "-"],
                      stdin=json.dumps(f.to_json()), capsys=capsys)
        assert rc == 0
        assert LocalElement.from_json(json.loads(out)) == to_mixed(f)

    def test_minor_star(self, capsys):
        rc, out = run(["minor", "--shape", "2", "1", "--rows", "1,2",
                       "--cols", "1,2", "--star", "--format", "text"],
                      capsys=capsys)
        assert rc == 0
        assert "x[1,1]*x[2,2]" in out

    def test_act(self, capsys):
        f = AlgebraElement.generator(S21, 2, 1)
        rc, out = run(["act", "--gen", "E1", "--side", "left",
                       "--element", "-"], stdin=json.dumps(f.to_json()),
                      capsys=capsys)
        assert rc == 0
        got = AlgebraElement.from_json(json.loads(out))
        assert got == AlgebraElement.generator(S21, 1, 1)


class TestWindows:
    def test_inv_two_sided(self, capsys):
        rc, out = run(["inv", "--shape", "2", "1", "--left", "E1,E2",
                       "--right", "F1,F2", "--max-degree", "3"],
                      capsys=capsys)
        assert rc == 0
        objs = json.loads(out)
        assert len(objs) == 4  # powers of x11
        for obj in objs:
            f = LocalElement.from_json(obj)
            (key,) = f.terms

    def test_max_degree_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QSUPER_MAX_DEGREE", "1")
        rc, out = run(["inv", "--shape", "2", "1", "--left", "E1,E2",
                       "--right", "F1,F2", "--max-degree", "3"],
                      capsys=capsys)
        assert rc == 0
        assert len(json.loads(out)) == 2  # 1 and x11 only

    def test_cb_block(self, capsys):
        rc, out = run(["cb", "--shape", "2", "1", "--ro", "1,1,1",
                       "--co", "1,1,1", "--sector", "a=0,d=0",
                       "--variant", "q"], capsys=capsys)
        assert rc == 0
        objs = json.loads(out)
        assert len(objs) == 4
        for obj in objs:
            f = LocalElement.from_json(obj["element"])
            assert not f.is_zero()
            assert obj["variant"] == "q"


class TestVerify:
    @pytest.mark.parametrize("suite,shape", [
        ("relations", ("1", "1")),
        ("commun", ("2", "1")),
        ("bar-minors", ("2", "1")),
        ("gl11", ("1", "1")),
    ])
    def test_suites_pass(self, suite, shape, capsys):
        rc, out = run(["verify", "--suite", suite, "--shape", *shape],
                      capsys=capsys)
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_conventions(self, capsys):
        rc, out = run(["conventions"], capsys=capsys)
        assert rc == 0
        obj = json.loads(out)
        assert set(obj) >= {"L.E", "L.F", "R.E", "R.F", "K"}


class TestErrorsAndDeterminism:
    def test_usage_error(self, capsys):
        rc, _ = run(["det", "--shape", "1", "1", "--which", "Z"],
                    capsys=capsys)
        assert rc == 2

    def test_bad_json(self, capsys):
        rc, _ = run(["bar", "--element", "-"], stdin="not json",
                    capsys=capsys)
        assert rc == 2

    def test_missing_element(self, capsys):
        rc, _ = run(["bar"], capsys=capsys)
        assert rc == 2

    def test_bad_gen_token(self, capsys):
        f = AlgebraElement.generator(S21, 1, 1)
        rc, _ = run(["act", "--gen", "Q7", "--side", "left",
                     "--element", "-"], stdin=json.dumps(f.to_json()),
                    capsys=capsys)
        assert rc == 2

    def test_byte_identical_output(self, capsys):
        argv = ["cb", "--shape", "2", "1", "--ro", "1,1,0", "--co",
                "1,0,1", "--sector", "a=0,d=0", "--variant", "q"]
        _, out1 = run(argv, capsys=capsys)
        _, out2 = run(argv, capsys=capsys)
        assert out1 == out2

    def test_element_json_round_trip(self, capsys):
        f = to_mixed(
            AlgebraElement.from_word(S21, [(1, 3), (3, 1), (2, 2)])
        ) * berezinian(S21)
        blob = json.dumps(f.to_json())
        rc, out = run(["reduce", "--element", "-"], stdin=blob,
                      capsys=capsys)
        assert rc == 0
        assert LocalElement.from_json(json.loads(out)) == f


def _kernel_fault(*args):
    raise ValueError("non-exact Laurent division")


class TestKernelFaultsPropagate:
    """Only NotConstrained means "this index names no basis element"; any
    other ValueError from the kernel is a fault and is never skipped."""

    def test_cb_reports_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(basis, "lusztig_solve_one", _kernel_fault)
        rc = main(["cb", "--shape", "2", "1", "--ro", "1,1,1", "--co", "1,1,1"])
        captured = capsys.readouterr()
        assert rc != 0
        assert captured.out == ""
        assert "non-exact Laurent division" in captured.err

    def test_cb_blocks_suite_raises(self, monkeypatch):
        monkeypatch.setattr(basis, "lusztig_solve_one", _kernel_fault)
        with pytest.raises(ValueError, match="non-exact"):
            verify.suite_cb_blocks(S21)

    def test_ber_shift_suite_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "n_ad", _kernel_fault)
        with pytest.raises(ValueError, match="non-exact"):
            verify.suite_ber_shift(S21)
