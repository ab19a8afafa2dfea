import io
import json
import sys

import pytest

from qsuper import basis, cli, glq, verify
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

    def test_reduce_sums_duplicate_terms(self, tmp_path, capsys):
        x22 = {"matrix": [[0, 0], [0, 1]]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "terms": [
            dict(x22, coeff={"0": 1}), dict(x22, coeff={"0": 2})]}))
        rc, out = run(["reduce", "--element", str(path)], capsys=capsys)
        assert rc == 0
        f = AlgebraElement.generator(S11, 2, 2).scale(3)
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


def _uncached_omega_global(monkeypatch, module):
    # omega_global caches its elements, and earlier tests may have built
    # these, so the patched solver is reached only through the uncached one
    monkeypatch.setattr(module, "omega_global", basis.omega_global.__wrapped__)


class TestKernelFaultsPropagate:
    """Unconstrained indices are filtered out before the kernel runs; any
    ValueError from the kernel is a fault and is never skipped."""

    def test_cb_reports_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(basis, "lusztig_element", _kernel_fault)
        _uncached_omega_global(monkeypatch, cli)
        rc = main(["cb", "--shape", "2", "1", "--ro", "1,1,1", "--co", "1,1,1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "error: ValueError: non-exact Laurent division\n"

    def test_cb_blocks_suite_raises(self, monkeypatch):
        monkeypatch.setattr(basis, "lusztig_element", _kernel_fault)
        _uncached_omega_global(monkeypatch, verify)
        with pytest.raises(ValueError, match="non-exact"):
            verify.suite_cb_blocks(S21)

    def test_ber_shift_suite_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "n_ad", _kernel_fault)
        with pytest.raises(ValueError, match="non-exact"):
            verify.suite_ber_shift(S21)


@pytest.mark.parametrize("shape,checked", [(Shape(1, 2), 20), (Shape(2, 2), 22)], ids=str)
def test_cb_blocks_suite_checks_lower_coordinates(shape, checked, monkeypatch):
    # at (2|1) each checked element equals its N-family member, so only
    # shapes like these reach the suite's unitriangularity loop
    lower = []
    real = verify.express_in_n

    def spy(shape, f):
        coords = real(shape, f)
        lower.append(len(coords) - 1)
        return coords

    monkeypatch.setattr(verify, "express_in_n", spy)
    ok, lines = verify.suite_cb_blocks(shape)
    assert ok and lines == [f"{checked} basis elements bar-invariant and unitriangular ok"]
    assert len(lower) == checked and sum(lower) == 8


class TestExitCodes:
    """0 success, 1 verification failure, 2 usage error, 3 kernel fault."""

    def test_kernel_fault_exits_3(self, capsys, monkeypatch):
        def residual_not_below(*args):
            raise glq.TriangularityViolation("residual at M is not below T")

        monkeypatch.setattr(basis, "lusztig_element", residual_not_below)
        rc = main(["cb", "--shape", "1", "2", "--ro", "1,2,1", "--co", "1,1,2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: TriangularityViolation: ")
        assert "Traceback" not in captured.err

    def test_cb_12_block_succeeds(self, capsys):
        # the (1|2) block whose recursion failed while the N family had
        # the wrong Psi sign
        rc = main(["cb", "--shape", "1", "2", "--ro", "1,2,1", "--co", "1,1,2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["det", "--shape", "0", "1", "--which", "A"],
        ["cb", "--shape", "2", "1", "--ro", "1,1", "--co", "1,1,1"],
        ["cb", "--shape", "2", "1", "--ro", "1,1,1", "--co", "1,1,1",
         "--sector", "a=x"],
        ["minor", "--shape", "1", "1", "--rows", "1", "--cols", "3"],
        ["inv", "--shape", "1", "1", "--left", "E2", "--max-degree", "1"],
        ["verify", "--suite", "gl11", "--shape", "3", "2"],
        ["verify", "--suite", "gl21", "--shape", "1", "1"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["inv", "--shape", "2", "1", "--left", "E1", "--max-degree", "1"],
        ["verify", "--suite", "relations", "--shape", "2", "1"],
    ], ids=["inv", "verify"])
    def test_malformed_max_degree_env_exits_2(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("QSUPER_MAX_DEGREE", "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QSUPER_MAX_DEGREE must be an integer, not 'abc'\n"

    def test_bad_element_inputs_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(AlgebraElement.generator(S11, 1, 1).to_json()))
        b.write_text(json.dumps(AlgebraElement.generator(S21, 1, 1).to_json()))
        assert main(["mul", "--element", str(a), "--element", str(b)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 1, "n": 1, "terms": [
            {"matrix": [[0, 2], [0, 0]], "coeff": {"0": 1}}]}))
        assert main(["bar", "--element", str(bad)]) == 2
        for matrix in ([[0, 2], [0, 0]], [[0, 1, 0], [0, 0, 0]]):
            bad.write_text(json.dumps({"m": 1, "n": 1, "coords": "mixed", "terms": [
                {"matrix": matrix, "a": 0, "d": 0, "coeff": {"0": 1}}]}))
            assert main(["bar", "--element", str(bad)]) == 2
        assert main(["bar", "--element", str(tmp_path / "missing.json")]) == 2
        assert main(["act", "--gen", "E3", "--side", "left",
                     "--element", str(a)]) == 2

    @pytest.mark.parametrize("coords", ["poly", "mixed"])
    @pytest.mark.parametrize("m,matrix,coeff", [
        (1, [[1, 0], [0, 0]], {"0": 1.5}),
        (1, [[1, 0], [0, 0]], {"0": True}),
        (1, [[1, 0], [0, 0]], {"1": "2"}),
        (1, [[1.0, 0], [0, 0]], {"0": 1}),
        (1, [[1, 0, 0], [0]], {"0": 1}),
        (1, [[True, 0], [0, 0]], {"0": 1}),
        (1, [[1, 0], [0, 0]], {"1_0": 1}),
        (1, [[1, 0], [0, 0]], {" 2": 1}),
        (True, [[1, 0], [0, 0]], {"0": 1}),
    ], ids=["float_coeff", "bool_coeff", "string_coeff", "float_entry",
            "ragged_matrix", "bool_entry", "underscore_exponent",
            "spaced_exponent", "bool_shape"])
    def test_non_integer_element_json_exits_2(self, m, matrix, coeff, coords,
                                              tmp_path, capsys):
        term = {"matrix": matrix, "coeff": coeff}
        obj = {"m": m, "n": 1, "terms": [term]}
        if coords == "mixed":
            obj["coords"] = "mixed"
            term.update(a=0, d=0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["bar", "--element", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad element ")

    def test_fault_while_reducing_an_input_exits_3(self, tmp_path, capsys,
                                                   monkeypatch):
        # x11*y22 at (1|1) is unconstrained, so loading it runs the reduction
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "coords": "mixed", "terms": [
            {"matrix": [[1, 0], [0, 1]], "a": 0, "d": 0, "coeff": {"0": 1}}]}))

        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(glq, "_reduce_pair", boom)
        assert main(["reduce", "--element", str(path)]) == 3
        assert capsys.readouterr().err == "error: ValueError: boom\n"
        for bad in ({"matrix": [[1, 0], [0, 1]], "a": "0", "d": 0, "coeff": {"0": 1}},
                    {"matrix": [[1, 0], [0, 1]], "a": 0, "d": 0}):
            path.write_text(json.dumps({"m": 1, "n": 1, "coords": "mixed",
                                        "terms": [bad]}))
            assert main(["reduce", "--element", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: bad element")

    def test_suite_that_checks_nothing_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("QSUPER_MAX_DEGREE", "0")
        rc, out = run(["verify", "--suite", "cb-blocks", "--shape", "2", "1"],
                      capsys=capsys)
        assert rc == 1
        assert out.splitlines() == [
            "0 basis elements bar-invariant and unitriangular FAIL",
            "suite cb-blocks: FAIL",
        ]
