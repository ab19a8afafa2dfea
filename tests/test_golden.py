"""Byte-for-byte CLI outputs, pinned in ``tests/golden/``.

Each case is a CLI invocation; its exit code and stdout are stored in
``tests/golden/<name>.out`` (first line ``rc=<code>``, then stdout).
Element inputs live in ``tests/golden/inputs/``.  To re-capture after an
intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
from contextlib import redirect_stdout

import pytest

from qsuper.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _shape_cases(m, n):
    s = f"{m}{n}"
    shape = ["--shape", str(m), str(n)]
    poly, gen, local = (f"@{k}{s}" for k in ("poly", "gen", "local"))
    rows, cols = ("1,2", "1,3") if m == 2 else ("1,2", "1,2")
    cases = {
        f"det_A_{s}": ["det", *shape, "--which", "A", "--format", "text"],
        f"det_D_{s}": ["det", *shape, "--which", "D", "--format", "text"],
        f"det_Dprime_{s}": ["det", *shape, "--which", "D'", "--format", "text"],
        f"det_Dprime_{s}_json": ["det", *shape, "--which", "D'"],
        f"ber_{s}": ["ber", *shape, "--format", "text"],
        f"ber_{s}_json": ["ber", *shape],
        f"minor_{s}": ["minor", *shape, "--rows", rows, "--cols", cols,
                       "--format", "text"],
        f"minor_star_{s}": ["minor", *shape, "--rows", rows, "--cols", cols,
                            "--star", "--format", "text"],
        f"mul_poly_{s}": ["mul", "--element", poly, "--element", gen,
                          "--format", "text"],
        f"mul_poly_{s}_json": ["mul", "--element", gen, "--element", poly],
        f"mul_local_{s}": ["mul", "--element", local, "--element", gen,
                           "--format", "text"],
        f"bar_poly_{s}": ["bar", "--element", poly, "--format", "text"],
        f"bar_local_{s}": ["bar", "--element", local, "--format", "text"],
        f"bar_local_{s}_json": ["bar", "--element", local],
        f"reduce_poly_{s}": ["reduce", "--element", poly, "--format", "text"],
        f"reduce_poly_{s}_json": ["reduce", "--element", poly],
        f"reduce_local_{s}": ["reduce", "--element", local, "--format", "text"],
        f"act_E1_left_{s}": ["act", "--gen", "E1", "--side", "left",
                             "--element", poly, "--format", "text"],
        f"act_F1_right_{s}": ["act", "--gen", "F1", "--side", "right",
                              "--element", poly, "--format", "text"],
        f"act_K1_left_{s}": ["act", "--gen", "K1", "--side", "left",
                             "--element", poly, "--format", "text"],
        f"act_E1_left_local_{s}": ["act", "--gen", "E1", "--side", "left",
                                   "--element", local, "--format", "text"],
        f"act_F1_left_local_{s}": ["act", "--gen", "F1", "--side", "left",
                                   "--element", local, "--format", "text"],
        f"act_KinvN_right_local_{s}": ["act", "--gen", f"Kinv{m + n}",
                                       "--side", "right", "--element", local],
    }
    return cases


CASES = {**_shape_cases(1, 1), **_shape_cases(2, 1), **_shape_cases(1, 2)}
# at (1|2) and (2|2) a y-letter precedes a lower-left x-letter or another
# y-letter of a later row, which (1|1) and (2|1) never show
CASES["reduce_cube_22"] = ["reduce", "--element", "@cube22", "--format", "text"]
# the odd E_2/F_2 at (2|2) on both sides: the prefix sign of the left action
# and the suffix sign of the right action on a localized element
for _gen in ("E2", "F2"):
    for _side in ("left", "right"):
        CASES[f"act_{_gen}_{_side}_local_22"] = [
            "act", "--gen", _gen, "--side", _side, "--element", "@local22",
            "--format", "text"]
for _ro, _co in (("1,1,1", "1,1,1"), ("1,1,0", "1,0,1")):
    for _variant in ("q", "qinv"):
        _name = f"cb_{_ro.replace(',', '')}_{_co.replace(',', '')}_{_variant}"
        _argv = ["cb", "--shape", "2", "1", "--ro", _ro, "--co", _co,
                 "--variant", _variant]
        CASES[_name] = _argv + ["--format", "text"]
        CASES[_name + "_json"] = _argv
CASES["inv_21"] = ["inv", "--shape", "2", "1", "--left", "E1,E2",
                   "--right", "F1,F2", "--max-degree", "3"]
CASES["inv_21_text"] = ["inv", "--shape", "2", "1", "--left", "E1,E2",
                        "--right", "F1,F2", "--max-degree", "3",
                        "--a-range=-1:1", "--d-range=0:1",
                        "--format", "text"]
CASES["inv_21_left"] = ["inv", "--shape", "2", "1", "--left", "E1,E2",
                        "--max-degree", "2", "--format", "text"]
CASES["inv_21_left_right"] = ["inv", "--shape", "2", "1", "--left", "E1",
                              "--right", "F2", "--max-degree", "2",
                              "--format", "text"]
# a window whose kernel needs a pivot that does not divide its entry
CASES["inv_21_right_E2"] = ["inv", "--shape", "2", "1", "--right", "E2", "--max-degree", "3"]
for _suite in ("relations", "laplace", "commun", "bar-minors", "cb-blocks",
               "ber-shift", "actions", "gl21"):
    CASES[f"verify_{_suite}_21"] = ["verify", "--suite", _suite, "--shape", "2", "1"]
# the first shape whose checked elements have lower coordinates over the N family
CASES["verify_cb-blocks_12"] = ["verify", "--suite", "cb-blocks", "--shape", "1", "2"]
CASES["verify_gl11_11"] = ["verify", "--suite", "gl11", "--shape", "1", "1"]
CASES["conventions"] = ["conventions"]


def _argv(argv):
    """Replace ``@name`` with the path of that input element."""
    return [
        os.path.join(GOLDEN, "inputs", a[1:] + ".json") if a.startswith("@") else a
        for a in argv
    ]


def replay(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(_argv(argv))
    return f"rc={rc}\n" + buf.getvalue()


def _path(name):
    return os.path.join(GOLDEN, name + ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    with open(_path(name), newline="") as fh:
        want = fh.read()
    assert replay(CASES[name]) == want


if __name__ == "__main__":
    for _name in sorted(CASES):
        with open(_path(_name), "w", newline="") as fh:
            fh.write(replay(CASES[_name]))
