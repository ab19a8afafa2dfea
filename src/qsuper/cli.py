"""Command-line surface: compute, verify, and serialize kernel objects.

Exit codes: 0 success, 1 verification failure, 2 usage error.  All output is
deterministic (sorted terms, canonical JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

from .laurent import Variant
from .algebra import AlgebraElement, Shape, enumerate_block, format_element
from .superspace import det_q_A, det_qinv_D, minor, minor_star
from .glq import (
    LocalElement,
    bar_local,
    berezinian,
    det_dprime_local,
    format_local,
    to_mixed,
)
from .basis import NotConstrained, omega_global
from .actions import (
    GenSymbol,
    act_left,
    act_right,
    conventions,
    invariants_window,
)
from .verify import SUITES, max_degree_cap, run_suite

__all__ = ["main"]


class UsageError(Exception):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shape(args) -> Shape:
    m, n = args.shape
    return Shape(m, n)


def _load_element(path: str):
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path) as fh:
            obj = json.load(fh)
    if obj.get("coords") == "mixed":
        return LocalElement.from_json(obj)
    return AlgebraElement.from_json(obj)


def _emit_element(f, fmt: str) -> str:
    if fmt == "json":
        return _dump(f.to_json())
    if isinstance(f, LocalElement):
        return format_local(f)
    return format_element(f)


def _parse_ints(raw: str):
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {raw!r}")


def _parse_gens(raw: str):
    if not raw:
        return ()
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        for kind in ("Kinv", "E", "F", "K"):
            if tok.startswith(kind) and tok[len(kind):].isdigit():
                out.append(GenSymbol(kind, int(tok[len(kind):])))
                break
        else:
            raise UsageError(f"bad generator token {tok!r}")
    return tuple(out)


def _parse_sector(raw: str):
    a, d = 0, 0
    for part in raw.split(","):
        key, _, val = part.partition("=")
        if key == "a":
            a = int(val)
        elif key == "d":
            d = int(val)
        else:
            raise UsageError(f"bad sector component {part!r}")
    return a, d


def _parse_range(raw: str):
    lo, _, hi = raw.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected lo:hi range, got {raw!r}")


def cmd_mul(args) -> int:
    if len(args.element) != 2:
        raise UsageError("mul needs exactly two --element inputs")
    a, b = (_load_element(p) for p in args.element)
    if isinstance(a, LocalElement) != isinstance(b, LocalElement):
        a = a if isinstance(a, LocalElement) else to_mixed(a)
        b = b if isinstance(b, LocalElement) else to_mixed(b)
    print(_emit_element(a * b, args.format))
    return 0


def cmd_bar(args) -> int:
    f = _load_element(args.element[0])
    out = bar_local(f) if isinstance(f, LocalElement) else f.bar()
    print(_emit_element(out, args.format))
    return 0


def cmd_minor(args) -> int:
    shape = _shape(args)
    rows = _parse_ints(args.rows)
    cols = _parse_ints(args.cols)
    fn = minor_star if args.star else minor
    print(_emit_element(fn(shape, rows, cols), args.format))
    return 0


def cmd_det(args) -> int:
    shape = _shape(args)
    which = args.which
    if which == "A":
        out = det_q_A(shape)
    elif which == "D":
        out = det_qinv_D(shape)
    elif which == "D'":
        out = det_dprime_local(shape)
    else:
        raise UsageError(f"unknown determinant {which!r}")
    print(_emit_element(out, args.format))
    return 0


def cmd_ber(args) -> int:
    print(_emit_element(berezinian(_shape(args)), args.format))
    return 0


def cmd_reduce(args) -> int:
    f = _load_element(args.element[0])
    if isinstance(f, AlgebraElement):
        f = to_mixed(f)
    print(_emit_element(f, args.format))
    return 0


def cmd_cb(args) -> int:
    shape = _shape(args)
    ro = _parse_ints(args.ro)
    co = _parse_ints(args.co)
    a, d = _parse_sector(args.sector)
    variant = Variant.PLUS_Q if args.variant == "q" else Variant.MINUS_Q
    out = []
    for M in enumerate_block(shape, ro, co):
        try:
            el = omega_global(shape, M, a, d, variant)
        except NotConstrained:
            continue
        out.append(el)
    if args.format == "json":
        N = shape.size
        print(_dump([
            {
                "index": {
                    "matrix": [list(el.index[0][r * N:(r + 1) * N])
                               for r in range(N)],
                    "a": el.index[1],
                    "d": el.index[2],
                },
                "variant": args.variant,
                "element": el.expansion.to_json(),
            }
            for el in out
        ]))
    else:
        for el in out:
            M, a, d = el.index
            print(f"CB[{list(M)};a={a},d={d}] = {format_local(el.expansion)}")
    return 0


def cmd_inv(args) -> int:
    shape = _shape(args)
    left = _parse_gens(args.left)
    right = _parse_gens(args.right)
    deg = max_degree_cap(args.max_degree)
    a_range = _parse_range(args.a_range)
    d_range = _parse_range(args.d_range)
    basis = invariants_window(shape, left, right, max_degree=deg,
                              a_range=a_range, d_range=d_range)
    if args.format == "json":
        print(_dump([f.to_json() for f in basis]))
    else:
        for f in basis:
            print(format_local(f))
    return 0


def cmd_act(args) -> int:
    gens = _parse_gens(args.gen)
    if len(gens) != 1:
        raise UsageError("act takes exactly one --gen")
    f = _load_element(args.element[0])
    act = act_left if args.side == "left" else act_right
    print(_emit_element(act(gens[0], f), args.format))
    return 0


def cmd_verify(args) -> int:
    shape = _shape(args)
    ok, lines = run_suite(args.suite, shape)
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_conventions(args) -> int:
    print(_dump(conventions()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsuper",
        description="exact computations in quantum supermatrix algebras",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, shape=False, element=0, fmt=True):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if shape:
            sp.add_argument("--shape", nargs=2, type=int, required=True,
                            metavar=("M", "N"))
        for _ in range(element):
            sp.add_argument("--element", action="append", default=None,
                            metavar="FILE", help="element JSON ('-' = stdin)")
        if fmt:
            sp.add_argument("--format", choices=("json", "text"),
                            default="json")
        return sp

    add("mul", cmd_mul, element=1)
    add("bar", cmd_bar, element=1)

    sp = add("minor", cmd_minor, shape=True)
    sp.add_argument("--rows", required=True)
    sp.add_argument("--cols", required=True)
    sp.add_argument("--star", action="store_true",
                    help="dual-superspace minor")

    sp = add("det", cmd_det, shape=True)
    sp.add_argument("--which", required=True, choices=("A", "D", "D'"))

    add("ber", cmd_ber, shape=True)
    add("reduce", cmd_reduce, element=1)

    sp = add("cb", cmd_cb, shape=True)
    sp.add_argument("--ro", required=True)
    sp.add_argument("--co", required=True)
    sp.add_argument("--sector", default="a=0,d=0")
    sp.add_argument("--variant", choices=("q", "qinv"), default="q")

    sp = add("inv", cmd_inv, shape=True)
    sp.add_argument("--left", default="")
    sp.add_argument("--right", default="")
    sp.add_argument("--max-degree", type=int, required=True)
    sp.add_argument("--a-range", default="0:0")
    sp.add_argument("--d-range", default="0:0")

    sp = add("act", cmd_act, element=1)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--side", choices=("left", "right"), required=True)

    sp = add("verify", cmd_verify, shape=True, fmt=False)
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))

    add("conventions", cmd_conventions, fmt=False)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        needs_element = args.fn in (cmd_mul, cmd_bar, cmd_reduce, cmd_act)
        if needs_element and not getattr(args, "element", None):
            raise UsageError(f"{args.verb} requires --element")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
