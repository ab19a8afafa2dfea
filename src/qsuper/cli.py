"""Command-line surface: compute, verify, and serialize kernel objects.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments or input files), 3 kernel fault (any other exception, reported
as ``error: <Type>: <message>``).  All output is deterministic (sorted
terms, canonical JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

from .laurent import Variant
from .algebra import (
    AlgebraElement,
    Shape,
    enumerate_block,
    format_element,
    mat_rows,
)
from .superspace import det_q_A, det_qinv_D, minor, minor_star
from .glq import (
    LocalElement,
    bar_local,
    berezinian,
    det_dprime_local,
    format_local,
    is_constrained,
    to_mixed,
)
from .basis import omega_global
from .actions import (
    GenSymbol,
    act_left,
    act_right,
    conventions,
    invariants_window,
)
from .verify import FIXED_SHAPES, SUITES, run_suite

__all__ = ["main"]


class UsageError(Exception):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shape(args) -> Shape:
    m, n = args.shape
    try:
        return Shape(m, n)
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_element(path: str):
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
        if obj.get("coords") != "mixed":
            return AlgebraElement.from_json(obj)
        shape, terms = LocalElement.parse_json(obj)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            IndexError) as exc:
        raise UsageError(f"bad element {path!r}: {exc}")
    # reducing the terms is kernel work, so a fault there exits 3, not 2
    return LocalElement.from_terms(shape, terms)


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


def _parse_gens(raw: str, shape: Shape):
    """Generator tokens such as E1,F2,Kinv3, each in range for the shape."""
    if not raw:
        return ()
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        for kind in ("Kinv", "E", "F", "K"):
            if tok.startswith(kind) and tok[len(kind):].isdigit():
                gen = GenSymbol(kind, int(tok[len(kind):]))
                break
        else:
            raise UsageError(f"bad generator token {tok!r}")
        try:
            out.append(gen.validate(shape))
        except ValueError as exc:
            raise UsageError(str(exc))
    return tuple(out)


def _parse_sector(raw: str):
    powers = {}
    for part in raw.split(","):
        key, _, val = part.partition("=")
        try:
            power = int(val)
        except ValueError:
            raise UsageError(f"bad sector component {part!r}")
        if key not in ("a", "d"):
            raise UsageError(f"bad sector component {part!r}")
        if key in powers:
            raise UsageError(f"sector component {key!r} given twice")
        powers[key] = power
    return powers.get("a", 0), powers.get("d", 0)


def _parse_range(raw: str):
    lo, _, hi = raw.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected lo:hi range, got {raw!r}")
    if lo > hi:
        raise UsageError(f"empty range {raw!r}: lo exceeds hi")
    return lo, hi


def cmd_mul(args) -> int:
    if len(args.element) != 2:
        raise UsageError("mul needs exactly two --element inputs")
    a, b = (_load_element(p) for p in args.element)
    if a.shape != b.shape:
        raise UsageError(f"elements of shapes {a.shape} and {b.shape}")
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
    if not all(1 <= i <= shape.size for i in rows + cols):
        raise UsageError(f"minor indices must lie in 1..{shape.size}")
    fn = minor_star if args.star else minor
    print(_emit_element(fn(shape, rows, cols), args.format))
    return 0


def cmd_det(args) -> int:
    det = {"A": det_q_A, "D": det_qinv_D, "D'": det_dprime_local}[args.which]
    print(_emit_element(det(_shape(args)), args.format))
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
    if len(ro) != shape.size or len(co) != shape.size:
        raise UsageError(f"--ro and --co need {shape.size} entries each")
    a, d = _parse_sector(args.sector)
    variant = Variant.PLUS_Q if args.variant == "q" else Variant.MINUS_Q
    out = [omega_global(shape, M, a, d, variant)
           for M in enumerate_block(shape, ro, co) if is_constrained(shape, M)]
    if args.format == "json":
        N = shape.size
        print(_dump([
            {
                "index": {
                    "matrix": mat_rows(el.index[0], N),
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
    left = _parse_gens(args.left, shape)
    right = _parse_gens(args.right, shape)
    if args.max_degree < 0:
        raise UsageError(f"--max-degree must be at least 0, got {args.max_degree}")
    a_range = _parse_range(args.a_range)
    d_range = _parse_range(args.d_range)
    basis = invariants_window(shape, left, right, max_degree=args.max_degree,
                              a_range=a_range, d_range=d_range)
    if args.format == "json":
        print(_dump([f.to_json() for f in basis]))
    else:
        for f in basis:
            print(format_local(f))
    return 0


def cmd_act(args) -> int:
    f = _load_element(args.element[0])
    gens = _parse_gens(args.gen, f.shape)
    if len(gens) != 1:
        raise UsageError("act takes exactly one --gen")
    act = act_left if args.side == "left" else act_right
    print(_emit_element(act(gens[0], f), args.format))
    return 0


def cmd_verify(args) -> int:
    shape = _shape(args)
    fixed = FIXED_SHAPES.get(args.suite)
    if fixed is not None and shape != fixed:
        raise UsageError(
            f"suite {args.suite} runs at shape ({fixed.m}|{fixed.n}) only"
        )
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
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
