"""Command-line surface.

Subcommands: construct, weights, weil, verify, sweep, export.  Exit codes:
0 success (including Match-only verification), 1 any verification mismatch
or an internal disagreement between two routes (reported on an error: line),
2 usage, parameter validation or output-file error.  Output is deterministic
for a given flag set.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import code as code_mod
from . import gf2m, predict, weil

TEXT = "text"
MACHINE = "machine"


def _int_flag(s: str) -> int:
    # accepts decimal, 0x.., 0b.. so bit-encoded moduli read naturally
    return int(s, 0)


@functools.cache  # parsing leaves the parser unchanged, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tracecodes",
        description="Trace defining-set codes: construction, weight "
        "distributions, character sums, table verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, variant=True, fmt=True):
        sp.add_argument("--m", type=int, required=True, help="extension degree")
        sp.add_argument("--h", type=int, required=True, help="proper divisor of m")
        if variant:
            sp.add_argument("--variant", choices=code_mod.KINDS, required=True)
        sp.add_argument("--modulus", type=_int_flag, default=None,
                        help="bit-encoded irreducible polynomial (default: smallest)")
        if fmt:
            sp.add_argument("--format", choices=[TEXT, MACHINE], default=TEXT)

    sp = sub.add_parser("construct", help="build a code and print its parameters")
    common(sp)

    sp = sub.add_parser("weights", help="enumerate the exact weight distribution")
    common(sp)

    sp = sub.add_parser("weil", help="evaluate S_h(a, b) directly and in closed form")
    common(sp, variant=False)
    sp.add_argument("--a", type=_int_flag, required=True)
    sp.add_argument("--b", type=_int_flag, default=0)

    sp = sub.add_parser("verify", help="check enumeration against the applicable table")
    common(sp)
    sp.add_argument("--source", choices=list(predict.SOURCES), default=None,
                    help="force a table (default: the applicable one)")

    sp = sub.add_parser("sweep", help="verify all variants over a parameter range")
    sp.add_argument("--m-min", type=int, default=3)
    sp.add_argument("--m-max", type=int, default=12)

    sp = sub.add_parser("export", help="write the generator matrix as text")
    common(sp, fmt=False)
    sp.add_argument("--out", default="-", help="output path, or - for stdout")
    return p


def _make_code(args) -> code_mod.LinearCode:
    return code_mod.make_code(gf2m.build_field(args.m, args.modulus), args.h, args.variant)


def _emit(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == MACHINE:
        for key, val in pairs:
            print(f"{key}={val}")
    else:
        print(" ".join(f"{key}={val}" for key, val in pairs))


def _cmd_construct(args) -> int:
    lc = _make_code(args)
    ctx = lc.ctx
    _emit(
        [("m", ctx.m), ("modulus", ctx.modulus), ("generator", ctx.generator),
         ("variant", args.variant), ("h", lc.h), ("n", lc.n), ("k", lc.k)],
        args.format,
    )
    if args.format == TEXT:
        print(f"modulus polynomial: {gf2m.poly_str(ctx.modulus)}")
    return 0


def _cmd_weights(args) -> int:
    lc = _make_code(args)
    dist = code_mod.weight_distribution(lc)
    _emit([("n", dist.n), ("k", dist.k), ("d", dist.d_min)], args.format)
    for w, c in sorted(dist.counts.items()):
        print(f"{w} {c}")
    return 0


def _cmd_weil(args) -> int:
    ctx = gf2m.build_field(args.m, args.modulus)
    direct = weil.weil_sum_direct(ctx, args.h, args.a, args.b)
    closed = weil.weil_sum_closed(ctx, args.h, args.a, args.b).value
    agree = direct == closed
    _emit(
        [("m", args.m), ("h", args.h), ("a", args.a), ("b", args.b),
         ("direct", direct), ("closed", closed), ("agree", int(agree))],
        args.format,
    )
    if not agree:
        raise RuntimeError("closed form disagrees with direct summation")
    return 0


def _cmd_verify(args) -> int:
    dist = code_mod.weight_distribution(_make_code(args))
    report = predict.check_case(dist, args.m, args.h, args.variant, args.source)
    if report.status == predict.INAPPLICABLE:
        _emit([("status", report.status), ("note", report.note)], args.format)
        return 0
    _emit(
        [("source", report.source), ("status", report.status), ("n", report.n),
         ("k", report.k), ("d", report.d_min), ("moment", report.moment_check)],
        args.format,
    )
    for w, expected, actual in report.details:
        marker = "ok" if expected == actual else "DIFF"
        print(f"{w} expected={expected} actual={actual} {marker}")
    if report.note:
        print(f"# {report.note}")
    return 0 if report.status == predict.MATCH else 1


def _cmd_sweep(args) -> int:
    if args.m_max < args.m_min:  # predict.sweep refuses every m out of range
        raise ValueError(f"bad range: m-min={args.m_min} m-max={args.m_max}")
    reports = predict.sweep(range(args.m_min, args.m_max + 1))
    sys.stdout.write(predict.format_sweep(reports))
    bad = [r for r in reports if not r.informational and r.status == predict.MISMATCH]
    return 1 if bad else 0


def _cmd_export(args) -> int:
    code_mod.write_generator_matrix(_make_code(args), sys.stdout if args.out == "-" else args.out)
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "weights": _cmd_weights,
    "weil": _cmd_weil,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
