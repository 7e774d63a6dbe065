"""Command-line interface.

Exit codes: 0 success, 1 usage error (bad arguments, parse failure, or an
expression nested too deeply), 2 math-engine assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from .filtmod import MathEngineError
from .shell import ParseError, SchemaError, UsageError, run

COMMANDS = (
    "decompose", "tensor", "dual", "minimize", "support", "classify",
    "member", "hom", "gr", "fgt", "tfgt", "tate", "atlas", "verify",
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ttfilt",
        description="Exact engine for complexes of filtered modules over the "
                    "order-2 group algebra: decompositions, supports, and spectra.",
    )
    p.add_argument("--format", choices=("text", "json-like"), default="text")
    p.add_argument("--trace", action="store_true",
                   help="print which residue tests fired")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("args", nargs=argparse.REMAINDER,
                   help="expressions or options for the chosen command")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        report = run(ns.command, ns.args)
    except (UsageError, ParseError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the parser and the tree walks recurse once per level of nesting
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    except MathEngineError as exc:
        print(f"engine assertion failure: {exc}", file=sys.stderr)
        return 2
    print(report.render(ns.format, with_trace=ns.trace))
    if ns.command == "verify" and not report.ok:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
