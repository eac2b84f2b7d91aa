"""Command line interface.

    comodcheck check <file> [--json] [--seed K] [--max-dim D] [--verbose]

Exit codes for ``check``: 0 when every law check passed, 1 when some
check failed (or could not run), 2 on a file that cannot be read as UTF-8
text and on parse or construction errors, 3 on an internal fault, reported
as one line on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .dsl import ParseError, parse
from .runner import reports_to_json, run


def _cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse(text)
        reports = run(doc, seed=args.seed, max_dim=args.max_dim)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    if args.json:
        sys.stdout.write(reports_to_json(reports))
    else:
        for r in reports:
            head = f"{r.verdict.upper():12} {r.check}"
            if r.refs:
                head += " " + " ".join(r.refs)
            if r.value is not None:
                head += f" -> {r.value}"
            print(head)
            if args.verbose:
                if r.dims:
                    print(f"    dims: {r.dims}")
                if r.details:
                    print(f"    details: {', '.join(map(str, r.details))}")
                if r.witness:
                    print(f"    witness: {r.witness}")
                print(f"    millis: {r.millis}")
            elif r.witness:
                print(f"    witness: {r.witness}")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _non_negative(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comodcheck",
        description="exact verifier for coalgebra/comodule categorical laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a document")
    p_check.add_argument("file", help="document in the definition language")
    p_check.add_argument("--json", action="store_true",
                         help="emit a machine-readable report array")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for generated instances (default 0)")
    p_check.add_argument("--max-dim", type=_non_negative, default=4,
                         help="cap per graded component for generated "
                              "instances (default 4)")
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(func=_cmd_check)
    return parser


# Built once per process: ``main`` only parses, so a caller that runs many
# documents in one process does not rebuild the tree for each.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
