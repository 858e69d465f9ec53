"""Command-line front end.

Subcommands: ``check`` (interlacing verdict), ``reconstruct`` (full
pipeline with verification), ``circuits`` (admissible family enumeration),
``fuzz`` (seeded random reconstruct+verify batches).  All output is JSON on
stdout in the canonical form of files.dumps_canonical (sorted keys, no
insignificant whitespace), so identical inputs and flags produce
byte-identical files; python -m json.tool --indent 2 --sort-keys
--no-ensure-ascii indents it.

Exit codes, which main alone chooses from a command's outcome: 0
success-and-verified, 2 interlacing rejected (coincident points included),
3 problem or reconstruction error (a usage error included, or, code
BAD_OUTPUT, an -o path that cannot be written), 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import files
from .errors import (
    DegenerateAngleError,
    InterlacingRejectedError,
    ProblemFormatError,
    SharedPointError,
    TwospecError,
)
from .fuzz import run_fuzz
from .kernel import (
    CIRCLE, COVER, REAL, STRATEGIES, SUM_ALL, WeightSelection, circuits, family_listing,
    iter_admissible,
)
from .pipeline import interlace, reconstruct

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_ERROR = 3
EXIT_VERIFICATION = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ProblemFormatError, so they end like any other
    malformed input: exit 3 and a BAD_PROBLEM document on stdout."""

    def error(self, message):
        raise ProblemFormatError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--out", help="output path (default: stdout)")
    common.add_argument(
        "--profile",
        help="verification tolerance profile: strict, standard, or a number",
    )
    problem = argparse.ArgumentParser(add_help=False, parents=[common])
    problem.add_argument(
        "--strategy", choices=STRATEGIES, help="override the weight combination strategy"
    )
    problem.add_argument("-i", "--input", help="problem file path, or - for stdin")
    problem.add_argument(
        "--arithmetic",
        choices=[files.RATIONAL, files.FLOAT64],
        help="override the problem file's arithmetic",
    )
    problem.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="sK=V",
        help="coefficient for the (K+1)-th admissible circuit (repeatable)",
    )
    problem.add_argument(
        "--emit-mathematica",
        action="store_true",
        help="print the problem in the reference notebook call syntax "
        "and exit (real setting only)",
    )

    parser = _Parser(
        prog="twospec",
        description="Reconstruct orthogonal-polynomial families and their "
        "spectral matrices from two interlacing zero sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[problem], help="interlacing verdict only")
    sub.add_parser(
        "reconstruct", parents=[problem], help="full pipeline with verification"
    )
    sub.add_parser(
        "circuits", parents=[problem], help="enumerate the admissible circuits"
    )
    fz = sub.add_parser("fuzz", parents=[common], help="seeded random batches")
    fz.add_argument("--setting", choices=[REAL, CIRCLE], required=True)
    fz.add_argument("--n", type=int, required=True)
    fz.add_argument("--m", type=int, required=True)
    fz.add_argument("--count", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0)
    # fuzz draws no sK, so the coefficients strategy could weigh only the base circuit
    fz.add_argument("--strategy", choices=[SUM_ALL, COVER], help="the weight strategy")
    return parser


def _read_input(args) -> dict:
    if not args.input:
        raise ProblemFormatError("no problem file: pass -i PATH or -i -")
    try:  # strict UTF-8 from a file and from stdin alike
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
        return files.loads_document(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"cannot read {args.input}: {exc}") from exc


def _apply_overrides(doc: dict, args) -> dict:
    """The flags merged into the document for load_problem, which picks an
    unset strategy and refuses a non-object document, weights or coefficients."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    if args.arithmetic:
        doc["arithmetic"] = args.arithmetic
    if args.profile is not None:
        doc["profile"] = args.profile
    weights = {} if doc.get("weights") is None else doc["weights"]
    coeffs = isinstance(weights, dict) and weights.get("coefficients")
    coeffs = {} if coeffs is None else coeffs
    if (args.strategy or args.param) and isinstance(coeffs, dict):
        coeffs = dict(coeffs)
        for item in args.param:
            key, sep, value = item.partition("=")
            if not sep:
                raise ProblemFormatError(f"--param wants sK=V, got {item!r}")
            coeffs[key.strip()] = value.strip()
        doc["weights"] = {**weights, "strategy": args.strategy, "coefficients": coeffs}
    return doc


def _cmd_check(problem: files.Problem):
    verdict, bands = interlace(problem.pair)
    doc = {"command": "check", "setting": problem.setting, "accepted": True, "bands": bands}
    if verdict.indices is not None:
        doc["indices"] = verdict.indices
    return True, doc


def _cmd_circuits(problem: files.Problem):
    _, bands = interlace(problem.pair)
    size, family = family_listing(bands)
    doc = {
        "command": "circuits",
        "setting": problem.setting,
        "bands": bands,
        "family_size": size,
    }
    if family is not None:
        doc["circuits"] = files.encode_circuits(circuits(problem.pair, family))
    else:
        doc["family_head"] = list(islice(iter_admissible(bands), 10))
    return True, doc


def _cmd_reconstruct(problem: files.Problem):
    solution = reconstruct(problem.pair, problem.selection, problem.profile)
    return solution.report.verdict, files.encode_solution(solution, problem)


def _cmd_fuzz(args):
    selection = WeightSelection(strategy=args.strategy) if args.strategy else None
    body = run_fuzz(
        args.setting, args.n, args.m, args.count, args.seed,
        files.parse_profile(args.profile), selection,
    )
    return not body["failed"], {"command": "fuzz", **body}


def _run(args):
    """The command's outcome: whether it verified, and its output, a text or
    a document that main stamps with the schema."""
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    doc = _apply_overrides(_read_input(args), args)
    problem = files.load_problem(doc)
    if args.emit_mathematica:
        return True, files.emit_mathematica(problem) + "\n"
    if args.command == "check":
        return _cmd_check(problem)
    if args.command == "circuits":
        return _cmd_circuits(problem)
    return _cmd_reconstruct(problem)


def main(argv=None) -> int:
    out_path = None
    try:
        args = _build_parser().parse_args(argv)
        out_path = args.out
        verified, out = _run(args)
        code = EXIT_OK if verified else EXIT_VERIFICATION
    except (InterlacingRejectedError, SharedPointError, DegenerateAngleError) as exc:
        code, out = EXIT_REJECTED, {"accepted": False, "code": exc.code, "detail": str(exc)}
    except TwospecError as exc:
        code, out = EXIT_ERROR, {"error": {"code": exc.code, "message": str(exc)}}
    text = out if isinstance(out, str) else files.dumps_canonical({"schema": files.SCHEMA, **out})
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # the error document goes to stdout instead
            error = {"code": "BAD_OUTPUT", "message": f"cannot write {out_path}: {exc}"}
            code, text = EXIT_ERROR, files.dumps_canonical({"schema": files.SCHEMA, "error": error})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
