"""Command-line front end.

Subcommands: ``check`` (interlacing verdict), ``reconstruct`` (full
pipeline with verification), ``circuits`` (admissible family enumeration),
``fuzz`` (seeded random reconstruct+verify batches).  All output is JSON on
stdout in the canonical form of files.dumps_canonical (sorted keys, no
insignificant whitespace), so identical inputs and flags produce
byte-identical files; python -m json.tool --indent 2 --sort-keys
--no-ensure-ascii indents it.

Exit codes: 0 success-and-verified, 2 interlacing rejected (coincident
points included), 3 problem or reconstruction error (a usage error
included, or, code BAD_OUTPUT, an -o path that cannot be written), 4
verification failure.
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
    CIRCLE, REAL, STRATEGIES, WeightSelection, circuits, family_listing, iter_admissible,
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
    common.add_argument(
        "--strategy", choices=STRATEGIES, help="override the weight combination strategy"
    )
    problem = argparse.ArgumentParser(add_help=False, parents=[common])
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


def _error_doc(code: str, message: str) -> dict:
    return {"schema": files.SCHEMA, "error": {"code": code, "message": message}}


def _cmd_check(problem: files.Problem):
    try:
        verdict, bands = interlace(problem.pair)
    except InterlacingRejectedError as exc:
        verdict = exc.verdict
    doc = {
        "schema": files.SCHEMA,
        "command": "check",
        "setting": problem.setting,
        "accepted": verdict.accepted,
    }
    if verdict.accepted:
        if verdict.indices is not None:
            doc["indices"] = verdict.indices
        doc["bands"] = bands
    else:
        doc["code"] = verdict.code
        doc["detail"] = verdict.detail
    return EXIT_OK if verdict.accepted else EXIT_REJECTED, doc


def _cmd_circuits(problem: files.Problem):
    _, bands = interlace(problem.pair)
    size, family = family_listing(bands)
    doc = {
        "schema": files.SCHEMA,
        "command": "circuits",
        "setting": problem.setting,
        "bands": bands,
        "family_size": size,
    }
    if family is not None:
        doc["circuits"] = files.encode_circuits(circuits(problem.pair, family))
    else:
        doc["family_head"] = list(islice(iter_admissible(bands), 10))
    return EXIT_OK, doc


def _cmd_reconstruct(problem: files.Problem):
    solution = reconstruct(problem.pair, problem.selection, problem.profile)
    doc = files.encode_solution(solution, problem)
    return EXIT_OK if solution.report.verdict else EXIT_VERIFICATION, doc


def _cmd_fuzz(args):
    selection = WeightSelection(strategy=args.strategy) if args.strategy else None
    body = run_fuzz(
        args.setting, args.n, args.m, args.count, args.seed,
        files.parse_profile(args.profile), selection,
    )
    doc = {"schema": files.SCHEMA, "command": "fuzz", **body}
    return EXIT_VERIFICATION if body["failed"] else EXIT_OK, doc


def _run(args):
    """The command's exit code and its output, a document or a text."""
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    doc = _apply_overrides(_read_input(args), args)
    problem = files.load_problem(doc)
    if args.emit_mathematica:
        return EXIT_OK, files.emit_mathematica(problem) + "\n"
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
        code, out = _run(args)
    except (InterlacingRejectedError, SharedPointError, DegenerateAngleError) as exc:
        code, out = EXIT_REJECTED, {
            "schema": files.SCHEMA,
            "accepted": False,
            "code": exc.code,
            "detail": str(exc),
        }
    except TwospecError as exc:
        code, out = EXIT_ERROR, _error_doc(exc.code, str(exc))
    text = out if isinstance(out, str) else files.dumps_canonical(out)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # the error document goes to stdout instead
            message = f"cannot write {out_path}: {exc}"
            code = EXIT_ERROR
            text = files.dumps_canonical(_error_doc("BAD_OUTPUT", message))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
