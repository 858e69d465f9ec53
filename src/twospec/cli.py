"""Command-line front end.

Subcommands: ``check`` (interlacing verdict), ``reconstruct`` (full
pipeline with verification), ``circuits`` (admissible family enumeration),
``fuzz`` (seeded random reconstruct+verify batches).  All output is JSON on
stdout (canonical form: sorted keys, two-space indent), so identical inputs
and flags produce byte-identical files.

Exit codes: 0 success-and-verified, 2 interlacing rejected, 3 problem or
reconstruction error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import files
from .errors import (
    InterlacingRejectedError,
    ProblemFormatError,
    SharedPointError,
    TwospecError,
)
from .fuzz import run_fuzz
from .kernel import WeightSelection, family_listing, iter_admissible, setting_of
from .pipeline import interlace, reconstruct

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_ERROR = 3
EXIT_VERIFICATION = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", help="problem file path, or - for stdin")
    common.add_argument("-o", "--out", help="output path (default: stdout)")
    common.add_argument(
        "--arithmetic",
        choices=[files.RATIONAL, files.FLOAT64],
        help="override the problem file's arithmetic",
    )
    common.add_argument(
        "--profile",
        help="verification tolerance profile: strict, standard, or a number",
    )
    common.add_argument(
        "--strategy",
        choices=["sum_all", "coefficients", "cover"],
        help="override the weight combination strategy",
    )
    common.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="sK=V",
        help="coefficient for the (K+1)-th admissible circuit (repeatable)",
    )
    common.add_argument(
        "--emit-mathematica",
        action="store_true",
        help="print the problem in the reference notebook call syntax "
        "and exit (real setting only)",
    )

    parser = argparse.ArgumentParser(
        prog="twospec",
        description="Reconstruct orthogonal-polynomial families and their "
        "spectral matrices from two interlacing zero sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common], help="interlacing verdict only")
    sub.add_parser(
        "reconstruct", parents=[common], help="full pipeline with verification"
    )
    sub.add_parser(
        "circuits", parents=[common], help="enumerate the admissible circuits"
    )
    fz = sub.add_parser("fuzz", parents=[common], help="seeded random batches")
    fz.add_argument("--setting", choices=["real", "circle"], required=True)
    fz.add_argument("--n", type=int, required=True)
    fz.add_argument("--m", type=int, required=True)
    fz.add_argument("--count", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0)
    return parser


def _read_input(args) -> dict:
    if not args.input:
        raise ProblemFormatError("no problem file: pass -i PATH or -i -")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ProblemFormatError(f"cannot read {args.input}: {exc}") from exc
    return files.loads_document(text)


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    if args.arithmetic:
        doc["arithmetic"] = args.arithmetic
    if args.profile:
        doc["profile"] = args.profile
    weights = dict(doc.get("weights") or {})
    if args.strategy:
        weights["strategy"] = args.strategy
    if args.param:
        coeffs = dict(weights.get("coefficients") or {})
        for item in args.param:
            key, sep, value = item.partition("=")
            if not sep:
                raise ProblemFormatError(f"--param wants sK=V, got {item!r}")
            coeffs[key.strip()] = value.strip()
        weights["coefficients"] = coeffs
        weights.setdefault("strategy", "coefficients")
    if weights:
        doc["weights"] = weights
    return doc


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_doc(args, doc: dict) -> None:
    _emit(args, files.dumps_canonical(doc))


def _error_doc(code: str, message: str) -> dict:
    return {"schema": files.SCHEMA, "error": {"code": code, "message": message}}


def _cmd_check(problem: files.Problem, args) -> int:
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
            doc["indices"] = list(verdict.indices)
        doc["bands"] = [list(b) for b in bands.bands]
    else:
        doc["code"] = verdict.code
        doc["detail"] = verdict.detail
    _emit_doc(args, doc)
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def _cmd_circuits(problem: files.Problem, args) -> int:
    _, bands = interlace(problem.pair)
    size, family = family_listing(bands)
    doc = {
        "schema": files.SCHEMA,
        "command": "circuits",
        "setting": problem.setting,
        "bands": [list(b) for b in bands.bands],
        "family_size": size,
    }
    if family is not None:
        circuit = setting_of(problem.pair).circuit
        doc["circuits"] = [
            {
                "support": list(vec.support),
                "weights": files._encode_real_seq(vec.weights),
            }
            for vec in (circuit(problem.pair, s) for s in family)
        ]
    else:
        doc["family_head"] = [list(s) for s in islice(iter_admissible(bands), 10)]
    _emit_doc(args, doc)
    return EXIT_OK


def _cmd_reconstruct(problem: files.Problem, args) -> int:
    solution = reconstruct(problem.pair, problem.selection, problem.profile)
    _emit_doc(args, files.encode_solution(solution, problem))
    return EXIT_OK if solution.report.verdict else EXIT_VERIFICATION


def _cmd_fuzz(args) -> int:
    profile = files.parse_profile(args.profile)
    selection = None
    if args.strategy:
        selection = WeightSelection(strategy=args.strategy)
    report = run_fuzz(
        setting=args.setting,
        n=args.n,
        m=args.m,
        count=args.count,
        seed=args.seed,
        profile=profile,
        selection=selection,
    )
    doc = {
        "schema": files.SCHEMA,
        "command": "fuzz",
        "setting": report.setting,
        "n": report.n,
        "m": report.m,
        "count": report.count,
        "seed": report.seed,
        "profile": report.profile.name,
        "tolerance": report.profile.tolerance,
        "passed": report.passed,
        "failed": len(report.failures),
        "failures": [
            {
                "index": f.index,
                "seed": f.seed,
                "code": f.code,
                "detail": f.detail,
            }
            for f in report.failures
        ],
    }
    _emit_doc(args, doc)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        doc = _apply_overrides(_read_input(args), args)
        problem = files.load_problem(doc)
        if args.emit_mathematica:
            _emit(args, files.emit_mathematica(problem) + "\n")
            return EXIT_OK
        if args.command == "check":
            return _cmd_check(problem, args)
        if args.command == "circuits":
            return _cmd_circuits(problem, args)
        return _cmd_reconstruct(problem, args)
    except (InterlacingRejectedError, SharedPointError) as exc:
        _emit_doc(
            args,
            {
                "schema": files.SCHEMA,
                "accepted": False,
                "code": exc.code,
                "detail": str(exc),
            },
        )
        return EXIT_REJECTED
    except TwospecError as exc:
        _emit_doc(args, _error_doc(exc.code, str(exc)))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
