"""ProblemFile / SolutionFile schemas (version "v1") and their serializers.

Rationals travel as strings ("p/q" or an integer literal) so nothing is
lost; complex numbers travel as {"re": .., "im": ..} objects; floats use
the shortest round-trip representation.  Output is canonical (sorted keys,
two-space indent, trailing newline), so identical inputs produce
byte-identical files.

Problem values: the real setting accepts integers, "p/q" strings and
decimal strings; the circle setting accepts {"re", "im"} points, angle
strings of the form "p/q pi", and bare numbers meaning radians.  The
combination circle + rational arithmetic is rejected.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ProblemFormatError, UnsupportedArithmeticError
from .interlacing import (
    BandDecomposition,
    CircleSpectrumPair,
    InterlacingVerdict,
    RealSpectrumPair,
    circle_pair_from_angles,
    normalize_circle,
)
from .kernel import CircuitVector, WeightResult, WeightSelection
from .oprl import JacobiData, RealMomentSequence
from .pipeline import CircleSolution, RealSolution
from .poly import MonicPolynomial
from .popuc import PentadiagonalUnitary, TrigMomentSequence, VerblunskyData
from .verify import STANDARD, STRICT, Profile, VerificationReport

SCHEMA = "v1"
RATIONAL = "rational"
FLOAT64 = "float64"

_PI_TEXT = re.compile(r"(?i)^\s*(.*?)\s*\*?\s*pi\s*$")
_PARAM_KEY = re.compile(r"^s([1-9][0-9]*)$")


@dataclass(frozen=True)
class Problem:
    """A parsed problem: the spectrum pair plus run configuration."""

    setting: str
    arithmetic: str
    pair: object
    selection: WeightSelection
    profile: Profile


def loads_document(text: str) -> dict:
    """JSON load keeping float literals as strings so rational mode stays
    exact."""
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def parse_real_value(value, arithmetic):
    if isinstance(value, bool) or value is None:
        raise ProblemFormatError(f"not a real value: {value!r}")
    try:
        if isinstance(value, float):
            exact = Fraction(str(value))
        else:
            exact = Fraction(value) if not isinstance(value, str) else Fraction(value.strip())
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemFormatError(f"cannot parse real value {value!r}") from exc
    return exact if arithmetic == RATIONAL else float(exact)


def parse_angle_text(text: str) -> float:
    """Angles written as rational multiples of pi, e.g. "4/3 pi" or "-pi"."""
    m = _PI_TEXT.match(text)
    if not m:
        raise ProblemFormatError(f"not an angle: {text!r}")
    coef = m.group(1)
    if coef in ("", "+"):
        return math.pi
    if coef == "-":
        return -math.pi
    try:
        return float(Fraction(coef)) * math.pi
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFormatError(f"cannot parse angle {text!r}") from exc


def parse_circle_value(value):
    """Returns ("angle", radians) or ("point", complex)."""
    if isinstance(value, dict):
        try:
            return "point", complex(float(str(value["re"])), float(str(value["im"])))
        except (KeyError, ValueError, TypeError) as exc:
            raise ProblemFormatError(f"bad circle point {value!r}") from exc
    if isinstance(value, str):
        if _PI_TEXT.match(value):
            return "angle", parse_angle_text(value)
        try:
            return "angle", float(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"cannot parse circle value {value!r}") from exc
    if isinstance(value, (int, float)):
        return "angle", float(value)
    raise ProblemFormatError(f"cannot parse circle value {value!r}")


def parse_profile(value) -> Profile:
    if value is None:
        return STANDARD
    if isinstance(value, Profile):
        return value
    text = str(value).strip().lower()
    if text == "strict":
        return STRICT
    if text == "standard":
        return STANDARD
    try:
        return Profile.custom(float(text))
    except ValueError as exc:
        raise ProblemFormatError(f"unknown profile {value!r}") from exc


def parse_weights(doc, arithmetic) -> WeightSelection:
    if doc is None:
        return WeightSelection()
    if not isinstance(doc, dict):
        raise ProblemFormatError("weights must be an object")
    strategy = doc.get("strategy", "sum_all")
    coeffs = {}
    for key, val in (doc.get("coefficients") or {}).items():
        m = _PARAM_KEY.match(str(key))
        if not m:
            raise ProblemFormatError(f"coefficient keys look like 's1', got {key!r}")
        coeffs[int(m.group(1))] = parse_real_value(val, arithmetic)
    try:
        return WeightSelection(strategy=strategy, coefficients=coeffs)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


def load_problem(doc: dict) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem must be a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ProblemFormatError(f"unsupported schema {doc.get('schema')!r}")
    setting = doc.get("setting")
    if setting not in ("real", "circle"):
        raise ProblemFormatError(f"setting must be 'real' or 'circle', got {setting!r}")
    zn, zm = doc.get("zn"), doc.get("zm")
    if not isinstance(zn, list) or not isinstance(zm, list):
        raise ProblemFormatError("zn and zm must be arrays")

    arithmetic = doc.get("arithmetic") or (RATIONAL if setting == "real" else FLOAT64)
    if arithmetic not in (RATIONAL, FLOAT64):
        raise ProblemFormatError(f"unknown arithmetic {arithmetic!r}")
    if setting == "circle" and arithmetic == RATIONAL:
        raise UnsupportedArithmeticError(
            "circle problems run in float64; rational circle arithmetic is "
            "not supported"
        )

    if setting == "real":
        xs = tuple(parse_real_value(v, arithmetic) for v in zn)
        ys = tuple(parse_real_value(v, arithmetic) for v in zm)
        try:
            pair = RealSpectrumPair(xs=xs, ys=ys)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc
    else:
        parsed_n = [parse_circle_value(v) for v in zn]
        parsed_m = [parse_circle_value(v) for v in zm]
        try:
            if all(kind == "angle" for kind, _ in parsed_n + parsed_m):
                pair = circle_pair_from_angles(
                    [v for _, v in parsed_n], [v for _, v in parsed_m]
                )
            else:

                def as_point(kind, v):
                    return v if kind == "point" else cmath.rect(1.0, v)

                pair = normalize_circle(
                    [as_point(k, v) for k, v in parsed_n],
                    [as_point(k, v) for k, v in parsed_m],
                )
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc

    selection = parse_weights(doc.get("weights"), arithmetic)
    profile = parse_profile(doc.get("profile"))
    return Problem(
        setting=setting,
        arithmetic=arithmetic,
        pair=pair,
        selection=selection,
        profile=profile,
    )


# --------------------------------------------------------------------------
# encoding


def encode_real(x):
    if isinstance(x, float):
        return x
    return str(x)


def encode_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _encode_real_seq(xs):
    return [encode_real(x) for x in xs]


def _encode_matrix_real(rows):
    return [[encode_real(e) for e in row] for row in rows]


def _encode_matrix_complex(rows):
    return [[encode_complex(e) for e in row] for row in rows]


def _encode_circuits(circuits):
    if circuits is None:
        return None
    return [
        {"support": list(c.support), "weights": _encode_real_seq(c.weights)}
        for c in circuits
    ]


def _encode_report(report: VerificationReport) -> dict:
    return {
        "mode": report.mode,
        "profile": report.profile.name,
        "tolerance": report.profile.tolerance,
        "kernel_residual": report.kernel_residual,
        "poly_match_n": report.poly_match_n,
        "poly_match_m": report.poly_match_m,
        "spectrum_residual_n": report.spectrum_residual_n,
        "spectrum_residual_m": report.spectrum_residual_m,
        "unitarity_defect": report.unitarity_defect,
        "coefficients_ok": report.coefficients_ok,
        "verdict": "pass" if report.verdict else "fail",
        "warnings": list(report.warnings),
    }


def _encode_selection(selection: WeightSelection) -> dict:
    return {
        "strategy": selection.strategy,
        "coefficients": {
            f"s{j}": encode_real(v) for j, v in sorted(selection.coefficients.items())
        },
    }


def encode_solution(solution, problem: Problem) -> dict:
    """SolutionFile document for either setting."""
    common = {
        "schema": SCHEMA,
        "setting": problem.setting,
        "arithmetic": problem.arithmetic,
        "verdict": {
            "accepted": solution.verdict.accepted,
            "indices": list(solution.verdict.indices)
            if solution.verdict.indices is not None
            else None,
        },
        "bands": [list(b) for b in solution.bands.bands],
        "admissible": {
            "size": solution.family_size,
            "family": [list(j) for j in solution.family]
            if solution.family is not None
            else None,
        },
        "circuits": _encode_circuits(solution.weight.circuits),
        "omega": _encode_real_seq(solution.weight.omega),
        "verification": _encode_report(solution.report),
    }
    if isinstance(solution, RealSolution):
        common["problem"] = {
            "zn": _encode_real_seq(solution.pair.xs),
            "zm": _encode_real_seq(solution.pair.ys),
            "weights": _encode_selection(problem.selection),
            "profile": problem.profile.name,
        }
        common["moments"] = _encode_real_seq(solution.moments.mu)
        common["recurrence"] = {
            "beta": _encode_real_seq(solution.jacobi.beta),
            "gamma": _encode_real_seq(solution.jacobi.gamma),
        }
        common["polynomials"] = [
            _encode_real_seq(p.coeffs) for p in solution.jacobi.polys
        ]
        common["matrices"] = {"jacobi": _encode_matrix_real(solution.jacobi.matrix)}
    else:
        common["problem"] = {
            "zn": [encode_complex(z) for z in solution.pair.zetas],
            "zm": [encode_complex(z) for z in solution.pair.xis],
            "thetas": list(solution.pair.thetas),
            "phis": list(solution.pair.phis),
            "weights": _encode_selection(problem.selection),
            "profile": problem.profile.name,
        }
        common["moments"] = [encode_complex(c) for c in solution.moments.mu]
        common["recurrence"] = {
            "alpha": [encode_complex(a) for a in solution.verblunsky.alpha],
            "rho": list(solution.verblunsky.rho),
            "b_n": encode_complex(solution.verblunsky.b),
            "b_m": encode_complex(solution.b_m),
        }
        common["polynomials"] = {
            "psi_n": [encode_complex(c) for c in solution.psi_n.coeffs],
            "psi_m": [encode_complex(c) for c in solution.psi_m.coeffs],
        }
        common["matrices"] = {
            "c_n": _encode_matrix_complex(solution.c_n.entries),
            "c_m": _encode_matrix_complex(solution.c_m.entries),
        }
    return common


# --------------------------------------------------------------------------
# decoding (lossless round trip of SolutionFiles)


def _decode_complex(obj) -> complex:
    return complex(float(str(obj["re"])), float(str(obj["im"])))


def _decode_report(doc) -> VerificationReport:
    profile = Profile(name=doc["profile"], tolerance=float(str(doc["tolerance"])))
    def f(key):
        v = doc[key]
        return None if v is None else float(str(v))
    return VerificationReport(
        mode=doc["mode"],
        profile=profile,
        kernel_residual=f("kernel_residual"),
        poly_match_n=f("poly_match_n"),
        poly_match_m=f("poly_match_m"),
        spectrum_residual_n=f("spectrum_residual_n"),
        spectrum_residual_m=f("spectrum_residual_m"),
        unitarity_defect=f("unitarity_defect"),
        coefficients_ok=doc["coefficients_ok"],
        verdict=doc["verdict"] == "pass",
        warnings=tuple(doc["warnings"]),
    )


def decode_solution(doc: dict):
    """Rebuild a RealSolution / CircleSolution from its document."""
    if doc.get("schema") != SCHEMA:
        raise ProblemFormatError(f"unsupported schema {doc.get('schema')!r}")
    setting = doc["setting"]
    arithmetic = doc["arithmetic"]
    verdict = InterlacingVerdict(
        accepted=doc["verdict"]["accepted"],
        indices=tuple(doc["verdict"]["indices"])
        if doc["verdict"]["indices"] is not None
        else None,
    )
    bands = BandDecomposition(
        bands=tuple(tuple(b) for b in doc["bands"]), indices=verdict.indices
    )
    family = (
        tuple(tuple(j) for j in doc["admissible"]["family"])
        if doc["admissible"]["family"] is not None
        else None
    )
    if setting == "real":
        dec = lambda v: parse_real_value(v, arithmetic)
    else:
        dec = lambda v: float(str(v))
    circuits = doc["circuits"]
    common = dict(
        verdict=verdict,
        bands=bands,
        family_size=doc["admissible"]["size"],
        family=family,
        weight=WeightResult(
            omega=tuple(dec(v) for v in doc["omega"]),
            strategy=doc["problem"]["weights"]["strategy"],
            family_size=doc["admissible"]["size"],
            circuits=tuple(
                CircuitVector(
                    support=tuple(c["support"]),
                    weights=tuple(dec(v) for v in c["weights"]),
                )
                for c in circuits
            )
            if circuits is not None
            else None,
        ),
        report=_decode_report(doc["verification"]),
    )

    if setting == "real":
        return RealSolution(
            pair=RealSpectrumPair(
                xs=tuple(dec(v) for v in doc["problem"]["zn"]),
                ys=tuple(dec(v) for v in doc["problem"]["zm"]),
            ),
            moments=RealMomentSequence(mu=tuple(dec(v) for v in doc["moments"])),
            jacobi=JacobiData(
                beta=tuple(dec(v) for v in doc["recurrence"]["beta"]),
                gamma=tuple(dec(v) for v in doc["recurrence"]["gamma"]),
                polys=tuple(
                    MonicPolynomial(tuple(dec(v) for v in p))
                    for p in doc["polynomials"]
                ),
            ),
            **common,
        )

    def matrix(rows):
        return PentadiagonalUnitary(
            entries=tuple(tuple(_decode_complex(e) for e in row) for row in rows)
        )

    def poly(coeffs):
        return MonicPolynomial(tuple(_decode_complex(c) for c in coeffs))

    return CircleSolution(
        pair=CircleSpectrumPair(
            zetas=tuple(_decode_complex(z) for z in doc["problem"]["zn"]),
            xis=tuple(_decode_complex(z) for z in doc["problem"]["zm"]),
            thetas=tuple(dec(v) for v in doc["problem"]["thetas"]),
            phis=tuple(dec(v) for v in doc["problem"]["phis"]),
        ),
        moments=TrigMomentSequence(
            mu=tuple(_decode_complex(c) for c in doc["moments"])
        ),
        verblunsky=VerblunskyData(
            alpha=tuple(_decode_complex(a) for a in doc["recurrence"]["alpha"]),
            rho=tuple(dec(v) for v in doc["recurrence"]["rho"]),
            b=_decode_complex(doc["recurrence"]["b_n"]),
        ),
        b_m=_decode_complex(doc["recurrence"]["b_m"]),
        c_n=matrix(doc["matrices"]["c_n"]),
        c_m=matrix(doc["matrices"]["c_m"]),
        psi_n=poly(doc["polynomials"]["psi_n"]),
        psi_m=poly(doc["polynomials"]["psi_m"]),
        **common,
    )


def emit_mathematica(problem: Problem) -> str:
    """The problem in the reference notebook's call syntax (real setting
    only); output-only, never parsed back."""
    if problem.setting != "real":
        raise ProblemFormatError("notebook emission supports the real setting only")

    zn = "{" + ", ".join(str(x) for x in problem.pair.xs) + "}"
    zm = "{" + ", ".join(str(y) for y in problem.pair.ys) + "}"
    sel = problem.selection
    if sel.strategy == "sum_all":
        return f"OPRLFamily[{zn}, {zm}]"
    if sel.strategy == "coefficients":
        rules = ", ".join(
            f"s[{j}] -> {v}" for j, v in sorted(sel.coefficients.items())
        )
        return f"OPRLFamily[{zn}, {zm}, {{{rules}}}]"
    raise ProblemFormatError(
        f"strategy {sel.strategy!r} has no notebook equivalent"
    )
