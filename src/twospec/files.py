"""ProblemFile / SolutionFile schemas (version "v1") and their serializers.

In a solution, a value's type, not its position, fixes its JSON form: an
exact rational is a string ("p/q" or an integer literal) of any length, so
nothing is lost; a binary64 real is a number in its shortest round-trip
form; a complex number is an {"re": .., "im": ..} object; an index or a size
is an integer; a tuple is an array; a BandMatrix is its dense rows.
encode_solution builds a document from the solution's own values,
dumps_canonical writes it, its json.dumps hook giving Fractions and complex
numbers their forms, and decode_value reads every value back.  Output is
canonical: by definition its bytes are those of json.dumps(doc,
sort_keys=True, separators=(",", ":"), ensure_ascii=False) of the document
with dense matrix rows, plus a newline, so identical inputs produce
byte-identical files.  For an indented view, pipe a document through
python -m json.tool --indent 2 --sort-keys --no-ensure-ascii.

Problem values: the real setting accepts integers, "p/q" strings and
decimal strings; the circle setting accepts {"re", "im"} points, angle
strings of the form "p/q pi", and bare numbers meaning radians, each value
read by its own form into (unit point, angle in [0, 2 pi)).  The problem
and solution readers refuse coincident circle points by one check,
interlacing._collision_checks.  A number text holds no "_", no space next to
"/" and no digit but 0-9, on every interpreter.  A problem value has at most
PROBLEM_DIGITS digits in its numerator and in its denominator.  The
combination circle + rational arithmetic is rejected.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain

from .errors import ProblemFormatError, TwospecError, UnsupportedArithmeticError
from .interlacing import (
    TWO_PI, UNIT_TOL, CircleSpectrumPair, RealSpectrumPair, _collision_checks, _normalize,
    angle_reading, point_reading,
)
from .kernel import (
    CIRCLE, COEFFICIENTS, LIST_LIMIT, REAL, STRATEGIES, SUM_ALL, WeightResult, WeightSelection,
    _support, check_weights, family_listing,
)
from .oprl import JacobiData, moments_real
from .pipeline import CircleSolution, RealSolution, interlace
from .popuc import VerblunskyData, circle_parts, trig_moments
from .scalars import is_exact_scalar
from .verify import (
    FLOAT64, RATIONAL, RESIDUALS, STANDARD, STRICT, Profile, VerificationReport
)

SCHEMA = "v1"

_PI_TEXT = re.compile(r"(?i)^\s*(.*?)\s*\*?\s*pi\s*$")
_PARAM_KEY = re.compile(r"^s([1-9][0-9]*)$")
_INTEGER_RATIO = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")
# A problem value has at most PROBLEM_DIGITS digits in its numerator and in
# its denominator, since reading a longer one costs time quadratic in its
# length.  Solution values are read whatever their length.  No value text
# may have an exponent of 10^4 or more: its power of ten alone would cost
# time and memory without bound, and no written value has one (a float is
# written with |exponent| <= 324, a rational as "p/q").
PROBLEM_DIGITS = 4300
_PROBLEM_BOUND = 10**PROBLEM_DIGITS
_LONG_DIGIT_RUN = re.compile(f"[0-9]{{{PROBLEM_DIGITS + 1}}}")
_EXPONENT = re.compile(r"[eE][+-]?([0-9]+)")
# Fraction reads "1_000" from Python 3.11 and "1 / 3" from 3.12, and any
# Unicode decimal digit: refusing these gives every interpreter the same
# number grammar, and makes the ASCII guards above exact
_NOT_A_NUMBER = re.compile(r"_|\s/|/\s")
_NON_ASCII_DIGIT = re.compile(r"[^\D0-9]")
_CANONICAL = dict(sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False)


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
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc


class BandMatrix:
    """An n-by-n matrix, n >= 1, as n band rows of 2h + 1 numbers, entry
    (i, j) at [i][j - i + h], written as its dense rows with ``zero`` off the
    band; a cell whose column falls outside 0..n-1 is never written."""

    def __init__(self, rows: tuple, zero):
        self.rows, self.zero = rows, zero


def dumps_canonical(doc) -> str:
    """The canonical text of doc, the module's definition: sorted keys, no
    insignificant whitespace, non-ASCII text written as is, and a closing
    newline.  A Fraction is written by encode_real, a complex number as an
    {"re", "im"} object and a BandMatrix as its dense rows; any other type
    JSON lacks is a TypeError.  Documents are trees: there is no cycle
    check, and a cyclic input is a RecursionError.

    A BandMatrix is written as a mark no string of the document holds, then
    replaced by one json.dumps of its zero and in-matrix cells, split at
    "],[" (no number's text holds it) and joined with runs of the zero."""
    matrices, mark = [], "\x00band"

    def form(value):
        kind = type(value)
        if kind is complex:
            return {"re": value.real, "im": value.imag}
        if kind is Fraction:
            return encode_real(value)
        if kind is not BandMatrix:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        matrices.append(value)
        return mark

    def dense(matrix):
        n, h = len(matrix.rows), len(matrix.rows[0]) // 2
        cells = [matrix.zero], *(r[max(h - i, 0) : n + h - i] for i, r in enumerate(matrix.rows))
        zero, *bands = dumps(cells)[2:-2].split("],[")
        lead, trail = zero + ",", "," + zero
        rows = (f"[{lead * (i - h)}{b}{trail * (n - 1 - h - i)}]" for i, b in enumerate(bands))
        return f"[{','.join(rows)}]"

    dumps = partial(json.dumps, default=form, **_CANONICAL)
    while len(parts := dumps(doc).split(json.dumps(mark))) != len(matrices) + 1:
        matrices.clear()  # a string of the document holds the mark: lengthen it
        mark += "\x00"
    # the newline joins the parts too: the text is copied once
    return "".join(chain(*zip(parts, map(dense, matrices)), parts[-1:], ["\n"]))


def parse_real_value(value, arithmetic, problem=False):
    """value as a Fraction in rational arithmetic, a float in float64.  A
    text with an exponent of 10^4 or more is refused before it is read.  A
    value of a problem document (problem=True) has at most PROBLEM_DIGITS
    digits in its numerator and in its denominator; a text that must have
    more is refused before it is read."""
    if isinstance(value, bool) or value is None:
        raise ProblemFormatError(f"not a real value: {value!r}")
    if isinstance(value, str):
        _check_text(value, problem)
        if arithmetic == FLOAT64 and len(value) <= 40:  # float() is float(exact), under the cap
            try:  # zero ("-0" reads +0.0), inf, nan and "p/q" are read below
                if (x := float(value)) and math.isfinite(x):
                    return x
            except ValueError:
                pass
    try:
        try:
            exact = Fraction(str(value) if isinstance(value, float) else value)
        except ValueError:  # such as past the int() digit limit, which decimal lacks
            m = _INTEGER_RATIO.fullmatch(value)
            if not m:
                raise
            exact = Fraction(int(Decimal(m[1])), int(Decimal(m[2] or 1)))
        if problem and max(abs(exact.numerator), exact.denominator) >= _PROBLEM_BOUND:
            raise ProblemFormatError(f"a problem value has more than {PROBLEM_DIGITS} digits")
        return exact if arithmetic == RATIONAL else float(exact)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ProblemFormatError(f"cannot parse real value {value!r}") from exc


def _check_text(text, problem):
    """Refuse a text with a non-ASCII digit, an underscore or a space next to
    "/", a text with an exponent of 10^4 or more, and a problem text whose
    number must have more than PROBLEM_DIGITS digits: a longer digit run, or
    such an exponent (the mantissa of a readable text has < 10^4 digits)."""
    if not text.isascii() and _NON_ASCII_DIGIT.search(text):
        raise ProblemFormatError(f"a number text holds a non-ASCII digit: {text[:40]!r}")
    if _NOT_A_NUMBER.search(text):
        raise ProblemFormatError(f"no '_' and no space next to '/' in {text[:40]!r}")
    exponent = _EXPONENT.search(text)
    huge = exponent and len(exponent[1].lstrip("0")) > 4
    if problem and (huge or _LONG_DIGIT_RUN.search(text)):
        raise ProblemFormatError(f"a problem value has more than {PROBLEM_DIGITS} digits")
    if huge:
        raise ProblemFormatError(f"exponent of 10^4 or more in {text[:40]!r}")


def parse_circle_value(value, tag, i):
    """The reading (unit point, angle in [0, 2 pi)) of the circle value
    tag[i], by its own form: an {"re", "im"} point by point_reading, an
    angle, or a multiple of pi such as "4/3 pi" or "-pi", by angle_reading."""
    if isinstance(value, str) and (m := _PI_TEXT.match(value)):
        coef = {"": "1", "+": "1", "-": "-1"}.get(m[1], m[1])
        return angle_reading(parse_real_value(coef, FLOAT64, problem=True) * math.pi, tag, i)
    if isinstance(value, dict) and "re" in value and "im" in value:
        parts = (parse_real_value(value[k], FLOAT64, problem=True) for k in ("re", "im"))
        return point_reading(complex(*parts), tag, i)
    if isinstance(value, (str, int, float)):
        return angle_reading(parse_real_value(value, FLOAT64, problem=True), tag, i)
    raise ProblemFormatError(f"cannot parse circle value {value!r}")


def parse_profile(value) -> Profile:
    if value is None:
        return STANDARD
    text = str(value).strip().lower()
    if text == "strict":
        return STRICT
    if text == "standard":
        return STANDARD
    try:
        tolerance = float(text)
    except ValueError as exc:
        raise ProblemFormatError(f"unknown profile {value!r}") from exc
    if not 0.0 <= tolerance < math.inf:  # NaN fails both comparisons
        raise ProblemFormatError(f"profile tolerance {value!r} must be finite and >= 0")
    return Profile.custom(tolerance)


def parse_weights(doc, arithmetic) -> WeightSelection:
    if doc is None:
        return WeightSelection()
    if not isinstance(doc, dict):
        raise ProblemFormatError("weights must be an object")
    given = {} if doc.get("coefficients") is None else doc["coefficients"]
    if (strategy := doc.get("strategy")) is None:
        strategy = COEFFICIENTS if given else SUM_ALL
    if not isinstance(given, dict):
        raise ProblemFormatError("weights.coefficients must be an object")
    coeffs = {}
    for key, val in given.items():
        m = _PARAM_KEY.match(str(key))
        if not m:
            raise ProblemFormatError(f"coefficient keys look like 's1', got {key!r}")
        value = parse_real_value(val, arithmetic, problem=True)
        if value == 0 and parse_real_value(val, RATIONAL, problem=True) != 0:
            raise ProblemFormatError(f"coefficient {key} underflows float64")
        coeffs[int(m.group(1))] = value
    try:
        return WeightSelection(strategy=strategy, coefficients=coeffs)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


def _check_kind(setting, arithmetic, zn, zm):
    """The problem's and the solution's one rule, in this order: the setting
    is real or circle, zn and zm are arrays, the arithmetic is rational or
    float64, and a circle is not rational."""
    if setting not in (REAL, CIRCLE):
        raise ProblemFormatError(f"setting must be {REAL!r} or {CIRCLE!r}, got {setting!r}")
    if not isinstance(zn, list) or not isinstance(zm, list):
        raise ProblemFormatError("zn and zm must be arrays")
    if arithmetic not in (RATIONAL, FLOAT64):
        raise ProblemFormatError(f"unknown arithmetic {arithmetic!r}")
    if setting == CIRCLE and arithmetic == RATIONAL:
        raise UnsupportedArithmeticError(
            "circle problems run in float64; rational circle arithmetic is "
            "not supported"
        )


def load_problem(doc: dict) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem must be a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ProblemFormatError(f"unsupported schema {doc.get('schema')!r}")
    setting, zn, zm = doc.get("setting"), doc.get("zn"), doc.get("zm")
    if (arithmetic := doc.get("arithmetic")) is None:
        arithmetic = RATIONAL if setting == REAL else FLOAT64
    _check_kind(setting, arithmetic, zn, zm)

    try:  # a ValueError is the pair's "need 1 <= m < n"
        if setting == REAL:
            read = partial(parse_real_value, arithmetic=arithmetic, problem=True)
            pair = RealSpectrumPair(xs=tuple(map(read, zn)), ys=tuple(map(read, zm)))
        else:
            pair = _normalize(parse_circle_value, zn, zm)
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
# the value codec: the text of a Fraction (the dumps_canonical hook writes
# it and complex numbers), and one decoder for every result value


def encode_real(x):
    """A Fraction as "p/q" or "p" text of any length."""
    try:
        return str(x)
    except ValueError:  # past the str() digit limit, which decimal lacks
        p = str(Decimal(x.numerator))
        return p if x.denominator == 1 else f"{p}/{Decimal(x.denominator)}"


def decode_value(value, arithmetic):
    """A written value read back in the document's arithmetic: an array is a
    tuple, an {"re", "im"} object a complex number, a number or numeric
    string a parse_real_value scalar, null None."""
    if isinstance(value, list):
        return tuple([decode_value(v, arithmetic) for v in value])
    if isinstance(value, dict):
        return complex(*(parse_real_value(value[k], FLOAT64) for k in ("re", "im")))
    return None if value is None else parse_real_value(value, arithmetic)


def encode_circuits(pairs):
    """``(support, entries)`` circuits as {"support", "entries"} objects, the
    entries in support order; None stays None."""
    if pairs is None:
        return None
    return [{"support": s, "entries": e} for s, e in pairs]


def _decode_report(doc) -> VerificationReport:
    """The report as verify writes it: mode rational or float64, verdict
    "pass" or "fail", a bool coefficients_ok, a named profile, no warnings,
    and a tolerance and residuals finite and >= 0 (residuals may be null)."""
    tolerance = decode_value(doc["tolerance"], FLOAT64)
    residuals = {name: decode_value(doc[name], FLOAT64) for name in RESIDUALS}
    values = (tolerance, *(r for r in residuals.values() if r is not None))
    if (doc["mode"] not in (RATIONAL, FLOAT64) or type(doc["coefficients_ok"]) is not bool
            or doc["verdict"] not in ("pass", "fail") or type(doc["profile"]) is not str
            or doc["warnings"] != [] or not all(0.0 <= v < math.inf for v in values)):
        raise ProblemFormatError("a verification value the verifier never writes")
    return VerificationReport(
        mode=doc["mode"],
        profile=Profile(doc["profile"], tolerance),
        coefficients_ok=doc["coefficients_ok"],
        verdict=doc["verdict"] == "pass",
        **residuals,
    )


def encode_solution(solution, problem: Problem) -> dict:
    """SolutionFile document for either setting."""
    selection, report = problem.selection, solution.report
    doc = {
        "schema": SCHEMA,
        "setting": problem.setting,
        "arithmetic": problem.arithmetic,
        "problem": {
            "weights": {
                "strategy": selection.strategy,
                "coefficients": {f"s{j}": v for j, v in selection.coefficients.items()},
            },
            "profile": problem.profile.name,
        },
        "verdict": {
            "accepted": solution.verdict.accepted, "indices": solution.verdict.indices
        },
        "bands": solution.bands,
        "admissible": {"size": solution.family_size, "family": solution.family},
        "omega": solution.weight.omega,
        "circuits": encode_circuits(solution.weight.circuits),
        "moments": solution.moments,
        "verification": {
            "mode": report.mode,
            "profile": report.profile.name,
            "tolerance": report.profile.tolerance,
            **{name: getattr(report, name) for name in RESIDUALS},
            "coefficients_ok": report.coefficients_ok,
            "verdict": "pass" if report.verdict else "fail",
            "warnings": report.warnings,
        },
    }
    if isinstance(solution, RealSolution):
        pair, jacobi = solution.pair, solution.jacobi
        doc["problem"].update(zn=pair.xs, zm=pair.ys)
        doc["recurrence"] = {"beta": jacobi.beta, "gamma": jacobi.gamma}
        # listed like the admissible family: P_0..P_n hold (n+1)(n+2)/2 coefficients
        listed = (pair.n + 1) * (pair.n + 2) // 2 <= LIST_LIMIT
        doc["polynomials"] = jacobi.polys if listed else None
        doc["matrices"] = {"jacobi": jacobi_band(jacobi)}
    else:
        pair, data = solution.pair, solution.verblunsky
        doc["problem"].update(
            zn=pair.zetas, zm=pair.xis, thetas=pair.thetas, phis=pair.phis
        )
        doc["recurrence"] = {
            "alpha": data.alpha, "rho": data.rho, "b_n": data.b, "b_m": solution.b_m
        }
        doc["polynomials"] = {"psi_n": solution.psi_n, "psi_m": solution.psi_m}
        doc["matrices"] = {"c_n": BandMatrix(solution.c_n, 0j), "c_m": BandMatrix(solution.c_m, 0j)}
    return doc


def jacobi_band(jacobi: JacobiData) -> BandMatrix:
    """The Jacobi matrix as rows (gamma_i, beta_i, 1), zero and one in the
    field of beta: Fractions, or 0.0 and 1.0 (not a -0.0 from beta[0] * 0)."""
    zero, one = (Fraction(0), Fraction(1)) if is_exact_scalar(jacobi.beta[0]) else (0.0, 1.0)
    band = zip((zero, *jacobi.gamma), jacobi.beta, (one,) * (jacobi.n - 1) + (zero,))
    return BandMatrix(tuple(band), zero)


def _circle_pair(zn, zm, thetas, phis) -> CircleSpectrumPair:
    """The circle pair of a solution document, held to what normalize_circle
    builds: thetas and phis strictly ascending in [phis[0], phis[0] + 2 pi)
    with thetas[0] > phis[0], each point within UNIT_TOL of the unit point
    at its angle, and no two points coinciding."""
    for angles in (phis, (phis[0], *thetas)):
        if not all(a < b for a, b in zip(angles, (*angles[1:], phis[0] + TWO_PI))):
            raise ProblemFormatError("angles not strictly ascending from phis[0]")
    for z, angle in zip((*zn, *zm), (*thetas, *phis)):
        if not abs(z - cmath.rect(1.0, angle)) <= UNIT_TOL:
            raise ProblemFormatError(f"point {z!r} is not at angle {angle!r}")
    _collision_checks(list(zip(zn, thetas)), list(zip(zm, phis)))
    return CircleSpectrumPair(zn, zm, thetas, phis)


def decode_solution(doc: dict):
    """Rebuild a RealSolution / CircleSolution from what its reconstruction
    computed: the problem's zero sets (zn/zm, and thetas/phis on the circle)
    and weight strategy, omega, the circuits (as ``(support, entries)``
    pairs), the recurrence (beta/gamma, or alpha) and the verification report.
    The rest is derived by the pipeline's own steps, never read: verdict and
    bands by interlace, the family by family_listing, the moments, and on the
    circle b_n, b_m, C_n, C_m, Psi_n and Psi_m by circle_parts.
    ProblemFormatError when a field it reads is missing or mistyped; when an
    array's length does not fit the zero sets (omega and beta n, gamma and
    alpha n-1, thetas n, phis m, and a circuit's entries as many as its
    support); when a support is not circuit_size distinct ascending ints in
    1..n; when a circle is rational; when omega (check_weights) or a circuit
    entry is not positive and finite, or the circle pair or the report is
    not one the pipeline writes (_circle_pair, _decode_report); or when a
    step refuses its value with any TwospecError."""
    try:
        if doc.get("schema") != SCHEMA:
            raise ProblemFormatError(f"unsupported schema {doc.get('schema')!r}")
        setting, arithmetic = doc["setting"], doc["arithmetic"]
        problem, rec = doc["problem"], doc["recurrence"]
        strategy = problem["weights"]["strategy"]
        _check_kind(setting, arithmetic, problem["zn"], problem["zm"])
        if strategy not in STRATEGIES:
            raise ProblemFormatError(f"unknown strategy {strategy!r}")

        def array(value, length=None):
            if not isinstance(value, list) or length not in (None, len(value)):
                want = "an array" if length is None else f"an array of {length} values"
                raise ProblemFormatError(f"expected {want}")
            return decode_value(value, arithmetic)

        zn, zm = array(problem["zn"]), array(problem["zm"])
        if setting == REAL:
            pair = RealSpectrumPair(xs=zn, ys=zm)
        else:
            angles = array(problem["thetas"], len(zn)), array(problem["phis"], len(zm))
            pair = _circle_pair(zn, zm, *angles)
        n, k = pair.n, pair.circuit_size
        verdict, bands = interlace(pair)
        size, family = family_listing(bands)
        omega = array(doc["omega"], n)
        check_weights(omega)

        def circuit(c):  # the support rule of kernel.circuits, written ascending
            s = c["support"]
            if not (isinstance(s, list) and _support(s, k, n) == tuple(s)):
                raise ProblemFormatError(f"a support holds {k} ascending indices in 1..{n}")
            entries = array(c["entries"], k)
            if not all(0 < e < math.inf for e in entries):  # admissible circuits share one sign
                raise ProblemFormatError("a circuit entry is not positive and finite")
            return tuple(s), entries

        circuits = None if doc["circuits"] is None else tuple(map(circuit, doc["circuits"]))
        common = dict(
            pair=pair, verdict=verdict, bands=bands, family_size=size, family=family,
            weight=WeightResult(omega, circuits),
            report=_decode_report(doc["verification"]),
        )
        if setting == REAL:
            jacobi = JacobiData(beta=array(rec["beta"], n), gamma=array(rec["gamma"], n - 1))
            return RealSolution(moments=moments_real(pair.xs, omega), jacobi=jacobi, **common)
        parts = circle_parts(pair, VerblunskyData(array(rec["alpha"], n - 1), None))
        return CircleSolution(moments=trig_moments(pair.zetas, omega), **parts, **common)
    except ProblemFormatError:
        raise
    except (TwospecError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed solution document: {exc!r}") from exc


def emit_mathematica(problem: Problem) -> str:
    """The problem in the reference notebook's call syntax (real setting
    only); output-only, never parsed back."""
    if problem.setting != REAL:
        raise ProblemFormatError("notebook emission supports the real setting only")

    zn = "{" + ", ".join(str(x) for x in problem.pair.xs) + "}"
    zm = "{" + ", ".join(str(y) for y in problem.pair.ys) + "}"
    sel = problem.selection
    if sel.strategy == SUM_ALL:
        return f"OPRLFamily[{zn}, {zm}]"
    if sel.strategy == COEFFICIENTS:
        rules = ", ".join(
            f"s[{j}] -> {v}" for j, v in sorted(sel.coefficients.items())
        )
        return f"OPRLFamily[{zn}, {zm}, {{{rules}}}]"
    raise ProblemFormatError(
        f"strategy {sel.strategy!r} has no notebook equivalent"
    )
