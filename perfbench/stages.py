"""The program under test, called two ways.

``solve`` is what ``twospec reconstruct`` does, in process: document text
in, canonical solution text out.  ``replay`` runs the same chain stage by
stage through public functions only, recording one span per stage, so the
per-layer times come from outside the program.  The caller checks that
both give byte-identical text.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from twospec import files
from twospec.errors import InterlacingRejectedError
from twospec.interlacing import (
    bands_circle,
    bands_real,
    check_interlace_circle,
    check_interlace_real,
)
from twospec.kernel import LIST_LIMIT, admissible_family, admissible_size, positive_weight
from twospec.oprl import moments_real, stieltjes
from twospec.pipeline import (
    CircleSolution,
    RealSolution,
    reconstruct_circle,
    reconstruct_real,
)
from twospec.popuc import (
    boundary_param,
    cmv_matrix,
    szego_popuc,
    trig_moments,
    verblunsky_from_moments,
)
from twospec.verify import verify_oprl, verify_popuc

# Stage names; the part before the first dot is the layer (module).
FILES_LOAD = "files.load_s"
INTERLACING = "interlacing.s"
KERNEL = "kernel.s"
OPRL_MOMENTS = "oprl.moments_s"
OPRL_RECURRENCE = "oprl.recurrence_s"
POPUC_MOMENTS = "popuc.moments_s"
POPUC_RECURRENCE = "popuc.recurrence_s"
POPUC_ASSEMBLY = "popuc.assembly_s"
VERIFY = "verify.s"
FILES_ENCODE = "files.encode_s"
STAGES = (
    FILES_LOAD,
    INTERLACING,
    KERNEL,
    OPRL_MOMENTS,
    OPRL_RECURRENCE,
    POPUC_MOMENTS,
    POPUC_RECURRENCE,
    POPUC_ASSEMBLY,
    VERIFY,
    FILES_ENCODE,
)


def _load(text):
    return files.load_problem(files.loads_document(text))


def _encode(solution, problem):
    return files.dumps_canonical(files.encode_solution(solution, problem))


def solve(text):
    """Document text -> (problem, solution, canonical text), as the CLI's
    reconstruct command computes it."""
    problem = _load(text)
    reconstruct = reconstruct_real if problem.setting == "real" else reconstruct_circle
    solution = reconstruct(problem.pair, problem.selection, problem.profile)
    return problem, solution, _encode(solution, problem)


@dataclass
class Span:
    instance: int
    attempt: int
    name: str
    start: float
    end: float
    parent: str = "instance"
    error: str | None = None


@dataclass
class Tracer:
    """Spans of one run, kept in memory and written out at the end."""

    spans: list = field(default_factory=list)

    def stage(self, instance, attempt, name, fn, *args):
        start, error = time.perf_counter(), None
        try:
            return fn(*args)
        except BaseException as exc:
            error = getattr(exc, "code", type(exc).__name__)
            raise
        finally:
            self.spans.append(Span(instance, attempt, name, start, time.perf_counter(), error=error))


def _family(bands):
    size = admissible_size(bands)
    return size, admissible_family(bands) if size <= LIST_LIMIT else None


def _check_real(pair):
    verdict = check_interlace_real(pair)
    if not verdict.accepted:
        raise InterlacingRejectedError(verdict)
    return verdict, bands_real(pair, verdict)


def _check_circle(pair):
    verdict = check_interlace_circle(pair)
    if not verdict.accepted:
        raise InterlacingRejectedError(verdict)
    return verdict, bands_circle(pair)


def _assemble_circle(pair, data):
    b_n = boundary_param(pair.zetas)
    b_m = boundary_param(pair.xis)
    data = replace(data, b=b_n)
    c_n = cmv_matrix(data.alpha, b_n)
    c_m = cmv_matrix(data.alpha[: pair.m - 1], b_m)
    psi_n = szego_popuc(data.alpha, b_n, pair.n)
    psi_m = szego_popuc(data.alpha, b_m, pair.m)
    return data, b_m, c_n, c_m, psi_n, psi_m


def replay(text, tracer, instance, attempt):
    """The chain of ``solve``, one span per stage; returns the same triple."""
    span = lambda name, fn, *a: tracer.stage(instance, attempt, name, fn, *a)
    problem = span(FILES_LOAD, _load, text)
    pair, selection, profile = problem.pair, problem.selection, problem.profile
    if problem.setting == "real":
        verdict, bands = span(INTERLACING, _check_real, pair)
        weight = span(KERNEL, positive_weight, pair, bands, selection)
        moments = span(OPRL_MOMENTS, moments_real, pair.xs, weight.omega)
        jacobi = span(OPRL_RECURRENCE, stieltjes, pair.xs, weight.omega)
        report = span(VERIFY, verify_oprl, pair, weight.omega, jacobi, profile)
        size, family = span(KERNEL, _family, bands)
        solution = RealSolution(
            pair=pair,
            verdict=verdict,
            bands=bands,
            family_size=size,
            family=family,
            weight=weight,
            moments=moments,
            jacobi=jacobi,
            report=report,
        )
    else:
        verdict, bands = span(INTERLACING, _check_circle, pair)
        weight = span(KERNEL, positive_weight, pair, bands, selection)
        moments = span(POPUC_MOMENTS, trig_moments, pair.zetas, weight.omega)
        data = span(POPUC_RECURRENCE, verblunsky_from_moments, moments)
        data, b_m, c_n, c_m, psi_n, psi_m = span(POPUC_ASSEMBLY, _assemble_circle, pair, data)
        report = span(VERIFY, verify_popuc, pair, weight.omega, data, (c_n, c_m), profile)
        size, family = span(KERNEL, _family, bands)
        solution = CircleSolution(
            pair=pair,
            verdict=verdict,
            bands=bands,
            family_size=size,
            family=family,
            weight=weight,
            moments=moments,
            verblunsky=data,
            b_m=b_m,
            c_n=c_n,
            c_m=c_m,
            psi_n=psi_n,
            psi_m=psi_m,
            report=report,
        )
    return problem, solution, span(FILES_ENCODE, _encode, solution, problem)


def health(solution) -> dict:
    """Numerical-health figures of one solution, for the per-layer report."""
    omega = [float(w) for w in solution.weight.omega]
    out = {
        "family_log10": math.log10(solution.family_size),
        "omega_range_log10": math.log10(max(omega) / min(omega)),
        "verdict": bool(solution.report.verdict),
        "warnings": len(solution.report.warnings),
    }
    if isinstance(solution, RealSolution):
        gamma = solution.jacobi.gamma
        out["gamma_min"] = float(min(gamma))
        out["gamma_digits"] = max(_digits(g) for g in gamma)
    else:
        out["alpha_max"] = max(abs(a) for a in solution.verblunsky.alpha)
    return out


def _digits(value) -> int:
    """Decimal digits of the larger of numerator and denominator of an exact
    value; 0 for a float."""
    if isinstance(value, float):
        return 0
    bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return int(bits * math.log10(2)) + 1
