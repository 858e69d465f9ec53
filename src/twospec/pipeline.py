"""End-to-end reconstruction for both settings.

``reconstruct`` runs the chain once: the interlacing check with its band
decomposition, the family listing and the positive weight; then, on the
line, Stieltjes, the moments and the OPRL report, and on the circle, the
moments, the Verblunsky recovery, its closing by ``popuc.circle_parts``
and the POPUC report.  ``reconstruct_real`` and ``reconstruct_circle`` are
the same function.  The solution decoder reuses ``interlace``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InterlacingRejectedError
from .interlacing import CircleSpectrumPair, InterlacingVerdict, RealSpectrumPair
from .kernel import (
    WeightResult,
    WeightSelection,
    family_listing,
    positive_weight,
    setting_of,
)
from .oprl import JacobiData, moments_real, stieltjes
from .popuc import VerblunskyData, circle_parts, trig_moments, verblunsky_from_moments
from .verify import STANDARD, VerificationReport, verify_oprl, verify_popuc


@dataclass(frozen=True)
class RealSolution:
    pair: RealSpectrumPair
    verdict: InterlacingVerdict
    bands: tuple
    family_size: int
    family: tuple | None
    weight: WeightResult
    moments: tuple
    jacobi: JacobiData
    report: VerificationReport


@dataclass(frozen=True)
class CircleSolution:
    pair: CircleSpectrumPair
    verdict: InterlacingVerdict
    bands: tuple
    family_size: int
    family: tuple | None
    weight: WeightResult
    moments: tuple
    verblunsky: VerblunskyData
    b_m: complex
    c_n: tuple  # band rows (popuc.cmv_matrix)
    c_m: tuple
    psi_n: tuple
    psi_m: tuple
    report: VerificationReport


def interlace(pair) -> tuple:
    """``(verdict, bands)`` of a strictly interlacing pair in either
    setting; raises InterlacingRejectedError otherwise."""
    verdict = setting_of(pair).check(pair)
    if not verdict.accepted:
        raise InterlacingRejectedError(verdict)
    return verdict, verdict.bands


def reconstruct(pair, selection: WeightSelection | None = None, profile=STANDARD):
    """Full pipeline of the pair's setting: a RealSolution or a
    CircleSolution.  Raises InterlacingRejectedError when the prescribed
    sets do not strictly interlace, TypeError when ``pair`` is neither."""
    verdict, bands = interlace(pair)
    size, family = family_listing(bands)
    weight = positive_weight(pair, bands, selection or WeightSelection())
    omega = weight.omega
    common = dict(verdict=verdict, bands=bands, family_size=size, family=family, weight=weight)
    if isinstance(pair, RealSpectrumPair):
        jacobi = stieltjes(pair.xs, omega)
        moments = moments_real(pair.xs, omega)
        report = verify_oprl(pair, omega, jacobi, profile)
        return RealSolution(pair=pair, moments=moments, jacobi=jacobi, report=report, **common)
    moments = trig_moments(pair.zetas, omega)
    parts = circle_parts(pair, verblunsky_from_moments(moments))
    matrices = (parts["c_n"], parts["c_m"])
    report = verify_popuc(pair, omega, parts["verblunsky"], matrices, profile)
    return CircleSolution(pair=pair, moments=moments, report=report, **parts, **common)


reconstruct_real = reconstruct_circle = reconstruct
