"""End-to-end reconstruction drivers for both settings.

Each driver runs the full chain -- interlacing check, band decomposition,
circuit combination, moments, recurrence recovery, matrix assembly -- and
always attaches an independent verification report.  ``interlace`` is the
shared first step and ``reconstruct`` picks the driver from the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InterlacingRejectedError
from .interlacing import (
    BandDecomposition,
    CircleSpectrumPair,
    InterlacingVerdict,
    RealSpectrumPair,
)
from .kernel import (
    REAL,
    WeightResult,
    WeightSelection,
    family_listing,
    positive_weight,
    setting_of,
)
from .oprl import JacobiData, RealMomentSequence, moments_real, stieltjes
from .poly import MonicPolynomial
from .popuc import (
    PentadiagonalUnitary,
    TrigMomentSequence,
    VerblunskyData,
    boundary_param,
    cmv_matrix,
    szego_popuc,
    trig_moments,
    verblunsky_from_moments,
)
from .verify import STANDARD, VerificationReport, verify_oprl, verify_popuc


@dataclass(frozen=True)
class RealSolution:
    pair: RealSpectrumPair
    verdict: InterlacingVerdict
    bands: BandDecomposition
    family_size: int
    family: tuple | None
    weight: WeightResult
    moments: RealMomentSequence
    jacobi: JacobiData
    report: VerificationReport


@dataclass(frozen=True)
class CircleSolution:
    pair: CircleSpectrumPair
    verdict: InterlacingVerdict
    bands: BandDecomposition
    family_size: int
    family: tuple | None
    weight: WeightResult
    moments: TrigMomentSequence
    verblunsky: VerblunskyData
    b_m: complex
    c_n: PentadiagonalUnitary
    c_m: PentadiagonalUnitary
    psi_n: MonicPolynomial
    psi_m: MonicPolynomial
    report: VerificationReport


def interlace(pair) -> tuple:
    """``(verdict, bands)`` of a strictly interlacing pair in either
    setting; raises InterlacingRejectedError otherwise."""
    setting = setting_of(pair)
    verdict = setting.check(pair)
    if not verdict.accepted:
        raise InterlacingRejectedError(verdict)
    return verdict, setting.bands(pair, verdict)


def _weighted(pair, selection):
    """The steps both drivers share: interlacing, bands, the family listing
    and the positive weight."""
    verdict, bands = interlace(pair)
    size, family = family_listing(bands)
    weight = positive_weight(pair, bands, selection or WeightSelection())
    return dict(
        verdict=verdict, bands=bands, family_size=size, family=family, weight=weight
    )


def reconstruct_real(
    pair: RealSpectrumPair,
    selection: WeightSelection | None = None,
    profile=STANDARD,
) -> RealSolution:
    """Full real-line pipeline; raises InterlacingRejectedError when the
    prescribed sets do not strictly interlace."""
    common = _weighted(pair, selection)
    omega = common["weight"].omega
    moments = moments_real(pair.xs, omega)
    jacobi = stieltjes(pair.xs, omega)
    return RealSolution(
        pair=pair,
        moments=moments,
        jacobi=jacobi,
        report=verify_oprl(pair, omega, jacobi, profile),
        **common,
    )


def reconstruct_circle(
    pair: CircleSpectrumPair,
    selection: WeightSelection | None = None,
    profile=STANDARD,
) -> CircleSolution:
    """Full circle pipeline on a normalized pair."""
    common = _weighted(pair, selection)
    omega = common["weight"].omega
    moments = trig_moments(pair.zetas, omega)
    b_n = boundary_param(pair.zetas)
    b_m = boundary_param(pair.xis)
    data = replace(verblunsky_from_moments(moments), b=b_n)
    c_n = cmv_matrix(data.alpha, b_n)
    c_m = cmv_matrix(data.alpha[: pair.m - 1], b_m)
    return CircleSolution(
        pair=pair,
        moments=moments,
        verblunsky=data,
        b_m=b_m,
        c_n=c_n,
        c_m=c_m,
        psi_n=szego_popuc(data.alpha, b_n, pair.n),
        psi_m=szego_popuc(data.alpha, b_m, pair.m),
        report=verify_popuc(pair, omega, data, (c_n, c_m), profile),
        **common,
    )


def reconstruct(pair, selection: WeightSelection | None = None, profile=STANDARD):
    """Full pipeline of the pair's setting: a RealSolution or a
    CircleSolution."""
    driver = reconstruct_real if setting_of(pair).name == REAL else reconstruct_circle
    return driver(pair, selection, profile)
