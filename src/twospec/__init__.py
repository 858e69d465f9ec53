"""Reconstruction of finite orthogonal-polynomial families and their
spectral matrices (Jacobi on the line, unitary pentadiagonal on the circle)
from two prescribed zero sets of non-consecutive degrees.

Strict interlacing of the two sets is the exact solvability criterion; the
solution family is the cone of strictly positive kernel elements of a
Vandermonde-type system, generated by sparse one-index-per-band circuits.
Every reconstruction ships with an independent verification report.
"""

from .errors import (
    AlphaOutOfDiskError,
    DegenerateAngleError,
    DimensionTooLargeError,
    InterlacingRejectedError,
    LengthMismatchError,
    NegativeCoefficientError,
    NotCoveredError,
    NotUnitModulusError,
    ProblemFormatError,
    RankDeficientError,
    SharedPointError,
    TwospecError,
    UnsupportedArithmeticError,
    ZeroDenominatorError,
    ZeroNormError,
)
from .interlacing import (
    BandDecomposition,
    CircleSpectrumPair,
    InterlacingVerdict,
    RealSpectrumPair,
    bands_circle,
    bands_real,
    check_interlace_circle,
    check_interlace_real,
    circle_pair_from_angles,
    normalize_circle,
)
from .kernel import (
    CircuitVector,
    SystemMatrix,
    WeightResult,
    WeightSelection,
    admissible_at,
    admissible_family,
    admissible_size,
    assemble_system,
    circuit_circle,
    circuit_real,
    family_listing,
    iter_admissible,
    positive_weight,
)
from .oprl import (
    JacobiData,
    RealMomentSequence,
    eval_charpoly,
    jacobi_matrix,
    moments_real,
    stieltjes,
)
from .pipeline import (
    CircleSolution,
    RealSolution,
    interlace,
    reconstruct,
    reconstruct_circle,
    reconstruct_real,
)
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
from .verify import (
    STANDARD,
    STRICT,
    Profile,
    VerificationReport,
    brute_charpoly,
    brute_det,
    brute_nullspace,
    verify_oprl,
    verify_popuc,
)

__version__ = "0.1.0"
