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
    InterlacingRejectedError,
    LengthMismatchError,
    NegativeCoefficientError,
    NonpositiveWeightError,
    NotCoveredError,
    NotUnitModulusError,
    ProblemFormatError,
    SharedPointError,
    TwospecError,
    UnsupportedArithmeticError,
    ZeroDenominatorError,
    ZeroNormError,
)
from .interlacing import (
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
    WeightResult,
    WeightSelection,
    admissible_at,
    admissible_family,
    admissible_size,
    assemble_system,
    circuit,
    circuits,
    family_listing,
    iter_admissible,
    positive_weight,
)
from .oprl import JacobiData, moments_real, stieltjes
from .pipeline import (
    CircleSolution,
    RealSolution,
    interlace,
    reconstruct,
    reconstruct_circle,
    reconstruct_real,
)
from .popuc import (
    VerblunskyData,
    boundary_param,
    circle_parts,
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
    verify_oprl,
    verify_popuc,
)

__version__ = "0.1.0"
