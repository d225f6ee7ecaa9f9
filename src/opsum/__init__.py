"""opsum: sums of products of positive matrices at finite scale.

Decompositions of complex matrices into summands similar to positive
semidefinite matrices, zero-diagonalization, commutator, block and
Sylvester solvers, spectra and positivity of elementary operators with PSD
coefficients, and search experiments bounded by the trace obstruction.
"""

from .core import (
    DEFAULT_COND_CAP,
    DEFAULT_TOL,
    PsdCertificate,
    ShapeError,
    SpectrumReport,
    dist_to_rplus,
    eig,
    frob,
    hs_inner,
    is_psd,
    is_similar_to_positive,
    matching_distance,
    op_norm,
    positivity_certificate,
)
from .decompose import (
    DecompConfig,
    DeclinedError,
    DecompositionResult,
    FourSummandParams,
    ObstructionCertificate,
    ParameterError,
    SimilaritySummand,
    VerificationReport,
    check_obstruction,
    four_summands,
    make_summand,
    sum_of_products,
    three_summands,
    to_positive_product,
    two_summands,
    verify_decomposition,
)
from .elementary import (
    ElementaryOperator,
    GridSpec,
    HsPositivityReport,
    LudersEigenvalueDemo,
    PseudospectrumGrid,
    UnattainableEigenvalueError,
    hs_positivity,
    plant_luders_eigenvalue,
    pseudospectrum,
)
from .lab import (
    ExperimentRecord,
    OptimizationConfig,
    OptimizationTrace,
    condition_study,
    optimize_sum_of_products,
    psd_project,
    residual_lower_bound,
    study_to_csv,
    trace_to_csv,
)
from .solvers import (
    BlockMatrix2x2,
    CommutatorSolution,
    NonzeroTraceError,
    SingularBlockError,
    SpectralGapError,
    block_inverse,
    commutator_solve,
    sylvester_solve,
    zero_diagonalize,
)

__version__ = "0.1.0"
