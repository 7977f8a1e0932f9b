"""rmflab: a desk-scale laboratory for partial sums of Rademacher random
multiplicative functions.

Subpackages: primes (sieves and counting), prime_series (certified prime
sums), rmf (simulation, traces, sign changes), sequences (explicit parameter
sequences at nested-log scale), chaining (dyadic oscillation bounds),
concentration (Hoeffding / Borel-Cantelli experiments), cli (batch runner).
"""

__version__ = "0.1.0"

from .primes import (
    ChebyshevReport,
    PrimeTable,
    cached_primes,
    chebyshev_check,
    prime_count,
    sieve_primes,
)
from .prime_series import (
    CertifiedValue,
    DivergenceError,
    LogWeightedSum,
    euler_tail_constant,
    log_weighted_sum,
    prime_zeta,
    variance_sum,
    zeta,
    zetaasym_ratio,
)
from .rmf import (
    PartialSumTrace,
    ResourceLimitError,
    SignAssignment,
    SupScanResult,
    abel_identity_residual,
    partial_sum_trace,
    sample_signs,
    sign_change_counts,
    sign_change_points,
    signed_values,
    sup_scan,
)
from .sequences import (
    HarperBound,
    NestedLogReal,
    SigmaK,
    StepParams,
    StepSigma,
    SubtractionScan,
    TheoremParams,
    corollary_lower_bound,
    harper_lower_bound,
    interval_endpoints,
    intervals_disjoint,
    sigma_k,
    step_sigma_ell,
    subtraction_bound_scan,
)
from .chaining import (
    ChainingReport,
    DyadicGrid,
    LambdaSchedule,
    OscillationResult,
    chaining_R,
    chaining_bound,
    dyadic_grid,
    oscillation_batch,
    verify_chaining,
)
from .concentration import (
    BorelCantelliPartial,
    Step2Row,
    TailExperiment,
    ThreeSeriesResult,
    borel_cantelli_bigterm,
    borel_cantelli_step2,
    hoeffding_bound,
    mc_tail,
    step2_experiment,
    three_series_check,
)
