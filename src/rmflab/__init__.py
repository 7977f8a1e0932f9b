"""rmflab: a desk-scale laboratory for partial sums of Rademacher random
multiplicative functions.

Subpackages: primes (sieves and the shared prime table), prime_series
(certified prime sums), rmf (simulation, traces, sign changes), sequences
(explicit parameter sequences at nested-log scale), chaining (dyadic
oscillation bounds), concentration (Hoeffding / Borel-Cantelli experiments),
cli (batch runner and the acceptance check table).
"""

__version__ = "0.1.0"

from .primes import (
    ChebyshevReport,
    PrimeTable,
    cached_primes,
    chebyshev_check,
)
from .prime_series import (
    CertifiedValue,
    DivergenceError,
    LogWeightedSum,
    euler_tail_constant,
    log_weighted_sum,
    prime_zeta,
    prime_zeta_direct,
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
    SigmaK,
    StepParams,
    SubtractionScan,
    TheoremParams,
    harper_lower_bound,
    interval_endpoints,
    intervals_disjoint,
    sigma_k,
    step_sigma_ell,
    subtraction_bound_scan,
)
from .chaining import (
    ChainingReport,
    LambdaSchedule,
    OscillationResult,
    oscillation_batch,
    verify_chaining,
)
from .concentration import (
    BorelCantelliPartial,
    Step2Row,
    borel_cantelli_bigterm,
    borel_cantelli_step2,
    hoeffding_bound,
    step2_experiment,
)
