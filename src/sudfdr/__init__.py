"""Exact and simulated false discovery rate analysis of step-up-down procedures.

The library computes, for two-group mixture models of independent p-values:

- exact joint distributions of (number of rejections, number of false
  rejections) for step-up and step-down procedures,
- exact FDR, k-FWER and the full FDP distribution of any step-up-down
  procedure,
- a nonasymptotic upper bound on how much any alternative distribution can
  exceed the Dirac-uniform FDR,
- seeded Monte-Carlo estimates serving as an independent cross-check.
"""

from sudfdr.thresholds import (
    CriticalValueFunction,
    LinearCurve,
    AorcCurve,
    CustomCurve,
    ThresholdCollection,
    from_rho,
    validate,
    curve_from_config,
)
from sudfdr.models import (
    AlternativeCdf,
    IdentityCdf,
    GaussianLocationCdf,
    DiracZeroCdf,
    StepAtOneCdf,
    MixtureConfig,
    PValueSample,
    eval_G,
    sample,
    cdf_from_config,
    mixture_from_config,
)
from sudfdr.procedures import (
    SudOutcome,
    EmpiricalCdf,
    sud_khat,
    u_operator,
    check_sandwich,
)
from sudfdr.steck import psi, psi_two_pop
from sudfdr.exact import (
    PrecisionError,
    JointPmf,
    FdrResult,
    joint_pmf,
    fdr_sud_fm,
    fdr_sud_rm,
    fdr_sud,
    fdp_cdf,
    fdp_pmf_histogram,
    fdp_mean,
    kfwer,
    sud_joint_masses,
    step_at_one_closed_forms,
)
from sudfdr.bounds import (
    BoundInputs,
    BoundResult,
    OptimizedDelta,
    u_plus_minus,
    epsilon_remainder,
    gap_bound_fm,
    gap_bound_rm,
    optimize_delta,
    aorc_v_delta,
    aorc_feasible,
)
from sudfdr.montecarlo import (
    McEstimate,
    VerdictReport,
    simulate_fdr,
    simulate_fdr_sweep,
    simulate_fdp_hist,
    simulate_kfwer,
    simulate_joint_counts,
    cross_validate,
)

__version__ = "0.1.0"
