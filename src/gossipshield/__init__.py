"""Deterministic simulator for decentralized stochastic optimization on
networks where part of the membership is unreliable.

The library couples Gaussian gradient masking (local privacy) with
self-centered clipping aggregation (Byzantine resilience), ships the attack
models and the vanilla gossip baseline needed to compare them, and evaluates
the theoretical disagreement and convergence bounds alongside measured runs.
"""

from .errors import (
    BrokenOptimumError,
    ConfigError,
    GossipShieldError,
    RegimeError,
    TopologyError,
)
from .topology import (
    Network,
    TheoryConstants,
    build_network,
    constants_from_mixing,
    mixing_sq,
    rho_upper_bound,
    theory_constants,
)
from .objectives import (
    GlobalProblem,
    LocalObjective,
    benchmark_problem,
    custom_problem,
    estimate_sigma_zeta,
    estimate_smoothness,
    family_objective,
    pl_constant_probe,
)
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule
from .aggregation import (
    Inbox,
    clip,
    gossip_mean,
    scc_aggregate,
    tau_corollary1,
    tau_remark4,
)
from .privacy import (
    DpBudget,
    GlobalDpReport,
    NoiseSpec,
    global_epsilon,
    required_variance_local,
    sensitivity_default,
)
from .attacks import ATTACK_KINDS, AttackPlan, AttackSpec, alie_coefficient
from .engine import (
    EnsembleResult,
    MetricsLog,
    TauSpec,
    consensus_error,
    optimal_gap_series,
    run,
    run_ensemble,
)
from .bounds import (
    BoundBreakdown,
    BoundTerm,
    ConvergenceBoundInputs,
    RegimeComparison,
    dk_bound,
    format_comparison_table,
    lemma2_rhs,
    regime_compare,
    theorem2_rhs,
    theorem3_rhs,
    validate_schedule,
)

__version__ = "0.1.0"
