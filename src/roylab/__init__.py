"""Numerical laboratory for two-group, two-sector selection with composition preferences."""

from .model import (
    AdvantageSpec,
    Composition,
    ModelParams,
    PreferenceSpec,
    SectorShares,
    TypeId,
    advantage_cdf,
    advantage_quantile,
    g_eval,
    gammas,
    h_eval,
    make_params,
    sector_shares,
)
from .equilibrium import (
    ClosedFormResult,
    ConsistencyError,
    EquilibriumPoint,
    Residual,
    classify_stability,
    efficient_composition,
    enumerate_equilibria,
    residual,
    solve_closed_form_beta1,
    solve_from_seed,
    solve_monotone_iteration,
    verify_corner,
)
from .dynamics import (
    BasinMap,
    IntegrationError,
    NudgeResult,
    PhasePortrait,
    Trajectory,
    basins,
    flow,
    integrate,
    nudge_and_settle,
    phase_portrait,
)
from .policy import (
    AmenityShift,
    FlatTax,
    Participation,
    PolicyReport,
    Quota,
    Subsidy,
    apply_policy,
    apply_tax,
    compare,
    contrarian_threshold,
    tax_equilibrium,
)
from .abm import (
    AgentPopulation,
    ConvergenceReport,
    best_response_round,
    deviation_count,
    run_to_convergence,
    sample_population,
)
from .identification import (
    CandidateParams,
    GridAxis,
    GridSpec,
    IdentifiedSet,
    NoiseSpec,
    ObservedData,
    check_inequalities,
    empirical_joint_cdf,
    equilibrium_consistent,
    g_star,
    identified_set,
    lhs_moment,
    simulate_observed_data,
)

__version__ = "0.1.0"
