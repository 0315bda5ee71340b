"""Dynamic Gibbs sampling for discrete Markov random fields.

Samples are maintained as editable execution logs, so a changed model is
reconciled by patching the recorded trajectory instead of rerunning it.
"""

from .coupling import (
    CorrectionKernel,
    CouplingOutcome,
    correction_kernel,
    maximal_couple,
    maximal_couple_conditional,
    p_up,
)
from .engine import ChainParams, length_fix, mixing_length, run_chain
from .execlog import ExecutionLog, Transition
from .inference import (
    DiffEntry,
    EstimatorState,
    PowerLogFn,
    Query,
    SampleDiff,
    ScheduleFns,
    ScheduleReport,
    estimate,
    incremental_apply,
    rebuild,
    sample_diff,
    schedule_check,
)
from .models import (
    MODEL_KINDS,
    ModelInfo,
    classify,
    coloring_instance,
    coloring_regime_delta,
    hardcore_instance,
    hardcore_regime_delta,
    ising_instance,
    ising_regime_delta,
    model_delta,
    regime_delta,
)
from .mrf import (
    AddEdge,
    AddVertex,
    DeleteEdge,
    DeleteVertex,
    DobrushinReport,
    EdgePotential,
    FeasibilityReport,
    InstanceDiff,
    LocalView,
    MrfInstance,
    SetEdgePotential,
    SetVertexPotential,
    SpinDomain,
    UpdateBatch,
    VertexPotential,
    dobrushin_check,
    instance_diff,
    local_restriction,
    validate_feasibility,
)
from .oracle import (
    ExactDistribution,
    exact_gibbs,
    exact_marginal,
    exact_tv,
    reference_chain,
)
from .updater import (
    ChainSet,
    UpdateMetrics,
    apply_update,
    apply_update_multi,
    execute_update,
    new_chain_set,
    plan_update,
    update_edge,
    update_hamiltonian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
