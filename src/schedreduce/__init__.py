"""Reductions between scheduling problems, with certified desk-scale bounds.

The package connects four scheduling models: jobs with fixed home
machines and precedence constraints, identical machines with
communication delays, uniformly related machines, and layered k-partite
partition instances.  Reductions between them come with forward and
backward schedule maps, exact reference solvers, a fractional-schedule
rounding pipeline, seeded generators, and a CLI (``sched-reduce``) that
certifies the relevant makespan bounds on concrete instances.
"""

from .errors import (
    BudgetExceeded,
    CoLocationViolated,
    CycleDetected,
    DegenerateInstance,
    DivisibilityError,
    EmptySchedule,
    InfeasibleInput,
    InvalidCertificate,
    JobSetMismatch,
    MachineOutOfRange,
    MakespanTooLarge,
    MaterializationTooLarge,
    MisplacedFractionExceeded,
    NonUnitLengths,
    PreconditionGamma,
    PropertyViolated,
    SchedReduceError,
    TooManyJobsPerSlot,
)
from .model import (
    CommDelayInstance,
    GroupedPlacement,
    GroupedRelatedInstance,
    GroupedSchedule,
    JobGroup,
    JobShopInstance,
    KPartiteInstance,
    MachineGroup,
    PrecedenceDag,
    RelatedInstance,
    Schedule,
    UmpsInstance,
    ValidationReport,
    Violation,
    makespan,
    topological_order,
    validate_commdelay,
    validate_grouped,
    validate_related,
    validate_umps,
)
from .reductions import (
    CommDelayReductionArtifact,
    KPartiteYesCertificate,
    RelatedReductionArtifact,
    backward_map_commdelay,
    forward_map_commdelay,
    forward_map_related,
    jobshop_to_umps,
    kpartite_to_umps,
    kpartite_yes_schedule,
    materialize_grouped_schedule,
    materialize_related,
    umps_to_commdelay,
    umps_to_related,
    validate_certificate,
    yes_schedule_offsets,
)
from .rounding import (
    FractionalSchedule,
    canonicalize,
    extract_integral,
    greedy_canonical,
    partial_load_bound_holds,
    strip_misplaced,
    window_table,
)
from .solvers import (
    SolveLimits,
    SolveResult,
    greedy_umps,
    list_schedule_commdelay,
    solve_commdelay_exact,
    solve_related_exact,
    solve_umps_exact,
    verify_no_property,
)
from .generators import (
    gen_fractional,
    gen_jobshop,
    gen_kpartite_dense,
    gen_kpartite_yes,
    gen_layered_umps,
    gen_random_umps,
)

__version__ = "0.1.0"
