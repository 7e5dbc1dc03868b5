"""Makespan-preserving reductions between the scheduling models.

Each reduction returns an artifact: its input, its output instance and
what the schedule maps read of the construction.  An artifact file holds
only the input, and reading one runs the reduction again.

The two headline constructions:

* fixed-home jobs -> communication delays: one output job per input job
  plus one unit "anchor" job per machine; a huge delay from every job to
  its machine's anchor forces each machine's jobs onto one physical
  machine in any short schedule, and the anchors add exactly one extra
  time unit on top of an optimal input schedule.

* unit fixed-home jobs -> related machines: job l becomes a group of
  kappa^{2(m - M(l))} copies of length kappa^{M(l)-1}; machine i becomes
  kappa^{2(m-i)} machines of speed kappa^{i-1}.  A job group exactly
  fills its home machine group for one time unit, and the speed ladder
  is too steep for other groups to absorb more than a sliver of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoLocationViolated,
    DegenerateInstance,
    InfeasibleInput,
    InvalidCertificate,
    MakespanTooLarge,
    MaterializationTooLarge,
    NonUnitLengths,
)
from .model import (
    _INT,
    CommDelayInstance,
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
    _check_types,
    makespan,
    validate_commdelay,
    validate_umps,
)

MATERIALIZE_JOB_CAP = 10**6


# ---------------------------------------------------------------------------
# fixed-home jobs -> communication delays


@dataclass(frozen=True)
class CommDelayReductionArtifact:
    """Output instance plus the bookkeeping for both schedule maps.

    Output jobs 1..n are the input jobs; ``dummy_ids`` lists the anchor
    job of each machine in machine order.
    """

    output: CommDelayInstance
    c_infinity: int
    dummy_ids: tuple
    source: UmpsInstance


def umps_to_commdelay(inst: UmpsInstance) -> CommDelayReductionArtifact:
    """Build the delay instance: job edges keep delay 0, and every job
    points at its machine's unit anchor with delay n * sum(lengths)."""
    if inst.n < 2:
        raise DegenerateInstance("need at least 2 jobs for the delay threshold to separate")
    c_inf = inst.n * inst.total_length()
    n_total = inst.n + inst.m
    lengths = {l: inst.lengths[l] for l in range(1, inst.n + 1)}
    dummy_ids = tuple(inst.n + i for i in range(1, inst.m + 1))
    for d in dummy_ids:
        lengths[d] = 1
    anchors = tuple((l, inst.n + inst.home[l]) for l in range(1, inst.n + 1))
    dag = PrecedenceDag(node_count=n_total, edges=inst.dag.edges + anchors)
    # keyed by the dag's own edge objects: an anchor edge ends past n
    delays = {e: c_inf if e[1] > inst.n else 0 for e in dag.edges}
    output = CommDelayInstance(
        n_total=n_total,
        lengths=lengths,
        delays=delays,
        dag=dag,
        machines=None,
    )
    return CommDelayReductionArtifact(output=output, c_infinity=c_inf, dummy_ids=dummy_ids,
                                      source=inst)


def forward_map_commdelay(art: CommDelayReductionArtifact, sched: Schedule) -> Schedule:
    """Feasible input schedule (makespan L) -> delay schedule of makespan L+1.

    Jobs keep their intervals, machine i's anchor runs in [L, L+1) on
    machine i, so every anchor is co-located with its whole machine set
    and no large delay is ever paid.
    """
    report = validate_umps(art.source, sched)
    if not report.feasible:
        raise InfeasibleInput(f"input schedule infeasible: {report.violations[0]}")
    rows, scale = sched._rows, sched._scale
    ln = max(end for _, _, end in rows.values())  # on the schedule's time base
    entries = {l: rows[l] for l in range(1, art.source.n + 1)}
    for i, d in enumerate(art.dummy_ids, start=1):
        entries[d] = (i, ln, ln + scale)
    return Schedule._of_rows(entries, scale)


def backward_map_commdelay(art: CommDelayReductionArtifact, sched: Schedule) -> Schedule:
    """Short delay schedule -> input schedule of no larger makespan.

    Requires makespan < c_infinity, which forces each machine's jobs and
    its anchor onto one shared physical machine; dropping the anchors and
    renaming each shared machine back to its home index is then feasible.
    """
    report = validate_commdelay(art.output, sched)
    if not report.feasible:
        raise InfeasibleInput(f"delay schedule infeasible: {report.violations[0]}")
    ln = makespan(sched)
    if ln >= art.c_infinity:
        raise MakespanTooLarge(f"makespan {ln} >= delay threshold {art.c_infinity}")
    rows = sched._rows
    for i, d in enumerate(art.dummy_ids, start=1):
        anchor_machine = rows[d][0]
        for l in range(1, art.source.n + 1):
            if art.source.home[l] == i and rows[l][0] != anchor_machine:
                raise CoLocationViolated(i, (l, d))
    entries = {}
    for l in range(1, art.source.n + 1):
        _, start, end = rows[l]
        entries[l] = (art.source.home[l], start, end)
    return Schedule._of_rows(entries, sched._scale)


# ---------------------------------------------------------------------------
# job shop -> fixed-home jobs


@dataclass(frozen=True)
class JobShopReductionArtifact:
    """The fixed-home instance of a job shop, numbered job-major."""

    output: UmpsInstance
    source: JobShopInstance


def jobshop_to_umps(js: JobShopInstance) -> JobShopReductionArtifact:
    """One job per operation, chained per input job.

    Jobs are numbered job-major: operation o of input job j (both
    1-based) becomes job o plus the operation count of jobs 1..j-1, homed
    on the operation's machine with its duration as length.  The
    precedence graph is a disjoint union of chains, one per input job:
    every node has in- and out-degree at most 1.
    """
    ops = dict(enumerate((op for chain in js.jobs for op in chain), start=1))
    edges, first = [], 1
    for chain in js.jobs:
        edges += [(l, l + 1) for l in range(first, first + len(chain) - 1)]
        first += len(chain)
    output = UmpsInstance(
        n=len(ops),
        m=js.machine_count,
        lengths={l: dur for l, (_, dur) in ops.items()},
        home={l: machine for l, (machine, _) in ops.items()},
        dag=PrecedenceDag(node_count=len(ops), edges=tuple(edges)),
    )
    return JobShopReductionArtifact(output=output, source=js)


# ---------------------------------------------------------------------------
# unit fixed-home jobs -> related machines


@dataclass(frozen=True)
class RelatedReductionArtifact:
    """Grouped output plus the kappa bookkeeping.

    Job group l is input job l and machine group i is input machine i.
    ``kappa_meets_bound`` records whether kappa >= 10 n^3 m, the
    precondition of the misplaced-fraction argument; overriding kappa
    below that keeps the construction well-defined but voids the bound.
    """

    output: GroupedRelatedInstance
    kappa: int
    kappa_meets_bound: bool
    source: UmpsInstance


def umps_to_related(inst: UmpsInstance, kappa_override: int = None) -> RelatedReductionArtifact:
    """Group construction with kappa = 10 n^3 m (or the override, >= 2).

    Identities baked into the exponents: a job group has exactly as many
    members as its home machine group has machines, and member length
    over home speed is exactly 1, so one group fills its home group for
    one unit of time.
    """
    if not inst.unit_lengths:
        raise NonUnitLengths("the related-machines construction needs unit job lengths")
    default_kappa = 10 * inst.n**3 * inst.m
    kappa = default_kappa if kappa_override is None else kappa_override
    _check_types(_INT, "kappa", (kappa,))
    if kappa < 2:
        raise ValueError(f"kappa must be >= 2, got {kappa}")
    machine_groups = tuple(
        MachineGroup(multiplicity=kappa ** (2 * (inst.m - i)), speed=kappa ** (i - 1))
        for i in range(1, inst.m + 1)
    )
    # job l's group takes the multiplicity and speed of its home group as
    # its multiplicity and length; the source's dag is the group dag
    homes = [machine_groups[inst.home[l] - 1] for l in range(1, inst.n + 1)]
    job_groups = tuple(JobGroup(multiplicity=mg.multiplicity, length=mg.speed, origin_job=l)
                       for l, mg in enumerate(homes, start=1))
    output = GroupedRelatedInstance(
        job_groups=job_groups, machine_groups=machine_groups, group_dag=inst.dag)
    return RelatedReductionArtifact(output=output, kappa=kappa,
                                    kappa_meets_bound=kappa >= default_kappa, source=inst)


def forward_map_related(art: RelatedReductionArtifact, sched: Schedule) -> GroupedSchedule:
    """Unit-slot input schedule -> grouped schedule of the same makespan:
    each whole job group occupies its home machine group during the
    job's slot."""
    report = validate_umps(art.source, sched)
    if not report.feasible:
        raise InfeasibleInput(f"input schedule infeasible: {report.violations[0]}")
    rows, home = sched._rows, art.source.home
    groups = art.output.job_groups
    return GroupedSchedule._of_rows(tuple(
        (l, home[l], rows[l][1], rows[l][2], groups[l - 1].multiplicity)
        for l in range(1, art.source.n + 1)), sched._scale)


def materialize_related(ginst: GroupedRelatedInstance):
    """Expand groups into a flat related-machines instance.

    Only sensible for small kappa; refuses when the expanded job count
    exceeds ``MATERIALIZE_JOB_CAP``.  Returns ``(instance, job_base,
    machine_base)`` where members of job group g are jobs job_base[g]+1
    .. job_base[g+1] and likewise for machines.
    """
    total = ginst.total_jobs()
    if total > MATERIALIZE_JOB_CAP:
        raise MaterializationTooLarge(f"{total} expanded jobs exceed the cap {MATERIALIZE_JOB_CAP}")
    job_base = [0]
    for jg in ginst.job_groups:
        job_base.append(job_base[-1] + jg.multiplicity)
    machine_base = [0]
    for mg in ginst.machine_groups:
        machine_base.append(machine_base[-1] + mg.multiplicity)
    jobs, speeds = [], []
    for jg in ginst.job_groups:
        jobs.extend([jg.length] * jg.multiplicity)
    for mg in ginst.machine_groups:
        speeds.extend([mg.speed] * mg.multiplicity)
    edges = []
    for gu, gv in ginst.group_dag.edges:
        for u in range(job_base[gu - 1] + 1, job_base[gu] + 1):
            for v in range(job_base[gv - 1] + 1, job_base[gv] + 1):
                edges.append((u, v))
    inst = RelatedInstance(
        machines=tuple(speeds),
        jobs=tuple(jobs),
        dag=PrecedenceDag(node_count=len(jobs), edges=tuple(edges)),
    )
    return inst, tuple(job_base), tuple(machine_base)


def materialize_grouped_schedule(ginst: GroupedRelatedInstance, gs: GroupedSchedule) -> Schedule:
    """Expand a grouped schedule over the materialized instance: the k-th
    placed member of a group lands on the k-th machine used of its
    placement's machine group."""
    _, job_base, machine_base = materialize_related(ginst)
    next_member = [job_base[g] for g in range(len(ginst.job_groups) + 1)]
    entries = {}
    # placements go in (start, group) order, and each takes the
    # lowest-numbered machines of its machine group that are free by its
    # start; a machine is free once its last placement has ended.  Times
    # stay on the grouped schedule's time base.
    busy_until = {}  # machine index -> end time of its last placement
    for group, machine_group, start, end, count in sorted(gs._rows, key=lambda r: (r[2], r[0])):
        base = machine_base[machine_group - 1]
        cap = machine_base[machine_group] - base
        assigned = 0
        for k in range(1, cap + 1):
            if assigned == count:
                break
            machine = base + k
            if busy_until.get(machine, 0) <= start:
                job = next_member[group - 1] + 1
                if job > job_base[group]:
                    raise InfeasibleInput(
                        f"job group {group} places more members than its multiplicity"
                    )
                next_member[group - 1] = job
                entries[job] = (machine, start, end)
                busy_until[machine] = end
                assigned += 1
        if assigned < count:
            raise InfeasibleInput(f"machine group {machine_group} cannot host {count} members "
                                  f"at {Fraction(start, gs._scale)}")
    return Schedule._of_rows(entries, gs._scale)


# ---------------------------------------------------------------------------
# k-partite graphs -> fixed-home jobs


def kpartite_to_umps(g: KPartiteInstance) -> UmpsInstance:
    """One unit job per vertex, homed on its layer's machine; graph edges
    become precedence edges."""
    n_jobs = g.vertex_count()
    lengths = {v: 1 for v in range(1, n_jobs + 1)}
    home = {v: g.layer_of(v) for v in range(1, n_jobs + 1)}
    edges = tuple(e for es in g.edges for e in es)
    return UmpsInstance(
        n=n_jobs,
        m=g.k,
        lengths=lengths,
        home=home,
        dag=PrecedenceDag(node_count=n_jobs, edges=edges),
    )


@dataclass(frozen=True)
class KPartiteYesCertificate:
    """Per layer, an ordered list of Q cells partitioning that layer."""

    partition: tuple  # partition[i-1][j] = tuple of vertex ids in cell j of layer i

    def __post_init__(self):
        partition = tuple(tuple(tuple(cell) for cell in layer) for layer in self.partition)
        _check_types(_INT, "certificate vertex", *(cell for layer in partition for cell in layer))
        object.__setattr__(self, "partition", partition)


def validate_certificate(g: KPartiteInstance, cert: KPartiteYesCertificate) -> None:
    """Raise unless the cells partition each layer, are large enough, and
    no edge goes from a later cell to an earlier one in the next layer."""
    if len(cert.partition) != g.k:
        raise InvalidCertificate(f"expected {g.k} layers, got {len(cert.partition)}")
    min_size = (1 - g.eps) * Fraction(g.n, g.Q)
    cell_of = {}
    for i, layer_cells in enumerate(cert.partition, start=1):
        if len(layer_cells) != g.Q:
            raise InvalidCertificate(f"layer {i}: expected {g.Q} cells, got {len(layer_cells)}")
        covered = [v for cell in layer_cells for v in cell]
        if sorted(covered) != list(g.layers[i - 1]):
            raise InvalidCertificate(f"layer {i}: cells do not partition the layer")
        for j, cell in enumerate(layer_cells):
            if len(cell) < min_size:
                raise InvalidCertificate(
                    f"layer {i}, cell {j}: size {len(cell)} below {min_size}", witness=(i, j)
                )
            for v in cell:
                cell_of[v] = j
    for i, es in enumerate(g.edges, start=1):
        for u, v in es:
            if cell_of[u] > cell_of[v]:
                raise InvalidCertificate(
                    f"edge ({u}, {v}) goes from cell {cell_of[u]} to earlier cell {cell_of[v]}",
                    witness=(u, v),
                )


def yes_schedule_offsets(g: KPartiteInstance):
    """Start offset t_i = (i-1) * n * (eps + 1/Q) of each layer's machine."""
    step = g.n * (g.eps + Fraction(1, g.Q))
    return {i: (i - 1) * step for i in range(1, g.k + 1)}


def kpartite_yes_schedule(g: KPartiteInstance, cert: KPartiteYesCertificate) -> Schedule:
    """Staircase schedule from a cell partition.

    Machine i runs its cells back to back starting at t_i; the stagger
    between consecutive layers covers one full cell plus the slack eps*n,
    so each cell finishes before any successor cell with an edge into it
    begins.  Makespan is at most t_k + n <= 3n.
    """
    validate_certificate(g, cert)
    offsets = yes_schedule_offsets(g)
    entries = {}
    for i in range(1, g.k + 1):
        cursor = offsets[i]
        for cell in cert.partition[i - 1]:
            for v in sorted(cell):
                entries[v] = (i, cursor, cursor + 1)
                cursor += 1
    return Schedule(entries=entries)
