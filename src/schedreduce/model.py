"""Problem instances, schedules, and feasibility validators.

Conventions used throughout the package:

* jobs, machines, layers and slots are 1-based dense integer indices;
* all times are exact ``fractions.Fraction`` values (integer data stays
  integral along every arithmetic path, so there are no tolerances);
* job intervals are half-open ``[start, end)``, so touching intervals do
  not overlap and a successor may start exactly when its predecessor ends;
* instances and schedules are frozen dataclasses, treated as immutable
  values after construction.

Validators never raise on an infeasible schedule; they return a
:class:`ValidationReport` listing every violation found.  Structural
problems (wrong job set, machine index out of range) raise instead,
because no report could be interpreted for them.  The validators check
on an integer time base: every time is multiplied once by the LCM of the
denominators, so the checks add and compare plain integers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    CycleDetected,
    EmptySchedule,
    JobSetMismatch,
    MachineOutOfRange,
)

Rational = Union[int, Fraction]


def as_fraction(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


# ---------------------------------------------------------------------------
# precedence graphs


@dataclass(frozen=True)
class PrecedenceDag:
    """Precedence constraints over nodes 1..node_count; (u, v) means u before v.

    Construction rejects out-of-range endpoints, self-loops, duplicate
    edges and cycles, so a live instance is always a DAG.  When every edge
    points forward (1 <= u < v <= node_count) and none repeats, index
    order is already topological, so admission is one pass over the
    sorted edges; any other edge set gets the full range, self-loop,
    duplicate and cycle checks, with the same errors.
    """

    node_count: int
    edges: tuple = ()

    def __post_init__(self):
        # stored sorted so equal edge sets compare (and serialize) equal
        edges = tuple(sorted((int(u), int(v)) for u, v in self.edges))
        object.__setattr__(self, "edges", edges)
        n = self.node_count
        if n < 0:
            raise ValueError(f"node_count must be >= 0, got {n}")
        if isinstance(n, int):
            prev = None
            for edge in edges:
                u, v = edge
                if not 1 <= u < v <= n or edge == prev:
                    break
                prev = edge
            else:
                return
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        topological_order(self)  # raises CycleDetected on a cycle

    def successors(self) -> dict:
        out = {u: [] for u in range(1, self.node_count + 1)}
        for u, v in self.edges:
            out[u].append(v)
        return out


def topological_order(dag: PrecedenceDag) -> list:
    """Kahn's algorithm with a min-heap, so ties go to the lowest index."""
    indeg = {u: 0 for u in range(1, dag.node_count + 1)}
    succ = {u: [] for u in range(1, dag.node_count + 1)}
    for u, v in dag.edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = [u for u in indeg if indeg[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != dag.node_count:
        remaining = {u for u in indeg if indeg[u] > 0}
        witness = _find_cycle(remaining, succ)
        raise CycleDetected(witness)
    return order


def _find_cycle(remaining, succ):
    start = min(remaining)
    path, seen = [], {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(v for v in succ[node] if v in remaining)
    return path[seen[node]:] + [node]


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class UmpsInstance:
    """Jobs with fixed home machines and precedence constraints.

    ``lengths`` and ``home`` map each job 1..n to its processing time and
    its unique machine in 1..m.  The machine sets J(i) are derived.
    """

    n: int
    m: int
    lengths: dict
    home: dict
    dag: PrecedenceDag

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise ValueError("job and machine counts must be integers")
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one job and one machine")
        jobs = set(range(1, self.n + 1))
        if set(self.lengths) != jobs or set(self.home) != jobs:
            raise ValueError("lengths and home must cover exactly jobs 1..n")
        for l, p in self.lengths.items():
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"job {l}: length {p} must be a positive integer")
        for l, i in self.home.items():
            if not isinstance(i, int) or not 1 <= i <= self.m:
                raise ValueError(f"job {l}: home machine {i} must be an integer in 1..{self.m}")
        if self.dag.node_count != self.n:
            raise ValueError("dag node count must equal the job count")

    def jobs_on(self, machine: int) -> list:
        return [l for l in range(1, self.n + 1) if self.home[l] == machine]

    def total_length(self) -> int:
        return sum(self.lengths.values())

    @property
    def unit_lengths(self) -> bool:
        return all(p == 1 for p in self.lengths.values())


@dataclass(frozen=True)
class JobShopInstance:
    """Chains of operations; each operation is a (machine, duration) pair."""

    jobs: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "jobs",
            tuple(tuple((int(mi), int(p)) for mi, p in chain) for chain in self.jobs),
        )
        if not self.jobs or any(not chain for chain in self.jobs):
            raise ValueError("need at least one job, each with at least one operation")
        for chain in self.jobs:
            for mi, p in chain:
                if mi < 1 or p < 1:
                    raise ValueError(f"operation ({mi}, {p}) must have machine, duration >= 1")

    @property
    def machine_count(self) -> int:
        return max(mi for chain in self.jobs for mi, _ in chain)


@dataclass(frozen=True)
class CommDelayInstance:
    """Identical machines, per-edge communication delays.

    ``machines`` is the machine count, or ``None`` for unlimited machines.
    ``delays`` maps each dag edge (u, v) to a nonnegative integer delay:
    if u and v run on different machines, v starts at least ``delay`` after
    u ends; co-located jobs only obey plain precedence.
    """

    n_total: int
    lengths: dict
    delays: dict
    dag: PrecedenceDag
    machines: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "delays", {(int(u), int(v)): int(c) for (u, v), c in self.delays.items()}
        )
        jobs = set(range(1, self.n_total + 1))
        if set(self.lengths) != jobs:
            raise ValueError("lengths must cover exactly jobs 1..n_total")
        for l, p in self.lengths.items():
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"job {l}: length {p} must be a positive integer")
        if self.dag.node_count != self.n_total:
            raise ValueError("dag node count must equal n_total")
        if set(self.delays) != set(self.dag.edges):
            raise ValueError("delays must cover exactly the dag edges")
        if any(c < 0 for c in self.delays.values()):
            raise ValueError("delays must be nonnegative")
        if self.machines is not None and (not isinstance(self.machines, int) or self.machines < 1):
            raise ValueError("machine count must be an integer >= 1 (or None for unlimited)")


@dataclass(frozen=True)
class RelatedInstance:
    """Uniformly related machines: job j on machine i takes jobs[j]/machines[i]."""

    machines: tuple  # speeds s_i >= 1
    jobs: tuple      # lengths p_j >= 1
    dag: PrecedenceDag

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(int(s) for s in self.machines))
        object.__setattr__(self, "jobs", tuple(int(p) for p in self.jobs))
        if not self.machines or not self.jobs:
            raise ValueError("need at least one machine and one job")
        if any(s < 1 for s in self.machines) or any(p < 1 for p in self.jobs):
            raise ValueError("speeds and lengths must be >= 1")
        if self.dag.node_count != len(self.jobs):
            raise ValueError("dag node count must equal the job count")

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def m(self) -> int:
        return len(self.machines)

    def duration(self, job: int, machine: int) -> Fraction:
        return Fraction(self.jobs[job - 1], self.machines[machine - 1])


@dataclass(frozen=True)
class JobGroup:
    """``multiplicity`` copies of a length-``length`` job, from ``origin_job``."""

    multiplicity: int
    length: int
    origin_job: int

    def __post_init__(self):
        if not (isinstance(self.multiplicity, int) and isinstance(self.length, int)
                and isinstance(self.origin_job, int)):
            raise ValueError("multiplicity, length and origin job must be integers")
        if self.multiplicity < 1 or self.length < 1:
            raise ValueError("multiplicity and length must be >= 1")


@dataclass(frozen=True)
class MachineGroup:
    multiplicity: int
    speed: int

    def __post_init__(self):
        if not isinstance(self.multiplicity, int) or not isinstance(self.speed, int):
            raise ValueError("multiplicity and speed must be integers")
        if self.multiplicity < 1 or self.speed < 1:
            raise ValueError("multiplicity and speed must be >= 1")


@dataclass(frozen=True)
class GroupedRelatedInstance:
    """Related-machines instance kept in grouped (unexpanded) form.

    A group edge (g, h) in ``group_dag`` means every member of group g
    precedes every member of group h.  Because expansion duplicates nodes
    without creating new paths, the expanded job-level graph is acyclic
    exactly when ``group_dag`` is, which the constructor enforces.
    """

    job_groups: tuple
    machine_groups: tuple
    group_dag: PrecedenceDag

    def __post_init__(self):
        object.__setattr__(self, "job_groups", tuple(self.job_groups))
        object.__setattr__(self, "machine_groups", tuple(self.machine_groups))
        if not self.job_groups or not self.machine_groups:
            raise ValueError("need at least one job group and one machine group")
        if self.group_dag.node_count != len(self.job_groups):
            raise ValueError("group_dag node count must equal the job-group count")

    def total_jobs(self) -> int:
        return sum(g.multiplicity for g in self.job_groups)


@dataclass(frozen=True)
class KPartiteInstance:
    """k layers of n vertices with edges only between consecutive layers.

    Vertices are global ids 1..n*k; layer i holds ids (i-1)*n+1 .. i*n.
    ``edges[i-1]`` is the edge set between layer i and layer i+1.
    ``Q``, ``eps`` and ``delta`` are the partition-hypothesis parameters
    recorded with the instance.
    """

    k: int
    n: int
    layers: tuple
    edges: tuple
    Q: int
    eps: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        # per-layer edge sets stored sorted so equal sets compare equal
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(tuple(e) for e in es)) for es in self.edges)
        )
        object.__setattr__(self, "eps", as_fraction(self.eps))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.k < 1 or self.n < 1 or self.Q < 1:
            raise ValueError("k, n and Q must be >= 1")
        expected = tuple(
            tuple(range((i - 1) * self.n + 1, i * self.n + 1)) for i in range(1, self.k + 1)
        )
        if self.layers != expected:
            raise ValueError("layers must list global ids (i-1)*n+1 .. i*n in order")
        if len(self.edges) != self.k - 1:
            raise ValueError("need exactly k-1 inter-layer edge sets")
        for i, es in enumerate(self.edges, start=1):
            lo, hi = set(self.layers[i - 1]), set(self.layers[i])
            for u, v in es:
                if u not in lo or v not in hi:
                    raise ValueError(f"edge ({u}, {v}) does not go from layer {i} to {i + 1}")
            if len(set(es)) != len(es):
                raise ValueError(f"duplicate edge between layers {i} and {i + 1}")
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise ValueError("eps and delta must lie strictly between 0 and 1")

    def layer_of(self, vertex: int) -> int:
        return (vertex - 1) // self.n + 1

    def vertex_count(self) -> int:
        return self.n * self.k


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Job -> (machine, start, end); ``horizon`` is the largest end time,
    computed on construction."""

    entries: dict
    horizon: Fraction = field(init=False)

    def __post_init__(self):
        norm = {}
        for job, (machine, start, end) in self.entries.items():
            norm[int(job)] = (int(machine), as_fraction(start), as_fraction(end))
        object.__setattr__(self, "entries", norm)
        object.__setattr__(self, "horizon", max((e for _, _, e in norm.values()),
                                                default=Fraction(0)))


def makespan(sched: Schedule) -> Fraction:
    if not sched.entries:
        raise EmptySchedule("schedule has no entries")
    return sched.horizon


@dataclass(frozen=True)
class GroupedPlacement:
    """``count`` members of job group ``group`` run on machines of
    ``machine_group`` during [start, end)."""

    group: int
    machine_group: int
    start: Fraction
    end: Fraction
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", as_fraction(self.start))
        object.__setattr__(self, "end", as_fraction(self.end))
        if not (isinstance(self.group, int) and isinstance(self.machine_group, int)
                and isinstance(self.count, int)):
            raise ValueError("placement group, machine group and count must be integers")
        if self.count < 1:
            raise ValueError("placement count must be >= 1")


@dataclass(frozen=True)
class GroupedSchedule:
    placements: tuple

    def __post_init__(self):
        object.__setattr__(self, "placements", tuple(self.placements))

    def makespan(self) -> Fraction:
        if not self.placements:
            raise EmptySchedule("grouped schedule has no placements")
        return max(pl.end for pl in self.placements)


# ---------------------------------------------------------------------------
# validation, on an integer time base: each validator scales its times by
# the LCM of their denominators once, then checks on ints


@dataclass(frozen=True)
class Violation:
    kind: str  # overlap | precedence | delay | wrong_machine | negative_time | duration | count
    witness: tuple

    def __post_init__(self):
        object.__setattr__(self, "witness", tuple(self.witness))


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))


def _report(violations) -> ValidationReport:
    return ValidationReport(feasible=not violations, violations=tuple(violations))


def _check_job_set(sched: Schedule, count: int):
    expected = set(range(1, count + 1))
    if set(sched.entries) != expected:
        missing = sorted(expected - set(sched.entries))
        extra = sorted(set(sched.entries) - expected)
        raise JobSetMismatch(f"missing jobs {missing}, unexpected jobs {extra}")


def _overlaps(times):
    """Same-machine pairs of jobs whose half-open intervals intersect;
    ``times[j - 1]`` is job j's (machine, start, end, duration)."""
    by_machine = {}
    for job, (machine, start, end, _) in enumerate(times, start=1):
        by_machine.setdefault(machine, []).append((start, end, job))
    out = []
    for machine in sorted(by_machine):
        placed = sorted(by_machine[machine])
        for a in range(len(placed)):
            s1, e1, j1 = placed[a]
            for b in range(a + 1, len(placed)):
                s2, e2, j2 = placed[b]
                if s2 >= e1:
                    break  # sorted by start, nothing later can overlap j1
                out.append(Violation("overlap", (machine, min(j1, j2), max(j1, j2))))
    return out


def _validate_flat(dag, sched, duration, home=None, machines=None, delays=None):
    """Feasibility in a flat model, shared by the three validators below.

    ``duration(j, i)`` is job j's time on machine i.  With ``home``, a job
    off its home machine is a ``wrong_machine`` violation; without it, a
    machine below 1 or above ``machines`` (when given) raises.  ``delays``
    maps each edge to the extra wait paid when its ends run on different
    machines; without it every edge is plain precedence.
    """
    _check_job_set(sched, dag.node_count)
    exact = []  # (machine, start, end, duration) per job, in job order
    for job in range(1, dag.node_count + 1):
        machine, start, end = sched.entries[job]
        if home is None and (machine < 1 or machines is not None and machine > machines):
            have = "" if machines is None else f", have {machines}"
            raise MachineOutOfRange(f"job {job} on machine {machine}{have}")
        exact.append((machine, start, end, duration(job, machine)))
    scale = math.lcm(*{t.denominator for row in exact for t in row[1:]})
    times = [(machine, s.numerator * (scale // s.denominator),
              e.numerator * (scale // e.denominator), d.numerator * (scale // d.denominator))
             for machine, s, e, d in exact]
    violations = []
    for job, (machine, start, end, length) in enumerate(times, start=1):
        if home is not None and machine != home[job]:
            violations.append(Violation("wrong_machine", (job, machine)))
        if start < 0:
            violations.append(Violation("negative_time", (job,)))
        if end - start != length:
            violations.append(Violation("duration", (job,)))
    violations.extend(_overlaps(times))
    for u, v in dag.edges:
        mu, _, eu, _ = times[u - 1]
        mv, sv, _, _ = times[v - 1]
        if sv < eu:
            violations.append(Violation("precedence", (u, v)))
        elif delays and mu != mv and sv < eu + delays[(u, v)] * scale:
            violations.append(Violation("delay", (u, v)))
    return _report(violations)


def validate_umps(inst: UmpsInstance, sched: Schedule) -> ValidationReport:
    """Feasibility for fixed-home scheduling: home machines, durations,
    no same-machine overlap, and precedence end <= start per edge."""
    return _validate_flat(inst.dag, sched, lambda j, i: inst.lengths[j], home=inst.home)


def validate_commdelay(inst: CommDelayInstance, sched: Schedule) -> ValidationReport:
    """Feasibility with communication delays: cross-machine successors wait
    the edge delay after the predecessor ends; co-located ones do not."""
    return _validate_flat(inst.dag, sched, lambda j, i: inst.lengths[j],
                          machines=inst.machines, delays=inst.delays)


def validate_related(inst: RelatedInstance, sched: Schedule) -> ValidationReport:
    """Feasibility on related machines: any machine is allowed, but the
    interval must equal the job's speed-scaled duration there."""
    return _validate_flat(inst.dag, sched, inst.duration, machines=inst.m)


def validate_grouped(
    inst: GroupedRelatedInstance, gs: GroupedSchedule, require_complete: bool = True
) -> ValidationReport:
    """Group-level feasibility without expanding members.

    Checks per-placement durations, machine-group capacity at every time
    (total active count <= group multiplicity), precedence between groups
    joined by a group edge (gu, gv) as the last end of gu <= the first
    start of gv, and -- when ``require_complete`` -- that every member of
    every group is placed exactly once.
    """
    job_groups, machine_groups = inst.job_groups, inst.machine_groups
    scale = math.lcm(*{t.denominator for pl in gs.placements for t in (pl.start, pl.end)})
    violations = []
    per_group_count = [0] * (len(job_groups) + 1)
    last_end, first_start = {}, {}
    events = [[] for _ in range(len(machine_groups) + 1)]  # per machine group
    for idx, pl in enumerate(gs.placements):
        g, i = pl.group, pl.machine_group
        if not 1 <= g <= len(job_groups):
            raise JobSetMismatch(f"placement {idx}: unknown job group {g}")
        if not 1 <= i <= len(machine_groups):
            raise MachineOutOfRange(f"placement {idx}: unknown machine group {i}")
        start = pl.start.numerator * (scale // pl.start.denominator)
        end = pl.end.numerator * (scale // pl.end.denominator)
        if start < 0:
            violations.append(Violation("negative_time", (g,)))
        # end - start == length / speed on the unscaled times
        if (end - start) * machine_groups[i - 1].speed != job_groups[g - 1].length * scale:
            violations.append(Violation("duration", (g, i)))
        per_group_count[g] += pl.count
        if g not in last_end or end > last_end[g]:
            last_end[g] = end
        if g not in first_start or start < first_start[g]:
            first_start[g] = start
        events[i].append((start, 1, pl.count))
        events[i].append((end, 0, -pl.count))

    for g, jg in enumerate(job_groups, start=1):
        total, mult = per_group_count[g], jg.multiplicity
        if total > mult or (require_complete and total != mult):
            violations.append(Violation("count", (g, total, mult)))

    # capacity sweep: ends before starts at equal times (half-open intervals)
    for mg_idx, mg in enumerate(machine_groups, start=1):
        active = 0
        for _, _, delta in sorted(events[mg_idx]):
            active += delta
            if active > mg.multiplicity:
                violations.append(Violation("overlap", (mg_idx, active, mg.multiplicity)))
                break
    for gu, gv in inst.group_dag.edges:
        if gu in last_end and gv in first_start and last_end[gu] > first_start[gv]:
            violations.append(Violation("precedence", (gu, gv)))
    return _report(violations)
