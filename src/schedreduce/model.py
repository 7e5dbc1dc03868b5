"""Problem instances, schedules, and feasibility validators.

Conventions used throughout the package:

* jobs, machines, layers and slots are 1-based dense integer indices;
* all times are exact rationals (integer data stays integral along every
  arithmetic path, so there are no tolerances): a :class:`Schedule` and
  a :class:`GroupedSchedule` keep their times as ints on their own time
  base, in units of the LCM of their denominators, and show them as
  ``fractions.Fraction`` values;
* job intervals are half-open ``[start, end)``, so touching intervals do
  not overlap and a successor may start exactly when its predecessor ends;
* instances and schedules are frozen dataclasses, treated as immutable
  values after construction;
* every constructor takes ints by type and rationals as ``int`` or
  ``Fraction`` (:func:`_check_types`, :func:`as_fraction`): a bool, a
  float or a str raises ``TypeError`` naming it, never coerced.

Validators never raise on an infeasible schedule; they return a
:class:`ValidationReport` listing every violation found.  Structural
problems (wrong job set, machine index out of range) raise instead,
because no report could be interpreted for them.  The validators check
on an integer time base, so they add and compare plain integers: they
read a schedule's own int times and put only the durations on its base.

Instances and schedules are immutable, so a check need not run twice.
The flat validators (:func:`validate_umps`, :func:`validate_commdelay`,
:func:`validate_related`) keep the last report made for a
:class:`Schedule` on that schedule, keyed by the validator and the
identity of the instance object it was checked against.  A repeat of the
same check (same validator, same instance object: identity, not
equality) returns the same frozen report; any other check runs and
replaces it.  A check that raises keeps nothing.  Every feasible check
returns one shared report, so keeping it costs no object per schedule.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import (
    CycleDetected,
    EmptySchedule,
    JobSetMismatch,
    MachineOutOfRange,
)

# the value rule's type sets, each with its name: a bool is not an int
_INT = frozenset({int})
_RATIONAL = frozenset({int, Fraction})
_REAL = frozenset({int, float})  # seconds
_KINDS = {_INT: "an int", _RATIONAL: "an int or a Fraction", _REAL: "an int or a float"}


def _check_types(allowed: frozenset, what: str, *groups) -> None:
    """Raise ``TypeError`` naming, as ``what``, the first value in
    ``groups`` whose type is not in ``allowed`` (a set of ``_KINDS``).
    Each group is a collection: one C-level pass over the types builds
    nothing, and the groups are read again only to name a culprit."""
    values = groups[0] if len(groups) == 1 else chain.from_iterable(groups)
    if not allowed.issuperset(map(type, values)):
        bad = next(v for v in chain.from_iterable(groups) if type(v) not in allowed)
        raise TypeError(f"{what} {bad!r} is not {_KINDS[allowed]}")


def as_fraction(value: int | Fraction, what: str = "value") -> Fraction:
    """``value``, an int or a ``Fraction``, as a ``Fraction``; any other
    value raises ``TypeError`` naming it as ``what``."""
    if type(value) is not Fraction:
        _check_types(_RATIONAL, what, (value,))
        value = Fraction(value)
    return value


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
        n = self.node_count
        edges = [(u, v) for u, v in self.edges]
        _check_types(_INT, "node count or edge endpoint", (n,), *edges)
        # stored sorted so equal edge sets compare (and serialize) equal
        edges = tuple(sorted(edges))
        object.__setattr__(self, "edges", edges)
        if n < 0:
            raise ValueError(f"node_count must be >= 0, got {n}")
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


def topological_order(dag: PrecedenceDag, level=None) -> list:
    """Kahn's algorithm with a heap: each step takes the ready node of
    largest ``level[u]`` (a list indexed by node), ties to the lowest
    index; with no ``level``, the lowest index."""
    n = dag.node_count
    indeg = [0] * (n + 1)
    succ = [[] for _ in range(n + 1)]
    for u, v in dag.edges:
        indeg[v] += 1
        succ[u].append(v)
    level = level or [0] * (n + 1)
    ready = [(-level[u], u) for u in range(1, n + 1) if not indeg[u]]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)[1]
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, (-level[v], v))
    if len(order) != n:  # a cycle: walk lowest successors from the lowest node reaching one
        remaining = {u for u in range(1, n + 1) if indeg[u]}
        while dead := {u for u in remaining if remaining.isdisjoint(succ[u])}:
            remaining -= dead  # nodes past every cycle, where a walk would stop
        path, seen, node = [], {}, min(remaining)
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = min(v for v in succ[node] if v in remaining)
        raise CycleDetected(path[seen[node]:] + [node])
    return order


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
        lengths, homes = self.lengths.values(), self.home.values()
        _check_types(_INT, "n, m, length or home", (self.n, self.m), lengths, homes)
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one job and one machine")
        jobs = set(range(1, self.n + 1))
        if self.lengths.keys() != jobs or self.home.keys() != jobs:
            raise ValueError("lengths and home must cover exactly jobs 1..n")
        # min/max first; the per-job loops only name the culprit
        if not (min(lengths) >= 1 and 1 <= min(homes) and max(homes) <= self.m):
            for l, p in self.lengths.items():
                if p < 1:
                    raise ValueError(f"job {l}: length {p} must be a positive integer")
            for l, i in self.home.items():
                if not 1 <= i <= self.m:
                    raise ValueError(
                        f"job {l}: home machine {i} must be an integer in 1..{self.m}")
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
    """Chains of operations; each operation is a (machine, duration) pair
    of ints (a float or a bool raises ``TypeError``)."""

    jobs: tuple

    def __post_init__(self):
        jobs = tuple(tuple((mi, p) for mi, p in ops) for ops in self.jobs)
        _check_types(_INT, "machine or duration", *chain.from_iterable(jobs))
        object.__setattr__(self, "jobs", jobs)
        if not jobs or not all(jobs):
            raise ValueError("need at least one job, each with at least one operation")
        for ops in jobs:
            for mi, p in ops:
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
    u ends; co-located jobs only obey plain precedence.  Edge endpoints
    and delays are ints (a float or a bool raises ``TypeError``).
    """

    n_total: int
    lengths: dict
    delays: dict
    dag: PrecedenceDag
    machines: Optional[int] = None

    def __post_init__(self):
        delays = {(u, v): c for (u, v), c in self.delays.items()}
        _check_types(_INT, "delay edge endpoint", *delays)
        _check_types(_INT, "delay", delays.values())
        object.__setattr__(self, "delays", delays)
        _check_types(_INT, "job or machine count", (self.n_total,),
                     () if self.machines is None else (self.machines,))
        jobs = set(range(1, self.n_total + 1))
        if set(self.lengths) != jobs:
            raise ValueError("lengths must cover exactly jobs 1..n_total")
        _check_types(_INT, "length", self.lengths.values())
        for l, p in self.lengths.items():
            if p < 1:
                raise ValueError(f"job {l}: length {p} must be a positive integer")
        if self.dag.node_count != self.n_total:
            raise ValueError("dag node count must equal n_total")
        if set(self.delays) != set(self.dag.edges):
            raise ValueError("delays must cover exactly the dag edges")
        if any(c < 0 for c in self.delays.values()):
            raise ValueError("delays must be nonnegative")
        if self.machines is not None and self.machines < 1:
            raise ValueError("machine count must be an integer >= 1 (or None for unlimited)")


@dataclass(frozen=True)
class RelatedInstance:
    """Uniformly related machines: job j on machine i takes jobs[j]/machines[i].
    Speeds and lengths are ints (a float or a bool raises ``TypeError``)."""

    machines: tuple  # speeds s_i >= 1
    jobs: tuple      # lengths p_j >= 1
    dag: PrecedenceDag

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        _check_types(_INT, "speed", self.machines)
        _check_types(_INT, "length", self.jobs)
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
        _check_types(_INT, "multiplicity, length or origin job",
                     (self.multiplicity, self.length, self.origin_job))
        if self.multiplicity < 1 or self.length < 1:
            raise ValueError("multiplicity and length must be >= 1")


@dataclass(frozen=True)
class MachineGroup:
    multiplicity: int
    speed: int

    def __post_init__(self):
        _check_types(_INT, "multiplicity or speed", (self.multiplicity, self.speed))
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
        _check_types(_INT, "k, n or Q", (self.k, self.n, self.Q))
        layers = tuple(tuple(layer) for layer in self.layers)
        edges = tuple(tuple(tuple(e) for e in es) for es in self.edges)
        _check_types(_INT, "vertex", *layers, *chain.from_iterable(edges))
        object.__setattr__(self, "layers", layers)
        # per-layer edge sets stored sorted so equal sets compare equal
        object.__setattr__(self, "edges", tuple(tuple(sorted(es)) for es in edges))
        object.__setattr__(self, "eps", as_fraction(self.eps, "eps"))
        object.__setattr__(self, "delta", as_fraction(self.delta, "delta"))
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


class _OnTimeBase:
    """What a schedule kept on its own integer time base shares: a
    ``_scale``, the LCM of the reduced denominators of its times, and
    ``_rows`` with its times as ints in units of ``1/_scale``.  Each
    subclass names the times of its rows (``_times``), maps them
    (``_map_times``) and builds the ``Fraction`` views listed in
    ``_VIEWS`` (``_view``), on first read.  Two schedules of one class are
    equal when their scales and rows are."""

    _VIEWS = ()

    @classmethod
    def _on_lcm(cls, rows):
        """``rows`` with int or ``Fraction`` times, put on the LCM of their
        denominators: the pair (scale, int rows)."""
        scale = math.lcm(*{t.denominator for t in cls._times(rows)})
        return scale, cls._map_times(rows, lambda t: t.numerator * (scale // t.denominator))

    @classmethod
    def _of_rows(cls, rows, scale: int = 1):
        """The schedule of ``rows``, int times in units of ``1/scale``,
        taken as they are; the scale is reduced to the LCM of the times'
        reduced denominators."""
        if scale != 1:
            common = math.gcd(scale, *cls._times(rows))
            if common != 1:
                scale //= common
                rows = cls._map_times(rows, common.__rfloordiv__)  # t // common
        sched = object.__new__(cls)
        vars(sched).update(_scale=scale, _rows=rows)
        return sched

    def _fractions(self):
        """Each distinct time of the rows as a ``Fraction``, by its int."""
        scale = self._scale
        return {t: Fraction(t, scale) for t in set(self._times(self._rows))}

    def __getattr__(self, name):
        # reached only when the normal lookup fails: a view before its
        # first read
        state = vars(self)
        if name not in self._VIEWS or "_rows" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = state[name] = self._view(name)
        return value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scale == other._scale and self._rows == other._rows


@dataclass(frozen=True, eq=False)
class Schedule(_OnTimeBase):
    """Job -> (machine, start, end), kept on the schedule's own integer
    time base: a ``scale``, the LCM of the reduced denominators of its
    times, and int rows ``{job: (machine, start * scale, end * scale)}``.
    Two schedules are equal when their scales and rows are, which is
    equality of their exact times; a schedule is unhashable.

    The public constructor takes ``entries`` with int jobs and machines
    and int or ``Fraction`` times (a bool raises ``TypeError``).
    The package's producers hand over their int rows and scale instead
    (:meth:`_of_rows`).  ``entries``, the times as ``Fraction`` values,
    and ``horizon``, the largest end time (0 when there is none), are
    built from the rows on first read, one ``Fraction`` per distinct time.
    """

    entries: dict
    horizon: Fraction = field(init=False)

    _VIEWS = ("entries", "horizon")
    __hash__ = None

    def __post_init__(self):
        rows = {job: (i, s, e) for job, (i, s, e) in vars(self).pop("entries").items()}
        _check_types(_INT, "job or machine", rows, [i for i, _, _ in rows.values()])
        _check_types(_RATIONAL, "time", *rows.values())
        scale, rows = self._on_lcm(rows)
        vars(self).update(_scale=scale, _rows=rows)

    @staticmethod
    def _times(rows):
        return (t for _, s, e in rows.values() for t in (s, e))

    @staticmethod
    def _map_times(rows, f):
        return {j: (i, f(s), f(e)) for j, (i, s, e) in rows.items()}

    def _view(self, name):
        if name == "horizon":
            return Fraction(max((e for _, _, e in self._rows.values()), default=0), self._scale)
        return self._map_times(self._rows, self._fractions().__getitem__)


def makespan(sched: Schedule) -> Fraction:
    if not sched._rows:
        raise EmptySchedule("schedule has no entries")
    return sched.horizon


@dataclass(frozen=True)
class GroupedPlacement:
    """``count`` members of job group ``group`` run on machines of
    ``machine_group`` during [start, end).  The group, machine group and
    count must be ints and the times ints or ``Fraction`` values (a bool
    raises ``TypeError``); the times are kept as ``Fraction``."""

    group: int
    machine_group: int
    start: Fraction
    end: Fraction
    count: int

    def __post_init__(self):
        _check_types(_INT, "placement group, machine group or count",
                     (self.group, self.machine_group, self.count))
        object.__setattr__(self, "start", as_fraction(self.start, "placement time"))
        object.__setattr__(self, "end", as_fraction(self.end, "placement time"))
        if self.count < 1:
            raise ValueError("placement count must be >= 1")


@dataclass(frozen=True, eq=False)
class GroupedSchedule(_OnTimeBase):
    """Placements of job-group members, kept as a :class:`Schedule` keeps
    its entries: on the schedule's own integer time base, a ``scale`` (the
    LCM of the reduced denominators of its times) and an int tuple of
    rows ``(group, machine_group, start * scale, end * scale, count)``,
    one per placement, in placement order.  Two grouped schedules are
    equal when their scales and rows are; their hash is that of the pair.

    The public constructor takes ``placements``; the package's producers
    and the codec hand over int rows and a scale instead
    (:meth:`_of_rows`), and ``placements`` is then built from the rows on
    first read.
    """

    placements: tuple

    _VIEWS = ("placements",)

    def __post_init__(self):
        placements = tuple(vars(self).pop("placements"))
        scale, rows = self._on_lcm(tuple(
            (pl.group, pl.machine_group, pl.start, pl.end, pl.count) for pl in placements))
        vars(self).update(placements=placements, _scale=scale, _rows=rows)

    @staticmethod
    def _times(rows):
        return (t for _, _, s, e, _ in rows for t in (s, e))

    @staticmethod
    def _map_times(rows, f):
        return tuple((g, i, f(s), f(e), c) for g, i, s, e, c in rows)

    def _view(self, name):
        return tuple(GroupedPlacement(*row)
                     for row in self._map_times(self._rows, self._fractions().__getitem__))

    def __hash__(self):
        return hash((self._scale, self._rows))

    def makespan(self) -> Fraction:
        if not self._rows:
            raise EmptySchedule("grouped schedule has no placements")
        return Fraction(max(e for _, _, _, e, _ in self._rows), self._scale)


# ---------------------------------------------------------------------------
# validation, on each schedule's own integer time base


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


_FEASIBLE = ValidationReport(feasible=True, violations=())


def _report(violations) -> ValidationReport:
    if not violations:
        return _FEASIBLE
    return ValidationReport(feasible=False, violations=tuple(violations))


def _check_job_set(sched: Schedule, count: int):
    expected = set(range(1, count + 1))
    if set(sched._rows) != expected:
        missing = sorted(expected - set(sched._rows))
        extra = sorted(set(sched._rows) - expected)
        raise JobSetMismatch(f"missing jobs {missing}, unexpected jobs {extra}")


def _overlaps(rows):
    """Same-machine pairs of jobs whose half-open intervals intersect;
    ``rows`` maps each job to its (machine, start, end)."""
    by_machine = {}
    for job, (machine, start, end) in rows.items():
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

    The checks read the schedule's int rows; only a duration is put on
    their time base, and not even that when it is an int on scale 1.
    """
    _check_job_set(sched, dag.node_count)
    rows, scale = sched._rows, sched._scale
    violations = []
    for job in range(1, dag.node_count + 1):
        machine, start, end = rows[job]
        if home is None and (machine < 1 or machines is not None and machine > machines):
            have = "" if machines is None else f", have {machines}"
            raise MachineOutOfRange(f"job {job} on machine {machine}{have}")
        if home is not None and machine != home[job]:
            violations.append(Violation("wrong_machine", (job, machine)))
        if start < 0:
            violations.append(Violation("negative_time", (job,)))
        length = duration(job, machine)
        if (end - start != length if scale == 1 and type(length) is int
                else (end - start) * length.denominator != length.numerator * scale):
            violations.append(Violation("duration", (job,)))
    violations.extend(_overlaps(rows))
    for u, v in dag.edges:
        mu, _, eu = rows[u]
        mv, sv, _ = rows[v]
        if sv < eu:
            violations.append(Violation("precedence", (u, v)))
        elif delays and mu != mv and sv < eu + delays[(u, v)] * scale:
            violations.append(Violation("delay", (u, v)))
    return _report(violations)


def _once_per_pair(validator):
    """``validator``, with its last report kept on the schedule: a repeat
    with the same instance object returns the kept report (see the module
    docstring).  The kept entry holds the instance, so its identity
    cannot pass to another object while the report is kept."""

    @functools.wraps(validator)
    def check(inst, sched):
        if type(sched) is not Schedule:
            return validator(inst, sched)
        state = vars(sched)
        kept = state.get("_report")
        if kept is not None and kept[0] is check and kept[1] is inst:
            return kept[2]
        report = validator(inst, sched)
        state["_report"] = (check, inst, report)
        return report

    return check


@_once_per_pair
def validate_umps(inst: UmpsInstance, sched: Schedule) -> ValidationReport:
    """Feasibility for fixed-home scheduling: home machines, durations,
    no same-machine overlap, and precedence end <= start per edge."""
    return _validate_flat(inst.dag, sched, lambda j, i: inst.lengths[j], home=inst.home)


@_once_per_pair
def validate_commdelay(inst: CommDelayInstance, sched: Schedule) -> ValidationReport:
    """Feasibility with communication delays: cross-machine successors wait
    the edge delay after the predecessor ends; co-located ones do not."""
    return _validate_flat(inst.dag, sched, lambda j, i: inst.lengths[j],
                          machines=inst.machines, delays=inst.delays)


@_once_per_pair
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
    scale = gs._scale
    violations = []
    per_group_count = [0] * (len(job_groups) + 1)
    last_end, first_start = {}, {}
    events = [[] for _ in range(len(machine_groups) + 1)]  # per machine group
    for idx, (g, i, start, end, count) in enumerate(gs._rows):
        if not 1 <= g <= len(job_groups):
            raise JobSetMismatch(f"placement {idx}: unknown job group {g}")
        if not 1 <= i <= len(machine_groups):
            raise MachineOutOfRange(f"placement {idx}: unknown machine group {i}")
        if start < 0:
            violations.append(Violation("negative_time", (g,)))
        # end - start == length / speed on the unscaled times
        if (end - start) * machine_groups[i - 1].speed != job_groups[g - 1].length * scale:
            violations.append(Violation("duration", (g, i)))
        per_group_count[g] += count
        if g not in last_end or end > last_end[g]:
            last_end[g] = end
        if g not in first_start or start < first_start[g]:
            first_start[g] = start
        events[i].append((start, 1, count))
        events[i].append((end, 0, -count))

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
