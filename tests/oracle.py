"""Independent brute-force optima for cross-checking the package solvers.

These oracles branch over explicit integer start times (iterative
deepening on the makespan), a different algorithm family from the
package's order-enumeration and completed-set searches, so agreement is
meaningful.  With integer processing times some optimal schedule has
integer starts (fix the per-machine processing orders of any optimum and
left-shift every job to its earliest start: all starts become integral
sums of processing times), so the integer grid is exhaustive.  Only the
plain data fields of an instance are read; no package graph helpers are
used.

The unit-length reference ``oracle_unit_bfs`` is the completed-set
breadth-first search of ``solvers._solve_umps_unit`` with no exchange
rule: every ready job on a machine is a choice at every round.  It counts
states as the package search does, so the tests can require that the
rule never adds one.

The partial-load oracle sums the rational masses of a fractional
schedule directly, where ``rounding.partial_load_bound_holds`` sweeps its
integer grid.  The no-property oracle tests every pair of vertex sets,
where ``solvers.verify_no_property`` needs one popcount per lower set.

The validator oracles keep the straightforward ``Fraction`` form of the
schedule checks: every comparison on exact rationals, and each group edge
answered by rescanning the placements.  The codec oracles at the end keep
the writer as a ``json.dumps`` call, lay out the text the byte pins hash,
and keep the precedence admission as the full range, self-loop, duplicate
and cycle checks; for the cycle check and its witness they call the
package's ``topological_order``, which the admission shortcut they are
compared against skips.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

from schedreduce.errors import JobSetMismatch, MachineOutOfRange
from schedreduce.model import topological_order
from schedreduce.serialize import dump_canonical, to_obj


def _topo(n, edges):
    indeg = {v: 0 for v in range(1, n + 1)}
    succ = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    out = []
    while ready:
        v = ready.pop()
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    assert len(out) == n, "oracle requires acyclic input"
    return out


def _preds(n, edges):
    pred = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        pred[v].append(u)
    return pred


def _chain_bound(n, lengths, edges):
    """Longest path through the dag, counting both endpoint lengths."""
    pred = _preds(n, edges)
    best = {}
    for v in _topo(n, edges):
        best[v] = lengths[v] + max((best[u] for u in pred[v]), default=0)
    return max(best.values(), default=0)


def oracle_umps_optimum(inst) -> int:
    """Smallest integer makespan admitting a feasible fixed-home schedule."""
    n, edges = inst.n, inst.dag.edges
    order = _topo(n, edges)
    pred = _preds(n, edges)
    loads = {}
    for j in range(1, n + 1):
        loads[inst.home[j]] = loads.get(inst.home[j], 0) + inst.lengths[j]
    lb = max(max(loads.values()), _chain_bound(n, inst.lengths, edges))

    placed = {}  # job -> (start, end)

    def fits(k, deadline):
        if k == len(order):
            return True
        j = order[k]
        p = inst.lengths[j]
        lo = max((placed[u][1] for u in pred[j]), default=0)
        same = [placed[u] for u in placed if inst.home[u] == inst.home[j]]
        for s in range(lo, deadline - p + 1):
            if all(e <= s or s + p <= b for b, e in same):
                placed[j] = (s, s + p)
                if fits(k + 1, deadline):
                    del placed[j]
                    return True
                del placed[j]
        return False

    for deadline in range(lb, sum(inst.lengths.values()) + 1):
        if fits(0, deadline):
            return deadline
    raise AssertionError("serial schedule always fits")


def oracle_unit_bfs(inst, max_states: int) -> SimpleNamespace:
    """Breadth-first search over the done masks of a unit-length
    fixed-home instance: each round runs one ready job on every machine
    that has one (maximal rounds), and every ready job is a choice.  It
    stops when it takes the full mask from the queue.  Returns ``optimum``
    (None once more than ``max_states`` masks are inserted, checked after
    each expanded mask) and ``depth``, the round count of each inserted
    mask."""
    n = inst.n
    full = (1 << n) - 1
    pred = [0] * (n + 1)
    for u, v in inst.dag.edges:
        pred[v] |= 1 << (u - 1)
    jobs_on = [[j for j in range(1, n + 1) if inst.home[j] == i] for i in range(1, inst.m + 1)]
    depth = {0: 0}
    queue = deque([0])
    while True:
        mask = queue.popleft()
        if mask == full:
            return SimpleNamespace(optimum=depth[full], depth=depth)
        choices = []
        for jobs in jobs_on:
            ready = [1 << (j - 1) for j in jobs
                     if not mask >> (j - 1) & 1 and pred[j] & mask == pred[j]]
            if ready:
                choices.append(ready)
        for picked in itertools.product(*choices):
            new = mask | sum(picked)
            if new not in depth:
                depth[new] = depth[mask] + 1
                queue.append(new)
        if len(depth) > max_states:
            return SimpleNamespace(optimum=None, depth=depth)


def oracle_commdelay_optimum(inst, machine_cap: int = None) -> int:
    """Smallest integer makespan over explicit (machine, start) choices."""
    n, edges = inst.n_total, inst.dag.edges
    m = inst.machines if inst.machines is not None else n
    if machine_cap is not None:
        m = min(m, machine_cap)
    order = _topo(n, edges)
    pred = _preds(n, edges)
    total = sum(inst.lengths.values())

    placed = {}  # job -> (machine, start, end)

    def fits(k, deadline):
        if k == len(order):
            return True
        j = order[k]
        p = inst.lengths[j]
        for i in range(1, m + 1):
            lo = 0
            for u in pred[j]:
                mu, _, eu = placed[u]
                lo = max(lo, eu + (inst.delays[(u, j)] if mu != i else 0))
            same = [(b, e) for (mi, b, e) in placed.values() if mi == i]
            for s in range(lo, deadline - p + 1):
                if all(e <= s or s + p <= b for b, e in same):
                    placed[j] = (i, s, s + p)
                    if fits(k + 1, deadline):
                        del placed[j]
                        return True
                    del placed[j]
        return False

    for deadline in range(1, total + 1):
        if fits(0, deadline):
            return deadline
    raise AssertionError("co-located serial schedule always fits")


def oracle_related_optimum(inst) -> Fraction:
    """Smallest makespan over explicit (machine, start) choices on related
    machines, searched on a speed-scaled integer grid.

    With L the LCM of the speeds, job j takes ``jobs[j] * L / speed`` grid
    units on a machine of that speed, an integer, so the left-shift
    argument above makes the grid exhaustive; the optimum is the smallest
    feasible grid deadline divided by L.  Machines of one speed that are
    still empty are interchangeable, so a job tries only the first of them.
    """
    n, edges = inst.n, inst.dag.edges
    speeds = inst.machines
    grid = math.lcm(*speeds)
    time = {(j, i): inst.jobs[j - 1] * grid // speeds[i - 1]
            for j in range(1, n + 1) for i in range(1, len(speeds) + 1)}
    order = _topo(n, edges)
    pred = _preds(n, edges)
    fastest = {j: min(time[j, i] for i in range(1, len(speeds) + 1)) for j in range(1, n + 1)}
    work = sum(inst.jobs) * grid
    lb = max(_chain_bound(n, fastest, edges), -(-work // sum(speeds)))

    placed = {}  # job -> (machine, start, end)

    def fits(k, deadline):
        if k == len(order):
            return True
        j = order[k]
        lo = max((placed[u][2] for u in pred[j]), default=0)
        used = {mi for mi, _, _ in placed.values()}
        tried_empty = set()
        for i in range(1, len(speeds) + 1):
            if i not in used:
                if speeds[i - 1] in tried_empty:
                    continue
                tried_empty.add(speeds[i - 1])
            p = time[j, i]
            same = [(b, e) for (mi, b, e) in placed.values() if mi == i]
            for s in range(lo, deadline - p + 1):
                if all(e <= s or s + p <= b for b, e in same):
                    placed[j] = (i, s, s + p)
                    if fits(k + 1, deadline):
                        del placed[j]
                        return True
                    del placed[j]
        return False

    for deadline in range(lb, sum(fastest.values()) + 1):
        if fits(0, deadline):
            return Fraction(deadline, grid)
    raise AssertionError("serial schedule on a fastest machine always fits")


# ---------------------------------------------------------------------------
# fractional schedules and dense k-partite instances


def oracle_partial_load(fs, machine: int, slot: int) -> Fraction:
    """Mass placed through ``slot`` by jobs of ``machine`` that still have
    mass in a later slot.  In canonical form this never exceeds
    gamma * slot."""
    last = {}
    for job, t in fs.mass:
        last[job] = max(last.get(job, t), t)
    return sum((x for (job, t), x in fs.mass.items()
                if fs.umps_ref.home[job] == machine and t <= slot < last[job]),
               start=Fraction(0))


def oracle_no_property(g) -> bool:
    """True when between every two consecutive layers every pair of
    ceil(delta*n)-size vertex sets, one set per layer, is joined by an
    edge."""
    size = math.ceil(g.delta * g.n)
    for i in range(1, g.k):
        edges = set(g.edges[i - 1])
        for lo in itertools.combinations(g.layers[i - 1], size):
            for hi in itertools.combinations(g.layers[i], size):
                if not any((u, v) in edges for u in lo for v in hi):
                    return False
    return True


# ---------------------------------------------------------------------------
# schedule checks on Fraction times; violations are (kind, witness) pairs


def _fraction_overlaps(sched):
    """Same-machine pairs of jobs whose half-open intervals intersect."""
    by_machine = {}
    for job, (machine, start, end) in sorted(sched.entries.items()):
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
                out.append(("overlap", (machine, min(j1, j2), max(j1, j2))))
    return out


def oracle_flat_violations(dag, sched, duration, home=None, machines=None, delays=None):
    """The violations ``model._validate_flat`` reports, in its order."""
    expected = set(range(1, dag.node_count + 1))
    if set(sched.entries) != expected:
        missing = sorted(expected - set(sched.entries))
        extra = sorted(set(sched.entries) - expected)
        raise JobSetMismatch(f"missing jobs {missing}, unexpected jobs {extra}")
    violations = []
    for job in range(1, dag.node_count + 1):
        machine, start, end = sched.entries[job]
        if home is not None:
            if machine != home[job]:
                violations.append(("wrong_machine", (job, machine)))
        elif machine < 1 or machines is not None and machine > machines:
            have = "" if machines is None else f", have {machines}"
            raise MachineOutOfRange(f"job {job} on machine {machine}{have}")
        if start < 0:
            violations.append(("negative_time", (job,)))
        if end - start != duration(job, machine):
            violations.append(("duration", (job,)))
    violations.extend(_fraction_overlaps(sched))
    for u, v in dag.edges:
        mu, _, eu = sched.entries[u]
        mv, sv, _ = sched.entries[v]
        if sv < eu:
            violations.append(("precedence", (u, v)))
        elif delays and mu != mv and sv < eu + delays[(u, v)]:
            violations.append(("delay", (u, v)))
    return violations


def oracle_grouped_violations(inst, gs, require_complete=True):
    """The violations ``model.validate_grouped`` reports, in its order."""
    violations = []
    per_group_count = {g: 0 for g in range(1, len(inst.job_groups) + 1)}
    for idx, pl in enumerate(gs.placements):
        if not 1 <= pl.group <= len(inst.job_groups):
            raise JobSetMismatch(f"placement {idx}: unknown job group {pl.group}")
        if not 1 <= pl.machine_group <= len(inst.machine_groups):
            raise MachineOutOfRange(f"placement {idx}: unknown machine group {pl.machine_group}")
        jg = inst.job_groups[pl.group - 1]
        mg = inst.machine_groups[pl.machine_group - 1]
        if pl.start < 0:
            violations.append(("negative_time", (pl.group,)))
        if pl.end - pl.start != Fraction(jg.length, mg.speed):
            violations.append(("duration", (pl.group, pl.machine_group)))
        per_group_count[pl.group] += pl.count

    for g, total in sorted(per_group_count.items()):
        mult = inst.job_groups[g - 1].multiplicity
        if total > mult or (require_complete and total != mult):
            violations.append(("count", (g, total, mult)))

    # capacity sweep: ends before starts at equal times (half-open intervals)
    for mg_idx in range(1, len(inst.machine_groups) + 1):
        events = []
        for pl in gs.placements:
            if pl.machine_group == mg_idx:
                events.append((pl.start, 1, pl.count))
                events.append((pl.end, 0, -pl.count))
        events.sort()
        active = 0
        cap = inst.machine_groups[mg_idx - 1].multiplicity
        flagged = False
        for _, _, delta in events:
            active += delta
            if active > cap and not flagged:
                violations.append(("overlap", (mg_idx, active, cap)))
                flagged = True
    for gu, gv in inst.group_dag.edges:
        ends = [pl.end for pl in gs.placements if pl.group == gu]
        starts = [pl.start for pl in gs.placements if pl.group == gv]
        if ends and starts and max(ends) > min(starts):
            violations.append(("precedence", (gu, gv)))
    return violations


# ---------------------------------------------------------------------------
# canonical files and precedence admission


def oracle_dump_canonical(obj) -> str:
    """The canonical text ``serialize.dump_canonical`` writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def pinned_text(value) -> str:
    """The text the byte pins hash: the canonical text of ``value`` laid
    out as ``json.dumps(..., sort_keys=True, indent=2)``, the layout the
    pins were taken in.  It is read back from what ``dump_canonical``
    writes, so a pin covers the writer's tokens and its type check."""
    return json.dumps(json.loads(dump_canonical(to_obj(value))), sort_keys=True, indent=2) + "\n"


def oracle_dag_edges(node_count, edges) -> tuple:
    """The edges ``PrecedenceDag(node_count, edges)`` stores, or the error
    it raises, by checking every edge and running Kahn's algorithm.  A
    node count, then an endpoint (in the order given), that is not an int
    by type ("3", 2.0, True) raises ``TypeError``, never coerced."""
    if type(node_count) is not int:
        raise TypeError(f"node count or edge endpoint {node_count!r} is not an int")
    for u, v in edges:
        for end in (u, v):
            if type(end) is not int:
                raise TypeError(f"node count or edge endpoint {end!r} is not an int")
    edges = tuple(sorted(edges))
    if node_count < 0:
        raise ValueError(f"node_count must be >= 0, got {node_count}")
    seen = set()
    for u, v in edges:
        if not (1 <= u <= node_count and 1 <= v <= node_count):
            raise ValueError(f"edge ({u}, {v}) out of range 1..{node_count}")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    topological_order(SimpleNamespace(node_count=node_count, edges=edges))
    return edges
