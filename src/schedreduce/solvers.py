"""Exact desk-scale solvers and list-scheduling heuristics.

The three exact solvers share one branch-and-bound engine,
``_exact_search``.  It seeds the incumbent with a serial schedule,
enumerates machine assignments, then for each assignment enumerates
per-machine processing orders consistent with the precedence
projection, scores each combination by the earliest-start longest path
through the combined order graph, and keeps the first strictly best
result, so ties resolve to the lexicographically earliest combination.
Times are scaled to integers (by the LCM of their denominators) for the
search and converted back to ``Fraction`` only in the ``SolveResult``.
The solvers differ only in how they parameterize it:

- fixed-home jobs pin every job to its home machine, so the search is
  the order enumeration alone;
- communication delays place forced co-location units on one class of
  interchangeable machines (set partitions, capped at the machine count)
  and pay the edge delay between machines;
- related machines place single jobs on labeled machines, one class per
  machine, with speed-scaled durations.

Sound pruning (admissible lower bounds, forced co-location under huge
delays, and a completed-set dynamic program for unit lengths) keeps
desk-scale runs fast without changing any optimum.

Every solver degrades gracefully: when a state budget or time budget is
hit it returns the best schedule found so far with
``proven_optimal=False`` instead of raising.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded
from .model import (
    CommDelayInstance,
    KPartiteInstance,
    RelatedInstance,
    Schedule,
    UmpsInstance,
    makespan,
    topological_order,
)


@dataclass(frozen=True)
class SolveLimits:
    max_jobs: int = 10
    max_states: int = 2_000_000
    time_budget: float = 600.0  # seconds


@dataclass(frozen=True)
class SolveResult:
    optimum: Fraction
    schedule: Schedule
    proven_optimal: bool
    states_explored: int


class _Abort(Exception):
    """Internal: a budget tripped; unwind and report best-so-far."""


class _Search:
    """Shared bookkeeping: best-so-far, state counter, budget checks."""

    def __init__(self, lim: SolveLimits):
        self.lim = lim
        self.t0 = time.monotonic()
        self.states = 0
        self.best_ms = None
        self.best_payload = None

    def tick(self, count: int = 1):
        self.states += count
        if self.states > self.lim.max_states:
            raise _Abort
        if self.states % 4096 == 0 and time.monotonic() - self.t0 > self.lim.time_budget:
            raise _Abort

    def offer(self, ms, payload):
        if self.best_ms is None or ms < self.best_ms:
            self.best_ms = ms
            self.best_payload = payload


def _earliest_starts(n_nodes: int, edges):
    """Earliest-start longest path over nodes 1..n_nodes.

    ``edges`` is an iterable of (u, v, weight): v starts at least
    ``weight`` after u starts.  Returns the start list (index 0 unused)
    or None if the graph has a cycle.
    """
    indeg = [0] * (n_nodes + 1)
    adj = [[] for _ in range(n_nodes + 1)]
    for u, v, w in edges:
        adj[u].append((v, w))
        indeg[v] += 1
    start = [0] * (n_nodes + 1)
    queue = deque(v for v in range(1, n_nodes + 1) if indeg[v] == 0)
    done = 0
    while queue:
        u = queue.popleft()
        done += 1
        for v, w in adj[u]:
            if start[u] + w > start[v]:
                start[v] = start[u] + w
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return start if done == n_nodes else None


def _extensions(jobs, pred_sets):
    """Yield the linear extensions of a tiny poset in lexicographic order."""
    jobs = sorted(jobs)
    acc = []
    placed = set()

    def rec():
        if len(acc) == len(jobs):
            yield tuple(acc)
            return
        for j in jobs:
            if j not in placed and pred_sets[j] <= placed:
                placed.add(j)
                acc.append(j)
                yield from rec()
                acc.pop()
                placed.remove(j)

    yield from rec()


def _projected_preds(jobs, reach):
    jobs_set = set(jobs)
    return {
        v: {u for u in jobs_set if u != v and v in reach[u]}
        for v in jobs_set
    }


def _orders_dfs(search, groups, n_nodes, base_edges, duration, reach):
    """Enumerate per-group orders with incremental lower-bound pruning.

    ``groups`` is a list of (label, sorted jobs) and ``duration(j)`` is
    job j's time in its group.  At every level the succession edges
    (weighted by the earlier job's duration) plus ``base_edges`` give an
    admissible relaxation; a cycle in it rules out every completion, and
    a bound at or above the incumbent prunes.  At the leaves the earliest-start
    makespan is offered to ``search`` together with the group labels.
    """
    labels = {}
    for label, jobs in groups:
        for j in jobs:
            labels[j] = label
    pred_sets = [
        _projected_preds(jobs, reach) for _, jobs in groups
    ]
    succ_edges = []

    def level(k):
        search.tick()
        starts = _earliest_starts(n_nodes, itertools.chain(base_edges, succ_edges))
        if starts is None:
            return
        bound = max(starts[j] + duration(j) for j in range(1, n_nodes + 1))
        if search.best_ms is not None and bound >= search.best_ms:
            return
        if k == len(groups):
            search.offer(bound, (dict(labels), list(starts)))
            return
        for order in _extensions(groups[k][1], pred_sets[k]):
            added = [
                (order[a], order[a + 1], duration(order[a]))
                for a in range(len(order) - 1)
            ]
            succ_edges.extend(added)
            level(k + 1)
            del succ_edges[len(succ_edges) - len(added):]

    level(0)


def _serial_schedule(dag, machine_of, duration) -> Schedule:
    """Every job back to back in topological order, job j on
    ``machine_of[j]``: nothing ever overlaps and no delay is ever paid."""
    entries = {}
    cursor = Fraction(0)
    for j in topological_order(dag):
        d = duration(j, machine_of[j])
        entries[j] = (machine_of[j], cursor, cursor + d)
        cursor += d
    return Schedule(entries=entries)


def trivial_serial_schedule(inst: UmpsInstance) -> Schedule:
    """All jobs back-to-back in topological order on their home machines.

    Always feasible; makespan equals the total processing time, which is
    the easy upper bound every solver starts from.
    """
    return _serial_schedule(inst.dag, inst.home, lambda j, i: inst.lengths[j])


def _list_schedule(dag, priority, lengths, candidates, delays) -> Schedule:
    """List scheduling: jobs in ``priority`` (a topological order, so each
    job's predecessors are already placed when it is reached) go to the
    machine among ``candidates(j)`` where they can start earliest, paying
    the edge delay in ``delays`` when a predecessor sits on a different
    machine.  Ties go to the earliest candidate."""
    if sorted(priority) != list(range(1, dag.node_count + 1)):
        raise ValueError("priority must be a permutation of all jobs")
    pos = {j: k for k, j in enumerate(priority)}
    for u, v in dag.edges:
        if pos[u] >= pos[v]:
            raise ValueError(f"priority is not topological: {u} -> {v}")
    preds = dag.predecessors()
    free = {}
    entries = {}
    for j in priority:
        best = None
        for i in candidates(j):
            est = free.get(i, 0)
            for u in preds[j]:
                mu, _, eu = entries[u]
                lag = delays.get((u, j), 0) if mu != i else 0
                est = max(est, eu + lag)
            if best is None or est < best[1]:
                best = (i, est)
        i, est = best
        entries[j] = (i, est, est + lengths[j])
        free[i] = est + lengths[j]
    return Schedule(entries=entries)


def _exact_search(dag, lim, serial, duration, delay=None, pinned=None, units=(), classes=()):
    """Branch and bound over machine assignments, then per-machine orders.

    ``duration(j, i)`` is job j's time on machine i, and ``delay`` maps a
    dag edge to the extra wait paid when its ends sit on different
    machines.  Times are scaled by the LCM of their denominators, so the
    search runs on plain ints and only the result converts back to
    ``Fraction``.  ``pinned`` fixes every job's machine up front, so the
    search goes straight to the order enumeration.  Otherwise ``units``
    (tuples of jobs that must share a machine) are placed in order, and
    ``classes`` (tuples of interchangeable machines) limit each unit to
    the machines already opened in a class plus the next one.  Every
    assignment level prunes on an admissible bound: unplaced jobs at
    their fastest time, delays on edges already placed apart, and
    machine loads.  The ``serial`` schedule seeds the incumbent and is
    returned when nothing beats it.
    """
    n = dag.node_count
    if n > lim.max_jobs:
        return SolveResult(makespan(serial), serial, proven_optimal=False, states_explored=0)
    reach = dag.reachable()
    delay = delay or {}
    machine_of = dict(pinned or {})
    machines = sorted(set(itertools.chain(*classes)) | set(machine_of.values()))
    exact = {(j, i): Fraction(duration(j, i)) for j in range(1, n + 1) for i in machines}
    scale = math.lcm(*(t.denominator for t in itertools.chain(exact.values(), delay.values())))
    time_of = {key: int(t * scale) for key, t in exact.items()}
    delay = {e: int(c * scale) for e, c in delay.items()}
    search = _Search(lim)
    search.offer(int(makespan(serial) * scale), None)
    fastest = {j: min(time_of[j, i] for i in machines) for j in range(1, n + 1)}
    loads = {i: 0 for i in machines}
    opened = [0] * len(classes)

    def cost(j):
        i = machine_of.get(j)
        return fastest[j] if i is None else time_of[j, i]

    def edges():
        for u, v in dag.edges:
            w = cost(u)
            c = delay.get((u, v))
            if c and u in machine_of and v in machine_of and machine_of[u] != machine_of[v]:
                w += c
            yield u, v, w

    def leaf():
        by_machine = {}
        for j, i in machine_of.items():
            by_machine.setdefault(i, []).append(j)
        groups = [(i, sorted(jobs)) for i, jobs in sorted(by_machine.items())]
        _orders_dfs(search, groups, n, list(edges()), cost, reach)

    def assign(k):
        search.tick()
        starts = _earliest_starts(n, edges())
        path = max(starts[j] + cost(j) for j in range(1, n + 1))
        if max(path, max(loads.values())) >= search.best_ms:
            return
        if k == len(units):
            leaf()
            return
        unit = units[k]
        for c, cls in enumerate(classes):
            for slot, i in enumerate(cls[:opened[c] + 1]):
                fresh = slot == opened[c]  # opens the next machine of the class
                load = sum(time_of[j, i] for j in unit)
                opened[c] += fresh
                loads[i] += load
                for j in unit:
                    machine_of[j] = i
                assign(k + 1)
                for j in unit:
                    del machine_of[j]
                loads[i] -= load
                opened[c] -= fresh

    proven = True
    try:
        if pinned is None:
            assign(0)
        else:
            leaf()
    except _Abort:
        proven = False
    if search.best_payload is None:
        return SolveResult(makespan(serial), serial, proven, search.states)
    labels, starts = search.best_payload
    entries = {
        j: (i, Fraction(starts[j], scale), Fraction(starts[j] + time_of[j, i], scale))
        for j, i in sorted(labels.items())
    }
    return SolveResult(Fraction(search.best_ms, scale), Schedule(entries=entries), proven,
                       search.states)


# ---------------------------------------------------------------------------
# fixed-home jobs


def greedy_umps(inst: UmpsInstance, priority=None) -> Schedule:
    """List scheduling on home machines in ``priority`` (default: the
    lowest-index topological order)."""
    if priority is None:
        priority = topological_order(inst.dag)
    return _list_schedule(inst.dag, priority, inst.lengths, lambda j: (inst.home[j],), {})


def solve_umps_exact(inst: UmpsInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum for fixed-home scheduling.

    Unit-length instances use a breadth-first dynamic program over
    completed job sets (rounds process one available job per machine;
    filling an idle machine never hurts, so maximal rounds suffice).
    General lengths enumerate per-machine orders as described in the
    module docstring.  Both paths return the same optima; the tests
    cross-check them against a time-indexed brute-force oracle.
    """
    lim = lim or SolveLimits()
    if inst.n > lim.max_jobs:
        sched = greedy_umps(inst)
        return SolveResult(makespan(sched), sched, proven_optimal=False, states_explored=0)
    if inst.unit_lengths:
        return _solve_umps_unit(inst, lim)
    return _exact_search(
        inst.dag, lim, trivial_serial_schedule(inst), lambda j, i: inst.lengths[j],
        pinned=inst.home,
    )


def _solve_umps_unit(inst: UmpsInstance, lim: SolveLimits) -> SolveResult:
    n = inst.n
    full = (1 << n) - 1
    pred_mask = [0] * (n + 1)
    for u, v in inst.dag.edges:
        pred_mask[v] |= 1 << (u - 1)
    homes = [sorted(inst.jobs_on(i)) for i in range(1, inst.m + 1)]
    t0 = time.monotonic()

    dist = {0: 0}
    parent = {0: None}
    queue = deque([0])
    while queue:
        mask = queue.popleft()
        if mask == full:
            break
        options = []
        for jobs_i in homes:
            avail = [
                j for j in jobs_i
                if not mask & (1 << (j - 1)) and pred_mask[j] & mask == pred_mask[j]
            ]
            if avail:
                options.append(avail)
        for choice in itertools.product(*options):
            new = mask
            for j in choice:
                new |= 1 << (j - 1)
            if new not in dist:
                dist[new] = dist[mask] + 1
                parent[new] = (mask, choice)
                queue.append(new)
        if len(dist) > lim.max_states or time.monotonic() - t0 > lim.time_budget:
            sched = greedy_umps(inst)
            return SolveResult(makespan(sched), sched, proven_optimal=False,
                               states_explored=len(dist))

    entries = {}
    mask = full
    while parent[mask] is not None:
        prev, choice = parent[mask]
        r = dist[prev]
        for j in choice:
            entries[j] = (inst.home[j], Fraction(r), Fraction(r + 1))
        mask = prev
    sched = Schedule(entries=entries)
    return SolveResult(
        optimum=Fraction(dist[full]),
        schedule=sched,
        proven_optimal=True,
        states_explored=len(dist),
    )


# ---------------------------------------------------------------------------
# communication delays


def solve_commdelay_exact(inst: CommDelayInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum with communication delays.

    Machines are interchangeable, so assignments are enumerated as set
    partitions of the jobs (capped at the machine count when bounded).
    Before searching, any edge whose delay is too large to ever pay in a
    schedule better than the serial one forces its endpoints into the
    same part; the forced parts collapse huge-delay instances to a
    handful of partitions.  Each surviving full assignment runs the
    per-machine order enumeration with delay-aware edge weights.
    """
    lim = lim or SolveLimits()
    n = inst.n_total
    serial = _serial_schedule(inst.dag, dict.fromkeys(range(1, n + 1), 1),
                              lambda j, i: inst.lengths[j])
    serial_ms = makespan(serial)

    # union-find over forced co-location pairs
    root = list(range(n + 1))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for (u, v), c in inst.delays.items():
        if inst.lengths[u] + c + inst.lengths[v] >= serial_ms:
            root[find(u)] = find(v)
    units = {}
    for j in range(1, n + 1):
        units.setdefault(find(j), []).append(j)
    cap = inst.machines if inst.machines is not None else n
    return _exact_search(
        inst.dag, lim, serial, lambda j, i: inst.lengths[j], delay=inst.delays,
        units=sorted(units.values()),  # each sorted, ordered by first member
        classes=[tuple(range(1, cap + 1))],
    )


def list_schedule_commdelay(inst: CommDelayInstance, m: int, priority) -> Schedule:
    """List scheduling with communication delays on machines 1..m: each
    job in ``priority`` goes where it can start earliest, counting the edge
    delay from predecessors on other machines; ties go to the lowest
    machine index."""
    if m < 1:
        raise ValueError("need at least one machine")
    if inst.machines is not None and m > inst.machines:
        raise ValueError(f"instance allows {inst.machines} machines, asked for {m}")
    machines = range(1, m + 1)
    return _list_schedule(inst.dag, priority, inst.lengths, lambda j: machines, inst.delays)


# ---------------------------------------------------------------------------
# related machines


def solve_related_exact(inst: RelatedInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum on related machines by labeled machine assignment
    (speeds break the symmetry) plus per-machine order enumeration."""
    lim = lim or SolveLimits()
    fastest = max(range(1, inst.m + 1), key=lambda i: (inst.machines[i - 1], -i))
    serial = _serial_schedule(inst.dag, dict.fromkeys(range(1, inst.n + 1), fastest),
                              inst.duration)
    return _exact_search(
        inst.dag, lim, serial, inst.duration,
        units=[(j,) for j in range(1, inst.n + 1)],
        classes=[(i,) for i in range(1, inst.m + 1)],
    )


# ---------------------------------------------------------------------------
# layered-graph spread check


def verify_no_property(g: KPartiteInstance, max_pairs: int = 5_000_000) -> bool:
    """Exhaustively check the dense-instance condition: between every two
    consecutive layers, all pairs of ceil(delta*n)-size vertex sets are
    joined by at least one edge.  Returns False on the first missing
    pair; raises :class:`BudgetExceeded` past ``max_pairs`` checks.
    """
    size = math.ceil(g.delta * g.n)
    if size == 0:
        return True
    if size > g.n:
        return False
    checked = 0
    for i in range(1, g.k):
        lo = g.layers[i - 1]
        hi = g.layers[i]
        pos = {v: b for b, v in enumerate(hi)}
        nb = {u: 0 for u in lo}
        for u, v in g.edges[i - 1]:
            nb[u] |= 1 << pos[v]
        hi_masks = []
        for combo in itertools.combinations(hi, size):
            mask = 0
            for v in combo:
                mask |= 1 << pos[v]
            hi_masks.append(mask)
        for combo in itertools.combinations(lo, size):
            reach_mask = 0
            for u in combo:
                reach_mask |= nb[u]
            for mask in hi_masks:
                checked += 1
                if checked > max_pairs:
                    raise BudgetExceeded(f"more than {max_pairs} set pairs")
                if reach_mask & mask == 0:
                    return False
    return True
