"""Exact desk-scale solvers and list-scheduling heuristics.

The three exact solvers share one branch-and-bound engine,
``_exact_search``.  It builds its own seed schedules on its integer time
base (a serial one and earliest-finish list schedules in index and in
critical-path order) and seeds the incumbent with the shortest, at its
own makespan.  It then enumerates machine assignments, and for each
assignment the per-machine processing orders consistent with the
precedence projection, scores each combination by the earliest-start
longest path through the combined order graph, and replaces the
incumbent only with a strictly shorter result.  A proven search thus
returns the seed when nothing beats it, and otherwise the
lexicographically earliest optimal combination.
The longest paths are kept incrementally: each placement and each order
raises only the starts it moves, and backtracking undoes them.
Interchangeable machines are opened in label order and twin jobs are
kept in job order; these rules skip symmetric copies of a schedule but
keep the lexicographically earliest member of each class, so optima and
tie-breaks are those of the unrestricted search.  Times are scaled to
integers (by the LCM of their denominators) for the search, and the
result's schedule keeps them on that integer time base; only its
``optimum`` is a ``Fraction``.  The solvers differ only in how they
parameterize it:

- fixed-home jobs pin every job to its home machine, so the search is
  the order enumeration alone;
- communication delays place forced co-location units on one class of
  interchangeable machines (set partitions, capped at the machine count)
  and pay the edge delay between machines.  An instance whose edges
  between units all have delay 0, with a machine to spare for every
  unit, is solved as a fixed-home instance instead, one machine per unit:
  giving each unit a machine of its own keeps every start and pays no
  delay, so it loses nothing (see ``solve_commdelay_exact``);
- related machines place single jobs on machines grouped into one class
  per distinct speed, with speed-scaled durations.

Sound pruning (admissible lower bounds, forced co-location under huge
delays, and a completed-set dynamic program for unit lengths with a
descendant-set exchange rule and layer dominance) keeps
desk-scale runs fast without changing any optimum.  A node's lower bound
is its longest path, raised by the one-machine relaxation of each machine
whose job set the node changes: over each head threshold r, r plus the
total time of the machine's jobs that start no earlier than r plus the
least of their tails.  Every ancestor of a leaf that improves the
incumbent has a bound at most that leaf's makespan, so pruning keeps
every improving leaf and meets them in the same order.  A proven search
therefore returns the same schedule as one without the bound, and a
capped one returns what that search would return under a larger cap.

Every solver degrades gracefully: when a state budget or time budget is
hit it returns the best schedule found so far (at worst the seed) with
``proven_optimal=False`` instead of raising.  A search that cannot run
returns that fallback at once with ``states_explored = 0``: one with more
than ``max_jobs`` jobs, and a unit-length dynamic program that a count of
its early states shows must pass ``max_states`` before it can finish.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded
from .model import (
    CommDelayInstance,
    KPartiteInstance,
    RelatedInstance,
    Schedule,
    UmpsInstance,
    _INT,
    _REAL,
    _check_types,
    makespan,
    topological_order,
)


@dataclass(frozen=True)
class SolveLimits:
    max_jobs: int = 10
    max_states: int = 2_000_000
    time_budget: float = 600.0  # seconds

    def __post_init__(self):
        _check_types(_INT, "max_jobs or max_states", (self.max_jobs, self.max_states))
        _check_types(_REAL, "time_budget", (self.time_budget,))
        for name, value in vars(self).items():
            if not value >= 0:  # a NaN budget fails too
                raise ValueError(f"limit {name} must be >= 0, got {value!r}")


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

    def tick(self):
        self.states += 1
        if self.states > self.lim.max_states:
            raise _Abort
        if self.states % 4096 == 0 and time.monotonic() - self.t0 > self.lim.time_budget:
            raise _Abort

    def offer(self, ms, payload):
        if self.best_ms is None or ms < self.best_ms:
            self.best_ms = ms
            self.best_payload = payload


def _extensions(jobs, pred_sets):
    """The linear extensions of a tiny poset, generated lazily in
    lexicographic order."""
    return _extend(sorted(jobs), pred_sets, [], set())


def _extend(jobs, pred_sets, acc, placed):
    """The extensions that continue ``acc``, whose jobs are ``placed``.
    A module-level recursion, so no closure cycle outlives the search."""
    if len(acc) == len(jobs):
        yield tuple(acc)
        return
    for j in jobs:
        if j not in placed and pred_sets[j] <= placed:
            placed.add(j)
            acc.append(j)
            yield from _extend(jobs, pred_sets, acc, placed)
            acc.pop()
            placed.remove(j)


class _Orders:
    """The linear extensions of one machine's jobs, generated lazily and
    kept: each iteration replays the orders generated so far, in
    :func:`_extensions` order, and generates the next one only when the
    caller asks for it, so the underlying generator yields each order
    once however often the group recurs.  The search asks for an order
    only to try it, so the memo holds at most one order per state."""

    def __init__(self, jobs, pred_sets):
        self.seen = []
        self.rest = _extensions(jobs, pred_sets)

    def __iter__(self):
        k = 0
        while True:
            if k == len(self.seen):
                order = next(self.rest, None)
                if order is None:
                    return
                self.seen.append(order)
            yield self.seen[k]
            k += 1


def _list_schedule(order, preds, times, pinned, classes) -> dict:
    """Earliest-finish list scheduling: jobs in ``order`` (a topological
    order, so each job's predecessors are already placed when it is
    reached) go to the candidate machine where they finish first, ties to
    the lowest label.  A pinned job's one candidate is its pin, where it
    takes ``times[j][0]``; any other job may take a machine of
    ``classes`` (tuples of machines with equal times, each in increasing
    label order) and takes ``times[j][c]`` on class c.  ``preds[j]``
    lists ``(u, lag)`` pairs: j starts ``lag`` after u ends when the two
    sit on different machines.  With equal times on every candidate this
    is earliest-start scheduling.  Returns the entries ``{job: (machine,
    start, end)}``.  ``order`` is not checked: every caller passes an
    order of :func:`topological_order`.

    A predecessor on j's candidate machine ended by the time that machine
    went free, so j starts there at the later of the machine's free time
    and the latest ``end + lag`` of its predecessors on other machines.
    That is ``far``, the latest over all predecessors, unless the machine
    is ``far_on``, the one that predecessor sits on; then it is ``near``,
    the latest over the other machines.  Every idle machine of a class
    starts and ends j alike, and the machines of a class fill in label
    order, so each class is scanned up to its first idle machine."""
    free = {}
    used = [0] * len(classes)  # used[c]: how many of class c's machines hold a job
    entries = {}
    for j in order:
        far = near = far_on = 0
        for u, lag in preds[j]:
            mu, _, t = entries[u]
            t += lag
            if mu == far_on:
                if t > far:
                    far = t
            elif t > far:
                far, far_on, near = t, mu, far
            elif t > near:
                near = t
        if j in pinned:
            i = pinned[j]
            s = max(free.get(i, 0), near if i == far_on else far)
            best = (i, s, s + times[j][0])
        else:
            best = None
            for c, cls in enumerate(classes):
                d = times[j][c]
                for i in cls[:used[c] + 1]:
                    s = max(free.get(i, 0), near if i == far_on else far)
                    if best is None or s + d < best[2] or s + d == best[2] and i < best[0]:
                        best, best_c = (i, s, s + d), c
            used[best_c] += best[0] not in free
        entries[j] = best
        free[best[0]] = best[2]
    return entries


def _list_heuristic(dag, lengths, delays, pinned, classes) -> Schedule:
    """:func:`_list_schedule` in the lowest-index topological order of
    ``dag``; job j takes ``lengths[j]`` on every machine."""
    preds = [[] for _ in range(dag.node_count + 1)]
    for u, v in dag.edges:
        preds[v].append((u, delays.get((u, v), 0)))
    times = [()] + [(lengths[j],) for j in range(1, dag.node_count + 1)]
    return Schedule._of_rows(_list_schedule(topological_order(dag), preds, times, pinned, classes))


def _machine_bound(held, start, dur, tail):
    """The head-volume-tail bound of one machine's jobs ``held`` (see
    :func:`_exact_search`): over the prefixes of the jobs in falling
    order of start, the largest last start plus total time plus least
    tail."""
    bound = volume = 0
    low = math.inf
    for j in sorted(held, key=start.__getitem__, reverse=True):
        volume += dur[j]
        if tail[j] < low:
            low = tail[j]
        if start[j] + volume + low > bound:
            bound = start[j] + volume + low
    return bound


def _exact_search(dag, lim, duration, delay=None, pinned=None, units=(), classes=()):
    """Branch and bound over machine assignments, then per-machine orders.

    ``duration(j, i)`` is job j's time on machine i, and ``delay`` maps a
    dag edge to the extra wait paid when its ends sit on different
    machines.  ``pinned`` fixes jobs to machines up front; with no
    ``units`` the search goes straight to the order enumeration.
    Otherwise ``units`` (tuples of jobs that must share a machine) are
    placed in order, each on the machines of ``classes`` in increasing
    label order, skipping any machine past the first one not yet used in
    its class.  A class is a tuple of interchangeable machines, listed in
    increasing label order, on each of which a job takes the same time.

    Set-up costs O(jobs x classes + machines + edges).  ``duration`` is
    called once per job and class (on the class's first machine) or, for
    a pinned job, once on its pin, and this table gives the scale, each
    job's fastest time and the twin keys.  Times are scaled by the LCM of
    their denominators, so the search runs on plain ints, and the result's
    schedule keeps them on that base.  One topological pass
    orders the seeds and gives each job's ancestors as a bit mask, and a
    pass back over it gives each job's tail: the longest path after the
    job ends, at fastest times and with no edge delay.

    Twin jobs (the same time on every class, or on the same pin, and the
    same predecessors, successors and edge delays) are interchangeable
    too: a later single-job unit never takes a lower machine than its
    earlier twin, and twins sharing a machine run in job order.  Each
    symmetry rule keeps the lexicographically least member of every
    class of equivalent schedules, the one an unrestricted search meets
    first, so the rules change the states explored but neither the
    optimum nor the schedule returned.

    One array of earliest starts serves the whole search.  Edge weights
    are computed as an edge is relaxed: the earlier job's time on its
    machine (its fastest time while unplaced), plus the edge delay once
    both ends are placed apart.  The root relaxes the whole dag; placing
    a unit relaxes only from the ends its times lengthen and the delays
    it newly pays; fixing a machine's order links each of its jobs to the
    next one and relaxes from those links.  Every raised start is logged
    and undone on backtrack.

    A node's bound is admissible and never below its parent's: it is the
    largest of the parent's bound, the ends raised on the way and the
    one-machine head-volume-tail bound of each machine whose job set the
    node changes and that holds two or more jobs (a lone job's start,
    time and tail never pass the longest path): every pinned machine at
    the root, and the machine just used at an assignment node.  A job's
    head is its earliest start.  Taken in falling order of head, each
    prefix of a machine's jobs runs one job at a time from its last head
    on, so the prefix's last job to finish ends no earlier than that head
    plus the prefix's total time and is followed by at least the prefix's
    least tail.  The machine bound, the largest of these sums, covers
    every head threshold r, and at the lowest r the machine's load.  It is
    admissible: down a branch no head falls (a placement lengthens a job
    from its fastest time and adds delays, and an order adds links), a
    placed job's time is final, tails are floors, and a machine runs its
    jobs one at a time.  Pruning keeps the tie-breaks: every ancestor of a
    leaf that improves the incumbent has a bound at most that leaf's
    makespan, below the incumbent of the moment, so the search meets the
    same improving leaves in the same order, in fewer states.  A proven
    search returns what the search without the machine bound returns, and
    a capped one what that search returns under some larger cap.

    Once the incumbent drops to a node's bound its remaining children are
    skipped, and an end that reaches the incumbent prunes a child at once,
    which also ends a cycle of machine links.  Each machine's orders (the
    linear extensions of its jobs under the dag and the twin rule) are
    generated once per search and replayed when the same jobs share a
    machine again.

    The engine builds its seed schedules from its integer tables.  The
    serial one runs every job, in the lowest-index topological order, back
    to back on its pin or else on the lowest-labelled class machine where
    it runs fastest.  The callers' times are equal on every class machine
    (communication delays) or scale with one speed per machine (related
    machines), so every unpinned job shares that one machine and the
    seed pays no delay.  The earliest-finish list schedule takes the jobs
    in the same order and puts each on its pin or on any class machine.
    The shorter of the two (the serial one on a tie) is the seed.  A
    search of at most ``lim.max_jobs`` jobs then builds the list schedule
    once more, in critical-path order (:func:`topological_order` with
    each job's fastest time plus its tail as its level), and keeps it when
    it is strictly shorter; so an oversized search returns the first
    seed, which with every job pinned is the ``greedy_umps`` schedule.

    The incumbent is the seed at its own makespan, and a leaf replaces it
    only when strictly shorter: a proven search returns the seed when no
    leaf beats it, and otherwise the first optimal leaf it meets.  A
    smaller seed never adds a state.  Each test that prunes (a bound or an
    end against the incumbent, the order loop's bound) cuts at least as
    much under a smaller incumbent, and the incumbent stays no larger at every
    step: a subtree that the smaller one prunes holds no leaf shorter than
    it.  With a no-larger incumbent at every step, the search visits a
    subsequence of the nodes that a larger seed's search visits.  The seed
    schedule is returned when the search finds nothing better before its
    budget trips, and at once, unproven, when there are more than
    ``lim.max_jobs`` jobs.
    """
    n = dag.node_count
    delay = delay or {}
    pinned = pinned or {}
    classes = [cls for cls in classes if cls]  # no jobs on unbounded machines: an empty class
    jobs = range(1, n + 1)
    class_of = {i: (c, slot) for c, cls in enumerate(classes) for slot, i in enumerate(cls)}
    machines = sorted(set(class_of) | set(pinned.values()))
    # job j's time on its pin, or on each class, whose first machine stands
    # for all of them
    exact = [()] + [(duration(j, pinned[j]),) if j in pinned
                    else tuple(duration(j, cls[0]) for cls in classes) for j in jobs]
    scale = math.lcm(*(t.denominator for row in exact for t in row),
                     *(c.denominator for c in delay.values()))
    times = [tuple(t.numerator * (scale // t.denominator) for t in row) for row in exact]
    delay = {e: c.numerator * (scale // c.denominator) for e, c in delay.items()}
    preds = [[] for _ in range(n + 1)]  # (u, delay) per job
    succs = [[] for _ in range(n + 1)]  # (v, delay) per job
    for u, v in dag.edges:
        c = delay.get((u, v), 0)
        preds[v].append((u, c))
        succs[u].append((v, c))
    order = topological_order(dag)
    lowest = [cls[0] for cls in classes]
    seed, seed_ms = {}, 0  # the serial seed; seed_ms runs as its cursor
    for j in order:
        t, i = (times[j][0], pinned[j]) if j in pinned else min(zip(times[j], lowest))
        seed[j] = (i, seed_ms, seed_ms + t)
        seed_ms += t
    listed = _list_schedule(order, preds, times, pinned, classes)
    listed_ms = max((end for _, _, end in listed.values()), default=0)
    if listed_ms < seed_ms:
        seed, seed_ms = listed, listed_ms
    search = _Search(lim)
    search.offer(seed_ms, None)

    def result(proven):
        if search.best_payload is None:
            best, entries = seed_ms, seed
        else:
            labels, starts, durs = search.best_payload
            best, entries = search.best_ms, {
                j: (labels[j], starts[j], starts[j] + durs[j]) for j in jobs}
        return SolveResult(Fraction(best, scale), Schedule._of_rows(entries, scale), proven,
                           search.states)

    if n > lim.max_jobs:
        return result(False)

    fastest = [0] + [min(times[j]) for j in jobs]  # a pinned job has one time, on its pin
    tail = [0] * (n + 1)  # tail[u]: the longest path after u ends, at fastest times, no delay
    for u in reversed(order):
        tail[u] = max((fastest[v] + tail[v] for v, _ in succs[u]), default=0)
    critical = topological_order(dag, [f + t for f, t in zip(fastest, tail)])
    if critical != order:  # the same order gives the same schedule
        listed = _list_schedule(critical, preds, times, pinned, classes)
        listed_ms = max((end for _, _, end in listed.values()), default=0)
        if listed_ms < seed_ms:
            seed, seed_ms = listed, listed_ms
            search.offer(seed_ms, None)

    # mach[j] is job j's machine (0 until placed), dur[j] its time there
    # (its fastest time while unplaced), start[j] its earliest start and
    # nxt[j] the job after it on its machine (0 until an order is fixed);
    # on[i] lists machine i's jobs in the order they were placed
    mach = [0] + [pinned.get(j, 0) for j in jobs]
    dur = list(fastest)
    width = machines[-1] + 1 if machines else 1  # per-machine lists are indexed by label
    start = [0] * (n + 1)
    nxt = [0] * (n + 1)
    on = [[] for _ in range(width)]
    for j, i in sorted(pinned.items()):
        on[i].append(j)
    log = []  # (job, start it had) for every raised start, newest last

    # before[v]: bit mask of the jobs that must run before v when they
    # share its machine: its ancestors, in one pass over the topological
    # order, and its earlier twins
    before = [0] * (n + 1)
    for v in order:
        for u, _ in preds[v]:
            before[v] |= before[u] | 1 << u
    first, twin = {}, {}  # twin[j]: the first job of j's twin class
    twins_so_far = {}
    for j in jobs:
        key = (times[j], tuple(sorted(preds[j])), tuple(sorted(succs[j])), pinned.get(j))
        t = twin[j] = first.setdefault(key, j)
        before[j] |= twins_so_far.get(t, 0)
        twins_so_far[t] = twins_so_far.get(t, 0) | 1 << j
    floor_of, last = {}, {}  # unit index -> the earlier single-job twin it may not undercut
    for k, unit in enumerate(units):
        if len(unit) == 1:
            if twin[unit[0]] in last:
                floor_of[k] = last[twin[unit[0]]]
            last[twin[unit[0]]] = unit[0]
    candidates = [(i, *class_of[i]) for i in sorted(class_of)]
    opened = [0] * len(classes)
    memo = {}  # a machine's jobs, as placed -> their _Orders

    def relax(pending, limit):
        """Raise earliest starts from the ``(job, start)`` candidates in
        ``pending`` along the dag edges and the machine links, logging
        each overwritten start.  Returns the latest end raised (0 if
        none), or None as soon as an end reaches ``limit``.  Every time is
        positive, so a cycle raises its ends without bound and always
        ends in None."""
        top = 0
        while pending:
            v, t = pending.pop()
            if t > start[v]:
                log.append((v, start[v]))
                start[v] = t
                t += dur[v]
                if t >= limit:
                    return None
                if t > top:
                    top = t
                mv = mach[v]
                for w, c in succs[v]:
                    tw = t + c if c and mv and (mw := mach[w]) and mw != mv else t
                    if tw > start[w]:
                        pending.append((w, tw))
                w = nxt[v]
                if w and t > start[w]:
                    pending.append((w, t))
        return top

    def raise_ends(group, top, limit):
        """Relax from the ends of ``group``'s jobs, which have just been
        placed (or, at the root, are all new), and from the delays they
        newly pay.  Returns the latest end, ``top`` at least, or None as
        soon as an end reaches ``limit``."""
        if top >= limit:
            return None
        pending = []
        for j in group:
            t = start[j] + dur[j]
            if t >= limit:
                return None
            if t > top:
                top = t
            mj = mach[j]
            for w, c in succs[j]:
                tw = t + c if c and mj and (mw := mach[w]) and mw != mj else t
                if tw > start[w]:
                    pending.append((w, tw))
            for u, c in preds[j]:
                if c and mj and (mu := mach[u]) and mu != mj:
                    pending.append((j, start[u] + dur[u] + c))
        raised = relax(pending, limit)
        return None if raised is None else max(top, raised)

    def undo(mark):
        while len(log) > mark:
            v, old = log.pop()
            start[v] = old

    def orders(k, groups, bound):
        """Try each order of ``groups[k]`` on top of the orders fixed for
        the groups before it; a full set offers its makespan."""
        if k == len(groups):
            search.offer(bound, (list(mach), list(start), list(dur)))
            return
        group = iter(groups[k])
        while bound < search.best_ms:  # every later order starts from this bound
            order = next(group, None)
            if order is None:
                return
            search.tick()
            mark = len(log)
            pending = []
            u = order[0]
            for v in order[1:]:
                nxt[u] = v
                t = start[u] + dur[u]
                if t > start[v]:
                    pending.append((v, t))
                u = v
            top = relax(pending, search.best_ms)
            if top is not None:
                orders(k + 1, groups, max(bound, top))
            undo(mark)
            for u in order:
                nxt[u] = 0

    def assign(k, path):
        """Place units k, ... below a node whose bound ``path`` is below
        the incumbent."""
        if k == len(units):
            groups = []
            for i in machines:
                held = on[i]
                if len(held) > 1:  # a lone job has one order and adds no link
                    key = tuple(held)
                    if key not in memo:
                        memo[key] = _Orders(key, {v: {u for u in key if before[v] >> u & 1}
                                                  for v in key})
                    groups.append(memo[key])
            orders(0, groups, path)
            return
        unit = units[k]
        low = mach[floor_of[k]] if k in floor_of else 0
        for i, c, slot in candidates:
            if slot > opened[c] or i < low:
                continue
            search.tick()
            fresh = slot == opened[c]  # opens the next machine of the class
            opened[c] += fresh
            for j in unit:
                mach[j], dur[j] = i, times[j][c]
                on[i].append(j)
            mark = len(log)
            child = raise_ends(unit, path, search.best_ms)
            if child is not None and len(on[i]) > 1:
                child = max(child, _machine_bound(on[i], start, dur, tail))
            if child is not None and child < search.best_ms:
                assign(k + 1, child)
            undo(mark)
            for j in unit:
                mach[j], dur[j] = 0, fastest[j]
                on[i].pop()
            opened[c] -= fresh
            if path >= search.best_ms:  # every later child starts from this bound
                return

    proven = True
    try:
        search.tick()
        path = raise_ends(jobs, 0, search.best_ms)
        if path is not None:
            path = max([path] + [_machine_bound(on[i], start, dur, tail)
                                 for i in machines if len(on[i]) > 1])
            if path < search.best_ms:
                assign(0, path)
    except _Abort:
        proven = False
    # assign and orders call themselves, so their closures are cycles:
    # break them, and what the search holds is freed now
    assign = orders = None
    return result(proven)


# ---------------------------------------------------------------------------
# fixed-home jobs


def greedy_umps(inst: UmpsInstance) -> Schedule:
    """List scheduling on home machines in the lowest-index topological order."""
    return _list_heuristic(inst.dag, inst.lengths, {}, inst.home, ())


def solve_umps_exact(inst: UmpsInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum for fixed-home scheduling.

    Unit-length instances use a dynamic program over completed job sets,
    built round by round (rounds process one available job per machine;
    filling an idle machine never hurts, so maximal rounds suffice).  A
    state is the bit mask of its done jobs and carries its ready mask: a
    child's is its parent's minus the jobs just run, plus those of their
    successors whose predecessors are now all done.  Two rules drop
    states and keep the optimum (see ``_unit_layers``).  An exchange rule
    drops children: a ready job with predecessors waits while a ready job
    on its machine has a superset of its descendants (equal sets: the
    lower index runs first); the argument holds from any done mask.
    Layer dominance keeps, of each round, only the masks that lie inside
    no other mask of that round: a superset done by the same round
    finishes no later.  For any t of one machine's predecessor-free jobs,
    round t still keeps a mask that holds just those of that machine's
    jobs, so the count below holds (see ``_solve_umps_unit``).  Past
    ``lim.max_states`` kept states, checked once per round, it returns the
    ``greedy_umps`` schedule unproven, and it is not started when a count
    shows it must get there: with f the most predecessor-free jobs on one
    machine and L the most jobs on one machine, it keeps at least the sum
    of C(f, t) over t = 0 .. min(L - 1, f) states before it can finish.
    Such a search returns the greedy schedule at once with
    ``states_explored = 0``: no state was explored, and the optimum,
    schedule and proof flag are those the capped search would return.
    General lengths, and any instance with more than ``lim.max_jobs``
    jobs, go to the order-search engine; past ``max_jobs`` it returns its
    seed, which with every job pinned is the ``greedy_umps`` schedule.
    Both paths return the same optima; the tests cross-check them against
    a time-indexed brute-force oracle.
    """
    lim = lim or SolveLimits()
    if inst.unit_lengths and inst.n <= lim.max_jobs:
        return _solve_umps_unit(inst, lim)
    return _exact_search(inst.dag, lim, lambda j, i: inst.lengths[j], pinned=inst.home)


def _home_masks(inst: UmpsInstance) -> list:
    """Each machine's jobs as a bit mask, in machine order."""
    home_mask = [0] * inst.m
    for j in range(1, inst.n + 1):
        home_mask[inst.home[j] - 1] |= 1 << (j - 1)
    return home_mask


def _solve_umps_unit(inst: UmpsInstance, lim: SolveLimits) -> SolveResult:
    """The round-by-round DP of :func:`solve_umps_exact` over the layers
    of :func:`_unit_layers`, which returns ``greedy_umps(inst)`` unproven
    once more than ``lim.max_states`` states are kept or
    ``lim.time_budget`` is spent.  Both are checked once per round, after
    its layer is filtered; a round that keeps the full mask ends the
    search proven.  The schedule follows the parent links back from the
    full mask: a mask's parent is the first kept mask of the round before,
    in layer order, that generated it.

    A search that provably trips its cap is not started: the greedy
    schedule comes back at once with ``states_explored = 0``.  Let f be
    the most predecessor-free jobs on one machine i and L the most jobs on
    one machine, a lower bound on the optimum.  For t <= min(L - 1, f):

    - machine i has a ready predecessor-free job in each of rounds 1 .. t,
      so every mask of round t holds exactly t jobs of machine i.  A mask
      of round t can therefore lie only inside one with the same machine-i
      set, and no mask of an earlier round has that set;
    - by induction on t, for every t-subset S of those f jobs, round t
      keeps a mask whose machine-i set is S.  Take the kept mask of round
      t - 1 for S minus a job j.  j is ready and predecessor-free, so the
      exchange rule never defers it, and a child that runs j on machine i
      has machine-i set S.  That child is new in round t, and it is kept
      or lies inside a kept mask with the same machine-i set.

    These kept masks are pairwise distinct, and each of rounds
    0 .. min(L - 1, f) ends below the full mask's round, with a cap check.
    When the sum of C(f, t) over t = 0 .. min(L - 1, f) exceeds the cap,
    the search would therefore trip its cap and return the same greedy
    schedule; only ``states_explored`` differs.
    """
    full = (1 << inst.n) - 1
    home_mask = _home_masks(inst)

    def capped(states):
        sched = greedy_umps(inst)
        return SolveResult(makespan(sched), sched, proven_optimal=False,
                           states_explored=states)

    parent = {0: None}
    layers = _unit_layers(inst, parent)
    ready0 = next(layers)[0]  # round 0 keeps the empty mask alone
    widest = max((ready0 & home).bit_count() for home in home_mask)  # f
    load = max(home.bit_count() for home in home_mask)  # L
    counted = 0  # a lower bound on the states the search keeps
    for t in range(min(load - 1, widest) + 1):
        counted += math.comb(widest, t)
        if counted > lim.max_states:
            return capped(0)
    t0 = time.monotonic()

    states = 1
    for rounds, layer in enumerate(layers, start=1):
        states += len(layer)
        if full in layer:
            break
        if states > lim.max_states or time.monotonic() - t0 > lim.time_budget:
            return capped(states)

    entries = {}
    mask, r = full, rounds
    while mask:
        prev = parent[mask]
        r -= 1
        chosen = mask ^ prev
        for home in home_mask:  # machine order, as the round's choice
            if chosen & home:
                j = (chosen & home).bit_length()
                entries[j] = (inst.home[j], r, r + 1)
        mask = prev
    sched = Schedule._of_rows(entries)
    return SolveResult(
        optimum=Fraction(rounds),
        schedule=sched,
        proven_optimal=True,
        states_explored=states,
    )


def _unit_layers(inst: UmpsInstance, parent: dict):
    """The kept layers of the unit DP, one per round from round 0 until
    the round that keeps the full mask.  A layer maps each kept done mask
    of its round to its ready mask.  ``parent``, given as ``{0: None}``,
    gains every generated mask, kept or dropped, mapped to the kept mask
    of the round before that generated it first; a mask generated once is
    not generated again.  A layer keeps its masks in the order they were
    first generated, and only its kept masks are expanded.

    Layer dominance: a round keeps only its maximal masks, those that lie
    inside no other mask of the same round.  It keeps the optimum.  Let
    OPT(D) be the fewest rounds that finish from done mask D.

    - If D is a subset of D', then OPT(D') <= OPT(D): run a schedule that
      finishes from D and skip the jobs of D'.  A skipped job is done, so
      every remaining job still has its predecessors done or run before.
    - The exchange argument below holds from any done mask, so each kept
      mask D has an optimal first round from D that obeys the rule.
    - So some kept mask D of each round t has t + OPT(D) = OPT.  It holds
      at round 0.  Given it at round t, D has a child D1 with
      t + 1 + OPT(D1) = OPT.  D1 was not generated in an earlier round s:
      a kept mask D2 of round s that contains D1 would give
      s + OPT(D2) < OPT.  So D1 is in round t + 1, where it or a kept mask
      that contains it carries the claim.
    - The full mask therefore is kept in round OPT, and in no earlier
      round, since every mask of round r is reached in r rounds.

    A mask can lie only inside a mask with more jobs, so the filter takes
    the masks by job count, most first, and keeps each one that lies
    inside none of those kept before it; a layer of one job count keeps
    every mask.

    The exchange rule: a ready job j that has predecessors is not run
    while a ready job k on its machine has desc(j) a subset of desc(k),
    where desc is all descendants, not just successors; when the two sets
    are equal, the lower index runs first.  It keeps the optimum from any
    done mask:

    - rank each machine's jobs by (-|desc|, index);
    - among optimal maximal-round schedules from the mask, take the one
      whose per-round choices are lexicographically least by that rank;
    - suppose it runs j at round t while a ready k dominates j, and swap
      j and k.  k's successors only gain; j's successors are descendants
      of k, so they already started after k's old slot;
    - pull newly ready jobs into idle slots after t.  This restores
      maximal rounds and never lengthens the schedule;
    - the result agrees with the old schedule before t and is
      lexicographically smaller at round t, a contradiction.  So the
      least schedule obeys the rule at every round.

    Predecessor-free jobs are never deferred, so the skip count of
    :func:`_solve_umps_unit` holds.  Deferring them too would cut more
    states, but the count would then fail, and searches it skips today
    would run to their cap.  The rule's table is built on demand, so
    small searches pay little for it: a job's row (the jobs that defer it)
    the first time it is ready beside another job on its machine, and the
    descendant masks with the first row, in one pass over the jobs in
    reversed topological order (a job's successors come first).
    """
    n = inst.n
    full = (1 << n) - 1
    pred_mask = [0] * (n + 1)
    succ = [[] for _ in range(n + 1)]  # (bit, pred_mask) per successor
    for u, v in inst.dag.edges:
        pred_mask[v] |= 1 << (u - 1)
    for u, v in inst.dag.edges:
        succ[u].append((1 << (v - 1), pred_mask[v]))
    home_mask = _home_masks(inst)
    ready0 = sum(1 << (j - 1) for j in range(1, n + 1) if not pred_mask[j])
    later = full ^ ready0  # jobs with predecessors: the exchange rule may defer them
    desc = None  # descendant masks, made at the rule's first use
    defer = [None] * (n + 1)  # per job, made the first time it is ready beside another

    def deferring(j):
        # the jobs k on j's machine with desc(j) a proper subset of
        # desc(k), or equal to it and k < j
        nonlocal desc
        if desc is None:
            desc = [0] * (n + 1)
            for u in reversed(topological_order(inst.dag)):
                for bit, _ in succ[u]:
                    desc[u] |= bit | desc[bit.bit_length()]
        dj = desc[j]
        out = 0
        rest = home_mask[inst.home[j] - 1] & ~(1 << (j - 1))
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length()
            if dj & desc[k] == dj and (dj != desc[k] or k < j):
                out |= low
        return out

    layer = {0: ready0}
    yield layer
    while full not in layer:
        fresh = []
        for mask, ready in layer.items():
            # children: the done mask plus one ready job per machine, OR-ed
            # in itertools.product order over the machines with a ready job
            children = [mask]
            for home in home_mask:
                avail = ready & home
                if avail:
                    if avail & (avail - 1):
                        # the exchange rule: drop each deferred job
                        run = avail
                        rest = avail & later
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            j = low.bit_length()
                            waits = defer[j]
                            if waits is None:
                                waits = defer[j] = deferring(j)
                            if waits & avail:
                                run ^= low
                        avail = run
                    bits = []
                    while avail:
                        low = avail & -avail
                        bits.append(low)
                        avail ^= low
                    children = [c | b for c in children for b in bits]
            for new in children:
                if new not in parent:
                    parent[new] = mask
                    fresh.append(new)
        if len(set(map(int.bit_count, fresh))) > 1:
            # layer dominance, most jobs first.  The subset test is an
            # `in` over a map, which scans in C: an any() loop over the
            # kept masks made the filter over a quarter of the search
            kept = []
            for _, same in itertools.groupby(sorted(fresh, key=int.bit_count, reverse=True),
                                             int.bit_count):
                if kept:
                    same = [x for x in same if x not in map(x.__and__, kept)]
                kept += same
            kept = set(kept)
            fresh = [x for x in fresh if x in kept]
        # the kept masks' ready masks
        grown = {}
        for new in fresh:
            mask = parent[new]
            chosen = new ^ mask
            ready = layer[mask] ^ chosen
            while chosen:
                low = chosen & -chosen
                chosen ^= low
                for bit, pm in succ[low.bit_length()]:
                    if pm & new == pm:
                        ready |= bit
            grown[new] = ready
        layer = grown
        yield layer


# ---------------------------------------------------------------------------
# communication delays


def solve_commdelay_exact(inst: CommDelayInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum with communication delays.

    Machines are interchangeable, so assignments are enumerated as set
    partitions of the jobs (capped at the machine count when bounded).
    Before searching, any edge whose delay is too large to ever pay in a
    schedule better than the serial one forces its endpoints into the
    same part (:func:`_forced_units`); the forced parts collapse
    huge-delay instances to a handful of partitions.  Each surviving full
    assignment runs the per-machine order enumeration with delay-aware
    edge weights.

    When every edge between two different units has delay 0 and the
    instance allows at least as many machines as there are units, the
    instance is solved as a fixed-home one instead: one machine per unit,
    each job homed on its unit's machine, by :func:`solve_umps_exact`
    (the unit-length dynamic program when every length is 1, the engine
    with every job pinned otherwise).  Both give the same optimum.  The
    search above only meets schedules that keep each unit on one machine,
    and moving each unit to an empty machine of its own keeps every start
    and pays no new delay, since its edges to other units are free; it
    only drops the order constraints between units that shared a machine.
    So the best schedule with one unit per machine is an optimal one.
    Such a call reports the fixed-home solver's ``states_explored``, which
    is 0 when the dynamic program is skipped as unable to finish.  Delay
    gadget outputs take this path: the source edges keep delay 0, and each
    unit is one source machine's jobs and its anchor, which the anchor
    delay forces together unless the source has more than n^2 - n + 2
    machines for its n jobs.
    """
    lim = lim or SolveLimits()
    n = inst.n_total
    units = _forced_units(inst)
    home = {j: k for k, unit in enumerate(units, start=1) for j in unit}
    cap = inst.machines if inst.machines is not None else n
    if 0 < len(units) <= cap and all(not c or home[u] == home[v]
                                     for (u, v), c in inst.delays.items()):
        return solve_umps_exact(UmpsInstance(n, len(units), inst.lengths, home, inst.dag), lim)
    return _exact_search(
        inst.dag, lim, lambda j, i: inst.lengths[j], delay=inst.delays,
        units=units, classes=[tuple(range(1, cap + 1))],
    )


def _forced_units(inst: CommDelayInstance) -> list:
    """The jobs that every schedule better than the serial one keeps on one
    machine: the classes of the edges whose delay is too large to pay
    there, each sorted, ordered by first member."""
    serial_ms = sum(inst.lengths.values())  # every job back to back on one machine
    root = list(range(inst.n_total + 1))  # union-find over forced co-location pairs

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for (u, v), c in inst.delays.items():
        if inst.lengths[u] + c + inst.lengths[v] >= serial_ms:
            root[find(u)] = find(v)
    units = {}
    for j in range(1, inst.n_total + 1):
        units.setdefault(find(j), []).append(j)
    return sorted(units.values())


def list_schedule_commdelay(inst: CommDelayInstance) -> Schedule:
    """List scheduling with communication delays on the instance's
    machines (``n_total`` when unbounded): each job, in the lowest-index
    topological order, goes where it starts earliest after the delays of
    its predecessors on other machines, ties to the lowest machine."""
    cap = inst.machines if inst.machines is not None else inst.n_total
    return _list_heuristic(inst.dag, inst.lengths, inst.delays, {}, (range(1, cap + 1),))


# ---------------------------------------------------------------------------
# related machines


def solve_related_exact(inst: RelatedInstance, lim: SolveLimits = None) -> SolveResult:
    """Exact optimum on related machines: single jobs placed on machines
    grouped into one class per distinct speed (equal-speed machines are
    interchangeable), plus per-machine order enumeration."""
    lim = lim or SolveLimits()
    by_speed = {}
    for i, speed in enumerate(inst.machines, start=1):
        by_speed.setdefault(speed, []).append(i)
    return _exact_search(
        inst.dag, lim, inst.duration,
        units=[(j,) for j in range(1, inst.n + 1)],
        classes=[tuple(machines) for machines in by_speed.values()],
    )


# ---------------------------------------------------------------------------
# layered-graph spread check


NO_PROPERTY_SET_CAP = 5_000_000  # lower-layer sets verify_no_property checks at most


def verify_no_property(g: KPartiteInstance) -> bool:
    """Exhaustively check the dense-instance condition: between every two
    consecutive layers, every s-set of the lower layer and every s-set of
    the upper one, s = ceil(delta*n), are joined by at least one edge.

    That fails exactly when some lower s-set leaves s or more upper
    vertices outside its neighbourhood (they form an unjoined upper
    s-set), so each lower s-set costs one popcount.  Returns False on the
    first such set; raises :class:`BudgetExceeded` past
    ``NO_PROPERTY_SET_CAP`` lower-layer sets.
    """
    size = math.ceil(g.delta * g.n)  # 1 <= size <= n, as 0 < delta < 1
    checked = 0
    for i in range(1, g.k):
        pos = {v: b for b, v in enumerate(g.layers[i])}
        nb = {u: 0 for u in g.layers[i - 1]}
        for u, v in g.edges[i - 1]:
            nb[u] |= 1 << pos[v]
        for combo in itertools.combinations(g.layers[i - 1], size):
            checked += 1
            if checked > NO_PROPERTY_SET_CAP:
                raise BudgetExceeded(f"more than {NO_PROPERTY_SET_CAP} lower-layer sets")
            reach = 0
            for u in combo:
                reach |= nb[u]
            if g.n - reach.bit_count() >= size:
                return False
    return True
