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
"""

from __future__ import annotations

import math
from fractions import Fraction


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
