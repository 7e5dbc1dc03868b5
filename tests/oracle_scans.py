"""Reference swap and fill passes for ``rounding.canonicalize``.

The passes here scan every job at every (slot, machine), as the package
once did; ``rounding.canonicalize`` scans only the jobs whose window
spans two or more slots.  The tests require both to take the same steps
and reach the same masses.  This module stays apart from ``oracle.py``,
which the benchmark imports after its timed pass: without cached
bytecode, every line compiled there raises the benchmark's peak RSS.
"""

from __future__ import annotations

import math
from fractions import Fraction


class _FullScanGrid:
    """The integer grid of a fractional schedule as the swap and fill
    passes once kept it: ``windows`` holds each job's window start from
    when the grid was made and its current end, and every scan reads
    every job of every (slot, machine)."""

    def __init__(self, fs):
        inst = fs.umps_ref
        self.unit = math.lcm(fs.gamma.denominator, *(x.denominator for x in fs.mass.values()))
        self.horizon, self.home = fs.horizon, inst.home
        self.jobs_on = [[] for _ in range(inst.m + 1)]
        for l in range(1, inst.n + 1):
            self.jobs_on[inst.home[l]].append(l)
        self.slots, self.loads = {}, {}
        for (job, slot), x in fs.mass.items():
            units = x.numerator * (self.unit // x.denominator)
            self.slots.setdefault(job, {})[slot] = units
            key = (inst.home[job], slot)
            self.loads[key] = self.loads.get(key, 0) + units
        self.windows = {job: (min(s), max(s)) for job, s in self.slots.items()}

    def move(self, job, slot_from, slot_to, y):
        slots = self.slots[job]
        if slots[slot_from] == y:
            del slots[slot_from]
        else:
            slots[slot_from] -= y
        slots[slot_to] = slots.get(slot_to, 0) + y
        home = self.home[job]
        self.loads[(home, slot_from)] -= y
        self.loads[(home, slot_to)] = self.loads.get((home, slot_to), 0) + y
        self.windows[job] = (self.windows[job][0], max(slots))

    def next_slot(self, job, t):
        return min(s for s in self.slots[job] if s > t)

    def find_swap(self, first_slot):
        slots, windows = self.slots, self.windows
        for t in range(first_slot, self.horizon + 1):
            for i in range(1, len(self.jobs_on)):
                jobs_i = self.jobs_on[i]
                latest = max(
                    ((windows[l][1], l) for l in jobs_i if t in slots[l]), default=None
                )
                if latest is None:
                    continue
                for l1 in jobs_i:
                    ts1, te1 = windows[l1]
                    if ts1 <= t < te1 and (te1, l1) < latest:
                        for l2 in jobs_i:
                            if t in slots[l2] and (te1, l1) < (windows[l2][1], l2):
                                return i, l1, l2, t
        return None

    def find_fill(self, first_slot, first_machine):
        for t in range(first_slot, self.horizon + 1):
            for i in range(first_machine if t == first_slot else 1, len(self.jobs_on)):
                slack = self.unit - self.loads.get((i, t), 0)
                if slack <= 0:
                    continue
                for l in self.jobs_on[i]:
                    ts, te = self.windows[l]
                    if ts <= t < te:
                        return i, l, t, slack
        return None

    def line(self, kind, machine, jobs, slot, y):
        y = Fraction(y, self.unit)
        names = ",".join(str(j) for j in jobs)
        return f"{kind} machine={machine} jobs={names} slot={slot} y={y.numerator}/{y.denominator}"

    def swaps(self, trace):
        steps, first_slot = 0, 1
        while (found := self.find_swap(first_slot)) is not None:
            steps += 1
            i, l1, l2, t = found
            end1 = self.windows[l1][1]
            t2 = self.next_slot(l1, t)
            y = min(self.slots[l1][t2], self.slots[l2][t])
            self.move(l1, t2, t, y)
            self.move(l2, t, t2, y)
            ts1, te1 = self.windows[l1]
            first_slot = ts1 if te1 < end1 else t
            trace.append(self.line("swap", i, (l1, l2), t, y))
        return steps

    def fills(self, trace):
        steps, first_slot, first_machine = 0, 1, 1
        while (found := self.find_fill(first_slot, first_machine)) is not None:
            steps += 1
            i, l, t, slack = found
            t2 = self.next_slot(l, t)
            y = min(self.slots[l][t2], slack)
            self.move(l, t2, t, y)
            first_slot, first_machine = t, i
            trace.append(self.line("fill", i, (l,), t, y))
        return steps


def oracle_canonicalize(fs, trace: list) -> dict:
    """The masses at the joint swap/fill fixpoint that
    ``rounding.canonicalize`` reaches, appending the same trace lines,
    by full scans: every job is a candidate at every (slot, machine),
    where the package scans only jobs whose window spans two or more
    slots."""
    grid = _FullScanGrid(fs)
    while grid.swaps(trace) + grid.fills(trace):
        pass
    return {(job, slot): Fraction(x, grid.unit)
            for job, slots in grid.slots.items() for slot, x in slots.items()}
