"""Fractional schedules on unit slots and their rounding to integral ones.

A fractional schedule assigns each (job, slot) a rational mass: the
fraction of the job processed by its home machine during that slot.
Live objects always satisfy the three defining properties:

1. every job keeps total mass in [1 - gamma, 1];
2. each machine processes total mass at most 1 per slot;
3. if l1 precedes l2, all of l2's mass sits in strictly later slots
   than all of l1's mass (windows are separated).

Two local rewrites clean a schedule up without breaking the properties:
a *swap* moves mass of an earlier-finishing job to an earlier slot,
displacing an equal mass of a later-finishing job from that slot, and a
*fill* pulls mass of a job forward into machine idle capacity.
:func:`canonicalize` runs the two to a joint fixpoint, and
:func:`greedy_canonical` builds an earliest-deadline packed fixpoint of
both in one sweep.  Both results are fixpoints that meet the
partial-load bound below, and they agree on the schedules that
:func:`~schedreduce.generators.gen_fractional` draws (checked by the
tests and the benchmark).  They differ in general, because the rewrites
are not confluent: a fill can move a window end back, which changes the
job a later swap ranks first (the tests pin a four-job, one-machine
case).  The passes take each job's
window start from their input, so a job that a swap pushed into a later
slot can still be pulled back once fills empty the slot before it.

The rewrites terminate.  Window ends never grow: a fill moves mass
earlier, and a swap moves l2's mass to t2, a slot of l1, with
t2 <= end(l1) <= end(l2).  Rank each machine's jobs by (window end,
index) and give earlier ranks larger integer weights w; let
Phi = sum_l w(l) * sum_t t * units(l, t).  While no window end moves, a
fill moves y >= 1 units earlier, and a swap moves y units of l1 earlier
and y units of l2 later by the same distance with w(l1) > w(l2), so Phi
falls by at least 1.  The pair (sum of window ends, Phi) of non-negative
ints thus falls lexicographically on every step.

In canonical form the leftover ("partial") mass on a machine grows by at
most gamma per slot, so when gamma * horizon <= 1/(10 n) each slot hosts
at most two jobs and doubling every slot yields an integral schedule of
at most twice the horizon: :func:`extract_integral`.

The arithmetic runs on an integer mass base, as the exact search runs on
an integer time base.  Each schedule builds one grid when it is
constructed: every mass as an int in units of the LCM of the mass and
gamma denominators, per job and per (machine, slot).  The property
check, the rewrites, the greedy sweep, the partial-load bound and the
extraction all read that grid; the rewrites work on a copy of it, which
is checked once per pass.  ``Fraction`` appears only at the boundary:
the ``y`` of a trace line and the masses of a returned schedule.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfeasibleInput,
    MisplacedFractionExceeded,
    NonUnitLengths,
    PreconditionGamma,
    PropertyViolated,
    TooManyJobsPerSlot,
)
from .model import Schedule, UmpsInstance, as_fraction, validate_grouped, validate_umps

ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalSchedule:
    """Mass per (job, slot) over unit slots 1..horizon of ``umps_ref``.

    Only positive masses are stored; the constructor normalizes, builds
    the integer grid and verifies all three properties on it, raising
    :class:`PropertyViolated` with the first offending witness.
    """

    horizon: int
    mass: dict
    gamma: Fraction
    umps_ref: UmpsInstance

    def __post_init__(self):
        norm = {}
        for (job, slot), x in self.mass.items():
            x = as_fraction(x)
            if not 0 <= x.numerator <= x.denominator:
                raise PropertyViolated(f"mass x[{job},{slot}] = {x} outside [0, 1]")
            if x.numerator:
                norm[(int(job), int(slot))] = x
        object.__setattr__(self, "mass", norm)
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if self.horizon < 1:
            raise PropertyViolated("horizon must be >= 1")
        if not 0 <= self.gamma < 1:
            raise PropertyViolated(f"gamma {self.gamma} outside [0, 1)")
        # not a field, so ==, repr and to_obj see the masses only
        grid = _Grid(norm, self.gamma, self.horizon, self.umps_ref)
        grid.check()
        object.__setattr__(self, "_grid", grid)


def window_table(fs: FractionalSchedule) -> dict:
    """Job -> (first slot with mass, last slot with mass)."""
    return dict(fs._grid.windows)


# ---------------------------------------------------------------------------
# building a fractional schedule from a grouped related-machines schedule


def strip_misplaced(art, gs) -> FractionalSchedule:
    """Delete off-home group members and read off the slot masses.

    ``art`` is a related-machines reduction artifact, ``gs`` a grouped
    schedule of its output.  Members processed by their home machine
    group take exactly one time unit and must be aligned to unit slots;
    everything else (other machine groups, or members never placed) is
    deleted.  When kappa meets its soundness bound the deleted fraction
    must stay within gamma = 1/(10 n^2) per job, and the surviving masses
    must satisfy all three fractional-schedule properties.
    """
    inst = art.output
    source = art.source
    report = validate_grouped(inst, gs, require_complete=False)
    if not report.feasible:
        raise InfeasibleInput(f"grouped schedule infeasible: {report.violations[0]}")
    n = source.n
    gamma = Fraction(1, 10 * n * n)
    ms = gs.makespan()
    if ms > n:
        raise InfeasibleInput(f"grouped makespan {ms} exceeds the job count {n}")
    horizon = int(ms) if ms.denominator == 1 else int(ms) + 1

    mass = {}
    placed_home = {l: 0 for l in range(1, n + 1)}
    for pl in gs.placements:
        job = art.origin[pl.group]
        home_group = art.machine_group_of[source.home[job]]
        if pl.machine_group != home_group:
            continue  # off-home member: deleted
        if pl.start.denominator != 1 or pl.end != pl.start + 1:
            raise InfeasibleInput(
                f"home placement of group {pl.group} at {pl.start} is not slot-aligned"
            )
        slot = int(pl.start) + 1
        mult = inst.job_groups[pl.group - 1].multiplicity
        key = (job, slot)
        mass[key] = mass.get(key, ZERO) + Fraction(pl.count, mult)
        placed_home[job] += pl.count

    if art.kappa_meets_bound:
        for l in range(1, n + 1):
            mult = inst.job_groups[l - 1].multiplicity
            deleted = 1 - Fraction(placed_home[l], mult)
            if deleted > gamma:
                raise MisplacedFractionExceeded(l, deleted)
    return FractionalSchedule(horizon=horizon, mass=mass, gamma=gamma, umps_ref=source)


# ---------------------------------------------------------------------------
# the integer grid and the local rewrites


def _trace_line(kind, machine, jobs, slot, y):
    names = ",".join(str(j) for j in jobs)
    return f"{kind} machine={machine} jobs={names} slot={slot} y={y.numerator}/{y.denominator}"


class _Grid:
    """A fractional schedule's masses as ints, and the rewrites on them.

    Masses are ints in units of ``1/unit``, the LCM of the mass and gamma
    denominators; both rewrites move the smaller of two masses (or of a
    mass and a slack), so every mass stays on that grid.  ``slots`` maps
    each job to its {slot: units}, ``loads`` each (machine, slot) to its
    units, and ``windows`` each job to its (first, last) slot.  A
    schedule's own grid never changes: the rewrites run on a
    :meth:`copy`, and every move updates all three in place.

    A copy keeps each job's window start from when it was made: a swap
    can push a job's first mass into a later slot, and fills can then
    empty the slot before it, but the job may still be pulled back
    there.  Mass only ever moves inside a job's input window, and input
    windows are separated, so property 3 holds throughout.
    """

    def __init__(self, mass: dict, gamma: Fraction, horizon: int, inst: UmpsInstance):
        self.unit = unit = math.lcm(gamma.denominator, *(x.denominator for x in mass.values()))
        self.gamma, self.horizon, self.inst = gamma, horizon, inst
        self.home = home = inst.home
        self.jobs_on = [[] for _ in range(inst.m + 1)]
        for l in range(1, inst.n + 1):
            self.jobs_on[home[l]].append(l)
        self.slots = {}
        self.loads = {}
        for (job, slot), x in mass.items():
            if not 1 <= job <= inst.n:
                raise PropertyViolated(f"unknown job {job}")
            if not 1 <= slot <= horizon:
                raise PropertyViolated(f"slot {slot} outside 1..{horizon}")
            units = x.numerator * (unit // x.denominator)
            self.slots.setdefault(job, {})[slot] = units
            key = (home[job], slot)
            self.loads[key] = self.loads.get(key, 0) + units
        self.windows = {job: (min(s), max(s)) for job, s in self.slots.items()}

    def copy(self) -> _Grid:
        """A working copy with its own slots, loads and windows."""
        work = copy.copy(self)
        work.slots = {job: dict(s) for job, s in self.slots.items()}
        work.loads = dict(self.loads)
        work.windows = dict(self.windows)
        return work

    def check(self) -> None:
        """Raise :class:`PropertyViolated` for the first broken property:
        job totals, then machine loads, then window separation."""
        unit, gamma = self.unit, self.gamma
        low = unit - gamma.numerator * (unit // gamma.denominator)
        for job in range(1, self.inst.n + 1):
            total = sum(self.slots.get(job, {}).values())
            if total < low or total > unit:
                raise PropertyViolated(
                    f"job {job}: total mass {Fraction(total, unit)} outside [1 - gamma, 1] = "
                    f"[{1 - gamma}, 1]"
                )
        for (machine, slot), load in self.loads.items():
            if load > unit:
                raise PropertyViolated(
                    f"machine {machine}, slot {slot}: load {Fraction(load, unit)} > 1"
                )
        win = {job: (min(s), max(s)) for job, s in self.slots.items()}
        for u, v in self.inst.dag.edges:
            if win[u][1] >= win[v][0]:
                raise PropertyViolated(
                    f"precedence {u} -> {v}: windows {win[u]} and {win[v]} not separated"
                )

    def schedule(self) -> FractionalSchedule:
        """The current masses as a :class:`FractionalSchedule`, which
        builds and checks its own grid."""
        unit = self.unit
        mass = {
            (job, slot): Fraction(x, unit)
            for job, s in self.slots.items()
            for slot, x in s.items()
        }
        return FractionalSchedule(self.horizon, mass, self.gamma, self.inst)

    def _move(self, job, slot_from, slot_to, y):
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

    def _next_slot(self, job, t):
        return min(s for s in self.slots[job] if s > t)

    def _find_swap(self, first_slot):
        """Lexicographically first (slot, machine, l1, l2) from
        ``first_slot`` on where an earlier-finishing l1 can still run at
        the slot but a later-finishing l2 holds mass there.  Ties on
        finish slot go to the lower index."""
        slots, windows = self.slots, self.windows
        for t in range(first_slot, self.horizon + 1):
            for i in range(1, len(self.jobs_on)):
                jobs_i = self.jobs_on[i]
                # l1 has a partner iff it finishes before the latest
                # finisher holding mass at t
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

    def swaps(self, trace: list = None) -> int:
        """Apply swap steps until none applies; return how many ran.

        A step at slot t cannot open a swap at an earlier slot unless it
        moves l1's window end back; then only l1 gains partners, at
        slots from its window start.  The scan resumes there.
        """
        steps, first_slot = 0, 1
        while (found := self._find_swap(first_slot)) is not None:
            steps += 1
            i, l1, l2, t = found
            end1 = self.windows[l1][1]
            t2 = self._next_slot(l1, t)
            y = min(self.slots[l1][t2], self.slots[l2][t])
            self._move(l1, t2, t, y)
            self._move(l2, t, t2, y)
            ts1, te1 = self.windows[l1]
            first_slot = ts1 if te1 < end1 else t
            if trace is not None:
                trace.append(_trace_line("swap", i, (l1, l2), t, Fraction(y, self.unit)))
        return steps

    def _find_fill(self, first_slot, first_machine):
        """Lexicographically first (slot, machine, job) from (first_slot,
        first_machine) on where the machine has idle capacity and the
        job's window is still open past the slot."""
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

    def fills(self, trace: list = None) -> int:
        """Apply fill steps until none applies; return how many ran.

        A fill at (slot t, machine i) changes no earlier load and only
        narrows a window, so the scan resumes at (t, i).
        """
        steps, first_slot, first_machine = 0, 1, 1
        while (found := self._find_fill(first_slot, first_machine)) is not None:
            steps += 1
            i, l, t, slack = found
            t2 = self._next_slot(l, t)
            y = min(self.slots[l][t2], slack)
            self._move(l, t2, t, y)
            first_slot, first_machine = t, i
            if trace is not None:
                trace.append(_trace_line("fill", i, (l,), t, Fraction(y, self.unit)))
        return steps


def canonicalize(fs: FractionalSchedule, trace: list = None) -> FractionalSchedule:
    """Interleave swap and fill passes to their joint fixpoint.

    The passes share one copy of ``fs``'s grid, so each job's window
    start stays the one of ``fs``; the copy is checked after each pass,
    and the first round in which neither pass takes a step ends the
    loop.  Every step lowers the measure of the module docstring, so the
    loop ends, and only the fixpoint becomes a
    :class:`FractionalSchedule`.  On generated inputs it equals
    :func:`greedy_canonical`; in general the two can end at different
    fixpoints, both within the partial-load bound.
    """
    work = fs._grid.copy()
    while True:
        steps = work.swaps(trace)
        work.check()
        steps += work.fills(trace)
        work.check()
        if not steps:
            return work.schedule()


def greedy_canonical(fs: FractionalSchedule) -> FractionalSchedule:
    """Directly build the canonical packed form.

    Per machine and slot (in order), jobs whose input window contains the
    slot are served by earliest window end (ties to the lower index):
    the first gets all its remaining mass, later ones whatever capacity
    is left.  Classic deadline-first feasibility: since the input masses
    themselves fit, the sweep always drains every job within its window.
    """
    grid = fs._grid
    windows, unit = grid.windows, grid.unit
    new_mass = {}
    for i in range(1, len(grid.jobs_on)):
        jobs_i = grid.jobs_on[i]
        remaining = {l: sum(grid.slots[l].values()) for l in jobs_i}
        for t in range(1, fs.horizon + 1):
            open_jobs = [l for l in jobs_i if windows[l][0] <= t <= windows[l][1]]
            open_jobs.sort(key=lambda l: (windows[l][1], l))
            capacity = unit
            for l in open_jobs:
                if capacity == 0:
                    break
                give = min(remaining[l], capacity)
                if give > 0:
                    new_mass[(l, t)] = Fraction(give, unit)
                    remaining[l] -= give
                    capacity -= give
        leftovers = [l for l in jobs_i if remaining[l] != 0]
        if leftovers:
            raise PropertyViolated(
                f"machine {i}: jobs {leftovers} could not be packed inside their windows"
            )
    return FractionalSchedule(fs.horizon, new_mass, fs.gamma, fs.umps_ref)


# ---------------------------------------------------------------------------
# reading off bounds and the integral schedule


def partial_load_bound_holds(fs: FractionalSchedule) -> bool:
    """Check that the partial load P(i, t), the mass placed through slot t
    by jobs of machine i that still have mass in a later slot, is at most
    gamma * t for every machine and slot.  Canonical forms meet it.

    One prefix sweep per machine over the schedule's grid: each mass
    joins the partial load at its slot and leaves it at its job's last
    slot.
    """
    grid, horizon = fs._grid, fs.horizon
    step = fs.gamma.numerator * (grid.unit // fs.gamma.denominator)
    delta = [[0] * (horizon + 1) for _ in range(len(grid.jobs_on))]
    for job, slots in grid.slots.items():
        row, last = delta[grid.home[job]], grid.windows[job][1]
        for slot, units in slots.items():
            row[slot] += units
            row[last] -= units
    for row in delta[1:]:
        load = 0
        for t in range(1, horizon + 1):
            load += row[t]
            if load > step * t:
                return False
    return True


def extract_integral(fs: FractionalSchedule) -> Schedule:
    """Round a canonical fractional schedule to an integral one of at most
    twice the horizon.

    Requires unit job lengths and gamma * horizon <= 1/(10 n).  Under
    that bound every job retains almost all its mass, so no slot can hold
    mass of more than two jobs (checked; a third would overflow the slot
    capacity).  Each slot t is doubled into slots 2t-1, 2t and every job
    is placed integrally in the doubled pair of the slot where its mass
    ends, earlier window end (then lower index) first.
    """
    inst = fs.umps_ref
    if not inst.unit_lengths:
        raise NonUnitLengths("integral extraction needs unit job lengths")
    if fs.gamma * fs.horizon > Fraction(1, 10 * inst.n):
        raise PreconditionGamma(
            f"gamma * horizon = {fs.gamma * fs.horizon} > 1/(10 n) = "
            f"{Fraction(1, 10 * inst.n)}"
        )
    win = fs._grid.windows
    by_slot = {}
    for (job, slot) in fs.mass:
        by_slot.setdefault((inst.home[job], slot), set()).add(job)
    for (machine, slot), jobs in sorted(by_slot.items()):
        if len(jobs) > 2:
            raise TooManyJobsPerSlot(machine, slot, sorted(jobs))

    entries = {}
    finishers = {}
    for job, (_, te) in win.items():
        finishers.setdefault((inst.home[job], te), []).append(job)
    for (machine, slot), jobs in sorted(finishers.items()):
        jobs.sort(key=lambda l: (win[l][1], l))
        for offset, job in enumerate(jobs):
            start = Fraction(2 * slot - 2 + offset)
            entries[job] = (machine, start, start + 1)

    sched = Schedule(entries=entries)
    report = validate_umps(inst, sched)
    if not report.feasible:
        raise PropertyViolated(f"extracted schedule infeasible: {report.violations[0]}")
    return sched
