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
an integer time base.  Each schedule is built on one grid, once, and
the grid is checked once: every mass as an int in units of the LCM of
the mass and gamma denominators, per job and per (machine, slot).  The
constructor, and so the file reader, builds it from rational masses;
:func:`strip_misplaced` (from the int rows of a grouped schedule),
:func:`greedy_canonical` and :func:`~schedreduce.generators.gen_fractional`
build it from ints, and :func:`canonicalize` returns its working copy,
checked after each pass that moved mass.  The property check, the
rewrites and their scans, the greedy sweep, the partial-load bound, the
extraction and ``==`` all read the grid.  ``Fraction`` appears only at
the boundary: the ``y`` of a trace line, a number in an error message,
and the ``mass`` of a schedule, read off its grid when a caller (the
file writer among them) first asks for it.  The swap and fill scans read only the jobs whose
window spans two or more slots, the only ones a step can move.
"""

from __future__ import annotations

import copy
import heapq
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
from .model import (
    _INT,
    Schedule,
    UmpsInstance,
    _check_types,
    as_fraction,
    makespan,
    validate_grouped,
    validate_umps,
)


@dataclass(frozen=True, eq=False)
class FractionalSchedule:
    """Mass per (job, slot) over unit slots 1..horizon of ``umps_ref``.

    Only positive masses are stored; the constructor normalizes, builds
    the integer grid and verifies all three properties on it, raising
    :class:`PropertyViolated` with the first offending witness.  A job or
    slot that is not an int (a bool included) is rejected, not truncated,
    and so is a horizon that is not an int, or a gamma or mass that is not
    an int or a ``Fraction`` (a bool or a float: ``TypeError``).

    The package's producers build their grid directly, check it once and
    wrap it (:meth:`_of_units`, :meth:`_Grid.schedule`); the ``mass`` of
    such a schedule is read off its grid on first use.  Two schedules are equal when their horizon, gamma, instance and grid
    masses are; a schedule is unhashable.
    """

    horizon: int
    mass: dict
    gamma: Fraction
    umps_ref: UmpsInstance

    def __post_init__(self):
        _check_types(_INT, "horizon", (self.horizon,))
        gamma = as_fraction(self.gamma, "gamma")
        norm = {}
        for key, x in self.mass.items():
            if type(x) is not Fraction:  # so a Fraction costs no label
                x = as_fraction(x, f"mass {key!r}:")
            job, slot = key
            # a key of the file format: a property of the schedule, not a type error
            if type(job) is not int or type(slot) is not int:
                raise PropertyViolated(f"mass key {key!r}: job and slot must be ints")
            if not 0 <= x.numerator <= x.denominator:
                raise PropertyViolated(f"mass x[{job},{slot}] = {x} outside [0, 1]")
            if x.numerator:
                norm[key] = x
        object.__setattr__(self, "mass", norm)
        object.__setattr__(self, "gamma", gamma)
        _check_frame(self.horizon, gamma)
        unit = math.lcm(gamma.denominator, *(x.denominator for x in norm.values()))
        units = {key: x.numerator * (unit // x.denominator) for key, x in norm.items()}
        grid = _Grid(units, unit, gamma, self.horizon, self.umps_ref)
        grid.check()
        # not a field, so repr and to_obj see the masses only
        object.__setattr__(self, "_grid", grid)

    @classmethod
    def _of_grid(cls, grid: _Grid, keys=None) -> FractionalSchedule:
        """Wrap ``grid``, which the caller has checked, without building
        or checking it again.  ``mass`` is read off the grid on first use,
        in the order of ``keys`` (by default job by job, as the grid
        holds them)."""
        fs = object.__new__(cls)
        vars(fs).update(horizon=grid.horizon, gamma=grid.gamma, umps_ref=grid.inst,
                        _grid=grid, _keys=keys)
        return fs

    @classmethod
    def _of_units(cls, horizon, units: dict, unit: int, gamma: Fraction,
                  inst: UmpsInstance) -> FractionalSchedule:
        """The schedule of ``units``, {(job, slot): positive int} in units
        of ``1/unit``: its grid is built and checked once, and ``mass``
        keeps the order of ``units``."""
        _check_frame(horizon, gamma)
        grid = _Grid(units, unit, gamma, horizon, inst)
        grid.check()
        return cls._of_grid(grid, units)

    def __getattr__(self, name):
        # reached only when the normal lookup fails: the mass of a wrapped
        # grid before its first read
        state = vars(self)
        if name != "mass" or "_grid" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mass = state["mass"] = state["_grid"].masses(state.pop("_keys"))
        return mass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._grid, other._grid
        return ((self.horizon, self.gamma, self.umps_ref, mine.unit, mine.slots)
                == (other.horizon, other.gamma, other.umps_ref, theirs.unit, theirs.slots))


def _check_frame(horizon, gamma: Fraction) -> None:
    if horizon < 1:
        raise PropertyViolated("horizon must be >= 1")
    if not 0 <= gamma < 1:
        raise PropertyViolated(f"gamma {gamma} outside [0, 1)")


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
    ms = makespan(gs)
    if ms > n:
        raise InfeasibleInput(f"grouped makespan {ms} exceeds the job count {n}")
    horizon = int(ms) if ms.denominator == 1 else int(ms) + 1

    # masses as ints in units of 1/unit, the LCM of the denominators of
    # gamma and of every member's share
    groups = inst.job_groups
    unit = math.lcm(gamma.denominator, *(jg.multiplicity for jg in groups))
    units = {}
    placed_home = {l: 0 for l in range(1, n + 1)}
    scale = gs._scale  # the placements' times are ints in units of 1/scale
    for job, machine_group, start, end, count in gs._rows:  # job group l is job l
        if machine_group != source.home[job]:
            continue  # off-home member: deleted
        if start % scale or end != start + scale:
            raise InfeasibleInput(f"home placement of group {job} at "
                                  f"{Fraction(start, scale)} is not slot-aligned")
        key = (job, start // scale + 1)
        units[key] = units.get(key, 0) + count * (unit // groups[job - 1].multiplicity)
        placed_home[job] += count

    if art.kappa_meets_bound:
        for l in range(1, n + 1):
            # the deleted share (mult - placed) / mult against gamma, cross-multiplied
            mult = groups[l - 1].multiplicity
            if (mult - placed_home[l]) * gamma.denominator > mult * gamma.numerator:
                raise MisplacedFractionExceeded(l, 1 - Fraction(placed_home[l], mult))
    return FractionalSchedule._of_units(horizon, units, unit, gamma, source)


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
    units, and ``windows`` each job to its (first, last) slot with mass.
    A schedule's own grid never changes: the rewrites run on a
    :meth:`copy`, and every move updates all three in place.

    Only a *split* job, one whose window spans two or more slots when the
    copy is made, can take part in a step: a fill pulls forward mass of a
    job whose window runs past the slot, a swap's l1 runs past the slot,
    and its l2 holds mass at the slot and finishes no earlier than l1.
    No window end ever grows, so no other job becomes split.  A copy
    lists each machine's split jobs by index in ``split_on``, and keeps
    in ``starts`` each split job's window start from when it was made: a
    swap can push a job's first mass into a later slot, and fills can
    then empty the slot before it, but the job may still be pulled back
    there.  Mass only ever moves inside a job's input window, and input
    windows are separated, so property 3 holds throughout.
    """

    def __init__(self, units: dict, unit: int, gamma: Fraction, horizon: int,
                 inst: UmpsInstance):
        """Build the grid of ``units``, {(job, slot): positive int} in
        units of ``1/unit``, on the smallest unit that holds them and
        gamma."""
        reduce = math.gcd(unit // gamma.denominator, *units.values())
        if reduce > 1:
            unit //= reduce
            units = {key: x // reduce for key, x in units.items()}
        self.unit = unit
        self.gamma, self.horizon, self.inst = gamma, horizon, inst
        self.home = home = inst.home
        self.jobs_on = [[] for _ in range(inst.m + 1)]
        for l in range(1, inst.n + 1):
            self.jobs_on[home[l]].append(l)
        self.slots = {}
        self.loads = {}
        for (job, slot), x in units.items():
            if not 1 <= job <= inst.n:
                raise PropertyViolated(f"unknown job {job}")
            if not 1 <= slot <= horizon:
                raise PropertyViolated(f"slot {slot} outside 1..{horizon}")
            self.slots.setdefault(job, {})[slot] = x
            key = (home[job], slot)
            self.loads[key] = self.loads.get(key, 0) + x
        self.windows = {job: (min(s), max(s)) for job, s in self.slots.items()}

    def copy(self) -> _Grid:
        """A working copy with its own slots, loads and windows, and the
        split jobs with their window starts."""
        work = copy.copy(self)
        work.slots = {job: dict(s) for job, s in self.slots.items()}
        work.loads = dict(self.loads)
        work.windows = dict(self.windows)
        work.starts = starts = {l: ts for l, (ts, te) in self.windows.items() if ts < te}
        work.split_on = [[l for l in jobs if l in starts] for jobs in self.jobs_on]
        return work

    def check(self) -> None:
        """Raise :class:`PropertyViolated` for the first broken property:
        job totals, then machine loads, then window separation."""
        slots, unit, gamma, n = self.slots, self.unit, self.gamma, self.inst.n
        low = unit - gamma.numerator * (unit // gamma.denominator)
        # one C-level pass when all is well; the loops find the witness
        totals = list(map(sum, map(dict.values, slots.values())))
        if len(totals) < n or min(totals, default=low) < low or max(totals, default=unit) > unit:
            for job in range(1, n + 1):
                total = sum(slots.get(job, {}).values())
                if total < low or total > unit:
                    raise PropertyViolated(
                        f"job {job}: total mass {Fraction(total, unit)} outside [1 - gamma, 1] = "
                        f"[{1 - gamma}, 1]"
                    )
        if max(self.loads.values(), default=0) > unit:
            for (machine, slot), load in self.loads.items():
                if load > unit:
                    raise PropertyViolated(
                        f"machine {machine}, slot {slot}: load {Fraction(load, unit)} > 1"
                    )
        win = self.windows
        for u, v in self.inst.dag.edges:
            if win[u][1] >= win[v][0]:
                raise PropertyViolated(
                    f"precedence {u} -> {v}: windows {win[u]} and {win[v]} not separated"
                )

    def masses(self, keys=None) -> dict:
        """The masses as {(job, slot): Fraction}, in the order of ``keys``
        (by default job by job), with one ``Fraction`` per distinct unit
        count."""
        slots, unit = self.slots, self.unit
        if keys is None:
            pairs = (((job, slot), x) for job, s in slots.items() for slot, x in s.items())
        else:
            pairs = ((key, slots[key[0]][key[1]]) for key in keys)
        fractions, mass = {}, {}
        for key, x in pairs:
            frac = fractions.get(x)
            if frac is None:
                frac = fractions[x] = Fraction(x, unit)
            mass[key] = frac
        return mass

    def schedule(self) -> FractionalSchedule:
        """This copy, which the caller has checked, as a
        :class:`FractionalSchedule`, without building or checking it again.

        It first reads as the grid of a schedule built from its masses:
        the unit drops to the LCM of the mass and gamma denominators, zero
        loads are dropped, and so are the split jobs and their starts."""
        slots = self.slots
        reduce = math.gcd(self.unit // self.gamma.denominator,
                          *(x for s in slots.values() for x in s.values()))
        if reduce > 1:
            self.unit //= reduce
            self.slots = {job: {slot: x // reduce for slot, x in s.items()}
                          for job, s in slots.items()}
        self.loads = {key: x // reduce for key, x in self.loads.items() if x}
        del self.starts, self.split_on
        return FractionalSchedule._of_grid(self)

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
        self.windows[job] = (min(slots), max(slots))

    def _next_slot(self, job, t):
        return min(s for s in self.slots[job] if s > t)

    def _find_swap(self, first_slot):
        """Lexicographically first (slot, machine, l1, l2) from
        ``first_slot`` on where an earlier-finishing l1 can still run at
        the slot but a later-finishing l2 holds mass there.  Ties on
        finish slot go to the lower index.  Both jobs are split."""
        slots, windows, starts = self.slots, self.windows, self.starts
        for t in range(first_slot, self.horizon + 1):
            for i, split in enumerate(self.split_on):
                holders = [l for l in split if t in slots[l]]
                if not holders:
                    continue
                # l1 finishes past t, and has a partner iff it finishes
                # before the latest finisher holding mass at t
                latest = max((windows[l][1], l) for l in holders)
                if latest[0] <= t:
                    continue
                for l1 in split:
                    te1 = windows[l1][1]
                    if starts[l1] <= t < te1 and (te1, l1) < latest:
                        for l2 in holders:
                            if (te1, l1) < (windows[l2][1], l2):
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
            first_slot = self.starts[l1] if self.windows[l1][1] < end1 else t
            if trace is not None:
                trace.append(_trace_line("swap", i, (l1, l2), t, Fraction(y, self.unit)))
        return steps

    def _find_fill(self, first_slot, first_machine):
        """Lexicographically first (slot, machine, job) from (first_slot,
        first_machine) on where the machine has idle capacity and the
        job's window is still open past the slot: a split job."""
        windows, starts, loads, unit = self.windows, self.starts, self.loads, self.unit
        for t in range(first_slot, self.horizon + 1):
            for i in range(first_machine if t == first_slot else 1, len(self.split_on)):
                for l in self.split_on[i]:
                    if starts[l] <= t < windows[l][1]:
                        slack = unit - loads.get((i, t), 0)
                        if slack <= 0:
                            break
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
    start stays the one of ``fs``; the copy is checked after each pass
    that moved mass (one that did not leaves a grid already checked),
    and the first round in which neither pass takes a step ends the
    loop.  Every step lowers the measure of the module docstring, so the
    loop ends, and only the fixpoint becomes a
    :class:`FractionalSchedule`, around the copy itself.  On generated
    inputs it equals :func:`greedy_canonical`; in general the two can end
    at different fixpoints, both within the partial-load bound.
    """
    work = fs._grid.copy()
    while True:
        swapped = work.swaps(trace)
        if swapped:
            work.check()
        filled = work.fills(trace)
        if filled:
            work.check()
        if not (swapped or filled):
            return work.schedule()


def greedy_canonical(fs: FractionalSchedule) -> FractionalSchedule:
    """Directly build the canonical packed form.

    Per machine and slot (in order), jobs whose input window contains the
    slot are served by earliest window end (ties to the lower index):
    the first gets all its remaining mass, later ones whatever capacity
    is left.  Classic deadline-first feasibility: since the input masses
    themselves fit, the sweep always drains every job within its window.

    The sweep is event-driven: a job joins a heap keyed by (window end,
    index) at its window start and leaves it once drained or past its
    window end, and a slot with no open job is skipped.
    """
    grid = fs._grid
    windows, unit = grid.windows, grid.unit
    units = {}
    for i in range(1, len(grid.jobs_on)):
        jobs_i = grid.jobs_on[i]
        remaining = {l: sum(grid.slots[l].values()) for l in jobs_i}
        arrivals = sorted(jobs_i, key=lambda l: windows[l][0])
        k, t, open_jobs = 0, 1, []
        while k < len(arrivals) or open_jobs:
            if not open_jobs:  # idle until the next window opens
                t = max(t, windows[arrivals[k]][0])
            while k < len(arrivals) and windows[arrivals[k]][0] <= t:
                l = arrivals[k]
                heapq.heappush(open_jobs, (windows[l][1], l))
                k += 1
            capacity = unit
            while open_jobs:
                end, l = open_jobs[0]
                if end < t:  # its window closed with mass left
                    heapq.heappop(open_jobs)
                    continue
                give = min(remaining[l], capacity)
                units[(l, t)] = give
                remaining[l] -= give
                capacity -= give
                if remaining[l]:  # the slot is full; l goes on in the next
                    break
                heapq.heappop(open_jobs)
                if not capacity:
                    break
            t += 1
        leftovers = [l for l in jobs_i if remaining[l] != 0]
        if leftovers:
            raise PropertyViolated(
                f"machine {i}: jobs {leftovers} could not be packed inside their windows"
            )
    return FractionalSchedule._of_units(fs.horizon, units, unit, fs.gamma, fs.umps_ref)


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
    grid = fs._grid
    win = grid.windows
    by_slot = {}
    for job, slots in grid.slots.items():
        for slot in slots:
            by_slot.setdefault((inst.home[job], slot), []).append(job)
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
            start = 2 * slot - 2 + offset
            entries[job] = (machine, start, start + 1)

    sched = Schedule._of_rows(entries)
    report = validate_umps(inst, sched)
    if not report.feasible:
        raise PropertyViolated(f"extracted schedule infeasible: {report.violations[0]}")
    return sched
