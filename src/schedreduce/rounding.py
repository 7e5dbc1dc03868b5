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
:func:`greedy_canonical` builds an earliest-deadline packed fixpoint of
both in one sweep.  The passes usually reach the same one, but not
always: a swap can push a job into a later slot, fills then empty the
slot before it, and the job's window no longer reaches back.

In canonical form the leftover ("partial") mass on a machine grows by at
most gamma per slot, so when gamma * horizon <= 1/(10 n) each slot hosts
at most two jobs and doubling every slot yields an integral schedule of
at most twice the horizon: :func:`extract_integral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfeasibleInput,
    IterationBudgetExceeded,
    MisplacedFractionExceeded,
    NonUnitLengths,
    PreconditionGamma,
    PropertyViolated,
    TooManyJobsPerSlot,
)
from .model import Schedule, UmpsInstance, as_fraction, validate_grouped, validate_umps

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FractionalSchedule:
    """Mass per (job, slot) over unit slots 1..horizon of ``umps_ref``.

    Only positive masses are stored; the constructor normalizes and then
    verifies all three properties, raising :class:`PropertyViolated` with
    the first offending witness.
    """

    horizon: int
    mass: dict
    gamma: Fraction
    umps_ref: UmpsInstance

    def __post_init__(self):
        norm = {}
        for (job, slot), x in self.mass.items():
            x = as_fraction(x)
            if x < 0 or x > 1:
                raise PropertyViolated(f"mass x[{job},{slot}] = {x} outside [0, 1]")
            if x > 0:
                norm[(int(job), int(slot))] = x
        object.__setattr__(self, "mass", norm)
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if self.horizon < 1:
            raise PropertyViolated("horizon must be >= 1")
        if not 0 <= self.gamma < 1:
            raise PropertyViolated(f"gamma {self.gamma} outside [0, 1)")
        _check_properties(self)

    def job_total(self, job: int) -> Fraction:
        return sum(
            (x for (l, _), x in self.mass.items() if l == job),
            start=ZERO,
        )

    def machine_slot_load(self, machine: int, slot: int) -> Fraction:
        return sum(
            (
                self.mass.get((l, slot), ZERO)
                for l in self.umps_ref.jobs_on(machine)
            ),
            start=ZERO,
        )


def window_table(fs: FractionalSchedule) -> dict:
    """Job -> (first slot with mass, last slot with mass)."""
    return _windows(fs.mass, fs.umps_ref.n)


def _windows(mass, n):
    lo, hi = {}, {}
    for (job, slot) in mass:
        if job not in lo or slot < lo[job]:
            lo[job] = slot
        if job not in hi or slot > hi[job]:
            hi[job] = slot
    return {job: (lo[job], hi[job]) for job in lo if 1 <= job <= n}


def _check_properties(fs: FractionalSchedule):
    inst = fs.umps_ref
    totals = {l: ZERO for l in range(1, inst.n + 1)}
    loads = {}
    for (job, slot), x in fs.mass.items():
        if not 1 <= job <= inst.n:
            raise PropertyViolated(f"unknown job {job}")
        if not 1 <= slot <= fs.horizon:
            raise PropertyViolated(f"slot {slot} outside 1..{fs.horizon}")
        totals[job] += x
        key = (inst.home[job], slot)
        loads[key] = loads.get(key, ZERO) + x
    for job, total in totals.items():
        if total < 1 - fs.gamma or total > 1:
            raise PropertyViolated(
                f"job {job}: total mass {total} outside [1 - gamma, 1] = "
                f"[{1 - fs.gamma}, 1]"
            )
    for (machine, slot), load in loads.items():
        if load > 1:
            raise PropertyViolated(f"machine {machine}, slot {slot}: load {load} > 1")
    win = _windows(fs.mass, inst.n)
    for u, v in inst.dag.edges:
        if win[u][1] >= win[v][0]:
            raise PropertyViolated(
                f"precedence {u} -> {v}: windows {win[u]} and {win[v]} not separated"
            )


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
# local rewrites


def _trace_line(kind, machine, jobs, slot, y):
    names = ",".join(str(j) for j in jobs)
    return f"{kind} machine={machine} jobs={names} slot={slot} y={y.numerator}/{y.denominator}"


def _find_swap(mass, windows, inst, horizon):
    """Lexicographically first (slot, machine, l1, l2) where an
    earlier-finishing l1 can still run at the slot but a later-finishing
    l2 holds mass there.  Ties on finish slot go to the lower index."""
    for t in range(1, horizon + 1):
        for i in range(1, inst.m + 1):
            jobs_i = inst.jobs_on(i)
            for l1 in jobs_i:
                if l1 not in windows:
                    continue
                ts1, te1 = windows[l1]
                if not ts1 <= t < te1:
                    continue
                for l2 in jobs_i:
                    if l2 == l1 or mass.get((l2, t), ZERO) <= 0:
                        continue
                    te2 = windows[l2][1]
                    if (te1, l1) < (te2, l2):
                        return i, l1, l2, t
    return None


def _apply_swap(mass, windows, found):
    i, l1, l2, t = found
    t2 = min(s for (l, s) in mass if l == l1 and s > t)
    y = min(mass[(l1, t2)], mass[(l2, t)])
    _move(mass, l1, t2, t, y)
    _move(mass, l2, t, t2, y)
    _refresh_window(mass, windows, l1)
    _refresh_window(mass, windows, l2)
    return i, l1, l2, t, y


def _find_fill(mass, windows, inst, horizon):
    """Lexicographically first (slot, machine, job) where the machine has
    idle capacity and the job's window is still open past the slot."""
    for t in range(1, horizon + 1):
        for i in range(1, inst.m + 1):
            jobs_i = inst.jobs_on(i)
            load = sum((mass.get((l, t), ZERO) for l in jobs_i), start=ZERO)
            if load >= 1:
                continue
            for l in jobs_i:
                if l not in windows:
                    continue
                ts, te = windows[l]
                if ts <= t < te:
                    return i, l, t, 1 - load
    return None


def _apply_fill(mass, windows, found):
    i, l, t, slack = found
    t2 = min(s for (job, s) in mass if job == l and s > t)
    y = min(mass[(l, t2)], slack)
    _move(mass, l, t2, t, y)
    _refresh_window(mass, windows, l)
    return i, l, t, y


def _move(mass, job, slot_from, slot_to, y):
    mass[(job, slot_from)] -= y
    if mass[(job, slot_from)] == 0:
        del mass[(job, slot_from)]
    mass[(job, slot_to)] = mass.get((job, slot_to), ZERO) + y


def _refresh_window(mass, windows, job):
    slots = [s for (l, s) in mass if l == job]
    if slots:
        windows[job] = (min(slots), max(slots))
    else:
        windows.pop(job, None)


def _default_budget(fs: FractionalSchedule) -> int:
    n, ln = fs.umps_ref.n, fs.horizon
    return fs.umps_ref.m * n * n * ln * ln + 16


def swap_pass(fs: FractionalSchedule, budget: int = None, trace: list = None) -> FractionalSchedule:
    """Apply swap steps until none applies.  Each step conserves every
    job's mass and every (machine, slot) load, and never widens a window."""
    budget = _default_budget(fs) if budget is None else budget
    mass = dict(fs.mass)
    windows = _windows(mass, fs.umps_ref.n)
    steps = 0
    while True:
        found = _find_swap(mass, windows, fs.umps_ref, fs.horizon)
        if found is None:
            break
        steps += 1
        if steps > budget:
            raise IterationBudgetExceeded(f"swap pass exceeded {budget} steps")
        i, l1, l2, t, y = _apply_swap(mass, windows, found)
        if trace is not None:
            trace.append(_trace_line("swap", i, (l1, l2), t, y))
    return FractionalSchedule(fs.horizon, mass, fs.gamma, fs.umps_ref)


def fill_pass(fs: FractionalSchedule, budget: int = None, trace: list = None) -> FractionalSchedule:
    """Apply fill steps until none applies; pairs with :func:`swap_pass`
    inside :func:`canonicalize` until the joint fixpoint."""
    budget = _default_budget(fs) if budget is None else budget
    mass = dict(fs.mass)
    windows = _windows(mass, fs.umps_ref.n)
    steps = 0
    while True:
        found = _find_fill(mass, windows, fs.umps_ref, fs.horizon)
        if found is None:
            break
        steps += 1
        if steps > budget:
            raise IterationBudgetExceeded(f"fill pass exceeded {budget} steps")
        i, l, t, y = _apply_fill(mass, windows, found)
        if trace is not None:
            trace.append(_trace_line("fill", i, (l,), t, y))
    return FractionalSchedule(fs.horizon, mass, fs.gamma, fs.umps_ref)


def canonicalize(fs: FractionalSchedule, trace: list = None) -> FractionalSchedule:
    """Interleave swap and fill passes to their joint fixpoint.

    If the step budget trips before the fixpoint (never observed on
    generated inputs, and the local steps carry no termination proof),
    fall back to :func:`greedy_canonical`, which builds a packed fixpoint
    directly (usually, but not always, the one the passes reach).
    """
    budget = _default_budget(fs)
    current = fs
    try:
        while True:
            after_swap = swap_pass(current, budget=budget, trace=trace)
            after_fill = fill_pass(after_swap, budget=budget, trace=trace)
            if after_fill.mass == current.mass:
                return after_fill
            current = after_fill
    except IterationBudgetExceeded:
        return greedy_canonical(fs)


def greedy_canonical(fs: FractionalSchedule) -> FractionalSchedule:
    """Directly build the canonical packed form.

    Per machine and slot (in order), jobs whose input window contains the
    slot are served by earliest window end (ties to the lower index):
    the first gets all its remaining mass, later ones whatever capacity
    is left.  Classic deadline-first feasibility: since the input masses
    themselves fit, the sweep always drains every job within its window.
    """
    inst = fs.umps_ref
    windows = _windows(fs.mass, inst.n)
    totals = {l: fs.job_total(l) for l in range(1, inst.n + 1)}
    new_mass = {}
    for i in range(1, inst.m + 1):
        jobs_i = [l for l in inst.jobs_on(i) if l in windows]
        remaining = {l: totals[l] for l in jobs_i}
        for t in range(1, fs.horizon + 1):
            open_jobs = [l for l in jobs_i if windows[l][0] <= t <= windows[l][1]]
            open_jobs.sort(key=lambda l: (windows[l][1], l))
            capacity = ONE
            for l in open_jobs:
                if capacity == 0:
                    break
                give = min(remaining[l], capacity)
                if give > 0:
                    new_mass[(l, t)] = give
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


def partial_load(fs: FractionalSchedule, machine: int, slot: int) -> Fraction:
    """Mass accumulated through ``slot`` by jobs of ``machine`` that still
    have mass in a later slot.  In canonical form this never exceeds
    gamma * slot."""
    win = window_table(fs)
    total = ZERO
    for l in fs.umps_ref.jobs_on(machine):
        if l in win and win[l][1] > slot:
            total += sum(
                (x for (job, t), x in fs.mass.items() if job == l and t <= slot),
                start=ZERO,
            )
    return total


def partial_load_bound_holds(fs: FractionalSchedule) -> bool:
    """Check partial_load(i, t) <= gamma * t for every machine and slot."""
    for i in range(1, fs.umps_ref.m + 1):
        for t in range(1, fs.horizon + 1):
            if partial_load(fs, i, t) > fs.gamma * t:
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
    win = window_table(fs)
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
