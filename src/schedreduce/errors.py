"""Exception types shared across the package.

Every exception carries enough context to reproduce the failure by hand;
validators return reports instead of raising, so these classes cover
structural problems (bad indices, cycles) and pipeline contract breaches.
"""

from __future__ import annotations


class SchedReduceError(Exception):
    """Base class for all package-specific errors."""


class CycleDetected(SchedReduceError):
    """A precedence graph (or a combined order graph) contains a cycle."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"cycle detected: {' -> '.join(map(str, self.witness))}")


class JobSetMismatch(SchedReduceError):
    """A schedule does not cover exactly the instance's job set."""


class MachineOutOfRange(SchedReduceError):
    """A schedule entry names a machine index outside the instance's range."""


class EmptySchedule(SchedReduceError):
    """Makespan of a schedule with no entries is undefined."""


class DegenerateInstance(SchedReduceError):
    """The instance is too small for the requested transformation."""


class InfeasibleInput(SchedReduceError):
    """An operation received a schedule that fails validation."""


class CoLocationViolated(SchedReduceError):
    """Jobs that must share a machine were placed on different machines."""

    def __init__(self, machine, pair):
        self.machine = machine
        self.pair = tuple(pair)
        super().__init__(
            f"jobs {self.pair} tied to machine index {machine} sit on different machines"
        )


class MakespanTooLarge(SchedReduceError):
    """The schedule is too long for the soundness argument to apply."""


class NonUnitLengths(SchedReduceError):
    """The operation requires every job length to equal 1."""


class MaterializationTooLarge(SchedReduceError):
    """Expanding a grouped instance would exceed the job cap."""


class MisplacedFractionExceeded(SchedReduceError):
    """More than a gamma fraction of a job group ran off its home machines."""

    def __init__(self, job, fraction):
        self.job = job
        self.fraction = fraction
        super().__init__(f"job {job}: off-home fraction {fraction} exceeds the allowed bound")


class PropertyViolated(SchedReduceError):
    """A fractional schedule breaks one of its defining properties."""


class TooManyJobsPerSlot(SchedReduceError):
    """A canonical fractional schedule packed more than two jobs into one slot."""

    def __init__(self, machine, slot, jobs):
        self.machine = machine
        self.slot = slot
        self.jobs = tuple(jobs)
        super().__init__(f"machine {machine}, slot {slot}: {len(self.jobs)} jobs {self.jobs}")


class PreconditionGamma(SchedReduceError):
    """gamma * horizon is too large for integral extraction to be safe."""


class InvalidCertificate(SchedReduceError):
    """A claimed staircase partition fails one of its defining conditions."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}" + (f" (witness: {witness})" if witness is not None else ""))


class DivisibilityError(SchedReduceError):
    """A generator parameter fails a divisibility requirement."""


class BudgetExceeded(SchedReduceError):
    """An exhaustive check ran out of its state budget before finishing."""
