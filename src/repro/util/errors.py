"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch
one base class. Subclasses partition the failure domains: simulation
kernel misuse, PTG dataflow contract violations, configuration problems,
and Global Arrays API misuse.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel.

    Raised for things like resuming a finished process, releasing a
    resource that is not held, or scheduling at a negative delay.
    """


class DataflowError(ReproError):
    """A PTG dataflow contract was violated.

    Examples: a task consumed an input no predecessor produces, a flow
    received two producers for the same data version, or a guard
    expression referenced an unknown parameter.
    """


class StallError(DataflowError):
    """A runtime stalled without completing its task graph.

    Subclass of :class:`DataflowError` so existing handlers keep
    working; the message carries a per-node diagnostic (ready-queue
    depths, NIC backlogs, liveness) plus the flows each stuck task is
    still waiting on. When fault injection is active the associated
    :class:`~repro.sim.faults.FaultReport` is attached as ``report``.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class TaskKilled(ReproError):
    """Thrown into a simulated task body to abort it (node crash).

    Thrown by :class:`repro.sim.engine.Process` when its ``abort``
    predicate holds at a resume, so the body's ``finally`` blocks run
    (releasing mutexes and other resources); task bodies must not
    swallow it.
    """


class ConfigurationError(ReproError):
    """Invalid experiment, cluster, or variant configuration."""


class GlobalArrayError(ReproError):
    """Misuse of the simulated Global Arrays API.

    Examples: out-of-bounds region access, or accessing remote memory
    through ``ga_access`` (which is local-only).
    """
