"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses mark which subsystem
detected the problem; the messages are written to be actionable (they name
the offending kernel/reference/loop).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR: bad shapes, unknown loop variables, non-affine indices."""


class ValidationError(IRError):
    """A kernel failed structural validation (see :mod:`repro.ir.validate`)."""


class AnalysisError(ReproError):
    """Reuse/footprint analysis could not be performed."""


class AllocationError(ReproError):
    """A register allocator was mis-configured or hit an impossible state."""


class SimulationError(ReproError):
    """The functional or cycle simulator detected an inconsistency."""


class SynthesisError(ReproError):
    """The area/timing estimator was given an unsupported design."""


class BindingError(ReproError):
    """Array-to-RAM binding failed (e.g. more arrays than RAM blocks)."""


class SweepInterrupted(ReproError):
    """A sweep was interrupted (Ctrl-C) after flushing completed points.

    ``done``/``total`` report how much of the sweep is already in the
    cache — rerunning the same command with the same ``--cache-dir``
    picks up where this run stopped.
    """

    def __init__(self, done: int, total: int, message: "str | None" = None):
        self.done = done
        self.total = total
        super().__init__(
            message
            or f"sweep interrupted — resumable: {done}/{total} points done"
        )
