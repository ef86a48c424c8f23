"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramStructureError(ReproError):
    """A program, CFG, or call graph is structurally invalid.

    Examples: an edge referencing an unknown block, a function without an
    entry block, duplicate function names, or a call site naming a function
    that does not exist in the program.
    """


class AnalysisError(ReproError):
    """Static analysis could not be completed on an otherwise valid program."""


class ModelError(ReproError):
    """An HMM or detector was constructed or used with invalid parameters."""


class NotFittedError(ModelError):
    """A detector method requiring a trained model was called before ``fit``."""


class TraceError(ReproError):
    """A trace or segment is malformed (wrong length, unknown event kind...)."""


class EvaluationError(ReproError):
    """An experiment configuration or evaluation input is invalid."""


class ServiceError(ReproError):
    """The detection service was misconfigured or misused.

    Examples: submitting to an unregistered detector, reusing a session id
    across incompatible modes, or submitting after shutdown.  The three
    subclasses below mark the cases a caller may want to tell apart by
    type (the gateway maps them to 503 and 404); messages quote
    caller-chosen ids, so they are no basis for that.
    """


class ServiceClosedError(ServiceError):
    """The service was closed and refuses further work."""


class UnknownDetectorError(ServiceError):
    """No detector is registered under the requested name."""


class SessionNotOpenError(ServiceError):
    """A symbol was submitted to a monitor/stream session that is not open."""

