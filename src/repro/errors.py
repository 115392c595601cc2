"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so user
code can catch a single base class.  Subsystems raise the more specific
subclasses below; each carries a human-readable message that names the
offending entity (device, node, parameter, spec, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """Raised for malformed circuits: duplicate device names, unknown nodes,
    devices with the wrong number of terminals, and similar structural
    problems detected before any analysis is run."""


class ParseError(NetlistError):
    """Raised by the SPICE-style netlist parser for unreadable input.

    Carries the 1-based source line number in :attr:`line_number` when it is
    known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class AnalysisError(ReproError):
    """Base class for analysis failures (DC, AC, transient)."""


class ConvergenceError(AnalysisError):
    """Raised when the DC Newton solver (including its gmin-stepping and
    source-stepping homotopies) fails to converge."""


class SingularMatrixError(AnalysisError):
    """Raised when the MNA matrix is structurally or numerically singular,
    typically caused by floating nodes or voltage-source loops."""


class ExtractionError(ReproError):
    """Raised when a performance cannot be extracted from analysis results,
    e.g. the gain curve never crosses unity so there is no transit
    frequency."""


class SpecificationError(ReproError):
    """Raised for ill-formed performance specifications."""


class FeasibilityError(ReproError):
    """Raised when no feasible design point can be found (Sec. 5.5 of the
    paper) or when a constraint function cannot be evaluated."""


class ArtifactError(ReproError):
    """Raised for malformed, incompatible, or unvalidatable stored result
    artifacts (the versioned JSON files written by ``yield --out``,
    ``merge-verify`` and the ``repro.serve`` result store)."""


class ServeError(ReproError):
    """Raised by the ``repro.serve`` job server and client for invalid
    job specifications, unknown job ids, and protocol-level failures."""
