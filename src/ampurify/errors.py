"""Exception types shared across the package."""


class AmpurifyError(Exception):
    """Base class for all library errors (maps to CLI exit code 3)."""


class DomainError(AmpurifyError):
    """Parameters lie outside the domain of a formula or channel."""


class TruncationError(AmpurifyError):
    """The Fock cutoff is too small for the requested state or channel."""


class RootError(AmpurifyError):
    """The characteristic roots of a bound workspace are complex or degenerate."""


class ValidityError(AmpurifyError):
    """A bound was requested outside the region where it is known to hold."""


class NonConvergentError(AmpurifyError):
    """A geometric error bracket has base >= 1 and cannot certify convergence."""
