"""Exception types shared across the toolkit."""


class SimsupError(Exception):
    """Base class for all toolkit errors."""


class InputError(SimsupError):
    """Malformed input: bad identifiers, alphabet mismatches, invalid files."""


class ParseError(InputError):
    """Automaton file rejected; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class SynthesisPreconditionError(SimsupError):
    """The plant is not uc-similar to the specification, so no supervisor exists."""


class ExplosionGuardError(SimsupError):
    """A configurable enumeration cap was exceeded."""


class RejectionLimitError(SimsupError):
    """Rejection sampling gave up before finding an acceptable instance."""
