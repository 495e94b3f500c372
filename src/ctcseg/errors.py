"""Exception hierarchy for the ctcseg package."""


class CtcSegError(Exception):
    """Base class for all ctcseg errors."""


class EmptyAudio(CtcSegError):
    """An audio buffer with zero samples was given."""


class InvalidConfig(CtcSegError):
    """A configuration value violates its domain or is inconsistent with the data."""


class InvalidState(CtcSegError):
    """An online segmenter was stepped or finished again after finish() without reset()."""


class FormatError(CtcSegError):
    """Base class for CTCP / file format violations."""


class BadMagic(FormatError):
    """The stream does not start with the CTCP magic bytes."""


class VersionMismatch(FormatError):
    """The CTCP header declares an unsupported format version."""


class TruncatedFile(FormatError):
    """The stream ended before the declared number of rows was read."""


class RowError(FormatError, ValueError):
    """A score row breaks the format; row is its 1-based number in the stream."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class NonFiniteScore(RowError):
    """A row holds NaN or an infinite score."""


class ProbabilityOutOfRange(RowError):
    """A probability row holds a value outside [0, 1]."""


class RowSumViolation(RowError):
    """A probability row does not sum to 1 within tolerance."""
