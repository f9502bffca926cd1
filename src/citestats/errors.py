"""Exception types shared across the toolkit.

Everything raised on bad data or unsatisfiable queries derives from
:class:`CitationStatsError`, so callers (and the CLI) can distinguish
data problems from programming errors with one except clause.
"""


class CitationStatsError(Exception):
    """Base class for all toolkit errors."""


class RecordError(CitationStatsError):
    """A record in an input stream is malformed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class DuplicateIdError(RecordError):
    """Two records share the same paper id; the line number is the second's."""


class UnknownIdError(CitationStatsError, LookupError):
    """A paper, journal or author id does not exist in the corpus."""


class UsageError(CitationStatsError, ValueError):
    """A query's arguments violate its contract, e.g. a window of 0 years.

    The CLI reports it as a usage error (exit 1) rather than a data error.
    """


class InsufficientDataError(CitationStatsError):
    """A statistic's preconditions are not met by the data at hand."""


class PolicyError(CitationStatsError):
    """A scoring rule's preconditions are violated."""


class SynthConfigError(CitationStatsError):
    """A synthetic-corpus configuration is invalid."""
