"""Exception types shared across the package.

Everything raised on purpose derives from :class:`EventStudyError`, so
callers that orchestrate many events can catch one base class and keep
going, while genuine programming errors (``TypeError`` and friends)
still propagate.
"""

from __future__ import annotations


class EventStudyError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(EventStudyError):
    """An input file is malformed: bad header, unparsable row, bad value."""


class AlignmentError(EventStudyError):
    """Two price series yield no usable returns on their shared trading days."""


class HistoryError(EventStudyError):
    """Not enough trading days around an event to run the analysis."""


class DegenerateModelError(EventStudyError):
    """The market-model regression cannot be estimated from the window."""


class ConfigError(EventStudyError):
    """A run configuration is missing, malformed, or inconsistent."""
