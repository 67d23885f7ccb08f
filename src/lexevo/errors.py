"""Exception hierarchy shared by all lexevo modules.

Two broad families matter for the CLI exit codes: :class:`ValidationError`
covers bad arguments, schemas and configuration (exit 1), while
:class:`DataError` covers inputs that are structurally fine but whose
content cannot be analyzed (exit 2). Anything else is an internal error
(exit 3).
"""

from __future__ import annotations


class LexevoError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LexevoError):
    """Invalid arguments, schema or configuration."""


class SchemaError(ValidationError):
    """A mapped CSV column is missing from the input header."""


class ConfigError(ValidationError):
    """A configuration value is out of range or a referenced path is missing."""


class DependencyError(ValidationError):
    """A pipeline stage was invoked before the stage that produces its input,
    or that input artifact is malformed."""


class LabelNotFoundError(ValidationError):
    """A row/column/period label does not exist in the queried structure."""


class DataError(LexevoError):
    """Input content cannot be analyzed (empty, degenerate, inconsistent)."""


class EncodingError(DataError):
    """Input bytes are not valid UTF-8."""


class EmptyMatrixError(DataError):
    """Every document row was pruned while building the document-term matrix."""


class DegenerateCorpusError(DataError):
    """An operation needs more than one document (e.g. tf-idf with N = 1)."""


class InsufficientDataError(DataError):
    """Too few observations for the requested fit."""


class UndefinedStatisticError(DataError):
    """A statistic is undefined for the given input (e.g. all streams empty)."""


class EmptyPeriodError(DataError):
    """A period contains no documents (or none with in-vocabulary tokens)."""


class LayoutError(DataError):
    """A figure cannot be laid out on the requested canvas."""
