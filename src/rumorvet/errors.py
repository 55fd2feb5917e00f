"""Exception hierarchy shared across the pipeline.

Two broad families matter to the CLI exit-code contract: DataError (bad
input data, exit 2) and ModelError (bad or missing trained state, exit 3).
"""


class RumorVetError(Exception):
    """Base class for all package-specific errors; the message names the
    file at path when one is given."""

    def __init__(self, message: str, path=None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class UsageError(RumorVetError):
    """Bad command-line usage or bad configuration (CLI exit 1)."""


class ConfigError(UsageError):
    """Malformed config file or unknown config key."""


class DataError(RumorVetError):
    """Bad input data (CLI exit 2)."""


class MalformedStructure(DataError):
    """Conversation directory violates the expected layout: missing source
    post, structure ids without reply files, duplicate ids, or an
    unparseable structure file."""


class UnparseableTimestamp(DataError):
    """A post carries no timestamp, or one in no recognized format."""


class CorpusFormatError(DataError):
    """A pretraining corpus file does not match its documented format."""


class IdMismatch(DataError):
    """Prediction ids and gold-label ids do not cover the same set."""


class EmptyMatrix(DataError):
    """Metrics requested for a confusion matrix with zero total count."""


class InsufficientClassExamples(DataError):
    """Balanced sampling asked for more per-class examples than exist."""


class EmptyEvidence(DataError):
    """Aggregation over an empty list of stance scores."""


class DegenerateEvidence(DataError):
    """Every stance score put its whole mass on the none class, so the
    agree/disagree sums are both exactly zero."""


class ModelError(RumorVetError):
    """Bad or missing trained state (CLI exit 3)."""


class UntrainedBackend(ModelError):
    """predict() called on a backend that was never fitted."""


class ModelFormatError(ModelError):
    """A model file is unreadable, malformed, or of an unknown version or kind."""
