"""Exception types shared across the package."""


class DeepTreesError(Exception):
    """Base class for all package errors."""


class SpaceTooLarge(DeepTreesError):
    """An exhaustive operation was asked to enumerate more points than its cap."""


class OutOfBounds(DeepTreesError):
    """A point lies outside its lattice space."""


class UnsupportedCardinality(DeepTreesError):
    """The product distribution is only defined for four feature values."""


class FeatureOutOfRange(DeepTreesError):
    """A tree references a feature index beyond the input width."""


class ModelSyntaxError(DeepTreesError):
    """Malformed model text; carries line/column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityError(ModelSyntaxError):
    """A model form has the wrong number of children."""


class LabelDomainError(ModelSyntaxError):
    """A leaf label is not an integer class label."""


class NonFiniteThreshold(DeepTreesError):
    """A tree node's threshold is NaN or infinite."""


class NonFiniteFeature(DeepTreesError):
    """A training row holds a NaN or infinite feature value; carries the
    0-based row and the 1-based feature."""

    def __init__(self, message, row, feature):
        super().__init__(message)
        self.row = row
        self.feature = feature


class NonLatticeThreshold(DeepTreesError):
    """A threshold cannot be snapped to an integer cut between lattice values."""


class SearchBudgetExceeded(DeepTreesError):
    """The exhaustive tree search exceeded its configured node budget."""


class PreconditionViolated(DeepTreesError):
    """An operation's documented precondition does not hold for the inputs."""


class EmptyRegion(DeepTreesError):
    """A hyperrectangle has no probability mass or no lattice points."""


class EmptyDataset(DeepTreesError):
    """A training or parsing operation received no rows."""


class MalformedRow(DeepTreesError):
    """A CSV row has the wrong arity or an unparsable field."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnreadableFile(DeepTreesError):
    """A named input file is missing, is not a file, or cannot be read as
    UTF-8 text; carries the path."""

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


class UnwritableFile(DeepTreesError):
    """A named output file cannot be written (a missing directory, a
    directory in its place, no permission); carries the path."""

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


class ChecksumMismatch(DeepTreesError):
    """A fetched file's digest does not match the manifest."""


class UnreachableSource(DeepTreesError):
    """A dataset is neither cached nor downloadable."""


class ConfigError(DeepTreesError, ValueError):
    """A configuration, argument or plotted value is unknown or out of range."""


class EmptyTable(DeepTreesError):
    """A plot was requested for an empty result table."""


class NonIntegralLabel(DeepTreesError):
    """A training label is not a finite integer; carries the 0-based row."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row
