"""Exception types raised across the package.

Everything derives from :class:`UqscoreError` so callers (and the CLI) can
distinguish bad inputs from genuine bugs with a single ``except``.
"""


class UqscoreError(Exception):
    """Base class for all errors raised by this package."""


class SimplexError(UqscoreError, ValueError):
    """A probability vector violates the simplex constraints."""


class NegativeEntry(SimplexError):
    """An entry is negative beyond tolerance and renormalization was not requested."""


class NotNormalized(SimplexError):
    """The entries do not sum to one within tolerance."""


class ZeroMass(SimplexError):
    """Renormalization was requested but the entries sum to zero or less."""


class InconsistentDecomposition(UqscoreError, ValueError):
    """An uncertainty triple is not additive or has a negative component."""


class LabelOutOfRange(UqscoreError, ValueError):
    """A class label lies outside {1..K}."""


class DimensionMismatch(UqscoreError, ValueError):
    """Two objects that must share a class count (or feature count) do not."""


class LengthMismatch(UqscoreError, ValueError):
    """A loss vector and a permutation have different lengths."""


class TooLarge(UqscoreError, ValueError):
    """The factorial oracle was asked to enumerate more than 8! permutations."""


class EmptySide(UqscoreError, ValueError):
    """An AUROC split has an empty score set on one side."""


class NonFiniteScore(UqscoreError, ValueError):
    """A NaN or infinite score reached the AUROC ranking stage."""


class BadConfig(UqscoreError, ValueError):
    """A generator or learner configuration value is out of its valid range."""


class EmptyTrain(UqscoreError, ValueError):
    """An ensemble fit was requested on an empty training set."""


class BatchTooLarge(UqscoreError, ValueError):
    """An acquisition batch exceeds the remaining pool."""


class SplitOverlap(UqscoreError, ValueError):
    """Initial, pool, and test index sets are not pairwise disjoint."""


class Malformed(UqscoreError, ValueError):
    """A prediction file line cannot be parsed into a record.

    Carries the 1-based line number in ``line``.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SimplexViolation(UqscoreError, ValueError):
    """A sample row in a prediction file fails simplex validation.

    Carries the 1-based line number and 1-based row index within the record.
    """

    def __init__(self, line: int, row: int, message: str):
        super().__init__(f"line {line}, row {row}: {message}")
        self.line = line
        self.row = row


class MissingLabels(UqscoreError, ValueError):
    """A task that needs labels was given records without them."""


class EmptyInput(UqscoreError, ValueError):
    """A task was given zero records."""
