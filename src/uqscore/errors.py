"""Exception types raised across the package.

Every fault is a :class:`UqscoreError`, a ``ValueError`` whose message names
it; the CLI prints the message and exits 3.  A class exists only where some
code, or a caller, must tell its fault apart from the rest:

* :class:`UqscoreError`: the base the CLI catches, raised itself for faults
  nothing handles apart (mismatched shapes or lengths, empty inputs,
  non-finite scores, missing labels);
* :class:`SimplexError`: a probability vector off the simplex; the file
  parser catches it to name the line and row;
* :class:`LabelOutOfRange`: a label the one label rule refuses; the file
  parser catches it to name the line;
* :class:`BadConfig`: a setting or split out of range; the CLI passes it on
  where it would wrap other errors of a config section;
* :class:`Malformed`: a prediction file line that cannot be read, with its
  1-based ``line`` and, for a simplex fault, ``row``; the CLI prefixes the
  file's path;
* :class:`InconsistentDecomposition`: a triple that is not additive or not
  proper, which means a bug, not bad input.
"""


class UqscoreError(ValueError):
    """Base class for all errors raised by this package."""


class SimplexError(UqscoreError):
    """A probability vector violates the simplex constraints."""


class LabelOutOfRange(UqscoreError):
    """A class label is not an integer in {1..K}."""


class BadConfig(UqscoreError):
    """A configuration value, split or batch is out of its valid range."""


class Malformed(UqscoreError):
    """A prediction file line cannot be parsed into a record.

    Carries the 1-based line number in ``line`` and, for a row off the
    simplex, the 1-based row index within the record in ``row`` (else None).
    """

    def __init__(self, line: int, message: str, row: int | None = None):
        super().__init__(f"line {line}: {message}" if row is None else f"line {line}, row {row}: {message}")
        self.line = line
        self.row = row


class InconsistentDecomposition(UqscoreError):
    """An uncertainty triple is not additive or has a negative component."""
