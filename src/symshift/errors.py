"""Domain errors.  Every error carries a stable machine-readable ``code``."""


class SymshiftError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_INTERNAL"


class EmptyWordError(SymshiftError):
    code = "E_EMPTY_WORD"


class AlphabetMismatchError(SymshiftError):
    code = "E_ALPHABET_MISMATCH"


class BadLengthError(SymshiftError):
    code = "E_BAD_LENGTH"


class UnlabeledError(SymshiftError):
    code = "E_UNLABELED"


class OrderTooSmallError(SymshiftError):
    code = "E_ORDER_TOO_SMALL"


class EmptyShiftError(SymshiftError):
    code = "E_EMPTY_SHIFT"


class OverlapTooShortError(SymshiftError):
    code = "E_OVERLAP_TOO_SHORT"


class NotInDomainError(SymshiftError):
    code = "E_NOT_IN_DOMAIN"


class NotASelfmapError(SymshiftError):
    """The image of the rule is not contained in the requested target shift.

    Distinct from a plain "not surjective" verdict: surjectivity onto a target
    only makes sense for maps into that target.
    """

    code = "E_NOT_A_SELFMAP"


class DensityUnknownError(SymshiftError):
    code = "E_DENSITY_UNKNOWN"


class RuleConflictError(SymshiftError):
    code = "E_RULE_CONFLICT"


class RuleIncompleteError(SymshiftError):
    """A local rule is missing an entry for some allowed window."""

    code = "E_RULE_INCOMPLETE"


class TooLargeError(SymshiftError):
    """An input whose graph would pass a size cap; refused before it is built."""

    code = "E_TOO_LARGE"


class FormatError(SymshiftError):
    """Malformed input text (.sft, .rule or .pres).  ``line`` is 1-based;
    loaders re-raise with ``filename`` filled in."""

    code = "E_FORMAT"

    def __init__(self, message: str, line: int | None = None, filename: str | None = None):
        self.message = message
        self.line = line
        self.filename = filename
        where = [p for p in (filename, f"line {line}" if line is not None else None) if p]
        prefix = ": ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
