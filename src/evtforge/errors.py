"""Exception types shared across the package, and the input-file reader
that turns unreadable files into them."""

from pathlib import Path


class EvtForgeError(Exception):
    pass


class ParseError(EvtForgeError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class SortError(EvtForgeError):
    """Structural error: ill-sorted term/formula, unknown symbol, bad morphism."""


class SpecError(EvtForgeError):
    """Semantic error at the specification level (environments, imports, refinements)."""


class EnumerationLimit(EvtForgeError):
    """A bounded enumeration would exceed the configured ceiling."""


def read_source(path: str) -> str:
    """The UTF-8 text of an input file.  A file that cannot be opened raises
    SpecError and bytes that do not decode ParseError, each naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SpecError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
