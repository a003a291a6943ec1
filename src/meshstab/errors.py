"""Exception types shared across the package."""

from __future__ import annotations

from pathlib import Path


class MeshstabError(Exception):
    """Base class for errors raised by this package."""


class ParseError(MeshstabError):
    """A text input (trajectory file, warp field, config, frame stream) is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text input; bytes that do not decode raise ParseError at their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = len((before + "x").splitlines())  # counted as the parsers split lines
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None


class DegenerateGeometryError(MeshstabError):
    """Point set cannot be triangulated (too few points, all collinear, ...)."""


class SolverError(MeshstabError):
    """A linear solve failed or did not reach the requested residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
