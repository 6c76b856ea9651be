"""Shared diagnostics: source spans and the file:line:col report format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class SourceSpan(NamedTuple):
    file: str
    line: int  # 1-based
    column: int  # 1-based
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str  # E-SYNTAX, E-SORT, E-PROTO, E-USE, W-PAR, ...
    message: str
    span: Optional[SourceSpan] = None

    def __str__(self):
        span = self.span or SourceSpan("<input>", 1, 1)
        return f"{span.file}:{span.line}:{span.column}: {self.severity} {self.code} {self.message}"


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)


class ParseError(Exception):
    """Raised by the parser; carries the collected diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))
