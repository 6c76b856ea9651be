"""Shared diagnostics: source spans and the file:line:col report format.

The parser gives nodes and extern declarations the span (source, offset).
Line and column are worked out from it only when a Diagnostic is made."""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from .core import Record

# line and column are 1-based
SourceSpan = namedtuple("SourceSpan", ("file", "line", "column", "length"),
                        defaults=(1,))


class Source:
    """A file's name and text, and the offsets at which its lines start,
    computed on first use."""

    __slots__ = ("file", "text", "_starts")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._starts = None

    def span(self, offset: int) -> SourceSpan:
        """The line and column of offset.  A line starts after each '\\n';
        columns count characters, so a tab is one column."""
        if self._starts is None:
            self._starts = list(accumulate(
                (len(line) + 1 for line in self.text.split("\n")[:-1]),
                initial=0))
        line = bisect_right(self._starts, offset)
        return SourceSpan(self.file, line, offset - self._starts[line - 1] + 1)


class Diagnostic(Record):
    _fields = ("severity", "code", "message", "span")

    def __init__(self, severity: str, code: str, message: str,
                 span: SourceSpan | None = None):
        self.severity = severity  # "error" | "warning"
        self.code = code  # E-SYNTAX, E-SORT, E-PROTO, E-USE, W-PAR, ...
        self.message = message
        if type(span) is tuple:  # a (Source, offset) pair is resolved
            source, offset = span
            span = source.span(offset)
        self.span = span

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
