"""Reference front end: the original character-at-a-time tokenizer and the
substitute-based desugarer.  Slow (desugar is quadratic in the depth of a
binding-input chain) but a direct reading of the lexical rules and of the
desugaring; test_parser checks pichan.parser.tokenize and desugar against
them.

Two deliberate changes from the original: a raw newline inside a string
literal now advances the line count, as it does in pichan.parser, and a
string literal that holds a character XML 1.0 cannot carry is refused.  The
tokens here carry a SourceSpan each, as pichan's did before its tokens
carried an offset; test_parser resolves pichan's offsets to compare them.
"""

from __future__ import annotations

from typing import NamedTuple

from pichan.core import (Fusion, In, Nil, New, Out, Par, Process, Program,
                         Repeat, NameSupply)
from pichan.diag import Diagnostic, ParseError, SourceSpan
from pichan.parser import KEYWORDS

from substitution import substitute
from terms import program_scan

class Token(NamedTuple):
    kind: str  # "ident" | "intlit" | "strlit" | keyword/punct text | "eof"
    text: str
    span: SourceSpan


_PUNCT = ["->", "!", "?", "(", ")", "<", ">", "{", "}", "|", ".", ",", "=",
          ":", ";"]


def _xml_char(c: str) -> bool:
    """Whether c is in XML 1.0's Char production."""
    o = ord(c)
    return (c in "\t\n\r" or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD
            or 0x10000 <= o <= 0x10FFFF)


def tokenize(text: str, filename: str = "<input>") -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                               .get(esc, esc))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError([Diagnostic("error", "E-SYNTAX",
                                             "unterminated string", span)])
            # a character outside XML 1.0's Char production has no form in
            # XIR, not even a character reference
            bad = [c for c in text[i:j] if not _xml_char(c)]
            if bad:
                raise ParseError([Diagnostic(
                    "error", "E-SYNTAX", f"string holds {bad[0]!r}, which "
                    f"XML 1.0 cannot carry", span)])
            tokens.append(Token("strlit", "".join(buf),
                                SourceSpan(filename, line, col, j + 1 - i)))
            # the one change from the original: raw newlines start new lines
            nl = text.rfind("\n", i, j)
            line, col = ((line + text.count("\n", i, j), j + 1 - nl)
                         if nl >= 0 else (line, col + j + 1 - i))
            i = j + 1
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("intlit", text[i:j],
                                SourceSpan(filename, line, col, j - i)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word,
                                SourceSpan(filename, line, col, j - i)))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, SourceSpan(filename, line, col, len(p))))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError([Diagnostic("error", "E-SYNTAX",
                                         f"unexpected character {c!r}", span)])
    tokens.append(Token("eof", "", SourceSpan(filename, line, col, 1)))
    return tokens


def desugar(program: Program) -> Program:
    supply = NameSupply(program_scan(program)[0] + 1)
    return Program(program.externs, _desugar_proc(program.main, supply))


def _desugar_proc(p: Process, supply: NameSupply) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        return Par(_desugar_proc(p.left, supply),
                   _desugar_proc(p.right, supply), span=p.span)
    if isinstance(p, New):
        return New(p.name, _desugar_proc(p.body, supply), span=p.span)
    if isinstance(p, Out):
        return Out(p.subject, p.objects, _desugar_proc(p.cont, supply),
                   span=p.span)
    if isinstance(p, Repeat):
        return Repeat(_desugar_proc(p.body, supply), span=p.span)
    if isinstance(p, Fusion):
        return p
    if isinstance(p, In):
        cont = _desugar_proc(p.cont, supply)
        if not p.binding:
            return In(p.subject, p.objects, False, cont, span=p.span)
        fresh = []
        for o in p.objects:
            f = supply.fresh(o.display)
            cont = substitute(cont, o, f, supply)
            fresh.append(f)
        body = In(p.subject, tuple(fresh), False, cont, span=p.span)
        for f in reversed(fresh):
            body = New(f, body, span=p.span)
        return body
    raise TypeError(p)
