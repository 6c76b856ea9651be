"""Textual language: tokenizer, parser and desugarer.  The parser and the
desugarer keep their own stacks, so nesting depth is bounded by memory
alone.

Surface grammar (lowest precedence first):

    program  := extern* proc
    proc     := term ('|' proc)?                  right-associative
    term     := 'nil'
              | '(' proc ')'
              | 'new' ident (',' ident)* 'in' term
              | 'repeat' term
              | ident '!' '(' values? ')' ('.' term)?
              | ident '?' '(' idents? ')' ('.' term)?   binding input
              | ident '?' '<' idents? '>' ('.' term)?   free input
              | value '=' value                          fusion
    value    := ident | INT | STRING | 'true' | 'false' | 'unit'

Comments run from '//' to end of line.  A missing continuation is nil.
A node's span is (diag.Source, offset of its token).
"""

from __future__ import annotations

import re

from .core import (BoolLit, ExternDecl, Fusion, In, IntLit, MethodDecl, Name,
                   NameSupply, New, Nil, NOT_XML_CHARS, Out, Par, Process,
                   Program, Repeat, StrLit, UnitLit, Value, base_sort)
from .diag import Diagnostic, ParseError, Source

KEYWORDS = {
    "nil", "new", "in", "repeat", "extern", "class", "call", "return",
    "acceded", "as", "rec", "true", "false", "unit", "void", "int",
    "string", "bool",
}

# one alternative per lexical class, tried in this order at each position;
# `space` takes white space with every comment that a newline ends, so a
# `comment` match is a comment that ends the text; `bad` catches what no
# other rule takes, an unterminated '"' included
_TOKEN_RE = re.compile(r"""
    (?P<word>[^\W\d]\w*) | (?P<punct>->|[!?()<>{}|.,=:;])
  | (?P<space>(?:[ \t\r\n]+|//[^\n]*\n)+) | (?P<comment>//[^\n]*)
  | (?P<strlit>"[^"\\]*(?:\\.[^"\\]*)*") | (?P<intlit>-?\d+) | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPES = {"n": "\n", "t": "\t"}  # others stand for themselves
_NOT_XML = re.compile(f"[{NOT_XML_CHARS}]").search


def tokenize(text: str, filename: str = "<input>") -> list:
    """One left-to-right scan of _TOKEN_RE, giving (kind, text, offset)
    tuples; kind is "ident", "intlit", "strlit", a keyword or punctuation
    text, or "eof"."""
    tokens = []
    append = tokens.append
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space" or kind == "comment":
            continue
        word = m[0]
        if kind == "word" and (word[0].isalpha() or word[0] == "_"):
            kind = word if word in KEYWORDS else "ident"
        elif kind == "punct":
            kind = word
        elif kind == "strlit" and not _NOT_XML(word):
            word = _ESCAPE_RE.sub(lambda e: _UNESCAPES.get(e[1], e[1]),
                                  word[1:-1])
        elif kind != "intlit":  # bad, a string XIR cannot carry, or a word
            # such as '²' that isalpha rejects
            if kind == "strlit":
                msg = (f"string holds {_NOT_XML(word)[0]!r}, which XML 1.0 "
                       f"cannot carry")
            elif word == '"':
                msg = "unterminated string"
            else:
                msg = f"unexpected character {word[0]!r}"
            raise ParseError([Diagnostic("error", "E-SYNTAX", msg,
                                         (Source(filename, text), m.start()))])
        append((kind, word, m.start()))
    # a comment that ends the text leaves the end of input where it starts
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    append(("eof", "", end))
    return tokens


# the sorts that an extern block names
SORT_NAMES = {"void", "int", "string", "bool"}


def is_identifier(text: str) -> bool:
    """Whether tokenize reads text as one identifier: a word of _TOKEN_RE
    that starts with a letter or '_' and is no keyword."""
    m = _TOKEN_RE.fullmatch(text)
    return (m is not None and m.lastgroup == "word" and text not in KEYWORDS
            and (text[0].isalpha() or text[0] == "_"))


class _Parser:
    def __init__(self, tokens: list, source: Source):
        self.tokens = tokens  # (kind, text, offset) tuples
        self.source = source  # of the tokens' offsets
        self.pos = 0
        self.fresh = NameSupply().fresh
        self.globals: dict[str, Name] = {}  # extern channels
        self.aliases: set[str] = set()  # extern aliases
        self.free: dict[str, Name] = {}  # free names of main

    # -- token plumbing

    def peek(self) -> tuple:
        return self.tokens[self.pos]  # never past the eof token

    def next(self) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> tuple:
        t = self.peek()
        if t[0] != kind:
            self.fail(f"expected {kind!r}, found {t[1] or 'end of input'!r}", t)
        return self.next()

    def at(self, tok: tuple) -> tuple:
        """The span of tok."""
        return (self.source, tok[2])

    def fail(self, msg: str, tok: tuple = None):
        tok = tok or self.peek()
        raise ParseError([Diagnostic("error", "E-SYNTAX", msg, self.at(tok))])

    # -- extern blocks

    def parse_extern(self) -> ExternDecl:
        start = self.expect("extern")
        alias_tok = self.expect("ident")
        alias = alias_tok[1]
        if alias in self.aliases:
            self.fail(f"extern alias {alias} declared twice", alias_tok)
        self.aliases.add(alias)
        self.expect("->")
        self.expect("class")
        cls = self.expect("ident")[1]
        self.expect("{")
        methods = []
        names = set()
        while self.peek()[0] != "}":
            methods.append(self.parse_method(names))
        self.expect("}")
        return ExternDecl(alias, cls, tuple(methods), span=self.at(start))

    def _sort_name(self):
        t = self.next()
        if t[0] not in SORT_NAMES:
            self.fail(f"expected a sort, found {t[1]!r}", t)
        return t[1]

    def _sort_list(self, close: str = None) -> tuple:
        """Comma-separated sorts; 'void' alone, or close next, means an
        empty payload."""
        if self.peek()[0] == close:
            return ()
        first = self._sort_name()
        if first == "void":
            return ()
        sorts = [base_sort(first)]
        while self.peek()[0] == ",":
            self.next()
            name = self._sort_name()
            if name == "void":
                self.fail("'void' cannot appear in a payload list")
            sorts.append(base_sort(name))
        return tuple(sorts)

    def parse_method(self, names: set) -> MethodDecl:
        """One method of an extern block; names holds the block's method
        names so far."""
        start = self.peek()
        ret_name = self._sort_name()
        name_tok = self.expect("ident")
        mname = name_tok[1]
        if mname in names:
            self.fail(f"extern method {mname} declared twice", name_tok)
        names.add(mname)
        self.expect("(")
        header_params = self._sort_list(")")
        self.expect(")")
        self.expect("{")
        self.expect("call")
        call_tok = self.expect("ident")
        self.expect(":")
        param_sorts = self._sort_list()
        self.expect(";")
        self.expect("return")
        ret_tok = self.expect("ident")
        self.expect(":")
        ret_payload = self._sort_list()
        self.expect(";")
        self.expect("}")
        if header_params and header_params != param_sorts:
            self.fail(f"method {mname}: header parameters do not match the "
                      f"call clause", start)
        want_ret = () if ret_name == "void" else (base_sort(ret_name),)
        if want_ret != ret_payload:
            self.fail(f"method {mname}: return type {ret_name} does not "
                      f"match the return clause", start)
        call_chan = self._declare_channel(call_tok)
        ret_chan = self._declare_channel(ret_tok)
        protocol = None
        if self.peek()[0] == "acceded":
            self.next()
            self.expect("as")
            self.expect("{")
            protocol = self.parse_protocol()
            self.expect("}")
        return MethodDecl(mname, call_chan, param_sorts, ret_chan,
                          ret_payload, protocol, span=self.at(start))

    def _declare_channel(self, tok: tuple) -> Name:
        if tok[1] in self.globals:
            raise ParseError([Diagnostic(
                "error", "E-SYNTAX",
                f"extern channel {tok[1]} declared twice", self.at(tok))])
        name = self.fresh(tok[1])
        self.globals[tok[1]] = name
        return name

    def parse_protocol(self) -> tuple:
        """A `rec` body, as its (channel display, payload) steps."""
        self.expect("rec")
        var = self.expect("ident")[1]
        self.expect("{")
        steps = []
        while True:
            tok = self.expect("ident")
            if tok[1] == var and self.peek()[0] == "}":
                break
            self.expect("(")
            steps.append((tok[1], self._sort_list(")")))
            self.expect(")")
            self.expect(".")
        self.expect("}")
        if not steps:
            self.fail("empty protocol body")
        return tuple(steps)

    # -- processes

    def lookup(self, tok: tuple, scope: dict) -> Name:
        """scope (where None marks a closed binder), extern, else free."""
        name = scope.get(tok[1]) or self.globals.get(tok[1])
        if name is not None:
            return name
        if tok[1] not in self.free:
            self.free[tok[1]] = self.fresh(tok[1])
        return self.free[tok[1]]

    def _bind(self, toks: list, scope: dict, frames: list) -> list:
        """Fresh names for toks, bound in scope in place; frames gets the
        entries to restore."""
        frames.append({t[1]: scope.get(t[1]) for t in toks})
        names = [self.fresh(tok[1]) for tok in toks]
        scope.update((t[1], n) for t, n in zip(toks, names))
        return names

    def _items(self, item, close: str = None) -> list:
        """item (',' item)*, or no items when the next token is close."""
        if self.peek()[0] == close:
            return []
        items = [item()]
        while self.peek()[0] == ",":
            self.next()
            items.append(item())
        return items

    def parse_proc(self, scope: dict) -> Process:
        """A proc, without recursion.  frames holds, innermost last, what
        encloses the current term: a '|' chain (its terms and bars, folded
        to the right at its end; all but the outermost opened by '('), a
        prefix waiting for its body (constructor, fields, span), or the
        scope entries to restore (a dict)."""
        frames = [[]]
        while True:
            p = self._term_head(scope, frames)
            while True:  # p is a whole term: close what it completes
                frame = frames.pop()
                if type(frame) is dict:
                    scope.update(frame)
                elif type(frame) is tuple:
                    make, fields, span = frame
                    p = make(*fields, p, span=span)
                elif self.peek()[0] == "|":
                    frame += (p, self.next())
                    frames.append(frame)
                    break
                else:
                    for left, bar in reversed(list(zip(frame[::2], frame[1::2]))):
                        p = Par(left, p, span=self.at(bar))
                    if not frames:
                        return p
                    self.expect(")")

    def _value(self, t: tuple, scope: dict) -> Name | Value:
        if t[0] == "ident":
            return self.lookup(t, scope)
        if t[0] == "intlit":
            try:
                return IntLit(int(t[1]))
            except ValueError:  # past the interpreter's int-conversion limit
                self.fail("integer literal has too many digits", t)
        if t[0] == "strlit":
            return StrLit(t[1])
        if t[0] in ("true", "false"):
            return BoolLit(t[0] == "true")
        if t[0] == "unit":
            return UnitLit()
        self.fail(f"expected a value, found {t[1] or 'end of input'!r}", t)

    def _term_head(self, scope: dict, frames: list) -> Process:
        """Reads a term up to its first whole subterm (nil, a fusion, or the
        Nil after a prefix with no '.'), pushing a frame for each enclosing
        construct, and returns that subterm."""
        while True:
            t = self.next()  # a failure raises, so taking t first is harmless
            kind = t[0]
            if kind == "nil":
                return Nil(span=self.at(t))
            if kind == "(":
                frames.append([])
            elif kind == "new":
                binders = self._items(lambda: self.expect("ident"))
                self.expect("in")
                names = self._bind(binders, scope, frames)
                frames += [(New, (n,), self.at(t)) for n in names]
            elif kind == "repeat":
                frames.append((Repeat, (), self.at(t)))
            elif kind == "ident" and self.peek()[0] in ("!", "?"):
                subj = self.lookup(t, scope)
                if self.next()[0] == "!":
                    self.expect("(")
                    objs = self._items(lambda: self._value(self.next(), scope),
                                       ")")
                    self.expect(")")
                    frames.append((Out, (subj, tuple(objs)), self.at(t)))
                else:
                    open_tok = self.next()
                    close = {"(": ")", "<": ">"}.get(open_tok[0])
                    if close is None:
                        self.fail("expected '(' or '<' after '?'", open_tok)
                    toks = self._items(lambda: self.expect("ident"), close)
                    self.expect(close)
                    binding = close == ")"
                    names = (self._bind(toks, scope, frames) if binding
                             else [self.lookup(tok, scope) for tok in toks])
                    frames.append((In, (subj, tuple(names), binding),
                                   self.at(t)))
                if self.peek()[0] != ".":
                    return Nil()
                self.next()
            else:  # fusion: value '=' value
                left = self._value(t, scope)
                eq = self.expect("=")
                return Fusion(left, self._value(self.next(), scope),
                              span=self.at(eq))


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse source text into a surface Program (binding inputs allowed).
    Raises ParseError carrying diagnostics with source spans."""
    parser = _Parser(tokenize(text, filename), Source(filename, text))
    externs = []
    while parser.peek()[0] == "extern":
        externs.append(parser.parse_extern())
    if parser.peek()[0] == "eof":
        parser.fail("expected a process")
    main = parser.parse_proc({})
    parser.expect("eof")
    return Program(tuple(externs), main)


# ---------------------------------------------------------------------------
# Desugaring: binding input becomes fresh restrictions plus a free input


def desugar(program: Program) -> Program:
    """Every binding input x?(v).P becomes new v' in x?<v'>.P{v'/v}, with v'
    fresh, in one explicit-stack walk, so chain depth cannot overflow the
    Python stack.  A New of a renamed id shadows the renaming.  Spans are
    kept.  Fresh ids start above every id of the program, extern channels
    included, in the order the inputs are built: a continuation before its
    own binders, the left of a Par before its right."""
    ids = [-1] + [n.id for d in program.externs for n in d.channels()]
    # the fresh names in that order, made with id None and numbered once
    # every id is read: Name hashes and compares by id, so until then they
    # are only stored, never hashed or compared
    fresh = []
    env = {}  # bound id -> fresh name (None: not renamed), changed in place
    built = []
    # a node to visit, (node, fields) to build once its children are, or
    # the env entries to restore
    stack = [program.main]
    while stack:
        p = stack.pop()
        kind = type(p)
        if kind is dict:
            env.update(p)
        elif kind is tuple:
            p, fields = p
            kind = type(p)
            n = 2 if kind is Par else 1
            q = kind(*fields, *built[-n:], span=p.span)
            del built[-n:]
            if kind is In and p.binding:
                fresh += fields[1]
                for f in reversed(fields[1]):
                    q = New(f, q, span=p.span)
            built.append(q)
        elif kind is Nil:
            built.append(p)
        elif kind is Fusion:
            built.append(Fusion(_rename_value(p.left, env, ids),
                                _rename_value(p.right, env, ids), span=p.span))
        elif kind is Par:
            stack += ((p, ()), p.right, p.left)
        elif kind is New:  # shadows a renaming of its id
            ids.append(p.name.id)
            stack += ((p, (p.name,)), {p.name.id: env.get(p.name.id)}, p.body)
            env[p.name.id] = None
        elif kind is Repeat:
            stack += ((p, ()), p.body)
        elif kind is Out:
            ids.append(p.subject.id)
            objects = tuple(_rename_value(v, env, ids) for v in p.objects)
            stack += ((p, (env.get(p.subject.id) or p.subject, objects)),
                      p.cont)
        elif kind is In:
            ids.append(p.subject.id)
            ids += [o.id for o in p.objects]
            subject = env.get(p.subject.id) or p.subject
            if p.binding:
                objects = tuple(Name(None, o.display) for o in p.objects)
                stack.append({o.id: env.get(o.id) for o in p.objects})
                # the first of repeated parameters wins, as in substitution
                env.update(zip([o.id for o in reversed(p.objects)],
                               reversed(objects)))
            else:
                objects = tuple(env.get(o.id) or o for o in p.objects)
            stack += ((p, (subject, objects, False)), p.cont)
        else:
            raise TypeError(p)
    for i, n in enumerate(fresh, max(ids) + 1):
        n.id = i
    return Program(program.externs, built[0])


def _rename_value(v: Name | Value, env: dict, ids: list) -> Name | Value:
    """v renamed under env; ids gets v's id when v is a name."""
    if type(v) is Name:
        ids.append(v.id)
        return env.get(v.id) or v
    return v
