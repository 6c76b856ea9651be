"""Textual language: tokenizer, recursive-descent parser, desugarer and
pretty printer.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (BoolLit, Fusion, In, IntLit, Name, NameRef, NameSupply,
                   New, Nil, Out, Par, Process, Repeat, StrLit, UnitLit,
                   Value, name_scan, substitute)
from .diag import Diagnostic, ParseError, SourceSpan
from .interop import ExternDecl, MethodDecl
from .typecheck import ProtocolAutomaton, base_sort, canonical_protocol

KEYWORDS = {
    "nil", "new", "in", "repeat", "extern", "class", "call", "return",
    "acceded", "as", "rec", "true", "false", "unit", "void", "int",
    "string", "bool",
}

_PUNCT = ["->", "!", "?", "(", ")", "<", ">", "{", "}", "|", ".", ",", "=",
          ":", ";"]


@dataclass(frozen=True)
class Program:
    externs: tuple  # tuple[ExternDecl, ...]
    main: Process


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | keyword/punct literal | "eof"
    text: str
    span: SourceSpan


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
            tokens.append(Token("string", "".join(buf),
                                SourceSpan(filename, line, col, j + 1 - i)))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j],
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


_SORT_TOKENS = {"void", "int", "string", "bool"}


class _Parser:
    def __init__(self, tokens: list, supply: NameSupply):
        self.tokens = tokens
        self.pos = 0
        self.supply = supply
        self.globals: dict[str, Name] = {}  # extern channels
        self.free: dict[str, Name] = {}  # free names of main

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind!r}, found {t.text or 'end of input'!r}", t)
        return self.next()

    def fail(self, msg: str, tok: Token = None):
        tok = tok or self.peek()
        raise ParseError([Diagnostic("error", "E-SYNTAX", msg, tok.span)])

    # -- extern blocks

    def parse_extern(self) -> ExternDecl:
        start = self.expect("extern")
        alias = self.expect("ident").text
        self.expect("->")
        self.expect("class")
        cls = self.expect("ident").text
        self.expect("{")
        methods = []
        while self.peek().kind != "}":
            methods.append(self.parse_method())
        self.expect("}")
        return ExternDecl(alias, cls, tuple(methods), span=start.span)

    def _sort_name(self):
        t = self.peek()
        if t.kind not in _SORT_TOKENS:
            self.fail(f"expected a sort, found {t.text!r}", t)
        self.next()
        return t.text

    def _sort_list(self) -> tuple:
        """Comma-separated sorts; 'void' alone means an empty payload."""
        first = self._sort_name()
        if first == "void":
            return ()
        sorts = [base_sort(first)]
        while self.peek().kind == ",":
            self.next()
            name = self._sort_name()
            if name == "void":
                self.fail("'void' cannot appear in a payload list")
            sorts.append(base_sort(name))
        return tuple(sorts)

    def parse_method(self) -> MethodDecl:
        start = self.peek()
        ret_name = self._sort_name()
        mname = self.expect("ident").text
        self.expect("(")
        header_params: tuple = ()
        if self.peek().kind != ")":
            header_params = self._sort_list()
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
        declared = False
        if self.peek().kind == "acceded":
            self.next()
            self.expect("as")
            self.expect("{")
            protocol = self.parse_protocol()
            self.expect("}")
            declared = True
        else:
            protocol = canonical_protocol(call_chan.display, param_sorts,
                                          ret_chan.display, ret_payload)
        return MethodDecl(mname, call_chan, param_sorts, ret_chan,
                          ret_payload, protocol, protocol_declared=declared,
                          span=start.span)

    def _declare_channel(self, tok: Token) -> Name:
        if tok.text in self.globals:
            raise ParseError([Diagnostic(
                "error", "E-SYNTAX",
                f"extern channel {tok.text} declared twice", tok.span)])
        name = self.supply.fresh(tok.text, "source")
        self.globals[tok.text] = name
        return name

    def parse_protocol(self) -> ProtocolAutomaton:
        self.expect("rec")
        var = self.expect("ident").text
        self.expect("{")
        transitions = []
        state = 0
        while True:
            tok = self.expect("ident")
            if tok.text == var and self.peek().kind == "}":
                break
            payload: tuple = ()
            self.expect("(")
            if self.peek().kind != ")":
                payload = self._sort_list()
            self.expect(")")
            transitions.append([state, tok.text, payload, state + 1])
            state += 1
            self.expect(".")
        self.expect("}")
        if not transitions:
            self.fail("empty protocol body")
        transitions[-1][3] = 0  # loop back to the rec variable
        return ProtocolAutomaton(state, tuple(tuple(t) for t in transitions))

    # -- processes

    def lookup(self, tok: Token, scope: dict) -> Name:
        if tok.text in scope:
            return scope[tok.text]
        if tok.text in self.globals:
            return self.globals[tok.text]
        if tok.text not in self.free:
            self.free[tok.text] = self.supply.fresh(tok.text, "source")
        return self.free[tok.text]

    def parse_proc(self, scope: dict) -> Process:
        left = self.parse_term(scope)
        if self.peek().kind == "|":
            bar = self.next()
            right = self.parse_proc(scope)
            return Par(left, right, span=bar.span)
        return left

    def _value(self, scope: dict) -> Value:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text))
        if t.kind == "string":
            self.next()
            return StrLit(t.text)
        if t.kind in ("true", "false"):
            self.next()
            return BoolLit(t.kind == "true")
        if t.kind == "unit":
            self.next()
            return UnitLit()
        if t.kind == "ident":
            self.next()
            return NameRef(self.lookup(t, scope))
        self.fail(f"expected a value, found {t.text or 'end of input'!r}", t)

    def _cont(self, scope: dict) -> Process:
        if self.peek().kind == ".":
            self.next()
            return self.parse_term(scope)
        return Nil()

    def parse_term(self, scope: dict) -> Process:
        t = self.peek()
        if t.kind == "nil":
            self.next()
            return Nil(span=t.span)
        if t.kind == "(":
            self.next()
            p = self.parse_proc(scope)
            self.expect(")")
            return p
        if t.kind == "new":
            self.next()
            binders = [self.expect("ident")]
            while self.peek().kind == ",":
                self.next()
                binders.append(self.expect("ident"))
            self.expect("in")
            scope = dict(scope)
            names = []
            for tok in binders:
                name = self.supply.fresh(tok.text, "source")
                scope[tok.text] = name
                names.append(name)
            body = self.parse_term(scope)
            for name in reversed(names):
                body = New(name, body, span=t.span)
            return body
        if t.kind == "repeat":
            self.next()
            return Repeat(self.parse_term(scope), span=t.span)
        if t.kind == "ident" and self.peek(1).kind == "!":
            self.next()
            subj = self.lookup(t, scope)
            self.next()  # !
            self.expect("(")
            objs = []
            if self.peek().kind != ")":
                objs.append(self._value(scope))
                while self.peek().kind == ",":
                    self.next()
                    objs.append(self._value(scope))
            self.expect(")")
            return Out(subj, tuple(objs), self._cont(scope), span=t.span)
        if t.kind == "ident" and self.peek(1).kind == "?":
            self.next()
            subj = self.lookup(t, scope)
            self.next()  # ?
            open_tok = self.peek()
            if open_tok.kind == "(":
                self.next()
                params = []
                if self.peek().kind != ")":
                    params.append(self.expect("ident"))
                    while self.peek().kind == ",":
                        self.next()
                        params.append(self.expect("ident"))
                self.expect(")")
                scope = dict(scope)
                names = []
                for tok in params:
                    name = self.supply.fresh(tok.text, "source")
                    scope[tok.text] = name
                    names.append(name)
                return In(subj, tuple(names), True, self._cont(scope),
                          span=t.span)
            if open_tok.kind == "<":
                self.next()
                names = []
                if self.peek().kind != ">":
                    names.append(self.lookup(self.expect("ident"), scope))
                    while self.peek().kind == ",":
                        self.next()
                        names.append(self.lookup(self.expect("ident"), scope))
                self.expect(">")
                return In(subj, tuple(names), False, self._cont(scope),
                          span=t.span)
            self.fail("expected '(' or '<' after '?'", open_tok)
        # fusion: value '=' value
        left = self._value(scope)
        eq = self.expect("=")
        right = self._value(scope)
        return Fusion(left, right, span=eq.span)


def parse_program(text: str, filename: str = "<input>",
                  supply: NameSupply = None) -> Program:
    """Parse source text into a surface Program (binding inputs allowed).
    Raises ParseError carrying diagnostics with source spans."""
    supply = supply or NameSupply()
    tokens = tokenize(text, filename)
    parser = _Parser(tokens, supply)
    externs = []
    while parser.peek().kind == "extern":
        externs.append(parser.parse_extern())
    if parser.peek().kind == "eof":
        parser.fail("expected a process")
    main = parser.parse_proc({})
    parser.expect("eof")
    return Program(tuple(externs), main)


# ---------------------------------------------------------------------------
# Desugaring: binding input becomes fresh restrictions plus a free input


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
            f = supply.fresh(o.display, "fresh")
            cont = substitute(cont, o, f, supply)
            fresh.append(f)
        body = In(p.subject, tuple(fresh), False, cont, span=p.span)
        for f in reversed(fresh):
            body = New(f, body, span=p.span)
        return body
    raise TypeError(p)


def program_scan(program: Program) -> tuple[int, bool]:
    """The largest name id in program, extern channels included (at least
    -1), and whether its main process is in core form: one name_scan."""
    top, core = name_scan(program.main)
    return max([top] + [n.id for d in program.externs
                        for n in d.channels()]), core


# ---------------------------------------------------------------------------
# Pretty printer


_ESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}


def _ident_ok(text: str) -> bool:
    return (text and text not in KEYWORDS
            and (text[0].isalpha() or text[0] == "_")
            and all(c.isalnum() or c == "_" for c in text))


def _display_map(program: Program) -> dict:
    """Assign every name in the program a unique, parseable identifier."""
    taken = set()
    mapping = {}

    def assign(n: Name) -> None:
        if n.id in mapping:
            return
        base = n.display if _ident_ok(n.display) else "n"
        cand = base
        k = 1
        while cand in taken:
            cand = f"{base}_{k}"
            k += 1
        taken.add(cand)
        mapping[n.id] = cand

    for d in program.externs:
        for chan in d.channels():
            assign(chan)
    names = {}
    name_scan(program.main, names)
    for nid in sorted(names):
        assign(names[nid])
    return mapping


def format_program(program: Program) -> str:
    """Source text that re-parses to an alpha-equivalent Program."""
    names = _display_map(program)
    parts = [_format_extern(d, names) for d in program.externs]
    parts.append(_format_proc(program.main, names))
    return "\n".join(parts) + "\n"


def _sorts_text(sorts: tuple) -> str:
    if not sorts:
        return "void"
    return ", ".join(str(s) for s in sorts)


def _format_extern(d: ExternDecl, names: dict) -> str:
    lines = [f"extern {d.alias} -> class {d.class_name} {{"]
    for m in d.methods:
        ret = str(m.return_payload[0]) if m.return_payload else "void"
        call = names[m.call_channel.id]
        retc = names[m.return_channel.id]
        lines.append(f"  {ret} {m.name}({_sorts_text(m.param_sorts) if m.param_sorts else ''}) {{")
        lines.append(f"    call {call}: {_sorts_text(m.param_sorts)};")
        lines.append(f"    return {retc}: {_sorts_text(m.return_payload)};")
        lines.append(f"  }} acceded as {{{_protocol_text(m.protocol)}}}")
    lines.append("}")
    return "\n".join(lines)


def _protocol_text(auto: ProtocolAutomaton) -> str:
    # protocols parse from a linear rec body; rebuild it from state 0
    tm = auto.transition_map()
    steps = []
    state = 0
    for _ in range(auto.num_states):
        outs = [(c, v) for (s, c), v in tm.items() if s == state]
        chan, (payload, nxt) = outs[0]
        args = ", ".join(str(s) for s in payload)
        steps.append(f"{chan}({args})")
        state = nxt
    return "rec S {" + ".".join(steps) + ".S}"


def _value_text(v: Value, names: dict) -> str:
    if isinstance(v, NameRef):
        return names[v.name.id]
    if isinstance(v, IntLit):
        return str(v.value)
    if isinstance(v, StrLit):
        return '"' + "".join(_ESCAPES.get(c, c) for c in v.value) + '"'
    if isinstance(v, BoolLit):
        return "true" if v.value else "false"
    return "unit"


def _format_proc(p: Process, names: dict) -> str:
    if isinstance(p, Par):
        return f"{_format_term(p.left, names)} | {_format_proc(p.right, names)}"
    return _format_term(p, names)


def _format_term(p: Process, names: dict) -> str:
    if isinstance(p, Nil):
        return "nil"
    if isinstance(p, Par):
        return f"({_format_proc(p, names)})"
    if isinstance(p, New):
        binders = [p.name]
        body = p.body
        while isinstance(body, New):
            binders.append(body.name)
            body = body.body
        idents = ", ".join(names[n.id] for n in binders)
        return f"new {idents} in {_format_term(body, names)}"
    if isinstance(p, Repeat):
        return f"repeat {_format_term(p.body, names)}"
    if isinstance(p, Out):
        objs = ", ".join(_value_text(v, names) for v in p.objects)
        head = f"{names[p.subject.id]}!({objs})"
        return head + _cont_text(p.cont, names)
    if isinstance(p, In):
        if p.binding:
            objs = ", ".join(names[n.id] for n in p.objects)
            head = f"{names[p.subject.id]}?({objs})"
        else:
            objs = ", ".join(names[n.id] for n in p.objects)
            head = f"{names[p.subject.id]}?<{objs}>"
        return head + _cont_text(p.cont, names)
    if isinstance(p, Fusion):
        return f"{_value_text(p.left, names)}={_value_text(p.right, names)}"
    raise TypeError(p)


def _cont_text(cont: Process, names: dict) -> str:
    if isinstance(cont, Nil):
        return ""
    return "." + _format_term(cont, names)


# ---------------------------------------------------------------------------
# Alpha-equivalence of whole programs (used by round-trip tests)


def program_alpha_eq(p: Program, q: Program) -> bool:
    if len(p.externs) != len(q.externs):
        return False
    for dp, dq in zip(p.externs, q.externs):
        if not _extern_eq(dp, dq):
            return False
    env_p: dict[int, int] = {}
    env_q: dict[int, int] = {}
    # extern channels correspond positionally
    for dp, dq in zip(p.externs, q.externs):
        for cp, cq in zip(dp.channels(), dq.channels()):
            env_p[cp.id] = len(env_p)
            env_q[cq.id] = len(env_q)
    return _alpha(p.main, q.main, dict(env_p), dict(env_q), [len(env_p)])


def _extern_eq(a: ExternDecl, b: ExternDecl) -> bool:
    if (a.alias, a.class_name, len(a.methods)) != (b.alias, b.class_name, len(b.methods)):
        return False
    for ma, mb in zip(a.methods, b.methods):
        if (ma.name, ma.param_sorts, ma.return_payload) != \
                (mb.name, mb.param_sorts, mb.return_payload):
            return False
        if (ma.call_channel.display, ma.return_channel.display) != \
                (mb.call_channel.display, mb.return_channel.display):
            return False
        if ma.protocol != mb.protocol:
            return False
    return True


def _alpha(p: Process, q: Process, ep: dict, eq: dict, counter: list) -> bool:
    if type(p) is not type(q):
        return False

    def name_eq(a: Name, b: Name) -> bool:
        ia, ib = ep.get(a.id), eq.get(b.id)
        if (ia is None) != (ib is None):
            return False
        if ia is not None:
            return ia == ib
        return a.display == b.display

    def value_eq(a, b) -> bool:
        if isinstance(a, NameRef) and isinstance(b, NameRef):
            return name_eq(a.name, b.name)
        return type(a) is type(b) and a == b

    if isinstance(p, Nil):
        return True
    if isinstance(p, Par):
        return (_alpha(p.left, q.left, ep, eq, counter)
                and _alpha(p.right, q.right, ep, eq, counter))
    if isinstance(p, New):
        ep2, eq2 = dict(ep), dict(eq)
        ep2[p.name.id] = eq2[q.name.id] = counter[0]
        counter[0] += 1
        return _alpha(p.body, q.body, ep2, eq2, counter)
    if isinstance(p, Out):
        if not name_eq(p.subject, q.subject) or len(p.objects) != len(q.objects):
            return False
        if not all(value_eq(a, b) for a, b in zip(p.objects, q.objects)):
            return False
        return _alpha(p.cont, q.cont, ep, eq, counter)
    if isinstance(p, In):
        if p.binding != q.binding or len(p.objects) != len(q.objects):
            return False
        if not name_eq(p.subject, q.subject):
            return False
        if p.binding:
            ep2, eq2 = dict(ep), dict(eq)
            for a, b in zip(p.objects, q.objects):
                ep2[a.id] = eq2[b.id] = counter[0]
                counter[0] += 1
            return _alpha(p.cont, q.cont, ep2, eq2, counter)
        if not all(name_eq(a, b) for a, b in zip(p.objects, q.objects)):
            return False
        return _alpha(p.cont, q.cont, ep, eq, counter)
    if isinstance(p, Repeat):
        return _alpha(p.body, q.body, ep, eq, counter)
    if isinstance(p, Fusion):
        return value_eq(p.left, q.left) and value_eq(p.right, q.right)
    raise TypeError(p)
