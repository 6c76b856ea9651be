"""Reference walkers: the recursive process parser, sort checker,
extern-usage checker and XIR writer and reader that pichan used before its
walks kept their own stacks.  They overflow the Python stack on deep input
and copy a scope at every binder, but each is a direct reading of its rule;
test_deep_inputs checks pichan's versions against them on inputs small
enough for recursion.

What they share with pichan did not change with the walks: the tokenizer,
extern blocks, the value and item rules of the parser, and the XIR
reader's attribute, declaration, value and extern helpers.  The XIR writer
here indents by two spaces per level, as it did; writer and reader follow
version 5 of the format, as pichan's do: a chain of news is one ``new``
list on the element of the process it scopes, the free names are one
``free`` list on ``<process>``, and every use of a name is its id.  The
sort checker here keeps sorts as terms (ChanSort, literal_sort), binds
variables in a dict and walks the whole sort for its occurs check;
pichan's is a union-find over sort classes, and must report the same
diagnostics in the same order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

from pichan.core import (BOOL, INT, STR, UNIT, BaseSort, BoolLit, Fusion, In,
                         IntLit, Name, New, Nil, Out, Par, Process, Program,
                         Repeat, StrLit, SurfaceFormError, UnitLit, nodes)
from pichan.diag import Diagnostic, Source
from pichan.parser import _Parser, tokenize
from pichan.typecheck import SHOW_LIMIT, extern_channel_table
from pichan.xir import (SchemaError, VersionError, XIR_VERSION, _attrs,
                        _declare, _name_text, _read_extern, _sorts_attr,
                        _split_value, _value_text)

from terms import name_scan

# ---------------------------------------------------------------------------
# Parser


class _RecursiveParser(_Parser):
    def lookup(self, tok, scope: dict) -> Name:
        if tok[1] in scope:
            return scope[tok[1]]
        if tok[1] in self.globals:
            return self.globals[tok[1]]
        if tok[1] not in self.free:
            self.free[tok[1]] = self.fresh(tok[1])
        return self.free[tok[1]]

    def _bind_copy(self, toks: list, scope: dict) -> tuple:
        names = [self.fresh(tok[1]) for tok in toks]
        return names, {**scope, **{t[1]: n for t, n in zip(toks, names)}}

    def parse_proc(self, scope: dict) -> Process:
        left = self.parse_term(scope)
        if self.peek()[0] == "|":
            bar = self.next()
            right = self.parse_proc(scope)
            return Par(left, right, span=self.at(bar))
        return left

    def _cont(self, scope: dict) -> Process:
        if self.peek()[0] == ".":
            self.next()
            return self.parse_term(scope)
        return Nil()

    def parse_term(self, scope: dict) -> Process:
        t = self.peek()
        if t[0] == "nil":
            self.next()
            return Nil(span=self.at(t))
        if t[0] == "(":
            self.next()
            p = self.parse_proc(scope)
            self.expect(")")
            return p
        if t[0] == "new":
            self.next()
            binders = self._items(lambda: self.expect("ident"))
            self.expect("in")
            names, scope = self._bind_copy(binders, scope)
            body = self.parse_term(scope)
            for name in reversed(names):
                body = New(name, body, span=self.at(t))
            return body
        if t[0] == "repeat":
            self.next()
            return Repeat(self.parse_term(scope), span=self.at(t))
        if t[0] == "ident" and self.tokens[self.pos + 1][0] in ("!", "?"):
            self.next()
            subj = self.lookup(t, scope)
            if self.next()[0] == "!":
                self.expect("(")
                objs = self._items(lambda: self._value(self.next(), scope),
                                   ")")
                self.expect(")")
                return Out(subj, tuple(objs), self._cont(scope),
                           span=self.at(t))
            open_tok = self.next()
            if open_tok[0] == "(":
                params = self._items(lambda: self.expect("ident"), ")")
                self.expect(")")
                names, scope = self._bind_copy(params, scope)
                return In(subj, tuple(names), True, self._cont(scope),
                          span=self.at(t))
            if open_tok[0] == "<":
                names = self._items(
                    lambda: self.lookup(self.expect("ident"), scope), ">")
                self.expect(">")
                return In(subj, tuple(names), False, self._cont(scope),
                          span=self.at(t))
            self.fail("expected '(' or '<' after '?'", open_tok)
        left = self._value(self.next(), scope)
        eq = self.expect("=")
        right = self._value(self.next(), scope)
        return Fusion(left, right, span=self.at(eq))


def parse_program(text: str, filename: str = "<input>") -> Program:
    parser = _RecursiveParser(tokenize(text, filename), Source(filename, text))
    externs = []
    while parser.peek()[0] == "extern":
        externs.append(parser.parse_extern())
    if parser.peek()[0] == "eof":
        parser.fail("expected a process")
    main = parser.parse_proc({})
    parser.expect("eof")
    return Program(tuple(externs), main)


# ---------------------------------------------------------------------------
# Sort checking: sorts as terms, variables bound in a dict


@dataclass(frozen=True)
class ChanSort:
    payload: tuple  # tuple of Sorts

    def __str__(self):
        return "chan(" + ",".join(str(s) for s in self.payload) + ")"


def literal_sort(v) -> BaseSort:
    if isinstance(v, IntLit):
        return INT
    if isinstance(v, StrLit):
        return STR
    if isinstance(v, BoolLit):
        return BOOL
    if isinstance(v, UnitLit):
        return UNIT
    raise TypeError(v)


def _decl_channel_sorts(decl) -> dict:
    """Extern channel name id -> declared ChanSort."""
    sorts = {}
    for m in decl.methods:
        sorts[m.call_channel.id] = ChanSort(tuple(m.param_sorts))
        sorts[m.return_channel.id] = ChanSort(tuple(m.return_payload))
    return sorts


class _Unifier:
    def __init__(self):
        self.binding: dict = {}
        self._fresh = 0
        self.diags: list = []

    def fresh_var(self):
        self._fresh += 1
        return ("var", ("t", self._fresh))

    def name_var(self, name):
        return ("var", ("n", name.id))

    def resolve(self, t):
        while isinstance(t, tuple) and t[0] == "var" and t[1] in self.binding:
            t = self.binding[t[1]]
        return t

    def _occurs(self, key, t) -> bool:
        t = self.resolve(t)
        if isinstance(t, tuple) and t[0] == "var":
            return t[1] == key
        if isinstance(t, ChanSort):
            return any(self._occurs(key, p) for p in t.payload)
        return False

    def unify(self, t1, t2, span, what: str) -> None:
        t1, t2 = self.resolve(t1), self.resolve(t2)
        if t1 == t2:
            return
        if isinstance(t1, tuple) and t1[0] == "var":
            if self._occurs(t1[1], t2):
                self._err(span, f"recursive channel sort required by {what}")
                return
            self.binding[t1[1]] = t2
            return
        if isinstance(t2, tuple) and t2[0] == "var":
            self.unify(t2, t1, span, what)
            return
        if isinstance(t1, ChanSort) and isinstance(t2, ChanSort):
            if len(t1.payload) != len(t2.payload):
                self._err(span, f"arity mismatch in {what}: "
                          f"{len(t1.payload)} vs {len(t2.payload)}")
                return
            for a, b in zip(t1.payload, t2.payload):
                self.unify(a, b, span, what)
            return
        self._err(span, f"sort mismatch in {what}: {self._show(t1)} vs {self._show(t2)}")

    def _pieces(self, t):
        t = self.resolve(t)
        if isinstance(t, tuple) and t[0] == "var":
            yield "?"
        elif isinstance(t, ChanSort):
            yield "chan("
            for i, p in enumerate(t.payload):
                if i:
                    yield ","
                yield from self._pieces(p)
            yield ")"
        else:
            yield str(t)

    def _show(self, t) -> str:
        """The pieces of t, with "..." for the rest once past SHOW_LIMIT."""
        out = []
        for piece in self._pieces(t):
            if sum(map(len, out)) > SHOW_LIMIT:
                out.append("...")
                break
            out.append(piece)
        return "".join(out)

    def _err(self, span, msg: str) -> None:
        self.diags.append(Diagnostic("error", "E-SORT", msg, span))


def check_sorts(program) -> list:
    uni = _Unifier()
    for d in program.externs:
        for nid, sort in _decl_channel_sorts(d).items():
            uni.binding[("n", nid)] = sort

    def value_term(v):
        if isinstance(v, Name):
            return uni.name_var(v)
        return literal_sort(v)

    def walk(p) -> None:
        if isinstance(p, Par):
            walk(p.left)
            walk(p.right)
        elif isinstance(p, New):
            walk(p.body)
        elif isinstance(p, Repeat):
            walk(p.body)
        elif isinstance(p, Out):
            slots = [uni.fresh_var() for _ in p.objects]
            uni.unify(uni.name_var(p.subject), ChanSort(tuple(slots)),
                      p.span, f"output on {p.subject.display}")
            for slot, v in zip(slots, p.objects):
                uni.unify(slot, value_term(v), p.span,
                          f"output payload on {p.subject.display}")
            walk(p.cont)
        elif isinstance(p, In):
            slots = [uni.fresh_var() for _ in p.objects]
            uni.unify(uni.name_var(p.subject), ChanSort(tuple(slots)),
                      p.span, f"input on {p.subject.display}")
            for slot, o in zip(slots, p.objects):
                uni.unify(slot, uni.name_var(o), p.span,
                          f"input payload on {p.subject.display}")
            walk(p.cont)
        elif isinstance(p, Fusion):
            uni.unify(value_term(p.left), value_term(p.right), p.span, "fusion")

    walk(program.main)
    return uni.diags


# ---------------------------------------------------------------------------
# Extern usage


def check_extern_usage(program) -> list:
    table = extern_channel_table(program.externs)
    ret_chan = {}
    for d in program.externs:
        for m in d.methods:
            ret_chan[(d.alias, m.name)] = m.return_channel.display
    diags = []
    memo = {}

    def used(p) -> frozenset:
        got = memo.get(id(p))
        if got is None:
            if isinstance(p, Par):
                got = used(p.left) | used(p.right)
            elif isinstance(p, (New, Repeat)):
                got = used(p.body)
            elif isinstance(p, (Out, In)):
                got = used(p.cont)
                if p.subject.id in table:
                    got = got | {table[p.subject.id][0]}
            elif isinstance(p, Fusion):
                got = frozenset(table[v.id][0] for v in (p.left, p.right)
                                if isinstance(v, Name) and v.id in table)
            else:
                got = frozenset()
            memo[id(p)] = got
        return got

    def violation(span, alias, method, action):
        diags.append(Diagnostic(
            "error", "E-USE",
            f"call to {method} on {alias} must be followed by input on "
            f"{ret_chan[(alias, method)]}, found {action}", span))

    def walk(p, pending: dict, warned: frozenset = frozenset()) -> None:
        if isinstance(p, Par):
            shared = used(p.left) & used(p.right)
            for alias in sorted(shared - warned):
                diags.append(Diagnostic(
                    "warning", "W-PAR",
                    f"extern block {alias} used from parallel branches; "
                    f"protocol order enforced at run time", p.span))
            warned = warned | shared
            walk(p.left, dict(pending), warned)
            walk(p.right, dict(pending), warned)
        elif isinstance(p, (New, Repeat)):
            walk(p.body, dict(pending))
        elif isinstance(p, Out):
            info = table.get(p.subject.id)
            if info is not None:
                alias, role, method = info
                if pending.get(alias):
                    violation(p.span, alias, pending[alias],
                              f"output on {p.subject.display}")
                elif role == "call":
                    pending = dict(pending)
                    pending[alias] = method
            walk(p.cont, pending)
        elif isinstance(p, In):
            info = table.get(p.subject.id)
            if info is not None:
                alias, role, method = info
                want = pending.get(alias)
                if want:
                    if role == "ret" and method == want:
                        pending = dict(pending)
                        pending[alias] = None
                    else:
                        violation(p.span, alias, want,
                                  f"input on {p.subject.display}")
            walk(p.cont, pending)
        elif isinstance(p, Fusion):
            sides = [v.id for v in (p.left, p.right)
                     if isinstance(v, Name) and v.id in table]
            if len(sides) == 2:
                diags.append(Diagnostic(
                    "error", "E-USE",
                    "fusing two extern channels would alias host endpoints",
                    p.span))

    walk(program.main, {})
    return diags


# ---------------------------------------------------------------------------
# XIR writer (indented) and reader


class _Writer:
    def __init__(self):
        self.lines = []

    def emit(self, depth: int, tag: str, attrs=(), close: bool = False):
        text = "  " * depth + "<" + tag
        for key, val in attrs:
            text += f" {key}={quoteattr(val)}"
        text += "/>" if close else ">"
        self.lines.append(text)

    def end(self, depth: int, tag: str):
        self.lines.append("  " * depth + f"</{tag}>")


def _write_extern(w: _Writer, d, depth: int) -> None:
    w.emit(depth, "extern", [("alias", d.alias), ("class", d.class_name)])
    for m in d.methods:
        w.emit(depth + 1, "method", [("name", m.name),
                                     ("call", _name_text(m.call_channel)),
                                     ("params", _sorts_attr(m.param_sorts)),
                                     ("ret", _name_text(m.return_channel)),
                                     ("result", _sorts_attr(m.return_payload))],
               close=True)
    w.end(depth, "extern")


def _use(n: Name) -> str:
    return str(n.id)


def _listed(n: Name) -> str:
    if any(c.isspace() for c in n.display):
        raise ValueError(f"display {n.display!r} holds white space")
    return _name_text(n)


def _write_action(w: _Writer, depth: int, tag: str, attrs: list,
                  cont: Process) -> None:
    """An action whose one child is its continuation, or none for nil."""
    if isinstance(cont, Nil):
        w.emit(depth, tag, attrs, close=True)
    else:
        w.emit(depth, tag, attrs)
        _write_proc(w, cont, depth + 1)
        w.end(depth, tag)


def _write_proc(w: _Writer, p: Process, depth: int) -> None:
    texts = []
    while isinstance(p, New):
        texts.append(_listed(p.name))
        p = p.body
    news = [("new", " ".join(texts))] if texts else []
    if isinstance(p, Nil):
        w.emit(depth, "nil", news, close=True)
    elif isinstance(p, Par):
        w.emit(depth, "par", news)
        while isinstance(p, Par):
            _write_proc(w, p.left, depth + 1)
            p = p.right
        _write_proc(w, p, depth + 1)
        w.end(depth, "par")
    elif isinstance(p, Out):
        args = [(f"a{i}", _value_text(v, _use))
                for i, v in enumerate(p.objects)]
        _write_action(w, depth, "out",
                      [*news, ("subject", _use(p.subject)), *args], p.cont)
    elif isinstance(p, In):
        if p.binding:
            raise SurfaceFormError("binding input cannot be serialized")
        args = [(f"a{i}", "name:" + _use(n)) for i, n in enumerate(p.objects)]
        _write_action(w, depth, "in",
                      [*news, ("subject", _use(p.subject)), *args], p.cont)
    elif isinstance(p, Repeat):
        _write_action(w, depth, "repeat", news, p.body)
    elif isinstance(p, Fusion):
        w.emit(depth, "fusion", [*news, ("left", _value_text(p.left, _use)),
                                 ("right", _value_text(p.right, _use))],
               close=True)
    else:
        raise TypeError(p)


def _free_names(program: Program) -> list:
    """The names of program's process that are neither extern channels nor
    binders, in id order."""
    names = {}
    name_scan(program.main, names)
    declared = {n.id for d in program.externs for n in d.channels()}
    declared |= {p.name.id for p in nodes(program.main) if isinstance(p, New)}
    return [names[i] for i in sorted(names) if i not in declared]


def to_xml(program: Program) -> str:
    if not name_scan(program.main)[1]:
        raise SurfaceFormError("program must be desugared before serialization")
    free = _free_names(program)
    w = _Writer()
    w.emit(0, "pic", [("version", XIR_VERSION)])
    if program.externs:
        w.emit(1, "externs")
        for d in program.externs:
            _write_extern(w, d, 2)
        w.end(1, "externs")
    else:
        w.emit(1, "externs", close=True)
    w.emit(1, "process",
           [("free", " ".join(map(_listed, free)))] if free else [])
    _write_proc(w, program.main, 2)
    w.end(1, "process")
    w.end(0, "pic")
    return "\n".join(w.lines) + "\n"


class _Decls:
    """The declaration rule, read directly: each name is declared once, as
    an extern channel, a free name or a binder in a new list, and a use is
    the id text of a declaration before it; a binder's use lies inside its
    new (scope holds the id texts of the news around an element)."""

    def __init__(self):
        self.table, self.kinds = {}, {}  # id text -> Name, id -> what

    def declare(self, text: str, what: str) -> str:
        return _declare(text, what, self.table, self.kinds)

    def name(self, text: str, what: str, scope: frozenset) -> Name:
        n = self.table.get(text)
        if n is None:
            raise SchemaError(f"undeclared name {text!r} in {what}")
        if self.kinds[n.id] == "new" and text not in scope:
            raise SchemaError(f"name {n.display}#{n.id} occurs outside its "
                              f"new")
        return n

    def value(self, text: str, what: str, scope: frozenset):
        if text.startswith("name:"):
            return self.name(text[5:], what, scope)
        return _split_value(text, what, self.table, {})


def _read_child(elem, decls: _Decls, scope: frozenset) -> Process:
    """An action's continuation: its one child element, or nil if none."""
    if len(elem) > 1:
        raise SchemaError(f"{elem.tag} takes at most 1 child")
    if len(elem) == 0:
        return Nil()
    return _read_proc(elem[0], decls, scope)


def _read_proc(elem, decls: _Decls,
               scope: frozenset = frozenset()) -> Process:
    """elem's process: its new list, if any, declares each binder in turn
    and wraps in a New per binder what the rest of elem reads to."""
    text = elem.attrib.pop("new", None)
    if text is None:
        return _read_bare(elem, decls, scope)
    items = text.split()
    if not items:
        raise SchemaError("new lists no binder")
    keys = [decls.declare(item, "new") for item in items]
    p = _read_bare(elem, decls, scope | set(keys))
    for key in reversed(keys):
        p = New(decls.table[key], p)
    return p


def _read_bare(elem, decls: _Decls, scope: frozenset) -> Process:
    tag = elem.tag
    if tag == "nil":
        _attrs(elem, (), "nil")
        if len(elem) != 0:
            raise SchemaError("nil takes no children")
        return Nil()
    if tag == "par":
        left = []
        # a par with a new list of its own is a child, not the spine
        while elem.tag == "par" and "new" not in elem.attrib:
            _attrs(elem, (), "par")
            if len(elem) < 2:
                raise SchemaError("par takes at least 2 children")
            left += [_read_proc(child, decls, scope) for child in elem[:-1]]
            elem = elem[-1]
        p = _read_proc(elem, decls, scope)
        for q in reversed(left):
            p = Par(q, p)
        return p
    if tag in ("out", "in"):
        # a subject, then one attribute a<i> per argument
        count = max(len(elem.attrib) - 1, 0)
        subject, *texts = _attrs(
            elem, ("subject", *(f"a{i}" for i in range(count))), tag)
        args = [decls.value(text, tag, scope) for text in texts]
        subj = decls.name(subject, tag, scope)
        cont = _read_child(elem, decls, scope)
        if tag == "out":
            return Out(subj, tuple(args), cont)
        objects = []
        for v in args:
            if not isinstance(v, Name):
                raise SchemaError("in arguments must be names")
            objects.append(v)
        return In(subj, tuple(objects), False, cont)
    if tag == "repeat":
        _attrs(elem, (), "repeat")
        return Repeat(_read_child(elem, decls, scope))
    if tag == "fusion":
        left, right = _attrs(elem, ("left", "right"), "fusion")
        if len(elem) != 0:
            raise SchemaError("fusion takes no children")
        left = decls.value(left, "fusion", scope)
        right = decls.value(right, "fusion", scope)
        return Fusion(left, right)
    raise SchemaError(f"unknown element {tag!r}")


def from_xml(document) -> Program:
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise SchemaError(f"not well-formed XML: {exc}")
    if root.tag != "pic":
        raise SchemaError(f"root element must be pic, found {root.tag!r}")
    (version,) = _attrs(root, ("version",), "pic")
    if version != XIR_VERSION:
        raise VersionError(f"unsupported version {version!r}")
    if len(root) != 2 or root[0].tag != "externs" or root[1].tag != "process":
        raise SchemaError("pic must contain externs then process")
    _attrs(root[0], (), "externs")
    free = root[1].attrib.get("free")
    _attrs(root[1], ("free",) if "free" in root[1].attrib else (), "process")
    decls = _Decls()
    externs = tuple(_read_extern(e, decls.table, decls.kinds)
                    for e in root[0])
    aliases = [d.alias for d in externs]
    for i, alias in enumerate(aliases):
        if alias in aliases[:i]:
            raise SchemaError(f"extern alias {alias} declared twice")
    if free is not None:
        if not free.split():
            raise SchemaError("free lists no name")
        for item in free.split():
            decls.declare(item, "free")
    if len(root[1]) != 1:
        raise SchemaError("process takes exactly 1 child")
    return Program(externs, _read_proc(root[1][0], decls))
