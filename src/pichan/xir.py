"""XML execution format: the interchange representation between the
compiler and the virtual machine.

The element set follows the core AST, except that one ``<par>`` holds the
right spine of a ``|`` chain, two or more children: ``Par(a, Par(b, c))``
is ``<par>a b c</par>``, while a Par in left position nests.  A chain's
width then adds no depth, and size grows linearly with it.  The reader
folds children to the right and follows a last child that is a par, so the
right-nested binary pars of earlier writers read to the same program; as
every version-1 document still loads unchanged, the version stays "1".

Serialization is deterministic: fixed attribute order, 2-space
indentation, names written as ``display#id``.  Equal programs produce
byte-identical documents and ``from_xml(to_xml(p)) == p`` exactly, ids
included.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

from .core import (BoolLit, Fusion, In, IntLit, Name, NameRef, New, Nil, Out,
                   Par, Process, Repeat, StrLit, SurfaceFormError, UnitLit,
                   Value, is_core)
from .diag import Diagnostic
from .interop import ExternDecl, MethodDecl
from .parser import Program
from .typecheck import ProtocolAutomaton, base_sort

XIR_VERSION = "1"
FILE_EXTENSION = ".xir.xml"


class SchemaError(Exception):
    pass


class VersionError(SchemaError):
    pass


# ---------------------------------------------------------------------------
# Writing


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


def _name_text(n: Name) -> str:
    return f"{n.display}#{n.id}"


def _value_attr(v: Value) -> tuple:
    if isinstance(v, NameRef):
        return ("name", _name_text(v.name))
    if isinstance(v, IntLit):
        return ("int", str(v.value))
    if isinstance(v, StrLit):
        return ("str", v.value)
    if isinstance(v, BoolLit):
        return ("bool", "true" if v.value else "false")
    return ("unit", "")


def _sorts_attr(sorts: tuple) -> str:
    return ",".join(str(s) for s in sorts)


def _write_extern(w: _Writer, d: ExternDecl, depth: int) -> None:
    w.emit(depth, "extern", [("alias", d.alias), ("class", d.class_name)])
    for m in d.methods:
        w.emit(depth + 1, "method", [("name", m.name)])
        w.emit(depth + 2, "call", [("channel", _name_text(m.call_channel)),
                                   ("params", _sorts_attr(m.param_sorts))],
               close=True)
        w.emit(depth + 2, "ret", [("channel", _name_text(m.return_channel)),
                                  ("result", _sorts_attr(m.return_payload))],
               close=True)
        w.emit(depth + 2, "protocol",
               [("states", str(m.protocol.num_states))])
        for (s, chan, payload, t) in m.protocol.transitions:
            w.emit(depth + 3, "t", [("from", str(s)), ("chan", chan),
                                    ("payload", _sorts_attr(payload)),
                                    ("to", str(t))], close=True)
        w.end(depth + 2, "protocol")
        w.end(depth + 1, "method")
    w.end(depth, "extern")


def _write_proc(w: _Writer, p: Process, depth: int) -> None:
    if isinstance(p, Nil):
        w.emit(depth, "nil", close=True)
    elif isinstance(p, Par):
        w.emit(depth, "par")
        while isinstance(p, Par):  # the right spine is one element
            _write_proc(w, p.left, depth + 1)
            p = p.right
        _write_proc(w, p, depth + 1)
        w.end(depth, "par")
    elif isinstance(p, New):
        w.emit(depth, "new", [("name", _name_text(p.name))])
        _write_proc(w, p.body, depth + 1)
        w.end(depth, "new")
    elif isinstance(p, Out):
        w.emit(depth, "out", [("subject", _name_text(p.subject))])
        for v in p.objects:
            kind, val = _value_attr(v)
            w.emit(depth + 1, "arg", [("kind", kind), ("value", val)], close=True)
        w.emit(depth + 1, "cont")
        _write_proc(w, p.cont, depth + 2)
        w.end(depth + 1, "cont")
        w.end(depth, "out")
    elif isinstance(p, In):
        if p.binding:
            raise SurfaceFormError("binding input cannot be serialized")
        w.emit(depth, "in", [("subject", _name_text(p.subject))])
        for n in p.objects:
            w.emit(depth + 1, "arg", [("kind", "name"),
                                      ("value", _name_text(n))], close=True)
        w.emit(depth + 1, "cont")
        _write_proc(w, p.cont, depth + 2)
        w.end(depth + 1, "cont")
        w.end(depth, "in")
    elif isinstance(p, Repeat):
        w.emit(depth, "repeat")
        _write_proc(w, p.body, depth + 1)
        w.end(depth, "repeat")
    elif isinstance(p, Fusion):
        lk, lv = _value_attr(p.left)
        rk, rv = _value_attr(p.right)
        w.emit(depth, "fusion", [("left", f"{lk}:{lv}"),
                                 ("right", f"{rk}:{rv}")], close=True)
    else:
        raise TypeError(p)


def to_xml(program: Program) -> str:
    """Serialize a core program; deterministic byte-for-byte."""
    if not is_core(program.main):
        raise SurfaceFormError("program must be desugared before serialization")
    w = _Writer()
    w.emit(0, "pic", [("version", XIR_VERSION)])
    if program.externs:
        w.emit(1, "externs")
        for d in program.externs:
            _write_extern(w, d, 2)
        w.end(1, "externs")
    else:
        w.emit(1, "externs", close=True)
    w.emit(1, "process")
    _write_proc(w, program.main, 2)
    w.end(1, "process")
    w.end(0, "pic")
    return "\n".join(w.lines) + "\n"


# ---------------------------------------------------------------------------
# Reading


def _parse_name(text: str, what: str, names: dict) -> Name:
    """names is the document's table: one Name per distinct text."""
    n = names.get(text)
    if n is None:
        display, sep, nid = text.rpartition("#")
        if not sep or not nid.removeprefix("-").isdecimal():
            raise SchemaError(f"bad name reference {text!r} in {what}")
        n = names[text] = Name(int(nid), display, "source")
    return n


def _parse_value(kind: str, val: str, what: str, names: dict) -> Value:
    if kind == "name":
        return NameRef(_parse_name(val, what, names))
    if kind == "int":
        # the source int rule: int() alone would also take "+1" or "1_0"
        if not val.removeprefix("-").isdecimal():
            raise SchemaError(f"bad int literal {val!r} in {what}")
        return IntLit(int(val))
    if kind == "str":
        return StrLit(val)
    if kind == "bool":
        if val not in ("true", "false"):
            raise SchemaError(f"bad bool literal {val!r} in {what}")
        return BoolLit(val == "true")
    if kind == "unit":
        return UnitLit()
    raise SchemaError(f"unknown value kind {kind!r} in {what}")


def _parse_sorts(text: str, what: str) -> tuple:
    if text == "" or text == "void":
        return ()
    sorts = []
    for part in text.split(","):
        s = base_sort(part)
        if s is None:
            raise SchemaError(f"unknown sort {part!r} in {what}")
        sorts.append(s)
    return tuple(sorts)


def _attrs(elem, required: tuple, what: str) -> list:
    attrib = elem.attrib
    if len(attrib) == len(required):
        try:
            return [attrib[a] for a in required]
        except KeyError:
            pass
    raise SchemaError(f"{what}: expected attributes {sorted(required)}, "
                      f"found {sorted(attrib)}")


def _read_proc(elem, names: dict) -> Process:
    tag = elem.tag
    if tag == "nil":
        _attrs(elem, (), "nil")
        if len(elem) != 0:
            raise SchemaError("nil takes no children")
        return Nil()
    if tag == "par":
        # children fold to the right; a last child that is a par continues
        # the spine, so nested binary pars read in the same loop
        left = []
        while elem.tag == "par":
            _attrs(elem, (), "par")
            if len(elem) < 2:
                raise SchemaError("par takes at least 2 children")
            left += [_read_proc(child, names) for child in elem[:-1]]
            elem = elem[-1]
        p = _read_proc(elem, names)
        for q in reversed(left):
            p = Par(q, p)
        return p
    if tag == "new":
        (name,) = _attrs(elem, ("name",), "new")
        if len(elem) != 1:
            raise SchemaError("new takes exactly 1 child")
        return New(_parse_name(name, "new", names), _read_proc(elem[0], names))
    if tag in ("out", "in"):
        (subject,) = _attrs(elem, ("subject",), tag)
        if len(elem) == 0 or elem[-1].tag != "cont":
            raise SchemaError(f"{tag} must end with a cont child")
        cont_elem = elem[-1]
        _attrs(cont_elem, (), "cont")
        if len(cont_elem) != 1:
            raise SchemaError("cont takes exactly 1 child")
        args = []
        for a in elem[:-1]:
            if a.tag != "arg":
                raise SchemaError(f"unexpected element {a.tag!r} in {tag}")
            kind, val = _attrs(a, ("kind", "value"), "arg")
            args.append(_parse_value(kind, val, tag, names))
        subj = _parse_name(subject, tag, names)
        cont = _read_proc(cont_elem[0], names)
        if tag == "out":
            return Out(subj, tuple(args), cont)
        objects = []
        for v in args:
            if not isinstance(v, NameRef):
                raise SchemaError("in arguments must be names")
            objects.append(v.name)
        return In(subj, tuple(objects), False, cont)
    if tag == "repeat":
        _attrs(elem, (), "repeat")
        if len(elem) != 1:
            raise SchemaError("repeat takes exactly 1 child")
        return Repeat(_read_proc(elem[0], names))
    if tag == "fusion":
        left, right = _attrs(elem, ("left", "right"), "fusion")
        if len(elem) != 0:
            raise SchemaError("fusion takes no children")
        return Fusion(_split_value(left, names), _split_value(right, names))
    raise SchemaError(f"unknown element {tag!r}")


def _split_value(text: str, names: dict) -> Value:
    kind, sep, val = text.partition(":")
    if not sep and kind != "unit":
        raise SchemaError(f"bad fusion value {text!r}")
    return _parse_value(kind, val, "fusion", names)


def _check_protocol(proto: ProtocolAutomaton, method: str) -> None:
    """Transitions must stay in range and every state must move (protocols
    are recursive cycles, so a dead state is always a schema bug)."""
    outgoing = set()
    for (s, _, _, t) in proto.transitions:
        if not (0 <= s < proto.num_states and 0 <= t < proto.num_states):
            raise SchemaError(
                f"protocol of {method}: transition state out of range")
        outgoing.add(s)
    if outgoing != set(range(proto.num_states)):
        raise SchemaError(
            f"protocol of {method}: some state has no outgoing transition")


def _read_extern(elem, names: dict) -> ExternDecl:
    alias, cls = _attrs(elem, ("alias", "class"), "extern")
    methods = []
    for melem in elem:
        if melem.tag != "method":
            raise SchemaError(f"unexpected element {melem.tag!r} in extern")
        (mname,) = _attrs(melem, ("name",), "method")
        if len(melem) != 3 or [c.tag for c in melem] != ["call", "ret", "protocol"]:
            raise SchemaError(f"method {mname} must contain call, ret, protocol")
        call_elem, ret_elem, proto_elem = melem
        chan, params = _attrs(call_elem, ("channel", "params"), "call")
        rchan, result = _attrs(ret_elem, ("channel", "result"), "ret")
        (states,) = _attrs(proto_elem, ("states",), "protocol")
        if not states.isdecimal():
            raise SchemaError("protocol states must be a number")
        transitions = []
        for t in proto_elem:
            if t.tag != "t":
                raise SchemaError(f"unexpected element {t.tag!r} in protocol")
            frm, tchan, payload, to = _attrs(t, ("from", "chan", "payload", "to"), "t")
            if not frm.isdecimal() or not to.isdecimal():
                raise SchemaError("protocol transition states must be numbers")
            transitions.append((int(frm), tchan,
                                _parse_sorts(payload, "protocol"), int(to)))
        proto = ProtocolAutomaton(int(states), tuple(transitions))
        _check_protocol(proto, mname)
        methods.append(MethodDecl(
            mname, _parse_name(chan, "call", names), _parse_sorts(params, "call"),
            _parse_name(rchan, "ret", names), _parse_sorts(result, "ret"), proto,
            protocol_declared=True))
    return ExternDecl(alias, cls, tuple(methods))


def from_xml(document) -> Program:
    """Parse an XIR document (text or ElementTree element) back into the
    exact Program it serialized, name ids included."""
    if isinstance(document, (str, bytes)):
        try:
            root = ET.fromstring(document)
        except ET.ParseError as exc:
            raise SchemaError(f"not well-formed XML: {exc}")
    else:
        root = document
    if root.tag != "pic":
        raise SchemaError(f"root element must be pic, found {root.tag!r}")
    (version,) = _attrs(root, ("version",), "pic")
    if version != XIR_VERSION:
        raise VersionError(f"unsupported version {version!r}")
    if len(root) != 2 or root[0].tag != "externs" or root[1].tag != "process":
        raise SchemaError("pic must contain externs then process")
    _attrs(root[0], (), "externs")
    _attrs(root[1], (), "process")
    names = {}
    externs = tuple(_read_extern(e, names) for e in root[0])
    if len(root[1]) != 1:
        raise SchemaError("process takes exactly 1 child")
    return Program(externs, _read_proc(root[1][0], names))


def validate(document) -> list:
    """Diagnostics instead of exceptions; empty iff from_xml succeeds."""
    try:
        from_xml(document)
        return []
    except VersionError as exc:
        return [Diagnostic("error", "E-VERSION", str(exc))]
    except SchemaError as exc:
        return [Diagnostic("error", "E-SCHEMA", str(exc))]
