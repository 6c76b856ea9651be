"""XML execution format: the interchange representation between the
compiler and the virtual machine.

The element set follows the core AST, one element per action.  An
``<out>``, ``<in>``, ``<new>`` or ``<repeat>`` holds its continuation as its
one child element, and no child means nil, so ``<nil/>`` appears only as a
``<par>`` child or as the whole process.  An action's arguments are the
attributes ``a0``, ``a1``, ... in the ``kind:value`` grammar of ``<fusion>``
(``name:x#3``, ``str:...``, ``unit:``), which XML quoting covers.  One
``<par>`` holds the right spine of a ``|`` chain, two or more children:
``Par(a, Par(b, c))`` is ``<par>a b c</par>``, while a Par in left position
nests; the reader folds children to the right, so binary pars read to the
same program.

Each extern method is one empty element that names its channels and
their sorts: ``<method name="read" call="read#0" params="" ret="Ret2#1"
result="int"/>``; ``result`` holds at most one sort, as a return delivers
one value.  Its protocol is not written: ``check`` accepts only the
canonical call-then-return cycle, which the VM assumes.

Serialization is deterministic: one element per line with no indentation,
fixed attribute order, names written as ``display#id``.  Equal programs
produce byte-identical documents and ``from_xml(to_xml(p)) == p`` exactly,
ids included.  Whitespace between elements is ignored, so indented
documents load too.  This is version "3"; an earlier version (2 wrote each
method's protocol automaton, 1 also wrapped continuations in ``<cont>`` and
arguments in ``<arg>``) is a VersionError.  Writer and reader use explicit
stacks, so nesting depth is bounded by memory alone.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from functools import cache

from .core import (BoolLit, ExternDecl, Fusion, In, IntLit, MethodDecl, Name,
                   NameRef, New, Nil, Out, Par, Process, Program, Repeat,
                   StrLit, SurfaceFormError, UnitLit, Value, base_sort)
from .diag import Diagnostic

XIR_VERSION = "3"


class SchemaError(Exception):
    code = "E-SCHEMA"


class VersionError(SchemaError):
    code = "E-VERSION"


# ---------------------------------------------------------------------------
# Writing


# what xml.sax.saxutils.quoteattr replaces, and the character it may quote
_NEEDS_QUOTING = re.compile('[&<>"\n\r\t]').search
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _quoted(val: str) -> str:
    """val as an attribute value, written as xml.sax.saxutils.quoteattr
    writes it: escaped, then wrapped in '"', or in "'" when val holds '"'
    but no "'", or else in '"' with each '"' written as &quot;."""
    if not _NEEDS_QUOTING(val):
        return f'"{val}"'
    val = val.translate(_ESCAPES)
    if '"' not in val:
        return f'"{val}"'
    if "'" not in val:
        return f"'{val}'"
    return '"' + val.replace('"', "&quot;") + '"'


def _element(tag: str, attrs=(), close: bool = False) -> str:
    """One line of the document: an opening (or, with close, empty) tag."""
    return ("<" + tag + "".join(f" {key}={_quoted(val)}" for key, val in attrs)
            + ("/>" if close else ">"))


def _name_text(n: Name) -> str:
    return f"{n.display}#{n.id}"


def _value_text(v: Value) -> str:
    """v in the kind:value grammar of arguments and fusion sides."""
    if isinstance(v, NameRef):
        return "name:" + _name_text(v.name)
    if isinstance(v, IntLit):
        return f"int:{v.value}"
    if isinstance(v, StrLit):
        return "str:" + v.value
    if isinstance(v, BoolLit):
        return "bool:true" if v.value else "bool:false"
    return "unit:"


def _sorts_attr(sorts: tuple) -> str:
    return ",".join(str(s) for s in sorts)


def _write_extern(lines: list, d: ExternDecl) -> None:
    lines.append(_element("extern", [("alias", d.alias), ("class", d.class_name)]))
    lines += (_element("method", [("name", m.name),
                                  ("call", _name_text(m.call_channel)),
                                  ("params", _sorts_attr(m.param_sorts)),
                                  ("ret", _name_text(m.return_channel)),
                                  ("result", _sorts_attr(m.return_payload))],
                       True) for m in d.methods)
    lines.append("</extern>")


def _write_proc(lines: list, p: Process) -> None:
    """Elements of p in order, from a stack of nodes and closing tags."""
    stack = [p]
    while stack:
        p = stack.pop()
        kind = type(p)
        if kind is str:
            lines.append(p)
        elif kind is Nil:
            lines.append("<nil/>")
        elif kind is Par:
            spine = []
            while type(p) is Par:  # the right spine is one element
                spine.append(p.left)
                p = p.right
            lines.append("<par>")
            stack += ("</par>", p, *reversed(spine))
        elif kind is Fusion:
            lines.append(_element("fusion", [("left", _value_text(p.left)),
                                             ("right", _value_text(p.right))],
                                  True))
        else:  # an action: its continuation is its one child, none for nil
            if kind is New:
                tag, line = "new", f"<new name={_quoted(_name_text(p.name))}"
            elif kind is Repeat:
                tag, line = "repeat", "<repeat"
            elif kind is In and p.binding:
                raise SurfaceFormError("binding input cannot be serialized")
            elif kind is Out or kind is In:
                tag = "out" if kind is Out else "in"
                line = f"<{tag} subject={_quoted(_name_text(p.subject))}"
                for i, v in enumerate(p.objects):
                    text = _value_text(v) if kind is Out else "name:" + _name_text(v)
                    line += f" a{i}={_quoted(text)}"
            else:
                raise TypeError(p)
            cont = p.body if kind is New or kind is Repeat else p.cont
            if type(cont) is Nil:
                lines.append(line + "/>")
            else:
                lines.append(line + ">")
                stack += (f"</{tag}>", cont)


def to_xml(program: Program) -> str:
    """Serialize a core program, one element per line; deterministic byte
    for byte.  A binding input raises SurfaceFormError."""
    lines = [_element("pic", [("version", XIR_VERSION)]),
             "<externs>" if program.externs else "<externs/>"]
    for d in program.externs:
        _write_extern(lines, d)
    if program.externs:
        lines.append("</externs>")
    lines.append("<process>")
    _write_proc(lines, program.main)
    lines += ("</process>", "</pic>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reading


def _decimal(text: str) -> int | None:
    """int(text) for decimal digits after at most one '-' (int() alone also
    takes "+1" or "1_0"); else, or past int()'s limit, None."""
    if text.removeprefix("-").isdecimal():
        try:
            return int(text)
        except ValueError:  # past the interpreter's int-conversion limit
            pass
    return None


def _parse_name(text: str, what: str, names: dict) -> Name:
    """names is the document's table: one Name per distinct text."""
    n = names.get(text)
    if n is None:
        display, sep, nid = text.rpartition("#")
        nid = _decimal(nid) if sep else None
        if nid is None:
            raise SchemaError(f"bad name reference {text!r} in {what}")
        n = names[text] = Name(nid, display)
    return n


def _split_value(text: str, what: str, names: dict) -> Value:
    """A value in the kind:value grammar of arguments and fusion sides."""
    kind, sep, val = text.partition(":")
    if not sep and kind != "unit":
        raise SchemaError(f"bad {what} value {text!r}")
    if kind == "name":
        return NameRef(_parse_name(val, what, names))
    if kind == "int":
        n = _decimal(val)
        if n is None:
            raise SchemaError(f"bad int literal {val!r} in {what}")
        return IntLit(n)
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
    if text == "":
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


def _check_use(n: Name, seen: set, closed: set) -> None:
    """A name used must not be a binder id whose new has closed."""
    if n.id in closed:
        raise SchemaError(f"name {_name_text(n)} occurs outside its new")
    seen.add(n.id)


def _check_binder(n: Name, channels: set, seen: set, bound: set) -> None:
    """A new's id is bound once, is no extern channel's and does not occur
    before its new."""
    if n.id in bound:
        raise SchemaError(f"binder id {n.id} of new {_name_text(n)} is "
                          f"already bound")
    if n.id in channels:
        raise SchemaError(f"binder id {n.id} of new {_name_text(n)} is an "
                          f"extern channel id")
    if n.id in seen:
        raise SchemaError(f"name {_name_text(n)} occurs outside its new")
    bound.add(n.id)


@cache
def _action_keys(count: int) -> tuple:
    """The count attributes of an out or in: subject, a0, a1, ..."""
    return ("subject", *(f"a{i}" for i in range(count - 1)))


def _read_proc(elem, names: dict, channels: set) -> Process:
    """The process of elem, from a stack: each element is checked when it
    is reached, in document order, and its node is built from the top of
    built once its children are; a par's children fold to the right, and an
    action with no child continues as nil.

    Binder ids are checked on the way (_check_binder, _check_use): the VM
    binds a new's id in a shared environment, which is sound only when no
    id is bound twice and none occurs outside its new."""
    built = []
    stack = [elem]
    seen, bound, closed = set(), set(), set()  # ids: used, bound, out of scope
    while stack:
        elem = stack.pop()
        if type(elem) is tuple:  # (constructor, fields): the children are built
            make, fields = elem
            if make is Par:  # fields is the child count
                p = built.pop()
                for _ in range(fields - 1):
                    p = Par(built.pop(), p)
                built.append(p)
            else:
                if make is New:
                    closed.add(fields[0].id)
                built.append(make(*fields, built.pop()))
            continue
        tag = elem.tag
        if tag == "out" or tag == "in":
            # the subject and its arguments, read and used in one place
            subject, *args = _attrs(elem, _action_keys(len(elem.attrib)), tag)
            args = tuple(_split_value(a, tag, names) for a in args)
            subj = _parse_name(subject, tag, names)
            _check_use(subj, seen, closed)
            for v in args:
                if type(v) is NameRef:
                    _check_use(v.name, seen, closed)
            make, fields = (Out if tag == "out" else _free_input), (subj, args)
        elif tag == "new":
            (name,) = _attrs(elem, ("name",), "new")
            n = _parse_name(name, "new", names)
            _check_binder(n, channels, seen, bound)
            make, fields = New, (n,)
        elif tag == "repeat":
            _attrs(elem, (), "repeat")
            make, fields = Repeat, ()
        elif tag == "nil":
            _attrs(elem, (), "nil")
            if len(elem) != 0:
                raise SchemaError("nil takes no children")
            built.append(Nil())
            continue
        elif tag == "par":
            _attrs(elem, (), "par")
            if len(elem) < 2:
                raise SchemaError("par takes at least 2 children")
            stack += ((Par, len(elem)), *reversed(elem))
            continue
        elif tag == "fusion":
            left, right = _attrs(elem, ("left", "right"), "fusion")
            if len(elem) != 0:
                raise SchemaError("fusion takes no children")
            left, right = (_split_value(v, "fusion", names) for v in (left, right))
            for v in (left, right):
                if type(v) is NameRef:
                    _check_use(v.name, seen, closed)
            built.append(Fusion(left, right))
            continue
        else:
            raise SchemaError(f"unknown element {tag!r}")
        if len(elem) > 1:  # an action: its one child, or none for nil
            raise SchemaError(f"{tag} takes at most 1 child")
        if not len(elem):
            built.append(Nil())
        stack += ((make, fields), *elem)
    return built[0]


def _free_input(subject: Name, args: tuple, cont: Process) -> In:
    # runs once the continuation is read, so its errors come first
    if not all(type(v) is NameRef for v in args):
        raise SchemaError("in arguments must be names")
    return In(subject, tuple(v.name for v in args), False, cont)


def _read_extern(elem, names: dict) -> ExternDecl:
    alias, cls = _attrs(elem, ("alias", "class"), "extern")
    methods = []
    seen = set()
    for melem in elem:
        if melem.tag != "method":
            raise SchemaError(f"unexpected element {melem.tag!r} in extern")
        mname, call, params, ret, result = _attrs(
            melem, ("name", "call", "params", "ret", "result"), "method")
        if len(melem) != 0:
            raise SchemaError("method takes no children")
        if mname in seen:
            raise SchemaError(f"extern method {mname} declared twice")
        seen.add(mname)
        method = MethodDecl(
            mname, _parse_name(call, "call", names), _parse_sorts(params, "call"),
            _parse_name(ret, "ret", names), _parse_sorts(result, "ret"))
        if len(method.return_payload) > 1:  # a return delivers one value
            raise SchemaError(f"method {mname}: result {result!r} holds more "
                              f"than one sort")
        methods.append(method)
    return ExternDecl(alias, cls, tuple(methods))


def from_xml(document) -> Program:
    """Parse an XIR document (str or bytes) back into the exact Program it
    serialized, name ids included."""
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
    _attrs(root[1], (), "process")
    names = {}
    externs = tuple(_read_extern(e, names) for e in root[0])
    aliases = set()
    for d in externs:
        if d.alias in aliases:
            raise SchemaError(f"extern alias {d.alias} declared twice")
        aliases.add(d.alias)
    if len(root[1]) != 1:
        raise SchemaError("process takes exactly 1 child")
    channels = {n.id for d in externs for n in d.channels()}
    return Program(externs, _read_proc(root[1][0], names, channels))


def validate(document) -> list:
    """Diagnostics instead of exceptions; empty iff from_xml succeeds."""
    try:
        from_xml(document)
    except SchemaError as exc:
        return [Diagnostic("error", exc.code, str(exc))]
    return []
