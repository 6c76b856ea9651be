"""XML execution format: the interchange representation between the
compiler and the virtual machine.

One element per action: an ``<out>``, ``<in>`` or ``<repeat>`` holds its
continuation as its one child, and no child means nil.  Action arguments
are the attributes ``a0``, ``a1``, ... in the ``kind:value`` grammar of
``<fusion>`` sides (``name:x#3``, ``unit:``).  One ``<par>`` holds the
right spine of a ``|`` chain; the reader folds children to the right, so
binary pars read to the same program.  A chain of restrictions is no
element of its own: ``new="r#4 s#5"``, first in attribute order, lists
its binders outermost first, separated by white space, on the element of
the process they scope (``<out new="r#4" subject="s#0" a0="name:r#4">``).
An extern method is one empty ``<method/>`` naming its channels and
sorts, and no protocol: ``check`` accepts only the canonical one.

Serialization is deterministic: one element per line, no indentation,
fixed attribute order, names written as ``display#id``.  Programs of the
same structure give byte-identical documents, and ``from_xml(to_xml(p))``
has p's structure, ids included; indented documents load too.  This is
version "4"; an earlier one is a VersionError.  Writer and reader use
explicit stacks, so depth is bounded by memory alone.  Name ids are
non-negative decimals: the VM gives the names that a ``new`` creates at
run time the ids -1, -2, ..., apart from the program's.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from operator import itemgetter

from .core import (BoolLit, ExternDecl, Fusion, In, IntLit, MethodDecl, Name,
                   NameRef, New, NIL, Nil, Out, Par, Process, Program, Repeat,
                   StrLit, SurfaceFormError, UnitLit, Value, base_sort)

XIR_VERSION = "4"


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


_TAGS = {Nil: "nil", Par: "par", Fusion: "fusion", Out: "out", In: "in",
         Repeat: "repeat"}
_HAS_SPACE = re.compile(r"\s").search


def _write_proc(lines: list, p: Process) -> None:
    """Elements of p in order, from a stack of nodes and closing tags."""
    stack = [p]
    while stack:
        p = stack.pop()
        kind = type(p)
        if kind is str:
            lines.append(p)
            continue
        line = ""
        if kind is New:  # the chain is one attribute of the node it scopes
            texts = []
            while kind is New:  # white space separates the list's items
                if _HAS_SPACE(p.name.display):
                    raise ValueError(f"binder display {p.name.display!r} "
                                     f"holds white space")
                texts.append(_name_text(p.name))
                p = p.body
                kind = type(p)
            line = " new=" + _quoted(" ".join(texts))
        tag = _TAGS.get(kind)
        if tag is None:
            raise TypeError(p)
        line = "<" + tag + line
        if kind is Nil:
            lines.append(line + "/>")
        elif kind is Par:
            spine = []
            while type(p) is Par:  # the right spine is one element
                spine.append(p.left)
                p = p.right
            lines.append(line + ">")
            stack += ("</par>", p, *reversed(spine))
        elif kind is Fusion:
            lines.append(f"{line} left={_quoted(_value_text(p.left))} "
                         f"right={_quoted(_value_text(p.right))}/>")
        else:  # an action: its continuation is its one child, none for nil
            if kind is Repeat:
                cont = p.body
            elif kind is In and p.binding:
                raise SurfaceFormError("binding input cannot be serialized")
            else:
                cont = p.cont
                line += f" subject={_quoted(_name_text(p.subject))}"
                for i, v in enumerate(p.objects):
                    text = _value_text(v) if kind is Out else "name:" + _name_text(v)
                    line += f" a{i}={_quoted(text)}"
            if type(cont) is Nil:
                lines.append(line + "/>")
            else:
                lines.append(line + ">")
                stack += (f"</{tag}>", cont)


def to_xml(program: Program) -> str:
    """Serialize a core program, one element per line; deterministic byte
    for byte.  A binding input raises SurfaceFormError, and a binder whose
    display holds white space ValueError."""
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
    try:
        return int(text) if text.removeprefix("-").isdecimal() else None
    except ValueError:  # past the interpreter's int-conversion limit
        return None


def _parse_name(text: str, what: str, names: dict) -> Name:
    """names is the document's table: one Name per distinct text.  An id
    with a '-' is refused, as run-time names take the negative ids."""
    n = names.get(text)
    if n is None:
        display, sep, nid = text.rpartition("#")
        nid = _decimal(nid) if sep and nid[:1] != "-" else None
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
    parts = text.split(",") if text else []
    for part in parts:
        if base_sort(part) is None:
            raise SchemaError(f"unknown sort {part!r} in {what}")
    return tuple(map(base_sort, parts))


def _attrs(elem, required: tuple, what: str) -> list:
    attrib = elem.attrib
    if len(attrib) == len(required) and all(a in attrib for a in required):
        return [attrib[a] for a in required]
    raise SchemaError(f"{what}: expected attributes {sorted(required)}, "
                      f"found {sorted(attrib)}")


def _outside(n: Name) -> SchemaError:
    return SchemaError(f"name {_name_text(n)} occurs outside its new")


def _read_proc(elem, names: dict, channels: set) -> Process:
    """The process of elem, from a stack, in document order: each element
    is checked when reached, its new list first, and built once its child
    is (an action with none at once on NIL), then wrapped in a New per
    binder of the list; par children fold to the right.  The VM binds a
    new's id in a shared environment, sound only if no id is bound twice
    or occurs outside its new, as checked here."""
    built = []
    stack = [elem]
    seen, bound, closed = set(), set(), set()  # ids: used, bound, out of scope
    values = {}  # argument text -> Value, read once
    getters = {}  # out/in attribute count -> (getter, keys)
    while stack:
        elem = stack.pop()
        if type(elem) is tuple:  # (constructor, fields): the children are built
            make, fields = elem
            if make is Par:  # fields is the child count
                p = built.pop()
                for _ in range(fields - 1):
                    p = Par(built.pop(), p)
                built.append(p)
                continue
        elif "new" in elem.attrib:  # its binders, then elem inside them
            stack += [(New, (n,)) for n in _bind(
                elem.attrib.pop("new"), names, channels, bound, seen)]
            stack.append(elem)
            continue
        elif (tag := elem.tag) == "out" or tag == "in":
            attrib = elem.attrib
            if len(attrib) not in getters:
                keys = ("subject", *(f"a{i}" for i in range(len(attrib) - 1)))
                get = (itemgetter(*keys) if keys[1:]
                       else lambda a: (a["subject"],))
                getters[len(attrib)] = get, keys
            get, keys = getters[len(attrib)]
            try:
                subject, *texts = get(attrib)
            except KeyError:
                _attrs(elem, keys, tag)  # raises
            args = tuple([values.get(text) or values.setdefault(
                text, _split_value(text, tag, names)) for text in texts])
            subj = names.get(subject) or _parse_name(subject, tag, names)
            if subj.id in closed:
                raise _outside(subj)
            seen.add(subj.id)
            objects = []
            for v in args:
                if type(v) is NameRef:
                    if v.name.id in closed:
                        raise _outside(v.name)
                    seen.add(v.name.id)
                    objects.append(v.name)
            if tag == "out":
                make, fields = Out, (subj, args)
            else:  # None: not all names, raised after the child
                objects = tuple(objects) if len(objects) == len(args) else None
                make, fields = In, (subj, objects, False)
        elif tag == "fusion":
            sides = _attrs(elem, ("left", "right"), "fusion")
            if len(elem) != 0:
                raise SchemaError("fusion takes no children")
            sides = [_split_value(v, "fusion", names) for v in sides]
            for v in sides:
                if type(v) is NameRef:
                    if v.name.id in closed:
                        raise _outside(v.name)
                    seen.add(v.name.id)
            built.append(Fusion(*sides))
            continue
        elif tag in ("repeat", "nil", "par"):
            if elem.attrib:
                _attrs(elem, (), tag)  # raises
            if tag == "repeat":
                make, fields = Repeat, ()
            elif tag == "nil":
                if len(elem) != 0:
                    raise SchemaError("nil takes no children")
                built.append(NIL)
                continue
            else:
                if len(elem) < 2:
                    raise SchemaError("par takes at least 2 children")
                stack += ((Par, len(elem)), *reversed(elem))
                continue
        else:
            raise SchemaError(f"unknown element {tag!r}")
        if type(elem) is tuple:
            cont = built.pop()
        elif len(elem) > 1:  # an action: its one child, or none for nil
            raise SchemaError(f"{tag} takes at most 1 child")
        elif len(elem):
            stack += ((make, fields), elem[0])
            continue
        else:
            cont = NIL
        if make is New:
            closed.add(fields[0].id)
        elif make is In and fields[1] is None:
            raise SchemaError("in arguments must be names")
        built.append(make(*fields, cont))
    return built[0]


def _bind(text: str, names: dict, channels: set, bound: set,
          seen: set) -> list:
    """The binders of a new list, outermost first, each checked in turn: a
    new binds an id no earlier new bound and no extern channel has, and
    that no earlier element used."""
    news = []
    for item in text.split():
        n = names.get(item) or _parse_name(item, "new", names)
        if n.id in bound or n.id in channels:
            raise SchemaError(f"binder id {n.id} of new {_name_text(n)} "
                              + ("is already bound" if n.id in bound
                                 else "is an extern channel id"))
        if n.id in seen:
            raise _outside(n)
        bound.add(n.id)
        news.append(n)
    if not news:
        raise SchemaError("new lists no binder")
    return news


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
