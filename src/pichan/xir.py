"""XML execution format: the interchange representation between the
compiler and the virtual machine.

Each name is declared once and every use is its id.  An extern
channel is declared in its ``<method call="inc#0" ret="Ret1#1" .../>``, a
free name in the ``free="s#2 x#4"`` list of ``<process>`` (in id order)
and a binder in a ``new`` list; a declaration writes ``display#id``, and
no id is declared twice.  A chain of restrictions is no element of its
own: ``new="r#4 s#5"``, first in attribute order, lists its binders
outermost first on the element of the process they scope, and they are
in scope inside that element only.  Lists separate their items by white
space.  A use writes the id as its declaration did:
``<out new="r#4" subject="2" a0="name:4">`` sends the new name r on the
free name s.

One element per action: an ``<out>``, ``<in>`` or ``<repeat>`` holds its
continuation as its one child, and no child means nil.  Action arguments
are the attributes ``a0``, ``a1``, ... in the ``kind:value`` grammar of
``<fusion>`` sides (``name:4``, ``int:-1``, ``unit:``).  One ``<par>``
holds the right spine of a ``|`` chain; the reader folds children to the
right, so binary pars read to the same program.  An extern method is one
empty ``<method/>`` naming its channels and sorts, and no protocol:
``check`` accepts only the canonical one.

Serialization is deterministic: one element per line, no indentation,
fixed attribute order.  Programs of the same structure give byte-identical
documents, and ``from_xml(to_xml(p))`` has p's structure, ids included;
indented documents load too.  This is version "5"; an earlier one is a
VersionError.  Writer and reader use explicit stacks, so depth is bounded
by memory alone.  Name ids are non-negative decimals: the VM gives the
names that a ``new`` creates at run time the ids -1, -2, ..., apart from
the program's.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from operator import itemgetter

from .core import (BoolLit, ExternDecl, Fusion, In, IntLit, MethodDecl, Name,
                   New, NIL, Nil, Out, Par, Process, Program, Repeat,
                   NOT_XML_CHARS, StrLit, SurfaceFormError, UnitLit, Value,
                   base_sort)

XIR_VERSION = "5"


class SchemaError(Exception):
    code = "E-SCHEMA"


class VersionError(SchemaError):
    code = "E-VERSION"


# ---------------------------------------------------------------------------
# Writing


# what xml.sax.saxutils.quoteattr replaces, the character it may quote, and
# what XML 1.0 cannot carry at all
_NEEDS_QUOTING = re.compile(f'[&<>"\n\r\t{NOT_XML_CHARS}]').search
_NOT_XML = re.compile(f"[{NOT_XML_CHARS}]").search
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                          "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})
_HAS_SPACE = re.compile(r"\s").search  # what str.split splits a list on


def _quoted(val: str) -> str:
    """val as an attribute value, written as xml.sax.saxutils.quoteattr
    writes it: escaped, then wrapped in '"', or in "'" when val holds '"'
    but no "'", or else in '"' with each '"' written as &quot;.  A
    character that XML 1.0 has no form for, not even as a reference,
    raises ValueError."""
    if not _NEEDS_QUOTING(val):
        return f'"{val}"'
    bad = _NOT_XML(val)
    if bad:
        raise ValueError(f"{val!r} holds {bad[0]!r}, which XML 1.0 cannot "
                         f"carry")
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
    """n as it is declared: display#id."""
    return f"{n.display}#{n.id}"


def _list_item(n: Name, what: str) -> str:
    """n as an item of a white-space separated free or new list."""
    if _HAS_SPACE(n.display):
        raise ValueError(f"{what} display {n.display!r} holds white space")
    return _name_text(n)


def _value_text(v: Name | Value, use) -> str:
    """v in the kind:value grammar of arguments and fusion sides; use(n)
    is the text of a name n."""
    if type(v) is Name:
        return "name:" + use(v)
    if isinstance(v, IntLit):
        return f"int:{v.value}"
    if isinstance(v, StrLit):
        return "str:" + v.value
    if isinstance(v, BoolLit):
        return "bool:true" if v.value else "bool:false"
    return "unit:"


def _sorts_attr(sorts: tuple) -> str:
    return ",".join(str(s) for s in sorts)


def _write_extern(lines: list, d: ExternDecl, displays: dict) -> None:
    """d's element; displays receives the display of each channel id, and
    an id declared before raises ValueError."""
    lines.append(_element("extern", [("alias", d.alias), ("class", d.class_name)]))
    for m in d.methods:
        for n in (m.call_channel, m.return_channel):
            if n.id in displays:
                raise ValueError(f"extern channel id {n.id} is declared twice")
            displays[n.id] = n.display
        lines.append(_element("method", [
            ("name", m.name), ("call", _name_text(m.call_channel)),
            ("params", _sorts_attr(m.param_sorts)),
            ("ret", _name_text(m.return_channel)),
            ("result", _sorts_attr(m.return_payload))], True))
    lines.append("</extern>")


_TAGS = {Nil: "nil", Par: "par", Fusion: "fusion", Out: "out", In: "in",
         Repeat: "repeat"}


def _write_proc(lines: list, p: Process, displays: dict,
                bound: set) -> None:
    """Elements of p in order, from a stack of nodes and closing tags.
    displays receives the display of every id p names, and one id with two
    displays raises ValueError; bound receives the binders' ids."""

    def use(n: Name) -> str:
        if displays.setdefault(n.id, n.display) != n.display:
            raise ValueError(f"name id {n.id} has two displays, "
                             f"{displays[n.id]!r} and {n.display!r}")
        return str(n.id)

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
            while kind is New:
                use(p.name)
                bound.add(p.name.id)
                texts.append(_list_item(p.name, "binder"))
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
            lines.append(f"{line} left={_quoted(_value_text(p.left, use))} "
                         f"right={_quoted(_value_text(p.right, use))}/>")
        else:  # an action: its continuation is its one child, none for nil
            if kind is Repeat:
                cont = p.body
            elif kind is In and p.binding:
                raise SurfaceFormError("binding input cannot be serialized")
            else:
                cont = p.cont
                line += f' subject="{use(p.subject)}"'
                for i, v in enumerate(p.objects):
                    line += f" a{i}={_quoted(_value_text(v, use))}"
            if type(cont) is Nil:
                lines.append(line + "/>")
            else:
                lines.append(line + ">")
                stack += (f"</{tag}>", cont)


def to_xml(program: Program) -> str:
    """Serialize a core program, one element per line; deterministic byte
    for byte.  Each name is declared once, as an extern channel, in the
    free list or in a new list, and each use is its id.  A binding input
    raises SurfaceFormError; a program the document could not carry
    faithfully raises ValueError: one id with two displays, an extern
    channel id declared twice, a listed name whose display holds white
    space, or a character XML 1.0 has no form for."""
    displays = {}  # id -> display, of every name declared or used
    lines = [_element("pic", [("version", XIR_VERSION)]),
             "<externs>" if program.externs else "<externs/>"]
    for d in program.externs:
        _write_extern(lines, d, displays)
    if program.externs:
        lines.append("</externs>")
    declared = set(displays)
    at = len(lines)
    lines.append("<process>")
    _write_proc(lines, program.main, displays, declared)
    free = [_list_item(Name(i, displays[i]), "free name")
            for i in sorted(displays) if i not in declared]
    if free:
        lines[at] = "<process free=" + _quoted(" ".join(free)) + ">"
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


# what declared an id, as a reason a binder may not take it
_TAKEN = {"new": "is already bound", "free": "is a free name",
          "call": "is an extern channel id", "ret": "is an extern channel id"}


def _declare(text: str, what: str, decls: dict, kinds: dict) -> str:
    """Declare the name display#id that text gives in a call, ret, free or
    new: decls maps the id's text to a new Name, which uses then share, and
    kinds its id to what.  An id declared before is refused, and so is an
    id with a '-', as run-time names take the negative ids.  Returns the
    id's text."""
    display, sep, key = text.rpartition("#")
    nid = _decimal(key) if sep and key[:1] != "-" else None
    if nid is None:
        raise SchemaError(f"bad name reference {text!r} in {what}")
    earlier = kinds.get(nid)
    if earlier is not None:
        if what == "new":
            raise SchemaError(f"binder id {nid} of new {text} {_TAKEN[earlier]}")
        raise SchemaError(f"name id {nid} of {what} {text} is already declared")
    kinds[nid] = what
    decls[key] = Name(nid, display)
    return key


def _declare_list(text: str, what: str, decls: dict, kinds: dict) -> list:
    """The id texts of a free or new list, each item declared in turn: a
    plain display#id here, any other by _declare."""
    keys = []
    for item in text.split():
        display, sep, key = item.rpartition("#")
        if (sep and key.isascii() and key.isdigit() and len(key) < 19
                and (nid := int(key)) not in kinds):
            kinds[nid] = what
            decls[key] = Name(nid, display)
        else:
            key = _declare(item, what, decls, kinds)
        keys.append(key)
    if not keys:
        raise SchemaError(f"{what} lists no " + ("binder" if what == "new"
                                                  else "name"))
    return keys


def _undeclared(text: str, what: str, outside: dict) -> SchemaError:
    """The error for a use whose id text is not in scope: outside maps the
    ids of the news already closed to their names."""
    n = outside.get(text)
    if n is not None:
        return SchemaError(f"name {_name_text(n)} occurs outside its new")
    return SchemaError(f"undeclared name {text!r} in {what}")


def _split_value(text: str, what: str, decls: dict,
                 outside: dict) -> Name | Value:
    """A value in the kind:value grammar of arguments and fusion sides: a
    name is the declared Name itself."""
    kind, sep, val = text.partition(":")
    if not sep and kind != "unit":
        raise SchemaError(f"bad {what} value {text!r}")
    if kind == "name":
        n = decls.get(val)
        if n is None:
            raise _undeclared(val, what, outside)
        return n
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


def _read_proc(elem, decls: dict, kinds: dict) -> Process:
    """The process of elem, built top-down in document order.  Each element
    is checked when reached, its new list first; its node, an action on NIL
    or a par's right spine of Pars, is built at once and set in the slot of
    its parent that the walk carries: a continuation, a body, or a Par's
    left or right.  The walk goes straight on to an only child, and a
    par's children wait on a stack with their slots.  A marker there acts
    once its element's subtree is read: a new list's id texts end their
    scope, and an in's error that not all its arguments are names raises.
    A use resolves with one lookup in decls, which holds the names in
    scope, to the declared Name itself, whether it is a subject, an
    argument of an out or an in, or a fusion side.  The VM binds a new's
    id in a shared environment, sound only if no id is bound twice or
    occurs outside its new, as this ensures."""
    top = Repeat(NIL)  # its body slot receives the process
    stack = [(elem, top, "body")]
    outside = {}  # id text -> name, of the binders whose new has closed
    getters = {}  # out/in attribute count -> getter of subject, a0, ...
    while stack:
        entry = stack.pop()
        if type(entry) is not tuple:  # a new's id texts, or an in's error
            if type(entry) is str:
                raise SchemaError(entry)
            outside.update(zip(entry, map(decls.pop, entry)))
            continue
        elem, parent, slot = entry
        while True:  # elem, then on down while it has an only child
            attrib = elem.attrib
            tag = elem.tag
            child = None
            if "new" in attrib:  # its binders, then elem inside them
                keys = _declare_list(attrib.pop("new"), "new", decls, kinds)
                stack.append(keys)
                node = inner = New(decls[keys[0]], NIL)
                for key in keys[1:]:
                    inner.body = inner = New(decls[key], NIL)
                child, into = elem, "body"
            elif tag == "out" or tag == "in":
                count = len(attrib)
                get = getters.get(count) or getters.setdefault(count, itemgetter(
                    "subject", *(f"a{i}" for i in range(count - 1)), "subject"))
                try:  # the second "subject" makes a tuple of one key's too
                    subject, *texts, _ = get(attrib)
                except KeyError:
                    _attrs(elem, ("subject", *(
                        f"a{i}" for i in range(count - 1))), tag)  # raises
                args = []
                literal = False  # whether an argument is a literal
                for text in texts:
                    if text[:5] != "name:":
                        v = _split_value(text, tag, decls, outside)
                        literal = True
                    elif (v := decls.get(text[5:])) is None:
                        raise _undeclared(text[5:], tag, outside)
                    args.append(v)
                subj = decls.get(subject)
                if subj is None:
                    raise _undeclared(subject, tag, outside)
                if len(elem) > 1:
                    raise SchemaError(f"{tag} takes at most 1 child")
                if tag == "out":
                    node = inner = Out(subj, tuple(args), NIL)
                else:
                    node = inner = In(subj, tuple(args), False, NIL)
                    if literal:
                        stack.append("in arguments must be names")
                if len(elem):
                    child, into = elem[0], "cont"
            elif tag == "fusion":
                left, right = _attrs(elem, ("left", "right"), "fusion")
                if len(elem) != 0:
                    raise SchemaError("fusion takes no children")
                node = Fusion(_split_value(left, "fusion", decls, outside),
                              _split_value(right, "fusion", decls, outside))
            elif tag in ("repeat", "nil", "par"):
                if attrib:
                    _attrs(elem, (), tag)  # raises
                count = len(elem)
                if tag == "repeat":
                    if count > 1:
                        raise SchemaError("repeat takes at most 1 child")
                    node = inner = Repeat(NIL)
                    child, into = elem[0] if count else None, "body"
                elif tag == "nil":
                    if count:
                        raise SchemaError("nil takes no children")
                    node = NIL
                elif count < 2:
                    raise SchemaError("par takes at least 2 children")
                else:  # each child in a Par's left, the last in its right
                    node = Par(None, None)
                    stack += ((elem[-1], node, "right"),
                              (elem[-2], node, "left"))
                    for kid in elem[-3::-1]:
                        node = Par(None, node)
                        stack.append((kid, node, "left"))
            else:
                raise SchemaError(f"unknown element {tag!r}")
            setattr(parent, slot, node)
            if child is None:
                break
            elem, parent, slot = child, inner, into
    return top.body


def _read_extern(elem, decls: dict, kinds: dict) -> ExternDecl:
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
            mname, decls[_declare(call, "call", decls, kinds)],
            _parse_sorts(params, "call"),
            decls[_declare(ret, "ret", decls, kinds)],
            _parse_sorts(result, "ret"))
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
    process = root[1]
    free = process.attrib.get("free")
    _attrs(root[0], (), "externs")
    _attrs(process, () if free is None else ("free",), "process")
    decls, kinds = {}, {}  # id text -> Name, id -> what declared it
    externs = tuple(_read_extern(e, decls, kinds) for e in root[0])
    aliases = set()
    for d in externs:
        if d.alias in aliases:
            raise SchemaError(f"extern alias {d.alias} declared twice")
        aliases.add(d.alias)
    if free is not None:
        _declare_list(free, "free", decls, kinds)
    if len(process) != 1:
        raise SchemaError("process takes exactly 1 child")
    return Program(externs, _read_proc(process[0], decls, kinds))
