"""The program model: sorts, names, values, process terms, extern
declarations and programs, and explicit fusions.

Process terms form a small pi-calculus with explicit fusions: communication
does not substitute, it fuses argument pairs, and a fusion ``x=y`` is itself
a process.  A value position (an output argument, a fusion side) holds a
Name or a literal.  Name identity is the integer ``id``; the ``display``
text is for humans only and never affects semantics.  The front end
(parser, typecheck) and the back end (xir, interop, vm) build on this
module and on diag, never on each other.
"""

from __future__ import annotations


class SurfaceFormError(Exception):
    """A surface construct (binding input) reached a core-only operation."""


class FusionClash(Exception):
    """Two distinct literals were forced into the same fusion class."""


class Record:
    """A repr from per-class field names, by a dataclass's rule: it shows
    the fields of _fields in order.  A record compares by identity."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Sorts


class BaseSort(Record):
    """A base sort.  INT, STR, BOOL and UNIT are the only instances, so
    sorts compare by identity."""

    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self):
        return self.name


INT = BaseSort("int")
STR = BaseSort("string")
BOOL = BaseSort("bool")
UNIT = BaseSort("unit")

_BASE_BY_NAME = {"int": INT, "string": STR, "bool": BOOL, "unit": UNIT}


def base_sort(name: str) -> BaseSort | None:
    return _BASE_BY_NAME.get(name)


# ---------------------------------------------------------------------------
# Names and values; a literal's class gives its sort, and its value is the
# host value it stands for


class Name:
    """A name; it is also the value that an output argument or a fusion
    side holds when that position names a channel.  Equality and hash use
    the id alone, so a name never equals a literal."""

    __slots__ = ("id", "display")

    def __init__(self, id: int, display: str):
        self.id = id
        self.display = display

    def __eq__(self, other):
        return self.id == other.id if type(other) is Name else NotImplemented

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"{self.display}#{self.id}"


class NameSupply:
    """Hands out names with ids counting up from start."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self, display: str) -> Name:
        n = Name(self._next, display)
        self._next += 1
        return n


# what XML 1.0's Char production leaves out, as the body of a regular
# expression character class: no string literal may hold one, since XIR
# has no form for it, not even a character reference
NOT_XML_CHARS = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"


class Value(Record):
    """Base of the four literal classes.  A literal equals only a literal
    of its own class whose value is equal, so IntLit(1) != BoolLit(True);
    its hash is its value's."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)


class IntLit(Value):
    __slots__ = _fields = ("value",)
    sort = INT

    def __init__(self, value: int):
        self.value = value


class StrLit(Value):
    __slots__ = _fields = ("value",)
    sort = STR

    def __init__(self, value: str):
        self.value = value


class BoolLit(Value):
    __slots__ = _fields = ("value",)
    sort = BOOL

    def __init__(self, value: bool):
        self.value = value


class UnitLit(Value):
    __slots__ = ()
    sort, value = UNIT, None

    def __init__(self, value: None = None):  # None is unit's host value
        pass


# the literal class of a host value, by its exact Python type
HOST_LITERALS = {int: IntLit, str: StrLit, bool: BoolLit, type(None): UnitLit}


# ---------------------------------------------------------------------------
# Process AST; a node carries its span (see parser)


class Nil(Record):
    __slots__ = _fields = ("span",)

    def __init__(self, span=None):
        self.span = span


class Par(Record):
    __slots__ = _fields = ("left", "right", "span")

    def __init__(self, left: Process, right: Process, span=None):
        self.left, self.right, self.span = left, right, span


class New(Record):
    __slots__ = _fields = ("name", "body", "span")

    def __init__(self, name: Name, body: Process, span=None):
        self.name, self.body, self.span = name, body, span


class Out(Record):
    __slots__ = _fields = ("subject", "objects", "cont", "span")

    def __init__(self, subject: Name, objects: tuple, cont: Process,
                 span=None):  # objects: tuple[Name | Value, ...]
        self.subject, self.objects, self.cont = subject, objects, cont
        self.span = span


class In(Record):
    __slots__ = _fields = ("subject", "objects", "binding", "cont", "span")

    def __init__(self, subject: Name, objects: tuple, binding: bool,
                 cont: Process, span=None):  # objects: tuple[Name, ...]
        self.subject, self.objects, self.binding = subject, objects, binding
        self.cont, self.span = cont, span


class Repeat(Record):
    __slots__ = _fields = ("body", "span")

    def __init__(self, body: Process, span=None):
        self.body, self.span = body, span


class Fusion(Record):
    __slots__ = _fields = ("left", "right", "span")

    def __init__(self, left: Name | Value, right: Name | Value, span=None):
        self.left, self.right, self.span = left, right, span


Process = Nil | Par | New | Out | In | Repeat | Fusion

NIL = Nil()


def nodes(p: Process) -> list:
    """Every node of p in pre-order, a Par's left before its right, by an
    explicit stack; reversed, every node comes after all of its children."""
    found = []
    stack = [p]
    while stack:
        p = stack.pop()
        found.append(p)
        kind = type(p)
        if kind is Par:
            stack += (p.right, p.left)
        elif kind is Out or kind is In:
            stack.append(p.cont)
        elif kind is New or kind is Repeat:
            stack.append(p.body)
    return found


_SIZES = {Nil: 1, Par: 1, New: 2, Repeat: 1, Fusion: 3}


def process_size(p: Process) -> int:
    """Node count, with every name/value occurrence counted as one node."""
    return sum(_SIZES.get(type(q)) or 2 + len(q.objects) for q in nodes(p))


# ---------------------------------------------------------------------------
# Extern declarations (the parsed `extern A -> class C { ... }` block) and
# programs


class MethodDecl(Record):
    """One method: its call and return channels and their sorts.  protocol
    is the declared `acceded as` body as (channel display, payload) steps,
    or None when the clause is omitted; `check` tests it, and XIR does not
    carry it."""

    _fields = ("name", "call_channel", "param_sorts", "return_channel",
               "return_payload", "protocol", "span")

    def __init__(self, name: str, call_channel: Name, param_sorts: tuple,
                 return_channel: Name, return_payload: tuple,
                 protocol: tuple | None = None, span=None):
        self.name = name
        self.call_channel = call_channel
        self.param_sorts = param_sorts  # tuple[BaseSort, ...], () for void
        self.return_channel = return_channel
        self.return_payload = return_payload  # () for void, else a 1-tuple
        self.protocol, self.span = protocol, span


class ExternDecl(Record):
    _fields = ("alias", "class_name", "methods", "span")

    def __init__(self, alias: str, class_name: str, methods: tuple,
                 span=None):  # methods: tuple[MethodDecl, ...]
        self.alias, self.class_name, self.methods = alias, class_name, methods
        self.span = span

    def channels(self) -> list:
        return [n for m in self.methods
                for n in (m.call_channel, m.return_channel)]


class Program(Record):
    _fields = ("externs", "main")

    def __init__(self, externs: tuple, main: Process):
        self.externs = externs  # tuple[ExternDecl, ...]
        self.main = main


# ---------------------------------------------------------------------------
# Fusion environment: union-find over name ids with literal attachments


class FusionEnv:
    """Equivalence classes of names, each class optionally pinned to one
    literal value; literals are equal only within one class (Value
    equality).  Mutates only through merge and its parts on names, union
    and attach; confine to one VM."""

    def __init__(self):
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._attach: dict[int, Value] = {}  # root id -> literal
        self._names: dict[int, Name] = {}
        # (absorbed root, surviving root) per union, in order; a reader that
        # indexes by root (the VM's soup index) drains it
        self.union_log: list[tuple[int, int]] = []

    def _find(self, nid: int) -> int:
        # a root has no parent entry, and no entry points at itself
        parent = self._parent
        root = nid
        while root in parent:
            root = parent[root]
        # path compression does not change representatives
        while nid != root:
            parent[nid], nid = root, parent[nid]
        return root

    def representative(self, n: Name) -> int:
        nid = n.id
        return self._find(nid) if nid in self._parent else nid

    def attached_literal(self, n: Name) -> Value | None:
        return self._attach.get(self._find(n.id))

    def class_display(self, n: Name) -> str:
        root = self._find(n.id)
        rep = self._names.get(root, n)
        return rep.display

    def fused_equal(self, a: Name | Value, b: Name | Value) -> bool:
        if type(a) is Name and type(b) is Name:
            return self._find(a.id) == self._find(b.id)
        if type(a) is Name:
            lit = self.attached_literal(a)
            return lit is not None and lit == b
        if type(b) is Name:
            lit = self.attached_literal(b)
            return lit is not None and lit == a
        return a == b

    def merge(self, a: Name | Value, b: Name | Value) -> "FusionEnv":
        """Identify a and b, each a Name or a literal: two names by union, a
        name and a literal by attach.  Raises FusionClash when that would
        equate two distinct literals (directly or through class
        attachments)."""
        if type(a) is Name and type(b) is Name:
            self.union(a, b)
            return self
        if type(a) is Name:
            self.attach(a, b)
            return self
        if type(b) is Name:
            self.attach(b, a)
            return self
        if a != b:
            raise FusionClash(f"cannot fuse literals {a} and {b}")
        return self

    def union(self, x: Name, y: Name) -> None:
        """merge on two names: on a rank tie x's root survives."""
        names = self._names
        names.setdefault(x.id, x)
        names.setdefault(y.id, y)
        rx, ry = self._find(x.id), self._find(y.id)
        if rx == ry:
            return
        ax, ay = self._attach.get(rx), self._attach.get(ry)
        if ax is not None and ay is not None and ax != ay:
            raise FusionClash(f"cannot fuse literals {ax} and {ay}")
        if self._rank.get(rx, 0) < self._rank.get(ry, 0):
            rx, ry = ry, rx
        self._parent[ry] = rx
        self.union_log.append((ry, rx))
        if self._rank.get(rx, 0) == self._rank.get(ry, 0):
            self._rank[rx] = self._rank.get(rx, 0) + 1
        lit = ax if ax is not None else ay
        if lit is not None:
            self._attach[rx] = lit
            self._attach.pop(ry, None)

    def attach(self, n: Name, lit: Value) -> None:
        """merge on a name and a literal."""
        self._names.setdefault(n.id, n)
        root = self._find(n.id)
        prev = self._attach.get(root)
        if prev is not None and prev != lit:
            raise FusionClash(f"cannot fuse literals {prev} and {lit}")
        self._attach[root] = lit
