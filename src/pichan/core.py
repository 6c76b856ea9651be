"""Names, values, process terms, explicit fusions and structural congruence.

Process terms form a small pi-calculus with explicit fusions: communication
does not substitute, it fuses argument pairs, and a fusion ``x=y`` is itself
a process.  Name identity is the integer ``id``; the ``display`` text is for
humans only and never affects semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional


class SurfaceFormError(Exception):
    """A surface construct (binding input) reached a core-only operation."""


class FusionClash(Exception):
    """Two distinct literals were forced into the same fusion class."""


# ---------------------------------------------------------------------------
# Names and values


@dataclass(frozen=True)
class Name:
    id: int
    display: str = field(compare=False)
    origin: str = field(compare=False, default="source")  # source | fresh

    def __repr__(self):
        return f"{self.display}#{self.id}"


class NameSupply:
    """Hands out names with globally unique ids (per supply)."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self, display: str, origin: str = "fresh") -> Name:
        n = Name(self._next, display, origin)
        self._next += 1
        return n


@dataclass(frozen=True)
class NameRef:
    name: Name


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class UnitLit:
    pass


Value = NameRef | IntLit | StrLit | BoolLit | UnitLit

UNIT = UnitLit()


def value_token(v: Value, env: Optional[dict] = None) -> str:
    """Stable textual token for a value; bound names render via env."""
    if isinstance(v, NameRef):
        if env is not None and v.name.id in env:
            return env[v.name.id]
        return f"f{v.name.id}"
    if isinstance(v, IntLit):
        return f"i{v.value}"
    if isinstance(v, StrLit):
        return "s" + repr(v.value)
    if isinstance(v, BoolLit):
        return "b1" if v.value else "b0"
    return "u"


# ---------------------------------------------------------------------------
# Process AST


@dataclass(frozen=True)
class Nil:
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class New:
    name: Name
    body: "Process"
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class Out:
    subject: Name
    objects: tuple  # tuple[Value, ...]
    cont: "Process"
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class In:
    subject: Name
    objects: tuple  # tuple[Name, ...]
    binding: bool
    cont: "Process"
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class Repeat:
    body: "Process"
    span: object = field(compare=False, default=None)


@dataclass(frozen=True)
class Fusion:
    left: Value
    right: Value
    span: object = field(compare=False, default=None)


Process = Nil | Par | New | Out | In | Repeat | Fusion

NIL = Nil()


def name_scan(p: Process, names: Optional[dict] = None) -> tuple[int, bool]:
    """One iterative pass over p: the largest name id, binders included (at
    least -1), and whether p is in core form (no binding input remains).
    When given, names receives every name in p, keyed by id."""
    names = {} if names is None else names
    core = True
    stack = [p]
    pop, push = stack.pop, stack.append
    while stack:
        p = pop()
        kind = type(p)
        if kind is Par:
            push(p.right)
            push(p.left)
        elif kind is Out:
            names[p.subject.id] = p.subject
            for v in p.objects:
                if type(v) is NameRef:
                    names[v.name.id] = v.name
            push(p.cont)
        elif kind is In:
            names[p.subject.id] = p.subject
            for n in p.objects:
                names[n.id] = n
            core = core and not p.binding
            push(p.cont)
        elif kind is New:
            names[p.name.id] = p.name
            push(p.body)
        elif kind is Repeat:
            push(p.body)
        elif kind is Fusion:
            for v in (p.left, p.right):
                if type(v) is NameRef:
                    names[v.name.id] = v.name
    return max([-1, *names]), core


def is_core(p: Process) -> bool:
    """True when no binding input remains anywhere in p."""
    return name_scan(p)[1]


def process_size(p: Process) -> int:
    """Node count, with every name/value occurrence counted as one node."""
    if isinstance(p, Nil):
        return 1
    if isinstance(p, Par):
        return 1 + process_size(p.left) + process_size(p.right)
    if isinstance(p, New):
        return 2 + process_size(p.body)
    if isinstance(p, Out):
        return 2 + len(p.objects) + process_size(p.cont)
    if isinstance(p, In):
        return 2 + len(p.objects) + process_size(p.cont)
    if isinstance(p, Repeat):
        return 1 + process_size(p.body)
    if isinstance(p, Fusion):
        return 3
    raise TypeError(p)


def free_names(p: Process) -> set:
    """Names occurring free in p.  New binds its name; a binding input
    binds its object names in the continuation."""
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, New):
        return free_names(p.body) - {p.name}
    if isinstance(p, Out):
        names = {p.subject}
        for v in p.objects:
            if isinstance(v, NameRef):
                names.add(v.name)
        return names | free_names(p.cont)
    if isinstance(p, In):
        inner = free_names(p.cont)
        if p.binding:
            inner -= set(p.objects)
        else:
            inner |= set(p.objects)
        return {p.subject} | inner
    if isinstance(p, Repeat):
        return free_names(p.body)
    if isinstance(p, Fusion):
        names = set()
        for v in (p.left, p.right):
            if isinstance(v, NameRef):
                names.add(v.name)
        return names
    raise TypeError(p)


def _subst_value(v: Value, src: Name, dst: Name) -> Value:
    if isinstance(v, NameRef) and v.name == src:
        return NameRef(dst)
    return v


def substitute(p: Process, src: Name, dst: Name,
               supply: Optional[NameSupply] = None) -> Process:
    """Capture-avoiding substitution of dst for free occurrences of src.

    Binder ids are globally unique in programs built through the parser or
    the supplies in this module, so capture can only happen with hand-built
    terms that reuse a Name object as both binder and substituend; those
    binders get alpha-renamed on the way down.
    """
    if supply is None:
        supply = NameSupply(name_scan(p)[0] + 1)

    def go(p: Process) -> Process:
        if isinstance(p, Nil):
            return p
        if isinstance(p, Par):
            return Par(go(p.left), go(p.right))
        if isinstance(p, New):
            if p.name == src:
                return p  # src bound here, nothing free below
            if p.name == dst:
                fresh = supply.fresh(p.name.display, "fresh")
                body = substitute(p.body, p.name, fresh, supply)
                return New(fresh, go(body))
            return New(p.name, go(p.body))
        if isinstance(p, Out):
            subj = dst if p.subject == src else p.subject
            objs = tuple(_subst_value(v, src, dst) for v in p.objects)
            return Out(subj, objs, go(p.cont))
        if isinstance(p, In):
            subj = dst if p.subject == src else p.subject
            if p.binding:
                if src in p.objects:
                    return In(subj, p.objects, True, p.cont)
                if dst in p.objects:
                    # alpha-rename the colliding parameters
                    cont = p.cont
                    objs = []
                    for o in p.objects:
                        if o == dst:
                            fresh = supply.fresh(o.display, "fresh")
                            cont = substitute(cont, o, fresh, supply)
                            objs.append(fresh)
                        else:
                            objs.append(o)
                    return In(subj, tuple(objs), True, go(cont))
                return In(subj, p.objects, True, go(p.cont))
            objs = tuple(dst if o == src else o for o in p.objects)
            return In(subj, objs, False, go(p.cont))
        if isinstance(p, Repeat):
            return Repeat(go(p.body))
        if isinstance(p, Fusion):
            return Fusion(_subst_value(p.left, src, dst),
                          _subst_value(p.right, src, dst))
        raise TypeError(p)

    return go(p)


# ---------------------------------------------------------------------------
# Fusion environment: union-find over name ids with literal attachments


class FusionEnv:
    """Equivalence classes of names, each class optionally pinned to one
    literal value.  Mutates only through merge; confine to one VM."""

    def __init__(self):
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._attach: dict[int, Value] = {}  # root id -> literal
        self._names: dict[int, Name] = {}
        # (absorbed root, surviving root) per union, in order; a reader that
        # indexes by root (the VM's soup index) drains it
        self.union_log: list[tuple[int, int]] = []

    def copy(self) -> "FusionEnv":
        env = FusionEnv()
        env._parent = dict(self._parent)
        env._rank = dict(self._rank)
        env._attach = dict(self._attach)
        env._names = dict(self._names)
        env.union_log = list(self.union_log)
        return env

    def _find(self, nid: int) -> int:
        root = nid
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        # path compression does not change representatives
        while self._parent.get(nid, nid) != nid:
            self._parent[nid], nid = root, self._parent[nid]
        return root

    def representative(self, n: Name) -> int:
        return self._find(n.id)

    def attached_literal(self, n: Name) -> Optional[Value]:
        return self._attach.get(self._find(n.id))

    def class_display(self, n: Name) -> str:
        root = self._find(n.id)
        rep = self._names.get(root, n)
        return rep.display

    def _literals_equal(self, a: Value, b: Value) -> bool:
        return type(a) is type(b) and a == b

    def fused_equal(self, a: Value, b: Value) -> bool:
        if isinstance(a, NameRef) and isinstance(b, NameRef):
            return self._find(a.name.id) == self._find(b.name.id)
        if isinstance(a, NameRef):
            lit = self.attached_literal(a.name)
            return lit is not None and self._literals_equal(lit, b)
        if isinstance(b, NameRef):
            lit = self.attached_literal(b.name)
            return lit is not None and self._literals_equal(lit, a)
        return self._literals_equal(a, b)

    def merge(self, a: Value, b: Value) -> "FusionEnv":
        """Identify a and b.  Raises FusionClash when that would equate two
        distinct literals (directly or through class attachments)."""
        if isinstance(a, NameRef) and isinstance(b, NameRef):
            self._union(a.name, b.name)
            return self
        if isinstance(a, NameRef):
            self._attach_literal(a.name, b)
            return self
        if isinstance(b, NameRef):
            self._attach_literal(b.name, a)
            return self
        if not self._literals_equal(a, b):
            raise FusionClash(f"cannot fuse literals {a} and {b}")
        return self

    def _register(self, n: Name) -> None:
        if n.id not in self._names:
            self._names[n.id] = n

    def _union(self, x: Name, y: Name) -> None:
        self._register(x)
        self._register(y)
        rx, ry = self._find(x.id), self._find(y.id)
        if rx == ry:
            return
        ax, ay = self._attach.get(rx), self._attach.get(ry)
        if ax is not None and ay is not None and not self._literals_equal(ax, ay):
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

    def _attach_literal(self, n: Name, lit: Value) -> None:
        self._register(n)
        root = self._find(n.id)
        prev = self._attach.get(root)
        if prev is not None and not self._literals_equal(prev, lit):
            raise FusionClash(f"cannot fuse literals {prev} and {lit}")
        self._attach[root] = lit


def fused_equal(env: FusionEnv, a: Value, b: Value) -> bool:
    return env.fused_equal(a, b)


def merge(env: FusionEnv, a: Value, b: Value) -> FusionEnv:
    return env.merge(a, b)


# ---------------------------------------------------------------------------
# Structural congruence via canonical normal forms.
#
# Normal form of a scope: a binder block (order-insensitive) over a multiset
# of threads, where
#   * Par is flattened and Nil dropped (commutative monoid laws),
#   * binders are hoisted maximally (reverse scope extrusion; sound because
#     binder ids are globally unique), unused binders dropped,
#   * a top-level name-name fusion on a bound name is eliminated by
#     substitution, reflexive fusions drop,
#   * Repeat bodies are normalized but never unfolded.
# Two terms are congruent iff their normal forms serialize identically; the
# serialization numbers binders by nesting level so it is alpha-insensitive,
# sorts threads, and picks the lexicographically least binder-block order.

_MAX_PERMUTED_BINDERS = 7


def _nf(p: Process):
    """Process -> (binders, comps) scope normal form."""
    if isinstance(p, In) and p.binding:
        raise SurfaceFormError("binding input in core-form operation")
    binders: list[Name] = []
    comps: list = []
    _collect(p, binders, comps)
    return _fix_scope(binders, comps)


def _collect(p: Process, binders: list, comps: list) -> None:
    if isinstance(p, Nil):
        return
    if isinstance(p, Par):
        _collect(p.left, binders, comps)
        _collect(p.right, binders, comps)
        return
    if isinstance(p, New):
        binders.append(p.name)
        _collect(p.body, binders, comps)
        return
    if isinstance(p, Out):
        comps.append(("out", p.subject, p.objects, _nf(p.cont)))
        return
    if isinstance(p, In):
        if p.binding:
            raise SurfaceFormError("binding input in core-form operation")
        comps.append(("in", p.subject, p.objects, _nf(p.cont)))
        return
    if isinstance(p, Repeat):
        comps.append(("rep", _nf(p.body)))
        return
    if isinstance(p, Fusion):
        comps.append(("fus", p.left, p.right))
        return
    raise TypeError(p)


def _comp_names(c) -> set:
    """Free name ids of an NF component (binders inside already resolved)."""
    kind = c[0]
    if kind == "fus":
        return {v.name.id for v in (c[1], c[2]) if isinstance(v, NameRef)}
    if kind == "rep":
        return _scope_names(c[1])
    # out / in
    ids = {c[1].id}
    for v in c[2]:
        if isinstance(v, NameRef):
            ids.add(v.name.id)
        elif isinstance(v, Name):
            ids.add(v.id)
    return ids | _scope_names(c[3])


def _scope_names(scope) -> set:
    binders, comps = scope
    ids = set()
    for c in comps:
        ids |= _comp_names(c)
    return ids - {b.id for b in binders}


def _subst_comp(c, src: Name, dst: Name):
    kind = c[0]
    if kind == "fus":
        return ("fus", _subst_value(c[1], src, dst), _subst_value(c[2], src, dst))
    if kind == "rep":
        return ("rep", _subst_scope(c[1], src, dst))
    subj = dst if c[1] == src else c[1]
    if kind == "out":
        objs = tuple(_subst_value(v, src, dst) for v in c[2])
    else:
        objs = tuple(dst if n == src else n for n in c[2])
    return (kind, subj, objs, _subst_scope(c[3], src, dst))


def _subst_scope(scope, src: Name, dst: Name):
    binders, comps = scope
    if any(b == src for b in binders):
        return scope
    return _fix_scope(list(binders), [_subst_comp(c, src, dst) for c in comps])


def _values_equal(a: Value, b: Value) -> bool:
    if isinstance(a, NameRef) and isinstance(b, NameRef):
        return a.name == b.name
    return type(a) is type(b) and a == b


def _fix_scope(binders: list, comps: list):
    """Normalize a scope: flatten nested scopes were already avoided by
    construction; eliminate fusions on bound names, drop unused binders,
    drop reflexive fusions."""
    comps = list(comps)
    changed = True
    while changed:
        changed = False
        # reflexive fusions vanish
        kept = []
        for c in comps:
            if c[0] == "fus" and _values_equal(c[1], c[2]):
                changed = True
            else:
                kept.append(c)
        comps = kept
        # fusion on a bound name: substitute it away
        bound_ids = {b.id: b for b in binders}
        for i, c in enumerate(comps):
            if c[0] != "fus":
                continue
            a, b = c[1], c[2]
            if not (isinstance(a, NameRef) and isinstance(b, NameRef)):
                continue
            if a.name == b.name:
                continue
            src = dst = None
            if a.name.id in bound_ids:
                src, dst = a.name, b.name
            elif b.name.id in bound_ids:
                src, dst = b.name, a.name
            if src is None:
                continue
            rest = comps[:i] + comps[i + 1:]
            binders = [bb for bb in binders if bb != src]
            comps = [_subst_comp(cc, src, dst) for cc in rest]
            changed = True
            break
    used = set()
    for c in comps:
        used |= _comp_names(c)
    binders = [b for b in binders if b.id in used]
    return (tuple(binders), tuple(comps))


def _ser_comp(c, env: dict, depth: int) -> str:
    kind = c[0]
    if kind == "fus":
        toks = sorted((value_token(c[1], env), value_token(c[2], env)))
        return f"f({toks[0]},{toks[1]})"
    if kind == "rep":
        return f"r{_ser_scope(c[1], env, depth)}"
    subj = env.get(c[1].id, f"f{c[1].id}")
    if kind == "out":
        objs = ",".join(value_token(v, env) for v in c[2])
    else:
        objs = ",".join(env.get(n.id, f"f{n.id}") for n in c[2])
    tag = "o" if kind == "out" else "i"
    return f"{tag}({subj};{objs}){_ser_scope(c[3], env, depth)}"


def _ser_scope(scope, env: dict, depth: int) -> str:
    binders, comps = scope

    def body(order) -> str:
        env2 = dict(env)
        for i, b in enumerate(order):
            env2[b.id] = f"b{depth + i}"
        parts = sorted(_ser_comp(c, env2, depth + len(order)) for c in comps)
        return "{" + "|".join(parts) + "}"

    if not binders:
        return body(())
    if len(binders) <= _MAX_PERMUTED_BINDERS:
        best = min(body(perm) for perm in itertools.permutations(binders))
    else:
        # too many entangled binders for exact canonicalization: order by a
        # coarse signature (binders anonymized), exact within practical use
        sig_env = dict(env)
        for b in binders:
            sig_env[b.id] = "b?"
        keyed = sorted(binders, key=lambda b: (
            sorted(_ser_comp(c, sig_env, depth) for c in comps
                   if b.id in _comp_names(c)), b.id))
        best = body(tuple(keyed))
    return f"n{len(binders)}{best}"


def canonical_key(p: Process) -> str:
    """Serialization of the canonical normal form; equal keys <=> congruent."""
    return _ser_scope(_nf(p), {}, 0)


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence: Par monoid laws, binder swap and extrusion,
    unused/Nil restriction drop, fusion symmetry/reflexivity/elimination,
    alpha-conversion.  Repeat bodies are compared normalized, not unfolded."""
    return canonical_key(p) == canonical_key(q)


def par_all(threads: Iterable[Process]) -> Process:
    """Right-nested Par of the given threads (Nil when empty)."""
    threads = list(threads)
    if not threads:
        return NIL
    acc = threads[-1]
    for t in reversed(threads[:-1]):
        acc = Par(t, acc)
    return acc
