"""Sort inference for channels and protocol checking for extern blocks.

Plain channels have no declaration syntax, so their sorts are inferred by
unification from use; extern channels get their sorts from the declaration.
Protocols on extern methods are restricted to the canonical call-then-return
cycle; anything else parses but is rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (BoolLit, Fusion, In, IntLit, NameRef, New, Out, Par,
                   Repeat, StrLit, UnitLit, nodes)
from .diag import Diagnostic

# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class BaseSort:
    name: str

    def __str__(self):
        return self.name


INT = BaseSort("int")
STR = BaseSort("string")
BOOL = BaseSort("bool")
UNIT = BaseSort("unit")

_BASE_BY_NAME = {"int": INT, "string": STR, "bool": BOOL, "unit": UNIT}


@dataclass(frozen=True)
class ChanSort:
    payload: tuple  # tuple of Sorts

    def __str__(self):
        return "chan(" + ",".join(str(s) for s in self.payload) + ")"


def base_sort(name: str) -> Optional[BaseSort]:
    return _BASE_BY_NAME.get(name)


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


# ---------------------------------------------------------------------------
# Protocol automata


@dataclass(frozen=True)
class ProtocolAutomaton:
    """Automaton over channel names; state 0 is the start and every
    transition sequence loops back to it (protocols are recursive)."""

    num_states: int
    transitions: tuple  # tuple of (state, channel: str, payload: tuple, next_state)


def canonical_protocol(call_channel: str, param_sorts: tuple,
                       return_channel: str, return_payload: tuple) -> ProtocolAutomaton:
    """The call-then-return two-state cycle."""
    return ProtocolAutomaton(2, (
        (0, call_channel, tuple(param_sorts), 1),
        (1, return_channel, tuple(return_payload), 0),
    ))


def is_canonical(method) -> bool:
    """Whether the part of method's protocol reachable from state 0 is the
    call-then-return cycle: the start's one transition is the call, to
    another state whose one transition is the return, back to the start."""
    def moves(state):
        return [(c, tuple(pl), t) for (s, c, pl, t) in method.protocol.transitions
                if s == state]
    start = moves(0)
    if len(start) != 1 or start[0][:2] != (method.call_channel.display,
                                           tuple(method.param_sorts)):
        return False
    mid = start[0][2]
    return mid != 0 and moves(mid) == [(method.return_channel.display,
                                        tuple(method.return_payload), 0)]


# ---------------------------------------------------------------------------
# Sort checking (unification from use)


def _is_var(t) -> bool:
    return type(t) is tuple and t[0] == "var"


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
        """The end of t's variable chain, now bound to each var on it."""
        chain = []
        while _is_var(t) and t[1] in self.binding:
            chain.append(t[1])
            t = self.binding[t[1]]
        for key in chain:
            self.binding[key] = t
        return t

    def _occurs(self, key, t) -> bool:
        stack = [t]
        while stack:
            t = self.resolve(stack.pop())
            if t == ("var", key):
                return True
            if type(t) is ChanSort:
                stack += t.payload
        return False

    def unify(self, t1, t2, span, what: str) -> None:
        """Pairs are unified depth first, left to right, from a stack."""
        stack = [(t1, t2)]
        while stack:
            t1, t2 = stack.pop()
            t1, t2 = self.resolve(t1), self.resolve(t2)
            if t1 == t2:
                continue
            if _is_var(t2) and not _is_var(t1):
                t1, t2 = t2, t1  # bind the variable, on whichever side
            if _is_var(t1):
                if self._occurs(t1[1], t2):
                    self._err(span, f"recursive channel sort required by {what}")
                else:
                    self.binding[t1[1]] = t2
            elif type(t1) is ChanSort and type(t2) is ChanSort:
                if len(t1.payload) != len(t2.payload):
                    self._err(span, f"arity mismatch in {what}: "
                              f"{len(t1.payload)} vs {len(t2.payload)}")
                else:
                    stack += reversed(list(zip(t1.payload, t2.payload)))
            else:
                self._err(span, f"sort mismatch in {what}: "
                          f"{self._show(t1)} vs {self._show(t2)}")

    def _show(self, t) -> str:
        out, stack = [], [t]
        while stack:
            t = self.resolve(stack.pop())  # punctuation resolves to itself
            if type(t) is ChanSort:
                out.append("chan(")
                parts = [x for p in t.payload for x in (",", p)][1:]
                stack += (")", *reversed(parts))
            else:
                out.append("?" if _is_var(t) else str(t))
        return "".join(out)

    def _err(self, span, msg: str) -> None:
        self.diags.append(Diagnostic("error", "E-SORT", msg, span))


def _decl_channel_sorts(decl) -> dict:
    """Extern channel name id -> declared ChanSort."""
    sorts = {}
    for m in decl.methods:
        sorts[m.call_channel.id] = ChanSort(tuple(m.param_sorts))
        sorts[m.return_channel.id] = ChanSort(tuple(m.return_payload))
    return sorts


def check_sorts(program) -> list:
    """Infer channel sorts by unification; report E-SORT diagnostics for
    arity or payload mismatches anywhere in the program."""
    uni = _Unifier()
    for d in program.externs:
        for nid, sort in _decl_channel_sorts(d).items():
            uni.binding[("n", nid)] = sort

    def value_term(v):
        if isinstance(v, NameRef):
            return uni.name_var(v.name)
        return literal_sort(v)

    for p in nodes(program.main):  # pre-order: the order of the diagnostics
        kind = type(p)
        if kind is Out or kind is In:
            role = "output" if kind is Out else "input"
            term = value_term if kind is Out else uni.name_var
            slots = [uni.fresh_var() for _ in p.objects]
            uni.unify(uni.name_var(p.subject), ChanSort(tuple(slots)),
                      p.span, f"{role} on {p.subject.display}")
            for slot, v in zip(slots, p.objects):
                uni.unify(slot, term(v), p.span,
                          f"{role} payload on {p.subject.display}")
        elif kind is Fusion:
            uni.unify(value_term(p.left), value_term(p.right), p.span, "fusion")
    return uni.diags


# ---------------------------------------------------------------------------
# Protocol schema check


def check_protocol_schema(decl) -> list:
    """Each method's automaton must be the canonical call-then-return cycle
    (an omitted clause was already synthesized to it by the parser)."""
    return [Diagnostic("error", "E-PROTO",
                       f"protocol for method {m.name} of {decl.alias} is not "
                       f"the canonical call-then-return cycle", m.span)
            for m in decl.methods if not is_canonical(m)]


# ---------------------------------------------------------------------------
# Static extern-usage check


def extern_channel_table(externs) -> dict:
    """Name id -> (alias, role 'call'|'ret', method name) for extern channels."""
    table = {}
    for d in externs:
        for m in d.methods:
            table[m.call_channel.id] = (d.alias, "call", m.name)
            table[m.return_channel.id] = (d.alias, "ret", m.name)
    return table


def check_extern_usage(program) -> list:
    """Conservative per-thread walk: after a call the same thread's next
    action on that extern block must be the paired return input.  Parallel
    use of one block is downgraded to a warning, as the VM lets a call wait
    while its endpoint has a staged return; each flat | chain warns once per
    alias."""
    table = extern_channel_table(program.externs)
    ret_chan = {}  # (alias, method) -> return channel display
    for d in program.externs:
        for m in d.methods:
            ret_chan[(d.alias, m.name)] = m.return_channel.display
    diags = []
    used = {}  # id(subterm) -> frozenset of the aliases it uses
    for p in reversed(nodes(program.main)):  # every node after its children
        kind = type(p)
        if kind is Par:
            got = used[id(p.left)] | used[id(p.right)]
        elif kind is New or kind is Repeat:
            got = used[id(p.body)]
        elif kind is Out or kind is In:
            got = used[id(p.cont)]
            if p.subject.id in table:
                got = got | {table[p.subject.id][0]}
        elif kind is Fusion:
            got = frozenset(table[v.name.id][0] for v in (p.left, p.right)
                            if isinstance(v, NameRef) and v.name.id in table)
        else:
            got = frozenset()
        used[id(p)] = got

    def violation(span, alias, method, action):
        diags.append(Diagnostic(
            "error", "E-USE",
            f"call to {method} on {alias} must be followed by input on "
            f"{ret_chan[(alias, method)]}, found {action}", span))

    # (node, alias -> method awaiting its return, aliases already reported
    # higher up the same flat | chain); pending is never changed in place
    stack = [(program.main, {}, frozenset())]
    while stack:
        p, pending, warned = stack.pop()
        kind = type(p)
        if kind is Par:
            shared = used[id(p.left)] & used[id(p.right)]
            for alias in sorted(shared - warned):
                diags.append(Diagnostic(
                    "warning", "W-PAR",
                    f"extern block {alias} used from parallel branches; "
                    f"protocol order enforced at run time", p.span))
            warned = warned | shared
            stack += ((p.right, pending, warned), (p.left, pending, warned))
        elif kind is New or kind is Repeat:
            stack.append((p.body, pending, frozenset()))
        elif kind is Out or kind is In:
            info = table.get(p.subject.id)
            if info is not None:
                alias, role, method = info
                want = pending.get(alias)
                if kind is In and want and role == "ret" and method == want:
                    pending = {**pending, alias: None}
                elif want:
                    action = "output" if kind is Out else "input"
                    violation(p.span, alias, want, f"{action} on {p.subject.display}")
                elif kind is Out and role == "call":
                    pending = {**pending, alias: method}
            stack.append((p.cont, pending, frozenset()))
        elif kind is Fusion:
            sides = [v.name.id for v in (p.left, p.right)
                     if isinstance(v, NameRef) and v.name.id in table]
            if len(sides) == 2:
                diags.append(Diagnostic(
                    "error", "E-USE",
                    "fusing two extern channels would alias host endpoints",
                    p.span))
    return diags
