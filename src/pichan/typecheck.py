"""Sort inference for channels and protocol checking for extern blocks.

Plain channels have no declaration syntax, so their sorts are inferred by
unification from use; extern channels get their sorts from the declaration.
Protocols on extern methods are restricted to the canonical call-then-return
cycle; anything else parses but is rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (BoolLit, Fusion, In, IntLit, NameRef, New, Out, Par,
                   Repeat, StrLit, UnitLit)
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
    """Deterministic automaton over channel names; state 0 is the start and
    every transition sequence loops back to it (protocols are recursive)."""

    num_states: int
    transitions: tuple  # tuple of (state, channel: str, payload: tuple, next_state)

    def transition_map(self) -> dict:
        """(state, channel) -> (payload, next state); built once, since the
        automaton is frozen.  Callers must not mutate it."""
        return self._transition_map

    @cached_property
    def _transition_map(self) -> dict:
        return {(s, c): (pl, t) for (s, c, pl, t) in self.transitions}

    def channels(self) -> set:
        return {c for (_, c, _, _) in self.transitions}


def canonical_protocol(call_channel: str, param_sorts: tuple,
                       return_channel: str, return_payload: tuple) -> ProtocolAutomaton:
    """The call-then-return two-state cycle."""
    return ProtocolAutomaton(2, (
        (0, call_channel, tuple(param_sorts), 1),
        (1, return_channel, tuple(return_payload), 0),
    ))


def automata_isomorphic(a: ProtocolAutomaton, b: ProtocolAutomaton) -> bool:
    """Start-preserving isomorphism on the reachable parts."""
    ta, tb = a.transition_map(), b.transition_map()
    mapping = {0: 0}
    rev = {0: 0}
    todo = [0]
    seen_a = set()
    while todo:
        sa = todo.pop()
        if sa in seen_a:
            continue
        seen_a.add(sa)
        sb = mapping[sa]
        outs_a = {c: v for (s, c), v in ta.items() if s == sa}
        outs_b = {c: v for (s, c), v in tb.items() if s == sb}
        if set(outs_a) != set(outs_b):
            return False
        for c, (pl_a, na) in outs_a.items():
            pl_b, nb = outs_b[c]
            if tuple(pl_a) != tuple(pl_b):
                return False
            if na in mapping:
                if mapping[na] != nb:
                    return False
            elif nb in rev:
                return False
            else:
                mapping[na] = nb
                rev[nb] = na
            todo.append(na)
    # all of b's reachable states must have been matched
    reach_b = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for (ss, _), (_, t) in tb.items():
            if ss == s and t not in reach_b:
                reach_b.add(t)
                frontier.append(t)
    return reach_b == set(rev)


# ---------------------------------------------------------------------------
# Sort checking (unification from use)


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

    def _show(self, t) -> str:
        t = self.resolve(t)
        if isinstance(t, tuple) and t[0] == "var":
            return "?"
        if isinstance(t, ChanSort):
            return "chan(" + ",".join(self._show(p) for p in t.payload) + ")"
        return str(t)

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
# Protocol schema check


def check_protocol_schema(decl) -> list:
    """Each method's automaton must be exactly the canonical call-then-return
    cycle (an omitted clause was already synthesized to it by the parser)."""
    diags = []
    for m in decl.methods:
        canon = canonical_protocol(m.call_channel.display, tuple(m.param_sorts),
                                   m.return_channel.display, tuple(m.return_payload))
        if not automata_isomorphic(m.protocol, canon):
            diags.append(Diagnostic(
                "error", "E-PROTO",
                f"protocol for method {m.name} of {decl.alias} is not the "
                f"canonical call-then-return cycle", m.span))
    return diags


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
    use of one block is downgraded to a warning; the runtime monitor is
    authoritative there, and each flat | chain warns once per alias."""
    table = extern_channel_table(program.externs)
    ret_chan = {}  # (alias, method) -> return channel display
    for d in program.externs:
        for m in d.methods:
            ret_chan[(d.alias, m.name)] = m.return_channel.display
    diags = []
    memo = {}  # id(subterm) -> frozenset of the aliases it uses

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
                got = frozenset(table[v.name.id][0] for v in (p.left, p.right)
                                if isinstance(v, NameRef) and v.name.id in table)
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
        # warned: aliases already reported higher up the same flat | chain
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
            sides = [v.name.id for v in (p.left, p.right)
                     if isinstance(v, NameRef) and v.name.id in table]
            if len(sides) == 2:
                diags.append(Diagnostic(
                    "error", "E-USE",
                    "fusing two extern channels would alias host endpoints",
                    p.span))

    walk(program.main, {})
    return diags
