"""Term helpers that only the tests use: the free names of a process, the
largest name id of a process or program, a program with its ids renumbered,
a right-nested Par of a list of threads, the structural comparison of two
programs and XIR validation as diagnostics.  free_names and renumbered
recurse, so keep their inputs shallow."""

from __future__ import annotations

from typing import Iterable

from pichan.core import (NIL, ExternDecl, Fusion, In, MethodDecl, Name, New,
                         Nil, Out, Par, Process, Program, Record, Repeat,
                         Value, nodes)
from pichan.diag import Diagnostic
from pichan.xir import SchemaError, from_xml


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
            if isinstance(v, Name):
                names.add(v)
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
            if isinstance(v, Name):
                names.add(v)
        return names
    raise TypeError(p)


def name_scan(p: Process, names: dict | None = None) -> tuple[int, bool]:
    """The largest name id in p, binders included (at least -1), and
    whether p is in core form (no binding input remains).  When given,
    names receives every name in p, keyed by id."""
    names = {} if names is None else names
    core = True
    for p in nodes(p):
        kind = type(p)
        if kind is Out:
            names[p.subject.id] = p.subject
            for v in p.objects:
                if type(v) is Name:
                    names[v.id] = v
        elif kind is In:
            names[p.subject.id] = p.subject
            for n in p.objects:
                names[n.id] = n
            core = core and not p.binding
        elif kind is New:
            names[p.name.id] = p.name
        elif kind is Fusion:
            for v in (p.left, p.right):
                if type(v) is Name:
                    names[v.id] = v
    return max([-1, *names]), core


def program_scan(program: Program) -> tuple[int, bool]:
    """The largest name id in program, extern channels included (at least
    -1), and whether its main process is in core form."""
    top, core = name_scan(program.main)
    return max([top] + [n.id for d in program.externs
                        for n in d.channels()]), core


def renumbered(program: Program, new_id: dict) -> Program:
    """program with each name's id n, extern channels included, replaced
    by new_id[n]; displays, sorts and shape are kept."""
    def name(n: Name) -> Name:
        return Name(new_id[n.id], n.display)

    def value(v):
        return name(v) if isinstance(v, Name) else v

    def proc(p: Process) -> Process:
        if isinstance(p, Par):
            return Par(proc(p.left), proc(p.right))
        if isinstance(p, New):
            return New(name(p.name), proc(p.body))
        if isinstance(p, Out):
            return Out(name(p.subject), tuple(map(value, p.objects)),
                       proc(p.cont))
        if isinstance(p, In):
            return In(name(p.subject), tuple(map(name, p.objects)), p.binding,
                      proc(p.cont))
        if isinstance(p, Repeat):
            return Repeat(proc(p.body))
        if isinstance(p, Fusion):
            return Fusion(value(p.left), value(p.right))
        return p

    externs = tuple(ExternDecl(d.alias, d.class_name, tuple(
        MethodDecl(m.name, name(m.call_channel), m.param_sorts,
                   name(m.return_channel), m.return_payload, m.protocol)
        for m in d.methods)) for d in program.externs)
    return Program(externs, proc(program.main))


def par_all(threads: Iterable[Process]) -> Process:
    """Right-nested Par of the given threads (Nil when empty)."""
    threads = list(threads)
    if not threads:
        return NIL
    acc = threads[-1]
    for t in reversed(threads[:-1]):
        acc = Par(t, acc)
    return acc


_UNCOMPARED = {"span", "protocol"}  # MethodDecl.protocol: XIR drops it


def same_program(p, q) -> bool:
    """Whether p and q, two programs or two parts of programs, have the
    same classes and equal fields, spans and MethodDecl.protocol aside:
    names compare by id, values and sorts by their own equality.  An
    explicit stack, so width and depth are bounded by memory alone."""
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Record) and not isinstance(a, Value):
            if type(a) is not type(b):
                return False
            stack += ((getattr(a, f), getattr(b, f)) for f in a._fields
                      if f not in _UNCOMPARED)
        elif type(a) is tuple and type(b) is tuple:
            if len(a) != len(b):
                return False
            stack += zip(a, b)
        elif a != b:
            return False
    return True


def validate(document) -> list:
    """Diagnostics instead of exceptions; empty iff from_xml succeeds."""
    try:
        from_xml(document)
    except SchemaError as exc:
        return [Diagnostic("error", exc.code, str(exc))]
    return []
