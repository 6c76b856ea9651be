"""Term helpers that only the tests use: the free names of a process and a
right-nested Par of a list of threads.  free_names recurses, so keep its
inputs shallow."""

from __future__ import annotations

from typing import Iterable

from pichan.core import (NIL, Fusion, In, NameRef, New, Nil, Out, Par,
                         Process, Repeat)


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


def par_all(threads: Iterable[Process]) -> Process:
    """Right-nested Par of the given threads (Nil when empty)."""
    threads = list(threads)
    if not threads:
        return NIL
    acc = threads[-1]
    for t in reversed(threads[:-1]):
        acc = Par(t, acc)
    return acc
