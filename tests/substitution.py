"""Capture-avoiding substitution, kept for the tests: the axiom oracle
states fusion elimination with it, the reference front end desugars with
it, and materialize rebuilds the term a VM thread stands for.  The VM itself
never substitutes; a thread there is a code node plus an environment from
binder ids to run-time names.
"""

from __future__ import annotations

from typing import Optional

from pichan.core import (Fusion, In, Name, NameSupply, New, Nil, Out, Par,
                         Process, Repeat)

from congruence import _subst_value
from terms import name_scan


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
                fresh = supply.fresh(p.name.display)
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
                            fresh = supply.fresh(o.display)
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


def materialize(p: Process, env: dict) -> Process:
    """The term a thread (code node p, environment env) stands for: every
    free occurrence of a bound id replaced by its run-time name."""
    for bid, name in env.items():
        p = substitute(p, Name(bid, name.display), name)
    return p


def soup(m) -> list:
    """A machine's threads as terms, in soup order."""
    return [materialize(t, env) for t, env in zip(m.threads, m.envs)]
