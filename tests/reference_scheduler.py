"""Reference redex enumeration: the original scan of every ordered pair of
threads with FusionEnv.fused_equal.  Slow but obviously faithful to the
semantics; test_vm checks Machine.enumerate_redexes against it at every
step of seeded runs.  It reads the soup as terms, each thread's code node
with its environment substituted in (substitution.soup)."""

from __future__ import annotations

from typing import Optional

from pichan.core import Fusion, In, New, Out, Par, Repeat
from pichan.vm import Machine

from substitution import soup


def _endpoint_for_call(m: Machine, subject) -> Optional[tuple]:
    for alias in m.endpoints:
        ep = m.endpoints[alias]
        for meth in ep.decl.methods:
            if m.env.fused_equal(subject, meth.call_channel):
                return alias, meth
    return None


def _pending_return_match(m: Machine, thread: In) -> Optional[str]:
    for alias in m.endpoints:
        ep = m.endpoints[alias]
        if ep.pending is None:
            continue
        meth = ep.method(ep.pending[0])
        if (m.env.fused_equal(thread.subject, meth.return_channel)
                and len(thread.objects) == len(meth.return_payload)):
            return alias
    return None


def _top_actions(p) -> list:
    """The Out/In prefixes at the top level of a term, through Par and
    New, left to right."""
    if isinstance(p, Par):
        return _top_actions(p.left) + _top_actions(p.right)
    if isinstance(p, New):
        return _top_actions(p.body)
    return [p] if isinstance(p, (Out, In)) else []


def _unfold_wanted(m: Machine, threads: list, body) -> bool:
    actions = _top_actions(body)
    if not actions:
        return False
    soup_actions = [t for t in threads if isinstance(t, (Out, In))]
    pool = soup_actions + actions
    for a in actions:
        if isinstance(a, Out):
            if _endpoint_for_call(m, a.subject) is not None:
                return True
        else:
            if _pending_return_match(m, a) is not None:
                return True
        for b in pool:
            if a is b or isinstance(a, type(b)):
                continue
            if (len(a.objects) == len(b.objects)
                    and m.env.fused_equal(a.subject, b.subject)):
                return True
    return False


def redex_key(r) -> tuple:
    order = {"comm": 0, "fusion": 1, "unfold": 2, "host-call": 3,
             "host-return": 4}
    second = r[2] if len(r) > 2 and isinstance(r[2], int) else -1
    return (r[1], order[r[0]], second)


def enumerate_redexes(m: Machine, strict: bool = True) -> list:
    redexes = []
    threads = soup(m)
    repeats = []
    for i, t in enumerate(threads):
        if isinstance(t, Fusion):
            redexes.append(("fusion", i))
        elif isinstance(t, Repeat):
            repeats.append(i)
        elif isinstance(t, Out):
            hit = _endpoint_for_call(m, t.subject)
            if hit is not None:
                alias, meth = hit
                ep = m.endpoints[alias]
                if not strict or ep.pending is None:
                    redexes.append(("host-call", i, alias, meth.name))
        elif isinstance(t, In):
            alias = _pending_return_match(m, t)
            if alias is not None:
                redexes.append(("host-return", i, alias))
    for i, a in enumerate(threads):
        for j, b in enumerate(threads):
            if i == j:
                continue
            if isinstance(a, Out) and isinstance(b, In):
                if (len(a.objects) == len(b.objects)
                        and m.env.fused_equal(a.subject, b.subject)):
                    redexes.append(("comm", i, j))
    for i in repeats:
        if _unfold_wanted(m, threads, threads[i].body):
            redexes.append(("unfold", i))
    if not redexes:
        redexes = [("unfold", i) for i in repeats]
    redexes.sort(key=redex_key)
    return redexes
