"""Structural congruence, decided by canonical normal forms.

The congruence tests and acceptance criterion 3 compare this procedure with
the axiom oracle in axiom_oracle.py; no pichan command needs it.
"""

from __future__ import annotations

from typing import Optional

from pichan.core import (BoolLit, Fusion, In, IntLit, Name, New, Nil, Out, Par,
                         Process, Repeat, StrLit, SurfaceFormError, Value)


def value_token(v: Name | Value, env: Optional[dict] = None) -> str:
    """Stable textual token for a value; bound names render via env."""
    if isinstance(v, Name):
        if env is not None and v.id in env:
            return env[v.id]
        return f"f{v.id}"
    if isinstance(v, IntLit):
        return f"i{v.value}"
    if isinstance(v, StrLit):
        return "s" + repr(v.value)
    if isinstance(v, BoolLit):
        return "b1" if v.value else "b0"
    return "u"


def _subst_value(v: Name | Value, src: Name, dst: Name) -> Name | Value:
    if isinstance(v, Name) and v == src:
        return dst
    return v


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
# serialization numbers binders by nesting level so it is alpha-insensitive
# and sorts threads.  A binder block's order comes from colour refinement and
# individualization (McKay & Piperno, "Practical graph isomorphism, II",
# J. Symb. Comput. 2014): the key is the least serialization over the leaves
# of the search tree, which depends on the term alone.


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
        return {v.id for v in (c[1], c[2]) if isinstance(v, Name)}
    if kind == "rep":
        return _scope_names(c[1])
    # out / in
    ids = {c[1].id}
    for v in c[2]:
        if isinstance(v, Name):
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


def _values_equal(a: Name | Value, b: Name | Value) -> bool:
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
            if not (isinstance(a, Name) and isinstance(b, Name)):
                continue
            if a == b:
                continue
            src = dst = None
            if a.id in bound_ids:
                src, dst = a, b
            elif b.id in bound_ids:
                src, dst = b, a
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
    # a hand-built term may list one binder twice; the search takes it once
    unique = list({b.id: b for b in binders}.values())
    inner = depth + len(unique)

    def body(order) -> str:
        env2 = dict(env)
        for i, b in enumerate(order):
            env2[b.id] = f"b{depth + i}"
        parts = sorted(_ser_comp(c, env2, inner) for c in comps)
        return "{" + "|".join(parts) + "}"

    if not binders:
        return body(())
    uses = {b.id: [c for c in comps if b.id in _comp_names(c)] for b in unique}

    def refine(colour: dict) -> dict:
        """Split colour classes until none splits.  A binder's signature is
        its colour and the sorted serializations of its components, with
        itself marked and every other binder shown by its colour."""
        while len(set(colour.values())) < len(unique):
            shown = dict(env)
            shown.update((i, f"c{depth}.{k}") for i, k in colour.items())
            sigs = {}
            for b in unique:
                shown[b.id] = f"*{depth}"
                sigs[b.id] = (colour[b.id], tuple(sorted(
                    _ser_comp(c, shown, inner) for c in uses[b.id])))
                shown[b.id] = f"c{depth}.{colour[b.id]}"
            ranks = {sig: k for k, sig in enumerate(sorted(set(sigs.values())))}
            if len(ranks) == len(set(colour.values())):
                break
            colour = {i: ranks[sig] for i, sig in sigs.items()}
        return colour

    leaves = []

    def search(colour: dict) -> None:
        """Individualize each binder of the first smallest non-singleton
        cell in turn, then refine again; a leaf orders binders by colour."""
        colour = refine(colour)
        order = sorted(unique, key=lambda b: colour[b.id])
        cells = {}
        for b in order:
            cells.setdefault(colour[b.id], []).append(b)
        if len(cells) == len(unique):
            leaves.append(body(order))
            return
        cell = min((c for c in cells.values() if len(c) > 1), key=len)
        here, tried = body(unique), []
        for b in cell:
            # a transposition with a binder already tried that leaves the
            # scope as it is maps that binder's subtree onto b's
            if any(body([b if x is a else a if x is b else x
                         for x in unique]) == here for a in tried):
                continue
            tried.append(b)
            search({i: 2 * k + (i != b.id) for i, k in colour.items()})

    search({b.id: 0 for b in unique})
    return f"n{len(binders)}{min(leaves)}"


def canonical_key(p: Process) -> str:
    """Serialization of the canonical normal form; equal keys <=> congruent."""
    return _ser_scope(_nf(p), {}, 0)


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence: Par monoid laws, binder swap and extrusion,
    unused/Nil restriction drop, fusion symmetry/reflexivity/elimination,
    alpha-conversion.  Repeat bodies are compared normalized, not unfolded."""
    return canonical_key(p) == canonical_key(q)
