"""Independent brute-force oracle for structural congruence.

Applies the primitive congruence axioms as local rewrites at every position
and computes equivalence classes as connected components of the rewrite
graph over alpha-canonical term keys.  Independent of the
canonical-normal-form decision procedure in congruence.py (it never calls
canonical_key); the only shared helpers are value_token, the text of one
value, and capture-avoiding substitution, which the fusion-elimination
axiom itself is stated with.

The replication unfolding law is deliberately NOT part of this axiom set:
unfolding is a reduction-level law, and including it would equate terms
like ``P | repeat P`` with ``repeat P`` which the decision procedure (by
design) keeps apart.
"""

from __future__ import annotations

from pichan.core import (Fusion, In, Name, NameSupply, New, Nil, Out, Par,
                         Process, Repeat, process_size)

from congruence import value_token
from substitution import substitute
from terms import free_names, name_scan

NIL = Nil()


def alpha_key(p: Process, env=None, depth: int = 0) -> str:
    """Structural serialization, binders numbered by nesting level."""
    env = env or {}
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        return f"({alpha_key(p.left, env, depth)}|{alpha_key(p.right, env, depth)})"
    if isinstance(p, New):
        env2 = dict(env)
        env2[p.name.id] = f"b{depth}"
        return f"n[{alpha_key(p.body, env2, depth + 1)}]"
    if isinstance(p, Out):
        objs = ",".join(value_token(v, env) for v in p.objects)
        subj = env.get(p.subject.id, f"f{p.subject.id}")
        return f"o({subj};{objs}).{alpha_key(p.cont, env, depth)}"
    if isinstance(p, In):
        objs = ",".join(env.get(n.id, f"f{n.id}") for n in p.objects)
        subj = env.get(p.subject.id, f"f{p.subject.id}")
        return f"i({subj};{objs}).{alpha_key(p.cont, env, depth)}"
    if isinstance(p, Repeat):
        return f"r[{alpha_key(p.body, env, depth)}]"
    if isinstance(p, Fusion):
        return f"f({value_token(p.left, env)},{value_token(p.right, env)})"
    raise TypeError(p)


def _values_equal(a, b) -> bool:
    return type(a) is type(b) and a == b


def _local_rewrites(p: Process, supply: NameSupply) -> list:
    out = []
    if isinstance(p, Par):
        out.append(Par(p.right, p.left))  # commutativity
        if isinstance(p.left, Par):  # associativity
            out.append(Par(p.left.left, Par(p.left.right, p.right)))
        if isinstance(p.right, Par):
            out.append(Par(Par(p.left, p.right.left), p.right.right))
        if isinstance(p.right, Nil):  # unit elimination
            out.append(p.left)
        if isinstance(p.left, Nil):
            out.append(p.right)
        # reverse scope extrusion (widening is capture-free: binder ids unique)
        if isinstance(p.right, New) and p.right.name not in free_names(p.left):
            out.append(New(p.right.name, Par(p.left, p.right.body)))
        if isinstance(p.left, New) and p.left.name not in free_names(p.right):
            out.append(New(p.left.name, Par(p.left.body, p.right)))
    if isinstance(p, New):
        if isinstance(p.body, Nil):
            out.append(NIL)
        if isinstance(p.body, New):  # binder swap
            out.append(New(p.body.name, New(p.name, p.body.body)))
        if isinstance(p.body, Par):  # scope extrusion
            if p.name not in free_names(p.body.left):
                out.append(Par(p.body.left, New(p.name, p.body.right)))
            if p.name not in free_names(p.body.right):
                out.append(Par(New(p.name, p.body.left), p.body.right))
        # fusion elimination: (new x)(x=y | P) == P{y/x}
        fus, rest = None, None
        if isinstance(p.body, Fusion):
            fus, rest = p.body, NIL
        elif isinstance(p.body, Par) and isinstance(p.body.left, Fusion):
            fus, rest = p.body.left, p.body.right
        if fus is not None and type(fus.left) is Name \
                and type(fus.right) is Name:
            a, b = fus.left, fus.right
            if a != b:
                if a == p.name:
                    out.append(substitute(rest, a, b, supply))
                elif b == p.name:
                    out.append(substitute(rest, b, a, supply))
    if isinstance(p, Fusion):
        out.append(Fusion(p.right, p.left))  # symmetry
        if _values_equal(p.left, p.right):
            out.append(NIL)  # reflexivity
    # unit introduction applies at every position
    out.append(Par(p, NIL))
    return out


def neighbors(p: Process, supply: NameSupply) -> list:
    """All single-axiom rewrites of p, at any position."""
    results = list(_local_rewrites(p, supply))
    if isinstance(p, Par):
        results += [Par(q, p.right) for q in neighbors(p.left, supply)]
        results += [Par(p.left, q) for q in neighbors(p.right, supply)]
    elif isinstance(p, New):
        results += [New(p.name, q) for q in neighbors(p.body, supply)]
    elif isinstance(p, Out):
        results += [Out(p.subject, p.objects, q)
                    for q in neighbors(p.cont, supply)]
    elif isinstance(p, In):
        results += [In(p.subject, p.objects, p.binding, q)
                    for q in neighbors(p.cont, supply)]
    elif isinstance(p, Repeat):
        results += [Repeat(q) for q in neighbors(p.body, supply)]
    return results


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, key):
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def closure_components(terms: list, size_cap: int) -> UnionFind:
    """BFS closure of the rewrite relation over all given terms, bounded by
    size_cap on intermediate terms; returns the union-find of alpha keys."""
    supply = NameSupply(max([-1] + [name_scan(t)[0] for t in terms]) + 1)
    uf = UnionFind()
    seen = {}
    frontier = []
    for t in terms:
        key = alpha_key(t)
        if key not in seen:
            seen[key] = t
            frontier.append(t)
        uf.find(key)
    while frontier:
        t = frontier.pop()
        key = alpha_key(t)
        for q in neighbors(t, supply):
            qkey = alpha_key(q)
            uf.union(key, qkey)
            if qkey not in seen and process_size(q) <= size_cap:
                seen[qkey] = q
                frontier.append(q)
    return uf
