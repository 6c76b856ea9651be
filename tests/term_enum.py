"""Exhaustive enumeration of small core process terms.

Size counts every AST node and every name/value occurrence (matching
pichan.core.process_size).  Subjects and fusion operands range over the
names in scope; restrictions bind fresh names that enter the scope.
Prefixes are nullary at these sizes, which keeps the universe at the scale
the exhaustive congruence comparison needs; the congruence axioms never
inspect payloads, so this loses no coverage.
"""

from __future__ import annotations

from pichan.core import (Fusion, In, NameRef, NameSupply, New, Nil, Out,
                         Par, Process, Repeat)


def enumerate_terms(free: list, max_size: int) -> list:
    """All core terms of process_size <= max_size over the given free
    names (plus any locally bound names)."""
    supply = NameSupply(max([-1] + [n.id for n in free]) + 1)
    out = []
    for size in range(1, max_size + 1):
        out.extend(_terms(size, tuple(free), supply))
    return out


def _terms(size: int, scope: tuple, supply: NameSupply) -> list:
    results = []
    if size == 1:
        results.append(Nil())
    if size == 3:
        for a in scope:
            for b in scope:
                results.append(Fusion(NameRef(a), NameRef(b)))
    if size >= 3:  # nullary prefixes: 2 + |cont|
        for cont in _terms(size - 2, scope, supply):
            for s in scope:
                results.append(Out(s, (), cont))
                results.append(In(s, (), False, cont))
    if size >= 2:  # repeat
        for body in _terms(size - 1, scope, supply):
            results.append(Repeat(body))
    if size >= 3:  # restriction: 2 + |body|
        fresh = supply.fresh("z")
        for body in _terms(size - 2, scope + (fresh,), supply):
            results.append(New(fresh, body))
    if size >= 3:  # parallel: 1 + |l| + |r|
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            # separate generator calls keep binder ids disjoint across the
            # two sides of every Par
            lefts = _terms(lsize, scope, supply)
            rights = _terms(rsize, scope, supply)
            for left in lefts:
                for right in rights:
                    results.append(Par(left, right))
    return results
