"""The general protocol-automaton isomorphism that `typecheck.is_canonical`
replaced: a start-preserving isomorphism on the reachable parts of two
deterministic automata.  A method's protocol is canonical iff it is
isomorphic to `canonical_protocol` of the method's channels and sorts;
the tests check `is_canonical`, `check_protocol_schema` and the XIR
reader against it."""

from __future__ import annotations

from pichan.typecheck import ProtocolAutomaton, canonical_protocol


def transition_map(a: ProtocolAutomaton) -> dict:
    """(state, channel) -> (payload, next state)."""
    return {(s, c): (pl, t) for (s, c, pl, t) in a.transitions}


def automata_isomorphic(a: ProtocolAutomaton, b: ProtocolAutomaton) -> bool:
    """Start-preserving isomorphism on the reachable parts."""
    ta, tb = transition_map(a), transition_map(b)
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


def canonical_by_isomorphism(method) -> bool:
    """Whether method's protocol is isomorphic to its canonical cycle."""
    return automata_isomorphic(method.protocol, canonical_protocol(
        method.call_channel.display, method.param_sorts,
        method.return_channel.display, method.return_payload))
