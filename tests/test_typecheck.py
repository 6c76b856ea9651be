"""Tests for sort inference, protocol schema checking and extern usage."""

import dataclasses
import itertools
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import Name
from pichan.parser import desugar, parse_program
from pichan.typecheck import (BOOL, INT, STR, ProtocolAutomaton,
                              canonical_protocol, check_extern_usage,
                              check_protocol_schema, check_sorts,
                              is_canonical)

from reference_protocol import (automata_isomorphic, canonical_by_isomorphism,
                                transition_map)
from test_parser import ACCOUNT_EXTERN

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _check(src):
    return check_sorts(desugar(parse_program(src)))


# ---------------------------------------------------------------------------
# check_sorts


def test_account_use_well_sorted():
    assert _check(ACCOUNT_EXTERN + "read!() | Ret2?(v).nil") == []


def test_ret2_arity_mismatch():
    diags = _check(ACCOUNT_EXTERN + "Ret2?(v, w).nil")
    assert any(d.code == "E-SORT" and "arity" in d.message for d in diags)


def test_ret2_literal_sort_mismatch():
    # Ret2 carries int; sending a string on it cannot sort-check
    diags = _check(ACCOUNT_EXTERN + 'Ret2!("oops")')
    assert any(d.code == "E-SORT" for d in diags)


def test_plain_channel_inference_consistent():
    assert _check("x!(1).nil | x?(v).(v=2)") == []


def test_plain_channel_inference_conflict():
    diags = _check('x!(1) | x!("s")')
    assert any(d.code == "E-SORT" for d in diags)


def test_fusion_sort_conflict():
    diags = _check("x!(1).nil | x?(v).(v=true)")
    assert any(d.code == "E-SORT" for d in diags)


def test_recursive_channel_sort_rejected():
    # a channel carrying itself forces an infinite sort
    diags = _check("x!(x)")
    assert any("recursive" in d.message for d in diags)


def test_arity_conflict_between_uses():
    diags = _check("x!(1,2) | x?(v).nil")
    assert any("arity" in d.message for d in diags)


def test_literal_swap_mutation_detected():
    # every literal position, when swapped to a different sort, must trip a
    # diagnostic in an otherwise well-sorted program
    good = 'x!(1, "a").nil | x?(v, w).(v=7 | w="b")'
    assert _check(good) == []
    for mutant in [
        'x!(true, "a").nil | x?(v, w).(v=7 | w="b")',
        'x!(1, 2).nil | x?(v, w).(v=7 | w="b")',
        'x!(1, "a").nil | x?(v, w).(v=unit | w="b")',
        'x!(1, "a").nil | x?(v, w).(v=7 | w=false)',
    ]:
        assert any(d.code == "E-SORT" for d in _check(mutant)), mutant


# ---------------------------------------------------------------------------
# protocol schema


def _decl(protocol_text):
    src = ("extern A -> class Account {\n"
           "  int read() { call read: void; return Ret2: int; }"
           f" acceded as {{{protocol_text}}}\n}}\nnil")
    return parse_program(src).externs[0]


def test_canonical_protocol_accepted():
    assert check_protocol_schema(_decl("rec S {read().Ret2(int).S}")) == []


def test_double_call_protocol_rejected():
    diags = check_protocol_schema(_decl("rec S {read().read().Ret2(int).S}"))
    assert len(diags) == 1 and diags[0].code == "E-PROTO"


def test_wrong_payload_protocol_rejected():
    diags = check_protocol_schema(_decl("rec S {read().Ret2(string).S}"))
    assert diags and diags[0].code == "E-PROTO"


def test_omitted_clause_synthesizes_canonical():
    src = ("extern A -> class Account {\n"
           "  void readn() { call readn: void; return Ret1: void; }\n"
           "}\nnil")
    d = parse_program(src).externs[0]
    assert check_protocol_schema(d) == []
    declared = _canonical("readn", (), "Ret1", ())
    assert d.methods[0].protocol == declared


def _canonical(call, params, ret, payload):
    return canonical_protocol(call, params, ret, payload)


def test_automata_isomorphic_relabeled_states():
    a = canonical_protocol("c", (INT,), "r", ())
    b = ProtocolAutomaton(2, ((0, "c", (INT,), 1), (1, "r", (), 0)))
    shifted = ProtocolAutomaton(3, ((0, "c", (INT,), 2), (2, "r", (), 0)))
    assert automata_isomorphic(a, b)
    # state 1 unreachable in `shifted`, reachable part identical
    assert automata_isomorphic(a, shifted)


def test_automata_not_isomorphic():
    a = canonical_protocol("c", (), "r", ())
    b = ProtocolAutomaton(2, ((0, "c", (), 1), (1, "c", (), 0)))
    assert not automata_isomorphic(a, b)


def enumerate_automata(channels, max_states):
    """Every total automaton with 1..max_states states where each state has
    an outgoing transition on a nonempty subset of the channels."""
    payload = {"c": (), "r": (INT,)}
    for n in range(1, max_states + 1):
        choices = []
        for _ in range(n):
            per_state = []
            for used in range(1, len(channels) + 1):
                for combo in itertools.combinations(channels, used):
                    for targets in itertools.product(range(n), repeat=used):
                        per_state.append(tuple(
                            (c, payload[c], t)
                            for c, t in zip(combo, targets)))
            choices.append(per_state)
        for assignment in itertools.product(*choices):
            transitions = []
            for s, outs in enumerate(assignment):
                for (c, pl, t) in outs:
                    transitions.append((s, c, pl, t))
            yield ProtocolAutomaton(n, tuple(transitions))


def test_schema_check_accepts_exactly_canonical_small():
    # sampled here; the exhaustive <=3-state sweep runs in the acceptance suite
    canon = canonical_protocol("c", (), "r", (INT,))
    hits = 0
    for auto in enumerate_automata(("c", "r"), 2):
        iso = automata_isomorphic(auto, canon)
        if iso:
            hits += 1
            tm = transition_map(auto)
            assert tm[(0, "c")][1] != 0  # call must leave the start state
    assert hits >= 1


def _method(auto):
    """Method c() -> int, call channel c and return channel r, with auto."""
    decl = parse_program("extern A -> class C {\n"
                         "  int c() { call c: void; return r: int; }\n"
                         "}\nnil").externs[0]
    return dataclasses.replace(decl.methods[0], protocol=auto)


def test_is_canonical_matches_isomorphism_reference():
    hits = 0
    for auto in enumerate_automata(("c", "r"), 3):
        m = _method(auto)
        assert is_canonical(m) == canonical_by_isomorphism(m), auto
        hits += is_canonical(m)
    assert hits >= 1


def test_is_canonical_checks_payloads_and_every_move():
    assert not is_canonical(_method(ProtocolAutomaton(
        2, ((0, "c", (INT,), 1), (1, "r", (INT,), 0)))))
    assert not is_canonical(_method(ProtocolAutomaton(
        2, ((0, "c", (), 1), (1, "r", (STR,), 0)))))
    # XIR may give the call and the return one display: a one-state loop
    # on it is not the two-state cycle
    m = dataclasses.replace(
        _method(ProtocolAutomaton(1, ((0, "c", (), 0),))), return_payload=(),
        return_channel=Name(99, "c"))
    assert not is_canonical(m) and not canonical_by_isomorphism(m)
    assert is_canonical(dataclasses.replace(m, protocol=ProtocolAutomaton(
        2, ((0, "c", (), 1), (1, "c", (), 0)))))
    # two moves on one channel: a (state, channel) map keeps the last one,
    # which makes the reference call this canonical
    auto = ProtocolAutomaton(2, ((0, "c", (), 0), (0, "c", (), 1),
                                 (1, "r", (INT,), 0)))
    assert canonical_by_isomorphism(_method(auto))
    assert not is_canonical(_method(auto))


# ---------------------------------------------------------------------------
# extern usage


def _usage(src):
    return check_extern_usage(desugar(parse_program(src)))


def test_canonical_usage_clean():
    assert _usage(ACCOUNT_EXTERN + "read!().Ret2?(v).nil") == []


def test_double_call_usage_rejected():
    diags = _usage(ACCOUNT_EXTERN + "read!().read!().Ret2?(v).nil")
    assert any(d.code == "E-USE" for d in diags)


def test_call_then_wrong_return_rejected():
    diags = _usage(ACCOUNT_EXTERN + "read!().Ret1?().nil")
    assert any(d.code == "E-USE" for d in diags)


def test_parallel_use_is_warning():
    diags = _usage(ACCOUNT_EXTERN
                   + "(read!().Ret2?(v).nil) | (read!().Ret2?(w).nil)")
    assert [d.code for d in diags] == ["W-PAR"]
    assert all(d.severity == "warning" for d in diags)


COUNTER_EXTERN = """
extern K -> class Counter {
  int inc() {
    call inc: void;
    return IncRet: int;
  }
}
"""


def test_flat_par_chain_warns_once_per_alias():
    worker = "read!().Ret2?(v).nil"
    diags = _usage(ACCOUNT_EXTERN + " | ".join([worker] * 40))
    assert [d.code for d in diags] == ["W-PAR"]
    both = worker + " | inc!().IncRet?(a).nil"
    diags = _usage(ACCOUNT_EXTERN + COUNTER_EXTERN + " | ".join([both] * 20))
    assert sorted(d.message.split()[2] for d in diags) == ["FClass", "K"]


def test_account_sample_warns_once_at_its_par():
    program = parse_program((SAMPLES / "account.pi").read_text(),
                            "account.pi")
    diags = check_extern_usage(desugar(program))
    assert [(d.code, d.span.line, d.span.column) for d in diags] == [
        ("W-PAR", 18, 9)]


def test_fusing_two_extern_channels_rejected():
    diags = _usage(ACCOUNT_EXTERN + "read=readn")
    assert any(d.code == "E-USE" and "alias" in d.message for d in diags)


def test_fusing_plain_name_with_extern_return_allowed():
    # aliasing delivery through a plain name is not an error (the parallel
    # composition still draws the conservative W-PAR warning)
    diags = _usage(ACCOUNT_EXTERN + "a=Ret2 | read!().Ret2?(v).nil")
    assert all(d.severity == "warning" for d in diags)


def test_interleaved_plain_actions_allowed():
    # a non-extern action between call and return is fine: the walk only
    # constrains the next action on that extern block
    assert _usage(ACCOUNT_EXTERN + "read!().x!(1).Ret2?(v).nil") == []


def test_usage_two_methods_independent():
    assert _usage(ACCOUNT_EXTERN + "readn!().Ret1?().read!().Ret2?(v).nil") == []


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_clean_sequential_usage_never_warns(seed):
    # canonical call/return chains of random length always pass
    rng = random.Random(seed)
    chain = "nil"
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            chain = f"readn!().Ret1?().{chain}"
        else:
            chain = f"read!().Ret2?(v{rng.randint(0, 99)}).{chain}"
    assert _usage(ACCOUNT_EXTERN + chain) == []
