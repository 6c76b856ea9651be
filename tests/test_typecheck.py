"""Tests for sort inference, protocol schema checking and extern usage."""

import itertools
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.parser import desugar, parse_program
from pichan.typecheck import (check_extern_usage, check_protocol_schema,
                              check_sorts)

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


def test_omitted_clause_is_canonical():
    src = ("extern A -> class Account {\n"
           "  void readn() { call readn: void; return Ret1: void; }\n"
           "}\nnil")
    d = parse_program(src).externs[0]
    assert d.methods[0].protocol is None
    assert check_protocol_schema(d) == []


def test_schema_check_accepts_exactly_canonical_small():
    # sampled here; every clause of 1-3 steps runs in the acceptance suite
    steps = ["read()", "read(int)", "Ret2()", "Ret2(int)"]
    accepted = [body for n in (1, 2) for body in itertools.product(steps, repeat=n)
                if check_protocol_schema(_decl(f"rec S {{{'.'.join(body)}.S}}")) == []]
    assert accepted == [("read()", "Ret2(int)")]


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
