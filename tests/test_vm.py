"""Tests for redex enumeration, stepping, traces and determinism."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (Fusion, FusionClash, In, IntLit, NameRef, NameSupply,
                         New, Nil, Out, Par, Repeat, congruent)
from pichan.interop import (HostFault, ProtocolViolation, UngroundArgument,
                            build_std_registry)
from pichan.parser import Program, desugar, parse_program
from pichan.vm import (DEFAULT_MAX_STEPS, Machine, NotStuck, Xorshift64Star,
                       detect_stuck, explore_runs, run, step)
from pichan.xir import from_xml, to_xml

import golden_traces
import reference_scheduler
from randgen import gen_program
from test_parser import ACCOUNT_EXTERN

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _machine(src):
    program = parse_program(src)
    return Machine.initialize(program, build_std_registry())


# ---------------------------------------------------------------------------
# PRNG


def test_prng_deterministic_and_nonzero():
    a, b = Xorshift64Star(7), Xorshift64Star(7)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]
    assert Xorshift64Star(0).state != 0


def test_prng_below_range():
    rng = Xorshift64Star(3)
    assert all(0 <= rng.below(5) < 5 for _ in range(100))


# ---------------------------------------------------------------------------
# enumerate_redexes


def test_enumerate_direct_comm():
    m = _machine("x!(a) | x?<v>")
    assert m.enumerate_redexes() == [("comm", 0, 1)]


def test_enumerate_no_match_on_distinct_subjects():
    m = _machine("x!(a) | y?<v>")
    assert m.enumerate_redexes() == []


def test_enumerate_comm_through_fusion():
    m = _machine("x!(a) | y?<v>")
    x = m.threads[0].subject
    y = m.threads[1].subject
    m.env.merge(NameRef(x), NameRef(y))
    assert m.enumerate_redexes() == [("comm", 0, 1)]


def test_enumerate_arity_must_match():
    m = _machine("x!(a, b) | x?<v>")
    assert m.enumerate_redexes() == []


def test_enumerate_lone_repeat_unfolds():
    m = _machine("repeat x!()")
    assert m.enumerate_redexes() == [("unfold", 0)]


def test_enumerate_repeat_demand_limited():
    # unfolding is only offered when the body could then communicate
    m = _machine("repeat x!() | y?<v>")
    assert m.enumerate_redexes() == [("unfold", 0)]
    m2 = _machine("repeat x!() | x?<v>")
    assert ("unfold", 0) in m2.enumerate_redexes()


def test_enumerate_fusion_redex():
    m = _machine("a=b | x!()")
    assert m.enumerate_redexes() == [("fusion", 0)]


def test_enumerate_host_call_gated_by_monitor():
    m = _machine(ACCOUNT_EXTERN + "read!().Ret2?(v)")
    assert m.enumerate_redexes() == [("host-call", 0, "FClass", "read")]
    m.execute(m.enumerate_redexes()[0])
    # monitor now awaits the return; strict enumeration only offers delivery
    redexes = m.enumerate_redexes()
    assert redexes == [("host-return", 0, "FClass")]


def test_enumerate_adversarial_offers_violating_call():
    m = _machine(ACCOUNT_EXTERN + "read!() | read!() | Ret2?(v) | Ret2?(w)")
    m.execute(("host-call", 0, "FClass", "read"))
    strict = m.enumerate_redexes(strict=True)
    loose = m.enumerate_redexes(strict=False)
    assert all(r[0] != "host-call" for r in strict)
    assert any(r[0] == "host-call" for r in loose)


def test_enumeration_order_is_stable():
    m = _machine("x!(a) | x!(b) | x?<v> | x?<w>")
    assert m.enumerate_redexes() == m.enumerate_redexes()
    assert m.enumerate_redexes() == [
        ("comm", 0, 2), ("comm", 0, 3), ("comm", 1, 2), ("comm", 1, 3)]


# ---------------------------------------------------------------------------
# enumerate_redexes against the pair-scan reference


def _check_against_reference(m, seed, steps, strict):
    """Step m with the seeded scheduler, comparing the enumeration with the
    reference before every step."""
    rng = Xorshift64Star(seed)
    for _ in range(steps):
        redexes = m.enumerate_redexes(strict=strict)
        assert redexes == reference_scheduler.enumerate_redexes(m, strict)
        if not redexes:
            return
        try:
            m.execute(redexes[rng.below(len(redexes))])
        except (FusionClash, ProtocolViolation, UngroundArgument, HostFault):
            return
        m.step_index += 1


@pytest.mark.parametrize("strict", [True, False])
@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_enumerate_matches_reference_randgen(strict, seed):
    program = gen_program(random.Random(seed), with_externs=False,
                          max_nodes=60)
    m = Machine.initialize(program, build_std_registry())
    _check_against_reference(m, seed, 60, strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("sample", ["account.pi", "counter.pi"])
def test_enumerate_matches_reference_samples(sample, strict):
    text = (SAMPLES / sample).read_text()
    decls, main = text.rstrip().rsplit("\n", 1)
    # the sample as is, then two copies of its process racing for the host
    for src in (text, f"{decls}\n{main} | {main}"):
        for seed in range(8):
            _check_against_reference(_machine(src), seed, 40, strict)


COUNTER_PAIR = """
extern K1 -> class Counter {
  int inc() {
    call inc1: void;
    return R1: int;
  }
}
extern K2 -> class Counter {
  int inc() {
    call inc2: void;
    return R2: int;
  }
}
"""


@pytest.mark.parametrize("strict", [True, False])
def test_enumerate_fused_call_channels_first_endpoint_wins(strict):
    m = _machine(COUNTER_PAIR + "inc1 = inc2 | inc2!().R1?(a).inc1!().R1?(b)")
    m.execute(("fusion", 0))
    assert m.enumerate_redexes(strict) == [("host-call", 0, "K1", "inc")]
    for seed in range(4):
        m = _machine(COUNTER_PAIR
                     + "inc1 = inc2 | inc2!().R1?(a) | inc1!().R1?(b)")
        _check_against_reference(m, seed, 20, strict)


BENCH_FAMILIES = list(golden_traces.bench_families())


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", BENCH_FAMILIES,
                         ids=[entry[0] for entry in BENCH_FAMILIES])
def test_enumerate_matches_reference_bench_families(name, program, max_steps,
                                                    strict):
    for seed in range(4):
        m = Machine.initialize(program, build_std_registry())
        _check_against_reference(m, seed, max_steps, strict)


# ---------------------------------------------------------------------------
# lifecycle of the persistent soup index


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", BENCH_FAMILIES,
                         ids=[entry[0] for entry in BENCH_FAMILIES])
def test_copy_mid_run_then_diverge(name, program, max_steps, strict):
    m = Machine.initialize(program, build_std_registry())
    _check_against_reference(m, 0, 6, strict)
    twin = m.copy()
    redexes = m.enumerate_redexes(strict)
    assert len(redexes) > 1
    m.execute(redexes[0])
    twin.execute(redexes[-1])
    _check_against_reference(m, 1, max_steps, strict)
    _check_against_reference(twin, 1, max_steps, strict)


def test_union_merges_buckets_of_both_roots():
    # a and b both hold outputs and inputs of arities 0 and 1 when they fuse
    m = _machine("a!(1) | b?(x) | a = b | a!() | a!() | a!() | b?()"
                 " | b!() | a?()")
    assert m.enumerate_redexes() == [("fusion", 2), ("comm", 3, 8),
                                     ("comm", 4, 8), ("comm", 5, 8),
                                     ("comm", 7, 6)]
    m.execute(("fusion", 2))
    assert m.enumerate_redexes() == [
        ("comm", 0, 1), ("comm", 2, 5), ("comm", 2, 7), ("comm", 3, 5),
        ("comm", 3, 7), ("comm", 4, 5), ("comm", 4, 7), ("comm", 6, 5),
        ("comm", 6, 7)]
    for seed in range(6):
        m = _machine("a!(1) | b?(x) | a = b | a!() | a!() | a!() | b?()"
                     " | b!() | a?()")
        _check_against_reference(m, seed, 20, True)


@pytest.mark.parametrize("indexed", [False, True])
def test_copy_has_its_own_index(indexed):
    # the union is made on the env directly; indexed=False copies before any
    # enumeration has moved the buckets
    m = _machine("x!(a) | y?<v>")
    m.env.merge(NameRef(m.threads[0].subject), NameRef(m.threads[1].subject))
    if indexed:
        assert m.enumerate_redexes() == [("comm", 0, 1)]
    twin = m.copy()
    m.execute(("comm", 0, 1))
    assert m.enumerate_redexes() == []
    assert twin.enumerate_redexes() == [("comm", 0, 1)]


def test_execute_after_fusion_without_enumerating():
    m = _machine("a = b | a!() | b?()")
    m.execute(("fusion", 0))
    m.execute(("comm", 0, 1))
    assert m.threads == [] and m.enumerate_redexes() == []


# ---------------------------------------------------------------------------
# golden traces (recorded with the pair-scan scheduler)


GOLDEN = golden_traces.load()
CORPUS = list(golden_traces.corpus())


def test_golden_corpus_complete():
    assert sorted(name for name, *_ in CORPUS) == sorted(GOLDEN)


@pytest.mark.parametrize("name,program,seed,max_steps", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_golden_trace(name, program, seed, max_steps):
    assert golden_traces.digest(program, seed, max_steps) == GOLDEN[name]


@pytest.mark.parametrize("name,program,seed,max_steps", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_golden_trace_through_xir(name, program, seed, max_steps):
    loaded = from_xml(to_xml(desugar(program)))
    assert golden_traces.digest(loaded, seed, max_steps) == GOLDEN[name]


# ---------------------------------------------------------------------------
# execute / step


def test_comm_fuses_instead_of_substituting():
    m = _machine("x!(a) | x?<b>")
    a = m.threads[0].objects[0].name
    b = m.threads[1].objects[0]
    ev = m.execute(("comm", 0, 1))
    assert ev.kind == "comm"
    assert m.threads == []
    assert m.env.fused_equal(NameRef(a), NameRef(b))


def test_comm_literal_attaches():
    m = _machine("x!(5) | x?<v>")
    v = m.threads[1].objects[0]
    m.execute(("comm", 0, 1))
    assert m.env.attached_literal(v) == IntLit(5)


def test_fusion_clash_raises():
    m = _machine("x!(5) | x!(6) | x?<v> | x?<w> | v=w")
    m.execute(("fusion", 4))
    m.execute(("comm", 0, 2))
    with pytest.raises(FusionClash):
        m.execute(("comm", 0, 1))  # remaining out 6 meets w fused with v=5


def test_unfold_adds_one_thread():
    m = _machine("repeat x!() | x?<v>")
    before = len(m.threads)
    m.execute(("unfold", 0))
    assert len(m.threads) == before + 1
    assert isinstance(m.threads[0], Repeat)


def test_new_eliminated_on_insert():
    m = _machine("new a in a!(1)")
    assert len(m.threads) == 1
    assert isinstance(m.threads[0], Out)
    assert m.threads[0].subject.origin == "fresh"


def test_fresh_names_above_extern_channel_ids():
    # every id in main lies below the extern channels' ids, so a fresh name
    # counted from main alone would take the first call channel's id
    text = to_xml(desugar(parse_program(ACCOUNT_EXTERN + "nil")))
    text = text.replace("<nil/>", '<new name="z#-1"><out subject="z#-1">'
                        "<cont><nil/></cont></out></new>")
    program = from_xml(text)
    channels = {n.id for d in program.externs for n in d.channels()}
    m = Machine.initialize(program, build_std_registry())
    assert m.threads[0].subject.id > max(channels)
    assert run(program).status == "stuck-with-residuals"


def test_step_none_when_stuck():
    m = _machine("x!(a)")
    assert step(m, Xorshift64Star(0)) is None


# ---------------------------------------------------------------------------
# run


def test_run_nil_terminates_empty():
    trace = run(parse_program("nil"))
    assert trace.events == [] and trace.status == "terminated"


def test_run_account_program():
    src = ACCOUNT_EXTERN + "read!() | Ret2?(v).nil"
    trace = run(parse_program(src), seed=0)
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["host-call", "host-return"]
    assert "1976528" in trace.events[1].details
    assert trace.status == "terminated"
    assert trace.machine.registry.effect_log[0][:2] == ("Account", "ctor")


def test_run_fusion_semantics_two_comms():
    trace = run(parse_program("x!(a) | x?(v).v!(1) | a?(w)"), seed=0)
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["comm", "comm"]
    assert trace.status == "terminated"


def test_run_stuck_residuals():
    trace = run(parse_program("x!(a) | y?<v>"), seed=0)
    assert trace.status == "stuck-with-residuals"
    report = detect_stuck(trace.machine)
    assert set(report.residuals) == {("output", "x", 1), ("input", "y", 1)}
    assert "blocked output on x/1" in report.lines()


def test_run_step_limit():
    trace = run(parse_program("repeat x!() | repeat x?<v>"), max_steps=50)
    assert trace.status == "step-limit"
    assert len(trace.events) == 50


def test_run_clash_status():
    trace = run(parse_program("x!(1) | x!(2) | x?<v> | x?<v>"), seed=0)
    assert trace.status == "clash"
    assert trace.events[-1].kind == "clash"


def test_run_violation_status():
    # calling while the return is pending, forced by a sequential program
    # that performs the second call before consuming the return
    src = ACCOUNT_EXTERN + "read!() | read!() | Ret2?(v) | Ret2?(w)"
    seen = {status for _, status in
            explore_runs(parse_program(src), build_std_registry)}
    assert "violation" in seen
    assert "terminated" in seen


def test_trace_line_format():
    trace = run(parse_program("x!(1) | x?<v>"), seed=0)
    line = trace.events[0].line()
    assert line.startswith("0|comm|")
    assert trace.lines() == line


def test_trace_json():
    import json
    trace = run(parse_program("x!(1) | x?<v>"), seed=0)
    data = json.loads(trace.to_json())
    assert data[0]["kind"] == "comm" and data[0]["step"] == 0


def test_detect_stuck_raises_when_live():
    m = _machine("x!(a) | x?<v>")
    with pytest.raises(NotStuck):
        detect_stuck(m)


def test_step_indices_strictly_increasing():
    trace = run(parse_program("x!(1) | x?<v> | y!(2) | y?<w>"), seed=9)
    assert [ev.step for ev in trace.events] == list(range(len(trace.events)))


# ---------------------------------------------------------------------------
# determinism and laws


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_run_replay_identical(seed):
    program = gen_program(random.Random(seed), with_externs=False)
    t1 = run(program, seed=seed, max_steps=60)
    t2 = run(program, seed=seed, max_steps=60)
    assert t1.lines() == t2.lines()
    assert t1.status == t2.status


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_thread_count_law(seed):
    # comm removes 2 adds <=2 (as thread-level terms, before flattening its
    # continuations); unfold adds exactly 1; fusion removes exactly 1
    program = gen_program(random.Random(seed), with_externs=False)
    m = Machine.initialize(program, build_std_registry())
    rng = Xorshift64Star(seed)
    for _ in range(30):
        redexes = m.enumerate_redexes()
        if not redexes:
            break
        redex = redexes[rng.below(len(redexes))]
        before = len(m.threads)
        if redex[0] == "comm":
            conts = [m.threads[redex[1]].cont, m.threads[redex[2]].cont]
            added = sum(_flat_count(c) for c in conts)
            try:
                m.execute(redex)
            except FusionClash:
                break
            assert len(m.threads) == before - 2 + added
        elif redex[0] == "unfold":
            body = m.threads[redex[1]].body
            m.execute(redex)
            assert len(m.threads) == before + _flat_count(body)
        elif redex[0] == "fusion":
            try:
                m.execute(redex)
            except FusionClash:
                break
            assert len(m.threads) == before - 1
        else:
            m.execute(redex)
        m.step_index += 1


def _flat_count(p):
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Par):
        return _flat_count(p.left) + _flat_count(p.right)
    if isinstance(p, New):
        return _flat_count(p.body)
    return 1


def test_comm_never_creates_free_names():
    from pichan.core import free_names
    m = _machine("x!(a) | x?<b>.b!(c)")
    names_before = set()
    for t in m.threads:
        names_before |= free_names(t)
    m.execute(("comm", 0, 1))
    names_after = set()
    for t in m.threads:
        names_after |= free_names(t)
    assert names_after <= names_before


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_congruent_programs_same_behaviors(seed):
    # congruence respect: congruent soups have the same comm/host behavior
    # under exhaustive scheduling (fusion/unfold bookkeeping events differ
    # when the congruence collapses a fusion or a binder)
    program = gen_program(random.Random(seed), with_externs=False,
                          surface=False, max_nodes=8)
    p = program.main
    q = Par(Nil(), Par(p, Nil()))
    assert congruent(p, q)
    runs_p = explore_runs(Program((), p), build_std_registry, max_depth=6)
    runs_q = explore_runs(Program((), q), build_std_registry, max_depth=6)
    proj = lambda runs: sorted(
        (tuple(k for k in kinds if k in ("comm", "host-call", "host-return")),
         status) for kinds, status in runs)
    assert proj(runs_p) == proj(runs_q)


def test_lazy_ctor_not_run_without_call():
    src = ACCOUNT_EXTERN + "x!(1) | x?<v>"
    trace = run(parse_program(src), seed=0)
    assert trace.status == "terminated"
    assert trace.machine.registry.effect_log == []


def test_default_max_steps():
    assert DEFAULT_MAX_STEPS == 10000
