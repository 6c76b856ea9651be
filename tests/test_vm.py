"""Tests for redex enumeration, stepping, traces and determinism."""

import json
import random
import time
from bisect import insort
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (FusionClash, FusionEnv, In, IntLit, New, Nil, Out,
                         Par, Program, Repeat, SurfaceFormError)
from pichan.interop import (HostFault, ProtocolViolation, UngroundArgument,
                            build_std_registry)
from pichan.parser import desugar, parse_program
from pichan.vm import (DEFAULT_MAX_STEPS, Machine, NotStuck, Trace,
                       TraceEvent, Xorshift64Star, detect_stuck, run, step)
from pichan.xir import SchemaError, from_xml, to_xml

import golden_traces
import reference_scheduler
from congruence import congruent
from explore import explore_runs, loose_redexes
from randgen import gen_host_source, gen_program
from substitution import soup
from terms import free_names, name_scan, renumbered, same_program
from test_parser import ACCOUNT_EXTERN

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _enumerate(m, strict):
    """The scheduler's redexes when strict, else every call attempt too."""
    return m.enumerate_redexes() if strict else loose_redexes(m)


def _machine(src):
    program = desugar(parse_program(src))
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
    assert list(m.enumerate_redexes()) == [("comm", 0, 1)]


def test_enumerate_no_match_on_distinct_subjects():
    m = _machine("x!(a) | y?<v>")
    assert list(m.enumerate_redexes()) == []


def test_enumerate_comm_through_fusion():
    m = _machine("x!(a) | y?<v>")
    x = m.threads[0].subject
    y = m.threads[1].subject
    m.env.merge(x, y)
    assert list(m.enumerate_redexes()) == [("comm", 0, 1)]


def test_enumerate_arity_must_match():
    m = _machine("x!(a, b) | x?<v>")
    assert list(m.enumerate_redexes()) == []


def test_enumerate_lone_repeat_unfolds():
    m = _machine("repeat x!()")
    assert list(m.enumerate_redexes()) == [("unfold", 0)]


def test_enumerate_repeat_demand_limited():
    # unfolding is only offered when the body could then communicate
    m = _machine("repeat x!() | y?<v>")
    assert list(m.enumerate_redexes()) == [("unfold", 0)]
    m2 = _machine("repeat x!() | x?<v>")
    assert ("unfold", 0) in m2.enumerate_redexes()


def test_enumerate_fusion_redex():
    m = _machine("a=b | x!()")
    assert list(m.enumerate_redexes()) == [("fusion", 0)]


def test_enumerate_host_call_gated_by_monitor():
    m = _machine(ACCOUNT_EXTERN + "read!().Ret2?(v)")
    assert list(m.enumerate_redexes()) == [("host-call", 0, "FClass", "read")]
    m.execute(m.enumerate_redexes()[0])
    # a return is now staged; strict enumeration only offers delivery
    assert list(m.enumerate_redexes()) == [("host-return", 0, "FClass")]


def test_enumerate_adversarial_offers_violating_call():
    m = _machine(ACCOUNT_EXTERN + "read!() | read!() | Ret2?(v) | Ret2?(w)")
    m.execute(("host-call", 0, "FClass", "read"))
    strict = m.enumerate_redexes()
    loose = loose_redexes(m)
    assert all(r[0] != "host-call" for r in strict)
    assert any(r[0] == "host-call" for r in loose)


def test_output_heads_its_comms_then_its_host_call():
    counter = ("extern K -> class Counter {\n"
               "  int inc() { call inc: void; return R: int; }\n}\n")
    m = _machine(counter + "inc?() | inc!() | inc?()")
    redexes = list(m.enumerate_redexes())
    assert redexes == [("comm", 1, 0), ("comm", 1, 2),
                       ("host-call", 1, "K", "inc")]
    assert redexes == reference_scheduler.enumerate_redexes(m, True)
    assert m.enumerate_redexes()._heads == [1]  # one entry, of weight 3


def test_enumeration_order_is_stable():
    m = _machine("x!(a) | x!(b) | x?<v> | x?<w>")
    assert list(m.enumerate_redexes()) == list(m.enumerate_redexes())
    assert list(m.enumerate_redexes()) == [
        ("comm", 0, 2), ("comm", 0, 3), ("comm", 1, 2), ("comm", 1, 3)]


# ---------------------------------------------------------------------------
# enumerate_redexes against the pair-scan reference


def _check_against_reference(m, seed, steps, strict):
    """Step m with the seeded scheduler, comparing the enumeration with the
    reference before every step."""
    rng = Xorshift64Star(seed)
    for _ in range(steps):
        redexes = _enumerate(m, strict)
        assert list(redexes) == reference_scheduler.enumerate_redexes(m, strict)
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
    program = desugar(gen_program(random.Random(seed), with_externs=False,
                                  max_nodes=60))
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
    assert list(_enumerate(m, strict)) == [("host-call", 0, "K1", "inc")]
    for seed in range(4):
        m = _machine(COUNTER_PAIR
                     + "inc1 = inc2 | inc2!().R1?(a) | inc1!().R1?(b)")
        _check_against_reference(m, seed, 20, strict)


# ---------------------------------------------------------------------------
# the host tables kept across steps


@pytest.mark.parametrize("strict", [True, False])
def test_host_tables_two_pending_on_fused_return_channels(strict):
    # both endpoints stage a return for the one fused class: K1's is offered
    # to every receiver first, and K2's once K1's has been delivered
    src = COUNTER_PAIR + "R1 = R2 | inc1!().R1?(a) | inc2!().R2?(b)"
    m = _machine(src)
    m.execute(("fusion", 0))
    m.execute(("host-call", 0, "K1", "inc"))
    m.execute(("host-call", 0, "K2", "inc"))
    assert list(_enumerate(m, strict)) == [("host-return", 0, "K1"),
                                     ("host-return", 1, "K1")]
    m.execute(("host-return", 1, "K1"))
    assert list(_enumerate(m, strict)) == [("host-return", 0, "K2")]
    for seed in range(12):
        _check_against_reference(_machine(src), seed, 20, strict)
        assert run(desugar(parse_program(src)), seed=seed).status == "terminated"


@pytest.mark.parametrize("strict", [True, False])
def test_host_tables_call_channels_fused_mid_run(strict):
    # inc2's outputs call K2 until the comm on go runs the fusion, then K1
    src = (COUNTER_PAIR + "go!() | go?().(inc2 = inc1) | inc2!().R2?(a)"
           " | inc2!().R1?(b) | inc1!().R1?(c)")
    m = _machine(src)
    assert list(_enumerate(m, strict))[1:] == [
        ("host-call", 2, "K2", "inc"), ("host-call", 3, "K2", "inc"),
        ("host-call", 4, "K1", "inc")]
    m.execute(("comm", 0, 1))
    m.execute(("fusion", 3))
    assert list(_enumerate(m, strict)) == [
        ("host-call", 0, "K1", "inc"), ("host-call", 1, "K1", "inc"),
        ("host-call", 2, "K1", "inc")]
    for seed in range(12):
        _check_against_reference(_machine(src), seed, 30, strict)


@pytest.mark.parametrize("fusion", ["R1 = R2", "R2 = R1"])
@pytest.mark.parametrize("strict", [True, False])
def test_host_tables_return_channel_fused_after_call(strict, fusion):
    # K1 and K2 have staged returns on R1 and R2 when the fusion runs; the
    # fused class then offers K1's first, whichever root survives
    src = COUNTER_PAIR + f"inc1!().({fusion}) | R2?(a) | inc2!().R2?(b)"
    m = _machine(src)
    m.execute(("host-call", 0, "K1", "inc"))
    m.execute(("host-call", 1, "K2", "inc"))
    assert list(_enumerate(m, strict)) == [
        ("host-return", 0, "K2"), ("fusion", 1), ("host-return", 2, "K2")]
    m.execute(("fusion", 1))
    assert list(_enumerate(m, strict)) == [("host-return", 0, "K1"),
                                     ("host-return", 1, "K1")]
    for seed in range(12):
        _check_against_reference(_machine(src), seed, 20, strict)


def test_host_tables_refused_loose_call_changes_nothing():
    # the refused call stages nothing: once K1's one return is delivered,
    # R1?(c) is offered none
    src = COUNTER_PAIR + "inc1!() | inc1!().R1?(a) | R1?(b) | R1?(c)"
    m = _machine(src)
    m.execute(("host-call", 0, "K1", "inc"))
    before = list(loose_redexes(m))
    assert before == [("host-call", 0, "K1", "inc"), ("host-return", 1, "K1"),
                      ("host-return", 2, "K1")]
    with pytest.raises(ProtocolViolation):
        m.execute(("host-call", 0, "K1", "inc"))
    assert list(loose_redexes(m)) == before
    m.execute(("host-return", 1, "K1"))
    assert list(loose_redexes(m)) == [("host-call", 0, "K1", "inc")]
    _check_against_reference(m, 0, 10, False)


@pytest.mark.parametrize("strict", [True, False])
def test_enumerate_matches_reference_host_programs(strict):
    for seed in range(150):
        m = _machine(gen_host_source(random.Random(seed)))
        _check_against_reference(m, seed, 40, strict)


IDLE_CONSOLE = """extern P{k} -> class Console {{
  void print(int) {{ call print{k}: int; return Q{k}: void; }}
}}
"""


@pytest.mark.parametrize("strict", [True, False])
def test_enumerate_cost_does_not_grow_with_idle_externs(monkeypatch, strict):
    # one enumeration asks for as many fusion roots with 64 idle extern
    # aliases as with 1: the host tables are not rebuilt per step
    counter = ("extern K -> class Counter {\n"
               "  int inc() { call inc: void; return R: int; }\n}\n")
    main = "inc!().R?(a) | R?(b) | repeat g?().inc!() | g!()"
    representative = FusionEnv.representative
    calls = []

    def counted(env, name):
        calls.append(name)
        return representative(env, name)

    counts, redexes = [], []
    for idle in (1, 64):
        src = counter + "".join(IDLE_CONSOLE.format(k=k)
                                for k in range(idle)) + main
        m = _machine(src)
        m.execute(("host-call", 0, "K", "inc"))  # a return is staged
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(FusionEnv, "representative", counted)
            redexes.append(list(_enumerate(m, strict)))
        counts.append(len(calls))
    assert redexes[0] == redexes[1]
    assert counts[0] == counts[1]


BENCH_FAMILIES = [(name, desugar(program), max_steps) for name, program,
                  max_steps in golden_traces.bench_families()]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", BENCH_FAMILIES,
                         ids=[entry[0] for entry in BENCH_FAMILIES])
def test_enumerate_matches_reference_bench_families(name, program, max_steps,
                                                    strict):
    for seed in range(4):
        m = Machine.initialize(program, build_std_registry())
        _check_against_reference(m, seed, max_steps, strict)


ENV_FAMILIES = [(name, desugar(program), max_steps) for name, program,
                max_steps in golden_traces.env_families()]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", ENV_FAMILIES,
                         ids=[entry[0] for entry in ENV_FAMILIES])
def test_enumerate_matches_reference_env_families(name, program, max_steps,
                                                  strict):
    for seed in range(4):
        m = Machine.initialize(program, build_std_registry())
        _check_against_reference(m, seed, max_steps, strict)


SHAPE_FAMILIES = [(name, desugar(program), max_steps) for name, program,
                  max_steps in golden_traces.shape_families()]
# the reference scans every ordered pair of threads at every step, so a
# larger soup is checked for its first steps only, where a flood's buckets
# hold the most partners
REFERENCE_MAX_THREADS, REFERENCE_FIRST_STEPS = 50, 2


def _reference_steps(m, max_steps):
    return (max_steps if len(m.threads) <= REFERENCE_MAX_THREADS
            else REFERENCE_FIRST_STEPS)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", SHAPE_FAMILIES,
                         ids=[entry[0] for entry in SHAPE_FAMILIES])
def test_enumerate_matches_reference_shape_families(name, program, max_steps,
                                                    strict):
    for seed in range(2):
        m = Machine.initialize(program, build_std_registry())
        _check_against_reference(m, seed, _reference_steps(m, max_steps),
                                 strict)


def test_from_xml_rejects_rebound_binder_id():
    # the VM binds a new's id in an environment its siblings share, so XIR
    # may not reuse a binder id, not even under an inner New
    doc = to_xml(desugar(parse_program("new a in (repeat new b in b!() "
                                       "| a?() | a!())")))
    assert '<par new="a#0">' in doc and '<out new="b#1" ' in doc
    with pytest.raises(SchemaError, match="binder id 0 of new a#0 is "
                                          "already bound"):
        from_xml(doc.replace("b#1", "a#0"))


# ---------------------------------------------------------------------------
# the Redexes sequence: decoded entries, slices and stale reads


def _check_redexes_sequence(m, seed, steps, strict):
    """Step m with the seeded scheduler; before every step the sequence
    answers len and each index, negative ones too, as the reference list
    does, and indices len and -len - 1 raise IndexError; after the step a
    read raises RuntimeError."""
    rng = Xorshift64Star(seed)
    for _ in range(steps):
        r = _enumerate(m, strict)
        ref = reference_scheduler.enumerate_redexes(m, strict)
        n = len(r)
        assert n == len(list(r)) == len(ref)
        assert [r[k] for k in range(n)] == ref
        stride = max(n // 7, 1)
        assert [r[k] for k in range(-n, 0, stride)] == ref[::stride]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                r[k]
        if not n:
            return
        try:
            m.execute(r[rng.below(n)])
        except (FusionClash, ProtocolViolation, UngroundArgument, HostFault):
            return
        m.step_index += 1
        for read in (lambda: r[0], lambda: list(r)):
            with pytest.raises(RuntimeError):
                read()


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", BENCH_FAMILIES,
                         ids=[entry[0] for entry in BENCH_FAMILIES])
def test_redexes_sequence_bench_families(name, program, max_steps, strict):
    for seed in range(2):
        m = Machine.initialize(program, build_std_registry())
        _check_redexes_sequence(m, seed, max_steps, strict)


@pytest.mark.parametrize("strict", [True, False])
def test_redexes_sequence_host_programs(strict):
    for seed in range(40):
        m = _machine(gen_host_source(random.Random(seed)))
        _check_redexes_sequence(m, seed, 40, strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", SHAPE_FAMILIES,
                         ids=[entry[0] for entry in SHAPE_FAMILIES])
def test_redexes_sequence_shape_families(name, program, max_steps, strict):
    # a flood's outputs each head one comm per input: weighted heads
    m = Machine.initialize(program, build_std_registry())
    _check_redexes_sequence(m, 0, _reference_steps(m, max_steps), strict)


def test_flood_lists_each_head_once():
    n = 30
    m = _machine(golden_traces.flood_source(n))
    redexes = m.enumerate_redexes()
    assert len(redexes) == n * n and len(redexes._heads) == n
    assert redexes[n * n - 1] == ("comm", n - 1, 2 * n - 1)
    with pytest.raises(IndexError):
        redexes[n * n]


def test_decoding_every_redex_of_a_flood_step_reads_its_bucket_in_order():
    # the first step of a flood of 500: 250,000 comms, each output heading
    # 500 of them over one bucket of 500 inputs, which is kept in order, so
    # a decode reads its partner at its offset.  A decode that sorts the
    # bucket takes 2.2-2.8 s on a shared 2-vCPU VM, well above the bound;
    # the better of two decodings counts
    m = _machine(golden_traces.flood_source(500))
    seconds = []
    for _ in range(2):
        redexes = m.enumerate_redexes()
        start = time.perf_counter()
        got = list(redexes)
        seconds.append(time.perf_counter() - start)
    assert got == reference_scheduler.enumerate_redexes(m, True)
    assert min(seconds) < 0.8, seconds


@pytest.mark.parametrize("fusion", ["x = y", "y = x"])
@pytest.mark.parametrize("polarity,partner", [("!", "?"), ("?", "!")])
def test_a_union_inserts_the_smaller_bucket_into_the_larger(
        monkeypatch, fusion, polarity, partner):
    # a class of 1,000 outputs (or inputs) on x and one of 1 on y, placed
    # among them; on a rank tie the fusion's left side survives, so "x = y"
    # absorbs the small bucket and "y = x" the large one.  Either way one
    # number moves, with one insort, and the merged bucket stays in order
    half = " | ".join([f"x{polarity}()"] * 500)
    m = _machine(f"{half} | y{polarity}() | {half} | x{partner}() | {fusion}")
    calls = []

    def counted(bucket, seq):
        calls.append(seq)
        insort(bucket, seq)

    monkeypatch.setattr("pichan.vm.insort", counted)
    m.execute(("fusion", len(m.threads) - 1))
    redexes = list(m.enumerate_redexes())
    assert len(calls) == 1
    outs = [i for i, t in enumerate(m.threads) if type(t) is Out]
    ins = [j for j, t in enumerate(m.threads) if type(t) is In]
    assert redexes == [("comm", i, j) for i in outs for j in ins]
    assert len(redexes) == 1001


def test_redexes_read_after_a_direct_union_raises():
    m = _machine("x!(a) | y?<v> | y?<w>")
    r = m.enumerate_redexes()
    assert list(r) == []
    m.env.merge(m.threads[0].subject, m.threads[1].subject)
    assert len(r) == 0  # the count is the enumeration's
    r = m.enumerate_redexes()
    assert list(r) == [("comm", 0, 1), ("comm", 0, 2)]
    m.env.merge(m.threads[0].objects[0], m.threads[1].objects[0])
    with pytest.raises(RuntimeError):
        r[0]


# ---------------------------------------------------------------------------
# lifecycle of the persistent soup index


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name,program,max_steps", BENCH_FAMILIES,
                         ids=[entry[0] for entry in BENCH_FAMILIES])
def test_copy_mid_run_then_diverge(name, program, max_steps, strict):
    # the twin is a second machine stepped with the same seed
    m, twin = (Machine.initialize(program, build_std_registry())
               for _ in range(2))
    _check_against_reference(m, 0, 6, strict)
    _check_against_reference(twin, 0, 6, strict)
    redexes = list(_enumerate(m, strict))  # read after m executes
    assert list(_enumerate(twin, strict)) == redexes
    assert len(redexes) > 1
    m.execute(redexes[0])
    twin.execute(redexes[-1])
    _check_against_reference(m, 1, max_steps, strict)
    _check_against_reference(twin, 1, max_steps, strict)


def test_unfold_keeps_only_the_ids_its_body_names():
    # each client's New binds in the environment the server shares, so an
    # unfold that copied it whole would cost O(clients) time and memory
    m = _machine(golden_traces.echo_source(40))
    assert type(m.threads[0]) is Repeat and len(m.envs[0]) == 40
    m.execute(("unfold", 0))
    assert len(m.threads) == 42 and len(m.envs[-1]) == 2  # its x and r
    assert len(m.envs[0]) == 40


@pytest.mark.parametrize("body", ["x?<v>", "(a = v)", "x!(v)", "v!()",
                                  "x?().y!(v)", "(x!() | new w in w!(v))",
                                  "repeat v!()"])
def test_unfold_keeps_a_name_bound_outside_the_repeat(body):
    m = _machine(f"new v in (repeat {body} | v!())")
    v = m.threads[1].subject
    fresh = m.envs[1][v.id]
    m.execute(("unfold", 0))
    assert m.envs[2][v.id] == fresh


def test_unfold_of_nested_repeats_walks_each_body_once():
    depth = 300
    m = _machine("new a in " + "repeat " * depth + "a!()")
    assert len(m._bodies) == depth  # inserting the outer one walks them all
    for level in range(depth):  # the soup grows by one repeat a level
        m.execute(("unfold", level))
    assert len(m._bodies) == depth and len(m.threads) == depth + 1
    assert all(env == m.envs[0] for env in m.envs)


def test_union_merges_buckets_of_both_roots():
    # a and b both hold outputs and inputs of arities 0 and 1 when they fuse
    m = _machine("a!(1) | b?(x) | a = b | a!() | a!() | a!() | b?()"
                 " | b!() | a?()")
    assert list(m.enumerate_redexes()) == [("fusion", 2), ("comm", 3, 8),
                                     ("comm", 4, 8), ("comm", 5, 8),
                                     ("comm", 7, 6)]
    m.execute(("fusion", 2))
    assert list(m.enumerate_redexes()) == [
        ("comm", 0, 1), ("comm", 2, 5), ("comm", 2, 7), ("comm", 3, 5),
        ("comm", 3, 7), ("comm", 4, 5), ("comm", 4, 7), ("comm", 6, 5),
        ("comm", 6, 7)]
    for seed in range(6):
        m = _machine("a!(1) | b?(x) | a = b | a!() | a!() | a!() | b?()"
                     " | b!() | a?()")
        _check_against_reference(m, seed, 20, True)


MEMO_SOURCE = "repeat y?().nil | x!() | x = y | w!() | w?()"


@pytest.mark.parametrize("strict", [True, False])
def test_repeat_keys_are_resolved_again_after_a_union(strict):
    # the fusion absorbs y into x, so the repeat's input on y now meets x!()
    # and its unfold is wanted, while the comm on w keeps the lone-repeat
    # fallback from offering it anyway
    m = _machine(MEMO_SOURCE)
    assert list(_enumerate(m, strict)) == [("fusion", 2), ("comm", 3, 4)]
    m.execute(("fusion", 2))
    assert list(_enumerate(m, strict)) == [("unfold", 0), ("comm", 2, 3)]
    for seed in range(8):
        _check_against_reference(_machine(MEMO_SOURCE), seed, 10, strict)


# ---------------------------------------------------------------------------
# the repeats' unfold flags, kept from step to step and tested again only
# after a change on a root that one of their body actions watches

COUNTER = ("extern K -> class Counter {\n"
           "  int inc() { call inc: void; return R: int; }\n}\n")


def _follow(m, script, strict):
    """Execute each redex of script, a list of (redex or None to stop,
    whether thread 0, a repeat, is offered an unfold before it); before
    each, the enumeration equals the reference's."""
    for redex, offered in script:
        redexes = list(_enumerate(m, strict))
        assert redexes == reference_scheduler.enumerate_redexes(m, strict)
        assert (("unfold", 0) in redexes) is offered, redexes
        if redex is None:
            return
        m.execute(redex)
        m.step_index += 1


@pytest.mark.parametrize("strict", [True, False])
def test_unfold_flag_follows_an_output_bucket_that_empties_and_fills(strict):
    # s!() is the only output the repeat's input can meet: the comm that
    # takes it empties its bucket, and the comm on w puts one back
    src = "repeat s?() | s!() | w!() | w?().s!() | k!() | k?()"
    _follow(_machine(src), [(("unfold", 0), True), (("comm", 1, 6), True),
                            (("comm", 1, 2), False), (None, True)], strict)
    for seed in range(8):
        _check_against_reference(_machine(src), seed, 12, strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("fusion", ["t = s", "s = t"])
def test_unfold_flag_follows_a_union_with_the_partners_class(strict, fusion):
    # on a rank tie the left name's class survives: t = s absorbs the
    # repeat's root s, s = t keeps it and takes in the bucket of t!()
    src = f"repeat s?() | t!() | {fusion} | k!() | k?()"
    _follow(_machine(src), [(("fusion", 2), False), (("unfold", 0), True),
                            (None, True)], strict)
    for seed in range(8):
        _check_against_reference(_machine(src), seed, 10, strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("fusion", ["c = inc", "inc = c"])
def test_unfold_flag_follows_a_union_with_a_call_channel(strict, fusion):
    src = COUNTER + f"repeat c!() | {fusion} | k!() | k?()"
    _follow(_machine(src), [(("fusion", 1), False), (("unfold", 0), True),
                            (None, True)], strict)
    for seed in range(8):
        _check_against_reference(_machine(src), seed, 10, strict)


@pytest.mark.parametrize("strict", [True, False])
def test_unfold_flag_follows_a_staged_return(strict):
    # the call stages K's return on R, where the repeat's input waits, and
    # the host return consumes it; nothing else touches R
    src = COUNTER + "repeat R?(a) | inc!() | k!() | k?() | j!() | j?()"
    _follow(_machine(src), [(("host-call", 1, "K", "inc"), False),
                            (("unfold", 0), True),
                            (("host-return", 5, "K"), True),
                            (None, False)], strict)
    for seed in range(8):
        _check_against_reference(_machine(src), seed, 12, strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("src", [
    "repeat (x!() | x?()) | k!() | k?()",
    "new a in (repeat (a?() | repeat a!()) | b = a | b!() | k!() | k?())",
    "repeat (a?() | repeat (b!() | repeat a!())) | a = b | b?() | k!()"
    " | k?()",
], ids=["body-pairs-with-itself", "nested", "nested-fused"])
def test_unfold_flags_of_self_pairing_and_nested_repeats(strict, src):
    for seed in range(8):
        _check_against_reference(_machine(src), seed, 30, strict)


def test_enumeration_tests_only_the_repeats_whose_channels_changed(
        monkeypatch):
    # 1,000 repeats that never want an unfold beside a 50-step comm chain:
    # the first enumeration tests each once, and after it no step touches
    # a root they watch.  Testing every repeat at every enumeration would
    # make 1,000 calls a step
    idle = "".join(f"repeat z{k}?() | " for k in range(1000))
    chain = " | ".join([f"c{k}?().c{k + 1}!()" for k in range(49)]
                       + ["c0!()", "c49?()"])
    m = _machine(idle + chain)
    wanted, calls = Machine._unfold_wanted, []

    def counted(machine, keys):
        calls.append(keys)
        return wanted(machine, keys)

    monkeypatch.setattr(Machine, "_unfold_wanted", counted)
    m.enumerate_redexes()
    assert len(calls) == 1000
    calls.clear()
    rng = Xorshift64Star(0)
    events = [step(m, rng) for _ in range(50)]
    assert [ev.kind for ev in events] == ["comm"] * 50
    assert len(calls) <= 2 * 50


@pytest.mark.parametrize("indexed", [False, True])
def test_copy_has_its_own_index(indexed):
    # the union is made on the env directly; indexed=False executes before
    # any enumeration has moved the buckets
    m = _machine("x!(a) | y?<v>")
    m.env.merge(m.threads[0].subject, m.threads[1].subject)
    if indexed:
        assert list(m.enumerate_redexes()) == [("comm", 0, 1)]
    m.execute(("comm", 0, 1))
    assert list(m.enumerate_redexes()) == []


def test_execute_after_fusion_without_enumerating():
    m = _machine("a = b | a!() | b?()")
    m.execute(("fusion", 0))
    m.execute(("comm", 0, 1))
    assert m.threads == [] and list(m.enumerate_redexes()) == []


def test_host_return_after_fusion_without_enumerating():
    # K1's return is staged under R1's root, which the fusion then absorbs
    m = _machine(COUNTER_PAIR + "inc1!().(R2 = R1) | R2?(a)")
    m.execute(("host-call", 0, "K1", "inc"))
    m.execute(("fusion", 1))
    m.execute(("host-return", 0, "K1"))
    assert m.threads == [] and list(m.enumerate_redexes()) == []


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


# recorded with the VM that eliminated each top-level New by substitution
ENV_GOLDEN = golden_traces.load(golden_traces.ENV_GOLDEN)
ENV_CORPUS = list(golden_traces.env_corpus())


def test_env_golden_corpus_complete():
    assert sorted(name for name, *_ in ENV_CORPUS) == sorted(ENV_GOLDEN)


@pytest.mark.parametrize("name,program,seed,max_steps", ENV_CORPUS,
                         ids=[entry[0] for entry in ENV_CORPUS])
def test_env_golden_trace(name, program, seed, max_steps):
    assert golden_traces.digest(program, seed, max_steps) == ENV_GOLDEN[name]
    loaded = from_xml(to_xml(desugar(program)))
    assert golden_traces.digest(loaded, seed, max_steps) == ENV_GOLDEN[name]


# ---------------------------------------------------------------------------
# execute / step


def test_comm_fuses_instead_of_substituting():
    m = _machine("x!(a) | x?<b>")
    a = m.threads[0].objects[0]
    b = m.threads[1].objects[0]
    ev = m.execute(("comm", 0, 1))
    assert ev.kind == "comm"
    assert m.threads == []
    assert m.env.fused_equal(a, b)


def test_comm_literal_attaches():
    m = _machine("x!(5) | x?<v>")
    v = m.threads[1].objects[0]
    m.execute(("comm", 0, 1))
    assert m.env.attached_literal(v) == IntLit(5)


def test_fusion_on_bound_name_fuses_its_run_time_name():
    # the fusion thread's a is the fresh name the New bound, not a's binder
    trace = run(desugar(parse_program("new a in (a = b | a!()) | b?()")),
                seed=0)
    assert [ev.line() for ev in trace.events] == ["0|fusion-applied|a=b",
                                                  "1|comm|a/0"]
    assert trace.status == "terminated"


def test_fusion_clash_raises():
    m = _machine("x!(5) | x!(6) | x?<v> | x?<w> | v=w")
    m.execute(("fusion", 4))
    m.execute(("comm", 0, 2))
    with pytest.raises(FusionClash):
        m.execute(("comm", 0, 1))  # remaining out 6 meets w fused with v=5


def test_unfold_adds_one_thread():
    m = _machine("repeat x!() | x?<v>")
    before = len(soup(m))
    m.execute(("unfold", 0))
    assert len(soup(m)) == before + 1
    assert isinstance(soup(m)[0], Repeat)


def test_new_eliminated_on_insert():
    built = parse_program("new a in a!(1)")
    # as built, and as run loads it: through XIR
    for program in (built, from_xml(to_xml(built))):
        m = Machine.initialize(program, build_std_registry())
        assert len(soup(m)) == 1
        assert isinstance(soup(m)[0], Out)
        # the binder became a fresh name, with the first run-time id
        a = soup(m)[0].subject
        assert a.display == "a" and a.id == -1


def test_thread_is_code_node_plus_environment():
    # the soup holds the program's own nodes; a New binds in the environment
    program = desugar(parse_program("new a in (a!(1) | repeat new b in a!(b))"))
    m = Machine.initialize(program, build_std_registry())
    code = program.main.body
    assert m.threads[0] is code.left and m.threads[1] is code.right
    a = m.envs[0][program.main.name.id]
    assert a.display == "a" and a.id == -1
    assert m.envs[0] is m.envs[1]
    m.execute(("unfold", 1))
    out = m.threads[2]
    assert out is code.right.body.body
    assert m.envs[2][out.subject.id] == a
    b = m.envs[2][code.right.body.name.id]
    assert b.display == "b" and b.id == -2  # run-time ids count down
    assert same_program(soup(m)[2], Out(a, (b,), Nil()))


def test_fresh_names_apart_from_extern_channel_ids():
    # the extern channels take ids 0-3; a fresh name counted up from 0 would
    # take the first call channel's id, and z!() would call readn
    program = from_xml(to_xml(desugar(parse_program(
        ACCOUNT_EXTERN + "new z in z!()"))))
    channels = {n.id for d in program.externs for n in d.channels()}
    assert min(channels) == 0
    m = Machine.initialize(program, build_std_registry())
    assert soup(m)[0].subject.id == -1
    assert run(program).status == "stuck-with-residuals"


def test_binding_input_raises_where_it_would_run():
    # the core-form check sits where a thread joins the soup: a binding
    # input in a continuation loads, and the comm that releases it raises
    program = parse_program("x!(a) | x?<a>.y?(v).nil")
    m = Machine.initialize(program, build_std_registry())
    assert list(m.enumerate_redexes()) == [("comm", 0, 1)]
    with pytest.raises(SurfaceFormError):
        m.execute(("comm", 0, 1))
    with pytest.raises(SurfaceFormError):
        run(program)


def test_step_none_when_stuck():
    m = _machine("x!(a)")
    assert step(m, Xorshift64Star(0)) is None


# ---------------------------------------------------------------------------
# run


def test_run_nil_terminates_empty():
    trace = run(parse_program("nil"))
    assert trace.events == [] and trace.status == "terminated"


def test_run_and_initialize_refuse_a_surface_program():
    # the VM runs core programs only: desugar comes first
    program = parse_program("x?(v).nil")
    with pytest.raises(SurfaceFormError):
        run(program)
    with pytest.raises(SurfaceFormError):
        Machine.initialize(program, build_std_registry())
    assert run(desugar(program)).status == "stuck-with-residuals"


def test_run_account_program():
    src = ACCOUNT_EXTERN + "read!() | Ret2?(v).nil"
    trace = run(desugar(parse_program(src)), seed=0)
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["host-call", "host-return"]
    assert "1976528" in trace.events[1].details
    assert trace.status == "terminated"
    assert trace.machine.registry.effect_log[0][:2] == ("Account", "ctor")


def test_run_fusion_semantics_two_comms():
    trace = run(desugar(parse_program("x!(a) | x?(v).v!(1) | a?(w)")), seed=0)
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


def test_explore_runs_parallel_reads():
    # the criterion-5 program: the loose scheduler may call while a return
    # is staged, the strict one makes the second call wait
    src = ACCOUNT_EXTERN + "(read!().Ret2?(v).nil) | (read!().Ret2?(w).nil)"
    program = desugar(parse_program(src))
    violation = (("host-call", "violation"), "violation")
    done = (("host-call", "host-return", "host-call", "host-return"),
            "terminated")
    assert explore_runs(program, build_std_registry, max_depth=12) == [
        violation, done, violation, done]
    assert explore_runs(program, build_std_registry, max_depth=12,
                        strict=True) == [done, done]


EXPLORE_GOLDEN = golden_traces.load(golden_traces.EXPLORE_GOLDEN)
EXPLORE_CORPUS = list(golden_traces.explore_corpus())


def test_explore_corpus_complete():
    assert sorted(name for name, *_ in EXPLORE_CORPUS) == sorted(EXPLORE_GOLDEN)


@pytest.mark.parametrize("name,program,max_depth,strict", EXPLORE_CORPUS,
                         ids=[entry[0] for entry in EXPLORE_CORPUS])
def test_explore_runs_golden(name, program, max_depth, strict):
    # every run's kinds and status, in depth-first order
    assert (golden_traces.explore_digest(program, max_depth, strict)
            == EXPLORE_GOLDEN[name])


def test_trace_line_format():
    trace = run(parse_program("x!(1) | x?<v>"), seed=0)
    line = trace.events[0].line()
    assert line.startswith("0|comm|")
    assert trace.lines() == line


def _dumped(trace) -> str:
    return json.dumps([{"step": ev.step, "kind": ev.kind,
                        "details": ev.details} for ev in trace.events],
                      indent=2)


def test_trace_json():
    trace = run(parse_program("x!(1) | x?<v>"), seed=0)
    data = json.loads(trace.to_json())
    assert data[0]["kind"] == "comm" and data[0]["step"] == 0
    assert trace.to_json() == _dumped(trace)
    empty = run(parse_program("nil"), seed=0)
    assert empty.events == [] and empty.to_json() == _dumped(empty) == "[]"


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.pi")))
def test_trace_json_of_every_sample_is_the_stdlib_encoding(sample):
    program = parse_program((SAMPLES / sample).read_text())
    for seed in range(3):
        trace = run(desugar(program), seed=seed)
        assert trace.events and trace.to_json() == _dumped(trace)


@given(st.lists(st.tuples(st.integers(0, 10**9), st.text(), st.text()),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_trace_json_quotes_any_string_as_the_stdlib_does(events):
    # quotes, backslashes, control, non-ASCII and astral characters
    trace = Trace([TraceEvent(*ev) for ev in events], "terminated", None)
    assert trace.to_json() == _dumped(trace)


@pytest.mark.parametrize("text", ['"', "\\", "\x00\x1f\x7f", "\n\r\t",
                                  "\u00e9\u2028", "\U0001f600", "\ud800"])
def test_trace_json_quotes_each_kind_of_character(text):
    trace = Trace([TraceEvent(0, "comm", f"x/1 {text}~v")], "terminated",
                  None)
    assert trace.to_json() == _dumped(trace)


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
    program = desugar(gen_program(random.Random(seed), with_externs=False))
    t1 = run(program, seed=seed, max_steps=60)
    t2 = run(program, seed=seed, max_steps=60)
    assert t1.lines() == t2.lines()
    assert t1.status == t2.status


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_trace_does_not_depend_on_name_ids(seed, host):
    # renumber every id, extern channels included, injectively onto other
    # ids >= 0: the same seed gives the same trace lines and status
    rng = random.Random(seed)
    program = desugar(parse_program(gen_host_source(rng)) if host
                      else gen_program(rng, with_externs=False))
    names = {}
    name_scan(program.main, names)
    ids = sorted({*names, *(n.id for d in program.externs
                            for n in d.channels())})
    new_id = dict(zip(ids, rng.sample(range(10 * len(ids) + 10), len(ids))))
    before = run(program, seed=seed, max_steps=60)
    after = run(renumbered(program, new_id), seed=seed, max_steps=60)
    assert (after.lines(), after.status) == (before.lines(), before.status)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_thread_count_law(seed):
    # comm removes 2 adds <=2 (as thread-level terms, before flattening its
    # continuations); unfold adds exactly 1; fusion removes exactly 1
    program = desugar(gen_program(random.Random(seed), with_externs=False))
    m = Machine.initialize(program, build_std_registry())
    rng = Xorshift64Star(seed)
    for _ in range(30):
        redexes = m.enumerate_redexes()
        if not redexes:
            break
        redex = redexes[rng.below(len(redexes))]
        threads = soup(m)
        before = len(threads)
        if redex[0] == "comm":
            conts = [threads[redex[1]].cont, threads[redex[2]].cont]
            added = sum(_flat_count(c) for c in conts)
            try:
                m.execute(redex)
            except FusionClash:
                break
            assert len(soup(m)) == before - 2 + added
        elif redex[0] == "unfold":
            body = threads[redex[1]].body
            m.execute(redex)
            assert len(soup(m)) == before + _flat_count(body)
        elif redex[0] == "fusion":
            try:
                m.execute(redex)
            except FusionClash:
                break
            assert len(soup(m)) == before - 1
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
    m = _machine("x!(a) | x?<b>.b!(c)")
    names_before = set()
    for t in soup(m):
        names_before |= free_names(t)
    m.execute(("comm", 0, 1))
    names_after = set()
    for t in soup(m):
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
