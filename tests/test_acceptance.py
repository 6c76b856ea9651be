"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import random
import time
from contextlib import contextmanager

from pichan.core import In, IntLit, NameSupply, Out, Par, Program
from pichan.interop import build_std_registry, resolve_externs
from pichan.parser import desugar, parse_program
from pichan.typecheck import (check_extern_usage, check_protocol_schema,
                              check_sorts)
from pichan.vm import run
from pichan.xir import from_xml, to_xml
from pichan.ifgen import generate_interface, parse_manifest

from axiom_oracle import alpha_key, closure_components
from congruence import canonical_key
from explore import explore_runs
from printer import _extern_eq, format_program, program_alpha_eq
from randgen import gen_program
from term_enum import enumerate_terms
from terms import same_program
from test_ifgen import ACCOUNT_MANIFEST
from test_parser import ACCOUNT_EXTERN


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({desc}): FAIL")
        raise
    print(f"criterion {n} ({desc}): PASS")


CONSOLE_EXTERN = """
extern Con -> class Console {
  void print(int) {
    call print: int;
    return Ret3: void;
  } acceded as {rec S {print(int).Ret3().S}}
}
"""


def test_criterion_1_account_end_to_end():
    with criterion(1, "Account end-to-end, returned value 1976528"):
        start = time.monotonic()
        src = (ACCOUNT_EXTERN + CONSOLE_EXTERN
               + "read!() | Ret2?(v).print!(v).Ret3?().nil")
        program = desugar(parse_program(src))
        assert check_sorts(program) == []
        for d in program.externs:
            assert check_protocol_schema(d) == []
        program = from_xml(to_xml(program))  # through the execution format
        trace = run(program, seed=0)
        assert trace.status == "terminated"
        returns = [ev for ev in trace.events if ev.kind == "host-return"]
        assert any(ev.details.rpartition(" -> ")[2] == "1976528"
                   for ev in returns)
        assert ("Console", "print:1976528", trace.events[-2].step) in \
            trace.machine.registry.effect_log or any(
                e[1] == "print:1976528"
                for e in trace.machine.registry.effect_log)
        assert time.monotonic() - start < 1.0


SWAP_BLOCK_L = """
extern L -> class LoggingCtor {
  void poke() { call poke: void; return PR: void; }
}
"""

SWAP_BLOCK_K = """
extern K -> class Counter {
  int inc() { call inc: void; return IR: int; }
}
"""

SWAP_MAIN = "(poke!().PR?().nil) | (inc!().IR?(v).nil)\n"


def test_criterion_2_lazy_instantiation_congruence():
    with criterion(2, "swapped extern decls, identical effect logs seeds 0..99"):
        start = time.monotonic()
        prog_a = desugar(parse_program(SWAP_BLOCK_L + SWAP_BLOCK_K + SWAP_MAIN))
        prog_b = desugar(parse_program(SWAP_BLOCK_K + SWAP_BLOCK_L + SWAP_MAIN))
        distinct_logs = set()
        for seed in range(100):
            reg_a, reg_b = build_std_registry(), build_std_registry()
            ta = run(prog_a, seed=seed, registry=reg_a)
            tb = run(prog_b, seed=seed, registry=reg_b)
            assert ta.status == tb.status == "terminated"
            assert reg_a.effect_log_lines() == reg_b.effect_log_lines()
            distinct_logs.add(reg_a.effect_log_lines())
        # the scheduler really does vary the constructor order across seeds,
        # so the equality above is not vacuous
        assert len(distinct_logs) > 1
        assert time.monotonic() - start < 10.0


def test_criterion_3_congruence_oracle_equivalence():
    with criterion(3, "congruent vs axiom-closure oracle, all pairs size<=6"):
        start = time.monotonic()
        supply = NameSupply()
        free = [supply.fresh(c) for c in ("x", "y")]
        terms = enumerate_terms(free, 6)
        n = len(terms)
        pairs = n * (n - 1) // 2
        assert 10**4 <= pairs <= 10**5, pairs
        # both sides induce a partition of the term set; the partitions are
        # identical iff the pairwise verdicts agree on all C(n,2) pairs
        uf = closure_components(terms, size_cap=9)
        canon_to_root = {}
        root_to_canon = {}
        for t in terms:
            ck = canonical_key(t)
            rk = uf.find(alpha_key(t))
            if ck in canon_to_root:
                assert canon_to_root[ck] == rk, (ck, rk)
            else:
                canon_to_root[ck] = rk
            if rk in root_to_canon:
                assert root_to_canon[rk] == ck, (rk, ck)
            else:
                root_to_canon[rk] = ck
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        print(f"  [{n} terms, {pairs} pairs, "
              f"{len(canon_to_root)} classes, {elapsed:.2f}s]")


def test_criterion_4_round_trip_suites():
    with criterion(4, ">=1000 text and >=1000 execution-format round trips"):
        rng = random.Random(20260823)
        for i in range(1000):
            program = gen_program(rng)
            assert program_alpha_eq(program,
                                    parse_program(format_program(program)))
        for i in range(1000):
            program = desugar(gen_program(rng))
            text = to_xml(program)
            assert same_program(from_xml(text), program)
            assert to_xml(from_xml(text)) == text


def test_criterion_5_protocol_enforcement():
    with criterion(5, "static E-USE rejection + runtime violation reachable"):
        # (a) sequential double call is rejected statically
        bad = desugar(parse_program(ACCOUNT_EXTERN + "read!().read!().Ret2?(v).nil"))
        diags = check_extern_usage(bad)
        assert any(d.code == "E-USE" and d.severity == "error" for d in diags)
        # (b) the parallel variant: statically only W-PAR, but adversarial
        # exhaustive scheduling exhibits both a violation and a completion
        src = ACCOUNT_EXTERN + "(read!().Ret2?(v).nil) | (read!().Ret2?(w).nil)"
        par = desugar(parse_program(src))
        diags = check_extern_usage(par)
        assert {d.code for d in diags} == {"W-PAR"}
        statuses = {status for _, status in
                    explore_runs(par, build_std_registry, max_depth=12)}
        assert "violation" in statuses
        assert "terminated" in statuses


def test_criterion_6_schema_check_exact():
    with criterion(6, "schema check accepts exactly the canonical cycle"):
        # every acceded-as clause of 1-3 steps over three channels and
        # three payloads, on the method read(): call read, return Ret2(int)
        steps = [f"{chan}({payload})" for chan in ("read", "Ret2", "X")
                 for payload in ("", "int", "string")]
        total = accepted = 0
        for n in range(1, 4):
            for body in itertools.product(steps, repeat=n):
                src = ("extern A -> class Account {\n"
                       "  int read() { call read: void; return Ret2: int; }"
                       f" acceded as {{rec S {{{'.'.join(body)}.S}}}}\n}}\nnil")
                ok = check_protocol_schema(parse_program(src).externs[0]) == []
                assert ok == (body == ("read()", "Ret2(int)")), body
                total += 1
                accepted += ok
        assert (total, accepted) == (819, 1)
        print(f"  [{total} clauses enumerated, {accepted} accepted]")


def test_criterion_7_determinism_replay():
    with criterion(7, "50 random programs x 3 replays, identical traces"):
        rng = random.Random(7)
        for i in range(50):
            program = desugar(gen_program(rng, with_externs=False))
            seed = rng.randrange(2**32)
            outs = set()
            for _ in range(3):
                trace = run(program, seed=seed, max_steps=80)
                outs.add((trace.lines(), trace.status))
            assert len(outs) == 1


def test_criterion_8_ifgen_fidelity():
    with criterion(8, "generated Account interface equals the hand-parsed block"):
        text = generate_interface(parse_manifest(ACCOUNT_MANIFEST), "FClass")
        gen_decl = parse_program(text + "nil").externs[0]
        hand_decl = parse_program(ACCOUNT_EXTERN + "nil").externs[0]
        assert _extern_eq(gen_decl, hand_decl)
        program = desugar(parse_program(text + "nil"))
        assert check_sorts(program) == []
        assert check_protocol_schema(gen_decl) == []
        assert check_extern_usage(program) == []
        assert "FClass" in resolve_externs([gen_decl], build_std_registry())


def test_criterion_9_fusion_semantics():
    with criterion(9, "comm fuses argument pairs; literal reaches w's class"):
        # hand derivation of  x!(a) | x?<v>.v!(1) | a?<w>   (v, w free):
        #   step 0: comm on x      -> fuse a~v;  soup becomes v!(1) | a?<w>
        #   step 1: comm on a=v    -> fuse 1~w;  soup empty
        from pichan.core import Nil
        supply = NameSupply()
        x, a, v, w = (supply.fresh(c) for c in "xavw")
        program = Program((), Par(
            Out(x, (a,), Nil()),
            Par(In(x, (v,), False, Out(v, (IntLit(1),), Nil())),
                In(a, (w,), False, Nil()))))
        trace = run(program, seed=0)
        assert trace.status == "terminated"
        assert [ev.kind for ev in trace.events] == ["comm", "comm"]
        first, second = trace.events
        assert first.details.partition("/")[0] == x.display
        subject, _, rest = second.details.partition("/")
        assert subject in (a.display, v.display)  # the fused a/v class
        assert rest == "1 1~w"  # one object, the literal 1, fused with w
        env = trace.machine.env
        assert env.fused_equal(a, v)
        assert env.attached_literal(w) == IntLit(1)
