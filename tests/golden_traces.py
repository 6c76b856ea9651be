"""Golden-trace corpus: the sha256 of (trace lines, status) for every sample
at seeds 0-4, for 50 randgen programs, for small echo-server and
host-worker programs (the shapes of the vm-echo and vm-host benchmark
workloads) and for floods, flat `|`s and prefix chains (the wide and deep
shapes of deep_inputs.py, given partners) at seeds 0-4.  test_vm replays
it, so any change to the scheduler that alters a trace fails there.

A second table, golden/env_traces.json, holds the families that stress how
the VM scopes `new` at run time: binders under nested `repeat`s, one binder
re-bound on every unfold, and one `new` over a wide `|`.  They were recorded
with the substitution VM, before threads carried environments.

A third, golden/explore_runs.json, holds the sha256 of the list that
vm.explore_runs returns (every run's event kinds and status, in the order
of the depth-first search) for the samples, a sequential double call on
Account, small host-worker and echo programs, the scoping families and 30
randgen programs.  It was recorded with the VM that explored by copying
machines, before explore_runs replayed each path on a fresh machine.

Re-record only for a deliberate change of semantics:

    PYTHONPATH=src python tests/golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pichan.interop import build_std_registry
from pichan.parser import desugar, parse_program
from pichan.vm import DEFAULT_MAX_STEPS, run

from explore import explore_runs
from randgen import gen_program

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "traces.json"
ENV_GOLDEN = HERE / "golden" / "env_traces.json"
EXPLORE_GOLDEN = HERE / "golden" / "explore_runs.json"
SAMPLES = HERE.parent / "samples"
SAMPLE_SEEDS = range(5)
RANDGEN_PROGRAMS = 50
RANDGEN_MAX_STEPS = 100
RANDGEN_MAX_NODES = 60  # the default 25 gives few programs that move
ECHO_CLIENTS = (3, 6, 10)
HOST_WORKERS = (4, 8)
HOST_COUNTERS = 3
HOST_CONSOLES = 2
ENV_MAX_STEPS = 60
WIDE_NEW = 50
# the floods of 100 and 200 were recorded by the scheduler that listed one
# entry per redex, cubic in a flood's size, before it listed one per head
FLOODS = (4, 12, 24, 100, 200)
FLAT_PARS = (10, 40)
CHAINS = (3, 8)
EXPLORE_RANDGEN = 30
EXPLORE_DEPTH = 7  # for the scoping families and the randgen programs
ACCOUNT = """extern FClass -> class Account {
  int read() { call read: void; return Ret2: int; }
}
"""


def echo_source(clients: int) -> str:
    """One hot channel: a replicated echo server and clients that each check
    their echo with a fusion.  The clients wait idle on their own reply
    channels while the server serves the others."""
    lines = ["repeat s?(x, r).r!(x)"]
    lines += [f"new r in s!({7 * i + 1}, r).r?(y).y = {7 * i + 1}"
              for i in range(clients)]
    return "\n| ".join(lines) + "\n"


def host_source(workers: int) -> str:
    """Many channels: workers that take a value from one of several Counter
    aliases and print it on the Console alias that counter feeds."""
    blocks = [f"extern K{k} -> class Counter {{\n"
              f"  int inc() {{\n    call inc{k}: void;\n"
              f"    return R{k}: int;\n"
              f"  }} acceded as {{rec S {{inc{k}().R{k}(int).S}}}}\n}}\n"
              for k in range(HOST_COUNTERS)]
    blocks += [f"extern P{c} -> class Console {{\n"
               f"  void print(int) {{\n    call print{c}: int;\n"
               f"    return D{c}: void;\n"
               f"  }} acceded as {{rec S {{print{c}(int).D{c}().S}}}}\n}}\n"
               for c in range(HOST_CONSOLES)]
    lines = []
    for w in range(workers):
        k = w % HOST_COUNTERS
        c = k % HOST_CONSOLES
        lines.append(f"inc{k}!().R{k}?(a).print{c}!(a).D{c}?()")
    return "".join(blocks) + "\n| ".join(lines) + "\n"


def bench_families():
    """Yield (name, program, max_steps) for the echo and host programs."""
    for n in ECHO_CLIENTS:
        yield f"echo{n}", parse_program(echo_source(n)), 4 * n + 1 + n // 2
    for w in HOST_WORKERS:
        yield f"host{w}", parse_program(host_source(w)), 10 * w


def flood_source(n: int) -> str:
    """n outputs and n inputs on one channel: each output can meet each
    input."""
    return " | ".join([f"x!({i})" for i in range(n)]
                      + [f"x?(v{i})" for i in range(n)]) + "\n"


def flat_par_source(n: int) -> str:
    """One flat `|` of n threads: an output and an input on each of n/2
    channels, every pair ready at once."""
    return " | ".join(f"c{i // 2}!({i})" if i % 2 == 0 else f"c{i // 2}?(v)"
                      for i in range(n)) + "\n"


def chain_source(n: int) -> str:
    """Two writers and two readers on one channel, each a prefix chain of
    n actions."""
    chains = [".".join(f"x!({10 * w + i})" for i in range(n)) for w in (1, 2)]
    chains += [".".join(f"x?({r}{i})" for i in range(n)) for r in "ab"]
    return " | ".join(chains) + "\n"


def shape_families():
    """Yield (name, program, max_steps) for the flood, flat-| and
    prefix-chain families."""
    for n in FLOODS:
        yield f"flood{n}", parse_program(flood_source(n)), 2 * n
    for n in FLAT_PARS:
        yield f"flatpar{n}", parse_program(flat_par_source(n)), n
    for n in CHAINS:
        yield f"chain{n}", parse_program(chain_source(n)), 4 * n


def nested_repeat_source() -> str:
    """`new` under `repeat` three deep: each unfold binds a fresh name that
    the next level's body sends on, and a consumer walks the chain."""
    return ("repeat new a in (k!(a) | repeat new b in (a!(b)"
            " | repeat new c in (b!(c) | c?(d).d!())))\n"
            "| repeat k?(x).x?(y).y?(z).z!(1)\n")


def rebind_source() -> str:
    """One binder, r, re-bound on every unfold of the client; the server
    answers on whichever r it was sent, and a fusion pins each answer."""
    return ("repeat new r in s!(7, r).r?(v).v = 7\n"
            "| repeat s?(x, q).q!(x)\n")


def wide_new_source(width: int) -> str:
    """One `new` over a flat `|` of outputs and inputs on its name."""
    parts = [f"z!({i})" if i % 2 == 0 else f"z?(v{i})" for i in range(width)]
    return "new z in (" + " | ".join(parts) + ")\n"


def env_families():
    """Yield (name, program, max_steps) for the scoping families."""
    yield "nested3", parse_program(nested_repeat_source()), ENV_MAX_STEPS
    yield "rebind", parse_program(rebind_source()), ENV_MAX_STEPS
    yield (f"widenew{WIDE_NEW}", parse_program(wide_new_source(WIDE_NEW)),
           ENV_MAX_STEPS)


def env_corpus():
    """Yield (name, program, seed, max_steps) for every env_traces entry."""
    for name, program, max_steps in env_families():
        for seed in SAMPLE_SEEDS:
            yield f"{name}@{seed}", program, seed, max_steps


def corpus():
    """Yield (name, program, seed, max_steps) for every corpus entry."""
    for path in sorted(SAMPLES.glob("*.pi")):
        program = parse_program(path.read_text())
        for seed in SAMPLE_SEEDS:
            yield f"{path.name}@{seed}", program, seed, DEFAULT_MAX_STEPS
    for k in range(RANDGEN_PROGRAMS):
        program = gen_program(random.Random(k), with_externs=False,
                              max_nodes=RANDGEN_MAX_NODES)
        yield f"randgen{k}@{k}", program, k, RANDGEN_MAX_STEPS
    for name, program, max_steps in (*bench_families(), *shape_families()):
        for seed in SAMPLE_SEEDS:
            yield f"{name}@{seed}", program, seed, max_steps


def explore_corpus():
    """Yield (name, program, max_depth, strict) for every explore_runs
    entry; the samples and host programs are explored both ways."""
    both = [(path.name, parse_program(path.read_text()), 20)
            for path in sorted(SAMPLES.glob("*.pi"))]
    both += [
        ("sequential-reads", parse_program(
            ACCOUNT + "read!() | read!() | Ret2?(v) | Ret2?(w)"), 20),
        ("host2", parse_program(host_source(2)), 20),
        ("echo1", parse_program(echo_source(1)), 12),
    ]
    for name, program, depth in both:
        for strict in (False, True):
            yield f"{name}/{'strict' if strict else 'loose'}", program, depth, strict
    yield "nested3", parse_program(nested_repeat_source()), EXPLORE_DEPTH, False
    yield "rebind", parse_program(rebind_source()), EXPLORE_DEPTH, False
    yield "widenew6", parse_program(wide_new_source(6)), EXPLORE_DEPTH, False
    for k in range(EXPLORE_RANDGEN):
        program = gen_program(random.Random(k), with_externs=False,
                              max_nodes=RANDGEN_MAX_NODES)
        yield f"randgen{k}", program, EXPLORE_DEPTH, False


def explore_digest(program, max_depth: int, strict: bool) -> str:
    runs = explore_runs(program, build_std_registry, max_depth=max_depth,
                        strict=strict)
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def digest(program, seed: int, max_steps: int) -> str:
    trace = run(desugar(program), seed=seed, max_steps=max_steps)
    text = json.dumps([trace.lines(), trace.status])
    return hashlib.sha256(text.encode()).hexdigest()


def load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, entries in ((GOLDEN, corpus()), (ENV_GOLDEN, env_corpus())):
        table = {name: digest(program, seed, max_steps)
                 for name, program, seed, max_steps in entries}
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {path}")
    table = {name: explore_digest(program, max_depth, strict)
             for name, program, max_depth, strict in explore_corpus()}
    EXPLORE_GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {len(table)} digests to {EXPLORE_GOLDEN}")
