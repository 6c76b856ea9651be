"""Golden-trace corpus: the sha256 of (trace lines, status) for every sample
at seeds 0-4, for 50 randgen programs, and for small echo-server and
host-worker programs (the shapes of the vm-echo and vm-host benchmark
workloads) at seeds 0-4.  test_vm replays it, so any change to the
scheduler that alters a trace fails there.

A second table, golden/env_traces.json, holds the families that stress how
the VM scopes `new` at run time: binders under nested `repeat`s, one binder
re-bound on every unfold, and one `new` over a wide `|`.  They were recorded
with the substitution VM, before threads carried environments.

Re-record only for a deliberate change of semantics:

    PYTHONPATH=src python tests/golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pichan.parser import parse_program
from pichan.vm import DEFAULT_MAX_STEPS, run

from randgen import gen_program

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "traces.json"
ENV_GOLDEN = HERE / "golden" / "env_traces.json"
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
    for name, program, max_steps in bench_families():
        for seed in SAMPLE_SEEDS:
            yield f"{name}@{seed}", program, seed, max_steps


def digest(program, seed: int, max_steps: int) -> str:
    trace = run(program, seed=seed, max_steps=max_steps)
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
