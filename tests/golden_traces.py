"""Golden-trace corpus: the sha256 of (trace lines, status) for every sample
at seeds 0-4 and for 50 randgen programs.  test_vm replays it, so any change
to the scheduler that alters a trace fails there.

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
SAMPLES = HERE.parent / "samples"
SAMPLE_SEEDS = range(5)
RANDGEN_PROGRAMS = 50
RANDGEN_MAX_STEPS = 100
RANDGEN_MAX_NODES = 60  # the default 25 gives few programs that move


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


def digest(program, seed: int, max_steps: int) -> str:
    trace = run(program, seed=seed, max_steps=max_steps)
    text = json.dumps([trace.lines(), trace.status])
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {name: digest(program, seed, max_steps)
             for name, program, seed, max_steps in corpus()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
