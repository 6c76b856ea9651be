"""Tests of the benchmark's generators, oracles and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def generated_files(name: str, seed: int, work: Path) -> dict:
    env = run.setup(WORKLOADS[name], seed, work, None)
    assert len(env.cases) == WORKLOADS[name].pool
    return {str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = generated_files(name, 5, tmp_path / "a")
    again = generated_files(name, 5, tmp_path / "b")
    other = generated_files(name, 6, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.fixture
def env(tmp_path):
    mods = run.load_pichan(run.ROOT / "src")
    for sub in ("manifests", "iface"):
        (tmp_path / sub).mkdir()
    return run.SimpleNamespace(mods=mods, probe=run.Probe(mods),
                               gen_iface=run.make_gen_iface(mods, tmp_path),
                               xir=str(tmp_path / "out.xir.xml"), dir=tmp_path)


def verdicts(env, name: str, case, tracer=None) -> list:
    """Failures the benchmark records for one case."""
    path = env.dir / f"case{case.key}.pi"
    path.write_text(case.source, encoding="utf-8")
    tally = run.Tally({})
    run.run_case(env, WORKLOADS[name], tally,
                 (case, str(path), len(case.source)), tracer)
    return tally.failures


@pytest.mark.parametrize("key", [0, 1, 2, 3, 7, 15, 23])
def test_compile_mix_cases_meet_their_planted_verdicts(env, key):
    case = workloads.compile_mix_case(0, key, env.gen_iface)
    assert case.expect_compile == {3: 1, 7: 2, 15: 2, 23: 2}.get(key, 0)
    assert verdicts(env, "compile-mix", case) == []


def test_compile_mix_oracle_flags_a_wrong_verdict(env):
    case = workloads.compile_mix_case(0, 3, env.gen_iface)  # planted syntax error
    case.expect_compile, case.expect_diag = 0, ""
    assert verdicts(env, "compile-mix", case)
    case = workloads.compile_mix_case(0, 7, env.gen_iface)  # planted E-SORT
    case.expect_diag = "E-PROTO"
    assert verdicts(env, "compile-mix", case)


def test_compile_mix_run_oracle_flags_a_short_trace():
    case = workloads.Case(0, "", 0, "", 4, 0, {"steps": 4})
    check = workloads.check_compile_mix_run
    assert check(case, 6, ["0|a|b"] * 4, None) == ""
    assert check(case, 6, ["0|a|b"] * 3, None)
    assert check(case, 4, ["0|a|b"] * 4, None)


def test_vm_echo_oracle_flags_a_client_checking_i_plus_one(env):
    ids = [11, 22, 33, 44, 55]
    good = workloads.Case(0, workloads.echo_source(ids), 0, "", 4 * 5 + 1 + 10, 9,
                          {"clients": 5})
    assert verdicts(env, "vm-echo", good) == []
    wrong = [11, 22, 34, 44, 55]  # the third client checks y = i+1
    bad = workloads.Case(0, workloads.echo_source(ids, wrong), 0, "",
                         good.max_steps, 9, {"clients": 5})
    assert any("clash" in f for f in verdicts(env, "vm-echo", bad))


def host_case(env, counters: list, printed=None) -> workloads.Case:
    blocks = {alias: workloads.namespace_channels(
        workloads.strip_main(env.gen_iface(m, alias)), alias)
        for alias, m in workloads.host_manifests()}
    returned = sorted(v for k in set(counters)
                      for v in range(1, counters.count(k) + 1))
    return workloads.Case(0, workloads.host_source(blocks, counters, printed), 0,
                          "", 200, 3, {"prints": returned, "ctors": 12})


def test_vm_host_oracle_flags_a_wrong_printed_value(env):
    counters = list(range(8)) + [0, 3, 3]
    assert verdicts(env, "vm-host", host_case(env, counters)) == []
    printed = ["a"] * len(counters)
    printed[4] = "7"  # one worker prints a constant instead of its count
    failures = verdicts(env, "vm-host", host_case(env, counters, printed))
    assert any("printed values" in f for f in failures)


def test_pace_scales_to_the_reference_speed():
    pace = run.Pace()
    pace.recent.extend([2 * run.REF_SECONDS] * 5)
    pace.last = run.time.perf_counter()
    assert pace.factor() == 0.5  # a machine at half speed halves the times


def test_digest_change_is_counted():
    case = workloads.Case(4, "", 0, "", 1, 0)
    tally = run.Tally({"4": "0" * 64})
    tally.digest(case, "0|comm|x/0", "terminated", 0)
    assert tally.trace_changed == 1
    tally = run.Tally({})
    tally.digest(case, "0|comm|x/0", "terminated", 0)
    tally.digest(case, "0|comm|x/0", "terminated", 0)
    tally.digest(case, "0|comm|x/1", "terminated", 0)
    assert tally.trace_changed == 1


def test_tail_has_ten_samples_beyond_it():
    samples = [(float(i), False, float(i)) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0, 40)
    samples[0] = (0.0, True, 0.0)  # a failed op is a miss
    assert run.tail(samples) == (30.0, 75.0, 40)
    few = [(float(i), False, float(i)) for i in range(3, 11)]
    assert run.tail(few) == (10.0, 100.0, 8)  # the largest, never the smallest
    few[0] = (3.0, True, 3.0)
    assert run.tail(few) == (float("inf"), 100.0, 8)


def test_setup_in_child_pays_a_fresh_interpreter(tmp_path):
    seconds = run.setup_in_child("vm-echo", 0, tmp_path / "work")
    assert seconds > 0
    assert not (tmp_path / "work").exists()
    (tmp_path / "file").write_text("")
    with pytest.raises(run.SetupError):  # the work dir cannot be made
        run.setup_in_child("vm-echo", 0, tmp_path / "file" / "work")


def test_layer_self_times_add_up_to_the_op_time(env):
    tracer = Tracer()
    tracer.attach(env.mods)
    tracer.install()
    try:
        case = workloads.compile_mix_case(0, 0, env.gen_iface)
        assert verdicts(env, "compile-mix", case, tracer) == []
    finally:
        tracer.remove()
    # gen-iface ran while setting up (op -1), compile and run are ops 0 and 1
    assert tracer.kinds == {0: "compile", 1: "run"}
    setup, ops = tracer.self_times()
    assert setup["ifgen.generate_interface"] > 0
    roots = sum(end - start for (name, start, end, _, op) in tracer.spans
                if name == "cli.main" and op >= 0)
    assert sum(ops.values()) == pytest.approx(roots, rel=1e-9)
    metrics = tracer.metrics(roots, roots)
    assert metrics["vm.steps"][0] == workloads.MIX_MAX_STEPS
    assert metrics["core.fused_equal_calls"][0] > 0
    assert metrics["parser.nodes"][0] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tally = run.Tally({})
    tally.compile = [(0.1, False, 0.1)] * 20
    tally.run = [(0.2, False, 0.2)] * 20
    printed = {n: u for n, (_, u, _) in run.end_to_end(tally, [(1.0, 1.0)]).items()
               if n not in run.TABLE_ONLY}
    assert list(printed) == [m["name"] for m in spec["end_to_end"]]
    assert printed == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {n: u for n, (_, u) in Tracer().metrics(1.0, 1.0).items()}
    assert layers == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
