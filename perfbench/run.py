"""pichan's benchmark: seeded workloads through `pichan compile` and `pichan run`.

    python3 perfbench/run.py --workload compile-mix --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; pichan is imported from its `src/`.  The
benchmark is one process with one thread and a closed loop: it compiles one
case, runs it, checks both against the case's oracle, then takes the next
case.  Both commands go through `pichan.cli.main` in process, with stdout
and stderr captured, exactly as the `pichan` script calls it.

`--trace 0` prints the end-to-end metrics, with times scaled to a
reference speed (see `Pace`) and `setup_s` timed in fresh interpreters
(see `setup_in_child`); `--trace 1` wraps the layers' public
functions in spans (see tracer.py), runs every op once untraced and once
traced, and prints the per-layer metrics in raw seconds.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, manifest_text

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Timed set-ups per run, each in a fresh interpreter: one before the first
# op, the others spread over the measuring time, so their median does not
# hang on one moment of a machine whose speed drifts.
SETUP_REPEATS = 5
SETUP_TIMEOUT = 120
# Printed, but left out of the JSON result: both are 0 on a correct run,
# and a bound relative to a median of 0 means nothing.  They feed
# `failed` and `correct` instead.
TABLE_ONLY = ("fail_ratio", "trace_changed")
MODULES = ("cli", "core", "ifgen", "interop", "parser", "typecheck", "vm", "xir")


# The speed of a shared machine drifts: on a shared 2-vCPU virtual machine
# the same compile took 61 ms in one minute and 94 ms a few minutes later,
# CPU time included.  A fixed reference workload timed next to the ops
# tracked that drift to within about 4%, so every end-to-end time is scaled
# to a machine on which the reference takes REF_SECONDS.
REF_DOC = "<r>" + "<e a='1'><f b='x'/></e>" * 1500 + "</r>"
REF_SECONDS = 0.005
REF_EVERY = 0.25


def reference() -> None:
    """Fixed work like pichan's: XML parsing and small Python objects."""
    ET.fromstring(REF_DOC)
    table = {}
    for i in range(15000):
        table[i % 997] = (i, i * 3 % 7)


class Pace:
    """Times `reference()` at most every REF_EVERY seconds; `factor()`
    turns a measured time into seconds at the reference speed.  The cyclic
    GC is off while the reference runs, so garbage pichan left pending is
    not collected inside it."""

    def __init__(self):
        self.recent = collections.deque(maxlen=5)
        self.last = -math.inf

    def factor(self) -> float:
        if not self.recent or time.perf_counter() - self.last >= REF_EVERY:
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                reference()
                self.last = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.recent.append(self.last - start)
        return REF_SECONDS / statistics.median(self.recent)


class SetupError(Exception):
    pass


def load_pichan(src: Path) -> SimpleNamespace:
    """Import pichan afresh from `src`, so each set-up pays the import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "pichan" or m.startswith("pichan.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"pichan.{m}")
                              for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent != (src / "pichan").resolve():
        raise SetupError(f"pichan was imported from {mods.cli.__file__}, not {src}")
    return mods


def call(mods, argv: list, tracer=None) -> tuple:
    """One `pichan` command in process: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    if tracer is not None:
        tracer.begin_op(argv[0])
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = mods.cli.main(argv)
    except (Exception, SystemExit) as exc:  # any exception is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.after_op()
    return seconds, code, out.getvalue(), error


class Probe:
    """Keeps the registry and trace status of the last `pichan run`: the
    oracle reads the host effect log, the digest needs the status."""

    def __init__(self, mods):
        self.registry = None
        self.status = None
        build_registry, run = mods.cli.build_registry, mods.vm.run

        def probe_registry(name):
            self.registry = build_registry(name)
            return self.registry

        def probe_run(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.status = trace.status
            return trace

        mods.cli.build_registry = probe_registry
        mods.vm.run = probe_run


def make_gen_iface(mods, work: Path):
    """`pichan gen-iface` on a manifest written under `work`; returns the
    generated source.  Each distinct (manifest, alias) runs once."""
    ifaces: dict = {}

    def gen_iface(manifest: dict, alias: str) -> str:
        key = (json.dumps(manifest, sort_keys=True), alias)
        if key not in ifaces:
            n = len(ifaces)
            mpath, opath = work / "manifests" / f"m{n}.json", work / "iface" / f"i{n}.pi"
            mpath.write_text(manifest_text(manifest), encoding="utf-8")
            _, code, out, error = call(mods, ["gen-iface", str(mpath), "--alias",
                                              alias, "-o", str(opath)])
            if code != 0:
                raise SetupError(f"gen-iface {mpath} exited {code}: {error or out}")
            ifaces[key] = opath.read_text(encoding="utf-8")
        return ifaces[key]
    return gen_iface


def setup(workload, seed: int, work: Path, tracer) -> SimpleNamespace:
    """Import pichan, build the std registry, generate every case of the
    pool (gen-iface included) and write it to disk."""
    if tracer is not None:
        tracer.begin_setup()
    if work.exists():
        shutil.rmtree(work)
    (work / "manifests").mkdir(parents=True)
    (work / "iface").mkdir()
    (work / "cases").mkdir()
    mods = load_pichan(ROOT / "src")
    probe = Probe(mods)
    if tracer is not None:
        tracer.attach(mods)
        tracer.install()
    mods.interop.build_registry("std")
    gen_iface = make_gen_iface(mods, work)
    cases = []
    for key in range(workload.pool):
        case = workload.make_case(seed, key, gen_iface)
        path = work / "cases" / f"case{key}.pi"
        path.write_text(case.source, encoding="utf-8")
        cases.append((case, str(path), len(case.source.encode("utf-8"))))
    return SimpleNamespace(mods=mods, probe=probe, cases=cases,
                           xir=str(work / "out.xir.xml"))


def setup_in_child(workload: str, seed: int, work: Path) -> float:
    """Wall seconds of one `setup` in a fresh interpreter, from its start
    to its exit, so every sample pays the interpreter's start and every
    import, pichan's and its dependencies'."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(work)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    seconds = time.perf_counter() - start
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds


class Tally:
    """Samples and verdicts of one run."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.seen: dict = {}
        self.compile = []  # (seconds at reference speed, failed, raw seconds)
        self.run = []
        self.src_ok = 0
        self.xir = 0
        self.events = 0
        self.failures = []
        self.trace_changed = 0

    def fail(self, case, what: str) -> None:
        self.failures.append(f"case {case.key}: {what}")

    def digest(self, case, text: str, status, code) -> None:
        digest = hashlib.sha256(f"{text}\0{status}\0{code}".encode()).hexdigest()
        ref = self.golden.get(str(case.key)) or self.seen.get(case.key)
        if ref is None:
            self.seen[case.key] = digest
        elif ref != digest:
            self.trace_changed += 1
            self.fail(case, "trace digest changed")

    @property
    def attempted(self) -> int:
        return len(self.compile) + len(self.run)

    @property
    def failed(self) -> int:
        return sum(s[1] for s in self.compile) + sum(s[1] for s in self.run)


def run_case(env, workload, tally: Tally, item, tracer=None, pace=None) -> float:
    """Compile one case and, if it should compile, run it.  Returns the
    seconds spent inside the two commands."""
    case, path, size = item
    scale = pace.factor() if pace else 1.0
    seconds, code, out, error = call(env.mods, ["compile", path, "-o", env.xir], tracer)
    bad = error or (code != case.expect_compile and f"compile exit {code}, "
                    f"expected {case.expect_compile}")
    if not bad and case.expect_diag and case.expect_diag not in out:
        bad = f"compile did not report {case.expect_diag}"
    tally.compile.append((seconds * scale, bool(bad), seconds))
    if bad:
        tally.fail(case, bad)
    if bad or code != 0:
        return seconds
    tally.src_ok += size
    tally.xir += os.path.getsize(env.xir)
    env.probe.registry = env.probe.status = None
    scale = pace.factor() if pace else 1.0
    run_s, code, out, error = call(env.mods, ["run", env.xir, "--seed", str(case.vm_seed),
                                              "--max-steps", str(case.max_steps)], tracer)
    lines = out.splitlines()
    bad = error or workload.check_run(case, code, lines, env.probe.registry)
    tally.run.append((run_s * scale, bool(bad), run_s))
    tally.events += len(lines)
    if bad:
        tally.fail(case, bad)
    else:
        tally.digest(case, out, env.probe.status, code)
    return seconds + run_s


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count).  A failed op is an infinite time.
    With ten samples or fewer no percentile qualifies, and the largest
    sample stands in for it."""
    vals = sorted(math.inf if failed else s for s, failed, _ in samples)
    n = len(vals)
    if n <= 10:
        return vals[-1] if vals else math.nan, 100.0, n
    return vals[n - 11], 100.0 * (n - 10) / n, n


def finite(x: float) -> float:
    return x if math.isfinite(x) else 1e9


def median_or_nan(values: list) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(tally: Tally, setups: list) -> dict:
    """Every time is in seconds at the reference speed, `setup_s` too,
    whose unit the benchmark contract fixes as plain `s`; the notes give
    the raw medians as measured."""
    ctimes, craw = [s[0] for s in tally.compile], [s[2] for s in tally.compile]
    rtimes, rraw = [s[0] for s in tally.run], [s[2] for s in tally.run]
    ctail, cpct, cn = tail(tally.compile)
    rtail, rpct, rn = tail(tally.run)
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s",
                    f"median of {len(setups)}; raw "
                    f"{statistics.median(r for _, r in setups):.4g}"),
        "compile_s_p50": (statistics.median(ctimes), "s_ref",
                          f"n={cn}; raw {statistics.median(craw):.4g}"),
        "compile_s_tail": (finite(ctail), "s_ref", f"p{cpct:.1f} of n={cn}"),
        "compile_kb_per_s": (tally.src_ok / 1000 / sum(ctimes), "KB/s_ref",
                             f"raw {tally.src_ok / 1000 / sum(craw):.4g}"),
        "run_s_p50": (finite(median_or_nan(rtimes)), "s_ref",
                      f"n={rn}; raw {median_or_nan(rraw):.4g}"),
        "run_s_tail": (finite(rtail), "s_ref", f"p{rpct:.1f} of n={rn}"),
        "run_steps_per_s": (tally.events / sum(rtimes) if rtimes else 0.0,
                            "steps/s_ref", f"raw {tally.events / sum(rraw):.4g}"
                            if rraw else ""),
        "xir_bytes_per_src_byte": (tally.xir / max(tally.src_ok, 1), "ratio", ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", ""),
        "fail_ratio": (tally.failed / max(tally.attempted, 1), "ratio",
                       f"{tally.failed} of {tally.attempted} ops"),
        "trace_changed": (tally.trace_changed, "count",
                          f"{len(tally.golden)} recorded digests"),
    }


def load_golden(workload: str, seed: int) -> dict:
    path = HERE / "golden_digests.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {})


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, note) in rows.items():
        print(f"  {name:36s} {value:>16.6g} {unit:9s} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", type=Path,
                    help=argparse.SUPPRESS)  # one timed set-up, see setup_in_child
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "pichan" / "cli.py").is_file():
        print(f"perfbench: no pichan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(workload, args.seed, args.setup_only, None)
        return 0
    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    pace = Pace()
    setups = []  # (seconds at reference speed, raw seconds)

    def timed_setup():
        scale = pace.factor()
        seconds = setup_in_child(args.workload, args.seed,
                                 work.with_name(work.name + "-setup"))
        setups.append((seconds * scale, seconds))

    try:
        env = setup(workload, args.seed, work, tracer)
        tally = Tally(load_golden(args.workload, args.seed))
        shadow = Tally({})  # the untraced twins of traced ops
        untraced = traced = 0.0
        start = time.perf_counter()
        k = 0
        while True:
            measured = time.perf_counter() - start - sum(r for _, r in setups)
            if measured >= args.seconds:
                break
            if (tracer is None and len(setups) < SETUP_REPEATS
                    and measured >= args.seconds * len(setups) / SETUP_REPEATS):
                timed_setup()
            item = env.cases[k % len(env.cases)]
            k += 1
            if tracer is None:
                run_case(env, workload, tally, item, pace=pace)
            else:
                # alternate which twin runs first, so warm-up favours neither
                for traced_twin in ((False, True) if k % 2 else (True, False)):
                    if traced_twin:
                        tracer.install()
                        traced += run_case(env, workload, tally, item, tracer)
                    else:
                        tracer.remove()
                        untraced += run_case(env, workload, shadow, item)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = tally.failed + shadow.failed
    tally.failures += shadow.failures
    for line in tally.failures[:20]:
        print(f"FAIL {line}")
    if tracer is None:
        rows = end_to_end(tally, setups)
        print_table(f"{args.workload} seed {args.seed}: end-to-end", rows)
        metrics = {n: v for n, v in rows.items() if n not in TABLE_ONLY}
    else:
        rows = {n: (v, u, "") for n, (v, u) in tracer.metrics(
            traced, untraced).items()}
        print_table(f"{args.workload} seed {args.seed}: per layer (traced)", rows)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = rows
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted + shadow.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
