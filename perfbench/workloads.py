"""Seeded input generators and oracles for the three benchmark workloads.

Every workload turns a seed into a pool of cases.  A case is one `.pi`
program plus what the benchmark expects of it: the exit code and
diagnostic code of `pichan compile`, and the facts its oracle checks on
`pichan run`.  The expectations come from how the program was built, never
from pichan's own output.

Case sizes follow a low-discrepancy sequence over the case index (an
additive recurrence on the golden ratio, or on the plastic number for two
coordinates).  Any prefix of the pool then covers the size range almost
evenly, so a run that stops early on a slow machine still sees the same
mix.  The sizes do not depend on the seed, only the contents do, so the
medians of different seeds agree.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field

GOLDEN = 0.6180339887498949
PLASTIC_1 = 0.7548776662466927
PLASTIC_2 = 0.5698402909980532

# Shape caps for compile-mix.  The seed's recursive walkers raise
# RecursionError at a flat `|` chain of about 950 and at a prefix chain of
# about 470 under the default recursion limit.  Width plus twice the depth
# stays near 520, half of that limit.
MAX_WIDTH = 400
MAX_DEPTH = 60
GROUP_MAX = 5

# Host classes of `--registry std` with their method signatures, in the
# manifest format of `pichan gen-iface`.
STD_CLASSES = {
    "Account": [("readn", [], "void"), ("read", [], "int")],
    "Console": [("print", ["int"], "void")],
    "LoggingCtor": [("poke", [], "void")],
    "Counter": [("inc", [], "int")],
}

WORDS = ("alpha", "beta", "gamma", "delta", "omega", "pi", "fuse", "chan")


@dataclass
class Case:
    key: int                  # index in the pool; digests are keyed by it
    source: str
    expect_compile: int       # 0 ok, 1 syntax error, 2 sort/protocol/usage error
    expect_diag: str          # diagnostic code the compile must print, or ""
    max_steps: int
    vm_seed: int
    facts: dict = field(default_factory=dict)  # what the run oracle checks


def _frac(x: float) -> float:
    return x - int(x)


def case_rng(seed: int, workload: str, key: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{key}")


def vm_seed_for(seed: int, key: int) -> int:
    return (seed * 1_000_003 + key * 7919) % (1 << 32)


# ---------------------------------------------------------------------------
# gen-iface output handling


def namespace_channels(block: str, alias: str) -> str:
    """Prefix every channel of a gen-iface extern block with its alias.

    gen-iface names the call channel after the method and the return
    channels Ret1..RetN, so two blocks in one program declare the same
    channel and the parser rejects the second.  Method names stay as they
    are: they select the host method."""
    out = []
    for line in block.splitlines():
        m = re.match(r"(\s*)(call|return) (\w+):(.*)$", line)
        if m:
            line = f"{m[1]}{m[2]} {alias}_{m[3]}:{m[4]}"
        elif "acceded as" in line:
            head, _, proto = line.partition("acceded as")
            proto = re.sub(r"(?<=[{.])(\w+)\(",
                           lambda mm: f"{alias}_{mm[1]}(", proto)
            line = head + "acceded as" + proto
        out.append(line)
    return "\n".join(out) + "\n"


def extern_methods(block: str) -> dict:
    """Method name -> (call channel, return channel) of one extern block."""
    methods = {}
    name = None
    call = None
    for line in block.splitlines():
        m = re.match(r"\s*(?:void|int|string|bool) (\w+)\(", line)
        if m:
            name = m[1]
            continue
        m = re.match(r"\s*call (\w+):", line)
        if m:
            call = m[1]
            continue
        m = re.match(r"\s*return (\w+):", line)
        if m:
            methods[name] = (call, m[1])
    return methods


def strip_main(iface_source: str) -> str:
    """gen-iface appends an empty main (`nil`); keep only the extern block."""
    lines = iface_source.rstrip("\n").split("\n")
    if lines and lines[-1].strip() == "nil":
        lines.pop()
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compile-mix


class _ProgramMaker:
    """Builds one well-sorted, clash-free program.

    Clash-freedom: every fusion and every communication merges a name that
    is still unbound (a fresh binder or a free name used once) into an
    existing class, so two literals never meet.  That is why fusions and
    free inputs never appear under `repeat`, whose binders would be reused.
    """

    def __init__(self, rng: random.Random, hosts: list):
        self.rng = rng
        self.hosts = hosts  # (alias, class name, {method: (call, ret)})
        self.n = 0
        nchan = rng.randint(6, 24)
        self.channels = []
        for i in range(nchan):
            arity = rng.choice((0, 1, 1, 1, 2, 2))
            sorts = tuple(rng.choice(("int", "int", "string", "bool"))
                          for _ in range(arity))
            self.channels.append((f"c{i}", sorts))

    def fresh(self, base: str) -> str:
        self.n += 1
        return f"{base}{self.n}"

    def literal(self, sort: str) -> str:
        rng = self.rng
        if sort == "int":
            return str(rng.randrange(100000))
        if sort == "string":
            return f'"{rng.choice(WORDS)}{rng.randrange(100)}"'
        return rng.choice(("true", "false"))

    def payload(self, sorts: tuple, scope: list) -> str:
        vals = []
        for s in sorts:
            same = [v for (v, vs) in scope if vs == s]
            if same and self.rng.random() < 0.5:
                vals.append(self.rng.choice(same))
            else:
                vals.append(self.literal(s))
        return ", ".join(vals)

    def chain(self, depth: int, under_repeat: bool) -> str:
        """A prefix chain of `depth` actions over the plain channels."""
        rng = self.rng
        scope = []
        acts = []
        for _ in range(depth):
            name, sorts = rng.choice(self.channels)
            roll = rng.random()
            if roll < 0.45:
                acts.append(f"{name}!({self.payload(sorts, scope)})")
            elif roll < 0.8 or under_repeat:
                vars_ = [self.fresh("v") for _ in sorts]
                scope.extend(zip(vars_, sorts))
                acts.append(f"{name}?({', '.join(vars_)})")
            else:
                names = [self.fresh("f") for _ in sorts]
                scope.extend(zip(names, sorts))
                acts.append(f"{name}?<{', '.join(names)}>")
        if not under_repeat and scope and rng.random() < 0.3:
            acts.append(f"{rng.choice(scope)[0]} = {self.fresh('z')}")
        return ".".join(acts)

    def host_snippet(self) -> str:
        rng = self.rng
        alias, cls, methods = rng.choice(self.hosts)
        consoles = [h for h in self.hosts if h[1] == "Console"]
        name = rng.choice(sorted(methods))
        call, ret = methods[name]
        if cls == "Console":
            return f"{call}!({rng.randrange(1000)}).{ret}?()"
        returns = dict((m, r) for (m, _, r) in STD_CLASSES[cls])[name]
        if returns == "void":
            return f"{call}!().{ret}?()"
        text = f"{call}!().{ret}?(a)"
        if consoles:
            _, _, cmeth = rng.choice(consoles)
            ccall, cret = cmeth["print"]
            text += f".{ccall}!(a).{cret}?()"
        return text

    def component(self, budget: int, nested: bool, roll: float = None) -> str:
        """One part; `roll` in [0, 1) picks its kind, drawn here if None."""
        rng = self.rng
        depth = max(1, min(MAX_DEPTH, budget // 10))
        if roll is None:
            roll = rng.random()
        if roll < 0.45:
            return self.chain(rng.randint(max(1, depth // 2), depth), False)
        if roll < 0.6:
            return self.host_snippet()
        if roll < 0.7:
            target, sorts = rng.choice(self.channels)
            vars_ = ", ".join(self.fresh("v") for _ in sorts)
            k = self.fresh("k")
            return (f"new {k} in ({k}!({self.payload(sorts, [])}) | "
                    f"{k}?({vars_}).{target}!({vars_}))")
        if roll < 0.8:
            return "repeat " + self.chain(rng.randint(1, min(depth, 4)), True)
        if roll < 0.88:
            right = self.literal("int") if rng.random() < 0.5 else self.fresh("z")
            return f"{self.fresh('z')} = {right}"
        if nested:
            return self.chain(rng.randint(1, depth), False)
        inner = [self.component(budget // GROUP_MAX, True)
                 for _ in range(rng.randint(2, GROUP_MAX))]
        return "(" + " | ".join(inner) + ")"


def mix_manifests(rng: random.Random) -> list:
    """1-4 seeded manifests, each a class of the std registry with a
    shuffled, non-empty subset of its methods."""
    out = []
    for j in range(rng.randint(1, 4)):
        cls = rng.choice(sorted(STD_CLASSES))
        methods = list(STD_CLASSES[cls])
        rng.shuffle(methods)
        methods = methods[:rng.randint(1, len(methods))]
        out.append((f"H{j}", {"class": cls, "methods": [
            {"name": n, "params": p, "returns": r} for (n, p, r) in methods]}))
    return out


def _plant_type_error(rng, kind: str, maker: _ProgramMaker, blocks: list,
                      parts: list) -> str:
    if kind == "E-SORT":
        # two arities on one channel conflict whatever else uses it
        name, sorts = rng.choice(maker.channels)
        args = [maker.literal(s) for s in sorts]
        extra = args + [maker.literal("int")]
        parts.insert(rng.randrange(len(parts) + 1),
                     f"{name}!({', '.join(args)}).{name}!({', '.join(extra)})")
    elif kind == "E-PROTO":
        j = rng.randrange(len(blocks))
        blocks[j] = re.sub(r"\{rec S \{(\w+\([^)]*\))\.(\w+\([^)]*\))\.S\}\}",
                           r"{rec S {\2.\1.S}}", blocks[j], count=1)
    else:  # E-USE: a second call before the paired return
        alias, cls, methods = rng.choice(maker.hosts)
        call, _ = methods[rng.choice(sorted(methods))]
        arg = "(1)" if cls == "Console" else "()"
        parts.insert(rng.randrange(len(parts) + 1),
                     f"{call}!{arg}.{call}!{arg}")
    return kind


MIX_TYPE_ERRORS = ("E-SORT", "E-PROTO", "E-USE")
MIX_MAX_STEPS = 4


def compile_mix_case(seed: int, key: int, gen_iface) -> Case:
    """One program of about 1-30 KB.  Every eighth case from key 3 has a
    planted syntax error, every eighth from key 7 a planted sort, protocol
    or usage error."""
    rng = case_rng(seed, "compile-mix", key)
    size = int(1000 * 30 ** _frac(0.5 + key * PLASTIC_1))
    mean_part = 30 + int(220 * _frac(0.5 + key * PLASTIC_2))
    hosts = []
    blocks = []
    for alias, manifest in mix_manifests(rng):
        block = namespace_channels(strip_main(gen_iface(manifest, alias)), alias)
        blocks.append(block)
        hosts.append((alias, manifest["class"], extern_methods(block)))
    maker = _ProgramMaker(rng, hosts)
    # The key fixes the number of parts instead of a byte budget, and the
    # stratified rolls fix each kind's share of them, so one key's soup
    # size varies little from seed to seed: run time grows with the square
    # of the soup, and a byte budget let it vary by 15%.  A part takes
    # about 25 + 0.46 * mean_part bytes.
    width = min(MAX_WIDTH - 1, max(1, round(size / (25 + 0.46 * mean_part))))
    rolls = [(i + rng.random()) / width for i in range(width)]
    rng.shuffle(rolls)
    parts = [maker.component(mean_part, False, roll) for roll in rolls]
    # a lone repeat that never gets a partner: the soup can never become
    # stuck or empty, so every run ends at the step limit
    parts.insert(rng.randrange(len(parts) + 1), f"repeat {maker.fresh('g')}!()")
    expect, diag = 0, ""
    if key % 8 == 7:
        expect = 2
        diag = _plant_type_error(rng, MIX_TYPE_ERRORS[(key // 8) % 3],
                                 maker, blocks, parts)
    text = "".join(blocks) + "\n| ".join(parts) + "\n"
    if key % 8 == 3:
        expect, diag = 1, "E-SYNTAX"
        seps = [m.start() for m in re.finditer(r"\n\| ", text)]
        at = rng.choice(seps)
        text = text[:at] + "\n| |" + text[at + 3:]
    return Case(key, text, expect, diag, MIX_MAX_STEPS, vm_seed_for(seed, key),
                {"steps": MIX_MAX_STEPS})


def check_compile_mix_run(case: Case, code, lines: list, registry) -> str:
    if code != 6:
        return f"run exit {code}, expected 6 (step limit)"
    if len(lines) != case.facts["steps"]:
        return f"{len(lines)} trace events, expected {case.facts['steps']}"
    return ""


# ---------------------------------------------------------------------------
# vm-echo

ECHO_MIN, ECHO_MAX = 100, 180


def echo_source(ids: list, answers: list = None) -> str:
    """A replicated echo server and one client per id.  Each client checks
    the echo with a fusion `y = i`; a wrong echo is a fusion clash."""
    answers = answers or ids
    lines = ["repeat s?(x, r).r!(x)"]
    lines += [f"new r in s!({i}, r).r?(y).y = {a}" for i, a in zip(ids, answers)]
    return "// echo server with one client per id\n" + "\n| ".join(lines) + "\n"


def vm_echo_case(seed: int, key: int, gen_iface=None) -> Case:
    """N clients, N in [100, 180] by the golden-ratio sequence.  Serving
    every client takes 4N+1 steps; the budget adds an idle tail of N/2
    unfold-only steps (the server with no clients left)."""
    rng = case_rng(seed, "vm-echo", key)
    n = ECHO_MIN + int((ECHO_MAX - ECHO_MIN + 1) * _frac(0.5 + key * GOLDEN))
    ids = rng.sample(range(1, 1_000_000), n)
    return Case(key, echo_source(ids), 0, "", 4 * n + 1 + n // 2,
                vm_seed_for(seed, key), {"clients": n})


def check_vm_echo_run(case: Case, code, lines: list, registry) -> str:
    kinds = Counter(line.split("|", 2)[1] for line in lines if "|" in line)
    if kinds["clash"]:
        return "fusion clash: a client received a wrong echo"
    if kinds["fusion-applied"] != case.facts["clients"]:
        return (f"{kinds['fusion-applied']} echoes checked, expected "
                f"{case.facts['clients']}")
    if code != 6:
        return f"run exit {code}, expected 6 (step limit)"
    return ""


# ---------------------------------------------------------------------------
# vm-host

HOST_COUNTERS = 8
HOST_CONSOLES = 4
HOST_MIN, HOST_MAX = 60, 130


def host_manifests() -> list:
    out = [(f"Ctr{k}", {"class": "Counter", "methods": [
        {"name": "inc", "params": [], "returns": "int"}]})
        for k in range(HOST_COUNTERS)]
    out += [(f"Con{c}", {"class": "Console", "methods": [
        {"name": "print", "params": ["int"], "returns": "void"}]})
        for c in range(HOST_CONSOLES)]
    return out


def host_source(blocks: dict, counters: list, printed: list = None) -> str:
    """One worker per entry of `counters`; worker w takes a value from
    Counter alias Ctr{counters[w]} and prints it on the Console that counter
    feeds.  `printed` replaces the printed value, to plant a wrong answer."""
    inc = {k: extern_methods(blocks[f"Ctr{k}"])["inc"] for k in range(HOST_COUNTERS)}
    prn = {c: extern_methods(blocks[f"Con{c}"])["print"] for c in range(HOST_CONSOLES)}
    workers = []
    for w, k in enumerate(counters):
        call, ret = inc[k]
        pcall, pret = prn[k % HOST_CONSOLES]
        value = printed[w] if printed else "a"
        workers.append(f"{call}!().{ret}?(a).{pcall}!({value}).{pret}?()")
    return "".join(blocks[a] for a, _ in host_manifests()) + "\n| ".join(workers) + "\n"


def vm_host_case(seed: int, key: int, gen_iface) -> Case:
    """W workers, W in [60, 130] by the golden-ratio sequence, spread over
    8 Counter aliases (each used at least once) feeding 4 Console aliases."""
    rng = case_rng(seed, "vm-host", key)
    w = HOST_MIN + int((HOST_MAX - HOST_MIN + 1) * _frac(0.5 + key * GOLDEN))
    counters = list(range(HOST_COUNTERS))
    counters += [rng.randrange(HOST_COUNTERS) for _ in range(w - HOST_COUNTERS)]
    rng.shuffle(counters)
    blocks = {alias: namespace_channels(strip_main(gen_iface(m, alias)), alias)
              for alias, m in host_manifests()}
    uses = Counter(counters)
    expected = sorted(v for n in uses.values() for v in range(1, n + 1))
    return Case(key, host_source(blocks, counters), 0, "", 10 * w,
                vm_seed_for(seed, key),
                {"prints": expected, "ctors": HOST_COUNTERS + HOST_CONSOLES})


def check_vm_host_run(case: Case, code, lines: list, registry) -> str:
    if code != 0:
        return f"run exit {code}, expected 0 (terminated)"
    log = registry.effect_log if registry is not None else []
    printed = sorted(int(e[len("print:"):]) for (_, e, _) in log
                     if e.startswith("print:"))
    if printed != case.facts["prints"]:
        return "printed values differ from the values the counters returned"
    ctors = sum(1 for (_, e, _) in log if e == "ctor")
    if ctors != case.facts["ctors"]:
        return f"{ctors} host instances, expected {case.facts['ctors']}"
    return ""


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int          # cases generated in set-up; a run cycles through them
    make_case: object  # (seed, key, gen_iface) -> Case
    check_run: object  # (case, exit code, trace lines, registry) -> "" or reason


WORKLOADS = {
    "compile-mix": Workload("compile-mix", 96, compile_mix_case,
                            check_compile_mix_run),
    "vm-echo": Workload("vm-echo", 48, vm_echo_case, check_vm_echo_run),
    "vm-host": Workload("vm-host", 48, vm_host_case, check_vm_host_run),
}

DEFAULT_SEED = 0


def manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
