"""The virtual machine: deterministic seeded reduction of a process soup.

Communication is fusion-based: a comm step merges each output object with
the paired input name instead of substituting.  Scheduling picks uniformly
among the enumerated redexes with a fixed xorshift64* PRNG seeded through
splitmix64, so identical (program, seed, registry) runs produce identical
traces on any platform.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from itertools import accumulate, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .core import (HOST_LITERALS, Fusion, FusionClash, FusionEnv, In, Name,
                   New, Nil, Out, Par, Process, Record, Repeat,
                   SurfaceFormError, Value)
from .interop import (Endpoint, HostFault, HostRegistry, ProtocolViolation,
                      UngroundArgument, build_std_registry, complete_return,
                      dispatch_call, resolve_externs)

DEFAULT_MAX_STEPS = 10000

_MASK = (1 << 64) - 1


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Xorshift64Star:
    """xorshift64* with a splitmix64-expanded seed; documented so traces are
    portable across implementations."""

    def __init__(self, seed: int):
        self.state = _splitmix64(seed) or 0x9E3779B97F4A7C15

    def next(self) -> int:
        s = self.state
        s ^= (s >> 12)
        s ^= (s << 25) & _MASK
        s ^= (s >> 27)
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK

    def below(self, n: int) -> int:
        return self.next() % n


class NotStuck(Exception):
    pass


class TraceEvent(Record):
    _fields = ("step", "kind", "details")

    def __init__(self, step: int, kind: str, details: str):
        self.step = step
        self.kind = kind  # comm | fusion-applied | repeat-unfold | host-call | host-return | clash | violation
        self.details = details

    def line(self) -> str:
        return f"{self.step}|{self.kind}|{self.details}"


class Trace(Record):
    _fields = ("events", "status", "machine")

    def __init__(self, events: list, status: str, machine: Machine):
        self.events = events
        self.status = status  # terminated | stuck-with-residuals | clash | violation | step-limit
        self.machine = machine

    def lines(self) -> str:
        return "\n".join(ev.line() for ev in self.events)

    def to_json(self) -> str:
        """The events as json.dumps writes them with indent=2, each a
        {"step", "kind", "details"} object; written by hand, since the
        indenting encoder builds closures that only the cyclic collector
        frees."""
        if not self.events:
            return "[]"
        quote = encode_basestring_ascii
        return "[\n" + ",\n".join(
            f'  {{\n    "step": {ev.step},\n    "kind": {quote(ev.kind)},\n'
            f'    "details": {quote(ev.details)}\n  }}'
            for ev in self.events) + "\n]"


class StuckReport(Record):
    _fields = ("residuals",)

    def __init__(self, residuals: tuple):
        self.residuals = residuals  # tuple of (polarity 'output'|'input', subject display, arity)

    def lines(self) -> str:
        return "\n".join(f"blocked {pol} on {subj}/{arity}"
                         for (pol, subj, arity) in self.residuals)


class Machine:
    """One VM instance: flattened thread soup, fusion environment and
    extern endpoints.  Single-threaded by design.

    A thread is a code node of the program, never rewritten, and an
    environment (envs, parallel to threads) from the ids of the binders
    around it to their run-time names; a name not in it is free.  Every
    Name a thread holds, as a subject, an argument or a fusion side, is
    resolved through it with one lookup when the thread is indexed or run;
    a literal stands for itself.
    The threads of one | share their environment, and an unfolded repeat
    body gets the part of its repeat's environment that the body names.
    Run-time names take the ids -1, -2, ... in the order the news are
    bound; program ids are never negative (xir.from_xml checks this), so
    the two kinds cannot meet and the machine needs no scan of the program.

    The soup index is kept across steps and changes only where the soup
    does.  A new thread's sequence number is above every live one's and
    threads are only appended, so _seqs (parallel to threads) is ascending
    and a thread's position is the bisection of its sequence number.
    Outputs and inputs sit in buckets _outs/_ins[fusion root][arity] ->
    ascending list of sequence numbers, which an append keeps in order;
    _live holds the (root, arity) keys that have both.

    The host tables are kept the same way.  _calls[root] is (rank, alias,
    method, endpoint) of the first declared method whose call channel has
    that root.  _returns[root][arity] lists (rank, alias), in declaration
    order, of the endpoints whose staged return goes to a receiver on
    (root, arity); the first of them is the one offered.

    _repeats[seq] is the set of (is output, root, arity) keys of the repeat
    body's top-level actions, and _watch[is output][root] the repeats with
    a key of that kind on root.  _wanted holds the repeats whose unfold is
    offered, a flag kept from step to step and tested again, at the next
    enumeration, only for the repeats in _stale: those that saw, on a root
    they watch, a bucket that can pair a key appear or empty, a staged
    return for an input key appear or be consumed, or a union absorb that
    root or another into it.

    Unions reach the index through FusionEnv.union_log, drained, when it is
    not empty, before each enumeration, each removal and each change of the
    host tables."""

    def __init__(self, registry: HostRegistry):
        self.threads: list[Process] = []
        self.envs: list[dict] = []
        self._seqs: list[int] = []
        self._outs: dict[int, dict[int, list]] = {}
        self._ins: dict[int, dict[int, list]] = {}
        self._live: set[tuple[int, int]] = set()
        self._fusions: set[int] = set()
        self._repeats: dict[int, set] = {}  # seq -> keys
        self._watch = ({}, {})  # [is output][root] -> seqs of repeats
        self._wanted: set[int] = set()
        self._stale: set[int] = set()
        # id(Repeat node) -> (node, its body's top-level actions, unresolved,
        # the ids named in its body); see _walk_repeat
        self._bodies: dict[int, tuple] = {}
        self.env = FusionEnv()
        self.endpoints: dict[str, Endpoint] = {}
        self._calls: dict[int, tuple] = {}
        self._returns: dict[int, dict[int, list]] = {}
        self._ranks: dict[str, int] = {}  # alias -> declaration index
        self._ids = count(-1, -1)  # run-time name ids
        self.registry = registry
        self.step_index = 0
        self._changes = 0  # bumped by each change to the soup or host tables

    @classmethod
    def initialize(cls, program, registry: HostRegistry) -> "Machine":
        """A machine for a core program (parser.desugar makes one); a
        binding input raises SurfaceFormError when it would join the soup."""
        m = cls(registry)
        m.endpoints = resolve_externs(program.externs, registry)
        m._ranks = {alias: k for k, alias in enumerate(m.endpoints)}
        methods = ((alias, meth, ep) for alias, ep in m.endpoints.items()
                   for meth in ep.decl.methods)
        for rank, (alias, meth, ep) in enumerate(methods):
            m._calls.setdefault(meth.call_channel.id, (rank, alias, meth, ep))
        m.add_thread(program.main, {})
        return m

    # -- soup maintenance

    def add_thread(self, p: Process, env: dict) -> None:
        """Insert p under env with Par flattened, Nil dropped and each
        top-level New bound in env itself to a fresh name, left to right,
        with an explicit stack.

        Binding in place is sound for programs whose binder ids are unique
        and occur only inside their New, as xir.from_xml checks: the id is
        then unbound in env and no other thread sharing env mentions it.
        Each node runs at most once per environment, since every
        repeat-unfold gets an environment of its own."""
        self._changes += 1
        kind = type(p)
        if kind is not Par and kind is not New:  # a single node
            if kind is not Nil:
                self._insert(p, env)
            return
        stack = [p]
        while stack:
            p = stack.pop()
            kind = type(p)
            if kind is Par:
                stack += (p.right, p.left)
            elif kind is New:
                env[p.name.id] = Name(next(self._ids), p.name.display)
                stack.append(p.body)
            elif kind is not Nil:
                self._insert(p, env)

    def _insert(self, p: Process, env: dict) -> None:
        kind = type(p)
        if kind is In and p.binding:
            raise SurfaceFormError("binding input cannot be run; desugar first")
        # above every live thread's number; a removed one's may be reused
        seq = self._seqs[-1] + 1 if self._seqs else 0
        self.threads.append(p)
        self.envs.append(env)
        self._seqs.append(seq)
        if kind is Out or kind is In:
            root = self.env.representative(env.get(p.subject.id, p.subject))
            arity = len(p.objects)
            mine, other = ((self._outs, self._ins) if kind is Out
                           else (self._ins, self._outs))
            bucket = mine.setdefault(root, {}).setdefault(arity, [])
            # a new bucket: the repeats with keys it can pair go stale
            if not bucket and root in self._watch[kind is In]:
                self._stale |= self._watch[kind is In][root]
            bucket.append(seq)
            if arity in other.get(root, ()):
                self._live.add((root, arity))
        elif kind is Fusion:
            self._fusions.add(seq)
        elif kind is Repeat:
            # a subject bound in the body is not in env: binder ids are unique
            entry = self._bodies.get(id(p)) or _walk_repeat(p, self._bodies)
            root = self.env.representative
            keys = self._repeats[seq] = {
                (is_out, root(env.get(s.id, s)), arity)
                for is_out, s, arity in entry[1]}
            for is_out, r, _ in keys:
                self._watch[is_out].setdefault(r, set()).add(seq)
            self._stale.add(seq)

    def _remove(self, i: int) -> tuple:
        """Take thread i, an output, an input or a fusion (execute never
        removes a repeat), out of the soup; returns its (code, env) pair."""
        self._changes += 1
        if self.env.union_log:
            self._drain_unions()
        t, env = self.threads.pop(i), self.envs.pop(i)
        seq = self._seqs.pop(i)
        if type(t) is Fusion:
            self._fusions.discard(seq)
            return t, env
        table = self._outs if type(t) is Out else self._ins
        subject = env.get(t.subject.id, t.subject)
        root, arity = self.env.representative(subject), len(t.objects)
        bucket = table[root][arity]
        del bucket[bisect_left(bucket, seq)]
        if not bucket:
            del table[root][arity]
            watch = self._watch[table is self._ins]
            if root in watch:
                self._stale |= watch[root]
            if not table[root]:
                del table[root]
            self._live.discard((root, arity))
        return t, env

    def _drain_unions(self) -> None:
        """Move the buckets and host-table entries of every root absorbed
        since the last drain under its surviving root: each number of the
        smaller bucket is inserted in order into the larger, the first
        declared call method wins and waiting returns stay in declaration
        order.  The repeats watching the absorbed root move their keys to
        the surviving root and watch it; they and the surviving root's
        watchers go stale."""
        calls, returns = self._calls, self._returns
        repeats, stale = self._repeats, self._stale
        for absorbed, root in self.env.union_log:
            for watch in self._watch:
                stale.update(watch.get(root, ()))
                moved = watch.pop(absorbed, None)
                if moved is not None:
                    stale |= moved
                    for seq in moved:
                        repeats[seq] = {(o, root if r == absorbed else r, a)
                                        for o, r, a in repeats[seq]}
                    watch.setdefault(root, set()).update(moved)
            arities = set()
            for table in (self._outs, self._ins):
                moved = table.pop(absorbed, None)
                if moved is None:
                    continue
                into = table.setdefault(root, {})
                for arity, bucket in moved.items():
                    arities.add(arity)
                    small = into.get(arity, ())
                    if len(small) > len(bucket):
                        small, bucket = bucket, small
                    for seq in small:
                        insort(bucket, seq)
                    into[arity] = bucket
            call = calls.pop(absorbed, None)
            if call is not None:
                calls[root] = min(call, calls.get(root, call),
                                  key=itemgetter(0))
            waiting = returns.pop(absorbed, None)
            if waiting is not None:
                into = returns.setdefault(root, {})
                for arity, ranked in waiting.items():
                    into[arity] = sorted(into.get(arity, []) + ranked)
            for arity in arities:
                self._live.discard((absorbed, arity))
                if (arity in self._ins.get(root, ())
                        and arity in self._outs.get(root, ())):
                    self._live.add((root, arity))
        self.env.union_log.clear()

    def _stage(self, alias: str, method: str, staged: bool) -> None:
        """Enter (staged=True) or drop alias's return of method in
        _returns, under the current root of its return channel."""
        self._changes += 1
        if self.env.union_log:
            self._drain_unions()
        m = self.endpoints[alias].method(method)
        r = self.env.representative(m.return_channel)
        arity = len(m.return_payload)
        entry = (self._ranks[alias], alias)
        if staged:
            insort(self._returns.setdefault(r, {}).setdefault(arity, []),
                   entry)
        else:
            waiting = self._returns[r]
            waiting[arity].remove(entry)
            if not waiting[arity]:
                del waiting[arity]
                if not waiting:
                    del self._returns[r]
        if r in self._watch[False]:
            self._stale |= self._watch[False][r]

    # -- redex enumeration

    def enumerate_redexes(self) -> "Redexes":
        """All enabled redexes in a deterministic order: by thread position,
        then kind (comm < fusion < unfold < host-call < host-return), then
        partner position.  A host call is offered only while its endpoint
        has no staged return; that test is the only read of an endpoint's
        pending.

        The result is a Redexes sequence over the sorted sequence numbers
        of the head threads, each listed once, and a redex tuple is built
        only for the entries read.  An output heads one comm per input in
        its (root, arity) bucket, then its host call; a fusion, a wanted
        repeat and an input taking a staged return head one redex.  A head
        of more than one redex gets its count as a weight; heads of one
        redex, the common case, need none.  Reads the persistent soup index
        and host tables, so the cost is O(heads) plus the stale repeats,
        the classes with a call channel, the staged returns and one sort of
        plain ints; idle threads and repeats that no change made stale cost
        nothing."""
        if self.env.union_log:
            self._drain_unions()
        outs, ins = self._outs, self._ins
        heads = []
        weights = None  # seq -> redex count, for heads of more than one
        for r, arity in self._live:
            senders, n = outs[r][arity], len(ins[r][arity])
            heads += senders
            if n > 1:
                weights = weights or {}
                weights.update(dict.fromkeys(senders, n))
        heads += self._fusions
        if self._stale:  # test again only the flags a change may flip
            self._wanted -= self._stale
            self._wanted.update(seq for seq in self._stale
                                if self._unfold_wanted(self._repeats[seq]))
            self._stale.clear()
        heads += self._wanted
        for r, call in self._calls.items():
            if r in outs and call[3].pending is None:
                partnered = ins.get(r, ())
                for arity, bucket in outs[r].items():
                    if arity in partnered:  # listed with their comms above
                        weights = weights or {}
                        weights.update({seq: weights.get(seq, 1) + 1
                                        for seq in bucket})
                    else:
                        heads += bucket
        for r, waiting in self._returns.items():
            takers = ins.get(r, {})
            for arity in waiting:
                heads += takers.get(arity, ())
        if not heads:
            # a repeat may always unfold when nothing else can move
            heads = list(self._repeats)
        heads.sort()
        if weights is None:
            return Redexes(self, heads, None)
        return Redexes(self, heads,
                       list(accumulate(map(weights.get, heads, repeat(1)))))

    def _redex(self, seq: int, offset: int) -> tuple:
        """The redex headed by thread seq that is offset-th among the ones
        it heads, in the order enumerate_redexes documents; an output's
        offset-th comm partner is its input bucket's offset-th entry."""
        i = bisect_left(self._seqs, seq)
        t, env = self.threads[i], self.envs[i]
        kind = type(t)
        if kind is Fusion:
            return ("fusion", i)
        if kind is Repeat:
            return ("unfold", i)
        root = self.env.representative(env.get(t.subject.id, t.subject))
        arity = len(t.objects)
        if kind is In:
            return ("host-return", i, self._returns[root][arity][0][1])
        partners = self._ins.get(root, {}).get(arity, ())
        if offset < len(partners):
            return ("comm", i, bisect_left(self._seqs, partners[offset]))
        _, alias, m, _ = self._calls[root]
        return ("host-call", i, alias, m.name)

    def _unfold_wanted(self, keyed: set) -> bool:
        """Offer an unfold only when the body's top-level actions could take
        part in a comm or host redex afterwards, with the soup or each other.
        keyed is the repeat's _repeats entry.  Reads the buckets, call
        channels and staged returns of the keys' roots alone, so a change
        elsewhere cannot flip the answer."""
        return any((not is_out, r, arity) in keyed
                   or (r in self._calls or arity in self._ins.get(r, ())
                       if is_out
                       else arity in self._returns.get(r, ())
                       or arity in self._outs.get(r, ()))
                   for is_out, r, arity in keyed)

    # -- execution

    def _ground_args(self, out: Out, env: dict) -> list:
        args = []
        for v in out.objects:
            if type(v) is Name:
                lit = self.env.attached_literal(env.get(v.id, v))
                if lit is None:
                    raise UngroundArgument(
                        f"argument {v.display} has no attached literal")
                v = lit
            args.append(v.value)
        return args

    def execute(self, redex) -> TraceEvent:
        """Apply one redex; returns its trace event.  Clash and violation
        are raised (FusionClash / ProtocolViolation) for run() to record."""
        step = self.step_index
        kind = redex[0]
        if kind == "fusion":
            thread, env = self._remove(redex[1])
            left, right = _resolve(thread.left, env), _resolve(thread.right, env)
            self.env.merge(left, right)
            details = f"{_value_text(left)}={_value_text(right)}"
            return TraceEvent(step, "fusion-applied", details)
        if kind == "comm":
            i, j = redex[1], redex[2]
            if i > j:  # the later position first, so the other stays put
                (out, oenv), (inp, ienv) = self._remove(i), self._remove(j)
            else:
                (inp, ienv), (out, oenv) = self._remove(j), self._remove(i)
            subject = oenv.get(out.subject.id, out.subject)
            fused, fenv = [], self.env
            for v, n in zip(out.objects, inp.objects):
                n = ienv.get(n.id, n)
                if type(v) is Name:  # merge's two cases, inline
                    v = oenv.get(v.id, v)
                    fenv.union(v, n)
                    fused.append(f"{v.display}~{n.display}")
                else:
                    fenv.attach(n, v)
                    fused.append(f"{v.value!r}~{n.display}")
            self.add_thread(out.cont, oenv)
            self.add_thread(inp.cont, ienv)
            details = f"{fenv.class_display(subject)}/{len(out.objects)}"
            if fused:
                details += " " + ",".join(fused)
            return TraceEvent(step, "comm", details)
        if kind == "unfold":
            i = redex[1]
            rep, env = self.threads[i], self.envs[i]
            self.add_thread(rep.body, {k: env[k] for k in
                                       self._bodies[id(rep)][2] if k in env})
            return TraceEvent(step, "repeat-unfold", f"thread {i}")
        if kind == "host-call":
            i, alias, method = redex[1], redex[2], redex[3]
            out, env = self.threads[i], self.envs[i]
            args = self._ground_args(out, env)
            ep = self.endpoints[alias]
            dispatch_call(ep, method, args, self.registry, step)
            self._stage(alias, method, True)
            self._remove(i)
            self.add_thread(out.cont, env)
            details = f"{alias}.{method}({','.join(map(repr, args))})"
            return TraceEvent(step, "host-call", details)
        if kind == "host-return":
            i, alias = redex[1], redex[2]
            inp, env = self.threads[i], self.envs[i]
            ep = self.endpoints[alias]
            method, value = complete_return(ep)
            self._stage(alias, method, False)
            self._remove(i)
            if inp.objects:
                n = inp.objects[0]
                self.env.attach(env.get(n.id, n),
                                HOST_LITERALS[type(value)](value))
            self.add_thread(inp.cont, env)
            details = f"{alias}.{method} -> {value!r}"
            return TraceEvent(step, "host-return", details)
        raise ValueError(redex)


class Redexes(Sequence):
    """What enumerate_redexes returns: a read-only sequence of redex tuples
    over a sorted list of head sequence numbers, one per head thread, and
    the running totals of their weights (None when every head has weight
    1).  len() is the redex count; [k], for 0 <= k < len(), decodes entry k
    alone: its head is the first whose running total exceeds k (entry k
    itself when there are no weights), found by bisection, and k minus the
    total before that head is the offset that picks the partner in its
    bucket.  A negative index counts from the end, as in a list; there are
    no slices.  Entries are decoded from the live soup index, so a read
    after the machine has changed raises RuntimeError; a caller that
    executes between reads takes list() first."""

    __slots__ = ("_machine", "_heads", "_totals", "_changes")

    def __init__(self, machine: Machine, heads: list, totals: list | None):
        self._machine, self._heads, self._totals = machine, heads, totals
        self._changes = machine._changes

    def __len__(self) -> int:
        totals = self._totals
        return len(self._heads) if totals is None else totals[-1]

    def __getitem__(self, k: int) -> tuple:
        m = self._machine
        if m._changes != self._changes or m.env.union_log:
            raise RuntimeError("redexes read after the machine changed")
        totals = self._totals
        if totals is None:
            return m._redex(self._heads[k], 0)
        if k < 0:
            k += totals[-1]
            if k < 0:
                raise IndexError(k)
        h = bisect_right(totals, k)
        return m._redex(self._heads[h], k - totals[h - 1] if h else k)


def _walk_repeat(rep: Repeat, cache: dict) -> tuple:
    """Fill cache[id(rep)] with (rep, its body's top-level actions, the ids
    named in its body) and return it.  The actions are the Out/In prefixes
    reached through Par and New, left to right, as (is output, subject,
    arity).  The named ids are all that an unfold keeps of the repeat's
    environment: sibling threads bind their own New ids in it too.  The
    node is kept so that its id stays its own.  One walk fills the entries
    of rep and of each repeat inside it, inner ones first, so each node is
    visited once however deep repeats nest."""
    # (repeat, its actions, its named ids, those of the repeat around it)
    repeats = []
    # (node, the actions and named ids of its repeat, at its top level)
    stack = [(rep, None, None, True)]
    while stack:
        p, acts, named, top = stack.pop()
        kind = type(p)
        if kind is Par:
            stack += ((p.right, acts, named, top), (p.left, acts, named, top))
        elif kind is New:
            stack.append((p.body, acts, named, top))
        elif kind is Repeat:
            inner = (p, [], set(), named)
            repeats.append(inner)
            stack.append((p.body, inner[1], inner[2], True))
        elif kind is Fusion:
            named.update(v.id for v in (p.left, p.right) if type(v) is Name)
        elif kind is Out or kind is In:
            if top:
                acts.append((kind is Out, p.subject, len(p.objects)))
            named.add(p.subject.id)
            named.update([v.id for v in p.objects if type(v) is Name])
            stack.append((p.cont, acts, named, False))
    for p, acts, named, outer in reversed(repeats):  # inner ones first
        cache[id(p)] = (p, tuple(acts), frozenset(named))
        if outer is not None:
            outer |= named
    return cache[id(rep)]


def _resolve(v: Name | Value, env: dict) -> Name | Value:
    return env.get(v.id, v) if type(v) is Name else v


def _value_text(v: Name | Value) -> str:
    return v.display if type(v) is Name else repr(v.value)


def _has_pending(m: Machine) -> bool:
    return bool(m._returns)  # every staged return has an entry there


def step(machine: Machine, rng: Xorshift64Star) -> TraceEvent | None:
    """One scheduled reduction; None when the machine is stuck."""
    redexes = machine.enumerate_redexes()
    n = len(redexes)
    if not n:
        return None
    redex = redexes[rng.below(n)]
    ev = machine.execute(redex)
    machine.step_index += 1
    return ev


def run(program, seed: int = 0, max_steps: int = DEFAULT_MAX_STEPS,
        registry: HostRegistry | None = None) -> Trace:
    """Reduce until stuck, clash, violation or the step limit."""
    registry = registry if registry is not None else build_std_registry()
    machine = Machine.initialize(program, registry)
    rng = Xorshift64Star(seed)
    events: list[TraceEvent] = []
    status = "step-limit"
    for _ in range(max_steps):
        try:
            ev = step(machine, rng)
        except FusionClash as exc:
            events.append(TraceEvent(machine.step_index, "clash", str(exc)))
            status = "clash"
            break
        except (ProtocolViolation, UngroundArgument, HostFault) as exc:
            events.append(TraceEvent(machine.step_index, "violation", str(exc)))
            status = "violation"
            break
        if ev is None:
            if machine.threads or _has_pending(machine):
                status = "stuck-with-residuals"
            else:
                status = "terminated"
            break
        events.append(ev)
    if status == "step-limit" and not machine.threads and not _has_pending(machine):
        status = "terminated"
    return Trace(events, status, machine)


def detect_stuck(machine: Machine) -> StuckReport:
    """Report the prefixes the soup is blocked on.  Only valid when no redex
    and no pending host return exist; every thread is then an output or an
    input, as a fusion is always a redex and a repeat can always unfold."""
    if machine.enumerate_redexes() or _has_pending(machine):
        raise NotStuck("machine still has redexes or a pending host return")
    return StuckReport(tuple(
        ("output" if type(t) is Out else "input",
         env.get(t.subject.id, t.subject).display, len(t.objects))
        for t, env in zip(machine.threads, machine.envs)))
