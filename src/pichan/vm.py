"""The virtual machine: deterministic seeded reduction of a process soup.

Communication is fusion-based: a comm step merges each output object with
the paired input name instead of substituting.  Scheduling picks uniformly
among the enumerated redexes with a fixed xorshift64* PRNG seeded through
splitmix64, so identical (program, seed, registry) runs produce identical
traces on any platform.
"""

from __future__ import annotations

import copy
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Optional

from .core import (BoolLit, Fusion, FusionClash, FusionEnv, In, IntLit,
                   NameRef, NameSupply, New, Nil, Out, Par, Process, Repeat,
                   StrLit, UnitLit, Value, substitute)
from .interop import (Endpoint, HostFault, HostRegistry, ProtocolViolation,
                      UngroundArgument, complete_return, dispatch_call,
                      resolve_externs)

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


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str  # comm | fusion-applied | repeat-unfold | host-call | host-return | clash | violation
    details: str
    data: tuple = field(compare=False, default=())

    def line(self) -> str:
        return f"{self.step}|{self.kind}|{self.details}"


@dataclass
class Trace:
    events: list
    status: str  # terminated | stuck-with-residuals | clash | violation | step-limit
    machine: "Machine"

    def lines(self) -> str:
        return "\n".join(ev.line() for ev in self.events)

    def to_json(self) -> str:
        return json.dumps([{"step": ev.step, "kind": ev.kind,
                            "details": ev.details} for ev in self.events],
                          indent=2)


@dataclass(frozen=True)
class StuckReport:
    residuals: tuple  # tuple of (polarity 'output'|'input', subject display, arity)

    def lines(self) -> str:
        return "\n".join(f"blocked {pol} on {subj}/{arity}"
                         for (pol, subj, arity) in self.residuals)


class Machine:
    """One VM instance: flattened thread soup, fusion environment, extern
    endpoints and a fresh-name supply.  Single-threaded by design.

    The soup index is kept across steps and changes only where the soup
    does.  Every thread has a sequence number; threads are only appended,
    so _seqs (parallel to threads) is ascending and a thread's position is
    the bisection of its sequence number.  Outputs and inputs sit in
    buckets _outs/_ins[fusion root][arity] -> set of sequence numbers;
    _live holds the (root, arity) keys that have both.  Unions reach the
    buckets through FusionEnv.union_log, drained before each enumeration
    and each removal."""

    def __init__(self, registry: HostRegistry):
        self.threads: list[Process] = []
        self._seqs: list[int] = []
        self._outs: dict[int, dict[int, set]] = {}
        self._ins: dict[int, dict[int, set]] = {}
        self._live: set[tuple[int, int]] = set()
        self._fusions: set[int] = set()
        self._repeats: dict[int, tuple] = {}  # seq -> body's top-level actions
        self.env = FusionEnv()
        self.endpoints: dict[str, Endpoint] = {}
        self.supply = NameSupply()
        self.registry = registry
        self.step_index = 0

    @classmethod
    def initialize(cls, program, registry: HostRegistry) -> "Machine":
        from .parser import desugar, program_scan
        top, core = program_scan(program)
        if not core:
            program = desugar(program)
            top, _ = program_scan(program)
        m = cls(registry)
        m.endpoints = resolve_externs(program.externs, registry)
        m.supply = NameSupply(top + 1)
        m.add_thread(program.main)
        return m

    def copy(self) -> "Machine":
        m = Machine(self._copy_registry())
        m.threads = list(self.threads)
        m._seqs = list(self._seqs)
        m._outs, m._ins = _copy_buckets(self._outs), _copy_buckets(self._ins)
        m._live = set(self._live)
        m._fusions = set(self._fusions)
        m._repeats = dict(self._repeats)
        m.env = self.env.copy()
        m.endpoints = {}
        for alias, ep in self.endpoints.items():
            ep2 = ep.copy()
            ep2.host = m.registry.classes[ep.host.class_name]
            if ep.instance is not None:
                ep2.instance = copy.deepcopy(ep.instance)
            m.endpoints[alias] = ep2
        m.supply = NameSupply(self.supply._next)
        m.step_index = self.step_index
        return m

    def _copy_registry(self) -> HostRegistry:
        reg = HostRegistry()
        reg.classes = dict(self.registry.classes)
        reg.effect_log = list(self.registry.effect_log)
        return reg

    # -- soup maintenance

    def add_thread(self, p: Process) -> None:
        """Insert p with Par flattened, Nil dropped and top-level New
        eliminated by allocating a fresh name, left to right, with an
        explicit stack."""
        stack = [p]
        while stack:
            p = stack.pop()
            if isinstance(p, Par):
                stack += (p.right, p.left)
            elif isinstance(p, New):
                fresh = self.supply.fresh(p.name.display, "fresh")
                stack.append(substitute(p.body, p.name, fresh, self.supply))
            elif not isinstance(p, Nil):
                self._insert(p)

    def _insert(self, p: Process) -> None:
        # above every live thread's number; a removed one's may be reused
        seq = self._seqs[-1] + 1 if self._seqs else 0
        self.threads.append(p)
        self._seqs.append(seq)
        if isinstance(p, (Out, In)):
            root, arity = self.env.representative(p.subject), len(p.objects)
            mine, other = ((self._outs, self._ins) if isinstance(p, Out)
                           else (self._ins, self._outs))
            mine.setdefault(root, {}).setdefault(arity, set()).add(seq)
            if arity in other.get(root, ()):
                self._live.add((root, arity))
        elif isinstance(p, Fusion):
            self._fusions.add(seq)
        elif isinstance(p, Repeat):
            self._repeats[seq] = tuple(
                (isinstance(a, Out), a.subject, len(a.objects))
                for a in _top_actions(p.body))

    def _unindex(self, seq: int, t: Process) -> None:
        """Drop a removed thread: an output, an input or a fusion (execute
        never removes a repeat)."""
        if isinstance(t, Fusion):
            self._fusions.discard(seq)
            return
        table = self._outs if isinstance(t, Out) else self._ins
        root, arity = self.env.representative(t.subject), len(t.objects)
        bucket = table[root][arity]
        bucket.discard(seq)
        if not bucket:
            del table[root][arity]
            if not table[root]:
                del table[root]
            self._live.discard((root, arity))

    def _drain_unions(self) -> None:
        """Move the buckets of every root absorbed since the last drain under
        its surviving root, merging the smaller set into the larger."""
        for absorbed, root in self.env.union_log:
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
                    bucket.update(small)
                    into[arity] = bucket
            for arity in arities:
                self._live.discard((absorbed, arity))
                if (arity in self._outs.get(root, ())
                        and arity in self._ins.get(root, ())):
                    self._live.add((root, arity))
        self.env.union_log.clear()

    # -- redex enumeration

    def enumerate_redexes(self, strict: bool = True) -> list:
        """All enabled redexes in a deterministic order: by thread position,
        then kind (comm < fusion < unfold < host-call < host-return), then
        partner position.  strict=True gates host calls on the protocol
        monitor and per-endpoint pending return (the normal scheduler);
        strict=False offers every call attempt so an adversarial scheduler
        can expose protocol violations.

        Reads the persistent soup index, so the cost is O(redexes * log
        threads) plus the repeats and extern methods; idle threads cost
        nothing."""
        self._drain_unions()
        root = self.env.representative
        outs, ins = self._outs, self._ins
        calls = {}  # call channel root -> (alias, method); first match wins
        returns = {}  # (return channel root, arity) -> alias awaiting it
        for alias, ep in self.endpoints.items():
            for m in ep.decl.methods:
                calls.setdefault(root(m.call_channel), (alias, m))
            if ep.pending is not None:
                m = ep.method(ep.pending[0])
                returns.setdefault((root(m.return_channel),
                                    len(m.return_payload)), alias)
        # Kinds are collected in order, and comms in partner order; the
        # stable sort by thread position then gives the documented order.
        at = partial(bisect_left, self._seqs)  # sequence number -> position
        found = []
        for r, arity in self._live:
            senders = list(map(at, outs[r][arity]))
            for j in sorted(map(at, ins[r][arity])):
                found += [("comm", i, j) for i in senders]
        found += [("fusion", i) for i in map(at, self._fusions)]
        found += [("unfold", at(seq)) for seq, actions in self._repeats.items()
                  if self._unfold_wanted(actions, calls, returns)]
        for r, (alias, m) in calls.items():
            ep = self.endpoints[alias]
            if r in outs and (not strict or (ep.pending is None
                                             and ep.call_accepted(m))):
                for bucket in outs[r].values():
                    found += [("host-call", i, alias, m.name)
                              for i in map(at, bucket)]
        for (r, arity), alias in returns.items():
            found += [("host-return", i, alias)
                      for i in map(at, ins.get(r, {}).get(arity, ()))]
        if not found:
            # a repeat may always unfold when nothing else can move
            found = [("unfold", i) for i in map(at, self._repeats)]
        found.sort(key=itemgetter(1))
        return found

    def _unfold_wanted(self, actions, calls, returns) -> bool:
        """Offer an unfold only when the body's top-level actions could take
        part in a comm or host redex afterwards, with the soup or each other."""
        root = self.env.representative
        keyed = {(is_out, root(subject), arity)
                 for is_out, subject, arity in actions}
        return any((not is_out, r, arity) in keyed
                   or (r in calls or arity in self._ins.get(r, ()) if is_out
                       else (r, arity) in returns
                       or arity in self._outs.get(r, ()))
                   for is_out, r, arity in keyed)

    # -- execution

    def _remove(self, *indices) -> list:
        self._drain_unions()
        removed = [self.threads[i] for i in indices]
        for i in sorted(indices, reverse=True):
            self._unindex(self._seqs.pop(i), self.threads.pop(i))
        return removed

    def _ground_args(self, out: Out) -> list:
        args = []
        for v in out.objects:
            if isinstance(v, NameRef):
                lit = self.env.attached_literal(v.name)
                if lit is None:
                    raise UngroundArgument(
                        f"argument {v.name.display} has no attached literal")
                v = lit
            args.append(_host_value(v))
        return args

    def execute(self, redex) -> TraceEvent:
        """Apply one redex; returns its trace event.  Clash and violation
        are raised (FusionClash / ProtocolViolation) for run() to record."""
        step = self.step_index
        kind = redex[0]
        if kind == "fusion":
            (thread,) = self._remove(redex[1])
            self.env.merge(thread.left, thread.right)
            details = f"{_value_text(thread.left)}={_value_text(thread.right)}"
            return TraceEvent(step, "fusion-applied", details)
        if kind == "comm":
            i, j = redex[1], redex[2]
            out, inp = self.threads[i], self.threads[j]
            self._remove(i, j)
            fused = []
            for v, n in zip(out.objects, inp.objects):
                self.env.merge(v, NameRef(n))
                fused.append(f"{_value_text(v)}~{n.display}")
            self.add_thread(out.cont)
            self.add_thread(inp.cont)
            details = f"{self.env.class_display(out.subject)}/{len(out.objects)}"
            if fused:
                details += " " + ",".join(fused)
            return TraceEvent(step, "comm", details,
                              data=(out.subject, tuple(out.objects)))
        if kind == "unfold":
            i = redex[1]
            body = self.threads[i].body
            self.add_thread(body)
            return TraceEvent(step, "repeat-unfold", f"thread {i}")
        if kind == "host-call":
            i, alias, method = redex[1], redex[2], redex[3]
            out = self.threads[i]
            args = self._ground_args(out)
            ep = self.endpoints[alias]
            dispatch_call(ep, method, args, self.registry, step)
            self._remove(i)
            self.add_thread(out.cont)
            details = f"{alias}.{method}({','.join(map(repr, args))})"
            return TraceEvent(step, "host-call", details,
                              data=(alias, method, tuple(args)))
        if kind == "host-return":
            i, alias = redex[1], redex[2]
            inp = self.threads[i]
            ep = self.endpoints[alias]
            method, value = complete_return(ep)
            self._remove(i)
            if inp.objects:
                self.env.merge(_value_of_host(value), NameRef(inp.objects[0]))
            self.add_thread(inp.cont)
            details = f"{alias}.{method} -> {value!r}"
            return TraceEvent(step, "host-return", details,
                              data=(alias, method, value))
        raise ValueError(redex)


def _top_actions(p: Process) -> list:
    """Out/In prefixes at the top level of a term (through Par and New)."""
    if isinstance(p, Par):
        return _top_actions(p.left) + _top_actions(p.right)
    if isinstance(p, New):
        return _top_actions(p.body)
    if isinstance(p, (Out, In)):
        return [p]
    return []


def _copy_buckets(table: dict) -> dict:
    return {r: {arity: set(bucket) for arity, bucket in by_arity.items()}
            for r, by_arity in table.items()}


def _host_value(v: Value):
    if isinstance(v, IntLit):
        return v.value
    if isinstance(v, StrLit):
        return v.value
    if isinstance(v, BoolLit):
        return v.value
    if isinstance(v, UnitLit):
        return None
    raise TypeError(v)


def _value_of_host(value) -> Value:
    if value is None:
        return UnitLit()
    if isinstance(value, bool):
        return BoolLit(value)
    if isinstance(value, int):
        return IntLit(value)
    if isinstance(value, str):
        return StrLit(value)
    raise HostFault(f"host returned unsupported value {value!r}")


def _value_text(v: Value) -> str:
    if isinstance(v, NameRef):
        return v.name.display
    return repr(_host_value(v))


def _has_pending(m: Machine) -> bool:
    return any(ep.pending is not None for ep in m.endpoints.values())


def step(machine: Machine, rng: Xorshift64Star,
         strict: bool = True) -> Optional[TraceEvent]:
    """One scheduled reduction; None when the machine is stuck."""
    redexes = machine.enumerate_redexes(strict=strict)
    if not redexes:
        return None
    redex = redexes[rng.below(len(redexes))]
    ev = machine.execute(redex)
    machine.step_index += 1
    return ev


def run(program, seed: int = 0, max_steps: int = DEFAULT_MAX_STEPS,
        registry: Optional[HostRegistry] = None) -> Trace:
    """Reduce until stuck, clash, violation or the step limit."""
    from .interop import build_std_registry
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
    else:
        status = "step-limit"
    if status == "step-limit" and not machine.threads and not _has_pending(machine):
        status = "terminated"
    return Trace(events, status, machine)


def detect_stuck(machine: Machine) -> StuckReport:
    """Report the prefixes the soup is blocked on.  Only valid when no redex
    and no pending host return exist."""
    if machine.enumerate_redexes() or _has_pending(machine):
        raise NotStuck("machine still has redexes or a pending host return")
    residuals = []
    for t in machine.threads:
        if isinstance(t, Out):
            residuals.append(("output", t.subject.display, len(t.objects)))
        elif isinstance(t, In):
            residuals.append(("input", t.subject.display, len(t.objects)))
        elif isinstance(t, Repeat):
            residuals.append(("repeat", "-", 0))
        elif isinstance(t, Fusion):  # unreachable: fusions are always redexes
            residuals.append(("fusion", "-", 0))
    return StuckReport(tuple(residuals))


# ---------------------------------------------------------------------------
# Exhaustive (adversarial) exploration, used by the test suite to observe
# every schedulable interleaving of small programs


def explore_runs(program, registry_builder, max_depth: int = 20,
                 strict: bool = False) -> list:
    """Depth-first exploration of every redex choice.  Returns a list of
    (event kind tuple, status) per maximal run (depth-capped runs get
    status 'depth-limit')."""
    from .interop import build_std_registry
    registry_builder = registry_builder or build_std_registry
    root = Machine.initialize(program, registry_builder())
    results = []

    def rec(machine: Machine, kinds: tuple, depth: int) -> None:
        redexes = machine.enumerate_redexes(strict=strict)
        if not redexes:
            if machine.threads or _has_pending(machine):
                results.append((kinds, "stuck-with-residuals"))
            else:
                results.append((kinds, "terminated"))
            return
        if depth == 0:
            results.append((kinds, "depth-limit"))
            return
        for redex in redexes:
            m2 = machine.copy()
            try:
                ev = m2.execute(redex)
            except FusionClash:
                results.append((kinds + ("clash",), "clash"))
                continue
            except (ProtocolViolation, UngroundArgument, HostFault):
                results.append((kinds + ("violation",), "violation"))
                continue
            m2.step_index += 1
            rec(m2, kinds + (ev.kind,), depth - 1)

    rec(root, (), max_depth)
    return results
