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
from dataclasses import dataclass, field
from typing import Optional

from .core import (BoolLit, Fusion, FusionClash, In, IntLit, NameRef,
                   NameSupply, New, Nil, Out, Par, Process, Repeat, StrLit,
                   UnitLit, Value, free_names, is_core, substitute,
                   _all_binders)
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
    endpoints and a fresh-name supply.  Single-threaded by design."""

    def __init__(self, registry: HostRegistry):
        self.threads: list[Process] = []
        from .core import FusionEnv
        self.env = FusionEnv()
        self.endpoints: dict[str, Endpoint] = {}
        self.supply = NameSupply()
        self.registry = registry
        self.step_index = 0

    @classmethod
    def initialize(cls, program, registry: HostRegistry) -> "Machine":
        from .parser import desugar
        if not is_core(program.main):
            program = desugar(program)
        m = cls(registry)
        m.endpoints = resolve_externs(program.externs, registry)
        m.supply.reserve_above(free_names(program.main))
        m.supply.reserve_above(_all_binders(program.main))
        for d in program.externs:
            m.supply.reserve_above(d.channels())
        m.add_thread(program.main)
        return m

    def copy(self) -> "Machine":
        m = Machine(self._copy_registry())
        m.threads = list(self.threads)
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
        eliminated by allocating a fresh name."""
        if isinstance(p, Nil):
            return
        if isinstance(p, Par):
            self.add_thread(p.left)
            self.add_thread(p.right)
            return
        if isinstance(p, New):
            fresh = self.supply.fresh(p.name.display, "fresh")
            self.add_thread(substitute(p.body, p.name, fresh, self.supply))
            return
        self.threads.append(p)

    # -- redex enumeration

    def enumerate_redexes(self, strict: bool = True) -> list:
        """All enabled redexes in a deterministic order: by thread position,
        then kind (comm < fusion < unfold < host-call < host-return), then
        partner position.  strict=True gates host calls on the protocol
        monitor and per-endpoint pending return (the normal scheduler);
        strict=False offers every call attempt so an adversarial scheduler
        can expose protocol violations.

        Each call indexes the soup once by (fusion root, arity), so the cost
        is O(threads + redexes) and no pair of threads is compared."""
        root = self.env.representative
        threads = self.threads
        outs, ins = {}, {}  # (subject root, arity) -> thread positions
        keys = []
        for i, t in enumerate(threads):
            key = None
            if isinstance(t, Out):
                key = (root(t.subject), len(t.objects))
                outs.setdefault(key, []).append(i)
            elif isinstance(t, In):
                key = (root(t.subject), len(t.objects))
                ins.setdefault(key, []).append(i)
            keys.append(key)
        calls = {}  # call channel root -> (alias, method); first match wins
        returns = {}  # (return channel root, arity) -> alias awaiting it
        for alias, ep in self.endpoints.items():
            for m in ep.decl.methods:
                calls.setdefault(root(m.call_channel), (alias, m))
            if ep.pending is not None:
                m = ep.method(ep.pending[0])
                returns.setdefault((root(m.return_channel),
                                    len(m.return_payload)), alias)
        redexes = []
        repeats = []
        for i, t in enumerate(threads):
            if isinstance(t, Out):
                for j in ins.get(keys[i], ()):
                    redexes.append(("comm", i, j))
                hit = calls.get(keys[i][0])
                if hit is not None:
                    alias, m = hit
                    ep = self.endpoints[alias]
                    if not strict or (ep.pending is None and ep.call_accepted(m)):
                        redexes.append(("host-call", i, alias, m.name))
            elif isinstance(t, In):
                alias = returns.get(keys[i])
                if alias is not None:
                    redexes.append(("host-return", i, alias))
            elif isinstance(t, Fusion):
                redexes.append(("fusion", i))
            elif isinstance(t, Repeat):
                repeats.append(i)
                if _unfold_wanted(t.body, root, outs, ins, calls, returns):
                    redexes.append(("unfold", i))
        if not redexes:
            # a repeat may always unfold when nothing else can move
            redexes = [("unfold", i) for i in repeats]
        return redexes

    # -- execution

    def _remove(self, *indices) -> list:
        removed = [self.threads[i] for i in indices]
        for i in sorted(indices, reverse=True):
            del self.threads[i]
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


def _unfold_wanted(body: Process, root, outs, ins, calls, returns) -> bool:
    """Offer an unfold only when the body's top-level actions could take
    part in a comm or host redex afterwards, with the soup or each other."""
    keyed = {(isinstance(a, Out), (root(a.subject), len(a.objects)))
             for a in _top_actions(body)}
    return any((not is_out, key) in keyed
               or (key[0] in calls or key in ins if is_out
                   else key in returns or key in outs)
               for is_out, key in keyed)


def _top_actions(p: Process) -> list:
    """Out/In prefixes at the top level of a term (through Par and New)."""
    if isinstance(p, Par):
        return _top_actions(p.left) + _top_actions(p.right)
    if isinstance(p, New):
        return _top_actions(p.body)
    if isinstance(p, (Out, In)):
        return [p]
    return []


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
