"""Exhaustive exploration of every schedulable interleaving of small
programs, for the golden explore_runs table and the congruence tests, and
the loose enumeration an adversarial scheduler draws from.
"""

from __future__ import annotations

from pichan.core import FusionClash
from pichan.interop import (HostFault, ProtocolViolation, UngroundArgument,
                            build_std_registry)
from pichan.parser import desugar
from pichan.vm import Machine, Redexes, _has_pending


def loose_redexes(m: Machine) -> Redexes:
    """m's redexes with every host call offered, even on an endpoint with a
    staged return, so that a scheduler can expose protocol violations.
    Exact because enumerate_redexes reads an endpoint's pending only to
    hold such calls back, and each redex decodes from the host tables."""
    endpoints = list(m.endpoints.values())
    saved = [ep.pending for ep in endpoints]
    try:
        for ep in endpoints:
            ep.pending = None
        return m.enumerate_redexes()
    finally:
        for ep, pending in zip(endpoints, saved):
            ep.pending = pending


# ---------------------------------------------------------------------------
# Exhaustive (adversarial) exploration, used by the test suite to observe
# every schedulable interleaving of small programs


def explore_runs(program, registry_builder, max_depth: int = 20,
                 strict: bool = False) -> list:
    """Depth-first exploration of every redex choice.  Returns a list of
    (event kind tuple, status) per maximal run (depth-capped runs get
    status 'depth-limit').  A machine follows its first redex; each other
    one replays its path of redexes on a fresh Machine.initialize, so
    registry_builder must build equal fresh registries.  program may be
    surface: it is desugared first."""
    program = desugar(program)
    registry_builder = registry_builder or build_std_registry
    results = []

    def fresh(path: tuple) -> Machine:
        machine = Machine.initialize(program, registry_builder())
        for redex in path:
            machine.execute(redex)
            machine.step_index += 1
        return machine

    def rec(machine: Machine, path: tuple, kinds: tuple, depth: int) -> None:
        redexes = list(machine.enumerate_redexes() if strict
                       else loose_redexes(machine))
        if not redexes:
            if machine.threads or _has_pending(machine):
                results.append((kinds, "stuck-with-residuals"))
            else:
                results.append((kinds, "terminated"))
            return
        if depth == 0:
            results.append((kinds, "depth-limit"))
            return
        for k, redex in enumerate(redexes):
            m2 = machine if k == 0 else fresh(path)
            try:
                ev = m2.execute(redex)
            except FusionClash:
                results.append((kinds + ("clash",), "clash"))
                continue
            except (ProtocolViolation, UngroundArgument, HostFault):
                results.append((kinds + ("violation",), "violation"))
                continue
            m2.step_index += 1
            rec(m2, path + (redex,), kinds + (ev.kind,), depth - 1)

    rec(fresh(()), (), (), max_depth)
    return results
