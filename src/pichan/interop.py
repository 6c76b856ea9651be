"""Extern channel bindings to in-process host classes.

This is the stand-in for a real foreign runtime: a registry of host classes
with signature tables, bound to extern declarations at startup but
instantiated lazily at first call so that declaration order can never be
observed through constructor side effects.  A call to an endpoint that has
a staged return is refused, so calls and returns follow the canonical
call-then-return protocol.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from .core import HOST_LITERALS, INT, UNIT, ExternDecl, MethodDecl, Record


class DuplicateClass(Exception):
    pass


class UnknownClass(Exception):
    pass


class SignatureMismatch(Exception):
    pass


class UngroundArgument(Exception):
    """A name argument crossed the host boundary without an attached literal."""


class HostFault(Exception):
    """A host call's arguments are not of the declared sorts, or the host
    function raised, or returned a value of the wrong sort."""


class ProtocolViolation(Exception):
    pass


# ---------------------------------------------------------------------------
# Host side


class HostClass(Record):
    _fields = ("class_name", "signatures", "constructor")

    def __init__(self, class_name: str, signatures: dict,
                 constructor: Callable):
        self.class_name = class_name
        self.signatures = signatures  # method -> (param sorts tuple, return sort BaseSort | None)
        self.constructor = constructor  # (log: Callable[[str], None]) -> instance object

    # instance objects expose one callable per method and may keep log,
    # which records an event at the step of the call under way


class HostRegistry:
    """Host classes by name plus an append-only effect log.  Read-only after
    VM start except the log and the step of the host call under way."""

    def __init__(self):
        self.classes: dict[str, HostClass] = {}
        self.effect_log: list[tuple[str, str, int]] = []  # (class, event, step)
        self.step = 0

    def register(self, c: HostClass) -> "HostRegistry":
        if c.class_name in self.classes:
            raise DuplicateClass(c.class_name)
        self.classes[c.class_name] = c
        return self

    def log(self, class_name: str, event: str, step: int) -> None:
        self.effect_log.append((class_name, event, step))

    def effect_log_lines(self) -> str:
        return "\n".join(
            json.dumps({"class": c, "event": e, "step": s}, sort_keys=True)
            for (c, e, s) in self.effect_log)


# ---------------------------------------------------------------------------
# Endpoints


class Endpoint:
    """Runtime state for one extern declaration: lazily created instance
    and at most one staged return, the endpoint's only protocol state."""

    def __init__(self, decl: ExternDecl, host: HostClass):
        self.decl = decl
        self.host = host
        self.instance = None  # Uninstantiated until first call
        self.pending: tuple[str, object] | None = None  # (method, value)
        # by name; the first declared method wins a repeated name
        self._methods = {m.name: m for m in reversed(decl.methods)}

    def method(self, name: str) -> MethodDecl:
        return self._methods[name]


def resolve_externs(decls, registry: HostRegistry) -> dict:
    """Bind every declaration to a registered class with matching method
    signatures.  No constructor runs here; endpoints start uninstantiated."""
    bindings = {}
    for d in decls:
        host = registry.classes.get(d.class_name)
        if host is None:
            raise UnknownClass(f"extern {d.alias}: no host class {d.class_name}")
        for m in d.methods:
            sig = host.signatures.get(m.name)
            if sig is None:
                raise SignatureMismatch(
                    f"{d.class_name} has no method {m.name}")
            params, ret = sig
            decl_ret = m.return_payload[0] if m.return_payload else None
            if tuple(params) != tuple(m.param_sorts) or ret != decl_ret:
                raise SignatureMismatch(
                    f"{d.class_name}.{m.name}: declared "
                    f"({','.join(map(str, m.param_sorts))})"
                    f"->{decl_ret or 'void'} does not match host "
                    f"({','.join(map(str, params))})->{ret or 'void'}")
        bindings[d.alias] = Endpoint(d, host)
    return bindings


def dispatch_call(endpoint: Endpoint, method_name: str, args: list,
                  registry: HostRegistry, step: int) -> None:
    """Run one host call: refuse it while a return is staged or when the
    arguments' sorts are not the declared parameter sorts, instantiate on
    first use, invoke the host function, check its result against the
    declared return sort and stage it for return delivery.  Host code is
    foreign: whatever constructor or method raises is a HostFault."""
    m = endpoint.method(method_name)
    if endpoint.pending is not None:
        raise ProtocolViolation(
            f"call to {method_name} on {endpoint.decl.alias} while a return "
            f"is pending")
    if tuple(HOST_LITERALS[type(a)].sort for a in args) != m.param_sorts:
        raise HostFault(f"{endpoint.decl.alias}.{method_name}: declared to "
                        f"take ({','.join(map(str, m.param_sorts))}), called "
                        f"with ({','.join(map(repr, args))})")
    registry.step = step
    try:
        if endpoint.instance is None:
            name = endpoint.host.class_name
            endpoint.instance = endpoint.host.constructor(
                lambda event: registry.log(name, event, registry.step))
        value = getattr(endpoint.instance, method_name)(*args)
    except Exception as exc:
        raise HostFault(f"{endpoint.decl.alias}.{method_name}: {exc}") from exc
    sort = m.return_payload[0] if m.return_payload else None
    literal = HOST_LITERALS.get(type(value))
    # a void method returns None, unit's host value
    if literal is None or literal.sort is not (sort or UNIT):
        raise HostFault(f"{endpoint.decl.alias}.{method_name}: declared to "
                        f"return {sort or 'void'}, host returned {value!r}")
    endpoint.pending = (method_name, value)


def complete_return(endpoint: Endpoint) -> tuple[str, object]:
    """Consume the staged return.  The caller fuses the value with the
    receiver."""
    if endpoint.pending is None:
        raise ProtocolViolation(f"no pending return on {endpoint.decl.alias}")
    method_name, value = endpoint.pending
    endpoint.pending = None
    return method_name, value


# ---------------------------------------------------------------------------
# Built-in fixture classes


class _Account:
    PIN = 1976528

    def __init__(self, log):
        log("ctor")

    def readn(self):
        return None

    def read(self):
        return self.PIN


class _Console:
    def __init__(self, log):
        self.log = log
        log("ctor")

    def print(self, value):
        self.log(f"print:{value}")
        return None


class _LoggingCtor:
    def __init__(self, log):
        self.log = log
        log("ctor")

    def poke(self):
        self.log("poke")
        return None


class _Counter:
    def __init__(self, log):
        log("ctor")
        self.count = 0

    def inc(self):
        self.count += 1
        return self.count


def build_std_registry() -> HostRegistry:
    """The default fixture set: Account, Console, LoggingCtor, Counter."""
    reg = HostRegistry()
    reg.register(HostClass("Account", {
        "readn": ((), None),
        "read": ((), INT),
    }, _Account))
    reg.register(HostClass("Console", {
        "print": ((INT,), None),
    }, _Console))
    reg.register(HostClass("LoggingCtor", {
        "poke": ((), None),
    }, _LoggingCtor))
    reg.register(HostClass("Counter", {
        "inc": ((), INT),
    }, _Counter))
    return reg


REGISTRY_BUILDERS = {"std": build_std_registry}


def build_registry(name: str) -> HostRegistry:
    try:
        return REGISTRY_BUILDERS[name]()
    except KeyError:
        raise UnknownClass(f"no built-in registry named {name}")
