"""Tests for host class registry, endpoint binding and call dispatch."""

import re

import pytest

from pichan.core import INT, ExternDecl, MethodDecl, base_sort
from pichan.interop import (DuplicateClass, HostClass, HostFault,
                            HostRegistry, ProtocolViolation,
                            SignatureMismatch, UnknownClass,
                            build_registry, build_std_registry,
                            complete_return, dispatch_call, resolve_externs)
from pichan.parser import parse_program

from terms import same_program
from test_parser import ACCOUNT_EXTERN


def _account_decl():
    return parse_program(ACCOUNT_EXTERN + "nil").externs[0]


def _bind():
    reg = build_std_registry()
    decl = _account_decl()
    endpoints = resolve_externs([decl], reg)
    return reg, endpoints["FClass"]


# ---------------------------------------------------------------------------
# declarations and registry


def test_same_program_ignores_decl_span_and_protocol():
    decl = _account_decl()
    assert decl.span is not None and decl.methods[0].span is not None
    assert decl.methods[0].protocol is not None
    methods = tuple(MethodDecl(m.name, m.call_channel, m.param_sorts,
                               m.return_channel, m.return_payload)
                    for m in decl.methods)
    plain = ExternDecl(decl.alias, decl.class_name, methods)
    assert plain != decl and same_program(plain, decl)
    assert same_program(methods[0], decl.methods[0])
    assert not same_program(ExternDecl("Other", decl.class_name, methods),
                            decl)
    assert repr(plain).startswith("ExternDecl(alias='FClass', "
                                  "class_name='Account', methods=(MethodDecl(")
    assert repr(plain).endswith("protocol=None, span=None)), span=None)")


def test_register_and_duplicate():
    reg = HostRegistry()
    reg.register(HostClass("C", {}, lambda log: object()))
    with pytest.raises(DuplicateClass):
        reg.register(HostClass("C", {}, lambda log: object()))


def test_std_registry_contents():
    reg = build_std_registry()
    assert set(reg.classes) == {"Account", "Console", "LoggingCtor", "Counter"}
    assert reg.classes["Account"].signatures["read"] == ((), INT)


def test_build_registry_by_name():
    assert set(build_registry("std").classes) == set(build_std_registry().classes)
    with pytest.raises(UnknownClass):
        build_registry("nope")


def test_effect_log_lines_json():
    reg = HostRegistry()
    reg.log("C", "ctor", 3)
    assert reg.effect_log_lines() == '{"class": "C", "event": "ctor", "step": 3}'


# ---------------------------------------------------------------------------
# resolve_externs


def test_resolve_account_no_ctor_runs():
    reg, ep = _bind()
    assert ep.instance is None
    assert reg.effect_log == []
    assert ep.pending is None


def test_resolve_unknown_class():
    src = "extern A -> class Missing { }\nnil"
    decl = parse_program(src).externs[0]
    with pytest.raises(UnknownClass):
        resolve_externs([decl], build_std_registry())


def test_resolve_signature_mismatch_return_sort():
    src = ("extern A -> class Account {\n"
           "  string read() { call read: void; return Ret2: string; }\n"
           "}\nnil")
    decl = parse_program(src).externs[0]
    with pytest.raises(SignatureMismatch):
        resolve_externs([decl], build_std_registry())


def test_resolve_signature_mismatch_missing_method():
    src = ("extern A -> class Account {\n"
           "  void wipe() { call wipe: void; return R: void; }\n"
           "}\nnil")
    decl = parse_program(src).externs[0]
    with pytest.raises(SignatureMismatch):
        resolve_externs([decl], build_std_registry())


# ---------------------------------------------------------------------------
# dispatch / return


def test_first_call_instantiates_and_stages_return():
    reg, ep = _bind()
    dispatch_call(ep, "read", [], reg, step=4)
    assert ep.instance is not None
    assert reg.effect_log == [("Account", "ctor", 4)]
    assert ep.pending == ("read", 1976528)
    assert complete_return(ep) == ("read", 1976528)
    assert ep.pending is None


def test_ctor_runs_once():
    reg, ep = _bind()
    dispatch_call(ep, "readn", [], reg, step=0)
    complete_return(ep)
    dispatch_call(ep, "readn", [], reg, step=1)
    complete_return(ep)
    assert reg.effect_log == [("Account", "ctor", 0)]


def test_second_call_before_return_violates():
    reg, ep = _bind()
    dispatch_call(ep, "read", [], reg, step=0)
    with pytest.raises(ProtocolViolation):
        dispatch_call(ep, "read", [], reg, step=1)
    assert ep.pending == ("read", 1976528)


def test_cross_method_call_while_pending_violates():
    # one staged return per endpoint: the other method must wait too
    reg, ep = _bind()
    dispatch_call(ep, "read", [], reg, step=0)
    with pytest.raises(ProtocolViolation):
        dispatch_call(ep, "readn", [], reg, step=1)


def test_return_without_pending_violates():
    reg, ep = _bind()
    with pytest.raises(ProtocolViolation):
        complete_return(ep)


def test_recursion_many_rounds():
    reg, ep = _bind()
    for _ in range(5):
        dispatch_call(ep, "read", [], reg, step=0)
        assert complete_return(ep) == ("read", 1976528)


def test_host_exception_wrapped():
    reg = HostRegistry()

    class Boom:
        def __init__(self, log):
            pass

        def go(self):
            raise RuntimeError("kapow")

    reg.register(HostClass("Boom", {"go": ((), None)}, Boom))
    src = "extern B -> class Boom { void go() { call go: void; return R: void; } }\nnil"
    decl = parse_program(src).externs[0]
    ep = resolve_externs([decl], reg)["B"]
    with pytest.raises(HostFault, match="kapow"):
        dispatch_call(ep, "go", [], reg, step=0)


class _Refuses:
    def __init__(self, log):
        raise RuntimeError("no connection")

    def go(self):
        return None


class _Slotted:
    # keeps nothing on the instance, so nothing can be set on it either
    __slots__ = ()

    def __init__(self, log):
        log("ctor")

    def go(self):
        return None


_GO_SOURCE = ("extern B -> class {} {{ void go() {{ call go: void; "
              "return R: void; }} }}\n")


def _go_registry(cls):
    return HostRegistry().register(HostClass(cls.__name__, {"go": ((), None)},
                                             cls))


def test_raising_constructor_is_host_fault():
    reg = _go_registry(_Refuses)
    decl = parse_program(_GO_SOURCE.format("_Refuses") + "nil").externs[0]
    ep = resolve_externs([decl], reg)["B"]
    with pytest.raises(HostFault, match="^B.go: no connection$"):
        dispatch_call(ep, "go", [], reg, step=0)
    assert ep.instance is None and ep.pending is None


def test_instance_with_empty_slots_is_called():
    reg = _go_registry(_Slotted)
    decl = parse_program(_GO_SOURCE.format("_Slotted") + "nil").externs[0]
    ep = resolve_externs([decl], reg)["B"]
    dispatch_call(ep, "go", [], reg, step=3)
    assert complete_return(ep) == ("go", None)
    assert reg.effect_log == [("_Slotted", "ctor", 3)]


@pytest.mark.parametrize("cls,code,out", [
    (_Refuses, 5, "0|violation|B.go: no connection\n"),
    (_Slotted, 0, "0|host-call|B.go()\n1|host-return|B.go -> None\n"),
], ids=["raising-constructor", "empty-slots"])
def test_cli_run_of_foreign_construction(monkeypatch, tmp_path, capsys, cls,
                                         code, out):
    from pichan import interop
    from pichan.cli import EXIT_OK, main
    monkeypatch.setitem(interop.REGISTRY_BUILDERS, "go",
                        lambda: _go_registry(cls))
    src, xir = tmp_path / "go.pi", tmp_path / "go.xir.xml"
    src.write_text(_GO_SOURCE.format(cls.__name__) + "go!().R?()\n")
    assert main(["compile", str(src), "-o", str(xir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", str(xir), "--registry", "go"]) == code
    assert capsys.readouterr().out == out


def test_console_logs_printed_value():
    reg = build_std_registry()
    src = ("extern Con -> class Console {\n"
           "  void print(int) { call print: int; return R: void; }\n"
           "}\nnil")
    decl = parse_program(src).externs[0]
    ep = resolve_externs([decl], reg)["Con"]
    dispatch_call(ep, "print", [42], reg, step=7)
    assert ("Console", "print:42", 7) in reg.effect_log


def test_counter_keeps_state():
    reg = build_std_registry()
    src = ("extern K -> class Counter {\n"
           "  int inc() { call inc: void; return R: int; }\n"
           "}\nnil")
    decl = parse_program(src).externs[0]
    ep = resolve_externs([decl], reg)["K"]
    for want in (1, 2, 3):
        dispatch_call(ep, "inc", [], reg, step=0)
        assert complete_return(ep) == ("inc", want)


# ---------------------------------------------------------------------------
# return values against the declared return sort


class _Liar:
    """Returns whatever the test put in RESULTS for the method called."""
    RESULTS = {}

    def __init__(self, log):
        pass

    def get(self):
        return self.RESULTS["get"]

    def put(self):
        return self.RESULTS["put"]


def _liar_registry(sort):
    reg = HostRegistry()
    reg.register(HostClass("Liar", {"get": ((), sort), "put": ((), None)},
                           _Liar))
    return reg


def _liar_source(sort):
    return ("extern L -> class Liar {\n"
            f"  {sort} get() {{ call get: void; return G: {sort}; }}\n"
            "  void put() { call put: void; return P: void; }\n"
            "}\n")


@pytest.mark.parametrize("sort,method,value", [
    ("int", "get", True), ("int", "get", "x"), ("int", "get", None),
    ("string", "get", 1), ("bool", "get", 0), ("int", "put", 1),
    ("int", "put", False), ("int", "put", ""),
])
def test_return_of_wrong_sort_is_host_fault(monkeypatch, sort, method, value):
    reg = _liar_registry(base_sort(sort))
    decl = parse_program(_liar_source(sort) + "nil").externs[0]
    ep = resolve_externs([decl], reg)["L"]
    monkeypatch.setitem(_Liar.RESULTS, method, value)
    declared = sort if method == "get" else "void"
    with pytest.raises(HostFault, match=f"^L.{method}: declared to return "
                       f"{declared}, host returned {re.escape(repr(value))}$"):
        dispatch_call(ep, method, [], reg, step=0)
    assert ep.pending is None


@pytest.mark.parametrize("sort,value", [
    ("int", 3), ("int", -1), ("string", "s"), ("bool", False)])
def test_return_of_declared_sort_is_staged(monkeypatch, sort, value):
    reg = _liar_registry(base_sort(sort))
    decl = parse_program(_liar_source(sort) + "nil").externs[0]
    ep = resolve_externs([decl], reg)["L"]
    monkeypatch.setitem(_Liar.RESULTS, "get", value)
    monkeypatch.setitem(_Liar.RESULTS, "put", None)
    dispatch_call(ep, "get", [], reg, step=0)
    assert complete_return(ep) == ("get", value)
    dispatch_call(ep, "put", [], reg, step=1)
    assert complete_return(ep) == ("put", None)


def test_cli_run_exits_5_on_wrong_sort(monkeypatch, tmp_path, capsys):
    from pichan import interop
    from pichan.cli import EXIT_FAULT, EXIT_OK, main
    monkeypatch.setitem(_Liar.RESULTS, "get", "x")
    monkeypatch.setitem(interop.REGISTRY_BUILDERS, "liar",
                        lambda: _liar_registry(INT))
    src, xir = tmp_path / "liar.pi", tmp_path / "liar.xir.xml"
    src.write_text(_liar_source("int") + "get!().G?(v)\n")
    assert main(["compile", str(src), "-o", str(xir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", str(xir), "--registry", "liar"]) == EXIT_FAULT
    assert capsys.readouterr().out == ("0|violation|L.get: declared to return "
                                       "int, host returned 'x'\n")
