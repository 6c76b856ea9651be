"""Tests for the manifest-driven extern interface generator."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.diag import ParseError
from pichan.ifgen import (AliasClash, ClassManifest, DuplicateMethod,
                          ManifestError, ManifestMethod, ManifestParseError,
                          UnknownSort, generate_interface, load_manifest,
                          parse_manifest)
from pichan.interop import build_std_registry, resolve_externs
from pichan.parser import is_identifier, parse_program, tokenize
from pichan.typecheck import check_protocol_schema

ACCOUNT_MANIFEST = json.loads((Path(__file__).resolve().parent.parent
                               / "samples" / "account.manifest.json")
                              .read_text())


def _contents(m: ClassManifest) -> tuple:
    """What a manifest holds; manifests compare by identity."""
    return m.class_name, [(x.name, x.params, x.returns) for x in m.methods]


def test_parse_account_manifest():
    assert _contents(parse_manifest(ACCOUNT_MANIFEST)) == (
        "Account", [("readn", (), "void"), ("read", (), "int")])


def test_empty_methods_valid():
    m = parse_manifest({"class": "C"})
    assert m.methods == ()
    text = generate_interface(m, "X")
    assert parse_program(text + "nil").externs[0].methods == ()


def test_unknown_sort():
    with pytest.raises(UnknownSort):
        parse_manifest({"class": "C", "methods": [
            {"name": "m", "params": [], "returns": "float"}]})


def test_void_param_rejected():
    with pytest.raises(UnknownSort):
        parse_manifest({"class": "C", "methods": [
            {"name": "m", "params": ["void"], "returns": "void"}]})


def test_duplicate_method():
    with pytest.raises(DuplicateMethod):
        parse_manifest({"class": "C", "methods": [
            {"name": "m"}, {"name": "m"}]})


def test_bad_method_name():
    with pytest.raises(ManifestParseError):
        parse_manifest({"class": "C", "methods": [{"name": "new"}]})


@pytest.mark.parametrize("alias", ["1A", "nil", "a b", "", "A;"])
def test_bad_alias(alias):
    # each would make a block that check rejects with E-SYNTAX
    with pytest.raises(ManifestError, match="not a valid identifier"):
        generate_interface(parse_manifest(ACCOUNT_MANIFEST), alias)


@pytest.mark.parametrize("name", ["1x", "Counter Two", "", "class"])
def test_bad_class_name(name):
    with pytest.raises(ManifestParseError, match="not a valid identifier"):
        parse_manifest({"class": name})


@pytest.mark.parametrize("manifest, error", [
    (ClassManifest("1x", (ManifestMethod("inc", (), "void"),)),
     "class name '1x' is not a valid identifier"),
    (ClassManifest("C", (ManifestMethod("nil", (), "void"),)),
     "method name 'nil' is not a valid identifier"),
], ids=["class-1x", "method-nil"])
def test_generate_interface_refuses_bad_names(manifest, error):
    # a manifest built in code has not been through parse_manifest's checks
    with pytest.raises(ManifestError, match=error):
        generate_interface(manifest, "A")


@pytest.mark.parametrize("methods, error", [
    ((ManifestMethod("m", ("float",), "void"),), "unknown sort 'float' in m"),
    ((ManifestMethod("m", (), "float"),), "unknown sort 'float' in m"),
    ((ManifestMethod("m", ("void",), "void"),),
     "void cannot be a parameter of m"),
    ((ManifestMethod("m", (), "void"), ManifestMethod("m", ("int",), "int")),
     "duplicate method m"),
], ids=["float-param", "float-result", "void-param", "two-m"])
def test_generate_interface_refuses_what_parse_manifest_refuses(methods,
                                                                error):
    # each block would fail to parse: E-SYNTAX expected a sort, or extern
    # method m declared twice
    with pytest.raises(ManifestError, match=re.escape(error)) as by_code:
        generate_interface(ClassManifest("C", methods), "A")
    raw = {"class": "C", "methods": [
        {"name": m.name, "params": list(m.params), "returns": m.returns}
        for m in methods]}
    with pytest.raises(type(by_code.value), match=re.escape(error)):
        parse_manifest(raw)


_NAMES = st.sampled_from(["m", "n", "nil", "1x", "Ret1", "A", "_k"])
_SORTS = st.sampled_from(["int", "string", "bool", "void", "float", ""])


@given(st.lists(st.builds(ManifestMethod, _NAMES,
                          st.lists(_SORTS, max_size=2).map(tuple), _SORTS),
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_generate_interface_output_always_parses(methods):
    # a manifest built in code: the block parses, or ManifestError
    try:
        text = generate_interface(ClassManifest("C", tuple(methods)), "A")
    except ManifestError:
        return
    d = parse_program(text + "nil").externs[0]
    assert [m.name for m in d.methods] == [m.name for m in methods]


def test_underscore_names_accepted():
    # the tokenizer reads _inc, _C and _A as identifiers
    m = parse_manifest({"class": "_C", "methods": [
        {"name": "_inc", "params": [], "returns": "int"}]})
    d = parse_program(generate_interface(m, "_A") + "nil").externs[0]
    assert (d.alias, d.class_name) == ("_A", "_C")
    assert d.methods[0].name == "_inc"
    assert check_protocol_schema(d) == []


@given(st.text(alphabet="aZ_09 ²é-!(/\"", max_size=4)
       | st.sampled_from(["nil", "unit", "class", "_", "a_1"]))
@settings(max_examples=300, deadline=None)
def test_is_identifier_agrees_with_tokenize(text):
    try:
        tokens = [t[:2] for t in tokenize(text)]
    except ParseError:
        tokens = None
    assert is_identifier(text) == (tokens == [("ident", text), ("eof", "")])


def test_load_manifest_file(tmp_path):
    path = tmp_path / "acct.manifest.json"
    path.write_text(json.dumps(ACCOUNT_MANIFEST))
    assert (_contents(load_manifest(path))
            == _contents(parse_manifest(ACCOUNT_MANIFEST)))
    with pytest.raises(ManifestParseError):
        load_manifest(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ManifestParseError):
        load_manifest(bad)


def test_generate_account_interface():
    text = generate_interface(parse_manifest(ACCOUNT_MANIFEST), "FClass")
    program = parse_program(text + "nil")
    d = program.externs[0]
    assert d.alias == "FClass" and d.class_name == "Account"
    assert [m.name for m in d.methods] == ["readn", "read"]
    assert [m.return_channel.display for m in d.methods] == ["Ret1", "Ret2"]
    assert check_protocol_schema(d) == []
    assert "FClass" in resolve_externs([d], build_std_registry())


def test_alias_clash():
    with pytest.raises(AliasClash):
        generate_interface(parse_manifest(ACCOUNT_MANIFEST), "read")


def test_ret_channel_collision_suffixed():
    m = parse_manifest({"class": "C", "methods": [
        {"name": "Ret1", "params": [], "returns": "void"}]})
    text = generate_interface(m, "X")
    d = parse_program(text + "nil").externs[0]
    assert d.methods[0].call_channel.display == "Ret1"
    assert d.methods[0].return_channel.display == "Ret1_"


def _random_manifest(rng):
    sorts = ["int", "string", "bool"]
    methods = []
    for i in range(rng.randint(0, 10)):
        methods.append({
            "name": f"m{i}",
            "params": [rng.choice(sorts) for _ in range(rng.randint(0, 3))],
            "returns": rng.choice(sorts + ["void"]),
        })
    return parse_manifest({"class": f"C{rng.randint(0, 9)}", "methods": methods})


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_generated_interface_round_trip(seed):
    m = _random_manifest(random.Random(seed))
    text = generate_interface(m, "Alias")
    d = parse_program(text + "nil").externs[0]
    assert check_protocol_schema(d) == []
    assert len(d.methods) == len(m.methods)
    # channel-count law: one call + one return port per method
    assert len(d.channels()) == 2 * len(m.methods)
    for mm, dm in zip(m.methods, d.methods):
        assert dm.name == mm.name
        assert dm.call_channel.display == mm.name
        assert tuple(str(s) for s in dm.param_sorts) == mm.params
        want_ret = () if mm.returns == "void" else (mm.returns,)
        assert tuple(str(s) for s in dm.return_payload) == want_ret


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_adding_a_method_is_incremental(seed):
    rng = random.Random(seed)
    m = _random_manifest(rng)
    extra = ManifestMethod(f"m{len(m.methods)}", ("int",), "bool")
    m2 = ClassManifest(m.class_name, m.methods + (extra,))
    d1 = parse_program(generate_interface(m, "A") + "nil").externs[0]
    d2 = parse_program(generate_interface(m2, "A") + "nil").externs[0]
    # existing entries unchanged (modulo fresh name ids), one appended
    assert len(d2.methods) == len(d1.methods) + 1
    for a, b in zip(d1.methods, d2.methods):
        assert (a.name, a.param_sorts, a.return_payload) == \
            (b.name, b.param_sorts, b.return_payload)
        assert a.return_channel.display == b.return_channel.display
    assert d2.methods[-1].name == extra.name
    assert d2.methods[-1].return_channel.display == f"Ret{len(m2.methods)}"
