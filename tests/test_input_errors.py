"""Unreadable and oversized input, and output files that cannot be
written: every case ends in its documented exit code and diagnostic, never
a traceback."""

import json
from pathlib import Path

import pytest

from pichan.cli import EXIT_IO, EXIT_SYNTAX, EXIT_TYPE, main
from pichan.ifgen import ManifestParseError, load_manifest
from pichan.parser import desugar, parse_program
from pichan.xir import XIR_VERSION, SchemaError, from_xml, to_xml

from terms import validate
from test_ifgen import ACCOUNT_MANIFEST
from test_parser import ACCOUNT_EXTERN

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"

# more digits than int() converts from text under the default limit
LONG = "1" * 5000

# ---------------------------------------------------------------------------
# bytes that are not UTF-8


@pytest.mark.parametrize("command", ["check", "compile", "run"])
def test_non_utf8_input_exits_3(tmp_path, capsys, command):
    path = tmp_path / "bad.pi"
    path.write_bytes(b"x!(1) | \xff\n")
    argv = [command, str(path)] + (["-o", str(tmp_path / "o")]
                                   if command == "compile" else [])
    assert main(argv) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_non_utf8_manifest_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"class": "A\xff"}')
    assert main(["gen-iface", str(path), "--alias", "A",
                 "-o", str(tmp_path / "o.pi")]) == EXIT_SYNTAX
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifests of the wrong shape


@pytest.mark.parametrize("raw", [
    {"class": "A", "methods": 5},
    {"class": "A", "methods": [{"name": "m", "params": 5}]},
    {"class": "A", "methods": [{"name": "m", "params": [[1]]}]},
    {"class": "A", "methods": [{"name": "m", "returns": []}]},
])
def test_manifest_of_the_wrong_shape_exits_1(tmp_path, capsys, raw):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestParseError):
        load_manifest(path)
    assert main(["gen-iface", str(path), "--alias", "A",
                 "-o", str(tmp_path / "o.pi")]) == EXIT_SYNTAX
    assert "error:" in capsys.readouterr().err


def test_manifest_nested_100000_deep_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"class": "A", "methods": ' + "[" * 100_000
                    + "]" * 100_000 + "}")
    with pytest.raises(ManifestParseError):
        load_manifest(path)
    assert main(["gen-iface", str(path), "--alias", "A",
                 "-o", str(tmp_path / "o.pi")]) == EXIT_SYNTAX


@pytest.mark.parametrize("raw,alias,error", [
    ({"class": "A", "methods": [{"params": []}]}, "A",
     "{path}: method entries need a 'name'"),
    ({"class": "A", "methods": [{"name": "m"}]}, "Ret1",
     "alias Ret1 collides with a channel name"),
], ids=["nameless-method", "alias-Ret1"])
def test_manifest_refused_exits_1_and_writes_nothing(tmp_path, capsys, raw,
                                                     alias, error):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o.pi"
    assert main(["gen-iface", str(path), "--alias", alias,
                 "-o", str(out)]) == EXIT_SYNTAX
    assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# output files that cannot be written


@pytest.mark.parametrize("command", ["compile", "gen-iface"])
def test_output_into_a_missing_directory_exits_3(tmp_path, capsys, command):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(ACCOUNT_MANIFEST))
    out = tmp_path / "missing" / "o"
    argv = {"compile": ["compile", str(SAMPLES_DIR / "account.pi")],
            "gen-iface": ["gen-iface", str(manifest), "--alias", "A"]}[command]
    assert main(argv + ["-o", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == ("error: [Errno 2] No such file or directory: "
                            f"{str(out)!r}\n")
    # compile's diagnostics still go out before the error
    assert ("warning W-PAR" in captured.out) == (command == "compile")
    assert not out.parent.exists()


# ---------------------------------------------------------------------------
# integers past the int-conversion limit


def test_long_int_in_source_is_e_syntax(tmp_path, capsys):
    path = tmp_path / "long.pi"
    path.write_text(f"x!({LONG})\n")
    assert main(["check", str(path)]) == EXIT_SYNTAX
    out = capsys.readouterr().out
    assert "long.pi:1:4: error E-SYNTAX integer literal has too many digits" in out


def _out_document(free, subject, arg):
    return (f'<pic version="{XIR_VERSION}"><externs/><process free="{free}">'
            f'<out subject="{subject}"{arg}/>'
            '</process></pic>')


@pytest.mark.parametrize("doc", [
    _out_document(f"x#{LONG}", LONG, ""),
    _out_document("x#0", "0", f' a0="int:{LONG}"'),
    _out_document("x#0", "0", f' a0="int:-{LONG}"'),
    _out_document(f"x#0 y#{LONG}", "0", f' a0="name:{LONG}"'),
], ids=["subject-id", "int", "negative-int", "object-id"])
def test_long_number_in_xir_is_e_schema(tmp_path, capsys, doc):
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]
    path = tmp_path / "long.xir.xml"
    path.write_text(doc)
    assert main(["run", str(path)]) == EXIT_TYPE
    assert "error: E-SCHEMA bad" in capsys.readouterr().err


def _account_document():
    return to_xml(desugar(parse_program(ACCOUNT_EXTERN + "read!()")))


@pytest.mark.parametrize("old", ['call="read#2"', 'ret="Ret2#3"'],
                         ids=["call", "ret"])
def test_long_method_channel_id_is_e_schema(old):
    doc = _account_document()
    assert doc.count(old) == 1
    bad = old[:old.index("#") + 1] + LONG + '"'
    doc = doc.replace(old, bad)
    with pytest.raises(SchemaError, match="bad name reference"):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]
