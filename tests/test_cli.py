"""End-to-end tests for the command-line pipeline and its exit codes."""

import contextlib
import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan import cli
from pichan.cli import (EXIT_FAULT, EXIT_IO, EXIT_OK, EXIT_STEP_LIMIT,
                        EXIT_STUCK, EXIT_SYNTAX, EXIT_TYPE, main)
from pichan.interop import build_std_registry
from pichan.parser import desugar, parse_program
from pichan.xir import XIR_VERSION, from_xml, to_xml

from printer import format_program
from randgen import gen_host_source, gen_program
from terms import validate
from test_deep_inputs import _mutants, _process_document
from test_ifgen import ACCOUNT_MANIFEST
from test_parser import ACCOUNT_EXTERN

ACCOUNT_PROGRAM = ACCOUNT_EXTERN + "read!() | Ret2?(v).nil\n"
SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def account_src(tmp_path):
    src = tmp_path / "account.pi"
    src.write_text(ACCOUNT_PROGRAM)
    return src


def _compile(src, tmp_path):
    out = tmp_path / (src.stem + ".xir.xml")
    assert main(["compile", str(src), "-o", str(out)]) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# compile / check


def test_compile_account(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    assert out.exists()
    # the parallel receive draws the conservative warning, nothing more
    stdout = capsys.readouterr().out
    assert "error" not in stdout


def test_check_superscript_digit_is_syntax_error(tmp_path, capsys):
    # '²' is a digit to str.isdigit() but not to int()
    src = tmp_path / "sup.pi"
    src.write_text("x!(\u00b2)\n", encoding="utf-8")
    assert main(["check", str(src)]) == EXIT_SYNTAX
    assert "E-SYNTAX unexpected character '\u00b2'" in capsys.readouterr().out


def test_compile_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.pi"
    src.write_text("")
    assert main(["compile", str(src), "-o", str(tmp_path / "o")]) == EXIT_SYNTAX
    assert "E-SYNTAX" in capsys.readouterr().out


def test_compile_missing_file(tmp_path):
    assert main(["compile", str(tmp_path / "no.pi"), "-o",
                 str(tmp_path / "o")]) == EXIT_IO


def test_check_e_use_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.pi"
    src.write_text(ACCOUNT_EXTERN + "read!().read!().Ret2?(v).nil\n")
    assert main(["check", str(src)]) == EXIT_TYPE
    assert "E-USE" in capsys.readouterr().out


def test_check_w_par_exit_0(tmp_path, capsys):
    src = tmp_path / "par.pi"
    src.write_text(ACCOUNT_EXTERN
                   + "read!().Ret2?(v).nil | read!().Ret2?(w).nil\n")
    assert main(["check", str(src)]) == EXIT_OK
    assert "W-PAR" in capsys.readouterr().out


def test_check_e_proto_exit_2(tmp_path, capsys):
    src = tmp_path / "proto.pi"
    src.write_text(
        "extern A -> class Account {\n"
        "  int read() { call read: void; return Ret2: int; }"
        " acceded as {rec S {read().read().Ret2(int).S}}\n}\nnil\n")
    assert main(["check", str(src)]) == EXIT_TYPE
    assert "E-PROTO" in capsys.readouterr().out


def test_check_e_sort_exit_2(tmp_path, capsys):
    src = tmp_path / "sort.pi"
    src.write_text('x!(1) | x!("s")\n')
    assert main(["check", str(src)]) == EXIT_TYPE
    assert "E-SORT" in capsys.readouterr().out


@pytest.mark.parametrize("text,where", [
    ('x?(v).y!(1).y!("s")\n', "1:13"),  # a diagnostic under a binding input
    ('x!("a\nb") | y!(1).y!("s")\n', "2:13"),  # a raw newline in a string
], ids=["under-binding-input", "after-multiline-string"])
def test_check_e_sort_position(tmp_path, capsys, text, where):
    src = tmp_path / "sort.pi"
    src.write_text(text)
    assert main(["check", str(src)]) == EXIT_TYPE
    assert f"{src}:{where}: error E-SORT" in capsys.readouterr().out


@pytest.mark.parametrize("text,where,message", [
    ("int = 1\n", "1:1", "expected a value, found 'int'"),
    ("x!(string) | x!(1)\n", "1:4", "expected a value, found 'string'"),
    ('extern K -> class Counter {\n  int inc() {\n    call inc: void;\n'
     '    return R: "int";\n  }\n}\ninc!().R?(a)\n', "4:15",
     "expected a sort, found 'int'"),
], ids=["int-keyword", "string-keyword", "string-literal-sort"])
def test_check_sort_keyword_and_literal_kinds_differ(tmp_path, capsys, text,
                                                     where, message):
    # the keywords int and string do not share the literals' token kinds
    src = tmp_path / "kw.pi"
    src.write_text(text)
    assert main(["check", str(src)]) == EXIT_SYNTAX
    out = capsys.readouterr()
    assert f"{src}:{where}: error E-SYNTAX {message}" in out.out
    assert "Traceback" not in out.err


@pytest.mark.parametrize("method,where,message", [
    ("void print(int) { call print: int, void; return R: void; }", "2:42",
     "'void' cannot appear in a payload list"),
    ("void print(int) { call print: string; return R: void; }", "2:3",
     "method print: header parameters do not match the call clause"),
    ("void print(int) { call print: int; return R: void; }\n"
     "  acceded as {rec S {S}}", "3:24", "empty protocol body"),
], ids=["void-in-list", "header-params", "empty-protocol"])
def test_check_extern_method_syntax_error(tmp_path, capsys, method, where,
                                          message):
    src = tmp_path / "extern.pi"
    src.write_text(f"extern A -> class Console {{\n  {method}\n}}\nnil\n")
    assert main(["check", str(src)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == (
        f"{src}:{where}: error E-SYNTAX {message}\n")


# ---------------------------------------------------------------------------
# run


def test_run_account(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    assert main(["run", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "host-call|FClass.read" in stdout
    assert "1976528" in stdout


def test_run_nil(tmp_path, capsys):
    src = tmp_path / "nil.pi"
    src.write_text("nil\n")
    out = _compile(src, tmp_path)
    assert main(["run", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_run_stdout_deterministic(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    capsys.readouterr()
    assert main(["run", str(out), "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", str(out), "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_run_trace_json(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    capsys.readouterr()
    assert main(["run", str(out), "--trace", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data[0]["kind"] == "host-call"


def test_run_stuck_exit_4(tmp_path, capsys):
    src = tmp_path / "stuck.pi"
    src.write_text("x!(a).nil\n")
    out = _compile(src, tmp_path)
    assert main(["run", str(out)]) == EXIT_STUCK
    assert "blocked output on x/1" in capsys.readouterr().err


def test_run_clash_exit_5(tmp_path, capsys):
    src = tmp_path / "clash.pi"
    src.write_text("x!(1) | x!(2) | x?<v> | x?<w> | v=w\n")
    out = _compile(src, tmp_path)
    assert main(["run", str(out), "--seed", "0"]) == EXIT_FAULT


def test_run_clash_trace_line(tmp_path, capsys):
    # the clash event's details are str(FusionClash), which shows the
    # literals by their repr
    src = tmp_path / "clash.pi"
    src.write_text("new x in (x = 1 | x = 2)\n")
    out = _compile(src, tmp_path)
    capsys.readouterr()
    assert main(["run", str(out), "--seed", "0"]) == EXIT_FAULT
    assert capsys.readouterr() == (
        "0|fusion-applied|x=1\n"
        "1|clash|cannot fuse literals IntLit(value=1) and IntLit(value=2)\n",
        "")


CONSOLE = """extern C -> class Console {
  void print(int) { call print: int; return Ret1: void; }
}
"""


@pytest.mark.parametrize("source,argv,out,code", [
    # a host call whose argument has no literal is a violation
    (CONSOLE + "print!(x).Ret1?()\n", [],
     "0|violation|argument x has no attached literal\n", EXIT_FAULT),
    # a soup that empties at the last allowed step has terminated
    ("x!() | x?()\n", ["--max-steps", "1"], "0|comm|x/0\n", EXIT_OK),
], ids=["unground-argument", "terminated-at-the-limit"])
def test_run_trace_and_exit_code(tmp_path, capsys, source, argv, out, code):
    src = tmp_path / "prog.pi"
    src.write_text(source)
    xir = _compile(src, tmp_path)
    capsys.readouterr()
    assert main(["run", str(xir), "--seed", "0", *argv]) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("args,shown", [
    (' a0="str:oops"', "('oops')"),
    (' a0="int:1" a1="int:2"', "(1,2)"),
    ("", "()"),
], ids=["wrong-sort", "one-too-many", "one-too-few"])
def test_run_refuses_host_arguments_off_the_declared_sorts(
        tmp_path, capsys, monkeypatch, args, shown):
    # an edit of the compiled document that check_sorts never saw: the
    # call ends the run as a violation before the Console is constructed
    src = tmp_path / "print.pi"
    src.write_text(CONSOLE + "print!(1).Ret1?()\n")
    xir = _compile(src, tmp_path)
    text = xir.read_text(encoding="utf-8")
    assert text.count(' a0="int:1"') == 1
    xir.write_text(text.replace(' a0="int:1"', args), encoding="utf-8")
    registry = build_std_registry()
    monkeypatch.setattr(cli, "build_registry", lambda name: registry)
    capsys.readouterr()
    assert main(["run", str(xir)]) == EXIT_FAULT
    assert capsys.readouterr() == (
        f"0|violation|C.print: declared to take (int), called with {shown}\n",
        "")
    assert registry.effect_log == []


def test_run_step_limit_exit_6(tmp_path):
    src = tmp_path / "loop.pi"
    src.write_text("repeat x!() | repeat x?()\n")
    out = _compile(src, tmp_path)
    assert main(["run", str(out), "--max-steps", "25"]) == EXIT_STEP_LIMIT


@pytest.mark.parametrize("char", ["\x01", "\ufffe"], ids=["x01", "ufffe"])
def test_string_xir_cannot_carry_exits_1_at_check_and_compile(char, tmp_path,
                                                              capsys):
    # compile wrote such a string raw, and run then refused the document
    # as not well-formed XML
    src = tmp_path / "c.pi"
    src.write_text(f'x!("a{char}b") | x?(v).nil\n', encoding="utf-8")
    out = tmp_path / "c.xml"
    message = (f"{src}:1:4: error E-SYNTAX string holds {char!r}, which "
               f"XML 1.0 cannot carry\n")
    assert main(["check", str(src)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == message
    assert main(["compile", str(src), "-o", str(out)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == message
    assert not out.exists()


def test_run_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.xir.xml"
    bad.write_text('<pic version="6"><externs/><process><nil/></process></pic>')
    assert main(["run", str(bad)]) == EXIT_TYPE


def test_run_version_1_document_exit_2(tmp_path, capsys):
    # version 1 wrapped continuations in <cont> and arguments in <arg>;
    # the reader takes version 3 alone
    doc = ('<pic version="1"><externs/><process><out subject="x#0">'
           '<arg kind="int" value="1"/><cont><nil/></cont></out>'
           '</process></pic>')
    bad = tmp_path / "v1.xir.xml"
    bad.write_text(doc)
    assert main(["run", str(bad)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: E-VERSION unsupported "
                                                "version '1'\n")
    assert [d.code for d in validate(doc)] == ["E-VERSION"]


def test_run_version_3_document_exit_2(tmp_path, capsys):
    # version 3 wrote each restriction as a <new> element around its scope
    doc = ('<pic version="3"><externs/><process><new name="a#0">'
           '<out subject="a#0"/></new></process></pic>')
    bad = tmp_path / "v3.xir.xml"
    bad.write_text(doc)
    assert main(["run", str(bad)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: E-VERSION unsupported "
                                                "version '3'\n")


def test_run_version_4_document_exit_2(tmp_path, capsys):
    # version 4 wrote every use of a name as display#id, and no free list
    doc = ('<pic version="4"><externs/><process><out new="a#0" '
           'subject="a#0"/></process></pic>')
    bad = tmp_path / "v4.xir.xml"
    bad.write_text(doc)
    assert main(["run", str(bad)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: E-VERSION unsupported "
                                                "version '4'\n")


def test_run_version_2_document_exit_2(tmp_path, capsys):
    # version 2 wrote each method as call, ret and a protocol automaton
    doc = _compile(SAMPLES_DIR / "counter.pi", tmp_path)
    text = doc.read_text(encoding="utf-8")
    old = '<method name="inc" call="inc#0" params="" ret="IncRet#1" result="int"/>'
    assert text.count(old) == 1
    text = text.replace(f'version="{XIR_VERSION}"', 'version="2"')
    doc.write_text(text.replace(old, (
        '<method name="inc">\n<call channel="inc#0" params=""/>\n'
        '<ret channel="IncRet#1" result="int"/>\n<protocol states="2">\n'
        '<t from="0" chan="inc" payload="" to="1"/>\n'
        '<t from="1" chan="IncRet" payload="int" to="0"/>\n'
        '</protocol>\n</method>')), encoding="utf-8")
    assert [d.code for d in validate(doc.read_text())] == ["E-VERSION"]
    capsys.readouterr()
    assert main(["run", str(doc)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: E-VERSION unsupported "
                                                "version '2'\n")


def test_run_pic_seed_env(account_src, tmp_path, capsys, monkeypatch):
    out = _compile(account_src, tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("PIC_SEED", "11")
    assert main(["run", str(out)]) == EXIT_OK
    env_out = capsys.readouterr().out
    monkeypatch.delenv("PIC_SEED")
    assert main(["run", str(out), "--seed", "11"]) == EXIT_OK
    assert capsys.readouterr().out == env_out


def test_negative_seed_rejected(account_src, tmp_path):
    out = _compile(account_src, tmp_path)
    assert main(["run", str(out), "--seed", "-1"]) == EXIT_SYNTAX


def test_negative_max_steps_rejected(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    capsys.readouterr()
    assert main(["run", str(out), "--max-steps", "-1"]) == EXIT_SYNTAX
    assert capsys.readouterr() == (
        "", "error: max-steps must be non-negative\n")


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0x10"])
def test_malformed_pic_seed_rejected(account_src, tmp_path, capsys,
                                     monkeypatch, value):
    out = _compile(account_src, tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("PIC_SEED", value)
    assert main(["run", str(out)]) == EXIT_SYNTAX
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: PIC_SEED must be an integer, "
                            f"found {value!r}\n")
    # --seed overrides the environment, which is then not read
    assert main(["run", str(out), "--seed", "0"]) == EXIT_OK


@pytest.mark.parametrize("argv,error", [
    (["run", "x.xir.xml", "--seed", "abc"],
     "pichan run: error: argument --seed: invalid int value: 'abc'"),
    (["run", "x.xir.xml", "--trace", "xml"],
     "pichan run: error: argument --trace: invalid choice: 'xml' "
     "(choose from 'lines', 'json')"),
    (["compile", "x.pi"],
     "pichan compile: error: the following arguments are required: -o"),
    (["frobnicate"], "pichan: error: argument command: invalid choice: "
                     "'frobnicate'"),
    ([], "pichan: error: the following arguments are required: command"),
], ids=["seed-not-int", "bad-trace-choice", "missing-output", "unknown-command",
        "no-command"])
def test_usage_error_exit_1(capsys, argv, error):
    assert main(argv) == EXIT_SYNTAX
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pichan")
    assert error in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exit_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: pichan")


def test_usage_error_process_exit_1(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pichan.cli", "run", "x.xir.xml", "--seed",
         "abc"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_SYNTAX
    assert "invalid int value: 'abc'" in proc.stderr


# ---------------------------------------------------------------------------
# duplicate extern aliases and non-canonical protocols in XIR


DUPLICATE_ALIAS = """extern A -> class Counter {
  int inc() { call inc: void; return R1: int; }
}
extern A -> class Console {
  void print(int) { call print: int; return R2: void; }
}
inc!().R1?(v).print!(v).R2?()
"""


def test_duplicate_extern_alias_is_syntax_error(tmp_path, capsys):
    src = tmp_path / "dup.pi"
    src.write_text(DUPLICATE_ALIAS)
    want = f"{src}:4:8: error E-SYNTAX extern alias A declared twice\n"
    assert main(["check", str(src)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == want
    out = tmp_path / "dup.xir.xml"
    assert main(["compile", str(src), "-o", str(out)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == want
    assert not out.exists()


def test_duplicate_extern_alias_in_xir_exit_2(tmp_path, capsys):
    src = tmp_path / "two.pi"
    src.write_text(DUPLICATE_ALIAS.replace("extern A -> class Console",
                                           "extern B -> class Console"))
    doc = _compile(src, tmp_path)
    text = doc.read_text(encoding="utf-8")
    doc.write_text(text.replace('alias="B"', 'alias="A"'), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(doc)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: E-SCHEMA extern alias A declared twice\n"


DUPLICATE_METHOD = """
extern K -> class Counter {
  int inc() { call inc1: void; return R1: int; }
  int inc() { call inc2: void; return R2: int; }
}
inc2!().R2?(v)
"""


def test_duplicate_extern_method_is_syntax_error(tmp_path, capsys):
    # a return is looked up by method name, so the second inc's return
    # would go to R1 and the run would end stuck
    src = tmp_path / "dup.pi"
    src.write_text(DUPLICATE_METHOD)
    want = f"{src}:4:7: error E-SYNTAX extern method inc declared twice\n"
    assert main(["check", str(src)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == want
    out = tmp_path / "dup.xir.xml"
    assert main(["compile", str(src), "-o", str(out)]) == EXIT_SYNTAX
    assert capsys.readouterr().out == want
    assert not out.exists()


def test_duplicate_extern_method_in_xir_exit_2(tmp_path, capsys):
    doc = _compile(SAMPLES_DIR / "account.pi", tmp_path)
    text = doc.read_text(encoding="utf-8")
    assert text.count('<method name="readn" ') == 1
    doc.write_text(text.replace('<method name="readn" ',
                                '<method name="read" '), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(doc)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: E-SCHEMA extern method read declared "
                            "twice\n")


def test_run_two_sort_result_exit_2(tmp_path, capsys):
    # no source can declare it, and a return delivers one host value, so a
    # document whose receivers take two would run on a wrong payload
    doc = _compile(SAMPLES_DIR / "counter.pi", tmp_path)
    text = doc.read_text(encoding="utf-8")
    assert text.count('result="int"') == 1
    text = text.replace('result="int"', 'result="int,int"')
    text = re.sub(r'(<in (?:new="[^"]*" )?subject="1" '
                  r'a0="(name:[^"]*)")', r'\1 a1="\2"', text)
    assert text.count(' a1="name:') == 2
    doc.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(doc)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: E-SCHEMA method inc: result 'int,int' "
                            "holds more than one sort\n")


def test_gen_iface_then_check_and_compile(tmp_path):
    manifest = tmp_path / "account.manifest.json"
    manifest.write_text(json.dumps(ACCOUNT_MANIFEST))
    gen = tmp_path / "gen.pi"
    assert main(["gen-iface", str(manifest), "--alias", "FClass",
                 "-o", str(gen)]) == EXIT_OK
    assert main(["check", str(gen)]) == EXIT_OK
    assert main(["compile", str(gen), "-o",
                 str(tmp_path / "gen.xir.xml")]) == EXIT_OK


@pytest.mark.parametrize("alias,manifest", [
    ("1A", ACCOUNT_MANIFEST), ("nil", ACCOUNT_MANIFEST),
    ("a b", ACCOUNT_MANIFEST), ("A", {"class": "1x"}),
    ("A", {"class": "Counter Two"}), ("A", {"class": ""})],
    ids=["alias-1A", "alias-nil", "alias-a b", "class-1x",
         "class-Counter Two", "class-empty"])
def test_gen_iface_bad_name_exits_1_and_writes_nothing(tmp_path, capsys, alias,
                                                       manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "o.pi"
    assert main(["gen-iface", str(path), "--alias", alias,
                 "-o", str(out)]) == EXIT_SYNTAX
    assert "is not a valid identifier" in capsys.readouterr().err
    assert not out.exists()


def test_gen_iface_underscore_method_checks(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"class": "Counter", "methods": [
        {"name": "_inc", "params": [], "returns": "int"}]}))
    gen = tmp_path / "gen.pi"
    assert main(["gen-iface", str(path), "--alias", "K",
                 "-o", str(gen)]) == EXIT_OK
    assert main(["check", str(gen)]) == EXIT_OK


def test_gen_iface_bad_manifest(tmp_path):
    manifest = tmp_path / "bad.json"
    manifest.write_text('{"class": 7}')
    assert main(["gen-iface", str(manifest), "--alias", "A",
                 "-o", str(tmp_path / "o.pi")]) == EXIT_SYNTAX


SAMPLES = sorted(SAMPLES_DIR.glob("*.pi"))


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_shipped_samples_compile_and_run(sample, tmp_path):
    out = tmp_path / (sample.stem + ".xir.xml")
    assert main(["compile", str(sample), "-o", str(out)]) == EXIT_OK
    assert main(["run", str(out), "--seed", "0"]) == EXIT_OK


def test_gen_iface_empty_class(tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text('{"class": "Account", "methods": []}')
    gen = tmp_path / "empty.pi"
    assert main(["gen-iface", str(manifest), "--alias", "A",
                 "-o", str(gen)]) == EXIT_OK
    assert main(["check", str(gen)]) == EXIT_OK


# ---------------------------------------------------------------------------
# run: numbers in XIR and wide programs


def _pair(k):
    """An output and an input on channel c_k, each with a nil continuation."""
    return [f'<{tag} subject="{k}"/>' for tag in ("out", "in")]


def _channels(count):
    """The free list of the channels c_0, ..., c_count-1."""
    return " ".join(f"c{k}#{k}" for k in range(count))


def _document(process, free=""):
    free = f' free="{free}"' if free else ""
    return (f'<pic version="{XIR_VERSION}"><externs/><process{free}>{process}'
            '</process></pic>')


@pytest.mark.parametrize("bad", [
    _document("<nil/>", "x#--5"),
    _document("<nil/>", "x#²"),
    _document("<nil/>", "x#-5"),  # run-time names take these ids
], ids=["double-minus", "superscript-digit", "negative"])
def test_run_bad_name_id_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.xir.xml"
    path.write_text(bad, encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_TYPE
    assert "bad name reference" in capsys.readouterr().err


def test_run_5000_child_par_step_limit(tmp_path, capsys):
    # 2500 distinct channels, each with one output and one input
    path = tmp_path / "wide.xir.xml"
    body = "".join(t for k in range(2500) for t in _pair(k))
    path.write_text(_document(f"<par>{body}</par>", _channels(2500)),
                    encoding="utf-8")
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STEP_LIMIT
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_run_2000_deep_binary_par_step_limit(tmp_path, capsys):
    # the binary form earlier writers produced: each par holds one
    # thread and the rest of the chain
    threads = [t for k in range(1000) for t in _pair(k)]
    process = ("".join(f"<par>{t}" for t in threads[:-1]) + threads[-1]
               + "</par>" * (len(threads) - 1))
    path = tmp_path / "deep.xir.xml"
    path.write_text(_document(process, _channels(1000)), encoding="utf-8")
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STEP_LIMIT
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_run_new_over_2000_thread_par_step_limit(tmp_path, capsys):
    # a New's scope is an environment, not a substitution down the spine
    threads = [t for k in range(1000) for t in _pair(k)]
    threads[0] = '<out subject="5000"/>'
    threads[-1] = '<in subject="5000"/>'
    process = f'<par new="z#5000">{"".join(threads)}</par>'
    path = tmp_path / "widenew.xir.xml"
    path.write_text(_document(process, _channels(1000)), encoding="utf-8")
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STEP_LIMIT
    assert len(capsys.readouterr().out.splitlines()) == 10


def _thread(tag, subject):
    return f'<{tag} subject="{subject}"/>'


@pytest.mark.parametrize("process,error", [
    # the VM would rebind a#0 in the environment a!() shares with it
    ('<par new="a#0">' + _thread("out", "0")
     + '<in new="a#0" subject="0"/></par>',
     "binder id 0 of new a#0 is already bound"),
    # no use comes before its declaration
    ("<par>" + _thread("in", "0") + '<out new="a#0" subject="0"/></par>',
     "undeclared name '0' in in"),
    ('<par><out new="a#0" subject="0"/>' + _thread("in", "0") + "</par>",
     "name a#0 occurs outside its new"),
], ids=["bound-twice", "used-before-its-new", "used-after-its-new"])
def test_run_binder_id_error_exit_2(tmp_path, capsys, process, error):
    path = tmp_path / "binders.xir.xml"
    path.write_text(_document(process), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: E-SCHEMA {error}\n"


def test_run_binder_id_is_extern_channel_exit_2(account_src, tmp_path, capsys):
    out = _compile(account_src, tmp_path)
    text = out.read_text(encoding="utf-8")
    assert 'ret="Ret2#3" result="int"/>' in text
    assert '<in new="v#5" subject="3" a0="name:5"/>' in text
    out.write_text(text.replace('new="v#5"', 'new="v#3"'), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(out)]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: E-SCHEMA binder id 3 of new v#3 is an " \
                           "extern channel id\n"


def _int_document(value):
    return _document(f'<out subject="0" a0="int:{value}"/>', "x#0")


@pytest.mark.parametrize("value", [" +1_000", "+1", "1_0", "-", "--5", "1 "])
def test_run_bad_int_literal_exit_2(tmp_path, capsys, value):
    path = tmp_path / "bad.xir.xml"
    path.write_text(_int_document(value), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_TYPE
    assert "bad int literal" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "\u0661\u0662"])
def test_run_int_literal_as_the_tokenizer_reads_it(tmp_path, capsys, value):
    path = tmp_path / "ok.xir.xml"
    path.write_text(_int_document(value), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_STUCK  # the output has no reader
    assert "bad int literal" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# formatting a loaded program, and a closed stdout


def test_format_loaded_program_omits_protocols_and_checks(tmp_path):
    # XIR holds no protocol, so the formatted program omits every acceded
    # as clause, and the omitted clause is the canonical cycle
    doc = _compile(SAMPLES_DIR / "counter.pi", tmp_path)
    formatted = format_program(from_xml(doc.read_text(encoding="utf-8")))
    assert "inc" in formatted and "acceded" not in formatted
    src = tmp_path / "formatted.pi"
    src.write_text(formatted)
    assert main(["check", str(src)]) == EXIT_OK


def test_run_into_closed_pipe_exits_3_without_traceback(tmp_path):
    src = tmp_path / "spin.pi"
    src.write_text("repeat x!()\n")
    doc = _compile(src, tmp_path)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # 20000 trace lines are far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "pichan.cli", "run", str(doc),
         "--max-steps", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0|repeat-unfold|thread 0\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_IO
    assert err == ""


class _FullStdout(io.StringIO):
    """A stdout whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _stdout_cases(tmp_path):
    """(argv, the error on stderr) for each way stdout can fail."""
    src = tmp_path / "cafe.pi"
    src.write_text('x!("caf\u00e9") | x?(y).nil\n', encoding="utf-8")
    cafe = str(_compile(src, tmp_path))
    account = str(_compile(SAMPLES_DIR / "account.pi", tmp_path))
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ascii_ = ("'ascii' codec can't encode character '\\xe9' in position 15: "
              "ordinal not in range(128)")
    return {"full-check": (["check", str(SAMPLES_DIR / "account.pi")], full),
            "full-run": (["run", account], full),
            "ascii-run": (["run", cafe], ascii_)}


@pytest.mark.parametrize("case", ["full-check", "full-run", "ascii-run"])
def test_stdout_that_fails_exits_3_with_one_error_line(case, tmp_path):
    argv, error = _stdout_cases(tmp_path)[case]
    out = (_FullStdout() if case.startswith("full")
           else io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (EXIT_IO, f"error: {error}\n")
    if case == "ascii-run":
        out.flush()
        assert out.buffer.getvalue() == b""


@pytest.mark.parametrize("case", ["full-check", "full-run", "ascii-run"])
def test_stdout_that_fails_exits_3_in_a_process(case, tmp_path):
    argv, error = _stdout_cases(tmp_path)[case]
    if case.startswith("full") and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    # ASCII-only: of these outputs, only the cafe trace cannot encode
    env = dict(os.environ, PYTHONIOENCODING="ascii",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # a buffered stdout keeps what it could not write, so the flush at exit
    # fails again unless main has pointed it at devnull
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full" if case.startswith("full") else os.devnull,
              "w") as out:
        proc = subprocess.run([sys.executable, "-m", "pichan.cli", *argv],
                              stdout=out, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_IO,
                                                       f"error: {error}\n")


# modules that no command needs; importing xml.sax.saxutils loads the next
# four, and pichan writes its annotations without typing
_HEAVY_MODULES = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
                  "dataclasses", "typing")
_CHECK_COMPILE_AND_RUN = f"""
import sys
src, source, doc = sys.argv[1:]
sys.path.insert(0, src)
import pichan.cli
codes = [pichan.cli.main(["check", source])]
print(codes, [m for m in ("pichan.vm", "pichan.xir") if m in sys.modules])
codes += [pichan.cli.main(["compile", source, "-o", doc]),
          pichan.cli.main(["run", doc])]
print(codes, [m for m in {_HEAVY_MODULES!r} if m in sys.modules])
"""


def test_commands_import_no_heavy_modules(tmp_path):
    # -S: no site hook loads modules before pichan does
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHECK_COMPILE_AND_RUN, str(src),
         str(SAMPLES_DIR / "counter.pi"), str(tmp_path / "counter.xir.xml")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # check runs without the VM or the XIR reader and writer
    assert lines[0] == "[0] []"
    assert lines[-1] == "[0, 0, 0] []"


# ---------------------------------------------------------------------------
# run on mutated documents


_SAMPLE_DOCUMENTS = [to_xml(desugar(parse_program(path.read_text(), path.name)))
                     for path in SAMPLES]


def _run_captured(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--seed", "0", "--max-steps", "200"])
    return code, out.getvalue(), err.getvalue()


@given(st.integers(0, len(SAMPLES) - 1), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_run_on_mutated_sample_xir_ends_in_a_run_exit_code(index, seed):
    # ROADMAP item 6, compiled-XIR slice: one of the single or paired edits
    # of test_deep_inputs._mutants, run twice
    rng = random.Random(seed)
    mutants = list(_mutants(_SAMPLE_DOCUMENTS[index], rng))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.xir.xml"
        path.write_text(rng.choice(mutants), encoding="utf-8")
        first = _run_captured(path)
        assert _run_captured(path) == first
    assert first[0] in {EXIT_OK, EXIT_TYPE, EXIT_STUCK, EXIT_FAULT,
                        EXIT_STEP_LIMIT}


# ---------------------------------------------------------------------------
# the cyclic collector: paused while a command runs, and nothing for it to free


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _compiled(tmp_path, text):
    return str(_compile(Path(_file(tmp_path, "prog.pi", text)), tmp_path))


def _randgen(k):
    return format_program(gen_program(random.Random(k), max_nodes=40))


# (argv, exit code, argv whose leftover this one's must equal) from tmp_path;
# a run's id is its sample's name
_WARM_CASES = [
    *(pytest.param(lambda t, s=s: (["check", str(s)], EXIT_OK, None),
                   id=f"check-{s.name}") for s in SAMPLES),
    *(pytest.param(lambda t, s=s: (["compile", str(s), "-o", str(t / "o")],
                                   EXIT_OK, None),
                   id=f"compile-{s.name}") for s in SAMPLES),
    *(pytest.param(lambda t, s=s: (["run", str(_compile(s, t))], EXIT_OK, None),
                   id=s.name) for s in SAMPLES),
    *(pytest.param(lambda t, k=k, code=code: (
        ["check", _file(t, "r.pi", _randgen(k))], code, None),
        id=f"check-randgen-{k}") for k, code in [(0, EXIT_TYPE), (1, EXIT_OK)]),
    pytest.param(lambda t: (["run", _compiled(t, _randgen(1))], EXIT_TYPE, None),
                 id="run-randgen-1-unknown-class"),
    pytest.param(lambda t: (["run", _compiled(t, _randgen(5))], EXIT_STUCK, None),
                 id="run-randgen-5"),
    pytest.param(lambda t: (
        ["run", _compiled(t, gen_host_source(random.Random(2)))], EXIT_OK, None),
        id="run-randgen-host-2"),
    pytest.param(lambda t: (["check", _file(t, "s.pi", "x!(")], EXIT_SYNTAX,
                            None), id="syntax-error"),
    pytest.param(lambda t: (["check", _file(t, "s.pi", 'x!(1) | x!("s")\n')],
                            EXIT_TYPE, None), id="sort-error"),
    pytest.param(lambda t: (["run", _file(t, "d.xml", _process_document(
        "<widget/>"))], EXIT_TYPE, None), id="schema-error"),
    pytest.param(lambda t: (["run", _file(t, "d.xml", _process_document(
        "<nil/>").replace(f'"{XIR_VERSION}"', '"4"'))], EXIT_TYPE, None),
        id="version-error"),
    pytest.param(lambda t: (["check", str(t / "missing.pi")], EXIT_IO, None),
                 id="io-error"),
    pytest.param(lambda t: (["run", _compiled(t, "x!(a).nil\n")], EXIT_STUCK,
                            None), id="stuck"),
    pytest.param(lambda t: (["run", _compiled(t, "new x in (x = 1 | x = 2)\n")],
                            EXIT_FAULT, None), id="clash"),
    pytest.param(lambda t: (["run", _compiled(t, CONSOLE + "print!(x).Ret1?()\n")],
                            EXIT_FAULT, None), id="violation"),
    pytest.param(lambda t: (["run", _compiled(t, "repeat x!() | repeat x?()\n"),
                             "--max-steps", "25"], EXIT_STEP_LIMIT, None),
                 id="step-limit"),
    # argparse's usage formatter leaves cyclic objects, as many for one
    # usage error as for another
    pytest.param(lambda t: (["run"], EXIT_SYNTAX, ["bogus", "a", "--seed"]),
                 id="usage-error"),
    pytest.param(lambda t: (["gen-iface", str(SAMPLES_DIR / "account.manifest.json"),
                             "--alias", "A", "-o", str(t / "i.pi")], EXIT_OK,
                            None), id="gen-iface"),
    pytest.param(lambda t: (
        ["run", _compiled(t, "repeat x!() | repeat x?()\n"), "--max-steps",
         "1000", "--trace", "json"], EXIT_STEP_LIMIT, None), id="trace-json"),
]


def _warm_call(argv):
    """The exit code of a second, warm `main(argv)`, and the number of
    unreachable objects it left for the cyclic collector."""
    main(argv)
    gc.collect()
    code = main(argv)
    return code, gc.collect()


@pytest.mark.parametrize("case", _WARM_CASES)
def test_warm_host_run_leaves_no_cyclic_garbage(case, tmp_path, capsys):
    # the host constructor's log holds the registry, not the endpoint, and
    # no other record points back at its holder, so a command's objects are
    # freed by reference counting alone
    argv, code, baseline = case(tmp_path)
    leftover = 0 if baseline is None else _warm_call(baseline)[1]
    assert _warm_call(argv) == (code, leftover)


@pytest.mark.parametrize("argv,raised,code,enabled", [
    (["check", "x.pi"], None, EXIT_IO, True),
    (["check"], None, EXIT_SYNTAX, True),
    (["check", "x.pi"], BrokenPipeError, EXIT_IO, True),
    (["check", "x.pi"], RuntimeError, RuntimeError, True),
    (["check", "x.pi"], None, EXIT_IO, False),
], ids=["return", "usage-error", "broken-pipe", "exception", "caller-disabled"])
def test_command_runs_with_the_collector_paused_and_gives_its_state_back(
        argv, raised, code, enabled, tmp_path, monkeypatch):
    seen = []

    def pipeline(path):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised()
        return None, EXIT_IO

    monkeypatch.setattr(cli, "_check_pipeline", pipeline)
    try:
        # a real file, whose descriptor main's I/O handler would point at
        # devnull if its flush failed
        with open(tmp_path / "out", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            (gc.enable if enabled else gc.disable)()
            if isinstance(code, int):
                assert main(argv) == code
            else:
                with pytest.raises(code):
                    main(argv)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    # argparse refuses the command line before any command runs
    assert seen == ([] if argv == ["check"] else [False])


# ---------------------------------------------------------------------------
# check, compile and run on mutated source text


_SOURCES = ([path.read_text(encoding="utf-8") for path in SAMPLES]
            + [_randgen(k) for k in range(4)]
            + [gen_host_source(random.Random(k)) for k in range(4)])


def _source_mutants(text, rng):
    """_mutants over source text, with a token dropped, doubled or swapped
    for another token of its kind (word or punctuation) among its edits."""
    edits = []
    for kind in (r"\w+", r"[^\w\s]"):
        spans = [m.span() for m in re.finditer(kind, text)]
        tokens = [text[start:end] for start, end in spans]
        for start, end in spans:
            edits += [(start, end, ""), (start, start, text[start:end]),
                      (start, end, rng.choice(tokens))]
    return _mutants(text, rng, edits)


def _commands_captured(src, doc):
    got = []
    for argv in (["check", src], ["compile", src, "-o", doc],
                 ["run", doc, "--seed", "0", "--max-steps", "200"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got.append((main(argv), out.getvalue(), err.getvalue()))
        assert gc.isenabled()
    return got


@given(st.integers(0, len(_SOURCES) - 1), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_commands_on_mutated_source_end_in_documented_exit_codes(index, seed):
    # ROADMAP item 6, source slice: check, compile, then run what compiled
    rng = random.Random(seed)
    mutants = list(_source_mutants(_SOURCES[index], rng))
    with tempfile.TemporaryDirectory() as tmp:
        src, doc = str(Path(tmp) / "mutant.pi"), str(Path(tmp) / "mutant.xml")
        Path(src).write_text(rng.choice(mutants), encoding="utf-8")
        first = _commands_captured(src, doc)
        assert _commands_captured(src, doc) == first
    (check, *_), (compiled, *_), (ran, *_) = first
    assert check == compiled in {EXIT_OK, EXIT_SYNTAX, EXIT_TYPE}
    assert ran in ({EXIT_OK, EXIT_TYPE, EXIT_STUCK, EXIT_FAULT, EXIT_STEP_LIMIT}
                   if compiled == EXIT_OK else {EXIT_IO})
    assert not any("Traceback" in out + err for _, out, err in first)
