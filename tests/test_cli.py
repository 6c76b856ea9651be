"""End-to-end tests for the command-line pipeline and its exit codes."""

import json
from pathlib import Path

import pytest

from pichan.cli import (EXIT_FAULT, EXIT_IO, EXIT_OK, EXIT_STEP_LIMIT,
                        EXIT_STUCK, EXIT_SYNTAX, EXIT_TYPE, main)
from pichan.ifgen import ACCOUNT_MANIFEST

from test_parser import ACCOUNT_EXTERN

ACCOUNT_PROGRAM = ACCOUNT_EXTERN + "read!() | Ret2?(v).nil\n"


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


def test_run_step_limit_exit_6(tmp_path):
    src = tmp_path / "loop.pi"
    src.write_text("repeat x!() | repeat x?()\n")
    out = _compile(src, tmp_path)
    assert main(["run", str(out), "--max-steps", "25"]) == EXIT_STEP_LIMIT


def test_run_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.xir.xml"
    bad.write_text('<pic version="2"><externs/><process><nil/></process></pic>')
    assert main(["run", str(bad)]) == EXIT_TYPE


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


# ---------------------------------------------------------------------------
# gen-iface


def test_gen_iface_then_check_and_compile(tmp_path):
    manifest = tmp_path / "account.manifest.json"
    manifest.write_text(json.dumps(ACCOUNT_MANIFEST))
    gen = tmp_path / "gen.pi"
    assert main(["gen-iface", str(manifest), "--alias", "FClass",
                 "-o", str(gen)]) == EXIT_OK
    assert main(["check", str(gen)]) == EXIT_OK
    assert main(["compile", str(gen), "-o",
                 str(tmp_path / "gen.xir.xml")]) == EXIT_OK


def test_gen_iface_bad_manifest(tmp_path):
    manifest = tmp_path / "bad.json"
    manifest.write_text('{"class": 7}')
    assert main(["gen-iface", str(manifest), "--alias", "A",
                 "-o", str(tmp_path / "o.pi")]) == EXIT_SYNTAX


SAMPLES = sorted((Path(__file__).parent.parent / "samples").glob("*.pi"))


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
    return [f'<{tag} subject="c{k}#{k}"><cont><nil/></cont></{tag}>'
            for tag in ("out", "in")]


def _document(process):
    return f'<pic version="1"><externs/><process>{process}</process></pic>'


@pytest.mark.parametrize("bad", [
    _document('<out subject="x#--5"><cont><nil/></cont></out>'),
    _document('<out subject="x#²"><cont><nil/></cont></out>'),
], ids=["double-minus", "superscript-digit"])
def test_run_bad_name_id_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.xir.xml"
    path.write_text(bad, encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_TYPE
    assert "bad name reference" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [('states="2"', 'states="²"'),
                                     ('from="0"', 'from="²"')])
def test_run_bad_protocol_number_exit_2(account_src, tmp_path, capsys, old, new):
    out = _compile(account_src, tmp_path)
    text = out.read_text(encoding="utf-8")
    out.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["run", str(out)]) == EXIT_TYPE
    assert "protocol" in capsys.readouterr().err


def test_run_5000_child_par_step_limit(tmp_path, capsys):
    # 2500 distinct channels, each with one output and one input
    path = tmp_path / "wide.xir.xml"
    body = "".join(t for k in range(2500) for t in _pair(k))
    path.write_text(_document(f"<par>{body}</par>"), encoding="utf-8")
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STEP_LIMIT
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_run_2000_deep_binary_par_step_limit(tmp_path, capsys):
    # the binary form earlier writers produced: each par holds one
    # thread and the rest of the chain
    threads = [t for k in range(1000) for t in _pair(k)]
    process = ("".join(f"<par>{t}" for t in threads[:-1]) + threads[-1]
               + "</par>" * (len(threads) - 1))
    path = tmp_path / "deep.xir.xml"
    path.write_text(_document(process), encoding="utf-8")
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STEP_LIMIT
    assert len(capsys.readouterr().out.splitlines()) == 10
