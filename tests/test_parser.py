"""Tests for tokenizer, parser, desugaring and pretty-printer round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (INT, ExternDecl, Fusion, In, IntLit, MethodDecl,
                         NameSupply, New, Nil, Out, Par, Program, Repeat,
                         StrLit)
from pichan.diag import ParseError, Source
from pichan.parser import _TOKEN_RE, desugar, parse_program, tokenize
from pichan.typecheck import check_sorts
from pichan.xir import XIR_VERSION, to_xml

import reference_frontend
from golden_traces import corpus
from printer import format_program, program_alpha_eq
from randgen import gen_program
from terms import free_names, name_scan, same_program

ACCOUNT_EXTERN = """
extern FClass -> class Account {
  void readn() {
    call readn: void;
    return Ret1: void;
  } acceded as {rec S {readn().Ret1().S}}
  int read() {
    call read: void;
    return Ret2: int;
  } acceded as {rec S {read().Ret2(int).S}}
}
"""


def test_parse_account_extern_block():
    program = parse_program(ACCOUNT_EXTERN + "nil")
    assert len(program.externs) == 1
    d = program.externs[0]
    assert d.alias == "FClass"
    assert d.class_name == "Account"
    assert [m.name for m in d.methods] == ["readn", "read"]
    readn, read = d.methods
    assert readn.call_channel.display == "readn"
    assert readn.return_channel.display == "Ret1"
    assert readn.param_sorts == () and readn.return_payload == ()
    assert read.call_channel.display == "read"
    assert read.return_channel.display == "Ret2"
    assert read.param_sorts == () and read.return_payload == (INT,)
    # a declared protocol is its rec body, step by step
    assert readn.protocol == (("readn", ()), ("Ret1", ()))
    assert read.protocol == (("read", ()), ("Ret2", (INT,)))


def test_parse_nil():
    program = parse_program("nil")
    assert same_program(program, Program((), Nil()))


def test_parse_omitted_acceded_clause():
    src = """
extern A -> class Account {
  int read() {
    call read: void;
    return Ret2: int;
  }
}
nil
"""
    program = parse_program(src)
    m = program.externs[0].methods[0]
    assert m.protocol is None


def test_parse_output_input_fusion():
    program = parse_program('x!(1, "hi").y?(v).v=true')
    p = program.main
    assert isinstance(p, Out)
    assert p.objects[0] == IntLit(1)
    assert p.objects[1] == StrLit("hi")
    inp = p.cont
    assert isinstance(inp, In) and inp.binding
    fus = inp.cont
    assert isinstance(fus, Fusion)
    assert fus.left == inp.objects[0]


def test_parse_free_input_and_new_chain():
    program = parse_program("new a, b in a?<b>.b!()")
    p = program.main
    assert isinstance(p, New) and isinstance(p.body, New)
    inner = p.body.body
    assert isinstance(inner, In) and not inner.binding
    assert inner.subject == p.name
    assert inner.objects == (p.body.name,)


def test_parse_par_right_assoc_and_parens():
    program = parse_program("x!() | y!() | nil")
    p = program.main
    assert isinstance(p, Par) and isinstance(p.right, Par)
    grouped = parse_program("(x!() | y!()) | nil").main
    assert isinstance(grouped.left, Par)


def test_parse_comments_and_strings():
    program = parse_program('// leading comment\nx!("a\\nb") // trailing\n')
    assert program.main.objects == (StrLit("a\nb"),)


def test_parse_negative_int():
    assert parse_program("x!(-7)").main.objects == (IntLit(-7),)


def test_parse_decimal_digits_of_any_script():
    # int() accepts exactly the str.isdecimal() characters
    assert parse_program("x!(\u0661\u0662)").main.objects == (IntLit(12),)


def test_parse_repeated_name_is_same_free_name():
    program = parse_program("x!() | x?<y>")
    assert program.main.left.subject == program.main.right.subject


def test_parse_errors_have_spans():
    with pytest.raises(ParseError) as exc:
        parse_program("x!(")
    d = exc.value.diagnostics[0]
    assert d.code == "E-SYNTAX"
    assert d.span.line == 1


def test_parse_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError):
        parse_program("// only a comment\n")


def test_parse_duplicate_extern_channel_rejected():
    src = """
extern A -> class C {
  void m() { call ch: void; return ch: void; }
}
nil
"""
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert "declared twice" in exc.value.diagnostics[0].message


def test_parse_unterminated_string():
    with pytest.raises(ParseError):
        parse_program('x!("oops')


@pytest.mark.parametrize("text,bad", [
    ("a\x01b", "\x01"), ("\ufffe", "\ufffe"), ("\x00", "\x00"),
    ("\uffff", "\uffff"), ("\ud800", "\ud800"), ("\\\x1f", "\x1f"),
    ("ok\x0b", "\x0b")])
def test_string_xir_cannot_carry_is_e_syntax_at_the_literal(text, bad):
    # XML 1.0 has no form for these, not even &#1;, so compile wrote XIR
    # that run refused as not well-formed
    with pytest.raises(ParseError) as exc:
        parse_program(f'nil | x!("{text}")\n| x?(v).nil', "f.pi")
    (d,) = exc.value.diagnostics
    assert str(d) == (f"f.pi:1:10: error E-SYNTAX string holds {bad!r}, "
                      f"which XML 1.0 cannot carry")


def resolved_tokens(text, filename="<input>"):
    """pichan's tokens of text as (kind, text, SourceSpan): each offset
    resolved through the source map, the length that of the lexeme."""
    source = Source(filename, text)
    return [(kind, word, source.span(offset)._replace(
                length=1 if kind == "eof"
                else _TOKEN_RE.match(text, offset).end() - offset))
            for kind, word, offset in tokenize(text, filename)]


def where(node):
    """(line, column) of a node's (Source, offset) span."""
    source, offset = node.span
    return source.span(offset)[1:3]


def test_tokenize_positions():
    toks = resolved_tokens("x!()\ny?<v>")
    ident = [t for t in toks if t[0] == "ident"]
    assert (ident[0][2].line, ident[0][2].column) == (1, 1)
    assert (ident[1][2].line, ident[1][2].column) == (2, 1)


def test_tokens_carry_offsets():
    assert tokenize("x!(1)\n y") == [
        ("ident", "x", 0), ("!", "!", 1), ("(", "(", 2), ("intlit", "1", 3),
        (")", ")", 4), ("ident", "y", 7), ("eof", "", 8)]


def test_method_header_mismatch_rejected():
    src = """
extern A -> class C {
  int m() { call m: void; return R: void; }
}
nil
"""
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert "return type" in exc.value.diagnostics[0].message


# ---------------------------------------------------------------------------
# desugar


def test_desugar_binding_input():
    program = desugar(parse_program("x?(v).v!()"))
    p = program.main
    assert isinstance(p, New)
    inp = p.body
    assert isinstance(inp, In) and not inp.binding
    assert inp.objects == (p.name,)
    assert same_program(inp.cont, Out(p.name, (), Nil()))
    assert name_scan(p)[1]


def test_desugar_zero_arity_flag_only():
    program = desugar(parse_program("x?().y!()"))
    p = program.main
    assert isinstance(p, In) and not p.binding and p.objects == ()


def test_desugar_nested_no_capture():
    program = parse_program("x?(v).y?(w).v!(w)")
    core = desugar(program).main
    # new v' in x?<v'>. new w' in y?<w'>. v'!(w')
    assert isinstance(core, New)
    inp_x = core.body
    assert isinstance(inp_x.cont, New)
    inp_y = inp_x.cont.body
    assert inp_y.cont.subject == core.name
    assert inp_y.cont.objects == (inp_x.cont.name,)
    assert free_names(core) == free_names(program.main)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_desugar_idempotent_and_preserves_free_names(seed):
    program = gen_program(random.Random(seed))
    once = desugar(program)
    assert name_scan(once.main)[1]
    assert same_program(desugar(once), once)
    assert free_names(once.main) == free_names(program.main)


def test_desugar_5000_deep_binding_chain():
    supply = NameSupply()
    x = supply.fresh("x")
    params = [supply.fresh("v") for _ in range(5000)]
    p = Out(x, (params[-1],), Nil())
    for v in reversed(params):
        p = In(x, (v,), True, p)
    core = desugar(Program((), p)).main
    depth = 0
    while isinstance(core, New):
        assert core.body.objects == (core.name,)
        core, depth = core.body.cont, depth + 1
    assert depth == 5000
    assert core.subject == x and core.objects[0].display == "v"


# ---------------------------------------------------------------------------
# the reference front end (tests/reference_frontend.py)


# pieces that lex cleanly on their own, and pieces that may not: a lone
# quote opens a string that swallows what follows
_LEX_PIECES = st.sampled_from([
    "x", "_y1", "new", "in", "nil", "int", "\u00e9t\u00e9", "\u03a9",
    "x\u00b2", "\u0661\u0662", "12", "-3", "->", "!", "?", "(", ")", "<",
    ">", "{", "}", "|", ".", ",", "=", ":", ";", "// c\n", " ", "\t", "\r",
    "\n", '"a\\"b"', '"t\\tq\\\\"', '"\n"', '"\\\n"', '"\r\ufffd\U0001f600"',
])
_LEX_RISKS = st.sampled_from([
    "", '"', "\\", "-", "--", "\u00b2", "/", "//", "#", "\u00a0", '\\"', "\\n",
    "\x01", "\x00", "\ufffe", "\uffff", "\ud800", "\\\x1f",
])
_LEX_TEXT = st.tuples(st.lists(_LEX_PIECES, max_size=30), _LEX_RISKS,
                      st.lists(_LEX_PIECES, max_size=8)).map(
    lambda t: "".join(t[0]) + t[1] + "".join(t[2]))


def _lex(tokenize_fn, text):
    """(kind, text, (file, line, column, length)) per token, or the
    diagnostics with their full spans."""
    try:
        return [tuple(t) for t in tokenize_fn(text, "f.pi")]
    except ParseError as exc:
        return [(str(d), d.span) for d in exc.diagnostics]


@given(_LEX_TEXT)
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference(text):
    assert _lex(resolved_tokens, text) == _lex(reference_frontend.tokenize,
                                               text)


@pytest.mark.parametrize("text", [
    "x //c", "//", "a\\", '"abc\\', "-", "x\t\ry", '"a\nb" x', '"\\\n" y',
    "\u00b2x", "\u0661\u0662", "-\u0661", "x\u00b2 -> y", "", "\n\n  ",
    "x!()\r\ny?<v>\r\n", "\tx\t!(\t1)", '"a\nb"\ny', "x // end", "x!()$",
    "\u00e9t\u00e9!(\u00fc) | x!(\u20ac)",
])
def test_tokenize_matches_reference_on_edges(text):
    assert _lex(resolved_tokens, text) == _lex(reference_frontend.tokenize,
                                               text)


# (text, the first diagnostic's position); each position was checked by
# hand, and the parent of the offset-carrying tokens printed the same
@pytest.mark.parametrize("text, where", [
    ("x!()\r\ny!(1 2)", "f.pi:2:1"),  # CRLF: the line starts after '\n'
    ("x!()\r\n| y?(v", "f.pi:2:7"),
    ("\tx!(\t1,\t)", "f.pi:1:9"),  # a tab is one column
    ('x!("a\nb", 1 2)', "f.pi:2:7"),  # a newline in a string starts a line
    ("x!( // end", "f.pi:1:5"),  # end of input where the last comment starts
    ("x!()\ny!()$", "f.pi:2:5"),  # an error on the last character
    ("x!(1).", "f.pi:1:7"),
    ("\u00e9t\u00e9!(\u00fc) | x!(\u20ac)", "f.pi:1:14"),  # characters
])
def test_parse_error_positions(text, where):
    with pytest.raises(ParseError) as exc:
        parse_program(text, "f.pi")
    assert str(exc.value.diagnostics[0]).startswith(where + ": error E-SYNTAX")


def test_check_positions_resolve_through_the_source_map():
    program = parse_program('x!(1)\r\n|\t\u00e9!()\n| x!("s")', "f.pi")
    assert program.main.span[0]._starts is None  # nothing resolved yet
    assert [str(d) for d in check_sorts(desugar(program))] == [
        "f.pi:3:3: error E-SORT sort mismatch in output payload on x: "
        "int vs string"]


def _same_core(program):
    assert (to_xml(desugar(program))
            == to_xml(reference_frontend.desugar(program)))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_desugar_matches_reference_on_randgen(seed):
    _same_core(gen_program(random.Random(seed), max_nodes=60))


def test_desugar_matches_reference_on_corpus():
    seen = set()
    for _, program, _, _ in corpus():  # the samples are among them
        if id(program) not in seen:
            seen.add(id(program))
            _same_core(program)


def test_desugar_matches_reference_on_hand_built_terms():
    supply = NameSupply()
    x, v, w = (supply.fresh(d) for d in "xvw")
    use = Out(v, (v, w), Nil())
    shared = In(x, (v,), True, use)
    for p in [In(x, (v, v), True, use),  # a repeated parameter
              In(x, (v,), True, New(v, use)),  # a New shadows v
              In(x, (v,), True, In(v, (v,), True, use)),  # so does an input
              Par(shared, Repeat(shared)),  # one node in two places
              In(x, (v, w), True, In(w, (v,), False, Fusion(v, w)))]:
        _same_core(Program((), p))
    # the largest id is an extern channel's: fresh ids must start above it
    call, ret = supply.fresh("inc"), supply.fresh("Ret1")
    decl = ExternDecl("A", "C", (MethodDecl("inc", call, (), ret, (INT,)),))
    _same_core(Program((decl,), shared))


def test_desugar_fresh_ids_start_above_renamed_binders():
    # v#1 is renamed away, yet it still bounds the fresh id
    assert to_xml(desugar(parse_program("x?(v).nil"))) == (
        f'<pic version="{XIR_VERSION}">\n<externs/>\n<process free="x#0">\n'
        '<in new="v#2" subject="0" a0="name:2"/>\n</process>\n</pic>\n')


def test_desugar_keeps_spans_under_binding_input():
    program = desugar(parse_program('x?(v).y!(1).y!("s")'))
    out = program.main.body.cont
    assert where(out) == (1, 7)
    assert where(out.cont) == (1, 13)


# ---------------------------------------------------------------------------
# format round trip


def test_format_nil():
    assert format_program(Program((), Nil())) == "nil\n"


def test_format_account_extern_round_trip():
    program = parse_program(ACCOUNT_EXTERN + "read!() | Ret2?(v).nil")
    text = format_program(program)
    again = parse_program(text)
    assert program_alpha_eq(program, again)


def test_format_escapes_strings():
    program = parse_program('x!("a\\"b\\\\c\\n")')
    again = parse_program(format_program(program))
    assert again.main.objects == program.main.objects


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_format_parse_round_trip(seed):
    program = gen_program(random.Random(seed))
    text = format_program(program)
    again = parse_program(text)
    assert program_alpha_eq(program, again)
