"""Deep input and the explicit-stack walks: every shape of deep_inputs.py
through `cli.main`, and the parser, checkers and XIR writer and reader
against the recursive reference walkers in reference_recursive.py."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.cli import EXIT_STUCK, main
from pichan.core import nodes
from pichan.diag import ParseError
from pichan.parser import desugar, parse_program
from pichan.typecheck import (SHOW_LIMIT, check_extern_usage,
                              check_sorts)
from pichan.xir import XIR_VERSION, SchemaError, from_xml, to_xml

import reference_recursive as ref
from deep_inputs import (SHAPES, flat_par, flood, free_names, new_list,
                         new_over_par, reversed_outputs, run_shape)
from golden_traces import SAMPLES, corpus
from printer import format_program
from randgen import gen_program
from terms import same_program
from test_parser import ACCOUNT_EXTERN

# ---------------------------------------------------------------------------
# deep shapes at 10^4, and a 10^5-deep XIR document


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_deep_shape_gets_its_exit_codes(shape, tmp_path):
    got = run_shape(shape, 10_000, tmp_path)
    assert tuple(code for _, code, _ in got) == SHAPES[shape]


def test_run_2000_flood_to_the_end_takes_under_10_s(tmp_path, capsys):
    # a scheduler that lists one entry per redex holds 4,000,000 at the
    # first step here, and takes minutes for the run
    src, xir = tmp_path / "flood.pi", tmp_path / "flood.xir.xml"
    src.write_text(flood(2000), encoding="utf-8")
    assert main(["compile", str(src), "-o", str(xir)]) == 0
    start = time.perf_counter()
    assert main(["run", str(xir)]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out.count("|comm|x/0") == 2000


def _left_nested_par_document(depth):
    """A <par> nested depth deep in left position, each with an output on
    its right: one element per line, as to_xml writes it."""
    out = '<out subject="0"/>\n'
    return (f'<pic version="{XIR_VERSION}">\n<externs/>\n<process free="a#0">\n'
            + "<par>\n" * depth
            + out + (out + "</par>\n") * depth + "</process>\n</pic>\n")


def test_run_100000_deep_left_nested_par(tmp_path, capsys):
    doc = _left_nested_par_document(100_000)
    assert to_xml(from_xml(doc)) == doc
    path = tmp_path / "deep.xir.xml"
    path.write_text(doc)
    assert main(["run", str(path), "--max-steps", "10"]) == EXIT_STUCK
    err = capsys.readouterr().err
    assert err.count("blocked output on a/0") == 100_001


def test_same_program_on_100000_wide_par():
    # a program and its XIR copy, then a copy whose last output differs
    program = desugar(parse_program(flat_par(100_000)))
    doc = to_xml(program)
    out = '<out subject="0"/>'
    last = doc.rindex(out)
    other = (doc[:last] + '<out subject="1"/>' + doc[last + len(out):]).replace(
        '<process free="a#0">', '<process free="a#0 b#1">')
    copies = from_xml(doc), from_xml(other)
    start = time.perf_counter()
    assert same_program(program, copies[0])
    assert not same_program(program, copies[1])
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# the parser and both checkers against the recursive walkers


def _shown(text, parse=parse_program, sorts=check_sorts,
           usage=check_extern_usage):
    """Everything a parse shows: each node's kind and span in pre-order
    (file, line and column, resolved through the source map), the desugared
    XIR (ids included) and both checkers' diagnostics; or the ParseError's
    diagnostics."""
    try:
        program = parse(text, "f.pi")
    except ParseError as exc:
        return [str(d) for d in exc.diagnostics]
    core = desugar(program)
    return ([(type(n).__name__, n.span and n.span[0].span(n.span[1]))
             for n in nodes(program.main)],
            to_xml(core), [str(d) for d in sorts(core)],
            [str(d) for d in usage(core)])


def _reference(text):
    return _shown(text, ref.parse_program, ref.check_sorts,
                  ref.check_extern_usage)


_SOUP = st.lists(st.sampled_from([
    "x", "y", "v", "w", "new", "in", "repeat", "nil", "(", ")", "|", ".",
    "!", "?", "<", ">", ",", "=", "1", '"s"', "true", "unit", "x!()",
    "x?(v)", "y!(v)", "v?<w>", "new v, v in", "x?(v, v)", "//", "\n",
]), max_size=25).map(" ".join)


@given(_SOUP)
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference_on_token_soup(text):
    assert _shown(text) == _reference(text)


@pytest.mark.parametrize("seed", range(40))
def test_parse_matches_reference_on_formatted_programs(seed):
    text = format_program(gen_program(random.Random(seed), max_nodes=60))
    assert _shown(text) == _reference(text)


# actions that may prefix a continuation, and terms that end a chain;
# together they disagree on arities and payload sorts, fuse literals with
# channels and pass channels over themselves
_ACTIONS = ["a!(1)", 'a!("s")', "a!(b)", "a!(a)", "b!(1, 2)", "b!()",
            "b?(x)", "a?(x)", "a?<c>", "c!(true)", "d!(d)", "x?(y, z)",
            "y!(z)", "d?(p)", "p?(q)", "q!(1)", "p!(q)", "e!(e, 1)",
            'g!("s", true)', "f!(b)", "f!(g)"]
_ENDS = ["nil", "x!(1)", 'x!("s")', "a = b", "1 = c", '"s" = c', "c = d",
         "z!(unit)", "q = a", "x = y"]


_WRAPPERS = ["{}", "({})", "new e in {}", "repeat {}", "b?(x).({})",
             "new e in ({0} | {0})", "repeat ({0} | x!(1))"]


def _programs(actions, ends, head=""):
    """head, then 1-5 wrapped chains of up to four actions and an end,
    joined by |."""
    chain = st.builds(lambda acts, end: ".".join(acts + [end]),
                      st.lists(st.sampled_from(actions), max_size=4),
                      st.sampled_from(ends))
    term = st.builds(str.format, st.sampled_from(_WRAPPERS), chain)
    return st.lists(term, min_size=1, max_size=5).map(
        lambda terms: head + " | ".join(terms))


@given(_programs(_ACTIONS, _ENDS))
@settings(max_examples=300, deadline=None)
def test_checks_match_reference_on_sort_errors(text):
    assert _shown(text) == _reference(text)


_EXTERN_ACTIONS = ["read!()", "readn!()", "Ret2?(v)", "Ret1?()", "Ret2?<w>",
                   "x!(v)", "v?(u)"]
_EXTERN_ENDS = ["nil", "read!()", "Ret1?()", "read = readn", "v = 1",
                "read = x"]


@given(_programs(_EXTERN_ACTIONS, _EXTERN_ENDS, ACCOUNT_EXTERN))
@settings(max_examples=300, deadline=None)
def test_checks_match_reference_on_extern_use(text):
    assert _shown(text) == _reference(text)


@pytest.mark.parametrize("text", [
    # f's payload unifies chan(int,int) with chan(string,bool): two errors
    # from one unification, reported left to right
    'b!(1, 2) | g!("s", true) | f!(b) | f!(g)',
    'b!(1, 2) | g!("s", true) | h!(k) | k!(b) | h!(m) | m!(g)',
    'u!(1) | w!("s") | y!(true) | b!(u, u) | g!(w, y) | f!(b) | f!(g)',
])
def test_checks_match_reference_on_nested_mismatches(text):
    got = _shown(text)
    assert got == _reference(text)
    assert len(got[2]) >= 2


@pytest.mark.parametrize("text", [
    # the slot c!(c) leaves unknown is later filled through x, so d's
    # payload c holds x: the cycle runs through that slot
    "c!(c) | c?<x> | d!(c) | x!(d)",
    # cycles closed after a fusion, by a fusion, and through the payload
    # slot an input and an output share
    "a!(b) | b = c | c!(a)",
    "a!(b) | c!(a) | b = c",
    "x?<y> | x!(z) | z!(x)",
])
def test_checks_match_reference_on_cycles(text):
    got = _shown(text)
    assert got == _reference(text)
    assert "recursive channel sort required by" in got[2][-1]


def test_checks_match_reference_on_deep_sorts():
    # a channel passed over the next one, 200 deep, with the links written
    # in order, in reverse and shuffled: one long chan(...) in a mismatch;
    # and the same chain closed into a cycle by its last link written
    shuffled = list(range(200))
    random.Random(5).shuffle(shuffled)
    for links in (range(200), reversed(range(200)), shuffled):
        links = list(links)
        text = " | ".join(f"c{i}!(c{i + 1})" for i in links) + " | c0!(1)"
        got = _shown(text)
        assert got == _reference(text)
        assert "chan(chan(chan(" in got[2][0]
        text = " | ".join(f"c{i}!(c{(i + 1) % 200})" for i in links)
        got = _shown(text)
        assert got == _reference(text)
        assert got[2] == [f"f.pi:1:{text.index(f'c{links[-1]}!(') + 1}: "
                          f"error E-SORT recursive channel sort required by "
                          f"output payload on c{links[-1]}"]


def _doubling(levels):
    """c0!(c1, c1) | c1!(c2, c2) | ... | c0 = 1: the sort of c0, written as a
    tree, doubles in size per level"""
    return (" | ".join(f"c{i}!(c{i + 1}, c{i + 1})" for i in range(levels))
            + " | c0 = 1")


def test_sort_shared_in_two_slots_shows_bounded(tmp_path, capsys):
    # the message stops past SHOW_LIMIT characters of the sort, in pichan
    # and in the reference alike
    got = _shown(_doubling(12))
    assert got == _reference(_doubling(12))
    assert got[2] == ["f.pi:1:180: error E-SORT sort mismatch in fusion: "
                      + "chan(" * 12 + "?,?),chan(?,?)),chan(chan(?,?),"
                      "chan(?,?))),chan(chan(chan(?,?),chan(?,?)),chan(chan(?,"
                      "?),chan(?,?)))),chan(chan(chan(chan(?,?),chan(?,?)),"
                      "chan(... vs int"]
    src = tmp_path / "doubling.pi"
    src.write_text(_doubling(40), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(src)]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("... vs int\n")
    message = out.split(": error E-SORT ", 1)[1]
    assert len(message) < SHOW_LIMIT + 50


# random channel-passing programs over six channels, each name used at any
# arity and with literals, so that arities and base-versus-channel sorts
# clash on shared names
_NAMES = [f"c{i}" for i in range(6)]
_VALUES = st.sampled_from(_NAMES + ["1", '"s"', "true", "unit"])
_ARGS = st.lists(_VALUES, max_size=3).map(", ".join)
_SORT_ACTIONS = st.one_of(
    st.builds("{}!({})".format, st.sampled_from(_NAMES), _ARGS),
    st.builds("{}?<{}>".format, st.sampled_from(_NAMES),
              st.lists(st.sampled_from(_NAMES), max_size=3).map(", ".join)),
    st.builds("{}?({})".format, st.sampled_from(_NAMES),
              st.lists(st.sampled_from(["c4", "c5", "v"]), max_size=3,
                       unique=True).map(", ".join)))
_SORT_ENDS = st.one_of(st.just("nil"), _SORT_ACTIONS,
                       st.builds("{} = {}".format, _VALUES, _VALUES))
_SORT_PROGRAMS = st.lists(
    st.builds(lambda acts, end: ".".join(acts + [end]),
              st.lists(_SORT_ACTIONS, max_size=4), _SORT_ENDS),
    min_size=1, max_size=6).map(" | ".join)


@given(_SORT_PROGRAMS)
@settings(max_examples=500, deadline=None)
def test_check_sorts_matches_reference_on_channel_passing(text):
    core = desugar(parse_program(text, "f.pi"))
    assert ([str(d) for d in check_sorts(core)]
            == [str(d) for d in ref.check_sorts(core)])


def test_check_on_20000_reversed_outputs_takes_under_10_s(tmp_path):
    # an occurs check that walks the whole sort built so far at every link
    # takes minutes here
    src = tmp_path / "chain.pi"
    src.write_text(reversed_outputs(20_000), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(src)]) == 0
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# XIR: one element per line, old indented documents, mutants


def _core_programs():
    # corpus() yields a program once per seed; keeping each one alive keeps
    # its id() from passing to a later program
    seen = {}
    for _, program, _, _ in corpus():
        if id(program) not in seen:
            seen[id(program)] = program
            yield desugar(program)
    for seed in range(60):
        yield desugar(gen_program(random.Random(seed), max_nodes=40))
    yield desugar(parse_program(ACCOUNT_EXTERN + "read!() | Ret2?(v).(v=1 "
                                "| repeat nil) | x?(a, b).a!(b, 1, \"s\", "
                                "true, unit)"))


def test_writer_is_the_reference_unindented():
    for program in _core_programs():
        old = ref.to_xml(program)
        new = to_xml(program)
        assert new == re.sub(r"(?m)^ +", "", old)
        # the indented form loads to the same program
        assert to_xml(from_xml(old)) == new


def _read(reader, text):
    try:
        return to_xml(reader(text))
    except SchemaError as exc:
        return (type(exc).__name__, str(exc))


def _mutants(text, rng, edits=()):
    """Single edits at every element, then random pairs of them; `edits`,
    (start, end, replacement) triples, join them."""
    edits = list(edits)
    for m in re.finditer(r"<(/?)(\w+)", text):
        edits.append((m.start(2), m.start(2), "zz"))  # rename the tag
    for m in re.finditer(r"<\w+[^<>]*/>\n?", text):
        edits.append((m.start(), m.end(), ""))  # drop an empty element
    for m in re.finditer(r"^.*\n", text, re.M):
        edits.append((m.start(), m.end(), ""))  # drop a line
        edits.append((m.start(), m.start(), m.group()))  # repeat a line
    for m in re.finditer(r'"([^"]*)"', text):
        for value in ("x", "1", "name", "int", "0#1", "", "-1"):
            edits.append((m.start(1), m.end(1), value))
    singles = [[e] for e in edits]
    pairs = [rng.sample(edits, 2) for _ in range(len(edits))]
    for group in singles + pairs:
        out = text
        for start, end, value in sorted(group, reverse=True):
            if end <= len(out):
                out = out[:start] + value + out[end:]
        yield out


def test_reader_matches_reference_on_mutants():
    rng = random.Random(7)
    programs = list(_core_programs())
    docs = [to_xml(p) for p in programs[-1:] + rng.sample(programs, 6)]
    count = 0
    for doc in docs:
        for mutant in _mutants(doc, rng):
            assert _read(from_xml, mutant) == _read(ref.from_xml, mutant), mutant
            count += 1
    assert count > 1000


# a name id where a declaration or a use writes one
_ID = re.compile(r'(?:#|subject="|name:)(\d+)[" ]')


def test_reader_matches_reference_on_binder_mutants():
    # one name id, declared or used, swapped for another id of the same
    # document: news that bind an id twice, an extern channel's or a free
    # name's, ids declared twice, names outside their new or undeclared
    rng = random.Random(11)
    programs = list(_core_programs())
    errors = set()
    for doc in [to_xml(p) for p in programs[-1:] + rng.sample(programs, 12)]:
        ids = sorted({m[1] for m in _ID.finditer(doc)})
        for m in _ID.finditer(doc):
            for other in rng.sample(ids, min(3, len(ids))):
                mutant = doc[:m.start(1)] + other + doc[m.end(1):]
                got = _read(from_xml, mutant)
                assert got == _read(ref.from_xml, mutant), mutant
                if type(got) is tuple:
                    errors.add(re.sub(r"\S*#\S*|\d+", "_", got[1]))
    assert errors >= {"binder id _ of new _ is already bound",
                      "binder id _ of new _ is an extern channel id",
                      "binder id _ of new _ is a free name",
                      "name id _ of free _ is already declared",
                      "name id _ of ret _ is already declared",
                      "name _ occurs outside its new",
                      "undeclared name '_' in out"}


def _process_document(process, free=""):
    free = f' free="{free}"' if free else ""
    return (f'<pic version="{XIR_VERSION}"><externs/><process{free}>{process}'
            '</process></pic>')


def _counter_document():
    return to_xml(desugar(parse_program((SAMPLES / "counter.pi").read_text())))


def _two_counters_document(alias="L", call="incL#0"):
    """counter.pi's extern block twice, the second under `alias` with its
    channels at `call` and RetL#2: by default both call channels are id 0."""
    doc = _counter_document()
    block = re.search(r"<extern .*?</extern>\n", doc, re.S)[0]
    other = (block.replace('alias="K"', f'alias="{alias}"')
             .replace('"inc#0"', f'"{call}"').replace('"IncRet#1"', '"RetL#2"'))
    return doc.replace(block, block + other)


@pytest.mark.parametrize("process,message", [
    # a use is an id: display#id is no declared one (for an in's
    # continuation read before its arguments are checked to be names, see
    # the v5 cases below)
    ('<in subject="x#0" a0="int:1"><widget/></in>',
     "undeclared name 'x#0' in in"),
    # a new list before its element, an out's arguments before its subject;
    # version 3's <new> element is no longer one
    ('<widget new="a"/>', "bad name reference 'a' in new"),
    ('<new name="a"><widget/></new>', "unknown element 'new'"),
    ('<out subject="x" a0="int:x"/>', "bad int literal 'x' in out"),
    # a par's children in order, each one whole before the next
    ('<par><par><widget/><nil/></par><gadget/></par>',
     "unknown element 'widget'"),
    ('<par><nil/><par><gadget/><nil/></par><par/></par>',
     "unknown element 'gadget'"),
    # values, childless elements and a fusion side out of its new's scope;
    # an out's arguments and a fusion's children come before any name
    ('<out subject="x#0" a0="bool:maybe"/>', "bad bool literal 'maybe' in out"),
    ('<out subject="x#0" a0="foo:1"/>', "unknown value kind 'foo' in out"),
    ('<fusion left="name:x#0" right="int:1"><nil/></fusion>',
     "fusion takes no children"),
    ("<nil><nil/></nil>", "nil takes no children"),
    ('<par><out new="a#0" subject="0"/>'
     '<fusion left="int:1" right="name:0"/></par>',
     "name a#0 occurs outside its new"),
    # a new list item by item, each read and checked before the next
    ('<nil new=""/>', "new lists no binder"),
    ('<nil new="a b"/>', "bad name reference 'a' in new"),
    ('<nil new="x#-1"/>', "bad name reference 'x#-1' in new"),
    ('<nil new="a#5 a#5"/>', "binder id 5 of new a#5 is already bound"),
    ('<nil new="a#5 a#5 b"/>', "binder id 5 of new a#5 is already bound"),
    ('<repeat new="a#5"><out new="b#6 a#5" subject="6"/></repeat>',
     "binder id 5 of new a#5 is already bound"),
    # a use comes after its declaration (see the v5 cases below)
    ('<par><out subject="a#5"/><nil new="a#5"/></par>',
     "undeclared name 'a#5' in out"),
    ('<nil new="a#5" bogus="1"/>',
     "nil: expected attributes [], found ['bogus']"),
    ('<out new="" subject="x"/>', "new lists no binder"),
    ('<par new="a#5 a"><widget/><nil/></par>',
     "bad name reference 'a' in new"),
])
def test_reader_reports_the_first_error_the_reference_does(process, message):
    doc = _process_document(process)
    assert _read(from_xml, doc) == _read(ref.from_xml, doc)
    assert _read(from_xml, doc) == ("SchemaError", message)


@pytest.mark.parametrize("free,process,message", [
    ("x#0", '<in subject="0" a0="int:1"><widget/></in>',
     "unknown element 'widget'"),
    # every use names a declaration before it: a binder's comes after its
    # new list, outside which it is out of scope
    ("", '<par><out subject="5"/><nil new="a#5"/></par>',
     "undeclared name '5' in out"),
    ("", '<out subject="7"/>', "undeclared name '7' in out"),
    ("x#0", '<out subject="0" a0="name:1"/>', "undeclared name '1' in out"),
    ("x#0", '<in subject="0" a0="name:0" a1="name:x#0"/>',
     "undeclared name 'x#0' in in"),
    ("", '<fusion left="name:1" right="int:1"/>',
     "undeclared name '1' in fusion"),
    ("x#0", '<out subject="00"/>', "undeclared name '00' in out"),
    ("x#0", '<out subject="-0"/>', "undeclared name '-0' in out"),
    # a free list declares each id once, before the process reads
    ("a#3 b#3", "<par><out subject='3'/><in subject='3'/></par>",
     "name id 3 of free b#3 is already declared"),
    ("a#3 a#3", "<nil/>", "name id 3 of free a#3 is already declared"),
    (" \t", "<nil/>", "free lists no name"),
    ("x#-1", "<nil/>", "bad name reference 'x#-1' in free"),
    ("x", "<widget/>", "bad name reference 'x' in free"),
    # a binder's id is no free name's
    ("x#4", '<nil new="x#4"/>', "binder id 4 of new x#4 is a free name"),
    ("x#4", '<out new="y#5" subject="5"><nil new="x#4"/></out>',
     "binder id 4 of new x#4 is a free name"),
    # an alias names one extern block (free None: process is the document)
    pytest.param(None, _two_counters_document("K", "incL#3"),
                 "extern alias K declared twice", id="alias-declared-twice"),
])
def test_reader_reports_the_first_v5_error_the_reference_does(free, process,
                                                               message):
    doc = process if free is None else _process_document(process, free)
    assert _read(from_xml, doc) == _read(ref.from_xml, doc)
    assert _read(from_xml, doc) == ("SchemaError", message)


_LONG_ID = "1" * 4301  # past the interpreter's int-conversion limit


@pytest.mark.parametrize("free,process,expected", [
    # a binder's id is its value, not its text
    ("", '<nil new="a#07 b#7"/>',
     ("SchemaError", "binder id 7 of new b#7 is already bound")),
    ("a#07 b#7", "<nil/>",
     ("SchemaError", "name id 7 of free b#7 is already declared")),
    # a non-ASCII decimal id declares, but a use must write the same text
    ("", '<out new="a#٣" subject="3"/>',
     ("SchemaError", "undeclared name '3' in out")),
    ("", f'<nil new="a#{_LONG_ID}"/>',
     ("SchemaError", f"bad name reference 'a#{_LONG_ID}' in new")),
    ("", '<nil new="a#+5"/>', ("SchemaError", "bad name reference 'a#+5' in new")),
    ("", '<nil new="a#5_0"/>',
     ("SchemaError", "bad name reference 'a#5_0' in new")),
    ("x#+5", "<nil/>", ("SchemaError", "bad name reference 'x#+5' in free")),
    # the display is all before the last '#', and may be empty
    ("#5", '<out subject="5"/>', '<process free="#5">\n<out subject="5"/>'),
    ("a#b#5", '<out subject="5"/>',
     '<process free="a#b#5">\n<out subject="5"/>'),
    # leading zeros: the use writes the declaration's text, the writer the id
    ("", '<out new="a#007" subject="007"/>', '<out new="a#7" subject="7"/>'),
], ids=["new-07-and-7", "free-07-and-7", "arabic-indic-digit", "4301-digits",
        "plus-sign", "underscore", "free-plus-sign", "empty-display",
        "display-with-hash", "leading-zeros"])
def test_declaration_edge_cases_read_as_the_reference_reads_them(
        free, process, expected):
    doc = _process_document(process, free)
    got = _read(from_xml, doc)
    assert got == _read(ref.from_xml, doc)
    if type(expected) is tuple:
        assert got == expected
    else:
        assert expected in got


# the XIR vocabulary: elements, attributes in any order, and values from a
# small pool of ids, with leading zeros, and kind:value texts.  Each choice
# takes what a sound tree would (the tag's own attributes and child count,
# fresh binders, names in scope) or, in a faulty tree, now and then
# something else: an unknown tag or attribute set, a bad child count, a
# binder id taken before, a name undeclared or out of its new's scope, a
# literal where a name goes, a bad value.  So sound trees load, and faulty
# ones fail at any element, or load too.
_TAGS = ["out", "out", "in", "in", "par", "par", "nil", "repeat", "fusion"]
_OWN_ATTRIBUTES = {"out": ["subject", "a0", "a1"], "in": ["subject", "a0"],
                   "fusion": ["left", "right"]}
_ATTRIBUTES = ["subject", "a0", "a1", "a2", "new", "left", "right", "bogus"]
_CHILD_COUNTS = {"par": ([2, 3], [1, 0]), "out": ([1, 1, 0], [2]),
                 "in": ([1, 1, 0], [2]), "repeat": ([1, 0], [2])}
_FREE = ["x#0", "y#2", "z#01", "w#007"]
_IDS = ["0", "1", "2", "3", "01", "007", "x#1", "", "-1"]
_LITERALS = ["int:5", "int:-1", "str:s", "bool:true", "unit:"]
_BAD_VALUES = ["int:x", "bool:maybe", "foo:1", "unit", "name"]
_BINDERS = ["a#1", "b#2", "c#01", "d#007", "e#10", "f#x", "g#-4", ""]


def _xir_element(rng, depth, faulty, scope, fresh):
    """One element and its subtree, drawn with rng.  scope holds the ids a
    sound choice may use, and fresh the next fresh binder id; a faulty
    tree makes each choice badly one time in twelve."""

    def pick(sound, faults):
        return rng.choice(faults if faulty and rng.random() < 1 / 12
                          else sound)

    tag = pick(_TAGS, ["widget", "process", "new"])
    keys = list(_OWN_ATTRIBUTES.get(tag, ()))
    rng.shuffle(keys)
    if faulty and rng.random() < 1 / 12:
        keys = rng.sample(_ATTRIBUTES, rng.randrange(4))
    values = {}
    if rng.random() < 1 / 3:
        keys.insert(rng.randrange(len(keys) + 1), "new")
        items = []
        for _ in range(rng.randint(1, 2)):
            items.append(pick([f"n#{fresh[0]}"], _BINDERS))
            if items[-1] == f"n#{fresh[0]}":  # its id is in scope inside
                scope = scope + [str(fresh[0])]
                fresh[0] += 1
        values["new"] = " ".join(items)
    # fresh binders out of scope: declared in a subtree already read
    closed = [str(i) for i in range(10, fresh[0]) if str(i) not in scope]
    names = [f"name:{i}" for i in scope]
    for key in keys:
        if key == "new":  # a faulty attribute list's own
            values.setdefault(key, rng.choice(_BINDERS))
        elif key == "subject":
            values[key] = pick(scope, closed * 4 + _IDS)
        else:
            values[key] = pick(names if tag == "in" else names + _LITERALS,
                               _LITERALS * 2 + _BAD_VALUES
                               + [f"name:{i}" for i in closed * 4])
    attrs = "".join(f' {key}="{values[key]}"' for key in keys)
    sound, faults = _CHILD_COUNTS.get(tag, ([0], [1]))
    children = [_xir_element(rng, depth - 1, faulty, scope, fresh)
                if depth > 1 else "<nil/>"  # the deepest level's leaves
                for _ in range(pick(sound, faults))]
    return f"<{tag}{attrs}>" + "".join(children) + f"</{tag}>"


def _xir_document(seed):
    rng = random.Random(seed)
    faulty = rng.random() < 0.75
    free = rng.sample(_FREE, rng.randint(2, 4)) if faulty else _FREE
    process = _xir_element(rng, rng.randint(1, 4), faulty,
                           [i.split("#")[1] for i in free], [10])
    return _process_document(process, " ".join(free))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_reader_matches_reference_on_random_vocabulary_trees(seed):
    # shapes the compiler never writes: an in with literal arguments and a
    # child, a new on a nested par, attributes out of order
    doc = _xir_document(seed)
    assert _read(from_xml, doc) == _read(ref.from_xml, doc), doc


def test_new_list_item_with_an_extern_channel_id_gets_the_reference_error():
    # Ret2 is channel id 3 of the Account extern
    doc = to_xml(desugar(parse_program(ACCOUNT_EXTERN + "Ret2?(v).nil")))
    mutant = doc.replace(' new="v#', ' new="r#3 v#')
    assert mutant != doc
    assert _read(from_xml, mutant) == _read(ref.from_xml, mutant) == (
        "SchemaError", "binder id 3 of new r#3 is an extern channel id")


@pytest.mark.parametrize("shape", [new_list, new_over_par],
                         ids=lambda s: s.__name__)
def test_restriction_shape_at_100000_takes_under_20_s(shape, tmp_path):
    # one 100,000-item new list, and one new over a 100,000-wide |: a walk
    # that rescans the list or the spine per item takes hours here
    got = run_shape(shape, 100_000, tmp_path)
    assert tuple(code for _, code, _ in got) == SHAPES[shape]
    assert all(seconds < 20 for _, _, seconds in got), got


def test_free_list_shape_at_100000_takes_under_20_s(tmp_path):
    # 100,000 free names: one free list, each item declared once
    got = run_shape(free_names, 100_000, tmp_path)
    assert tuple(code for _, code, _ in got) == SHAPES[free_names]
    assert all(seconds < 20 for _, _, seconds in got), got


# ---------------------------------------------------------------------------
# XIR v5: each name declared once; what version 4 let through


@pytest.mark.parametrize("doc,message", [
    # one id for a method's call and return channel: the VM would take the
    # call's return for a new call
    (_counter_document().replace('ret="IncRet#1"', 'ret="inc#0"'),
     "name id 0 of ret inc#0 is already declared"),
    # two blocks whose call channels share id 0: the VM sent every call on
    # it to the first block
    (_two_counters_document(), "name id 0 of call incL#0 is already declared"),
    # one id with two displays: the trace printed whichever one the fusion
    # environment saw first
    (_process_document("<par><out subject='3'/><in subject='3'/></par>",
                       "a#3 b#3"),
     "name id 3 of free b#3 is already declared"),
    (_process_document("<out subject='3'/>", "a#4"),
     "undeclared name '3' in out"),
    (_process_document("<nil/>", "a#3 a#3"),
     "name id 3 of free a#3 is already declared"),
    (_process_document('<out new="b#3" subject="3"/>', "a#3"),
     "binder id 3 of new b#3 is a free name"),
    (_counter_document().replace('new="a#', 'new="a#0 a#'),
     "binder id 0 of new a#0 is an extern channel id"),
    (_process_document("<nil/>", "x#0").replace("<externs/>", (
        '<externs><extern alias="K" class="Counter"><method name="inc" '
        'call="inc#0" params="" ret="IncRet#1" result="int"/></extern>'
        "</externs>")),
     "name id 0 of free x#0 is already declared"),
], ids=["call-and-ret-share-an-id", "two-blocks-share-a-call-id",
        "one-id-two-displays", "undeclared-use", "free-listed-twice",
        "binder-is-free", "binder-is-extern-channel", "free-is-extern-channel"])
def test_run_of_a_name_declared_twice_or_never_exits_2(doc, message, tmp_path,
                                                       capsys):
    assert _read(ref.from_xml, doc) == ("SchemaError", message)
    path = tmp_path / "bad.xir.xml"
    path.write_text(doc, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: E-SCHEMA {message}\n")


def test_two_counters_document_loads_with_distinct_call_ids():
    # the second block of _two_counters_document is sound with its own ids,
    # and the reference reads it as the same program
    doc = _two_counters_document(call="incL#3")
    assert [d.alias for d in from_xml(doc).externs] == ["K", "L"]
    assert _read(from_xml, doc) == _read(ref.from_xml, doc)
