"""Tests for the XML execution format: round trips, determinism, schema."""

import random
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (NOT_XML_CHARS, ExternDecl, Fusion, In, IntLit,
                         MethodDecl, Name, New, Nil, Out, Par, Program, Repeat,
                         StrLit, SurfaceFormError, nodes)
from pichan.diag import ParseError
from pichan.parser import desugar, parse_program
from pichan.xir import (SchemaError, VersionError, XIR_VERSION, _quoted,
                        from_xml, to_xml)

from golden_traces import SAMPLES, echo_source, host_source
from randgen import gen_program
from terms import free_names, same_program, validate
from test_parser import ACCOUNT_EXTERN


def test_nil_document_structure():
    text = to_xml(Program((), Nil()))
    assert f'<pic version="{XIR_VERSION}">' in text
    assert "<externs/>" in text
    assert "<nil/>" in text
    assert same_program(from_xml(text), Program((), Nil()))


def test_account_document_structure():
    program = desugar(parse_program(ACCOUNT_EXTERN + "read!() | Ret2?(v).nil"))
    text = to_xml(program)
    assert '<extern alias="FClass" class="Account">' in text
    assert text.count("<method") == 2
    assert same_program(from_xml(text), program)


def test_round_trip_exact_including_ids():
    program = desugar(parse_program("new a in a!(1, \"s\", true, unit).a?<b>"))
    assert same_program(from_xml(to_xml(program)), program)


@pytest.mark.parametrize("text", [
    "plain", "it's", 'a"b', "'\"both", "a&b", "<c>", "tab\there", "new\nline",
    "cr\rx", "caf\u00e9", ""])
def test_attribute_values_are_written_as_quoteattr_writes_them(text):
    doc = to_xml(Program((), Out(Name(0, "x"), (StrLit(text),), Nil())))
    assert (f'<out subject="0" a0={quoteattr("str:" + text)}/>'
            in doc.splitlines())
    assert from_xml(doc).main.objects == (StrLit(text),)


@given(st.text(st.sampled_from(list("a&<>\"'\n\r\t\u00e9"))))
@settings(max_examples=500, deadline=None)
def test_quoted_is_quoteattr(text):
    assert _quoted(text) == quoteattr(text)


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.pi")),
                         ids=lambda path: path.name)
def test_round_trip_exact_on_the_samples(sample):
    program = desugar(parse_program(sample.read_text(), sample.name))
    back = from_xml(to_xml(program))
    assert same_program(back, program)
    # the document holds no spans, and equality does not look at them
    assert back.main.span is None and program.main.span is not None


def test_determinism_byte_identical():
    program = desugar(parse_program(ACCOUNT_EXTERN + "read!()"))
    assert to_xml(program) == to_xml(program)


def test_free_name_accepted():
    # a subject that is never bound and not extern is fine: it is free
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process free="x#3">'
           '<out subject="3"/>'
           '</process></pic>')
    program = from_xml(doc)
    assert same_program(program.main, Out(Name(3, "x"), (), Nil()))


def test_version_error():
    doc = '<pic version="1"><externs/><process><nil/></process></pic>'
    with pytest.raises(VersionError):
        from_xml(doc)
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-VERSION"


def test_par_arity_diagnostic():
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process>'
           '<par><nil/></par></process></pic>')
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-SCHEMA"
    assert "par" in diags[0].message


def test_unknown_element_rejected():
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process>'
           '<widget/></process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)


def test_unknown_attribute_rejected():
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process>'
           '<nil bogus="1"/></process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)


def test_malformed_xml_reported():
    assert validate("<pic version=")[0].code == "E-SCHEMA"


def test_surface_form_rejected():
    program = parse_program("x?(v).nil")  # binding input, not desugared
    with pytest.raises(SurfaceFormError):
        to_xml(program)


def test_in_argument_must_be_name():
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process free="x#0">'
           '<in subject="0" a0="int:3"/></process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)


def _mutations(text):
    """Drop or rename one element occurrence at a time."""
    out = []
    for m in re.finditer(r"<(\w+)", text):
        tag = m.group(1)
        if tag == "pic":
            continue
        out.append(text[:m.start() + 1] + "zz" + text[m.start() + 1:])
    # also drop whole self-closing elements (an action's one child is
    # optional, so dropping it would give a different but valid program;
    # this document has none); an extern may have any number of methods,
    # so a <method/> is kept
    for m in re.finditer(r"<(\w+)[^<>]*/>", text):
        if m.group(1) != "method":
            out.append(text[:m.start()] + text[m.end():])
    return out


def test_mutation_always_diagnosed():
    program = desugar(parse_program(
        ACCOUNT_EXTERN + "read!() | Ret2?(v).(v=1 | repeat nil)"))
    text = to_xml(program).replace("\n", "").replace("  ", "")
    assert validate(text) == []
    for mutant in _mutations(text):
        assert validate(mutant), f"mutation not caught: {mutant[:120]}"


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_round_trip_random_programs(seed):
    program = desugar(gen_program(random.Random(seed)))
    text = to_xml(program)
    assert same_program(from_xml(text), program)
    assert to_xml(from_xml(text)) == text
    # every New is one item of a new list, and none is an element
    assert "<new" not in text
    lists = re.findall(r'<\w+ new="([^"]*)"', text)
    assert (sum(len(items.split()) for items in lists)
            == sum(type(n) is New for n in nodes(program.main)))
    # every use is a bare id, and each free name is declared once
    uses = _USE.findall(text)
    assert all(use.isdecimal() for use in uses)
    free = re.findall(r'<process free="([^"]*)">', text)
    assert [len(items.split()) for items in free] == (
        [len(free_names(program.main) - {n for d in program.externs
                                          for n in d.channels()})] if free
        else [])


# the value of every attribute that uses a name: an action's subject or
# argument, or a fusion side
_USE = re.compile(r' (?:subject|a\d+|left|right)="(?:name:)?([^":]*)"')


def _declarations(program):
    """The extern channels and binders of program."""
    return ([n for d in program.externs for n in d.channels()]
            + [p.name for p in nodes(program.main) if type(p) is New])


def _each_declared_once(program, text):
    """Each extern channel and binder is written once, as display#id, and
    its id is written with a '#' there alone; no use holds a '#'."""
    for n in _declarations(program):
        assert text.count(f"{n.display}#{n.id}") == 1, n
        assert len(re.findall(rf"#{n.id}[\s\"]", text)) == 1, n
    assert not [use for use in _USE.findall(text) if "#" in use]


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.pi")),
                         ids=lambda path: path.name)
def test_compiled_sample_declares_each_name_once(sample):
    program = desugar(parse_program(sample.read_text(), sample.name))
    _each_declared_once(program, to_xml(program))


def test_host_workers_declare_each_channel_once():
    # the vm-host shape: many workers call the same few extern methods, and
    # each call site writes the channel's id alone
    program = desugar(parse_program(host_source(40)))
    text = to_xml(program)
    _each_declared_once(program, text)
    assert len(_declarations(program)) > 40 and "<process>" in text
    assert text.count(' subject="0"') == 14  # inc0!() by 14 of 40 workers


def test_free_names_are_one_list_on_process_in_id_order():
    x, y, z = Name(7, "x"), Name(2, "y"), Name(4, "z")
    program = Program((), Par(Out(x, (y,), Nil()),
                              In(z, (x,), False, Nil())))
    text = to_xml(program)
    assert text.splitlines()[2] == '<process free="y#2 z#4 x#7">'
    assert '<out subject="7" a0="name:2"/>' in text
    assert same_program(from_xml(text), program)


@pytest.mark.parametrize("program,error", [
    (Program((), Par(Out(Name(3, "a"), (), Nil()), Out(Name(3, "b"), (),
                                                        Nil()))),
     "name id 3 has two displays, 'a' and 'b'"),
    (Program((), New(Name(3, "a"), Out(Name(3, "b"), (), Nil()))),
     "name id 3 has two displays, 'a' and 'b'"),
    (Program((ExternDecl("K", "Counter", (MethodDecl(
        "inc", Name(0, "inc"), (), Name(0, "inc"), ()),)),), Nil()),
     "extern channel id 0 is declared twice"),
    (Program((), Out(Name(0, "a b"), (), Nil())),
     "free name display 'a b' holds white space"),
    (Program((), Out(Name(0, "x"), (StrLit("a\x01b"),), Nil())),
     "'str:a\\x01b' holds '\\x01', which XML 1.0 cannot carry"),
    (Program((), Fusion(Name(0, "x"), StrLit("\ufffe"))),
     "'str:\\ufffe' holds '\\ufffe', which XML 1.0 cannot carry"),
], ids=["two-displays", "binder-two-displays", "channel-twice",
        "free-white-space", "control-character", "non-character"])
def test_program_xir_cannot_carry_faithfully_is_value_error(program, error):
    with pytest.raises(ValueError) as caught:
        to_xml(program)
    assert str(caught.value) == error


# strings as the tokenizer may read them: raw control characters, escapes
# and characters past the BMP among them
_SOURCE_STRINGS = st.text(
    st.sampled_from(list("a\t\n\r\ufffd\U0001f600\x01\x1f\ufffe\uffff\\\"&<"))
    | st.characters(), max_size=10)


@given(_SOURCE_STRINGS)
@settings(max_examples=400, deadline=None)
def test_every_string_the_tokenizer_accepts_round_trips(text):
    literal = '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    try:
        program = desugar(parse_program(f"x!({literal}) | x?(v).nil"))
    except ParseError as exc:
        assert "which XML 1.0 cannot carry" in exc.diagnostics[0].message
        assert re.search(f"[{NOT_XML_CHARS}]", text)
        return
    (value,) = program.main.left.objects
    assert from_xml(to_xml(program)).main.left.objects == (value,)


# ---------------------------------------------------------------------------
# new lists: a chain of restrictions is an attribute of the node it scopes


def test_a_chain_of_news_is_one_list_on_the_element_it_scopes():
    a, b, x, y = Name(0, "a"), Name(1, "b"), Name(2, "x"), Name(3, "y")
    out = Out(x, (), Nil())
    for body, line in [
            (Nil(), '<nil new="a#0 b#1"/>'),
            (out, '<out new="a#0 b#1" subject="2"/>'),
            (In(x, (a,), False, out),
             '<in new="a#0 b#1" subject="2" a0="name:0">'),
            (Repeat(out), '<repeat new="a#0 b#1">'),
            (Par(out, Par(out, New(y, Par(out, out)))), '<par new="a#0 b#1">'),
            (Fusion(a, b),
             '<fusion new="a#0 b#1" left="name:0" right="name:1"/>')]:
        program = Program((), New(a, New(b, body)))
        text = to_xml(program)
        assert text.splitlines()[3] == line
        assert same_program(from_xml(text), program)
        assert to_xml(from_xml(text)) == text
    # a new on a par's spine ends it: the par it scopes is a child
    text = to_xml(Program((), New(a, Par(out, Par(out, New(b, Par(out,
                                                                 out)))))))
    assert _par_children(text) == [3, 2]
    assert '<par new="a#0">' in text and '<par new="b#1">' in text


@pytest.mark.parametrize("display", ["a b", "a\tb", "\n", "a\u00a0"])
def test_binder_display_with_white_space_is_refused(display):
    with pytest.raises(ValueError, match="holds white space"):
        to_xml(Program((), New(Name(0, display), Nil())))


def test_new_list_takes_any_white_space_between_binders():
    doc = _process_doc('<nil new=" a#0\n\tb#1  "/>')
    program = from_xml(doc)
    assert same_program(program, Program((), New(Name(0, "a"),
                                                 New(Name(1, "b"), Nil()))))


# ---------------------------------------------------------------------------
# n-ary par: one element per right spine of a | chain


def _par_children(text):
    """Child counts of the par elements, in document order."""
    root = ET.fromstring(text)
    return [len(e) for e in root.iter("par")]


@pytest.mark.parametrize("src,children", [
    ("a!() | b!() | c!()", [3]),
    ("(a!() | b!()) | c!()", [2, 2]),
    ("a!() | (b!() | c!()) | d!()", [3, 2]),
    ("new z in (a!() | z!() | c!())", [3]),
    ("repeat (a!() | b!() | c!())", [3]),
    ("x?<>.(a!() | b!() | c!()) | y!()", [2, 3]),
    ("x?(v).(v!() | b!() | c!())", [3]),
])
def test_par_chain_round_trip_exact(src, children):
    program = desugar(parse_program(src))
    text = to_xml(program)
    assert _par_children(text) == children
    assert same_program(from_xml(text), program)
    assert to_xml(from_xml(text)) == text


def _out(subject):
    return f'<out subject="{subject}"/>'


def test_binary_par_document_loads_to_the_same_program():
    # the form earlier writers produced: every par has exactly two
    # children and a chain nests to the right
    binary = (f'<pic version="{XIR_VERSION}"><externs/>'
              '<process free="a#0 b#1 c#2 d#3"><par>'
              + _out("0") + "<par>" + _out("1") + "<par>" + _out("2")
              + _out("3") + "</par></par></par></process></pic>")
    program = desugar(parse_program("a!() | b!() | c!() | d!()"))
    assert same_program(from_xml(binary), program)
    assert _par_children(to_xml(from_xml(binary))) == [4]


@pytest.mark.parametrize("children", ["", "<nil/>"])
def test_par_needs_two_children(children):
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process><par>'
           f'{children}</par></process></pic>')
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-SCHEMA"
    # a short par at the end of a spine is caught too
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process free="a#0"><par>'
           f'{_out("0")}<par>{children}</par></par></process></pic>')
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_names_shared_within_a_document():
    program = from_xml(f'<pic version="{XIR_VERSION}"><externs/>'
                       '<process free="a#0"><par>'
                       + _out("0") + _out("0") + "</par></process></pic>")
    assert program.main.left.subject is program.main.right.subject
    # every use of a declared id is the declared Name itself: a subject, an
    # <out> or <in> argument and a fusion side alike
    program = from_xml(f'<pic version="{XIR_VERSION}"><externs/>'
                       '<process free="a#0"><par new="b#1">' + _out("0")
                       + '<out subject="1" a0="name:0" a1="int:2" '
                       'a2="name:1"/>'
                       '<in subject="0" a0="name:1" a1="name:0"/>'
                       '<fusion left="name:1" right="name:0"/>'
                       '</par></process></pic>')
    b = program.main.name
    first, rest = program.main.body.left, program.main.body.right
    out, inp, fus = rest.left, rest.right.left, rest.right.right
    a = first.subject
    uses = [out.subject, out.objects[0], out.objects[2], inp.subject,
            *inp.objects, fus.left, fus.right]
    declared = {id(a): "a", id(b): "b"}
    assert [declared.get(id(u)) for u in uses] == ["b", "a", "b", "a",
                                                   "b", "a", "b", "a"]


def test_bytes_grow_linearly_in_echo_clients():
    sizes = [len(to_xml(desugar(parse_program(echo_source(n)))))
             for n in (40, 80)]
    assert sizes[1] / sizes[0] <= 2.2


# ---------------------------------------------------------------------------
# numbers the reader must reject as schema errors


@pytest.mark.parametrize("name", ["x#--5", "x#²", "x#+5", "x# 5", "x#",
                                  "x#-5", "x#-0"])
def test_bad_name_id_is_schema_error(name):
    doc = (f'<pic version="{XIR_VERSION}"><externs/><process free="{name}">'
           '<nil/></process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_negative_and_decimal_name_ids_accepted():
    # a negative int literal loads, and so does a name id in any decimal
    # digits; only a name id may not be negative (run-time names are)
    doc = (f'<pic version="{XIR_VERSION}"><externs/>'
           '<process free="x#0 y#١٢"><par>'
           '<out subject="0" a0="int:-5"/>' + _out("١٢")
           + "</par></process></pic>")
    main = from_xml(doc).main
    assert main.left.objects == (IntLit(-5),) and main.right.subject.id == 12


def _account_document():
    return to_xml(desugar(parse_program(ACCOUNT_EXTERN + "read!()")))


_READ = '<method name="read" call="read#2" params="" ret="Ret2#3" result="int"/>'


@pytest.mark.parametrize("old,new,error", [
    ("/>", "><nil/></method>", "method takes no children"),
    (' params=""', "", "expected attributes"),
    ("/>", ' states="2"/>', "expected attributes"),
    ('result="int"', 'result="float"', "unknown sort 'float' in ret"),
    ('ret="Ret2#3"', 'ret="Ret2"', "bad name reference 'Ret2' in ret"),
    ('result="int"', 'result="int,int"',
     "method read: result 'int,int' holds more than one sort"),
    ('params=""', 'params="void"', "unknown sort 'void' in call"),
    ('result="int"', 'result="void"', "unknown sort 'void' in ret"),
], ids=["child", "missing-attribute", "unknown-attribute", "bad-sort",
        "bad-channel-name", "two-result-sorts", "void-params", "void-result"])
def test_bad_method_element_is_e_schema(old, new, error):
    doc = _account_document()
    assert doc.count(_READ) == 1
    doc = doc.replace(_READ, _READ.replace(old, new))
    with pytest.raises(SchemaError, match=re.escape(error)):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_duplicate_extern_alias_is_schema_error():
    decl = parse_program(ACCOUNT_EXTERN + "nil").externs[0]
    other = ExternDecl("Other", decl.class_name, tuple(
        MethodDecl(m.name, Name(m.call_channel.id + 10, m.call_channel.display),
                   m.param_sorts, Name(m.return_channel.id + 10,
                                       m.return_channel.display),
                   m.return_payload) for m in decl.methods), decl.span)
    doc = to_xml(Program((decl, other), Nil()))
    assert [d.alias for d in from_xml(doc).externs] == ["FClass", "Other"]
    doc = doc.replace('alias="Other"', 'alias="FClass"')
    with pytest.raises(SchemaError, match="extern alias FClass declared twice"):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_duplicate_extern_method_is_schema_error():
    decl = parse_program(ACCOUNT_EXTERN + "nil").externs[0]
    doc = to_xml(Program((decl,), Nil()))
    assert [m.name for m in from_xml(doc).externs[0].methods] == ["readn",
                                                                  "read"]
    doc = doc.replace('<method name="readn" ', '<method name="read" ')
    with pytest.raises(SchemaError, match="extern method read declared twice"):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


# ---------------------------------------------------------------------------
# one element per action, and one per method


def _process_doc(process, free=""):
    free = f' free="{free}"' if free else ""
    return (f'<pic version="{XIR_VERSION}"><externs/><process{free}>{process}'
            '</process></pic>')


@pytest.mark.parametrize("element,message", [
    ('<out subject="0" a1="int:1"/>',
     "out: expected attributes ['a0', 'subject'], found ['a1', 'subject']"),
    ('<out subject="0" a0="int:1" a2="int:2"/>',
     "out: expected attributes ['a0', 'a1', 'subject'], "
     "found ['a0', 'a2', 'subject']"),
    ('<in subject="0" a0="name:1" bogus="1"/>',
     "in: expected attributes ['a0', 'a1', 'subject'], "
     "found ['a0', 'bogus', 'subject']"),
    ('<out a0="int:1"/>', "out: expected attributes ['subject'], found ['a0']"),
    ("<in/>", "in: expected attributes ['subject'], found []"),
    # the new list is read first and is no attribute of the element
    ('<nil new="a#0" a0="int:1"/>',
     "nil: expected attributes [], found ['a0']"),
    ('<nil new=""/>', "new lists no binder"),
    ('<repeat a0="int:1"/>', "repeat: expected attributes [], found ['a0']"),
], ids=["a1-without-a0", "a2-without-a1", "unknown", "no-subject",
        "no-attributes", "new", "new-no-name", "repeat"])
def test_bad_action_attributes_are_e_schema(element, message):
    # a missing or extra attribute, whichever getter the walk used
    doc = _process_doc(element)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]
    with pytest.raises(SchemaError) as caught:
        from_xml(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize("start,tag", [('out subject="0"', "out"),
                                       ('in subject="0"', "in"),
                                       ('out new="a#2" subject="2"', "out"),
                                       ("repeat", "repeat")])
def test_action_with_two_children_is_e_schema(start, tag):
    child = '<out subject="1"/>'
    doc = _process_doc(f"<{start}>{child}{child}</{tag}>", "x#0 y#1")
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]
    with pytest.raises(SchemaError, match=f"^{tag} takes at most 1 child$"):
        from_xml(doc)
    # one child, or none for nil, is the action's continuation
    assert validate(_process_doc(f"<{start}>{child}</{tag}>", "x#0 y#1")) == []
    assert validate(_process_doc(f"<{start}/>", "x#0 y#1")) == []


_AWKWARD = st.text(st.sampled_from(list(':#"&<>\n\r\t\' a\u00e9'))
                   | st.characters(blacklist_categories=("Cs", "Cc")),
                   max_size=12)


@given(st.lists(_AWKWARD, max_size=4), _AWKWARD)
@settings(max_examples=300, deadline=None)
def test_string_literals_round_trip(texts, fused):
    # each string is one attribute value, which XML quoting covers
    x = Name(0, "x")
    program = Program((), Out(x, tuple(map(StrLit, texts)),
                              Fusion(x, StrLit(fused))))
    text = to_xml(program)
    assert same_program(from_xml(text), program)
    assert to_xml(from_xml(text)) == text


def _nil_and_wrappers(text):
    """Tags of the elements that earlier versions wrote (<cont>, <arg>,
    <call>, <ret>, <protocol>, <t>), and the parent tag of every <nil/>
    with no new list, in the document."""
    root = ET.fromstring(text)
    wrappers = [e.tag for e in root.iter()
                if e.tag in ("cont", "arg", "call", "ret", "protocol", "t")]
    nil_parents = [parent.tag for parent in root.iter() for child in parent
                   if child.tag == "nil" and "new" not in child.attrib]
    return wrappers, nil_parents


def _self_closing_methods(text, program):
    """The number of <method> lines, after checking that there is one per
    declared method and that each is one self-closing element."""
    lines = [line for line in text.splitlines() if line.startswith("<method")]
    assert len(lines) == sum(len(d.methods) for d in program.externs)
    assert all(line.endswith("/>") for line in lines)
    return len(lines)


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.pi")),
                         ids=lambda path: path.name)
def test_compiled_samples_have_one_element_per_action(sample):
    program = desugar(parse_program(sample.read_text(), sample.name))
    text = to_xml(program)
    wrappers, nil_parents = _nil_and_wrappers(text)
    assert wrappers == [] and set(nil_parents) <= {"par", "process"}
    _self_closing_methods(text, program)


def test_compiled_random_programs_have_one_element_per_action():
    nil_parents = set()
    methods = 0
    for seed in range(150):
        program = desugar(gen_program(random.Random(seed)))
        text = to_xml(program)
        wrappers, parents = _nil_and_wrappers(text)
        assert wrappers == []
        nil_parents.update(parents)
        methods += _self_closing_methods(text, program)
    assert nil_parents == {"par", "process"} and methods > 0


# ---------------------------------------------------------------------------
# the reader's one walk: attributes by key, and the scan it records


def test_action_attributes_load_in_any_order():
    canonical = _process_doc('<out subject="0" a0="int:1" a1="name:0"/>',
                             "c#0")
    for element in ('<out a0="int:1" a1="name:0" subject="0"/>',
                    '<out a1="name:0" subject="0" a0="int:1"/>'):
        assert same_program(from_xml(_process_doc(element, "c#0")),
                            from_xml(canonical))
    assert same_program(
        from_xml(_process_doc('<in a0="name:1" subject="0"/>', "c#0 v#1")),
        from_xml(_process_doc('<in subject="0" a0="name:1"/>', "c#0 v#1")))
