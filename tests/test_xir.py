"""Tests for the XML execution format: round trips, determinism, schema."""

import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (Name, NameRef, New, Nil, Out, SurfaceFormError)
from pichan.parser import Program, desugar, parse_program
from pichan.xir import (SchemaError, VersionError, XIR_VERSION, from_xml,
                        to_xml, validate)

from golden_traces import echo_source
from randgen import gen_program
from test_parser import ACCOUNT_EXTERN


def test_nil_document_structure():
    text = to_xml(Program((), Nil()))
    assert f'<pic version="{XIR_VERSION}">' in text
    assert "<externs/>" in text
    assert "<nil/>" in text
    assert from_xml(text) == Program((), Nil())


def test_account_document_structure():
    program = desugar(parse_program(ACCOUNT_EXTERN + "read!() | Ret2?(v).nil"))
    text = to_xml(program)
    assert '<extern alias="FClass" class="Account">' in text
    assert text.count("<method") == 2
    assert from_xml(text) == program


def test_round_trip_exact_including_ids():
    program = desugar(parse_program("new a in a!(1, \"s\", true, unit).a?<b>"))
    assert from_xml(to_xml(program)) == program


def test_determinism_byte_identical():
    program = desugar(parse_program(ACCOUNT_EXTERN + "read!()"))
    assert to_xml(program) == to_xml(program)


def test_free_name_accepted():
    # a subject that is never bound and not extern is fine: it is free
    doc = ('<pic version="1"><externs/><process>'
           '<out subject="x#3"><cont><nil/></cont></out>'
           '</process></pic>')
    program = from_xml(doc)
    assert program.main == Out(Name(3, "x"), (), Nil())


def test_version_error():
    doc = '<pic version="2"><externs/><process><nil/></process></pic>'
    with pytest.raises(VersionError):
        from_xml(doc)
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-VERSION"


def test_par_arity_diagnostic():
    doc = ('<pic version="1"><externs/><process>'
           '<par><nil/></par></process></pic>')
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-SCHEMA"
    assert "par" in diags[0].message


def test_unknown_element_rejected():
    doc = ('<pic version="1"><externs/><process>'
           '<widget/></process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)


def test_unknown_attribute_rejected():
    doc = ('<pic version="1"><externs/><process>'
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
    doc = ('<pic version="1"><externs/><process>'
           '<in subject="x#0"><arg kind="int" value="3"/>'
           '<cont><nil/></cont></in></process></pic>')
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
    # also drop whole self-closing elements; arg lists are variable-length
    # by design, so dropping an arg yields a different but valid program
    for m in re.finditer(r"<(\w+)[^<>]*/>", text):
        if m.group(1) != "arg":
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
    assert from_xml(text) == program
    assert to_xml(from_xml(text)) == text


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
    assert from_xml(text) == program
    assert to_xml(from_xml(text)) == text


def _out(subject):
    return f'<out subject="{subject}"><cont><nil/></cont></out>'


def test_binary_par_document_loads_to_the_same_program():
    # the form earlier writers produced: every par has exactly two
    # children and a chain nests to the right
    binary = ('<pic version="1"><externs/><process><par>'
              + _out("a#0") + "<par>" + _out("b#1") + "<par>" + _out("c#2")
              + _out("d#3") + "</par></par></par></process></pic>")
    program = desugar(parse_program("a!() | b!() | c!() | d!()"))
    assert from_xml(binary) == program
    assert _par_children(to_xml(from_xml(binary))) == [4]


@pytest.mark.parametrize("children", ["", "<nil/>"])
def test_par_needs_two_children(children):
    doc = (f'<pic version="1"><externs/><process><par>{children}</par>'
           '</process></pic>')
    diags = validate(doc)
    assert len(diags) == 1 and diags[0].code == "E-SCHEMA"
    # a short par at the end of a spine is caught too
    doc = (f'<pic version="1"><externs/><process><par>{_out("a#0")}'
           f'<par>{children}</par></par></process></pic>')
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_names_shared_within_a_document():
    program = from_xml('<pic version="1"><externs/><process><par>'
                       + _out("a#0") + _out("a#0") + "</par></process></pic>")
    assert program.main.left.subject is program.main.right.subject


def test_bytes_grow_linearly_in_echo_clients():
    sizes = [len(to_xml(desugar(parse_program(echo_source(n)))))
             for n in (40, 80)]
    assert sizes[1] / sizes[0] <= 2.2


# ---------------------------------------------------------------------------
# numbers the reader must reject as schema errors


@pytest.mark.parametrize("name", ["x#--5", "x#²", "x#+5", "x# 5", "x#"])
def test_bad_name_id_is_schema_error(name):
    doc = (f'<pic version="1"><externs/><process>{_out(name)}'
           '</process></pic>')
    with pytest.raises(SchemaError):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]


def test_negative_and_decimal_name_ids_accepted():
    doc = ('<pic version="1"><externs/><process><par>' + _out("x#-5")
           + _out("y#١٢") + "</par></process></pic>")
    main = from_xml(doc).main
    assert (main.left.subject.id, main.right.subject.id) == (-5, 12)


def _account_document():
    return to_xml(desugar(parse_program(ACCOUNT_EXTERN + "read!()")))


@pytest.mark.parametrize("old,new", [
    ('states="2"', 'states="²"'),
    ('from="0"', 'from="²"'),
    ('to="1"', 'to="²"'),
])
def test_bad_protocol_number_is_schema_error(old, new):
    doc = _account_document().replace(old, new, 1)
    assert doc != _account_document()
    with pytest.raises(SchemaError):
        from_xml(doc)
    assert [d.code for d in validate(doc)] == ["E-SCHEMA"]
