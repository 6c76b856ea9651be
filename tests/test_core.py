"""Tests for names, substitution, fusion environments and congruence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (BOOL, HOST_LITERALS, INT, STR, UNIT, BoolLit, Fusion,
                         FusionClash, FusionEnv, In, IntLit, Name, NameSupply,
                         New, Nil, Out, Par, Repeat, StrLit, SurfaceFormError,
                         UnitLit, process_size)

from congruence import canonical_key, congruent
from randgen import gen_process
from substitution import substitute
from terms import free_names, name_scan, par_all, same_program


def _names(*displays):
    supply = NameSupply()
    return [supply.fresh(d) for d in displays]


# ---------------------------------------------------------------------------
# free_names


def test_free_names_nil():
    assert free_names(Nil()) == set()


def test_free_names_new_binds():
    x, y = _names("x", "y")
    p = New(x, Out(x, (y,), Nil()))
    assert free_names(p) == {y}


def test_free_names_fusion_and_inner_binder():
    # Fusion(x, y) | new y' in y'!() over an *outer* y: the inner binder is a
    # different name object, so both x and the outer y stay free.
    supply = NameSupply()
    x = supply.fresh("x")
    y = supply.fresh("y")
    inner_y = supply.fresh("y")
    p = Par(Fusion(x, y),
            New(inner_y, Out(inner_y, (), Nil())))
    assert free_names(p) == {x, y}
    # independent oracle: directly recurse the binding structure
    assert _free_oracle(p) == {x, y}


def _free_oracle(p):
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Par):
        return _free_oracle(p.left) | _free_oracle(p.right)
    if isinstance(p, New):
        return _free_oracle(p.body) - {p.name}
    if isinstance(p, Out):
        refs = {v for v in p.objects if isinstance(v, Name)}
        return {p.subject} | refs | _free_oracle(p.cont)
    if isinstance(p, In):
        inner = _free_oracle(p.cont)
        if p.binding:
            return {p.subject} | (inner - set(p.objects))
        return {p.subject} | set(p.objects) | inner
    if isinstance(p, Repeat):
        return _free_oracle(p.body)
    refs = {v for v in (p.left, p.right) if isinstance(v, Name)}
    return refs


def test_free_names_binding_input():
    x, v = _names("x", "v")
    p = In(x, (v,), True, Out(v, (), Nil()))
    assert free_names(p) == {x}


# ---------------------------------------------------------------------------
# substitute


def test_substitute_subject_and_object():
    x, y = _names("x", "y")
    p = Out(x, (x,), Nil())
    q = substitute(p, x, y)
    assert same_program(q, Out(y, (y,), Nil()))


def test_substitute_shadowed_by_binder():
    x, y, z = _names("x", "y", "z")
    p = New(x, Out(x, (z,), Nil()))
    assert substitute(p, x, y) == p


def test_substitute_capture_avoided():
    # substituting y for x under a binder that *is* y must rename the binder
    x, y = _names("x", "y")
    p = New(y, Out(x, (y,), Nil()))
    q = substitute(p, x, y)
    assert isinstance(q, New)
    assert q.name != y
    assert q.body.subject == y
    assert q.body.objects == (q.name,)
    assert free_names(q) == {y}


def test_substitute_binding_input_parameter_shadow():
    x, y = _names("x", "y")
    supply = NameSupply(max(x.id, y.id) + 1)
    v = supply.fresh("v")
    p = In(x, (v,), True, Out(v, (x,), Nil()))
    q = substitute(p, x, y)
    assert q.subject == y
    assert q.cont.objects == (y,)


def _gen(seed, surface=False, max_nodes=14):
    rng = random.Random(seed)
    supply = NameSupply()
    scope = [supply.fresh(c) for c in "abc"]
    return gen_process(rng, supply, scope, [max_nodes], surface), scope


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_substitute_free_name_law(seed):
    p, scope = _gen(seed, surface=True)
    x, y = scope[0], scope[1]
    expected = free_names(p) - {x}
    if x in free_names(p):
        expected |= {y}
    assert free_names(substitute(p, x, y)) == expected


# ---------------------------------------------------------------------------
# FusionEnv


def test_fused_equal_after_merge():
    x, y = _names("x", "y")
    env = FusionEnv()
    env.merge(x, y)
    assert env.fused_equal(x, y)


def test_fused_equal_distinct_names_empty_env():
    x, y = _names("x", "y")
    env = FusionEnv()
    assert not env.fused_equal(x, y)


def test_fused_equal_transitive():
    x, y, z = _names("x", "y", "z")
    env = FusionEnv()
    env.merge(x, y)
    env.merge(y, z)
    assert env.fused_equal(x, z)


def test_merge_reflexive_noop():
    x = _names("x")[0]
    env = FusionEnv()
    env.merge(x, x)
    assert env.fused_equal(x, x)
    assert env.attached_literal(x) is None


def test_merge_literal_attachment_idempotent():
    x = _names("x")[0]
    env = FusionEnv()
    env.merge(x, IntLit(5))
    env.merge(x, IntLit(5))
    assert env.attached_literal(x) == IntLit(5)
    assert env.fused_equal(x, IntLit(5))


def test_merge_literal_clash():
    x = _names("x")[0]
    env = FusionEnv()
    env.merge(x, IntLit(5))
    with pytest.raises(FusionClash):
        env.merge(x, IntLit(6))


def test_merge_clash_through_classes():
    x, y = _names("x", "y")
    env = FusionEnv()
    env.merge(x, IntLit(5))
    env.merge(y, IntLit(6))
    with pytest.raises(FusionClash):
        env.merge(x, y)


def test_merge_literal_literal():
    env = FusionEnv()
    env.merge(StrLit("a"), StrLit("a"))
    with pytest.raises(FusionClash):
        env.merge(BoolLit(True), BoolLit(False))


def test_bool_and_int_literals_never_fuse():
    # bool is not int even where the host language thinks 1 == True
    x = _names("x")[0]
    env = FusionEnv()
    env.merge(x, IntLit(1))
    with pytest.raises(FusionClash):
        env.merge(x, BoolLit(True))


def test_literals_of_different_kinds_are_unequal():
    # Value equality compares within one class only
    assert IntLit(1) != BoolLit(True) and IntLit(0) != BoolLit(False)
    x = _names("x")[0]
    env = FusionEnv().merge(x, IntLit(1))
    assert env.fused_equal(x, IntLit(1))
    assert not env.fused_equal(x, BoolLit(True))
    assert not env.fused_equal(BoolLit(True), x)
    assert not env.fused_equal(IntLit(1), BoolLit(True))
    with pytest.raises(FusionClash):
        env.merge(IntLit(1), BoolLit(True))


# ---------------------------------------------------------------------------
# literals: sort, host value and the host-type table

LITERALS = [(IntLit(-7), INT, int, -7), (StrLit("s t"), STR, str, "s t"),
            (BoolLit(False), BOOL, bool, False), (UnitLit(), UNIT, type(None),
                                                  None)]


@pytest.mark.parametrize("literal,sort,host_type,value", LITERALS)
def test_literal_sort_and_value(literal, sort, host_type, value):
    assert literal.sort is sort and type(literal).sort is sort
    assert type(literal.value) is host_type and literal.value == value


@pytest.mark.parametrize("literal,sort,host_type,value", LITERALS)
def test_literal_round_trips_through_host_table(literal, sort, host_type,
                                                value):
    back = HOST_LITERALS[type(literal.value)](literal.value)
    assert type(back) is type(literal) and back == literal
    assert HOST_LITERALS[host_type] is type(literal)


def test_host_table_covers_every_literal_class_once():
    assert sorted(c.__name__ for c in HOST_LITERALS.values()) == [
        "BoolLit", "IntLit", "StrLit", "UnitLit"]


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_merge_order_independence(seed):
    rng = random.Random(seed)
    names = _names(*"abcdef")
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(6)]
    perm = list(pairs)
    rng.shuffle(perm)
    env1, env2 = FusionEnv(), FusionEnv()
    for a, b in pairs:
        env1.merge(a, b)
    for a, b in perm:
        env2.merge(a, b)
    for a in names:
        for b in names:
            assert env1.fused_equal(a, b) == env2.fused_equal(a, b)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_fused_equal_is_equivalence(seed):
    rng = random.Random(seed)
    names = _names(*"abcde")
    env = FusionEnv()
    for _ in range(5):
        env.merge(rng.choice(names), rng.choice(names))
    for a in names:
        assert env.fused_equal(a, a)
        for b in names:
            assert env.fused_equal(a, b) == env.fused_equal(b, a)
            for c in names:
                if env.fused_equal(a, b) and env.fused_equal(b, c):
                    assert env.fused_equal(a, c)




# ---------------------------------------------------------------------------
# congruence


def test_congruent_new_swap():
    x, y, z = _names("x", "y", "z")
    body1 = Par(Out(x, (), Nil()), Out(y, (z,), Nil()))
    body2 = Par(Out(x, (), Nil()), Out(y, (z,), Nil()))
    assert congruent(New(x, New(y, body1)), New(y, New(x, body2)))


def test_congruent_par_unit():
    x = _names("x")[0]
    p = Out(x, (), Nil())
    assert congruent(Par(p, Nil()), p)
    assert congruent(Par(Nil(), p), p)


def test_congruent_par_comm_assoc():
    x, y, z = _names("x", "y", "z")
    a, b, c = Out(x, (), Nil()), Out(y, (), Nil()), In(z, (), False, Nil())
    assert congruent(Par(a, Par(b, c)), Par(Par(c, b), a))


def test_congruent_new_nil():
    x = _names("x")[0]
    assert congruent(New(x, Nil()), Nil())


def test_congruent_unused_binder():
    x, y = _names("x", "y")
    p = Out(y, (), Nil())
    assert congruent(New(x, p), p)


def test_congruent_scope_extrusion():
    x, y, z = _names("x", "y", "z")
    left = Out(y, (), Nil())
    right = Out(x, (z,), Nil())
    assert congruent(New(x, Par(left, right)), Par(left, New(x, right)))


def test_congruent_fusion_symmetry_reflexivity():
    x, y = _names("x", "y")
    assert congruent(Fusion(x, y), Fusion(y, x))
    assert congruent(Fusion(x, x), Nil())


def test_congruent_fusion_elimination():
    # (new x)(x=y | x!()) == y!()
    x, y = _names("x", "y")
    p = New(x, Par(Fusion(x, y), Out(x, (), Nil())))
    assert congruent(p, Out(y, (), Nil()))


def test_congruent_repeat_not_unfolded():
    x = _names("x")[0]
    p = Repeat(Out(x, (), Nil()))
    assert not congruent(p, Par(Out(x, (), Nil()), p))


def test_congruent_alpha():
    supply = NameSupply()
    x1 = supply.fresh("x")
    x2 = supply.fresh("q")
    y = supply.fresh("y")
    p = New(x1, Out(x1, (y,), Nil()))
    q = New(x2, Out(x2, (y,), Nil()))
    assert congruent(p, q)


def test_congruent_distinguishes_subjects():
    x, y = _names("x", "y")
    assert not congruent(Out(x, (), Nil()), Out(y, (), Nil()))


def test_congruent_rejects_surface_form():
    x, v = _names("x", "v")
    with pytest.raises(SurfaceFormError):
        congruent(In(x, (v,), True, Nil()), Nil())


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_congruent_new_swap_generated(seed):
    p, scope = _gen(seed)
    supply = NameSupply(name_scan(p)[0] + 1)
    x = supply.fresh("x")
    y = supply.fresh("y")
    assert congruent(New(x, New(y, p)), New(y, New(x, p)))


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_congruent_reflexive_and_key_stable(seed):
    p, _ = _gen(seed)
    assert congruent(p, p)
    assert canonical_key(p) == canonical_key(p)


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_congruent_par_laws_generated(seed):
    p, scope = _gen(seed)
    q, _ = _gen(seed + 1)
    assert congruent(Par(p, q), Par(q, p))
    assert congruent(Par(p, Nil()), p)


def _shuffled_scopes(n, thread, seed):
    """Six terms new a0..a{n-1} in (thread(a, 0) | ... | thread(a, n-1)),
    each with the binders given ids, declared and their threads listed in a
    shuffled order."""
    rng = random.Random(seed)
    terms = []
    for _ in range(6):
        order = rng.sample(range(n), n)
        ids = dict(zip(order, _names(*(f"a{i}" for i in order))))
        a = [ids[i] for i in range(n)]
        threads = [thread(a, i) for i in range(n)]
        rng.shuffle(threads)
        p = par_all(threads)
        for b in rng.sample(a, n):
            p = New(b, p)
        terms.append(p)
    return terms


def _ring_edges(lengths):
    """thread(a, i) for disjoint rings of the given lengths: a_i!(a_j), a_j
    next after a_i on its ring."""
    succ = []
    for k in lengths:
        succ += [len(succ) + (j + 1) % k for j in range(k)]
    return lambda a, i: Out(a[i], (a[succ[i]],), Nil())


@pytest.mark.parametrize("lengths", [(8,), (12,), (3, 6)],
                         ids=["ring8", "ring12", "rings3+6"])
def test_canonical_key_rings_one_key_for_every_order(lengths):
    # (8,) is new a0..a7 in (a0!(a1) | a1!(a2) | ... | a7!(a0)); in (3, 6)
    # refinement alone cannot tell a binder of one ring from the other's
    n = sum(lengths)
    edge = _ring_edges(lengths)
    terms = _shuffled_scopes(n, edge, n)
    assert len({canonical_key(p) for p in terms}) == 1
    # reversing one edge gives a term that is not congruent
    flipped = _shuffled_scopes(n, lambda a, i: (
        Out(a[1], (a[0],), Nil()) if i == 0 else edge(a, i)), 0)
    assert not congruent(flipped[0], terms[0])


def test_canonical_key_equal_cells_one_key_for_every_order():
    # a0?<a2> | a1?<a4> | a2?<a3> | a3?<a4> | a4?<a5> | a5?<a2>: refinement
    # leaves three cells of two, {a0, a1}, {a2, a4} and {a3, a5}, so the
    # cell to split must be picked by colour, not by the scope's list order
    succ = [2, 4, 3, 4, 5, 2]
    terms = _shuffled_scopes(
        6, lambda a, i: In(a[i], (a[succ[i]],), False, Nil()), 2847)
    assert len({canonical_key(p) for p in terms}) == 1


@pytest.mark.parametrize("n", [10, 20])
def test_canonical_key_interchangeable_binders_one_key(n):
    # new a0..a{n-1} in (a0!() | ... | a{n-1}!())
    terms = _shuffled_scopes(n, lambda a, i: Out(a[i], (), Nil()), n)
    assert len({canonical_key(p) for p in terms}) == 1


def test_canonical_key_scope_listing_one_binder_twice():
    # both threads bind the one id x, so the hoisted scope lists it twice
    x, y, z = _names("x", "y", "z")
    p = New(x, Out(x, (y,), Nil()))
    q = New(x, In(x, (z,), False, Nil()))
    assert congruent(Par(p, q), Par(q, p))
    assert canonical_key(Par(p, q)).startswith("n2{")
    assert not congruent(Par(p, q), Par(p, p))


# ---------------------------------------------------------------------------
# misc helpers


def test_is_core():
    x, v = _names("x", "v")
    assert name_scan(Out(x, (), Nil()))[1]
    assert not name_scan(Repeat(In(x, (v,), True, Nil())))[1]
    assert name_scan(In(x, (v,), False, Nil()))[1]


def test_process_size_counts_occurrences():
    x, y = _names("x", "y")
    assert process_size(Nil()) == 1
    assert process_size(Fusion(x, y)) == 3
    assert process_size(Out(x, (y,), Nil())) == 4
    assert process_size(New(x, Nil())) == 3


def test_par_all():
    x, y = _names("x", "y")
    a, b = Out(x, (), Nil()), Out(y, (), Nil())
    assert same_program(par_all([]), Nil())
    assert par_all([a]) is a
    assert same_program(par_all([a, b]), Par(a, b))


# ---------------------------------------------------------------------------
# identity of names and nodes


def test_name_equality_and_hash_use_the_id_alone():
    a, b = Name(7, "x"), Name(7, "y")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert Name(7, "x") != Name(8, "x")
    assert Name(7, "x") != 7 and Name(7, "x") != IntLit(7)
    assert len({Name(7, "x"), IntLit(7)}) == 2


def _one_of_each_node(span):
    x, y = _names("x", "y")
    return [Nil(span=span), Par(Nil(), Nil(), span=span),
            New(x, Nil(), span=span), Out(x, (y,), Nil(), span=span),
            In(x, (y,), True, Nil(), span=span), Repeat(Nil(), span=span),
            Fusion(x, IntLit(1), span=span)]


def test_nodes_compare_by_identity_and_same_program_ignores_the_span():
    for plain, placed in zip(_one_of_each_node(None),
                             _one_of_each_node(("f.pi", 3))):
        assert plain != placed and plain == plain
        assert same_program(plain, placed)
    x, y = _names("x", "y")
    assert not same_program(Out(x, (), Nil()), Out(y, (), Nil()))
    assert not same_program(In(x, (y,), True, Nil()),
                            In(x, (y,), False, Nil()))
    assert not same_program(Fusion(x, IntLit(1)),
                            Fusion(x, BoolLit(True)))
    assert not same_program(Par(Nil(), Nil()), New(x, Nil()))


def test_values_and_nodes_repr_every_field():
    # a clash trace line shows the literals this way
    x, y = Name(0, "x"), Name(1, "y")
    assert [repr(v) for v in (x, IntLit(1), StrLit("s"),
                              BoolLit(True), UnitLit())] == [
        "x#0", "IntLit(value=1)", "StrLit(value='s')",
        "BoolLit(value=True)", "UnitLit()"]
    assert [repr(p) for p in _one_of_each_node(None)] == [
        "Nil(span=None)",
        "Par(left=Nil(span=None), right=Nil(span=None), span=None)",
        "New(name=x#0, body=Nil(span=None), span=None)",
        "Out(subject=x#0, objects=(y#1,), "
        "cont=Nil(span=None), span=None)",
        "In(subject=x#0, objects=(y#1,), binding=True, cont=Nil(span=None), "
        "span=None)",
        "Repeat(body=Nil(span=None), span=None)",
        "Fusion(left=x#0, right=IntLit(value=1), span=None)"]
    assert repr(Nil(span=("f.pi", 3))) == "Nil(span=('f.pi', 3))"
    assert str(IntLit(-2)) == "IntLit(value=-2)"


def test_values_equal_only_their_own_class():
    assert IntLit(1) == IntLit(1) and hash(IntLit(1)) == hash(IntLit(1))
    assert IntLit(1) != IntLit(2) and IntLit(1) != BoolLit(True)
    assert IntLit(1) != 1 and UnitLit() == UnitLit()
    assert len({StrLit("a"), StrLit("a"), StrLit("b")}) == 2


def test_names_values_and_nodes_have_no_dict():
    x, = _names("x")
    for obj in [x, IntLit(1), StrLit("s"), BoolLit(True),
                UnitLit(), *_one_of_each_node(None)]:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
