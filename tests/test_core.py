"""Tests for names, substitution, fusion environments and congruence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pichan.core import (BoolLit, Fusion, FusionClash, FusionEnv, In, IntLit,
                         NameRef, NameSupply, New, Nil, Out, Par, Repeat,
                         StrLit, SurfaceFormError, canonical_key, congruent,
                         free_names, fused_equal, is_core, merge, name_scan,
                         par_all, process_size, substitute)

from randgen import gen_process


def _names(*displays):
    supply = NameSupply()
    return [supply.fresh(d, "source") for d in displays]


# ---------------------------------------------------------------------------
# free_names


def test_free_names_nil():
    assert free_names(Nil()) == set()


def test_free_names_new_binds():
    x, y = _names("x", "y")
    p = New(x, Out(x, (NameRef(y),), Nil()))
    assert free_names(p) == {y}


def test_free_names_fusion_and_inner_binder():
    # Fusion(x, y) | new y' in y'!() over an *outer* y: the inner binder is a
    # different name object, so both x and the outer y stay free.
    supply = NameSupply()
    x = supply.fresh("x", "source")
    y = supply.fresh("y", "source")
    inner_y = supply.fresh("y", "source")
    p = Par(Fusion(NameRef(x), NameRef(y)),
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
        refs = {v.name for v in p.objects if isinstance(v, NameRef)}
        return {p.subject} | refs | _free_oracle(p.cont)
    if isinstance(p, In):
        inner = _free_oracle(p.cont)
        if p.binding:
            return {p.subject} | (inner - set(p.objects))
        return {p.subject} | set(p.objects) | inner
    if isinstance(p, Repeat):
        return _free_oracle(p.body)
    refs = {v.name for v in (p.left, p.right) if isinstance(v, NameRef)}
    return refs


def test_free_names_binding_input():
    x, v = _names("x", "v")
    p = In(x, (v,), True, Out(v, (), Nil()))
    assert free_names(p) == {x}


# ---------------------------------------------------------------------------
# substitute


def test_substitute_subject_and_object():
    x, y = _names("x", "y")
    p = Out(x, (NameRef(x),), Nil())
    q = substitute(p, x, y)
    assert q == Out(y, (NameRef(y),), Nil())


def test_substitute_shadowed_by_binder():
    x, y, z = _names("x", "y", "z")
    p = New(x, Out(x, (NameRef(z),), Nil()))
    assert substitute(p, x, y) == p


def test_substitute_capture_avoided():
    # substituting y for x under a binder that *is* y must rename the binder
    x, y = _names("x", "y")
    p = New(y, Out(x, (NameRef(y),), Nil()))
    q = substitute(p, x, y)
    assert isinstance(q, New)
    assert q.name != y
    assert q.body.subject == y
    assert q.body.objects == (NameRef(q.name),)
    assert free_names(q) == {y}


def test_substitute_binding_input_parameter_shadow():
    x, y = _names("x", "y")
    supply = NameSupply(max(x.id, y.id) + 1)
    v = supply.fresh("v", "source")
    p = In(x, (v,), True, Out(v, (NameRef(x),), Nil()))
    q = substitute(p, x, y)
    assert q.subject == y
    assert q.cont.objects == (NameRef(y),)


def _gen(seed, surface=False, max_nodes=14):
    rng = random.Random(seed)
    supply = NameSupply()
    scope = [supply.fresh(c, "source") for c in "abc"]
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
    merge(env, NameRef(x), NameRef(y))
    assert fused_equal(env, NameRef(x), NameRef(y))


def test_fused_equal_distinct_names_empty_env():
    x, y = _names("x", "y")
    env = FusionEnv()
    assert not fused_equal(env, NameRef(x), NameRef(y))


def test_fused_equal_transitive():
    x, y, z = _names("x", "y", "z")
    env = FusionEnv()
    merge(env, NameRef(x), NameRef(y))
    merge(env, NameRef(y), NameRef(z))
    assert fused_equal(env, NameRef(x), NameRef(z))


def test_merge_reflexive_noop():
    x = _names("x")[0]
    env = FusionEnv()
    merge(env, NameRef(x), NameRef(x))
    assert fused_equal(env, NameRef(x), NameRef(x))
    assert env.attached_literal(x) is None


def test_merge_literal_attachment_idempotent():
    x = _names("x")[0]
    env = FusionEnv()
    merge(env, NameRef(x), IntLit(5))
    merge(env, NameRef(x), IntLit(5))
    assert env.attached_literal(x) == IntLit(5)
    assert fused_equal(env, NameRef(x), IntLit(5))


def test_merge_literal_clash():
    x = _names("x")[0]
    env = FusionEnv()
    merge(env, NameRef(x), IntLit(5))
    with pytest.raises(FusionClash):
        merge(env, NameRef(x), IntLit(6))


def test_merge_clash_through_classes():
    x, y = _names("x", "y")
    env = FusionEnv()
    merge(env, NameRef(x), IntLit(5))
    merge(env, NameRef(y), IntLit(6))
    with pytest.raises(FusionClash):
        merge(env, NameRef(x), NameRef(y))


def test_merge_literal_literal():
    env = FusionEnv()
    merge(env, StrLit("a"), StrLit("a"))
    with pytest.raises(FusionClash):
        merge(env, BoolLit(True), BoolLit(False))


def test_bool_and_int_literals_never_fuse():
    # bool is not int even where the host language thinks 1 == True
    x = _names("x")[0]
    env = FusionEnv()
    merge(env, NameRef(x), IntLit(1))
    with pytest.raises(FusionClash):
        merge(env, NameRef(x), BoolLit(True))


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
        merge(env1, NameRef(a), NameRef(b))
    for a, b in perm:
        merge(env2, NameRef(a), NameRef(b))
    for a in names:
        for b in names:
            assert (fused_equal(env1, NameRef(a), NameRef(b))
                    == fused_equal(env2, NameRef(a), NameRef(b)))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_fused_equal_is_equivalence(seed):
    rng = random.Random(seed)
    names = _names(*"abcde")
    env = FusionEnv()
    for _ in range(5):
        merge(env, NameRef(rng.choice(names)), NameRef(rng.choice(names)))
    refs = [NameRef(n) for n in names]
    for a in refs:
        assert fused_equal(env, a, a)
        for b in refs:
            assert fused_equal(env, a, b) == fused_equal(env, b, a)
            for c in refs:
                if fused_equal(env, a, b) and fused_equal(env, b, c):
                    assert fused_equal(env, a, c)


def test_fusion_env_copy_isolated():
    x, y = _names("x", "y")
    env = FusionEnv()
    snap = env.copy()
    merge(env, NameRef(x), NameRef(y))
    assert fused_equal(env, NameRef(x), NameRef(y))
    assert not fused_equal(snap, NameRef(x), NameRef(y))


# ---------------------------------------------------------------------------
# congruence


def test_congruent_new_swap():
    x, y, z = _names("x", "y", "z")
    body1 = Par(Out(x, (), Nil()), Out(y, (NameRef(z),), Nil()))
    body2 = Par(Out(x, (), Nil()), Out(y, (NameRef(z),), Nil()))
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
    right = Out(x, (NameRef(z),), Nil())
    assert congruent(New(x, Par(left, right)), Par(left, New(x, right)))


def test_congruent_fusion_symmetry_reflexivity():
    x, y = _names("x", "y")
    assert congruent(Fusion(NameRef(x), NameRef(y)),
                     Fusion(NameRef(y), NameRef(x)))
    assert congruent(Fusion(NameRef(x), NameRef(x)), Nil())


def test_congruent_fusion_elimination():
    # (new x)(x=y | x!()) == y!()
    x, y = _names("x", "y")
    p = New(x, Par(Fusion(NameRef(x), NameRef(y)), Out(x, (), Nil())))
    assert congruent(p, Out(y, (), Nil()))


def test_congruent_repeat_not_unfolded():
    x = _names("x")[0]
    p = Repeat(Out(x, (), Nil()))
    assert not congruent(p, Par(Out(x, (), Nil()), p))


def test_congruent_alpha():
    supply = NameSupply()
    x1 = supply.fresh("x", "source")
    x2 = supply.fresh("q", "source")
    y = supply.fresh("y", "source")
    p = New(x1, Out(x1, (NameRef(y),), Nil()))
    q = New(x2, Out(x2, (NameRef(y),), Nil()))
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
    x = supply.fresh("x", "source")
    y = supply.fresh("y", "source")
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


# ---------------------------------------------------------------------------
# misc helpers


def test_is_core():
    x, v = _names("x", "v")
    assert is_core(Out(x, (), Nil()))
    assert not is_core(Repeat(In(x, (v,), True, Nil())))
    assert is_core(In(x, (v,), False, Nil()))


def test_process_size_counts_occurrences():
    x, y = _names("x", "y")
    assert process_size(Nil()) == 1
    assert process_size(Fusion(NameRef(x), NameRef(y))) == 3
    assert process_size(Out(x, (NameRef(y),), Nil())) == 4
    assert process_size(New(x, Nil())) == 3


def test_par_all():
    x, y = _names("x", "y")
    a, b = Out(x, (), Nil()), Out(y, (), Nil())
    assert par_all([]) == Nil()
    assert par_all([a]) == a
    assert par_all([a, b]) == Par(a, b)
