"""Random program generator for round-trip and determinism tests."""

from __future__ import annotations

import random
import string

from pichan.core import (BOOL, INT, STR, BoolLit, ExternDecl, Fusion, In,
                         IntLit, MethodDecl, NameSupply, New, Nil, Out, Par,
                         Program, Repeat, StrLit, UnitLit)

_SORTS = [INT, STR, BOOL]


def gen_program(rng: random.Random, with_externs: bool = True,
                surface: bool = True, max_nodes: int = 25) -> Program:
    supply = NameSupply()
    externs = []
    if with_externs and rng.random() < 0.5:
        externs = [gen_extern(rng, supply, i) for i in range(rng.randint(1, 2))]
    scope = [supply.fresh(c) for c in
             rng.sample(["a", "b", "c", "d", "e"], rng.randint(2, 4))]
    for d in externs:
        scope.extend(d.channels())
    budget = [rng.randint(1, max_nodes)]
    main = gen_process(rng, supply, list(scope), budget, surface)
    return Program(tuple(externs), main)


def gen_extern(rng: random.Random, supply: NameSupply, idx: int) -> ExternDecl:
    alias = f"Ext{idx}"
    cls = f"Class{idx}"
    methods = []
    for j in range(rng.randint(0, 3)):
        mname = f"m{idx}_{j}"
        call = supply.fresh(mname)
        ret = supply.fresh(f"R{idx}_{j}")
        params = tuple(rng.choice(_SORTS) for _ in range(rng.randint(0, 2)))
        retp = (rng.choice(_SORTS),) if rng.random() < 0.6 else ()
        proto = ((call.display, params), (ret.display, retp))  # canonical
        methods.append(MethodDecl(mname, call, params, ret, retp, proto))
    return ExternDecl(alias, cls, tuple(methods))


def _gen_value(rng: random.Random, scope: list):
    r = rng.random()
    if r < 0.55 and scope:
        return rng.choice(scope)
    if r < 0.7:
        return IntLit(rng.randint(-9, 99))
    if r < 0.8:
        return StrLit("".join(rng.choice(string.ascii_lowercase)
                              for _ in range(rng.randint(0, 4))))
    if r < 0.9:
        return BoolLit(rng.random() < 0.5)
    return UnitLit()


def gen_process(rng: random.Random, supply: NameSupply, scope: list,
                budget: list, surface: bool):
    if budget[0] <= 1:
        return Nil()
    budget[0] -= 1
    choice = rng.random()
    if choice < 0.12:
        return Nil()
    if choice < 0.30:
        left = gen_process(rng, supply, scope, budget, surface)
        right = gen_process(rng, supply, scope, budget, surface)
        return Par(left, right)
    if choice < 0.42:
        name = supply.fresh(rng.choice(["u", "v", "w"]))
        body = gen_process(rng, supply, scope + [name], budget, surface)
        return New(name, body)
    if choice < 0.50:
        return Repeat(gen_process(rng, supply, scope, budget, surface))
    if choice < 0.58:
        return Fusion(_gen_value(rng, scope), _gen_value(rng, scope))
    if choice < 0.80:
        subj = rng.choice(scope)
        objs = tuple(_gen_value(rng, scope) for _ in range(rng.randint(0, 2)))
        return Out(subj, objs, gen_process(rng, supply, scope, budget, surface))
    subj = rng.choice(scope)
    arity = rng.randint(0, 2)
    if surface and rng.random() < 0.5:
        names = tuple(supply.fresh(rng.choice(["p", "q", "r"]))
                      for _ in range(arity))
        cont = gen_process(rng, supply, scope + list(names), budget, surface)
        return In(subj, names, True, cont)
    names = tuple(rng.choice(scope) for _ in range(arity))
    return In(subj, names, False,
              gen_process(rng, supply, scope, budget, surface))


# the std registry's classes: (class, ((method, params, result), ...))
_STD_CLASSES = (("Counter", (("inc", (), "int"),)),
                ("Console", (("print", ("int",), "void"),)),
                ("Account", (("readn", (), "void"), ("read", (), "int"))),
                ("LoggingCtor", (("poke", (), "void"),)))


def gen_host_source(rng: random.Random, max_aliases: int = 4,
                    max_parts: int = 8) -> str:
    """A .pi program over the std registry's classes, which Machine can
    resolve: 1-max_aliases extern blocks, each method on its own channels,
    and a main of workers that call a method and await its return, stray
    receivers on return channels, fusions of two call or two return
    channels (at the start or after a call) and repeats on host channels."""
    blocks, methods = [], []
    for k in range(rng.randint(1, max_aliases)):
        cls, meths = rng.choice(_STD_CLASSES)
        lines = [f"extern A{k} -> class {cls} {{"]
        for name, params, result in meths:
            call, ret = f"{name}{k}", f"R{name}{k}"
            lines.append(f"  {result} {name}({', '.join(params)}) {{ "
                         f"call {call}: {', '.join(params) or 'void'}; "
                         f"return {ret}: {result}; }}")
            methods.append((call, ret, params, result))
        lines.append("}")
        blocks.append("\n".join(lines))
    counter = iter(range(10**6))

    def exchange():
        call, ret, params, result = rng.choice(methods)
        args = ", ".join(str(rng.randint(0, 9)) for _ in params)
        binder = "" if result == "void" else f"v{next(counter)}"
        return f"{call}!({args}).{ret}?({binder})"

    def fusion():
        pick = rng.randrange(2)  # fuse two call or two return channels
        a, b = rng.choice(methods), rng.choice(methods)
        return f"{a[pick]} = {b[pick]}"

    parts = []
    for _ in range(rng.randint(1, max_parts)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(".".join(exchange()
                                  for _ in range(rng.randint(1, 3))))
        elif roll < 0.6:
            parts.append(fusion())
        elif roll < 0.75:
            parts.append(f"{exchange()}.({fusion()})")
        elif roll < 0.9:
            _, ret, _, result = rng.choice(methods)
            # one receiver in five has the other arity and never matches
            void = (result == "void") != (rng.random() < 0.2)
            parts.append(f"{ret}?({'' if void else 'w'})")
        else:
            ret = rng.choice(methods)[1]
            parts.append(rng.choice([f"repeat {ret}?(w)",
                                     f"repeat g?().{exchange()}",
                                     "g!()"]))
    return "\n".join(blocks) + "\n" + " | ".join(parts) + "\n"
