"""Pretty printer and alpha-equivalence of whole programs, for the
round-trip tests: format_program gives source text that re-parses to an
alpha-equivalent Program.
"""

from __future__ import annotations

from pichan.core import (BoolLit, ExternDecl, Fusion, In, IntLit, Name, New,
                         Nil, Out, Par, Process, Program, Repeat, StrLit,
                         Value)
from pichan.parser import KEYWORDS

from terms import name_scan


# ---------------------------------------------------------------------------
# Pretty printer


_ESCAPES = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}


def _ident_ok(text: str) -> bool:
    return (text and text not in KEYWORDS
            and (text[0].isalpha() or text[0] == "_")
            and all(c.isalnum() or c == "_" for c in text))


def _display_map(program: Program) -> dict:
    """Assign every name in the program a unique, parseable identifier."""
    taken = set()
    mapping = {}

    def assign(n: Name) -> None:
        if n.id in mapping:
            return
        base = n.display if _ident_ok(n.display) else "n"
        cand = base
        k = 1
        while cand in taken:
            cand = f"{base}_{k}"
            k += 1
        taken.add(cand)
        mapping[n.id] = cand

    for d in program.externs:
        for chan in d.channels():
            assign(chan)
    names = {}
    name_scan(program.main, names)
    for nid in sorted(names):
        assign(names[nid])
    return mapping


def format_program(program: Program) -> str:
    """Source text that re-parses to an alpha-equivalent Program."""
    names = _display_map(program)
    parts = [_format_extern(d, names) for d in program.externs]
    parts.append(_format_proc(program.main, names))
    return "\n".join(parts) + "\n"


def _sorts_text(sorts: tuple) -> str:
    if not sorts:
        return "void"
    return ", ".join(str(s) for s in sorts)


def _format_extern(d: ExternDecl, names: dict) -> str:
    lines = [f"extern {d.alias} -> class {d.class_name} {{"]
    for m in d.methods:
        ret = str(m.return_payload[0]) if m.return_payload else "void"
        call = names[m.call_channel.id]
        retc = names[m.return_channel.id]
        lines.append(f"  {ret} {m.name}({_sorts_text(m.param_sorts) if m.param_sorts else ''}) {{")
        lines.append(f"    call {call}: {_sorts_text(m.param_sorts)};")
        lines.append(f"    return {retc}: {_sorts_text(m.return_payload)};")
        if m.protocol is None:
            lines.append("  }")
        else:
            steps = "".join(f"{chan}({', '.join(map(str, payload))})."
                            for chan, payload in m.protocol)
            lines.append(f"  }} acceded as {{rec S {{{steps}S}}}}")
    lines.append("}")
    return "\n".join(lines)


def _value_text(v: Name | Value, names: dict) -> str:
    if isinstance(v, Name):
        return names[v.id]
    if isinstance(v, IntLit):
        return str(v.value)
    if isinstance(v, StrLit):
        return '"' + "".join(_ESCAPES.get(c, c) for c in v.value) + '"'
    if isinstance(v, BoolLit):
        return "true" if v.value else "false"
    return "unit"


def _format_proc(p: Process, names: dict) -> str:
    if isinstance(p, Par):
        return f"{_format_term(p.left, names)} | {_format_proc(p.right, names)}"
    return _format_term(p, names)


def _format_term(p: Process, names: dict) -> str:
    if isinstance(p, Nil):
        return "nil"
    if isinstance(p, Par):
        return f"({_format_proc(p, names)})"
    if isinstance(p, New):
        binders = [p.name]
        body = p.body
        while isinstance(body, New):
            binders.append(body.name)
            body = body.body
        idents = ", ".join(names[n.id] for n in binders)
        return f"new {idents} in {_format_term(body, names)}"
    if isinstance(p, Repeat):
        return f"repeat {_format_term(p.body, names)}"
    if isinstance(p, Out):
        objs = ", ".join(_value_text(v, names) for v in p.objects)
        head = f"{names[p.subject.id]}!({objs})"
        return head + _cont_text(p.cont, names)
    if isinstance(p, In):
        objs = ", ".join(names[n.id] for n in p.objects)
        left, right = "()" if p.binding else "<>"
        head = f"{names[p.subject.id]}?{left}{objs}{right}"
        return head + _cont_text(p.cont, names)
    if isinstance(p, Fusion):
        return f"{_value_text(p.left, names)}={_value_text(p.right, names)}"
    raise TypeError(p)


def _cont_text(cont: Process, names: dict) -> str:
    if isinstance(cont, Nil):
        return ""
    return "." + _format_term(cont, names)


# ---------------------------------------------------------------------------
# Alpha-equivalence of whole programs (used by round-trip tests)


def program_alpha_eq(p: Program, q: Program) -> bool:
    if len(p.externs) != len(q.externs):
        return False
    for dp, dq in zip(p.externs, q.externs):
        if not _extern_eq(dp, dq):
            return False
    env_p: dict[int, int] = {}
    env_q: dict[int, int] = {}
    # extern channels correspond positionally
    for dp, dq in zip(p.externs, q.externs):
        for cp, cq in zip(dp.channels(), dq.channels()):
            env_p[cp.id] = len(env_p)
            env_q[cq.id] = len(env_q)
    return _alpha(p.main, q.main, dict(env_p), dict(env_q), [len(env_p)])


def _extern_eq(a: ExternDecl, b: ExternDecl) -> bool:
    if (a.alias, a.class_name, len(a.methods)) != (b.alias, b.class_name, len(b.methods)):
        return False
    for ma, mb in zip(a.methods, b.methods):
        if (ma.name, ma.param_sorts, ma.return_payload) != \
                (mb.name, mb.param_sorts, mb.return_payload):
            return False
        if (ma.call_channel.display, ma.return_channel.display) != \
                (mb.call_channel.display, mb.return_channel.display):
            return False
        if ma.protocol != mb.protocol:
            return False
    return True


def _alpha(p: Process, q: Process, ep: dict, eq: dict, counter: list) -> bool:
    if type(p) is not type(q):
        return False

    def name_eq(a: Name, b: Name) -> bool:
        ia, ib = ep.get(a.id), eq.get(b.id)
        if (ia is None) != (ib is None):
            return False
        if ia is not None:
            return ia == ib
        return a.display == b.display

    def value_eq(a, b) -> bool:
        if isinstance(a, Name) and isinstance(b, Name):
            return name_eq(a, b)
        return type(a) is type(b) and a == b

    if isinstance(p, Nil):
        return True
    if isinstance(p, Par):
        return (_alpha(p.left, q.left, ep, eq, counter)
                and _alpha(p.right, q.right, ep, eq, counter))
    if isinstance(p, New):
        ep2, eq2 = dict(ep), dict(eq)
        ep2[p.name.id] = eq2[q.name.id] = counter[0]
        counter[0] += 1
        return _alpha(p.body, q.body, ep2, eq2, counter)
    if isinstance(p, Out):
        if not name_eq(p.subject, q.subject) or len(p.objects) != len(q.objects):
            return False
        if not all(value_eq(a, b) for a, b in zip(p.objects, q.objects)):
            return False
        return _alpha(p.cont, q.cont, ep, eq, counter)
    if isinstance(p, In):
        if p.binding != q.binding or len(p.objects) != len(q.objects):
            return False
        if not name_eq(p.subject, q.subject):
            return False
        if p.binding:
            ep2, eq2 = dict(ep), dict(eq)
            for a, b in zip(p.objects, q.objects):
                ep2[a.id] = eq2[b.id] = counter[0]
                counter[0] += 1
            return _alpha(p.cont, q.cont, ep2, eq2, counter)
        if not all(name_eq(a, b) for a, b in zip(p.objects, q.objects)):
            return False
        return _alpha(p.cont, q.cont, ep, eq, counter)
    if isinstance(p, Repeat):
        return _alpha(p.body, q.body, ep, eq, counter)
    if isinstance(p, Fusion):
        return value_eq(p.left, q.left) and value_eq(p.right, q.right)
    raise TypeError(p)
