"""Sort inference for channels and protocol checking for extern blocks.

Plain channels have no declaration syntax, so their sorts are inferred by
unification from use, action by action in pre-order, over a union-find of
sort classes; extern channels get their sorts from the declaration.  A
binding that would make a sort recursive is refused when it is made, found
by a search forward from the sort and backward from the class at once.
A protocol on an extern method is the list of steps of its `rec` body, and
only the canonical call-then-return cycle is accepted; anything else parses
but is rejected here, so no later stage sees a protocol.
"""

from __future__ import annotations

from .core import Fusion, In, Name, New, Out, Par, Repeat, nodes
from .diag import Diagnostic

# ---------------------------------------------------------------------------
# Sort checking (unification from use)

SHOW_LIMIT = 200  # characters of a sort that a message shows, then "..."


class _Unifier:
    """Union-find over sort classes.  A class is keyed by a name id, or by a
    negative key for a payload slot that no name fills.  Its root holds its
    sort in `sort`: absent while unknown, a BaseSort, or a channel's payload
    as a tuple of terms (class keys and BaseSorts).  `users` maps a root to
    the classes whose payloads mention it.  Two classes with known sorts are
    never merged: their payloads are unified, and a mismatch leaves both."""

    def __init__(self):
        self.parent, self.sort, self.users = {}, {}, {}
        self._fresh, self.diags = 0, []

    def find(self, k):
        root, parent = k, self.parent
        while root in parent:
            root = parent[root]
        while k != root:
            parent[k], k = root, parent[k]
        return root

    def _join(self, a, b) -> None:
        """Merge class a, whose sort is unknown, into class b: the root with
        more users stays, and it takes b's sort."""
        users, sort = self.users, self.sort
        if len(users.get(a, ())) > len(users.get(b, ())):
            a, b = b, a
            if a in sort:
                sort[b] = sort.pop(a)
        self.parent[a] = b
        if a in users:
            users.setdefault(b, []).extend(users.pop(a))

    def _reaches(self, src, dst) -> bool:
        """Whether class dst occurs in the sort of class src.  The search
        steps forward from src through payloads and backward from dst
        through users, one class each in turn, and stops when the two meet
        or either side runs out: at most 2 * min(descendants, ancestors)
        classes."""
        find, sort, users = self.find, self.sort, self.users
        if src == dst or type(sort.get(src)) is not tuple:
            return src == dst
        fwd, bwd, fseen, bseen = [src], [dst], {src}, {dst}
        while True:
            got = sort.get(fwd.pop())
            for k in got if type(got) is tuple else ():
                if type(k) is int and (k := find(k)) not in fseen:
                    if k in bseen:
                        return True
                    fseen.add(k)
                    fwd.append(k)
            if not fwd:
                return False
            for k in users.get(bwd.pop(), ()):
                if (k := find(k)) not in bseen:
                    if k in fseen:
                        return True
                    bseen.add(k)
                    bwd.append(k)
            if not bwd:
                return False

    def give(self, root, terms: list, span, what: str) -> None:
        """Make class root, of unknown sort, a channel of terms; a term that
        would make the sort recursive is refused, and its slot left unknown."""
        payload = []
        for t in terms:
            if type(t) is int:
                t = self.find(t)
                if self._reaches(t, root):
                    self._err(span, f"recursive channel sort required by {what}")
                    self._fresh -= 1
                    t = self._fresh
                self.users.setdefault(t, []).append(root)
            payload.append(t)
        self.sort[root] = tuple(payload)

    def unify(self, a, b, span, what: str) -> None:
        """Terms are unified depth first, left to right, from a stack."""
        find, sort = self.find, self.sort
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            sa = sort.get(a := find(a)) if type(a) is int else a
            sb = sort.get(b := find(b)) if type(b) is int else b
            if sa is None or sb is None:
                if sa is not None:  # bind the unknown class, on either side
                    a, b, sb = b, a, sa
                if type(sb) is tuple and self._reaches(b, a):
                    self._err(span, f"recursive channel sort required by {what}")
                elif type(b) is not int:
                    sort[a] = sb
                elif a != b:
                    self._join(a, b)
            elif type(sa) is tuple and type(sb) is tuple:
                if len(sa) != len(sb):
                    self._err(span, f"arity mismatch in {what}: "
                              f"{len(sa)} vs {len(sb)}")
                elif sa is not sb:
                    stack += reversed(list(zip(sa, sb)))
            elif sa != sb:
                self._err(span, f"sort mismatch in {what}: "
                          f"{self._show(a)} vs {self._show(b)}")

    def _show(self, t) -> str:
        """t as text, cut short with "..." once past SHOW_LIMIT characters."""
        out, size, stack = [], 0, [t]
        while stack:
            if size > SHOW_LIMIT:
                out.append("...")
                break
            t = stack.pop()  # punctuation shows as itself
            if type(t) is int:
                t = self.sort.get(self.find(t), "?")
            if type(t) is tuple:
                parts = [x for p in t for x in (",", p)][1:]
                stack += (")", *reversed(parts))
                t = "chan("
            out.append(str(t))
            size += len(out[-1])
        return "".join(out)

    def _err(self, span, msg: str) -> None:
        self.diags.append(Diagnostic("error", "E-SORT", msg, span))


def check_sorts(program) -> list:
    """Infer channel sorts by unification; report E-SORT diagnostics for
    arity or payload mismatches anywhere in the program."""
    uni = _Unifier()
    for d in program.externs:
        for m in d.methods:
            uni.sort[m.call_channel.id] = tuple(m.param_sorts)
            uni.sort[m.return_channel.id] = tuple(m.return_payload)
    find, sort = uni.find, uni.sort

    def term(v):
        return v.id if type(v) is Name else v.sort

    for p in nodes(program.main):  # pre-order: the order of the diagnostics
        kind = type(p)
        if kind is Out or kind is In:
            role, name = "output" if kind is Out else "input", p.subject.display
            what = f"{role} payload on {name}"
            terms = ([term(v) for v in p.objects] if kind is Out
                     else [n.id for n in p.objects])
            subject = find(p.subject.id)
            got = sort.get(subject)
            if got is None:
                uni.give(subject, terms, p.span, what)
            elif type(got) is not tuple:
                uni._err(p.span, f"sort mismatch in {role} on {name}: "
                         f"{got} vs chan({','.join('?' * len(terms))})")
            elif len(got) != len(terms):
                uni._err(p.span, f"arity mismatch in {role} on {name}: "
                         f"{len(got)} vs {len(terms)}")
            else:
                for a, b in zip(got, terms):
                    uni.unify(a, b, p.span, what)
        elif kind is Fusion:
            uni.unify(term(p.left), term(p.right), p.span, "fusion")
    return uni.diags


# ---------------------------------------------------------------------------
# Protocol schema check


def check_protocol_schema(decl) -> list:
    """Each declared protocol must be the canonical call-then-return cycle:
    the call on its parameter sorts, then the return on its payload.  An
    omitted clause (protocol None) is that cycle."""
    diags = []
    for m in decl.methods:
        canonical = ((m.call_channel.display, m.param_sorts),
                     (m.return_channel.display, m.return_payload))
        if m.protocol not in (None, canonical):
            diags.append(Diagnostic(
                "error", "E-PROTO", f"protocol for method {m.name} of "
                f"{decl.alias} is not the canonical call-then-return cycle",
                m.span))
    return diags


# ---------------------------------------------------------------------------
# Static extern-usage check


def extern_channel_table(externs) -> dict:
    """Name id -> (alias, role 'call'|'ret', method name) for extern channels."""
    table = {}
    for d in externs:
        for m in d.methods:
            table[m.call_channel.id] = (d.alias, "call", m.name)
            table[m.return_channel.id] = (d.alias, "ret", m.name)
    return table


def check_extern_usage(program) -> list:
    """Conservative per-thread walk: after a call the same thread's next
    action on that extern block must be the paired return input.  Parallel
    use of one block is downgraded to a warning, as the VM lets a call wait
    while its endpoint has a staged return; each flat | chain warns once per
    alias."""
    if not program.externs:  # no extern channel: nothing to report
        return []
    table = extern_channel_table(program.externs)
    ret_chan = {}  # (alias, method) -> return channel display
    for d in program.externs:
        for m in d.methods:
            ret_chan[(d.alias, m.name)] = m.return_channel.display
    diags = []
    # id(Par) -> the aliases both its sides use, from a stack of the alias
    # sets of the subterms read so far; only a Par or a new alias copies one
    shared, sets = {}, []
    for p in reversed(nodes(program.main)):  # every node after its children
        kind = type(p)
        if kind is Par:
            left, right = sets.pop(), sets.pop()
            shared[id(p)] = left & right
            sets.append(left | right)
        elif kind is Out or kind is In:
            info = table.get(p.subject.id)
            if info is not None and info[0] not in sets[-1]:
                sets[-1] = sets[-1] | {info[0]}
        elif kind is Fusion:
            sets.append(frozenset(table[v.id][0] for v in (p.left, p.right)
                                  if type(v) is Name and v.id in table))
        elif kind is not New and kind is not Repeat:  # nil
            sets.append(frozenset())

    def violation(span, alias, method, action):
        diags.append(Diagnostic(
            "error", "E-USE",
            f"call to {method} on {alias} must be followed by input on "
            f"{ret_chan[(alias, method)]}, found {action}", span))

    # (node, alias -> method awaiting its return, aliases already reported
    # higher up the same flat | chain); pending is never changed in place
    stack = [(program.main, {}, frozenset())]
    while stack:
        p, pending, warned = stack.pop()
        kind = type(p)
        if kind is Par:
            both = shared[id(p)]
            for alias in sorted(both - warned):
                diags.append(Diagnostic(
                    "warning", "W-PAR",
                    f"extern block {alias} used from parallel branches; "
                    f"protocol order enforced at run time", p.span))
            warned = warned | both
            stack += ((p.right, pending, warned), (p.left, pending, warned))
        elif kind is New or kind is Repeat:
            stack.append((p.body, pending, frozenset()))
        elif kind is Out or kind is In:
            info = table.get(p.subject.id)
            if info is not None:
                alias, role, method = info
                want = pending.get(alias)
                if kind is In and want and role == "ret" and method == want:
                    pending = {**pending, alias: None}
                elif want:
                    action = "output" if kind is Out else "input"
                    violation(p.span, alias, want, f"{action} on {p.subject.display}")
                elif kind is Out and role == "call":
                    pending = {**pending, alias: method}
            stack.append((p.cont, pending, frozenset()))
        elif kind is Fusion:
            sides = [v.id for v in (p.left, p.right)
                     if type(v) is Name and v.id in table]
            if len(sides) == 2:
                diags.append(Diagnostic(
                    "error", "E-USE",
                    "fusing two extern channels would alias host endpoints",
                    p.span))
    return diags
