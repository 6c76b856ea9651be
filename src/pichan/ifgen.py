"""Interface generator: turn a JSON class manifest into an extern block.

The manifest replaces scanning a foreign assembly: it lists a class's
methods with their parameter and return sorts.  Generation emits one call
channel per method (named like the method) and return channels Ret1..RetN
in declaration order, each with the canonical call-then-return protocol.
"""

from __future__ import annotations

import json

from .core import Record
from .parser import SORT_NAMES, is_identifier


class ManifestError(Exception):
    pass


class ManifestParseError(ManifestError):
    pass


class UnknownSort(ManifestError):
    pass


class DuplicateMethod(ManifestError):
    pass


class AliasClash(ManifestError):
    pass


class ManifestMethod(Record):
    _fields = ("name", "params", "returns")

    def __init__(self, name: str, params: tuple, returns: str):
        self.name = name
        self.params = params  # tuple of sort names, never void
        self.returns = returns  # a sort name, possibly void


class ClassManifest(Record):
    _fields = ("class_name", "methods")

    def __init__(self, class_name: str, methods: tuple):
        self.class_name = class_name
        self.methods = methods  # tuple[ManifestMethod, ...]


def load_manifest(path) -> ClassManifest:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        raise ManifestParseError(f"{path}: {exc}")
    return parse_manifest(raw, source=str(path))


def _check_name(what: str, name: str, source: str) -> None:
    if not is_identifier(name):
        raise ManifestParseError(
            f"{source}: {what} {name!r} is not a valid identifier")


def _check_method(name: str, params, returns, seen: set,
                  source: str) -> ManifestMethod:
    """The method, if its name is an identifier not in seen and its
    sorts parse."""
    _check_name("method name", name, source)
    if name in seen:
        raise DuplicateMethod(f"{source}: duplicate method {name}")
    seen.add(name)
    if (not isinstance(params, (list, tuple)) or not isinstance(returns, str)
            or not all(isinstance(s, str) for s in params)):
        raise ManifestParseError(f"{source}: {name} needs 'params', a "
                                 f"list of sort names, and a 'returns' sort")
    for s in params:
        if s not in SORT_NAMES:
            raise UnknownSort(f"{source}: unknown sort {s!r} in {name}")
        if s == "void":
            raise UnknownSort(f"{source}: void cannot be a parameter of {name}")
    if returns not in SORT_NAMES:
        raise UnknownSort(f"{source}: unknown sort {returns!r} in {name}")
    return ManifestMethod(name, tuple(params), returns)


def parse_manifest(raw, source: str = "<manifest>") -> ClassManifest:
    if not isinstance(raw, dict) or not isinstance(raw.get("class"), str):
        raise ManifestParseError(f"{source}: expected an object with a 'class' name")
    _check_name("class name", raw["class"], source)
    methods = []
    seen = set()
    if not isinstance(raw.get("methods", []), list):
        raise ManifestParseError(f"{source}: 'methods' must be a list")
    for entry in raw.get("methods", []):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ManifestParseError(f"{source}: method entries need a 'name'")
        methods.append(_check_method(entry["name"], entry.get("params", []),
                                     entry.get("returns", "void"), seen, source))
    return ClassManifest(raw["class"], tuple(methods))


def generate_interface(manifest: ClassManifest, alias: str) -> str:
    """Extern-block source for the manifest; parses cleanly and passes the
    protocol schema check by construction."""
    if not is_identifier(alias):
        raise ManifestError(f"alias {alias!r} is not a valid identifier")
    _check_name("class name", manifest.class_name, "<manifest>")
    taken = set()  # method names, then return channels
    for m in manifest.methods:
        _check_method(m.name, m.params, m.returns, taken, "<manifest>")
    if alias in taken:
        raise AliasClash(f"alias {alias} collides with a method name")
    lines = [f"extern {alias} -> class {manifest.class_name} {{"]
    for i, m in enumerate(manifest.methods, start=1):
        ret_chan = f"Ret{i}"
        while ret_chan in taken:
            ret_chan += "_"
        taken.add(ret_chan)
        params = ", ".join(m.params)
        result = m.returns if m.returns != "void" else ""
        lines += (f"  {m.returns} {m.name}({params}) {{",
                  f"    call {m.name}: {params or 'void'};",
                  f"    return {ret_chan}: {m.returns};",
                  f"  }} acceded as {{rec S {{{m.name}({params})."
                  f"{ret_chan}({result}).S}}}}")
    if alias in taken:
        raise AliasClash(f"alias {alias} collides with a channel name")
    lines.append("}")
    return "\n".join(lines) + "\n"

