"""Deep and wide `.pi` programs: fourteen shapes whose depth or width grows with
one parameter n, and the exit code each of `pichan check`, `compile` and
`run --max-steps 10` documents for it.

Run as a script to time every command on every shape at one size, or on
the shapes named after the size:

    PYTHONPATH=src python tests/deep_inputs.py 100000
    PYTHONPATH=src python tests/deep_inputs.py 100000 reversed_outputs

It prints one line per shape and command: the exit code, the expected one
and the seconds taken; then one line per shape with the bytes of its
compiled XIR per byte of source.  test_deep_inputs.py drives the same shapes
through `cli.main` at a smaller size.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from pichan.cli import main as pichan_main


def flat_par(n: int) -> str:
    """a!() | a!() | ... : n outputs in one | chain"""
    return " | ".join(["a!()"] * n)


def nested_parens(n: int) -> str:
    """((( a!() ))) with n pairs of parentheses"""
    return "(" * n + "a!()" + ")" * n


def output_chain(n: int) -> str:
    """x!().x!(). ... x!(): n outputs in one prefix chain"""
    return "x!()." * (n - 1) + "x!()"


def input_chain(n: int) -> str:
    """x?(v).x?(v). ... : n binding inputs, each shadowing the last"""
    return "x?(v)." * n + "v!()"


def repeat_chain(n: int) -> str:
    """repeat repeat ... x!(): n nested repeats"""
    return "repeat " * n + "x!()"


def new_chain(n: int) -> str:
    """new a0 in new a1 in ... : n restrictions, the innermost used"""
    return "".join(f"new a{i} in " for i in range(n)) + f"a{n - 1}!()"


def new_under_par(n: int) -> str:
    """new a0 in (a0!() | new a1 in (...)): n restrictions, each under the
    | of the one before"""
    return ("".join(f"new a{i} in (a{i}!() | " for i in range(n - 1))
            + f"new a{n - 1} in a{n - 1}!()" + ")" * (n - 1))


def new_list(n: int) -> str:
    """new a0, a1, ... in nil: n restrictions in one list"""
    return "new " + ", ".join(f"a{i}" for i in range(n)) + " in nil"


def new_over_par(n: int) -> str:
    """new a in (a!() | a!() | ...): one restriction over n outputs"""
    return "new a in (" + flat_par(n) + ")"


def free_names(n: int) -> str:
    """x0!() | x1!() | ...: n free names, one free list in XIR"""
    return " | ".join(f"x{i}!()" for i in range(n))


def right_nested_par(n: int) -> str:
    """(a!() | (a!() | (...))): n outputs, every | parenthesized"""
    return "(a!() | " * (n - 1) + "a!()" + ")" * (n - 1)


def left_nested_par(n: int) -> str:
    """((a!() | b!()) | b!()) ...: n outputs, | nested to the left"""
    return "(" * (n - 1) + "a!()" + " | b!())" * (n - 1)


def reversed_outputs(n: int) -> str:
    """c{n-1}!(c{n}) | ... | c1!(c2) | c0!(c1): each channel passed over the
    one before it, written from the end of the chain"""
    return " | ".join(f"c{i}!(c{i + 1})" for i in reversed(range(n)))


def flood(n: int) -> str:
    """x!() | ... | x?() | ...: n outputs and n inputs on one channel, each
    output a partner of each input"""
    return " | ".join(["x!()"] * n + ["x?()"] * n)


# shape -> exit codes of (check, compile, run --max-steps 10): a soup of
# outputs and inputs with no partner is stuck (4); a repeat can always
# unfold, so the repeat chain meets the step limit (6), and so does a flood
# of more than 10 pairs
SHAPES = {
    flat_par: (0, 0, 4),
    nested_parens: (0, 0, 4),
    output_chain: (0, 0, 4),
    input_chain: (0, 0, 4),
    repeat_chain: (0, 0, 6),
    new_chain: (0, 0, 4),
    new_under_par: (0, 0, 4),
    new_list: (0, 0, 0),
    new_over_par: (0, 0, 4),
    free_names: (0, 0, 4),
    right_nested_par: (0, 0, 4),
    left_nested_par: (0, 0, 4),
    reversed_outputs: (0, 0, 4),
    flood: (0, 0, 6),
}


def run_shape(shape, n: int, work: Path) -> list:
    """(command, exit code, seconds) for check, compile and run on one
    shape, with the commands' own output discarded."""
    src, xir = work / f"{shape.__name__}.pi", work / f"{shape.__name__}.xir.xml"
    src.write_text(shape(n), encoding="utf-8")
    results = []
    for argv in (["check", str(src)], ["compile", str(src), "-o", str(xir)],
                 ["run", str(xir), "--max-steps", "10"]):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = pichan_main(argv)
        results.append((argv[0], code, time.perf_counter() - start))
    return results


def main(argv: list) -> int:
    n = int(argv[0]) if argv else 10000
    by_name = {shape.__name__: shape for shape in SHAPES}
    for name in argv[1:]:
        if name not in by_name:
            print(f"unknown shape {name}; the shapes are "
                  f"{', '.join(by_name)}", file=sys.stderr)
            return 2
    shapes = [by_name[name] for name in argv[1:]] or list(SHAPES)
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for shape in shapes:
            for (command, code, seconds), want in zip(
                    run_shape(shape, n, Path(tmp)), SHAPES[shape]):
                print(f"{shape.__name__:17} {command:8} exit {code} "
                      f"(expected {want}) {seconds:7.2f} s")
                worst = worst or int(code != want)
            src, xir = (Path(tmp) / (shape.__name__ + ext)
                        for ext in (".pi", ".xir.xml"))
            if xir.exists():
                print(f"{shape.__name__:17} xir      "
                      f"{xir.stat().st_size / src.stat().st_size:.2f} bytes "
                      f"per source byte")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
