"""Command-line pipeline: compile, check, run, gen-iface.

Exit codes: 0 ok, 1 syntax/manifest/usage error, 2 type/protocol/schema
error, 3 I/O or UTF-8 error (an input or output file, or a stdout that is
full, closed by its reader or cannot encode the output), 4 stuck, 5 clash
or protocol violation, 6 step limit.

A command imports only what it runs: xir for compile and run, vm for run,
ifgen for gen-iface.  Parser and checkers stay at module level, where the
benchmark's tracer patches them.

`main` pauses the cyclic garbage collector while a command runs and gives
the caller back its state.  pichan's program model, machine, registry and
traces hold no reference cycles, so a collection there would free nothing.
The stdlib leaves a few, freed after the command returns: 6 objects of
argparse's usage formatter per usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache

from .diag import ParseError, has_errors
from .interop import SignatureMismatch, UnknownClass, build_registry
from .parser import desugar, parse_program
from .typecheck import check_extern_usage, check_protocol_schema, check_sorts

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_TYPE = 2
EXIT_IO = 3
EXIT_STUCK = 4
EXIT_FAULT = 5
EXIT_STEP_LIMIT = 6


def _read_file(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_pipeline(path):
    """Parse + desugar + all static checks.  Returns (program, exit_code);
    program is None on failure.  Diagnostics are printed either way."""
    try:
        program = parse_program(_read_file(path), filename=str(path))
    except ParseError as exc:
        for d in exc.diagnostics:
            print(d)
        return None, EXIT_SYNTAX
    program = desugar(program)
    diags = list(check_sorts(program))
    for decl in program.externs:
        diags.extend(check_protocol_schema(decl))
    diags.extend(check_extern_usage(program))
    for d in diags:
        print(d)
    if has_errors(diags):
        return None, EXIT_TYPE
    return program, EXIT_OK


def cmd_compile(args) -> int:
    from . import xir

    program, code = _check_pipeline(args.input)
    if program is None:
        return code
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(xir.to_xml(program))
    return EXIT_OK


def cmd_check(args) -> int:
    _, code = _check_pipeline(args.input)
    return code


def cmd_run(args) -> int:
    from . import vm, xir

    try:
        program = xir.from_xml(_read_file(args.input))
    except xir.SchemaError as exc:
        print(f"error: {exc.code} {exc}", file=sys.stderr)
        return EXIT_TYPE
    try:
        registry = build_registry(args.registry)
        max_steps = (vm.DEFAULT_MAX_STEPS if args.max_steps is None
                     else args.max_steps)
        trace = vm.run(program, seed=args.seed, max_steps=max_steps,
                       registry=registry)
    except (UnknownClass, SignatureMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    if args.trace == "json":
        print(trace.to_json())
    elif trace.events:
        print(trace.lines())
    if trace.status == "terminated":
        return EXIT_OK
    if trace.status == "stuck-with-residuals":
        try:
            report = vm.detect_stuck(trace.machine)
            if report.residuals:
                print(report.lines(), file=sys.stderr)
        except vm.NotStuck:
            print("stuck: pending host return undeliverable", file=sys.stderr)
        return EXIT_STUCK
    if trace.status in ("clash", "violation"):
        return EXIT_FAULT
    return EXIT_STEP_LIMIT


def cmd_geniface(args) -> int:
    from . import ifgen

    try:
        manifest = ifgen.load_manifest(args.input)
        source = ifgen.generate_interface(manifest, args.alias)
    except ifgen.ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    # append an empty main so the file is a complete, checkable program
    source += "nil\n"
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(source)
    return EXIT_OK


@cache  # built once per process; parse_args leaves it unchanged
def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pichan",
                                 description="pi-calculus toolchain")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile .pi source to .xir.xml")
    p.add_argument("input")
    p.add_argument("-o", dest="output", required=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="run all static checks")
    p.add_argument("input")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute a .xir.xml program")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)  # None: vm.DEFAULT_MAX_STEPS
    p.add_argument("--trace", choices=["lines", "json"], default="lines")
    p.add_argument("--registry", default="std")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gen-iface", help="generate an extern block from a manifest")
    p.add_argument("input")
    p.add_argument("--alias", required=True)
    p.add_argument("-o", dest="output", required=True)
    p.set_defaults(fn=cmd_geniface)
    return ap


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_arg_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed help, or a usage error
            return EXIT_SYNTAX if exc.code else EXIT_OK
        if getattr(args, "seed", None) is None and args.command == "run":
            text = os.environ.get("PIC_SEED", "0")
            try:
                args.seed = int(text)
            except ValueError:
                print(f"error: PIC_SEED must be an integer, found {text!r}",
                      file=sys.stderr)
                return EXIT_SYNTAX
        if getattr(args, "seed", None) is not None and args.seed < 0:
            print("error: seed must be non-negative", file=sys.stderr)
            return EXIT_SYNTAX
        if getattr(args, "max_steps", None) is not None and args.max_steps < 0:
            print("error: max-steps must be non-negative", file=sys.stderr)
            return EXIT_SYNTAX
        try:
            code = args.fn(args)
            sys.stdout.flush()
        except (OSError, UnicodeError) as exc:
            # only I/O raises these here: an input or output file, or
            # stdout's write or encoding.  Host code's errors become
            # HostFault, manifest I/O ManifestParseError (exit 1), and the
            # tokenizer refuses surrogates, so XIR always encodes.
            try:
                sys.stdout.flush()  # diagnostics printed before a file error
            except OSError:  # stdout is full or closed too: point it at
                # devnull so that the flush at exit cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):  # `| head -1` is no error
                print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
