"""Spans around calls into pichan's layers, installed from outside the package.

The tracer replaces the public functions each layer offers with wrappers
that record a span: (name, start, end, parent span, op id).  Spans stay in
memory until the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans, so the self times of
all layers add up to the duration of the root `cli.main` spans.

`core.FusionEnv.fused_equal` and `merge` run hundreds of thousands of times
per op; they are counted, not timed, because a span each would swamp the
run.  `core.canonical_key` is not wrapped: no CLI command calls it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" attributes wrap methods
SPANS = (
    ("cli", "main", "cli.main"),
    ("parser", "tokenize", "parser.tokenize"),
    ("cli", "parse_program", "parser.parse"),
    ("cli", "desugar", "parser.desugar"),
    ("cli", "check_sorts", "typecheck.check_sorts"),
    ("cli", "check_protocol_schema", "typecheck.check_protocol_schema"),
    ("cli", "check_extern_usage", "typecheck.check_extern_usage"),
    ("xir", "to_xml", "xir.to_xml"),
    ("xir", "from_xml", "xir.from_xml"),
    ("ifgen", "generate_interface", "ifgen.generate_interface"),
    ("vm", "run", "vm.run"),
    ("vm", "Machine.initialize", "vm.initialize"),
    ("vm", "Machine.enumerate_redexes", "vm.enumerate"),
    ("vm", "Machine.execute", "vm.execute"),
    ("vm", "resolve_externs", "interop.resolve_externs"),
    ("vm", "dispatch_call", "interop.dispatch_call"),
    ("vm", "complete_return", "interop.complete_return"),
)

# self-time metrics reported per op, in this order
SELF_TIMES = (
    ("cli.self_s", "cli.main"),
    ("parser.tokenize_s", "parser.tokenize"),
    ("parser.parse_s", "parser.parse"),
    ("parser.desugar_s", "parser.desugar"),
    ("typecheck.check_sorts_s", "typecheck.check_sorts"),
    ("typecheck.check_protocol_schema_s", "typecheck.check_protocol_schema"),
    ("typecheck.check_extern_usage_s", "typecheck.check_extern_usage"),
    ("xir.to_xml_s", "xir.to_xml"),
    ("xir.from_xml_s", "xir.from_xml"),
    ("vm.run_self_s", "vm.run"),
    ("vm.initialize_s", "vm.initialize"),
    ("vm.enumerate_s", "vm.enumerate"),
    ("vm.execute_s", "vm.execute"),
    ("interop.resolve_externs_s", "interop.resolve_externs"),
    ("interop.dispatch_call_s", "interop.dispatch_call"),
    ("interop.complete_return_s", "interop.complete_return"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self._stack: list = []
        self.op = -1  # -1 while setting up
        self.kinds: dict = {}  # op id -> pichan command
        self.counts = defaultdict(int)
        self.threads_max = 0
        self.nodes_pending = None
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- installation

    def attach(self, mods) -> None:
        """Build wrappers for a freshly imported set of pichan modules."""
        hooks = {
            "parser.tokenize": self._count_tokens,
            "parser.desugar": self._keep_main,
            "typecheck.check_sorts": self._count_diags,
            "typecheck.check_protocol_schema": self._count_diags,
            "typecheck.check_extern_usage": self._count_diags,
            "xir.to_xml": self._count_xir,
            "vm.enumerate": self._count_redexes,
            "vm.execute": self._count_step,
            "interop.dispatch_call": self._count_call,
        }
        self._patches = []
        for module, attr, name in SPANS:
            owner = getattr(mods, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._span(name, original.__func__,
                                                     hooks.get(name)))
                else:
                    wrapper = self._span(name, original, hooks.get(name))
            else:
                original = getattr(owner, attr)
                wrapper = self._span(name, original, hooks.get(name))
            self._patches.append((owner, attr, original, wrapper))
        env = mods.core.FusionEnv
        self._patches.append((env, "fused_equal", env.fused_equal,
                              self._count_fused(env.fused_equal)))
        self._patches.append((env, "merge", env.merge,
                              self._count_calls("core.merge_calls", env.merge)))
        self.core = mods.core

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- wrappers

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result, args)
            return result
        return wrapper

    def _count_calls(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _count_fused(self, fn):
        counts = self.counts

        def fused_equal(env, a, b):
            result = fn(env, a, b)
            counts["core.fused_equal_calls"] += 1
            if result:
                counts["core.fused_equal_true"] += 1
            return result
        return fused_equal

    def _count_tokens(self, result, args):
        self.counts["parser.tokens"] += len(result)

    def _keep_main(self, result, args):
        # sized after the op, outside every span
        self.nodes_pending = result.main

    def _count_diags(self, result, args):
        self.counts["typecheck.diagnostics"] += len(result)

    def _count_xir(self, result, args):
        self.counts["xir.documents"] += 1
        # the generated programs are ASCII, so characters are bytes
        self.counts["xir.bytes"] += len(result)

    def _count_redexes(self, result, args):
        self.counts["vm.enumerate_calls"] += 1
        self.counts["vm.redexes_offered"] += len(result)
        self.threads_max = max(self.threads_max, len(args[0].threads))

    def _count_step(self, result, args):
        self.counts["vm.steps"] += 1

    def _count_call(self, result, args):
        self.counts["interop.host_calls"] += 1

    def begin_op(self, command: str) -> None:
        self.op = len(self.kinds)
        self.kinds[self.op] = command

    def begin_setup(self) -> None:
        self.op = -1

    def after_op(self) -> None:
        if self.nodes_pending is not None:
            self.counts["parser.desugared"] += 1
            self.counts["parser.nodes"] += self.core.process_size(self.nodes_pending)
            self.nodes_pending = None

    # -- results

    def self_times(self) -> tuple:
        """Self seconds by span name, for setup spans (op -1) and op spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        setup, ops = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            (setup if op < 0 else ops)[name] += end - start - child[i]
        return setup, ops

    def command_time(self, command: str) -> float:
        """Total duration of the traced `pichan <command>` ops."""
        return sum(end - start for (n, start, end, _, op) in self.spans
                   if n == "cli.main" and self.kinds.get(op) == command)

    def metrics(self, op_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics.  Self times are per op (any command), counts
        per op of the command that makes them; `op_wall` is the traced ops'
        wall time as the benchmark measured it, `untraced_wall` the same ops
        untraced.  A traced run sets up once."""
        setup, selft = self.self_times()
        c = self.counts
        ops = max(len(self.kinds), 1)
        compiles = max(sum(1 for k in self.kinds.values() if k == "compile"), 1)
        runs = max(sum(1 for k in self.kinds.values() if k == "run"), 1)
        out = {}
        for metric, span in SELF_TIMES:
            out[metric] = (selft[span] / ops, "s/op")
        tokenize = selft["parser.tokenize"]
        out["parser.tokens_per_s"] = (c["parser.tokens"] / tokenize
                                      if tokenize else 0.0, "1/s")
        out["parser.nodes"] = (c["parser.nodes"] / max(c["parser.desugared"], 1),
                               "nodes")
        out["typecheck.diagnostics"] = (c["typecheck.diagnostics"] / compiles,
                                        "count/compile")
        out["xir.bytes"] = (c["xir.bytes"] / max(c["xir.documents"], 1), "B")
        out["ifgen.generate_interface_s"] = (setup["ifgen.generate_interface"],
                                             "s/setup")
        run_total = self.command_time("run")
        out["vm.enumerate_share"] = (selft["vm.enumerate"] / run_total
                                     if run_total else 0.0, "ratio")
        out["vm.steps"] = (c["vm.steps"] / runs, "count/run")
        offered = c["vm.redexes_offered"]
        out["vm.redexes_offered_mean"] = (
            offered / max(c["vm.enumerate_calls"], 1), "count")
        out["vm.useful_redex_ratio"] = (c["vm.steps"] / offered
                                        if offered else 0.0, "ratio")
        out["vm.threads_max"] = (self.threads_max, "count")
        calls = c["core.fused_equal_calls"]
        out["core.fused_equal_calls"] = (calls / runs, "count/run")
        out["core.fused_equal_true_ratio"] = (
            c["core.fused_equal_true"] / calls if calls else 0.0, "ratio")
        out["core.merge_calls"] = (c["core.merge_calls"] / runs, "count/run")
        out["interop.host_calls"] = (c["interop.host_calls"] / runs, "count/run")
        out["trace_overhead"] = (op_wall / untraced_wall
                                 if untraced_wall else 0.0, "ratio")
        accounted = sum(selft.values())
        out["trace.unaccounted_share"] = (1 - accounted / op_wall
                                          if op_wall else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
