"""Digests of what `pichan check`, `compile` and `run` give on a fixed set
of inputs, so that two checkouts can be compared in one command each:

    python tests/digest_outputs.py CHECKOUT_A > a.json
    python tests/digest_outputs.py CHECKOUT_B > b.json
    diff a.json b.json

CHECKOUT is the root of a pichan checkout; the commands run in process
from its `src/`.  The inputs come from this script's own tree, so both
runs see the same ones:
- every case of the benchmark's three pools at seeds 0-2, generated by
  `perfbench/run.py`'s `setup` (read, never written), with each case's
  own `--seed` and `--max-steps`;
- the samples, run at seeds 0-2;
- the fourteen shapes of `tests/deep_inputs.py` at n=50, run with
  `--max-steps 10`;
- the CLI's failure paths: a missing input, `-o` into a missing
  directory, `gen-iface` on the sample manifests and on one that is not
  JSON, a bad `PIC_SEED`, `--seed` or `--max-steps`, an XIR schema error,
  and a stdout that is full or can encode ASCII only.

Everything is written under one temporary directory, whose path is
replaced by a fixed token in every output, so that diagnostics that name a
file compare across checkouts.  stdout is one JSON object: for each input
and command, the sha256 of its exit code, stdout, stderr and the bytes of
the file it wrote.  A command that raises is recorded by the exception's
type and text in place of the exit code.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
SEEDS = (0, 1, 2)
DEEP_N = 50
TOKEN = "<TMP>"


class FullStdout(io.StringIO):
    """A stdout whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class AsciiStdout(io.StringIO):
    """A stdout that can encode ASCII only."""

    def write(self, text):
        text.encode("ascii")
        return super().write(text)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "src" / "pichan" / "cli.py").is_file():
        print(f"digest_outputs: no pichan sources under {checkout / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(TREE / "perfbench"))
    import run as bench  # perfbench/run.py
    from workloads import WORKLOADS

    bench.ROOT = checkout  # setup imports pichan from ROOT / "src"
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def command(key: str, argv: list, written: Path | None = None,
                    stdout=io.StringIO) -> int:
            if written is not None:
                written.unlink(missing_ok=True)
            out, err = stdout(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = mods.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"{type(exc).__name__}: {exc}"
            parts = [str(code), out.getvalue(), err.getvalue(),
                     written.read_text(encoding="utf-8")
                     if written is not None and written.exists() else ""]
            text = json.dumps([p.replace(str(tmp), TOKEN) for p in parts])
            digests[f"{key} {argv[0]}"] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
            return code

        def check_compile_run(key: str, src: Path, runs: list) -> None:
            xir = src.with_suffix(".xir.xml")
            command(key, ["check", str(src)])
            if command(key, ["compile", str(src), "-o", str(xir)], xir) == 0:
                for suffix, flags in runs:
                    command(key + suffix, ["run", str(xir), *flags])

        for name, workload in sorted(WORKLOADS.items()):
            for seed in SEEDS:
                work = tmp / f"{name}-{seed}"
                env = bench.setup(workload, seed, work, None)
                mods = env.mods  # the checkout's modules, which command calls
                for case, path, _ in env.cases:
                    check_compile_run(
                        f"{name}/{seed}/{case.key}", Path(path),
                        [("", ["--seed", str(case.vm_seed),
                               "--max-steps", str(case.max_steps)])])
                shutil.rmtree(work)
        import deep_inputs  # after setup, so it imports the checkout's pichan

        for sample in sorted((TREE / "samples").glob("*.pi")):
            src = tmp / sample.name
            shutil.copy(sample, src)
            check_compile_run(f"samples/{sample.name}", src,
                              [(f"@{s}", ["--seed", str(s)]) for s in SEEDS])
        for shape in deep_inputs.SHAPES:
            src = tmp / f"{shape.__name__}.pi"
            src.write_text(shape(DEEP_N), encoding="utf-8")
            check_compile_run(f"deep/{shape.__name__}", src,
                              [("", ["--max-steps", "10"])])

        # the failure paths; samples/account.pi is compiled above
        account = str(tmp / "account.pi")
        doc = str(tmp / "account.xir.xml")
        missing = str(tmp / "missing")
        nodir = str(tmp / "missing" / "out")
        for argv in (["check", missing], ["compile", missing, "-o", nodir],
                     ["run", missing]):
            command("fail/missing-input", argv)
        command("fail/missing-dir", ["compile", account, "-o", nodir])
        gen = tmp / "gen.pi"
        for manifest in sorted((TREE / "samples").glob("*.manifest.json")):
            shutil.copy(manifest, tmp / manifest.name)
            command(f"samples/{manifest.name}", ["gen-iface", str(
                tmp / manifest.name), "--alias", "A", "-o", str(gen)], gen)
        command("fail/missing-dir", ["gen-iface", str(
            tmp / "account.manifest.json"), "--alias", "A", "-o", nodir])
        (tmp / "bad.json").write_text("{class: A}", encoding="utf-8")
        command("fail/non-json-manifest", ["gen-iface", str(tmp / "bad.json"),
                                           "--alias", "A", "-o", str(gen)], gen)
        with mock.patch.dict(os.environ, PIC_SEED="x"):
            command("fail/PIC_SEED=x", ["run", doc])
        command("fail/seed=-1", ["run", doc, "--seed", "-1"])
        command("fail/max-steps=-1", ["run", doc, "--max-steps", "-1"])
        schema = tmp / "schema.xir.xml"
        schema.write_text(f'<pic version="{mods.xir.XIR_VERSION}"><externs/>'
                          '<process free="x#0"><out subject="7"/></process>'
                          '</pic>', encoding="utf-8")
        command("fail/schema", ["run", str(schema)])
        command("stdout-full", ["check", account], stdout=FullStdout)
        command("stdout-full", ["run", doc], stdout=FullStdout)
        cafe = tmp / "cafe.pi"
        cafe.write_text('x!("caf\u00e9") | x?(y).nil\n', encoding="utf-8")
        check_compile_run("cafe", cafe, [("", [])])
        command("stdout-ascii", ["run", str(tmp / "cafe.xir.xml")],
                stdout=AsciiStdout)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
