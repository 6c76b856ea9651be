"""Record the run digests of every case of every workload at the default seed.

    python3 perfbench/record_digests.py

A digest is the sha256 of one `pichan run`'s (trace lines, status, exit
code).  run.py compares against these when it runs the default seed and
counts every difference in `trace_changed`: the README's determinism
contract as a gate.  Re-record only for a deliberate change of semantics.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    work = run.ROOT / ".perfbench" / "record"
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            env = run.setup(workload, DEFAULT_SEED, work, None)
            tally = run.Tally({})
            for item in env.cases:
                run.run_case(env, workload, tally, item)
            if tally.failures:
                print("\n".join(tally.failures), file=sys.stderr)
                return 1
            digests[name] = {str(k): d for k, d in sorted(tally.seen.items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "golden_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{path.name}: " + ", ".join(f"{n} {len(d)}" for n, d in digests.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
