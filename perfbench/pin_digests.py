"""Pin the stdout digests of every call the default seed makes.

    python3 perfbench/pin_digests.py

Run from the root of a source checkout whose outputs are known good; it
runs each distinct request of each workload once, checks it, and rewrites
digests.json.  run.py then fails any default-seed run whose stdout bytes
differ from these, which enforces byte-identical CLI output across commits.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import inputs
from run import DIGESTS, WORK, WORKLOADS, Runner, build_requests


def main() -> int:
    pinned: dict[str, dict[str, str]] = {}
    work = WORK / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            runner = Runner(work, time.monotonic() + 600)
            pinned[workload] = {}
            for request in build_requests(workload, inputs.DEFAULT_SEED, work):
                outcome = runner.run(request)
                if outcome.error:
                    print(f"{request.key}: {outcome.error}; nothing written", file=sys.stderr)
                    return 1
                for i, out in enumerate(outcome.stdouts):
                    pinned[workload][f"{request.key}#{i}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in pinned.values())} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
