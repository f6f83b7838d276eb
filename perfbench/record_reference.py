"""Record the reference digests that ``run.py`` compares against.

    python3 perfbench/record_reference.py

Runs the first units of every workload for workload seed 0 (the default of
``run.py``), untimed, and writes each unit's digest (the study's
``log_hash``, or a hash of the oracle fraction) to
``reference_digests.json``. Enough units are recorded to cover a run on a
machine several times faster than the one that recorded them. A mismatch
is reported by the benchmark but does not fail it: a correctness fix may
change logs on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, RUNS_DIR, import_program
from workloads import WORKLOADS

UNITS = {"study-uniform": 200, "study-model": 2, "oracle-learn": 60}


def main() -> int:
    pcar = import_program()
    RUNS_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR))
    digests = {}
    try:
        for name, count in UNITS.items():
            wl = WORKLOADS[name](pcar, 0, work_dir)
            wl.setup()
            digests[name] = {}
            for index in range(count):
                outcome = wl.attempt(wl.unit(index))
                if outcome.error:
                    print(f"{name} unit {index}: {outcome.error}", file=sys.stderr)
                    return 1
                digests[name][outcome.unit.key] = outcome.digest
            print(f"{name}: {count} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
