#!/usr/bin/env python3
"""Print the counter-block hash of every benchmark workload on seeds 1 and 7.

Runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0`` of
the checkout this script sits in, one subprocess at a time, and prints
one line ``<workload> <seed> <counters sha256>`` per run.  Two checkouts
whose lines match certify the same instances with the same counters, so
a change that claims to keep every output can be checked by running this
script in each and comparing the six lines.  Exit code 0 when every run
printed a hash, 1 when a run failed or printed none.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sandwich", "related", "rounding")
SEEDS = (1, 7)
HASH_LINE = re.compile(r"^counters sha256 ([0-9a-f]{64})$", re.MULTILINE)


def main() -> int:
    ok = True
    for seed in SEEDS:
        for workload in WORKLOADS:
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "20", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            found = HASH_LINE.search(run.stdout)
            if run.returncode != 0 or found is None:
                print(f"{workload} {seed} failed (exit {run.returncode})", flush=True)
                sys.stderr.write(run.stderr[-2000:])
                ok = False
            else:
                print(f"{workload} {seed} {found.group(1)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
