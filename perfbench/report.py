"""Run every workload and print one report.

    python3 perfbench/report.py --seed 1 --seconds 20
    python3 perfbench/report.py --seed 1 --seconds 20 --write-baseline perfbench/baseline.json

For each workload this runs ``run.py`` twice untraced and once traced,
all with the same seed, one process at a time.  It prints every
end-to-end metric of both untraced runs with its unit, the per-layer
metrics of the traced run, and the sha256 of each run's deterministic
counter block; it exits 1 if the blocks of one workload differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import environment

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sandwich", "related", "rounding")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, text=True, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    sha = next(line.split()[-1] for line in lines if line.startswith("counters sha256"))
    block = json.loads(next(line[len("counters "):] for line in lines
                            if line.startswith("counters {")))
    return result, sha, block


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--write-baseline", metavar="PATH")
    args = p.parse_args(argv)

    env = environment()
    print(f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha']}  "
          f"seed {args.seed}  seconds {args.seconds}")
    baseline = {"environment": env, "seed": args.seed, "seconds": args.seconds,
                "workloads": {}}
    all_same = True
    for workload in WORKLOADS:
        first, sha1, block = run_once(workload, args.seed, args.seconds, 0)
        second, sha2, _ = run_once(workload, args.seed, args.seconds, 0)
        traced, sha3, _ = run_once(workload, args.seed, args.seconds, 1)
        same = sha1 == sha2 == sha3
        all_same = all_same and same
        print(f"\n== {workload}: correct {first['correct']}  attempted {first['attempted']}  "
              f"failed {first['failed']}")
        print(f"  {'end-to-end metric':<36} {'run 1':>14} {'run 2':>14}  unit")
        for name, m in first["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} "
                  f"{second['metrics'][name]['value']:>14.6g}  {m['unit']}")
        print(f"  {'per-layer metric (traced run)':<36} {'value':>14}  unit")
        for name, m in traced["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g}  {m['unit']}")
        print(f"  counters sha256 run 1 {sha1}")
        print(f"  counters sha256 run 2 {sha2}")
        print(f"  counters sha256 trace {sha3}")
        print(f"  counter blocks {'byte-identical' if same else 'DIFFER'}")
        baseline["workloads"][workload] = {
            "correct": first["correct"], "attempted": first["attempted"],
            "failed": first["failed"],
            "end_to_end": [first["metrics"], second["metrics"]],
            "per_layer": traced["metrics"],
            "counters": block, "counters_sha256": sha1,
        }
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
