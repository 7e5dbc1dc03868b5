#!/usr/bin/env python3
"""Time the unit-length DP of ``solve_umps_exact`` on the paper-family probes.

Each probe builds one instance, solves it once and prints one line
``<probe> states=<kept states> optimum=<rounds> proven=<flag> cpu_s=<seconds>``,
where ``cpu_s`` is the process CPU time of the solve alone.  The probes
are k-partite YES instances through ``kpartite_to_umps`` (n = 12, k = 4,
seeds 1 and 2; n = 15, k = 5, seed 1; n = 16, k = 4, seed 1) and the
layered 2x16 instances ``gen_layered_umps(2, 16, 1/2, s)``, seeds 0-2.
Every probe runs with no job cap and a 400,000-state cap.

    PYTHONPATH=src python scripts/unit_dp_probe.py [--probe NAME ...]

The state counts are fixed by the search; the times depend on the host.
"""

import argparse
import time
from fractions import Fraction

from schedreduce import (
    SolveLimits,
    gen_kpartite_yes,
    gen_layered_umps,
    kpartite_to_umps,
    solve_umps_exact,
)

PROBES = {
    "yes-12-4-s1": lambda: kpartite_to_umps(gen_kpartite_yes(12, 4, 1)[0]),
    "yes-12-4-s2": lambda: kpartite_to_umps(gen_kpartite_yes(12, 4, 2)[0]),
    "yes-15-5-s1": lambda: kpartite_to_umps(gen_kpartite_yes(15, 5, 1)[0]),
    "yes-16-4-s1": lambda: kpartite_to_umps(gen_kpartite_yes(16, 4, 1)[0]),
    **{f"layered-2x16-s{s}": (lambda s=s: gen_layered_umps(2, 16, Fraction(1, 2), s))
       for s in range(3)},
}
STATE_CAP = 400_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="append", choices=sorted(PROBES),
                        help="run only this probe (repeatable; default: all)")
    args = parser.parse_args(argv)
    for name in args.probe or PROBES:
        inst = PROBES[name]()
        lim = SolveLimits(max_jobs=inst.n, max_states=STATE_CAP)
        t0 = time.process_time()
        result = solve_umps_exact(inst, lim)
        cpu = time.process_time() - t0
        print(f"{name} states={result.states_explored} optimum={result.optimum} "
              f"proven={result.proven_optimal} cpu_s={cpu:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
