#!/usr/bin/env python3
"""Walk one fractional schedule through canonicalization, with the trace.

Generates a seeded instance, perturbs its exact schedule into a fractional
one, then prints the swap/fill trace, the finish-time windows before and
after, and the doubled integral extraction with its 2L check.
"""

import argparse
import sys
from fractions import Fraction

from schedreduce import (
    canonicalize,
    extract_integral,
    gen_fractional,
    gen_random_umps,
    makespan,
    solve_umps_exact,
    validate_umps,
    window_table,
)
from schedreduce.serialize import frac_str


def show_windows(fs, label):
    print(f"{label}:")
    for job, (first, last) in sorted(window_table(fs).items()):
        print(f"  job {job}: slots [{first}, {last}]")


def worst_partial_ratio(fs):
    """The largest P_it / t, with its machine i and slot t (ties to the
    larger i, then t), where P_it is the mass placed through slot t by
    machine-i jobs that still have mass in a later slot."""
    home, win = fs.umps_ref.home, window_table(fs)
    return max(
        (sum((x for (job, s), x in fs.mass.items()
              if home[job] == i and s <= t < win[job][1]), start=Fraction(0)) / t, i, t)
        for i in range(1, fs.umps_ref.m + 1)
        for t in range(1, fs.horizon + 1)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--split-prob", default="1/2")
    args = ap.parse_args(argv)

    inst = gen_random_umps(args.n, args.m, Fraction(1, 4), args.seed)
    sched = solve_umps_exact(inst).schedule
    gamma = Fraction(1, 10 * args.n**2)
    fs = gen_fractional(inst, sched, gamma, Fraction(args.split_prob), args.seed)
    print(f"instance: n={inst.n} m={inst.m} edges={len(inst.dag.edges)} "
          f"horizon={fs.horizon} gamma={frac_str(gamma)}")
    show_windows(fs, "windows before")

    trace = []
    canon = canonicalize(fs, trace=trace)
    print(f"trace ({len(trace)} moves):")
    for line in trace:
        print(f"  {line}")
    show_windows(canon, "windows after")
    worst = worst_partial_ratio(canon)
    print(f"max P_it/t = {frac_str(worst[0])} at machine {worst[1]}, "
          f"slot {worst[2]} (bound gamma={frac_str(gamma)})")

    integral = extract_integral(canon)
    feasible = validate_umps(inst, integral).feasible
    print(f"extraction: makespan={frac_str(makespan(integral))} "
          f"<= 2L={2 * fs.horizon}, feasible={feasible}")
    return 0 if feasible else 1


if __name__ == "__main__":
    sys.exit(main())
