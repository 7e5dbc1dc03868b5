#!/usr/bin/env python3
"""Round-trip a corpus directory and summarize the optimum-gap table.

Thin driver over ``sched-reduce bench``: writes the CSV, then prints a
per-bound digest so a quick look tells which lemma a violation (if any)
belongs to.  Exit code follows bench: 0 ok, 1 bound violated, 2 usage
error (no table is written or digested), 3 budget.
"""

import argparse
import csv
import sys
from collections import Counter
from pathlib import Path

from schedreduce import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("corpus_dir")
    ap.add_argument("--out", default="gap_table.csv")
    ap.add_argument("--limits", default="", help=cli.LIMITS_HELP)
    args = ap.parse_args(argv)

    bench_argv = ["bench", args.corpus_dir, "--out", args.out]
    if args.limits:
        bench_argv += ["--limits", args.limits]
    rc = cli.main(bench_argv)
    if rc == 2:  # a usage error: bench wrote no table
        return rc

    with open(args.out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    digest = Counter((r["bound_kind"], r["bound_holds"]) for r in rows)
    for (kind, holds), n in sorted(digest.items()):
        print(f"{kind:>20}  holds={holds:<5}  rows={n}")
    print(f"table written to {Path(args.out).resolve()}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
