"""Certification benchmark for schedreduce.

Runs one workload's seeded corpus through the package layers in one
single-threaded process, checks every output, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``sandwich``: the delay gadget round trip through the commdelay solver;
* ``related``: the speed-scaling gadget materialized at kappa = 2 through
  the related-machines solver;
* ``rounding``: fractional schedules through the unit DP,
  canonicalization and extraction.

``--seconds`` sets the corpus size: each workload certifies a fixed
number of distinct instances per second of budget (calibrated on a
2-core x86 machine, Python 3.11), each exactly once, so the same seed
and budget always certify the same instances and print the same counter
block.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time (the
median of several fresh interpreters that import the package and build
the corpus), throughput, per-instance latency p50/p90, the share of
exact-solver calls proven optimal within the state cap, the share of
instances that passed every check, and peak RSS.  The timed ones are
given at a nominal machine speed, measured by a reference kernel run
between instances (see ``REF_NOMINAL_S``), so that a shared host's
changing speed moves them little; the run record keeps the raw times.
With ``--trace 1`` the pass is run untraced and then traced, and the
metrics are per-layer busy times and counts from spans recorded around
every package call; spans are written to ``perfbench/out/``.

Source optima are compared with the independent oracle in
``tests/oracle.py`` after the timed pass, where the sources are small
enough for it (``sandwich`` and ``related``).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5

# The reference kernel: a fixed piece of pure-Python work (Fraction
# arithmetic, tuple keys, dict updates, a sort), the kind of work the
# package does, that uses nothing of the package.  It runs between
# instances, outside their timed region, about every REF_EVERY_S seconds,
# so its times sample how fast the machine ran during the pass.  Each
# timed interval (an instance, a set-up probe) is scaled by REF_NOMINAL_S
# over the mean kernel time within REF_WINDOW_S of it: the timed metrics
# read as if the machine had run the kernel in REF_NOMINAL_S throughout
# (about its median on an unloaded 2-core x86 machine, Python 3.11).  A
# shared host that slows every process alike then moves them little,
# while a change in the package moves them in full.  The record file
# keeps the raw times too.
REF_ITERS = 800
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.25
REF_NOMINAL_S = 0.0022


@dataclass(frozen=True)
class Workload:
    corpus: object       # (seed, count, tracer) -> list of cases
    certify: object      # (case, tally, tracer) -> per-case result
    per_second: int      # instances certified per second of --seconds
    block: int           # corpus size is a multiple of this (one stratum cycle)


def _workloads():
    import workloads as w

    return {
        "sandwich": Workload(w.sandwich_corpus, w.certify_sandwich, 48,
                             len(w.SANDWICH_SHAPES)),
        "related": Workload(w.related_corpus, w.certify_related, 16,
                            len(w.RELATED_STRATA) * len(w.RELATED_PROBS)),
        "rounding": Workload(w.rounding_corpus, w.certify_rounding, 17,
                             len(w.ROUNDING_SHAPES)),
    }


class SpeedLog:
    """Reference-kernel samples of one pass, as (midpoint, seconds)."""

    def __init__(self):
        self.mids, self.times = [], []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        return t1

    def scale(self, start, end):
        """REF_NOMINAL_S over the mean kernel time near [start, end]:
        below 1 when the machine ran slower than nominal then."""
        lo = bisect.bisect_left(self.mids, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + REF_WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.mids), hi + 1)
        return REF_NOMINAL_S / statistics.fmean(self.times[lo:hi])


@dataclass
class Pass:
    tally: object
    results: list
    latencies: list      # seconds per instance
    scaled: list         # seconds per instance, at nominal machine speed
    setups: list         # seconds per set-up probe
    scaled_setups: list  # the same at nominal machine speed
    speed: SpeedLog

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def scaled_wall(self):
        return sum(self.scaled)


def corpus_size(spec, seconds):
    """At least 100 instances, so p90 has at least ten samples beyond it."""
    want = max(100, spec.per_second * seconds)
    return -(-want // spec.block) * spec.block


# ---------------------------------------------------------------------------
# passes


def reference_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(REF_ITERS):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc + q if i % 3 else acc - q
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + 1
    return acc, sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))


def certify_pass(cases, certify, tracer, setup_cmd=None):
    """Certify every case once.

    When ``setup_cmd`` is given, the set-up probes run between instances,
    spread evenly over the pass and outside its timed region, so they
    sample the machine at different moments.
    """
    from workloads import Tally

    tally = Tally(tracer)
    results, spans, setup_spans = [], [], []
    speed = SpeedLog()
    last_ref = time.perf_counter()
    probes = [k * len(cases) // SETUP_REPEATS for k in range(SETUP_REPEATS)] if setup_cmd else []
    for iid, case in enumerate(cases):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            last_ref = speed.sample()
        for _ in range(probes.count(iid)):
            speed.sample()
            setup_spans.append(time_setup(setup_cmd))
            last_ref = speed.sample()
        tally.begin(iid)
        t0 = time.perf_counter()
        with tracer.instance(iid):
            try:
                results.append(certify(case, tally, tracer))
            except Exception as exc:  # one bad instance must not end the pass
                tally.check(f"raised.{type(exc).__name__}", False)
                results.append(None)
                print(f"instance {iid}: {type(exc).__name__}: {exc}", file=sys.stderr)
        spans.append((t0, time.perf_counter()))
    speed.sample()
    return Pass(tally, results,
                [t1 - t0 for t0, t1 in spans],
                [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans],
                [t1 - t0 for t0, t1 in setup_spans],
                [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in setup_spans],
                speed)


def oracle_checks(name, cases, results, tally):
    """Untimed: compare source optima with the exhaustive oracle, and for
    ``related`` record the flat optimum against the source optimum."""
    from oracle import oracle_umps_optimum
    from schedreduce import solve_umps_exact

    if name == "rounding":
        return  # 24..64-job sources are beyond the exhaustive oracle
    for iid, (inst, res) in enumerate(zip(cases, results)):
        if res is None:
            continue
        tally.iid = iid
        if name == "sandwich":
            if res.proven_optimal:
                tally.check("oracle.source_optimum",
                            res.optimum == oracle_umps_optimum(inst))
            continue
        src = solve_umps_exact(inst)
        tally.check("oracle.source_optimum", src.optimum == oracle_umps_optimum(inst))
        if not res.proven_optimal:
            kind = "unproven"
        elif res.optimum == src.optimum:
            kind = "equal"
        else:
            kind = "above" if res.optimum > src.optimum else "below"
        tally.add(f"related.flat_vs_source.{kind}")


def setup_command(args):
    return [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]


def time_setup(cmd):
    """Start and end of a fresh interpreter that imports the package and
    builds the workload's corpus."""
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return t0, time.perf_counter()


# ---------------------------------------------------------------------------
# metrics


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    """Timed metrics at nominal machine speed (see REF_NOMINAL_S)."""
    deciles = statistics.quantiles(run.scaled, n=10)
    tally = run.tally
    calls = tally.counts.get("solver.calls", 0)
    proven = tally.counts.get("solver.proven", 0)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _m(statistics.median(run.scaled_setups), "s"),
        "instances_per_s": _m(tally.attempted / run.scaled_wall, "1/s"),
        "latency_p50_ms": _m(deciles[4] * 1000, "ms"),
        "latency_p90_ms": _m(deciles[8] * 1000, "ms"),
        "proven_frac": _m(proven / calls if calls else 0.0, "ratio"),
        "certified_frac": _m(1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": _m(rss_kb / 1024, "MB"),
    }


def per_layer(tracer, tally, gen_busy, overhead_frac):
    from workloads import FIXPOINT

    busy = tracer.busy_ms()
    counts = tally.counts

    def ms(name):
        return _m(busy.get(name, 0.0), "ms")

    def count(name):
        return _m(counts.get(name, 0), "count")

    def us_per_state(layer):
        states = counts.get(f"{layer}.states", 0)
        return _m(busy.get(layer, 0.0) * 1000 / states if states else 0.0, "us")

    out = {}
    for layer in ("solvers.commdelay", "solvers.related", "solvers.umps"):
        out[f"{layer}.busy_ms"] = ms(layer)
        out[f"{layer}.states"] = count(f"{layer}.states")
        out[f"{layer}.capped"] = count(f"{layer}.capped")
    out["solvers.commdelay.us_per_state"] = us_per_state("solvers.commdelay")
    out["solvers.related.us_per_state"] = us_per_state("solvers.related")
    out["solvers.related.max_n_proven"] = count("solvers.related.max_n_proven")
    for stage in ("strip", "canonicalize", "greedy", "partial_load", "extract"):
        out[f"rounding.{stage}.busy_ms"] = ms(f"rounding.{stage}")
    out["rounding.canonicalize.moves"] = count("rounding.canonicalize.moves")
    out["rounding.fixpoint_mismatch"] = _m(tally.failures.get(FIXPOINT, 0), "count")
    out["reductions.commdelay.busy_ms"] = ms("reductions.commdelay")
    out["reductions.related.busy_ms"] = ms("reductions.related")
    out["model.validate.busy_ms"] = ms("model.validate")
    out["model.validate.calls"] = count("model.validate.calls")
    out["serialize.busy_ms"] = ms("serialize")
    out["serialize.bytes"] = _m(counts.get("serialize.bytes", 0), "bytes")
    out["generators.busy_ms"] = _m(gen_busy, "ms")
    out["generators.gen_fractional.busy_ms"] = ms("generators.gen_fractional")
    out["trace.overhead_frac"] = _m(overhead_frac, "ratio")
    return out


def environment():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": sha}


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["sandwich", "related", "rounding"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the corpus and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "schedreduce" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from tracing import NullTracer, Tracer

    spec = _workloads()[args.workload]
    count = corpus_size(spec, args.seconds)
    if args.setup_only:
        spec.corpus(args.seed, count, NullTracer())
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    cases = spec.corpus(args.seed, count, tracer)
    gen_busy = tracer.busy_ms().get("generators", 0.0) if args.trace else 0.0

    setup_cmd = None if args.trace else setup_command(args)
    untraced = certify_pass(cases, spec.certify, NullTracer(), setup_cmd)
    run = untraced
    if args.trace:
        run = certify_pass(cases, spec.certify, tracer)
    tally = run.tally
    oracle_checks(args.workload, cases, run.results, tally)

    if args.trace:
        overhead = run.scaled_wall / untraced.scaled_wall - 1
        metrics = per_layer(tracer, tally, gen_busy, overhead)
    else:
        metrics = end_to_end(run)

    from workloads import FIXPOINT

    guarantees_broken = {k: v for k, v in tally.failures.items() if k != FIXPOINT}
    block = tally.block()
    block_text = json.dumps(block, sort_keys=True)
    block_sha = hashlib.sha256(block_text.encode("utf-8")).hexdigest()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "counters": block, "counters_sha256": block_sha,
        "wall_s": run.wall, "latencies_s": run.latencies, "setups_s": run.setups,
        "scaled_latencies_s": run.scaled, "scaled_setups_s": run.scaled_setups,
        "reference_s": run.speed.times, "slowdown": run.wall / run.scaled_wall,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  instances {tally.attempted}  "
          f"trace {args.trace}  wall {run.wall:.2f} s  slowdown {run.wall / run.scaled_wall:.3f}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"counters sha256 {block_sha}")
    print(f"counters {block_text}")
    result = {
        "correct": not guarantees_broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
