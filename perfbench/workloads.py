"""Seeded corpora and the per-instance certification pipelines.

Each workload has a corpus function, which turns ``(seed, count)`` into
source instances through the package generators only, and a certify
function, which runs one instance through the package layers in the
order the ``roundtrip`` command uses and checks every output.  Checks
count failures in a :class:`Tally`; they never abort the pass.

All counts a pass produces (search states, capped solver calls,
canonicalization moves, serialized bytes, check failures, and a digest
of every serialized output) depend only on the instances, so two passes
over the same corpus give byte-identical counter blocks.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from schedreduce import (
    SolveLimits,
    backward_map_commdelay,
    canonicalize,
    extract_integral,
    forward_map_commdelay,
    forward_map_related,
    gen_fractional,
    gen_layered_umps,
    gen_random_umps,
    greedy_canonical,
    makespan,
    materialize_related,
    partial_load_bound_holds,
    solve_commdelay_exact,
    solve_related_exact,
    solve_umps_exact,
    strip_misplaced,
    umps_to_commdelay,
    umps_to_related,
    validate_commdelay,
    validate_related,
    validate_umps,
)
from schedreduce.serialize import dump_canonical, from_obj, to_obj

F = Fraction
NEVER = 1e9  # seconds: the time budget must never trip, so runs repeat exactly

# The one named check that certifies no promised bound: the documented
# claim that the swap/fill fixpoint equals the greedy construction.  Its
# failures count in ``failed`` but leave ``correct`` true.
FIXPOINT = "rounding.fixpoint"


class Tally:
    """Deterministic counters and check failures of one pass."""

    def __init__(self, tracer):
        self.tr = tracer
        self.counts = {}
        self.failures = {}
        self.attempted = 0
        self.failed_ids = set()
        self.iid = None
        self.digest = hashlib.sha256()

    def add(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def check(self, name, ok):
        """Record a named check of the current instance; never raises."""
        if not ok:
            self.failed_ids.add(self.iid)
            self.failures[name] = self.failures.get(name, 0) + 1
        return ok

    def begin(self, iid):
        self.attempted += 1
        self.iid = iid

    @property
    def failed(self):
        return len(self.failed_ids)

    def solver(self, layer, result, n):
        self.add("solver.calls")
        self.add(f"{layer}.calls")
        self.add(f"{layer}.states", result.states_explored)
        if result.proven_optimal:
            self.add("solver.proven")
            key = f"{layer}.max_n_proven"
            self.counts[key] = max(self.counts.get(key, 0), n)
        else:
            self.add(f"{layer}.capped")

    def validate(self, fn, inst, sched):
        self.add("model.validate.calls")
        return self.tr.call("model.validate", fn, inst, sched).feasible

    def serialize(self, value):
        """Round-trip ``value`` through canonical JSON in memory, as the
        CLI's write and read would, and check it comes back equal."""
        text, back = self.tr.call("serialize", _roundtrip, value)
        data = text.encode("utf-8")
        self.add("serialize.bytes", len(data))
        self.digest.update(data)
        self.check("serialize.roundtrip", back == value)

    def block(self) -> dict:
        """The deterministic counter block."""
        return {
            "attempted": self.attempted,
            "counts": dict(sorted(self.counts.items())),
            "failed": self.failed,
            "failures": dict(sorted(self.failures.items())),
            "outputs_sha256": self.digest.hexdigest(),
        }


def _roundtrip(value):
    text = dump_canonical(to_obj(value))
    return text, from_obj(json.loads(text))


def _instance_seed(seed, k):
    return seed * 1_000_003 + k


# ---------------------------------------------------------------------------
# sandwich: the delay gadget round trip

# The cap leaves about one commdelay search in six unproven, so p90 is the
# cost of a capped search instead of whichever rare instance is hardest;
# a sandwich with an unproven side is checked as upper bounds only.
SANDWICH_LIMITS = SolveLimits(max_jobs=12, max_states=200, time_budget=NEVER)

# (family, a, b, max_length, edge_prob): random is (n, m), layered is
# (layers, per_layer); n <= 8 and m in 2..3 throughout
SANDWICH_SHAPES = tuple(
    [("random", n, m, length, p)
     for n in (6, 7, 8) for m in (2, 3) for length in (1, 3) for p in ("1/4", "1/2")]
    + [("layered", layers, width, 1, p)
       for layers, width in ((2, 3), (3, 2), (2, 4)) for p in ("1/4", "1/2")]
)


def sandwich_corpus(seed, count, tr):
    out = []
    for k in range(count):
        family, a, b, length, p = SANDWICH_SHAPES[k % len(SANDWICH_SHAPES)]
        s = _instance_seed(seed, k)
        if family == "random":
            inst = tr.call("generators", gen_random_umps, a, b, F(p), s, max_length=length)
        else:
            inst = tr.call("generators", gen_layered_umps, a, b, F(p), s)
        out.append(inst)
    return out


def certify_sandwich(inst, tally, tr):
    lim = SANDWICH_LIMITS
    art = tr.call("reductions.commdelay", umps_to_commdelay, inst)
    src = tr.call("solvers.umps", solve_umps_exact, inst, lim)
    tally.solver("solvers.umps", src, inst.n)
    tgt = tr.call("solvers.commdelay", solve_commdelay_exact, art.output, lim)
    tally.solver("solvers.commdelay", tgt, art.output.n_total)
    tally.check("solvers.umps.witness",
                tally.validate(validate_umps, inst, src.schedule)
                and makespan(src.schedule) == src.optimum)
    tally.check("solvers.commdelay.witness",
                tally.validate(validate_commdelay, art.output, tgt.schedule)
                and makespan(tgt.schedule) == tgt.optimum)
    fwd = tr.call("reductions.commdelay", forward_map_commdelay, art, src.schedule)
    tally.check("sandwich.forward_l_plus_1",
                makespan(fwd) == src.optimum + 1
                and tally.validate(validate_commdelay, art.output, fwd))
    back = tr.call("reductions.commdelay", backward_map_commdelay, art, tgt.schedule)
    tally.check("sandwich.backward_sound",
                makespan(back) <= tgt.optimum
                and tally.validate(validate_umps, inst, back))
    if src.proven_optimal and tgt.proven_optimal:
        holds = src.optimum <= tgt.optimum <= src.optimum + 1
        tally.add("sandwich.gap_one", int(tgt.optimum == src.optimum + 1))
    else:
        # unproven optima are upper bounds: only a proven source floor
        # beaten by a feasible target schedule falsifies the sandwich
        holds = not (src.proven_optimal and tgt.optimum < src.optimum)
    tally.check("sandwich.bound", holds)
    for value in (inst, art.output, src.schedule, tgt.schedule, fwd, back):
        tally.serialize(value)
    return src


# ---------------------------------------------------------------------------
# related: the speed-scaling gadget materialized at kappa = 2

RELATED_KAPPA = 2
# The cap proves about half the searches, so proven_frac can move both ways.
RELATED_LIMITS = SolveLimits(max_jobs=10, max_states=1_500, time_budget=NEVER)

# Two home machines become 4 + 1 machines at kappa = 2; a source with a
# jobs on machine 1 and b on machine 2 becomes 4a + b flat jobs.  One
# stratum cycle lists flat job counts, weighted toward the sizes the
# state cap can still prove; SOURCE_SIZES gives the source job counts
# that can produce each flat count.
RELATED_STRATA = (6, 6, 6, 7, 7, 8, 9, 10)
RELATED_SOURCE_SIZES = {6: (3, 6), 7: (4, 7), 8: (5,), 9: (6, 3), 10: (7, 4)}
RELATED_PROBS = ("1/4", "1/2")


def _flat_size(inst):
    a = len(inst.jobs_on(1))
    return 4 * a + (inst.n - a)


def related_corpus(seed, count, tr):
    """Draw sources until each stratum slot is filled by a source with
    exactly that flat size; duplicates within the run are skipped."""
    out, seen = [], set()
    draw = 0
    for k in range(count):
        flat = RELATED_STRATA[k % len(RELATED_STRATA)]
        sizes = RELATED_SOURCE_SIZES[flat]
        p = RELATED_PROBS[(k // len(RELATED_STRATA)) % len(RELATED_PROBS)]
        while True:
            n = sizes[draw % len(sizes)]
            inst = tr.call("generators", gen_random_umps, n, 2, F(p),
                           _instance_seed(seed, draw))
            draw += 1
            key = (tuple(sorted(inst.home.items())), inst.dag.edges)
            if _flat_size(inst) == flat and key not in seen:
                seen.add(key)
                out.append(inst)
                break
    return out


def certify_related(inst, tally, tr):
    art = tr.call("reductions.related", umps_to_related, inst,
                  kappa_override=RELATED_KAPPA)
    flat, _, _ = tr.call("reductions.related", materialize_related, art.output)
    res = tr.call("solvers.related", solve_related_exact, flat, RELATED_LIMITS)
    tally.solver("solvers.related", res, flat.n)
    tally.check("related.feasible",
                tally.validate(validate_related, flat, res.schedule)
                and makespan(res.schedule) == res.optimum)
    tally.serialize(art.output)
    tally.serialize(res.schedule)
    return res


# ---------------------------------------------------------------------------
# rounding: fractional schedules through canonicalization and extraction

# A capped unit DP reports states_explored = 0, so solvers.umps.capped is
# the counter that shows it.
ROUNDING_LIMITS = SolveLimits(max_jobs=64, max_states=20_000, time_budget=NEVER)
ROUNDING_SPLIT = F(1, 2)

# (family, a, b, edge_prob): random is (n, m), layered is (layers,
# per_layer); n in 24..64 and m in 2..4 throughout.  The unit DP stays
# small on these, except on the wide two-layer shape, where it hits the
# state cap and the greedy schedule is rounded instead.
ROUNDING_SHAPES = tuple(
    [("random", n, m, p)
     for n, m in ((24, 2), (32, 3), (40, 4), (48, 2), (56, 3), (64, 4))
     for p in ("1/4", "1/3")]
    + [("layered", 3, 8, "1/2"), ("layered", 4, 8, "1/2"), ("layered", 4, 8, "2/3"),
       ("layered", 2, 16, "1/2")]
)


def rounding_corpus(seed, count, tr):
    out = []
    for k in range(count):
        family, a, b, p = ROUNDING_SHAPES[k % len(ROUNDING_SHAPES)]
        s = _instance_seed(seed, k)
        if family == "random":
            inst = tr.call("generators", gen_random_umps, a, b, F(p), s)
        else:
            inst = tr.call("generators", gen_layered_umps, a, b, F(p), s)
        out.append((inst, s))
    return out


def _at_most_two_per_slot(inst, fs):
    per_slot = {}
    for job, slot in fs.mass:
        key = (inst.home[job], slot)
        per_slot[key] = per_slot.get(key, 0) + 1
    return all(count <= 2 for count in per_slot.values())


def certify_rounding(case, tally, tr):
    inst, s = case
    src = tr.call("solvers.umps", solve_umps_exact, inst, ROUNDING_LIMITS)
    tally.solver("solvers.umps", src, inst.n)
    tally.check("solvers.umps.witness",
                tally.validate(validate_umps, inst, src.schedule)
                and makespan(src.schedule) == src.optimum)
    gamma = F(1, 10 * inst.n * inst.n)
    fs = tr.call("generators.gen_fractional", gen_fractional,
                 inst, src.schedule, gamma, ROUNDING_SPLIT, s)
    moves = []
    canon = tr.call("rounding.canonicalize", canonicalize, fs, moves)
    greedy = tr.call("rounding.greedy", greedy_canonical, fs)
    tally.check(FIXPOINT, canon == greedy)
    tally.check("rounding.partial_load",
                tr.call("rounding.partial_load", partial_load_bound_holds, canon))
    tally.check("rounding.two_per_slot", _at_most_two_per_slot(inst, canon))
    ext = tr.call("rounding.extract", extract_integral, canon)
    tally.check("rounding.extract_2l",
                makespan(ext) <= 2 * fs.horizon
                and tally.validate(validate_umps, inst, ext))

    # the default-kappa grouped path, as the related roundtrip runs it
    art = tr.call("reductions.related", umps_to_related, inst)
    gs = tr.call("reductions.related", forward_map_related, art, src.schedule)
    stripped = tr.call("rounding.strip", strip_misplaced, art, gs)
    canon2 = tr.call("rounding.canonicalize", canonicalize, stripped, moves)
    ext2 = tr.call("rounding.extract", extract_integral, canon2)
    tally.check("rounding.grouped_2l",
                makespan(ext2) <= 2 * src.optimum
                and tally.validate(validate_umps, inst, ext2))
    tally.add("rounding.canonicalize.moves", len(moves))
    for value in (inst, fs, canon, ext, ext2):
        tally.serialize(value)
    return src
