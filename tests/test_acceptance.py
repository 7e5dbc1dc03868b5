"""End-to-end acceptance gates.

Each test certifies one constructive guarantee at desk scale over a seeded
corpus and emits a single PASS/FAIL line on the real stdout (bypassing
capture) so a plain pytest run always shows the ten verdicts.  Corpora are
fixed by explicit seed grids, never by randomness at collection time.
"""

import time
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_delays
from oracle import (
    oracle_commdelay_optimum,
    oracle_partial_load,
    oracle_related_optimum,
    oracle_umps_optimum,
)
from schedreduce import (
    CommDelayInstance,
    SolveLimits,
    backward_map_commdelay,
    canonicalize,
    cli,
    extract_integral,
    forward_map_commdelay,
    forward_map_related,
    gen_kpartite_dense,
    gen_kpartite_yes,
    gen_fractional,
    gen_layered_umps,
    gen_random_umps,
    greedy_canonical,
    kpartite_to_umps,
    kpartite_yes_schedule,
    list_schedule_commdelay,
    makespan,
    materialize_grouped_schedule,
    materialize_related,
    solve_commdelay_exact,
    solve_related_exact,
    solve_umps_exact,
    umps_to_commdelay,
    umps_to_related,
    validate_commdelay,
    validate_related,
    validate_umps,
    verify_no_property,
    yes_schedule_offsets,
)

F = Fraction


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written outside pytest capture."""

    def _line(num, ok, detail):
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}",
                  flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _line


# ---------------------------------------------------------------------------
# criteria 1-3: delay reduction sandwich, completeness, soundness


Bundle = namedtuple("Bundle", "inst art src tgt fwd back")


def _sandwich_instances():
    insts = []
    for layers, per_layer in ((2, 2), (2, 3), (3, 2)):
        for prob in (F(1, 4), F(1, 2), F(3, 4)):
            for seed in range(10):
                insts.append(gen_layered_umps(layers, per_layer, prob, seed))
    for n in (4, 5, 6, 7):
        for m in (2, 3):
            for prob in (F(1, 4), F(1, 2)):
                for seed in range(8):
                    insts.append(gen_random_umps(n, m, prob, seed))
    return insts


@pytest.fixture(scope="module")
def sandwich_corpus():
    t0 = time.monotonic()
    bundles = []
    for inst in _sandwich_instances():
        art = umps_to_commdelay(inst)
        src = solve_umps_exact(inst)
        tgt = solve_commdelay_exact(art.output)
        fwd = forward_map_commdelay(art, src.schedule)
        back = backward_map_commdelay(art, tgt.schedule)
        bundles.append(Bundle(inst, art, src, tgt, fwd, back))
    return bundles, time.monotonic() - t0


def test_criterion_1_sandwich_bound(sandwich_corpus, report):
    bundles, elapsed = sandwich_corpus
    proven = all(b.src.proven_optimal and b.tgt.proven_optimal for b in bundles)
    # the gadget's target optimum is exactly L + 1, the top of the sandwich
    violations = [b for b in bundles if b.tgt.optimum != b.src.optimum + 1]
    ok = len(bundles) >= 200 and proven and not violations and elapsed <= 300
    report(1, ok,
          f"target optimum is L + 1 on {len(bundles) - len(violations)}/{len(bundles)} "
          f"instances, all proven exact, {elapsed:.1f}s")


def test_criterion_2_forward_completeness(sandwich_corpus, report):
    bundles, _ = sandwich_corpus
    bad = 0
    for b in bundles:
        if makespan(b.fwd) != b.src.optimum + 1:
            bad += 1
        elif not validate_commdelay(b.art.output, b.fwd).feasible:
            bad += 1
        elif backward_map_commdelay(b.art, b.fwd) != b.src.schedule:
            bad += 1
    report(2, bad == 0,
          f"forward image feasible at L+1 and backward inverts it on "
          f"{len(bundles) - bad}/{len(bundles)} instances")


def test_criterion_3_backward_soundness(sandwich_corpus, report):
    bundles, _ = sandwich_corpus
    bad = 0
    for b in bundles:
        # b.back already exists, so the mapping raised nothing on any instance
        if not validate_umps(b.inst, b.back).feasible:
            bad += 1
        elif makespan(b.back) > b.src.optimum:
            bad += 1
    report(3, bad == 0,
          f"backward map feasible with makespan <= L on "
          f"{len(bundles) - bad}/{len(bundles)} reduced optima")


# ---------------------------------------------------------------------------
# criterion 4: rounding lemma


def test_criterion_4_rounding_lemma(report):
    t0 = time.monotonic()
    cases = bad = 0
    for n in (3, 4, 5):
        for m in (2, 3):
            for prob in (F(1, 4), F(1, 2)):
                for seed in range(9):
                    inst = gen_random_umps(n, m, prob, seed)
                    sched = solve_umps_exact(inst).schedule
                    gamma = F(1, 10 * n * n)
                    fs = gen_fractional(inst, sched, gamma, F(1, 2), seed)
                    assert fs.horizon <= 8
                    cases += 1
                    canon = canonicalize(fs)
                    if canon != greedy_canonical(fs):
                        bad += 1
                        continue
                    if any(
                        oracle_partial_load(canon, i, t) > gamma * t
                        for i in range(1, m + 1)
                        for t in range(1, canon.horizon + 1)
                    ):
                        bad += 1
                        continue
                    per_slot = {}
                    for (job, slot), mass in canon.mass.items():
                        if mass > 0:
                            key = (inst.home[job], slot)
                            per_slot[key] = per_slot.get(key, 0) + 1
                    if any(count > 2 for count in per_slot.values()):
                        bad += 1
                        continue
                    extracted = extract_integral(canon)
                    if not validate_umps(inst, extracted).feasible:
                        bad += 1
                    elif makespan(extracted) > 2 * fs.horizon:
                        bad += 1
    elapsed = time.monotonic() - t0
    ok = cases >= 100 and bad == 0 and elapsed <= 120
    report(4, ok,
          f"partial loads, slot pairing, 2L extraction, and greedy fixpoint "
          f"hold on {cases - bad}/{cases} fractional schedules, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: speed-scaling reduction completeness


def test_criterion_5_related_completeness(report):
    cases = bad = 0
    identity_bad = 0
    for n in (2, 3, 4):
        for m in (2, 3):
            for seed in range(8):
                inst = gen_random_umps(n, m, F(1, 2), seed)
                src = solve_umps_exact(inst)
                for kappa in (2, 3):
                    cases += 1
                    art = umps_to_related(inst, kappa_override=kappa)
                    gs = forward_map_related(art, src.schedule)
                    flat, _, _ = materialize_related(art.output)
                    flat_sched = materialize_grouped_schedule(art.output, gs)
                    rep = validate_related(flat, flat_sched)
                    if not rep.feasible or makespan(flat_sched) != src.optimum:
                        bad += 1
                # with the default replication factor the instance is too big
                # to materialize, but the group identities are checkable
                out = umps_to_related(inst).output
                for g in out.job_groups:
                    mg = out.machine_groups[inst.home[g.origin_job] - 1]
                    if g.multiplicity != mg.multiplicity or F(g.length, mg.speed) != 1:
                        identity_bad += 1
    ok = bad == 0 and identity_bad == 0
    report(5, ok,
          f"materialized forward schedules exact at L on {cases - bad}/{cases} "
          f"cases; replication identities violated on {identity_bad} groups")


# ---------------------------------------------------------------------------
# criteria 6-7: layered-graph promise instances


def test_criterion_6_planted_yes_schedules(report):
    shapes = [(2, 2), (4, 2), (6, 2), (8, 2), (3, 3), (6, 3), (4, 4), (8, 4)]
    cases = bad = 0
    for n, k in shapes:
        for seed in range(7):
            inst, cert = gen_kpartite_yes(n, k, seed)
            sched = kpartite_yes_schedule(inst, cert)
            cases += 1
            reduced = kpartite_to_umps(inst)
            offsets = yes_schedule_offsets(inst)
            want = {
                i: (i - 1) * n * (inst.eps + F(1, inst.Q)) for i in range(1, k + 1)
            }
            edge_ok = all(
                sched.entries[u][2] <= sched.entries[v][1]
                and sched.entries[v][1] - sched.entries[u][1] >= 0
                for layer_edges in inst.edges
                for u, v in layer_edges
            )
            if not (
                validate_umps(reduced, sched).feasible
                and makespan(sched) <= 3 * n
                and offsets == want
                and edge_ok
            ):
                bad += 1
    ok = cases >= 50 and bad == 0
    report(6, ok,
          f"staircase schedules feasible at <= 3n with exact offsets and "
          f"nonnegative edge slack on {cases - bad}/{cases} planted instances")


def test_criterion_7_dense_floor(report):
    cases = bad = 0
    certified_k3 = 0
    for n, k in ((2, 2), (4, 2), (6, 2), (3, 3), (6, 3)):
        for density in (F(9, 10), F(1)):
            for seed in range(3):
                inst = gen_kpartite_dense(n, k, density, seed)
                if not verify_no_property(inst):
                    continue
                cases += 1
                certified_k3 += k == 3
                reduced = kpartite_to_umps(inst)
                lim = SolveLimits(max_jobs=reduced.n)
                res = solve_umps_exact(reduced, lim)
                floor = (1 - 2 * inst.delta) * k * n
                if not res.proven_optimal or res.optimum < floor:
                    bad += 1
    ok = cases >= 5 and certified_k3 >= 1 and bad == 0
    report(7, ok,
          f"exact optimum clears the (1-2d)kn floor on {cases - bad}/{cases} "
          f"certified dense instances ({certified_k3} with k=3)")


# ---------------------------------------------------------------------------
# criterion 8: list scheduling baseline


def test_criterion_8_list_scheduling_bound(report):
    cases = bad = 0
    for n in (2, 3, 4, 5, 6):
        for c in (0, 1, 2):
            for seed in range(5):
                base = gen_random_umps(n, 1, F(1, 2), seed,
                                       max_length=1 + seed % 2)
                inst = CommDelayInstance(
                    n_total=n,
                    lengths=dict(base.lengths),
                    delays={e: c for e in base.dag.edges},
                    dag=base.dag,
                    machines=None,
                )
                cases += 1
                exact = solve_commdelay_exact(inst)
                listed = list_schedule_commdelay(inst)
                if not exact.proven_optimal:
                    bad += 1
                elif not validate_commdelay(inst, listed).feasible:
                    bad += 1
                elif makespan(listed) > (c + 1) * exact.optimum:
                    bad += 1
    report(8, bad == 0,
          f"list schedule within (c+1) of the proven optimum on "
          f"{cases - bad}/{cases} uniform-delay instances")


# ---------------------------------------------------------------------------
# criterion 9: the exact solvers agree with the exhaustive oracles


def test_criterion_9_oracle_equivalence(report):
    cases = []  # (solver, oracle, instance)
    for n in (2, 3, 4, 5, 6):
        for m in (1, 2, 3):
            for prob in (F(1, 4), F(1, 2)):
                for seed in range(3):
                    cases.append((solve_umps_exact, oracle_umps_optimum,
                                  gen_random_umps(n, m, prob, seed)))
    for n in (4, 5, 6):
        for seed in range(2):
            cases.append((solve_umps_exact, oracle_umps_optimum,
                          gen_random_umps(n, 2, F(1, 2), seed, max_length=3)))
    for layers, per_layer in ((2, 2), (3, 2), (2, 3)):
        for seed in range(3):
            cases.append((solve_umps_exact, oracle_umps_optimum,
                          gen_layered_umps(layers, per_layer, F(1, 2), seed)))
    # uniform delays on unbounded and two-machine targets, then the delay gadget
    for n in (2, 3, 4, 5):
        for c in (0, 1, 2):
            for machines in (None, 2):
                for seed in range(3):
                    base = gen_random_umps(n, 1, F(1, 2), seed, max_length=1 + seed % 2)
                    cases.append((solve_commdelay_exact, oracle_commdelay_optimum,
                                  CommDelayInstance(n_total=n, lengths=dict(base.lengths),
                                                    delays={e: c for e in base.dag.edges},
                                                    dag=base.dag, machines=machines)))
    # random delays 0-3 on every edge, the paper's own problem
    for n in (3, 4, 5, 6):
        for machines in (None, 2, 3):
            for seed in range(4):
                cases.append((solve_commdelay_exact, oracle_commdelay_optimum,
                              random_delays(n, seed, machines)))
    for n, m in ((2, 2), (3, 2), (3, 3)):
        for seed in range(3):
            cases.append((solve_commdelay_exact, oracle_commdelay_optimum,
                          umps_to_commdelay(gen_random_umps(n, m, F(1, 2), seed)).output))
    # the speed-scaling gadget at kappa = 2, materialized, up to 9 flat jobs
    for n in (2, 3, 4, 5, 6):
        for prob in (F(1, 4), F(1, 2)):
            for seed in range(6):
                src = gen_random_umps(n, 2, prob, seed)
                if 3 * len(src.jobs_on(1)) + n <= 9:
                    art = umps_to_related(src, kappa_override=2)
                    cases.append((solve_related_exact, oracle_related_optimum,
                                  materialize_related(art.output)[0]))
    bad = sum(1 for solve, oracle, inst in cases if solve(inst).optimum != oracle(inst))
    kinds = Counter(solve.__name__ for solve, _, _ in cases)
    report(9, bad == 0,
          f"solver optimum equals the exhaustive oracle on "
          f"{len(cases) - bad}/{len(cases)} instances "
          f"({', '.join(f'{k} {v}' for k, v in kinds.items())})")


# ---------------------------------------------------------------------------
# criterion 10: byte determinism of the command surface


def _produce(base: Path):
    base.mkdir(parents=True, exist_ok=True)
    corpus = base / "corpus"
    corpus.mkdir(exist_ok=True)
    o = lambda name: str(base / name)
    script = [
        ["gen", "layered", "--params", "layers=3,per_layer=2,edge_prob=2/3",
         "--seed", "11", "--out", o("lay.json")],
        ["gen", "random", "--params", "n=5,m=2,edge_prob=1/2", "--seed", "3",
         "--out", o("rnd.json")],
        ["gen", "jobshop", "--params", "jobs=2,machines=2,ops_per_job=2",
         "--seed", "4", "--out", o("js.json")],
        ["gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "5",
         "--out", o("yes.json")],
        ["gen", "kpartite_dense", "--params", "n=4,k=2,density=1", "--seed", "6",
         "--out", o("dense.json")],
        ["reduce", o("rnd.json"), "--reduction", "commdelay", "--out", o("cd.json")],
        ["reduce", o("rnd.json"), "--reduction", "related",
         "--kappa-override", "2", "--out", o("rel.json")],
        ["reduce", o("js.json"), "--reduction", "umps", "--out", o("js_umps.json")],
        ["solve", o("rnd.json"), "--out", o("sched.json")],
        ["solve", o("cd.json"), "--limits", "max_jobs=12", "--out", o("cd_sched.json")],
        ["gen", "fractional", "--params",
         f"instance={o('rnd.json')},schedule={o('sched.json')}",
         "--params", "gamma=1/250,split_prob=1/2", "--seed", "7",
         "--out", o("frac.json")],
        ["roundtrip", o("rnd.json"), "--mode", "commdelay",
         "--limits", "max_jobs=12", "--out", o("gap_cd.csv")],
        ["roundtrip", o("rnd.json"), "--mode", "related",
         "--kappa-override", "2", "--out", o("gap_rel.csv")],
        ["roundtrip", o("yes.json"), "--mode", "kpartite", "--out", o("gap_yes.csv")],
        ["gen", "random", "--params", "n=4,m=2", "--seed", "1",
         "--out", str(corpus / "c1.json")],
        ["gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "2",
         "--out", str(corpus / "c2.json")],
        ["bench", str(corpus), "--out", o("gap_all.csv")],
    ]
    for argv in script:
        rc = cli.main(argv)
        assert rc == 0, (rc, argv)


def test_criterion_10_byte_determinism(tmp_path, report):
    def snapshot(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    _produce(tmp_path / "a")
    _produce(tmp_path / "b")
    a, b = snapshot(tmp_path / "a"), snapshot(tmp_path / "b")
    same = set(a) == set(b) and all(a[k] == b[k] for k in a)
    report(10, same and len(a) >= 20,
          f"{len(a)} generated files byte-identical across independent reruns")
