from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedreduce import (
    CoLocationViolated,
    CommDelayReductionArtifact,
    DegenerateInstance,
    InfeasibleInput,
    InvalidCertificate,
    KPartiteYesCertificate,
    MakespanTooLarge,
    MaterializationTooLarge,
    NonUnitLengths,
    PrecedenceDag,
    Schedule,
    UmpsInstance,
    backward_map_commdelay,
    forward_map_commdelay,
    forward_map_related,
    gen_kpartite_yes,
    gen_random_umps,
    jobshop_to_umps,
    kpartite_to_umps,
    kpartite_yes_schedule,
    makespan,
    materialize_grouped_schedule,
    materialize_related,
    solve_umps_exact,
    umps_to_commdelay,
    umps_to_related,
    validate_certificate,
    validate_commdelay,
    validate_grouped,
    validate_related,
    validate_umps,
    yes_schedule_offsets,
)
from schedreduce.generators import gen_jobshop
from conftest import SAMPLE8, is_layered


def sample8_schedule():
    return Schedule(entries={
        j: (m, Fraction(s), Fraction(s + 1)) for j, (m, s) in SAMPLE8["witness"].items()
    })


small_instances = st.integers(0, 10_000).map(
    lambda seed: gen_random_umps(2 + seed % 5, 1 + seed % 3, Fraction(1, 2), seed)
)


# ---------------------------------------------------------------------------
# delay-based reduction


def test_commdelay_reduction_shape(sample8):
    art = umps_to_commdelay(sample8)
    out = art.output
    assert art.c_infinity == SAMPLE8["c_infinity"]
    assert out.n_total == SAMPLE8["n_total_reduced"]
    assert art.dummy_ids == (9, 10, 11)
    assert out.machines is None
    # original edges keep delay 0; each job gains one huge-delay edge to
    # its home anchor
    zero = {e for e, c in out.delays.items() if c == 0}
    huge = {e for e, c in out.delays.items() if c == art.c_infinity}
    assert zero == set(SAMPLE8["edges"])
    assert huge == {(j, 8 + SAMPLE8["home"][j]) for j in range(1, 9)}
    assert all(out.lengths[d] == 1 for d in art.dummy_ids)


def test_commdelay_reduction_requires_two_jobs():
    single = UmpsInstance(n=1, m=1, lengths={1: 1}, home={1: 1},
                          dag=PrecedenceDag(1, ()))
    with pytest.raises(DegenerateInstance):
        umps_to_commdelay(single)


def test_forward_map_adds_exactly_one_slot(sample8):
    art = umps_to_commdelay(sample8)
    sched = sample8_schedule()
    fwd = forward_map_commdelay(art, sched)
    assert validate_commdelay(art.output, fwd).feasible
    assert makespan(fwd) == SAMPLE8["optimum"] + 1
    # anchors all run in the final slot on their own machine
    for i, dummy in enumerate(art.dummy_ids, start=1):
        machine, start, end = fwd.entries[dummy]
        assert (machine, start, end) == (i, Fraction(5), Fraction(6))


def test_forward_map_rejects_infeasible_input(sample8):
    art = umps_to_commdelay(sample8)
    broken = dict(sample8_schedule().entries)
    broken[5] = (2, Fraction(0), Fraction(1))  # ignores its predecessors
    with pytest.raises(InfeasibleInput):
        forward_map_commdelay(art, Schedule(entries=broken))


def test_backward_of_forward_is_identity(sample8):
    art = umps_to_commdelay(sample8)
    sched = sample8_schedule()
    assert backward_map_commdelay(art, forward_map_commdelay(art, sched)) == sched


def test_backward_map_rejects_huge_makespan(sample8):
    art = umps_to_commdelay(sample8)
    gap = art.c_infinity  # spread jobs so the makespan reaches C_infinity
    entries = {}
    order = [3, 6, 2, 7, 8, 4, 1, 5, 9, 10, 11]
    for k, j in enumerate(order):
        entries[j] = (1, Fraction(k * gap), Fraction(k * gap + 1))
    sched = Schedule(entries=entries)
    assert validate_commdelay(art.output, sched).feasible
    with pytest.raises(MakespanTooLarge):
        backward_map_commdelay(art, sched)


def test_backward_map_reports_split_groups(sample8):
    # tamper the artifact: claim a larger threshold than the instance's
    # actual delays, so a schedule may separate a job from its anchor and
    # still pass the makespan check
    art = umps_to_commdelay(sample8)
    fake = CommDelayReductionArtifact(
        output=art.output,
        c_infinity=10**6,
        dummy_ids=art.dummy_ids,
        origin=art.origin,
        source=art.source,
    )
    entries = {}
    order = [3, 6, 2, 7, 8, 4, 1, 5, 10, 11]
    for k, j in enumerate(order):
        entries[j] = (1, Fraction(k * 70), Fraction(k * 70 + 1))
    entries[9] = (2, Fraction(9 * 70), Fraction(9 * 70 + 1))  # anchor of machine 1
    sched = Schedule(entries=entries)
    assert validate_commdelay(art.output, sched).feasible
    with pytest.raises(CoLocationViolated) as err:
        backward_map_commdelay(fake, sched)
    assert err.value.machine == 1


@settings(max_examples=40, deadline=None)
@given(small_instances)
def test_backward_of_forward_identity_on_random_instances(inst):
    if inst.n < 2:
        return
    art = umps_to_commdelay(inst)
    sched = solve_umps_exact(inst).schedule
    fwd = forward_map_commdelay(art, sched)
    assert makespan(fwd) == makespan(sched) + 1
    assert backward_map_commdelay(art, fwd) == sched


# ---------------------------------------------------------------------------
# job-shop embedding


def test_jobshop_embedding_one_job_per_operation():
    js = gen_jobshop(2, 2, 2, seed=3)
    inst, origin = jobshop_to_umps(js)
    assert inst.n == 4  # one job per operation
    assert len(inst.dag.edges) == 2  # one chain edge per job
    assert origin == {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
    # chains: every node has in- and out-degree at most 1
    succ = inst.dag.successors()
    indegree = [v for _, v in inst.dag.edges]
    assert all(len(succ[v]) <= 1 and indegree.count(v) <= 1 for v in range(1, 5))


def test_jobshop_single_operation():
    js = gen_jobshop(1, 1, 1, seed=0)
    inst, _ = jobshop_to_umps(js)
    assert inst.n == 1 and inst.dag.edges == ()


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.integers(0, 99))
def test_jobshop_embedding_preserves_durations(jobs, machines, ops, seed):
    js = gen_jobshop(jobs, machines, ops, seed)
    inst, origin = jobshop_to_umps(js)
    assert inst.n == sum(len(chain) for chain in js.jobs)
    for job, (chain_idx, op_idx) in origin.items():
        machine, duration = js.jobs[chain_idx - 1][op_idx - 1]
        assert inst.home[job] == machine
        assert inst.lengths[job] == duration


# ---------------------------------------------------------------------------
# speed-based reduction


def test_related_reduction_default_kappa(sample8):
    art = umps_to_related(sample8)
    assert art.kappa == SAMPLE8["kappa_default"]
    assert art.kappa_meets_bound


def test_related_reduction_rejects_non_unit():
    inst = UmpsInstance(n=2, m=1, lengths={1: 2, 2: 1}, home={1: 1, 2: 1},
                        dag=PrecedenceDag(2, ()))
    with pytest.raises(NonUnitLengths):
        umps_to_related(inst)


def test_related_reduction_rejects_tiny_override(sample8):
    with pytest.raises(ValueError):
        umps_to_related(sample8, kappa_override=1)


def test_related_reduction_override2_shape(sample8):
    art = umps_to_related(sample8, kappa_override=2)
    assert art.kappa == 2 and not art.kappa_meets_bound
    out = art.output
    for g, group in enumerate(out.job_groups, start=1):
        home = SAMPLE8["home"][art.origin[g]]
        mult, length = SAMPLE8["override2_job_groups"][home]
        assert (group.multiplicity, group.length) == (mult, length)
    assert tuple(
        (mg.multiplicity, mg.speed) for mg in out.machine_groups
    ) == SAMPLE8["override2_machine_groups"]
    # group dag mirrors the input dag through the origin map
    relabeled = {(art.origin[u], art.origin[v]) for u, v in out.group_dag.edges}
    assert relabeled == set(SAMPLE8["edges"])


def test_related_symbolic_identities_at_true_kappa(sample8):
    # each job group is exactly as numerous as its home machine group,
    # and runs at normalized duration 1 there
    art = umps_to_related(sample8)
    out = art.output
    for g, group in enumerate(out.job_groups, start=1):
        mg = out.machine_groups[art.machine_group_of[SAMPLE8["home"][art.origin[g]]] - 1]
        assert group.multiplicity == mg.multiplicity
        assert Fraction(group.length, mg.speed) == 1


def test_chain3_reduction_values():
    # 3-job chain, homes (1, 2, 1) on 2 machines: kappa = 10 * 27 * 2
    inst = UmpsInstance(
        n=3, m=2, lengths={1: 1, 2: 1, 3: 1}, home={1: 1, 2: 2, 3: 1},
        dag=PrecedenceDag(3, ((1, 2), (2, 3))),
    )
    art = umps_to_related(inst)
    assert art.kappa == 540
    assert [g.multiplicity for g in art.output.job_groups] == [291600, 1, 291600]
    assert [g.length for g in art.output.job_groups] == [1, 540, 1]
    assert [(mg.multiplicity, mg.speed) for mg in art.output.machine_groups] == [
        (291600, 1), (1, 540),
    ]


def test_materialize_respects_cap(sample8):
    art = umps_to_related(sample8)  # true kappa: ~15360^4 machine-1 jobs
    with pytest.raises(MaterializationTooLarge):
        materialize_related(art.output)


def test_forward_map_related_has_source_makespan(sample8):
    art = umps_to_related(sample8, kappa_override=2)
    sched = sample8_schedule()
    gs = forward_map_related(art, sched)
    assert validate_grouped(art.output, gs).feasible
    assert gs.makespan() == SAMPLE8["optimum"]


def test_materialized_schedule_passes_flat_validation(sample8):
    art = umps_to_related(sample8, kappa_override=2)
    gs = forward_map_related(art, sample8_schedule())
    flat, _, _ = materialize_related(art.output)
    flat_sched = materialize_grouped_schedule(art.output, gs)
    report = validate_related(flat, flat_sched)
    assert report.feasible, report.violations[:3]
    assert makespan(flat_sched) == SAMPLE8["optimum"]


def test_materialize_grouped_schedule_rejects_overplacement():
    from schedreduce import GroupedPlacement, GroupedSchedule

    inst = UmpsInstance(n=2, m=1, lengths={1: 1, 2: 1}, home={1: 1, 2: 1},
                        dag=PrecedenceDag(2, ()))
    art = umps_to_related(inst, kappa_override=2)
    mult = art.output.job_groups[0].multiplicity
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, mult),
        GroupedPlacement(1, 1, 1, 2, 1),   # one member too many
        GroupedPlacement(2, 1, 2, 3, mult),
    ))
    with pytest.raises(InfeasibleInput):
        materialize_grouped_schedule(art.output, gs)


# ---------------------------------------------------------------------------
# layer-graph reduction


def test_kpartite_to_umps_is_layered():
    inst, cert = gen_kpartite_yes(4, 2, seed=1)
    reduced = kpartite_to_umps(inst)
    assert reduced.n == inst.n * inst.k
    assert reduced.m == inst.k
    assert is_layered(reduced)
    assert reduced.unit_lengths


def test_certificate_validation_catches_bad_partitions():
    inst, cert = gen_kpartite_yes(4, 2, seed=1)
    validate_certificate(inst, cert)  # planted one passes

    # empty first cell falls below the (1 - eps) n / Q size floor
    emptied = ((cert.partition[0][0] + cert.partition[0][1], ()),) + cert.partition[1:]
    with pytest.raises(InvalidCertificate):
        validate_certificate(inst, KPartiteYesCertificate(partition=emptied))


def test_certificate_validation_catches_backward_edge():
    from schedreduce import KPartiteInstance

    inst = KPartiteInstance(
        k=2, n=2, layers=((1, 2), (3, 4)), edges=(((2, 3),),),
        Q=2, eps=Fraction(1, 2), delta=Fraction(1, 2),
    )
    cells = (((1,), (2,)), ((3,), (4,)))
    # vertex 2 sits in cell 1, its successor 3 in cell 0: not monotone
    with pytest.raises(InvalidCertificate) as err:
        validate_certificate(inst, KPartiteYesCertificate(partition=cells))
    assert err.value.witness == (2, 3)

    forward_only = KPartiteInstance(
        k=2, n=2, layers=((1, 2), (3, 4)), edges=(((1, 4),),),
        Q=2, eps=Fraction(1, 2), delta=Fraction(1, 2),
    )
    validate_certificate(forward_only, KPartiteYesCertificate(partition=cells))


def test_certificate_rejects_non_partition():
    inst, cert = gen_kpartite_yes(4, 2, seed=1)
    doubled = ((cert.partition[0][0], cert.partition[0][0]),) + cert.partition[1:]
    with pytest.raises(InvalidCertificate):
        validate_certificate(inst, KPartiteYesCertificate(partition=doubled))


def test_yes_schedule_offsets_formula():
    inst, cert = gen_kpartite_yes(6, 3, seed=2)
    offsets = yes_schedule_offsets(inst)
    # t_i = (i-1) * n * (eps + 1/Q) with eps = 1/Q = 1/3
    assert offsets == {1: 0, 2: 4, 3: 8}


def test_yes_schedule_feasible_and_within_3n():
    for seed in range(5):
        inst, cert = gen_kpartite_yes(4, 2, seed=seed)
        sched = kpartite_yes_schedule(inst, cert)
        reduced = kpartite_to_umps(inst)
        assert validate_umps(reduced, sched).feasible
        assert makespan(sched) <= 3 * inst.n
