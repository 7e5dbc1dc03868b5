import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedreduce import (
    CommDelayInstance,
    CycleDetected,
    EmptySchedule,
    GroupedPlacement,
    GroupedRelatedInstance,
    GroupedSchedule,
    InfeasibleInput,
    JobGroup,
    JobSetMismatch,
    JobShopInstance,
    KPartiteInstance,
    KPartiteYesCertificate,
    MachineGroup,
    MachineOutOfRange,
    PrecedenceDag,
    RelatedInstance,
    Schedule,
    UmpsInstance,
    backward_map_commdelay,
    canonicalize,
    extract_integral,
    forward_map_commdelay,
    forward_map_related,
    gen_fractional,
    gen_random_umps,
    greedy_umps,
    list_schedule_commdelay,
    makespan,
    solve_commdelay_exact,
    solve_related_exact,
    solve_umps_exact,
    strip_misplaced,
    topological_order,
    umps_to_commdelay,
    umps_to_related,
    validate_commdelay,
    validate_grouped,
    validate_related,
    validate_umps,
)
from schedreduce.rng import Stream
from schedreduce.serialize import dump_canonical, from_obj, to_obj
from conftest import SAMPLE8, make_sample8
from oracle import (oracle_dag_edges, oracle_flat_violations, oracle_grouped_violations,
                    pinned_text)

# strategy: random dag via index-increasing edge choices
dags = st.integers(2, 7).flatmap(
    lambda n: st.builds(
        lambda pairs: PrecedenceDag(n, tuple(sorted(set(pairs)))),
        st.lists(
            st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * 2,
        ),
    )
)


# ---------------------------------------------------------------------------
# precedence graphs


def test_dag_rejects_cycle_with_witness():
    with pytest.raises(CycleDetected) as err:
        PrecedenceDag(3, ((1, 2), (2, 3), (3, 1)))
    witness = err.value.witness
    assert set(witness) <= {1, 2, 3} and len(witness) >= 2


def test_cycle_witness_skips_nodes_past_the_cycle():
    # node 1 waits on the cycle 3 -> 4 -> 3 but lies on none: the walk from
    # the lowest waiting node used to stop there, at min() of no successor
    with pytest.raises(CycleDetected) as err:
        PrecedenceDag(4, ((3, 4), (4, 3), (4, 1)))
    assert err.value.witness == (3, 4, 3)


def test_dag_rejects_self_loop_duplicate_and_range():
    with pytest.raises(ValueError):
        PrecedenceDag(2, ((1, 1),))
    with pytest.raises(ValueError):
        PrecedenceDag(2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        PrecedenceDag(2, ((1, 3),))


# endpoints in and out of range, and now and then one that is not an int
# by type ("3", 2.0, True), which raises TypeError, never coerced
DAG_ENDPOINTS = st.one_of(st.integers(-1, 7), st.sampled_from(["3", 2.0, 1.7, True]))


@settings(max_examples=300)
@given(st.one_of(st.integers(-1, 7), st.sampled_from([3.0, True])),
       st.lists(st.one_of(st.tuples(DAG_ENDPOINTS, DAG_ENDPOINTS),
                          st.integers(1, 6).flatmap(lambda u: st.tuples(
                              st.just(u), st.integers(u + 1, 7)))),
                max_size=10),
       st.booleans())
def test_dag_admission_matches_full_checks(node_count, edges, doubled):
    edges = edges + edges[:1] if doubled else edges
    try:
        expected = oracle_dag_edges(node_count, edges)
    except Exception as exc:  # same type and message, cycle witness included
        with pytest.raises(type(exc)) as err:
            PrecedenceDag(node_count, edges)
        assert str(err.value) == str(exc)
    else:
        assert PrecedenceDag(node_count, edges).edges == expected


def test_edges_stored_sorted():
    dag = PrecedenceDag(3, ((2, 3), (1, 2)))
    assert dag.edges == ((1, 2), (2, 3))


def test_topological_order_prefers_lowest_index(sample8):
    assert topological_order(sample8.dag) == SAMPLE8["topo"]


@given(dags)
def test_topological_order_respects_edges(dag):
    order = topological_order(dag)
    assert sorted(order) == list(range(1, dag.node_count + 1))
    pos = {v: k for k, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in dag.edges)


@given(dags, st.data())
def test_topological_order_takes_the_ready_node_of_largest_level(dag, data):
    n = dag.node_count
    level = [0] + data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pred, done = predecessors(dag), set()
    for u in topological_order(dag, level):
        ready = [v for v in pred if v not in done and done.issuperset(pred[v])]
        assert u == min(ready, key=lambda v: (-level[v], v))
        done.add(u)
    assert len(done) == n


def predecessors(dag) -> dict:
    """Node -> its direct predecessors, in edge order."""
    out = {v: [] for v in range(1, dag.node_count + 1)}
    for u, v in dag.edges:
        out[v].append(u)
    return out


def successors(dag) -> dict:
    """Node -> its direct successors, in edge order."""
    out = {u: [] for u in range(1, dag.node_count + 1)}
    for u, v in dag.edges:
        out[u].append(v)
    return out


def reachable(dag) -> dict:
    """Node -> set of nodes strictly after it (transitive closure)."""
    succ = successors(dag)
    reach = {}
    for u in reversed(topological_order(dag)):
        reach[u] = set(succ[u]).union(*(reach[v] for v in succ[u]))
    return reach


@given(dags)
def test_reachable_is_transitive_closure(dag):
    reach = reachable(dag)
    for u, v in dag.edges:
        assert v in reach[u]
    for u in reach:
        for v in reach[u]:
            assert reach[v] <= reach[u]


# ---------------------------------------------------------------------------
# instance validation


def test_umps_instance_rejects_bad_fields():
    dag = PrecedenceDag(2, ())
    with pytest.raises(ValueError):
        UmpsInstance(n=2, m=1, lengths={1: 1}, home={1: 1, 2: 1}, dag=dag)
    with pytest.raises(ValueError):
        UmpsInstance(n=2, m=1, lengths={1: 1, 2: 0}, home={1: 1, 2: 1}, dag=dag)
    with pytest.raises(ValueError):
        UmpsInstance(n=2, m=1, lengths={1: 1, 2: 1}, home={1: 1, 2: 2}, dag=dag)
    with pytest.raises(ValueError):
        UmpsInstance(n=2, m=1, lengths={1: 1, 2: 1}, home={1: 1, 2: 1},
                     dag=PrecedenceDag(3, ()))


def test_jobshop_chain_accessors():
    js = JobShopInstance(jobs=(((1, 2), (2, 1)), ((2, 3),)))
    assert js.machine_count == 2


def _umps(n=2, m=1, length=1, home=1):
    return UmpsInstance(n=n, m=m, lengths={1: 1, 2: length}, home={1: 1, 2: home},
                        dag=PrecedenceDag(2, ()))


def _kpartite(layer=(1, 2), eps=Fraction(1, 2)):
    return KPartiteInstance(k=1, n=2, layers=(layer,), edges=(), Q=2, eps=eps,
                            delta=Fraction(1, 2))


def _one_machine_fractional(gamma):
    inst = gen_random_umps(2, 1, Fraction(1, 2), 0)
    return gen_fractional(inst, solve_umps_exact(inst).schedule, gamma, Fraction(1, 2), 0)


# each raises TypeError naming its culprit; int() once truncated the
# floats and took a bool for 0 or 1, and a float rational became the
# binary fraction nearest to it
@pytest.mark.parametrize("make, culprit", [
    (lambda: CommDelayInstance(n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): 2.7},
                               dag=PrecedenceDag(2, ((1, 2),))), "2.7"),
    (lambda: CommDelayInstance(n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): True},
                               dag=PrecedenceDag(2, ((1, 2),))), "True"),
    (lambda: JobShopInstance(jobs=[[(1.9, 2.5)]]), "1.9"),
    (lambda: JobShopInstance(jobs=[[(1, True)]]), "True"),
    (lambda: RelatedInstance(machines=(1.5,), jobs=(2,), dag=PrecedenceDag(1, ())), "1.5"),
    (lambda: RelatedInstance(machines=(1,), jobs=(2.9,), dag=PrecedenceDag(1, ())), "2.9"),
    (lambda: RelatedInstance(machines=(True,), jobs=(2,), dag=PrecedenceDag(1, ())), "True"),
    (lambda: PrecedenceDag(3, [(1.7, 2)]), "node count or edge endpoint 1.7"),
    (lambda: PrecedenceDag(3.0, ()), "node count or edge endpoint 3.0"),
    (lambda: _umps(n=True), "n, m, length or home True"),
    (lambda: _umps(m=True), "n, m, length or home True"),
    (lambda: _umps(length=True), "n, m, length or home True"),
    (lambda: _umps(home=True), "n, m, length or home True"),
    (lambda: JobGroup(True, True, 1), "True"),
    (lambda: MachineGroup(True, True), "True"),
    (lambda: CommDelayInstance(n_total=1, lengths={1: 1}, delays={}, dag=PrecedenceDag(1, ()),
                               machines=True), "count True"),
    (lambda: KPartiteYesCertificate(partition=(((1, True),),)), "certificate vertex True"),
    (lambda: _kpartite(layer=(1.0, 2)), "vertex 1.0"),
    (lambda: _kpartite(eps=0.1), "eps 0.1"),
    (lambda: umps_to_related(_umps(), kappa_override=2.9), "kappa 2.9"),
    (lambda: _one_machine_fractional(0.001), "gamma 0.001"),
    (lambda: Stream(1.9), "seed 1.9"),
    (lambda: Stream(True), "seed True"),
], ids=["float-delay", "bool-delay", "float-operation", "bool-duration", "float-speed",
        "float-length", "bool-speed", "float-dag-endpoint", "float-node-count", "bool-umps-n",
        "bool-umps-m", "bool-umps-length", "bool-umps-home", "bool-job-group",
        "bool-machine-group", "bool-commdelay-machines", "bool-certificate-cell",
        "float-kpartite-vertex", "float-eps",
        "float-kappa", "float-gamma", "float-seed", "bool-seed"])
def test_instance_ints_are_checked_not_truncated(make, culprit):
    with pytest.raises(TypeError, match=re.escape(culprit) + " is not an int"):
        make()


def test_commdelay_delays_must_cover_edges():
    dag = PrecedenceDag(2, ((1, 2),))
    with pytest.raises(ValueError):
        CommDelayInstance(n_total=2, lengths={1: 1, 2: 1}, delays={}, dag=dag)
    with pytest.raises(ValueError):
        CommDelayInstance(
            n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): -1}, dag=dag
        )


def test_schedule_horizon_computed_and_checked():
    sched = Schedule(entries={1: (1, 0, 2), 2: (1, 2, 3)})
    assert sched.horizon == 3
    assert makespan(sched) == 3
    with pytest.raises(TypeError):  # computed, never passed in
        Schedule(entries={1: (1, 0, 2)}, horizon=5)
    empty = Schedule(entries={})
    assert empty.horizon == 0 and empty == Schedule._of_rows({}, 6)
    with pytest.raises(EmptySchedule):
        makespan(empty)
    with pytest.raises(TypeError):
        hash(sched)
    # 1/2 beside 1/3 puts the times on scale 6, written in lowest terms
    mixed = Schedule(entries={1: (1, Fraction(1, 2), 1), 2: (2, Fraction(-1, 3), Fraction(1, 3))})
    assert mixed == Schedule._of_rows({1: (1, 6, 12), 2: (2, -4, 4)}, 12)
    assert to_obj(mixed)["entries"] == {"1": [1, "1/2", "1"], "2": [2, "-1/3", "1/3"]}
    assert mixed != Schedule._of_rows({1: (1, 3, 6), 2: (2, -2, 3)}, 6)


@pytest.mark.parametrize("entries", [
    {1.5: (2, 0, 1)}, {True: (1, 0, 1)}, {"1": (1, 0, 1)},
    {1: (2.7, 0, 1)}, {1: (False, 0, 1)}, {1: ("1", 0, 1)},
    {1: (1, 0.1, 1)}, {1: (1, 0, True)}, {1: (1, "0", 1)}, {1: (1, None, 1)},
])
def test_schedule_rejects_a_non_int_index_or_a_non_rational_time(entries):
    # int() would truncate 1.5 and 2.7 to job 1 on machine 2, and a float
    # start would become its binary fraction
    with pytest.raises(TypeError):
        Schedule(entries=entries)


@pytest.mark.parametrize("args", [
    (True, 1, 0, 1, True), (1, True, 0, 1, 1), (1, 1, 0, 1, False),
    (1.5, 1, 0, 1, 1), ("1", 1, 0, 1, 1), (1, 1, 0, 1, 2.0),
    (1, 1, 0.1, 1.1, 1), (1, 1, True, 2, 1), (1, 1, 0, "1", 1), (1, 1, None, 1, 1),
])
def test_grouped_placement_rejects_a_non_int_index_or_a_non_rational_time(args):
    # a bool group and count would be written as true, which no reader
    # takes back, and 0.1 would become its binary fraction
    with pytest.raises(TypeError):
        GroupedPlacement(*args)


def violation_kinds(report):
    return {v.kind for v in report.violations}


def test_validate_umps_flags_each_violation_kind(sample8):
    good = {j: (m, Fraction(s), Fraction(s + 1)) for j, (m, s) in SAMPLE8["witness"].items()}
    assert validate_umps(sample8, Schedule(entries=good)).feasible

    bad = dict(good)
    bad[3] = (2, Fraction(0), Fraction(1))  # off home machine
    assert "wrong_machine" in violation_kinds(validate_umps(sample8, Schedule(entries=bad)))

    bad = dict(good)
    bad[2] = (1, Fraction(0), Fraction(1))  # collides with job 3 on machine 1
    assert "overlap" in violation_kinds(validate_umps(sample8, Schedule(entries=bad)))

    bad = dict(good)
    bad[5] = (2, Fraction(1), Fraction(2))  # starts before predecessor 7 ends
    assert "precedence" in violation_kinds(validate_umps(sample8, Schedule(entries=bad)))

    bad = dict(good)
    bad[3] = (1, Fraction(-1), Fraction(0))
    assert "negative_time" in violation_kinds(validate_umps(sample8, Schedule(entries=bad)))

    bad = dict(good)
    bad[1] = (1, Fraction(3), Fraction(9, 2))  # unit job runs 3/2
    assert "duration" in violation_kinds(validate_umps(sample8, Schedule(entries=bad)))


def test_validate_umps_rejects_wrong_job_set(sample8):
    from schedreduce import JobSetMismatch

    with pytest.raises(JobSetMismatch):
        validate_umps(sample8, Schedule(entries={1: (1, 0, 1)}))


def test_validate_commdelay_counts_delay_only_across_machines():
    dag = PrecedenceDag(2, ((1, 2),))
    inst = CommDelayInstance(
        n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): 5}, dag=dag, machines=2
    )
    co_located = Schedule(entries={1: (1, 0, 1), 2: (1, 1, 2)})
    assert validate_commdelay(inst, co_located).feasible
    too_soon = Schedule(entries={1: (1, 0, 1), 2: (2, 3, 4)})
    assert "delay" in violation_kinds(validate_commdelay(inst, too_soon))
    patient = Schedule(entries={1: (1, 0, 1), 2: (2, 6, 7)})
    assert validate_commdelay(inst, patient).feasible


def test_validate_commdelay_rejects_machine_out_of_range():
    dag = PrecedenceDag(1, ())
    inst = CommDelayInstance(n_total=1, lengths={1: 1}, delays={}, dag=dag, machines=1)
    with pytest.raises(MachineOutOfRange):
        validate_commdelay(inst, Schedule(entries={1: (2, 0, 1)}))


def test_validate_related_checks_speed_scaled_duration():
    inst = RelatedInstance(machines=(1, 2), jobs=(4, 2), dag=PrecedenceDag(2, ()))
    assert inst.duration(1, 2) == 2
    good = Schedule(entries={1: (2, 0, 2), 2: (1, 0, 2)})
    assert validate_related(inst, good).feasible
    bad = Schedule(entries={1: (2, 0, 4), 2: (1, 0, 2)})
    assert "duration" in violation_kinds(validate_related(inst, bad))


# ---------------------------------------------------------------------------
# the report memo: a check runs once per (validator, instance object, schedule)


@pytest.fixture
def flat_runs(monkeypatch):
    """The number of times ``_validate_flat`` has run, counted as a list."""
    import schedreduce.model as model

    runs, real = [], model._validate_flat

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "_validate_flat", counted)
    return runs


def _witness(sample8):
    return Schedule(entries={j: (m, s, s + 1) for j, (m, s) in SAMPLE8["witness"].items()})


def _flat_pairs(sample8):
    """(validator, instance factory, schedule factory) for each flat validator."""
    commdelay = lambda: CommDelayInstance(n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): 5},
                                          dag=PrecedenceDag(2, ((1, 2),)), machines=2)
    related = lambda: RelatedInstance(machines=(1, 2), jobs=(4, 2), dag=PrecedenceDag(2, ()))
    return [
        (validate_umps, make_sample8, lambda: _witness(sample8)),
        (validate_commdelay, commdelay, lambda: Schedule(entries={1: (1, 0, 1), 2: (2, 3, 4)})),
        (validate_related, related, lambda: Schedule(entries={1: (2, 0, 2), 2: (1, 0, 2)})),
    ]


def test_a_repeated_check_returns_the_same_report_and_runs_once(sample8, flat_runs):
    for validate, instance, schedule in _flat_pairs(sample8):
        inst, sched = instance(), schedule()
        before = len(flat_runs)
        report = validate(inst, sched)
        assert validate(inst, sched) is report and validate(inst, sched) is report
        assert len(flat_runs) == before + 1
        # a new schedule object with the same rows is checked again
        assert validate(inst, schedule()) == report
        assert len(flat_runs) == before + 2


def test_an_equal_instance_that_is_another_object_is_checked_again(sample8, flat_runs):
    for validate, instance, schedule in _flat_pairs(sample8):
        first, twin, sched = instance(), instance(), schedule()
        assert first == twin and first is not twin
        before = len(flat_runs)
        report = validate(first, sched)
        assert validate(twin, sched) == report
        assert validate(first, sched) == report  # the twin's check replaced it
        assert len(flat_runs) == before + 3


def test_every_feasible_check_returns_one_report(sample8):
    first = validate_umps(sample8, _witness(sample8))
    assert first.feasible and first.violations == ()
    assert validate_umps(make_sample8(), _witness(sample8)) is first


def test_another_validator_on_the_same_schedule_is_checked_again(sample8, flat_runs):
    sched = _witness(sample8)
    related = RelatedInstance(machines=(1, 1, 1), jobs=(1,) * 8, dag=sample8.dag)
    assert validate_umps(sample8, sched).feasible
    assert validate_related(related, sched).feasible
    assert validate_umps(sample8, sched).feasible  # the related check replaced its report
    assert len(flat_runs) == 3


def test_a_check_that_raises_keeps_nothing(sample8, flat_runs):
    sched = Schedule(entries={1: (1, 0, 1)})
    for _ in range(2):
        with pytest.raises(JobSetMismatch):
            validate_umps(sample8, sched)
    assert len(flat_runs) == 2


def test_infeasible_pair_is_reported_and_raised_from_the_kept_report(sample8, flat_runs):
    entries = {j: (m, s, s + 1) for j, (m, s) in SAMPLE8["witness"].items()}
    entries[5] = (2, 1, 2)  # before its predecessor 7 ends
    bad = Schedule(entries=entries)
    report = validate_umps(sample8, bad)
    assert not report.feasible and "precedence" in violation_kinds(report)
    with pytest.raises(ValueError, match="input schedule infeasible: Violation"):
        gen_fractional(sample8, bad, Fraction(1, 640), Fraction(1, 2), 3)
    art = umps_to_related(sample8, kappa_override=2)
    assert art.source is sample8
    with pytest.raises(InfeasibleInput, match="input schedule infeasible") as exc:
        forward_map_related(art, bad)
    assert str(report.violations[0]) in str(exc.value)
    assert validate_umps(sample8, bad) is report
    assert len(flat_runs) == 1


def test_the_maps_reuse_the_report_of_their_input(sample8, flat_runs):
    src = solve_umps_exact(sample8).schedule
    report = validate_umps(sample8, src)
    art = umps_to_commdelay(sample8)
    fwd = forward_map_commdelay(art, src)
    forward_map_related(umps_to_related(sample8, kappa_override=2), src)
    assert validate_umps(sample8, src) is report
    assert len(flat_runs) == 1
    target = validate_commdelay(art.output, fwd)
    back = backward_map_commdelay(art, fwd)
    assert validate_commdelay(art.output, fwd) is target
    assert validate_umps(sample8, back).feasible
    assert len(flat_runs) == 3


def grouped_fixture():
    inst = GroupedRelatedInstance(
        job_groups=(JobGroup(2, 1, 1), JobGroup(1, 2, 2)),
        machine_groups=(MachineGroup(2, 1), MachineGroup(1, 2)),
        group_dag=PrecedenceDag(2, ((1, 2),)),
    )
    return inst


def test_validate_grouped_accepts_aligned_schedule():
    inst = grouped_fixture()
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, 2),
        GroupedPlacement(2, 2, 1, 2, 1),
    ))
    assert validate_grouped(inst, gs).feasible


def test_validate_grouped_flags_capacity_duration_count_precedence():
    inst = grouped_fixture()
    over_capacity = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, 3),  # machine group 1 has 2 machines
        GroupedPlacement(2, 2, 1, 2, 1),
    ))
    report = validate_grouped(inst, over_capacity)
    assert not report.feasible

    wrong_duration = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 2, 2),  # unit length on unit speed
        GroupedPlacement(2, 2, 2, 3, 1),
    ))
    assert "duration" in violation_kinds(validate_grouped(inst, wrong_duration))

    under_count = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, 1),
        GroupedPlacement(2, 2, 1, 2, 1),
    ))
    assert "count" in violation_kinds(validate_grouped(inst, under_count))
    partial = validate_grouped(inst, under_count, require_complete=False)
    assert partial.feasible

    out_of_order = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 1, 2, 2),
        GroupedPlacement(2, 2, 0, 1, 1),  # group 2 must follow group 1
    ))
    assert "precedence" in violation_kinds(validate_grouped(inst, out_of_order))


# ---------------------------------------------------------------------------
# pinned flat-model behaviour: every violation kind in report order, the
# structural errors, and the exact bytes of the list schedules,
# including a non-default priority and idle machines to spare


def _umps3():
    # job 1 belongs on machine 1, job 3 on machine 2; job 1 precedes job 3
    return UmpsInstance(n=3, m=2, lengths={1: 1, 2: 2, 3: 1}, home={1: 1, 2: 1, 3: 2},
                        dag=PrecedenceDag(3, ((1, 3),)))


def _commdelay4(machines):
    return CommDelayInstance(n_total=4, lengths={1: 1, 2: 2, 3: 1, 4: 1},
                             delays={(1, 3): 2, (2, 4): 3},
                             dag=PrecedenceDag(4, ((1, 3), (2, 4))), machines=machines)


def _related3():
    return RelatedInstance(machines=(1, 2), jobs=(2, 2, 1), dag=PrecedenceDag(3, ((1, 3),)))


def _checked(validate, make, entries):
    def run():
        report = validate(make(), Schedule(entries=entries))
        return [(v.kind, v.witness) for v in report.violations]
    return run


def test_producers_and_readers_leave_the_fraction_view_unbuilt(sample8):
    """The solvers, maps and codec hand schedules over on their int rows,
    and the validators, maps, generator, codec and ``==`` read those rows:
    none of them builds ``entries``, one ``Fraction`` per time, nor a
    grouped schedule's ``placements``."""
    src = solve_umps_exact(sample8).schedule  # the unit DP
    art = umps_to_commdelay(sample8)
    tgt = solve_commdelay_exact(art.output).schedule
    fwd = forward_map_commdelay(art, src)
    back = backward_map_commdelay(art, tgt)
    delayed = solve_commdelay_exact(_commdelay4(2)).schedule  # the engine, with delays
    related = solve_related_exact(_related3()).schedule
    fs = gen_fractional(sample8, src, Fraction(1, 640), Fraction(1, 2), 3)
    ext = extract_integral(canonicalize(fs))
    greedy = greedy_umps(sample8)
    scheds = [src, tgt, fwd, back, delayed, related, ext, greedy]
    scheds += [from_obj(to_obj(x)) for x in scheds]
    for x in (src, back, ext, greedy):
        assert validate_umps(sample8, x).feasible
    for x in (tgt, fwd):
        assert validate_commdelay(art.output, x).feasible
    assert validate_commdelay(_commdelay4(2), delayed).feasible
    assert validate_related(_related3(), related).feasible
    # the grouped path: the forward map hands over rows, and the validator,
    # the strip, makespan, == and the codec read them
    rel = umps_to_related(sample8, kappa_override=2)
    gs = forward_map_related(rel, src)
    gs_back = from_obj(to_obj(gs))
    assert scheds[:8] == scheds[8:]
    assert [makespan(x) for x in scheds[:8]] == [makespan(x) for x in scheds[8:]]
    for x in scheds:
        assert "entries" not in vars(x)
    assert validate_grouped(rel.output, gs).feasible
    strip_misplaced(rel, gs)
    assert gs.makespan() == gs_back.makespan() == makespan(src)
    assert gs == gs_back and hash(gs) == hash(gs_back)
    for x in (gs, gs_back):
        assert "placements" not in vars(x)


def _flat_schedule_digest(kind, n, m, seed):
    def run():
        inst = gen_random_umps(n, m, Fraction(1, 3), seed, max_length=3)
        if kind == "greedy":
            sched = greedy_umps(inst)
        elif kind in ("list", "listwide"):  # listwide: n + 2 machines, so some stay idle
            delays = {(u, v): (u + v) % 3 for u, v in inst.dag.edges}
            cd = CommDelayInstance(n_total=n, lengths=inst.lengths, delays=delays,
                                   dag=inst.dag, machines=m if kind == "list" else n + 2)
            sched = list_schedule_commdelay(cd)
        else:  # the reduced instance, on m machines: anchors and huge delays
            cd = umps_to_commdelay(inst).output
            sched = list_schedule_commdelay(dataclasses.replace(cd, machines=m))
        text = pinned_text(sched).encode()
        return hashlib.sha256(text).hexdigest()[:16]
    return run


FLAT_PINS = {
    "umps-feasible": (
        _checked(validate_umps, _umps3, {1: (1, 0, 1), 2: (1, 1, 3), 3: (2, 1, 2)}), []),
    "umps-every-kind": (
        _checked(validate_umps, _umps3, {1: (2, 0, 1), 2: (1, -1, 1), 3: (2, 0, 2)}),
        [("wrong_machine", (1, 2)), ("negative_time", (2,)), ("duration", (3,)),
         ("overlap", (2, 1, 3)), ("precedence", (1, 3))]),
    "umps-machine-past-m-is-wrong-home": (
        _checked(validate_umps, _umps3, {1: (3, 0, 1), 2: (1, 1, 3), 3: (2, 1, 2)}),
        [("wrong_machine", (1, 3))]),
    "umps-job-set": (
        _checked(validate_umps, _umps3, {1: (1, 0, 1), 2: (1, 1, 3)}), JobSetMismatch),
    "commdelay-feasible": (
        _checked(validate_commdelay, lambda: _commdelay4(2),
                 {1: (1, 0, 1), 2: (2, 0, 2), 3: (1, 1, 2), 4: (1, 5, 6)}), []),
    "commdelay-every-kind": (
        _checked(validate_commdelay, lambda: _commdelay4(2),
                 {1: (1, 0, 1), 2: (2, -1, 1), 3: (1, 0, 2), 4: (1, 2, 3)}),
        [("negative_time", (2,)), ("duration", (3,)), ("overlap", (1, 1, 3)),
         ("precedence", (1, 3)), ("delay", (2, 4))]),
    "commdelay-unlimited-every-kind": (
        _checked(validate_commdelay, lambda: _commdelay4(None),
                 {1: (1, 0, 1), 2: (7, -1, 1), 3: (1, 0, 2), 4: (1, 2, 3)}),
        [("negative_time", (2,)), ("duration", (3,)), ("overlap", (1, 1, 3)),
         ("precedence", (1, 3)), ("delay", (2, 4))]),
    "commdelay-machine-past-count": (
        _checked(validate_commdelay, lambda: _commdelay4(2),
                 {1: (1, 0, 1), 2: (3, 0, 2), 3: (1, 1, 2), 4: (1, 5, 6)}),
        MachineOutOfRange),
    "commdelay-unlimited-machine-0": (
        _checked(validate_commdelay, lambda: _commdelay4(None),
                 {1: (1, 0, 1), 2: (0, 0, 2), 3: (1, 1, 2), 4: (1, 5, 6)}),
        MachineOutOfRange),
    "commdelay-job-set": (
        _checked(validate_commdelay, lambda: _commdelay4(2), {1: (1, 0, 1)}), JobSetMismatch),
    "related-feasible": (
        _checked(validate_related, _related3,
                 {1: (2, 0, 1), 2: (1, 0, 2), 3: (2, 1, Fraction(3, 2))}), []),
    "related-every-kind": (
        _checked(validate_related, _related3,
                 {1: (2, 0, 1), 2: (1, -1, 1), 3: (2, 0, 1)}),
        [("negative_time", (2,)), ("duration", (3,)), ("overlap", (2, 1, 3)),
         ("precedence", (1, 3))]),
    "related-machine-past-m": (
        _checked(validate_related, _related3,
                 {1: (2, 0, 1), 2: (1, 0, 2), 3: (3, 1, Fraction(3, 2))}),
        MachineOutOfRange),
    "related-job-set": (
        _checked(validate_related, _related3, {1: (2, 0, 1)}), JobSetMismatch),
}
FLAT_SCHEDULE_DIGESTS = {
    "greedy-5-2-1": "05e6b28075c5842d",
    "greedy-6-3-2": "ad09caf40afcdbd4",
    "greedy-8-3-3": "0ab3ea4ef1deb923",
    "list-5-2-1": "9c3a2801ce72f8b6",
    "list-6-3-2": "261be738b3eade99",
    "list-8-3-3": "7f5be7fcd1be3882",
    "reduced-5-2-1": "05ccafa5347203e5",
    "reduced-6-3-2": "d28f70cd2b4c1f70",
    "reduced-8-3-3": "1f09d1fe3badfd40",
    "listwide-7-2-5": "0ab1597e27184feb",
    "listwide-8-2-6": "563dbfda5f9d0b42",
    "listwide-9-3-7": "a1622ada52230ebc",
    "listwide-8-1-3": "7f5be7fcd1be3882",
}
for _name, _digest in FLAT_SCHEDULE_DIGESTS.items():
    _kind, _n, _m, _seed = _name.split("-")
    FLAT_PINS[_name] = (_flat_schedule_digest(_kind, int(_n), int(_m), int(_seed)), _digest)


@pytest.mark.parametrize("name", list(FLAT_PINS))
def test_flat_model_checks_and_schedules_are_pinned(name):
    compute, expected = FLAT_PINS[name]
    if isinstance(expected, type):
        with pytest.raises(expected):
            compute()
    else:
        assert compute() == expected


# ---------------------------------------------------------------------------
# differential: the integer-time validators against the Fraction-time
# oracles, on schedules built to sit on the edges of every check


SPEEDS = (1, 2, 3, 5, 7)


def _same_outcome(check, oracle):
    """``oracle()`` gives the (kind, witness) list that ``check()``'s report
    must hold, or raises the error type ``check()`` must raise."""
    try:
        expected = oracle()
    except (JobSetMismatch, MachineOutOfRange) as exc:
        with pytest.raises(type(exc)):
            check()
        return
    assert [(v.kind, v.witness) for v in check().violations] == expected


def _times(draw, seen):
    """A start time: a time already used, a small integer (negative ones
    included) or a multiple of 1/speed, then 0 to 3 later, so intervals
    touch, start together, or wait out part or all of a delay."""
    base = draw(st.sampled_from(seen)
                | st.integers(-1, 2).map(Fraction)
                | st.builds(Fraction, st.integers(-2, 7), st.sampled_from(SPEEDS)))
    return base + draw(st.sampled_from((0, 0, 1, 2, 3)))


def _nudge(draw):
    return draw(st.sampled_from((0, 0, 1, -1))) * Fraction(1, draw(st.sampled_from(SPEEDS)))


def _edges(draw, n):
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])
    return tuple(draw(st.lists(pairs, max_size=2 * n, unique=True)))


@st.composite
def flat_cases(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    dag = PrecedenceDag(n, _edges(draw, n))
    lengths = {j: draw(st.integers(1, 3)) for j in range(1, n + 1)}
    kind = draw(st.sampled_from(("umps", "commdelay", "related")))
    if kind == "umps":
        inst = UmpsInstance(n=n, m=m, lengths=lengths, dag=dag,
                            home={j: draw(st.integers(1, m)) for j in range(1, n + 1)})
        validate, duration, keys = validate_umps, lambda j, i: inst.lengths[j], {
            "home": inst.home}
    elif kind == "commdelay":
        inst = CommDelayInstance(n_total=n, lengths=lengths, dag=dag,
                                 delays={e: draw(st.integers(0, 3)) for e in dag.edges},
                                 machines=draw(st.none() | st.just(m)))
        validate, duration, keys = validate_commdelay, lambda j, i: inst.lengths[j], {
            "machines": inst.machines, "delays": inst.delays}
    else:
        inst = RelatedInstance(machines=tuple(draw(st.sampled_from(SPEEDS)) for _ in range(m)),
                               jobs=tuple(lengths.values()), dag=dag)
        validate, duration, keys = validate_related, inst.duration, {"machines": m}
    # aligned: each job starts 0 to 3 after its predecessors end, the way
    # a list schedule places it; otherwise anywhere
    aligned, preds = draw(st.booleans()), predecessors(dag)
    seen, entries = [Fraction(0)], {}
    for j in range(1, n + 1):
        machine = draw(st.integers(1, m))
        if aligned:
            ready = max((entries[u][2] for u in preds[j]), default=Fraction(0))
            start = ready + draw(st.sampled_from((0, 0, 1, 2, 3)))
        else:
            start = _times(draw, seen)
        entries[j] = (machine, start, start + duration(j, machine) + _nudge(draw))
        seen += entries[j][1:]
    stray = draw(st.sampled_from((None,) * 4 + (0, m + 1)))  # a machine off every range
    if stray is not None:
        j = draw(st.integers(1, n))
        entries[j] = (stray, *entries[j][1:])
    job_set = draw(st.sampled_from(("exact",) * 8 + ("missing", "extra")))
    if job_set == "missing":
        del entries[n]
    elif job_set == "extra":
        entries[n + 1] = (1, Fraction(0), Fraction(1))
    # some times as ints, the rest as Fractions
    entries = {j: (i, *(int(t) if t.denominator == 1 and draw(st.booleans()) else t
                        for t in (s, e)))
               for j, (i, s, e) in entries.items()}
    return inst, validate, duration, keys, entries, draw(st.integers(1, 6))


def _on_scale(entries, multiple):
    """The schedule of ``entries`` built from ints on ``multiple`` times
    the LCM of its denominators, a scale the schedule must reduce."""
    scale = multiple * math.lcm(*(t.denominator for row in entries.values() for t in row[1:]))
    return Schedule._of_rows({j: (i, int(s * scale), int(e * scale))
                              for j, (i, s, e) in entries.items()}, scale)


def _same_schedule(entries, sched, twin):
    """``sched``, built by the constructor from ``entries``, and ``twin``
    agree in every view, and both match ``entries``."""
    assert sched == twin
    for x in (sched, twin):
        assert x.entries == entries
        assert {type(t) for row in x.entries.values() for t in row[1:]} <= {Fraction}
        assert x.horizon == max((e for _, _, e in entries.values()), default=0)
        assert type(x.horizon) is Fraction
        assert to_obj(x) == {"kind": "schedule", "entries": {
            str(j): [i, str(Fraction(s)), str(Fraction(e))] for j, (i, s, e) in entries.items()}}
        assert from_obj(to_obj(x)) == sched
    assert dump_canonical(to_obj(sched)) == dump_canonical(to_obj(twin))
    if not entries:
        with pytest.raises(EmptySchedule):
            makespan(twin)


@settings(max_examples=150, deadline=None)
@given(flat_cases(), st.data())
def test_flat_validators_match_the_fraction_oracle(case, data):
    inst, validate, duration, keys, entries, multiple = case
    sched, twin = Schedule(entries=entries), _on_scale(entries, multiple)
    _same_schedule(entries, sched, twin)
    for x in (sched, twin):
        _same_outcome(lambda: validate(inst, x),
                      lambda: oracle_flat_violations(inst.dag, x, duration, **keys))
    if entries:  # one time moved by one step of the twin's scale
        job = data.draw(st.sampled_from(sorted(entries)))
        at = data.draw(st.sampled_from((1, 2)))
        row = list(twin._rows[job])
        row[at] += 1
        assert Schedule._of_rows({**twin._rows, job: tuple(row)}, twin._scale) != sched


@st.composite
def grouped_cases(draw):
    g_count, mg_count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    inst = GroupedRelatedInstance(
        job_groups=tuple(JobGroup(draw(st.integers(1, 3)), draw(st.integers(1, 3)), g)
                         for g in range(1, g_count + 1)),
        machine_groups=tuple(MachineGroup(draw(st.integers(1, 3)), draw(st.sampled_from(SPEEDS)))
                             for _ in range(mg_count)),
        group_dag=PrecedenceDag(g_count, _edges(draw, g_count)),
    )
    # aligned: placements in group order, each starting at or just after
    # the last end of its placed predecessor groups; otherwise anywhere
    aligned, preds = draw(st.booleans()), predecessors(inst.group_dag)
    groups = draw(st.lists(st.integers(1, g_count), max_size=7))
    seen, placements, last_end = [Fraction(0)], [], {}
    for g in sorted(groups) if aligned else groups:
        i = draw(st.integers(1, mg_count))
        if aligned:
            ready = max((last_end[u] for u in preds[g] if u in last_end), default=Fraction(0))
            start = ready + draw(st.sampled_from((0, 0, 1)))
        else:
            start = _times(draw, seen)
        exact = Fraction(inst.job_groups[g - 1].length, inst.machine_groups[i - 1].speed)
        end = start + exact + _nudge(draw)
        placements.append(GroupedPlacement(g, i, start, end, draw(st.integers(1, 3))))
        last_end[g] = max(last_end.get(g, end), end)
        seen += [start, end]
    unknown = draw(st.sampled_from((None,) * 8 + ("group", "machine_group")))
    if unknown and placements:
        k = draw(st.integers(0, len(placements) - 1))
        pl = placements[k]
        placements[k] = GroupedPlacement(
            g_count + 1 if unknown == "group" else pl.group,
            mg_count + 1 if unknown == "machine_group" else pl.machine_group,
            pl.start, pl.end, pl.count)
    return (inst, GroupedSchedule(placements=placements), draw(st.booleans()),
            draw(st.integers(1, 6)))


def _grouped_on_scale(gs, multiple):
    """The grouped schedule of ``gs``'s placements built from ints on
    ``multiple`` times the LCM of their denominators, a scale it must
    reduce."""
    scale = multiple * math.lcm(*(t.denominator for pl in gs.placements
                                  for t in (pl.start, pl.end)))
    return GroupedSchedule._of_rows(tuple(
        (pl.group, pl.machine_group, int(pl.start * scale), int(pl.end * scale), pl.count)
        for pl in gs.placements), scale)


def _makespan_or_error(gs):
    try:
        return gs.makespan()
    except EmptySchedule as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(grouped_cases(), st.data())
def test_grouped_validator_matches_the_fraction_oracle(case, data):
    inst, gs, require_complete, multiple = case
    twin = _grouped_on_scale(gs, multiple)
    assert twin == gs and hash(twin) == hash(gs)
    assert twin.placements == gs.placements
    assert {type(t) for pl in twin.placements for t in (pl.start, pl.end)} <= {Fraction}
    assert _makespan_or_error(twin) == _makespan_or_error(gs)
    assert dump_canonical(to_obj(twin)) == dump_canonical(to_obj(gs))
    assert from_obj(to_obj(twin)) == gs
    for x in (gs, twin):
        _same_outcome(lambda: validate_grouped(inst, x, require_complete),
                      lambda: oracle_grouped_violations(inst, gs, require_complete))
    if twin._rows:  # one time moved by one step of the twin's scale
        k = data.draw(st.integers(0, len(twin._rows) - 1))
        at = data.draw(st.sampled_from((2, 3)))
        rows = [list(row) for row in twin._rows]
        rows[k][at] += 1
        moved = GroupedSchedule._of_rows(tuple(map(tuple, rows)), twin._scale)
        assert moved != gs and moved.placements != gs.placements
