import dataclasses
import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedreduce import (
    BudgetExceeded,
    CommDelayInstance,
    PrecedenceDag,
    RelatedInstance,
    SolveLimits,
    UmpsInstance,
    gen_kpartite_dense,
    gen_layered_umps,
    gen_random_umps,
    greedy_umps,
    list_schedule_commdelay,
    makespan,
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
)
from schedreduce import solvers
from schedreduce.serialize import dump_canonical, to_obj
from conftest import SAMPLE8, make_sample8
from oracle import (
    oracle_commdelay_optimum,
    oracle_no_property,
    oracle_related_optimum,
    oracle_umps_optimum,
    oracle_unit_bfs,
    pinned_text,
)

F = Fraction

random_umps = st.tuples(
    st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000)
).map(lambda t: gen_random_umps(t[0], t[1], F(1, 2), t[2]))

random_umps_weighted = st.tuples(
    st.integers(2, 5), st.integers(1, 3), st.integers(0, 10_000)
).map(lambda t: gen_random_umps(t[0], t[1], F(1, 2), t[2], max_length=3))


# ---------------------------------------------------------------------------
# fixed-home exact solver


def test_reference_instance_optimum(sample8):
    result = solve_umps_exact(sample8)
    assert result.optimum == SAMPLE8["optimum"]
    assert result.proven_optimal
    assert validate_umps(sample8, result.schedule).feasible
    assert makespan(result.schedule) == SAMPLE8["optimum"]


def test_reference_instance_matches_brute_force(sample8):
    assert oracle_umps_optimum(sample8) == SAMPLE8["optimum"]


@settings(max_examples=60, deadline=None)
@given(random_umps)
def test_unit_solver_agrees_with_brute_force(inst):
    result = solve_umps_exact(inst)
    assert result.proven_optimal
    assert validate_umps(inst, result.schedule).feasible
    assert result.optimum == oracle_umps_optimum(inst)


@settings(max_examples=40, deadline=None)
@given(random_umps_weighted)
def test_weighted_solver_agrees_with_brute_force(inst):
    result = solve_umps_exact(inst)
    assert result.proven_optimal
    assert validate_umps(inst, result.schedule).feasible
    assert result.optimum == oracle_umps_optimum(inst)


def test_edgeless_layered_instance_is_per_machine_serial():
    inst = gen_layered_umps(2, 3, F(0), seed=4)
    assert solve_umps_exact(inst).optimum == 3


def test_complete_chain_is_serial():
    inst = UmpsInstance(
        n=4, m=2, lengths={j: 1 for j in range(1, 5)},
        home={1: 1, 2: 2, 3: 1, 4: 2},
        dag=PrecedenceDag(4, ((1, 2), (2, 3), (3, 4))),
    )
    assert solve_umps_exact(inst).optimum == 4


def test_budget_capped_solve_degrades_to_greedy():
    inst = gen_random_umps(6, 2, F(1, 4), seed=8)
    # f = 3 predecessor-free jobs on machine 2 and L = 3 count only
    # 1 + 3 + 3 = 7 states before the finish, under the cap of 10, so the
    # search runs and trips the cap
    result = solve_umps_exact(inst, SolveLimits(max_states=10))
    assert not result.proven_optimal
    assert result.states_explored > 10  # the capped DP reports its work
    assert validate_umps(inst, result.schedule).feasible


@pytest.mark.parametrize("limits, name", [
    ({"max_jobs": True}, "True"), ({"max_jobs": 6.0}, "6.0"),
    ({"max_states": 2.5}, "2.5"), ({"max_states": "10"}, "'10'")])
def test_solve_limits_take_only_int_counts(limits, name):
    # True would search with max_jobs 1, and a float cap is never coerced
    with pytest.raises(TypeError, match=f"max_jobs or max_states {name} is not an int"):
        SolveLimits(**limits)


@pytest.mark.parametrize("limits, error, message", [
    ({"time_budget": "x"}, TypeError, "time_budget 'x' is not an int or a float"),
    ({"time_budget": True}, TypeError, "time_budget True is not an int or a float"),
    ({"time_budget": F(1, 2)}, TypeError, r"time_budget Fraction\(1, 2\) is not an int or a float"),
    ({"time_budget": float("nan")}, ValueError, "limit time_budget must be >= 0, got nan"),
    ({"time_budget": -0.5}, ValueError, "limit time_budget must be >= 0, got -0.5"),
    ({"max_states": -5}, ValueError, "limit max_states must be >= 0, got -5"),
    ({"max_jobs": -1}, ValueError, "limit max_jobs must be >= 0, got -1"),
])
def test_solve_limits_take_a_real_time_budget_and_no_negative_limit(limits, error, message):
    # a str budget used to fail only mid-search, at its first clock check
    with pytest.raises(error, match=message):
        SolveLimits(**limits)


def test_solve_limits_take_zero_and_an_unbounded_budget():
    assert SolveLimits(max_jobs=0, max_states=0, time_budget=0).time_budget == 0
    assert SolveLimits(time_budget=float("inf")).time_budget == float("inf")


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_umps, random_umps_weighted))
def test_oversized_instance_falls_back(inst):
    # past max_jobs the search returns its seed, which with every job
    # pinned is the greedy list schedule
    result = solve_umps_exact(inst, SolveLimits(max_jobs=inst.n - 1))
    assert result.schedule == greedy_umps(inst)
    assert result.optimum == makespan(result.schedule)
    assert (result.proven_optimal, result.states_explored) == (False, 0)
    assert validate_umps(inst, result.schedule).feasible


@settings(max_examples=40, deadline=None)
@given(random_umps)
def test_greedy_is_feasible_and_above_optimum(inst):
    sched = greedy_umps(inst)
    assert validate_umps(inst, sched).feasible
    assert makespan(sched) >= solve_umps_exact(inst).optimum


# ---------------------------------------------------------------------------
# communication-delay exact solver


def chain2(delay, machines=None):
    return CommDelayInstance(
        n_total=2, lengths={1: 1, 2: 1}, delays={(1, 2): delay},
        dag=PrecedenceDag(2, ((1, 2),)), machines=machines,
    )


def test_commdelay_prefers_colocation_under_large_delay():
    result = solve_commdelay_exact(chain2(delay=10))
    assert result.optimum == 2
    (m1, _, _), (m2, _, _) = result.schedule.entries[1], result.schedule.entries[2]
    assert m1 == m2


def test_commdelay_zero_delay_spreads_independent_jobs():
    inst = CommDelayInstance(
        n_total=2, lengths={1: 2, 2: 2}, delays={}, dag=PrecedenceDag(2, ()),
        machines=2,
    )
    assert solve_commdelay_exact(inst).optimum == 2


def test_commdelay_single_machine_serializes():
    inst = CommDelayInstance(
        n_total=3, lengths={1: 1, 2: 1, 3: 2}, delays={}, dag=PrecedenceDag(3, ()),
        machines=1,
    )
    assert solve_commdelay_exact(inst).optimum == 4


def test_reduced_reference_instance_optimum(sample8):
    art = umps_to_commdelay(sample8)
    result = solve_commdelay_exact(art.output, SolveLimits(max_jobs=12))
    assert result.optimum == SAMPLE8["reduced_optimum"]
    assert result.proven_optimal
    assert validate_commdelay(art.output, result.schedule).feasible


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 10_000),
       st.sampled_from([None, 2]))
def test_commdelay_solver_agrees_with_brute_force(n, c, seed, machines):
    base = gen_random_umps(n, 1, F(1, 2), seed)
    inst = CommDelayInstance(
        n_total=n, lengths=dict(base.lengths),
        delays={e: c for e in base.dag.edges}, dag=base.dag, machines=machines,
    )
    result = solve_commdelay_exact(inst)
    assert result.proven_optimal
    assert validate_commdelay(inst, result.schedule).feasible
    assert result.optimum == oracle_commdelay_optimum(inst)


# ---------------------------------------------------------------------------
# delay-free units: the fixed-home route of the communication-delay solver


def _engine_commdelay(inst, lim):
    """The exact-search engine called as the delay solver calls it on an
    instance that does not take the fixed-home route."""
    cap = inst.machines if inst.machines is not None else inst.n_total
    return solvers._exact_search(
        inst.dag, lim, lambda j, i: inst.lengths[j], delay=inst.delays,
        units=solvers._forced_units(inst), classes=[tuple(range(1, cap + 1))])


def _fixed_home(inst):
    """``inst`` as a fixed-home instance: machine k holds forced unit k."""
    units = solvers._forced_units(inst)
    home = {j: k for k, unit in enumerate(units, start=1) for j in unit}
    return UmpsInstance(inst.n_total, len(units), inst.lengths, home, inst.dag)


# delay gadget outputs of unit and weighted random sources and of layered
# sources, and zero-delay instances on unbounded machines or one per job
delay_free = st.one_of(
    st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000),
              st.sampled_from([1, 3]))
    .map(lambda t: umps_to_commdelay(
        gen_random_umps(t[0], t[1], F(1, 3), t[2], max_length=t[3])).output),
    st.tuples(st.integers(2, 3), st.integers(1, 2), st.sampled_from([F(1, 4), F(1, 2)]),
              st.integers(0, 10_000))
    .map(lambda t: umps_to_commdelay(gen_layered_umps(*t)).output),
    st.tuples(st.integers(2, 7), st.integers(0, 10_000), st.booleans())
    .map(lambda t: _uniform(t[0], 0, t[1], None if t[2] else t[0])),
)


@settings(max_examples=60, deadline=None)
@given(delay_free)
def test_delay_free_units_solve_as_fixed_home(inst):
    # every edge between two units is free and each unit can have a
    # machine of its own, so the fixed-home solver answers, with the
    # optimum of the engine's search over set partitions
    lim = SolveLimits(max_jobs=12, max_states=100_000)
    routed, engine = solve_commdelay_exact(inst, lim), _engine_commdelay(inst, lim)
    assert routed == solve_umps_exact(_fixed_home(inst), lim)
    for result in (routed, engine):
        assert validate_commdelay(inst, result.schedule).feasible
        assert makespan(result.schedule) == result.optimum
    if routed.proven_optimal and engine.proven_optimal:
        assert routed.optimum == engine.optimum


def _one_paid_delay():
    # a gadget output whose source edge 1 -> 3, between the units of
    # machines 2 and 1, costs 1 when its ends sit apart
    art = umps_to_commdelay(_weighted(6, 2, 5))
    assert (art.source.home[1], art.source.home[3]) == (2, 1)
    return dataclasses.replace(art.output, delays={**art.output.delays, (1, 3): 1})


@pytest.mark.parametrize("make", [
    pytest.param(_one_paid_delay, id="delay-between-units"),
    pytest.param(lambda: _short(_reduced(6, 3, 3)), id="fewer-machines-than-units"),
    pytest.param(lambda: CommDelayInstance(n_total=0, lengths={}, delays={},
                                           dag=PrecedenceDag(0)), id="no-jobs"),
])
@pytest.mark.parametrize("cap", [5, 10**6])
def test_other_delay_instances_keep_the_engine(make, cap):
    inst = make()
    lim = SolveLimits(max_jobs=12, max_states=cap)
    result = solve_commdelay_exact(inst, lim)
    assert result == _engine_commdelay(inst, lim)
    assert validate_commdelay(inst, result.schedule).feasible


# ---------------------------------------------------------------------------
# delay-aware list scheduling


def test_list_schedule_respects_machine_cap():
    # four independent unit jobs: a bounded instance's list schedule uses
    # only machines 1..machines, an unbounded one a machine per job
    for machines, used in ((2, {1, 2}), (None, {1, 2, 3, 4})):
        inst = CommDelayInstance(n_total=4, lengths=dict.fromkeys(range(1, 5), 1), delays={},
                                 dag=PrecedenceDag(4), machines=machines)
        sched = list_schedule_commdelay(inst)
        assert validate_commdelay(inst, sched).feasible
        assert {i for i, _, _ in sched.entries.values()} == used


def test_list_schedule_pays_delay_or_waits():
    inst = chain2(delay=3)
    sched = list_schedule_commdelay(inst)
    assert validate_commdelay(inst, sched).feasible
    assert makespan(sched) == 2  # co-locating is free and earliest


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2), st.integers(0, 10_000))
def test_list_schedule_within_c_plus_one_of_optimum(n, c, seed):
    base = gen_random_umps(n, 1, F(1, 2), seed, max_length=2)
    inst = CommDelayInstance(
        n_total=n, lengths=dict(base.lengths),
        delays={e: c for e in base.dag.edges}, dag=base.dag, machines=None,
    )
    sched = list_schedule_commdelay(inst)
    assert validate_commdelay(inst, sched).feasible
    opt = solve_commdelay_exact(inst)
    assert opt.proven_optimal
    assert makespan(sched) <= (c + 1) * opt.optimum


# ---------------------------------------------------------------------------
# related-machines exact solver


def test_related_speed_tradeoff():
    # both jobs on the speed-3 machine beat splitting across machines
    inst = RelatedInstance(machines=(3, 1), jobs=(3, 3), dag=PrecedenceDag(2, ()))
    result = solve_related_exact(inst)
    assert result.optimum == 2
    assert validate_related(inst, result.schedule).feasible


def test_related_chain_runs_on_fastest():
    inst = RelatedInstance(machines=(1, 2), jobs=(2, 2),
                           dag=PrecedenceDag(2, ((1, 2),)))
    assert solve_related_exact(inst).optimum == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10_000))
def test_unit_speed_related_agrees_with_delay_free_brute_force(n, m, seed):
    base = gen_random_umps(n, 1, F(1, 2), seed, max_length=2)
    related = RelatedInstance(
        machines=tuple([1] * m),
        jobs=tuple(base.lengths[j] for j in range(1, n + 1)),
        dag=base.dag,
    )
    identical = CommDelayInstance(
        n_total=n, lengths=dict(base.lengths),
        delays={e: 0 for e in base.dag.edges}, dag=base.dag, machines=m,
    )
    result = solve_related_exact(related)
    assert result.proven_optimal
    assert validate_related(related, result.schedule).feasible
    assert result.optimum == oracle_commdelay_optimum(identical)


# ---------------------------------------------------------------------------
# pinned results of the exact solvers


def _weighted(n, m, seed):
    return gen_random_umps(n, m, F(1, 4), seed, max_length=3)


def _reduced(n, m, seed):
    return umps_to_commdelay(gen_random_umps(n, m, F(1, 3), seed, max_length=2)).output


def _reduced_unit(n, m, seed):
    return umps_to_commdelay(gen_random_umps(n, m, F(1, 3), seed)).output


def _short(inst):
    """A gadget output allowed one machine fewer than it has units."""
    return dataclasses.replace(inst, machines=len(solvers._forced_units(inst)) - 1)


def _uniform(n, c, seed, machines):
    base = gen_random_umps(n, 1, F(1, 3), seed, max_length=3)
    return CommDelayInstance(
        n_total=n, lengths=dict(base.lengths),
        delays={e: c for e in base.dag.edges}, dag=base.dag, machines=machines,
    )


def _related(n, speeds, seed):
    base = gen_random_umps(n, 1, F(1, 4), seed, max_length=4)
    return RelatedInstance(
        machines=speeds, jobs=tuple(base.lengths[j] for j in range(1, n + 1)),
        dag=base.dag,
    )


# (solver, instance, limits, optimum, proven_optimal, states_explored,
#  sha256 of the canonical schedule JSON).  The hash pins tie-breaks, the
# state count pins the pruning order, and the rows that stay unproven pin
# the best-so-far on a budget trip.  A refactor of the search must keep
# every field.  A faster search may change a proven row only by lowering
# its state count, and a stronger seed also by returning another optimal
# schedule.  A capped row may lower its optimum, change its hash or become
# proven (most ``*-capped`` rows prove within their caps; the last two
# rows trip theirs), and must never get worse.  The ``reduced-*`` gadget outputs have delay-free units
# and take the fixed-home route; the ``reduced-short-*`` and ``uniform-*``
# rows run the engine's delay search.
PINNED = [
    pytest.param(solve_umps_exact, lambda: _weighted(5, 2, 1), SolveLimits(),
                 "6", True, 5,
                 "e4dbada5066595fcd25ef06402aa4cbc7c338bb0a89fe1b726d4f154312c439d",
                 id="umps-5-2-1"),
    pytest.param(solve_umps_exact, lambda: _weighted(6, 2, 2), SolveLimits(),
                 "7", True, 1,
                 "7d1f4d43689ca1eec83c25b2542b1c291690b32325b7b29d046724d04e27673d",
                 id="umps-6-2-2"),
    pytest.param(solve_umps_exact, lambda: _weighted(6, 3, 3), SolveLimits(),
                 "7", True, 5,
                 "fa35a52b56e2d9936cc9b7d568dc1958bc91794616fca538e4fca1d0e1341e8a",
                 id="umps-6-3-3"),
    pytest.param(solve_umps_exact, lambda: _weighted(7, 2, 4), SolveLimits(),
                 "9", True, 1,
                 "fd8645e85f5cbb330826cb9d6b04316c7e032a94cb9584d72b11817994886245",
                 id="umps-7-2-4"),
    pytest.param(solve_umps_exact, lambda: _weighted(7, 3, 5), SolveLimits(),
                 "8", True, 1,
                 "4585a1386a1e5756f153186143070b6f175b2a54997445bc17d6a23fda053c8a",
                 id="umps-7-3-5"),
    pytest.param(solve_umps_exact, lambda: _weighted(8, 3, 6), SolveLimits(),
                 "9", True, 1,
                 "3d414fa2cc06f4683ead7ca54c403733d2801d29048c3ace72b8e8941bd0a1cf",
                 id="umps-8-3-6"),
    pytest.param(solve_umps_exact, lambda: _weighted(8, 3, 6), SolveLimits(max_states=1),
                 "9", True, 1,
                 "3d414fa2cc06f4683ead7ca54c403733d2801d29048c3ace72b8e8941bd0a1cf",
                 id="umps-capped1"),
    pytest.param(solve_umps_exact, lambda: _weighted(7, 3, 5), SolveLimits(max_states=6),
                 "8", True, 1,
                 "4585a1386a1e5756f153186143070b6f175b2a54997445bc17d6a23fda053c8a",
                 id="umps-capped"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(4, 2, 1), SolveLimits(max_jobs=12),
                 "5", True, 1,
                 "2bdb52dd87668b9354772d9a28f2e2276199013b35dbcf0aedab6c5e8b89362b",
                 id="reduced-4-2-1"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(5, 2, 2), SolveLimits(max_jobs=12),
                 "6", True, 5,
                 "3e7801cb2bec44cf0054742359cdb74cd420ef5d77d398115c3d4b3a34d97dd8",
                 id="reduced-5-2-2"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(6, 2, 3), SolveLimits(max_jobs=12),
                 "7", True, 1,
                 "9dd959b1bba51ad4928ae92c16d9ce3a5f77d5db9189d9e1f5c7028459277d33",
                 id="reduced-6-2-3"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(5, 3, 4), SolveLimits(max_jobs=12),
                 "5", True, 1,
                 "a822dfcfbeae381795fe030337715aabd68bee1ba29f7cadee9942faedf81de1",
                 id="reduced-5-3-4"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(6, 2, 3), SolveLimits(max_jobs=12, max_states=5),
                 "7", True, 1,
                 "9dd959b1bba51ad4928ae92c16d9ce3a5f77d5db9189d9e1f5c7028459277d33",
                 id="reduced-capped"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(6, 2, 3), SolveLimits(max_jobs=12, max_states=2),
                 "7", True, 1,
                 "9dd959b1bba51ad4928ae92c16d9ce3a5f77d5db9189d9e1f5c7028459277d33",
                 id="reduced-capped2"),
    pytest.param(solve_commdelay_exact, lambda: _reduced(8, 3, 2),
                 SolveLimits(max_jobs=12, max_states=200),
                 "7", True, 6,
                 "33b5e1ac9f22a33b2960a692a170453f51019a7e3209a5b32ebdfd1489fa4a8d",
                 id="reduced-8-3-2"),
    pytest.param(solve_commdelay_exact, lambda: _reduced_unit(7, 3, 1), SolveLimits(max_jobs=12),
                 "8", True, 9,
                 "809c3dabc9bb06fd254d08cc4fec7b32c87c61928b8151cf4400ceb2ad5b8a20",
                 id="reduced-unit-7-3-1"),
    # gadget outputs on fewer machines than units: the engine's delay search
    pytest.param(solve_commdelay_exact, lambda: _short(_reduced(8, 3, 2)),
                 SolveLimits(max_jobs=12),
                 "9", True, 52,
                 "dc01d5ca9b9361d4e25d29ed0e9b4beb1bbf6acb6187c52dfa1b958ee532be18",
                 id="reduced-short-8-3-2"),
    pytest.param(solve_commdelay_exact, lambda: _short(_reduced(8, 3, 2)),
                 SolveLimits(max_jobs=12, max_states=20),
                 "10", False, 21,
                 "6a44cb11fa4906013f78cf8d1e6f6df4055f464bec40294bd4081aca3e1c5746",
                 id="reduced-short-capped"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(5, 1, 1, None), SolveLimits(),
                 "7", True, 1,
                 "9c3a2801ce72f8b6f7cb0e976412194aa9205fb52b918e0d21922c3119e84a82",
                 id="uniform-5-1-1-None"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(6, 2, 2, None), SolveLimits(),
                 "9", True, 16,
                 "cee88fc0a721f04a6039a32fcbe230576d3052c6d5ee67ef5b0e9aa5d72d378a",
                 id="uniform-6-2-2-None"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(5, 1, 3, 2), SolveLimits(),
                 "6", True, 1,
                 "44031b90cd356a7a42ebb96a9ef1aa01204ceb47d6a723ff30d25e7dde2de526",
                 id="uniform-5-1-3-2"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(6, 2, 4, 2), SolveLimits(),
                 "11", True, 24,
                 "531ca6be89ff7701d51391e58240ede28a16171c2719ff29691442bccf5139e3",
                 id="uniform-6-2-4-2"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(6, 0, 5, 2), SolveLimits(),
                 "7", True, 17,
                 "1335f078888c8b9da61aa926ef128f8235326199b09d5ed9ad2c45eff94123fc",
                 id="uniform-6-0-5-2"),
    pytest.param(solve_commdelay_exact, lambda: _uniform(6, 0, 5, 2), SolveLimits(max_states=20),
                 "7", True, 17,
                 "1335f078888c8b9da61aa926ef128f8235326199b09d5ed9ad2c45eff94123fc",
                 id="uniform-capped"),
    pytest.param(solve_related_exact, lambda: _related(4, (1, 2, 3), 1), SolveLimits(),
                 "5/3", True, 1,
                 "0ccb4ce098822eadb45c018b959680021f60e235aa682452d52f93f7f28114b3",
                 id="related-4-1"),
    pytest.param(solve_related_exact, lambda: _related(5, (3, 1, 2), 2), SolveLimits(),
                 "7/3", True, 1,
                 "4cedbeabe1605d0e7945a8ee161b989f5f249a6804cde9d36782cb489a7479bc",
                 id="related-5-2"),
    pytest.param(solve_related_exact, lambda: _related(5, (2, 2, 3), 3), SolveLimits(),
                 "8/3", True, 1,
                 "dd6fd913d150cb411280604d2916c377aff4dac0f1b469244f9e3394dae8b2de",
                 id="related-5-3"),
    pytest.param(solve_related_exact, lambda: _related(6, (1, 2, 4), 4), SolveLimits(),
                 "3", True, 58,
                 "9e8b0feb17baa1acfcab99dd79741a0240ddd57856a472253d3088ac59798fda",
                 id="related-6-4"),
    pytest.param(solve_related_exact, lambda: _related(6, (1, 1, 2), 5), SolveLimits(),
                 "4", True, 13,
                 "221f092499872e5d8da86504cb6dc8ae4ec2434622807bd69ab04298f4ae662e",
                 id="related-6-5"),
    pytest.param(solve_related_exact, lambda: _related(6, (1, 2, 4), 4), SolveLimits(max_states=60),
                 "3", True, 58,
                 "9e8b0feb17baa1acfcab99dd79741a0240ddd57856a472253d3088ac59798fda",
                 id="related-capped"),
    # the related bench's shape: kappa = 2 gadgets of 10 flat jobs under its cap
    pytest.param(solve_related_exact, lambda: _kappa2((2, 2), F(1, 4), 3),
                 SolveLimits(max_states=1500),
                 "2", True, 34,
                 "1ee8242a83db2c2c174a40136bf49a04474aae8f44b534ad2276949ec1655c19",
                 id="kappa2-10-proven"),
    pytest.param(solve_related_exact, lambda: _kappa2((1, 6), F(1, 4), 1),
                 SolveLimits(max_states=1500),
                 "5", True, 1198,
                 "af696150281309868c36f1812413b8f2ef47c35ea87906db2e339b0bcf4367c3",
                 id="kappa2-10-capped"),
    # searches that still trip their caps
    pytest.param(solve_related_exact, lambda: _related(6, (1, 2, 4), 4), SolveLimits(max_states=30),
                 "3", False, 31,
                 "9e8b0feb17baa1acfcab99dd79741a0240ddd57856a472253d3088ac59798fda",
                 id="related-capped-30"),
    pytest.param(solve_related_exact, lambda: _kappa2((1, 6), F(1, 4), 1),
                 SolveLimits(max_states=1000),
                 "6", False, 1001,
                 "ba73447476bdebc8dcad44b77a26a23da8198384bdb5e5c9c3d22e459ec39a76",
                 id="kappa2-10-capped-1000"),
]


def _digest_calls():
    """Seeded calls of the three exact solvers under several state caps.
    The gadget outputs take the delay solver's fixed-home route; uniform
    delays of 1 or more and gadget outputs on fewer machines than units
    run the engine's delay search."""
    commdelay = [_reduced(n, m, seed) for n, m in ((5, 2), (6, 3), (7, 2), (8, 3))
                 for seed in range(10)]
    commdelay += [_uniform(n, c, seed, machines)
                  for n, c, machines in ((5, 1, None), (6, 2, 2), (7, 1, 3)) for seed in range(5)]
    commdelay += [_short(_reduced(n, m, seed)) for n, m in ((5, 2), (6, 3), (7, 3))
                  for seed in range(5)]
    for inst in commdelay:
        for cap in (0, 1, 7, 200):
            yield solve_commdelay_exact, inst, SolveLimits(max_jobs=12, max_states=cap)
    for homed in ((0, 6), (1, 3), (2, 2), (1, 5)):
        for p in (F(1, 4), F(1, 2)):
            for seed in range(3):
                inst = _kappa2(homed, p, seed)
                for cap in (0, 20, 1500):
                    yield solve_related_exact, inst, SolveLimits(max_states=cap)
    for n, m in ((5, 2), (6, 3), (7, 3), (8, 3)):
        for seed in range(10):
            inst = _weighted(n, m, seed)
            for cap in (1, 2_000_000):
                yield solve_umps_exact, inst, SolveLimits(max_states=cap)


def test_exact_solvers_match_pinned_digest():
    # one sha256 over every call's optimum, proof flag, state count and
    # canonical schedule JSON: it pins the states each search visits and
    # every tie-break, on many more searches than the rows above
    digest, calls = hashlib.sha256(), 0
    for solve, inst, lim in _digest_calls():
        result = solve(inst, lim)
        digest.update(f"{result.optimum} {result.proven_optimal} {result.states_explored}\n"
                      .encode())
        digest.update(pinned_text(result.schedule).encode())
        calls += 1
    assert calls == 432
    assert digest.hexdigest() == (
        "70a28c449a635c276dc2076be0342538f4d8b67615e91eff2498a60eedcf4ca9")


def test_exact_solvers_match_pinned_uncapped_outputs():
    # the same instances searched to the end: one sha256 over every
    # optimum and canonical schedule JSON, with no state counts, so a
    # change to the pruning may change the states but must keep it
    digest = hashlib.sha256()
    for solve, inst, lim in _digest_calls():
        result = solve(inst, dataclasses.replace(lim, max_states=10**8))
        assert result.proven_optimal
        digest.update(f"{result.optimum}\n".encode())
        digest.update(pinned_text(result.schedule).encode())
    assert digest.hexdigest() == (
        "2390d5df61a038cf3e4b682b6e405dcd2b73c46a93d917bc703e01ee4263b813")


def _assert_pinned(result, optimum, proven, states, digest):
    schedule_json = pinned_text(result.schedule).encode()
    assert (str(result.optimum), result.proven_optimal, result.states_explored) == (
        optimum, proven, states)
    assert hashlib.sha256(schedule_json).hexdigest() == digest


@pytest.mark.parametrize("solve, make, lim, optimum, proven, states, digest", PINNED)
def test_exact_solvers_match_pinned_results(solve, make, lim, optimum, proven, states, digest):
    _assert_pinned(solve(make(), lim), optimum, proven, states, digest)


# Pinned results of the unit-length dynamic program, in the same columns.
# The rows run the shapes a rounding pass solves (n 24..64 under a
# 20,000-state cap).  The layered 4x8 row under a 400-state cap trips the
# cap after the round that crosses it, so its state count and greedy
# schedule pin where the search stops.  The layered 2x16 and capped sample8
# rows provably cannot finish within their caps, so they are not searched
# and report 0 states.  Any change to the search must keep every field.
UNIT_LIMITS = SolveLimits(max_jobs=64, max_states=20_000)

UNIT_PINNED = [
    pytest.param(lambda: gen_random_umps(24, 2, F(1, 4), 1), UNIT_LIMITS,
                 "16", True, 27,
                 "cfe6f689e76ba48686b3193d9423268bb6eb4541d5e99562aa067b89aa13e720",
                 id="random-24-2"),
    pytest.param(lambda: gen_random_umps(40, 4, F(1, 3), 2), UNIT_LIMITS,
                 "19", True, 31,
                 "0d29538729d371fdc336f701c408baf85748f1e8a8948627ca37d8ed544f1cc8",
                 id="random-40-4"),
    pytest.param(lambda: gen_random_umps(64, 4, F(1, 4), 3), UNIT_LIMITS,
                 "32", True, 49,
                 "2e1bad466f526b85609d0bd0bf5d42d61c61f7e7a203b736881f371ba21f901e",
                 id="random-64-4"),
    pytest.param(lambda: gen_layered_umps(3, 8, F(1, 2), 4), UNIT_LIMITS,
                 "15", True, 449,
                 "bdc8881a0802b888c1a5be1f3bc5a8884d8ab97b81ff0412398cece174d66769",
                 id="layered-3-8"),
    pytest.param(lambda: gen_layered_umps(4, 8, F(2, 3), 5), UNIT_LIMITS,
                 "23", True, 466,
                 "9ed72c38c0d13c9cd5c69d844ac4d0065fb1f315df3be927cd8037dedaaf5dc9",
                 id="layered-4-8"),
    pytest.param(lambda: gen_layered_umps(2, 16, F(1, 2), 6), UNIT_LIMITS,
                 "32", False, 0,
                 "a18884e15d272aba518a90deb59f611db487f001d2750c22cb3434fa1bbd79e6",
                 id="layered-2-16-capped"),
    pytest.param(lambda: gen_layered_umps(4, 8, F(2, 3), 5),
                 SolveLimits(max_jobs=64, max_states=400),
                 "31", False, 404,
                 "f3cfad36087452ed8c324d6fe1c1c6465c1422741361c2170c0156e8ed1269a4",
                 id="layered-4-8-capped"),
    pytest.param(make_sample8, SolveLimits(max_states=1),
                 "7", False, 0,
                 "8551d6318883129248c49c9d157bafae5cc641db774f0056cbfe97181f20c1e5",
                 id="sample8-capped"),
]


@pytest.mark.parametrize("make, lim, optimum, proven, states, digest", UNIT_PINNED)
def test_unit_dp_matches_pinned_results(make, lim, optimum, proven, states, digest):
    inst = make()
    assert inst.unit_lengths
    _assert_pinned(solve_umps_exact(inst, lim), optimum, proven, states, digest)


small_unit_umps = st.one_of(
    st.tuples(st.integers(2, 12), st.integers(1, 3), st.sampled_from([F(0), F(1, 4), F(1, 2)]),
              st.integers(0, 10_000))
    .map(lambda t: gen_random_umps(*t)),
    st.integers(1, 3).flatmap(lambda layers: st.tuples(
        st.just(layers), st.integers(1, 10 if layers < 3 else 7),
        st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]), st.integers(0, 10_000)))
    .map(lambda t: gen_layered_umps(*t)),
)


@settings(max_examples=150, deadline=None)
@given(small_unit_umps, st.integers(1, 2_000))
def test_unit_dp_skips_only_searches_that_cannot_finish(inst, cap):
    # a search that is not started must be one that trips its cap, and an
    # unproven result is the greedy schedule whether the search ran or not
    result = solve_umps_exact(inst, SolveLimits(max_jobs=64, max_states=cap))
    if result.proven_optimal:
        return
    greedy = greedy_umps(inst)
    assert (result.schedule, result.optimum) == (greedy, makespan(greedy))
    if result.states_explored == 0:
        uncapped = solve_umps_exact(inst, SolveLimits(max_jobs=64))
        assert uncapped.proven_optimal
        assert uncapped.states_explored > cap


deep_layered_umps = st.tuples(
    st.integers(4, 6), st.integers(1, 3), st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
    st.integers(0, 10_000)).map(lambda t: gen_layered_umps(*t))

wide_layered_umps = st.tuples(
    st.integers(2, 3), st.integers(4, 6), st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
    st.integers(0, 10_000)).map(lambda t: gen_layered_umps(*t))


def _kept_layers(inst):
    """The kept done masks of each round of the unit DP, uncapped."""
    return [set(layer) for layer in solvers._unit_layers(inst, {0: None})]


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_unit_umps, deep_layered_umps, wide_layered_umps))
def test_unit_dp_agrees_with_the_rule_free_search(inst):
    # the exchange rule and layer dominance only drop states: where the
    # rule-free search proves within the cap, the search proves the same
    # optimum in no more states (so within the cap too), and every
    # schedule is feasible.  Its round t keeps masks that the rule-free
    # search reaches by round t, none inside another
    cap = 5_000
    result = solve_umps_exact(inst, SolveLimits(max_jobs=64, max_states=cap))
    assert validate_umps(inst, result.schedule).feasible
    assert result.optimum == makespan(result.schedule)
    reference = oracle_unit_bfs(inst, cap)
    if reference.optimum is not None:
        assert result.proven_optimal
        assert result.optimum == reference.optimum
        assert result.states_explored <= len(reference.depth)
        layers = _kept_layers(inst)
        assert len(layers) - 1 == result.optimum
        assert sum(map(len, layers)) == result.states_explored
        for t, layer in enumerate(layers):
            assert all(reference.depth[x] <= t for x in layer)
            assert not any(x != y and x & y == x for x in layer for y in layer)


def _two_free_jobs():
    # jobs 1 and 2 are predecessor-free on machine 1, and 2 -> 3 with job 3
    # on machine 2, so desc(1) = {} is a proper subset of desc(2) = {3}
    return UmpsInstance(n=3, m=2, lengths={1: 1, 2: 1, 3: 1}, home={1: 1, 2: 1, 3: 2},
                        dag=PrecedenceDag(3, ((2, 3),)))


def test_unit_dp_never_defers_a_predecessor_free_job():
    # the exchange rule would run job 2 before job 1, but job 1 has no
    # predecessors.  The skip count needs every subset of them to be a kept
    # done mask, so round 1 keeps both singletons, {1} and {2}, as the
    # rule-free search reaches them
    inst = _two_free_jobs()
    reference = oracle_unit_bfs(inst, 10)
    assert reference.depth[0b001] == reference.depth[0b010] == 1
    assert _kept_layers(inst)[1] == {0b001, 0b010}
    result = solve_umps_exact(inst)
    assert (result.optimum, result.states_explored) == (reference.optimum, 4)


def test_unit_dp_drops_a_mask_inside_another_of_its_round():
    # round 2 reaches {1, 2} (from {1}) and {1, 2, 3} (from {2}); {1, 2} lies
    # inside {1, 2, 3}, so round 2 keeps {1, 2, 3} alone, and the search
    # keeps 4 states of the rule-free 5
    inst = _two_free_jobs()
    reference = oracle_unit_bfs(inst, 10)
    assert reference.depth == {0b000: 0, 0b001: 1, 0b010: 1, 0b011: 2, 0b111: 2}
    assert _kept_layers(inst) == [{0b000}, {0b001, 0b010}, {0b111}]
    result = solve_umps_exact(inst)
    assert (result.optimum, result.proven_optimal, result.states_explored) == (2, True, 4)


# ---------------------------------------------------------------------------
# the seeds: the incumbent is the shortest seed at its own makespan, so a
# leaf replaces it only when strictly shorter


def _related_list_beats_serial():
    # speeds 2 and 3, three independent jobs of length 3.  Serially on
    # machine 2 they take 3.  Earliest finish: job 1 on machine 2 over
    # [0, 1]; job 2 on machine 1 over [0, 3/2] (machine 2 would end it at 2);
    # job 3 on machine 2 over [1, 2] (machine 1 would end it at 3).
    # Makespan 2, above the root bound 1 (one job on machine 2)
    inst = RelatedInstance(machines=(2, 3), jobs=(3, 3, 3), dag=PrecedenceDag(3, ()))
    return inst, {1: (2, 0, 1), 2: (1, 0, F(3, 2)), 3: (2, 1, 2)}, validate_related


def _commdelay_list_beats_serial():
    # four unit jobs on two machines, 1 -> 4 with delay 1.  Serially they
    # take 4.  Earliest finish: jobs 1 and 2 side by side, job 3 on machine
    # 1 over [1, 2] (the tie goes to the lower label), and job 4 after it
    # over [2, 3], which machine 2 also reaches only at 3, once the delay
    # is paid.  Makespan 3, above the root bound 2 (the path 1 -> 4); the
    # optimum 2 runs job 4 after job 1 on machine 1
    inst = CommDelayInstance(n_total=4, lengths={1: 1, 2: 1, 3: 1, 4: 1},
                             delays={(1, 4): 1}, dag=PrecedenceDag(4, ((1, 4),)), machines=2)
    return inst, {1: (1, 0, 1), 2: (2, 0, 1), 3: (1, 1, 2), 4: (1, 2, 3)}, validate_commdelay


@pytest.mark.parametrize("solve, make", [
    pytest.param(solve_related_exact, _related_list_beats_serial, id="related"),
    pytest.param(solve_commdelay_exact, _commdelay_list_beats_serial, id="commdelay"),
])
def test_capped_search_returns_the_list_schedule(solve, make):
    inst, listed, validate = make()
    result = solve(inst, SolveLimits(max_states=1))
    assert not result.proven_optimal
    assert result.optimum == makespan(result.schedule) == max(e for _, _, e in listed.values())
    assert result.schedule.entries == listed
    assert validate(inst, result.schedule).feasible


def _related_root_ties_list():
    # speeds 2 and 3, three jobs of length 3, 1 -> 3.  Serially on machine
    # 2 they take 3.  Earliest finish: job 1 on machine 2 over [0, 1]; job
    # 2 on machine 1 over [0, 3/2]; job 3 on machine 2 over [1, 2].
    # Makespan 2, which the path 1 -> 3 at the fastest speed already needs
    inst = RelatedInstance(machines=(2, 3), jobs=(3, 3, 3), dag=PrecedenceDag(3, ((1, 3),)))
    return inst, {1: (2, 0, 1), 2: (1, 0, F(3, 2)), 3: (2, 1, 2)}, validate_related


def _commdelay_root_ties_list():
    # lengths 2, 1, 1, 1 on two machines, 1 -> 3 and 2 -> 4 each with delay
    # 1.  Serially they take 5.  Earliest finish: job 1 on machine 1 over
    # [0, 2]; job 2 on machine 2 over [0, 1]; job 3 after job 1 over [2, 3];
    # job 4 after job 2 over [1, 2].  Makespan 3, the length of the path
    # 1 -> 3
    inst = CommDelayInstance(n_total=4, lengths={1: 2, 2: 1, 3: 1, 4: 1},
                             delays={(1, 3): 1, (2, 4): 1},
                             dag=PrecedenceDag(4, ((1, 3), (2, 4))), machines=2)
    return inst, {1: (1, 0, 2), 2: (2, 0, 1), 3: (1, 2, 3), 4: (2, 1, 2)}, validate_commdelay


@pytest.mark.parametrize("solve, make", [
    pytest.param(solve_related_exact, _related_root_ties_list, id="related"),
    pytest.param(solve_commdelay_exact, _commdelay_root_ties_list, id="commdelay"),
])
def test_root_bound_equal_to_the_seed_proves_it_in_one_state(solve, make):
    # no leaf can beat a seed that meets the root bound, so the search
    # ends at the root and returns the seed, proven
    inst, listed, validate = make()
    result = solve(inst)
    assert (result.optimum, result.proven_optimal, result.states_explored) == (
        max(e for _, _, e in listed.values()), True, 1)
    assert result.schedule.entries == listed
    assert validate(inst, result.schedule).feasible


def _related_critical_path_wins():
    # two speed-1 machines, independent jobs 1 and 2 of length 2 and a
    # chain 3 -> 4 of lengths 1 and 3.  In index order the list schedule
    # runs jobs 1 and 2 first and the chain after them: makespan 6.  Job
    # 3 heads the longest path (1 + 3), so the critical-path order runs
    # the chain on machine 1 and jobs 1 and 2 on machine 2: makespan 4,
    # the root bound
    inst = RelatedInstance(machines=(1, 1), jobs=(2, 2, 1, 3), dag=PrecedenceDag(4, ((3, 4),)))
    return inst, {1: (2, 0, 2), 2: (2, 2, 4), 3: (1, 0, 1), 4: (1, 1, 4)}, validate_related


def _commdelay_critical_path_wins():
    # the same jobs under communication delays, with delay 0 on 3 -> 4;
    # four jobs on two machines, so the engine searches it
    inst = CommDelayInstance(n_total=4, lengths={1: 2, 2: 2, 3: 1, 4: 3}, delays={(3, 4): 0},
                             dag=PrecedenceDag(4, ((3, 4),)), machines=2)
    return inst, {1: (2, 0, 2), 2: (2, 2, 4), 3: (1, 0, 1), 4: (1, 1, 4)}, validate_commdelay


def _umps_critical_path_wins():
    # machine 1 holds job 1 (length 2) and job 2 (length 1), and 2 -> 3
    # with job 3 (length 3) on machine 2.  In index order (the greedy
    # schedule) job 3 starts at 3 and ends at 6; job 2 heads the longer
    # path, so the critical-path order runs it first and ends at 4
    inst = UmpsInstance(n=3, m=2, lengths={1: 2, 2: 1, 3: 3}, home={1: 1, 2: 1, 3: 2},
                        dag=PrecedenceDag(3, ((2, 3),)))
    return inst, {1: (1, 1, 3), 2: (1, 0, 1), 3: (2, 1, 4)}, validate_umps


@pytest.mark.parametrize("solve, make", [
    pytest.param(solve_related_exact, _related_critical_path_wins, id="related"),
    pytest.param(solve_commdelay_exact, _commdelay_critical_path_wins, id="commdelay"),
    pytest.param(solve_umps_exact, _umps_critical_path_wins, id="umps"),
])
def test_critical_path_seed_wins_when_strictly_shorter(solve, make):
    inst, critical, validate = make()
    ms = max(e for _, _, e in critical.values())
    for lim, proven in ((SolveLimits(max_states=0), False), (SolveLimits(), True)):
        result = solve(inst, lim)
        assert (result.optimum, result.proven_optimal) == (ms, proven)
        assert result.schedule.entries == critical
        assert validate(inst, result.schedule).feasible
    # past max_jobs the engine returns before it builds this seed
    oversized = solve(inst, SolveLimits(max_jobs=1))
    assert oversized.optimum > ms and oversized.states_explored == 0


def _commdelay_serial_beats_list():
    # three unit jobs, 1 -> 3 and 2 -> 3 each with delay 2, on two machines.
    # Earliest finish runs jobs 1 and 2 side by side and job 3 over [3, 4];
    # serially on machine 1 they take 3.
    inst = CommDelayInstance(n_total=3, lengths={1: 1, 2: 1, 3: 1},
                             delays={(1, 3): 2, (2, 3): 2},
                             dag=PrecedenceDag(3, ((1, 3), (2, 3))), machines=2)
    return inst, {1: (1, 0, 1), 2: (1, 1, 2), 3: (1, 2, 3)}, validate_commdelay


def _related_serial_ties_list():
    # speeds 1, 3 and 3, a chain of two length-3 jobs: both run on machine 2,
    # the lowest-labelled fastest one
    inst = RelatedInstance(machines=(1, 3, 3), jobs=(3, 3), dag=PrecedenceDag(2, ((1, 2),)))
    return inst, {1: (2, 0, 1), 2: (2, 1, 2)}, validate_related


@pytest.mark.parametrize("solve, make, lim", [
    pytest.param(solve_commdelay_exact, _commdelay_serial_beats_list,
                 SolveLimits(max_states=1), id="commdelay-capped"),
    pytest.param(solve_commdelay_exact, _commdelay_serial_beats_list,
                 SolveLimits(max_jobs=2), id="commdelay-oversized"),
    pytest.param(solve_related_exact, _related_serial_ties_list,
                 SolveLimits(max_jobs=1), id="related-oversized"),
])
def test_unbeaten_search_returns_the_serial_schedule(solve, make, lim):
    inst, serial, validate = make()
    result = solve(inst, lim)
    assert not result.proven_optimal
    assert result.optimum == makespan(result.schedule) == max(e for _, _, e in serial.values())
    assert result.schedule.entries == serial
    assert validate(inst, result.schedule).feasible


def test_oversized_search_returns_the_list_schedule():
    # twelve independent length-2 jobs on speeds 1..6: serially on the
    # speed-6 machine they take 4, earliest finish spreads them to 4/3
    inst = RelatedInstance(machines=(1, 2, 3, 4, 5, 6), jobs=(2,) * 12,
                           dag=PrecedenceDag(12, ()))
    oversized = solve_related_exact(inst)
    capped = solve_related_exact(inst, SolveLimits(max_jobs=12, max_states=1))
    assert (oversized.optimum, oversized.proven_optimal, oversized.states_explored) == (
        F(4, 3), False, 0)
    assert oversized.schedule == capped.schedule
    assert validate_related(inst, oversized.schedule).feasible


# ---------------------------------------------------------------------------
# the lazy memo of a machine's orders


def test_orders_memo_generates_each_order_once(monkeypatch):
    jobs, pred_sets = (1, 2, 3, 4), {1: set(), 2: {1}, 3: set(), 4: {3}}
    expected = list(solvers._extensions(jobs, pred_sets))
    generated = []

    def counted(jobs, pred_sets):
        for order in expected:
            generated.append(order)
            yield order

    monkeypatch.setattr(solvers, "_extensions", counted)
    memo = solvers._Orders(jobs, pred_sets)
    assert list(itertools.islice(memo, 2)) == expected[:2]
    assert generated == expected[:2]  # nothing past the orders asked for
    assert list(memo) == expected
    assert list(memo) == expected
    assert generated == expected


# ---------------------------------------------------------------------------
# the search's time table: one duration call per job and class, or per pin


def _counted_search(inst, lim, duration, **kw):
    calls = []

    def counted(j, i):
        calls.append((j, i))
        return duration(j, i)

    return solvers._exact_search(inst.dag, lim, counted, **kw), sorted(calls)


def test_search_asks_one_time_per_job_and_class():
    # ten jobs on one class of ten machines: ten calls, not a hundred
    comm, lim = _uniform(10, 1, 3, None), SolveLimits(max_jobs=12, max_states=50)
    result, calls = _counted_search(
        comm, lim, lambda j, i: comm.lengths[j], delay=comm.delays,
        units=[(j,) for j in range(1, 11)], classes=[tuple(range(1, 11))])
    assert calls == [(j, 1) for j in range(1, 11)]
    assert result == solve_commdelay_exact(comm, lim)
    # speeds 2, 1, 2, 3, 1: three classes, first machines 1, 2 and 4
    rel = _related(6, (2, 1, 2, 3, 1), 2)
    result, calls = _counted_search(rel, SolveLimits(), rel.duration,
                                    units=[(j,) for j in range(1, 7)],
                                    classes=[(1, 3), (2, 5), (4,)])
    assert calls == [(j, i) for j in range(1, 7) for i in (1, 2, 4)]
    assert result == solve_related_exact(rel)
    # a pinned job: one call, on its pin
    umps = _weighted(8, 3, 6)
    result, calls = _counted_search(umps, SolveLimits(), lambda j, i: umps.lengths[j],
                                    pinned=umps.home)
    assert calls == sorted(umps.home.items())
    assert result == solve_umps_exact(umps)


# ---------------------------------------------------------------------------
# integer time base: scaling every time by a constant changes nothing else


def _related_speeds_times(k):
    # speeds 7, 11, 13 against lengths 1..4: the search scales times by 1001 * k
    return _related(6, (7 * k, 11 * k, 13 * k), 5)


def _related_jobs_times(k):
    base = _related(6, (7, 11, 13), 5)
    return RelatedInstance(machines=base.machines, jobs=tuple(p * k for p in base.jobs),
                           dag=base.dag)


def _commdelay_times(k):
    base = _uniform(6, 2, 7, 2)
    return CommDelayInstance(
        n_total=base.n_total, lengths={j: p * k for j, p in base.lengths.items()},
        delays={e: c * k for e, c in base.delays.items()}, dag=base.dag,
        machines=base.machines,
    )


@pytest.mark.parametrize("k", [2, 7])
@pytest.mark.parametrize("solve, make, power", [
    pytest.param(solve_related_exact, _related_speeds_times, -1, id="related-speeds"),
    pytest.param(solve_related_exact, _related_jobs_times, 1, id="related-jobs"),
    pytest.param(solve_commdelay_exact, _commdelay_times, 1, id="commdelay"),
])
def test_scaling_times_scales_only_the_optimum(solve, make, power, k):
    base, scaled = solve(make(1)), solve(make(k))
    assert base.proven_optimal and scaled.proven_optimal
    assert scaled.optimum == base.optimum * F(k) ** power
    assert scaled.states_explored == base.states_explored
    machines = {j: i for j, (i, _, _) in base.schedule.entries.items()}
    assert {j: i for j, (i, _, _) in scaled.schedule.entries.items()} == machines
    for result in (base, scaled):
        assert type(result.optimum) is Fraction
        assert all(type(t) is Fraction
                   for _, start, end in result.schedule.entries.values() for t in (start, end))


# ---------------------------------------------------------------------------
# symmetry breaking: equal-speed machines and twin jobs


def _kappa2(homed, p, seed):
    """The speed-scaling gadget at kappa = 2, materialized: ``homed[i]``
    source jobs on home machine i + 1 become 4 * homed[0] + homed[1] flat
    jobs on four speed-1 machines and one speed-2 machine."""
    n = sum(homed)
    base = gen_random_umps(n, 1, p, seed)
    src = UmpsInstance(n=n, m=2, lengths=base.lengths,
                       home={j: 1 if j <= homed[0] else 2 for j in range(1, n + 1)},
                       dag=base.dag)
    flat, _, _ = materialize_related(umps_to_related(src, kappa_override=2).output)
    return flat


def _with_twin(inst, k):
    """``inst`` plus job n + 1, a twin of job k: same length, same neighbours."""
    t = inst.n + 1
    edges = list(inst.dag.edges)
    edges += [(u, t) for u, v in inst.dag.edges if v == k]
    edges += [(t, v) for u, v in inst.dag.edges if u == k]
    return RelatedInstance(machines=inst.machines, jobs=inst.jobs + (inst.jobs[k - 1],),
                           dag=PrecedenceDag(t, tuple(edges)))


def _relabeled(inst, perm):
    """``inst`` with job j renamed ``perm[j - 1]``."""
    jobs = [0] * inst.n
    for j, p in enumerate(inst.jobs, start=1):
        jobs[perm[j - 1] - 1] = p
    edges = tuple((perm[u - 1], perm[v - 1]) for u, v in inst.dag.edges)
    return RelatedInstance(machines=inst.machines, jobs=tuple(jobs),
                           dag=PrecedenceDag(inst.n, edges))


REPEATED_SPEEDS = [(2, 1, 2), (2, 2, 1), (1, 1, 2), (3, 1, 3)]

# at most 7 flat jobs: (jobs homed on machine 1, jobs homed on machine 2)
kappa2_related = st.tuples(
    st.sampled_from([(0, b) for b in range(2, 8)] + [(1, b) for b in range(1, 4)]),
    st.sampled_from([F(1, 4), F(1, 2)]), st.integers(0, 10_000),
).map(lambda t: _kappa2(*t))

twinned_related = st.tuples(
    st.integers(2, 5), st.sampled_from(REPEATED_SPEEDS), st.integers(0, 10_000),
    st.integers(1, 5),
).map(lambda t: _with_twin(_related(t[0], t[1], t[2]), min(t[3], t[0])))


@settings(max_examples=30, deadline=None)
@given(st.one_of(kappa2_related, twinned_related))
def test_related_solver_agrees_with_speed_scaled_brute_force(inst):
    result = solve_related_exact(inst)
    assert result.proven_optimal
    assert validate_related(inst, result.schedule).feasible
    assert result.optimum == oracle_related_optimum(inst)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000), st.integers(1, 5), st.randoms())
def test_relabeling_machines_or_twins_keeps_the_optimum(n, seed, k, rnd):
    inst = _with_twin(_related(n, (2, 1, 2), seed), min(k, n))
    moved = RelatedInstance(machines=(2, 2, 1), jobs=inst.jobs, dag=inst.dag)
    perm = list(range(1, inst.n + 1))
    rnd.shuffle(perm)
    base = solve_related_exact(inst)
    for other in (moved, _relabeled(inst, perm)):
        result = solve_related_exact(other)
        assert (result.optimum, result.proven_optimal) == (base.optimum, base.proven_optimal)
        assert validate_related(other, result.schedule).feasible


# ---------------------------------------------------------------------------
# the one-machine bound, and what pruning must keep


def test_machine_bound_prunes_jobs_crowding_the_fast_machine():
    # four length-2 jobs feed one length-8 job on speeds 1, 1 and 2.  A
    # feeder takes 1 on the fast machine 3 and 2 on a slow one; the join
    # takes 4 there and 8 on a slow one.  The optimum 6 runs one feeder on
    # each slow machine and two on machine 3, then the join on machine 3
    # over [2, 6]; the earliest-finish list schedule is such a schedule, so
    # the search only proves it.  A second feeder on a slow machine, or a
    # third on machine 3, makes that machine's bound reach 6, so the
    # machine bound prunes those assignments as they are made, where the
    # longest path alone sees the crowding only once their order is fixed
    # (9 states without the bound)
    inst = RelatedInstance(machines=(1, 1, 2), jobs=(2, 2, 2, 2, 8),
                           dag=PrecedenceDag(5, ((1, 5), (2, 5), (3, 5), (4, 5))))
    result = solve_related_exact(inst)
    assert (result.optimum, result.proven_optimal, result.states_explored) == (6, True, 4)
    assert result.schedule.entries == {1: (3, 0, 1), 2: (1, 0, 2), 3: (2, 0, 2), 4: (3, 1, 2),
                                       5: (3, 2, 6)}
    assert validate_related(inst, result.schedule).feasible


# (solver, instance, validator) of the three engine callers, small enough
# that the caps drawn below fall on both sides of the search's end; of the
# delay instances, the gadget outputs take the fixed-home route and the
# short and uniform ones the engine's delay search
capped_searches = st.one_of(
    kappa2_related.map(lambda inst: (solve_related_exact, inst, validate_related)),
    st.tuples(st.integers(3, 6), st.sampled_from(REPEATED_SPEEDS + [(1, 2, 4), (1, 1, 3)]),
              st.integers(0, 10_000))
    .map(lambda t: (solve_related_exact, _related(*t), validate_related)),
    st.tuples(st.integers(4, 8), st.integers(2, 3), st.integers(0, 10_000))
    .map(lambda t: (solve_commdelay_exact, _reduced(*t), validate_commdelay)),
    st.tuples(st.integers(4, 8), st.integers(2, 3), st.integers(0, 10_000))
    .map(lambda t: (solve_commdelay_exact, _short(_reduced(*t)), validate_commdelay)),
    st.tuples(st.integers(4, 7), st.integers(1, 2), st.integers(0, 10_000),
              st.sampled_from([None, 2, 3]))
    .map(lambda t: (solve_commdelay_exact, _uniform(*t), validate_commdelay)),
    st.tuples(st.integers(5, 8), st.integers(2, 3), st.integers(0, 10_000))
    .map(lambda t: (solve_umps_exact, _weighted(*t), validate_umps)),
)


@settings(max_examples=80, deadline=None)
@given(capped_searches, st.integers(0, 100), st.integers(1, 200))
def test_a_larger_cap_never_returns_a_worse_schedule(search, cap, more):
    # pruning may only skip states: a search proven under a cap returns
    # the uncapped result, and a larger cap never returns a longer schedule
    solve, inst, validate = search
    capped, larger, full = (solve(inst, SolveLimits(max_jobs=12, max_states=c))
                            for c in (cap, cap + more, 10**8))
    assert full.proven_optimal
    for result in (capped, larger, full):
        assert validate(inst, result.schedule).feasible
        assert makespan(result.schedule) == result.optimum
        if result.proven_optimal:
            assert result.optimum == full.optimum
            assert dump_canonical(to_obj(result.schedule)) == dump_canonical(
                to_obj(full.schedule))
    assert larger.optimum <= capped.optimum


# ---------------------------------------------------------------------------
# layered-graph spread check


def test_verify_no_property_trivial_densities():
    assert verify_no_property(gen_kpartite_dense(4, 2, F(1), seed=0))
    assert not verify_no_property(gen_kpartite_dense(4, 2, F(0), seed=0))


def test_verify_no_property_recorded_ground_truth():
    # exhaustively decided once and frozen: this instance is dense
    assert verify_no_property(gen_kpartite_dense(6, 3, F(9, 10), seed=1))


def test_verify_no_property_finds_missing_pair():
    from schedreduce import KPartiteInstance

    # only vertex 1 has edges: the pair ({2,3}, {5,6}) is uncovered
    inst = KPartiteInstance(
        k=2, n=3, layers=((1, 2, 3), (4, 5, 6)),
        edges=(((1, 4), (1, 5), (1, 6), (2, 4), (3, 4)),),
        Q=2, eps=F(1, 3), delta=F(1, 3),
    )
    assert not verify_no_property(inst)


def test_verify_no_property_budget(monkeypatch):
    # s = 2: each of the two layer pairs has C(6, 2) = 15 lower-layer sets
    dense = gen_kpartite_dense(6, 3, F(9, 10), seed=1)
    monkeypatch.setattr(solvers, "NO_PROPERTY_SET_CAP", 29)
    with pytest.raises(BudgetExceeded, match="more than 29 lower-layer sets"):
        verify_no_property(dense)
    monkeypatch.setattr(solvers, "NO_PROPERTY_SET_CAP", 30)
    assert verify_no_property(dense)


def test_verify_no_property_matches_the_pair_oracle():
    outcomes = set()
    for n in range(3, 10):
        for k in range(2, 6):
            for density in (F(1, 2), F(3, 4), F(7, 8)):
                for seed in (1, 2, 3):
                    inst = gen_kpartite_dense(n, k, density, seed)
                    got = verify_no_property(inst)
                    assert got == oracle_no_property(inst), (n, k, density, seed)
                    outcomes.add(got)
    assert outcomes == {False, True}


def test_verify_no_property_certifies_sixteen_by_four(monkeypatch):
    # s = 4: 3 * C(16, 4) = 5,460 lower-layer sets, where the pairs of
    # s-sets number 3 * C(16, 4)^2, about 9.9 million
    monkeypatch.setattr(solvers, "NO_PROPERTY_SET_CAP", 5_460)
    assert verify_no_property(gen_kpartite_dense(16, 4, F(7, 8), seed=1))
