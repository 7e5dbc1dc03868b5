import hashlib
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schedreduce
from schedreduce import (
    FractionalSchedule,
    GroupedPlacement,
    GroupedSchedule,
    InfeasibleInput,
    MisplacedFractionExceeded,
    PreconditionGamma,
    PrecedenceDag,
    PropertyViolated,
    TooManyJobsPerSlot,
    UmpsInstance,
    canonicalize,
    extract_integral,
    forward_map_related,
    gen_fractional,
    gen_layered_umps,
    gen_random_umps,
    greedy_canonical,
    makespan,
    partial_load_bound_holds,
    solve_umps_exact,
    strip_misplaced,
    umps_to_related,
    validate_umps,
    window_table,
)
from schedreduce.serialize import dump_canonical, from_obj, to_obj
from oracle import oracle_partial_load
from oracle_scans import oracle_canonicalize

F = Fraction
HALF = F(1, 2)


def swap_pass(fs, trace=None):
    """Swap steps on a copy of ``fs``'s grid until none applies."""
    work = fs._grid.copy()
    work.swaps(trace)
    return work.schedule()


def fill_pass(fs, trace=None):
    """Fill steps on a copy of ``fs``'s grid until none applies."""
    work = fs._grid.copy()
    work.fills(trace)
    return work.schedule()


def job_total(fs, job):
    return sum((x for (l, _), x in fs.mass.items() if l == job), start=F(0))


def one_machine(n, edges=()):
    return UmpsInstance(
        n=n, m=1, lengths={j: 1 for j in range(1, n + 1)},
        home={j: 1 for j in range(1, n + 1)}, dag=PrecedenceDag(n, edges),
    )


# ---------------------------------------------------------------------------
# property validation on construction


def exactly(text):
    return f"^{re.escape(text)}$"


def test_rejects_mass_outside_unit_interval():
    with pytest.raises(PropertyViolated, match=exactly("mass x[1,1] = 3/2 outside [0, 1]")):
        FractionalSchedule(horizon=1, mass={(1, 1): F(3, 2)}, gamma=0,
                           umps_ref=one_machine(1))


def test_rejects_low_job_total():
    with pytest.raises(PropertyViolated, match=exactly(
            "job 1: total mass 1/2 outside [1 - gamma, 1] = [9/10, 1]")):
        FractionalSchedule(horizon=2, mass={(1, 1): HALF}, gamma=F(1, 10),
                           umps_ref=one_machine(1))


def test_rejects_high_job_total_on_mixed_denominators():
    # 2/3 + 3/7 = 23/21: the total is summed exactly and printed reduced
    with pytest.raises(PropertyViolated, match=exactly(
            "job 1: total mass 23/21 outside [1 - gamma, 1] = [4/5, 1]")):
        FractionalSchedule(horizon=2, mass={(1, 1): F(2, 3), (1, 2): F(3, 7)},
                           gamma=F(1, 5), umps_ref=one_machine(1))


def test_rejects_machine_overload():
    inst = one_machine(2)
    with pytest.raises(PropertyViolated, match=exactly("machine 1, slot 1: load 3/2 > 1")):
        FractionalSchedule(
            horizon=1, mass={(1, 1): F(1), (2, 1): HALF}, gamma=HALF, umps_ref=inst
        )


def test_rejects_machine_overload_on_mixed_denominators():
    inst = one_machine(2)
    with pytest.raises(PropertyViolated, match=exactly("machine 1, slot 2: load 13/12 > 1")):
        FractionalSchedule(
            horizon=2, mass={(1, 2): F(3, 4), (2, 1): F(2, 3), (2, 2): F(1, 3)},
            gamma=F(1, 4), umps_ref=inst,
        )


def test_rejects_overlapping_windows_across_edge():
    inst = one_machine(2, edges=((1, 2),))
    with pytest.raises(PropertyViolated, match=exactly(
            "precedence 1 -> 2: windows (1, 2) and (2, 2) not separated")):
        FractionalSchedule(
            horizon=2,
            mass={(1, 1): HALF, (1, 2): HALF, (2, 2): HALF},
            gamma=HALF,
            umps_ref=inst,
        )


def test_accepts_separated_windows_and_reports_them():
    inst = one_machine(2, edges=((1, 2),))
    fs = FractionalSchedule(
        horizon=2, mass={(1, 1): F(1), (2, 2): F(1)}, gamma=0, umps_ref=inst
    )
    assert window_table(fs) == {1: (1, 1), 2: (2, 2)}
    assert job_total(fs, 1) == job_total(fs, 2) == 1


# int() once truncated (1.9, 1) and (2, 2.5) onto job 1, slot 1 and job 2, slot 2
@pytest.mark.parametrize("key", [(F(19, 10), 1), (1.9, 1), (2, 2.5), (True, 1), (1, False),
                                 ("1", 1)])
def test_rejects_job_or_slot_that_is_not_an_int(key):
    with pytest.raises(PropertyViolated, match=exactly(
            f"mass key {key!r}: job and slot must be ints")):
        FractionalSchedule(horizon=2, mass={key: F(1)}, gamma=0, umps_ref=one_machine(2))


# a float horizon once passed and broke greedy_canonical with a bare
# TypeError; a float gamma once became the binary fraction nearest to it
@pytest.mark.parametrize("field, value, message", [
    ("horizon", 2.5, "horizon 2.5 is not an int"),
    ("horizon", True, "horizon True is not an int"),
    ("gamma", 0.1, "gamma 0.1 is not an int or a Fraction"),
    ("gamma", False, "gamma False is not an int or a Fraction"),
    ("mass", {(1, 1): True}, "mass (1, 1): True is not an int or a Fraction"),
    ("mass", {(1, 1): 1.0}, "mass (1, 1): 1.0 is not an int or a Fraction"),
    ("mass", {(1, 1): HALF, (1, 2): 0.5}, "mass (1, 2): 0.5 is not an int or a Fraction"),
], ids=["float-horizon", "bool-horizon", "float-gamma", "bool-gamma", "bool-mass", "float-mass",
        "float-second-mass"])
def test_rejects_horizon_gamma_or_mass_of_the_wrong_type(field, value, message):
    fields = dict(horizon=2, mass={(1, 1): F(1)}, gamma=0, umps_ref=one_machine(1))
    fields[field] = value
    with pytest.raises(TypeError, match=exactly(message)):
        FractionalSchedule(**fields)


def test_zero_masses_are_dropped():
    fs = FractionalSchedule(
        horizon=2, mass={(1, 1): F(1), (1, 2): F(0)}, gamma=0,
        umps_ref=one_machine(1),
    )
    assert (1, 2) not in fs.mass


# ---------------------------------------------------------------------------
# swap and fill steps (hand-computed reference outcomes)


def two_jobs_split_evenly():
    """Both jobs half in slot 1, half in slot 2, one machine."""
    inst = one_machine(2)
    return FractionalSchedule(
        horizon=2,
        mass={(1, 1): HALF, (1, 2): HALF, (2, 1): HALF, (2, 2): HALF},
        gamma=0,
        umps_ref=inst,
    )


def test_swap_resolves_even_split_in_one_step():
    # job 1 precedes job 2 in the (window end, index) order, so the swap
    # pulls job 1's slot-2 mass forward and pushes job 2's slot-1 mass back
    trace = []
    out = swap_pass(two_jobs_split_evenly(), trace=trace)
    assert out.mass == {(1, 1): F(1), (2, 2): F(1)}
    assert trace == ["swap machine=1 jobs=1,2 slot=1 y=1/2"]


def test_swap_reopens_an_earlier_slot_when_a_window_end_moves_back():
    # the swap at slot 3 drains job 1's last slot, so job 1 now finishes
    # before job 2 and a swap at slot 2 opens behind it; fills then pull
    # each job back to the start of its input window
    inst = one_machine(3)
    fs = FractionalSchedule(
        horizon=6,
        mass={(1, 1): HALF, (1, 5): HALF, (2, 2): HALF, (2, 4): HALF,
              (3, 3): HALF, (3, 6): HALF},
        gamma=0, umps_ref=inst,
    )
    trace = []
    out = swap_pass(fs, trace=trace)
    assert trace == ["swap machine=1 jobs=1,3 slot=3 y=1/2",
                     "swap machine=1 jobs=1,2 slot=2 y=1/2"]
    assert out.mass == {(1, 1): HALF, (1, 2): HALF, (2, 3): HALF, (2, 4): HALF,
                        (3, 5): HALF, (3, 6): HALF}
    assert canonicalize(fs).mass == greedy_canonical(fs).mass == {
        (1, 1): F(1), (2, 2): F(1), (3, 3): F(1)}


def test_fill_pulls_later_mass_forward():
    inst = one_machine(1)
    fs = FractionalSchedule(
        horizon=2, mass={(1, 1): HALF, (1, 2): HALF}, gamma=0, umps_ref=inst
    )
    trace = []
    out = fill_pass(fs, trace=trace)
    assert out.mass == {(1, 1): F(1)}
    assert trace == ["fill machine=1 jobs=1 slot=1 y=1/2"]


def test_canonicalize_reaches_greedy_fixpoint():
    fs = two_jobs_split_evenly()
    canon = canonicalize(fs)
    assert canon.mass == greedy_canonical(fs).mass
    # a fixpoint stays put
    assert canonicalize(canon).mass == canon.mass
    assert swap_pass(canon).mass == canon.mass
    assert fill_pass(canon).mass == canon.mass


def test_greedy_orders_by_window_end_then_index():
    # job 2's window ends earlier, so it wins slot 1 despite its index
    inst = one_machine(2)
    fs = FractionalSchedule(
        horizon=3,
        mass={(1, 1): HALF, (1, 3): HALF, (2, 1): HALF, (2, 2): HALF},
        gamma=0,
        umps_ref=inst,
    )
    out = greedy_canonical(fs)
    assert out.mass == {(2, 1): F(1), (1, 2): F(1)}


def test_canonicalize_and_greedy_can_reach_different_fixpoints():
    # the rewrites are not confluent: the fills cut job 3's window end from
    # 5 to 3, which ties job 4's, and the last swap moves job 3 back ahead
    # of job 4 on the lower index; the sweep keeps job 4 first
    fs = FractionalSchedule(
        horizon=5,
        mass={(1, 4): F(1, 3), (1, 5): F(2, 3), (2, 1): F(5, 6), (2, 3): F(1, 6),
              (3, 2): F(5, 6), (3, 5): F(1, 6), (4, 1): F(1, 6), (4, 3): F(5, 6)},
        gamma=0, umps_ref=one_machine(4),
    )
    trace = []
    canon = canonicalize(fs, trace=trace)
    assert canon.mass == {(2, 1): F(1), (3, 2): F(1), (4, 3): F(1), (1, 4): F(1)}
    assert trace == ["swap machine=1 jobs=2,4 slot=1 y=1/6",
                     "swap machine=1 jobs=4,3 slot=2 y=5/6",
                     "fill machine=1 jobs=3 slot=2 y=1/6",
                     "fill machine=1 jobs=3 slot=3 y=1/6",
                     "fill machine=1 jobs=1 slot=4 y=2/3",
                     "swap machine=1 jobs=3,4 slot=2 y=5/6"]
    greedy = greedy_canonical(fs)
    assert greedy.mass == {(2, 1): F(1), (4, 2): F(1), (3, 3): F(1), (1, 4): F(1)}
    for out in (canon, greedy):
        assert canonicalize(out).mass == out.mass
        assert partial_load_bound_holds(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([HALF, F(9, 10)]))
def test_canonicalize_equals_greedy_on_generated_schedules(seed, split):
    fs = _stepping(seed, split)
    canon = canonicalize(fs)
    assert canon.mass == greedy_canonical(fs).mass
    assert partial_load_bound_holds(canon)


@pytest.mark.parametrize("seed", [1247, 3215, 4451, 5539, 7363, 8407, 8483])
def test_canonicalize_equals_greedy_on_divergent_seeds(seed):
    # seeds on which the rewrites once stopped at another fixpoint: a swap
    # pushed a job's first mass later, fills emptied the slot before it,
    # and a window start taken from the current mass no longer reached back
    fs = _generated(seed)
    canon = canonicalize(fs)
    assert canon.mass == greedy_canonical(fs).mass
    assert partial_load_bound_holds(canon)


# ---------------------------------------------------------------------------
# pinned rewrites: the exact trace, canonical form and partial-load verdict
# of canonicalize over a seeded grid


def _fractional(inst, seed, split=HALF):
    sched = solve_umps_exact(inst).schedule
    return gen_fractional(inst, sched, F(1, 10 * inst.n * inst.n), split, seed)


def _generated(seed, split=HALF):
    """Small draws, n 2-5, m 1-3, where the divergent seeds were found."""
    return _fractional(gen_random_umps(2 + seed % 4, 1 + seed % 3, F(1, 3), seed), seed, split)


def _stepping(seed, split):
    """The construction the property tests draw from: n 10-17, m 2-4.  On
    seeds 0, 50, ..., 10,000, 159 of 201 draws take a swap or fill step at
    split 1/2 and 184 at 9/10."""
    return _fractional(gen_random_umps(10 + seed % 8, 2 + seed % 3, F(1, 4), seed), seed, split)


def _grid_fractional(kind, a, b, seed):
    if kind == "random":  # (n, m)
        inst = gen_random_umps(a, b, F(1, 3), seed)
    else:  # layered (layers, per_layer): one machine per layer
        inst = gen_layered_umps(a, b, HALF, seed)
    return _fractional(inst, seed)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# name -> (sha256 prefix of the trace lines, of the canonical JSON of the
# result, partial_load_bound_holds of the result)
CANONICAL_PINS = {
    "random-2-1-0": ("e3b0c44298fc1c14", "de7d9c9daf91aa79", True),
    "random-3-2-1": ("e3b0c44298fc1c14", "c1745786c7baf215", True),
    "random-4-3-2": ("e3b0c44298fc1c14", "911c9980af6755f0", True),
    "random-5-1-3": ("e3b0c44298fc1c14", "39afcc374adab26e", True),
    "random-5-3-1247": ("e1c8a923cf3224b7", "c8c13ff3f04b5121", True),
    "random-5-3-3215": ("0329f58f3b9cd8ac", "b852daa1dae63fc9", True),
    "random-5-3-4451": ("20de81d6af6fca6c", "9777c3bccbceb7e1", True),
    "random-5-2-5539": ("7bf0f77720468af5", "4c657f0d48e58c61", True),
    "random-5-2-7363": ("b4092c9e278b2a38", "c19f589c2035fed8", True),
    "random-5-2-8407": ("06b6f74e1c4e9bef", "f98e3789ba8abf1f", True),
    "random-5-3-8483": ("20de81d6af6fca6c", "6a1fb58b30eb34a8", True),
    "random-8-1-1": ("e3b0c44298fc1c14", "30b66f4d534cc202", True),
    "random-10-2-1": ("e3b0c44298fc1c14", "eefff97fdfa762a5", True),
    "random-10-2-25": ("4a69279597563e85", "cd1c1ee5f5592e19", True),
    "random-12-3-2": ("e446d91bb9e5d403", "8f4177bb9229d2b3", True),
    "random-16-4-3": ("ad6a2d283fc236cd", "4b54462068c8f32b", True),
    "random-16-4-28": ("4507590d757bb718", "5013efa5afd982f7", True),
    "random-20-2-4": ("a1425580a2536543", "3c747f649b240b1b", True),
    "random-24-3-10": ("4707dda5a03d6e7e", "0af8fb6ce59209b5", True),
    "random-24-4-1": ("40f18fb59e25c7d3", "8c5bb0012aff680a", True),
    "random-24-4-9": ("e60c660633cc16f2", "cd7f669a7c187387", True),
    "layered-1-6-1": ("e3b0c44298fc1c14", "1a7c4e287911b66c", True),
    "layered-2-5-2": ("e3b0c44298fc1c14", "e099ea0e54534d88", True),
    "layered-3-4-1": ("a1d949c64dc0c49d", "46e0f0b32a14f183", True),
    "layered-3-4-18": ("45e845f03d6cbad8", "777d95bbbd0a943e", True),
    "layered-4-4-2": ("0ed6f24963617299", "5e1eacf89e1ef120", True),
    "layered-4-4-29": ("b39d4a99ae2fc1ca", "14fa0b6004a29a38", True),
    "layered-2-8-4": ("db305cc53ba2da81", "df4280b6f344df9f", True),
    "layered-3-8-2": ("163c8aee3a02900f", "5880d9ad63e58112", True),
    "layered-3-8-7": ("ff55d1246e260336", "720292f64b29ba09", True),
}


@pytest.mark.parametrize("name", list(CANONICAL_PINS))
def test_canonicalize_is_pinned(name):
    kind, a, b, seed = name.split("-")
    fs = _grid_fractional(kind, int(a), int(b), int(seed))
    trace = []
    canon = canonicalize(fs, trace=trace)
    got = (_digest("\n".join(trace)), _digest(dump_canonical(to_obj(canon))),
           partial_load_bound_holds(canon))
    assert got == CANONICAL_PINS[name]


# ---------------------------------------------------------------------------
# the scans read only split jobs: the same steps as full scans


def _steps_match_full_scans(fs):
    """Run canonicalize and the full-scan reference on ``fs``; assert the
    same trace and masses, and return the step count."""
    trace, reference = [], []
    canon = canonicalize(fs, trace=trace)
    assert canon.mass == oracle_canonicalize(fs, reference)
    assert trace == reference
    return len(trace)


@pytest.mark.parametrize("name", list(CANONICAL_PINS))
def test_split_job_scans_match_full_scans_on_the_pinned_grid(name):
    kind, a, b, seed = name.split("-")
    _steps_match_full_scans(_grid_fractional(kind, int(a), int(b), int(seed)))


@pytest.mark.parametrize("seed", [1247, 3215, 4451, 5539, 7363, 8407, 8483])
def test_split_job_scans_match_full_scans_on_divergent_seeds(seed):
    assert _steps_match_full_scans(_generated(seed)) > 0


SPLIT_HEAVY = (st.integers(16, 40), st.integers(2, 4),
               st.sampled_from([F(1, 8), F(1, 4), F(1, 3)]),
               st.sampled_from([F(3, 4), F(1)]), st.integers(0, 10_000))


def _split_heavy(n, m, edge_prob, split, seed):
    """Larger draws than ``_generated``, where most jobs are split."""
    return _fractional(gen_random_umps(n, m, edge_prob, seed), seed, split)


@settings(max_examples=60, deadline=None)
@given(*SPLIT_HEAVY)
def test_split_job_scans_match_full_scans_on_split_heavy_draws(n, m, edge_prob, split, seed):
    _steps_match_full_scans(_split_heavy(n, m, edge_prob, split, seed))


def test_split_heavy_draws_take_steps():
    # so the property test above compares many steps, not fixpoints
    steps = [_steps_match_full_scans(_split_heavy(16 + k % 25, 2 + k % 3, F(1, 4), F(3, 4), k))
             for k in range(30)]
    assert sum(map(bool, steps)) >= 25 and sum(steps) >= 150


@st.composite
def crowded_schedules(draw):
    """Schedules with no precedence where several jobs share most slots:
    each job's mass, in twelfths, is dealt piece by piece to slots of its
    machine with room left, over a horizon of at most two slots more
    than the machine's job count."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 10))
    home = {j: draw(st.integers(1, m)) for j in range(1, n + 1)}
    horizon = max(Counter(home.values()).values()) + draw(st.integers(0, 2))
    room = {(i, t): 12 for i in range(1, m + 1) for t in range(1, horizon + 1)}
    mass = {}
    for job, i in home.items():
        left = 12
        while left:
            t = draw(st.sampled_from([t for t in range(1, horizon + 1) if room[i, t]]))
            y = draw(st.integers(1, min(left, room[i, t])))
            mass[job, t] = mass.get((job, t), 0) + F(y, 12)
            room[i, t] -= y
            left -= y
    inst = UmpsInstance(n=n, m=m, lengths={j: 1 for j in home}, home=home,
                        dag=PrecedenceDag(n, ()))
    return FractionalSchedule(horizon, mass, 0, inst)


@settings(max_examples=150, deadline=None)
@given(crowded_schedules())
def test_split_job_scans_match_full_scans_on_crowded_slots(fs):
    _steps_match_full_scans(fs)


def test_swap_partner_is_the_lowest_index_later_finisher():
    # jobs 2 and 3 both finish after job 1 and hold mass at slot 1
    fs = FractionalSchedule(
        horizon=4,
        mass={(1, 1): F(1, 3), (1, 2): F(2, 3), (2, 1): F(1, 3), (2, 3): F(2, 3),
              (3, 1): F(1, 3), (3, 4): F(2, 3)},
        gamma=0, umps_ref=one_machine(3),
    )
    trace = []
    swap_pass(fs, trace=trace)
    assert trace[0] == "swap machine=1 jobs=1,2 slot=1 y=1/3"
    assert _steps_match_full_scans(fs) > 1


# ---------------------------------------------------------------------------
# the integer grid: each schedule builds its own, and the rewrites work on
# a copy of it


def staggered_three_jobs():
    """Three jobs split across six slots on one machine: a swap pass, a
    fill pass and canonicalize each move mass."""
    return FractionalSchedule(
        horizon=6,
        mass={(1, 1): HALF, (1, 5): HALF, (2, 2): HALF, (2, 4): HALF,
              (3, 3): HALF, (3, 6): HALF},
        gamma=0, umps_ref=one_machine(3),
    )


def _readings(fs):
    return (
        dict(fs.mass), window_table(fs), dict(fs._grid.loads),
        {job: dict(slots) for job, slots in fs._grid.slots.items()},
    )


@pytest.mark.parametrize("rewrite", [swap_pass, fill_pass, canonicalize])
@pytest.mark.parametrize("make", [staggered_three_jobs, lambda: _generated(3215)],
                         ids=["staggered", "generated-3215"])
def test_rewrites_leave_their_input_unchanged(rewrite, make):
    fs = make()
    before = _readings(fs)
    out = rewrite(fs)
    assert out.mass != fs.mass  # the rewrite moved mass
    assert _readings(fs) == before
    assert _readings(make()) == before


def stripped_offhome():
    """``strip_misplaced`` on a schedule that loses 10 of 900 members of
    job 1, so its masses have the denominator 90."""
    inst = UmpsInstance(n=2, m=2, lengths={1: 1, 2: 1}, home={1: 1, 2: 2},
                        dag=PrecedenceDag(2, ()))
    art = umps_to_related(inst, kappa_override=30)
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, 890),
        GroupedPlacement(1, 2, 1, 1 + F(1, 30), 1),
        GroupedPlacement(2, 2, 0, 1, 1),
    ))
    return strip_misplaced(art, gs)


# every producer of a schedule that builds its grid without the constructor
PRODUCERS = {
    "swap_pass": lambda: swap_pass(staggered_three_jobs()),
    "fill_pass": lambda: fill_pass(staggered_three_jobs()),
    "canonicalize": lambda: canonicalize(staggered_three_jobs()),
    "greedy_canonical": lambda: greedy_canonical(staggered_three_jobs()),
    "canonicalize-generated": lambda: canonicalize(_generated(3215)),
    "canonicalize-fixpoint": lambda: canonicalize(canonicalize(_generated(3215))),
    "strip_misplaced": stripped_offhome,
    "strip_misplaced-canonicalize": lambda: canonicalize(stripped_offhome()),
    "gen_fractional": lambda: _generated(3215),
    "from_obj": lambda: from_obj(to_obj(canonicalize(_generated(3215)))),
}


@pytest.mark.parametrize("name", list(PRODUCERS))
def test_rewritten_schedule_equals_one_built_from_its_masses(name):
    out = PRODUCERS[name]()
    obj = to_obj(out)
    back = from_obj(obj)
    rebuilt = FractionalSchedule(out.horizon, out.mass, out.gamma, out.umps_ref)
    assert out == rebuilt == back
    assert repr(out) == repr(rebuilt)
    assert _readings(out) == _readings(rebuilt) == _readings(back)
    assert vars(out._grid) == vars(rebuilt._grid) == vars(back._grid)
    # read back, the masses keep the file's (job, slot) order, as the
    # constructor keeps them
    in_file = FractionalSchedule(out.horizon, dict(sorted(out.mass.items())), out.gamma,
                                 out.umps_ref)
    assert list(back.mass) == list(in_file.mass) == sorted(out.mass)
    assert repr(back) == repr(in_file)
    assert dump_canonical(to_obj(back)) == dump_canonical(obj)


def test_equality_reads_the_grids():
    fs = _generated(3215)
    canon, greedy = canonicalize(fs), greedy_canonical(fs)
    assert canon == greedy
    # neither side's masses were read off its grid
    assert "mass" not in vars(canon) and "mass" not in vars(greedy)
    assert canon != fs
    assert canon != FractionalSchedule(canon.horizon + 1, canon.mass, canon.gamma, canon.umps_ref)
    assert canon != FractionalSchedule(canon.horizon, canon.mass, canon.gamma / 2, canon.umps_ref)
    assert canon.mass == greedy.mass


def test_schedules_are_unhashable():
    for fs in (staggered_three_jobs(), canonicalize(staggered_three_jobs())):
        with pytest.raises(TypeError):
            hash(fs)


# ---------------------------------------------------------------------------
# termination: every swap and fill step lowers (sum of window ends, Phi)


STEP = re.compile(r"(swap|fill) machine=\d+ jobs=(\d+)(?:,(\d+))? slot=(\d+) y=(\d+)/(\d+)")


def _measure(fs, slots):
    """Window ends, and Phi = sum_l w(l) * sum_t t * mass(l, t), where each
    machine's jobs ranked by (window end, index) weigh k, k - 1, ..., 1."""
    ends = {l: max(s) for l, s in slots.items()}
    phi = 0
    for i in range(1, fs.umps_ref.m + 1):
        ranked = sorted(fs.umps_ref.jobs_on(i), key=lambda l: (ends[l], l))
        for w, l in enumerate(reversed(ranked), start=1):
            phi += w * sum(t * x for t, x in slots[l].items())
    return ends, phi


def _replay_measure(fs):
    """Replay canonicalize's trace on ``fs``'s masses, checking on every
    step that no window end grows and (sum of window ends, Phi) falls
    lexicographically; return the step count."""
    trace = []
    canon = canonicalize(fs, trace=trace)
    slots = {}
    for (job, t), x in fs.mass.items():
        slots.setdefault(job, {})[t] = x

    def move(job, t_from, t_to, y):
        s = slots[job]
        s[t_from] -= y
        if not s[t_from]:
            del s[t_from]
        s[t_to] = s.get(t_to, 0) + y

    ends, phi = _measure(fs, slots)
    for line in trace:
        kind, l1, l2, t, p, q = STEP.fullmatch(line).groups()
        l1, t, y = int(l1), int(t), F(int(p), int(q))
        t2 = min(s for s in slots[l1] if s > t)
        move(l1, t2, t, y)
        if kind == "swap":
            move(int(l2), t, t2, y)
        new_ends, new_phi = _measure(fs, slots)
        assert all(new_ends[l] <= ends[l] for l in ends), line
        assert (sum(new_ends.values()), new_phi) < (sum(ends.values()), phi), line
        ends, phi = new_ends, new_phi
    assert {(l, t): x for l, s in slots.items() for t, x in s.items()} == canon.mass
    return len(trace)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([HALF, F(9, 10)]))
def test_every_rewrite_step_lowers_the_measure(seed, split):
    _replay_measure(_stepping(seed, split))


def test_every_rewrite_step_lowers_the_measure_on_staggered_jobs():
    assert _replay_measure(staggered_three_jobs()) > 0


@pytest.mark.parametrize("name", list(CANONICAL_PINS))
def test_every_rewrite_step_lowers_the_measure_on_the_pinned_grid(name):
    # larger than the generated family, which takes a step on few draws
    kind, a, b, seed = name.split("-")
    _replay_measure(_grid_fractional(kind, int(a), int(b), int(seed)))


# ---------------------------------------------------------------------------
# misplaced-mass stripping


def test_strip_misplaced_reproduces_integral_schedule():
    inst = gen_random_umps(4, 2, F(1, 2), seed=5)
    sched = solve_umps_exact(inst).schedule
    art = umps_to_related(inst, kappa_override=2)
    gs = forward_map_related(art, sched)
    fs = strip_misplaced(art, gs)
    expect = {
        (j, int(s) + 1): F(1) for j, (_, s, _) in sched.entries.items()
    }
    assert fs.mass == expect
    assert fs.gamma == F(1, 10 * inst.n * inst.n)


def test_strip_misplaced_deletes_offhome_mass():
    inst = UmpsInstance(n=2, m=2, lengths={1: 1, 2: 1}, home={1: 1, 2: 2},
                        dag=PrecedenceDag(2, ()))
    art = umps_to_related(inst, kappa_override=30)
    mult = art.output.job_groups[0].multiplicity  # 30^2 = 900
    assert mult == 900
    # gamma is 1/(10 * 4) = 1/40; losing 10 of 900 members (1/90) is inside
    # the tolerance: one goes to the wrong machine group (and is dropped),
    # nine are never placed at all
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, 890),
        GroupedPlacement(1, 2, 1, 1 + F(1, 30), 1),  # off home: unit job at speed 30
        GroupedPlacement(2, 2, 0, 1, 1),             # group 2: one member, length 30
    ))
    fs = strip_misplaced(art, gs)
    assert job_total(fs, 1) == F(890, 900)
    assert job_total(fs, 2) == 1


def test_strip_misplaced_rejects_excess_deletion():
    inst = UmpsInstance(n=2, m=2, lengths={1: 1, 2: 1}, home={1: 1, 2: 2},
                        dag=PrecedenceDag(2, ()))
    art = umps_to_related(inst)  # true kappa: bound active, gamma = 1/40
    mult = art.output.job_groups[0].multiplicity
    missing = mult // 20  # 1/20 > gamma = 1/40
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, mult - missing),
        GroupedPlacement(2, 2, 0, 1, mult_of(art, 2)),
    ))
    with pytest.raises(MisplacedFractionExceeded):
        strip_misplaced(art, gs)


def mult_of(art, group):
    return art.output.job_groups[group - 1].multiplicity


def test_strip_misplaced_requires_makespan_within_n():
    inst = UmpsInstance(n=2, m=1, lengths={1: 1, 2: 1}, home={1: 1, 2: 1},
                        dag=PrecedenceDag(2, ()))
    art = umps_to_related(inst, kappa_override=2)
    mult = art.output.job_groups[0].multiplicity
    gs = GroupedSchedule(placements=(
        GroupedPlacement(1, 1, 0, 1, mult),
        GroupedPlacement(2, 1, 5, 6, mult),  # ends past n = 2
    ))
    with pytest.raises(InfeasibleInput):
        strip_misplaced(art, gs)


# ---------------------------------------------------------------------------
# partial loads and extraction


def test_partial_load_counts_unfinished_mass_only():
    inst = one_machine(2)
    fs = FractionalSchedule(
        horizon=3,
        mass={(1, 1): HALF, (1, 3): HALF, (2, 1): HALF, (2, 2): HALF},
        gamma=0,
        umps_ref=inst,
    )
    # at slot 1: job 1's window runs to slot 3, job 2's to slot 2, so both
    # slot-1 masses are partial
    assert oracle_partial_load(fs, 1, 1) == 1
    assert oracle_partial_load(fs, 1, 2) == HALF
    assert oracle_partial_load(fs, 1, 3) == 0


def _bound_by_brute_force(fs):
    return all(oracle_partial_load(fs, i, t) <= fs.gamma * t
               for i in range(1, fs.umps_ref.m + 1) for t in range(1, fs.horizon + 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_partial_load_bound_matches_brute_force(seed, canonical):
    fs = _generated(seed)
    if canonical:
        fs = canonicalize(fs)
    assert partial_load_bound_holds(fs) == _bound_by_brute_force(fs)


def test_partial_load_bound_draws_both_outcomes():
    # raw perturbations break the bound on some seeds; canonical forms keep it
    seen = {"raw": set(), "canonical": set()}
    for seed in range(60):
        fs = _generated(seed)
        for key, candidate in (("raw", fs), ("canonical", canonicalize(fs))):
            holds = partial_load_bound_holds(candidate)
            assert holds == _bound_by_brute_force(candidate)
            seen[key].add(holds)
    assert seen == {"raw": {False, True}, "canonical": {True}}


def test_partial_load_bound_fails_after_the_first_slot():
    # jobs 2 and 3 both still have mass after slot 2: 1/2 > 2 gamma there,
    # while slots 1, 3 and 4 keep the bound
    inst = one_machine(3)
    fs = FractionalSchedule(
        horizon=4,
        mass={(1, 1): F(1), (2, 2): F(1, 4), (2, 4): F(3, 4),
              (3, 2): F(1, 4), (3, 3): F(3, 4)},
        gamma=F(1, 8), umps_ref=inst,
    )
    assert [oracle_partial_load(fs, 1, t) for t in range(1, 5)] == [0, HALF, F(1, 4), 0]
    assert not partial_load_bound_holds(fs)
    assert not _bound_by_brute_force(fs)
    wider = FractionalSchedule(fs.horizon, fs.mass, F(1, 4), inst)
    assert partial_load_bound_holds(wider) and _bound_by_brute_force(wider)


def test_extract_integral_doubles_slots_and_keeps_order():
    inst = one_machine(2, edges=((1, 2),))
    fs = FractionalSchedule(
        horizon=2, mass={(1, 1): F(1), (2, 2): F(1)}, gamma=0, umps_ref=inst
    )
    sched = extract_integral(fs)
    assert validate_umps(inst, sched).feasible
    assert sched.entries[1] == (1, F(0), F(1))
    assert sched.entries[2] == (1, F(2), F(3))
    assert makespan(sched) <= 2 * 2


def test_extract_integral_two_finishers_share_doubled_slot():
    inst = one_machine(2)
    fs = FractionalSchedule(
        horizon=2,
        mass={(1, 1): HALF, (1, 2): HALF, (2, 1): HALF, (2, 2): HALF},
        gamma=0,
        umps_ref=inst,
    )
    sched = extract_integral(fs)
    # both windows end in slot 2: the pair lands in slots [2,3) and [3,4)
    assert sched.entries[1] == (1, F(2), F(3))
    assert sched.entries[2] == (1, F(3), F(4))
    assert validate_umps(inst, sched).feasible


def test_extract_integral_rejects_three_jobs_in_slot():
    inst = one_machine(3)
    fs = FractionalSchedule(
        horizon=4,
        mass={
            (1, 1): F(1, 3), (1, 2): F(2, 3),
            (2, 1): F(1, 3), (2, 3): F(2, 3),
            (3, 1): F(1, 3), (3, 4): F(2, 3),
        },
        gamma=0,
        umps_ref=inst,
    )
    with pytest.raises(TooManyJobsPerSlot):
        extract_integral(fs)


def test_extract_integral_rejects_large_gamma():
    inst = one_machine(3)
    fs = FractionalSchedule(
        horizon=3, mass={(1, 1): F(1), (2, 2): F(1), (3, 3): F(1)},
        gamma=F(1, 4), umps_ref=inst,
    )
    # gamma * horizon = 3/4 exceeds 1/(10 n) = 1/30
    with pytest.raises(PreconditionGamma):
        extract_integral(fs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_end_to_end_rounding_respects_2l(seed):
    inst = gen_random_umps(2 + seed % 4, 1 + seed % 3, F(1, 3), seed)
    opt = solve_umps_exact(inst)
    fs = gen_fractional(inst, opt.schedule, F(1, 10 * inst.n**2), HALF, seed)
    sched = extract_integral(canonicalize(fs))
    assert validate_umps(inst, sched).feasible
    assert makespan(sched) <= 2 * makespan(opt.schedule)


# ---------------------------------------------------------------------------
# the demo script, end to end through the public trace format

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "rounding_demo.py"
DEMO_STDOUT_SHA256 = "e1c50dde37c6f4b0502b4df90263c35f665c6af1ba6627affd5372638b9cc6e4"


def test_rounding_demo_runs_with_defaults():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(schedreduce.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(DEMO)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256
