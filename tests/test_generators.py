import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedreduce import (
    DivisibilityError,
    PrecedenceDag,
    UmpsInstance,
    gen_fractional,
    gen_jobshop,
    gen_kpartite_dense,
    gen_kpartite_yes,
    gen_layered_umps,
    gen_random_umps,
    kpartite_to_umps,
    makespan,
    solve_umps_exact,
    validate_certificate,
    window_table,
)
from conftest import is_layered
from oracle import pinned_text

F = Fraction
SEEDS = st.integers(0, 2**64 - 1)


# ---------------------------------------------------------------------------
# instance families


def test_layered_full_probability_connects_everything():
    inst = gen_layered_umps(3, 2, F(1), seed=99)
    assert inst.n == 6
    assert len(inst.dag.edges) == 8  # 2*2 pairs per consecutive layer pair
    assert is_layered(inst)


def test_layered_zero_probability_is_edgeless():
    inst = gen_layered_umps(2, 3, F(0), seed=99)
    assert inst.dag.edges == ()
    assert solve_umps_exact(inst).optimum == 3


@given(SEEDS)
def test_layered_deterministic_and_structured(seed):
    a = gen_layered_umps(3, 3, F(1, 2), seed)
    b = gen_layered_umps(3, 3, F(1, 2), seed)
    assert a == b
    assert is_layered(a)
    assert all(a.home[j] == (j - 1) // 3 + 1 for j in range(1, 10))


def test_layered_seed7_runs_twice_identically():
    assert gen_layered_umps(3, 3, F(1, 2), 7) == gen_layered_umps(3, 3, F(1, 2), 7)


@given(st.integers(2, 7), st.integers(1, 3), SEEDS)
def test_random_umps_is_well_formed(n, m, seed):
    inst = gen_random_umps(n, m, F(1, 2), seed)
    assert inst.n == n and inst.m == m
    assert inst.unit_lengths
    assert all(u < v for u, v in inst.dag.edges)  # acyclic by orientation


def test_random_umps_edge_probability_extremes():
    full = gen_random_umps(5, 2, F(1), seed=3)
    assert len(full.dag.edges) == 10  # all index-increasing pairs
    empty = gen_random_umps(5, 2, F(0), seed=3)
    assert empty.dag.edges == ()


def test_random_umps_length_range():
    inst = gen_random_umps(20, 2, F(0), seed=5, max_length=4)
    assert set(inst.lengths.values()) <= {1, 2, 3, 4}
    assert not inst.unit_lengths or len(set(inst.lengths.values())) == 1


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), SEEDS)
def test_jobshop_well_formed(jobs, machines, ops, seed):
    js = gen_jobshop(jobs, machines, ops, seed)
    assert len(js.jobs) == jobs
    assert all(len(chain) == ops for chain in js.jobs)
    assert all(1 <= m_ <= machines and 1 <= d <= 4 for chain in js.jobs for m_, d in chain)
    assert js == gen_jobshop(jobs, machines, ops, seed)


# ---------------------------------------------------------------------------
# layered-graph families


def test_kpartite_yes_requires_divisibility():
    with pytest.raises(DivisibilityError):
        gen_kpartite_yes(5, 2, seed=0)


@given(st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 4)]), SEEDS)
def test_kpartite_yes_certificate_always_valid(shape, seed):
    n, k = shape
    inst, cert = gen_kpartite_yes(n, k, seed)
    validate_certificate(inst, cert)
    assert all(len(cell) == n // k for layer in cert.partition for cell in layer)
    assert inst == gen_kpartite_yes(n, k, seed)[0]


def test_kpartite_yes_reduces_to_layered_instance():
    inst, _ = gen_kpartite_yes(4, 2, seed=11)
    assert is_layered(kpartite_to_umps(inst))


@given(SEEDS)
def test_kpartite_dense_deterministic(seed):
    a = gen_kpartite_dense(4, 2, F(3, 4), seed)
    assert a == gen_kpartite_dense(4, 2, F(3, 4), seed)
    assert a.delta == F(1, 2)


def test_kpartite_dense_density_one_is_complete():
    inst = gen_kpartite_dense(3, 3, F(1), seed=0)
    assert all(len(es) == 9 for es in inst.edges)


# ---------------------------------------------------------------------------
# size parameters follow the value rule: a float or a bool raises
# TypeError naming the parameter, before any draw


def _raises_naming(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("args, kwargs, message", [
    ((2.0, 2, F(1, 2), 1), {}, "n 2.0 is not an int"),
    ((4, 2.0, F(1, 2), 1), {}, "m 2.0 is not an int"),
    ((4, 2, F(1, 2), 1), {"max_length": 2.5}, "max_length 2.5 is not an int"),
    ((4, 2, F(1, 2), 1), {"max_length": True}, "max_length True is not an int"),
])
def test_random_umps_sizes_follow_the_value_rule(args, kwargs, message):
    _raises_naming(lambda: gen_random_umps(*args, **kwargs), message)


@pytest.mark.parametrize("layers, per_layer, message", [
    (2.0, 2, "layers 2.0 is not an int"),
    (2, True, "per_layer True is not an int"),
    (2, "3", "per_layer '3' is not an int"),
])
def test_layered_umps_sizes_follow_the_value_rule(layers, per_layer, message):
    _raises_naming(lambda: gen_layered_umps(layers, per_layer, F(1, 2), 1), message)


@pytest.mark.parametrize("args, message", [
    ((2.0, 2, 2), "jobs 2.0 is not an int"),
    ((2, True, 2), "machines True is not an int"),
    ((2, 2, 1.5), "ops_per_job 1.5 is not an int"),
])
def test_jobshop_sizes_follow_the_value_rule(args, message):
    _raises_naming(lambda: gen_jobshop(*args, 1), message)


@pytest.mark.parametrize("n, k, message", [
    (4.0, 2, "n 4.0 is not an int"),
    (4, True, "k True is not an int"),
])
def test_kpartite_yes_sizes_follow_the_value_rule(n, k, message):
    _raises_naming(lambda: gen_kpartite_yes(n, k, 1), message)


@pytest.mark.parametrize("n, k, message", [
    (3.0, 2, "n 3.0 is not an int"),
    (3, 2.0, "k 2.0 is not an int"),
])
def test_kpartite_dense_sizes_follow_the_value_rule(n, k, message):
    _raises_naming(lambda: gen_kpartite_dense(n, k, F(1, 2), 1), message)


# ---------------------------------------------------------------------------
# fractional perturbation


def fixture_instance(seed):
    return gen_random_umps(2 + seed % 4, 1 + seed % 3, F(1, 3), seed)


def test_no_split_no_deletion_reproduces_integral_schedule():
    inst = fixture_instance(17)
    sched = solve_umps_exact(inst).schedule
    fs = gen_fractional(inst, sched, gamma=F(0), split_prob=F(0), seed=1)
    assert fs.mass == {
        (j, int(s) + 1): F(1) for j, (_, s, _) in sched.entries.items()
    }


def test_chain_cannot_split_and_stays_integral():
    # back-to-back chain: no admissible later slot for any job, so even
    # split_prob 1 leaves every job integral
    inst = UmpsInstance(
        n=3, m=1, lengths={1: 1, 2: 1, 3: 1}, home={1: 1, 2: 1, 3: 1},
        dag=PrecedenceDag(3, ((1, 2), (2, 3))),
    )
    sched = solve_umps_exact(inst).schedule
    fs = gen_fractional(inst, sched, gamma=F(0), split_prob=F(1), seed=2)
    assert all(x == 1 for x in fs.mass.values())
    assert len(fs.mass) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), SEEDS)
def test_fractional_output_always_satisfies_properties(inst_seed, seed):
    inst = fixture_instance(inst_seed)
    sched = solve_umps_exact(inst).schedule
    gamma = F(1, 10 * inst.n**2)
    # constructor re-validates all three properties; reaching here is the test
    fs = gen_fractional(inst, sched, gamma, F(1, 2), seed)
    assert fs.horizon == makespan(sched)
    win = window_table(fs)
    for u, v in inst.dag.edges:
        assert win[u][1] < win[v][0]
    assert fs == gen_fractional(inst, sched, gamma, F(1, 2), seed)


def test_fractional_rejects_infeasible_schedule():
    inst = fixture_instance(3)
    sched = solve_umps_exact(inst).schedule
    bad = {j: (m, s + 100, e + 100) for j, (m, s, e) in sched.entries.items()}
    bad[1] = (inst.home[1], F(1, 3), F(4, 3))  # not slot aligned
    from schedreduce import Schedule

    with pytest.raises(ValueError):
        gen_fractional(inst, Schedule(entries=bad), F(0), F(0), seed=0)


def test_fractional_splits_do_occur_somewhere():
    hits = 0
    for seed in range(40):
        inst = gen_random_umps(5, 2, F(1, 4), seed)
        sched = solve_umps_exact(inst).schedule
        fs = gen_fractional(inst, sched, F(1, 250), F(1, 2), seed)
        if len(fs.mass) > inst.n:
            hits += 1
    assert hits >= 10  # the family genuinely produces fractional cases


# ---------------------------------------------------------------------------
# byte pins: the sha256 of each generator's canonical output over three
# seeds, so any change to a draw, its order or its mapping shows here

PIN_SEEDS = (0, 7, 2**64 - 3)


def _random(p, length):
    return lambda seed: [gen_random_umps(12, 3, F(p), seed, max_length=length)]


def _fractional(gamma):
    def make(seed):
        inst = gen_random_umps(16, 4, F(1, 8), seed)
        g = F(1, 10 * inst.n**2) if gamma is None else gamma
        return [gen_fractional(inst, solve_umps_exact(inst).schedule, g, F(1, 2), seed)]
    return make


GENERATOR_CASES = {
    **{f"random_p{p}_L{length}": _random(p, length)
       for p in ("0", "1/3", "1") for length in (1, 3)},
    "layered": lambda seed: [gen_layered_umps(3, 4, F(1, 2), seed)],
    "jobshop": lambda seed: [gen_jobshop(4, 3, 3, seed)],
    "kpartite_dense": lambda seed: [gen_kpartite_dense(4, 3, F(1, 2), seed)],
    "kpartite_yes": lambda seed: list(gen_kpartite_yes(6, 3, seed)),  # instance, certificate
    "fractional_gamma_1/(10n^2)": _fractional(None),
    "fractional_gamma_9/10": _fractional(F(9, 10)),  # some deletions take half the mass
    "fractional_gamma_0": _fractional(F(0)),
}

GENERATOR_PINS = {
    "fractional_gamma_0": "0a31b166936891e9e02e4496c24a3b28b26270eef6cadbbc0c12c31a404a531a",
    "fractional_gamma_9/10": "1f905b81cb842a5b65e1e91a14e287ced1d563944af5601595532125507d8720",
    "fractional_gamma_1/(10n^2)": "191451c6fead708ccfa6346a180c294cd73790814f4bee866ba35e28534e8653",
    "jobshop": "35d72e0ab4377c8ed6e69a1363adf87429f49aff6cecf91a535138f68c9e3993",
    "kpartite_dense": "9d4c0693a717e932d9b7839f89f471a345ef6e2d4b721f50b6c87a76db85b63e",
    "kpartite_yes": "3d667ef7b51e80c0f9048d31e5b254a9d7403a25e49b315f1645426c1c8040cc",
    "layered": "18de747c630fd00aee597756743305bbb5dcd1036ced9ca31a16eb77f0451253",
    "random_p0_L1": "0629228f0ba5e57a4ffabf975651f1a4c82d1805db769eea75d7e67afc4f68f3",
    "random_p0_L3": "629b82f9b28729711fc900a88da70a5aef148b019cf8f4a16d6bd038425de51e",
    "random_p1/3_L1": "fee91e70738795bebc3459e89f244494f346e46b94f1d36b01e93e3177923b4c",
    "random_p1/3_L3": "ff22deae36bc4adff942bb29b70fccfac44400433056a3dabb62065ca4cfa893",
    "random_p1_L1": "a81ea83f0a83fbccfbf9d64600995dee5259cf8ec58b8929e6a319b126011711",
    "random_p1_L3": "b6f62721343c5d74bd8eb2ba78958a2ca2861ea48f367876e3e7418cddbecf30",
}


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_output_is_pinned(case):
    h = hashlib.sha256()
    for seed in PIN_SEEDS:
        for value in GENERATOR_CASES[case](seed):
            h.update(pinned_text(value).encode())
    assert h.hexdigest() == GENERATOR_PINS[case]
