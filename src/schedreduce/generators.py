"""Deterministic, seeded instance generators.

Every generator is a pure function of its parameters and a 64-bit seed.
Randomness comes from splitmix64 streams split per entity kind (see
:mod:`schedreduce.rng`), and each generator documents its draw order, so
identical inputs produce bit-identical instances on any platform.
Size parameters follow the value rule: a bool, a float or any other
non-int raises ``TypeError`` naming the parameter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import lcm

from .errors import DivisibilityError
from .model import (
    _INT,
    JobShopInstance,
    KPartiteInstance,
    PrecedenceDag,
    Schedule,
    UmpsInstance,
    _check_types,
    as_fraction,
    makespan,
    validate_umps,
)
from .reductions import KPartiteYesCertificate
from .rng import Stream
from .rounding import FractionalSchedule


def _check_sizes(**sizes) -> None:
    """Raise ``TypeError`` naming the first size parameter that is not an int."""
    for name, value in sizes.items():
        _check_types(_INT, name, (value,))


def gen_layered_umps(layers: int, per_layer: int, edge_prob, seed: int) -> UmpsInstance:
    """Layered unit-job instance: machine i owns jobs (i-1)*w+1 .. i*w and
    edges only run from layer i to layer i+1.

    Each potential edge is drawn from the "edges" stream in (layer,
    source, target) order with probability ``edge_prob``.
    """
    _check_sizes(layers=layers, per_layer=per_layer)
    m, w = layers, per_layer
    if m < 1 or w < 1:
        raise ValueError("need layers >= 1 and per_layer >= 1")
    prob = as_fraction(edge_prob, "edge_prob")
    n = m * w
    pairs = [((i - 1) * w + a, i * w + b)
             for i in range(1, m) for a in range(1, w + 1) for b in range(1, w + 1)]
    edges = list(compress(pairs, Stream(seed, "edges").bernoullis(prob, len(pairs))))
    return UmpsInstance(
        n=n,
        m=m,
        lengths={j: 1 for j in range(1, n + 1)},
        home={j: (j - 1) // w + 1 for j in range(1, n + 1)},
        dag=PrecedenceDag(n, tuple(edges)),
    )


def gen_random_umps(n: int, m: int, edge_prob, seed: int, max_length: int = 1) -> UmpsInstance:
    """Random instance: homes uniform over [m] ("homes" stream), each
    index-increasing pair (u, v) an edge with ``edge_prob`` ("edges"
    stream, (u, v) order), lengths uniform in [1, max_length] ("lengths"
    stream; at max_length 1 it is not drawn, as every length is 1 whatever
    the word).  Acyclic by construction."""
    _check_sizes(n=n, m=m, max_length=max_length)
    if n < 1 or m < 1 or max_length < 1:
        raise ValueError("need n, m, max_length >= 1")
    prob = as_fraction(edge_prob, "edge_prob")
    jobs = range(1, n + 1)
    home = dict(zip(jobs, Stream(seed, "homes").randints(1, m, n)))
    pairs = [(u, v) for u in jobs for v in range(u + 1, n + 1)]
    edges = list(compress(pairs, Stream(seed, "edges").bernoullis(prob, len(pairs))))
    lengths = dict(zip(jobs, Stream(seed, "lengths").randints(1, max_length, n)))
    return UmpsInstance(n=n, m=m, lengths=lengths, home=home, dag=PrecedenceDag(n, tuple(edges)))


def gen_jobshop(jobs: int, machines: int, ops_per_job: int, seed: int) -> JobShopInstance:
    """Random job shop: each of ``jobs`` chains has ``ops_per_job``
    operations with a uniform machine ("machines" stream) and a duration
    uniform in [1, 4] ("durations" stream), drawn job-major."""
    _check_sizes(jobs=jobs, machines=machines, ops_per_job=ops_per_job)
    if jobs < 1 or machines < 1 or ops_per_job < 1:
        raise ValueError("need jobs, machines, ops_per_job >= 1")
    count = jobs * ops_per_job
    ops = list(zip(Stream(seed, "machines").randints(1, machines, count),
                   Stream(seed, "durations").randints(1, 4, count)))
    chains = (tuple(ops[k:k + ops_per_job]) for k in range(0, count, ops_per_job))
    return JobShopInstance(jobs=tuple(chains))


def _cells_for_layer(vertices, q, rng):
    order = rng.shuffle(list(vertices))
    size = len(vertices) // q
    return [tuple(sorted(order[c * size:(c + 1) * size])) for c in range(q)]


def gen_kpartite_yes(n: int, k: int, seed: int):
    """Planted-partition YES instance with Q = k cells per layer.

    Requires k | n so each cell has exactly n/Q vertices.  Per layer the
    vertex ids are shuffled ("cells" stream, layer order) and cut into Q
    cells; edges then run only from cell j1 of layer i to cell j2 >= j1
    of layer i+1, each included with probability 1/2 ("edges" stream, in
    (layer, j1, j2, u, v) order).  Returns the instance and the planted
    certificate, which is valid by construction.
    """
    _check_sizes(n=n, k=k)
    if k < 1 or n < 1:
        raise ValueError("need n, k >= 1")
    if n % k != 0:
        raise DivisibilityError(f"k = {k} must divide n = {n}")
    q = k
    cells_rng = Stream(seed, "cells")
    partition = []
    for i in range(1, k + 1):
        layer = range((i - 1) * n + 1, i * n + 1)
        partition.append(tuple(_cells_for_layer(layer, q, cells_rng)))
    pairs = [[(u, v) for j1 in range(q) for j2 in range(j1, q)
              for u in partition[i][j1] for v in partition[i + 1][j2]]
             for i in range(k - 1)]
    hits = iter(Stream(seed, "edges").bernoullis(Fraction(1, 2), sum(map(len, pairs))))
    all_edges = [tuple(sorted(compress(layer, islice(hits, len(layer))))) for layer in pairs]
    inst = KPartiteInstance(
        k=k,
        n=n,
        layers=tuple(tuple(range((i - 1) * n + 1, i * n + 1)) for i in range(1, k + 1)),
        edges=tuple(all_edges),
        Q=q,
        eps=Fraction(1, k),
        delta=Fraction(1, k),
    )
    cert = KPartiteYesCertificate(partition=tuple(partition))
    return inst, cert


def gen_kpartite_dense(n: int, k: int, density, seed: int) -> KPartiteInstance:
    """Every consecutive-layer pair is an edge independently with
    ``density`` ("edges" stream, (layer, u, v) order); delta = 1/k is
    recorded but NOT certified here - run the exhaustive spread check to
    certify the soundness floor before relying on it."""
    _check_sizes(n=n, k=k)
    if k < 1 or n < 1:
        raise ValueError("need n, k >= 1")
    prob = as_fraction(density, "density")
    pairs = [[(u, v) for u in range((i - 1) * n + 1, i * n + 1)
              for v in range(i * n + 1, (i + 1) * n + 1)]
             for i in range(1, k)]
    hits = iter(Stream(seed, "edges").bernoullis(prob, sum(map(len, pairs))))
    all_edges = [tuple(compress(layer, islice(hits, len(layer)))) for layer in pairs]
    return KPartiteInstance(
        k=k,
        n=n,
        layers=tuple(tuple(range((i - 1) * n + 1, i * n + 1)) for i in range(1, k + 1)),
        edges=tuple(all_edges),
        Q=k,
        eps=Fraction(1, k),
        delta=Fraction(1, k),
    )


_SPLIT_TWELFTHS = (6, 4, 3, 8)  # 1/2, 1/3, 1/4 and 2/3 of a slot


def gen_fractional(
    inst: UmpsInstance, sched: Schedule, gamma, split_prob, seed: int
) -> FractionalSchedule:
    """Perturb a feasible integral unit-job schedule into a fractional one
    that still satisfies all three schedule properties.

    For each job in index order, a "split" draw moves part of its mass to
    a later slot that stays within the horizon, ahead of every direct
    successor's slot, and within the home machine's remaining capacity
    (slot and fraction chosen by further "split" draws); jobs with no
    admissible slot are simply left integral.  Afterwards each job loses
    gamma * j / (2n) mass from its first slot on a "delete" coin flip.
    Masses and loads are kept as integers in units of 1 / lcm(24, 2n *
    denominator(gamma)), which holds every split (twelfths of a slot) and
    every deletion exactly.  The result's grid is built from those units
    and validated once.
    """
    gamma = as_fraction(gamma, "gamma")
    split_prob = as_fraction(split_prob, "split_prob")
    if not inst.unit_lengths:
        raise ValueError("fractional perturbation needs unit lengths")
    report = validate_umps(inst, sched)
    if not report.feasible:
        raise ValueError(f"input schedule infeasible: {report.violations[0]}")
    if sched._scale != 1:  # some time is not an integer
        raise ValueError("input schedule must be slot-aligned")
    horizon = int(makespan(sched))
    slot_of = {job: start + 1 for job, (_, start, _) in sched._rows.items()}

    n = inst.n
    one = lcm(24, 2 * n * gamma.denominator)
    splits = [one // 12 * t for t in _SPLIT_TWELFTHS]
    # limit[j]: the first slot j's mass may not reach, its earliest
    # successor's slot (past the horizon when it has none)
    limit = [horizon + 1] * (n + 1)
    for u, v in inst.dag.edges:
        if slot_of[v] < limit[u]:
            limit[u] = slot_of[v]
    mass = {(j, slot_of[j]): one for j in range(1, n + 1)}
    load = {}
    for j, s in slot_of.items():
        load[(inst.home[j], s)] = load.get((inst.home[j], s), 0) + one

    # at most three "split" draws per job, taken in order from one block:
    # a Bernoulli draw is w * den < num * 2^64, and a draw from a list of
    # k is the multiply-shift w * k >> 64, as in the stream's own draws
    num, den = split_prob.numerator, split_prob.denominator
    if not 0 <= num <= den:
        raise ValueError(f"probability {split_prob} outside [0, 1]")
    draws = iter(Stream(seed, "split").words(3 * n))
    for j in range(1, n + 1):
        if next(draws) * den >= num << 64:
            continue
        home = inst.home[j]
        slots = [t for t in range(slot_of[j] + 1, limit[j]) if load.get((home, t), 0) < one]
        if not slots:
            continue  # nothing admissible: leave the job integral
        target = slots[next(draws) * len(slots) >> 64]
        slack = one - load.get((home, target), 0)
        choices = [y for y in splits if y <= slack]
        y = choices[next(draws) * len(choices) >> 64] if choices else slack
        mass[(j, slot_of[j])] -= y
        mass[(j, target)] = y
        load[(home, slot_of[j])] -= y
        load[(home, target)] = load.get((home, target), 0) + y

    if gamma > 0:
        # gamma * j / (2n) of a slot, in units
        step = gamma.numerator * (one // (2 * n * gamma.denominator))
        coins = Stream(seed, "delete").bernoullis(Fraction(1, 2), n)
        for j, coin in zip(range(1, n + 1), coins):
            if coin:
                first = (j, slot_of[j])
                mass[first] -= min(step * j, mass[first] // 2)

    return FractionalSchedule._of_units(horizon, mass, one, gamma, inst)
