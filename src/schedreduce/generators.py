"""Deterministic, seeded instance generators.

Every generator is a pure function of its parameters and a 64-bit seed.
Randomness comes from splitmix64 streams split per entity kind (see
:mod:`schedreduce.rng`), and each generator documents its draw order, so
identical inputs produce bit-identical instances on any platform.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisibilityError
from .model import (
    JobShopInstance,
    KPartiteInstance,
    PrecedenceDag,
    Schedule,
    UmpsInstance,
    as_fraction,
    makespan,
    validate_umps,
)
from .reductions import KPartiteYesCertificate
from .rng import Stream
from .rounding import FractionalSchedule


def gen_layered_umps(layers: int, per_layer: int, edge_prob, seed: int) -> UmpsInstance:
    """Layered unit-job instance: machine i owns jobs (i-1)*w+1 .. i*w and
    edges only run from layer i to layer i+1.

    Each potential edge is drawn from the "edges" stream in (layer,
    source, target) order with probability ``edge_prob``.
    """
    m, w = layers, per_layer
    if m < 1 or w < 1:
        raise ValueError("need layers >= 1 and per_layer >= 1")
    prob = as_fraction(edge_prob)
    n = m * w
    rng = Stream(seed, "edges")
    edges = []
    for i in range(1, m):
        for a in range(1, w + 1):
            for b in range(1, w + 1):
                if rng.bernoulli(prob):
                    edges.append(((i - 1) * w + a, i * w + b))
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
    stream).  Acyclic by construction."""
    if n < 1 or m < 1 or max_length < 1:
        raise ValueError("need n, m, max_length >= 1")
    prob = as_fraction(edge_prob)
    homes_rng = Stream(seed, "homes")
    home = {j: homes_rng.randint(1, m) for j in range(1, n + 1)}
    edges_rng = Stream(seed, "edges")
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if edges_rng.bernoulli(prob)
    ]
    lengths_rng = Stream(seed, "lengths")
    lengths = {j: lengths_rng.randint(1, max_length) for j in range(1, n + 1)}
    return UmpsInstance(n=n, m=m, lengths=lengths, home=home, dag=PrecedenceDag(n, tuple(edges)))


def gen_jobshop(jobs: int, machines: int, ops_per_job: int, seed: int) -> JobShopInstance:
    """Random job shop: each of ``jobs`` chains has ``ops_per_job``
    operations with a uniform machine ("machines" stream) and a duration
    uniform in [1, 4] ("durations" stream), drawn job-major."""
    if jobs < 1 or machines < 1 or ops_per_job < 1:
        raise ValueError("need jobs, machines, ops_per_job >= 1")
    m_rng = Stream(seed, "machines")
    d_rng = Stream(seed, "durations")
    chains = []
    for _ in range(jobs):
        chains.append(
            tuple((m_rng.randint(1, machines), d_rng.randint(1, 4)) for _ in range(ops_per_job))
        )
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
    edges_rng = Stream(seed, "edges")
    half = Fraction(1, 2)
    all_edges = []
    for i in range(k - 1):
        layer_edges = []
        for j1 in range(q):
            for j2 in range(j1, q):
                for u in partition[i][j1]:
                    for v in partition[i + 1][j2]:
                        if edges_rng.bernoulli(half):
                            layer_edges.append((u, v))
        all_edges.append(tuple(sorted(layer_edges)))
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
    if k < 1 or n < 1:
        raise ValueError("need n, k >= 1")
    prob = as_fraction(density)
    rng = Stream(seed, "edges")
    all_edges = []
    for i in range(1, k):
        layer_edges = [
            (u, v)
            for u in range((i - 1) * n + 1, i * n + 1)
            for v in range(i * n + 1, (i + 1) * n + 1)
            if rng.bernoulli(prob)
        ]
        all_edges.append(tuple(layer_edges))
    return KPartiteInstance(
        k=k,
        n=n,
        layers=tuple(tuple(range((i - 1) * n + 1, i * n + 1)) for i in range(1, k + 1)),
        edges=tuple(all_edges),
        Q=k,
        eps=Fraction(1, k),
        delta=Fraction(1, k),
    )


_SPLIT_FRACTIONS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3))


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
    The result is re-validated on construction.
    """
    gamma = as_fraction(gamma)
    split_prob = as_fraction(split_prob)
    if not inst.unit_lengths:
        raise ValueError("fractional perturbation needs unit lengths")
    report = validate_umps(inst, sched)
    if not report.feasible:
        raise ValueError(f"input schedule infeasible: {report.violations[0]}")
    horizon = makespan(sched)
    if horizon.denominator != 1:
        raise ValueError("input schedule must be slot-aligned")
    horizon = int(horizon)
    slot_of = {}
    for job, (_, start, _) in sched.entries.items():
        if start.denominator != 1:
            raise ValueError("input schedule must be slot-aligned")
        slot_of[job] = int(start) + 1

    succ = inst.dag.successors()
    mass = {(j, slot_of[j]): Fraction(1) for j in range(1, inst.n + 1)}
    load = {}
    for j, s in slot_of.items():
        load[(inst.home[j], s)] = load.get((inst.home[j], s), Fraction(0)) + 1

    rng = Stream(seed, "split")
    for j in range(1, inst.n + 1):
        if not rng.bernoulli(split_prob):
            continue
        limit = min((slot_of[v] for v in succ[j]), default=horizon + 1)
        home = inst.home[j]
        slots = [
            t for t in range(slot_of[j] + 1, min(limit, horizon + 1))
            if load.get((home, t), Fraction(0)) < 1
        ]
        if not slots:
            continue  # nothing admissible: leave the job integral
        target = slots[rng.randrange(len(slots))]
        slack = 1 - load.get((home, target), Fraction(0))
        choices = [f for f in _SPLIT_FRACTIONS if f <= slack]
        y = choices[rng.randrange(len(choices))] if choices else slack
        mass[(j, slot_of[j])] -= y
        mass[(j, target)] = y
        load[(home, slot_of[j])] -= y
        load[(home, target)] = load.get((home, target), Fraction(0)) + y

    del_rng = Stream(seed, "delete")
    for j in range(1, inst.n + 1):
        if gamma > 0 and del_rng.bernoulli(Fraction(1, 2)):
            amount = min(gamma * Fraction(j, 2 * inst.n), mass[(j, slot_of[j])] / 2)
            mass[(j, slot_of[j])] -= amount

    return FractionalSchedule(horizon=horizon, mass=mass, gamma=gamma, umps_ref=inst)
