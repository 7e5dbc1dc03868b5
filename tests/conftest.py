"""Shared fixtures.

``sample8`` is the hand-checked reference instance used throughout: 8
unit jobs on 3 machines.  Machine 1 owns jobs 1-3, machine 2 owns 4-6,
machine 3 owns 7-8, with precedence edges
4->1, 1->5, 6->2, 3->6, 6->7, 7->5, 8->4.  Its optimum is 5: the chains
3->6->7->5 and 8->4->1->5 only admit a 5-slot interleaving because slot
[1,2) on machine 2 is contended.  SAMPLE8 freezes every derived value
the tests rely on (verified by hand and by the brute-force oracle).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracle`

from schedreduce import PrecedenceDag, UmpsInstance

SAMPLE8 = {
    "edges": ((4, 1), (1, 5), (6, 2), (3, 6), (6, 7), (7, 5), (8, 4)),
    "home": {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3},
    "topo": [3, 6, 2, 7, 8, 4, 1, 5],
    "optimum": 5,
    "serial": 8,
    # one optimal 5-slot schedule, job -> (machine, start)
    "witness": {3: (1, 0), 8: (3, 0), 6: (2, 1), 2: (1, 2), 4: (2, 2),
                7: (3, 2), 1: (1, 3), 5: (2, 4)},
    "c_infinity": 64,          # n * total length = 8 * 8
    "n_total_reduced": 11,     # 8 jobs + 3 anchors
    "reduced_optimum": 6,      # L + 1 for L = 5, confirmed by exact search
    "kappa_default": 15360,    # 10 * 8^3 * 3
    # kappa_override=2: per home machine (mult, length) of job groups
    "override2_job_groups": {1: (16, 1), 2: (4, 2), 3: (1, 4)},
    "override2_machine_groups": ((16, 1), (4, 2), (1, 4)),
}


def is_layered(inst: UmpsInstance) -> bool:
    """True when every edge goes from a machine-i job to a machine-(i+1) job."""
    return all(inst.home[v] == inst.home[u] + 1 for u, v in inst.dag.edges)


def make_sample8() -> UmpsInstance:
    return UmpsInstance(
        n=8,
        m=3,
        lengths={j: 1 for j in range(1, 9)},
        home=dict(SAMPLE8["home"]),
        dag=PrecedenceDag(8, SAMPLE8["edges"]),
    )


@pytest.fixture
def sample8() -> UmpsInstance:
    return make_sample8()
