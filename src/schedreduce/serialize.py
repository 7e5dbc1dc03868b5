"""Canonical JSON file formats.

Every file is UTF-8 JSON with a top-level "kind" discriminator; rationals
are "p/q" strings (plain "p" when the denominator is 1).  Writing uses
sorted keys, two-space indent, and a trailing newline, so identical
objects always produce byte-identical files and instances round-trip
exactly: read(write(x)) == x.

Reduction artifacts and certificates are written the same way, as
self-contained sidecar files (source and output instances embedded), so
the backward maps never recompute the reduction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import CycleDetected
from .model import (
    CommDelayInstance,
    GroupedPlacement,
    GroupedRelatedInstance,
    GroupedSchedule,
    JobGroup,
    JobShopInstance,
    KPartiteInstance,
    MachineGroup,
    PrecedenceDag,
    Schedule,
    UmpsInstance,
)
from .reductions import (
    CommDelayReductionArtifact,
    KPartiteYesCertificate,
    RelatedReductionArtifact,
)
from .rounding import FractionalSchedule


def frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _dag_obj(dag: PrecedenceDag) -> dict:
    return {
        "node_count": dag.node_count,
        "edges": [list(e) for e in sorted(dag.edges)],
    }


def _dag_from(obj) -> PrecedenceDag:
    return PrecedenceDag(obj["node_count"], tuple(tuple(e) for e in obj["edges"]))


def to_obj(value) -> dict:
    """Lower a domain object to its JSON form (adds the "kind" tag)."""
    if isinstance(value, UmpsInstance):
        return {
            "kind": "umps",
            "n": value.n,
            "m": value.m,
            "lengths": {str(j): p for j, p in value.lengths.items()},
            "home": {str(j): i for j, i in value.home.items()},
            "dag": _dag_obj(value.dag),
        }
    if isinstance(value, JobShopInstance):
        return {
            "kind": "jobshop",
            "jobs": [[[machine, dur] for machine, dur in chain] for chain in value.jobs],
        }
    if isinstance(value, CommDelayInstance):
        return {
            "kind": "commdelay",
            "n_total": value.n_total,
            "lengths": {str(j): p for j, p in value.lengths.items()},
            "delays": [[u, v, c] for (u, v), c in sorted(value.delays.items())],
            "dag": _dag_obj(value.dag),
            "machines": value.machines,
        }
    if isinstance(value, GroupedRelatedInstance):
        return {
            "kind": "related_grouped",
            "job_groups": [
                {"multiplicity": g.multiplicity, "length": g.length, "origin_job": g.origin_job}
                for g in value.job_groups
            ],
            "machine_groups": [
                {"multiplicity": g.multiplicity, "speed": g.speed}
                for g in value.machine_groups
            ],
            "group_dag": _dag_obj(value.group_dag),
        }
    if isinstance(value, KPartiteInstance):
        return {
            "kind": "kpartite",
            "k": value.k,
            "n": value.n,
            "layers": [list(layer) for layer in value.layers],
            "edges": [[list(e) for e in layer_edges] for layer_edges in value.edges],
            "Q": value.Q,
            "eps": frac_str(value.eps),
            "delta": frac_str(value.delta),
        }
    if isinstance(value, Schedule):
        return {
            "kind": "schedule",
            "entries": {
                str(j): [machine, frac_str(s), frac_str(e)]
                for j, (machine, s, e) in value.entries.items()
            },
        }
    if isinstance(value, GroupedSchedule):
        return {
            "kind": "schedule",
            "placements": [
                {
                    "group": pl.group,
                    "machine_group": pl.machine_group,
                    "start": frac_str(pl.start),
                    "end": frac_str(pl.end),
                    "count": pl.count,
                }
                for pl in value.placements
            ],
        }
    if isinstance(value, FractionalSchedule):
        return {
            "kind": "fractional",
            "horizon": value.horizon,
            "gamma": frac_str(value.gamma),
            "mass": [
                [job, slot, frac_str(x)] for (job, slot), x in sorted(value.mass.items())
            ],
            "umps_ref": to_obj(value.umps_ref),
        }
    if isinstance(value, CommDelayReductionArtifact):
        return {
            "kind": "commdelay_artifact",
            "c_infinity": value.c_infinity,
            "dummy_ids": list(value.dummy_ids),
            "origin": {str(j): o for j, o in value.origin.items()},
            "source": to_obj(value.source),
            "output": to_obj(value.output),
        }
    if isinstance(value, RelatedReductionArtifact):
        return {
            "kind": "related_artifact",
            "kappa": value.kappa,
            "kappa_meets_bound": value.kappa_meets_bound,
            "origin": {str(g): j for g, j in value.origin.items()},
            "machine_group_of": {str(i): g for i, g in value.machine_group_of.items()},
            "source": to_obj(value.source),
            "output": to_obj(value.output),
        }
    if isinstance(value, KPartiteYesCertificate):
        return {
            "kind": "kpartite_certificate",
            "partition": [[list(cell) for cell in layer] for layer in value.partition],
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def from_obj(obj):
    """Raise a domain object from its JSON form, dispatching on "kind"."""
    kind = obj.get("kind")
    if kind == "umps":
        return UmpsInstance(
            n=obj["n"],
            m=obj["m"],
            lengths={int(j): p for j, p in obj["lengths"].items()},
            home={int(j): i for j, i in obj["home"].items()},
            dag=_dag_from(obj["dag"]),
        )
    if kind == "jobshop":
        return JobShopInstance(
            jobs=tuple(tuple((m, d) for m, d in chain) for chain in obj["jobs"])
        )
    if kind == "commdelay":
        return CommDelayInstance(
            n_total=obj["n_total"],
            lengths={int(j): p for j, p in obj["lengths"].items()},
            delays={(u, v): c for u, v, c in obj["delays"]},
            dag=_dag_from(obj["dag"]),
            machines=obj["machines"],
        )
    if kind == "related_grouped":
        return GroupedRelatedInstance(
            job_groups=tuple(
                JobGroup(g["multiplicity"], g["length"], g["origin_job"])
                for g in obj["job_groups"]
            ),
            machine_groups=tuple(
                MachineGroup(g["multiplicity"], g["speed"]) for g in obj["machine_groups"]
            ),
            group_dag=_dag_from(obj["group_dag"]),
        )
    if kind == "kpartite":
        return KPartiteInstance(
            k=obj["k"],
            n=obj["n"],
            layers=tuple(tuple(layer) for layer in obj["layers"]),
            edges=tuple(tuple(tuple(e) for e in layer_edges) for layer_edges in obj["edges"]),
            Q=obj["Q"],
            eps=Fraction(obj["eps"]),
            delta=Fraction(obj["delta"]),
        )
    if kind == "schedule":
        if "placements" in obj:
            return GroupedSchedule(
                placements=tuple(
                    GroupedPlacement(
                        group=pl["group"],
                        machine_group=pl["machine_group"],
                        start=Fraction(pl["start"]),
                        end=Fraction(pl["end"]),
                        count=pl["count"],
                    )
                    for pl in obj["placements"]
                )
            )
        return Schedule(
            entries={
                int(j): (machine, Fraction(s), Fraction(e))
                for j, (machine, s, e) in obj["entries"].items()
            }
        )
    if kind == "fractional":
        return FractionalSchedule(
            horizon=obj["horizon"],
            mass={(job, slot): Fraction(x) for job, slot, x in obj["mass"]},
            gamma=Fraction(obj["gamma"]),
            umps_ref=from_obj(obj["umps_ref"]),
        )
    if kind == "commdelay_artifact":
        return CommDelayReductionArtifact(
            output=from_obj(obj["output"]),
            c_infinity=obj["c_infinity"],
            dummy_ids=tuple(obj["dummy_ids"]),
            origin={int(j): o for j, o in obj["origin"].items()},
            source=from_obj(obj["source"]),
        )
    if kind == "related_artifact":
        return RelatedReductionArtifact(
            output=from_obj(obj["output"]),
            kappa=obj["kappa"],
            origin={int(g): j for g, j in obj["origin"].items()},
            machine_group_of={int(i): g for i, g in obj["machine_group_of"].items()},
            kappa_meets_bound=obj["kappa_meets_bound"],
            source=from_obj(obj["source"]),
        )
    if kind == "kpartite_certificate":
        return KPartiteYesCertificate(
            partition=tuple(
                tuple(tuple(cell) for cell in layer) for layer in obj["partition"]
            )
        )
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# files


def dump_canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_file(path, value, extra: dict = None) -> None:
    """Write a domain object; ``extra`` fields (e.g. solver metadata) are
    merged at top level and ignored when reading back."""
    obj = to_obj(value)
    if extra:
        obj.update(extra)
    Path(path).write_text(dump_canonical(obj), encoding="utf-8")


def read_obj(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_file(path):
    """Read a domain object; a file that does not parse or has the wrong
    shape (a missing field, a list where an object belongs, a rational
    such as ``"1/0"`` or ``"a/b"``, a precedence cycle) raises
    ``ValueError`` naming ``path``.  An unreadable file raises ``OSError``,
    and a well-formed fractional file that breaks one of its properties
    raises ``PropertyViolated``."""
    try:
        return from_obj(read_obj(path))
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError,
            CycleDetected) as exc:
        raise ValueError(f"{path}: malformed file ({type(exc).__name__}: {exc})") from exc


def sidecar_path(out_path) -> str:
    return str(out_path) + ".sidecar.json"
