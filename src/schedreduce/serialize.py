"""Canonical JSON file formats.

Every file is UTF-8 JSON with a top-level "kind" discriminator; rationals
are "p/q" strings (plain "p" when the denominator is 1).  The writer
emits exactly the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``
plus a trailing newline (ASCII-escaped strings, sorted keys, two-space
indent), and only for JSON-native values: str-keyed dicts, lists,
tuples, str, int, bool and None.  Identical objects therefore always
produce byte-identical files, and instances round-trip exactly:
read(write(x)) == x.

Reduction artifacts and certificates are written the same way, as
self-contained sidecar files (source and output instances embedded), so
the backward maps never recompute the reduction.
"""

from __future__ import annotations

import json
import re
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
    if type(value) is int:
        return str(value)
    f = value if type(value) is Fraction else Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """``Fraction(text)``, with the canonical "p" and "p/q" forms parsed
    directly; anything else (and every error) is ``Fraction``'s own."""
    match = _RATIONAL.fullmatch(text) if type(text) is str else None
    if match is None:
        return Fraction(text)
    num, den = match.groups()
    return Fraction(int(num)) if den is None else Fraction(int(num), int(den))


def _dag_obj(dag: PrecedenceDag) -> dict:
    # PrecedenceDag stores its edges sorted
    return {"node_count": dag.node_count, "edges": [[u, v] for u, v in dag.edges]}


def _dag_from(obj) -> PrecedenceDag:
    return PrecedenceDag(obj["node_count"], obj["edges"])


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
            eps=parse_rational(obj["eps"]),
            delta=parse_rational(obj["delta"]),
        )
    if kind == "schedule":
        if "placements" in obj:
            return GroupedSchedule(
                placements=tuple(
                    GroupedPlacement(
                        group=pl["group"],
                        machine_group=pl["machine_group"],
                        start=parse_rational(pl["start"]),
                        end=parse_rational(pl["end"]),
                        count=pl["count"],
                    )
                    for pl in obj["placements"]
                )
            )
        return Schedule(
            entries={
                int(j): (machine, parse_rational(s), parse_rational(e))
                for j, (machine, s, e) in obj["entries"].items()
            }
        )
    if kind == "fractional":
        return FractionalSchedule(
            horizon=obj["horizon"],
            mass={(job, slot): parse_rational(x) for job, slot, x in obj["mass"]},
            gamma=parse_rational(obj["gamma"]),
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


_encode_str = json.encoder.encode_basestring_ascii
_LEAF = {int: int.__repr__, str: _encode_str}


def dump_canonical(obj: dict) -> str:
    """The canonical text of a JSON-native value: byte for byte
    ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.  Any other type
    (a float, a Fraction, a non-str key) raises ``TypeError``."""
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _inline(value, newline: str):
    """The text of an int, a str or a non-empty list of only those, the
    bulk of every file, written without recursing; None for anything else."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if kind is list and value:
        try:
            texts = [_LEAF[type(item)](item) for item in value]
        except KeyError:
            return None
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    return None


def _emit(value, newline: str, out: list) -> None:
    """Append the fragments of ``value`` to ``out``; ``newline`` is the
    line break plus the indent of the line ``value`` starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _inline(item, inner)
            if text is None:
                out.append(f"{sep}{_encode_str(key)}: ")
                _emit(item, inner, out)
            else:
                out.append(f"{sep}{_encode_str(key)}: {text}")
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            text = _inline(item, inner)
            if text is None:
                out.append(sep)
                _emit(item, inner, out)
            else:
                out.append(sep + text)
            sep = comma
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not canonical JSON")


def write_file(path, value, extra: dict = None) -> None:
    """Write a domain object; ``extra`` fields (e.g. solver metadata) are
    merged at top level and ignored when reading back."""
    obj = to_obj(value)
    if extra:
        obj.update(extra)
    Path(path).write_text(dump_canonical(obj), encoding="utf-8")


def _not_an_integer(text):
    raise ValueError(f"number {text} is not an integer")


def read_obj(path) -> dict:
    """The JSON value in ``path``; a number that is not an integer (``2.5``,
    ``2.0``, ``1e3``, ``Infinity``, ``NaN``) raises ``ValueError``."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_float=_not_an_integer, parse_constant=_not_an_integer)


def read_file(path):
    """Read a domain object; a file that does not parse or has the wrong
    shape (a missing field, a list where an object belongs, a number that
    is not an integer, a rational such as ``"1/0"`` or ``"a/b"``, a
    precedence cycle) raises ``ValueError`` naming ``path``.  An
    unreadable file raises ``OSError``, and a well-formed fractional file
    that breaks one of its properties raises ``PropertyViolated``."""
    try:
        return from_obj(read_obj(path))
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError,
            CycleDetected) as exc:
        raise ValueError(f"{path}: malformed file ({type(exc).__name__}: {exc})") from exc


def sidecar_path(out_path) -> str:
    return str(out_path) + ".sidecar.json"
