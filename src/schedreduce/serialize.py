"""Canonical JSON file formats.

Every file is UTF-8 JSON with a top-level "kind" discriminator; rationals
are "p/q" strings (plain "p" when the denominator is 1).  The writer
emits exactly the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``
plus a trailing newline (ASCII-escaped strings, sorted keys, two-space
indent), and only for JSON-native values: str-keyed dicts, lists,
tuples, str, int, bool and None.  Identical objects therefore always
produce byte-identical files, and instances round-trip exactly:
read(write(x)) == x.

Each kind is declared once, in ``FORMATS``: its class and, per field, an
(encode, decode) pair.  ``to_obj`` and ``from_obj`` walk the same field
list, and a decoder reads only the fields its kind declares, so extra
fields are ignored.  Integers are strict: where the format has an
integer, a string or a boolean is an error, never coerced.

Reduction artifacts and certificates are written the same way, as
self-contained sidecar files (source and output instances embedded).  No
command reads a reduction artifact back (``roundtrip`` recomputes the
reduction); the k-partite certificate is the one sidecar that is read.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
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


# ---------------------------------------------------------------------------
# field codecs: (encode, decode) pairs


def _same(value):
    return value


def _int(value) -> int:
    # bool is a subclass of int, and the constructors int()-coerce strings
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _ints(values, items=_same):
    """``values`` itself, once every int in ``items(values)`` is checked:
    one pass over their types, so the bulk of a file costs no call per int."""
    if not set(map(type, items(values))) <= {int}:
        for value in items(values):
            _int(value)
    return values


def _bool(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not a boolean")
    return value


def _list_of(codec):
    encode, decode = codec
    return (lambda values: [encode(v) for v in values],
            lambda values: [decode(v) for v in values])


def _record(cls, fields):
    """An untagged object: a dict of ``fields``, raised as ``cls``."""
    return (lambda value: _encode(value, fields), lambda obj: _decode(obj, cls, fields))


def _encode(value, fields) -> dict:
    return {name: encode(getattr(value, name)) for name, (encode, _) in fields.items()}


def _decode(obj, cls, fields):
    return cls(**{name: decode(obj[name]) for name, (_, decode) in fields.items()})


_INT = (_same, _int)
_BOOL = (_same, _bool)
_OPT_INT = (_same, lambda value: None if value is None else _int(value))
_INT_MAP = (lambda d: {str(k): v for k, v in d.items()},
            lambda d: {int(k): _int(v) for k, v in d.items()})
_FRAC = (frac_str, parse_rational)
_OBJ = (lambda value: to_obj(value), lambda obj: from_obj(obj))
_ROWS = (lambda rows: [list(row) for row in rows],
         lambda rows: _ints(rows, chain.from_iterable))
_DAG = _record(PrecedenceDag, {"node_count": _INT, "edges": _ROWS})
_DELAYS = (lambda d: [[u, v, c] for (u, v), c in sorted(d.items())],
           lambda rows: {(u, v): c for u, v, c in _ints(rows, chain.from_iterable)})
_MASS = (lambda d: [[job, slot, frac_str(x)] for (job, slot), x in sorted(d.items())],
         lambda rows: {(_int(job), _int(slot)): parse_rational(x) for job, slot, x in rows})
_ENTRIES = (lambda d: {str(j): [machine, frac_str(s), frac_str(e)]
                       for j, (machine, s, e) in d.items()},
            lambda d: {int(j): (_int(machine), parse_rational(s), parse_rational(e))
                       for j, (machine, s, e) in d.items()})

FORMATS = {  # kind -> (class, {field: (encode, decode)})
    "umps": (UmpsInstance, {
        "n": _INT, "m": _INT, "lengths": _INT_MAP, "home": _INT_MAP, "dag": _DAG}),
    "jobshop": (JobShopInstance, {"jobs": _list_of(_ROWS)}),
    "commdelay": (CommDelayInstance, {
        "n_total": _INT, "lengths": _INT_MAP, "delays": _DELAYS, "dag": _DAG,
        "machines": _OPT_INT}),
    "related_grouped": (GroupedRelatedInstance, {
        "job_groups": _list_of(_record(JobGroup, {
            "multiplicity": _INT, "length": _INT, "origin_job": _INT})),
        "machine_groups": _list_of(_record(MachineGroup, {"multiplicity": _INT, "speed": _INT})),
        "group_dag": _DAG}),
    "kpartite": (KPartiteInstance, {
        "k": _INT, "n": _INT, "layers": _ROWS, "edges": _list_of(_ROWS),
        "Q": _INT, "eps": _FRAC, "delta": _FRAC}),
    "schedule": (Schedule, {"entries": _ENTRIES}),
    "fractional": (FractionalSchedule, {
        "horizon": _INT, "gamma": _FRAC, "mass": _MASS, "umps_ref": _OBJ}),
    "commdelay_artifact": (CommDelayReductionArtifact, {
        "c_infinity": _INT, "dummy_ids": (list, lambda ids: tuple(_ints(ids))),
        "origin": _INT_MAP, "source": _OBJ, "output": _OBJ}),
    "related_artifact": (RelatedReductionArtifact, {
        "kappa": _INT, "kappa_meets_bound": _BOOL, "origin": _INT_MAP,
        "machine_group_of": _INT_MAP, "source": _OBJ, "output": _OBJ}),
    "kpartite_certificate": (KPartiteYesCertificate, {
        "partition": _list_of(_ROWS)}),
}
# the one shape outside the table: a "schedule" file with "placements"
_GROUPED = (GroupedSchedule, {"placements": _list_of(_record(GroupedPlacement, {
    "group": _INT, "machine_group": _INT, "start": _FRAC, "end": _FRAC,
    "count": _INT}))})
_KIND_OF = {cls: (kind, fields) for kind, (cls, fields) in FORMATS.items()}
_KIND_OF[GroupedSchedule] = ("schedule", _GROUPED[1])


def to_obj(value) -> dict:
    """Lower a domain object to its JSON form (adds the "kind" tag)."""
    try:
        kind, fields = _KIND_OF[type(value)]
    except KeyError:
        raise TypeError(f"cannot serialize {type(value).__name__}") from None
    obj = _encode(value, fields)
    obj["kind"] = kind
    return obj


def from_obj(obj):
    """Raise a domain object from its JSON form, dispatching on "kind"."""
    kind = obj.get("kind")
    if kind == "schedule" and "placements" in obj:
        return _decode(obj, *_GROUPED)
    try:
        cls, fields = FORMATS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None
    return _decode(obj, cls, fields)


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
