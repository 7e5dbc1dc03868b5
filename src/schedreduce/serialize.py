"""Canonical JSON file formats.

Every file is UTF-8 JSON with a top-level "kind" discriminator; rationals
are "p/q" strings (plain "p" when the denominator is 1).  The writer
emits exactly the bytes of ``json.dumps(obj, sort_keys=True,
separators=(",", ":"))`` plus a trailing newline (ASCII-escaped strings,
sorted keys, no whitespace between tokens), and only for JSON-native
values: str-keyed dicts, lists, tuples, str, int, bool and None.
Identical objects therefore always produce byte-identical files, and
instances round-trip exactly: read(write(x)) == x.  The reader is
``json.loads``, so a file in any other layout, such as the two-space
indented one of earlier versions, reads to the same value.

Each kind is declared once, in ``FORMATS``: its class and the (encode,
decode) pair of its fields.  Most kinds build that pair from one (encode,
decode) pair per field, so ``to_obj`` and ``from_obj`` walk the same
field list.  A ``schedule``, flat or grouped, is written from and read
into its integer time base directly: a whole time costs no ``Fraction``
either way, and any other costs one per distinct time written or text
read; a time or count the fast reader does not take goes through the
public constructors, so every error is theirs.  A decoder reads only
the fields its kind declares, so extra fields are ignored.  Integers
are strict: where the format has an integer, a string or a boolean is an
error, never coerced, a map key must be a canonical decimal integer
(``"1"``, never ``"01"``), and no object may give a key twice.
Rationals are strict too: the format writes each one as a string, so a
number or a boolean in its place is an error.

Values that repeat are checked or decoded once, through three ``_Memo``
tables, bounded dicts shared by every read that keep only what read
cleanly: rational texts (``_rational``) and schedule times (``_time``),
so a text read again costs one dict lookup, and the key lists of maps
(``_KEYS``), each checked once to be canonical integers.  None changes a
value read or an error raised.

Reduction artifacts and certificates are written the same way, as
self-contained sidecar files (source and output instances embedded; an
embedded object of another kind is a ``TypeError``).  No command reads a
reduction artifact back (``roundtrip`` recomputes the reduction); the
k-partite certificate is the one sidecar that is read.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import itemgetter
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
    _RATIONAL,
    _check_types,
)
from .reductions import (
    CommDelayReductionArtifact,
    KPartiteYesCertificate,
    RelatedReductionArtifact,
)
from .rounding import FractionalSchedule


def frac_str(value: int | Fraction) -> str:
    """The text of a rational, an int or a ``Fraction``: "p/q" in lowest
    terms, or "p" when q is 1.  Any other value (a float, a bool, a str)
    raises ``TypeError`` naming it, never approximated or coerced."""
    if type(value) not in _RATIONAL:
        _check_types(_RATIONAL, "rational", (value,))
    return str(value)


_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """``Fraction(text)``, with the canonical "p" and "p/q" forms parsed
    directly; anything else (and every error) is ``Fraction``'s own."""
    match = _RATIONAL_TEXT.fullmatch(text) if type(text) is str else None
    if match is None:
        return Fraction(text)
    num, den = match.groups()
    return Fraction(int(num)) if den is None else Fraction(int(num), int(den))


class _Memo(dict):
    """Values read so far, by the key they were read from: a miss calls
    ``read(key)`` and keeps its value, or keeps nothing when ``read``
    raises.  The memo is emptied when it is full, so it holds at most
    ``size`` keys."""

    __slots__ = ("read", "size")

    def __init__(self, read, size: int):
        super().__init__()
        self.read, self.size = read, size

    def __missing__(self, key):
        value = self.read(key)
        if len(self) >= self.size:
            self.clear()
        self[key] = value
        return value


def _read_rational(text) -> Fraction:
    # the format writes every rational as a string: a JSON number or
    # boolean is not read as one
    if type(text) is not str:
        raise TypeError(f"{text!r} is not a rational string")
    return parse_rational(text)


def _read_time(text):
    """A schedule time: a whole number is read as an int, so a schedule
    whose times are all whole is read without a ``Fraction``."""
    value = _read_rational(text)
    return value.numerator if value.denominator == 1 else value


_rational = _Memo(_read_rational, 4096).__getitem__
_time = _Memo(_read_time, 4096).__getitem__


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


def _read_int_keys(obj) -> tuple:
    """The keys of ``obj`` as ints; each must be a canonical decimal
    integer, so no two keys (``"1"`` and ``"01"``) name the same int."""
    keys = tuple(map(int, obj))
    if list(map(str, keys)) != list(obj):
        bad = next(key for key, k in zip(obj, keys) if key != str(k))
        raise ValueError(f"key {bad!r} is not a canonical integer")
    return keys


_KEYS = _Memo(_read_int_keys, 64)  # key lists, by the tuple of their texts


def _int_keys(obj) -> tuple:
    """``_read_int_keys(obj)``: the key list of a dict is checked once per
    distinct tuple of key texts; anything else is checked each time."""
    return _KEYS[tuple(obj)] if type(obj) is dict else _read_int_keys(obj)


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


def _kind(cls, fields):
    """A kind whose class ``cls`` is written and read field by field."""
    return cls, _record(cls, fields)


def _encode(value, fields) -> dict:
    return {name: encode(getattr(value, name)) for name, (encode, _) in fields.items()}


def _decode(obj, cls, fields):
    return cls(**{name: decode(obj[name]) for name, (_, decode) in fields.items()})


def _read_mass(rows) -> dict:
    # the jobs and slots are checked once every row has unpacked
    mass = {(job, slot): _rational(x) for job, slot, x in rows}
    _ints(rows, lambda rows: chain.from_iterable(map(itemgetter(0, 1), rows)))
    return mass


def _scaled_text(values, scale):
    """The text of an int value in units of ``1/scale``, the rational
    ``value / scale``: ``str`` on scale 1, where ``values`` is not read,
    else a lookup of one text per distinct value among ``values``."""
    if scale == 1:
        return str
    return {v: str(Fraction(v, scale)) for v in set(values)}.__getitem__


def _write_schedule(sched) -> dict:
    """The fields of a :class:`Schedule`, written from its int rows: one
    text per time on scale 1, else one per distinct time."""
    rows = sched._rows
    text = _scaled_text((t for _, s, e in rows.values() for t in (s, e)), sched._scale)
    return {"entries": {str(j): [i, text(s), text(e)] for j, (i, s, e) in rows.items()}}


def _read_schedule(obj) -> Schedule:
    """A :class:`Schedule` from its fields: on scale 1, as they are, when
    every machine and time is an int, else through the constructor,
    which checks the machines and puts the times on their LCM."""
    entries = obj["entries"]
    rows = {j: (i, _time(s), _time(e)) for j, (i, s, e) in zip(_int_keys(entries), entries.values())}
    if set(map(type, chain.from_iterable(rows.values()))) == {int}:
        return Schedule._of_rows(rows)
    return Schedule(entries=rows)


def _write_grouped(gs) -> dict:
    """The fields of a :class:`GroupedSchedule`, written from its int rows."""
    rows = gs._rows
    text = _scaled_text((t for _, _, s, e, _ in rows for t in (s, e)), gs._scale)
    return {"placements": [
        {"group": g, "machine_group": i, "start": text(s), "end": text(e), "count": c}
        for g, i, s, e, c in rows]}


def _read_grouped(obj) -> GroupedSchedule:
    """A :class:`GroupedSchedule` from its fields: on scale 1, as they
    are, when every time is an int and every count positive, else through
    the constructors, which check the counts and put the times on their
    LCM."""
    rows = tuple((_int(p["group"]), _int(p["machine_group"]), _time(p["start"]),
                  _time(p["end"]), _int(p["count"])) for p in obj["placements"])
    if set(map(type, chain.from_iterable(rows))) <= {int} and all(row[4] >= 1 for row in rows):
        return GroupedSchedule._of_rows(rows)
    return GroupedSchedule(placements=[GroupedPlacement(*row) for row in rows])


_INT = (_same, _int)
_BOOL = (_same, _bool)
_OPT_INT = (_same, lambda value: None if value is None else _int(value))
_INT_MAP = (lambda d: {str(k): v for k, v in d.items()},
            lambda d: dict(zip(_int_keys(d), _ints(d.values()))))
_FRAC = (frac_str, _rational)
_ROWS = (lambda rows: [list(row) for row in rows],
         lambda rows: _ints(rows, chain.from_iterable))
# a dag's edges are written as the tuple of int pairs they already are
_DAG = _record(PrecedenceDag, {"node_count": _INT, "edges": (_same, _ROWS[1])})
_DELAYS = (lambda d: [[u, v, c] for (u, v), c in sorted(d.items())],
           lambda rows: {(u, v): c for u, v, c in _ints(rows, chain.from_iterable)})
_MASS = (lambda d: [[job, slot, frac_str(x)] for (job, slot), x in sorted(d.items())],
         _read_mass)


def _obj(cls):
    """An embedded object, which must read as a ``cls``."""
    def decode(obj):
        if type(value := from_obj(obj)) is not cls:
            raise TypeError(f"a {type(value).__name__} where a {cls.__name__} belongs")
        return value
    return (lambda value: to_obj(value), decode)


FORMATS = {  # kind -> (class, (encode, decode) of its fields)
    "umps": _kind(UmpsInstance, {
        "n": _INT, "m": _INT, "lengths": _INT_MAP, "home": _INT_MAP, "dag": _DAG}),
    "jobshop": _kind(JobShopInstance, {"jobs": _list_of(_ROWS)}),
    "commdelay": _kind(CommDelayInstance, {
        "n_total": _INT, "lengths": _INT_MAP, "delays": _DELAYS, "dag": _DAG,
        "machines": _OPT_INT}),
    "related_grouped": _kind(GroupedRelatedInstance, {
        "job_groups": _list_of(_record(JobGroup, {
            "multiplicity": _INT, "length": _INT, "origin_job": _INT})),
        "machine_groups": _list_of(_record(MachineGroup, {"multiplicity": _INT, "speed": _INT})),
        "group_dag": _DAG}),
    "kpartite": _kind(KPartiteInstance, {
        "k": _INT, "n": _INT, "layers": _ROWS, "edges": _list_of(_ROWS),
        "Q": _INT, "eps": _FRAC, "delta": _FRAC}),
    # "entries": {job: [machine, start, end]}, from and to the int rows
    "schedule": (Schedule, (_write_schedule, _read_schedule)),
    "fractional": _kind(FractionalSchedule, {
        "horizon": _INT, "gamma": _FRAC, "mass": _MASS, "umps_ref": _obj(UmpsInstance)}),
    "commdelay_artifact": _kind(CommDelayReductionArtifact, {
        "c_infinity": _INT, "dummy_ids": (list, lambda ids: tuple(_ints(ids))),
        "origin": _INT_MAP, "source": _obj(UmpsInstance), "output": _obj(CommDelayInstance)}),
    "related_artifact": _kind(RelatedReductionArtifact, {
        "kappa": _INT, "kappa_meets_bound": _BOOL, "origin": _INT_MAP,
        "machine_group_of": _INT_MAP, "source": _obj(UmpsInstance),
        "output": _obj(GroupedRelatedInstance)}),
    "kpartite_certificate": _kind(KPartiteYesCertificate, {
        "partition": _list_of(_ROWS)}),
}
# the one shape outside the table: a "schedule" file with "placements",
# from and to the int rows
_GROUPED = (GroupedSchedule, (_write_grouped, _read_grouped))
_KIND_OF = {cls: (kind, codec) for kind, (cls, codec) in FORMATS.items()}
_KIND_OF[GroupedSchedule] = ("schedule", _GROUPED[1])


def to_obj(value) -> dict:
    """Lower a domain object to its JSON form (adds the "kind" tag)."""
    try:
        kind, (encode, _) = _KIND_OF[type(value)]
    except KeyError:
        raise TypeError(f"cannot serialize {type(value).__name__}") from None
    obj = encode(value)
    obj["kind"] = kind
    return obj


def from_obj(obj):
    """Raise a domain object from its JSON form, dispatching on "kind"."""
    kind = obj.get("kind")
    try:
        _, (_, decode) = (_GROUPED if kind == "schedule" and "placements" in obj
                          else FORMATS[kind])
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None
    return decode(obj)


# ---------------------------------------------------------------------------
# files


# ASCII escapes, sorted keys, a tuple as a list; the type guard recurses
# into a cycle first, so the encoder never meets one
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_LEAVES = frozenset({str, int, bool, type(None)})


def dump_canonical(obj: dict) -> str:
    """The canonical text of a JSON-native value: byte for byte
    ``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``;
    any other type (a float, a Fraction, a non-str key) raises TypeError."""
    _check_native(obj)
    return _ENCODE(obj) + "\n"


def _check_native(value) -> None:
    """Raise ``TypeError`` unless ``value`` is JSON-native: a str-keyed
    dict, a list or tuple, a str, an int (bool included) or None, nested
    only of those.  A container costs one pass over its item types, a
    block of rows one more over their items, and only an item that is not
    a leaf is recursed into."""
    if isinstance(value, dict):
        if not set(map(type, value)) <= {str}:
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, (str, int)) or value is None:
        return
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not canonical JSON")
    types = set(map(type, items))
    if types <= _LEAVES or types <= {list, tuple} and _LEAVES.issuperset(
            map(type, chain.from_iterable(items))):
        return
    for item in items:
        if type(item) not in _LEAVES:
            _check_native(item)


def write_file(path, value, extra: dict = None) -> None:
    """Write a domain object; ``extra`` fields (e.g. solver metadata) are
    merged at top level and ignored when reading back."""
    obj = to_obj(value)
    if extra:
        obj.update(extra)
    Path(path).write_text(dump_canonical(obj), encoding="utf-8")


def _not_an_integer(text):
    raise ValueError(f"number {text} is not an integer")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"key {key!r} is given more than once")
    return obj


def read_obj(path) -> dict:
    """The JSON value in ``path``; a number that is not an integer (``2.5``,
    ``2.0``, ``1e3``, ``Infinity``, ``NaN``) or an object that gives a key
    twice raises ``ValueError``."""
    return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys,
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
