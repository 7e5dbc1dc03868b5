import dataclasses
import hashlib
import json
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from schedreduce import (
    GroupedPlacement,
    GroupedSchedule,
    Schedule,
    gen_fractional,
    gen_jobshop,
    gen_kpartite_yes,
    gen_random_umps,
    solve_umps_exact,
    umps_to_commdelay,
    umps_to_related,
)
from schedreduce.serialize import (
    _KEYS,
    _rational,
    _read_mass,
    _time,
    dump_canonical,
    frac_str,
    from_obj,
    parse_rational,
    read_file,
    read_obj,
    sidecar_path,
    to_obj,
    write_file,
)
from oracle import oracle_dump_canonical, pinned_text

F = Fraction


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_frac_text_round_trips(num, den):
    f = F(num, den)
    assert F(frac_str(f)) == f


def test_frac_text_plain_integer_form():
    assert frac_str(F(6, 3)) == "2"
    assert frac_str(F(-1, 2)) == "-1/2"
    assert frac_str(-7) == "-7"


@pytest.mark.parametrize("value, name", [(0.1, "0.1"), (True, "True"), ("1/2", "'1/2'")])
def test_frac_text_takes_only_an_int_or_a_fraction(value, name):
    # a float is never approximated, and a bool or a text never coerced
    with pytest.raises(TypeError, match=f"rational {name} is not an int or a Fraction"):
        frac_str(value)


# "p" and "p/q" with other signs, separators, spaces, decimals, exponents
# and non-ASCII digits mixed in, which Fraction's own parser accepts or
# rejects in its own way; plus arbitrary text
RATIONAL_SIGN = st.sampled_from(["", "", "-", "+", " "])
RATIONAL_DIGITS = st.one_of(
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.lists(st.sampled_from(["0", "7", "_", ".", "e", "\u0663", "\uff11"]), max_size=4)
    .map("".join),
)
RATIONAL_TEXT = st.one_of(
    st.tuples(RATIONAL_SIGN, RATIONAL_DIGITS,
              st.sampled_from(["", "/", "/"]), RATIONAL_SIGN, RATIONAL_DIGITS,
              st.sampled_from(["", "", " ", "\n", "/"])).map("".join),
    st.text(max_size=12),
)


@given(RATIONAL_TEXT)
def test_parse_rational_agrees_with_fraction(text):
    try:
        expected = F(text)
    except Exception as exc:  # the same exception type is the contract
        with pytest.raises(type(exc)):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is F and got == expected


def test_parse_rational_names_bad_rationals_like_fraction():
    with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="a/b"):
        parse_rational("a/b")
    assert parse_rational(3) == 3 and parse_rational("-0/5") == 0


def roundtrip(value):
    back = from_obj(json.loads(dump_canonical(to_obj(value))))
    assert back == value
    return back


def test_umps_round_trip(sample8):
    roundtrip(sample8)


def test_jobshop_round_trip():
    roundtrip(gen_jobshop(3, 2, 3, seed=4))


def test_commdelay_round_trip_both_machine_modes(sample8):
    inst = umps_to_commdelay(sample8).output
    assert inst.machines is None
    roundtrip(inst)
    import dataclasses

    roundtrip(dataclasses.replace(inst, machines=3))


def test_related_grouped_round_trip(sample8):
    roundtrip(umps_to_related(sample8, kappa_override=2).output)


def test_kpartite_round_trip():
    inst, cert = gen_kpartite_yes(6, 3, seed=8)
    roundtrip(inst)
    roundtrip(cert)


def test_schedule_round_trip_with_fractional_times():
    sched = Schedule(entries={1: (1, F(0), F(1, 2)), 2: (2, F(1, 2), F(3, 2))})
    roundtrip(sched)


def test_grouped_schedule_round_trip():
    gs = GroupedSchedule(
        placements=(
            GroupedPlacement(group=1, machine_group=1, start=F(0), end=F(1), count=2),
            GroupedPlacement(group=2, machine_group=2, start=F(1), end=F(2), count=1),
        )
    )
    back = roundtrip(gs)
    assert isinstance(back, GroupedSchedule)


def test_fractional_round_trip():
    inst = gen_random_umps(4, 2, F(1, 3), seed=6)
    sched = solve_umps_exact(inst).schedule
    fs = gen_fractional(inst, sched, F(1, 160), F(1, 2), seed=6)
    roundtrip(fs)


def test_reduction_artifacts_round_trip(sample8):
    for art in (umps_to_commdelay(sample8), umps_to_related(sample8, kappa_override=2)):
        roundtrip(art)


def _pinned_values(sample8):
    """One fixed value of every shape the codec writes: the values the
    round-trip tests above build."""
    kpartite, cert = gen_kpartite_yes(6, 3, seed=8)
    small = gen_random_umps(4, 2, F(1, 3), seed=6)
    commdelay = umps_to_commdelay(sample8).output
    return {
        "umps": sample8,
        "jobshop": gen_jobshop(3, 2, 3, seed=4),
        "commdelay": commdelay,
        "commdelay_machines": dataclasses.replace(commdelay, machines=3),
        "related_grouped": umps_to_related(sample8, kappa_override=2).output,
        "kpartite": kpartite,
        "kpartite_certificate": cert,
        "schedule": Schedule(entries={1: (1, F(0), F(1, 2)), 2: (2, F(1, 2), F(3, 2))}),
        "grouped_schedule": GroupedSchedule(placements=(
            GroupedPlacement(group=1, machine_group=1, start=F(0), end=F(1), count=2),
            GroupedPlacement(group=2, machine_group=2, start=F(1), end=F(2), count=1),
        )),
        "fractional": gen_fractional(small, solve_umps_exact(small).schedule,
                                     F(1, 160), F(1, 2), seed=6),
        "commdelay_artifact": umps_to_commdelay(sample8),
        "related_artifact": umps_to_related(sample8, kappa_override=2),
    }


# sha256 of dump_canonical(to_obj(value)) for each pinned value: a field
# renamed on both the write and the read side still round-trips, but
# changes these bytes
PINNED_SHA256 = {
    "umps": "9f0850d0628b1c13393f3234ee30d94534071e73a610b3a2c71858029c6612bd",
    "jobshop": "53a3a046e472b882d033b6b27b16212a98ef584a10782dfee1f3ea19fa750b8a",
    "commdelay": "62598e9528c3e9c2bbda0dae22d47ceef2abc925fe78221195fe6a1eed3410a4",
    "commdelay_machines": "8ef84d494121a8c652fb0b696769e2ae8feae7f1c02fe0df8bde0d68551e8076",
    "related_grouped": "8b557818b59ddf61cc95522963fca4c3edd636bed7314976d8a4c0f971d88c09",
    "kpartite": "ae09c3d8a8d9acb64a8e274f90c815453737331ab5bd7cc73aa1355542e313af",
    "kpartite_certificate": "5e93378665e1cd879a5acc4f3e7b293b6f8bb3011841fa536d10a39859f2ca28",
    "schedule": "236eb87773fe558006cf9494595112ce7eb5eb80ad01280f5cb0e2422689bf33",
    "grouped_schedule": "359b1f3029dfc28b27d04f0f43713f6439992ba6de54f0d43b531c9db349c25e",
    "fractional": "7010241a9798cf69c0356ddf8a83a1e13e36dc3738baba4ee858d84464e82652",
    "commdelay_artifact": "4301a24203a2dceb2aa46fc4010ac4771dd903f65ab31f4f860a758e2ba895a2",
    "related_artifact": "0aba9fd3a1ab1044dc9659a02f6ee7bfe12e2530893217b3b1c05e6d9a69c33e",
}


@pytest.mark.parametrize("shape", sorted(PINNED_SHA256))
def test_canonical_bytes_pinned_per_shape(sample8, shape):
    value = _pinned_values(sample8)[shape]
    text = pinned_text(value)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256[shape]
    assert from_obj(json.loads(text)) == value


# ---------------------------------------------------------------------------
# files and canonical bytes

# control characters, quotes, backslashes, non-ASCII and lone surrogates
JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('\x00\x1f\x7f"\\/\u2028\ud800\udfff\xe9')),
                    max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


class _Label(str):
    pass


# subclasses of the JSON types, which the writer admits by isinstance
@example({_Label("b"): _Label("x"), "a": IntEnum("E", "ONE")(1)})
@example(OrderedDict(b=[1], a=(2,)))
@example([namedtuple("P", "x y")(1, "2"), (True, None)])
@example([[_Label("x"), 3], [IntEnum("E", "TWO")(1)]])
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert dump_canonical(value) == oracle_dump_canonical(value)


# row blocks (lists of leaf lists) and leaf dicts (str keys, int or str
# values), which the writer checks in one pass over their types, nested
# one to three deep; their strings hold brackets, separators and line
# breaks
SHAPE_TEXT = JSON_TEXT | st.sampled_from(
    ["],\n  [", "],\n    [", "],\n      [", '": [', "\n", "\\", "]", "[", "],", '"'])
SHAPE_LEAF = st.integers(-10**30, 10**30) | SHAPE_TEXT
ROW_BLOCKS = st.lists(st.lists(SHAPE_LEAF, max_size=5), min_size=1, max_size=5)
LEAF_DICTS = st.dictionaries(SHAPE_TEXT, SHAPE_LEAF, min_size=1, max_size=20)


@given(ROW_BLOCKS | LEAF_DICTS, st.lists(st.sampled_from([dict, list]), min_size=1,
                                         max_size=3))
def test_writer_matches_json_dumps_on_row_blocks_and_leaf_dicts(block, nesting):
    value = block
    for kind in nesting:
        value = {"a": 0, "k": value} if kind is dict else [value, [0]]
    assert dump_canonical(value) == oracle_dump_canonical(value)


@pytest.mark.parametrize("value", [1.5, 2.0, object(), F(1, 2), {"a": [1, 0.5]},
                                   [{"b": object()}], {1: 2},
                                   {"a": [[1, 2], [3, 0.5]]}, {"a": {2: 3}}, {"a": {"b": 1, 2: 3}},
                                   {"a": {"b": 1, "c": 0.5}}, {"a": dict.fromkeys(range(20), 1)},
                                   {"a": dict.fromkeys(map(str, range(20)), 1) | {"c": 0.5}}])
def test_writer_rejects_non_json_types(value):
    with pytest.raises(TypeError):
        dump_canonical(value)


def test_write_read_file_and_canonical_bytes(tmp_path, sample8):
    p = tmp_path / "inst.json"
    write_file(p, sample8)
    first = p.read_bytes()
    assert read_file(p) == sample8
    write_file(p, sample8)
    assert p.read_bytes() == first
    assert first.endswith(b"\n")
    obj = read_obj(p)
    assert list(obj) == sorted(obj)  # canonical key order


def test_a_file_in_the_indented_layout_reads_to_the_same_value(tmp_path, sample8):
    # pinned_text is the two-space indented layout earlier versions wrote,
    # byte for byte (the pins above hash it)
    p = tmp_path / "indented.json"
    for shape, value in _pinned_values(sample8).items():
        p.write_text(pinned_text(value), encoding="utf-8")
        assert read_file(p) == value, shape
        assert read_obj(p) == json.loads(dump_canonical(to_obj(value))), shape


def test_extra_fields_survive_write_and_are_ignored_on_read(tmp_path):
    sched = Schedule(entries={1: (1, 0, 1)})
    p = tmp_path / "out.json"
    write_file(p, sched, extra={"optimum": "1", "proven_optimal": True})
    obj = read_obj(p)
    assert obj["optimum"] == "1" and obj["proven_optimal"] is True
    assert read_file(p) == sched


def test_artifact_file_round_trip(tmp_path, sample8):
    art = umps_to_commdelay(sample8)
    p = tmp_path / "art.json"
    write_file(p, art)
    assert read_file(p) == art
    assert read_obj(p)["c_infinity"] == 64


def test_sidecar_path_suffix():
    assert sidecar_path("/tmp/x/reduced.json") == "/tmp/x/reduced.json.sidecar.json"


@pytest.mark.parametrize("make, field, put, message", [
    (umps_to_commdelay, "source", "schedule", "a Schedule where a UmpsInstance belongs"),
    (umps_to_commdelay, "output", "umps", "a UmpsInstance where a CommDelayInstance belongs"),
    (lambda inst: umps_to_related(inst, kappa_override=2), "output", "commdelay",
     "a CommDelayInstance where a GroupedRelatedInstance belongs"),
    (lambda inst: gen_fractional(inst, solve_umps_exact(inst).schedule, F(1, 640), F(1, 2), 3),
     "umps_ref", "commdelay", "a CommDelayInstance where a UmpsInstance belongs"),
], ids=["artifact-source", "artifact-output", "related-output", "fractional-umps-ref"])
def test_an_embedded_object_of_another_kind_is_named(tmp_path, sample8, make, field, put, message):
    # a commdelay artifact whose source was a schedule used to read
    # without error, a Schedule in its source field
    embedded = {"schedule": solve_umps_exact(sample8).schedule, "umps": sample8,
                "commdelay": umps_to_commdelay(sample8).output}[put]
    obj = to_obj(make(sample8))
    obj[field] = to_obj(embedded)
    with pytest.raises(TypeError, match=message):
        from_obj(obj)
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=f"malformed file \\(TypeError: {message}\\)"):
        read_file(tmp_path / "bad.json")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        from_obj({"kind": "mystery"})


def test_unserializable_value_rejected():
    with pytest.raises(TypeError):
        to_obj(object())


# ---------------------------------------------------------------------------
# rational texts and integer keys on reading


def _schedule_obj(times):
    """A schedule object with job k on machine 1 from times[k - 1][0] to
    times[k - 1][1]."""
    return {"kind": "schedule",
            "entries": {str(k): [1, s, e] for k, (s, e) in enumerate(times, 1)}}


def _read_rationals(count):
    mass = _read_mass([[1, k, f"{k}/7"] for k in range(count)])
    assert list(mass.values()) == [F(k, 7) for k in range(count)]


def _read_times(count):
    entries = from_obj(_schedule_obj([(f"{k}/7", str(k)) for k in range(count)])).entries
    assert entries == {k: (1, F(k - 1, 7), k - 1) for k in range(1, count + 1)}


def _read_key_lists(count):
    for k in range(count):
        obj = {"kind": "schedule", "entries": {str(j): [1, "0", "1"] for j in range(-k, k + 1)}}
        assert list(from_obj(obj).entries) == list(range(-k, k + 1))


MEMOS = {  # each memo, and a read of ``count`` distinct keys through it
    "rationals": (_rational.__self__, _read_rationals),
    "times": (_time.__self__, _read_times),
    "key-lists": (_KEYS, _read_key_lists),
}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_each_memo_reads_past_its_size_and_stays_within_it(name):
    memo, read = MEMOS[name]
    for _ in range(2):  # the second pass meets a memo the first one filled
        read(memo.size + 100)
        assert 0 < len(memo) <= memo.size
        assert all(memo.read(key) == value for key, value in memo.items())


def test_rational_texts_read_in_lowest_terms():
    for times in ([("2/4", "3/3")], [("1/2", "1")], [("2/4", "-0/5")]):
        (_, start, end), = from_obj(_schedule_obj(times)).entries.values()
        assert start == F(1, 2) and type(start) is F and type(end) is F
    gs = from_obj({"kind": "schedule", "placements": [{
        "group": 1, "machine_group": 1, "start": "0/4", "end": "6/4", "count": 1}]})
    assert gs.placements[0].end == F(3, 2) and type(gs.placements[0].start) is F


@pytest.mark.parametrize("bad", ["1/0", "a/b", [1, 2], {"p": 1}, None])
def test_bad_rational_is_a_value_error_naming_the_file_every_time(tmp_path, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_schedule_obj([(bad, "1")])))
    for _ in range(2):  # a failed text is never remembered
        with pytest.raises(ValueError, match="bad.json"):
            read_file(p)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "\u0661", "-0", "1.0", ""])
def test_map_keys_must_be_canonical_integers(sample8, key):
    for obj, field in ((to_obj(sample8), "lengths"), (to_obj(sample8), "home"),
                       (_schedule_obj([("0", "1")]), "entries"),
                       (to_obj(umps_to_related(sample8, kappa_override=2)), "origin")):
        obj[field][key] = obj[field]["1"]
        with pytest.raises(ValueError):
            from_obj(obj)


def test_canonical_negative_key_is_read_as_its_integer():
    (job,) = from_obj({"kind": "schedule", "entries": {"-3": [1, "0", "1"]}}).entries
    assert job == -3


# ---------------------------------------------------------------------------
# values read or written again: key lists, edge texts, strict ints


def _text(value):
    return dump_canonical(to_obj(value))


def _fractional(sample8):
    sched = solve_umps_exact(sample8).schedule
    return gen_fractional(sample8, sched, F(1, 640), F(1, 2), 3)


def _umps_obj(sample8):
    return json.loads(_text(sample8))


def _swap_key(d, old, new):
    return {new if key == old else key: value for key, value in d.items()}


# each case breaks one int of a valid sample8 file, read after the valid one
SWAPPED = {
    "true-length": (lambda obj: obj["lengths"].update({"1": True}),
                    TypeError, "True is not an integer"),
    "true-home": (lambda obj: obj["home"].update({"1": True}),
                  TypeError, "True is not an integer"),
    "zero-padded-key": (lambda obj: obj.update(lengths=_swap_key(obj["lengths"], "1", "01")),
                        ValueError, "key '01' is not a canonical integer"),
    "str-endpoint": (lambda obj: obj["dag"]["edges"][0].__setitem__(1, "2"),
                     TypeError, "'2' is not an integer"),
    "true-endpoint": (lambda obj: obj["dag"]["edges"][0].__setitem__(0, True),
                      TypeError, "True is not an integer"),
}


@pytest.mark.parametrize("case", sorted(SWAPPED))
def test_a_kept_instance_is_never_returned_for_a_swapped_int(sample8, case):
    # True == 1 and hash(True) == hash(1), so a value kept from the valid
    # read must not answer for the broken one, on any read
    swap, error, message = SWAPPED[case]
    assert from_obj(_umps_obj(sample8)) == sample8
    obj = _umps_obj(sample8)
    swap(obj)
    for _ in range(2):
        with pytest.raises(error, match=message):
            from_obj(obj)


def test_a_reordered_or_edited_umps_text_reads_as_written(sample8):
    reordered = _umps_obj(sample8)
    reordered["lengths"] = dict(reversed(reordered["lengths"].items()))
    back = from_obj(reordered)
    assert back == sample8 and list(back.lengths) == list(range(8, 0, -1))
    # an edge listed twice, or out of order, reads as the parent reads it
    doubled = _umps_obj(sample8)
    doubled["dag"]["edges"].append(doubled["dag"]["edges"][0])
    with pytest.raises(ValueError, match="duplicate edge"):
        from_obj(doubled)
    shuffled = _umps_obj(sample8)
    shuffled["dag"]["edges"].reverse()
    assert from_obj(shuffled) == sample8
    other = _umps_obj(sample8)
    other["dag"]["edges"].pop()
    assert from_obj(other).dag.edges == sample8.dag.edges[:-1]


def test_one_key_list_is_checked_once(sample8):
    from schedreduce.serialize import _int_keys

    obj = _umps_obj(sample8)
    keys = _int_keys(obj["lengths"])
    assert keys == tuple(range(1, 9)) and _int_keys(obj["home"]) is keys
    assert _int_keys(_umps_obj(sample8)["lengths"]) is keys
    with pytest.raises(ValueError, match="key '01' is not a canonical integer"):
        _int_keys(_swap_key(obj["lengths"], "1", "01"))
    # a list of key texts is not a map, and is checked each time
    assert _int_keys(["1", "2"]) == (1, 2)


def test_dag_edges_are_written_as_the_tuple_they_are(sample8):
    assert to_obj(sample8)["dag"]["edges"] is sample8.dag.edges


def test_an_instance_written_at_every_depth_gives_the_bytes_of_json_dumps(sample8):
    values = [sample8, _fractional(sample8), umps_to_related(sample8, kappa_override=2),
              umps_to_commdelay(sample8)]
    for value in values:
        assert _text(value) == json.dumps(to_obj(value), sort_keys=True,
                                          separators=(",", ":")) + "\n"
