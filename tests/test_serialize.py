import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from oracle import oracle_dump_canonical

F = Fraction


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_frac_text_round_trips(num, den):
    f = F(num, den)
    assert F(frac_str(f)) == f


def test_frac_text_plain_integer_form():
    assert frac_str(F(6, 3)) == "2"
    assert frac_str(F(-1, 2)) == "-1/2"
    assert frac_str(-7) == "-7"
    assert frac_str(True) == "1"
    assert frac_str("6/4") == "3/2"


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


@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert dump_canonical(value) == oracle_dump_canonical(value)


@pytest.mark.parametrize("value", [1.5, 2.0, object(), F(1, 2), {"a": [1, 0.5]},
                                   [{"b": object()}], {1: 2}])
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


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        from_obj({"kind": "mystery"})


def test_unserializable_value_rejected():
    with pytest.raises(TypeError):
        to_obj(object())
