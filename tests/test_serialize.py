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
    read_file,
    read_obj,
    sidecar_path,
    to_obj,
    write_file,
)

F = Fraction


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_frac_text_round_trips(num, den):
    f = F(num, den)
    assert F(frac_str(f)) == f


def test_frac_text_plain_integer_form():
    assert frac_str(F(6, 3)) == "2"
    assert frac_str(F(-1, 2)) == "-1/2"


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
