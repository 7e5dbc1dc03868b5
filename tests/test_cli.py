import csv
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_sample8
from schedreduce import (
    PrecedenceDag,
    UmpsInstance,
    cli,
    forward_map_related,
    gen_fractional,
    gen_jobshop,
    gen_kpartite_yes,
    gen_layered_umps,
    gen_random_umps,
    greedy_umps,
    jobshop_to_umps,
    kpartite_yes_schedule,
    solve_commdelay_exact,
    solve_umps_exact,
    umps_to_commdelay,
    umps_to_related,
)
from schedreduce.serialize import (
    FORMATS,
    read_file,
    read_obj,
    sidecar_path,
    to_obj,
    write_file,
)


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def sample8_file(tmp_path, sample8):
    p = tmp_path / "sample8.json"
    write_file(p, sample8)
    return str(p)


# ---------------------------------------------------------------------------
# gen


def test_gen_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["gen", "layered", "--params", "layers=3,per_layer=2,edge_prob=1/2",
            "--seed", "7"]
    assert run(*argv, "--out", a) == 0
    assert run(*argv, "--out", b) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_every_family(tmp_path):
    out = lambda name: str(tmp_path / name)
    assert run("gen", "layered", "--params", "layers=2,per_layer=2", "--out",
               out("lay.json")) == 0
    assert run("gen", "random", "--params", "n=4,m=2", "--seed", "3", "--out",
               out("rnd.json")) == 0
    assert run("gen", "jobshop", "--params", "jobs=2,machines=2,ops_per_job=2",
               "--out", out("js.json")) == 0
    assert run("gen", "kpartite_yes", "--params", "n=4,k=2", "--out",
               out("yes.json")) == 0
    assert run("gen", "kpartite_dense", "--params", "n=3,k=2,density=1",
               "--out", out("no.json")) == 0
    assert read_obj(out("lay.json"))["kind"] == "umps"
    assert read_obj(out("js.json"))["kind"] == "jobshop"
    assert read_obj(out("yes.json"))["kind"] == "kpartite"
    assert read_obj(sidecar_path(out("yes.json")))["kind"] == "kpartite_certificate"
    # fractional builds on an instance and a solved schedule
    assert run("solve", out("rnd.json"), "--out", out("sched.json")) == 0
    assert run("gen", "fractional",
               "--params", f"instance={out('rnd.json')},schedule={out('sched.json')}",
               "--params", "gamma=1/160,split_prob=1/2",
               "--seed", "5", "--out", out("frac.json")) == 0
    assert read_obj(out("frac.json"))["kind"] == "fractional"


def test_gen_rejects_bad_input(tmp_path):
    assert run("gen", "mystery", "--out", str(tmp_path / "x.json")) == 2
    assert run("gen", "layered", "--out", str(tmp_path / "x.json")) == 2  # missing params
    assert run("gen", "fractional", "--out", str(tmp_path / "x.json")) == 2


@pytest.mark.parametrize("instance,schedule", [
    ("commdelay", "schedule"), ("schedule", "schedule"), ("umps", "umps"),
], ids=["commdelay-instance", "schedule-instance", "umps-schedule"])
def test_gen_fractional_rejects_inputs_of_the_wrong_kind(tmp_path, sample8, capsys,
                                                         instance, schedule):
    files = {"umps": sample8, "commdelay": umps_to_commdelay(sample8).output,
             "schedule": solve_umps_exact(sample8).schedule}
    for kind, value in files.items():
        write_file(tmp_path / f"{kind}.json", value)
    params = f"instance={tmp_path / instance}.json,schedule={tmp_path / schedule}.json"
    assert run("gen", "fractional", "--params", params,
               "--out", str(tmp_path / "x.json")) == 2
    assert capsys.readouterr().err.startswith("error: fractional generation needs")


# ---------------------------------------------------------------------------
# reduce


def test_reduce_commdelay_writes_sidecar(tmp_path, sample8_file):
    out = str(tmp_path / "cd.json")
    assert run("reduce", sample8_file, "--reduction", "commdelay", "--out", out) == 0
    obj = read_obj(out)
    assert obj["kind"] == "commdelay" and obj["n_total"] == 11
    side = read_obj(sidecar_path(out))
    assert sorted(side) == ["kind", "source"] and side["kind"] == "commdelay_artifact"
    assert side["source"]["kind"] == "umps"
    assert read_file(sidecar_path(out)).c_infinity == 64


def test_reduce_related_with_override(tmp_path, sample8_file):
    out = str(tmp_path / "rel.json")
    assert run("reduce", sample8_file, "--reduction", "related",
               "--kappa-override", "2", "--out", out) == 0
    assert read_obj(out)["kind"] == "related_grouped"
    side = read_obj(sidecar_path(out))
    assert sorted(side) == ["kappa", "kind", "source"] and side["kind"] == "related_artifact"
    assert side["kappa"] == 2 and not read_file(sidecar_path(out)).kappa_meets_bound


def test_reduce_jobshop_and_kpartite_to_umps(tmp_path):
    js, yes = str(tmp_path / "js.json"), str(tmp_path / "yes.json")
    run("gen", "jobshop", "--params", "jobs=2,machines=2,ops_per_job=3", "--out", js)
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--out", yes)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run("reduce", js, "--reduction", "umps", "--out", a) == 0
    assert read_file(a).n == 6  # one job per operation
    side = read_obj(sidecar_path(a))
    assert sorted(side) == ["kind", "source"] and side["kind"] == "jobshop_artifact"
    assert run("reduce", yes, "--reduction", "umps", "--out", b) == 0
    assert read_file(b).n == 8  # n*k vertices become jobs
    assert not Path(sidecar_path(b)).exists()  # a k-partite reduction has no artifact


UNIT6 = gen_random_umps(6, 2, Fraction(1, 3), 1)
WEIGHTED6 = gen_random_umps(6, 2, Fraction(1, 3), 1, max_length=3)
JOBSHOP = gen_jobshop(3, 2, 3, seed=4)
ARTIFACT_CASES = {  # case -> (reduce input, --reduction and its options, the library's artifact)
    "commdelay-unit": (UNIT6, ["commdelay"], umps_to_commdelay(UNIT6)),
    "commdelay-weighted": (WEIGHTED6, ["commdelay"], umps_to_commdelay(WEIGHTED6)),
    "related-kappa2": (UNIT6, ["related", "--kappa-override", "2"],
                       umps_to_related(UNIT6, kappa_override=2)),
    "related-default": (UNIT6, ["related"], umps_to_related(UNIT6)),
    "jobshop": (JOBSHOP, ["umps"], jobshop_to_umps(JOBSHOP)),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_CASES))
def test_every_artifact_kind_round_trips_through_a_file(tmp_path, case):
    inst, options, art = ARTIFACT_CASES[case]
    p = tmp_path / "art.json"
    write_file(p, art)
    assert read_file(p) == art
    inputs = ["kappa", "kind", "source"] if case.startswith("related") else ["kind", "source"]
    assert sorted(read_obj(p)) == inputs
    src, out = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    write_file(src, inst)
    assert run("reduce", src, "--reduction", *options, "--out", out) == 0
    assert read_file(sidecar_path(out)) == art and read_file(out) == art.output
    if case == "jobshop":
        # job-major: operation o of input job j is job o plus the operation
        # count of jobs 1..j-1, and each input job is one chain
        ops = [op for chain in inst.jobs for op in chain]
        assert art.output.home == {l: machine for l, (machine, _) in enumerate(ops, 1)}
        assert art.output.lengths == {l: length for l, (_, length) in enumerate(ops, 1)}
        firsts = [1 + sum(map(len, inst.jobs[:j])) for j in range(len(inst.jobs))]
        assert set(art.output.dag.edges) == {
            (first + o, first + o + 1)
            for first, chain in zip(firsts, inst.jobs) for o in range(len(chain) - 1)}


def test_reduce_wrong_kind_is_usage_error(tmp_path):
    js = str(tmp_path / "js.json")
    run("gen", "jobshop", "--params", "jobs=1,machines=1,ops_per_job=1", "--out", js)
    assert run("reduce", js, "--reduction", "commdelay",
               "--out", str(tmp_path / "x.json")) == 2


# ---------------------------------------------------------------------------
# solve / verify


def test_solve_exact_reports_optimum(tmp_path, sample8_file, capsys):
    out = str(tmp_path / "sched.json")
    assert run("solve", sample8_file, "--out", out) == 0
    obj = read_obj(out)
    assert obj["optimum"] == "5" and obj["proven_optimal"] is True
    assert obj["solver_states"] > 0
    assert run("verify", sample8_file, out) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"feasible": True, "violations": []}


def test_solve_budget_capped_still_writes_feasible_schedule(tmp_path, sample8_file):
    out = str(tmp_path / "sched.json")
    assert run("solve", sample8_file, "--limits", "max_jobs=1", "--out", out) == 3
    assert read_obj(out)["proven_optimal"] is False
    assert run("verify", sample8_file, out) == 0


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--params", "n=6,m=2,edge_prob=1/0", "--seed", "1"),
    ("gen", "fractional", "--params", "instance={inst},schedule={sched},gamma=1/0"),
    ("solve", "{inst}", "--limits", "time_budget=1/0"),
], ids=["gen-edge-prob", "gen-gamma", "solve-time-budget"])
def test_zero_denominator_parameter_is_usage_error(tmp_path, sample8_file, capsys, argv):
    # Fraction("1/0") raises ZeroDivisionError, which used to escape as a
    # traceback with exit 1
    sched = str(tmp_path / "sched.json")
    assert run("solve", sample8_file, "--out", sched) == 0
    out = tmp_path / "out.json"
    argv = [arg.format(inst=sample8_file, sched=sched) for arg in argv]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator in '1/0'" in err
    assert not out.exists()


@pytest.mark.parametrize("limit", [
    "max_jobs=-1", "max_states=-5", "time_budget=-1", "time_budget=-1/2",
])
def test_negative_limit_is_usage_error(tmp_path, sample8_file, capsys, limit):
    # a negative budget used to trip at once (exit 3), and max_jobs=-1
    # still wrote a schedule
    out = tmp_path / "sched.json"
    assert run("solve", sample8_file, "--limits", limit, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: limit {limit.split('=')[0]} must be >= 0")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("solve", "{inst}", "--limits", "max_jobs=1_0"), "max_jobs: '1_0' is not an integer"),
    (("solve", "{inst}", "--limits", "max_jobs=٣"), "max_jobs: '٣' is not an integer"),
    (("solve", "{inst}", "--limits", "max_jobs=1.5"), "max_jobs: '1.5' is not an integer"),
    (("gen", "random", "--params", "n=1_2,m=2"), "n: '1_2' is not an integer"),
    (("gen", "random", "--params", "n=3,m=2", "--seed", "1_0"),
     "--seed: '1_0' is not an integer"),
], ids=["underscore-limit", "arabic-indic-limit", "float-limit", "underscore-param",
        "underscore-seed"])
def test_cli_integer_that_is_not_ascii_digits_is_usage_error(
        tmp_path, sample8_file, capsys, argv, message):
    # int() reads "1_0" as 10 and "٣" as 3, and its message for "1.5"
    # named no parameter
    out = tmp_path / "out.json"
    assert run(*[arg.format(inst=sample8_file) for arg in argv], "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("solve", "{inst}", "--limits", "max_jobs=1,max_jobs=50"),
     "'max_jobs' is given more than once"),
    (("gen", "random", "--params", "n=3", "--params", "n=5,m=2"), "'n' is given more than once"),
    (("gen", "random", "--params", "n=3,m=2,edgeprob=1/4"),
     "unknown parameter 'edgeprob' for family random; it reads n, m, edge_prob, max_length"),
    (("gen", "kpartite_yes", "--params", "n=4,k=2,density=1"),
     "unknown parameter 'density' for family kpartite_yes; it reads n, k"),
    (("reduce", "{inst}", "--reduction", "commdelay", "--kappa-override", "2"),
     "--kappa-override is not read by --reduction commdelay; only --reduction related reads it"),
    (("reduce", "{inst}", "--reduction", "umps", "--kappa-override", "2"),
     "--kappa-override is not read by --reduction umps; only --reduction related reads it"),
    (("roundtrip", "{inst}", "--mode", "commdelay", "--kappa-override", "2"),
     "--kappa-override is not read by --mode commdelay; only --mode related reads it"),
    (("roundtrip", "{inst}", "--mode", "kpartite", "--kappa-override", "2"),
     "--kappa-override is not read by --mode kpartite; only --mode related reads it"),
], ids=["repeated-limit", "repeated-param", "unread-param", "unread-param-sidecar",
        "unread-kappa-reduce-commdelay", "unread-kappa-reduce-umps",
        "unread-kappa-roundtrip-commdelay", "unread-kappa-roundtrip-kpartite"])
def test_repeated_or_unread_key_is_usage_error(tmp_path, sample8_file, capsys, argv, message):
    # the last value of a repeated key used to win (max_jobs=50 solved),
    # and a key or option the command does not read was ignored
    # (edge_prob stayed 1/2; --kappa-override was dropped, exit 0)
    out = tmp_path / "out.json"
    assert run(*[arg.format(inst=sample8_file) for arg in argv], "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not Path(sidecar_path(out)).exists()


def test_too_large_time_budget_is_usage_error(tmp_path, sample8_file, capsys):
    out = tmp_path / "sched.json"
    assert run("solve", sample8_file, "--limits", "time_budget=1e400", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: time_budget: '1e400' is too large\n"


@pytest.mark.parametrize("limit", ["max_jobs=0", "max_states=0"])
def test_zero_limit_is_a_budget_not_a_usage_error(tmp_path, sample8_file, limit):
    out = tmp_path / "sched.json"
    assert run("solve", sample8_file, "--limits", limit, "--out", str(out)) == 3
    assert read_obj(out)["proven_optimal"] is False


def test_solve_size_cap_is_budget_exceeded(tmp_path, capsys):
    # the default kappa materializes tens of millions of jobs
    inst, grouped = str(tmp_path / "inst.json"), str(tmp_path / "grouped.json")
    assert run("gen", "random", "--params", "n=6,m=2", "--seed", "1", "--out", inst) == 0
    assert run("reduce", inst, "--reduction", "related", "--out", grouped) == 0
    capsys.readouterr()
    assert run("solve", grouped, "--out", str(tmp_path / "sched.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:") and "exceed the cap" in err
    assert "Traceback" not in err


def test_solve_skips_a_unit_search_that_cannot_finish(tmp_path):
    # 16 predecessor-free jobs on machine 1 put more than 20,000 done masks
    # above depth 16, so the search is not started and greedy is returned
    inst = gen_layered_umps(2, 16, Fraction(1, 2), 6)
    inst_path, out = str(tmp_path / "layered.json"), str(tmp_path / "sched.json")
    write_file(inst_path, inst)
    assert run("solve", inst_path, "--limits", "max_jobs=64,max_states=20000",
               "--out", out) == 3
    obj = read_obj(out)
    assert (obj["solver_states"], obj["proven_optimal"]) == (0, False)
    assert read_file(out) == greedy_umps(inst)


def test_solve_greedy_exits_zero(tmp_path, sample8_file):
    out = str(tmp_path / "sched.json")
    assert run("solve", sample8_file, "--solver", "greedy", "--out", out) == 0
    assert read_obj(out)["proven_optimal"] is False
    assert run("verify", sample8_file, out) == 0


def test_solve_greedy_on_grouped_related_is_usage_error(tmp_path, sample8_file, capsys):
    # there is no greedy related solver; the exact search must not stand in
    # for it and exit 0 on a capped search
    grouped = str(tmp_path / "grouped.json")
    assert run("reduce", sample8_file, "--reduction", "related",
               "--kappa-override", "2", "--out", grouped) == 0
    out = tmp_path / "sched.json"
    assert run("solve", grouped, "--solver", "greedy", "--limits", "max_states=5",
               "--out", str(out)) == 2
    assert "greedy" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_a_non_integer_machine(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "umps", "n": 1, "m": 2, "lengths": {"1": 1}, "home": {"1": 1},
        "dag": {"node_count": 1, "edges": []},
    }))
    (tmp_path / "sched.json").write_text(_schedule_text([1.5, "0", "1"]))
    assert run("verify", str(inst), str(tmp_path / "sched.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sched.json" in captured.err


def test_verify_reports_violations(tmp_path, sample8_file, capsys):
    out = str(tmp_path / "sched.json")
    run("solve", sample8_file, "--out", out)
    obj = read_obj(out)
    obj["entries"]["1"][0] = 3  # move job 1 off its home machine
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert run("verify", sample8_file, str(tmp_path / "bad.json")) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["feasible"]
    assert any(v["kind"] == "wrong_machine" for v in report["violations"])


def test_missing_file_is_usage_error(tmp_path):
    assert run("solve", str(tmp_path / "nope.json"), "--out",
               str(tmp_path / "x.json")) == 2


CYCLIC_UMPS = json.dumps({
    "kind": "umps", "n": 2, "m": 1, "lengths": {"1": 1, "2": 1}, "home": {"1": 1, "2": 1},
    "dag": {"node_count": 2, "edges": [[1, 2], [2, 1]]},
})


def _schedule_text(entry):
    return json.dumps({"kind": "schedule", "entries": {"1": entry}})


FLOAT_HOME_UMPS = json.dumps({
    "kind": "umps", "n": 2, "m": 2, "lengths": {"1": 1, "2": 1}, "home": {"1": 1, "2": 1.5},
    "dag": {"node_count": 2, "edges": [[1, 2]]},
})
# json.loads alone keeps the last of two equal keys: length 3 for job 1
REPEATED_KEY_UMPS = ('{"kind": "umps", "n": 2, "m": 1, "lengths": {"1": 1, "2": 1, "1": 3}, '
                     '"home": {"1": 1, "2": 1}, "dag": {"node_count": 2, "edges": [[1, 2]]}}')
FLOAT_COUNT_COMMDELAY = json.dumps({
    "kind": "commdelay", "n_total": 2, "lengths": {"1": 1, "2": 1}, "delays": [[1, 2, 1]],
    "dag": {"node_count": 2, "edges": [[1, 2]]}, "machines": 1.5,
})
FLOAT_DELAY_COMMDELAY = json.dumps({
    "kind": "commdelay", "n_total": 2, "lengths": {"1": 1, "2": 1}, "delays": [[1, 2, 1.5]],
    "dag": {"node_count": 2, "edges": [[1, 2]]}, "machines": 1,
})


def _umps_with_edge(edge_text):
    return ('{"kind": "umps", "n": 3, "m": 1, "lengths": {"1": 1, "2": 1, "3": 1}, '
            '"home": {"1": 1, "2": 1, "3": 1}, '
            f'"dag": {{"node_count": 3, "edges": [{edge_text}]}}}}')


def _with(obj, path, value):
    """The JSON text of ``obj`` with the value at ``path`` replaced."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(obj)


def _fractional_obj(sample8):
    sched = solve_umps_exact(sample8).schedule
    return to_obj(gen_fractional(sample8, sched, Fraction(1, 640), Fraction(1, 2), 3))


# strings and booleans where the format has an integer: the constructors
# would int()-coerce them, and bool is an int subclass; numbers and
# booleans where it has a rational, which it always writes as a string
UMPS3 = json.loads(_umps_with_edge("[1, 2]"))
COMMDELAY2 = json.loads(FLOAT_DELAY_COMMDELAY)
STRICT_INT_CASES = {
    "str-machine": _schedule_text(["1", "0", "1"]),
    "bool-machine": _schedule_text([True, "0", "1"]),
    "str-edge": _umps_with_edge('["1", 2]'),
    "bool-length": _with(UMPS3, ("lengths", "2"), True),
    "bool-home": _with(UMPS3, ("home", "3"), True),
    "str-delay": _with(COMMDELAY2, ("delays", 0), [1, 2, "3"]),
    "str-operation": json.dumps({"kind": "jobshop", "jobs": [[["1", "2"]]]}),
    # map keys other than canonical decimal integers, which int() would read
    # as another spelling of a job number ("01" and "+1" as 1, "1_0" as 10)
    "zero-padded-length-key": _with(UMPS3, ("lengths", "01"), 7),
    "plus-home-key": _with(UMPS3, ("home", "+1"), 1),
    "space-length-key": _with(UMPS3, ("lengths", " 1"), 1),
    "underscore-length-key": _with(UMPS3, ("lengths", "1_0"), 1),
    "arabic-indic-home-key": _with(UMPS3, ("home", "\u0661"), 1),
    "zero-padded-entry-key": json.dumps({"kind": "schedule", "entries": {
        "1": [1, "0", "1"], "01": [2, "5", "6"]}}),
    "bool-start": _schedule_text([1, True, "2"]),
    "int-end": _schedule_text([1, "0", 1]),
    "bool-gamma": _with(_fractional_obj(make_sample8()), ("gamma",), False),
}
# an embedded object of another kind: a schedule as an artifact's source,
# a commdelay instance as a fractional schedule's umps_ref
WRONG_KIND_CASES = {
    "schedule-as-source": _with(to_obj(umps_to_commdelay(make_sample8())), ("source",),
                                to_obj(solve_umps_exact(make_sample8()).schedule)),
    "commdelay-as-umps-ref": _with(_fractional_obj(make_sample8()), ("umps_ref",),
                                   to_obj(umps_to_commdelay(make_sample8()).output)),
}


@pytest.mark.parametrize("text", [
    '{"kind": "umps"}', "[1, 2]", CYCLIC_UMPS,
    _schedule_text([1, "1/0", "1"]), _schedule_text([1, "a/b", "1"]),
    _schedule_text([1, "0"]), '{"kind": "umps",', FLOAT_HOME_UMPS, FLOAT_COUNT_COMMDELAY,
    _umps_with_edge("[2.9, 3]"), _umps_with_edge("[Infinity, 3]"), FLOAT_DELAY_COMMDELAY,
    REPEATED_KEY_UMPS, *STRICT_INT_CASES.values(), *WRONG_KIND_CASES.values(),
], ids=["missing-field", "list", "cycle", "zero-denominator", "bad-rational",
        "short-entry", "not-json", "float-home", "float-machine-count",
        "float-edge", "infinity-edge", "float-delay", "repeated-key", *STRICT_INT_CASES,
        *WRONG_KIND_CASES])
def test_malformed_file_is_usage_error_without_traceback(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "schedreduce.cli", "solve", str(bad),
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "bad.json: malformed file" in proc.stderr


def test_zero_denominator_is_malformed_but_a_broken_property_is_infeasible(
        tmp_path, sample8, sample8_file, capsys):
    sched = to_obj(solve_umps_exact(sample8).schedule)
    sched["entries"]["1"][1] = "1/0"
    (tmp_path / "s.json").write_text(json.dumps(sched))
    assert run("verify", sample8_file, str(tmp_path / "s.json")) == 2
    assert "s.json" in capsys.readouterr().err

    frac = _fractional_obj(sample8)
    frac["gamma"] = "1/0"
    (tmp_path / "f.json").write_text(json.dumps(frac))
    assert run("solve", str(tmp_path / "f.json"), "--out", str(tmp_path / "o.json")) == 2
    assert "f.json" in capsys.readouterr().err

    frac["gamma"] = "2"  # parses, but gamma must lie in [0, 1)
    (tmp_path / "f.json").write_text(json.dumps(frac))
    assert run("solve", str(tmp_path / "f.json"), "--out", str(tmp_path / "o.json")) == 1
    assert "infeasible" in capsys.readouterr().err


# the first mass row of the sample fractional file is [1, 3, "10239/10240"];
# each case puts ``value`` at index ``at`` of that row
@pytest.mark.parametrize("at, value, code, message", [
    (2, "3/2", 1, "bad.json: mass x[1,3] = 3/2 outside [0, 1]"),
    (2, "-1/2", 1, "bad.json: mass x[1,3] = -1/2 outside [0, 1]"),
    (0, True, 2, "bad.json: malformed file (TypeError: True is not an integer)"),
    (2, "1/0", 2, "bad.json: malformed file (ZeroDivisionError: Fraction(1, 0))"),
    (2, 1, 2, "bad.json: malformed file (TypeError: 1 is not a rational string)"),
], ids=["mass-above-one", "negative-mass", "bool-job", "zero-denominator", "number-mass"])
def test_malformed_fractional_file_keeps_its_message_and_exit_code(
        tmp_path, sample8, capsys, at, value, code, message):
    frac = _fractional_obj(sample8)
    assert frac["mass"][0] == [1, 3, "10239/10240"]
    frac["mass"][0][at] = value
    (tmp_path / "bad.json").write_text(json.dumps(frac))
    assert run("solve", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o.json")) == code
    assert message in capsys.readouterr().err


def _one_job_umps():
    return UmpsInstance(n=1, m=1, lengths={1: 1}, home={1: 1}, dag=PrecedenceDag(1, ()))


# a well-formed file whose content the package refuses: a reduction that
# refuses the artifact's source, or a fractional schedule off its grid
@pytest.mark.parametrize("make, message", [
    (lambda _: {"kind": "commdelay_artifact", "source": to_obj(_one_job_umps())},
     "need at least 2 jobs for the delay threshold to separate"),
    (lambda _: {"kind": "related_artifact", "kappa": 2,
                "source": to_obj(gen_random_umps(4, 2, Fraction(1, 2), 0, max_length=3))},
     "the related-machines construction needs unit job lengths"),
    (lambda sample8: {**_fractional_obj(sample8), "gamma": "2"}, "gamma"),
], ids=["commdelay-one-job-source", "related-weighted-source", "fractional-gamma"])
def test_a_refused_file_is_infeasible_and_named(tmp_path, sample8, capsys, make, message):
    bad = tmp_path / "refused.json"
    bad.write_text(json.dumps(make(sample8)))
    assert run("solve", str(bad), "--out", str(tmp_path / "o.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"infeasible: {bad}: ") and message in err


# ---------------------------------------------------------------------------
# malformed-file fuzzer: seeded mutations of valid files of every kind must
# end in an exit code, never in an exception


FUZZ_SEEDS = 60
FUZZ_SWAPS = [None, True, 1.5, 2.0, "2", -1, 0, "x", [], {}, [1], {"1": 1}]


def _nodes(obj, path=()):
    """Every (path, value) in a JSON tree, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(obj, rnd):
    """One or two of: drop a field, swap a value's type, put "1/0" or
    "a/b" in place of a rational string, truncate a list."""
    for _ in range(rnd.randint(1, 2)):
        paths = [(p, v) for p, v in _nodes(obj) if p]
        op = rnd.randrange(4)
        if op == 0:
            picks = [p for p, _ in paths if isinstance(_at(obj, p[:-1]), dict)]
        elif op == 1:
            picks = [p for p, _ in paths]
        elif op == 2:
            picks = [p for p, v in paths if isinstance(v, str) and p[-1] != "kind"]
        else:
            picks = [p for p, v in paths if isinstance(v, list) and v]
        if not picks:
            continue
        path = rnd.choice(picks)
        parent, key = _at(obj, path[:-1]), path[-1]
        if op == 0:
            del parent[key]
        elif op == 1:
            parent[key] = rnd.choice(FUZZ_SWAPS)
        elif op == 2:
            parent[key] = rnd.choice(["1/0", "a/b"])
        else:
            del parent[key][rnd.randrange(len(parent[key])):]
    return obj


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


FUZZ_KINDS = ["umps", "schedule", "commdelay", "commdelay_artifact", "related_grouped",
              "grouped_schedule", "related_artifact", "fractional", "jobshop",
              "jobshop_artifact", "kpartite", "kpartite_certificate"]


def test_fuzzer_covers_every_kind_in_the_codec_table():
    assert sorted(FUZZ_KINDS) == sorted([*FORMATS, "grouped_schedule"])


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_mutated_files_exit_cleanly(tmp_path, sample8, kind):
    sched = solve_umps_exact(sample8).schedule
    related = umps_to_related(sample8, kappa_override=2)
    grouped = forward_map_related(related, sched)
    kpartite, cert = gen_kpartite_yes(4, 2, seed=2)
    base = {
        "umps": lambda: to_obj(sample8),
        "schedule": lambda: to_obj(sched),
        "commdelay": lambda: to_obj(umps_to_commdelay(sample8).output),
        "commdelay_artifact": lambda: to_obj(umps_to_commdelay(sample8)),
        "related_grouped": lambda: to_obj(related.output),
        "grouped_schedule": lambda: to_obj(grouped),
        "related_artifact": lambda: to_obj(related),
        "fractional": lambda: _fractional_obj(sample8),
        "jobshop": lambda: to_obj(gen_jobshop(3, 2, 3, seed=4)),
        "jobshop_artifact": lambda: to_obj(jobshop_to_umps(gen_jobshop(3, 2, 3, seed=4))),
        "kpartite": lambda: to_obj(kpartite),
        "kpartite_certificate": lambda: to_obj(cert),
    }[kind]()
    inst_path, sched_path = str(tmp_path / "u.json"), str(tmp_path / "s.json")
    grouped_path, placements_path = str(tmp_path / "g.json"), str(tmp_path / "gs.json")
    kpartite_path, staircase_path = str(tmp_path / "k.json"), str(tmp_path / "ks.json")
    write_file(inst_path, sample8)
    write_file(sched_path, sched)
    write_file(grouped_path, related.output)
    write_file(placements_path, grouped)
    write_file(kpartite_path, kpartite)
    write_file(staircase_path, kpartite_yes_schedule(kpartite, cert))
    bad, out = str(tmp_path / "bad.json"), str(tmp_path / "out.json")
    if kind == "kpartite":
        write_file(sidecar_path(bad), cert)  # so roundtrip takes the certificate path
    if kind == "kpartite_certificate":
        bad = sidecar_path(kpartite_path)  # the certificate roundtrip reads
    capped = ("--limits", "max_jobs=24,max_states=200")
    commands = {
        "umps": [("solve", bad, "--out", out), ("verify", bad, sched_path)],
        "schedule": [("verify", inst_path, bad)],
        "commdelay": [("solve", bad, "--out", out, *capped),
                      ("solve", bad, "--solver", "greedy", "--out", out)],
        "related_grouped": [("solve", bad, "--out", out, *capped),
                            ("verify", bad, placements_path)],
        "grouped_schedule": [("verify", grouped_path, bad)],
        "jobshop": [("reduce", bad, "--reduction", "umps", "--out", out)],
        "kpartite": [("reduce", bad, "--reduction", "umps", "--out", out),
                     ("verify", bad, staircase_path),
                     ("roundtrip", bad, "--mode", "kpartite", "--out", out)],
        "kpartite_certificate": [("roundtrip", kpartite_path, "--mode", "kpartite",
                                  "--out", out)],
    }.get(kind, [("solve", bad, "--out", out)])
    for seed in range(FUZZ_SEEDS):
        mutated = _mutate(json.loads(json.dumps(base)), random.Random(f"{kind}-{seed}"))
        Path(bad).write_text(json.dumps(mutated))
        for argv in commands:
            try:
                code = run(*argv)
            except Exception as exc:  # any exception that escapes is the failure
                pytest.fail(f"seed {seed}, {argv[0]}: {type(exc).__name__}: {exc}\n"
                            f"{json.dumps(mutated)}")
            assert code in (0, 1, 2, 3), (seed, argv[0], code)


def test_mutated_corpus_members_bench_cleanly(tmp_path, capsys):
    base = tmp_path / "base"
    base.mkdir()
    run("gen", "random", "--params", "n=4,m=2", "--seed", "1", "--out", str(base / "r1.json"))
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "3",
        "--out", str(base / "k1.json"))
    run("gen", "kpartite_dense", "--params", "n=4,k=2,density=1", "--seed", "0",
        "--out", str(base / "k2.json"))
    members = sorted(p.name for p in base.iterdir())  # the sidecar certificate too
    capped = "max_jobs=24,max_states=200"
    for seed in range(FUZZ_SEEDS):
        rnd = random.Random(f"bench-{seed}")
        corpus = tmp_path / f"corpus{seed}"
        corpus.mkdir()
        for name in members:
            (corpus / name).write_bytes((base / name).read_bytes())
        name = rnd.choice(members)
        mutated = _mutate(json.loads((base / name).read_text()), rnd)
        (corpus / name).write_text(json.dumps(mutated))
        try:
            code = run("bench", str(corpus), "--limits", capped,
                       "--out", str(tmp_path / "gap.csv"))
        except Exception as exc:  # any exception that escapes is the failure
            pytest.fail(f"seed {seed}, {name}: {type(exc).__name__}: {exc}\n"
                        f"{json.dumps(mutated)}")
        assert code in (0, 1, 3), (seed, name, code)  # a bad member never aborts the run
        assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# roundtrip / bench


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_roundtrip_commdelay_row(tmp_path, sample8_file):
    out = str(tmp_path / "gap.csv")
    assert run("roundtrip", sample8_file, "--mode", "commdelay",
               "--limits", "max_jobs=12", "--out", out) == 0
    (row,) = read_rows(out)
    assert row == {
        "instance_id": "sample8", "n": "8", "m": "3",
        "opt_source": "5", "opt_target": "6",
        "bound_kind": "sandwich_plus_one", "bound_holds": "true",
        "solver_states": row["solver_states"],
    }
    assert int(row["solver_states"]) > 0


def test_roundtrip_requires_the_gadget_exact_plus_one(tmp_path, sample8_file, monkeypatch):
    # a proven target optimum equal to the source's lies in [L, L + 1] but
    # is not the delay gadget's exact L + 1, so the bound fails
    def one_short(inst, lim):
        result = solve_commdelay_exact(inst, lim)
        return replace(result, optimum=result.optimum - 1)

    monkeypatch.setattr(cli, "solve_commdelay_exact", one_short)
    out = str(tmp_path / "gap.csv")
    assert run("roundtrip", sample8_file, "--mode", "commdelay",
               "--limits", "max_jobs=12", "--out", out) == 1
    (row,) = read_rows(out)
    assert (row["opt_source"], row["opt_target"], row["bound_holds"]) == ("5", "5", "false")


def test_roundtrip_budget_flagged_but_row_kept(tmp_path, sample8_file, capsys):
    # default max_jobs=10 cannot prove the 11-job reduced instance optimal:
    # the row is kept, the unproven upper bound cannot falsify the sandwich,
    # and the exit code flags the budget instead
    out = str(tmp_path / "gap.csv")
    assert run("roundtrip", sample8_file, "--mode", "commdelay", "--out", out) == 3
    (row,) = read_rows(out)
    assert row["bound_holds"] == "true"
    assert "budget exceeded" in capsys.readouterr().err


def test_roundtrip_related_row(tmp_path, sample8_file):
    out = str(tmp_path / "gap.csv")
    assert run("roundtrip", sample8_file, "--mode", "related",
               "--kappa-override", "2", "--out", out) == 0
    (row,) = read_rows(out)
    assert row["bound_kind"] == "rounding_2L" and row["bound_holds"] == "true"
    assert int(row["opt_target"]) <= 2 * int(row["opt_source"])


def test_roundtrip_kpartite_yes_row(tmp_path):
    yes = str(tmp_path / "yes.json")
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "2", "--out", yes)
    out = str(tmp_path / "gap.csv")
    assert run("roundtrip", yes, "--mode", "kpartite", "--out", out) == 0
    (row,) = read_rows(out)
    assert row["bound_kind"] == "yes_3n" and row["bound_holds"] == "true"
    assert int(row["opt_target"]) == 12


def test_bench_over_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run("gen", "random", "--params", "n=4,m=2", "--seed", "1",
        "--out", str(corpus / "r1.json"))
    run("gen", "random", "--params", "n=5,m=2", "--seed", "2",
        "--out", str(corpus / "r2.json"))
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "3",
        "--out", str(corpus / "k1.json"))
    # a kind with no roundtrip mode is skipped, and fails nothing
    run("gen", "jobshop", "--params", "jobs=2,machines=2,ops_per_job=2", "--seed", "1",
        "--out", str(corpus / "j1.json"))
    out = str(tmp_path / "gap.csv")
    assert run("bench", str(corpus), "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "rows=3 bound_holds=3/3"
    assert "j1.json: no roundtrip mode for this kind, skipped" in captured.err
    rows = read_rows(out)
    assert [r["instance_id"] for r in rows] == ["k1", "r1", "r2"]
    assert all(r["bound_holds"] == "true" for r in rows)
    assert (tmp_path / "gap.csv").read_text().splitlines()[0] == (
        "instance_id,n,m,opt_source,opt_target,bound_kind,bound_holds,solver_states")
    # rerun: byte-identical despite the measured timings on stderr
    first = (tmp_path / "gap.csv").read_bytes()
    assert run("bench", str(corpus), "--out", out) == 0
    assert (tmp_path / "gap.csv").read_bytes() == first


def test_bench_keeps_good_rows_when_one_instance_fails(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run("gen", "random", "--params", "n=4,m=2", "--seed", "1",
        "--out", str(corpus / "r1.json"))
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "3",
        "--out", str(corpus / "k1.json"))
    out = tmp_path / "gap.csv"
    assert run("bench", str(corpus), "--out", str(out)) == 0
    good = out.read_bytes()
    # density 0 is not dense, so the no-floor check has nothing to assert
    run("gen", "kpartite_dense", "--params", "n=4,k=2,density=0", "--seed", "0",
        "--out", str(corpus / "k0.json"))
    capsys.readouterr()
    assert run("bench", str(corpus), "--out", str(out)) == 1
    assert out.read_bytes() == good
    captured = capsys.readouterr()
    assert "k0.json: failed (" in captured.err
    assert captured.out.strip() == "rows=2 bound_holds=2/2"
    # a member that does not read fails too, where it was once skipped
    # with exit 0
    (corpus / "k0.json").unlink()
    for text in ('{"kind": "umps", "n": 1', "{not json"):
        (corpus / "broken.json").write_text(text)
        assert run("bench", str(corpus), "--out", str(out)) == 1
        assert out.read_bytes() == good
        captured = capsys.readouterr()
        assert "broken.json: failed (" in captured.err
        assert captured.out.strip() == "rows=2 bound_holds=2/2"


@pytest.mark.parametrize("sidecar", [
    '{"kind": "kpartite_certificate"}',  # no partition
    "{not json",
    "r1",  # a well-formed file of another kind
], ids=["no-partition", "not-json", "other-kind"])
def test_bench_keeps_good_rows_when_one_sidecar_is_bad(tmp_path, capsys, sidecar):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run("gen", "random", "--params", "n=4,m=2", "--seed", "1",
        "--out", str(corpus / "r1.json"))
    run("gen", "kpartite_yes", "--params", "n=4,k=2", "--seed", "3",
        "--out", str(corpus / "k1.json"))
    side = corpus / "k1.json.sidecar.json"
    side.write_bytes((corpus / "r1.json").read_bytes() if sidecar == "r1"
                     else sidecar.encode())
    out = tmp_path / "gap.csv"
    capsys.readouterr()
    assert run("bench", str(corpus), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert f"k1.json: failed ({side}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out.strip() == "rows=1 bound_holds=1/1"
    assert [r["instance_id"] for r in read_rows(out)] == ["r1"]
    # roundtrip on the one file is a usage error naming the sidecar
    assert run("roundtrip", str(corpus / "k1.json"), "--mode", "kpartite") == 2
    assert f"error: {side}: " in capsys.readouterr().err


def test_bench_budget_error_on_one_instance_exits_3(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run("gen", "random", "--params", "n=4,m=2", "--seed", "1",
        "--out", str(corpus / "r1.json"))
    run("gen", "kpartite_dense", "--params", "n=4,k=2,density=1", "--seed", "0",
        "--out", str(corpus / "k1.json"))

    def out_of_sets(_inst):
        raise cli.BudgetExceeded("more than 0 lower-layer sets")

    monkeypatch.setattr(cli, "verify_no_property", out_of_sets)
    capsys.readouterr()
    assert run("bench", str(corpus)) == 3
    captured = capsys.readouterr()
    assert "k1.json: budget exceeded (more than 0 lower-layer sets)" in captured.err
    assert captured.out.splitlines()[-1] == "rows=1 bound_holds=1/1"


def test_bench_empty_dir(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert run("bench", str(corpus)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(cli.GAP_COLUMNS)
    assert out[-1] == "rows=0 bound_holds=0/0"


# ---------------------------------------------------------------------------
# the corpus and gap-table scripts, end to end

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env)


def test_corpus_and_gap_table_scripts_run(tmp_path):
    corpus, table = tmp_path / "corpus", tmp_path / "gap.csv"
    for argv in (["build_corpus.py", "--seeds", "1", "--out-dir", str(corpus)],
                 ["run_gap_table.py", str(corpus), "--out", str(table)]):
        proc = _run_script(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
    assert table.read_text().splitlines()[0] == (
        "instance_id,n,m,opt_source,opt_target,bound_kind,bound_holds,solver_states")
    rows = read_rows(table)
    assert len(rows) == 8
    assert all(r["bound_holds"] == "true" for r in rows)


@pytest.mark.parametrize("stale", [False, True], ids=["no-table", "stale-table"])
def test_gap_table_script_digests_nothing_when_bench_is_a_usage_error(tmp_path, stale):
    # the script used to read --out regardless: a traceback when it was
    # missing, an old table's digest when it was not
    table = tmp_path / "gap.csv"
    if stale:
        table.write_text(",".join(cli.GAP_COLUMNS) + "\nold,1,1,1,2,rounding_2L,true,0\n")
    proc = _run_script("run_gap_table.py", str(tmp_path / "missing"), "--out", str(table))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "is not a directory" in proc.stderr
    assert "holds=" not in proc.stdout and "table written" not in proc.stdout
