"""Command-line surface: generate, reduce, solve, verify, roundtrip, bench.

Exit codes: 0 success/feasible, 1 infeasible or bound violated, 2 usage
error, 3 budget exceeded (size caps count as budgets).  All file outputs
are canonical JSON or CSV and depend only on inputs and --seed; measured
timings go to stderr so reruns stay byte-identical.  The one exception is
a ``time_budget`` limit that trips: the exact searches then stop on the
clock, and ``solve``, ``roundtrip`` and ``bench`` write the
``solver_states`` at which it stopped them, which a rerun need not
repeat.  A ``max_states`` or ``max_jobs`` cap is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from .errors import (
    BudgetExceeded,
    MaterializationTooLarge,
    SchedReduceError,
)
from .generators import (
    gen_fractional,
    gen_jobshop,
    gen_kpartite_dense,
    gen_kpartite_yes,
    gen_layered_umps,
    gen_random_umps,
)
from .model import (
    CommDelayInstance,
    GroupedRelatedInstance,
    GroupedSchedule,
    JobShopInstance,
    KPartiteInstance,
    Schedule,
    UmpsInstance,
    makespan,
    validate_commdelay,
    validate_grouped,
    validate_related,
    validate_umps,
)
from .reductions import (
    KPartiteYesCertificate,
    backward_map_commdelay,
    forward_map_commdelay,
    forward_map_related,
    jobshop_to_umps,
    kpartite_to_umps,
    kpartite_yes_schedule,
    materialize_related,
    umps_to_commdelay,
    umps_to_related,
    validate_certificate,
)
from .rounding import canonicalize, extract_integral, strip_misplaced
from .serialize import (
    dump_canonical,
    frac_str,
    read_file,
    sidecar_path,
    write_file,
)
from .solvers import (
    SolveLimits,
    SolveResult,
    greedy_umps,
    list_schedule_commdelay,
    solve_commdelay_exact,
    solve_related_exact,
    solve_umps_exact,
    verify_no_property,
)


class UsageError(Exception):
    pass


_BUDGET_ERRORS = (BudgetExceeded, MaterializationTooLarge)
LIMITS_HELP = ("max_jobs=..,max_states=..,time_budget=..; a time_budget that trips "
               "stops on the clock, so the solver_states written are not reproducible")


@dataclass
class GapRow:
    instance_id: str
    n: int
    m: int
    opt_source: Fraction
    opt_target: Fraction
    bound_kind: str  # sandwich_plus_one | rounding_2L | yes_3n | no_floor
    bound_holds: bool
    solver_states: int


GAP_COLUMNS = [f.name for f in fields(GapRow)]


def _parse_pairs(chunks) -> dict:
    """Parse repeated/comma-separated key=value chunks; a key given twice
    is a usage error."""
    out = {}
    if isinstance(chunks, str):
        chunks = [chunks]
    for chunk in chunks or []:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise UsageError(f"expected key=value, got {part!r}")
            key, value = part.split("=", 1)
            key = key.strip()
            if key in out:
                raise UsageError(f"{key!r} is given more than once")
            out[key] = value.strip()
    return out


def _fraction(key, text) -> Fraction:
    """The rational ``text`` of parameter ``key``; a zero denominator is a
    usage error, and so (by ``Fraction``'s ``ValueError``) is a text that
    is not a rational."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"{key}: zero denominator in {text!r}") from None


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(key, text) -> int:
    """The integer ``text`` of parameter or option ``key``: ASCII
    ``-?[0-9]+`` only, so ``1_0``, another script's digits or ``1.5`` is a
    usage error rather than a number ``int()`` would read."""
    if _INTEGER.fullmatch(text) is None:
        raise UsageError(f"{key}: {text!r} is not an integer")
    return int(text)


def _parse_limits(text) -> SolveLimits:
    """The limits of ``--limits``, which :class:`SolveLimits` checks."""
    kwargs = {}
    for key, value in _parse_pairs(text).items():
        if key in ("max_jobs", "max_states"):
            kwargs[key] = _integer(key, value)
        elif key == "time_budget":
            try:
                kwargs[key] = float(_fraction(key, value))
            except OverflowError:
                raise UsageError(f"{key}: {value!r} is too large") from None
        else:
            raise UsageError(f"unknown limit {key!r}")
    return SolveLimits(**kwargs)


def _param(params, key):
    """The value of a required parameter; an empty value is missing too."""
    if not params.get(key):
        raise UsageError(f"missing required parameter {key!r}")
    return params[key]


def _int(params, key, default=None):
    if default is not None and key not in params:
        return default
    return _integer(key, _param(params, key))


def _frac(params, key, default):
    return _fraction(key, params[key]) if key in params else Fraction(default)


# ---------------------------------------------------------------------------
# subcommands


# the --params keys each family of ``gen`` reads
GEN_PARAMS = {
    "layered": ("layers", "per_layer", "edge_prob"),
    "random": ("n", "m", "edge_prob", "max_length"),
    "jobshop": ("jobs", "machines", "ops_per_job"),
    "kpartite_yes": ("n", "k"),
    "kpartite_dense": ("n", "k", "density"),
    "fractional": ("instance", "schedule", "gamma", "split_prob"),
}


def cmd_gen(args) -> int:
    params = _parse_pairs(args.params)
    family = args.family
    if family not in GEN_PARAMS:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(GEN_PARAMS)}")
    for key in params:
        if key not in GEN_PARAMS[family]:
            raise UsageError(f"unknown parameter {key!r} for family {family}; "
                             f"it reads {', '.join(GEN_PARAMS[family])}")
    if family == "layered":
        inst = gen_layered_umps(
            _int(params, "layers"), _int(params, "per_layer"),
            _frac(params, "edge_prob", "1/2"), args.seed,
        )
    elif family == "random":
        inst = gen_random_umps(
            _int(params, "n"), _int(params, "m"),
            _frac(params, "edge_prob", "1/2"), args.seed,
            max_length=_int(params, "max_length", 1),
        )
    elif family == "jobshop":
        inst = gen_jobshop(
            _int(params, "jobs"), _int(params, "machines"),
            _int(params, "ops_per_job"), args.seed,
        )
    elif family == "kpartite_yes":
        inst, cert = gen_kpartite_yes(_int(params, "n"), _int(params, "k"), args.seed)
        write_file(args.out, inst)
        write_file(sidecar_path(args.out), cert)
        return 0
    elif family == "kpartite_dense":
        inst = gen_kpartite_dense(
            _int(params, "n"), _int(params, "k"),
            _frac(params, "density", "9/10"), args.seed,
        )
    else:  # fractional
        base = read_file(_param(params, "instance"))
        sched = read_file(_param(params, "schedule"))
        if not isinstance(base, UmpsInstance):
            raise UsageError("fractional generation needs a umps instance")
        if not isinstance(sched, Schedule):
            raise UsageError("fractional generation needs a flat schedule")
        inst = gen_fractional(
            base, sched,
            gamma=_frac(params, "gamma", "0"),
            split_prob=_frac(params, "split_prob", "1/2"),
            seed=args.seed,
        )
    write_file(args.out, inst)
    return 0


def _kappa_only_for_related(args, option: str, value: str) -> None:
    """A ``--kappa-override`` that ``option value`` would not read is a
    usage error, not dropped without a word."""
    if args.kappa_override is not None and value != "related":
        raise UsageError(f"--kappa-override is not read by {option} {value}; "
                         f"only {option} related reads it")


def cmd_reduce(args) -> int:
    _kappa_only_for_related(args, "--reduction", args.reduction)
    inst = read_file(args.in_path)
    if args.reduction == "commdelay":
        if not isinstance(inst, UmpsInstance):
            raise UsageError("commdelay reduction needs a umps instance")
        art = umps_to_commdelay(inst)
        write_file(args.out, art.output)
        write_file(sidecar_path(args.out), art)
    elif args.reduction == "related":
        if not isinstance(inst, UmpsInstance):
            raise UsageError("related reduction needs a umps instance")
        art = umps_to_related(inst, kappa_override=args.kappa_override)
        write_file(args.out, art.output)
        write_file(sidecar_path(args.out), art)
    elif args.reduction == "umps":
        if isinstance(inst, JobShopInstance):
            out, origin = jobshop_to_umps(inst)
            write_file(args.out, out)
            side = {
                "kind": "jobshop_origin",
                "origin": {str(j): list(src) for j, src in origin.items()},
            }
            Path(sidecar_path(args.out)).write_text(dump_canonical(side), encoding="utf-8")
        elif isinstance(inst, KPartiteInstance):
            write_file(args.out, kpartite_to_umps(inst))
        else:
            raise UsageError("umps reduction needs a jobshop or kpartite instance")
    else:
        raise UsageError(f"unknown reduction {args.reduction!r}")
    return 0


def cmd_solve(args) -> int:
    inst = read_file(args.in_path)
    lim = _parse_limits(args.limits)
    greedy = args.solver == "greedy"
    if isinstance(inst, UmpsInstance):
        result = greedy_umps(inst) if greedy else solve_umps_exact(inst, lim)
    elif isinstance(inst, CommDelayInstance):
        result = list_schedule_commdelay(inst) if greedy else solve_commdelay_exact(inst, lim)
    elif isinstance(inst, GroupedRelatedInstance):
        if greedy:
            raise UsageError("no greedy solver for related_grouped; use --solver exact")
        flat, _, _ = materialize_related(inst)
        result = solve_related_exact(flat, lim)
    else:
        raise UsageError(
            "no solver for this instance kind; reduce jobshop/kpartite to umps first"
        )
    if greedy:  # the greedy solvers return a bare schedule: an upper bound, never a proof
        result = SolveResult(makespan(result), result, proven_optimal=False, states_explored=0)
    write_file(args.out, result.schedule, extra={"optimum": frac_str(result.optimum),
                                                 "proven_optimal": result.proven_optimal,
                                                 "solver_states": result.states_explored})
    return 0 if greedy or result.proven_optimal else 3


def cmd_verify(args) -> int:
    inst = read_file(args.instance_path)
    sched = read_file(args.schedule_path)
    if isinstance(inst, UmpsInstance) and isinstance(sched, Schedule):
        report = validate_umps(inst, sched)
    elif isinstance(inst, CommDelayInstance) and isinstance(sched, Schedule):
        report = validate_commdelay(inst, sched)
    elif isinstance(inst, GroupedRelatedInstance) and isinstance(sched, GroupedSchedule):
        report = validate_grouped(inst, sched)
    elif isinstance(inst, GroupedRelatedInstance) and isinstance(sched, Schedule):
        flat, _, _ = materialize_related(inst)
        report = validate_related(flat, sched)
    elif isinstance(inst, KPartiteInstance) and isinstance(sched, Schedule):
        report = validate_umps(kpartite_to_umps(inst), sched)
    else:
        raise UsageError("no validator for this instance/schedule kind pair")
    payload = {
        "feasible": report.feasible,
        "violations": [
            {"kind": v.kind, "witness": repr(v.witness)} for v in report.violations
        ],
    }
    sys.stdout.write(dump_canonical(payload))
    return 0 if report.feasible else 1


def _roundtrip_row(inst, in_path, mode, lim, kappa_override=None):
    """Returns (row, budget_hit, messages) for ``inst``, read from
    ``in_path``.  A sidecar certificate that does not read as one raises
    ``ValueError`` naming it."""
    instance_id = Path(in_path).stem
    budget_hit = False
    messages = []

    if mode == "commdelay":
        if not isinstance(inst, UmpsInstance):
            raise UsageError("commdelay roundtrip needs a umps instance")
        art = umps_to_commdelay(inst)
        src = solve_umps_exact(inst, lim)
        tgt = solve_commdelay_exact(art.output, lim)
        budget_hit = not (src.proven_optimal and tgt.proven_optimal)
        fwd = forward_map_commdelay(art, src.schedule)  # raises if infeasible
        if makespan(fwd) != src.optimum + 1:
            messages.append(f"{instance_id}: forward image is not L+1")
        back = backward_map_commdelay(art, tgt.schedule)
        if makespan(back) > tgt.optimum:
            messages.append(f"{instance_id}: backward image exceeds target optimum")
        if src.proven_optimal and tgt.proven_optimal:
            # the gadget's exact +1: the last source job to end is followed
            # by its machine's anchor, and the forward image reaches L + 1
            sandwich = tgt.optimum == src.optimum + 1
        else:
            # unproven optima are only upper bounds: the sandwich is falsified
            # solely by a feasible target schedule beating the proven source floor
            sandwich = not (src.proven_optimal and tgt.optimum < src.optimum)
        holds = sandwich and not messages
        return GapRow(instance_id, inst.n, inst.m, src.optimum, tgt.optimum,
                      "sandwich_plus_one", holds,
                      src.states_explored + tgt.states_explored), budget_hit, messages

    if mode == "related":
        if not isinstance(inst, UmpsInstance):
            raise UsageError("related roundtrip needs a umps instance")
        art = umps_to_related(inst, kappa_override=kappa_override)
        src = solve_umps_exact(inst, lim)
        budget_hit = not src.proven_optimal
        gs = forward_map_related(art, src.schedule)
        fs = strip_misplaced(art, gs)
        extracted = extract_integral(canonicalize(fs))
        target = makespan(extracted)
        holds = target <= 2 * src.optimum
        return GapRow(instance_id, inst.n, inst.m, src.optimum, target,
                      "rounding_2L", holds, src.states_explored), budget_hit, messages

    if mode == "kpartite":
        if not isinstance(inst, KPartiteInstance):
            raise UsageError("kpartite roundtrip needs a kpartite instance")
        side = Path(sidecar_path(in_path))
        if side.exists():
            cert = read_file(side)
            if not isinstance(cert, KPartiteYesCertificate):
                raise ValueError(f"{side}: not a kpartite_certificate")
            validate_certificate(inst, cert)
            sched = kpartite_yes_schedule(inst, cert)
            reduced = kpartite_to_umps(inst)
            report = validate_umps(reduced, sched)
            if not report.feasible:
                messages.append(f"{instance_id}: staircase schedule infeasible")
            source = makespan(sched)
            target = Fraction(3 * inst.n)
            holds = source <= target and not messages
            return GapRow(instance_id, inst.n, inst.k, source, target,
                          "yes_3n", holds, 0), budget_hit, messages
        if not verify_no_property(inst):
            raise SchedReduceError(
                f"{instance_id}: instance is not dense; no soundness floor to assert"
            )
        reduced = kpartite_to_umps(inst)
        src = solve_umps_exact(reduced, replace(lim, max_jobs=max(lim.max_jobs, reduced.n)))
        budget_hit = not src.proven_optimal
        target = (1 - 2 * inst.delta) * inst.k * inst.n
        holds = src.optimum >= target
        return GapRow(instance_id, inst.n, inst.k, src.optimum, target,
                      "no_floor", holds, src.states_explored), budget_hit, messages

    raise UsageError(f"unknown roundtrip mode {mode!r}")


def _write_rows(rows, out):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GAP_COLUMNS)
    for row in rows:
        writer.writerow([
            row.instance_id, row.n, row.m,
            frac_str(row.opt_source), frac_str(row.opt_target),
            row.bound_kind, "true" if row.bound_holds else "false", row.solver_states,
        ])
    text = buf.getvalue()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_roundtrip(args) -> int:
    _kappa_only_for_related(args, "--mode", args.mode)
    lim = _parse_limits(args.limits)
    row, budget_hit, messages = _roundtrip_row(
        read_file(args.in_path), args.in_path, args.mode, lim, args.kappa_override
    )
    _write_rows([row], args.out)
    for msg in messages:
        print(msg, file=sys.stderr)
    if budget_hit:
        print(f"{Path(args.in_path).stem}: solver budget exceeded; "
              "optima are upper bounds only", file=sys.stderr)
    if not row.bound_holds:
        return 1
    return 3 if budget_hit else 0


def cmd_bench(args) -> int:
    lim = _parse_limits(args.limits)
    corpus = Path(args.corpus_dir)
    if not corpus.is_dir():
        raise UsageError(f"{args.corpus_dir} is not a directory")
    rows = []
    any_budget = any_failed = False
    all_messages = []
    for path in sorted(corpus.glob("*.json")):
        if path.name.endswith(".sidecar.json"):
            continue
        try:
            inst = read_file(path)
        except Exception as exc:  # an unreadable corpus member fails: report, keep going
            print(f"{path.name}: failed ({exc})", file=sys.stderr)
            any_failed = True
            continue
        if isinstance(inst, UmpsInstance):
            kind = "commdelay"
        elif isinstance(inst, KPartiteInstance):
            kind = "kpartite"
        else:
            print(f"{path.name}: no roundtrip mode for this kind, skipped", file=sys.stderr)
            continue
        t0 = time.monotonic()
        try:
            row, budget_hit, messages = _roundtrip_row(inst, str(path), kind, lim)
        except _BUDGET_ERRORS as exc:
            print(f"{path.name}: budget exceeded ({exc})", file=sys.stderr)
            any_budget = True
            continue
        except (SchedReduceError, ValueError, OSError) as exc:
            # one bad corpus member or sidecar certificate: report, keep going
            print(f"{path.name}: failed ({exc})", file=sys.stderr)
            any_failed = True
            continue
        elapsed_ms = (time.monotonic() - t0) * 1000
        print(f"{path.stem}: {elapsed_ms:.1f} ms", file=sys.stderr)
        if budget_hit:
            print(f"{path.stem}: solver budget exceeded; optima are upper "
                  "bounds only", file=sys.stderr)
        rows.append(row)
        any_budget = any_budget or budget_hit
        all_messages.extend(messages)
    rows.sort(key=lambda r: r.instance_id)
    _write_rows(rows, args.out)
    for msg in all_messages:
        print(msg, file=sys.stderr)
    held = sum(1 for r in rows if r.bound_holds)
    print(f"rows={len(rows)} bound_holds={held}/{len(rows)}")
    if any_failed or held < len(rows):
        return 1
    return 3 if any_budget else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sched-reduce",
        description="Generate, reduce, solve, and certify scheduling instances.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance file")
    g.add_argument("family")
    g.add_argument("--params", action="append", default=[],
                   help="key=value[,key=value...] (repeatable); each key once, "
                        "and only the keys the family reads")
    g.add_argument("--seed", type=partial(_integer, "--seed"), default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("reduce", help="apply a reduction, write output + sidecar")
    r.add_argument("in_path")
    r.add_argument("--reduction", required=True, choices=["commdelay", "related", "umps"])
    r.add_argument("--kappa-override", type=partial(_integer, "--kappa-override"),
                   default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("solve", help="solve an instance, write schedule + optimum")
    s.add_argument("in_path")
    s.add_argument("--solver", default="exact", choices=["exact", "greedy"])
    s.add_argument("--limits", default="", help=LIMITS_HELP)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="validate a schedule against an instance")
    v.add_argument("instance_path")
    v.add_argument("schedule_path")
    v.set_defaults(func=cmd_verify)

    rt = sub.add_parser("roundtrip", help="reduce, solve both sides, emit a gap row")
    rt.add_argument("in_path")
    rt.add_argument("--mode", required=True, choices=["commdelay", "related", "kpartite"])
    rt.add_argument("--kappa-override", type=partial(_integer, "--kappa-override"),
                    default=None)
    rt.add_argument("--limits", default="", help=LIMITS_HELP)
    rt.add_argument("--out", default=None)
    rt.set_defaults(func=cmd_roundtrip)

    b = sub.add_parser("bench", help="roundtrip a corpus directory into a CSV table")
    b.add_argument("corpus_dir")
    b.add_argument("--limits", default="", help=LIMITS_HELP)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # an option's type raises UsageError, which argparse passes on
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _BUDGET_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SchedReduceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
