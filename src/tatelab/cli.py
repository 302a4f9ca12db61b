"""Command-line front end: validate, analyze, selftest.

Exit codes: 0 all selected checks pass, 1 a mathematical check failed,
2 operational failure (unreadable file, schema error, bad arguments,
bad TATELAB_WORKERS).
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (CHECKS, WINDOW, resolve_check_ids, run_analysis,
                       select_checks)
from .cft import UnsatisfiableParams, synth_instance
from .groups import GROUP_CATALOG
from .instance_io import (FixtureSchemaError, InstanceSchemaError,
                          instance_digest, load_fixture, load_instance)
from .reporting import Report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

SELFTEST_GROUPS = ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="tatelab",
        description="verification workbench for Tate cohomology and the "
                    "connecting maps of class-field instances")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate an instance file")
    v.add_argument("path")
    v.add_argument("--out", help="write the validation report here")
    v.add_argument("--format", choices=["json", "text"], default="json")

    a = sub.add_parser("analyze", help="run checks against an instance file")
    a.add_argument("path")
    a.add_argument("--checks", help="comma-separated check ids or groups "
                                    f"(known: {', '.join(sorted(CHECKS))})")
    a.add_argument("--fixture", help="unit fixture file for fixture checks")
    a.add_argument("--out", help="write the report here")
    a.add_argument("--format", choices=["json", "text"], default="json")
    a.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")

    s = sub.add_parser("selftest", help="randomized campaign over "
                                        "synthesized instances")
    s.add_argument("--groups", default=",".join(SELFTEST_GROUPS),
                   help="comma-separated group names")
    s.add_argument("--seeds", type=int, default=3,
                   help="number of seeds per group")
    s.add_argument("--checks", help="comma-separated check ids or groups")
    s.add_argument("--out", help="write the aggregate report here")
    s.add_argument("--format", choices=["json", "text"], default="json")
    s.add_argument("--timings", action="store_true")
    return p


def cmd_validate(args):
    try:
        inst = load_instance(args.path)
    except InstanceSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = Report("validate", instance_digest(inst),
                    run_analysis(inst, checks=["instance.valid"]),
                    meta={"path": os.path.basename(args.path)})
    _emit(report, args, timings=False)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def cmd_analyze(args):
    try:
        inst = load_instance(args.path)
        fixture = None
        if args.fixture:
            fixture = load_fixture(args.fixture, inst.group)
        checks = args.checks.split(",") if args.checks else None
        select_checks(checks, fixture)  # unknown names raise
    except (InstanceSchemaError, FixtureSchemaError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    records = run_analysis(inst, checks=checks, fixture=fixture)
    report = Report("analyze", instance_digest(inst), records,
                    meta={"path": os.path.basename(args.path),
                          "window": list(WINDOW)})
    _emit(report, args, timings=args.timings)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _selftest_one(group, seed, checks):
    try:
        inst = synth_instance(group, seed)
    except UnsatisfiableParams as exc:
        return [{"id": "synth", "anchor": "instance synthesis", "ok": False,
                 "witness": str(exc), "wall_ms": 0,
                 "subject": f"{group}/{seed}"}]
    records = run_analysis(inst, checks=checks, seed=seed)
    for r in records:
        r["subject"] = f"{group}/{seed}"
    return records


def cmd_selftest(args):
    if args.seeds < 1:
        print(f"error: --seeds must be at least 1, got {args.seeds}",
              file=sys.stderr)
        return EXIT_ERROR
    workers_text = os.environ.get("TATELAB_WORKERS", "1")
    try:
        workers = int(workers_text)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"error: TATELAB_WORKERS must be an integer >= 1, got "
              f"{workers_text!r}", file=sys.stderr)
        return EXIT_ERROR
    groups = [g for g in args.groups.split(",") if g]
    if not groups:
        print(f"error: --groups {args.groups!r} names no group, so the "
              "campaign would check nothing", file=sys.stderr)
        return EXIT_ERROR
    for g in groups:
        if g not in GROUP_CATALOG:
            print(f"error: unknown group {g!r}", file=sys.stderr)
            return EXIT_ERROR
    checks = args.checks.split(",") if args.checks else None
    if checks:
        try:
            resolve_check_ids(checks)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    jobs = [(g, seed) for g in groups for seed in range(args.seeds)]
    records = []
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for recs in pool.map(_selftest_star, [(g, s, checks)
                                                  for (g, s) in jobs]):
                records.extend(recs)
    else:
        for g, seed in jobs:
            records.extend(_selftest_one(g, seed, checks))
    totals = {}
    failures = []
    for r in records:
        key = r["id"]
        t = totals.setdefault(key, {"pass": 0, "fail": 0})
        t["pass" if r["ok"] else "fail"] += 1
        if not r["ok"]:
            failures.append(r["subject"])
    meta = {"groups": groups, "seeds": args.seeds, "totals": totals}
    if failures:
        meta["first_failing"] = sorted(failures)[0]
    report = Report("selftest", f"groups={','.join(groups)} "
                                f"seeds={args.seeds}", records, meta=meta)
    _emit(report, args, timings=args.timings)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _selftest_star(job):
    return _selftest_one(*job)


def _emit(report, args, timings=False):
    text = report.to_json(timings=timings) if args.format == "json" \
        else report.to_text(timings=timings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "selftest":
        return cmd_selftest(args)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
