"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a verification check failed,
2 a computation ended undecided (resource limits), 3 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .lottery import RankLottery, convex_combination, parse_lottery, uniform
from .duality import dual
from .compose import canonical_word, enumerate_canonical, parse_word, word_simplex
from .feasibility import FeasibilityReport, is_feasible
from .maximality import MaximalityReport, is_maximal
from .protocols import parse_protocol, verify_safe_strategy, worst_case_guarantee
from .suites import SUITES, run_suite

SCHEMA_VERSION = 1

PASS = 0
FAIL = 1
UNDECIDED_EXIT = 2
USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit with their own code
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _lottery_arg(text: str) -> RankLottery:
    """Parse a lottery argument, reporting the exact offset of a bad entry."""
    offset = 0
    values = []
    for part in text.split(","):
        stripped = part.strip()
        try:
            values.append(Fraction(stripped))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"bad rational {stripped!r} at position {offset + part.index(stripped) if stripped else offset}"
            )
        offset += len(part) + 1
    try:
        return RankLottery(tuple(values))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fractions(values) -> list[str]:
    return [str(v) for v in values]


def _feasibility_json(rep: FeasibilityReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "verdict": rep.verdict,
        "n": rep.n,
        "p": rep.p,
        "witness_profile": rep.witness_profile.text() if rep.witness_profile else None,
        "witness_certificate": _fractions(rep.witness_certificate)
        if rep.witness_certificate
        else None,
        "profiles_checked": rep.profiles_checked,
        "cuts": list(rep.cuts_used),
        "method": rep.method,
        "mixture": [[str(w), lam.text()] for w, lam in rep.mixture] or None,
        "runtime_ms": rep.runtime_ms,
    }


def _maximality_json(rep: MaximalityReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "verdict": rep.verdict,
        "n": rep.n,
        "p": rep.p,
        "improver": rep.improver.text() if rep.improver else None,
        "witnesses": {str(k): prof.text() for k, prof in (rep.witnesses or {}).items()} or None,
        "iterations": rep.iterations,
        "profiles_in_working_set": rep.profiles_in_working_set,
        "runtime_ms": rep.runtime_ms,
    }


def _trace_json(trace) -> list:
    out = []
    for stage_reports in trace:
        stage = []
        for rep in stage_reports:
            if rep is None:
                stage.append(None)
            elif isinstance(rep, frozenset):
                stage.append(sorted(rep))
            else:
                stage.append(rep)
        out.append(stage)
    return out


def _emit(payload: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cache_lookup(cache_dir: Optional[str], key: str) -> Optional[dict]:
    if not cache_dir:
        return None
    path = Path(cache_dir) / f"{key}.json"
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("schema") != SCHEMA_VERSION:
        return None
    return payload


def _cache_store(cache_dir: Optional[str], key: str, payload: dict) -> None:
    if not cache_dir:
        return
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{key}.json").write_text(json.dumps(payload, sort_keys=True))


def _cache_key(kind: str, n: int, lam: RankLottery) -> str:
    digest = hashlib.sha256(f"{kind}:{n}:{lam.text()}".encode()).hexdigest()
    return f"{kind}-{digest[:24]}"


def _default_jobs() -> int:
    env = os.environ.get("WORSTVOTE_JOBS")
    if env and env.isdigit():
        return max(1, int(env))
    return max(1, min(8, os.cpu_count() or 1))


def _default_limit() -> Optional[int]:
    env = os.environ.get("WORSTVOTE_LIMIT_PROFILES")
    if env and env.isdigit():
        return int(env)
    return None


def _time_budget() -> Optional[float]:
    env = os.environ.get("WORSTVOTE_TIME_BUDGET")
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS, help="parallel workers"
    )
    common.add_argument(
        "--cache", default=argparse.SUPPRESS, help="verdict cache directory"
    )
    common.add_argument(
        "--limit-profiles",
        type=int,
        default=argparse.SUPPRESS,
        help="stop enumerating after this many profiles (verdict becomes undecided)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized components"
    )
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit JSON on stdout"
    )

    parser = _Parser(prog="worstvote", description=__doc__, parents=[common])
    parser.set_defaults(
        jobs=_default_jobs(),
        cache=os.environ.get("WORSTVOTE_CACHE"),
        limit_profiles=_default_limit(),
        seed=0,
        json=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("feasible", parents=[common], help="decide whether a guarantee is achievable")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lottery", type=_lottery_arg, required=True)

    sp = sub.add_parser("maximal", parents=[common], help="decide whether a guarantee is unimprovable")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lottery", type=_lottery_arg, required=True)
    sp.add_argument("--witnesses", action="store_true", help="attach per-rank forcing profiles")

    sp = sub.add_parser("dual", parents=[common], help="apply the duality map")
    sp.add_argument("--lottery", type=_lottery_arg, required=True)

    sp = sub.add_parser("compose", parents=[common], help="evaluate a composition word")
    sp.add_argument("--word", required=True, help="e.g. RD,VT")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("canonical", parents=[common], help="list all canonical guarantees at (n, p)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("simplex", parents=[common], help="vertices of the guarantee simplex of a full word")
    sp.add_argument("--word", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("protocol-eval", parents=[common], help="worst-case evaluation of a protocol")
    sp.add_argument("--spec", required=True, help='e.g. "veto(1); uniform"')
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--claim", type=_lottery_arg, default=None, help="verify a claimed guarantee")

    sp = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    sp.add_argument("--suite", required=True, help=f"one of: all, {', '.join(sorted(SUITES))}")

    sp = sub.add_parser(
        "search-combinations",
        parents=[common],
        help="probe random mixtures of canonical guarantees for unexpected maximality",
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--samples", type=int, default=20)

    args = parser.parse_args(argv)
    jobs = max(1, args.jobs)

    if args.command == "feasible":
        key = _cache_key("feasible", args.n, args.lottery)
        cached = _cache_lookup(args.cache, key)
        if cached is not None:
            _emit(cached, args.json, [f"verdict: {cached['verdict']} (cached)"])
            return UNDECIDED_EXIT if cached["verdict"] == "undecided" else PASS
        rep = is_feasible(
            args.lottery,
            args.n,
            jobs=jobs,
            limit_profiles=args.limit_profiles,
            time_budget=_time_budget(),
        )
        payload = _feasibility_json(rep)
        if rep.verdict != "undecided":
            _cache_store(args.cache, key, payload)
        lines = [f"verdict: {rep.verdict}", f"method: {rep.method}"]
        if rep.witness_profile is not None:
            lines.append(f"witness profile: {rep.witness_profile.text()}")
        lines.append(f"profiles checked: {rep.profiles_checked}")
        _emit(payload, args.json, lines)
        return UNDECIDED_EXIT if rep.verdict == "undecided" else PASS

    if args.command == "maximal":
        key = _cache_key("maximal", args.n, args.lottery)
        cached = _cache_lookup(args.cache, key)
        if cached is not None:
            _emit(cached, args.json, [f"verdict: {cached['verdict']} (cached)"])
            return UNDECIDED_EXIT if cached["verdict"] == "undecided" else PASS
        try:
            rep = is_maximal(
                args.lottery,
                args.n,
                jobs=jobs,
                witnesses=args.witnesses,
                limit_profiles=args.limit_profiles,
                time_budget=_time_budget(),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        payload = _maximality_json(rep)
        if rep.verdict != "undecided":
            _cache_store(args.cache, key, payload)
        lines = [f"verdict: {rep.verdict}"]
        if rep.improver is not None:
            lines.append(f"improver: {rep.improver.text()}")
        if rep.witnesses:
            for k, prof in sorted(rep.witnesses.items()):
                lines.append(f"forcing profile for rank {k}: {prof.text()}")
        _emit(payload, args.json, lines)
        return UNDECIDED_EXIT if rep.verdict == "undecided" else PASS

    if args.command == "dual":
        image = dual(args.lottery)
        _emit(
            {"schema": SCHEMA_VERSION, "dual": image.text()},
            args.json,
            [image.text()],
        )
        return PASS

    if args.command == "compose":
        try:
            lam = canonical_word(args.word, args.n, args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        _emit({"schema": SCHEMA_VERSION, "lottery": lam.text()}, args.json, [lam.text()])
        return PASS

    if args.command == "canonical":
        try:
            entries = enumerate_canonical(args.n, args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        payload = {
            "schema": SCHEMA_VERSION,
            "count": len(entries),
            "guarantees": [[",".join(word), lam.text()] for word, lam in entries],
        }
        lines = [f"{','.join(word)}: {lam.text()}" for word, lam in entries]
        lines.append(f"count: {len(entries)}")
        _emit(payload, args.json, lines)
        return PASS

    if args.command == "simplex":
        try:
            vertices = word_simplex(parse_word(args.word), args.n, args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        payload = {
            "schema": SCHEMA_VERSION,
            "vertices": [v.text() for v in vertices],
        }
        _emit(payload, args.json, [v.text() for v in vertices])
        return PASS

    if args.command == "protocol-eval":
        try:
            spec = parse_protocol(args.spec, args.n, args.p)
            report = worst_case_guarantee(spec, args.n, args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        claim_ok = None
        if args.claim is not None:
            claim_ok = verify_safe_strategy(spec, args.claim, args.n, args.p)
        payload = {
            "schema": SCHEMA_VERSION,
            "protocol": spec.text(),
            "achieved": report.achieved.text(),
            "scenario_count": report.scenario_count,
            "worst_scenarios": {
                str(k): _trace_json(trace) for k, trace in sorted(report.worst_scenarios.items())
            },
            "claim_secured": claim_ok,
            "runtime_ms": report.runtime_ms,
        }
        lines = [
            f"protocol: {spec.text()}",
            f"achieved guarantee: {report.achieved.text()}",
            f"scenarios: {report.scenario_count}",
        ]
        if claim_ok is not None:
            lines.append(f"claim secured: {claim_ok}")
        _emit(payload, args.json, lines)
        if claim_ok is False:
            return FAIL
        return PASS

    if args.command == "verify":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        all_passed = True
        results = []
        for name in names:
            try:
                result = run_suite(name, jobs=jobs, seed=args.seed)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return USAGE
            results.append(result)
            for check in result.checks:
                status = "PASS" if check.passed else "FAIL"
                line = f"[{status}] {result.suite}: {check.description}"
                if not check.passed:
                    line += f" (expected {check.expected}, got {check.computed})"
                if not args.json:
                    print(line)
            if not args.json:
                print(
                    f"suite {result.suite}: "
                    f"{'PASS' if result.passed else 'FAIL'} "
                    f"({len(result.checks)} checks, {result.runtime_ms} ms)"
                )
            all_passed = all_passed and result.passed
        if args.json:
            print(
                json.dumps(
                    {
                        "schema": SCHEMA_VERSION,
                        "suites": [
                            {
                                "suite": r.suite,
                                "passed": r.passed,
                                "runtime_ms": r.runtime_ms,
                                "checks": [
                                    {
                                        "description": ch.description,
                                        "expected": ch.expected,
                                        "computed": ch.computed,
                                        "passed": ch.passed,
                                    }
                                    for ch in r.checks
                                ],
                            }
                            for r in results
                        ],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        return PASS if all_passed else FAIL

    if args.command == "search-combinations":
        rng = random.Random(args.seed)
        try:
            entries = enumerate_canonical(args.n, args.p)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        findings = []
        undecided = 0
        for _ in range(args.samples):
            count = rng.randint(2, min(3, len(entries)))
            chosen = rng.sample(range(len(entries)), count)
            weights = [rng.randint(1, 5) for _ in chosen]
            total = sum(weights) + rng.randint(0, 3)
            terms = [
                (Fraction(w, total), entries[i][1]) for w, i in zip(weights, chosen)
            ]
            leftover = 1 - sum(w for w, _ in terms)
            if leftover > 0:
                terms.append((leftover, uniform(args.p)))
            lam = convex_combination(terms)
            rep = is_maximal(lam, args.n, jobs=jobs, limit_profiles=args.limit_profiles)
            if rep.verdict == "undecided":
                undecided += 1
            findings.append(
                {
                    "mixture": [[str(w), l.text()] for w, l in terms],
                    "lottery": lam.text(),
                    "verdict": rep.verdict,
                }
            )
        payload = {"schema": SCHEMA_VERSION, "samples": findings}
        lines = [f"{f['lottery']}: {f['verdict']}" for f in findings]
        maximal_found = sum(1 for f in findings if f["verdict"] == "maximal")
        lines.append(f"maximal mixtures found: {maximal_found} of {len(findings)}")
        _emit(payload, args.json, lines)
        return UNDECIDED_EXIT if undecided else PASS

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
