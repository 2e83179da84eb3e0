"""Command-line front end.

Under ``--json`` a command prints its report field by field (`_json`), so a
field added to a report type reaches the JSON with no change here.

Exit codes: 0 success / all checks passed, 1 a verification check failed,
2 a computation ended undecided (resource limits), 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .lottery import RankLottery, convex_combination, dominates, dual, parse_lottery, uniform
from .compose import canonical_word, enumerate_canonical, parse_word, word_simplex
from .feasibility import is_feasible
from .maximality import is_maximal
from .profiles import Profile
from .protocols import parse_protocol, worst_case_guarantee
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
    try:
        return parse_lottery(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _json(value):
    """`value` as JSON data: a report dataclass as a dict of its fields, a
    lottery or profile as its text, a Fraction as its str, a frozenset as a
    sorted list, a tuple or list as a list, and dict keys as strs."""
    # A lottery and a profile are dataclasses too, so they are tested first.
    if isinstance(value, (RankLottery, Profile)):
        return value.text()
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        return {field.name: _json(getattr(value, field.name)) for field in fields(value)}
    if isinstance(value, dict):
        return {str(key): _json(item) for key, item in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_json(item) for item in value]
    return value


def _emit(payload: dict, as_json: bool, lines: Iterable[str]) -> None:
    # `lines` may be lazy (verify runs each suite as its lines are drawn), so
    # it is drawn in full before the payload is printed.
    for line in lines:
        if not as_json:
            print(line)
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cache_lookup(cache_dir: str, key: str, text: Callable[[dict], list[str]]) -> Optional[tuple[dict, list[str]]]:
    """The payload stored under `key` and its lines by `text`, or None when
    the entry is missing or unreadable, is not a JSON object of this
    schema, or lacks a field that `text` reads."""
    try:
        payload = json.loads((Path(cache_dir) / f"{key}.json").read_text())
        if payload.get("schema") == SCHEMA_VERSION:
            return payload, text(payload)
    except (OSError, ValueError, AttributeError, KeyError, TypeError):
        pass  # a malformed entry is a miss, recomputed and rewritten
    return None


def _cache_store(cache_dir: str, key: str, payload: dict) -> None:
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{key}.json").write_text(json.dumps(payload, sort_keys=True))


def _count(text: str) -> int:
    if not text.isdecimal():
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _count_arg(text: str) -> int:
    try:
        return _count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _env(name: str, parse: Callable[[str], object]):
    """Environment variable `name` read by `parse`, None when unset or empty;
    a value `parse` rejects raises ValueError naming the variable."""
    env = os.environ.get(name)
    if not env:
        return None
    try:
        return parse(env)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _default_jobs() -> int:
    jobs = _env("WORSTVOTE_JOBS", _count)
    return min(8, os.cpu_count() or 1) if jobs is None else jobs


def _seconds(text: str) -> float:
    seconds = float(text)
    if not seconds >= 0:  # NaN too
        raise ValueError(f"expected a non-negative number of seconds, got {text!r}")
    return seconds


def _time_budget() -> Optional[float]:
    return _env("WORSTVOTE_TIME_BUDGET", _seconds)


# ----------------------------------------------------------------------------
# Command handlers: each returns (JSON payload, text lines).
# ----------------------------------------------------------------------------

Output = tuple[dict, Iterable[str]]


def _feasible(args) -> Output:
    rep = is_feasible(
        args.lottery,
        args.n,
        jobs=args.jobs,
        limit_profiles=args.limit_profiles,
        time_budget=_time_budget(),
    )
    payload = _json(rep)
    return payload, _feasible_text(payload)


def _feasible_text(payload: dict) -> list[str]:
    lines = [f"verdict: {payload['verdict']}", f"method: {payload['method']}"]
    if payload["witness_profile"] is not None:
        lines.append(f"witness profile: {payload['witness_profile']}")
    if payload["mixture"] is not None:
        lines.append("mixture: " + " + ".join(f"{w} * ({lam})" for w, lam in payload["mixture"]))
    lines.append(f"profiles checked: {payload['profiles_checked']}")
    return lines


def _maximal(args) -> Output:
    rep = is_maximal(
        args.lottery,
        args.n,
        jobs=args.jobs,
        witnesses=args.witnesses,
        limit_profiles=args.limit_profiles,
        time_budget=_time_budget(),
    )
    payload = _json(rep)
    return payload, _maximal_text(payload)


def _maximal_text(payload: dict) -> list[str]:
    lines = [f"verdict: {payload['verdict']}"]
    if payload["improver"] is not None:
        lines.append(f"improver: {payload['improver']}")
    for k, prof in sorted((payload["witnesses"] or {}).items(), key=lambda item: int(item[0])):
        lines.append(f"forcing profile for rank {k}: {prof}")
    return lines


def _dual(args) -> Output:
    image = dual(args.lottery).text()
    return {"dual": image}, [image]


def _compose(args) -> Output:
    lam = canonical_word(args.word, args.n, args.p).text()
    return {"lottery": lam}, [lam]


def _canonical(args) -> Output:
    entries = enumerate_canonical(args.n, args.p)
    payload = {
        "count": len(entries),
        "guarantees": [[",".join(word), lam.text()] for word, lam in entries],
    }
    lines = [f"{','.join(word)}: {lam.text()}" for word, lam in entries]
    lines.append(f"count: {len(entries)}")
    return payload, lines


def _simplex(args) -> Output:
    vertices = [v.text() for v in word_simplex(parse_word(args.word), args.n, args.p)]
    return {"vertices": vertices}, vertices


def _protocol_eval(args) -> Output:
    spec = parse_protocol(args.spec, args.n, args.p)
    # Evaluated first, so that a protocol that cannot be played is a usage error.
    report = worst_case_guarantee(spec, args.n, args.p)
    claim_ok = None
    if args.claim is not None:
        claim_ok = dominates(report.achieved, args.claim)
    payload = {"protocol": spec.text(), **_json(report), "claim_secured": claim_ok}
    lines = [
        f"protocol: {spec.text()}",
        f"achieved guarantee: {report.achieved.text()}",
        f"scenarios: {report.scenario_count}",
    ]
    if claim_ok is not None:
        lines.append(f"claim secured: {claim_ok}")
    return payload, lines


def _verify(args) -> Output:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    suites: list[dict] = []

    def lines():
        for name in names:
            result = run_suite(name, jobs=args.jobs, seed=args.seed)
            suites.append(_json(result))
            for check in result.checks:
                status = "PASS" if check.passed else "FAIL"
                line = f"[{status}] {result.suite}: {check.description}"
                if not check.passed:
                    line += f" (expected {check.expected}, got {check.computed})"
                yield line
            yield (
                f"suite {result.suite}: "
                f"{'PASS' if result.passed else 'FAIL'} "
                f"({len(result.checks)} checks, {result.runtime_ms} ms)"
            )

    return {"suites": suites}, lines()


def _search_combinations(args) -> Output:
    rng = random.Random(args.seed)
    entries = enumerate_canonical(args.n, args.p)
    budget = _time_budget()  # one deadline for the whole command
    deadline = None if budget is None else time.monotonic() + budget
    findings = []
    for _ in range(args.samples):
        count = rng.randint(2, min(3, len(entries)))
        chosen = rng.sample(range(len(entries)), count)
        weights = [rng.randint(1, 5) for _ in chosen]
        total = sum(weights) + rng.randint(0, 3)
        terms = [(Fraction(w, total), entries[i][1]) for w, i in zip(weights, chosen)]
        leftover = 1 - sum(w for w, _ in terms)
        if leftover > 0:
            terms.append((leftover, uniform(args.p)))
        lam = convex_combination(terms)
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        rep = is_maximal(lam, args.n, jobs=args.jobs, limit_profiles=args.limit_profiles, time_budget=left)
        findings.append({"mixture": _json(terms), "lottery": lam.text(), "verdict": rep.verdict})
    lines = [f"{f['lottery']}: {f['verdict']}" for f in findings]
    maximal_found = sum(1 for f in findings if f["verdict"] == "maximal")
    lines.append(f"maximal mixtures found: {maximal_found} of {len(findings)}")
    return {"samples": findings}, lines


def _exit_code(payload: dict) -> int:
    verdicts = [payload.get("verdict")] + [s["verdict"] for s in payload.get("samples", ())]
    if "undecided" in verdicts:
        return UNDECIDED_EXIT
    if payload.get("claim_secured") is False:
        return FAIL
    if not all(s["passed"] for s in payload.get("suites", ())):
        return FAIL
    return PASS


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    arguments: tuple[tuple[str, dict], ...]
    handler: Callable[[argparse.Namespace], Output]
    # Set for a command whose verdict is stored under --cache, keyed by
    # `arguments`: the text lines of a stored payload, as `handler` prints them.
    text: Optional[Callable[[dict], list[str]]] = None


_N = ("--n", {"type": int, "required": True})
_P = ("--p", {"type": int, "required": True})
_LOTTERY = ("--lottery", {"type": _lottery_arg, "required": True})

COMMANDS = (
    _Command(
        "feasible",
        "decide whether a guarantee is achievable",
        (_N, _LOTTERY),
        _feasible,
        text=_feasible_text,
    ),
    _Command(
        "maximal",
        "decide whether a guarantee is unimprovable",
        (
            _N,
            _LOTTERY,
            ("--witnesses", {"action": "store_true", "help": "attach per-rank forcing profiles"}),
        ),
        _maximal,
        text=_maximal_text,
    ),
    _Command("dual", "apply the duality map", (_LOTTERY,), _dual),
    _Command(
        "compose",
        "evaluate a composition word",
        (("--word", {"required": True, "help": "e.g. RD,VT"}), _N, _P),
        _compose,
    ),
    _Command("canonical", "list all canonical guarantees at (n, p)", (_N, _P), _canonical),
    _Command(
        "simplex",
        "vertices of the guarantee simplex of a full word",
        (("--word", {"required": True}), _N, _P),
        _simplex,
    ),
    _Command(
        "protocol-eval",
        "worst-case evaluation of a protocol",
        (
            ("--spec", {"required": True, "help": 'e.g. "veto(1); uniform"'}),
            _N,
            _P,
            ("--claim", {"type": _lottery_arg, "help": "verify a claimed guarantee"}),
        ),
        _protocol_eval,
    ),
    _Command(
        "verify",
        "run a named verification suite",
        (("--suite", {"required": True, "help": f"one of: all, {', '.join(sorted(SUITES))}"}),),
        _verify,
    ),
    _Command(
        "search-combinations",
        "probe random mixtures of canonical guarantees for unexpected maximality",
        (_N, _P, ("--samples", {"type": _count_arg, "default": 20})),
        _search_combinations,
    ),
)


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's sources: a report is served only to the code
    that computed it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(f"{path.name}:{path.stat().st_size}:".encode() + path.read_bytes())
    return digest.hexdigest()


def _cache_key(command: _Command, args: argparse.Namespace) -> str:
    dests = [flag.lstrip("-").replace("-", "_") for flag, _ in command.arguments]
    values = [str(getattr(args, dest)) for dest in dests]
    digest = hashlib.sha256(":".join([command.name, _source_digest(), *values]).encode()).hexdigest()
    return f"{command.name}-{digest[:24]}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--jobs", type=_count_arg, default=argparse.SUPPRESS, help="parallel workers"
    )
    common.add_argument(
        "--cache", default=argparse.SUPPRESS, help="verdict cache directory"
    )
    common.add_argument(
        "--limit-profiles",
        type=_count_arg,
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
    # The jobs and limit defaults read the environment inside `try`
    # below, so a malformed value is a usage error.
    parser.set_defaults(
        jobs=None,
        cache=os.environ.get("WORSTVOTE_CACHE"),
        limit_profiles=None,
        seed=0,
        json=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command.name, parents=[common], help=command.help)
        for flag, spec in command.arguments:
            sp.add_argument(flag, **spec)
        sp.set_defaults(entry=command)

    args = parser.parse_args(argv)
    command: _Command = args.entry

    started = time.perf_counter()
    key = _cache_key(command, args) if command.text and args.cache else None
    cached = _cache_lookup(args.cache, key, command.text) if key else None
    try:
        args.jobs = max(1, _default_jobs() if args.jobs is None else args.jobs)
        if args.limit_profiles is None:
            args.limit_profiles = _env("WORSTVOTE_LIMIT_PROFILES", _count)
        if cached is not None:
            # A hit states what serving it cost, not what computing it did.
            payload = {**cached[0], "runtime_ms": int((time.perf_counter() - started) * 1000)}
            first, *rest = cached[1]
            lines = [f"{first} (cached)", *rest]
        else:
            payload, lines = command.handler(args)
            payload["schema"] = SCHEMA_VERSION
            if key and payload["verdict"] != "undecided":
                _cache_store(args.cache, key, payload)
        _emit(payload, args.json, lines)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return _exit_code(payload)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
