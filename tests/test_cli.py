import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

from worstvote import cli, maximality
from worstvote.cli import main
from worstvote.feasibility import FeasibilityReport
from worstvote.lottery import parse_lottery
from worstvote.maximality import MaximalityReport
from worstvote.protocols import EvalReport
from worstvote.suites import SUITES, Check, SuiteResult

# Each case is one command line with its stdout and exit code; a "cached" case
# runs twice against one --cache directory and records the second run.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _masked(text):
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": "*"', text)
    return re.sub(r"\d+ ms\)", "* ms)", text)


def replay(case, cache_dir):
    argv = list(case["argv"])
    if case["cached"]:
        argv += ["--cache", str(cache_dir)]
    for _ in range(2 if case["cached"] else 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, _masked(out.getvalue())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_matches_golden(case, tmp_path, monkeypatch):
    for name in ("WORSTVOTE_JOBS", "WORSTVOTE_CACHE", "WORSTVOTE_LIMIT_PROFILES", "WORSTVOTE_TIME_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    # A fresh `worstvote` process starts with no stored cuts, which the
    # pinned `iterations` and working-set sizes of the `maximal` cases
    # depend on.
    monkeypatch.setattr(maximality, "_cut_stores", {})
    assert replay(case, tmp_path) == (case["exit"], case["stdout"])


class TestBasicCommands:
    def test_dual(self, capsys):
        code, out = run_cli(capsys, "dual", "--lottery", "0,1/3,1/3,1/3,0,0")
        assert code == 0
        assert out.strip() == "1/3,1/3,0,0,0,1/3"

    def test_compose(self, capsys):
        code, out = run_cli(capsys, "compose", "--word", "RD,VT", "--n", "3", "--p", "7")
        assert code == 0
        assert out.strip() == "1/4,1/4,0,1/4,0,0,1/4"

    def test_canonical_count(self, capsys):
        code, out = run_cli(capsys, "canonical", "--n", "3", "--p", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 6

    def test_simplex_json_roundtrip(self, capsys):
        code, out = run_cli(capsys, "simplex", "--word", "VT,RD", "--n", "3", "--p", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        vertices = [parse_lottery(text) for text in payload["vertices"]]
        assert [v.text() for v in vertices] == payload["vertices"]

    def test_feasible_json(self, capsys):
        code, out = run_cli(
            capsys, "feasible", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--jobs", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "feasible"

    def test_maximal_dominated(self, capsys):
        code, out = run_cli(
            capsys, "maximal", "--n", "3", "--lottery", "0,1,0,0,0,0", "--jobs", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "dominated"
        improver = parse_lottery(payload["improver"])
        assert improver.p == 6

    def test_protocol_eval(self, capsys):
        code, out = run_cli(
            capsys,
            "protocol-eval",
            "--spec",
            "veto(1); uniform",
            "--n",
            "3",
            "--p",
            "6",
            "--claim",
            "0,1/3,1/3,1/3,0,0",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["achieved"] == "0,1/3,1/3,1/3,0,0"
        assert payload["claim_secured"] is True


class TestJsonFields:
    """`--json` prints a report's fields by name, and besides them only the
    schema, and for `protocol-eval` the protocol and the claim's outcome."""

    @staticmethod
    def names(report_type, *extra):
        return {field.name for field in dataclasses.fields(report_type)} | {*extra}

    def test_feasible(self, capsys):
        _, out = run_cli(capsys, "feasible", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--json")
        assert set(json.loads(out)) == self.names(FeasibilityReport, "schema")

    def test_maximal(self, capsys):
        _, out = run_cli(capsys, "maximal", "--n", "3", "--lottery", "0,1,0,0,0,0", "--json")
        assert set(json.loads(out)) == self.names(MaximalityReport, "schema")

    def test_protocol_eval(self, capsys):
        _, out = run_cli(capsys, "protocol-eval", "--spec", "veto(1); uniform", "--n", "3", "--p", "6", "--json")
        assert set(json.loads(out)) == self.names(EvalReport, "schema", "protocol", "claim_secured")

    def test_verify(self, capsys):
        _, out = run_cli(capsys, "verify", "--suite", "duality", "--json")
        (suite,) = json.loads(out)["suites"]
        assert set(suite) == self.names(SuiteResult)
        assert all(set(check) == self.names(Check) for check in suite["checks"])


class TestExitCodes:
    def test_usage_error_is_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["nonsense"])
        assert err.value.code == 3

    def test_bad_lottery_is_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dual", "--lottery", "1/0,1"])
        assert err.value.code == 3

    def test_undecided_is_two(self, capsys):
        # feasible, but no domination shortcut applies, so the capped scan
        # must give up rather than guess
        code, _ = run_cli(
            capsys,
            "feasible",
            "--n",
            "3",
            "--lottery",
            "1/3,0,0,1/3,1/3,0,0",
            "--limit-profiles",
            "3",
            "--jobs",
            "1",
        )
        assert code == 2

    def test_time_budget_from_the_environment_is_undecided(self, capsys, monkeypatch):
        monkeypatch.setenv("WORSTVOTE_TIME_BUDGET", "0")
        code, out = run_cli(capsys, "feasible", "--n", "3", "--lottery", "1/3,0,0,1/3,1/3,0,0")
        assert code == 2
        assert out == "verdict: undecided\nmethod: time-limit\nprofiles checked: 0\n"

    def test_feasible_by_the_protocol_anchors(self, capsys):
        # The midpoint of VT and RD,VT at (3,10): both anchors are proved
        # by their protocols, so no scan of VT's 604,800 chains is needed.
        code, out = run_cli(
            capsys, "feasible", "--n", "3", "--lottery", "1/14,1/7,1/14,1/7,1/7,1/7,1/7,1/14,0,1/14", "--jobs", "1"
        )
        assert code == 0
        assert out.splitlines()[:2] == ["verdict: feasible", "method: mixture-dominates"]
        # The midpoint of the uniform and the (3,5) top-pair cover: the cover
        # is proved by its protocol, so no scan of 7,270 tail systems is needed.
        code, out = run_cli(capsys, "feasible", "--n", "3", "--lottery", "7/20,1/10,1/10,7/20,1/10", "--jobs", "1")
        assert code == 0
        assert out.splitlines() == [
            "verdict: feasible",
            "method: mixture-dominates",
            "mixture: 1/2 * (1/5,1/5,1/5,1/5,1/5) + 1/2 * (1/2,0,0,1/2,0)",
            "profiles checked: 0",
        ]

    def test_maximal_on_infeasible_input_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "maximal", "--n", "3", "--lottery", "0,0,0,0,0,1", "--jobs", "1"
        )
        capsys.readouterr()
        assert code == 3

    def test_failed_claim_is_one(self, capsys):
        code, _ = run_cli(
            capsys,
            "protocol-eval",
            "--spec",
            "rd(naive)",
            "--n",
            "3",
            "--p",
            "6",
            "--claim",
            "1/3,1/3,0,0,0,1/3",
        )
        assert code == 1

    def test_library_value_error_is_three(self, capsys):
        code, out = run_cli(capsys, "feasible", "--n", "0", "--lottery", "1,0")
        assert (code, out) == (3, "")

    def test_claim_of_wrong_length_is_three(self, capsys):
        code, out = run_cli(
            capsys, "protocol-eval", "--spec", "rd(pad)", "--n", "3", "--p", "6",
            "--claim", "1/2,1/2",
        )
        assert (code, out) == (3, "")

    def test_protocol_dimensions_are_three(self, capsys):
        # A continuation's weight depends on n and p, so the parser must
        # name the bad size before it fixes any weight.
        for spec in ("rd(pad)", "rd(pad); uniform"):
            for n, p in (("0", "6"), ("3", "0")):
                code = main(["protocol-eval", "--spec", spec, "--n", n, "--p", p])
                captured = capsys.readouterr()
                assert (code, captured.out) == (3, "")
                assert f"n and p must be at least 1, got n={n}, p={p}" in captured.err

    def test_cover_that_cannot_be_played_is_three(self, capsys):
        # It printed "achieved guarantee: 0,0,0,1" and exited 0.
        code = main(["protocol-eval", "--spec", "veto(1); cover(2,2,bottom)", "--n", "3", "--p", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "leaves no complement" in captured.err

    def test_cover_outside_the_named_ones_is_evaluated(self, capsys):
        # With the lowest covering set played, it evaluated to
        # 0,0,1/5,1/5,1/5,1/5,1/5, which `feasible` refutes, and the CLI
        # answered undecided for every cover outside the named ones.
        code, out = run_cli(capsys, "protocol-eval", "--spec", "cover(2,6,bottom)", "--n", "4", "--p", "7")
        assert code == 0
        assert "achieved guarantee: 1/5,1/5,1/5,1/5,1/5,0,0\n" in out
        code, out = run_cli(
            capsys, "protocol-eval", "--spec", "cover(2,6,bottom)", "--n", "4", "--p", "7", "--json"
        )
        assert (code, json.loads(out)["achieved"]) == (0, "1/5,1/5,1/5,1/5,1/5,0,0")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("WORSTVOTE_TIME_BUDGET", "5s"),
            ("WORSTVOTE_TIME_BUDGET", "-1"),
            ("WORSTVOTE_LIMIT_PROFILES", "-5"),
            ("WORSTVOTE_JOBS", "two"),
        ],
    )
    def test_malformed_environment_is_three(self, capsys, monkeypatch, name, value):
        # Each was dropped, and the run went on without a budget or a limit.
        # Every value is read before any work starts.
        monkeypatch.setenv(name, value)
        code = main(["feasible", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith(f"error: {name}: ") and repr(value) in captured.err

    def test_negative_profile_limit_is_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["feasible", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--limit-profiles", "-5"])
        assert err.value.code == 3
        assert "error: argument --limit-profiles: expected a non-negative integer, got '-5'" in capsys.readouterr().err
        code, out = run_cli(capsys, "protocol-eval", "--spec", "cover(2,3,bottom)", "--n", "4", "--p", "7")
        assert code == 0 and "achieved guarantee: " in out


    def test_simplex_outside_the_canonical_range_is_three(self, capsys):
        # `--n 0` ended in a ZeroDivisionError traceback with exit 1.
        for n in ("0", "-3"):
            code = main(["simplex", "--word", "VT", "--n", n, "--p", "7"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (3, "")
            assert captured.err == "error: canonical guarantees need 3 <= n < p\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["feasible", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--jobs", "-2"],
            ["search-combinations", "--n", "3", "--p", "6", "--samples", "-1"],
        ],
    )
    def test_negative_counts_are_three(self, capsys, argv):
        # `--jobs -2` ran on one worker and `--samples -1` reported 0 of 0.
        flag, value = argv[-2:]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3
        assert f"error: argument {flag}: expected a non-negative integer, got '{value}'" in capsys.readouterr().err

    def test_zero_counts_are_legal(self, capsys):
        code, out = run_cli(capsys, "search-combinations", "--n", "3", "--p", "6", "--samples", "0", "--jobs", "0")
        assert (code, out) == (0, "maximal mixtures found: 0 of 0\n")
        code, out = run_cli(capsys, "dual", "--lottery", "0,1/3,1/3,1/3,0,0", "--jobs", "0")
        assert (code, out) == (0, "1/3,1/3,0,0,0,1/3\n")


class TestCache:
    def test_cached_verdicts_match_fresh(self, capsys, tmp_path):
        args = ["feasible", "--n", "3", "--lottery", "1/3,1/3,0,0,0,1/3", "--jobs", "1", "--json"]
        code, fresh = run_cli(capsys, *args, "--cache", str(tmp_path))
        assert code == 0
        code, cached = run_cli(capsys, *args, "--cache", str(tmp_path))
        assert code == 0
        fresh_payload = json.loads(fresh)
        cached_payload = json.loads(cached)
        assert cached_payload["verdict"] == fresh_payload["verdict"]
        assert list(tmp_path.glob("*.json"))

    def test_cache_hit_states_its_own_cost(self, capsys, tmp_path):
        args = ["maximal", "--n", "3", "--lottery", "1/3,0,0,1/3,1/3,0,0", "--jobs", "1", "--json",
                "--cache", str(tmp_path)]
        code, fresh = run_cli(capsys, *args)
        assert code == 0
        (stored,) = tmp_path.glob("*.json")
        stored.write_text(json.dumps({**json.loads(stored.read_text()), "runtime_ms": 10**9}))
        code, cached = run_cli(capsys, *args)
        assert code == 0
        served = json.loads(cached)
        assert served["runtime_ms"] < 1000
        assert {**served, "runtime_ms": 0} == {**json.loads(fresh), "runtime_ms": 0}

    def test_cache_ignores_other_lotteries(self, capsys, tmp_path):
        run_cli(
            capsys, "feasible", "--n", "3", "--lottery", "1/3,1/3,0,0,0,1/3",
            "--jobs", "1", "--cache", str(tmp_path),
        )
        code, out = run_cli(
            capsys, "feasible", "--n", "3", "--lottery", "0,0,1,0,0,0",
            "--jobs", "1", "--cache", str(tmp_path), "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "infeasible"

    @pytest.mark.parametrize("argv", [
        ["maximal", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--witnesses"],
        ["maximal", "--n", "3", "--lottery", "0,1,0,0,0,0"],
        ["feasible", "--n", "3", "--lottery", "0,0,0,0,0,1"],
    ], ids=["forcing-profiles", "improver", "witness-profile"])
    def test_text_hit_prints_what_a_fresh_run_prints(self, capsys, tmp_path, argv):
        args = [*argv, "--jobs", "1", "--cache", str(tmp_path)]
        code, fresh = run_cli(capsys, *args)
        first, rest = fresh.split("\n", 1)
        assert code == 0 and rest.count("\n") >= 1
        assert run_cli(capsys, *args) == (code, f"{first} (cached)\n{rest}")

    def test_cache_serves_only_the_code_that_stored(self, capsys, tmp_path, monkeypatch):
        # A payload stored under one source digest is not served under another.
        args = ["feasible", "--n", "3", "--lottery", "0,0,0,0,0,1", "--jobs", "1", "--cache", str(tmp_path)]
        monkeypatch.setattr(cli, "_source_digest", lambda: "old")
        code, fresh = run_cli(capsys, *args)
        monkeypatch.setattr(cli, "_source_digest", lambda: "new")
        assert run_cli(capsys, *args) == (code, fresh)
        assert len(list(tmp_path.glob("*.json"))) == 2
        monkeypatch.setattr(cli, "_source_digest", lambda: "old")
        first, rest = fresh.split("\n", 1)
        assert run_cli(capsys, *args) == (code, f"{first} (cached)\n{rest}")

    @pytest.mark.parametrize(
        "bad",
        [
            lambda entry: "{not json",
            lambda entry: json.dumps({**entry, "schema": 0}),
            # These two printed a traceback and exited 1, the code of a
            # failed check.
            lambda entry: "[1]",
            lambda entry: json.dumps({"schema": entry["schema"]}),
        ],
        ids=["not-json", "other-schema", "not-an-object", "no-verdict"],
    )
    def test_a_bad_entry_is_recomputed_and_rewritten(self, capsys, tmp_path, bad):
        # An entry that is not JSON, that another schema wrote, or that is
        # not an object with the fields its text reads is never served: the
        # next call computes afresh and stores its own entry.
        args = ["feasible", "--n", "3", "--lottery", "0,0,0,0,0,1", "--jobs", "1", "--cache", str(tmp_path)]
        code, fresh = run_cli(capsys, *args)
        (stored,) = tmp_path.glob("*.json")
        entry = json.loads(stored.read_text())
        assert entry["schema"] == 1
        stored.write_text(bad(entry))
        assert run_cli(capsys, *args) == (code, fresh)
        rewritten = json.loads(stored.read_text())
        assert {**rewritten, "runtime_ms": 0} == {**entry, "runtime_ms": 0}

    def test_source_digest_moves_with_any_module(self, tmp_path, monkeypatch):
        for path in Path(cli.__file__).parent.glob("*.py"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
        uncached = cli._source_digest.__wrapped__
        assert uncached() == cli._source_digest()
        lp = tmp_path / "lp.py"
        lp.write_text(lp.read_text() + "# changed\n")
        assert uncached() != cli._source_digest()

    def test_cache_keeps_witnesses_apart(self, capsys, tmp_path):
        args = ["maximal", "--n", "3", "--lottery", "0,1/3,1/3,1/3,0,0", "--jobs", "1",
                "--cache", str(tmp_path), "--json"]
        run_cli(capsys, *args)
        code, out = run_cli(capsys, *args, "--witnesses")
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert witnesses is not None and len(witnesses) == 5


class TestVerify:
    def test_duality_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "duality")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_text_mode_prints_each_suite_as_it_finishes(self, capsys, monkeypatch):
        printed_before = []

        def fake_suite(name, *, jobs, seed):
            printed_before.append(capsys.readouterr().out)
            return SuiteResult(name, (Check("ok", "1", "1"),), 0)

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        assert main(["verify", "--suite", "all"]) == 0
        first = sorted(SUITES)[0]
        first_lines = f"[PASS] {first}: ok\nsuite {first}: PASS (1 checks, 0 ms)\n"
        assert printed_before[:2] == ["", first_lines]

    def test_a_failed_check_is_printed_and_exits_one(self, capsys, monkeypatch):
        def fake_suite(name, *, jobs, seed):
            return SuiteResult(name, (Check("ok", "1", "1"), Check("sum", "2", "3")), 0)

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        code, out = run_cli(capsys, "verify", "--suite", "duality")
        assert code == 1
        assert out == (
            "[PASS] duality: ok\n"
            "[FAIL] duality: sum (expected 2, got 3)\n"
            "suite duality: FAIL (2 checks, 0 ms)\n"
        )

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "no-such-suite"])
        capsys.readouterr()
        assert code == 3


class TestSearchCombinations:
    def test_probe_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys,
            "search-combinations",
            "--n", "3", "--p", "6", "--samples", "3", "--jobs", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["samples"]) == 3
        for sample in payload["samples"]:
            assert sample["verdict"] in ("maximal", "dominated")

    def test_time_budget_covers_every_sample(self, capsys, monkeypatch):
        # With no time left, every sample ends undecided instead of running
        # its maximality check unbudgeted.
        monkeypatch.setattr(maximality, "_cut_stores", {})
        monkeypatch.setenv("WORSTVOTE_TIME_BUDGET", "0")
        code, out = run_cli(
            capsys,
            "search-combinations",
            "--n", "3", "--p", "6", "--samples", "3", "--seed", "1", "--jobs", "1", "--json",
        )
        assert code == 2
        assert [sample["verdict"] for sample in json.loads(out)["samples"]] == ["undecided"] * 3
