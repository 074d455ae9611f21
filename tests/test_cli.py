import json

import pytest

from itertools import combinations_with_replacement

from leflab import cli, harness, theory
from leflab.harness import SweepConfig, run_verification
from leflab.oracle import ExponentSpec, lefschetz_scan, regularity, sample_ideal


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_output_exact(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--vars", "3", "--powers", "3,3,3,3")
    assert code == 0
    assert out == '{"hf":[1,3,6,6,3],"reg":4}\n'


def test_classify_output_exact(capsys):
    code, out, _ = run_cli(capsys, "classify", "--powers", "5,5,5,5,5,5", "--k", "3")
    assert code == 0
    assert out == '{"status":"fails","degrees":[6]}\n'
    code, out, _ = run_cli(capsys, "classify", "--powers", "2,3,4,5", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"status": "maximal-everywhere", "degrees": []}


def test_linsys_output(capsys):
    code, out, _ = run_cli(capsys, "linsys", "--degree", "4", "--mults", "2,2,2,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert doc["trace"][-1]["rule"] == "terminal"


def test_rank_output(capsys):
    code, out, _ = run_cli(capsys, "rank", "--powers", "3,3,3,3", "--k", "3", "--degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2 and doc["kernel"] == 1 and doc["cokernel"] == 1
    assert doc["maximal"] is False


def test_scan_output(capsys):
    code, out, _ = run_cli(capsys, "scan", "--powers", "3,3,3,3", "--k", "3")
    assert code == 0
    assert json.loads(out) == {"k": 3, "failures": [[4, 1]]}


def test_slp_three_vars(capsys):
    code, out, _ = run_cli(capsys, "slp", "--vars", "3", "--powers", "2,3,4,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["property"] == "SLP" and doc["status"] == "maximal-everywhere"

    code, out, _ = run_cli(capsys, "slp", "--vars", "3", "--powers", "3,5,5,5,5,5")
    assert code == 0
    assert out == (
        '{"property":"SLP","status":"fails","degrees":[6],"rule":"cube-quotient",'
        '"checks":[[3,"maximal-everywhere"],[4,"maximal-everywhere"],[5,"fails"]]}\n'
    )
    code, out, _ = run_cli(capsys, "slp", "--vars", "3", "--powers", "3,4,4,4,4")
    assert code == 0
    assert out == (
        '{"property":"SLP","status":"maximal-everywhere","degrees":[],"rule":"cube-quotient",'
        '"checks":[[3,"maximal-everywhere"],[4,"maximal-everywhere"]]}\n'
    )

    # A linear generator leaves a two-variable quotient, which has the SLP.
    for powers in ("1,4,4", "1,3,5,5"):
        code, out, _ = run_cli(capsys, "slp", "--vars", "3", "--powers", powers)
        assert code == 0
        assert out == '{"property":"SLP","status":"maximal-everywhere","degrees":[],"rule":"linear-generator"}\n'


def test_slp_four_vars(capsys):
    code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", "3,3,3,3,3")
    doc = json.loads(out)
    assert doc["property"] == "WLP" and doc["status"] == "fails" and doc["degrees"] == [4]

    code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", "2,9,9,9,9")
    doc = json.loads(out)
    assert doc["status"] == "maximal-everywhere"


def test_verify_json_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--specs", "3,3,3,3", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"rows": 1, "agreements": 1, "disagreements": 0}
    row = doc["rows"][0]
    assert row["theory_fail"] == [[4, 1]] and row["oracle_fail"] == [[4, 1]]
    assert row["agree"] is True


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--specs", "3,3,3,3;2,4,4,4", "--k", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "spec;k;theory_fail_degrees;oracle_fail_degrees;agree;millis"
    first = lines[1].split(";")
    assert first[0] == "3,3,3,3" and first[1] == "3"
    assert first[2] == "4" and first[3] == "4" and first[4] == "true"


def test_verify_exit_one_on_disagreement(capsys, monkeypatch):
    # Force the oracle side to disagree to exercise the exit-code contract.
    monkeypatch.setattr(harness, "_oracle_failures", lambda *a, **k: ((99, 1),))
    code, out, _ = run_cli(capsys, "verify", "--specs", "3,3,3,3", "--k", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["disagreements"] == 1


def test_verify_second_prime_retry_resolves_transient_disagreement(monkeypatch):
    # A special first sample is retried on the second prime; when the retry
    # agrees, the row counts as agreement and the exit code stays zero.
    calls = []
    real = harness._oracle_failures

    def flaky(spec, k, prime, seed, trials):
        calls.append(prime)
        if len(calls) == 1:
            return ((99, 1),)
        return real(spec, k, prime, seed, trials)

    monkeypatch.setattr(harness, "_oracle_failures", flaky)
    rows, summary = run_verification(SweepConfig(specs=((3, 3, 3, 3),), k=3))
    assert summary["disagreements"] == 0
    assert rows[0].agree and rows[0].retried
    assert len(calls) == 2 and calls[1] == harness.SECOND_PRIME


def test_output_byte_stable(capsys):
    args = ("scan", "--powers", "2,3,4,5", "--k", "2", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    args = ("verify", "--specs", "3,3,3,3;4,4,4,4", "--k", "3", "--seed", "3")
    _, v1, _ = run_cli(capsys, *args)
    _, v2, _ = run_cli(capsys, *args)
    scrub = lambda text: [
        {k: v for k, v in row.items() if k != "millis"} for row in json.loads(text)["rows"]
    ]
    assert scrub(v1) == scrub(v2)
    assert json.loads(v1)["summary"] == json.loads(v2)["summary"]


def test_env_var_prime_override(capsys, monkeypatch):
    monkeypatch.setenv("LEFLAB_PRIME", "1000003")
    code, out, _ = run_cli(capsys, "hilbert", "--vars", "3", "--powers", "2,2,2")
    assert code == 0
    assert json.loads(out) == {"hf": [1, 3, 3, 1], "reg": 3}


def test_usage_errors_exit_two(capsys):
    assert cli.main(["nonsense"]) == 2
    assert cli.main([]) == 2
    code, _, err = run_cli(capsys, "rank", "--powers", "3,3,3,3", "--k", "3", "--degree", "2")
    assert code == 2 and "error" in err
    # Too few forms for an artinian quotient, a linear generator included.
    for powers in ("1,5", "1,1", "2,5"):
        code, out, err = run_cli(capsys, "slp", "--vars", "3", "--powers", powers)
        assert (code, out) == (2, ""), powers
        assert err == "error: need at least three forms in three variables\n", powers
    # A bad retry prime is refused before the sweep, even with no retry due.
    code, out, err = run_cli(capsys, "verify", "--specs", "3,3,3,3", "--second-prime", "4")
    assert (code, out, err) == (2, "", "error: modulus 4 is not prime\n")


def test_malformed_env_prime_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("LEFLAB_PRIME", "abc")
    code, out, err = run_cli(capsys, "hilbert", "--powers", "3,3,3,3")
    assert (code, out) == (2, "")
    assert err.startswith("error: LEFLAB_PRIME")
    # Commands without --prime never read the variable.
    code, out, _ = run_cli(capsys, "classify", "--powers", "3,3,3,3", "--k", "3")
    assert code == 0 and out == '{"status":"fails","degrees":[4]}\n'


_REQUIRED_ARGS = {
    "hilbert": ("--powers", "3,3,3,3"),
    "rank": ("--powers", "3,3,3,3", "--k", "3", "--degree", "4"),
    "scan": ("--powers", "3,3,3,3", "--k", "3"),
    "classify": ("--powers", "3,3,3,3", "--k", "3"),
    "slp": ("--powers", "3,3,3,3,3"),
    "linsys": ("--degree", "4"),
    "verify": (),
}
_KEPT_FLAGS = {
    "hilbert": ("--vars", "--prime", "--seed"),
    "rank": ("--vars", "--prime", "--seed", "--trials"),
    "scan": ("--vars", "--prime", "--seed", "--trials"),
    "classify": ("--vars",),
    "slp": ("--vars",),
    "linsys": ("--prime", "--seed", "--trials"),
    "verify": ("--vars", "--prime", "--seed", "--trials", "--format"),
}


def test_commands_take_only_the_flags_they_read(capsys):
    assert run_cli(capsys, "classify", "--powers", "3,3,3,3", "--k", "3", "--seed", "1")[0] == 2
    assert run_cli(capsys, "hilbert", "--powers", "3,3,3,3", "--format", "csv")[0] == 2
    parser = cli.build_parser()
    for command, kept in _KEPT_FLAGS.items():
        for flag in ("--vars", "--prime", "--seed", "--trials", "--format"):
            argv = [command, *_REQUIRED_ARGS[command], flag, "json" if flag == "--format" else "3"]
            if flag in kept:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


def test_unexpected_error_exits_three(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "hilbert", boom)
    code, out, err = run_cli(capsys, "hilbert", "--powers", "3,3,3,3")
    assert code == 3
    assert out == ""
    assert err.endswith("error: RuntimeError: boom\n")


def test_library_key_error_exits_three(capsys, monkeypatch):
    # No library code raises KeyError on user input, so one is a bug, not a
    # usage error.
    def lookup(args):
        return {}["missing"]

    monkeypatch.setitem(cli._COMMANDS, "hilbert", lookup)
    code, out, err = run_cli(capsys, "hilbert", "--powers", "3,3,3,3")
    assert (code, out) == (3, "")
    assert err.endswith("error: KeyError: 'missing'\n")


def test_reused_parser_matches_fresh_parser(capsys):
    # The second call leaves --vars and --seed at their defaults; a parser
    # that kept state from the first call would not.
    first = ("rank", "--vars", "4", "--powers", "3,3,3,3,3", "--k", "1", "--degree", "3", "--seed", "5")
    second = ("hilbert", "--powers", "3,3,3,3")
    fresh = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli.build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in (first, second)]
    assert cli.build_parser() is cli.build_parser()
    assert reused == fresh
    assert fresh[1][1] == '{"hf":[1,3,6,6,3],"reg":4}\n'


def test_classify_rejects_four_vars(capsys):
    code, _, err = run_cli(capsys, "classify", "--vars", "4", "--powers", "3,3,3,3", "--k", "3")
    assert code == 2


def _verify_theory_fail(capsys, num_vars, k, specs):
    argv = ["verify", "--vars", str(num_vars), "--k", str(k), "--trials", "2"]
    code, out, _ = run_cli(capsys, *argv, "--specs", ";".join(",".join(map(str, e)) for e in specs))
    assert code == 0
    return {tuple(row["spec"]): row["theory_fail"] for row in json.loads(out)["rows"]}


def test_cli_answers_match_verdict_for(capsys):
    three = [e for s in range(3, 6) for e in combinations_with_replacement(range(2, 6), s)]
    for k in (1, 2, 3):
        rows = _verify_theory_fail(capsys, 3, k, three)
        for exps in three:
            verdict = theory.verdict_for(ExponentSpec(3, exps), k)
            code, out, _ = run_cli(capsys, "classify", "--powers", ",".join(map(str, exps)), "--k", str(k))
            assert code == 0
            assert json.loads(out) == {"status": verdict.status, "degrees": list(verdict.failing_degrees)}
            assert rows[exps] == [[f.degree, f.deficiency] for f in verdict.failures]

    four = [(2,) + (t,) * 4 for t in range(2, 6)]
    four += [(3,) + (t,) * s for s in range(4, 7) for t in range(3, 6)]
    rows = _verify_theory_fail(capsys, 4, 1, four)
    for exps in four:
        verdict = theory.verdict_for(ExponentSpec(4, exps), 1)
        code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", ",".join(map(str, exps)))
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["degrees"]) == (verdict.status, list(verdict.failing_degrees))
        assert doc["rule"] == ("square-generator" if exps[0] == 2 else "cube-uniform")
        assert rows[exps] == [[f.degree, f.deficiency] for f in verdict.failures]


def test_slp_three_vars_matches_oracle(capsys):
    # The SLP fails exactly in the degrees where some power map misses
    # maximal rank on the quotient.  Three forms of degree >= 3 are the
    # complete-intersection rule; the rest cover the other three rules.
    cases = [
        (lead,) + rest
        for s in (4, 5)
        for lead in (1, 2, 3)
        for rest in combinations_with_replacement(range(2, 6), s - 1)
    ]
    cases += combinations_with_replacement(range(3, 7), 3)
    for powers in cases:
        code, out, _ = run_cli(capsys, "slp", "--vars", "3", "--powers", ",".join(map(str, powers)))
        assert code == 0, powers
        sample = sample_ideal(ExponentSpec(3, powers), seed=1)
        degrees = sorted(
            {j for k in range(1, regularity(sample) + 1) for j, _ in lefschetz_scan(sample, k, trials=3)}
        )
        doc = json.loads(out)
        assert (doc["status"], doc["degrees"]) == ("fails" if degrees else "maximal-everywhere", degrees), powers


def test_uncovered_cases_exit_two(capsys):
    for argv in (
        ("verify", "--k", "4"),
        ("slp", "--vars", "4", "--powers", "4,4,4,4"),
        ("verify", "--vars", "4", "--k", "1", "--specs", "3,3,3"),
        ("slp", "--vars", "3", "--powers", "4,4,4,4"),
        ("slp", "--vars", "5", "--powers", "3,3,3,3,3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: no closed-form verdict"), argv


def test_run_verification_rows_sorted_and_complete():
    config = SweepConfig(num_vars=3, k=2, s_range=(3, 3), exp_range=(2, 3), trials=2)
    rows, summary = run_verification(config)
    specs = [r.exponents for r in rows]
    assert specs == sorted(specs)
    assert summary["rows"] == len(rows) == 4
    assert summary["disagreements"] == 0


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(primes=())
    with pytest.raises(ValueError):
        SweepConfig(trials=0)
    with pytest.raises(ValueError):
        SweepConfig(s_range=(5, 4))
    # Every prime is checked up front, the retry prime included.
    for primes in ((4,), (2147483647, 4), (2147483647, 2**31 + 11)):
        with pytest.raises(ValueError):
            SweepConfig(primes=primes)


def test_public_names_resolve():
    import leflab

    for name in leflab.__all__:
        assert hasattr(leflab, name), name


def test_empty_explicit_specs_give_empty_report():
    rows, summary = run_verification(SweepConfig(specs=(), k=3))
    assert rows == [] and summary["rows"] == 0
