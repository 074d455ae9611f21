import json
import time
import tracemalloc

import pytest

from itertools import combinations_with_replacement

from leflab import cli, harness, oracle, polyring, theory
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


def test_linsys_trace_golden(capsys):
    # Every step kind, with the `after` and `stripped` keys of the trace.
    code, out, _ = run_cli(capsys, "linsys", "--degree", "6", "--mults", "4,3,2,1,1")
    assert code == 0
    assert out == (
        '{"dim":7,"trace":[{"rule":"simple-points-split","before":"L2(6; 4,3,2,1,1)","after":"L2(6; 4,3,2)",'
        '"stripped":2},{"rule":"bezout","before":"L2(6; 4,3,2)","after":"L2(5; 3,2,2)"},{"rule":"cremona",'
        '"before":"L2(5; 3,2,2)","after":"L2(3; 1)"},{"rule":"terminal","before":"L2(3; 1)",'
        '"reason":"standard-form","value":9}]}\n'
    )


def test_rank_output(capsys):
    code, out, _ = run_cli(capsys, "rank", "--powers", "3,3,3,3", "--k", "3", "--degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2 and doc["kernel"] == 1 and doc["cokernel"] == 1
    assert doc["maximal"] is False


def test_rank_past_the_socle_builds_nothing(capsys, monkeypatch):
    # Four cubes in three variables vanish from degree 5 on, so degree 3000
    # is zero on both sides, read off the frame with no row set or matrix.
    def refuse(*args):
        raise AssertionError("built a piece past the socle")

    oracle.ideal_piece_dim.cache_clear()
    monkeypatch.setattr(oracle, "mult_matrix", refuse)
    monkeypatch.setattr(oracle, "ci_basis", refuse)
    code, out, _ = run_cli(capsys, "rank", "--powers", "3,3,3,3", "--k", "3", "--degree", "3000")
    assert code == 0
    assert out == '{"k":3,"j":3000,"dim_domain":0,"dim_codomain":0,"rank":0,"kernel":0,"cokernel":0,"maximal":true}\n'


def test_rank_into_a_degree_at_or_past_the_prime_exits_two(capsys):
    argv = ("rank", "--vars", "3", "--powers", "35,35,35", "--k", "95", "--degree", "97")
    code, out, err = run_cli(capsys, *argv, "--prime", "97")
    assert (code, out, err) == (2, "", "error: prime 97 too small for degree 97; need > 97\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == '{"k":95,"j":97,"dim_domain":6,"dim_codomain":21,"rank":6,"kernel":0,"cokernel":15,"maximal":true}\n'
    # No block is built for two cubes in three variables, so 101 still answers.
    argv = ("rank", "--vars", "3", "--powers", "3,3", "--k", "1", "--degree", "3000")
    code, out, _ = run_cli(capsys, *argv, "--prime", "101")
    assert code == 0
    assert out == '{"k":1,"j":3000,"dim_domain":9,"dim_codomain":9,"rank":9,"kernel":0,"cokernel":0,"maximal":true}\n'


def test_non_artinian_rank_at_a_huge_degree_stays_in_the_complete_intersection(capsys, monkeypatch):
    # Two cubes in three variables leave a free variable, so the quotient
    # never ends, but its pieces are the 9 monomials outside (x^3, y^3): each
    # is built on those, never on the C(3002, 2) monomials of degree 3000.
    ci_basis = polyring.ci_basis

    def refuse_full_ring(caps, degree):
        if caps == (None, None, None) and degree > 100:
            raise AssertionError("built a full-ring piece")
        return ci_basis(caps, degree)

    oracle.ideal_piece_dim.cache_clear()
    monkeypatch.setattr(polyring, "ci_basis", refuse_full_ring)
    monkeypatch.setattr(oracle, "ci_basis", refuse_full_ring)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "rank", "--vars", "3", "--powers", "3,3", "--k", "1", "--degree", "3000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    # The degree-3000 monomials alone would take 108 MB as int64 exponents.
    assert peak < 10 * 2**20
    assert code == 0
    assert out == '{"k":1,"j":3000,"dim_domain":9,"dim_codomain":9,"rank":9,"kernel":0,"cokernel":0,"maximal":true}\n'


def test_non_artinian_rank_past_int64_exits_two(capsys):
    argv = ("rank", "--vars", "3", "--powers", "3,3", "--k", "1", "--degree")
    code, out, err = run_cli(capsys, *argv, str(2**63))
    assert (code, out, err) == (2, "", f"error: degree {2**63} overflows the monomial exponents\n")
    code, out, _ = run_cli(capsys, *argv, str(2**63 - 1))
    assert code == 0
    assert out == (
        f'{{"k":1,"j":{2**63 - 1},"dim_domain":9,"dim_codomain":9,"rank":9,"kernel":0,"cokernel":0,"maximal":true}}\n'
    )


def test_rank_in_four_hundred_variables_recurses_once_per_variable(capsys):
    # `ci_basis` takes one frame per variable: a second one per variable,
    # a comprehension's on Python 3.10 and 3.11, passes the recursion limit.
    code, out, _ = run_cli(capsys, "rank", "--vars", "400", "--powers", "2", "--k", "1", "--degree", "1")
    assert code == 0
    assert out == '{"k":1,"j":1,"dim_domain":1,"dim_codomain":400,"rank":1,"kernel":0,"cokernel":399,"maximal":true}\n'


def test_sampling_that_finds_no_general_position_exits_two(capsys):
    # 67 passes the bound 2 * (2 + 20 + 10) = 64, but twenty random points of
    # the plane over F_67 are almost never in general position.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", "--vars", "3", "--powers", ",".join(["2"] * 20), "--prime", "67")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: prime 67 too small: 1000 draws of 20 forms in 3 variables found none in general position\n"


def test_scan_output(capsys):
    code, out, _ = run_cli(capsys, "scan", "--powers", "3,3,3,3", "--k", "3")
    assert code == 0
    assert json.loads(out) == {"k": 3, "failures": [[4, 1]]}


def test_scan_refuses_bad_k_and_trials_with_no_degree_to_scan(capsys):
    # Neither call leaves a degree to scan; both are usage errors all the same.
    for argv in (("--powers", "3,3,3,3", "--k", "-5"), ("--powers", "2,2,2", "--k", "5", "--trials", "0")):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert (code, out, err) == (2, "", "error: need k >= 1, trials >= 1\n"), argv


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
    # A cube with unequal other powers: the WLP by exchange with three variables.
    code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", "3,4,5,5,5")
    assert code == 0
    assert out == '{"property":"WLP","status":"maximal-everywhere","degrees":[],"rule":"cube-generator"}\n'
    code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", "3,3,3,3,3,5")
    assert code == 0
    assert out == '{"property":"WLP","status":"fails","degrees":[4],"rule":"cube-generator"}\n'


def test_classify_four_vars_output_exact(capsys):
    code, out, _ = run_cli(capsys, "classify", "--vars", "4", "--powers", "3,3,3,3,3", "--k", "1")
    assert code == 0
    assert out == '{"status":"fails","degrees":[4]}\n'


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
    # A special first sample is retried on the second prime, with the next
    # seed and three times the trials; when the retry agrees, the row counts
    # as agreement and the exit code stays zero.  The seed changes, so a
    # sweep already over the second prime still retries on a fresh sample.
    real = harness._oracle_failures
    for prime in (2147483647, harness.SECOND_PRIME):
        calls = []

        def flaky(spec, k, prime, seed, trials):
            calls.append((prime, seed, trials))
            if len(calls) == 1:
                return ((99, 1),)
            return real(spec, k, prime, seed, trials)

        monkeypatch.setattr(harness, "_oracle_failures", flaky)
        rows, summary = run_verification(SweepConfig(specs=((3, 3, 3, 3),), k=3, prime=prime, trials=2, seed=7))
        assert summary["disagreements"] == 0
        assert rows[0].agree and rows[0].retried
        assert calls == [(prime, 7, 2), (harness.SECOND_PRIME, 8, 6)]


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
    # A bad prime is refused before the sweep; the retry prime is no flag.
    code, out, err = run_cli(capsys, "verify", "--specs", "3,3,3,3", "--prime", "4")
    assert (code, out, err) == (2, "", "error: modulus 4 is not prime\n")
    code, out, err = run_cli(capsys, "verify", "--specs", "3,3,3,3", "--second-prime", "4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --second-prime 4" in err
    # A sweep of fewer than one form is refused by name, not by itertools.
    for s_min in ("-1", "0"):
        code, out, err = run_cli(capsys, "verify", "--s-min", s_min)
        assert (code, out, err) == (2, "", f"error: sweep range s = {s_min}..6 needs s >= 1\n"), s_min
    # A malformed --specs part is a usage error, like a malformed --powers.
    code, out, err = run_cli(capsys, "verify", "--specs", "3,a,3,3")
    assert (code, out, err) == (2, "", "error: expected a comma-separated integer list: '3,a,3,3'\n")
    # linsys reads no trials, so --trials is an unknown flag there.
    code, out, err = run_cli(capsys, "linsys", "--degree", "6", "--mults", "3,3,3,3,3,3,3", "--trials", "0")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --trials 0" in err


def test_environment_never_sets_the_prime(capsys, monkeypatch):
    # Stdout depends on the command line alone: a LEFLAB_PRIME in the
    # environment, well-formed or not, changes nothing.
    argvs = [
        ("hilbert", "--powers", "3,3,3,3"),
        ("rank", "--powers", "3,3,3,3", "--k", "3", "--degree", "4"),
        ("scan", "--powers", "3,4,4,4", "--k", "3", "--trials", "2"),
        ("classify", "--powers", "3,3,3,3", "--k", "3"),
    ]
    plain = [run_cli(capsys, *argv) for argv in argvs]
    for value in ("1000003", "abc"):
        monkeypatch.setenv("LEFLAB_PRIME", value)
        assert [run_cli(capsys, *argv) for argv in argvs] == plain
    assert all(code == 0 for code, _, _ in plain)


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
    "linsys": (),
    "verify": ("--vars", "--prime", "--seed", "--trials", "--format"),
}


def test_commands_take_only_the_flags_they_read(capsys):
    assert run_cli(capsys, "classify", "--powers", "3,3,3,3", "--k", "3", "--seed", "1")[0] == 2
    assert run_cli(capsys, "hilbert", "--powers", "3,3,3,3", "--format", "csv")[0] == 2
    # A seed must be a non-negative integer; the usage error names the flag.
    for command in ("hilbert", "rank", "scan", "verify"):
        for seed in ("-1", "x"):
            code, out, err = run_cli(capsys, command, *_REQUIRED_ARGS[command], "--seed", seed)
            assert (code, out) == (2, ""), (command, seed)
            assert err.endswith(f"error: argument --seed: expected a non-negative integer: '{seed}'\n"), (command, seed)
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


def test_classify_leaves_coverage_to_verdict_for(capsys):
    code, out, err = run_cli(capsys, "classify", "--powers", "4,4,4,4", "--k", "4")
    assert (code, out) == (2, "")
    assert err == "error: no closed-form verdict for k=4, exponents (4, 4, 4, 4) in 3 variables\n"


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
    other_cubes = [(3, 3, 3, 3), (3, 4, 4, 4), (3, 4, 5, 5, 5), (3, 3, 3, 3, 3, 5)]
    rows = _verify_theory_fail(capsys, 4, 1, four + other_cubes)
    for exps in four + other_cubes:
        verdict = theory.verdict_for(ExponentSpec(4, exps), 1)
        powers = ",".join(map(str, exps))
        code, out, _ = run_cli(capsys, "slp", "--vars", "4", "--powers", powers)
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["degrees"]) == (verdict.status, list(verdict.failing_degrees))
        rule = "square-generator" if exps[0] == 2 else "cube-uniform" if exps in four else "cube-generator"
        assert doc["rule"] == rule
        code, out, _ = run_cli(capsys, "classify", "--vars", "4", "--powers", powers, "--k", "1")
        assert (code, json.loads(out)) == (0, {"status": doc["status"], "degrees": doc["degrees"]})
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
        SweepConfig(trials=0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="need k >= 1"):
            SweepConfig(k=k)
    with pytest.raises(ValueError):
        SweepConfig(s_range=(5, 4))
    for s_range in ((-1, 6), (0, 0)):
        with pytest.raises(ValueError, match="sweep range"):
            SweepConfig(s_range=s_range)
    # The prime is checked up front: a composite, and one wider than 31 bits.
    for prime in (4, 2**31 + 11):
        with pytest.raises(ValueError):
            SweepConfig(prime=prime)


def test_public_names_resolve():
    import leflab

    for name in leflab.__all__:
        assert hasattr(leflab, name), name


def test_empty_explicit_specs_give_empty_report():
    rows, summary = run_verification(SweepConfig(specs=(), k=3))
    assert rows == [] and summary["rows"] == 0


def test_empty_specs_flag_gives_empty_report(capsys):
    # An empty --specs is an empty list of specs, not the default sweep.
    empty = '{"rows":[],"summary":{"rows":0,"agreements":0,"disagreements":0}}\n'
    for specs in ("", ";"):
        assert run_cli(capsys, "verify", "--specs", specs) == (0, empty, ""), specs


def test_verify_and_classify_refuse_k_below_one(capsys):
    # A usage error before any spec is read: even an empty sweep is refused,
    # and a spec does not turn it into "no closed-form verdict".
    for argv in (
        ("verify", "--specs", "", "--k", "0"),
        ("verify", "--specs", "3,3,3,3", "--k", "0"),
        ("verify", "--k", "-2"),
        ("classify", "--powers", "3,3,3,3", "--k", "0"),
    ):
        assert run_cli(capsys, *argv) == (2, "", "error: need k >= 1\n"), argv
