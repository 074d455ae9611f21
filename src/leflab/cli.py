"""Command-line front end: exact reports and theory-vs-oracle sweeps.

All results go to standard output as compact JSON; `verify --format csv`
switches the sweep rows to semicolon-separated CSV.  `verify` samples over
`--prime` and retries a disagreeing row once on the fixed
`harness.SECOND_PRIME`; no flag changes the retry.  Exit codes: 0 on
success, 1 when `verify` finds a disagreement that survives the retry, 2 on
usage errors, 3 on any other (unexpected) error.  The CLI decides no closed
form itself: `classify` and `verify` print `theory.verdict_for`, and `slp`
prints `theory.slp_verdict`.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import lru_cache
from typing import Optional, Sequence

from .modp import DEFAULT_PRIME
from .harness import SweepConfig, run_verification
from .linsys import PlaneSystem, system_dim
from .oracle import (
    DEFAULT_TRIALS,
    ExponentSpec,
    hilbert_function,
    lefschetz_scan,
    mult_rank_report,
    regularity,
    sample_ideal,
)
from . import theory


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {text!r}") from exc


def _non_negative_int(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer: {text!r}")


_COMMON_FLAGS = {
    "vars": dict(type=int, default=3, help="number of variables"),
    "prime": dict(type=int, default=DEFAULT_PRIME, help=f"field modulus (default {DEFAULT_PRIME})"),
    "seed": dict(type=_non_negative_int, default=0),
    "trials": dict(type=int, default=DEFAULT_TRIALS),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    """Give `sub` the shared flags that its command reads, and no others."""
    for name in names:
        sub.add_argument(f"--{name}", **_COMMON_FLAGS[name])


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leflab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("hilbert", help="Hilbert function and regularity of the quotient")
    sub.add_argument("--powers", type=_parse_int_list, required=True)
    _add_common(sub, "vars", "prime", "seed")

    sub = subs.add_parser("rank", help="rank report for one power map in one degree")
    sub.add_argument("--powers", type=_parse_int_list, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--degree", type=int, required=True)
    _add_common(sub, "vars", "prime", "seed", "trials")

    sub = subs.add_parser("scan", help="all degrees where a power map misses maximal rank")
    sub.add_argument("--powers", type=_parse_int_list, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub, "vars", "prime", "seed", "trials")

    sub = subs.add_parser("classify", help="closed-form verdict for L^k: any k in three variables (k >= 4 needs an exponent <= 3), k = 1 in four")
    sub.add_argument("--powers", type=_parse_int_list, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub, "vars")

    sub = subs.add_parser("slp", help="closed-form SLP (3 variables) or WLP (4 variables) verdict")
    sub.add_argument("--powers", type=_parse_int_list, required=True)
    _add_common(sub, "vars")

    sub = subs.add_parser("linsys", help="dimension of a plane system with its reduction trace")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--mults", type=_parse_int_list, default=())

    sub = subs.add_parser("verify", help="theory-vs-oracle sweep")
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--specs", type=str, default=None, help="explicit specs, e.g. '3,3,3,3;2,4,4,4'")
    sub.add_argument("--s-min", type=int, default=4)
    sub.add_argument("--s-max", type=int, default=6)
    sub.add_argument("--a-min", type=int, default=2)
    sub.add_argument("--a-max", type=int, default=6)
    _add_common(sub, *_COMMON_FLAGS)
    return parser


def _cmd_hilbert(args) -> int:
    spec = ExponentSpec(args.vars, args.powers)
    sample = sample_ideal(spec, prime=args.prime, seed=args.seed)
    print(_dumps({"hf": hilbert_function(sample), "reg": regularity(sample)}))
    return 0


def _cmd_rank(args) -> int:
    spec = ExponentSpec(args.vars, args.powers)
    sample = sample_ideal(spec, prime=args.prime, seed=args.seed)
    rep = mult_rank_report(sample, args.k, args.degree, args.trials)
    print(
        _dumps(
            {
                "k": rep.k,
                "j": rep.j,
                "dim_domain": rep.dim_domain,
                "dim_codomain": rep.dim_codomain,
                "rank": rep.rank,
                "kernel": rep.kernel_dim,
                "cokernel": rep.cokernel_dim,
                "maximal": rep.is_maximal,
            }
        )
    )
    return 0


def _cmd_scan(args) -> int:
    spec = ExponentSpec(args.vars, args.powers)
    sample = sample_ideal(spec, prime=args.prime, seed=args.seed)
    print(_dumps({"k": args.k, "failures": lefschetz_scan(sample, args.k, args.trials)}))
    return 0


def _cmd_classify(args) -> int:
    verdict = theory.verdict_for(ExponentSpec(args.vars, args.powers), args.k)
    print(_dumps({"status": verdict.status, "degrees": list(verdict.failing_degrees)}))
    return 0


def _cmd_slp(args) -> int:
    answer = theory.slp_verdict(ExponentSpec(args.vars, args.powers))
    out = {
        "property": answer.property,
        "status": answer.verdict.status,
        "degrees": list(answer.verdict.failing_degrees),
        "rule": answer.rule,
    }
    if answer.checks is not None:
        out["checks"] = [[b, v.status] for b, v in answer.checks]
    print(_dumps(out))
    return 0


def _trace_json(trace) -> list:
    out = []
    for step in trace.steps:
        entry = {"rule": step.rule, "before": str(step.before)}
        if step.after is not None:
            entry["after"] = str(step.after)
        if step.stripped:
            entry["stripped"] = step.stripped
        if step.rule == "terminal":
            entry["reason"] = step.reason
            entry["value"] = step.value
        out.append(entry)
    return out


def _cmd_linsys(args) -> int:
    sys_ = PlaneSystem(args.degree, args.mults)
    dim, trace = system_dim(sys_)
    print(_dumps({"dim": dim, "trace": _trace_json(trace)}))
    return 0


def _row_json(row) -> dict:
    return {
        "spec": list(row.exponents),
        "k": row.k,
        "theory_fail": row.theory_failures,
        "oracle_fail": row.oracle_failures,
        "agree": row.agree,
        "millis": row.millis,
    }


def _cmd_verify(args) -> int:
    specs = None
    if args.specs is not None:
        specs = tuple(_parse_int_list(part) for part in args.specs.split(";") if part.strip())
    config = SweepConfig(
        num_vars=args.vars,
        k=args.k,
        specs=specs,
        s_range=(args.s_min, args.s_max),
        exp_range=(args.a_min, args.a_max),
        prime=args.prime,
        trials=args.trials,
        seed=args.seed,
    )
    rows, summary = run_verification(config)
    if args.format == "csv":
        print("spec;k;theory_fail_degrees;oracle_fail_degrees;agree;millis")
        for r in rows:
            fails = [",".join(str(f.degree) for f in fs) for fs in (r.theory_failures, r.oracle_failures)]
            spec = ",".join(str(a) for a in r.exponents)
            print(";".join([spec, str(r.k), *fails, "true" if r.agree else "false", str(r.millis)]))
    else:
        print(_dumps({"rows": [_row_json(r) for r in rows], "summary": summary}))
    return 1 if summary["disagreements"] else 0


_COMMANDS = {
    "hilbert": _cmd_hilbert,
    "rank": _cmd_rank,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "slp": _cmd_slp,
    "linsys": _cmd_linsys,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # A type error raised outside argparse, like verify's --specs parts.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
