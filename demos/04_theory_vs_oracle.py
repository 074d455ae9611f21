"""Cross-verification sweep: every closed-form verdict against exact ranks.

One row per exponent multiset.  The theory engine predicts the failing
degrees from arithmetic alone; the oracle recomputes them by row reduction
over the default 31-bit prime, and retries a disagreeing row once over the
fixed second prime `harness.SECOND_PRIME`, with a new seed and more trials.
The same sweep is available from the command line:

    leflab verify --vars 3 --k 3 --s-min 4 --s-max 5 --a-min 2 --a-max 4
"""

import sys

from leflab.harness import SweepConfig, run_verification

config = SweepConfig(num_vars=3, k=3, s_range=(4, 5), exp_range=(2, 4), trials=3)
rows, summary = run_verification(config)

width = max(len(str(r.exponents)) for r in rows)
for row in rows:
    mark = "ok " if row.agree else "DIS"
    predicted = row.theory_failures or "-"
    observed = row.oracle_failures or "-"
    print(f"{mark} {str(row.exponents):{width}s}  theory {predicted}  oracle {observed}  {row.millis}ms")

print(
    f"\n{summary['rows']} sweep points, {summary['agreements']} agreements,"
    f" {summary['disagreements']} disagreements"
)
sys.exit(f"theory and oracle disagree on {summary['disagreements']} rows" if summary["disagreements"] else 0)
