"""Per-layer spans and counters, recorded from outside leflab.

A traced pass replaces names in the modules that *look them up*, not in the
modules that define them: `oracle` binds `mult_matrix`, `matrix_rank` and
friends with `from ... import`, `harness` binds `sample_ideal`, `cli` binds
`run_verification`, and `linsys.system_dim` calls the global `fatpoint_dim`.
Wrapping only `polyring.mult_matrix` would record nothing.

Spans nest through one stack; a span's self time is its duration minus the
durations of the spans it directly contains.  Only per-name totals are kept.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from leflab import cli, harness, linsys, modp, oracle, theory


def _count_matrix_rank(stats, args, rank) -> None:
    m = args[0]
    cells = m.rows * m.cols
    stats["modp.matrix_rank.cells"] += cells
    stats["modp.matrix_rank.max_cells"] = max(stats["modp.matrix_rank.max_cells"], cells)
    stats["modp.matrix_rank.rank_sum"] += rank


def _count_mult_matrix(stats, args, m) -> None:
    stats["polyring.mult_matrix.cells"] += m.rows * m.cols


def _count_trials(stats, args, report) -> None:
    stats["oracle.mult_rank_report.trials_used"] += report.trials_used


def _count_harness_sample(stats, args, sample) -> None:
    stats["harness.samples"] += 1


def _count_rows(stats, args, result) -> None:
    stats["harness.rows"] += len(result[0])


def _count_oracle_terminal(stats, args, result) -> None:
    stats["linsys.system_dim.oracle_terminals"] += result[1].terminal.reason == "oracle"


# (module that looks the name up, name, span, counter hook)
SITES = (
    (cli, "main", "cli.main", None),
    (cli, "run_verification", "harness.run_verification", _count_rows),
    (harness, "sample_ideal", "oracle.sample_ideal", _count_harness_sample),
    (harness, "lefschetz_scan", "oracle.lefschetz_scan", None),
    (theory, "classify_cube", "theory", None),
    (theory, "wlp_cube_uniform_4vars", "theory", None),
    (oracle, "sample_ideal", "oracle.sample_ideal", None),
    (oracle, "lefschetz_scan", "oracle.lefschetz_scan", None),
    (oracle, "mult_rank_report", "oracle.mult_rank_report", _count_trials),
    (oracle, "mult_matrix", "polyring.mult_matrix", _count_mult_matrix),
    (oracle, "power_coords", "polyring.power_coords", None),
    (oracle, "matrix_rank", "modp.matrix_rank", _count_matrix_rank),
    (oracle, "row_echelon", "modp.row_echelon", None),
    (oracle, "reduce_rows", "modp.reduce_rows", None),
    (linsys, "matrix_rank", "modp.matrix_rank", _count_matrix_rank),
    (linsys, "fatpoint_dim", "linsys.fatpoint_dim", None),
    (linsys, "system_dim", "linsys.system_dim", _count_oracle_terminal),
    # The workloads' own cross-check rank in wlp4.
    (modp, "matrix_rank", "modp.matrix_rank", _count_matrix_rank),
)


class Tracer:
    """Accumulates calls, self time and counters per span name."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span

    def wrap(self, span: str, fn, count=None):
        stats, open_ = self.stats, self._open

        def traced(*args, **kwargs):
            open_.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_.pop()
                if open_:
                    open_[-1] += elapsed
                stats[span + ".calls"] += 1
                stats[span + ".self_s"] += elapsed - children
            if count is not None:
                count(stats, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every call site in SITES through a span while the block runs."""
        saved = []
        try:
            for module, name, span, count in SITES:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                saved.append((module, name, fn))
                setattr(module, name, self.wrap(span, fn, count))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)


# Which layers must and must not do work on each workload.  A miss here means
# the trace no longer sees a layer, not that leflab answered wrongly.
_PREDICTED_NONZERO = {
    "sweep3": (
        "cli.main.calls", "harness.rows", "theory.calls", "oracle.sample_ideal.calls",
        "oracle.mult_rank_report.calls", "oracle.ideal_piece_dim.misses",
        "polyring.mult_matrix.calls", "polyring.power_coords.calls", "modp.matrix_rank.calls",
    ),
    "wlp4": (
        "theory.calls", "oracle.sample_ideal.calls", "oracle.mult_rank_report.calls",
        "oracle.ideal_piece_dim.misses", "polyring.mult_matrix.calls",
        "polyring.power_coords.calls", "modp.matrix_rank.calls", "modp.row_echelon.calls",
        "modp.reduce_rows.calls",
    ),
    "planes": ("linsys.fatpoint_dim.calls", "linsys.system_dim.calls", "modp.matrix_rank.calls"),
}
_PREDICTED_ZERO_PREFIXES = {
    "sweep3": ("linsys.", "modp.row_echelon.", "modp.reduce_rows."),
    "wlp4": ("linsys.", "cli.", "harness."),
    "planes": ("polyring.", "oracle.", "cli.", "harness.", "theory."),
}


def prediction_misses(workload: str, values: dict[str, float]) -> list[str]:
    """Names whose traced value contradicts the per-workload prediction."""
    misses = [name for name in _PREDICTED_NONZERO[workload] if not values.get(name)]
    prefixes = _PREDICTED_ZERO_PREFIXES[workload]
    misses += [
        name for name, value in values.items()
        if name.startswith(prefixes) and value
    ]
    return sorted(misses)
