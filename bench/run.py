"""leflab benchmark runner (stdlib only).

    python3 bench/run.py --workload sweep3 --seed 1 --seconds 30 --trace 0

Run from the root of a leflab checkout; the runner imports `src/leflab` from
there.  One run is one workload in this one process:

* With `--trace 0` it times fresh-interpreter `import leflab` several times,
  then repeats untraced passes over the workload's items until `--seconds`
  is spent (at least three passes), and reports the end-to-end metrics.
  Their times are scaled to a reference host speed (see `speed.py`).
* With `--trace 1` it alternates untraced and traced passes and reports the
  per-layer metrics of the traced ones, per pass, plus the tracing overhead.

Every pass starts with leflab's caches cleared, as a fresh CLI process
would, and every pass of one run must miss `oracle.ideal_piece_dim` equally
often.  The second-to-last stdout line is the run record (versions, seed,
per-pass figures); the last is the result object whose metrics are exactly
those that BENCHMARK.json lists for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_IMPORTS = 15
# Fixed per workload (see tail_percentile) so that a faster leflab, which fits
# more passes in a run, still reports the same percentile.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads() -> None:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > cores:
            os.environ[var] = str(cores)


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to `import leflab` in fresh interpreters: scaled, and raw."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import leflab\n"
        "print(time.perf_counter() - t)\n"
    )
    scaled, raw = [], []
    for _ in range(SETUP_IMPORTS):
        gauge = speed.Gauge()
        gauge.check()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        gauge.check()
        raw.append(float(out.stdout))
        scaled.append(raw[-1] / gauge.slowdown())
    return scaled, raw


def tail_percentile(items_per_pass: int) -> float:
    """Highest ladder percentile with >= 10 items beyond it (>= 3 below 20 items)."""
    need = 10 if items_per_pass >= 20 else 3
    return next((q for q in TAIL_LADDER if items_per_pass * (100 - q) / 100 >= need), 50.0)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


class Workload:
    """One workload's items plus the cache hygiene and timing around a pass."""

    def __init__(self, name: str, seed: int) -> None:
        from leflab import oracle

        import workloads

        self.items = workloads.build(name, seed)
        self._oracle = oracle
        # Every lru_cache in leflab; a fresh CLI process starts with all empty.
        self._caches = {
            obj
            for mod_name, mod in sys.modules.items()
            if mod_name == "leflab" or mod_name.startswith("leflab.")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("leflab")
        }
        self.attempted = 0
        self.failed = 0
        self.pass_latencies_ms: list[list[float]] = []  # per pass, in item order
        self.pass_scaled_ms: list[list[float]] = []  # the same, scaled to reference speed
        self.pass_slowdowns: list[float] = []  # median host slowdown in each pass
        self.ideal_lookups: list[tuple[int, int]] = []  # (hits, misses) per pass

    def run_pass(self) -> float:
        """Runs every item once from cold caches; returns the pass wall time.

        The reference loop is timed before the first item and after any item
        that ends CHECK_EVERY_S after the last check, outside the item
        timings; each item's latency is also kept scaled by the host's
        slowdown around it.
        """
        for cache in self._caches:
            cache.cache_clear()
        spans = []
        gauge = speed.Gauge()
        start = time.perf_counter()
        gauge.check()
        next_check = time.perf_counter() + speed.CHECK_EVERY_S
        for item in self.items:
            t0 = time.perf_counter()
            try:
                ok = item()
            except Exception:  # an item that raises counts as failed
                traceback.print_exc()
                ok = False
            t1 = time.perf_counter()
            spans.append((t0, t1))
            self.attempted += 1
            self.failed += not ok
            if t1 >= next_check:
                gauge.check()
                next_check = time.perf_counter() + speed.CHECK_EVERY_S
        wall = time.perf_counter() - start
        self.pass_latencies_ms.append([1000 * (t1 - t0) for t0, t1 in spans])
        self.pass_scaled_ms.append([1000 * (t1 - t0) / gauge.slowdown(t0, t1) for t0, t1 in spans])
        self.pass_slowdowns.append(gauge.slowdown())
        info = getattr(self._oracle.ideal_piece_dim, "cache_info", lambda: None)()
        self.ideal_lookups.append((info.hits, info.misses) if info else (0, 0))
        return wall


def run_untraced(work: Workload, seconds: float) -> tuple[dict, dict]:
    walls = []
    while len(walls) < MIN_PASSES or sum(walls) * (1 + 1 / len(walls)) <= seconds:
        walls.append(work.run_pass())
    q = tail_percentile(len(work.items))
    values = latency_metrics(work.pass_scaled_ms, q)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "pass_s": walls,
        "pass_slowdowns": work.pass_slowdowns,
        "raw_values": latency_metrics(work.pass_latencies_ms, q),
        "tail_percentile": q,
        "tail_samples": len(work.items),  # per-item medians
    }
    return values, record


def latency_metrics(pass_latencies_ms: list[list[float]], q: float) -> dict:
    """Rate, median and tail of each item's median latency over the passes.

    Bursts of other load on the host last a second or so and slow one pass
    of an item, not most of them; and unlike the minimum, the median does not
    fall as a faster leflab fits more passes into a run.
    """
    lat = sorted(statistics.median(runs) for runs in zip(*pass_latencies_ms))
    return {
        "items_per_s": 1000 * len(lat) / sum(lat),
        "item_ms_p50": statistics.median(lat),
        "item_ms_tail": nearest_rank(lat, q),
    }


def run_traced(work: Workload, name: str, seconds: float, per_layer: list[dict]) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    while not plain or (sum(plain) + sum(traced)) * (1 + 1 / len(plain)) <= seconds:
        plain.append(work.run_pass())
        with tracer.patched():
            traced.append(work.run_pass())
    passes = len(traced)
    hits = sum(h for h, _ in work.ideal_lookups[1::2])
    misses = sum(m for _, m in work.ideal_lookups[1::2])
    # Layers a workload never reaches read zero rather than go missing.
    values = {m["name"]: 0.0 for m in per_layer}
    values.update((key, total / passes) for key, total in tracer.stats.items())
    values["modp.matrix_rank.max_cells"] = tracer.stats["modp.matrix_rank.max_cells"]
    values["oracle.ideal_piece_dim.hits"] = hits / passes
    values["oracle.ideal_piece_dim.misses"] = misses / passes
    lookups = hits + misses
    values["oracle.ideal_piece_dim.hit_ratio"] = hits / lookups if lookups else 0.0
    calls = values.get("oracle.mult_rank_report.calls", 0.0)
    values["oracle.mult_rank_report.trials_per_call"] = (
        values.get("oracle.mult_rank_report.trials_used", 0.0) / calls if calls else 0.0
    )
    values["harness.retries"] = values.get("harness.samples", 0.0) - values.get("harness.rows", 0.0)
    slowdowns = work.pass_slowdowns
    values["trace.overhead_ratio"] = (
        sum(w / s for w, s in zip(traced, slowdowns[1::2]))
        / sum(w / s for w, s in zip(plain, slowdowns[::2]))
    )
    missed = tracing.prediction_misses(name, values)
    for metric in missed:
        print(f"trace prediction missed on {name}: {metric} = {values.get(metric, 0.0)}", file=sys.stderr)
    values["trace.prediction_misses"] = len(missed)
    record = {"untraced_pass_s": plain, "traced_pass_s": traced, "prediction_misses": missed}
    return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leflab" / "__init__.py").is_file():
        print(f"error: no leflab sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # Thread caps must be in the environment before numpy loads.
    limit_threads()
    os.environ.pop("LEFLAB_PRIME", None)
    sys.path.insert(0, str(SRC))
    setup, setup_raw = measure_setup() if args.trace == 0 else ([], [])
    import leflab
    import numpy

    if Path(leflab.__file__).resolve().parent != SRC / "leflab":
        print(f"error: imported leflab from {leflab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = Workload(args.workload, args.seed)
    if args.trace:
        wanted = bench["per_layer"]
        values, extra = run_traced(work, args.workload, args.seconds, wanted)
    else:
        values, extra = run_untraced(work, args.seconds)
        values["setup_s"] = statistics.median(setup)
        extra["setup_samples_s"] = setup
        extra["setup_raw_samples_s"] = setup_raw
        wanted = bench["end_to_end"]

    misses = [m for _, m in work.ideal_lookups]
    caches_cold = len(set(misses)) == 1
    if not caches_cold:
        print(f"error: ideal_piece_dim misses differ between passes: {misses}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "items_per_pass": len(work.items),
        "passes": len(misses),
        "attempted": work.attempted,
        "failed": work.failed,
        "fail_frac": work.failed / work.attempted,
        "ideal_piece_dim_misses_per_pass": misses,
        **extra,
        "values": values,
    }
    result = {
        "correct": work.failed == 0 and caches_cold,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
