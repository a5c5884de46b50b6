#!/usr/bin/env python
"""Performance benchmark runner: kernels, caching, parallel harness.

Times the three layers of the performance architecture against the
retained reference implementations and writes ``BENCH_kernels.json``:

* **kernels** — per-kernel build timings (covering table, turning
  points, PL ancestor histogram, PH cell histogram, interval merge) for
  the loop ``*_reference`` path versus the numpy path;
* **fig7_sweep** — the Figure 7 histogram sweep (build + estimate over
  every XMARK query and bucket count) under reference kernels, under
  vectorized kernels, and under vectorized kernels plus the summary
  cache.  The headline ``speedup`` compares reference to
  vectorized+cache.  Both paths are also checked for *identical* sweep
  output, so a kernel regression fails the run outright;
* **fused** — the fused single-pass probe kernels
  (:mod:`repro.kernels.fused`, under the active kernel backend) versus
  the batched probe path with a pre-built index: per-probe-backend
  micro timings with outputs checked bit-identical, gated by
  ``--min-fused-speedup``.  ``--only-fused`` runs just this phase (the
  CI numba-leg smoke job);
* **sampling** — the batched probe layer: per-backend micro timings
  (``estimate_trials`` + index cache versus sequential reference-mode
  ``estimate`` calls) and the Figure 8 sample-count sweeps for IM-DA-Est
  and PM-Est, reference versus batched, with bit-identical output
  asserted in both cases.  Also written standalone as
  ``BENCH_sampling.json``;
* **obs_overhead** — the same sweep with :mod:`repro.obs`
  instrumentation enabled (registry only, no sink) versus disabled;
  the enabled-but-unsinked overhead is the number the instrumentation
  layer promises to keep small;
* **parallel** — the same sweep fanned out over worker processes;
* **service** — the estimation service layer against the optimizer
  trace (:mod:`repro.service.bench`): micro-batched + memoized
  throughput versus sequential ``repro.api.estimate`` (identity-gated),
  plus the deadline and stress phases exercising the degradation
  ladder.  Written standalone as ``BENCH_service.json``; the
  ``--min-service-speedup`` / ``--max-p99-ms`` /
  ``--max-deadline-miss-rate`` gates fail the run when the service
  regresses.  ``--only-service`` runs just this phase (the CI
  service-smoke job).  The phase always runs the service bench's own
  tuned workload (xmark at scale 0.4), independent of ``--quick`` — it
  is seconds-fast either way and the gated numbers stay comparable;
* **optimizer** — the plan-regret sweep
  (:mod:`repro.optimizer.regret`): every cardinality generator (the
  estimator lineup, the pessimistic UBOUND generator, the exact
  oracle) through the chain planner over the XMark/DBLP/XMach chain
  workloads, each plan scored by its *true* cost against the
  true-cost-optimal plan.  Written standalone as
  ``BENCH_optimizer.json``; the gates require the EXACT generator's
  regret to be 0 on every chain, the UBOUND generator to report zero
  underestimated plan segments, and (``--min-generators``) a minimum
  sweep width.  ``--only-optimizer`` runs just this phase (the CI
  optimizer-smoke job).  Like the service phase it runs its own tuned
  workload (scale 0.05), independent of ``--quick``;
* **router** — the closed-loop bench (:mod:`repro.router.bench`): a
  bandit router serving the Table 3 traces with a feedback store
  attached, scored as cumulative relative-error loss against every
  fixed method over the identical trace (same configs, same seeds),
  plus the correction model fitted on the trace's truth-paired
  records.  Written standalone as ``BENCH_router.json``; the gates
  require the router's gated regret within ``--max-router-regret`` of
  the best fixed method, the correction model to never worsen a
  held-out cell, and (``--min-correction-reduction``) a minimum best
  per-cell MRE reduction.  ``--only-router`` runs just this phase
  (the CI router-smoke job); fixed seed, independent of ``--quick``;
* **stream** — the streaming churn bench
  (:mod:`repro.stream.bench`): a seeded mutation feed applied through
  :class:`~repro.stream.LiveWorkspace` incremental maintenance versus
  a per-batch rebuild baseline (identity-checked, gated by
  ``--min-stream-speedup``), mixed read/write serving through
  ``EstimationService(live=...)`` under a per-request staleness bound
  (``--max-staleness-violation-rate`` gates the violation rate), and
  two-tenant cache isolation under churn (gated at zero cross-tenant
  invalidations).  Written standalone as ``BENCH_stream.json``;
  ``--only-stream`` runs just this phase (the CI stream-smoke job);
  fixed seed (``--stream-seed``), independent of ``--quick``.

Every measurement is recorded through a :class:`repro.obs`
``MetricsRegistry`` (as ``bench.*`` histograms) and the report's
``metrics`` section is that registry's snapshot, so ``BENCH_*.json``
and any telemetry stream agree by construction.  ``--telemetry FILE``
additionally streams each measurement (and the instrumented sweep's
per-call events) to ``FILE`` as JSONL for ``python -m repro
obs-report``.

Usage::

    python benchmarks/bench_runner.py            # full (scale 1.0)
    python benchmarks/bench_runner.py --quick    # CI smoke (scale 0.1)
    python benchmarks/bench_runner.py --min-speedup 5
    python benchmarks/bench_runner.py --min-sampling-speedup 5
    python benchmarks/bench_runner.py --min-fused-speedup 2
    python benchmarks/bench_runner.py --baseline BENCH_kernels.json
    python benchmarks/bench_runner.py --quick --telemetry telemetry.jsonl

Exits non-zero when the reference/vectorized (or reference/batched,
or batched/fused) outputs disagree, when a sweep speedup falls below
``--min-speedup`` / ``--min-sampling-speedup`` /
``--min-fused-speedup``, or — with ``--baseline`` — when any kernel's
speedup regressed more than 20% against a previous report.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro import obs  # noqa: E402
from repro import perf  # noqa: E402
from repro.estimators.ph_histogram import cell_histogram  # noqa: E402
from repro.estimators.pl_histogram import PLHistogram  # noqa: E402
from repro.estimators.coverage_histogram import (  # noqa: E402
    merged_interval_bounds,
)
from repro.experiments.data import get_dataset  # noqa: E402
from repro.experiments.histograms import (  # noqa: E402
    BUCKET_SWEEP,
    run_bucket_sweep,
)
from repro.models.position import (  # noqa: E402
    covering_table,
    turning_point_arrays,
)
from repro.perf.cache import SummaryCache  # noqa: E402
from repro.qa.bench_schema import validate_bench_report  # noqa: E402

QUICK_SCALE = 0.1
QUICK_BUCKETS = (5, 15, 25)
FULL_SCALE = 1.0

#: Every timing below lands in this registry as a ``bench.*`` histogram;
#: the JSON report's ``metrics`` section is its snapshot, so telemetry
#: and BENCH_*.json agree by construction.
REGISTRY = obs.MetricsRegistry()

#: Telemetry sink installed by ``--telemetry`` (module-level rather than
#: ambient: the timed sweeps must run *uninstrumented* except where the
#: obs-overhead phase enables observation deliberately).
_SINK: obs.TelemetrySink | None = None


def _record(name: str, seconds: float) -> None:
    """One benchmark measurement: registry histogram + telemetry event."""
    REGISTRY.histogram(f"bench.{name}").observe(seconds)
    if _SINK is not None:
        _SINK.emit({"event": "bench", "name": name, "seconds": seconds})


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_pair(name: str, callable_, repeats: int) -> dict[str, float]:
    """Time ``callable_`` under reference kernels and vectorized kernels."""
    with perf.reference_kernels():
        reference = _best_of(callable_, repeats)
    vectorized = _best_of(callable_, repeats)
    _record(f"kernels.{name}.reference_s", reference)
    _record(f"kernels.{name}.vectorized_s", vectorized)
    return {
        "reference_s": reference,
        "vectorized_s": vectorized,
        "speedup": reference / vectorized if vectorized > 0 else float("inf"),
    }


def bench_kernels(dataset, repeats: int) -> dict[str, dict[str, float]]:
    """Microbenchmark each vectorized kernel on real XMARK node sets."""
    workspace = dataset.tree.workspace()
    intervals = dataset.node_set("text")  # large, self-nesting set
    results: dict[str, dict[str, float]] = {}
    results["covering_table"] = _timed_pair(
        "covering_table", lambda: covering_table(intervals, workspace),
        repeats,
    )
    # The turning-point and interval-merge kernels are timed in the
    # array form the hot paths consume (T-tree probe arrays, the cached
    # COV summary); the reference side of each pair runs the loop of
    # record plus the tuple-to-array conversion the old consumers paid.
    results["turning_points"] = _timed_pair(
        "turning_points", lambda: turning_point_arrays(intervals), repeats
    )
    results["pl_build_ancestor"] = _timed_pair(
        "pl_build_ancestor",
        lambda: PLHistogram.build_ancestor(intervals, workspace, 20),
        repeats,
    )
    results["ph_cell_histogram"] = _timed_pair(
        "ph_cell_histogram",
        lambda: cell_histogram(intervals, workspace, 7), repeats
    )
    results["merged_intervals"] = _timed_pair(
        "merged_intervals",
        lambda: merged_interval_bounds(intervals),
        repeats,
    )
    return results


def _sweep(scale: float, buckets, workers=None, cache=None):
    results = []
    for method in ("PL", "PH"):
        sweep = run_bucket_sweep(
            "xmark",
            method,
            bucket_counts=buckets,
            scale=scale,
            workers=workers,
            cache=cache if cache is not None else SummaryCache(),
        )
        results.append(sweep.series)
    return results


def bench_fig7_sweep(scale: float, buckets) -> dict:
    """Build + estimate over the Figure 7 sweep, reference vs vectorized."""
    with perf.reference_kernels():
        start = time.perf_counter()
        reference_series = _sweep(scale, buckets)
        reference_s = time.perf_counter() - start

    start = time.perf_counter()
    vector_series = _sweep(scale, buckets, cache=SummaryCache(maxsize=1))
    vectorized_s = time.perf_counter() - start
    # A maxsize-1 cache is effectively uncached; now with a real cache.
    cache = SummaryCache()
    start = time.perf_counter()
    cached_series = _sweep(scale, buckets, cache=cache)
    cached_s = time.perf_counter() - start

    identical = (
        reference_series == vector_series == cached_series
    )
    _record("fig7.reference_s", reference_s)
    _record("fig7.vectorized_s", vectorized_s)
    _record("fig7.vectorized_cached_s", cached_s)
    return {
        "scale": scale,
        "bucket_counts": list(buckets),
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "vectorized_cached_s": cached_s,
        "speedup": reference_s / cached_s if cached_s > 0 else float("inf"),
        "identical_output": identical,
        "cache": cache.stats(),
    }


def bench_fused(scale: float, repeats: int = 9) -> dict:
    """Fused single-pass probe kernels versus the batched probe path.

    The batched side is the pre-fusion steady state: a probe index
    (StabbingCounter / T-tree / XR-tree) already built and cached, a
    bulk ``count_many`` over the trial-batch points, then the reshape +
    reduce the estimators used to do themselves.  The fused side is one
    :func:`repro.kernels.fused.stab_sum_max` call against a warm
    :class:`IndexCache` — the stab-count table tier, where a probe
    batch is a table gather.  Giving the batched side its index for
    free makes the comparison conservative: per-call index builds
    (the cold path) only widen the gap.  Outputs are checked
    bit-identical before any speedup is reported; the smallest
    per-backend speedup is the ``--min-fused-speedup`` gate.
    """
    import numpy as np

    from repro.datasets.workloads import ALL_WORKLOADS
    from repro.index.stab import StabbingCounter
    from repro.index.ttree import TTree
    from repro.index.xrtree import XRTree
    from repro.kernels import available_backends, fused, kernel_backend
    from repro.perf import IndexCache

    dataset = get_dataset("xmark", scale=scale)
    ancestors, descendants = ALL_WORKLOADS["xmark"][0].operands(dataset)
    rows, m = 16, 200
    rng = np.random.default_rng(11)
    indices = rng.integers(0, len(descendants), size=rows * m).astype(
        np.int64
    )
    points = descendants.starts[indices]

    cache = IndexCache()
    # Warm the arena and stab-count table: steady-state serving is the
    # fused path's deployment position, matching the warm index opposite.
    fused.stab_sum_max(
        ancestors, descendants, indices, rows, m,
        probe_backend="rank", cache=cache, name="bench",
    )

    kernels: dict[str, dict] = {}
    for label, index, probe in (
        ("rank", StabbingCounter(ancestors), "count_many"),
        ("ttree", TTree(ancestors), "count_many"),
        ("xrtree", XRTree(ancestors), "stab_count_many"),
    ):
        probe_many = getattr(index, probe)

        def batched():
            counts = probe_many(points).reshape(rows, m)
            return counts.sum(axis=1), counts.max(axis=1)

        def fused_call(backend=label):
            return fused.stab_sum_max(
                ancestors, descendants, indices, rows, m,
                probe_backend=backend, cache=cache, name="bench",
            )

        batched_s = _best_of(batched, repeats)
        fused_s = _best_of(fused_call, repeats)
        batched_sums, batched_maxes = batched()
        fused_sums, fused_maxes = fused_call()
        identical = np.array_equal(batched_sums, fused_sums) and (
            np.array_equal(batched_maxes, fused_maxes)
        )
        _record(f"fused.{label}.batched_s", batched_s)
        _record(f"fused.{label}.fused_s", fused_s)
        kernels[label] = {
            "trials": rows,
            "batched_s": batched_s,
            "fused_s": fused_s,
            "speedup": (
                batched_s / fused_s if fused_s > 0 else float("inf")
            ),
            "identical": identical,
        }
    return {
        "kernel_backend": kernel_backend(),
        "available_backends": list(available_backends()),
        "kernels": kernels,
        "identical": all(k["identical"] for k in kernels.values()),
        "speedup": min(k["speedup"] for k in kernels.values()),
    }


def _print_fused(fused_report: dict) -> None:
    print(
        f"  kernel backend {fused_report['kernel_backend']} "
        f"(available: {', '.join(fused_report['available_backends'])})"
    )
    for label, timing in fused_report["kernels"].items():
        print(
            f"  {label:>20}: {timing['batched_s'] * 1e6:8.1f} us -> "
            f"{timing['fused_s'] * 1e6:8.1f} us "
            f"({timing['speedup']:.1f}x), identical: "
            f"{timing['identical']}"
        )


def bench_sampling(scale: float, runs: int) -> dict:
    """Batched sampling trials + index cache versus the reference path.

    The reference side runs each repetition as its own ``estimate`` call
    under :func:`repro.perf.reference_kernels` — per-element probe
    loops, probe indexes rebuilt on every call, index caches disabled —
    which reproduces the sampling estimators' pre-batching behavior
    through the same public entry points.  The batched side makes one
    ``estimate_trials`` call against a warm :class:`IndexCache`.  Both
    sides consume the same seed stream, so the batched values are
    checked bit-identical before any speedup is trusted.  The headline
    number is the Figure 8 IM sweep (reference versus batched), the
    ``--min-sampling-speedup`` gate.
    """
    from repro.datasets.workloads import ALL_WORKLOADS
    from repro.estimators.im_sampling import IMSamplingEstimator
    from repro.estimators.pm_sampling import PMSamplingEstimator
    from repro.experiments.sampling import run_sample_sweep
    from repro.perf import IndexCache, use_index_cache

    dataset = get_dataset("xmark", scale=scale)
    ancestors, descendants = ALL_WORKLOADS["xmark"][0].operands(dataset)
    workspace = dataset.tree.workspace()

    configs = [
        ("IM.rank", lambda s: IMSamplingEstimator(num_samples=100, seed=s)),
        (
            "IM.ttree",
            lambda s: IMSamplingEstimator(
                num_samples=100, seed=s, backend="ttree"
            ),
        ),
        (
            "IM.xrtree",
            lambda s: IMSamplingEstimator(
                num_samples=100, seed=s, backend="xrtree"
            ),
        ),
        ("PM.rank", lambda s: PMSamplingEstimator(num_samples=100, seed=s)),
        (
            "PM.ttree",
            lambda s: PMSamplingEstimator(
                num_samples=100, seed=s, backend="ttree"
            ),
        ),
    ]
    backends: dict[str, dict] = {}
    for label, factory in configs:
        with perf.reference_kernels():
            estimator = factory(11)
            start = time.perf_counter()
            reference_values = [
                estimator.estimate(ancestors, descendants, workspace).value
                for __ in range(runs)
            ]
            reference_s = time.perf_counter() - start
        estimator = factory(11)
        with use_index_cache(IndexCache()):
            start = time.perf_counter()
            results = estimator.estimate_trials(
                ancestors, descendants, runs, workspace
            )
            batched_s = time.perf_counter() - start
        _record(f"sampling.{label}.reference_s", reference_s)
        _record(f"sampling.{label}.batched_s", batched_s)
        backends[label] = {
            "trials": runs,
            "reference_s": reference_s,
            "batched_s": batched_s,
            "speedup": (
                reference_s / batched_s if batched_s > 0 else float("inf")
            ),
            "identical": reference_values == [r.value for r in results],
        }

    fig8: dict[str, dict] = {}
    for method in ("IM", "PM"):
        # Each side gets an untimed first pass (it also yields the series
        # for the identity check) and is then timed best-of-2.  The
        # batched side keeps its IndexCache across passes — steady-state
        # reuse across repetitions is exactly what the cache is for and
        # how the Figure 8 experiment itself runs — while reference mode
        # has nothing to keep warm: it rebuilds per call by construction.
        def sweep():
            return run_sample_sweep("xmark", method, scale=scale, runs=runs)

        with perf.reference_kernels():
            reference_sweep = sweep()
            reference_s = _best_of(sweep, 2)
        cache = IndexCache()
        with use_index_cache(cache):
            batched_sweep = sweep()
            batched_s = _best_of(sweep, 2)
        _record(f"sampling.fig8.{method}.reference_s", reference_s)
        _record(f"sampling.fig8.{method}.batched_s", batched_s)
        fig8[method] = {
            "runs": runs,
            "reference_s": reference_s,
            "batched_s": batched_s,
            "speedup": (
                reference_s / batched_s if batched_s > 0 else float("inf")
            ),
            "identical_series": (
                reference_sweep.series == batched_sweep.series
            ),
            "index_cache": cache.stats(),
        }

    return {
        "scale": scale,
        "backends": backends,
        "fig8_sweep": fig8,
        "identical": all(b["identical"] for b in backends.values())
        and all(s["identical_series"] for s in fig8.values()),
        "speedup": fig8["IM"]["speedup"],
    }


def bench_obs_overhead(scale: float, buckets, repeats: int = 15) -> dict:
    """The instrumented-but-unsinked sweep versus the uninstrumented one.

    Each variant runs with a warm dataset cache and its own summary
    cache.  Measuring a single-digit-percent effect on a
    tens-of-milliseconds sweep needs two noise controls: each timed
    window repeats the sweep enough times (``inner``) to last ~0.15 s,
    so scheduler jitter is small relative to the window, and the
    variants are timed in adjacent (baseline, observed) pairs with the
    *median of the per-pair ratios* as the headline — machine load
    drifts severalfold between bench runs here, so the pairing cancels
    drift inside each ratio and the median rejects pairs a descheduling
    hit lands in.  ``overhead_pct`` is the number the observability
    layer promises to keep below a few percent; the disabled path is a
    single-branch guard by construction.
    """
    def one_sweep():
        _sweep(scale, buckets, cache=SummaryCache())

    start = time.perf_counter()
    one_sweep()  # warm the dataset/query caches; sizes the timing window
    warm_s = time.perf_counter() - start
    inner = max(1, min(10, round(0.15 / max(warm_s, 1e-9))))

    def baseline_sweep():
        for _ in range(inner):
            one_sweep()

    def observed_sweep():
        with obs.observe(registry=obs.MetricsRegistry()):
            for _ in range(inner):
                one_sweep()

    # Collector debt accrued by earlier phases would otherwise be paid
    # inside whichever timed window happens to cross the threshold, so
    # GC is frozen across the measurement and drained between windows.
    gc.collect()
    gc.disable()
    try:
        baselines, ratios = [], []
        for _ in range(repeats):
            gc.collect()
            baseline = _best_of(baseline_sweep, 1) / inner
            gc.collect()
            observed = _best_of(observed_sweep, 1) / inner
            baselines.append(baseline)
            ratios.append(observed / baseline if baseline > 0 else 1.0)
    finally:
        gc.enable()
    ratio = statistics.median(ratios)
    baseline_s = statistics.median(baselines)
    observed_s = baseline_s * ratio
    with obs.observe(registry=obs.MetricsRegistry()) as registry:
        _sweep(scale, buckets, cache=SummaryCache())
    counters = registry.counters()
    _record("obs_overhead.baseline_s", baseline_s)
    _record("obs_overhead.observed_s", observed_s)
    return {
        "baseline_s": baseline_s,
        "observed_s": observed_s,
        "overhead_pct": (
            (observed_s - baseline_s) / baseline_s * 100.0
            if baseline_s > 0
            else 0.0
        ),
        "estimator_calls": sum(
            v for k, v in counters.items()
            if k.startswith("estimator.") and k.endswith(".calls")
        ),
        "cache_lookups": counters.get("cache.hits", 0)
        + counters.get("cache.misses", 0),
    }


def bench_parallel(scale: float, runs: int) -> dict:
    """Fan a stochastic-heavy evaluation out over worker processes.

    The worker count adapts to the machine; on a single-core host both
    runs take the serial path and the reported speedup is ~1.0.
    """
    from repro.core.budget import SpaceBudget
    from repro.datasets.workloads import ALL_WORKLOADS
    from repro.experiments.harness import evaluate, paper_methods

    dataset = get_dataset("xmark", scale=scale)
    queries = ALL_WORKLOADS["xmark"]
    methods = paper_methods(SpaceBudget(800))
    workers = min(4, multiprocessing.cpu_count())
    start = time.perf_counter()
    serial_rows = evaluate(dataset, queries, methods, runs=runs, seed=3)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_rows = evaluate(
        dataset, queries, methods, runs=runs, seed=3, workers=workers
    )
    workers_s = time.perf_counter() - start
    _record("parallel.serial_s", serial_s)
    _record("parallel.workers_s", workers_s)
    return {
        "runs": runs,
        "cpu_count": multiprocessing.cpu_count(),
        "workers": workers,
        "serial_s": serial_s,
        "workers_s": workers_s,
        "speedup": serial_s / workers_s if workers_s > 0 else float("inf"),
        "identical_rows": serial_rows == parallel_rows,
    }


def bench_service() -> dict:
    """The estimation service layer against the optimizer trace.

    Delegates to :func:`repro.service.bench.run_service_bench` (which
    carries its own tuned workload — scale, repeat count, timing
    trials) and mirrors the headline timings into the bench registry.
    """
    from repro.service.bench import run_service_bench

    report = run_service_bench()
    throughput = report["throughput"]
    _record("service.sequential_s", throughput["sequential_seconds"])
    _record("service.service_s", throughput["service_seconds"])
    _record(
        "service.deadline_p99_s", report["deadline"]["latency_p99_s"]
    )
    return report


def bench_optimizer() -> dict:
    """The plan-regret sweep over every cardinality generator.

    Delegates to :func:`repro.optimizer.regret.regret_report` (which
    carries its own tuned workload — datasets at scale 0.05, the
    default chain lineup) and stamps the elapsed wall time; the report
    body itself is deterministic for the fixed scale/seed.
    """
    from repro.optimizer.regret import regret_report

    start = time.perf_counter()
    report = regret_report()
    elapsed = time.perf_counter() - start
    report["elapsed_s"] = elapsed
    _record("optimizer.regret_s", elapsed)
    for name, summary in report["generators"].items():
        REGISTRY.histogram(f"bench.optimizer.{name}.mean_regret").observe(
            summary["mean_regret"]
        )
    return report


def _print_optimizer(report: dict) -> None:
    print(
        f"  {len(report['chains'])} chains over "
        f"{'/'.join(report['datasets'])} at scale {report['scale']}, "
        f"{len(report['generators'])} generators, "
        f"{report['elapsed_s']:.2f} s"
    )
    for name, summary in sorted(report["generators"].items()):
        print(
            f"  {name:>10}: mean regret {summary['mean_regret']:7.3f}, "
            f"max {summary['max_regret']:7.3f}, optimal "
            f"{summary['optimal_plans']}/{summary['chains']}, "
            f"underestimated segments "
            f"{summary['underestimated_segments']}"
        )


def _check_optimizer(report: dict, args) -> int:
    """Apply the optimizer gates; returns 0 (pass) or 1 (fail)."""
    exact = report["generators"].get("EXACT")
    if exact is None or exact["max_regret"] != 0.0:
        print(
            "FAIL: the exact-oracle generator must have regret 0 on "
            f"every chain, got {exact}",
            file=sys.stderr,
        )
        return 1
    ubound = report["generators"].get("UBOUND")
    if ubound is None or ubound["underestimated_segments"] != 0:
        print(
            "FAIL: the pessimistic bound generator underestimated "
            f"{ubound and ubound['underestimated_segments']} true "
            "intermediate sizes (it must never underestimate)",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_generators is not None
        and len(report["generators"]) < args.min_generators
    ):
        print(
            f"FAIL: regret sweep covered {len(report['generators'])} "
            f"generators, below required {args.min_generators}",
            file=sys.stderr,
        )
        return 1
    return 0


def bench_router(args) -> dict:
    """The closed-loop routing + correction benchmark.

    Delegates to :func:`repro.router.bench.run_router_bench` (Table 3
    traces at scale 0.05, fixed seed) and stamps the elapsed wall
    time; the report body itself is deterministic for the fixed
    arguments because every router is a pure function of (seed,
    feedback history).
    """
    from repro.router.bench import run_router_bench
    from repro.router.registry import canonical_router_name

    router_config = {}
    if canonical_router_name(args.router) == "UCB1":
        router_config["exploration"] = args.router_exploration
    start = time.perf_counter()
    report = run_router_bench(
        router=args.router,
        rounds=args.router_rounds,
        **router_config,
    )
    elapsed = time.perf_counter() - start
    report["elapsed_s"] = elapsed
    _record("router.bench_s", elapsed)
    REGISTRY.histogram("bench.router.regret_ratio").observe(
        report["total"]["regret_ratio"]
    )
    REGISTRY.histogram("bench.router.max_reduction_pct").observe(
        report["correction"]["max_reduction_pct"]
    )
    return report


def _print_router(report: dict) -> None:
    router = report["router"]
    print(
        f"  router {router.get('name')} over "
        f"{'/'.join(report['datasets'])} at scale {report['scale']}, "
        f"{report['rounds']} rounds, {report['elapsed_s']:.2f} s"
    )
    for row in report["per_dataset"]:
        pulls = ", ".join(
            f"{arm}={count}" for arm, count in row["arm_pulls"].items()
        )
        print(
            f"  {row['dataset']:>8}: gated loss "
            f"{row['router_loss_gated']:8.3f} vs best fixed "
            f"{row['best_fixed']} "
            f"{row['fixed_loss_gated'][row['best_fixed']]:8.3f} "
            f"(ratio {row['regret_ratio']:.3f}); pulls {pulls}"
        )
    total = report["total"]
    print(
        f"  total: regret ratio {total['regret_ratio']:.3f} gated "
        f"({total['regret_ratio_total']:.3f} with warmup)"
    )
    correction = report["correction"]
    print(
        f"  correction: {correction['fitted']}/{correction['cells']} "
        f"cells fitted ({correction['mode']}, holdout "
        f"{correction['holdout']}), max MRE reduction "
        f"{correction['max_reduction_pct']:.1f}%, "
        f"{correction['worsened']} worsened"
    )


def _check_router(report: dict, args) -> int:
    """Apply the router gates; returns 0 (pass) or 1 (fail)."""
    correction = report["correction"]
    if correction["worsened"] != 0:
        print(
            f"FAIL: the correction model worsened held-out MRE on "
            f"{correction['worsened']} cell(s) (it must never make a "
            "cell worse)",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_router_regret is not None
        and report["total"]["regret_ratio"] > args.max_router_regret
    ):
        print(
            f"FAIL: router regret ratio "
            f"{report['total']['regret_ratio']:.3f} above allowed "
            f"{args.max_router_regret} x the best fixed method",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_correction_reduction is not None
        and correction["max_reduction_pct"]
        < args.min_correction_reduction
    ):
        print(
            f"FAIL: best correction-model MRE reduction "
            f"{correction['max_reduction_pct']:.1f}% below required "
            f"{args.min_correction_reduction}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_service(report: dict) -> None:
    from repro.service.bench import render_report

    for line in render_report(report).splitlines():
        print(f"  {line}")


def _check_service(report: dict, args) -> int:
    """Apply the service gates; returns 0 (pass) or 1 (fail)."""
    throughput = report["throughput"]
    deadline = report["deadline"]
    stress = report["stress"]
    if not throughput["identical"]:
        print(
            "FAIL: non-degraded service responses differ from "
            f"sequential estimates: {throughput['mismatches']}",
            file=sys.stderr,
        )
        return 1
    if not (deadline["all_answered"] and stress["all_answered"]):
        print(
            "FAIL: a deadline-constrained request went unanswered",
            file=sys.stderr,
        )
        return 1
    if not (deadline["degraded_flagged"] and stress["degraded_flagged"]):
        print(
            "FAIL: a degraded response was not flagged as degraded",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_service_speedup is not None
        and report["workload_speedup"] < args.min_service_speedup
    ):
        print(
            f"FAIL: service workload speedup "
            f"{report['workload_speedup']:.2f}x below required "
            f"{args.min_service_speedup}x",
            file=sys.stderr,
        )
        return 1
    p99_ms = deadline["latency_p99_s"] * 1000.0
    if args.max_p99_ms is not None and p99_ms > args.max_p99_ms:
        print(
            f"FAIL: deadline-phase p99 latency {p99_ms:.2f} ms above "
            f"allowed {args.max_p99_ms} ms",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_deadline_miss_rate is not None
        and deadline["deadline_miss_rate"] > args.max_deadline_miss_rate
    ):
        print(
            f"FAIL: deadline miss rate "
            f"{deadline['deadline_miss_rate']:.4f} above allowed "
            f"{args.max_deadline_miss_rate}",
            file=sys.stderr,
        )
        return 1
    return 0


def bench_stream(args) -> dict:
    """The streaming churn benchmark.

    Delegates to :func:`repro.stream.bench.run_stream_bench` (XMark
    churn at a fixed small scale and seed): incremental maintenance
    versus per-batch rebuilds, mixed read/write serving under a
    staleness bound, and cross-tenant cache isolation.
    """
    from repro.stream.bench import run_stream_bench

    report = run_stream_bench(seed=args.stream_seed)
    _record("stream.bench_s", report["elapsed_s"])
    REGISTRY.histogram("bench.stream.speedup").observe(
        report["update"]["speedup"]
    )
    REGISTRY.histogram("bench.stream.violation_rate").observe(
        report["serving"]["violation_rate"]
    )
    return report


def _print_stream(report: dict) -> None:
    update = report["update"]
    serving = report["serving"]
    isolation = report["isolation"]
    print(
        f"  churn over {report['dataset']} scale {report['scale']} "
        f"({report['pool_size']} elements, {report['tags']} tags), "
        f"seed {report['seed']}, {report['elapsed_s']:.2f} s"
    )
    print(
        f"  update: {update['mutations']} mutations, incremental "
        f"{update['incremental_mutations_per_s']:,.0f}/s vs rebuild "
        f"{update['rebuild_mutations_per_s']:,.0f}/s "
        f"({update['speedup']:.1f}x), identical: {update['identical']}"
    )
    print(
        f"  serving: {serving['requests']} reads "
        f"({serving['writes_per_read']} writes before each), "
        f"p99 {serving['latency_p99_s'] * 1e3:.2f} ms, staleness p99 "
        f"{serving['staleness_p99_s'] * 1e3:.2f} ms, "
        f"{serving['violations']} violation(s) "
        f"({serving['violation_rate']:.2%}), "
        f"{serving['stale_degraded']} stale-degraded"
    )
    print(
        f"  isolation: {isolation['churn_batches']} churn batches "
        f"against tenant alpha; victim entries "
        f"{isolation['victim_entries_before']} -> "
        f"{isolation['victim_entries_after']}, cross-tenant "
        f"invalidations {isolation['cross_tenant_invalidations']}, "
        f"victim cached: {isolation['victim_served_from_cache']}"
    )


def _check_stream(report: dict, args) -> int:
    """Apply the stream gates; returns 0 (pass) or 1 (fail)."""
    update = report["update"]
    serving = report["serving"]
    isolation = report["isolation"]
    if not update["identical"]:
        print(
            "FAIL: incrementally maintained synopses diverged from "
            "the per-batch rebuilds",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_stream_speedup is not None
        and update["speedup"] < args.min_stream_speedup
    ):
        print(
            f"FAIL: incremental update speedup "
            f"{update['speedup']:.2f}x below required "
            f"{args.min_stream_speedup}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_staleness_violation_rate is not None
        and serving["violation_rate"] > args.max_staleness_violation_rate
    ):
        print(
            f"FAIL: staleness-violation rate "
            f"{serving['violation_rate']:.4f} above allowed "
            f"{args.max_staleness_violation_rate}",
            file=sys.stderr,
        )
        return 1
    if isolation["cross_tenant_invalidations"] != 0:
        print(
            f"FAIL: churn in one tenant invalidated "
            f"{isolation['cross_tenant_invalidations']} cache "
            "entr(y/ies) of another tenant",
            file=sys.stderr,
        )
        return 1
    if not isolation["victim_value_stable"]:
        print(
            "FAIL: an untouched tenant's estimate changed while "
            "another tenant churned",
            file=sys.stderr,
        )
        return 1
    return 0


#: A kernel speedup may fall this far below the baseline's before the
#: comparison flags it as a regression (machine noise on shared runners
#: swings micro-benchmarks tens of percent; CI runs the comparison as a
#: warning step).
BASELINE_TOLERANCE = 0.20


def _compare_baseline(report: dict, baseline_path: Path) -> int:
    """Per-kernel speedup deltas against a previous BENCH_kernels.json.

    Prints one line per kernel shared by both reports; returns 1 when
    any kernel's speedup fell more than :data:`BASELINE_TOLERANCE`
    below the baseline's, 0 otherwise.  Kernels present on only one
    side are noted but never fail the comparison (reports grow).
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as error:
        print(
            f"FAIL: cannot read baseline {baseline_path}: {error}",
            file=sys.stderr,
        )
        return 1

    def section(source: dict, *keys: str) -> dict:
        node = source
        for key in keys:
            node = node.get(key) or {}
        return node

    pairs: list[tuple[str, dict, dict]] = [
        ("kernels", section(baseline, "kernels"), section(report, "kernels")),
        (
            "fused",
            section(baseline, "fused", "kernels"),
            section(report, "fused", "kernels"),
        ),
        (
            "sampling",
            section(baseline, "sampling", "backends"),
            section(report, "sampling", "backends"),
        ),
    ]
    regressions: list[str] = []
    print(f"baseline comparison against {baseline_path}:")
    for prefix, old_section, new_section in pairs:
        for name, new_timing in new_section.items():
            label = f"{prefix}.{name}"
            old_timing = old_section.get(name)
            if old_timing is None:
                print(f"  {label:>28}: new kernel (no baseline)")
                continue
            old = float(old_timing["speedup"])
            new = float(new_timing["speedup"])
            delta_pct = (new - old) / old * 100.0 if old > 0 else 0.0
            regressed = old > 0 and new < old * (1.0 - BASELINE_TOLERANCE)
            if regressed:
                regressions.append(label)
            print(
                f"  {label:>28}: {old:8.2f}x -> {new:8.2f}x "
                f"({delta_pct:+6.1f}%)"
                f"{'  REGRESSION' if regressed else ''}"
            )
        for name in old_section:
            if name not in new_section:
                print(f"  {prefix + '.' + name:>28}: dropped from report")
    if regressions:
        print(
            f"FAIL: {len(regressions)} kernel speedup(s) regressed more "
            f"than {BASELINE_TOLERANCE:.0%} vs baseline: "
            f"{', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print("  no kernel regressed beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: scale {QUICK_SCALE}, bucket counts "
        f"{QUICK_BUCKETS}",
    )
    parser.add_argument(
        "--scale", type=float, default=None, help="dataset scale override"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the Fig. 7 sweep speedup reaches this factor",
    )
    parser.add_argument(
        "--min-sampling-speedup",
        type=float,
        default=None,
        help="fail unless the Fig. 8 IM sweep (reference vs batched) "
        "speedup reaches this factor",
    )
    parser.add_argument(
        "--min-fused-speedup",
        type=float,
        default=None,
        help="fail unless every fused probe kernel beats the batched "
        "probe path by this factor",
    )
    parser.add_argument(
        "--only-fused",
        action="store_true",
        help="run only the fused-kernel phase and its gate (the CI "
        "numba-leg smoke job); writes no report file",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="compare per-kernel speedups against a previous "
        "BENCH_kernels.json; exit non-zero when any kernel regressed "
        "more than 20%%",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_kernels.json",
        help="where to write the timing report",
    )
    parser.add_argument(
        "--sampling-output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_sampling.json",
        help="where to write the standalone sampling-phase report",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the multiprocessing phase (slow on small machines)",
    )
    parser.add_argument(
        "--only-service",
        action="store_true",
        help="run only the estimation-service phase and its gates "
        "(the CI service-smoke job)",
    )
    parser.add_argument(
        "--only-optimizer",
        action="store_true",
        help="run only the plan-regret phase and its gates "
        "(the CI optimizer-smoke job)",
    )
    parser.add_argument(
        "--min-generators",
        type=int,
        default=None,
        help="fail unless the regret sweep covers at least this many "
        "cardinality generators",
    )
    parser.add_argument(
        "--optimizer-output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_optimizer.json",
        help="where to write the standalone plan-regret report",
    )
    parser.add_argument(
        "--only-router",
        action="store_true",
        help="run only the closed-loop routing phase and its gates "
        "(the CI router-smoke job)",
    )
    parser.add_argument(
        "--router",
        default="UCB1",
        help="which router drives the routing trace (a "
        "repro.available_routers() name; default UCB1)",
    )
    parser.add_argument(
        "--router-rounds",
        type=int,
        default=12,
        help="how many times the routing trace replays each Table 3 "
        "query (default 12)",
    )
    parser.add_argument(
        "--router-exploration",
        type=float,
        default=0.1,
        help="UCB1 exploration constant for the routing trace "
        "(default 0.1; ignored for other routers)",
    )
    parser.add_argument(
        "--max-router-regret",
        type=float,
        default=None,
        help="fail unless the router's gated cumulative loss stays "
        "within this factor of the best fixed method (e.g. 1.15)",
    )
    parser.add_argument(
        "--min-correction-reduction",
        type=float,
        default=None,
        help="fail unless the correction model reduces held-out MRE "
        "by at least this percentage on its best cell (e.g. 10)",
    )
    parser.add_argument(
        "--router-output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_router.json",
        help="where to write the standalone routing-phase report",
    )
    parser.add_argument(
        "--only-stream",
        action="store_true",
        help="run only the streaming churn phase and its gates "
        "(the CI stream-smoke job)",
    )
    parser.add_argument(
        "--stream-seed",
        type=int,
        default=7,
        help="seed for the streaming churn phase's document and "
        "mutation feeds (default 7)",
    )
    parser.add_argument(
        "--min-stream-speedup",
        type=float,
        default=None,
        help="fail unless incremental maintenance beats the per-batch "
        "rebuild baseline by this factor (e.g. 5)",
    )
    parser.add_argument(
        "--max-staleness-violation-rate",
        type=float,
        default=None,
        help="fail if the serving phase's staleness-violation rate "
        "exceeds this fraction (e.g. 0.01)",
    )
    parser.add_argument(
        "--stream-output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_stream.json",
        help="where to write the standalone streaming-churn report",
    )
    parser.add_argument(
        "--min-service-speedup",
        type=float,
        default=None,
        help="fail unless the service-vs-sequential workload speedup "
        "reaches this factor",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail if the deadline phase's p99 latency exceeds this "
        "many milliseconds",
    )
    parser.add_argument(
        "--max-deadline-miss-rate",
        type=float,
        default=None,
        help="fail if the deadline phase misses more than this "
        "fraction of deadlines (e.g. 0.01)",
    )
    parser.add_argument(
        "--service-output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_service.json",
        help="where to write the standalone service-phase report",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        help="stream measurements and an instrumented sweep's events "
        "to this JSONL file (for python -m repro obs-report)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        help="fail if the enabled-but-unsinked observation overhead "
        "exceeds this percentage",
    )
    args = parser.parse_args(argv)

    global _SINK
    if args.telemetry is not None:
        _SINK = obs.TelemetrySink(args.telemetry)

    if args.only_fused:
        scale = args.scale if args.scale is not None else (
            QUICK_SCALE if args.quick else 0.4
        )
        print(
            f"fused phase: fused probe kernels vs batched probes "
            f"(xmark scale {scale})",
            flush=True,
        )
        fused_report = bench_fused(scale)
        _print_fused(fused_report)
        if _SINK is not None:
            _SINK.close()
        if not fused_report["identical"]:
            print(
                "FAIL: fused probe kernels disagree with the batched "
                "probe path",
                file=sys.stderr,
            )
            return 1
        if (
            args.min_fused_speedup is not None
            and fused_report["speedup"] < args.min_fused_speedup
        ):
            print(
                f"FAIL: fused kernel speedup {fused_report['speedup']:.2f}x "
                f"below required {args.min_fused_speedup}x",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.only_optimizer:
        print(
            "optimizer phase: plan regret per cardinality generator",
            flush=True,
        )
        optimizer = bench_optimizer()
        _print_optimizer(optimizer)
        validate_bench_report(optimizer, "optimizer")
        args.optimizer_output.write_text(
            json.dumps(optimizer, indent=2) + "\n"
        )
        print(f"wrote {args.optimizer_output}")
        if _SINK is not None:
            _SINK.close()
            print(
                f"wrote {_SINK.emitted} telemetry records to "
                f"{args.telemetry}"
            )
        return _check_optimizer(optimizer, args)

    if args.only_router:
        print(
            "router phase: bandit routing vs fixed methods, "
            "correction model fit",
            flush=True,
        )
        router_report = bench_router(args)
        _print_router(router_report)
        validate_bench_report(router_report, "router")
        args.router_output.write_text(
            json.dumps(router_report, indent=2) + "\n"
        )
        print(f"wrote {args.router_output}")
        if _SINK is not None:
            _SINK.close()
            print(
                f"wrote {_SINK.emitted} telemetry records to "
                f"{args.telemetry}"
            )
        return _check_router(router_report, args)

    if args.only_stream:
        print(
            "stream phase: incremental maintenance under churn, "
            "bounded staleness, tenant isolation",
            flush=True,
        )
        stream_report = bench_stream(args)
        _print_stream(stream_report)
        validate_bench_report(stream_report, "stream")
        args.stream_output.write_text(
            json.dumps(stream_report, indent=2) + "\n"
        )
        print(f"wrote {args.stream_output}")
        if _SINK is not None:
            _SINK.close()
            print(
                f"wrote {_SINK.emitted} telemetry records to "
                f"{args.telemetry}"
            )
        return _check_stream(stream_report, args)

    if args.only_service:
        print(
            "service phase: estimation service vs sequential estimate()",
            flush=True,
        )
        service = bench_service()
        _print_service(service)
        validate_bench_report(service, "service")
        args.service_output.write_text(
            json.dumps(service, indent=2) + "\n"
        )
        print(f"wrote {args.service_output}")
        if _SINK is not None:
            _SINK.close()
            print(
                f"wrote {_SINK.emitted} telemetry records to "
                f"{args.telemetry}"
            )
        return _check_service(service, args)

    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else FULL_SCALE
    )
    buckets = QUICK_BUCKETS if args.quick else BUCKET_SWEEP
    repeats = 2 if args.quick else 3

    print(f"generating xmark at scale {scale} ...", flush=True)
    dataset = get_dataset("xmark", scale=scale)

    print("phase 1/10: kernel microbenchmarks", flush=True)
    kernels = bench_kernels(dataset, repeats)
    for name, timing in kernels.items():
        print(
            f"  {name:>20}: {timing['reference_s'] * 1e3:8.2f} ms -> "
            f"{timing['vectorized_s'] * 1e3:8.2f} ms "
            f"({timing['speedup']:.1f}x)"
        )

    print("phase 2/10: Fig. 7 histogram sweep (build + estimate)", flush=True)
    sweep = bench_fig7_sweep(scale, buckets)
    print(
        f"  reference {sweep['reference_s']:.2f} s, vectorized "
        f"{sweep['vectorized_s']:.2f} s, vectorized+cache "
        f"{sweep['vectorized_cached_s']:.2f} s "
        f"({sweep['speedup']:.1f}x), identical output: "
        f"{sweep['identical_output']}"
    )

    print(
        "phase 3/10: fused probe kernels vs batched probes",
        flush=True,
    )
    fused_report = bench_fused(scale)
    _print_fused(fused_report)

    print(
        "phase 4/10: batched sampling trials (reference vs batched)",
        flush=True,
    )
    sampling = bench_sampling(scale, runs=5 if args.quick else 11)
    for label, timing in sampling["backends"].items():
        print(
            f"  {label:>20}: {timing['reference_s'] * 1e3:8.2f} ms -> "
            f"{timing['batched_s'] * 1e3:8.2f} ms "
            f"({timing['speedup']:.1f}x), identical: "
            f"{timing['identical']}"
        )
    for method, timing in sampling["fig8_sweep"].items():
        print(
            f"  {'fig8.' + method:>20}: {timing['reference_s']:8.2f} s  -> "
            f"{timing['batched_s']:8.2f} s  "
            f"({timing['speedup']:.1f}x), identical series: "
            f"{timing['identical_series']}"
        )

    print("phase 5/10: observation overhead (enabled, no sink)", flush=True)
    overhead = bench_obs_overhead(scale, buckets)
    print(
        f"  baseline {overhead['baseline_s']:.2f} s, observed "
        f"{overhead['observed_s']:.2f} s "
        f"({overhead['overhead_pct']:+.2f}%, "
        f"{overhead['estimator_calls']} estimator calls, "
        f"{overhead['cache_lookups']} cache lookups)"
    )

    parallel = None
    if not args.skip_parallel:
        print("phase 6/10: parallel harness", flush=True)
        parallel = bench_parallel(scale, runs=5 if args.quick else 31)
        print(
            f"  serial {parallel['serial_s']:.2f} s, "
            f"{parallel['workers']} worker(s) "
            f"{parallel['workers_s']:.2f} s "
            f"({parallel['speedup']:.1f}x on {parallel['cpu_count']} "
            f"cpu(s)), identical rows: {parallel['identical_rows']}"
        )

    print(
        "phase 7/10: estimation service vs sequential estimate()",
        flush=True,
    )
    service = bench_service()
    _print_service(service)

    print(
        "phase 8/10: plan regret per cardinality generator",
        flush=True,
    )
    optimizer = bench_optimizer()
    _print_optimizer(optimizer)

    print(
        "phase 9/10: bandit routing vs fixed methods, correction model",
        flush=True,
    )
    router_report = bench_router(args)
    _print_router(router_report)

    print(
        "phase 10/10: streaming churn (incremental maintenance, "
        "staleness, isolation)",
        flush=True,
    )
    stream_report = bench_stream(args)
    _print_stream(stream_report)

    if _SINK is not None:
        # One more instrumented sweep, this time streaming per-call
        # estimate events and cache counters into the telemetry file so
        # obs-report has per-estimator latency distributions to show.
        print("telemetry: instrumented sweep", flush=True)
        with obs.observe(registry=REGISTRY, sink=_SINK):
            _sweep(scale, buckets, cache=SummaryCache())
            obs.emit_summary()

    report = {
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "kernels": kernels,
        "fig7_sweep": sweep,
        "fused": fused_report,
        "sampling": sampling,
        "obs_overhead": overhead,
        "parallel": parallel,
        "service": service,
        "metrics": REGISTRY.snapshot(),
    }
    sampling_report = {
        "mode": report["mode"],
        **sampling,
    }
    # Fail fast on report-shape drift before anything hits disk.
    validate_bench_report(report, "kernels")
    validate_bench_report(sampling_report, "sampling")
    validate_bench_report(service, "service")
    validate_bench_report(optimizer, "optimizer")
    validate_bench_report(router_report, "router")
    validate_bench_report(stream_report, "stream")
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    args.sampling_output.write_text(
        json.dumps(sampling_report, indent=2) + "\n"
    )
    print(f"wrote {args.sampling_output}")
    args.service_output.write_text(json.dumps(service, indent=2) + "\n")
    print(f"wrote {args.service_output}")
    args.optimizer_output.write_text(
        json.dumps(optimizer, indent=2) + "\n"
    )
    print(f"wrote {args.optimizer_output}")
    args.router_output.write_text(
        json.dumps(router_report, indent=2) + "\n"
    )
    print(f"wrote {args.router_output}")
    args.stream_output.write_text(
        json.dumps(stream_report, indent=2) + "\n"
    )
    print(f"wrote {args.stream_output}")
    if _SINK is not None:
        _SINK.close()
        print(
            f"wrote {_SINK.emitted} telemetry records to {args.telemetry}"
        )

    if not sweep["identical_output"]:
        print(
            "FAIL: reference and vectorized sweeps disagree",
            file=sys.stderr,
        )
        return 1
    if parallel is not None and not parallel["identical_rows"]:
        print(
            "FAIL: parallel evaluation rows differ from serial",
            file=sys.stderr,
        )
        return 1
    if not sampling["identical"]:
        print(
            "FAIL: batched sampling trials disagree with sequential "
            "reference trials",
            file=sys.stderr,
        )
        return 1
    if not fused_report["identical"]:
        print(
            "FAIL: fused probe kernels disagree with the batched "
            "probe path",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_fused_speedup is not None
        and fused_report["speedup"] < args.min_fused_speedup
    ):
        print(
            f"FAIL: fused kernel speedup {fused_report['speedup']:.2f}x "
            f"below required {args.min_fused_speedup}x",
            file=sys.stderr,
        )
        return 1
    if args.baseline is not None:
        if _compare_baseline(report, args.baseline):
            return 1
    if args.min_speedup is not None and sweep["speedup"] < args.min_speedup:
        print(
            f"FAIL: sweep speedup {sweep['speedup']:.2f}x below "
            f"required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_sampling_speedup is not None
        and sampling["speedup"] < args.min_sampling_speedup
    ):
        print(
            f"FAIL: Fig. 8 sampling speedup {sampling['speedup']:.2f}x "
            f"below required {args.min_sampling_speedup}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_obs_overhead is not None
        and overhead["overhead_pct"] > args.max_obs_overhead
    ):
        print(
            f"FAIL: observation overhead {overhead['overhead_pct']:.2f}% "
            f"above allowed {args.max_obs_overhead}%",
            file=sys.stderr,
        )
        return 1
    return (
        _check_service(service, args)
        or _check_optimizer(optimizer, args)
        or _check_router(router_report, args)
        or _check_stream(stream_report, args)
    )


if __name__ == "__main__":
    raise SystemExit(main())
