"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload remote-plan --seed 1 \\
        --seconds 40 --trace 0

Builds nothing: the package is pure Python and is imported from
``src/``.  ``--trace 0`` sets the workload up several times (reporting
the median set-up time), sends a fixed number of ops sized from
``--seconds``, checks the answers, and prints the end-to-end metrics.
``--trace 1`` runs the ops of half of ``--seconds`` twice on fresh
set-ups, untraced then traced, checks that both took the same code
paths, prints the per-layer metrics and writes the spans to
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (host, versions, GC and host-speed diagnostics).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def spin_ms() -> float:
    """A fixed pure-Python loop, timed: a host-speed diagnostic only,
    never used to scale another number."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class Gen2Watch:
    """Counts full (generation 2) collections and their total pause."""

    def __init__(self) -> None:
        self.count = 0
        self.pause_s = 0.0
        self._started: float | None = None

    def _callback(self, phase: str, info: dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.count += 1
            self._started = None

    def __enter__(self) -> "Gen2Watch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


def percentile_us(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of ``samples`` (seconds), in µs."""
    if len(samples) < 2:
        return samples[0] * 1e6
    return statistics.quantiles(samples, n=100)[q - 1] * 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_record(args: argparse.Namespace, workload: Any) -> dict[str, Any]:
    import numpy
    import repro

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": workload.scale,
        "loop": "closed, 1 client, workers=0, processes=0",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "kernel_backend": repro.kernel_backend(),
    }


def timed_pass(workload: Any, n_ops: int, tracer: Any = None) -> Any:
    from tracing import NullTracer

    with Gen2Watch() as gen2:
        result = workload.run(n_ops, tracer or NullTracer())
    result.gen2_count = gen2.count
    result.gen2_pause_ms = gen2.pause_s * 1e3
    return result


def end_to_end(args: argparse.Namespace, cls: Any) -> tuple[dict, dict]:
    setups: list[float] = []
    workload = None
    for __ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        start = time.perf_counter()
        workload = cls(args.seed)
        setups.append(time.perf_counter() - start)
    n_ops = workload.n_ops(args.seconds)
    spin_before = spin_ms()
    result = timed_pass(workload, n_ops)
    # Before the checks, whose memory grows with the op count.
    rss_mb = peak_rss_mb()
    spin_after = spin_ms()
    failed, errors = workload.verify(result)
    latency = result.latency_s
    record = run_record(args, workload)
    workload.close()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (result.ops / result.wall_s, "1/s"),
        "latency_p50_us": (percentile_us(latency, 50), "us"),
        "latency_p90_us": (percentile_us(latency, 90), "us"),
        "rel_error_mean": (statistics.fmean(errors), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    record.update(
        {
            "ops": result.ops,
            "requests": result.requests,
            "timed_s": result.wall_s,
            "latency_samples": len(latency),
            # p99 varies far more than a tenth between runs on a shared
            # host, so it is a diagnostic, not a metric.
            "latency_p99_us": percentile_us(latency, 99),
            "samples_beyond_p99": len(latency) // 100,
            "setup_s_each": setups,
            "host_spin_ms_before": spin_before,
            "host_spin_ms_after": spin_after,
            "gc2_count": result.gen2_count,
            "gc2_pause_ms": result.gen2_pause_ms,
            "error_rate": len(failed) / result.ops,
            "estimates_scored": len(errors),
        }
    )
    return record, _result(not failed, result.ops, failed, metrics)


def _result(
    correct: bool, attempted: int, failed: set[int], metrics: dict
) -> dict[str, Any]:
    """The result line: ``metrics`` maps a name to ``(value, unit)``."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _same_paths(base: Any, traced: Any) -> list[str]:
    """Why the traced pass did not take the untraced pass's code paths."""
    problems = []
    for key in ("batches", "batched_requests", "memo_hits"):
        if base.delta[key] != traced.delta[key]:
            problems.append(
                f"{key}: untraced {base.delta[key]} != "
                f"traced {traced.delta[key]}"
            )
    if base.ops != traced.ops or base.requests != traced.requests:
        problems.append("op counts differ")
    if len(base.values) != len(traced.values) or not all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(base.values, traced.values)
    ):
        problems.append("estimate values differ")
    return problems


def per_layer(args: argparse.Namespace, cls: Any) -> tuple[dict, dict]:
    from tracing import Tracer, instrument, phase_seconds

    workload = cls(args.seed)
    # Two passes, so each sends the ops of half the run.
    n_ops = workload.n_ops(args.seconds / 2)
    spin_before = spin_ms()
    base = timed_pass(workload, n_ops)
    workload.close()
    del workload
    gc.collect()

    tracer = Tracer()
    workload = cls(args.seed, tracer=tracer)
    tracer.spans.clear()  # the warm-up is set-up, not part of the pass
    with instrument(tracer, workload.estimator_classes()) as registry:
        traced = timed_pass(workload, n_ops, tracer)
    spin_after = spin_ms()
    failed, __ = workload.verify(traced)
    problems = _same_paths(base, traced)
    record = run_record(args, workload)
    workload.close()

    requests = traced.requests
    delta = traced.delta

    def per_request_us(seconds: float) -> float:
        return seconds * 1e6 / requests

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    wire_server_codec_s = delta["wire_decode_s"] + delta["wire_encode_s"]
    service_self_s = sum(
        tracer.self_s(name)
        for name in ("service.estimate_wire", "service.estimate")
    )
    writes = tracer.durations_s("stream.apply")
    snapshots = tracer.durations_s("stream.snapshot")
    metrics = {
        "wire.client_encode_us": (
            per_request_us(tracer.total_s("wire.encode_request")), "us"),
        "wire.client_decode_us": (
            per_request_us(tracer.total_s("wire.decode_response")), "us"),
        "wire.server_us": (
            per_request_us(tracer.total_s("service.estimate_wire")), "us"),
        "wire.server_decode_us": (
            per_request_us(delta["wire_decode_s"]), "us"),
        "wire.server_encode_us": (
            per_request_us(delta["wire_encode_s"]), "us"),
        "wire.request_bytes": (
            traced.extra.get("request_bytes", 0) / requests, "B"),
        "service.memo_hit_ratio": (delta["memo_hits"] / requests, "ratio"),
        "service.mean_batch_size": (
            delta["batched_requests"] / delta["batches"]
            if delta["batches"] else 0.0, "count"),
        "service.overhead_us": (
            per_request_us(service_self_s - wire_server_codec_s), "us"),
        "estimators.construct_us": (
            per_request_us(tracer.total_s("estimators.construct")), "us"),
        "estimators.run_us": (
            per_request_us(tracer.total_s("estimators.run")), "us"),
        "kernels.index_build_us": (
            per_request_us(phase_seconds(registry, "index_build")), "us"),
        "kernels.probe_us": (
            per_request_us(phase_seconds(registry, "probe")), "us"),
        "kernels.scale_us": (
            per_request_us(phase_seconds(registry, "scale")), "us"),
        "perf.summary_hit_ratio": (
            ratio(delta["summary_hits"], delta["summary_misses"]), "ratio"),
        "perf.index_hit_ratio": (
            ratio(delta["index_hits"], delta["index_misses"]), "ratio"),
        "perf.invalidations_per_write": (
            traced.extra.get("invalidations", 0) / len(writes)
            if writes else 0.0, "count"),
        "stream.write_p50_us": (
            statistics.median(writes) * 1e6 if writes else 0.0, "us"),
        "stream.apply_us_per_mutation": (
            sum(writes) * 1e6 / traced.extra["mutations"]
            if writes else 0.0, "us"),
        "stream.snapshot_us": (
            statistics.fmean(snapshots) * 1e6 if snapshots else 0.0, "us"),
        "runtime.gc2_count": (base.gen2_count, "count"),
        "runtime.gc2_pause_ms": (base.gen2_pause_ms, "ms"),
        "host.spin_ms": ((spin_before + spin_after) / 2, "ms"),
        "trace.overhead_ratio": (
            (traced.ops / traced.wall_s) / (base.ops / base.wall_s), "ratio"),
    }
    tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.json")
    record.update(
        {
            "ops": traced.ops,
            "requests": requests,
            "spans": len(tracer.spans),
            "host_spin_ms_before": spin_before,
            "host_spin_ms_after": spin_after,
            "gc2_count": base.gen2_count,
            "gc2_pause_ms": base.gen2_pause_ms,
            "traced_gc2_count": traced.gen2_count,
            "traced_gc2_pause_ms": traced.gen2_pause_ms,
            "error_rate": len(failed) / traced.ops,
            "path_mismatches": problems,
        }
    )
    return record, _result(
        not failed and not problems, traced.ops, failed, metrics
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"error: package source not found under {source}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    collect = per_layer if args.trace else end_to_end
    record, result = collect(args, cls)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
