"""Schemas for the ``BENCH_*.json`` bench-report artifacts.

``bench_runner`` validates each report against these specs before
writing it, and ``tests/test_bench_schema.py`` validates the checked-in
artifacts, so a drive-by change to a report's shape fails fast on both
sides instead of silently breaking downstream consumers (the CI identity
gates and the obs-report tooling parse these files).

Dependency-free on purpose: the container has no ``jsonschema``, so the
spec language is a small recursive structure —

* a type or tuple of types — a leaf value (``float`` accepts ints);
* :class:`Spec` — a mapping with ``required``/``optional`` fields and an
  optional ``values`` sub-spec that every *other* value must match;
* :func:`nullable` — the wrapped spec, or ``None``.

Unknown keys are allowed (reports may grow), missing required keys and
wrong types are errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "BenchSchemaError",
    "Spec",
    "nullable",
    "KERNELS_SCHEMA",
    "OPTIMIZER_SCHEMA",
    "ROUTER_SCHEMA",
    "SAMPLING_SCHEMA",
    "SERVICE_SCHEMA",
    "STREAM_SCHEMA",
    "SCHEMAS",
    "schema_kind_for_path",
    "validate_bench_report",
    "validate_bench_file",
]


class BenchSchemaError(ValueError):
    """A bench report does not match its schema."""


@dataclass(frozen=True)
class Spec:
    """Shape of one JSON object."""

    required: Mapping[str, Any] = field(default_factory=dict)
    optional: Mapping[str, Any] = field(default_factory=dict)
    #: When set, every key not named in required/optional must match.
    values: Any = None


@dataclass(frozen=True)
class _Nullable:
    spec: Any


def nullable(spec: Any) -> _Nullable:
    return _Nullable(spec)


#: Leaf helper: JSON numbers arrive as int or float interchangeably.
NUMBER = (int, float)


def _check(value: Any, spec: Any, path: str) -> None:
    if isinstance(spec, _Nullable):
        if value is None:
            return
        _check(value, spec.spec, path)
        return
    if isinstance(spec, Spec):
        if not isinstance(value, dict):
            raise BenchSchemaError(
                f"{path}: expected object, got {type(value).__name__}"
            )
        for key, sub in spec.required.items():
            if key not in value:
                raise BenchSchemaError(f"{path}: missing required key {key!r}")
            _check(value[key], sub, f"{path}.{key}")
        for key, sub in spec.optional.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
        if spec.values is not None:
            known = set(spec.required) | set(spec.optional)
            for key, sub in value.items():
                if key not in known:
                    _check(sub, spec.values, f"{path}.{key}")
        return
    if isinstance(spec, list):  # homogeneous array, spec is [item_spec]
        if not isinstance(value, list):
            raise BenchSchemaError(
                f"{path}: expected array, got {type(value).__name__}"
            )
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]")
        return
    # Leaf: type or tuple of types.  bool is an int subclass in Python;
    # reject it where a number is expected.
    if not isinstance(value, spec) or (
        spec in (int, float, NUMBER)
        and isinstance(value, bool)
    ):
        expected = getattr(spec, "__name__", None) or "/".join(
            t.__name__ for t in spec
        )
        raise BenchSchemaError(
            f"{path}: expected {expected}, got {type(value).__name__} "
            f"({value!r})"
        )


_KERNEL_TIMING = Spec(
    required={
        "reference_s": NUMBER,
        "vectorized_s": NUMBER,
        "speedup": NUMBER,
    }
)

_BATCH_TIMING = Spec(
    required={
        "trials": int,
        "reference_s": NUMBER,
        "batched_s": NUMBER,
        "speedup": NUMBER,
        "identical": bool,
    }
)

_SWEEP_TIMING = Spec(
    required={
        "runs": int,
        "reference_s": NUMBER,
        "batched_s": NUMBER,
        "speedup": NUMBER,
        "identical_series": bool,
    },
    optional={"index_cache": dict},
)

#: Shared body of the sampling phase (embedded in the kernels report and
#: written standalone as BENCH_sampling.json).
_SAMPLING_BODY = {
    "backends": Spec(values=_BATCH_TIMING),
    "fig8_sweep": Spec(values=_SWEEP_TIMING),
    "identical": bool,
    "speedup": NUMBER,
}

SAMPLING_SCHEMA = Spec(
    required={"mode": str, **_SAMPLING_BODY},
    optional={"scale": NUMBER},
)

#: The wire-codec phase: JSON versus zero-copy binary encode/decode over
#: one round of distinct trace requests.  ``roundtrip_identical`` is a
#: hard gate; the decode speedup is the binary format's headline.
_WIRE_PHASE = Spec(
    required={
        "requests": int,
        "trials": int,
        "json_encode_s": NUMBER,
        "json_decode_s": NUMBER,
        "binary_encode_s": NUMBER,
        "binary_decode_s": NUMBER,
        "json_bytes": int,
        "binary_bytes": int,
        "encode_speedup": NUMBER,
        "decode_speedup": NUMBER,
        "roundtrip_identical": bool,
    }
)

SERVICE_SCHEMA = Spec(
    required={
        "bench": str,
        "dataset": str,
        "scale": NUMBER,
        "method": str,
        "workers": int,
        "max_batch": int,
        "repeats": int,
        "distinct_configs": int,
        "throughput": dict,
        "deadline": Spec(required={"latency_p99_s": NUMBER}),
        "stress": dict,
        "workload_speedup": NUMBER,
    },
    optional={
        "batching": dict,
        "batching_speedup": NUMBER,
        # Older artifacts predate the wire codec phase.
        "wire": _WIRE_PHASE,
    },
)

KERNELS_SCHEMA = Spec(
    required={
        "mode": str,
        "scale": NUMBER,
        "kernels": Spec(values=_KERNEL_TIMING),
        "fig7_sweep": Spec(
            required={
                "scale": NUMBER,
                "bucket_counts": [int],
                "reference_s": NUMBER,
                "vectorized_s": NUMBER,
                "vectorized_cached_s": NUMBER,
                "speedup": NUMBER,
            },
            optional={"identical_output": bool},
        ),
        "sampling": Spec(
            required=dict(_SAMPLING_BODY), optional={"scale": NUMBER}
        ),
        "obs_overhead": Spec(
            required={
                "baseline_s": NUMBER,
                "observed_s": NUMBER,
                "overhead_pct": NUMBER,
                "estimator_calls": int,
                "cache_lookups": int,
            }
        ),
        "parallel": nullable(dict),
        "metrics": dict,
    },
    # Older artifacts predate the service and fused-kernel phases.
    optional={
        "service": SERVICE_SCHEMA,
        "fused": Spec(
            required={
                "kernel_backend": str,
                "kernels": Spec(
                    values=Spec(
                        required={
                            "trials": int,
                            "batched_s": NUMBER,
                            "fused_s": NUMBER,
                            "speedup": NUMBER,
                            "identical": bool,
                        }
                    )
                ),
                "identical": bool,
                "speedup": NUMBER,
            },
            optional={"available_backends": [str]},
        ),
    },
)

#: One generator's plan for one chain of the regret sweep.
_PLAN_RESULT = Spec(
    required={
        "plan": str,
        "true_cost": NUMBER,
        "estimated_cost": NUMBER,
        "regret": NUMBER,
        "underestimated_segments": int,
    }
)

_CHAIN_ROW = Spec(
    required={
        "dataset": str,
        "tags": [str],
        "optimal_cost": NUMBER,
        "plans": Spec(values=_PLAN_RESULT),
    }
)

_GENERATOR_SUMMARY = Spec(
    required={
        "describe": dict,
        "chains": int,
        "mean_regret": NUMBER,
        "max_regret": NUMBER,
        "optimal_plans": int,
        "underestimated_segments": int,
    }
)

#: The plan-regret sweep: every cardinality generator through the chain
#: planner over the XMark/DBLP/XMach workloads.  The CI gates require
#: the EXACT generator's regret to be 0 on every chain and the UBOUND
#: generator to report zero underestimated segments.
OPTIMIZER_SCHEMA = Spec(
    required={
        "bench": str,
        "schema_version": int,
        "scale": NUMBER,
        "seed": int,
        "datasets": [str],
        "generators": Spec(values=_GENERATOR_SUMMARY),
        "chains": [_CHAIN_ROW],
    },
    optional={"elapsed_s": NUMBER},
)

#: One dataset's routing trace in the router bench.
_ROUTER_DATASET_ROW = Spec(
    required={
        "dataset": str,
        "queries": int,
        "rounds": int,
        "warmup_rounds": int,
        "candidates": Spec(values=dict),
        "router_loss": NUMBER,
        "router_loss_gated": NUMBER,
        "fixed_loss": Spec(values=NUMBER),
        "fixed_loss_gated": Spec(values=NUMBER),
        "best_fixed": str,
        "regret_ratio": NUMBER,
        "regret_ratio_total": NUMBER,
        "arm_pulls": Spec(values=int),
    }
)

_CORRECTION_CELL = Spec(
    required={
        "cell": str,
        "records": int,
        "mre_before": NUMBER,
        "mre_after": NUMBER,
        "fitted": bool,
        "reduction_pct": NUMBER,
    }
)

#: The closed-loop bench: bandit routing regret against the best fixed
#: method on the Table 3 traces, plus the correction model's held-out
#: MRE reduction.  The CI gates require ``total.regret_ratio`` at or
#: under the fixed budget (1.15), ``correction.worsened == 0`` and
#: ``correction.max_reduction_pct`` at or above 10.
ROUTER_SCHEMA = Spec(
    required={
        "bench": str,
        "schema_version": int,
        "scale": NUMBER,
        "seed": int,
        "rounds": int,
        "datasets": [str],
        "router": dict,
        "per_dataset": [_ROUTER_DATASET_ROW],
        "total": Spec(
            required={
                "router_loss": NUMBER,
                "router_loss_gated": NUMBER,
                "best_fixed_loss": NUMBER,
                "best_fixed_loss_gated": NUMBER,
                "regret_ratio": NUMBER,
                "regret_ratio_total": NUMBER,
            }
        ),
        "correction": Spec(
            required={
                "mode": str,
                "per_method": bool,
                "holdout": NUMBER,
                "cells": int,
                "fitted": int,
                "worsened": int,
                "max_reduction_pct": NUMBER,
                "top_cells": [_CORRECTION_CELL],
            }
        ),
        "feedback": Spec(
            required={"records": int, "with_truth": int, "classes": int}
        ),
    },
    optional={"elapsed_s": NUMBER},
)

#: The streaming churn bench: incremental maintenance throughput versus
#: per-batch rebuilds (gated at >= 5x with ``identical`` true), read
#: latency and staleness disclosure under mixed load (violation rate
#: gated at <= 1%), and cross-tenant cache isolation (gated at zero
#: cross-tenant invalidations).
STREAM_SCHEMA = Spec(
    required={
        "bench": str,
        "schema_version": int,
        "dataset": str,
        "scale": NUMBER,
        "seed": int,
        "pool_size": int,
        "tags": int,
        "read_tags": [str],
        "num_buckets": int,
        "num_cells": int,
        "update": Spec(
            required={
                "batches": int,
                "batch_size": int,
                "mutations": int,
                "incremental_s": NUMBER,
                "rebuild_s": NUMBER,
                "speedup": NUMBER,
                "incremental_mutations_per_s": NUMBER,
                "rebuild_mutations_per_s": NUMBER,
                "identical": bool,
            }
        ),
        "serving": Spec(
            required={
                "requests": int,
                "writes_per_read": int,
                "max_staleness_s": NUMBER,
                "ok": int,
                "degraded": int,
                "stale_degraded": int,
                "latency_p50_s": NUMBER,
                "latency_p99_s": NUMBER,
                "staleness_p99_s": NUMBER,
                "violations": int,
                "violation_rate": NUMBER,
            }
        ),
        "isolation": Spec(
            required={
                "tenants": int,
                "churn_batches": int,
                "batch_size": int,
                "victim_entries_before": int,
                "victim_entries_after": int,
                "cross_tenant_invalidations": int,
                "churner_invalidations": int,
                "victim_served_from_cache": bool,
                "victim_value_stable": bool,
            }
        ),
    },
    optional={"elapsed_s": NUMBER},
)

SCHEMAS: dict[str, Spec] = {
    "kernels": KERNELS_SCHEMA,
    "optimizer": OPTIMIZER_SCHEMA,
    "router": ROUTER_SCHEMA,
    "sampling": SAMPLING_SCHEMA,
    "service": SERVICE_SCHEMA,
    "stream": STREAM_SCHEMA,
}


def schema_kind_for_path(path: str | Path) -> str:
    """Map ``BENCH_<kind>.json`` (any directory) to its schema kind."""
    stem = Path(path).stem
    if not stem.startswith("BENCH_"):
        raise BenchSchemaError(f"{path}: not a BENCH_*.json artifact")
    kind = stem[len("BENCH_"):]
    if kind not in SCHEMAS:
        raise BenchSchemaError(
            f"{path}: unknown bench report kind {kind!r} "
            f"(expected one of {sorted(SCHEMAS)})"
        )
    return kind


def validate_bench_report(data: Any, kind: str) -> None:
    """Raise :class:`BenchSchemaError` unless ``data`` matches ``kind``."""
    if kind not in SCHEMAS:
        raise BenchSchemaError(
            f"unknown bench report kind {kind!r} "
            f"(expected one of {sorted(SCHEMAS)})"
        )
    _check(data, SCHEMAS[kind], kind)


def validate_bench_file(path: str | Path) -> str:
    """Validate a BENCH_*.json file; returns the detected kind."""
    import json

    kind = schema_kind_for_path(path)
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    validate_bench_report(data, kind)
    return kind
