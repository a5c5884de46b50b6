"""The benchmark's two workloads.

Every workload is a closed loop with one client thread in one process:
the client sends its next call only after the previous one returned.
The service runs embedded (``workers=0``, ``processes=0``), so on a
small host the numbers measure the program, not the thread scheduler.
None of them supports a queueing claim.

Each workload is built in three steps, and only the second is timed:

1. ``__init__`` is the set-up: data generation, live bootstrap, service
   start and a warm-up pass.
2. ``run(n_ops, tracer)`` sends a fixed number of client ops, the
   first ``n_ops`` of a seeded, endless op stream, so op counts and
   estimate values repeat exactly for one seed.
3. ``verify(result)`` re-derives the answers outside the timed window
   and returns the ops that fail their check plus the relative errors
   of the estimates it scored against the exact join size.

Method mixes use PL, IM and PM at the paper's bucket and sample
settings (space budgets of 200/400/800 bytes give PL 10/20/40 buckets
and the samplers 25/50/100 samples).  PH is left out: at 25 cells its
error on Q6-Q8 is so large that a mean including it measures PH alone.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from tracing import NullTracer, Tracer, timing_factory

import repro.api as api
from repro.core.nodeset import NodeSet
from repro.datasets import generate_xmark
from repro.datasets.workloads import xmark_queries
from repro.estimators.registry import make_estimator
from repro.join.size import containment_join_size
from repro.service import wire
from repro.service.engine import EstimationService
from repro.service.request import EstimateRequest
from repro.stream.feed import MutationBatch, MutationFeed
from repro.stream.live import LiveWorkspace

_perf = time.perf_counter

PL_BUCKETS = (10, 20, 40)
SAMPLES = (25, 50, 100)
#: Seeds below this are reserved for warm-up passes, so no timed
#: request ever repeats a warm-up request.
_WARM_SEEDS = 1 << 20
#: The XMark document is a fixture, generated with this seed at each
#: workload's scale; ``--seed`` drives the request stream and the
#: mutation feed.  Host speed already varies run to run, and a document
#: that changed with the seed would add its size to that spread.
DOCUMENT_SEED = 42


@dataclass
class PassResult:
    """What one timed pass recorded; checked by ``verify`` afterwards."""

    ops: int = 0
    wall_s: float = 0.0
    #: The latency metric's population (reads only on live-churn).
    latency_s: list[float] = field(default_factory=list)
    #: Op indices that raised or answered with a status other than "ok".
    failed: set[int] = field(default_factory=set)
    #: Estimation requests sent.
    requests: int = 0
    #: Answered estimate values in request order.
    values: list[float] = field(default_factory=list)
    #: Service counters before the pass, and their change over it.
    before: dict[str, float] = field(default_factory=dict)
    delta: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


def _xmark_inputs(scale: float) -> tuple[Any, Any, list]:
    dataset = generate_xmark(scale=scale, seed=DOCUMENT_SEED)
    queries = [query.operands(dataset) for query in xmark_queries()]
    return dataset, dataset.tree.workspace(), queries


def _freeze_inputs() -> None:
    """Move the generated inputs out of the collector's reach.

    The XMark document is held as Python objects only because the
    benchmark generates it in-process; freezing it keeps gen2 pauses a
    measure of what the program allocates, not of the input's size.
    """
    gc.collect()
    gc.freeze()


def _counters(service: EstimationService) -> dict[str, float]:
    """The service's cumulative counters; a pass reports their change,
    so set-up and warm-up traffic never leaks into its numbers."""
    metrics = service.metrics
    summary = service.summary_cache.stats()
    index = service.index_cache.stats()
    batch = metrics.histogram("service.batch_size")
    return {
        "summary_hits": summary["hits"],
        "summary_misses": summary["misses"],
        "index_hits": index["hits"],
        "index_misses": index["misses"],
        "memo_hits": metrics.counter("service.memo_hits").value,
        "batches": batch.count,
        "batched_requests": batch.sum,
        "wire_decode_s": metrics.histogram("service.wire_decode_s").sum,
        "wire_encode_s": metrics.histogram("service.wire_encode_s").sum,
    }


def _close_pass(result: PassResult, service: EstimationService) -> None:
    after = _counters(service)
    result.delta = {k: after[k] - result.before[k] for k in after}


class Workload:
    name = ""
    #: Nominal client ops per second on the reference host; a run sends
    #: ``rate * seconds`` ops, a count fixed before it starts.
    rate = 1.0
    scale = 0.0

    service: EstimationService

    def close(self) -> None:
        self.service.close()
        gc.unfreeze()

    def n_ops(self, seconds: float) -> int:
        return max(1, int(round(self.rate * seconds)))

    def estimator_classes(self) -> list[type]:
        return [
            type(make_estimator("PL", num_buckets=PL_BUCKETS[0])),
            type(make_estimator("IM", num_samples=SAMPLES[0], seed=0)),
            type(make_estimator("PM", num_samples=SAMPLES[0], seed=0)),
        ]


class RemotePlan(Workload):
    """A remote optimizer costing candidate plans over the binary wire."""

    name = "remote-plan"
    rate = 1600.0
    scale = 0.4
    #: Each session asks every configuration this many times with the
    #: same pinned seeds; a new session pins new seeds.  With PL always
    #: memoized by the warm-up, the memo answers 1 - 1/3 of the sampling
    #: requests and every PL request.
    repeats = 3

    def __init__(
        self,
        seed: int,
        tracer: Tracer | NullTracer = NullTracer(),
    ) -> None:
        self.seed = seed
        self.dataset, self.workspace, self.queries = _xmark_inputs(
            self.scale
        )
        _freeze_inputs()
        self.configs = [
            (qi, "PL", {"num_buckets": b})
            for qi in range(len(self.queries))
            for b in PL_BUCKETS
        ] + [
            (qi, method, {"num_samples": n})
            for qi in range(len(self.queries))
            for method in ("IM", "PM")
            for n in SAMPLES
        ]
        self.service = EstimationService(
            workers=0, processes=0, estimator_factory=timing_factory(tracer)
        )
        warm = np.random.default_rng([seed, 1])
        for qi, method, config in self.configs:
            if method != "PL":
                config = {**config, "seed": int(warm.integers(1, _WARM_SEEDS))}
            a, d = self.queries[qi]
            payload = wire.encode_request(
                EstimateRequest(
                    ancestors=a,
                    descendants=d,
                    method=method,
                    workspace=self.workspace,
                    config=config,
                )
            )
            wire.decode_response(self.service.estimate_wire(payload))

    def op_stream(self) -> Iterator[tuple[int, str, dict, str]]:
        """The seeded, endless ``(query, method, config, request_id)``
        stream, session by session."""
        rng = np.random.default_rng([self.seed, 2])
        sent = 0
        session = 0
        while True:
            pinned = [
                config
                if method == "PL"
                else {
                    **config,
                    "seed": int(rng.integers(_WARM_SEEDS, 1 << 62)),
                }
                for __, method, config in self.configs
            ]
            for __ in range(self.repeats):
                for index in rng.permutation(len(self.configs)):
                    qi, method, __ = self.configs[index]
                    yield qi, method, pinned[index], f"s{session}-{sent}"
                    sent += 1
            session += 1

    def run(
        self, n_ops: int, tracer: Tracer | NullTracer = NullTracer()
    ) -> PassResult:
        result = PassResult(ops=n_ops, requests=n_ops)
        result.before = _counters(self.service)
        encode = tracer.wrap("wire.encode_request", wire.encode_request)
        serve = tracer.wrap(
            "service.estimate_wire", self.service.estimate_wire
        )
        decode = tracer.wrap("wire.decode_response", wire.decode_response)
        queries, workspace = self.queries, self.workspace
        latency_s = result.latency_s
        request_bytes = 0
        #: Per answered op: status "ok" and the request id echoed.
        echoed: list[bool] = []
        ops = self.op_stream()
        start_all = _perf()
        for i in range(n_ops):
            qi, method, config, rid = next(ops)
            tracer.op = i
            a, d = queries[qi]
            start = _perf()
            try:
                request = EstimateRequest(
                    ancestors=a,
                    descendants=d,
                    method=method,
                    workspace=workspace,
                    config=config,
                    request_id=rid,
                )
                payload = encode(request)
                response = decode(serve(payload))
            except Exception:
                latency_s.append(_perf() - start)
                result.failed.add(i)
                result.values.append(float("nan"))
                echoed.append(False)
                continue
            latency_s.append(_perf() - start)
            request_bytes += len(payload)
            echoed.append(
                response.status == "ok" and response.request_id == rid
            )
            result.values.append(response.estimate.value)
        result.wall_s = _perf() - start_all
        _close_pass(result, self.service)
        result.extra = {"echoed": echoed, "request_bytes": request_bytes}
        return result

    def verify(self, result: PassResult) -> tuple[set[int], list[float]]:
        """Re-answer every op directly through ``api.estimate``."""
        failed = set(result.failed)
        exact = [containment_join_size(a, d) for a, d in self.queries]
        direct: dict[tuple, float] = {}
        errors: list[float] = []
        for i, ((qi, method, config, __), value, echoed) in enumerate(
            zip(self.op_stream(), result.values, result.extra["echoed"])
        ):
            if i in result.failed:
                continue
            key = (qi, method, tuple(sorted(config.items())))
            if key not in direct:
                a, d = self.queries[qi]
                direct[key] = api.estimate(
                    a, d, method, workspace=self.workspace, **config
                ).value
            if not echoed or value != direct[key]:
                failed.add(i)
            errors.append(abs(value - exact[qi]) / exact[qi])
        return failed, errors


class LiveChurn(Workload):
    """Writes beside reads on a continuously mutating document."""

    name = "live-churn"
    rate = 800.0
    scale = 0.2
    batch_size = 20
    reads_per_write = 4
    num_buckets = 20
    num_samples = 50
    max_staleness_s = 0.25

    def __init__(
        self,
        seed: int,
        tracer: Tracer | NullTracer = NullTracer(),
    ) -> None:
        self.seed = seed
        dataset = generate_xmark(scale=self.scale, seed=DOCUMENT_SEED)
        self.pool = list(dataset.tree.elements)
        self.workspace = dataset.tree.workspace()
        self.pairs = [(q.ancestor, q.descendant) for q in xmark_queries()]
        del dataset
        _freeze_inputs()
        self.feed = self._feed()
        self.live = LiveWorkspace(
            self.workspace,
            elements=self.feed.bootstrap(),
            num_buckets=self.num_buckets,
            seed=seed,
        )
        self.service = EstimationService(
            live=self.live,
            workers=0,
            processes=0,
            estimator_factory=timing_factory(tracer),
        )
        warm_seed = iter(range(1, _WARM_SEEDS))
        for a, d in self.pairs:
            for method, config in (
                ("PL", {"num_buckets": self.num_buckets}),
                ("IM", {"num_samples": self.num_samples,
                        "seed": next(warm_seed)}),
            ):
                self.service.estimate(
                    a, d, method, max_staleness_s=self.max_staleness_s,
                    **config,
                )

    #: Share of cycles whose reads ``verify`` re-answers on an
    #: independently replayed population; every read's status, sequence
    #: number and staleness are checked regardless.
    checked_share = 0.1

    def _feed(self) -> MutationFeed:
        # Equal insert and delete odds keep the live population's
        # expected size constant, so per-op cost does not drift with
        # the length of the run.
        return MutationFeed(self.pool, seed=self.seed, weights=(1, 1, 1))

    def n_ops(self, seconds: float) -> int:
        cycle = 1 + self.reads_per_write
        return cycle * max(1, int(round(self.rate * seconds / cycle)))

    def cycle_stream(
        self, feed: MutationFeed
    ) -> Iterator[tuple[MutationBatch, list]]:
        """The seeded, endless ``(write batch, reads)`` stream; each read
        is ``(ancestor tag, descendant tag, method, config)``."""
        rng = np.random.default_rng([self.seed, 2])
        seeds = iter(range(int(rng.integers(_WARM_SEEDS, 1 << 40)), 1 << 62))
        while True:
            reads = []
            for r in range(self.reads_per_write):
                a, d = self.pairs[int(rng.integers(0, len(self.pairs)))]
                if r % 2 == 0:
                    reads.append(
                        (a, d, "PL", {"num_buckets": self.num_buckets})
                    )
                else:
                    reads.append(
                        (a, d, "IM", {"num_samples": self.num_samples,
                                      "seed": next(seeds)})
                    )
            yield feed.next_batch(self.batch_size), reads

    def run(
        self, n_ops: int, tracer: Tracer | NullTracer = NullTracer()
    ) -> PassResult:
        """Cycles of one write then its reads; ``n_ops`` counts both and
        is rounded down to whole cycles."""
        n_cycles = n_ops // (1 + self.reads_per_write)
        result = PassResult(
            ops=n_cycles * (1 + self.reads_per_write),
            requests=n_cycles * self.reads_per_write,
        )
        result.before = _counters(self.service)
        live = self.live
        invalidated_before = live.invalidated_entries
        seq_before = live.applied_seq
        if tracer.enabled:
            live.snapshot = tracer.wrap("stream.snapshot", live.snapshot)
        apply = tracer.wrap("stream.apply", live.apply)
        estimate = tracer.wrap("service.estimate", self.service.estimate)
        bound = self.max_staleness_s
        latency_s = result.latency_s
        write_seqs: list[int | None] = []
        reads: list[tuple[str, int | None, float | None]] = []
        cycles = self.cycle_stream(self.feed)
        op = 0
        start_all = _perf()
        for __ in range(n_cycles):
            batch, cycle_reads = next(cycles)
            tracer.op = op
            try:
                write_seqs.append(apply(batch))
            except Exception:
                write_seqs.append(None)
                result.failed.add(op)
            op += 1
            for a, d, method, config in cycle_reads:
                tracer.op = op
                start = _perf()
                try:
                    response = estimate(
                        a, d, method, max_staleness_s=bound, **config
                    )
                except Exception:
                    response = None
                latency_s.append(_perf() - start)
                if response is None:
                    result.failed.add(op)
                    reads.append(("error", None, None))
                    result.values.append(float("nan"))
                else:
                    reads.append(
                        (response.status, response.applied_seq,
                         response.staleness_s)
                    )
                    result.values.append(response.estimate.value)
                op += 1
        result.wall_s = _perf() - start_all
        if tracer.enabled:
            del live.snapshot
        _close_pass(result, self.service)
        result.extra = {
            "reads": reads,
            "write_seqs": write_seqs,
            "seq_before": seq_before,
            "invalidations": live.invalidated_entries - invalidated_before,
            "mutations": len(write_seqs) * self.batch_size,
        }
        return result

    def verify(self, result: PassResult) -> tuple[set[int], list[float]]:
        """Replay the seeded feed on plain per-tag dictionaries, without
        the incremental maintenance code, and check every write's
        sequence number and every read's status, sequence number and
        staleness; the reads of a seeded share of the cycles are also
        re-answered by ``api.estimate`` on node sets built from scratch
        from the replayed population."""
        failed = set(result.failed)
        errors: list[float] = []
        feed = self._feed()
        #: tag -> {start: end} of the live elements.
        population: dict[str, dict[int, int]] = {}
        for element in feed.bootstrap():
            population.setdefault(element.tag, {})[element.start] = element.end
        chosen = np.random.default_rng([self.seed, 3])
        #: Node sets of the current cycle, built on first use.
        built: dict[str, NodeSet] = {}

        def node_set(tag: str) -> NodeSet:
            if tag not in built:
                live = population.get(tag, {})
                starts = sorted(live)
                built[tag] = NodeSet.from_arrays(
                    np.array(starts, dtype=np.int64),
                    np.array([live[s] for s in starts], dtype=np.int64),
                    name=tag,
                )
            return built[tag]

        reads = iter(zip(result.extra["reads"], result.values))
        op = 0
        for cycle, ((batch, cycle_reads), write_seq) in enumerate(
            zip(self.cycle_stream(feed), result.extra["write_seqs"])
        ):
            for mutation in batch.mutations:
                element = mutation.element
                if mutation.op != "insert":
                    del population[element.tag][element.start]
                if mutation.op != "delete":
                    added = mutation.replacement or element
                    population.setdefault(added.tag, {})[added.start] = (
                        added.end
                    )
            want_seq = result.extra["seq_before"] + cycle + 1
            if write_seq != want_seq:
                failed.add(op)
            op += 1
            check_values = (
                chosen.random() < self.checked_share or cycle == 0
            )
            built.clear()
            for a, d, method, config in cycle_reads:
                (status, applied_seq, staleness), value = next(reads)
                if (
                    status != "ok"
                    or applied_seq != want_seq
                    or staleness is None
                    or staleness > self.max_staleness_s
                ):
                    failed.add(op)
                elif check_values:
                    sa, sd = node_set(a), node_set(d)
                    if value != api.estimate(sa, sd, method, **config).value:
                        failed.add(op)
                    exact = containment_join_size(sa, sd)
                    if exact:
                        errors.append(abs(value - exact) / exact)
                op += 1
        return failed, errors


WORKLOADS = {w.name: w for w in (RemotePlan, LiveChurn)}
