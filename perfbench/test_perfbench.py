"""Self-test of the benchmark: a tiny-size run of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs on a small XMark document for a fraction of a second,
untraced and traced, and the test checks the contract the full-size runs
rely on: every metric named in ``BENCHMARK.json`` is present, finite and
carries its unit; no op fails; ``rel_error_mean`` and the op count
repeat exactly for one seed; and the traced pass took the untraced
pass's code paths.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SCALE = {"remote-plan": 0.02, "live-churn": 0.02}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, monkeypatch):
    name = request.param
    monkeypatch.setattr(WORKLOADS[name], "scale", TINY_SCALE[name])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return name


def _run(capsys, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.2",
            "--trace", str(trace),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, json.loads(lines[-2])["run_record"]


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_end_to_end(capsys, workload):
    first, record = _run(capsys, workload, seed=3, trace=0)
    _check_metrics(first, SPEC["end_to_end"])
    assert first["correct"] and first["failed"] == 0
    assert record["error_rate"] == 0
    assert all(m["value"] > 0 for m in first["metrics"].values())

    again, __ = _run(capsys, workload, seed=3, trace=0)
    assert again["attempted"] == first["attempted"]
    assert (
        again["metrics"]["rel_error_mean"]["value"]
        == first["metrics"]["rel_error_mean"]["value"]
    )

    other, __ = _run(capsys, workload, seed=4, trace=0)
    assert (
        other["metrics"]["rel_error_mean"]["value"]
        != first["metrics"]["rel_error_mean"]["value"]
    )


def test_traced_pass_takes_the_same_paths(capsys, workload):
    result, record = _run(capsys, workload, seed=3, trace=1)
    _check_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert record["path_mismatches"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["estimators.run_us"] > 0
    assert 0 < metrics["trace.overhead_ratio"]
    if workload == "remote-plan":
        assert metrics["wire.client_encode_us"] > 0
        assert metrics["service.memo_hit_ratio"] > 0
    if workload == "live-churn":
        assert metrics["stream.apply_us_per_mutation"] > 0
        assert metrics["stream.snapshot_us"] > 0
