"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
import socket
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import run as bench  # noqa: E402
from repro.proxy.checks import SecurityChecker  # noqa: E402
from workloads import WORKLOADS, KeyPool, Samples, Scale, make_workload  # noqa: E402

TINY = Scale(
    warm_docs=3, cold_docs=3, warm_passes=2, cold_passes=2, warm_positions_per_s=60.0,
    cold_positions_per_s=60.0, history=16, histories=2, setup_repeats=1, window_s=0.5,
    feed_statements=1,
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tamper(workload, documents) -> None:
    """Replace every element of *documents* on the replica."""
    server = workload.testbed.object_server
    for published in documents:
        elements = server.replica_for_oid(published.oid_hex).lr.state.elements
        for name, element in list(elements.items()):
            elements[name] = element.with_content(b"tampered " + element.content[:16])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path):
    result, provenance = bench.run(workload, 7, 0.2, trace, scale=TINY, out_dir=tmp_path)
    assert result["correct"], provenance
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name in names:
            assert result["metrics"][name]["value"] != 0, name
        return
    assert provenance["conservation"]["ok"], provenance["conservation"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # How the load splits across workloads.
    if workload == "versioned_writes":
        assert values["server.resources.charge_serve.us_per_call"] == 0
        assert values["storage.wal.appends_per_op"] > 0
        assert values["net.tcpnet.requests_per_op"] > 0
        assert values["net.tcpnet.connections_opened"] == 2
        assert values["versioning.deltas_verified_per_read"] > 0
    else:
        assert values["server.resources.charge_serve.us_per_call"] > 0
        assert values["storage.wal.appends_per_op"] == 0
        assert values["net.tcpnet.requests_per_op"] == 0
        assert values["net.simnet.requests_per_op"] > 0
    if workload == "browse_warm":
        assert values["crypto.rsa_verify.calls_per_op"] == 0
        assert values["proxy.pipeline.self_us_per_op"] == 0
    if workload == "browse_cold":
        assert values["crypto.rsa_verify.calls_per_op"] > 0
        assert values["revocation.check.calls_per_op"] > 0
        assert values["proxy.pipeline.self_us_per_op"] > 0


@pytest.mark.parametrize("workload", ["browse_warm", "browse_cold"])
def test_tampered_replica_is_refused_and_counted_as_failed(workload, tmp_path):
    keys = KeyPool()
    load = make_workload(workload, 3, TINY, keys, tmp_path)
    load.plan(0.1)
    load.build()
    _tamper(load, load.published)
    samples = Samples()
    for position in range(6):
        load.op(samples, position)
    assert samples.failed == samples.attempted == 6
    assert samples.mismatches == 0 and samples.ops == 0


def test_correctness_check_fires_on_wrong_bytes_served_as_200(monkeypatch, tmp_path):
    # With the proxy's element check switched off, a tampered replica
    # reaches the browser as a 200; the benchmark must still catch it.
    monkeypatch.setattr(SecurityChecker, "check_element", lambda self, *a, **k: None)
    result, provenance = bench.run(
        "browse_warm", 3, 0.2, False, scale=TINY, out_dir=tmp_path,
        tamper=lambda load: _tamper(load, load.published[:1]),
    )
    assert result["correct"] is False
    assert provenance["wrong_answers"] > 0


def test_versioned_read_digest_check_fires_on_a_wrong_digest(tmp_path):
    keys = KeyPool()
    load = make_workload("versioned_writes", 3, TINY, keys, tmp_path)
    load.plan(0.2)
    load.build()
    try:
        samples = Samples()
        bench.measure(load, samples, HostSpeed())
        assert samples.failed == 0 and len(load.records) == 1 and load.read_digests
        assert load.verify_reads() == 0
        count, _digest = load.read_digests[0]
        load.read_digests[0] = (count, "00" * 20)
        assert load.verify_reads() == 1
    finally:
        load.teardown()


def _targets():
    seen = {}
    for _name, owner, attr in layertrace.METHOD_TARGETS:
        seen[(owner, attr)] = vars(owner)[attr]
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for _name, fn, _in_definer in layertrace.FUNCTION_TARGETS:
            if fn.__name__ in vars(module):
                seen[(module, fn.__name__)] = vars(module)[fn.__name__]
    seen[(socket, "create_connection")] = socket.create_connection
    return seen


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_wrapped_function(workload, tmp_path):
    before = _targets()
    result, provenance = bench.run(workload, 5, 0.2, True, scale=TINY, out_dir=tmp_path)
    assert result["correct"] and provenance["conservation"]["unrestored"] == []
    after = _targets()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    spans = [
        json.loads(line)["name"]
        for line in (tmp_path / f"spans-{workload}-seed5.jsonl").read_text().splitlines()
    ]
    assert spans.count("net.rpc.server") > 0
    if workload == "versioned_writes":
        # Every request reached a wrapped server, in every history
        # (each history runs on freshly built servers).
        assert spans.count("net.rpc.server") == spans.count("net.tcpnet.request")


def test_best_keeps_each_positions_lowest_value():
    from workloads import best

    assert best({2: [0.5, 0.25], 0: [3.0], 1: [2.0, 1.0, 4.0]}) == [3.0, 1.0, 0.25]


def test_every_pass_replays_the_same_positions(tmp_path):
    keys = KeyPool()
    load = make_workload("browse_warm", 4, TINY, keys, tmp_path)
    load.plan(0.2)
    load.build()
    samples = Samples()
    bench.measure(load, samples, HostSpeed())
    assert load.passes == TINY.warm_passes
    assert sorted(samples.op_wall) == list(range(load.positions))
    assert all(len(times) == load.passes for times in samples.call_wall.values())
    assert samples.attempted == load.passes * load.positions


def test_warm_trace_has_the_same_size_mix_for_every_seed(tmp_path):
    keys = KeyPool()
    mixes = []
    for seed in (1, 2):
        load = make_workload("browse_warm", seed, Scale(), keys, tmp_path)
        load.plan(14)
        mixes.append(sorted(load.trace))
    assert mixes[0] == mixes[1] and len(mixes[0]) == 14 * Scale().warm_positions_per_s


def test_host_speed_scales_real_times_and_nothing_else(tmp_path):
    result, provenance = bench.run("browse_cold", 2, 0.2, False, scale=TINY, out_dir=tmp_path)
    factor = provenance["host_speed"]["factor"]
    assert provenance["host_speed"]["probes"] >= 1 and factor > 0
    for name, measured in provenance["measured"].items():
        scaled = result["metrics"][name]["value"]
        expected = measured / factor if name in bench.REAL_RATES else measured * factor
        assert scaled == pytest.approx(expected)
    assert set(provenance["measured"]) == set(bench.REAL_TIMES + bench.REAL_RATES)
