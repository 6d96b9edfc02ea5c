"""The benchmark's own tests: its checks catch bad outputs, its digest
catches a changed simulated number, and what it prints matches
``BENCHMARK.json``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from fabric import delivered_matches_split  # noqa: E402
import harness  # noqa: E402
from harness import Outcome, Recorder, attribute, layer_shares, sim_digest  # noqa: E402
from run import WORKLOAD_NAMES, _workloads  # noqa: E402
from serve import backlog_growing, served_all  # noqa: E402
from train import forward_matches, update_matches  # noqa: E402

from repro import DistributedEmbedding, SyntheticDataGenerator, WorkloadConfig  # noqa: E402
from repro.core.backward import (  # noqa: E402
    baseline_functional_backward,
    pgas_functional_backward,
    reference_backward,
)
from repro.core.functional import reference_forward  # noqa: E402
from repro.dlrm.embedding import EmbeddingBagCollection, EmbeddingTable  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json and the metric catalogue
# ---------------------------------------------------------------------------


def test_benchmark_json_mirrors_the_catalogue():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] \
        == [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [tuple(row) for row in metrics.PER_LAYER]
    workloads = _workloads()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads[w["name"]].why


def test_every_per_layer_metric_names_its_targets():
    known = {row[0] for row in metrics.END_TO_END} | set(metrics.REPORT_ONLY)
    assert set(metrics.LAYER_TARGETS) == {row[0] for row in metrics.PER_LAYER}
    for name, (targets, workload) in metrics.LAYER_TARGETS.items():
        assert set(targets.split(",")) <= known, name
        assert workload in WORKLOAD_NAMES + ("all",), name


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_tampered_byte_count_is_detected():
    split = np.array([[0.0, 512.0], [1024.0, 0.0]])
    assert delivered_matches_split(1536.0, split)
    assert not delivered_matches_split(1536.0 + 256.0, split)
    assert not delivered_matches_split(1536.0 - 1.0, split)


@pytest.fixture(scope="module")
def small_embedding():
    cfg = WorkloadConfig(num_tables=4, rows_per_table=64, dim=8, batch_size=16,
                         max_pooling=6, seed=3)
    emb = DistributedEmbedding(cfg, 2, materialize=True, rng=np.random.default_rng(3))
    batch = SyntheticDataGenerator(cfg).sparse_batch()
    tables = {t.name: t for ts in emb.sharded.per_device for t in ts}
    live = EmbeddingBagCollection([tables[n] for n in cfg.feature_names])
    return SimpleNamespace(cfg=cfg, emb=emb, batch=batch, live=live)


def test_tampered_forward_output_is_detected(small_embedding):
    s = small_embedding
    reference = reference_forward(s.live, s.batch)
    for be in metrics.BACKENDS:
        outputs = s.emb.forward(s.batch, backend=be).outputs
        assert forward_matches(outputs, reference)
        outputs[1][0, 0, 0] = np.nextafter(outputs[1][0, 0, 0], np.float32(1))
        assert not forward_matches(outputs, reference)


@pytest.mark.parametrize("be, update", [
    ("baseline", baseline_functional_backward),
    ("pgas", pgas_functional_backward),
])
def test_tampered_update_is_detected(small_embedding, be, update):
    s = small_embedding
    B, F, d = s.cfg.batch_size, s.cfg.num_tables, s.cfg.dim
    grads = np.random.default_rng(4).standard_normal((B, F, d)).astype(np.float32)
    names = s.cfg.feature_names
    want = [EmbeddingTable(s.live.table(n).config, weights=s.live.table(n).weights.copy())
            for n in names]
    reference_backward(want, s.batch, grads, lr=0.05)
    before = [s.live.table(n).weights.copy() for n in names]
    update(s.emb.sharded, s.batch, [grads[:B // 2], grads[B // 2:]], lr=0.05)
    got = [s.live.table(n) for n in names]
    try:
        assert update_matches(be, got, want)
        got[2].weights[5, 1] += 1e-3
        assert not update_matches(be, got, want)
    finally:
        for t, w in zip(got, before):
            t.weights[...] = w


def test_lost_request_or_negative_latency_is_detected():
    ok = SimpleNamespace(n_requests=4, n_shed=1, latencies_ns=np.array([1.0, 2.0, 0.0, 5.0]))
    assert served_all(ok, 5)
    lost = SimpleNamespace(n_requests=3, n_shed=1, latencies_ns=np.array([1.0, 2.0, 5.0]))
    assert not served_all(lost, 5)
    negative = SimpleNamespace(n_requests=4, n_shed=1, latencies_ns=np.array([1.0, -2.0, 0.0, 5.0]))
    assert not served_all(negative, 5)


def test_growing_backlog_is_detected():
    assert not backlog_growing(np.full(400, 3.0))
    assert backlog_growing(np.linspace(1.0, 100.0, 400))


def test_failed_checks_and_raises_count_against_attempts():
    out = Outcome("w")
    out.check(True, "fine")
    out.check(False, "bad output")
    out.op_raised("op", ValueError("boom"))
    assert (out.attempted, out.failed) == (3, 2)


# ---------------------------------------------------------------------------
# host time at the reference speed
# ---------------------------------------------------------------------------


def test_scaled_span_divides_by_the_reference_loops_pace(monkeypatch):
    paces = iter([2.0, 6.0])  # the loop ran 2x and then 6x slower than REFERENCE_S
    monkeypatch.setattr(harness, "reference_seconds",
                        lambda: next(paces) * harness.REFERENCE_S)
    clock = iter([10.0, 10.8])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    rec = Recorder()
    with rec.span("call", pace=1.0):
        pass
    assert rec.samples["call"] == [pytest.approx(0.8)]
    assert rec.scaled["call"] == [pytest.approx(0.2)]  # 0.8 s at a 4x slower pace
    assert rec.total("call", scaled=True) == pytest.approx(0.2)
    clock = iter([11.0, 11.5])
    with rec.span("numpy call"):  # pace 0: at the reference speed as measured
        pass
    assert rec.scaled["numpy call"] == [pytest.approx(0.5)]
    paces = iter([4.0, 4.0])
    clock = iter([12.0, 12.8])
    with rec.span("mixed call", pace=0.5):  # half the 4x slowdown's effect
        pass
    assert rec.scaled["mixed call"] == [pytest.approx(0.4)]


def test_reference_loop_does_fixed_work():
    assert harness.reference_loop() == harness.reference_loop()


# ---------------------------------------------------------------------------
# the simulated-model digest
# ---------------------------------------------------------------------------


def test_digest_detects_any_changed_simulated_number():
    record = [{"pgas": {"total_ns": 10.5e6, "transfers": 6944.0,
                        "latencies_ns": np.array([1.0, 2.0, 3.0])}}]
    digest = sim_digest(record)
    assert sim_digest(copy.deepcopy(record)) == digest
    changed = [{"pgas": {**record[0]["pgas"], "total_ns": np.nextafter(10.5e6, 11e6)}}]
    assert sim_digest(changed) != digest
    changed = [{"pgas": {**record[0]["pgas"], "latencies_ns": np.array([1.0, 2.0, 3.5])}}]
    assert sim_digest(changed) != digest


def test_attribution_charges_library_calls_to_the_calling_module():
    import cProfile

    from repro.core.workload import unpack_bytes_received

    wl = SimpleNamespace(device_id=1, output_bytes_by_dst=np.ones(4))
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(200):
        unpack_bytes_received([wl, wl, wl], 0)
    prof.disable()
    shares = layer_shares(attribute([prof]))
    assert shares["core.workload"] > 50.0


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_printed_metrics_match_benchmark_json(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = [(m["name"], m["unit"]) for m in BENCHMARK[key]]
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
        digests.append(next(line.split()[-1] for line in proc.stdout.splitlines()
                            if "simulated-model digest" in line))
    # The traced run simulates the same model: the digest repeats.
    assert digests[0] == digests[1]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "fabric-4x8", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
