"""Serving sweep: the K x policy grid and its self-validating artifact."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.servesweep import run_serve_sweep, validate_servesweep_json


@pytest.fixture(scope="module")
def payload():
    sweep = run_serve_sweep("tiny", max_in_flight=(1, 2), n_requests=16)
    return json.loads(json.dumps(sweep.as_dict()))


class TestValidator:
    def test_fresh_sweep_validates(self, payload):
        validate_servesweep_json(payload)
        ks = {(p["backend"], p["max_in_flight"]) for p in payload["points"]}
        assert ks == {(be, k) for be in ("pgas", "baseline") for k in (1, 2)}

    def test_rejects_result_k_mismatch(self, payload):
        bad = copy.deepcopy(payload)
        bad["points"][0]["result"]["max_in_flight"] = 7
        with pytest.raises(ValueError, match="disagrees with its result"):
            validate_servesweep_json(bad)

    def test_rejects_pgas_k2_goodput_loss(self, payload):
        bad = copy.deepcopy(payload)
        by_k = {p["max_in_flight"]: p for p in bad["points"] if p["backend"] == "pgas"}
        by_k[2]["result"]["goodput_qps"] = by_k[1]["result"]["goodput_qps"] * 0.5
        with pytest.raises(ValueError, match="K=2 goodput"):
            validate_servesweep_json(bad)

    def test_baseline_k2_loss_is_not_gated(self, payload):
        ok = copy.deepcopy(payload)
        by_k = {p["max_in_flight"]: p for p in ok["points"] if p["backend"] == "baseline"}
        by_k[2]["result"]["goodput_qps"] = by_k[1]["result"]["goodput_qps"] * 0.5
        validate_servesweep_json(ok)
