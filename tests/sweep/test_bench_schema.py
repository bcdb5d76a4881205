"""The unified bench validator round-trips every committed artifact."""

import copy
import json
import os
import sys

import pytest

from repro.sweep.schema import BENCH_SCHEMAS, validate_bench

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

BENCH_FILES = {
    "postlude": "BENCH_postlude.json",
    "prelude": "BENCH_prelude.json",
    "store": "BENCH_store.json",
    "serve": "BENCH_serve.json",
    "stream": "BENCH_stream.json",
}


def load(name):
    with open(os.path.join(ROOT, BENCH_FILES[name]), encoding="utf-8") as fh:
        return json.load(fh)


class TestCommittedRoundTrip:
    @pytest.mark.parametrize("name", sorted(BENCH_FILES))
    def test_committed_document_validates(self, name):
        document = load(name)
        schema = validate_bench(document)
        assert schema == f"repro-bench-{name}/1"

    @pytest.mark.parametrize("name", sorted(BENCH_FILES))
    def test_harness_delegate_accepts_committed_document(self, name):
        """Each bench module's validate_results is the unified validator."""
        bench_dir = os.path.join(ROOT, "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            module = __import__(f"bench_{name}")
        finally:
            sys.path.remove(bench_dir)
        module.validate_results(load(name))
        with pytest.raises(ValueError, match="schema"):
            module.validate_results({"schema": "repro-bench-wrong/1"})

    def test_registry_covers_every_committed_schema(self):
        committed = {load(name)["schema"] for name in BENCH_FILES}
        assert committed == set(BENCH_SCHEMAS)


class TestRejections:
    def test_unknown_schema(self):
        with pytest.raises(ValueError, match="unknown bench schema"):
            validate_bench({"schema": "repro-bench-quantum/1"})

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench(["rows"])

    def test_expect_mismatch(self):
        document = load("postlude")
        with pytest.raises(ValueError, match="repro-bench-prelude/1"):
            validate_bench(document, expect="repro-bench-prelude/1")

    def test_missing_row_field(self):
        document = copy.deepcopy(load("postlude"))
        del document["results"][0]["wall_s"]
        with pytest.raises(ValueError, match="result fields"):
            validate_bench(document)

    def test_extra_row_field(self):
        document = copy.deepcopy(load("prelude"))
        document["results"][0]["bonus"] = 1
        with pytest.raises(ValueError, match="result fields"):
            validate_bench(document)

    def test_divergent_row_rejected(self):
        document = copy.deepcopy(load("postlude"))
        document["results"][0]["match"] = False
        with pytest.raises(ValueError, match="diverged"):
            validate_bench(document)

    def test_negative_measurement_rejected(self):
        document = copy.deepcopy(load("postlude"))
        document["results"][0]["wall_s"] = -0.1
        with pytest.raises(ValueError, match="negative"):
            validate_bench(document)

    def test_store_warm_miss_rejected(self):
        document = copy.deepcopy(load("store"))
        document["results"][0]["warm_hits"] = 0
        with pytest.raises(ValueError, match="never hit the store"):
            validate_bench(document)

    def test_serve_request_accounting_enforced(self):
        document = copy.deepcopy(load("serve"))
        document["results"]["server"]["requests_total"] += 1
        with pytest.raises(ValueError, match="requests"):
            validate_bench(document)

    def test_stream_checkpoint_divergence_rejected(self):
        document = copy.deepcopy(load("stream"))
        document["results"]["checkpoint"]["roundtrip_ok"] = False
        with pytest.raises(ValueError, match="round-trip"):
            validate_bench(document)

    def test_stream_oversized_tail_rejected(self):
        document = copy.deepcopy(load("stream"))
        document["config"]["tail_refs"] = document["config"]["total_refs"]
        with pytest.raises(ValueError, match="tail"):
            validate_bench(document)

    def test_summary_errors_rejected(self):
        document = copy.deepcopy(load("serve"))
        document["summary"]["errors"] = 3
        with pytest.raises(ValueError, match="failed or diverged"):
            validate_bench(document)
