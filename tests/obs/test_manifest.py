"""Unit tests for run manifests (repro.obs.manifest)."""

import json

import pytest

from repro.core.request import ExplorationRequest, explore_request, request_manifest
from repro.core.vectorized import numpy_available
from repro.obs import (
    MANIFEST_SCHEMA,
    Recorder,
    RunManifest,
    environment_info,
    validate_manifest,
)
from repro.trace.synthetic import zipf_trace


def _explored_manifest(memory=False):
    """A real manifest from a fully instrumented exploration."""
    recorder = Recorder(memory=memory)
    trace = zipf_trace(400, 60, seed=2)
    request = ExplorationRequest.single(trace, budget=5, recorder=recorder)
    return request_manifest(request, explore_request(request))


class TestEnvironmentInfo:
    def test_reports_python_and_platform(self):
        info = environment_info()
        assert isinstance(info["python"], str) and info["python"]
        assert isinstance(info["platform"], str) and info["platform"]
        assert info["numpy"] is None or isinstance(info["numpy"], str)


class TestRunManifest:
    def test_from_recorder_snapshot(self):
        recorder = Recorder()
        with recorder.phase("engine:serial"):
            recorder.record("histogram_levels", 4)
        manifest = RunManifest.from_recorder(
            recorder,
            engine="serial",
            requested_engine="auto",
            options={},
            trace={"name": "t", "n": 10, "n_unique": 5, "address_bits": 4},
        )
        assert manifest.engine == "serial"
        assert manifest.requested_engine == "auto"
        assert manifest.phases[0]["name"] == "engine:serial"
        assert manifest.counters == {"histogram_levels": 4}

    def test_to_json_is_parseable_and_valid(self):
        manifest = _explored_manifest()
        document = json.loads(manifest.to_json())
        assert document["schema"] == MANIFEST_SCHEMA
        validate_manifest(document)

    def test_explorer_manifest_has_pipeline_phases(self):
        manifest = _explored_manifest()
        names = [p["name"] for p in manifest.phases]
        assert "resolve-engine" in names
        assert any(n.startswith("engine:") for n in names)
        assert "postlude:optimal-pairs" in names
        engine_phase = next(
            p for p in manifest.phases if p["name"].startswith("engine:")
        )
        child_names = [c["name"] for c in engine_phase["children"]]
        # auto runs the fused vectorized path wherever NumPy is; its
        # walk reads the packed MRCT's own keys, not the zero/one sets
        if numpy_available():
            assert child_names[:2] == ["prelude:strip", "prelude:packed-mrct"]
            assert "prelude:zerosets" not in child_names
        else:
            assert child_names[:3] == [
                "prelude:strip",
                "prelude:zerosets",
                "prelude:mrct",
            ]

    def test_explorer_manifest_counters_and_trace(self):
        manifest = _explored_manifest()
        assert manifest.counters["trace_refs"] == 400
        assert manifest.counters["unique_refs"] == manifest.trace["n_unique"]
        assert manifest.counters["histogram_levels"] >= 1
        assert manifest.trace["n"] == 400
        assert manifest.engine == ("vectorized" if numpy_available() else "serial")
        assert manifest.requested_engine == "auto"
        assert manifest.options == {"mode": "single", "prelude": "auto"}

    def test_memory_sampling_lands_in_manifest(self):
        manifest = _explored_manifest(memory=True)
        assert manifest.memory.get("tracemalloc_peak_bytes", 0) > 0


class TestValidateManifest:
    def test_accepts_real_document(self):
        validate_manifest(_explored_manifest().to_json_dict())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("schema"), "schema"),
            (lambda d: d.__setitem__("schema", "bogus/9"), "schema"),
            (lambda d: d.__setitem__("engine", ""), "engine"),
            (lambda d: d.pop("requested_engine"), "requested_engine"),
            (lambda d: d.__setitem__("options", []), "options"),
            (lambda d: d["trace"].pop("n_unique"), "n_unique"),
            (lambda d: d["trace"].__setitem__("n", "ten"), "trace.n"),
            (lambda d: d["environment"].pop("python"), "environment.python"),
            (lambda d: d.__setitem__("wall_s", -1.0), "wall_s"),
            (lambda d: d.__setitem__("phases", []), "phases"),
            (
                lambda d: d["phases"][0].pop("duration_s"),
                "missing field 'duration_s'",
            ),
            (
                lambda d: d["phases"][0].__setitem__("duration_s", -0.5),
                "negative duration",
            ),
            (
                lambda d: d["phases"][0]["counters"].__setitem__("bad", "x"),
                "counters",
            ),
        ],
    )
    def test_rejects_mutated_documents(self, mutate, message):
        document = _explored_manifest().to_json_dict()
        mutate(document)
        with pytest.raises(ValueError, match=message):
            validate_manifest(document)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_manifest([1, 2, 3])

    def test_rejects_children_exceeding_parent(self):
        document = _explored_manifest().to_json_dict()
        parent = document["phases"][0]
        parent["children"] = [
            {
                "name": "impossible",
                "duration_s": parent["duration_s"] + 10.0,
                "counters": {},
                "children": [],
            }
        ]
        with pytest.raises(ValueError, match="children sum"):
            validate_manifest(document)

    def test_rejects_unaccounted_wall_time(self):
        document = _explored_manifest().to_json_dict()
        document["wall_s"] = 1000.0
        with pytest.raises(ValueError, match="does not account"):
            validate_manifest(document)

    def test_phase_durations_account_for_wall_time(self):
        """The acceptance invariant: phases sum to wall time, in-tolerance.

        validate_manifest enforces it, but assert it directly so the
        contract survives validator refactors.
        """
        manifest = _explored_manifest()
        top_total = sum(p["duration_s"] for p in manifest.phases)
        tolerance = max(manifest.wall_s * 0.05, 0.025)
        assert abs(top_total - manifest.wall_s) <= tolerance
